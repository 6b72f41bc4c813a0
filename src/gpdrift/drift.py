"""Effective drift lower bounds from the pivotal-increment distribution.

One walk step changes the number of surviving pivotal times by at least a
random amount U that depends only on the graph constants (b, c, d): with
probability (d-b-c)/d a fresh pivotal time appears (+1), and the chance of
losing j or more is a geometric tail with ratio r = b/(d-b-c).
``PivotIncrementDistribution`` holds that law: its tails, its exact mean,
its exponential moment and the window of t that the optimizer searches.
Chernoff's bound applied to sums of independent copies turns a positive
mean into an exponential lower-tail estimate for the syllable length, with
rate

    f(t) = -ln E[exp(-t U)] / (1 + t),

maximized over the t where the moment value stays below one.  The achieved
maximum is the reported drift bound.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from ._frozen import Frozen
from .graphs import GraphStats

if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Width in t below which golden-section search stops.
_REFINE_TOL = 1e-9


class PivotIncrementDistribution(Frozen):
    """The integer step distribution: +1 with probability (d-b-c)/d,
    and P(U <= -j) = ((b+c)/d) * r**(j-1) with r = b/(d-b-c).

    It exists only for c >= 1, b >= 0 and d > 2b + c, where r < 1;
    construction checks this once and raises ``ValueError`` outside it.
    Immutable; equal and hashed by ``(b, c, d)``.
    """

    _fields = ("b", "c", "d")
    b: int
    c: int
    d: int

    def __init__(self, b: int, c: int, d: int):
        if c < 1 or b < 0:
            raise ValueError("need c >= 1 and b >= 0")
        if d <= 2 * b + c:
            raise ValueError(f"need d > 2b + c (got b={b}, c={c}, d={d})")
        Frozen.__init__(self, b, c, d)

    @property
    def p_up(self) -> float:
        return (self.d - self.b - self.c) / self.d

    @property
    def ratio(self) -> float:
        return self.b / (self.d - self.b - self.c)

    def tail(self, j: int) -> float:
        """P(U <= -j) for j >= 1."""
        if j < 1:
            raise ValueError("tail is defined for j >= 1")
        return (self.b + self.c) / self.d * self.ratio ** (j - 1)

    def at_least(self, k: int) -> float:
        """P(U >= k), exact from ``p_up`` and ``tail``: U is never 0 or above 1."""
        if k > 1:
            return 0.0
        if k >= 0:
            return self.p_up
        return 1.0 - self.tail(1 - k)

    def mean(self) -> Fraction:
        """Exact mean, p_up - ((b+c)/d) / (1 - r), in factored form:

            (d-b-c)(d-3b-2c) / (d (d-2b-c)).

        Positive exactly when d > 3b + 2c; the boundary case is an exact zero,
        which is why this stays in rational arithmetic.
        """
        from fractions import Fraction  # only here, so importing gpdrift skips it

        b, c, d = self.b, self.c, self.d
        return Fraction((d - b - c) * (d - 3 * b - 2 * c), d * (d - 2 * b - c))

    def mgf(self, t: float) -> float:
        """E[exp(-t U)] in closed form, from summing the geometric tail."""
        return self.mgf_function()(t)

    def mgf_function(self) -> Callable[[float], float]:
        """``mgf`` as a function of t alone, with the law's constants bound.

        It evaluates p/x + q(1-r)x / (1 - rx) at x = e^t, and raises
        ``ValueError`` for t < 0 and at or beyond the pole.  ``mgf`` calls
        it, and ``drift_lower_bound`` searches through it, so each step of
        the search costs one call and its arithmetic.
        """
        p, r = self.p_up, self.ratio
        qr = (self.b + self.c) / self.d * (1.0 - r)  # so qr * x rounds as q * (1 - r) * x does
        exp = math.exp

        def mgf(t: float) -> float:
            if t < 0:
                raise ValueError("t must be nonnegative")
            x = exp(t)
            rx = r * x
            if rx >= 1.0:
                raise ValueError(f"t={t} is at or beyond the series pole ln((d-b-c)/b)")
            return p / x + qr * x / (1.0 - rx)

        return mgf

    def t_max(self) -> float:
        """Right end of the search window for the rate function.

        For b > 0 this is the pole of the geometric series, ln((d-b-c)/b).
        For b = 0 the moment is finite everywhere; the window ends just past
        the point where it crosses back above one.
        """
        b, c, d = self.b, self.c, self.d
        if b > 0:
            return math.log((d - b - c) / b)
        p = self.p_up
        q = c / d
        # exp(-t) p + q exp(t) = 1 has roots x = e^t at (1 +- sqrt(1-4pq)) / 2q
        x_hi = (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * p * q))) / (2.0 * q)
        return math.log(x_hi) + 1.0


class SmallCliquesError(ValueError):
    """The small-cliques condition D > 3B + 2C fails, so there is no bound."""


class DriftBound(NamedTuple):
    """The optimized bound: kappa = -ln(law.mgf(t_star)) / (1 + t_star),
    with the law of U it was optimized over."""

    kappa: float
    t_star: float
    mgf_at_t_star: float
    law: PivotIncrementDistribution


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal-enough f on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return (lo + hi) / 2.0


def drift_lower_bound(b: int, c: int, d: int) -> DriftBound:
    """Maximize the rate function over the feasible window.

    Requires the small-cliques condition d > 3b + 2c, so the mean
    increment is positive and an interior maximizer exists.  It is checked
    exactly and first, since U's law does not exist for every graph that
    fails it; a failure raises ``SmallCliquesError``.
    Golden-section search over the whole window finds it, because the rate
    f(t) = h(t) / (1 + t) is unimodal: h(t) = -ln E[exp(-t U)] is concave
    with h(0) = 0, so each set {f >= L} = {h(t) - L (1 + t) >= 0} is an
    interval.  The rate reads -inf where h <= 0, which keeps this, as that
    set is an interval reaching the window's right end.

    The rate evaluates the moment through ``law.mgf_function()``, the one
    closed form that ``mgf`` also calls.
    ``test_drift_bound_is_bit_identical_to_reference`` compares kappa,
    t_star and the moment with ``==`` against a copy of the optimizer as it
    was before the closure, when every step went through ``mgf``.
    """
    if not GraphStats(d, c, b).small_cliques:
        raise SmallCliquesError(
            f"small-cliques condition fails: D={d} is not greater than 3B+2C={3 * b + 2 * c}"
        )
    law = PivotIncrementDistribution(b, c, d)
    mgf = law.mgf_function()
    log = math.log

    def rate(t: float) -> float:
        m = mgf(t)
        return -math.inf if m >= 1.0 else -log(m) / (1.0 + t)

    t_max = law.t_max()
    eps = 1e-12 * t_max
    t_star = _golden_max(rate, eps, t_max - eps, _REFINE_TOL)
    mgf_star = mgf(t_star)
    assert mgf_star < 1.0, "no feasible t despite positive mean"
    return DriftBound(
        kappa=-math.log(mgf_star) / (1.0 + t_star),
        t_star=t_star,
        mgf_at_t_star=mgf_star,
        law=law,
    )
