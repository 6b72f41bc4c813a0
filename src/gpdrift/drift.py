"""Effective drift lower bounds from the pivotal-increment distribution.

One walk step changes the number of surviving pivotal times by at least a
random amount U that depends only on the graph constants (b, c, d): with
probability (d-b-c)/d a fresh pivotal time appears (+1), and the chance of
losing j or more is a geometric tail with ratio r = b/(d-b-c).  Chernoff's
bound applied to sums of independent copies turns a positive mean into an
exponential lower-tail estimate for the syllable length, with rate

    f(t) = -ln E[exp(-t U)] / (1 + t),

maximized over the t where the moment value stays below one.  The achieved
maximum is the reported drift bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Width in t below which golden-section search stops.
_REFINE_TOL = 1e-9


def _require_domain(b: int, c: int, d: int) -> None:
    if c < 1 or b < 0 or d < 1:
        raise ValueError("need c >= 1, b >= 0, d >= 1")
    if d <= 2 * b + c:
        raise ValueError(f"need d > 2b + c (got b={b}, c={c}, d={d})")


@dataclass(frozen=True)
class PivotIncrementDistribution:
    """The integer step distribution: +1 with probability (d-b-c)/d,
    and P(U <= -j) = ((b+c)/d) * r**(j-1) with r = b/(d-b-c)."""

    b: int
    c: int
    d: int

    def __post_init__(self):
        _require_domain(self.b, self.c, self.d)

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

    def pmf(self, u: int) -> float:
        if u == 1:
            return self.p_up
        if u <= -1:
            j = -u
            nxt = self.tail(j + 1)
            return self.tail(j) - nxt
        return 0.0

    def mean(self) -> Fraction:
        return increment_mean(self.b, self.c, self.d)

    def sample(self, rng: Random) -> int:
        """Exact inverse-CDF draw: +1 with probability p_up, else a
        geometric depth below zero."""
        if rng.random() < self.p_up:
            return 1
        if self.b == 0:
            return -1
        v = 1.0 - rng.random()  # in (0, 1]
        j = 1 + int(math.log(v) / math.log(self.ratio))
        return -j


@dataclass(frozen=True)
class DriftBound:
    """The optimized bound: kappa = -ln(mgf at t_star) / (1 + t_star)."""

    kappa: float
    t_star: float
    mgf_at_t_star: float
    mean_increment: float
    t_max: float


def increment_mean(b: int, c: int, d: int) -> Fraction:
    """Exact mean of the increment distribution.

    Positive exactly when d > 3b + 2c; the boundary case is an exact zero,
    which is why this stays in rational arithmetic.
    """
    _require_domain(b, c, d)
    return Fraction(d - b - c, d) - Fraction(b + c, d) * Fraction(d - b - c, d - 2 * b - c)


def feasible_t_max(b: int, c: int, d: int) -> float:
    """Right end of the search window for the rate function.

    For b > 0 this is the pole of the geometric series, ln((d-b-c)/b).
    For b = 0 the moment is finite everywhere; the window ends just past
    the point where it crosses back above one.
    """
    _require_domain(b, c, d)
    if b > 0:
        return math.log((d - b - c) / b)
    p = (d - c) / d
    q = c / d
    # exp(-t) p + q exp(t) = 1 has roots x = e^t at (1 +- sqrt(1-4pq)) / 2q
    x_hi = (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * p * q))) / (2.0 * q)
    return math.log(x_hi) + 1.0


def increment_mgf(t: float, b: int, c: int, d: int) -> float:
    """E[exp(-t U)] in closed form, from summing the geometric tail."""
    _require_domain(b, c, d)
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = math.exp(t)
    p = (d - b - c) / d
    q = (b + c) / d
    r = b / (d - b - c)
    if r * x >= 1.0:
        raise ValueError(f"t={t} is at or beyond the series pole ln((d-b-c)/b)")
    return p / x + q * (1.0 - r) * x / (1.0 - r * x)


def _rate(t: float, b: int, c: int, d: int) -> float:
    m = increment_mgf(t, b, c, d)
    if m >= 1.0:
        return -math.inf
    return -math.log(m) / (1.0 + t)


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

    Requires the small-cliques condition d > 3b + 2c (checked exactly), so
    the mean increment is positive and an interior maximizer exists.
    Golden-section search over the whole window finds it, because the rate
    f(t) = h(t) / (1 + t) is unimodal: h(t) = -ln E[exp(-t U)] is concave
    with h(0) = 0, so each set {f >= L} = {h(t) - L (1 + t) >= 0} is an
    interval.  The -inf that ``_rate`` reports where h <= 0 keeps this, as
    that set is an interval reaching the window's right end.
    """
    _require_domain(b, c, d)
    if d <= 3 * b + 2 * c:
        raise ValueError(
            f"small-cliques condition d > 3b + 2c fails (b={b}, c={c}, d={d})"
        )
    t_max = feasible_t_max(b, c, d)
    eps = 1e-12 * t_max
    t_star = _golden_max(lambda t: _rate(t, b, c, d), eps, t_max - eps, _REFINE_TOL)
    mgf_star = increment_mgf(t_star, b, c, d)
    assert mgf_star < 1.0, "no feasible t despite positive mean"
    return DriftBound(
        kappa=-math.log(mgf_star) / (1.0 + t_star),
        t_star=t_star,
        mgf_at_t_star=mgf_star,
        mean_increment=float(increment_mean(b, c, d)),
        t_max=t_max,
    )


def chernoff_tail_bound(rate: float, t: float, mgf_value: float, n: int) -> float:
    """min(1, exp(t*rate*n) * mgf_value**n): the probability that n
    independent increments sum to at most rate*n.

    When ``rate`` is strictly below -ln(mgf_value)/(1+t) the result is
    below exp(-rate*n); at the achieved optimum it equals it.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not 0.0 < mgf_value < 1.0:
        raise ValueError("mgf_value must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return min(1.0, math.exp(n * (t * rate + math.log(mgf_value))))
