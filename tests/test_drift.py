import math
from fractions import Fraction
from random import Random

import pytest

from gpdrift.drift import (
    DriftBound,
    PivotIncrementDistribution,
    SmallCliquesError,
    drift_lower_bound,
)

from oracles import mean_series, mgf_series

# frozen before the implementation: a 200k-point scan of the rate function
KAPPA_100_ORACLE = 0.325162205


def random_domain_triples(rng, count):
    out = []
    while len(out) < count:
        b = rng.randrange(0, 7)
        c = rng.randrange(1, 7)
        d = rng.randrange(2 * b + c + 1, 2 * b + c + 60)
        out.append((b, c, d))
    return out


def test_mean_exact_values():
    assert PivotIncrementDistribution(4, 2, 17).mean() == Fraction(11, 119)
    assert PivotIncrementDistribution(4, 2, 16).mean() == 0
    assert PivotIncrementDistribution(4, 2, 100).mean() > 0


def test_mean_domain_error():
    with pytest.raises(ValueError):
        PivotIncrementDistribution(4, 2, 10).mean()
    with pytest.raises(ValueError):
        PivotIncrementDistribution(4, 0, 30).mean()


def test_mean_matches_series():
    rng = Random(50)
    for b, c, d in random_domain_triples(rng, 20):
        assert abs(float(PivotIncrementDistribution(b, c, d).mean()) - mean_series(b, c, d)) < 1e-12


def test_mean_sign_characterizes_small_cliques():
    for b in range(0, 7):
        for c in range(1, 7):
            for d in range(2 * b + c + 1, 61):
                positive = PivotIncrementDistribution(b, c, d).mean() > 0
                assert positive == (d > 3 * b + 2 * c)


def test_distribution_mass_and_shape():
    rng = Random(51)
    for b, c, d in random_domain_triples(rng, 10):
        dist = PivotIncrementDistribution(b, c, d)
        total = dist.p_up
        j = 1
        while True:
            mass = dist.tail(j) - dist.tail(j + 1)
            assert mass >= 0
            total += mass
            if dist.tail(j) < 1e-16:
                break
            j += 1
        assert abs(total - 1.0) < 1e-12


def test_distribution_tail_and_pmf_when_b_is_zero():
    # b = 0: the ratio is 0.0, so only U = -1 carries the downward mass
    for c, d in [(1, 2), (1, 5), (2, 3), (3, 17), (6, 61)]:
        dist = PivotIncrementDistribution(0, c, d)
        assert dist.tail(1) == dist.tail(1) - dist.tail(2) == c / d
        assert dist.p_up == (d - c) / d
        for j in range(2, 8):
            assert dist.tail(j) == 0.0 and dist.tail(j) - dist.tail(j + 1) == 0.0


def test_distribution_requires_domain():
    # (4, 4, 4) is complete_graph(4), where d - b - c < 0; (1, 1, 3) is
    # edgeless_graph(3), where d - b - c > 0 but d = 2b + c
    for b, c, d in [(4, 2, 10), (4, 0, 30), (-1, 1, 5), (4, 4, 4), (1, 1, 3)]:
        with pytest.raises(ValueError):
            PivotIncrementDistribution(b, c, d)


def test_mgf_at_zero_limit():
    dist = PivotIncrementDistribution(4, 2, 17)
    for t in (1e-3, 1e-6, 1e-9):
        assert abs(dist.mgf(t) - 1.0) < 1e-2
    assert dist.mgf(0.0) == pytest.approx(1.0)


def test_mgf_matches_series():
    rng = Random(52)
    checked = 0
    while checked < 25:
        b, c, d = random_domain_triples(rng, 1)[0]
        dist = PivotIncrementDistribution(b, c, d)
        t = rng.uniform(0.05, 0.95) * dist.t_max()
        closed = dist.mgf(t)
        series = mgf_series(t, b, c, d)
        assert abs(closed - series) <= 1e-10 * max(1.0, abs(closed))
        checked += 1


def test_mgf_matches_power_form():
    # with exp(t) = d**alpha the closed form must reduce to
    # d^-alpha (d-b-c)/d + (b+c) d^(alpha-1) (d-2b-c)/(d-b-c-d^alpha b)
    for b, c, d, alpha in [(4, 2, 100, 0.3), (4, 2, 1000, 0.2), (1, 1, 50, 0.4), (2, 3, 400, 0.25)]:
        t = alpha * math.log(d)
        assert math.exp(t) * b / (d - b - c) < 1, "pick alpha inside the window"
        da = d**alpha
        displayed = (
            d ** (-alpha) * (d - b - c) / d
            + (b + c) * d ** (alpha - 1) * (d - 2 * b - c) / (d - b - c - da * b)
        )
        assert abs(PivotIncrementDistribution(b, c, d).mgf(t) - displayed) < 1e-12


def test_mgf_domain_errors():
    dist = PivotIncrementDistribution(4, 2, 17)
    with pytest.raises(ValueError):
        dist.mgf(-0.1)
    t_pole = dist.t_max()
    with pytest.raises(ValueError):
        dist.mgf(t_pole)
    with pytest.raises(ValueError):
        dist.mgf(t_pole + 1.0)


def test_mgf_explodes_near_pole():
    dist = PivotIncrementDistribution(4, 2, 17)
    assert dist.mgf(dist.t_max() * 0.999999) > 1e3


def test_kappa_17_respects_jensen_cap():
    bound = drift_lower_bound(4, 2, 17)
    assert 0 < bound.kappa <= 11 / 119
    assert 0 < bound.t_star < bound.law.t_max()
    assert 0 < bound.mgf_at_t_star < 1


def test_kappa_100_matches_frozen_oracle():
    bound = drift_lower_bound(4, 2, 100)
    assert abs(bound.kappa - KAPPA_100_ORACLE) < 1e-6
    assert bound.kappa == pytest.approx(-math.log(bound.mgf_at_t_star) / (1 + bound.t_star))


def test_kappa_small_cliques_required():
    # the 16-cycle, inside U's domain, and K_4, outside it: the test comes first
    for b, c, d in [(4, 2, 16), (4, 4, 4)]:
        with pytest.raises(SmallCliquesError) as info:
            drift_lower_bound(b, c, d)
        assert str(info.value) == (
            f"small-cliques condition fails: D={d} is not greater than 3B+2C={3 * b + 2 * c}"
        )


def test_kappa_cycle_family_monotone():
    kappas = [drift_lower_bound(4, 2, d).kappa for d in (17, 20, 30, 50, 100, 300, 1000, 3000, 12000)]
    assert all(x < y for x, y in zip(kappas, kappas[1:]))
    assert kappas[-1] > kappas[4] > kappas[0]


def test_kappa_works_without_negative_tail():
    bound = drift_lower_bound(0, 1, 5)
    assert bound.kappa > 0


def test_rate_below_jensen_curve():
    rng = Random(55)
    for b, c, d in [(4, 2, 30), (4, 2, 200), (1, 2, 40)]:
        dist = PivotIncrementDistribution(b, c, d)
        mean = float(dist.mean())
        t_max = dist.t_max()
        for _ in range(50):
            t = rng.uniform(1e-6, 0.999) * t_max
            m = dist.mgf(t)
            if m >= 1:
                continue
            rate = -math.log(m) / (1 + t)
            assert rate <= t * mean / (1 + t) + 1e-12
            assert rate <= mean + 1e-12


def test_chernoff_bound_against_simulation():
    # At the optimum Chernoff's bound on P(S_n <= kappa n) for n independent
    # copies of U is exp(-kappa n).  The horizons are short enough that the
    # event happens hundreds of times or more, so a kappa too large by half
    # would fail at n = 20.
    import numpy as np

    b, c, d = 4, 2, 50
    bound = drift_lower_bound(b, c, d)
    dist = PivotIncrementDistribution(b, c, d)
    trials = 100_000
    rng = np.random.default_rng(99)
    for n in (5, 10, 20):
        # independent sampler: inverse CDF written directly against the tail law
        u1 = rng.random((trials, n))
        u2 = rng.random((trials, n))
        ratio = dist.ratio
        depth = 1 + np.floor(np.log(1 - u2) / math.log(ratio)).astype(int)
        samples = np.where(u1 < dist.p_up, 1, -depth)
        sums = samples.sum(axis=1)
        empirical = float(np.mean(sums <= bound.kappa * n))
        assert 0 < empirical <= math.exp(-bound.kappa * n), n


def test_bound_dataclass_fields():
    bound = drift_lower_bound(4, 2, 17)
    assert isinstance(bound, DriftBound)
    assert DriftBound._fields == ("kappa", "t_star", "mgf_at_t_star", "law")
    assert bound.law == PivotIncrementDistribution(4, 2, 17)
    assert bound.law.mean() == Fraction(11, 119)
    assert bound.mgf_at_t_star == bound.law.mgf(bound.t_star)


def _dense_grid_kappa(b, c, d, points=2000, zooms=4):
    """Maximum of the rate by grid scans, each zooming in on the best cell."""
    dist = PivotIncrementDistribution(b, c, d)
    t_max = dist.t_max()
    lo, hi = 1e-12 * t_max, t_max * (1 - 1e-12)

    def rate(t):
        m = dist.mgf(t)
        return -math.log(m) / (1 + t) if m < 1 else -math.inf

    best = -math.inf
    for _ in range(zooms):
        h = (hi - lo) / points
        i, best = max(((i, rate(lo + i * h)) for i in range(points + 1)), key=lambda p: p[1])
        lo, hi = max(lo, lo + (i - 1) * h), min(hi, lo + (i + 1) * h)
    return best


@pytest.mark.parametrize(
    "b,c,d",
    [(0, 1, 3), (0, 2, 5), (0, 1, 12000), (1, 1, 6), (4, 2, 17), (4, 2, 100),
     (3, 1, 150), (6, 6, 31), (4, 2, 12000), (20, 5, 12000)],
)
def test_kappa_is_golden_section_alone_and_matches_dense_grid(monkeypatch, b, c, d):
    calls = []
    mgf = PivotIncrementDistribution.mgf
    monkeypatch.setattr(
        PivotIncrementDistribution, "mgf", lambda self, t: calls.append(t) or mgf(self, t)
    )
    bound = drift_lower_bound(b, c, d)
    assert len(calls) < 100
    assert bound.kappa == pytest.approx(_dense_grid_kappa(b, c, d), rel=1e-12)
