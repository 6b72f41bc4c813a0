import math
from fractions import Fraction
from random import Random

import pytest

from gpdrift.drift import (
    DriftBound,
    PivotIncrementDistribution,
    chernoff_tail_bound,
    drift_lower_bound,
    feasible_t_max,
    increment_mean,
    increment_mgf,
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
    assert increment_mean(4, 2, 17) == Fraction(11, 119)
    assert increment_mean(4, 2, 16) == 0
    assert increment_mean(4, 2, 100) > 0


def test_mean_domain_error():
    with pytest.raises(ValueError):
        increment_mean(4, 2, 10)
    with pytest.raises(ValueError):
        increment_mean(4, 0, 30)


def test_mean_matches_series():
    rng = Random(50)
    for b, c, d in random_domain_triples(rng, 20):
        assert abs(float(increment_mean(b, c, d)) - mean_series(b, c, d)) < 1e-12


def test_mean_sign_characterizes_small_cliques():
    for b in range(0, 7):
        for c in range(1, 7):
            for d in range(2 * b + c + 1, 61):
                positive = increment_mean(b, c, d) > 0
                assert positive == (d > 3 * b + 2 * c)


def test_distribution_mass_and_shape():
    rng = Random(51)
    for b, c, d in random_domain_triples(rng, 10):
        dist = PivotIncrementDistribution(b, c, d)
        total = dist.p_up
        j = 1
        while True:
            mass = dist.pmf(-j)
            assert mass >= 0
            total += mass
            if dist.tail(j) < 1e-16:
                break
            j += 1
        assert abs(total - 1.0) < 1e-12
        assert dist.pmf(0) == 0.0 and dist.pmf(2) == 0.0


def test_distribution_tail_and_pmf_when_b_is_zero():
    # b = 0: the ratio is 0.0, so only U = -1 carries the downward mass
    for c, d in [(1, 2), (1, 5), (2, 3), (3, 17), (6, 61)]:
        dist = PivotIncrementDistribution(0, c, d)
        assert dist.tail(1) == dist.pmf(-1) == c / d
        assert dist.pmf(1) == (d - c) / d
        for j in range(2, 8):
            assert dist.tail(j) == 0.0 and dist.pmf(-j) == 0.0


def test_distribution_requires_domain():
    with pytest.raises(ValueError):
        PivotIncrementDistribution(4, 2, 10)


def test_mgf_at_zero_limit():
    for t in (1e-3, 1e-6, 1e-9):
        assert abs(increment_mgf(t, 4, 2, 17) - 1.0) < 1e-2
    assert increment_mgf(0.0, 4, 2, 17) == pytest.approx(1.0)


def test_mgf_matches_series():
    rng = Random(52)
    checked = 0
    while checked < 25:
        b, c, d = random_domain_triples(rng, 1)[0]
        t_max = feasible_t_max(b, c, d)
        t = rng.uniform(0.05, 0.95) * t_max
        closed = increment_mgf(t, b, c, d)
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
        assert abs(increment_mgf(t, b, c, d) - displayed) < 1e-12


def test_mgf_domain_errors():
    with pytest.raises(ValueError):
        increment_mgf(-0.1, 4, 2, 17)
    t_pole = feasible_t_max(4, 2, 17)
    with pytest.raises(ValueError):
        increment_mgf(t_pole, 4, 2, 17)
    with pytest.raises(ValueError):
        increment_mgf(t_pole + 1.0, 4, 2, 17)


def test_mgf_explodes_near_pole():
    t_pole = feasible_t_max(4, 2, 17)
    assert increment_mgf(t_pole * 0.999999, 4, 2, 17) > 1e3


def test_sample_statistics():
    rng = Random(53)
    dist = PivotIncrementDistribution(4, 2, 50)
    n = 200_000
    total = 0
    ups = 0
    sq = 0
    for _ in range(n):
        u = dist.sample(rng)
        total += u
        sq += u * u
        ups += u == 1
    mean = total / n
    var = sq / n - mean * mean
    exact = float(dist.mean())
    assert abs(mean - exact) <= 4 * math.sqrt(var / n)
    p = dist.p_up
    assert abs(ups / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_sample_degenerate_ratio():
    rng = Random(54)
    dist = PivotIncrementDistribution(0, 1, 5)
    values = {dist.sample(rng) for _ in range(2000)}
    assert values == {1, -1}


def test_kappa_17_respects_jensen_cap():
    bound = drift_lower_bound(4, 2, 17)
    assert 0 < bound.kappa <= 11 / 119
    assert 0 < bound.t_star < bound.t_max
    assert 0 < bound.mgf_at_t_star < 1


def test_kappa_100_matches_frozen_oracle():
    bound = drift_lower_bound(4, 2, 100)
    assert abs(bound.kappa - KAPPA_100_ORACLE) < 1e-6
    assert bound.kappa == pytest.approx(-math.log(bound.mgf_at_t_star) / (1 + bound.t_star))


def test_kappa_small_cliques_required():
    with pytest.raises(ValueError, match="small-cliques"):
        drift_lower_bound(4, 2, 16)


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
        mean = float(increment_mean(b, c, d))
        t_max = feasible_t_max(b, c, d)
        for _ in range(50):
            t = rng.uniform(1e-6, 0.999) * t_max
            m = increment_mgf(t, b, c, d)
            if m >= 1:
                continue
            rate = -math.log(m) / (1 + t)
            assert rate <= t * mean / (1 + t) + 1e-12
            assert rate <= mean + 1e-12


def test_chernoff_bound_properties():
    bound = drift_lower_bound(4, 2, 50)
    assert chernoff_tail_bound(bound.kappa, bound.t_star, bound.mgf_at_t_star, 0) == 1.0
    for n in range(1, 10_001):
        val = chernoff_tail_bound(bound.kappa, bound.t_star, bound.mgf_at_t_star, n)
        assert val <= math.exp(-bound.kappa * n) * (1 + 1e-12)
    # strictly smaller kappa gives a strictly better bound
    smaller = chernoff_tail_bound(
        bound.kappa - 1e-9, bound.t_star, bound.mgf_at_t_star, 1000
    )
    assert smaller < math.exp(-(bound.kappa - 1e-9) * 1000)


def test_chernoff_bound_validation():
    with pytest.raises(ValueError):
        chernoff_tail_bound(0.1, 0.0, 0.5, 10)
    with pytest.raises(ValueError):
        chernoff_tail_bound(0.1, 1.0, 1.5, 10)
    with pytest.raises(ValueError):
        chernoff_tail_bound(0.1, 1.0, 0.5, -1)


def test_chernoff_bound_against_simulation():
    import numpy as np

    b, c, d = 4, 2, 50
    bound = drift_lower_bound(b, c, d)
    dist = PivotIncrementDistribution(b, c, d)
    trials, n = 100_000, 100
    rng = np.random.default_rng(99)
    # independent sampler: inverse CDF written directly against the tail law
    u1 = rng.random((trials, n))
    u2 = rng.random((trials, n))
    ratio = dist.ratio
    depth = 1 + np.floor(np.log(1 - u2) / math.log(ratio)).astype(int)
    samples = np.where(u1 < dist.p_up, 1, -depth)
    sums = samples.sum(axis=1)
    empirical = float(np.mean(sums <= bound.kappa * n))
    limit = chernoff_tail_bound(bound.kappa, bound.t_star, bound.mgf_at_t_star, n)
    assert empirical <= limit
    assert limit <= math.exp(-bound.kappa * n) * (1 + 1e-12)


def test_bound_dataclass_fields():
    bound = drift_lower_bound(4, 2, 17)
    assert isinstance(bound, DriftBound)
    assert bound.mean_increment == pytest.approx(11 / 119)


def _dense_grid_kappa(b, c, d, points=2000, zooms=4):
    """Maximum of the rate by grid scans, each zooming in on the best cell."""
    t_max = feasible_t_max(b, c, d)
    lo, hi = 1e-12 * t_max, t_max * (1 - 1e-12)

    def rate(t):
        m = increment_mgf(t, b, c, d)
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
    import gpdrift.drift as drift

    calls = []
    rate = drift._rate
    monkeypatch.setattr(drift, "_rate", lambda *args: calls.append(args) or rate(*args))
    bound = drift_lower_bound(b, c, d)
    assert len(calls) < 100
    assert bound.kappa == pytest.approx(_dense_grid_kappa(b, c, d), rel=1e-12)
