import math
import os

import pytest

from gpdrift.drift import PivotIncrementDistribution, drift_lower_bound
from gpdrift.experiments import (
    TrialBatch,
    check_domination,
    check_pivot_step_probability,
    check_lower_tail,
    checks_csv_text,
    derive_seed,
    estimate_drift,
    log_spaced_ints,
    run_batch,
    sweep_csv_text,
    sweep_cycles,
    trials_csv_text,
    wilson_upper,
)
import gpdrift.experiments as experiments
from gpdrift.graphs import complete_graph, cycle_graph, edgeless_graph, graph_stats
from gpdrift.groups import groups_from_spec, uniform_groups
from gpdrift.piling import render
from gpdrift.walk import FixedWord, ParetoLetter, WalkTrace, WordChoice, run_walk

C17 = cycle_graph(17)
Z17 = uniform_groups(17)
STATS17 = graph_stats(C17)


def batch17(steps=20, trials=500, seed=7, nu=None):
    return TrialBatch(
        graph=C17,
        groups=Z17,
        nu=nu or FixedWord(((0, 1),)),
        steps=steps,
        trials=trials,
        base_seed=seed,
    )


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(1729, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_run_batch_deterministic():
    b = batch17(steps=10, trials=50)
    assert trials_csv_text(run_batch(b)) == trials_csv_text(run_batch(b))


def test_run_batch_worker_count_is_invisible(monkeypatch):
    b = batch17(steps=10, trials=40)
    serial = trials_csv_text(run_batch(b))
    monkeypatch.setenv("GPDRIFT_WORKERS", "3")
    assert trials_csv_text(run_batch(b)) == serial


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # only the count is read: no process is started here
    monkeypatch.setenv("GPDRIFT_WORKERS", "100000")
    assert experiments.worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("GPDRIFT_WORKERS", "0")
    assert experiments.worker_count() == 1


def test_run_batch_starts_no_pool_for_one_trial(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single trial needs no worker pool")

    monkeypatch.setenv("GPDRIFT_WORKERS", "2")
    monkeypatch.setattr(experiments, "Pool", no_pool)
    assert len(run_batch(batch17(steps=3, trials=1))) == 1


MIXED17 = groups_from_spec(",".join(["z", "zmod:2", "zmod:3"] * 5 + ["z", "zmod:2"]), 17)


def _word(*letters):
    return tuple((v, MIXED17[v].from_int(k)) for v, k in letters)


@pytest.mark.parametrize(
    "nu",
    [
        FixedWord(_word((0, 1))),
        ParetoLetter(1.1),
        WordChoice([_word((0, 1), (5, 2)), _word((3, -1)), _word((2, 1), (9, 1), (2, -1))]),
    ],
    ids=["fixed", "pareto", "list"],
)
def test_walk_prefix_is_the_shorter_walk(nu):
    # one batch of n+1 steps serves the n-step checks only because of this
    for trial in range(40):
        seed = derive_seed(31, trial)
        short = run_walk(C17, MIXED17, nu, 30, seed)
        long = run_walk(C17, MIXED17, nu, 31, seed)
        assert long.s_letters[:30] == short.s_letters
        assert long.nu_words[:30] == short.nu_words
        assert long.active_counts[:30] == short.active_counts
        assert long.syllable_counts[:30] == short.syllable_counts
        assert render(long.piling_after(30), C17.labels) == render(short.piling, C17.labels)


def test_batch_metrics_record_every_step():
    for m in run_batch(batch17(steps=12, trials=20)):
        assert len(m.syllable_counts) == len(m.active_counts) == 12
        assert m.syllables == m.syllable_counts[-1]


def test_run_batch_validation():
    with pytest.raises(ValueError):
        run_batch(batch17(trials=0))
    with pytest.raises(ValueError):
        run_batch(batch17(steps=-1))


def test_estimate_drift_single_trial():
    est = estimate_drift(run_batch(batch17(steps=10, trials=1)), 10)
    assert est.stderr is None
    assert est.mean > 0


def test_estimate_drift_edgeless_is_near_two():
    # cancellations need the uniform letter to land on the word's vertex,
    # so the per-step syllable gain sits just below 2
    graph = edgeless_graph(12)
    groups = uniform_groups(12)
    b = TrialBatch(graph, groups, FixedWord(((11, 1),)), steps=60, trials=400, base_seed=5)
    est = estimate_drift(run_batch(b), b.steps)
    assert 1.6 < est.mean <= 2.0


def test_empirical_drift_exceeds_bound():
    graph = cycle_graph(50)
    groups = uniform_groups(50)
    b = TrialBatch(graph, groups, FixedWord(((0, 1),)), steps=100, trials=500, base_seed=9)
    est = estimate_drift(run_batch(b), b.steps)
    kappa = drift_lower_bound(4, 2, 50).kappa
    assert est.mean - 4 * est.stderr > kappa


def test_exact_drift_two_when_letters_never_collide():
    # hand-built steps: distinct non-adjacent vertices everywhere
    graph = edgeless_graph(4)
    groups = uniform_groups(4)
    n = 25
    steps = [((k % 3, 1), ((3, 1),)) for k in range(n)]
    trace = WalkTrace.run(graph, groups, steps)
    assert trace.piling.syllables / n == 2.0


def test_wilson_upper_monotone_and_bounded():
    assert wilson_upper(0, 100) < wilson_upper(1, 100) < wilson_upper(50, 100)
    assert wilson_upper(100, 100) == 1.0
    assert 0 < wilson_upper(0, 10_000) < 1e-2


def test_check_lower_tail_passes_and_reports():
    bound = drift_lower_bound(4, 2, 17)
    rep = check_lower_tail(run_batch(batch17(steps=60, trials=400)), 60, bound.kappa)
    assert rep.passed
    assert rep.threshold == pytest.approx(math.exp(-bound.kappa * 60))
    assert rep.statistic < rep.threshold


def test_check_lower_tail_one_step():
    bound = drift_lower_bound(4, 2, 17)
    rep = check_lower_tail(run_batch(batch17(steps=1, trials=400)), 1, bound.kappa)
    assert rep.passed


def test_check_pivot_step_probability_cycle():
    rep = check_pivot_step_probability(run_batch(batch17(steps=20, trials=1500)), 20, STATS17)
    assert rep.passed and not rep.skipped
    assert rep.threshold == pytest.approx(11 / 17, abs=0.05)


def test_check_pivot_step_probability_skips_vacuous():
    graph = complete_graph(4)
    groups = uniform_groups(4)
    b = TrialBatch(graph, groups, FixedWord(((0, 1),)), steps=5, trials=10, base_seed=1)
    rep = check_pivot_step_probability(run_batch(b), b.steps, graph_stats(graph))
    assert rep.skipped and rep.passed


def test_check_pivot_step_probability_edgeless_exhaustive_oracle():
    # d=3 free product with order-2 factors: every (s1, s2) outcome is
    # equally likely, so the step probability is exact by enumeration
    from gpdrift.groups import CyclicGroup

    graph = edgeless_graph(3)
    groups = uniform_groups(3, CyclicGroup(2))
    nu_word = ((0, 1),)
    adds = 0
    total = 0
    for s1 in range(3):
        for s2 in range(3):
            steps = [((s1, 1), nu_word), ((s2, 1), nu_word)]
            trace = WalkTrace.run(graph, groups, steps)
            a1, a2 = trace.active_counts
            total += 2
            adds += (a1 >= 1) + (a2 >= a1 + 1)
    exact = adds / total
    # stats of the edgeless graph give b=1, c=1: bound (d-b-c)/d = 1/3
    assert exact >= 1 / 3
    b = TrialBatch(graph, groups, FixedWord(nu_word), steps=2, trials=4000, base_seed=11)
    rep = check_pivot_step_probability(run_batch(b), b.steps, graph_stats(graph))
    assert rep.passed
    assert abs(exact - rep.statistic) < 0.05


def test_check_domination_true_distribution_passes():
    rep = check_domination(
        run_batch(batch17(steps=11, trials=4000)), 10, PivotIncrementDistribution(4, 2, 17), 7
    )
    assert rep.passed
    assert rep.statistic >= 0.0


def test_check_domination_detects_inflated_distribution():
    # corruption in the favourable direction (nearly all mass on +1) must
    # break domination; fattening the negative tail would only make the
    # dominated side easier to beat
    rep = check_domination(
        run_batch(batch17(steps=11, trials=20_000)), 10, PivotIncrementDistribution(0, 1, 10**6), 7
    )
    assert not rep.passed
    assert rep.statistic < 0


def test_sweep_rows_and_markers():
    rows = sweep_cycles([15, 16, 17, 40, 100])
    by_d = {r.d: r for r in rows}
    assert by_d[15].kappa is None and by_d[16].kappa is None
    assert by_d[15].mean_increment is not None  # defined, just not positive
    assert by_d[15].mean_increment < 0
    assert by_d[16].mean_increment == 0.0
    assert by_d[17].kappa > 0
    assert by_d[100].kappa == pytest.approx(drift_lower_bound(4, 2, 100).kappa)
    assert by_d[100].t_star == drift_lower_bound(4, 2, 100).t_star  # bit-for-bit
    ks = [r.kappa for r in rows if r.kappa is not None]
    assert ks == sorted(ks)


def test_sweep_csv_format():
    text = sweep_csv_text(sweep_cycles([16, 17]))
    lines = text.strip().split("\n")
    assert lines[0] == "D,B,C,kappa,t_star,mean_U,mgf"
    assert lines[1].startswith("16,4,2,nan,nan,0,nan")
    d, b, c, kappa, t_star, mean_u, mgf = lines[2].split(",")
    assert (d, b, c) == ("17", "4", "2")
    assert float(kappa) == pytest.approx(0.002165, abs=1e-4)
    assert len(kappa.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_trials_csv_format():
    metrics = run_batch(batch17(steps=5, trials=3))
    text = trials_csv_text(metrics)
    lines = text.strip().split("\n")
    assert lines[0] == "trial,syllables,A_n"
    assert len(lines) == 4
    trial, syl, a_n = lines[1].split(",")
    assert trial == "0" and int(syl) >= 0 and int(a_n) >= 0


def test_checks_csv_format():
    reports = [
        check_pivot_step_probability(run_batch(batch17(steps=5, trials=200)), 5, STATS17),
    ]
    text = checks_csv_text(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "check,statistic,threshold,pass"
    assert lines[1].startswith("pivot_step_probability,")
    assert lines[1].endswith(",true")


def test_log_spaced_ints():
    xs = log_spaced_ints(17, 12000, 50)
    assert xs[0] == 17 and xs[-1] == 12000
    assert xs == sorted(set(xs))
    assert len(xs) <= 50
    assert log_spaced_ints(5, 5, 1) == [5]
    with pytest.raises(ValueError):
        log_spaced_ints(0, 10, 5)


def test_chain_inequality_across_batch():
    for m in run_batch(batch17(steps=15, trials=100)):
        assert m.pivotal_count <= m.syllables
        assert m.active_counts[-1] <= m.syllables


def test_kappa_depends_only_on_graph_constants():
    # identical bound regardless of which nu drives the walks
    from gpdrift.walk import ParetoLetter, WordChoice

    bound = drift_lower_bound(4, 2, 17)
    for nu in [FixedWord(((3, 5),)), WordChoice([((0, 1), (2, 1))]), ParetoLetter(1.1)]:
        rep = check_lower_tail(run_batch(batch17(steps=40, trials=300, nu=nu)), 40, bound.kappa)
        assert rep.passed
