"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Budgeted criteria assert their own wall-clock limits.
"""

import math
import os
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from gpdrift.cli import main as cli_main
from gpdrift.drift import PivotIncrementDistribution, drift_lower_bound
from gpdrift.experiments import (
    TrialBatch,
    check_domination,
    check_pivot_step_probability,
    check_lower_tail,
    log_spaced_ints,
    run_batch,
    sweep_cycles,
)
from gpdrift.graphs import cycle_graph, graph_stats, make_graph
from gpdrift.groups import CyclicGroup, IntegerGroup, uniform_groups
from gpdrift.piling import (
    append,
    concat,
    empty_piling,
    init,
    invert,
    piling_of_word,
    pivotal_times_bruteforce,
    render,
    term,
)
from gpdrift.walk import (
    FixedWord,
    ParetoLetter,
    WalkTrace,
    WordChoice,
    pivot_replace,
    run_walk,
    strong_choice_vertices,
)

from oracles import (
    invert_word,
    min_syllable_bfs,
    minimal_lengths_by_rewriting,
    mgf_series,
    random_graph,
    random_word,
)

G3 = make_graph(["a", "b", "c"], [(0, 1)])
Z3 = uniform_groups(3)

# frozen from a pre-build 200k-point scan of the rate function
KAPPA_100_ORACLE = 0.325162205


def report(number: int, label: str, elapsed: float, budget: float | None = None):
    line = f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s) - {label}"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_golden_pilings():
    def build():
        pa = piling_of_word([(0, 1)], G3, Z3)
        pac = piling_of_word([(0, 1), (2, 1)], G3, Z3)
        pacb = piling_of_word([(0, 1), (2, 1), (1, 1)], G3, Z3)
        return pa, pac, pacb

    build()  # warm
    t0 = time.perf_counter()
    pa, pac, pacb = build()
    elapsed = time.perf_counter() - t0
    assert pa.strings() == (((0, 1),), (), (None,))
    assert pac.strings() == (((0, 1), None), (None,), (None, (2, 1)))
    assert pacb.strings() == (((0, 1), None), (None, (1, 1)), (None, (2, 1), None))
    assert render(pa, G3.labels) == "a^1, ε, 0"
    assert render(pac, G3.labels) == "a^1 0, 0, 0 c^1"
    assert render(pacb, G3.labels) == "a^1 0, 0 b^1, 0 c^1 0"
    report(1, "golden pilings for a, ac, acb", elapsed, budget=1e-3)


def test_criterion_2_algebraic_property_suite():
    t0 = time.perf_counter()
    rng = Random(20240808)
    graphs = [
        (cycle_graph(6), uniform_groups(6)),
        (G3, Z3),
        (random_graph(10, 0.35, Random(99)), None),
    ]
    graphs[2] = (graphs[2][0], uniform_groups(10, CyclicGroup(4)))
    assert graphs[2][0].edges, "the random 10-vertex graph must have edges"
    cases_per_property = 10_000

    def setting(i):
        graph, groups = graphs[i % 3]
        return graph, groups

    # commutation invariance
    for i in range(cases_per_property):
        graph, groups = setting(i)
        edge = graph.edges[rng.randrange(len(graph.edges))]
        h = random_word(graph, groups, rng.randrange(0, 12), rng)
        si = (edge[0], groups[edge[0]].sample_nontrivial(rng))
        sj = (edge[1], groups[edge[1]].sample_nontrivial(rng))
        assert piling_of_word(list(h) + [si, sj], graph, groups) == piling_of_word(
            list(h) + [sj, si], graph, groups
        )
    # cancellation invariance
    for i in range(cases_per_property):
        graph, groups = setting(i)
        h = random_word(graph, groups, rng.randrange(0, 12), rng)
        v = rng.randrange(graph.vertex_count)
        g = groups[v].sample_nontrivial(rng)
        assert piling_of_word(
            list(h) + [(v, g), (v, groups[v].invert(g))], graph, groups
        ) == piling_of_word(h, graph, groups)
    # inverse law
    for i in range(cases_per_property):
        graph, groups = setting(i)
        w = random_word(graph, groups, rng.randrange(0, 12), rng)
        assert piling_of_word(invert_word(w, groups), graph, groups) == invert(
            piling_of_word(w, graph, groups), groups
        )
    # concatenation law
    done = 0
    while done < cases_per_property:
        graph, groups = setting(done)
        u = random_word(graph, groups, rng.randrange(0, 9), rng)
        v = random_word(graph, groups, rng.randrange(0, 9), rng)
        pu = piling_of_word(u, graph, groups)
        pv = piling_of_word(v, graph, groups)
        if term(pu) & init(pv):
            continue
        assert concat(pu, pv) == piling_of_word(list(u) + list(v), graph, groups)
        done += 1
    # init = term of the inverse
    for i in range(cases_per_property):
        graph, groups = setting(i)
        p = piling_of_word(random_word(graph, groups, rng.randrange(0, 12), rng), graph, groups)
        assert init(p) == term(invert(p, groups))
    report(2, "five algebraic laws, 10^4 randomized cases each", time.perf_counter() - t0, budget=30.0)


def test_criterion_3_normal_form_oracle():
    t0 = time.perf_counter()
    # exhaustive: every word of length <= 8 over the one-edge graph, Z/3 factors
    groups3 = uniform_groups(3, CyclicGroup(3))
    max_len = 8
    oracle_levels = minimal_lengths_by_rewriting(G3, 3, max_len)
    piling_levels = [np.zeros(6**k, dtype=np.int8) for k in range(max_len + 1)]

    def fill(piling, code, length):
        piling_levels[length][code] = piling.syllables
        if length == max_len:
            return
        scale = 6**length
        for digit in range(6):
            child = append(piling, digit // 2, digit % 2 + 1, G3, groups3)
            fill(child, code + digit * scale, length + 1)

    fill(empty_piling(3), 0, 0)
    for length in range(max_len + 1):
        assert np.array_equal(piling_levels[length], oracle_levels[length]), (
            f"normal form disagrees with the rewriting closure at length {length}"
        )
    # randomized: 10^3 words on a 6-vertex graph with mixed factors
    graph6 = random_graph(6, 0.4, Random(6))
    assert graph6.edges
    groups6 = (
        IntegerGroup(),
        CyclicGroup(3),
        IntegerGroup(),
        CyclicGroup(4),
        IntegerGroup(),
        CyclicGroup(2),
    )
    rng = Random(77)
    for _ in range(1000):
        w = random_word(graph6, groups6, rng.randrange(0, 9), rng)
        assert piling_of_word(w, graph6, groups6).syllables == min_syllable_bfs(
            w, graph6, groups6
        )
    report(3, "syllable length matches the rewriting oracle", time.perf_counter() - t0, budget=120.0)


def _nu_for(index: int):
    if index % 3 == 0:
        return FixedWord(((0, 1),))
    if index % 3 == 1:
        return WordChoice([((0, 1), (7, -1)), ((25, 3),), ((12, -2), (13, 1))])
    return ParetoLetter(1.1)


def test_criterion_4_pivotal_times_against_bruteforce():
    t0 = time.perf_counter()
    graph = cycle_graph(50)
    groups = uniform_groups(50)
    rng = Random(4242)
    sizes = (
        [rng.randrange(2, 81) for _ in range(720)]
        + [rng.randrange(81, 161) for _ in range(250)]
        + [200] * 30
    )
    for i, n in enumerate(sizes):
        trace = run_walk(graph, groups, _nu_for(i), n, 1_000_000 + i)
        assert list(trace.pivotal_times()) == pivotal_times_bruteforce(trace)
        syl = trace.syllable_counts[-1]
        assert len(trace.pivotal_times()) <= syl
        assert trace.active_counts[-1] <= syl
    report(4, "incremental pivotal stack == definition scan on 10^3 walks", time.perf_counter() - t0, budget=120.0)


def test_criterion_5_pivot_replacement_invariance():
    t0 = time.perf_counter()
    graph = cycle_graph(50)
    groups = uniform_groups(50)
    rng = Random(5151)
    replaced = 0
    attempt = 0
    while replaced < 1000:
        attempt += 1
        n = rng.randrange(10, 51)
        trace = run_walk(graph, groups, _nu_for(attempt), n, 2_000_000 + attempt)
        times = trace.pivotal_times()
        if not times:
            continue
        k = times[rng.randrange(len(times))]
        steps = list(zip(trace.s_letters, trace.nu_words))
        f_prev = WalkTrace.run(graph, groups, steps[: k - 1])
        options = strong_choice_vertices(f_prev, trace.nu_words[k - 1], graph, groups)
        if not options:
            continue
        v = sorted(options)[rng.randrange(len(options))]
        swapped = pivot_replace(trace, k, (v, groups[v].sample_nontrivial(rng)))
        assert swapped.pivotal_times() == times
        if replaced % 50 == 0:
            assert pivotal_times_bruteforce(swapped) == list(times)
        replaced += 1
    report(5, "10^3 strong pivot replacements preserve the pivotal set", time.perf_counter() - t0, budget=120.0)


def test_criterion_6_step_bound_and_domination():
    t0 = time.perf_counter()
    graph = cycle_graph(50)
    groups = uniform_groups(50)
    batch = TrialBatch(graph, groups, FixedWord(((0, 1),)), steps=51, trials=10_000, base_seed=606)
    metrics = run_batch(batch)
    dist = PivotIncrementDistribution(4, 2, 50)
    step = check_pivot_step_probability(metrics, 50, dist)
    assert step.passed
    assert step.threshold == pytest.approx(44 / 50, abs=0.01)
    dom = check_domination(metrics, 50, dist)
    assert dom.passed, dom
    report(6, "step probability >= 44/50 - 4 sigma and domination at all levels", time.perf_counter() - t0, budget=300.0)


def test_criterion_7_rate_function_numerics():
    t0 = time.perf_counter()
    rng = Random(7)
    # closed form against the truncated series
    for _ in range(25):
        b = rng.randrange(0, 7)
        c = rng.randrange(1, 7)
        d = rng.randrange(2 * b + c + 1, 2 * b + c + 80)
        dist = PivotIncrementDistribution(b, c, d)
        t = rng.uniform(0.05, 0.95) * dist.t_max()
        closed = dist.mgf(t)
        assert abs(closed - mgf_series(t, b, c, d)) <= 1e-10 * max(1.0, closed)
    # the displayed power form at exp(t) = d**alpha
    for b, c, d, alpha in [(4, 2, 100, 0.3), (4, 2, 2000, 0.2), (3, 1, 150, 0.35)]:
        t = alpha * math.log(d)
        displayed = (
            d ** (-alpha) * (d - b - c) / d
            + (b + c) * d ** (alpha - 1) * (d - 2 * b - c) / (d - b - c - d**alpha * b)
        )
        assert abs(PivotIncrementDistribution(b, c, d).mgf(t) - displayed) < 1e-12
    # exact boundary zero and the sign scan
    assert PivotIncrementDistribution(4, 2, 16).mean() == Fraction(0)
    for b in range(0, 7):
        for c in range(1, 7):
            for d in range(2 * b + c + 1, 61):
                assert (PivotIncrementDistribution(b, c, d).mean() > 0) == (d > 3 * b + 2 * c)
    report(7, "mgf numerics, exact boundary, mean-sign scan", time.perf_counter() - t0)


def test_criterion_8_cycle_sweep_reproduction():
    t0 = time.perf_counter()
    rows = sweep_cycles(log_spaced_ints(17, 12_000, 50))
    assert len(rows) >= 40
    kappas = [r.kappa for r in rows]
    assert all(k is not None for k in kappas)
    assert all(x <= y + 1e-12 for x, y in zip(kappas, kappas[1:]))
    assert rows[0].d == 17 and rows[0].kappa <= 11 / 119
    k100 = drift_lower_bound(4, 2, 100).kappa
    assert abs(k100 - KAPPA_100_ORACLE) <= 0.02
    assert rows[-1].d == 12_000 and rows[-1].kappa > k100
    report(8, "cycle sweep: monotone, capped at 17, oracle at 100", time.perf_counter() - t0, budget=60.0)


def test_criterion_9_lower_tail_bound_end_to_end():
    t0 = time.perf_counter()
    graph = cycle_graph(50)
    groups = uniform_groups(50)
    stats = graph_stats(graph)
    bound = drift_lower_bound(stats.max_neighbourhood, stats.max_clique, stats.vertex_count)
    for nu in (FixedWord(((0, 1),)), ParetoLetter(1.1)):
        batch = TrialBatch(graph, groups, nu, steps=200, trials=10_000, base_seed=909)
        rep = check_lower_tail(run_batch(batch), batch.steps, bound.kappa)
        assert rep.passed, rep
        assert "successes=0" in rep.detail  # the tail event never happened
        assert rep.threshold == pytest.approx(math.exp(-bound.kappa * 200))
    report(9, "tail frequency zero under both nu samplers at kappa(50)", time.perf_counter() - t0, budget=300.0)


def test_criterion_10_byte_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    sim_args = [
        "simulate", "--family", "cycle", "--D", "17",
        "--n", "20", "--trials", "60", "--nu", "pareto:1.3",
    ]
    outputs = []
    stdouts = []
    for run, workers in enumerate(("1", "2", "1")):
        path = tmp_path / f"trials{run}.csv"
        os.environ["GPDRIFT_WORKERS"] = workers
        try:
            assert cli_main(sim_args + ["--output", str(path)]) == 0
        finally:
            del os.environ["GPDRIFT_WORKERS"]
        outputs.append(path.read_bytes())
        stdouts.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len({s.split('"output"')[0] for s in stdouts}) == 1

    sweeps = []
    for run in range(2):
        path = tmp_path / f"sweep{run}.csv"
        assert cli_main(["sweep", "--D-list", "17,40,100", "--output", str(path)]) == 0
        capsys.readouterr()
        sweeps.append(path.read_bytes())
    assert sweeps[0] == sweeps[1]

    kappa_lines = []
    for _ in range(2):
        assert cli_main(["kappa", "--family", "cycle", "--D", "61"]) == 0
        kappa_lines.append(capsys.readouterr().out)
    assert kappa_lines[0] == kappa_lines[1]
    report(10, "byte-identical CSV/JSON across runs and worker counts", time.perf_counter() - t0)
