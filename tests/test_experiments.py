import ast
import contextlib
import gc
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from gpdrift.drift import PivotIncrementDistribution, drift_lower_bound
from gpdrift.experiments import (
    TrialBatch,
    TrialMetrics,
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
from gpdrift.graphs import cycle_graph, edgeless_graph, graph_stats
from gpdrift.groups import IntegerGroup, groups_from_spec, uniform_groups
from gpdrift.piling import replay_pilings
from gpdrift.walk import FixedWord, ParetoLetter, WalkTrace, WordChoice, run_walk, walk_record

C17 = cycle_graph(17)
Z17 = uniform_groups(17)
DIST17 = PivotIncrementDistribution(4, 2, 17)  # U's law for the constants of C17


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
    if hasattr(os, "process_cpu_count"):
        usable = os.process_cpu_count() or 1
    elif hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    monkeypatch.setenv("GPDRIFT_WORKERS", "100000")
    assert experiments.worker_count() == usable
    monkeypatch.setenv("GPDRIFT_WORKERS", "0")
    assert experiments.worker_count() == 1


@pytest.mark.parametrize("source", ["process_cpu_count", "sched_getaffinity", "cpu_count"])
def test_worker_count_capped_at_usable_cpus(monkeypatch, source):
    # a process pinned to one CPU of eight gets one worker; cpu_count is
    # the cap only where neither narrower count exists
    monkeypatch.setenv("GPDRIFT_WORKERS", "4")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "process_cpu_count", lambda: 1, raising=False)
    if source != "process_cpu_count":
        monkeypatch.delattr(os, "process_cpu_count")
    if source == "cpu_count":
        monkeypatch.delattr(os, "sched_getaffinity")
    assert experiments.worker_count() == (4 if source == "cpu_count" else 1)


def _count_forks(monkeypatch) -> list[int]:
    """Counts os.fork calls made in this process; each still forks."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _watchdog(seconds):
    """Turns a hang of the block into a TimeoutError after ``seconds``."""

    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_run_batch_starts_no_pool_for_one_trial(monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("GPDRIFT_WORKERS", "2")
    assert len(run_batch(batch17(steps=3, trials=1))) == 1
    monkeypatch.setenv("GPDRIFT_WORKERS", "1")
    assert len(run_batch(batch17(steps=3, trials=40))) == 40
    assert forks == []


@pytest.mark.parametrize("workers,trials", [(2, 40), (3, 40), (3, 7), (3, 2)])
def test_run_batch_forks_one_child_per_extra_worker(monkeypatch, workers, trials):
    # the parent runs the first block itself; blocks may be uneven
    b = batch17(steps=10, trials=trials)
    serial = trials_csv_text(run_batch(b))
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("GPDRIFT_WORKERS", str(workers))
    assert trials_csv_text(run_batch(b)) == serial
    assert len(forks) == min(workers, trials) - 1
    _assert_no_child_left()


def test_run_batch_is_serial_without_fork(monkeypatch):
    b = batch17(steps=10, trials=40)
    serial = trials_csv_text(run_batch(b))
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("GPDRIFT_WORKERS", "2")
    assert trials_csv_text(run_batch(b)) == serial


class RefusingWord:
    """A nu sampler that draws one uniform per step and returns a fixed
    word, raising ValueError on the refused draws.  With no refusals it
    records its draws, in trial order when run serially."""

    def __init__(self, refused=()):
        self.refused = set(refused)
        self.draws = []

    def sample(self, rng, graph, groups):
        u = rng.random()
        if u in self.refused:
            raise ValueError(f"nu refused the draw {u!r}")
        self.draws.append(u)
        return ((0, groups[0].from_int(1)),)


def _draw_of(trial, step, steps=10, trials=60, seed=7):
    """The draw RefusingWord sees at (trial, step) of batch17."""
    recorder = RefusingWord()
    run_batch(batch17(steps=steps, trials=trials, seed=seed, nu=recorder))
    assert len(recorder.draws) == steps * trials
    return recorder.draws[trial * steps + step]


def test_child_block_error_matches_serial(monkeypatch):
    # blocks at 3 workers: [0, 20), [20, 40), [40, 60); trials 25 and 45
    # fail, so the lowest failing block's error must win
    refused = (_draw_of(45, 2), _draw_of(25, 7))
    nu = RefusingWord(refused)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    messages = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("GPDRIFT_WORKERS", workers)
        with pytest.raises(ValueError) as info:
            run_batch(batch17(steps=10, trials=60, nu=nu))
        messages[workers] = str(info.value)
        _assert_no_child_left()
    assert messages["1"] == f"nu refused the draw {refused[1]!r}"
    assert messages["2"] == messages["3"] == messages["1"]


def test_simulate_child_block_error_exits_2(monkeypatch, tmp_path, capsys):
    import gpdrift.cli as cli

    # trial 30 lies in the forked block at 2 workers
    steps, trials = 10, 40
    refused = _draw_of(30, 4, steps=steps, trials=trials, seed=cli.DEFAULT_SEED)
    monkeypatch.setattr(cli, "_parse_nu", lambda spec, graph, groups: RefusingWord([refused]))
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    errs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("GPDRIFT_WORKERS", workers)
        code = cli.main([
            "simulate", "--family", "cycle", "--D", "17", "--nu", "fixed:v0^1",
            "--n", str(steps), "--trials", str(trials), "--output", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        errs.append(capsys.readouterr().err)
        _assert_no_child_left()
    assert errs[0] == errs[1] == f"error: nu refused the draw {refused!r}\n"


class ParentFailsAfterChild:
    """Fixed-word sampler.  In the forked child it counts steps and, after
    the last, creates ``flag``; in the parent it waits for the flag and
    then raises, so the error leaves while the child holds its result."""

    def __init__(self, parent, child_steps, flag):
        self.parent, self.child_steps, self.flag = parent, child_steps, flag
        self.calls = 0

    def sample(self, rng, graph, groups):
        if os.getpid() == self.parent:
            deadline = time.monotonic() + 30
            while not self.flag.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("parent block failed")
        self.calls += 1
        if self.calls == self.child_steps:
            self.flag.touch()
        return ((0, groups[0].from_int(1)),)


def test_parent_block_error_kills_a_child_blocked_on_its_pipe(monkeypatch, tmp_path):
    # a trial's record is a few dozen bytes, whatever its steps, so it
    # takes thousands of trials to fill the pipe
    steps, trials = 5, 8000
    child_block = run_batch(batch17(steps=steps, trials=trials))[trials // 2:]
    assert len(pickle.dumps((True, child_block), pickle.HIGHEST_PROTOCOL)) > 64 * 1024
    nu = ParentFailsAfterChild(os.getpid(), steps * (trials // 2), tmp_path / "child-done")
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("GPDRIFT_WORKERS", "2")

    with _watchdog(60), pytest.raises(ValueError, match="parent block failed"):
        run_batch(batch17(steps=steps, trials=trials, nu=nu))
    assert nu.flag.exists()
    _assert_no_child_left()


class ChildSleeps:
    """Fixed-word sampler that raises in the parent and sleeps in a child."""

    def __init__(self, parent):
        self.parent = parent

    def sample(self, rng, graph, groups):
        if os.getpid() == self.parent:
            raise ValueError("parent block failed")
        time.sleep(60)


def test_parent_block_error_kills_a_running_child(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("GPDRIFT_WORKERS", "2")
    t0 = time.monotonic()
    with _watchdog(20), pytest.raises(ValueError, match="parent block failed"):
        run_batch(batch17(steps=5, trials=10, nu=ChildSleeps(os.getpid())))
    assert time.monotonic() - t0 < 20
    _assert_no_child_left()


class ChildExits:
    """Fixed-word sampler that ends any process but the parent at once."""

    def __init__(self, parent):
        self.parent = parent

    def sample(self, rng, graph, groups):
        if os.getpid() != self.parent:
            os._exit(3)
        return ((0, groups[0].from_int(1)),)


def test_child_without_result_is_an_error(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("GPDRIFT_WORKERS", "2")
    with pytest.raises(ChildProcessError, match=r"trials \[5, 10\) ended with exit code 3 and no result"):
        run_batch(batch17(steps=5, trials=10, nu=ChildExits(os.getpid())))
    _assert_no_child_left()


def test_import_leaves_multiprocessing_out():
    src = str(Path(experiments.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import gpdrift; print(sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True, timeout=60
    )
    modules = set(ast.literal_eval(done.stdout))
    assert "gpdrift.experiments" in modules
    assert "multiprocessing" not in modules


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
        assert replay_pilings(long, 30) == replay_pilings(short)


def test_batch_metrics_record_every_step():
    # the trace of each trial's walk records every step, and the batch
    # record holds its last two
    b = batch17(steps=12, trials=20)
    for m in run_batch(b):
        trace = run_walk(b.graph, b.groups, b.nu, b.steps, derive_seed(b.base_seed, m.trial))
        assert len(trace.syllable_counts) == len(trace.active_counts) == 12
        assert m.syllables == trace.syllable_counts[-1]
        assert m.syllable_pair == tuple(trace.syllable_counts[-2:])
        assert m.active_pair == tuple(trace.active_counts[-2:])
        assert m.pivotal_count == len(trace.pivotal_times())
        active = [0] + trace.active_counts
        rises = [a > b for b, a in zip(active, active[1:])]
        assert m.gain_pair == (sum(rises[:-1]), sum(rises))


@dataclass(frozen=True)
class LeakyIntegers(IntegerGroup):
    """The integers with a faulty sampler: one draw in 300 is the identity."""

    def sample_nontrivial(self, rng):
        return 0 if rng.random() < 1 / 300 else rng.choice((1, -1))


class FaultyWord:
    """Nu sampler that draws one uniform per step and, on one draw in 300,
    returns the bad word it names: an empty word, a word with an identity
    letter, or a word equal to the identity."""

    def __init__(self, bad):
        self.bad = bad

    def sample(self, rng, graph, groups):
        if rng.random() < 1 / 300:
            return self.bad
        return ((0, groups[0].from_int(1)),)


@pytest.mark.parametrize(
    "groups, nu",
    [
        (MIXED17, FaultyWord(())),
        (MIXED17, FaultyWord(((1, 1), (3, 0)))),
        (MIXED17, FaultyWord(((3, 1), (3, -1)))),
        (tuple([LeakyIntegers()] * 17), FixedWord(((0, 1),))),
    ],
    ids=["empty-word", "identity-letter", "identity-word", "identity-s"],
)
def test_batch_raises_the_trace_error_of_the_first_failing_trial(monkeypatch, groups, nu):
    # each trial's record raises where its traced walk raises, and a batch
    # raises the error of its lowest failing trial at 1 and at 2 workers
    b = TrialBatch(C17, groups, nu, steps=40, trials=30, base_seed=3)
    first = None
    for t in range(b.trials):
        seed = derive_seed(b.base_seed, t)
        try:
            run_walk(C17, groups, nu, b.steps, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                walk_record(C17, groups, nu, b.steps, seed)
            assert str(info.value) == str(exc)
            first = first or str(exc)
        else:
            walk_record(C17, groups, nu, b.steps, seed)
    assert first is not None
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    for workers in ("1", "2"):
        monkeypatch.setenv("GPDRIFT_WORKERS", workers)
        with pytest.raises(ValueError) as info:
            run_batch(b)
        assert str(info.value) == first
        _assert_no_child_left()


def test_trial_metrics_read_only_the_last_two_steps():
    for steps in (0, 1, 5):
        b = batch17(steps=steps, trials=1)
        (m,) = run_batch(b)
        trace = run_walk(b.graph, b.groups, b.nu, steps, derive_seed(b.base_seed, 0))
        syllables, active = [0] + trace.syllable_counts, [0] + trace.active_counts
        kept = range(max(steps - 1, 0), steps + 1)
        for n in kept:
            assert (m.syllables_at(n), m.active_at(n)) == (syllables[n], active[n])
        for n in {-1, steps - 2, steps + 1} - set(kept):
            for read in (m.syllables_at, m.active_at, m.gains_through):
                with pytest.raises(ValueError, match=f"keeps only steps .*, not {n}$"):
                    read(n)


def test_batch_memory_does_not_grow_with_steps(monkeypatch):
    # a batch keeps a fixed-size record per trial: 20,000-step walks leave
    # what 2,000-step walks leave, not ten times as much
    monkeypatch.setenv("GPDRIFT_WORKERS", "1")

    def retained(steps):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            metrics = run_batch(batch17(steps=steps, trials=4))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(metrics) == 4
        return kept

    short, long = retained(2_000), retained(20_000)
    assert long - short < 2048, (short, long)


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
    assert trace.syllable_counts[-1] / n == 2.0


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


def _flat_metrics(trials: int, n: int, tail_hits: int) -> list[TrialMetrics]:
    # Syllable length n after step n, except 0 in the first tail_hits trials.
    return [
        TrialMetrics(i, n, (1, 0 if i < tail_hits else n), (0, 0), (0, 0))
        for i in range(trials)
    ]


def test_check_lower_tail_passes_without_a_tail_event_above_resolution():
    # 1/trials <= exp(-kappa n) < wilson_upper(0, trials): the Wilson limit of
    # an empty tail is above the bound, yet no batch could show the bound more
    # strongly than one without a tail event.
    trials, n, bound = 1000, 10, 0.003
    kappa = -math.log(bound) / n
    assert 1 / trials <= bound < wilson_upper(0, trials)
    rep = check_lower_tail(_flat_metrics(trials, n, 0), n, kappa)
    assert rep.passed
    assert rep.statistic == wilson_upper(0, trials) > rep.threshold
    assert rep.threshold == pytest.approx(bound)
    assert rep.detail == "empirical=0 successes=0"


def test_check_lower_tail_fails_on_a_tail_event_above_the_bound():
    trials, n, bound = 1000, 10, 0.003
    kappa = -math.log(bound) / n
    rep = check_lower_tail(_flat_metrics(trials, n, 1), n, kappa)
    assert not rep.passed
    assert rep.statistic == wilson_upper(1, trials) > bound
    # a tail event within a loose bound still passes
    rep = check_lower_tail(_flat_metrics(trials, n, 1), n, 0.01)
    assert rep.passed and rep.statistic <= rep.threshold


def test_check_pivot_step_probability_cycle():
    stats = graph_stats(C17)
    assert (stats.max_neighbourhood, stats.max_clique, stats.vertex_count) == (4, 2, 17)
    rep = check_pivot_step_probability(run_batch(batch17(steps=20, trials=1500)), 20, DIST17)
    assert rep.passed
    assert rep.threshold == pytest.approx(11 / 17, abs=0.05)


def test_check_pivot_step_probability_edgeless_exhaustive_oracle():
    # d=4 free product with order-2 factors: every (s1, s2) outcome is
    # equally likely, so the step probability is exact by enumeration.
    # The edgeless graph on 3 vertices has d = 2b + c, outside U's domain.
    from gpdrift.groups import CyclicGroup

    graph = edgeless_graph(4)
    groups = uniform_groups(4, CyclicGroup(2))
    nu_word = ((0, 1),)
    adds = 0
    total = 0
    for s1 in range(4):
        for s2 in range(4):
            steps = [((s1, 1), nu_word), ((s2, 1), nu_word)]
            trace = WalkTrace.run(graph, groups, steps)
            a1, a2 = trace.active_counts
            total += 2
            adds += (a1 >= 1) + (a2 >= a1 + 1)
    exact = adds / total
    # stats of the edgeless graph give b=1, c=1: bound (d-b-c)/d = 1/2
    stats = graph_stats(graph)
    dist = PivotIncrementDistribution(stats.max_neighbourhood, stats.max_clique, stats.vertex_count)
    assert dist.p_up == 1 / 2
    assert exact >= dist.p_up
    b = TrialBatch(graph, groups, FixedWord(nu_word), steps=2, trials=4000, base_seed=11)
    rep = check_pivot_step_probability(run_batch(b), b.steps, dist)
    assert rep.passed
    assert abs(exact - rep.statistic) < 0.05


def test_check_domination_true_distribution_passes():
    rep = check_domination(run_batch(batch17(steps=11, trials=4000)), 10, PivotIncrementDistribution(4, 2, 17))
    assert rep.passed
    # the scan leaves out the levels below min A_{n+1} and above
    # max A_n + 1, where the margin cannot be negative and is often exactly
    # 0, so a passing batch shows a real margin
    assert rep.statistic > 0


def test_check_domination_detects_inflated_distribution():
    # corruption in the favourable direction (nearly all mass on +1) must
    # break domination; fattening the negative tail would only make the
    # dominated side easier to beat
    rep = check_domination(
        run_batch(batch17(steps=11, trials=20_000)), 10, PivotIncrementDistribution(0, 1, 10**6)
    )
    assert not rep.passed
    assert rep.statistic < 0


def _convolved_upper(counts, trials, dist, i):
    # P(A_n + U >= i) by brute force: every (a, u) pair, with the support of
    # U cut at the first depth whose tail falls below 1e-15
    masses = {1: dist.p_up}
    j = 1
    while dist.tail(j) >= 1e-15:
        masses[-j] = dist.tail(j) - dist.tail(j + 1)
        j += 1
    return sum(
        k * mass for a, k in counts.items() for u, mass in masses.items() if a + u >= i
    ) / trials


@pytest.mark.parametrize("bcd", [(4, 2, 17), (0, 1, 5), (0, 3, 17), (1, 1, 50), (2, 3, 400)])
def test_check_domination_matches_a_brute_force_convolution(bcd):
    n = 10
    metrics = run_batch(batch17(steps=n + 1, trials=600))
    dist = PivotIncrementDistribution(*bcd)
    trials = len(metrics)
    a_now = Counter(m.active_at(n) for m in metrics)
    a_next = [m.active_at(n + 1) for m in metrics]
    lo, hi = min(a_next), max(max(a_next), max(a_now) + 1)
    margins = {}
    for i in range(lo - 3, hi + 4):
        exact = sum(k * dist.at_least(i - a) for a, k in a_now.items()) / trials
        p2 = _convolved_upper(a_now, trials, dist, i)
        assert exact == pytest.approx(p2, abs=1e-12), i
        p1 = sum(x >= i for x in a_next) / trials
        sigma = math.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / trials)
        margins[i] = p1 - p2 + 4 * sigma
    rep = check_domination(metrics, n, dist)
    scanned = [margins[i] for i in range(lo, hi + 1)]
    assert rep.statistic == pytest.approx(min(scanned), abs=1e-12)
    assert rep.detail.endswith(f"over [{lo}, {hi}]")
    # no level outside the scan can show a negative margin
    assert all(m >= 0 for i, m in margins.items() if not lo <= i <= hi)


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


def test_sweep_mean_increment_follows_the_laws_domain():
    # U's law exists for d > 2B + C = 10 on the longer cycles (and for
    # d > 9 on the triangle): below that the row has no mean, above it the
    # mean is the law's own, whether or not the small-cliques condition holds
    rows = sweep_cycles(range(3, 18))
    assert [r.d for r in rows] == list(range(3, 18))
    for r in rows:
        if r.d <= 10:
            assert r.mean_increment is None, r
        else:
            law = PivotIncrementDistribution(r.b, r.c, r.d)
            assert r.mean_increment == float(law.mean()), r
    assert [r.d for r in rows if r.kappa is not None] == [17]


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
        check_pivot_step_probability(run_batch(batch17(steps=5, trials=200)), 5, DIST17),
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
        assert m.active_at(15) <= m.syllables


def test_kappa_depends_only_on_graph_constants():
    # identical bound regardless of which nu drives the walks
    from gpdrift.walk import ParetoLetter, WordChoice

    bound = drift_lower_bound(4, 2, 17)
    for nu in [FixedWord(((3, 5),)), WordChoice([((0, 1), (2, 1))]), ParetoLetter(1.1)]:
        rep = check_lower_tail(run_batch(batch17(steps=40, trials=300, nu=nu)), 40, bound.kappa)
        assert rep.passed
