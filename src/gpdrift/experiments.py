"""Monte Carlo harness: drift estimates, inequality checks, cycle sweeps.

Trials are independent walks with per-trial seeds derived from the batch
seed by a splitmix64 step, so results are identical for any worker count
and any execution order.  With W workers a batch splits into W contiguous
blocks of trials: the calling process runs the first block itself while
W - 1 forked children run the others and pipe back one pickle each, read
in block order.  Where ``os.fork`` is missing, W is 1: the calling process
runs the one block and nothing forks.

Statistical pass thresholds sit at four binomial standard errors (or a
one-sided 99% Wilson limit for rare events): these are one-sided sanity
checks of proved inequalities, so false alarms should be negligible across
a whole suite.  Only the walks are random: the step-probability and
domination checks read U's law from one ``PivotIncrementDistribution``.
The domination check sets the empirical law of A_{n+1} against the exact
law of A_n + U, summed from U's closed-form tail, and draws no increment.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from typing import BinaryIO, NamedTuple, Sequence

from .drift import PivotIncrementDistribution, drift_lower_bound
from .graphs import Graph, cycle_stats, graph_stats  # graph_stats: bench/tracer.py wraps this name
from .groups import VertexGroup
from .walk import run_walk, walk_record  # run_walk: bench/tracer.py wraps this name

_MASK64 = (1 << 64) - 1

# One-sided 99% normal quantile, for Wilson upper confidence limits.
_Z99 = 2.3263478740408408


def derive_seed(base_seed: int, index: int) -> int:
    """splitmix64 finalizer of base_seed + index * golden-gamma.

    Gives every trial an independent, platform-stable stream.
    """
    z = (base_seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class TrialBatch(NamedTuple):
    graph: Graph
    groups: tuple[VertexGroup, ...]
    nu: object
    steps: int
    trials: int
    base_seed: int


class TrialMetrics(NamedTuple):
    """One walk, reduced as it ran to the counts the checks read.  Each
    pair holds the value after step ``steps - 1`` and after step
    ``steps``; step 0 reads 0.  Step k depends only on steps 1..k, so an
    (n+1)-step batch also holds the n-step walks."""

    trial: int
    steps: int
    syllable_pair: tuple[int, int]  # syllable length
    active_pair: tuple[int, int]  # surviving candidates
    gain_pair: tuple[int, int]  # steps that created a surviving candidate

    @property
    def syllables(self) -> int:
        """Syllable length at the batch horizon."""
        return self.syllable_pair[1]

    @property
    def pivotal_count(self) -> int:
        """Pivotal times strictly before the horizon, the CSV's ``A_n``:
        ``active_at(steps)`` less time ``steps`` itself when it survived
        its step, which is exactly when the gain count rose at that step."""
        return self.active_pair[1] - (self.gain_pair[1] - self.gain_pair[0])

    def _at(self, pair: tuple[int, int], n: int) -> int:
        if n < 0 or n not in (self.steps - 1, self.steps):
            raise ValueError(
                f"a trial of {self.steps} steps keeps only steps {self.steps - 1} and "
                f"{self.steps}, not {n}"
            )
        return pair[n - self.steps + 1]

    def syllables_at(self, n: int) -> int:
        """Syllable length after step n."""
        return self._at(self.syllable_pair, n)

    def active_at(self, n: int) -> int:
        """Surviving candidates among times 1..n after step n."""
        return self._at(self.active_pair, n)

    def gains_through(self, n: int) -> int:
        """Steps among 1..n that created a surviving candidate."""
        return self._at(self.gain_pair, n)


class DriftEstimate(NamedTuple):
    mean: float
    stderr: float | None


class CheckReport(NamedTuple):
    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""


class SweepRow(NamedTuple):
    d: int
    b: int
    c: int
    kappa: float | None
    t_star: float | None
    mean_increment: float | None
    mgf: float | None


def _run_block(batch: TrialBatch, lo: int, hi: int) -> list[TrialMetrics]:
    walk = (batch.graph, batch.groups, batch.nu, batch.steps)
    return [
        TrialMetrics(t, batch.steps, *walk_record(*walk, derive_seed(batch.base_seed, t)))
        for t in range(lo, hi)
    ]


def _fork_block(
    batch: TrialBatch, lo: int, hi: int, siblings: Sequence[BinaryIO]
) -> tuple[int, BinaryIO]:
    """Fork a child that runs trials [lo, hi) and writes one pickle of
    ``(True, metrics)`` or ``(False, exception)`` to a pipe, then exits.
    Returns the child's pid and the read end of its pipe."""
    import pickle  # imported by the forking path only, so `import gpdrift` skips it

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for fh in siblings:
                fh.close()
            try:
                payload = (True, _run_block(batch, lo, hi))
            except Exception as exc:
                payload = (False, exc)
            # an exception that does not pickle ends the child with no result
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            # never return into the caller's code, and flush none of its buffers
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _fan_out(batch: TrialBatch, workers: int) -> list[TrialMetrics]:
    """Trials of block i are [T*i//W, T*(i+1)//W).  Results come back in
    trial order; if blocks fail, the lowest failing block's error is
    raised, as the serial loop would raise it.  Every child is reaped,
    and any child still running when an error leaves is killed first."""
    if workers > 1:  # only a batch that forks reads pickles or kills children
        import pickle
        import signal
    cuts = [batch.trials * i // workers for i in range(workers + 1)]
    pending: list[tuple[int, BinaryIO]] = []
    try:
        for i in range(1, workers):
            pending.append(_fork_block(batch, cuts[i], cuts[i + 1], [fh for _, fh in pending]))
        results = _run_block(batch, 0, cuts[1])
        for i in range(1, workers):
            pid, fh = pending[0]
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            pending.pop(0)
            if not data:
                raise ChildProcessError(
                    f"worker for trials [{cuts[i]}, {cuts[i + 1]}) ended with exit code "
                    f"{os.waitstatus_to_exitcode(status)} and no result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, fh in pending:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _usable_cpus() -> int:
    """CPUs this process may run on: ``os.process_cpu_count()`` where it
    exists (3.13+), else the size of the affinity mask, else
    ``os.cpu_count()``, which also counts CPUs the process may not use."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Worker processes for batches, the caller included, from
    GPDRIFT_WORKERS (default 1), at most one per CPU this process may run
    on (see ``_usable_cpus``).

    The count never changes results, only wall time.
    """
    raw = os.environ.get("GPDRIFT_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GPDRIFT_WORKERS must be an integer, got {raw!r}")
    return max(1, min(n, _usable_cpus()))


def run_batch(batch: TrialBatch) -> list[TrialMetrics]:
    if batch.trials < 1:
        raise ValueError("need at least one trial")
    if batch.steps < 0:
        raise ValueError("steps must be nonnegative")
    return _fan_out(batch, min(worker_count(), batch.trials) if hasattr(os, "fork") else 1)


def estimate_drift(metrics: Sequence[TrialMetrics], n: int) -> DriftEstimate:
    """Sample mean and standard error of syllables-per-step after n steps."""
    if n < 1:
        raise ValueError("drift needs at least one step")
    ratios = [m.syllables_at(n) / n for m in metrics]
    mean = sum(ratios) / len(ratios)
    if len(ratios) < 2:
        return DriftEstimate(mean, None)
    var = sum((x - mean) ** 2 for x in ratios) / (len(ratios) - 1)
    return DriftEstimate(mean, math.sqrt(var / len(ratios)))


def wilson_upper(successes: int, n: int) -> float:
    """One-sided upper 99% Wilson score limit for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    phat = successes / n
    z2 = _Z99 * _Z99
    centre = phat + z2 / (2 * n)
    radius = _Z99 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    return min(1.0, (centre + radius) / (1 + z2 / n))


def check_lower_tail(metrics: Sequence[TrialMetrics], n: int, kappa_value: float) -> CheckReport:
    """Empirical lower-tail frequency of the syllable length after n steps
    against the exponential bound exp(-kappa * n).

    Passes when no trial lands in the tail, since a batch without a tail
    event cannot contradict the bound (the usual case: the bound is
    astronomically small), or when the Wilson 99% upper limit is within
    the bound.  The limit alone would fail every batch whenever the bound
    lies below wilson_upper(0, trials), about 5.4/trials.
    """
    if n < 1:
        raise ValueError("need at least one step")
    trials = len(metrics)
    cutoff = kappa_value * n
    successes = sum(1 for m in metrics if m.syllables_at(n) <= cutoff)
    phat = successes / trials
    bound = math.exp(-kappa_value * n)
    upper = wilson_upper(successes, trials)
    passed = successes == 0 or upper <= bound
    return CheckReport(
        name="lower_tail_bound",
        statistic=upper,
        threshold=bound,
        passed=passed,
        detail=f"empirical={phat:.6g} successes={successes}",
    )


def check_pivot_step_probability(
    metrics: Sequence[TrialMetrics], n: int, dist: PivotIncrementDistribution
) -> CheckReport:
    """Pooled frequency over steps 1..n of a step creating a new surviving
    pivotal time, which must be at least ``dist.p_up`` = (d-b-c)/d up to
    binomial noise."""
    if n < 1:
        raise ValueError("need at least one step")
    events = sum(m.gains_through(n) for m in metrics)
    total = n * len(metrics)
    p0 = dist.p_up
    sigma = math.sqrt(p0 * (1 - p0) / total)
    phat = events / total
    threshold = p0 - 4 * sigma
    return CheckReport(
        name="pivot_step_probability",
        statistic=phat,
        threshold=threshold,
        passed=phat >= threshold,
        detail=f"events={events} steps={total} bound={p0:.6g}",
    )


def check_domination(
    metrics: Sequence[TrialMetrics], n: int, dist: PivotIncrementDistribution
) -> CheckReport:
    """Marginal stochastic domination of the pivotal count after step n+1
    over the count after step n plus an independent increment U.

    The walks must have exactly n+1 steps.  At each level i, the empirical
    P(A_{n+1} >= i) is compared with the exact P(A_n + U >= i) under the
    empirical law of A_n, sum_a P^(A_n = a) * P(U >= i - a), read from U's
    closed-form tail, so nothing is drawn.  That side is a mean of T values
    in [0, 1], so p2(1 - p2)/T bounds its variance as it bounds the
    binomial side's, and the allowance is 4 sigma of the two combined.
    The scan covers every level where the margin can be negative: below
    min A_{n+1} the first side is 1, and above both max A_{n+1} and
    max A_n + 1 both sides are 0.
    """
    if n < 0:
        raise ValueError("steps must be nonnegative")
    trials = len(metrics)
    a_next = Counter(m.active_at(n + 1) for m in metrics)
    a_now = Counter(m.active_at(n) for m in metrics)
    lo = min(a_next)
    hi = max(max(a_next), max(a_now) + 1)
    worst = math.inf
    worst_i = None
    for i in range(lo, hi + 1):
        p1 = sum(k for x, k in a_next.items() if x >= i) / trials
        p2 = sum(k * dist.at_least(i - a) for a, k in a_now.items()) / trials
        sigma = math.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / trials)
        margin = p1 - p2 + 4 * sigma
        if margin < worst:
            worst = margin
            worst_i = i
    return CheckReport(
        name="increment_domination",
        statistic=worst,
        threshold=0.0,
        passed=worst >= 0.0,
        detail=f"worst level i={worst_i} over [{lo}, {hi}]",
    )


def sweep_cycles(d_values: Sequence[int]) -> list[SweepRow]:
    """One bound per cycle length; non-qualifying lengths get nan markers.

    The constants come from ``cycle_stats``, so no cycle is built and a row
    costs the same whatever its length; ``test_cycle_stats_match_graph_stats``
    pins that closed form to the clique search.
    """
    rows = []
    for d in d_values:
        stats = cycle_stats(d)
        b, c = stats.max_neighbourhood, stats.max_clique
        if stats.small_cliques:
            bound = drift_lower_bound(b, c, d)
            mean_inc = float(bound.law.mean())
            rows.append(SweepRow(d, b, c, bound.kappa, bound.t_star, mean_inc, bound.mgf_at_t_star))
        else:
            try:
                mean_inc = float(PivotIncrementDistribution(b, c, d).mean())
            except ValueError:  # outside U's domain, which the law's constructor decides
                mean_inc = None
            rows.append(SweepRow(d, b, c, None, None, mean_inc, None))
    return rows


def log_spaced_ints(lo: int, hi: int, points: int) -> list[int]:
    """Distinct integers spread evenly on a log scale, endpoints included."""
    if lo < 1 or hi < lo or points < 1:
        raise ValueError("need 1 <= lo <= hi and points >= 1")
    if points == 1:
        return [lo]
    out = []
    for i in range(points):
        try:
            x = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (points - 1))
        except OverflowError:  # past the float range
            raise ValueError(f"{hi} is too large to space on a log scale") from None
        out.append(round(x))
    out[0], out[-1] = lo, hi
    return sorted(set(out))


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.12g}"


def _csv_text(header: str, rows) -> str:
    """The header line, then one line per row, each cell through :func:`_fmt`."""
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def trials_csv_text(metrics: Sequence[TrialMetrics]) -> str:
    rows = ((m.trial, m.syllables, m.pivotal_count) for m in metrics)
    return _csv_text("trial,syllables,A_n", rows)


def checks_csv_text(reports: Sequence[CheckReport]) -> str:
    rows = ((r.name, r.statistic, r.threshold, r.passed) for r in reports)
    return _csv_text("check,statistic,threshold,pass", rows)


def sweep_csv_text(rows: Sequence[SweepRow]) -> str:
    return _csv_text("D,B,C,kappa,t_star,mean_U,mgf", rows)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
