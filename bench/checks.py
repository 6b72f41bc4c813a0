"""Output checks.  Each raises CheckFailed with the reason; none reads a
stored copy of an earlier output, and none calls into gpdrift."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import oracle


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, what: str) -> None:
    require(
        math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b)),
        f"{what}: {a!r} differs from the reference {b!r} by more than {rel:g} relative",
    )


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation produced: its exit code (or the name of the
    exception that escaped), stdout, stderr, and the output file, if any."""

    code: object
    stdout: str
    stderr: str
    csv: str | None


@dataclass(frozen=True)
class Walks:
    """The walk half of a simulate or check invocation, as the oracle sees it."""

    graph: oracle.Graph
    groups: list
    nu: object
    n: int
    trials: int
    seed: int
    bc: tuple[int, int]

    def kappa(self) -> float | None:
        b, c = self.bc
        return oracle.max_rate(b, c, self.graph.d)[0] if self.graph.d > 3 * b + 2 * c else None

    def steps(self, trial: int, n: int | None = None) -> list:
        return oracle.draw_walk(
            oracle.trial_seed(self.seed, trial), self.graph.d, self.groups, self.nu,
            self.n if n is None else n,
        )


def parse_csv(text: str | None, header: str) -> list[list[str]]:
    require(text is not None, "no output file")
    lines = text.split("\n")
    require(lines[-1] == "" and lines[0] == header, f"CSV header is not {header!r}")
    return [line.split(",") for line in lines[1:-1]]


def check_simulate(out: Outcome, walks: Walks, scan: bool) -> None:
    """Rows, stdout and every trial against the oracle.

    With ``scan`` the pivotal times of each trial come from the definition
    scan; without it (large D) only the syllable length is folded."""
    require(out.code == 0, f"exit code {out.code}")
    rows = [(int(a), int(s), int(p)) for a, s, p in parse_csv(out.csv, "trial,syllables,A_n")]
    n, trials = walks.n, walks.trials
    require([r[0] for r in rows] == list(range(trials)), "trial column is not 0..trials-1")
    kappa = walks.kappa()
    for trial, syl, piv in rows:
        require(0 <= piv <= min(n - 1, syl), f"trial {trial}: A_n={piv} outside 0..min(n-1, syllables={syl})")
        require(kappa is None or syl > kappa * n, f"trial {trial}: syllables {syl} <= kappa*n with small cliques")
    for trial, syl, piv in rows:
        steps = walks.steps(trial)
        if scan:
            ref = oracle.WalkScan(steps, walks.graph, walks.groups)
            require(ref.syllables == syl, f"trial {trial}: syllables {syl}, fold gives {ref.syllables}")
            times = ref.pivotal_times()
            require(len(times) == piv, f"trial {trial}: A_n {piv}, definition scan gives {len(times)}")
        else:
            ref_syl = oracle.fold_syllables(steps, walks.graph, walks.groups)
            require(ref_syl == syl, f"trial {trial}: syllables {syl}, fold gives {ref_syl}")
    doc = json.loads(out.stdout)
    require(doc["trials"] == trials and doc["steps"] == n, "stdout trials/steps")
    total = sum(Fraction(syl, n) for _, syl, _ in rows)
    mean = total / trials
    close(doc["drift"], float(mean), 1e-11, "stdout drift vs mean of syllables/n")
    if trials > 1:
        var = sum((Fraction(syl, n) - mean) ** 2 for _, syl, _ in rows) / (trials - 1)
        close(doc["stderr"], math.sqrt(var / trials), 1e-9, "stdout stderr")


def check_bound(kappa: float, t_star: float, mean_u: float, mgf: float, b: int, c: int, d: int) -> None:
    """kappa is the maximum of the rate function; t_star attains it; the
    moment and the mean match the series and the exact rational mean."""
    ref_kappa, _ = oracle.max_rate(b, c, d)
    where = f"(b={b}, c={c}, d={d})"
    close(kappa, ref_kappa, 1e-9, f"kappa {where}")
    close(oracle.rate(t_star, b, c, d), ref_kappa, 1e-9, f"rate at t_star {where}")
    close(mgf, oracle.mgf_series(t_star, b, c, d), 1e-9, f"mgf at t_star {where}")
    close(mean_u, float(oracle.mean_increment(b, c, d)), 1e-11, f"mean_U {where}")


def check_stats(out: Outcome, d: int, bc: tuple[int, int]) -> None:
    require(out.code == 0, f"exit code {out.code}")
    b, c = bc
    want = {"D": d, "C": c, "B": b, "small_cliques": d > 3 * b + 2 * c}
    got = json.loads(out.stdout)
    require(got == want, f"stats {got} != {want}")


def check_kappa(out: Outcome, d: int, bc: tuple[int, int]) -> None:
    require(out.code == 0, f"exit code {out.code}")
    doc = json.loads(out.stdout)
    check_bound(doc["kappa"], doc["t_star"], doc["mean_U"], doc["mgf"], bc[0], bc[1], d)


def check_sweep(out: Outcome, lo: int, hi: int, points: int) -> None:
    require(out.code == 0, f"exit code {out.code}")
    rows = parse_csv(out.csv, "D,B,C,kappa,t_star,mean_U,mgf")
    require(json.loads(out.stdout)["rows"] == len(rows), "stdout row count")
    ds = [int(r[0]) for r in rows]
    require(ds[0] == lo and ds[-1] == hi and len(ds) <= points, f"sweep spans {ds[0]}..{ds[-1]}")
    require(all(x < y for x, y in zip(ds, ds[1:])), "sweep lengths not increasing")
    for r in rows:
        d, b, c = int(r[0]), int(r[1]), int(r[2])
        require((b, c) == oracle.family_constants("cycle", d), f"cycle {d}: (B, C) = ({b}, {c})")
        kappa, t_star, mean_u, mgf = (float(x) for x in r[3:])
        if d > 3 * b + 2 * c:
            check_bound(kappa, t_star, mean_u, mgf, b, c, d)
        else:
            require(math.isnan(kappa) and math.isnan(mgf), f"cycle {d}: bound without small cliques")


def check_check(out: Outcome, walks: Walks) -> None:
    """All three rows pass; thresholds and the first two statistics are
    recomputed from the oracle's walks (one step longer, for domination)."""
    require(out.code == 0, f"exit code {out.code}")
    rows = parse_csv(out.csv, "check,statistic,threshold,pass")
    names = [r[0] for r in rows]
    require(names == ["lower_tail_bound", "pivot_step_probability", "increment_domination"], f"check rows {names}")
    require(all(r[3] == "true" for r in rows), f"a check did not pass: {rows}")
    printed = [line.split(":")[0] + ":" + line.split()[1] for line in out.stdout.splitlines()]
    require(printed == [f"{name}:PASS" for name in names], f"stdout verdicts {printed}")
    n, trials, d = walks.n, walks.trials, walks.graph.d
    b, c = walks.bc
    kappa = walks.kappa()
    require(kappa is not None, "check workload needs small cliques")
    low = events = 0
    for trial in range(trials):
        scan = oracle.WalkScan(walks.steps(trial, n + 1), walks.graph, walks.groups)
        low += scan.syllables_after[n - 1] <= kappa * n
        prev = 0
        for count in scan.active_counts()[:n]:
            events += count >= prev + 1
            prev = count
    stat = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    close(stat["lower_tail_bound"][0], oracle.wilson_upper(low, trials), 1e-11, "lower-tail statistic")
    close(stat["lower_tail_bound"][1], math.exp(-kappa * n), 1e-9, "lower-tail threshold")
    p0 = (d - b - c) / d
    total = trials * n
    close(stat["pivot_step_probability"][0], events / total, 1e-11, "pivot step statistic")
    close(stat["pivot_step_probability"][1], p0 - 4 * math.sqrt(p0 * (1 - p0) / total), 1e-11, "pivot step threshold")
    require(stat["increment_domination"][1] == 0.0, "domination threshold is not 0")
