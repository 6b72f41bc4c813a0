"""Layered benchmark of the gpdrift CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

One process runs one workload: a closed loop with a single client that
calls ``gpdrift.cli.main`` in-process for each invocation of the
workload's fixed list, one after another, in whole rounds until ``--seconds``
have passed.  Inputs are made from ``--seed`` and written to a temporary
directory under ``bench/out``; the program sees only files and flags.
Every output is checked by ``checks`` against independent computations.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (setup_s, wall_s, cpu_s, peak_rss_mb).  With ``--trace 1``
the run makes one untraced round with the workload's worker count, then
alternates untraced and traced rounds at a single worker, checks that all
of them wrote the same bytes, and reports the per-layer metrics and the
tracing overhead (traced against untraced single-worker rounds); the spans
go to ``bench/out/trace-<workload>.json``.
The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
from checks import CheckFailed, Outcome, require
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import gpdrift\n"
    "print(repr(time.perf_counter() - t))\n"
)


def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or of any child it has waited for
    (pool workers are forked, so their peak includes pages they share)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def import_seconds() -> float:
    """`import gpdrift` timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def setup_sample(workload) -> tuple[float, float]:
    """One fresh `import gpdrift`, and one build of the graphs, groups and
    nu samplers the workload's invocations build."""
    import gpdrift

    imported = import_seconds()
    t0 = time.perf_counter()
    workload.construct(gpdrift)
    return imported, time.perf_counter() - t0


def invoke(main, inv, out_dir: str, workers: int, tracer=None):
    argv = list(inv.argv)
    path = os.path.join(out_dir, inv.name + ".csv")
    if inv.output:
        argv += ["--output", path]
    os.environ["GPDRIFT_WORKERS"] = str(workers)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.main", main, argv, note=(inv.name, argv[0]))
        except Exception as exc:  # a fault escaping main is an operation that failed
            code = type(exc).__name__
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), None), path


def run_round(main, workload, out_dir: str, workers: int, tracer=None):
    """All invocations once, timed; outputs are read back after the clock stops."""
    pending = []
    if tracer is not None:
        tracer.begin_round()
    cpu0, t0 = _cpu(), time.perf_counter()
    for inv in workload.invocations:
        pending.append((inv, *invoke(main, inv, out_dir, workers, tracer)))
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    if tracer is not None:
        tracer.end_round()
    outcomes = {}
    for inv, out, path in pending:
        csv = None
        if inv.output and os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                csv = fh.read()
            os.remove(path)
        outcomes[inv.name] = dataclasses.replace(out, csv=csv)
    return wall, cpu, outcomes


def _same(a: dict, b: dict, what: str) -> None:
    for name in a:
        require(a[name] == b[name], f"{name}: output of {what} differs from the first round")


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import gpdrift
    from gpdrift.cli import main

    if not Path(gpdrift.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported gpdrift from {gpdrift.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        start = time.perf_counter()
        rounds, plain, traced, setup = [], [], [], []
        correct, problem = True, ""
        try:
            if args.trace:
                rounds.append(run_round(main, workload, out_dir, workload.workers))
                first = rounds[0][2]
                tracer = tracing.Tracer()
                while True:
                    # untraced and traced single-worker rounds alternate,
                    # so the overhead compares rounds made at the same time
                    plain.append(run_round(main, workload, out_dir, 1))
                    _same(first, plain[-1][2], "a single-worker round")
                    tracer.install(gpdrift)
                    try:
                        traced.append(run_round(main, workload, out_dir, 1, tracer))
                    finally:
                        tracer.uninstall()
                    _same(first, traced[-1][2], "a traced round")
                    if time.perf_counter() - start >= args.seconds:
                        break
                rounds += plain + traced
            else:
                while True:
                    rounds.append(run_round(main, workload, out_dir, workload.workers))
                    _same(rounds[0][2], rounds[-1][2], "a later round")
                    # Set-up is sampled between rounds, so that one slow spell
                    # of a shared machine does not cover every sample.
                    setup.append(setup_sample(workload))
                    if time.perf_counter() - start >= args.seconds:
                        break
            peak = _peak_rss_mb()
            workload.verify(rounds[0][2])
        except CheckFailed as exc:
            correct, problem = False, str(exc)

    attempted = len(rounds) * len(workload.invocations)
    failed = sum(1 for _, _, outs in rounds for o in outs.values() if o.code != 0)
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(tracer, workload, traced, plain, args.workload)
    else:
        walls = [r[0] for r in rounds]
        metrics = {
            # Each part is fixed work, so its fastest sample is the one the
            # machine disturbed least.
            "setup_s": (min(i for i, _ in setup) + min(b for _, b in setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(r[1] for r in rounds), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} invocations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not correct:
        print(f"  INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(tracer, workload, traced, plain, name: str) -> dict:
    percentile, tail_percentile = tracing.percentile, tracing.tail_percentile
    first = traced[0][2]
    requested = {inv.name: inv.requested_steps for inv in workload.invocations if first[inv.name].code == 0}
    per_round = [tracer.round_metrics(r, requested) for r in range(len(traced))]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        value = statistics.median_low(values) if units[key] == "count" else statistics.median(values)
        out[key] = (value, units[key])
    # walks of the short pareto:0.01 invocations would swamp the long ones
    side = {inv.name for inv in workload.invocations if not inv.timed_trials}
    trials = tracer.trial_ms(range(len(traced)), side)
    queries = tracer.query_ms(range(len(traced)))
    out["walk.trial_ms_p50"] = (percentile(trials, 50), "ms")
    out["walk.trial_ms_tail"] = (percentile(trials, tail_percentile(len(trials))), "ms")
    out["cli.query_ms_p50"] = (percentile(queries, 50), "ms")
    out["cli.query_ms_tail"] = (percentile(queries, tail_percentile(len(queries))), "ms")
    traced_wall = statistics.median(r[0] for r in traced)
    plain_wall = statistics.median(r[0] for r in plain)
    out["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
    print(f"traced rounds {len(traced)}; walk tail is p{tail_percentile(len(trials))} of {len(trials)} "
          f"trials; query tail is p{tail_percentile(len(queries))} of {len(queries)} queries")
    tracer.write(str(OUT / f"trace-{name}.json"))
    return {m: out[m] for m in units}


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout.rpartition("\n{")[0] + "\n")
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gpdrift" / "__init__.py").is_file():
        print(f"error: no gpdrift sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
