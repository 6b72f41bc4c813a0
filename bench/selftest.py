"""Show that no output check passes vacuously.

    python3 bench/selftest.py

Runs one round of every workload at a fixed seed, checks that the real
outputs pass, then corrupts them one way at a time (an A_n above the
syllable count, a pivotal count off by one, kappa off by 1e-6 relative, a
check row set to false, ...) and requires each corruption to be caught.  Exits 1 if any
corruption slips through or the real outputs fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import run
from workloads import CheckCycle50

SEED = 5


def edit_csv(text: str, row: int, col: int, fn) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def edit_json(text: str, key: str, fn) -> str:
    doc = json.loads(text)
    doc[key] = fn(doc[key])
    return json.dumps(doc) + "\n"


def first_row(text: str, pred) -> int:
    rows = [line.split(",") for line in text.split("\n")[1:-1]]
    return next(i for i, r in enumerate(rows) if pred(r))


def rel(factor: float):
    return lambda x: f"{float(x) * factor:.12g}"


def mutations(outs):
    """(invocation, what, corrupted Outcome) for every corruption tried."""
    csv = lambda name, row, col, fn: dataclasses.replace(outs[name], csv=edit_csv(outs[name].csv, row, col, fn))
    out = lambda name, key, fn: dataclasses.replace(outs[name], stdout=edit_json(outs[name].stdout, key, fn))
    if "check" in outs:
        yield "check", "a check row set to false", csv("check", 1, 3, lambda _: "false")
        steps = CheckCycle50.TRIALS * CheckCycle50.N
        yield "check", "pivot step statistic off by one event", csv(
            "check", 1, 1, lambda x: f"{float(x) + 1 / steps:.12g}")
        yield "check", "lower-tail threshold from kappa off by 1e-6", csv(
            "check", 0, 2, lambda x: f"{float(x) ** (1 + 1e-6):.12g}")
        yield "check", "exit code 4", dataclasses.replace(outs["check"], code=4)
    if "pareto_0.01_seed1" in outs:
        for code in (2, "ZeroDivisionError"):
            yield "pareto_0.01_seed1", f"the fault invocation failing with {code}", dataclasses.replace(
                outs["pareto_0.01_seed1"], code=code)
    for name in ("words", "pareto_1.1", "pareto_0.01_seed4"):
        if name not in outs:
            continue
        text = outs[name].csv
        yield name, "A_n above min(n-1, syllables)", csv(name, 0, 2, lambda _: str(10**6))
        yield name, "a syllable count off by one", csv(name, 0, 1, lambda x: str(int(x) + 1))
        if name != "pareto_1.1":
            row = first_row(text, lambda r: int(r[2]) >= 1)
            yield name, "a pivotal count off by one", csv(name, row, 2, lambda x: str(int(x) - 1))
        yield name, "stdout drift off by 1e-9", out(name, "drift", lambda x: x * (1 + 1e-9))
    if "sweep" in outs:
        yield "sweep", "kappa off by 1e-6", csv("sweep", 10, 3, rel(1 + 1e-6))
        yield "sweep", "t_star off the maximum", csv("sweep", 20, 4, rel(1.01))
        yield "sweep", "mean_U off by 1e-9", csv("sweep", 30, 5, rel(1 + 1e-9))
        yield "sweep", "B of one cycle off by one", csv("sweep", 5, 1, lambda x: str(int(x) + 1))
        kappa = next(n for n in outs if n.startswith("kappa"))
        yield kappa, "kappa off by 1e-6", out(kappa, "kappa", lambda x: x * (1 + 1e-6))
        yield kappa, "mgf off by 1e-6", out(kappa, "mgf", lambda x: x * (1 + 1e-6))
        stats = next(n for n in outs if n.startswith("stats"))
        yield stats, "C off by one", out(stats, "C", lambda x: x + 1)
        yield stats, "small_cliques flipped", out(stats, "small_cliques", lambda x: not x)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from gpdrift.cli import main as cli_main

    from checks import CheckFailed
    from workloads import WORKLOADS

    missed = 0
    run.OUT.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            workload = cls(SEED, tmp)
            out_dir = os.path.join(tmp, "out")
            os.mkdir(out_dir)
            _, _, outs = run.run_round(cli_main, workload, out_dir, workload.workers)
        try:
            workload.verify(outs)
            print(f"{name}: real outputs pass")
        except CheckFailed as exc:
            print(f"{name}: real outputs FAIL: {exc}")
            missed += 1
        bad = dict(outs)
        some = next(iter(outs))
        bad[some] = dataclasses.replace(outs[some], stdout=outs[some].stdout + " ")
        cases = [(None, "one stdout byte changed in a later round", bad)]
        cases += [(inv, what, {**outs, inv: o}) for inv, what, o in mutations(outs)]
        for inv, what, corrupted in cases:
            try:
                if inv is None:
                    run._same(outs, corrupted, "a later round")
                else:
                    workload.verify(corrupted)
            except CheckFailed as exc:
                print(f"  caught  {what:45s} ({str(exc)[:90]})")
            else:
                print(f"  MISSED  {what}")
                missed += 1
    print("all corruptions caught" if not missed else f"{missed} corruptions missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
