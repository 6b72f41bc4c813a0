"""Spans around the calls one gpdrift module makes into the next.

The tracer replaces module attributes from outside (the name ``walk`` uses
for ``piling.append``, the name ``cli`` uses for ``experiments.run_batch``,
and so on) with wrappers that record a span: name, start, end and the
span that was open when it began.  Spans stay in flat arrays in memory and
are written once, at the end.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array

# (module, attribute, span name).  The same function is wrapped under each
# name a caller looks it up by, so calls from inside a module are seen too.
WRAP_POINTS = [
    ("cli", "parse_graph", "graphs.parse_graph"),
    ("cli", "graph_stats", "graphs.graph_stats"),
    ("experiments", "graph_stats", "graphs.graph_stats"),
    ("walk", "append", "piling.append"),
    ("walk", "is_prefix", "piling.is_prefix"),
    ("walk", "piling_of_word", "piling.piling_of_word"),
    ("cli", "run_batch", "experiments.run_batch"),
    ("experiments", "run_batch", "experiments.run_batch"),
    ("cli", "estimate_drift", "experiments.estimate_drift"),
    ("cli", "check_lower_tail", "experiments.checks"),
    ("cli", "check_pivot_step_probability", "experiments.checks"),
    ("cli", "check_domination", "experiments.checks"),
    ("cli", "sweep_cycles", "experiments.sweep_cycles"),
    ("cli", "trials_csv_text", "experiments.csv"),
    ("cli", "checks_csv_text", "experiments.csv"),
    ("cli", "sweep_csv_text", "experiments.csv"),
    ("cli", "write_text", "experiments.csv"),
    ("cli", "drift_lower_bound", "drift.drift_lower_bound"),
    ("experiments", "drift_lower_bound", "drift.drift_lower_bound"),
]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.
    With fewer than forty samples that is p75 or lower, no tail, so the
    median alone (50) stands in for it."""
    if n < 40:
        return 50
    return int(100 * (1 - 10 / n))


def percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.notes: dict[int, tuple[str, str]] = {}  # cli.main span -> (invocation, subcommand)
        self.walks: list[tuple[int, int, int]] = []  # (span, steps folded, deepest stack)
        self.rounds: list[tuple[int, int, int, int]] = []  # span and walk ranges
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, on_result=None):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if on_result is not None:
                on_result(idx, result)
            return result

        return traced

    def call(self, name: str, fn, *args, note: tuple[str, str] | None = None):
        """Run fn(*args) as one span of the given name."""
        idx = self._enter(self._id(name))
        if note is not None:
            self.notes[idx] = note
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def _record_walk(self, idx: int, trace) -> None:
        self.walks.append((idx, trace.n, max(trace.active_counts, default=0)))

    def install(self, gp) -> None:
        import gpdrift.cli
        import gpdrift.experiments
        import gpdrift.walk

        modules = {"cli": gpdrift.cli, "experiments": gpdrift.experiments, "walk": gpdrift.walk}
        for mod_name, attr, span in WRAP_POINTS:
            mod = modules[mod_name]
            self._patch(mod, attr, self.wrap(getattr(mod, attr), span))
        mod = gpdrift.experiments
        self._patch(mod, "run_walk", self.wrap(mod.run_walk, "walk.run_walk", self._record_walk))
        # The O(D^2) table is a cached property: wrap the function it runs once.
        cached = gp.Graph.__dict__["nonneighbors"]
        prop = functools.cached_property(self.wrap(cached.func, "graphs.nonneighbors"))
        prop.__set_name__(gp.Graph, "nonneighbors")
        self._patch(gp.Graph, "nonneighbors", prop, original=cached)

    def _patch(self, owner, attr, value, original=None) -> None:
        self._patches.append((owner, attr, original if original is not None else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_round(self) -> None:
        self._round_start = (len(self.start), len(self.walks))

    def end_round(self) -> None:
        self.rounds.append((*self._round_start, len(self.start), len(self.walks)))

    def round_metrics(self, r: int, requested: dict[str, int]) -> dict[str, float]:
        """Per-layer values of traced round r.  ``requested`` maps each
        invocation that succeeded to the trials * n it asked for."""
        s0, w0, s1, w1 = self.rounds[r]
        dur = [self.end[i] - self.start[i] for i in range(s0, s1)]
        child = [0.0] * (s1 - s0)
        for i in range(s0, s1):
            p = self.parent[i]
            if p >= s0:
                child[p - s0] += dur[i - s0]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for i in range(s0, s1):
            name = self.names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i - s0] - child[i - s0]
            total_s[name] = total_s.get(name, 0.0) + dur[i - s0]
        walks = self.walks[w0:w1]
        steps = sum(w[1] for w in walks)
        # over the invocations that succeeded: a failed one folds only part
        useful = sum(w[1] for w in walks if self._invocation(w[0]) in requested)
        walk_s = total_s.get("walk.run_walk", 0.0)
        count = lambda span: calls.get(span, 0)
        own = lambda span: self_s.get(span, 0.0)
        return {
            "graphs.parse_graph_s": own("graphs.parse_graph"),
            "graphs.nonneighbors_s": own("graphs.nonneighbors"),
            "graphs.graph_stats_calls": count("graphs.graph_stats"),
            "graphs.graph_stats_s": own("graphs.graph_stats"),
            "piling.append_calls": count("piling.append"),
            "piling.append_s": own("piling.append"),
            "piling.is_prefix_calls": count("piling.is_prefix"),
            "piling.is_prefix_s": own("piling.is_prefix"),
            "piling.piling_of_word_calls": count("piling.piling_of_word"),
            "piling.piling_of_word_s": own("piling.piling_of_word"),
            "walk.run_walk_calls": count("walk.run_walk"),
            "walk.run_walk_self_s": own("walk.run_walk"),
            "walk.steps_folded": steps,
            "walk.steps_per_s": steps / walk_s if walk_s else 0.0,
            "walk.prefix_checks_per_step": count("piling.is_prefix") / steps if steps else 0.0,
            "walk.stack_depth_max": max((w[2] for w in walks), default=0),
            "experiments.run_batch_calls": count("experiments.run_batch"),
            "experiments.useful_step_ratio": sum(requested.values()) / useful if useful else 0.0,
            "experiments.checks_s": own("experiments.checks"),
            "experiments.csv_s": own("experiments.csv"),
            "drift.drift_lower_bound_calls": count("drift.drift_lower_bound"),
            "drift.drift_lower_bound_s": own("drift.drift_lower_bound"),
            "cli.main_self_s": own("cli.main"),
        }

    def _invocation(self, idx: int) -> str:
        while idx not in self.notes:
            idx = self.parent[idx]
        return self.notes[idx][0]

    def trial_ms(self, rounds: range, skip: set[str]) -> list[float]:
        """Durations of the walks that completed, over the given rounds,
        leaving out walks made by the invocations named in ``skip``."""
        out = []
        for r in rounds:
            _, w0, _, w1 = self.rounds[r]
            out.extend(1e3 * (self.end[i] - self.start[i]) for i, _, _ in self.walks[w0:w1]
                       if self._invocation(i) not in skip)
        return out

    def query_ms(self, rounds: range) -> list[float]:
        """Durations of the stats and kappa invocations, over the given rounds."""
        out = []
        for r in rounds:
            s0, _, s1, _ = self.rounds[r]
            out.extend(1e3 * (self.end[i] - self.start[i]) for i in range(s0, s1)
                       if i in self.notes and self.notes[i][1] in ("stats", "kappa"))
        return out

    def write(self, path: str) -> None:
        """All spans as parallel arrays; times in microseconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_us": [round(1e6 * (t - t0)) for t in self.start],
            "dur_us": [round(1e6 * (e - s)) for s, e in zip(self.start, self.end)],
            "notes": {str(k): v for k, v in self.notes.items()},
            "rounds": self.rounds,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
