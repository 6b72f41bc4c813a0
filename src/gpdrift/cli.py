"""Command-line front end.

Subcommands: ``stats`` (graph constants), ``kappa`` (drift lower bound),
``simulate`` (trial CSV), ``check`` (inequality checks CSV), ``sweep``
(bound across a cycle family, CSV).  ``stats``, ``kappa`` and ``check``
read a family's constants in closed form, so ``check`` refuses a graph
that fails the small-cliques condition before it builds it.  Output is
byte-deterministic given the flags: the default seed is the fixed constant
DEFAULT_SEED, floats print with 12 significant digits, and the worker count
(GPDRIFT_WORKERS) never changes results.

Exit codes: 0 ok, 2 bad input or flags, out of memory or a worker lost
without a result, 3 the small-cliques condition fails where a bound is
required, 4 a check failed.
Exit 3 has one source, ``drift_lower_bound``'s ``SmallCliquesError``, whose
line :func:`main` prints.

:func:`main` may be called repeatedly in one process.  It builds its parser
on the first call and keeps no other state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from .drift import SmallCliquesError, drift_lower_bound
from .experiments import (
    TrialBatch,
    check_domination,
    check_pivot_step_probability,
    check_lower_tail,
    checks_csv_text,
    estimate_drift,
    log_spaced_ints,
    run_batch,
    sweep_csv_text,
    sweep_cycles,
    trials_csv_text,
    write_text,  # bench/tracer.py wraps this name
)
from .graphs import (
    Graph,
    GraphStats,
    complete_graph,
    complete_stats,
    cycle_graph,
    cycle_stats,
    edgeless_graph,
    edgeless_stats,
    graph_stats,
    parse_graph,
)
from .groups import groups_from_spec
from .piling import Word
from .walk import FixedWord, ParetoLetter, WordChoice, fold

DEFAULT_SEED = 1729

# Each family's constructor, and its constants in closed form.  The closed
# form refuses the vertex counts the constructor refuses, with the same
# errors.
_FAMILIES = {
    "cycle": (cycle_graph, cycle_stats),
    "edgeless": (edgeless_graph, edgeless_stats),
    "complete": (complete_graph, complete_stats),
}


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _read_graph_file(args) -> Graph | None:
    """The ``--graph`` file's graph, or None when ``--family`` and ``--D``
    name the graph instead.  Refuses flags that name two sources, or none.
    Each warning the parse raises (a duplicate edge) prints as one
    ``warning:`` line on stderr."""
    if args.graph is not None:
        for flag, value in (("--family", args.family), ("--D", args.D)):
            if value is not None:
                raise ValueError(f"--graph and {flag} name two graph sources; give one")
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = parse_graph(text)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return graph
    if args.family is not None:
        if args.D is None:
            raise ValueError("--family needs --D")
        return None
    raise ValueError("provide --graph FILE or --family NAME --D N")


def _load_stats(args, graph: Graph | None) -> GraphStats:
    """The constants of ``graph``, the ``--graph`` file's graph.  When it
    is None, they come from the family's closed form and no graph is
    built."""
    return _FAMILIES[args.family][1](args.D) if graph is None else graph_stats(graph)


def _label_index(graph: Graph) -> dict[str, int]:
    return {label: i for i, label in enumerate(graph.labels)}


def _parse_word(token: str, graph: Graph, groups, index: dict[str, int]) -> Word:
    """One ``label^power`` word; ``index`` maps labels to vertices."""
    word = []
    for piece in token.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "^" in piece:
            label, _, power = piece.partition("^")
            try:
                k = int(power)
            except ValueError as exc:
                raise ValueError(f"bad exponent in letter {piece!r}") from exc
        else:
            label, k = piece, 1
        if label not in index:
            raise ValueError(f"unknown vertex label {label!r}")
        v = index[label]
        value = groups[v].from_int(k)
        if groups[v].is_identity(value):
            raise ValueError(f"letter {piece!r} is the identity in its vertex group")
        word.append((v, value))
    if not word:
        raise ValueError("empty word")
    if fold(word, graph, groups).live == 0:
        raise ValueError(f"word {token!r} is the identity")
    return tuple(word)


def _parse_nu(spec: str, graph: Graph, groups):
    kind, _, rest = spec.partition(":")
    if kind == "fixed":
        return FixedWord(_parse_word(rest, graph, groups, _label_index(graph)))
    if kind == "list":
        index = _label_index(graph)
        with open(rest, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        words = [
            _parse_word(line, graph, groups, index)
            for line in lines
            if line and not line.startswith("#")
        ]
        return WordChoice(words)
    if kind == "pareto":
        try:
            alpha = float(rest)
        except ValueError as exc:
            raise ValueError(f"bad pareto exponent {rest!r}") from exc
        return ParetoLetter(alpha)
    raise ValueError(f"unknown nu spec {spec!r} (fixed:/list:/pareto:)")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="path to a graph file (JSON or edge list)")
    p.add_argument("--family", choices=sorted(_FAMILIES), help="built-in graph family")
    p.add_argument("--D", type=int, help="vertex count for --family")


def _add_walk_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--groups", default="z", help="vertex groups: z | zmod:<m> | comma list")
    p.add_argument("--nu", default=None, help="nu sampler: fixed:<word> | list:<path> | pareto:<alpha>")
    p.add_argument("--n", type=int, default=100, help="steps per walk")
    p.add_argument("--trials", type=int, default=1000, help="independent walks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed")


def _build_batch(args, graph: Graph | None) -> TrialBatch:
    """The walk batch on ``graph``, the ``--graph`` file's graph, or on the
    family graph, built here, when it is None."""
    if graph is None:
        graph = _FAMILIES[args.family][0](args.D)
    groups = groups_from_spec(args.groups, graph.vertex_count)
    nu = _parse_nu(args.nu, graph, groups) if args.nu else FixedWord(((0, groups[0].from_int(1)),))
    if args.n < 1:
        raise ValueError("--n must be positive")
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    return TrialBatch(
        graph=graph,
        groups=groups,
        nu=nu,
        steps=args.n,
        trials=args.trials,
        base_seed=args.seed,
    )


def cmd_stats(args) -> int:
    stats = _load_stats(args, _read_graph_file(args))
    print(
        json.dumps(
            {
                "D": stats.vertex_count,
                "C": stats.max_clique,
                "B": stats.max_neighbourhood,
                "small_cliques": stats.small_cliques,
            }
        )
    )
    return 0


def cmd_kappa(args) -> int:
    stats = _load_stats(args, _read_graph_file(args))
    bound = drift_lower_bound(stats.max_neighbourhood, stats.max_clique, stats.vertex_count)
    print(
        json.dumps(
            {
                "kappa": _round12(bound.kappa),
                "t_star": _round12(bound.t_star),
                "mean_U": _round12(float(bound.law.mean())),
                "mgf": _round12(bound.mgf_at_t_star),
            }
        )
    )
    return 0


def _open_output(path: str):
    """Open ``--output`` before any row is computed, so an unwritable path
    fails fast.  A run that fails afterwards leaves the file empty."""
    return open(path, "w", encoding="utf-8", newline="")


def cmd_simulate(args) -> int:
    batch = _build_batch(args, _read_graph_file(args))
    with _open_output(args.output) as fh:
        metrics = run_batch(batch)
        fh.write(trials_csv_text(metrics))
    drift = estimate_drift(metrics, batch.steps)
    print(
        json.dumps(
            {
                "trials": batch.trials,
                "steps": batch.steps,
                "drift": _round12(drift.mean),
                "stderr": None if drift.stderr is None else _round12(drift.stderr),
                "output": args.output,
            }
        )
    )
    return 0


def cmd_check(args) -> int:
    graph = _read_graph_file(args)
    stats = _load_stats(args, graph)
    bound = drift_lower_bound(stats.max_neighbourhood, stats.max_clique, stats.vertex_count)
    batch = _build_batch(args, graph)
    n = batch.steps
    with _open_output(args.output) as fh:
        metrics = run_batch(batch._replace(steps=n + 1))
        reports = [
            check_lower_tail(metrics, n, bound.kappa),
            check_pivot_step_probability(metrics, n, bound.law),
            check_domination(metrics, n, bound.law),
        ]
        fh.write(checks_csv_text(reports))
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name}: {status} statistic={r.statistic:.6g} "
            f"threshold={r.threshold:.6g} {r.detail}"
        )
    return 0 if all(r.passed for r in reports) else 4


def cmd_sweep(args) -> int:
    if args.D_list is not None:
        try:
            d_values = sorted({int(x) for x in args.D_list.split(",") if x.strip()})
        except ValueError as exc:
            raise ValueError(f"bad --D-list {args.D_list!r}") from exc
    else:
        d_values = log_spaced_ints(args.start, args.stop, args.points)
    if not d_values or min(d_values) < 3:
        raise ValueError("cycle lengths must be at least 3")
    cycle_stats(max(d_values))  # a length past the vertex limit fails here
    with _open_output(args.output) as fh:
        rows = sweep_cycles(d_values)
        fh.write(sweep_csv_text(rows))
    print(json.dumps({"rows": len(rows), "output": args.output}))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and the same object on
    every later one.  It holds the ``cmd_*`` functions; they look up what
    they call in this module when they run, so a name patched here takes
    effect on the next call."""
    parser = argparse.ArgumentParser(
        prog="gpdrift",
        description="Graph products: normal forms, alternating walks, drift bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print D, C, B and the small-cliques flag")
    _add_graph_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("kappa", help="print the drift lower bound")
    _add_graph_args(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("simulate", help="run walks, write a trials CSV")
    _add_graph_args(p)
    _add_walk_args(p)
    p.add_argument("--output", default="trials.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run the inequality checks, write a CSV")
    _add_graph_args(p)
    _add_walk_args(p)
    p.add_argument("--output", default="checks.csv")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="bound across cycle lengths, write a CSV")
    p.add_argument("--from", dest="start", type=int, default=17)
    p.add_argument("--to", dest="stop", type=int, default=12000)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--D-list", dest="D_list", default=None, help="explicit comma list")
    p.add_argument("--output", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmallCliquesError as exc:
        print(exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # report outside the handler, once its traceback has freed the frames
    print("error: out of memory: the graph or batch is too large for this machine", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
