import argparse
import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gpdrift
from gpdrift.cli import DEFAULT_SEED, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_seventeen_cycle(capsys):
    code, out, _ = run_cli(capsys, "stats", "--family", "cycle", "--D", "17")
    assert code == 0
    assert json.loads(out) == {"D": 17, "C": 2, "B": 4, "small_cliques": True}


def test_stats_complete_graph_beyond_the_recursion_limit(capsys):
    code, out, _ = run_cli(capsys, "stats", "--family", "complete", "--D", "1100")
    assert code == 0
    assert out == '{"D": 1100, "C": 1100, "B": 1100, "small_cliques": false}\n'


def test_stats_from_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"vertices": ["a", "b", "c", "d", "e"], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]})
    )
    code, out, _ = run_cli(capsys, "stats", "--graph", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == 5 and doc["C"] == 2 and doc["B"] == 4
    assert doc["small_cliques"] is False


def test_stats_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ["a"], "edges": [[0, 0]]}')
    code, _, err = run_cli(capsys, "stats", "--graph", str(path))
    assert code == 2
    assert "self-loop" in err


def test_stats_missing_source(capsys):
    code, _, err = run_cli(capsys, "stats")
    assert code == 2 and "provide" in err


@pytest.mark.parametrize(
    "other", [["--family", "cycle", "--D", "17"], ["--D", "5"]], ids=["family", "D"]
)
def test_graph_file_and_family_conflict(tmp_path, capsys, other):
    path = tmp_path / "tri.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code, out, err = run_cli(capsys, "stats", "--graph", str(path), *other)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --graph and {other[0]} ")


# The 16-cycle is inside U's domain; K_4 is outside it (D <= 2B + C), so
# these exit 3 only if the small-cliques test comes before U's law is built.
NO_SMALL_CLIQUES = {
    "cycle16": (["--family", "cycle", "--D", "16"], "D=16 is not greater than 3B+2C=16"),
    "complete4": (["--family", "complete", "--D", "4"], "D=4 is not greater than 3B+2C=20"),
}


@pytest.mark.parametrize("graph", sorted(NO_SMALL_CLIQUES))
def test_kappa_small_cliques_violation(capsys, graph):
    graph_args, why = NO_SMALL_CLIQUES[graph]
    code, out, err = run_cli(capsys, "kappa", *graph_args)
    assert (code, out, err) == (3, "", f"small-cliques condition fails: {why}\n")


def test_kappa_seventeen_and_hundred(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--family", "cycle", "--D", "17")
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["kappa"] <= 11 / 119
    assert set(doc) == {"kappa", "t_star", "mean_U", "mgf"}
    code, out, _ = run_cli(capsys, "kappa", "--family", "cycle", "--D", "100")
    assert code == 0
    assert abs(json.loads(out)["kappa"] - 0.325162) < 0.02


def test_kappa_output_is_stable(capsys):
    _, out1, _ = run_cli(capsys, "kappa", "--family", "cycle", "--D", "40")
    _, out2, _ = run_cli(capsys, "kappa", "--family", "cycle", "--D", "40")
    assert out1 == out2


def test_simulate_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--family", "cycle", "--D", "17",
        "--n", "10", "--trials", "20",
        "--output", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 20 and summary["drift"] > 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "trial,syllables,A_n"
    assert len(lines) == 21


def test_simulate_deterministic_bytes(tmp_path, capsys):
    args = [
        "simulate", "--family", "cycle", "--D", "17",
        "--n", "15", "--trials", "30", "--nu", "pareto:1.5",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run_cli(capsys, *args, "--output", str(p1))
    code2, out2, _ = run_cli(capsys, *args, "--output", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(out1)["drift"] == json.loads(out2)["drift"]


def test_simulate_respects_seed_flag(tmp_path, capsys):
    base = ["simulate", "--family", "cycle", "--D", "17", "--n", "10", "--trials", "10"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, *base, "--output", str(p1))
    run_cli(capsys, *base, "--seed", str(DEFAULT_SEED + 1), "--output", str(p2))
    assert p1.read_bytes() != p2.read_bytes()


def test_simulate_with_groups_and_fixed_nu(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--family", "cycle", "--D", "6",
        "--groups", "zmod:3",
        "--nu", "fixed:v0^1,v2^2",
        "--n", "8", "--trials", "10",
        "--output", str(out_path),
    )
    assert code == 0
    assert out_path.exists()


def test_nu_identity_letter_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--family", "cycle", "--D", "6",
        "--groups", "zmod:3",
        "--nu", "fixed:v0^3",
        "--trials", "5",
    )
    assert code == 2 and "identity" in err


def test_nu_identity_word_rejected_whatever_the_seed(tmp_path, capsys):
    # the identity word is refused while parsing, not only when a seed draws it
    words = tmp_path / "words.txt"
    words.write_text("v1^1,v1^-1\nv0^1\n")
    for seed in range(1, 6):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--family", "cycle", "--D", "17",
            "--nu", f"list:{words}",
            "--n", "1", "--trials", "1", "--seed", str(seed),
            "--output", str(tmp_path / "t.csv"),
        )
        assert code == 2 and "identity" in err
    # v0 and v1 commute on the cycle, so this fixed word is the identity too
    code, _, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--D", "6", "--nu", "fixed:v0^2,v1^1,v0^-2,v1^-1"
    )
    assert code == 2 and "identity" in err


def test_nu_unknown_label_rejected(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--D", "6", "--nu", "fixed:z^1"
    )
    assert code == 2 and "unknown vertex label" in err


def test_nu_word_list_file(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("v0^1,v2^-1\nv3^2\n")
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--family", "cycle", "--D", "6",
        "--nu", f"list:{words}",
        "--n", "10", "--trials", "10",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0


def test_nu_word_list_skips_indented_comments(tmp_path, capsys):
    # blank lines and # comments are skipped wherever the # stands after
    # leading whitespace, as in edge-list graph files
    import gpdrift.cli as cli
    from gpdrift.graphs import cycle_graph
    from gpdrift.groups import uniform_groups

    words = tmp_path / "words.txt"
    words.write_text("# a comment\n   # indented comment\n\n  v0^1,v2^-1\n\t# tabbed\n \nv3^2\n")
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--family", "cycle", "--D", "6",
        "--nu", f"list:{words}",
        "--n", "10", "--trials", "10",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0, err
    graph, groups = cycle_graph(6), uniform_groups(6)
    nu = cli._parse_nu(f"list:{words}", graph, groups)
    assert nu.words == (((0, 1), (2, -1)), ((3, 2),))


def test_nu_word_list_parses_with_one_label_map(tmp_path, monkeypatch):
    import gpdrift.cli as cli
    from gpdrift.graphs import cycle_graph
    from gpdrift.groups import uniform_groups

    graph, groups = cycle_graph(2000), uniform_groups(2000)
    lines = [f"v{i}^1,v{(i + 7) % 2000}^-2" for i in range(0, 2000, 37)]
    words = tmp_path / "words.txt"
    words.write_text("# a comment\n" + "\n".join(lines) + "\n")
    expected = [cli._parse_word(line, graph, groups, cli._label_index(graph)) for line in lines]
    maps, builds = [], []
    real_index, real_parse = cli._label_index, cli._parse_word

    def label_index(g):
        builds.append(g)
        return real_index(g)

    def parse_word(token, g, gr, index):
        maps.append(index)
        return real_parse(token, g, gr, index)

    monkeypatch.setattr(cli, "_label_index", label_index)
    monkeypatch.setattr(cli, "_parse_word", parse_word)
    nu = cli._parse_nu(f"list:{words}", graph, groups)
    assert list(nu.words) == expected
    assert len(builds) == 1 and len(maps) == len(lines)
    assert all(m is maps[0] for m in maps)


def test_check_passes_on_cycle(tmp_path, capsys):
    out_path = tmp_path / "checks.csv"
    code, out, _ = run_cli(
        capsys,
        "check",
        "--family", "cycle", "--D", "17",
        "--n", "20", "--trials", "400",
        "--output", str(out_path),
    )
    assert code == 0
    assert "lower_tail_bound: PASS" in out
    assert "pivot_step_probability: PASS" in out
    assert "increment_domination: PASS" in out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "check,statistic,threshold,pass"
    assert len(lines) == 4
    name, statistic, threshold, status = lines[3].split(",")
    assert (name, threshold, status) == ("increment_domination", "0", "true")
    assert float(statistic) > 0


def test_failed_check_exits_4(tmp_path, capsys, monkeypatch):
    # cli looks check_domination up at call time, so a forced failure
    # reaches the exit code; the other checks and every CSV row still run
    import gpdrift.cli as cli
    from gpdrift.experiments import CheckReport

    failing = CheckReport("increment_domination", -0.5, 0.0, False, "forced")
    monkeypatch.setattr(cli, "check_domination", lambda *args: failing)
    out_path = tmp_path / "checks.csv"
    code, out, _ = run_cli(
        capsys,
        "check",
        "--family", "cycle", "--D", "30",
        "--n", "20", "--trials", "60",
        "--output", str(out_path),
    )
    assert code == 4
    assert "increment_domination: FAIL" in out
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == [
        "lower_tail_bound", "pivot_step_probability", "increment_domination"
    ]
    assert lines[3].endswith(",false")


def test_check_lower_tail_passes_between_resolution_and_wilson_limit(tmp_path, capsys):
    # exp(-kappa n) = 0.0021 lies between 1/trials and the Wilson limit of an
    # empty tail (0.0054), and no walk lands in the tail.
    code, out, _ = run_cli(
        capsys,
        "check",
        "--family", "cycle", "--D", "50",
        "--n", "30", "--trials", "1000",
        "--output", str(tmp_path / "checks.csv"),
    )
    assert code == 0
    assert (
        "lower_tail_bound: PASS statistic=0.00538276 threshold=0.00210049 "
        "empirical=0 successes=0"
    ) in out


@pytest.mark.parametrize("graph", sorted(NO_SMALL_CLIQUES))
def test_check_requires_small_cliques(tmp_path, capsys, graph):
    graph_args, why = NO_SMALL_CLIQUES[graph]
    out_path = tmp_path / "checks.csv"
    code, out, err = run_cli(
        capsys, "check", *graph_args, "--n", "5", "--trials", "5", "--output", str(out_path)
    )
    assert (code, out, err) == (3, "", f"small-cliques condition fails: {why}\n")
    assert not out_path.exists()


def test_sweep_with_explicit_list(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--D-list", "15,17,30", "--output", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "D,B,C,kappa,t_star,mean_U,mgf"
    assert len(lines) == 4
    assert lines[1].split(",")[3] == "nan"  # 15 is below the threshold
    k17 = float(lines[2].split(",")[3])
    k30 = float(lines[3].split(",")[3])
    assert 0 < k17 < k30


def test_sweep_log_spaced(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--from", "17", "--to", "300", "--points", "8",
        "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    lines = out_path.read_text().strip().split("\n")
    assert doc["rows"] == len(lines) - 1 <= 8
    ks = [float(line.split(",")[3]) for line in lines[1:]]
    assert ks == sorted(ks)


def test_sweep_bad_list(capsys):
    code, _, err = run_cli(capsys, "sweep", "--D-list", "17,x")
    assert code == 2


@pytest.mark.parametrize("d_list", ["", ",", "2,17"], ids=["empty", "comma", "short"])
def test_sweep_empty_list(tmp_path, capsys, d_list):
    # an explicit empty list is refused, not read as "no list given"; no
    # file is opened for a refused list
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--D-list", d_list, "--output", str(out_path))
    assert code == 2 and out == ""
    assert "cycle lengths must be at least 3" in err
    assert not out_path.exists()


def test_sweep_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    run_cli(capsys, "sweep", "--D-list", "17,40,90", "--output", str(p1))
    run_cli(capsys, "sweep", "--D-list", "17,40,90", "--output", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_and_check_run_one_batch(tmp_path, capsys, monkeypatch):
    import gpdrift.cli as cli
    import gpdrift.experiments as experiments

    calls = {"run_batch": [], "graph_stats": 0}
    real_run_batch, real_graph_stats = experiments.run_batch, experiments.graph_stats

    def run_batch(batch):
        calls["run_batch"].append(batch.steps)
        return real_run_batch(batch)

    def graph_stats(graph):
        calls["graph_stats"] += 1
        return real_graph_stats(graph)

    monkeypatch.setattr(cli, "run_batch", run_batch)
    monkeypatch.setattr(cli, "graph_stats", graph_stats)
    monkeypatch.setattr(experiments, "run_batch", run_batch)
    monkeypatch.setattr(experiments, "graph_stats", graph_stats)
    walk = ["--family", "cycle", "--D", "17", "--n", "8", "--trials", "20"]
    code, _, _ = run_cli(capsys, "simulate", *walk, "--output", str(tmp_path / "t.csv"))
    assert code == 0 and calls == {"run_batch": [8], "graph_stats": 0}
    calls["run_batch"].clear()
    code, _, _ = run_cli(capsys, "check", *walk, "--output", str(tmp_path / "c.csv"))
    # a family's constants come from its closed form
    assert code == 0 and calls == {"run_batch": [9], "graph_stats": 0}

    # a graph file is parsed once, and its constants are computed once
    calls["run_batch"].clear()
    calls["parse_graph"] = 0
    real_parse_graph = cli.parse_graph

    def parse_graph(text):
        calls["parse_graph"] += 1
        return real_parse_graph(text)

    monkeypatch.setattr(cli, "parse_graph", parse_graph)
    path = tmp_path / "c17.txt"
    path.write_text("".join(f"{i} {(i + 1) % 17}\n" for i in range(17)))
    code, _, _ = run_cli(capsys, "check", "--graph", str(path), *walk[4:],
                         "--output", str(tmp_path / "g.csv"))
    assert code == 0 and calls == {"run_batch": [9], "graph_stats": 1, "parse_graph": 1}


@pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
def test_unwritable_output_fails_before_any_walk(command, tmp_path, capsys, monkeypatch):
    import gpdrift.cli as cli

    def refuse(*args):
        raise AssertionError("rows were computed before --output was opened")

    monkeypatch.setattr(cli, "run_batch", refuse)
    monkeypatch.setattr(cli, "sweep_cycles", refuse)
    flags = [] if command == "sweep" else [
        "--family", "cycle", "--D", "50", "--n", "2000", "--trials", "100"]
    code, out, err = run_cli(
        capsys, command, *flags, "--output", str(tmp_path / "missing" / "o.csv"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_failed_batch_leaves_an_empty_output(command, tmp_path, capsys, monkeypatch):
    import gpdrift.cli as cli

    def run_batch(batch):
        raise ValueError("batch failed")

    monkeypatch.setattr(cli, "run_batch", run_batch)
    out_path = tmp_path / "o.csv"
    code, out, err = run_cli(
        capsys, command, "--family", "cycle", "--D", "17", "--n", "5", "--trials", "3",
        "--output", str(out_path),
    )
    assert (code, out, err) == (2, "", "error: batch failed\n")
    assert out_path.read_bytes() == b""


def test_simulate_pareto_draws_past_the_float_range(tmp_path, capsys):
    # seeds 1 to 3 draw magnitudes above 2**1024 at alpha = 0.01
    for seed in ("1", "2", "3"):
        path = tmp_path / f"p{seed}.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--family", "cycle", "--D", "50", "--n", "12",
            "--trials", "70", "--nu", "pareto:0.01", "--seed", seed, "--output", str(path),
        )
        assert code == 0, err
        assert json.loads(out)["trials"] == 70
        assert len(path.read_text().strip().split("\n")) == 71


def test_pareto_alpha_must_be_finite(capsys):
    for alpha in ("nan", "inf", "-inf", "0.001"):
        code, _, err = run_cli(
            capsys, "simulate", "--family", "cycle", "--D", "17", "--nu", f"pareto:{alpha}"
        )
        assert code == 2 and "alpha must be a finite number" in err


# Inputs refused with exit 2 and one error line: (argv, edge-list file
# g.txt, GPDRIFT_WORKERS, the error).
SIM17 = "simulate --family cycle --D 17 --n 3 --trials 2"
REFUSED = {
    "family without D": ("stats --family cycle", "", "1", "--family needs --D"),
    "bad exponent": (f"{SIM17} --nu fixed:v0^x", "", "1", "bad exponent in letter 'v0^x'"),
    "empty word": (f"{SIM17} --nu fixed:,", "", "1", "empty word"),
    "bad pareto": (f"{SIM17} --nu pareto:abc", "", "1", "bad pareto exponent 'abc'"),
    "unknown nu": (
        f"{SIM17} --nu bogus:1", "", "1", "unknown nu spec 'bogus:1' (fixed:/list:/pareto:)"
    ),
    "zero steps": ("simulate --family cycle --D 17 --n 0", "", "1", "--n must be positive"),
    "zero trials": (
        "simulate --family cycle --D 17 --trials 0", "", "1", "--trials must be positive"
    ),
    "edge not an integer": (
        "stats --graph g.txt", "0 x\n", "1", "line 1: expected integers, got '0 x'"
    ),
    "negative edge": (
        "stats --graph g.txt", "-1 2\n", "1", "line 1: vertex indices must be non-negative"
    ),
    "comments only": (
        "stats --graph g.txt", "# none\n\n  # here\n", "1",
        "empty edge list; use the JSON form for edgeless graphs",
    ),
    "workers not an integer": (SIM17, "", "abc", "GPDRIFT_WORKERS must be an integer, got 'abc'"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    argv, edges, workers, message = REFUSED[case]
    (tmp_path / "g.txt").write_text(edges)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GPDRIFT_WORKERS", workers)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_worker_lost_without_a_result_exits_2(command, tmp_path, capsys, monkeypatch):
    # a block that ends with no result (an OOM kill, an exception that does
    # not pickle) is one error line, and the output file stays empty
    from gpdrift import experiments

    parent, record = os.getpid(), experiments.walk_record

    def dies_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return record(*args)

    monkeypatch.setattr(experiments, "walk_record", dies_in_child)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("GPDRIFT_WORKERS", "2")
    output = tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys, command, "--family", "cycle", "--D", "17", "--n", "5", "--trials", "10",
        "--output", str(output),
    )
    assert (code, out) == (2, "")
    assert err == "error: worker for trials [5, 10) ended with exit code 3 and no result\n"
    assert "Traceback" not in err
    assert output.read_bytes() == b""
    with pytest.raises(ChildProcessError):  # the lost worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_duplicate_edge_prints_one_warning_line(tmp_path, capsys):
    (tmp_path / "dup.txt").write_text("0 1\n1 0\n1 2\n")
    code, out, err = run_cli(capsys, "stats", "--graph", str(tmp_path / "dup.txt"))
    assert (code, out) == (0, '{"D": 3, "C": 2, "B": 3, "small_cliques": false}\n')
    assert err == "warning: duplicate edge (0, 1) ignored\n"


def test_bare_label_is_the_first_power(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = []
    for nu in ("fixed:v1", "fixed:v1^1"):
        code, out, _ = run_cli(
            capsys, "simulate", "--family", "cycle", "--D", "17", "--n", "20", "--trials", "30",
            "--nu", nu,
        )
        assert code == 0
        runs.append((out, (tmp_path / "trials.csv").read_bytes()))
    assert runs[0] == runs[1]


def test_graph_duplicate_labels_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"vertices": ["a", "a", "b"], "edges": [[0, 2]]}))
    # before the check, fixed:a^1 silently meant the second "a"
    code, _, err = run_cli(
        capsys, "simulate", "--graph", str(path), "--nu", "fixed:a^1",
        "--n", "3", "--trials", "2", "--output", str(tmp_path / "t.csv"),
    )
    assert code == 2 and "vertex labels must be distinct" in err


def test_graph_json_field_types_exit_2(tmp_path, capsys):
    for i, doc in enumerate([
        {"vertices": ["a", "b"], "edges": 5},
        {"vertices": ["a", "b"], "edges": [[0, 1.5]]},
        {"vertices": ["a", "b"], "edges": [[True, 1]]},
        {"vertices": [1, 2], "edges": []},
    ]):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 2 and err.startswith("error: "), (doc, err)


# Pinned output hashes.  They were taken before the walk kernel replaced the
# piling-anchor stack, so a later change to the walk machinery cannot alter
# a CSV or a summary line unseen.
GOLDEN_GRAPH = {
    "vertices": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "edges": [[0, 4], [1, 5], [4, 5], [2, 6], [6, 7], [3, 7]],
}
GOLDEN_GROUPS = "z,zmod:2,zmod:3,z,zmod:2,zmod:3,z,zmod:2"
# a, b, c, d are pairwise non-adjacent: the first word takes letters off
# and puts them back
GOLDEN_WORDS = "c^-1,b^-1,a^-1,a^1,b^1,c^1,d^1\ne^1,f^2\na^1\ng^-1,h^1,g^1\n"
GOLDEN_EDGELESS_WORDS = "v2^-1,v1^-1,v0^-1,v0^1,v1^1,v2^1,v3^1\nv4^1,v5^2\nv6^1\n"
GOLDEN_CASES = {
    "readme_simulate": ["simulate", "--family", "cycle", "--D", "50", "--n", "60", "--trials", "80"],
    "readme_check": ["check", "--family", "cycle", "--D", "50", "--n", "40", "--trials", "150"],
    "pareto_simulate": [
        "simulate", "--family", "cycle", "--D", "50", "--n", "60", "--trials", "40",
        "--nu", "pareto:1.1",
    ],
    "list_simulate_mixed": [
        "simulate", "--graph", "graph.json", "--groups", GOLDEN_GROUPS,
        "--nu", "list:words.txt", "--n", "40", "--trials", "60",
    ],
    "list_check_mixed": [
        "check", "--family", "edgeless", "--D", "7", "--groups", "z,zmod:2,zmod:3,z,zmod:2,zmod:3,z",
        "--nu", "list:edgeless_words.txt", "--n", "30", "--trials", "100",
    ],
}
GOLDEN_SHA256 = {
    "list_check_mixed": (
        0,
        "845d02c0e26b726d77a03610b69e71817ae0ed72eddeeaf37704ba583bdcd9eb",
        "d1ff696feffbb614c4ef4651e7ebfcd4e03a47b44a96da9ab3e94717698822fd",
    ),
    "list_simulate_mixed": (
        0,
        "7373dd0b9f5422f39e8f0e6157a32944f8178196ccf1d4004620a8edd821411a",
        "6ff577215b207c8c502dcf9513853d7103219a66d41dec79818ee8c6cb687b09",
    ),
    "pareto_simulate": (
        0,
        "34efd6ef57cdf1754051130f7b9c7efcc19536717f796bad60f9fd21799a5e22",
        "23b021e1522d18f9c143ff6950f1c9879e4307ccd4168679916ee886ad86d4a4",
    ),
    "readme_check": (
        0,
        "f6a42e7d357efedb6350e1ffb61afa22e2f3f1b8fe0ce4ab86a8217230deaf7a",
        "9add59516931e547747148e55592b9dcc9be2e4223f09a32991bb24e9e783124",
    ),
    "readme_simulate": (
        0,
        "647e39816150c6eed26f49747107f8e481f30e318aa82e578238967fdaa0f562",
        "baa8265a181692fc9c25d0dc692d423fc1aca0104bf53bb9bc18714f44b06623",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_output_bytes(case, workers, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GPDRIFT_WORKERS", workers)
    (tmp_path / "graph.json").write_text(json.dumps(GOLDEN_GRAPH))
    (tmp_path / "words.txt").write_text(GOLDEN_WORDS)
    (tmp_path / "edgeless_words.txt").write_text(GOLDEN_EDGELESS_WORDS)
    code = main(GOLDEN_CASES[case] + ["--output", "out.csv"])
    stdout = capsys.readouterr().out.encode()
    digests = (
        code,
        hashlib.sha256(stdout).hexdigest(),
        hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
    )
    assert digests == GOLDEN_SHA256[case]


@pytest.mark.parametrize("nu", ["fixed:v0^1,v1^-1", "pareto:1.1"])
def test_simulate_never_builds_the_nonneighbour_table(nu, tmp_path, capsys, monkeypatch):
    # the table is quadratic in D; parsing words and folding walks use
    # neighbour counts instead
    from gpdrift.graphs import Graph

    def refuse(graph):
        raise AssertionError("Graph.nonneighbors was built")

    monkeypatch.setattr(Graph, "nonneighbors", property(refuse))
    code, out, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--D", "3000", "--n", "5", "--trials", "2",
        "--nu", nu, "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0, err
    assert json.loads(out)["trials"] == 2


# Pinned bytes of the bound commands, taken before the clique statistics
# moved to one edge pass, so a later change to them cannot alter an output
# unseen.  The graph is a 30-cycle with chords that close four triangles,
# two of them sharing the edge (6, 7).  ``sweep_widest`` (the widest search
# windows) and ``kappa_edgeless6`` (b = 0, no pole) were pinned before
# ``drift_lower_bound`` searched through ``law.mgf_function()``.
GOLDEN_TRIANGLES_GRAPH = {
    "vertices": [f"t{i}" for i in range(30)],
    "edges": [[i, (i + 1) % 30] for i in range(30)] + [[0, 2], [5, 7], [6, 8], [10, 12], [20, 22]],
}
GOLDEN_BOUND_CASES = {
    "sweep_default": ["sweep", "--output", "out.csv"],
    "stats_cycle17": ["stats", "--family", "cycle", "--D", "17"],
    "kappa_cycle17": ["kappa", "--family", "cycle", "--D", "17"],
    "stats_cycle12000": ["stats", "--family", "cycle", "--D", "12000"],
    "kappa_cycle12000": ["kappa", "--family", "cycle", "--D", "12000"],
    "stats_complete6": ["stats", "--family", "complete", "--D", "6"],
    "kappa_complete6": ["kappa", "--family", "complete", "--D", "6"],
    "stats_triangles": ["stats", "--graph", "triangles.json"],
    "kappa_triangles": ["kappa", "--graph", "triangles.json"],
    "sweep_widest": [
        "sweep", "--from", "17", "--to", "10000000", "--points", "2000", "--output", "out.csv",
    ],
    "kappa_edgeless6": ["kappa", "--family", "edgeless", "--D", "6"],
}
GOLDEN_BOUND_SHA256 = {
    "kappa_complete6": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "kappa_cycle12000": (0, "c5bfe24159d64e5b6f7c6b1258893167f3b15cad69a0c971ded8ec71e8856802", None),
    "kappa_cycle17": (0, "625a01a7d77b6205547b62d671243f0834526e2c71999bc468c0189bdd28affe", None),
    "kappa_edgeless6": (0, "9d52b1ff1a4db069ff95acd70884f3bd21e0e43cbac28b5a959004c7df616b5a", None),
    "kappa_triangles": (0, "ec4cf6c60b25615fa36e30e654fbd2eb891bb8f1092b21cb5a6a687f97cb0842", None),
    "stats_complete6": (0, "27db9630ad4e644cf26d2007781834686885d2946ab836ac2f71b61971cb154b", None),
    "stats_cycle12000": (0, "72caf23c16d3fd4da301d0d1477ec889566a18164ab8a718e1cde2d476184017", None),
    "stats_cycle17": (0, "8501eced013d2d81d726d17e5c34226ab09f7abe220e1b957abff09e94b944c8", None),
    "stats_triangles": (0, "b6a4a8681831157910a590c439e5a0703a434dc71a6fcc9273acfb2fd0e8f72d", None),
    "sweep_default": (
        0,
        "fbaff0c4bc838f01c7fbae0d9871652d0faa24e8abfcb787f4e8f5a3e9bda24b",
        "17d65fdc768f7dc68a595f002aef5a6a39cd093b596f2ef2b06e5d66bd20cb9f",
    ),
    "sweep_widest": (
        0,
        "a9501eead27aeb9dc6a24995c47cd917ee1cb77d7c5037ff62a7e1471ea9eecb",
        "0f98667664ec9c9637bca2153f539ecf9c965daefaae5500cc5180de5d7df4bb",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BOUND_CASES))
def test_golden_bound_bytes(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triangles.json").write_text(json.dumps(GOLDEN_TRIANGLES_GRAPH))
    code = main(GOLDEN_BOUND_CASES[case])
    stdout = capsys.readouterr().out.encode()
    csv = tmp_path / "out.csv"
    digests = (
        code,
        hashlib.sha256(stdout).hexdigest(),
        hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None,
    )
    assert digests == GOLDEN_BOUND_SHA256[case]


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "stats", "--family", "cycle", "--D", "17")[0] == 0
    built.clear()
    assert run_cli(capsys, "kappa", "--family", "cycle", "--D", "17")[0] == 0
    assert built == []


SRC_DIR = str(Path(gpdrift.__file__).resolve().parents[1])


def _cli_env() -> dict[str, str]:
    # a fixed help width and one worker, in this process and in children
    return {**os.environ, "PYTHONPATH": SRC_DIR, "GPDRIFT_WORKERS": "1", "COLUMNS": "80"}


def _cap_address_space(limit: int) -> None:
    # a build that ignores the vertex limit fails fast instead of filling
    # the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_alone(cwd: Path, argv: list[str], address_space: int = 1 << 30) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gpdrift.cli", *argv],
        cwd=cwd, env=_cli_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=functools.partial(_cap_address_space, address_space),
    )


def _files(cwd: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


# Every subcommand, the default --nu and --groups after explicit ones, a
# bad flag and --help; the last simulate sets neither --nu nor --groups.
SMALL_WALK = ["--family", "cycle", "--D", "30", "--n", "20"]
REUSE_SEQUENCE = [
    ["kappa", "--family", "cycle", "--D", "17"],
    ["simulate", *SMALL_WALK, "--trials", "10", "--nu", "pareto:1.1", "--groups", "zmod:2"],
    ["simulate", *SMALL_WALK, "--trials", "10", "--nu", "fixed:v1^2"],
    ["check", *SMALL_WALK, "--trials", "60", "--groups", "zmod:3"],
    ["check", *SMALL_WALK, "--trials", "60", "--groups", "z"],
    ["sweep", "--D-list", "17,40"],
    ["sweep"],
    ["stats", "--family", "cycle", "--D", "17"],
    ["simulate", "--no-such-flag"],
    ["--help"],
    ["sweep", "--help"],
    ["simulate", *SMALL_WALK, "--trials", "10"],
]


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    expected = []
    for argv in REUSE_SEQUENCE:
        done = _run_alone(alone, argv)
        expected.append((done.returncode, done.stdout, done.stderr, _files(alone)))

    monkeypatch.chdir(together)
    for key, value in _cli_env().items():
        monkeypatch.setenv(key, value)
    seen = []
    for argv in REUSE_SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        seen.append((code, out, err, _files(together)))

    codes = [c for c, *_ in expected]
    assert codes == [0] * 8 + [2, 0, 0, 0], expected
    for argv, want, got in zip(REUSE_SEQUENCE, expected, seen):
        assert got == want, argv


OVERSIZED = [
    ["sweep", "--D-list", "3,99999999999"],
    ["stats", "--family", "cycle", "--D", "3000000000"],
    ["stats", "--family", "edgeless", "--D", "300000000"],
    ["stats", "--graph", "big.txt"],
    ["sweep", "--to", str(10**309)],  # past the float range of the log spacing
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=lambda argv: " ".join(argv))
def test_graph_past_the_vertex_limit_exits_2(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "big.txt").write_text("0 99999999999\n")
    done = _run_alone(tmp_path, argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "too large" in done.stderr
    assert "Traceback" not in done.stderr
    # the limit is checked before anything is built
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, err) == (2, done.stderr)
    assert not (tmp_path / "sweep.csv").exists()  # refused before --output opens


def test_deeply_nested_graph_json_exits_2(tmp_path, capsys, monkeypatch):
    depth = 100_000
    (tmp_path / "deep.json").write_text('{"vertices": ' + "[" * depth + "]" * depth + ', "edges": []}')
    argv = ["stats", "--graph", "deep.json"]
    done = _run_alone(tmp_path, argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: invalid graph JSON")
    assert "Traceback" not in done.stderr
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (2, done.stderr)


def _simulate_once(family: str, d: int) -> list[str]:
    """A one-walk, one-step simulate.  It builds the graph, where stats and
    kappa read a family's closed form."""
    return ["simulate", "--family", family, "--D", str(d), "--n", "1", "--trials", "1"]


def test_graph_too_large_for_memory_exits_2(tmp_path):
    # under the vertex limit, but K_20000's neighbour sets need about 10 GB
    done = _run_alone(tmp_path, _simulate_once("complete", 20000), 700 << 20)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: out of memory")
    assert "Traceback" not in done.stderr


def test_check_refuses_a_family_too_large_to_build(tmp_path):
    # K_20000 fails the small-cliques condition, and check says so from the
    # closed form without building the graph that would not fit
    argv = ["check", "--family", "complete", "--D", "20000", "--n", "5", "--trials", "5"]
    done = _run_alone(tmp_path, argv, 700 << 20)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "small-cliques condition fails: D=20000 is not greater than 3B+2C=100000\n"
    assert done.stdout == ""
    assert _files(tmp_path) == {}


def test_complete_3000_fits_in_700_mb(tmp_path):
    # K_3000 holds its neighbour sets and no edge tuple beside them
    done = _run_alone(tmp_path, _simulate_once("complete", 3000), 700 << 20)
    assert done.returncode == 0, done.stderr
    done = _run_alone(tmp_path, ["stats", "--family", "complete", "--D", "3000"], 700 << 20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == '{"D": 3000, "C": 3000, "B": 3000, "small_cliques": false}\n'
