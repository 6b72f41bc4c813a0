import json

from gpdrift.cli import DEFAULT_SEED, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_seventeen_cycle(capsys):
    code, out, _ = run_cli(capsys, "stats", "--family", "cycle", "--D", "17")
    assert code == 0
    assert json.loads(out) == {"D": 17, "C": 2, "B": 4, "small_cliques": True}


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


def test_kappa_small_cliques_violation(capsys):
    code, _, err = run_cli(capsys, "kappa", "--family", "cycle", "--D", "16")
    assert code == 3
    assert "small-cliques" in err


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


def test_simulate_zero_trials_rejected(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--D", "17", "--trials", "0"
    )
    assert code == 2 and "--trials" in err


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


def test_check_requires_small_cliques(capsys):
    code, _, err = run_cli(
        capsys, "check", "--family", "cycle", "--D", "10", "--trials", "5"
    )
    assert code == 3


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
    assert code == 0 and calls == {"run_batch": [9], "graph_stats": 1}


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
