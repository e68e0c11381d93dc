"""End-to-end CLI behavior: JSON shapes, exit codes, file output,
and thread-count independence."""

import json

import pytest

from hopflow.cli import main

PATH_GRAPH = "3 2\n0 1 1\n1 2 2\n"
PROVENANCE_KEYS = {"seed", "k", "epsilon", "version"}


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(PATH_GRAPH)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_emulator_build_summary(graph_file, capsys):
    code, doc = run_json(capsys, ["emulator", "build", "--graph", graph_file,
                                  "--seed", "7"])
    assert code == 0
    assert doc["n"] == 3 and doc["m"] == 2
    assert doc["t"] >= 0 and doc["emulator_edges"] >= 1
    assert doc["hop_bound"] >= 1 and doc["stretch_bound"] >= 1
    assert set(doc["provenance"]) == PROVENANCE_KEYS
    assert doc["provenance"]["seed"] == 7
    assert doc["provenance"]["version"]


def test_emulator_build_saves_artifact(graph_file, tmp_path, capsys):
    art = tmp_path / "em.json"
    code, doc = run_json(capsys, ["emulator", "build", "--graph", graph_file,
                                  "--seed", "7", "--out", str(art)])
    assert code == 0  # summary still goes to stdout; --out gets the emulator
    from hopflow.emulator import load_emulator

    em = load_emulator(str(art))
    assert em.graph.n == 3
    assert em.hop_bound == doc["hop_bound"]
    assert em.t == doc["t"]


def test_oracle_query_exact_at_desk_scale(graph_file, capsys):
    # tiny n forces a zero-level tower, where the oracle is exact
    code, doc = run_json(capsys, ["oracle", "query", "0", "2",
                                  "--graph", graph_file, "--seed", "1"])
    assert code == 0
    assert doc["u"] == 0 and doc["v"] == 2
    assert doc["distance"] == 3
    assert doc["visits"] >= 1


def test_sssp_distances(graph_file, capsys):
    code, doc = run_json(capsys, ["sssp", "0", "--graph", graph_file,
                                  "--seed", "1"])
    assert code == 0
    assert doc["source"] == 0
    assert doc["distances"] == [0, 1, 3]


def test_embed_document(graph_file, capsys):
    code, doc = run_json(capsys, ["embed", "--graph", graph_file, "--seed", "2"])
    assert code == 0
    assert doc["n"] == 3
    assert len(doc["rows"]) == 3 and len(doc["rows"][0]) == doc["d"]
    assert doc["Delta"] >= 1
    assert set(doc["provenance"]) == PROVENANCE_KEYS


def test_ldd_document(graph_file, capsys):
    code, doc = run_json(capsys, ["ldd", "--graph", graph_file,
                                  "--seed", "2", "--beta", "0.5"])
    assert code == 0
    assert doc["beta"] == 0.5
    assert len(doc["clusters"]) == 3
    assert len(doc["shifts"]) == 3


def test_flow_subcommand(graph_file, tmp_path, capsys):
    dem = tmp_path / "b.json"
    dem.write_text("[1, 0, -1]")
    code, doc = run_json(capsys, ["flow", "--graph", graph_file,
                                  "--demand", str(dem), "--seed", "3"])
    assert code == 0
    assert doc["residual"] <= 1e-8
    assert 3.0 - 1e-9 <= doc["cost"] <= 3.3
    assert len(doc["edges"]) == 2 and doc["edges"][0][:2] == [0, 1]


def test_stpath_subcommand(graph_file, capsys):
    code, doc = run_json(capsys, ["stpath", "0", "2", "--graph", graph_file,
                                  "--seed", "3", "--eps", "0.2"])
    assert code == 0
    assert doc["vertices"][0] == 0 and doc["vertices"][-1] == 2
    assert doc["length"] == 3


def test_bench_csv(graph_file, capsys):
    code = main(["bench", "--graph", graph_file, "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "stage,seconds"
    stages = [ln.split(",")[0] for ln in lines[1:]]
    assert "dijkstra_baseline" in stages and "emulator_build" in stages
    assert stages.index("embed") == stages.index("approx_sssp") + 1
    for ln in lines[1:]:
        float(ln.split(",")[1])  # parsable timings


def test_out_flag_writes_file_and_keeps_stdout_clean(graph_file, tmp_path, capsys):
    out = tmp_path / "sssp.json"
    code = main(["sssp", "0", "--graph", graph_file, "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["distances"] == [0, 1, 3]


def test_seed_autogenerated_when_omitted(graph_file, capsys):
    code, doc = run_json(capsys, ["sssp", "0", "--graph", graph_file])
    assert code == 0
    assert isinstance(doc["provenance"]["seed"], int)


def test_malformed_graph_reports_error_json(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0 5\n")  # self loop
    code, doc = run_json(capsys, ["sssp", "0", "--graph", str(bad)])
    assert code == 1
    assert doc["error"]["type"] == "SelfLoop"
    assert "version" in doc["provenance"]


def test_sssp_rejects_bad_source(graph_file, capsys):
    # numpy indexing would wrap -1 to the last vertex
    for source in ("-1", "3"):
        code, doc = run_json(capsys, ["sssp", "--graph", graph_file, "--seed", "1",
                                      "--", source])
        assert code == 1
        assert doc["error"]["type"] == "ValueError"
        assert "out of range" in doc["error"]["message"]


def test_missing_graph_file_exit_one(capsys):
    code, doc = run_json(capsys, ["sssp", "0", "--graph", "/nonexistent/g.txt"])
    assert code == 1
    assert doc["error"]["type"] in ("FileNotFoundError", "OSError")


def test_internal_assertion_reports_error_json(graph_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("tower depth check failed")

    monkeypatch.setattr("hopflow.cli.preprocess", broken)
    code, doc = run_json(capsys, ["sssp", "0", "--graph", graph_file, "--seed", "1"])
    assert code == 1
    assert doc["error"] == {"type": "AssertionError",
                            "message": "tower depth check failed"}


def test_usage_error_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["sssp", "0", "--graph", "g.txt", "--no-such-flag"]) == 2


def test_thread_count_does_not_change_output(graph_file, tmp_path, capsys, monkeypatch):
    dem = tmp_path / "b.json"
    dem.write_text("[1, 0, -1]")
    outs = []
    for threads in ("1", "4"):
        monkeypatch.delenv("HOPFLOW_THREADS", raising=False)
        code = main(["flow", "--graph", graph_file, "--demand", str(dem),
                     "--seed", "9", "--threads", threads])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    for threads in ("1", "4"):
        monkeypatch.delenv("HOPFLOW_THREADS", raising=False)
        code = main(["stpath", "0", "2", "--graph", graph_file,
                     "--seed", "9", "--eps", "0.3", "--threads", threads])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[3]
