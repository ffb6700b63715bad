import json
import os
import subprocess
import sys

import pytest

from expanderseq import analysis, cli, lifts
from expanderseq.grower import graph_at
from expanderseq.multigraph import graph_to_text

CLI = [sys.executable, "-m", "expanderseq.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, env=env
    )


def test_grow_writes_expected_file(tmp_path):
    out = tmp_path / "g8.graph"
    res = run_cli("grow", "--d", "6", "--n", "8", "--lift-seed", "1",
                  "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert text.splitlines()[0] == "6 8"
    assert all(line.endswith(" 2") for line in text.splitlines()[1:])


def test_grow_base_case_stdout():
    res = run_cli("grow", "--d", "6", "--n", "4", "--lift-seed", "1")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "6 4"
    assert len(lines) == 7  # K_4 has 6 edges


def test_grow_parity_error_exit_2():
    res = run_cli("grow", "--d", "5", "--n", "8")
    assert res.returncode == 2


def test_grow_byte_identical_across_invocations():
    a = run_cli("grow", "--d", "6", "--n", "16", "--lift-seed", "1")
    b = run_cli("grow", "--d", "6", "--n", "16", "--lift-seed", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_grow_env_seed_fallback():
    flagged = run_cli("grow", "--d", "6", "--n", "8", "--lift-seed", "3")
    env = run_cli("grow", "--d", "6", "--n", "8",
                  env_extra={"GROW_LIFT_SEED": "3"})
    assert flagged.stdout == env.stdout


def test_grow_trace_json():
    res = run_cli("grow", "--d", "6", "--n", "5", "--lift-seed", "1",
                  "--trace", "-", "--out", os.devnull)
    assert res.returncode == 0
    trace = json.loads(res.stdout)
    assert trace[0]["cost"] == 9
    assert trace[0]["u"] == "0:"
    assert trace[0]["u_prime"] == "0:1"


def test_bench_csv_one_cycle():
    res = run_cli("bench", "--d", "6", "--cycles", "1", "--lift-seed", "1")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n,cost,U_u,S_u"
    rows = [line.split(",") for line in lines[1:-1]]
    assert rows[0][1] == "9"
    assert lines[-1] == "max,15,,"
    for n, cost, u_u, s_u in rows:
        assert int(cost) == 3 * int(u_u) + 5 * int(s_u) // 2


def test_analyze_json_schema(tmp_path):
    graph = tmp_path / "g.graph"
    run_cli("grow", "--d", "6", "--n", "8", "--lift-seed", "1",
            "--out", str(graph))
    res = run_cli("analyze", "--input", str(graph), "--exact", "--spectral",
                  "--suite", "cheeger", "--suite", "mixing")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["n"] == 8 and payload["d"] == 6
    assert payload["h"]["den"] >= 1
    assert "lambda2" in payload and "lambda" in payload
    assert all(s["result"]["ok"] for s in payload["suite_results"])


def test_verify_default_suite_passes():
    res = run_cli("verify", "--d", "6", "--max-n", "12")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "OK" in res.stdout


def test_verify_catches_corrupted_weight(tmp_path):
    graph = tmp_path / "g.graph"
    run_cli("grow", "--d", "6", "--n", "8", "--lift-seed", "1",
            "--out", str(graph))
    lines = graph.read_text().splitlines()
    parts = lines[1].split()
    parts[2] = "3"
    lines[1] = " ".join(parts)
    graph.write_text("\n".join(lines) + "\n")
    res = run_cli("verify", "--input", str(graph), "--lift-seed", "1")
    assert res.returncode == 1
    assert "degree invariant" in res.stdout or "weight classes" in res.stdout


def test_verify_accepts_genuine_file(tmp_path):
    graph = tmp_path / "g.graph"
    run_cli("grow", "--d", "6", "--n", "9", "--lift-seed", "1",
            "--out", str(graph))
    res = run_cli("verify", "--input", str(graph), "--lift-seed", "1")
    assert res.returncode == 0


def test_simulate_empty_script(tmp_path):
    script = tmp_path / "s.json"
    script.write_text("[]")
    res = run_cli("simulate", "--d", "6", "--seed", "1",
                  "--script", str(script))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["events"] == []


def test_simulate_snapshots_and_report(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(json.dumps([
        {"op": "insert", "id": "a", "attach": ["g0"]},
        {"op": "insert", "id": "b", "attach": ["a", "g2"]},
        {"op": "delete", "id": "a"},
    ]))
    snapdir = tmp_path / "snaps"
    report = tmp_path / "rep.json"
    res = run_cli("simulate", "--d", "6", "--seed", "1",
                  "--script", str(script), "--report", str(report),
                  "--snapshot-dir", str(snapdir))
    assert res.returncode == 0
    payload = json.loads(report.read_text())
    assert [e["op"] for e in payload["events"]] == ["insert", "insert", "delete"]
    assert sorted(os.listdir(snapdir)) == [
        "event0000.graph", "event0001.graph", "event0002.graph"
    ]
    first = (snapdir / "event0000.graph").read_text()
    assert first.splitlines()[0] == "6 5"


def test_simulate_determinism(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(json.dumps(
        [{"op": "insert", "id": f"a{k}", "attach": ["g0"]} for k in range(6)]
    ))
    a = run_cli("simulate", "--d", "6", "--seed", "1", "--script", str(script))
    b = run_cli("simulate", "--d", "6", "--seed", "1", "--script", str(script))
    assert a.stdout == b.stdout


def test_simulate_bad_script_exit_2(tmp_path):
    script = tmp_path / "s.json"
    script.write_text('[{"op":"delete","id":"missing"}]')
    res = run_cli("simulate", "--d", "6", "--seed", "1",
                  "--script", str(script))
    assert res.returncode == 2


INPUT_ERRORS = {
    "analyze-missing-input": lambda tmp: [
        "analyze", "--input", str(tmp / "none.graph")],
    "analyze-bad-header": lambda tmp: ["analyze", "--input", os.devnull],
    "bench-negative-cycles": lambda tmp: [
        "bench", "--d", "6", "--cycles", "-1"],
    "grow-odd-degree": lambda tmp: ["grow", "--d", "7", "--n", "5"],
    "grow-out-below-missing-dir": lambda tmp: [
        "grow", "--d", "6", "--n", "5", "--out", str(tmp / "none" / "g")],
    "grow-seed-env-not-integer": lambda tmp: ["grow", "--d", "6", "--n", "5"],
    "simulate-missing-script": lambda tmp: [
        "simulate", "--d", "6", "--script", str(tmp / "none.json")],
    "simulate-odd-degree": lambda tmp: [
        "simulate", "--d", "7", "--script", str(tmp / "s.json")],
    "simulate-snapshot-below-file": lambda tmp: [
        "simulate", "--d", "6", "--script", str(tmp / "s.json"),
        "--snapshot-dir", str(tmp / "s.json" / "snaps")],
    "verify-bad-header": lambda tmp: ["verify", "--input", os.devnull],
    "verify-max-n-below-base": lambda tmp: ["verify", "--d", "6", "--max-n", "2"],
    "verify-max-n-below-larger-base": lambda tmp: [
        "verify", "--d", "6", "--d", "12", "--max-n", "5"],
    "verify-odd-degree": lambda tmp: ["verify", "--d", "6", "--d", "7"],
}
INPUT_ERROR_ENV = {"grow-seed-env-not-integer": {"GROW_LIFT_SEED": "x"}}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2(tmp_path, case):
    (tmp_path / "s.json").write_text("[]")
    res = run_cli(*INPUT_ERRORS[case](tmp_path),
                  env_extra=INPUT_ERROR_ENV.get(case))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1, res.stderr


def test_analyze_cheeger_computes_h_once(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text(graph_to_text(graph_at(6, 10, 1)))
    calls = []
    exact = analysis.edge_expansion_exact

    def counted(g):
        calls.append(g.n)
        return exact(g)

    monkeypatch.setattr(analysis, "edge_expansion_exact", counted)
    rc = cli.main(["analyze", "--input", str(graph), "--exact",
                   "--suite", "cheeger", "--lift-seed", "1"])
    assert rc == 0
    assert calls == [10]
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite_results"][0]["result"]["h"] == (
        payload["h"]["num"] / payload["h"]["den"]
    )


@pytest.mark.parametrize("mode", ["--exact", "--spectral"])
def test_analyze_solves_the_spectrum_once(tmp_path, monkeypatch, capsys, mode):
    graph = tmp_path / "g.graph"
    graph.write_text(graph_to_text(graph_at(6, 10, 1)))
    calls = []

    def counted(g):
        calls.append(g.n)
        return lifts.spectral_report(g)

    monkeypatch.setattr(cli, "spectral_report", counted)
    monkeypatch.setattr(analysis, "spectral_report", counted)
    rc = cli.main(["analyze", "--input", str(graph), mode, "--suite", "cheeger",
                   "--suite", "mixing", "--lift-seed", "1"])
    assert rc == 0
    assert calls == [10]
    payload = json.loads(capsys.readouterr().out)
    cheeger, mixing = (s["result"] for s in payload["suite_results"])
    assert cheeger["ok"] and mixing["ok"]
    if mode == "--spectral":
        assert cheeger["lower"] == payload["bounds"]["cheeger_lower"]
        assert cheeger["upper"] == payload["bounds"]["cheeger_upper"]
