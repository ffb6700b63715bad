import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from expanderseq import analysis, cli, grower, lifts, selfheal
from expanderseq.grower import graph_at
from expanderseq.multigraph import edge_key, graph_to_text

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


def test_grow_trace_walks_the_sequence_once(monkeypatch):
    """A cold traced sweep splits as often as an untraced one: each log is
    read in the loop that writes its graph, while its state is held."""
    real, calls = grower.split_next, []

    def counted(state):
        calls.append(state.current.n)
        return real(state)

    monkeypatch.setattr(grower, "split_next", counted)
    monkeypatch.setattr(cli, "_emit", lambda path, text: None)
    splits = []
    for trace in ([], ["--trace", "-"]):
        grower.clear_caches()
        calls.clear()
        argv = ["grow", "--d", "6", "--n", "5", "--n-to", "300", "--lift-seed", "1"]
        assert cli.main(argv + trace) == 0
        splits.append(len(calls))
    grower.clear_caches()
    assert splits[0] == splits[1] > 0


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


def test_verify_checks_the_identities_at_every_n(monkeypatch, capsys):
    """The future-cut identities run at every n up to --max-n, past the
    Cheeger loop's bound of 16, and a failure at n = 33 is reported."""
    argv = ["verify", "--d", "6", "--max-n", "40", "--lift-seed", "1"]
    suite, terms = analysis.future_cut_suite, analysis._future_terms
    calls = []

    def counted(state):
        calls.append(state.current.n)
        return suite(state)

    monkeypatch.setattr(analysis, "future_cut_suite", counted)
    assert cli.main(argv) == 0
    assert calls == list(range(4, 41))
    assert capsys.readouterr().out == "OK all checks passed\n"

    def corrupted(state):
        out = terms(state)
        if state.current.n == 33:
            i, j, w, col = out[0]
            out[0] = (i, j, w + 1, col)
        return out

    monkeypatch.setattr(analysis, "_future_terms", corrupted)
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL future-cut d=6 n=33: ")


def test_verify_defaults_to_degree_6(monkeypatch, capsys):
    real, degrees = grower.state_at, set()

    def recorded(d, n, seed):
        degrees.add(d)
        return real(d, n, seed)

    monkeypatch.setattr(grower, "state_at", recorded)
    assert cli.main(["verify", "--max-n", "8", "--lift-seed", "1"]) == 0
    assert degrees == {6}
    assert capsys.readouterr().out == "OK all checks passed\n"


def test_verify_reports_failed_split_and_cheeger_checks(monkeypatch, capsys):
    real_cheeger = analysis.cheeger_check

    def split_fails_at_7(prev, current, log):
        if current.n == 7:
            raise grower.ConstructionError("cost 99 exceeds 15")

    def cheeger_fails_at_5(g):
        res = real_cheeger(g)
        return replace(res, ok=res.ok and g.n != 5)

    monkeypatch.setattr(grower, "check_split_cost", split_fails_at_7)
    monkeypatch.setattr(analysis, "cheeger_check", cheeger_fails_at_5)
    assert cli.main(["verify", "--d", "6", "--max-n", "8", "--lift-seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    res = real_cheeger(graph_at(6, 5, 1))
    assert lines == [
        "FAIL d=6 n=7: cost 99 exceeds 15",
        f"FAIL cheeger d=6 n=5: h={float(res.h):.6f} outside "
        f"[{res.lower:.6f}, {res.upper:.6f}]",
    ]


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


def test_verify_lists_violations_in_canonical_order(tmp_path, capsys):
    lines = graph_to_text(graph_at(6, 9, 1)).splitlines()
    for i in (2, 7, 12):
        a, b, w = lines[i].split()
        lines[i] = f"{a} {b} {int(w) + 1}"
    graph = tmp_path / "g.graph"
    graph.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", "--input", str(graph), "--lift-seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL weight classes: edge 0:1-2:1 has weight 3, expected 2",
        "FAIL weight classes: edge 1:0-0:01 has weight 2, expected 1",
        "FAIL weight classes: edge 2:0-0:01 has weight 2, expected 1",
        "FAIL degree invariant: vertex 0:1 has weighted degree 7, expected 6",
        "FAIL degree invariant: vertex 1:0 has weighted degree 7, expected 6",
        "FAIL degree invariant: vertex 2:0 has weighted degree 7, expected 6",
        "FAIL degree invariant: vertex 2:1 has weighted degree 7, expected 6",
        "FAIL degree invariant: vertex 0:01 has weighted degree 8, expected 6",
        "FAIL sequence equality: graph differs from the deterministic "
        "reference at n = 9",
    ]


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


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Edges and vertex sets iterate in hash order; no output may show it."""
    graph = tmp_path / "g13.graph"
    graph.write_text(graph_to_text(graph_at(6, 13, 1)))
    rng = random.Random(80)
    live, events = [f"g{i}" for i in range(4)], []
    for k in range(80):
        if len(live) > 4 and rng.random() < 0.3:
            victim = rng.choice(live)
            live.remove(victim)
            events.append({"op": "delete", "id": victim})
        else:
            events.append({"op": "insert", "id": f"n{k}",
                           "attach": rng.sample(live, 2)})
            live.append(f"n{k}")
    script = tmp_path / "s.json"
    script.write_text(json.dumps(events))
    commands = [
        ["grow", "--d", "8", "--n", "5", "--n-to", "60", "--trace", "-",
         "--lift-seed", "1"],
        ["bench", "--d", "6", "--cycles", "3", "--lift-seed", "1"],
        ["analyze", "--input", str(graph), "--exact", "--suite", "lemma43",
         "--suite", "cheeger", "--lift-seed", "1"],
        ["simulate", "--d", "6", "--seed", "1", "--script", str(script)],
    ]
    for cmd in commands:
        a, b = (
            subprocess.run([*CLI, *cmd], capture_output=True,
                           env={**os.environ, "PYTHONHASHSEED": h})
            for h in ("0", "1")
        )
        assert a.returncode == b.returncode == 0, cmd
        assert a.stdout == b.stdout, cmd


def test_simulate_bad_script_exit_2(tmp_path):
    script = tmp_path / "s.json"
    script.write_text('[{"op":"delete","id":"missing"}]')
    res = run_cli("simulate", "--d", "6", "--seed", "1",
                  "--script", str(script))
    assert res.returncode == 2


def irregular_graph(tmp):
    """G_9 (d = 6) with one edge weight raised by one, so it is not regular."""
    path = tmp / "irregular.graph"
    path.write_text(graph_to_text(graph_at(6, 9, 1)).replace(" 2\n", " 3\n", 1))
    return str(path)


def g9_graph(tmp):
    path = tmp / "g9.graph"
    path.write_text(graph_to_text(graph_at(6, 9, 1)))
    return str(path)


def g40_graph(tmp):
    path = tmp / "g40.graph"
    path.write_text(graph_to_text(graph_at(6, 40, 1)))
    return str(path)


def rewired_g40(tmp):
    """G_40 (d = 6) with its first edge (a, b) and the first later edge
    (c, e) of the same weight rewired to (a, e) and (c, b): still 6-regular,
    so its spectral report runs, but not the reference graph."""
    g = graph_at(6, 40, 1)
    weights = dict(g.weights)
    (a, b, w), *rest = g.sorted_edges()
    c, e = next(
        (c, e) for c, e, x in rest
        if x == w and not {a, b} & {c, e}
        and edge_key(a, e) not in weights and edge_key(c, b) not in weights
    )
    del weights[edge_key(a, b)], weights[edge_key(c, e)]
    weights[edge_key(a, e)] = weights[edge_key(c, b)] = w
    path = tmp / "g40-rewired.graph"
    path.write_text(graph_to_text(g.replace(weights=weights)))
    return str(path)


def edge_file(tmp, line, name="edge.graph"):
    """A two-vertex d = 6 graph file whose one edge line is ``line``."""
    path = tmp / name
    path.write_text(f"6 2\n{line}\n", encoding="utf-8")
    return str(path)


def null_id_script(tmp):
    path = tmp / "null-id.json"
    path.write_text('[{"op": "insert", "id": null, "attach": ["g0"]}]')
    return str(path)


def attach_string_script(tmp):
    path = tmp / "attach-string.json"
    path.write_text('[{"op": "insert", "id": "x", "attach": "g0"}]')
    return str(path)


def nested_script(tmp):
    path = tmp / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def heavy_triangle(tmp, weight):
    """K3 with every weight ``weight``, beyond what int64 cut sums can hold."""
    path = tmp / f"k3-{weight}.graph"
    path.write_text(f"6 3\n0: 1: {weight}\n0: 2: {weight}\n1: 2: {weight}\n")
    return str(path)


def fifo(tmp):
    path = tmp / "fifo"
    os.mkfifo(path)
    return str(path)


def not_utf8(tmp):
    path = tmp / "not-utf8"
    path.write_bytes(b"\xff\xfe")
    return str(path)


INPUT_ERRORS = {
    "analyze-exact-weight-2-62": lambda tmp: [
        "analyze", "--input", heavy_triangle(tmp, 2**62), "--exact"],
    "analyze-weight-10-20": lambda tmp: [
        "analyze", "--input", heavy_triangle(tmp, 10**20)],
    "verify-weight-10-20": lambda tmp: [
        "verify", "--input", heavy_triangle(tmp, 10**20)],
    "analyze-missing-input": lambda tmp: [
        "analyze", "--input", str(tmp / "none.graph")],
    "analyze-bad-header": lambda tmp: ["analyze", "--input", os.devnull],
    "analyze-input-not-utf8": lambda tmp: ["analyze", "--input", not_utf8(tmp)],
    "analyze-name-plus-sign": lambda tmp: [
        "analyze", "--input", edge_file(tmp, "0: +1: 6")],
    "analyze-name-arabic-digit": lambda tmp: [
        "analyze", "--input", edge_file(tmp, "0: \u0661: 6")],
    "analyze-weight-underscore": lambda tmp: [
        "analyze", "--input", edge_file(tmp, "0: 1: 0_6")],
    "analyze-rayleigh-negative-index": lambda tmp: [
        "analyze", "--input", g9_graph(tmp), "--spectral", "--suite", "rayleigh",
        "--rayleigh-index", "-1"],
    "analyze-rayleigh-index-10-19": lambda tmp: [
        "analyze", "--input", g9_graph(tmp), "--spectral", "--suite", "rayleigh",
        "--rayleigh-index", str(10**19)],
    "analyze-spectral-irregular": lambda tmp: [
        "analyze", "--input", irregular_graph(tmp), "--spectral"],
    "bench-negative-cycles": lambda tmp: [
        "bench", "--d", "6", "--cycles", "-1"],
    "bench-cycles-10-19": lambda tmp: [
        "bench", "--d", "6", "--cycles", str(10**19)],
    "grow-odd-degree": lambda tmp: ["grow", "--d", "7", "--n", "5"],
    "grow-n-below-base": lambda tmp: ["grow", "--d", "6", "--n", "3"],
    "grow-out-below-missing-dir": lambda tmp: [
        "grow", "--d", "6", "--n", "5", "--out", str(tmp / "none" / "g")],
    "grow-seed-env-not-integer": lambda tmp: ["grow", "--d", "6", "--n", "5"],
    "grow-range-out-fifo": lambda tmp: [
        "grow", "--d", "6", "--n", "5", "--n-to", "7", "--out", fifo(tmp)],
    "simulate-id-not-string": lambda tmp: [
        "simulate", "--d", "6", "--script", null_id_script(tmp)],
    "simulate-attach-not-list": lambda tmp: [
        "simulate", "--d", "6", "--script", attach_string_script(tmp)],
    "simulate-script-nested-too-deep": lambda tmp: [
        "simulate", "--d", "6", "--script", nested_script(tmp)],
    "simulate-missing-script": lambda tmp: [
        "simulate", "--d", "6", "--script", str(tmp / "none.json")],
    "simulate-script-not-utf8": lambda tmp: [
        "simulate", "--d", "6", "--script", not_utf8(tmp)],
    "simulate-odd-degree": lambda tmp: [
        "simulate", "--d", "7", "--script", str(tmp / "s.json")],
    "simulate-snapshot-below-file": lambda tmp: [
        "simulate", "--d", "6", "--script", str(tmp / "s.json"),
        "--snapshot-dir", str(tmp / "s.json" / "snaps")],
    "verify-bad-header": lambda tmp: ["verify", "--input", os.devnull],
    "verify-input-not-utf8": lambda tmp: ["verify", "--input", not_utf8(tmp)],
    "verify-name-leading-zero": lambda tmp: [
        "verify", "--input", edge_file(tmp, "0: 01: 6")],
    "verify-name-underscore": lambda tmp: [
        "verify", "--input", edge_file(tmp, "0: 1_0: 6")],
    "verify-weight-plus-sign": lambda tmp: [
        "verify", "--input", edge_file(tmp, "0: 1: +6")],
    "verify-max-n-below-base": lambda tmp: ["verify", "--d", "6", "--max-n", "2"],
    "verify-max-n-below-larger-base": lambda tmp: [
        "verify", "--d", "6", "--d", "12", "--max-n", "5"],
    "verify-odd-degree": lambda tmp: ["verify", "--d", "6", "--d", "7"],
    "verify-input-with-degree-and-max-n": lambda tmp: [
        "verify", "--input", g9_graph(tmp), "--lift-seed", "1", "--d", "7",
        "--max-n", "1"],
}
INPUT_ERROR_ENV = {"grow-seed-env-not-integer": {"GROW_LIFT_SEED": "x"}}
# cases whose error line must name the bad value
INPUT_ERROR_TEXT = {
    "analyze-exact-weight-2-62": "line 2: weight must be in [1, 2147483647]",
    "analyze-weight-10-20": "line 2: weight must be in [1, 2147483647]",
    "analyze-rayleigh-negative-index": "rayleigh index must be >= 0, got -1",
    "analyze-rayleigh-index-10-19": (
        "rayleigh index 10000000000000000000 exceeds the eigensolver reach"),
    "bench-cycles-10-19": "--cycles 10000000000000000000 grows G_n past",
    "analyze-name-plus-sign": "line 2: malformed vertex name '+1:'",
    "analyze-name-arabic-digit": "line 2: malformed vertex name",
    "analyze-weight-underscore": "line 2: weight must be in",
    "simulate-id-not-string": "event 0: insert needs a string 'id'",
    "simulate-attach-not-list": "event 0: 'attach' must be a string list",
    "grow-n-below-base": "--n must be at least d/2 + 1 = 4",
    "grow-range-out-fifo": "fifo is not a regular file, so it cannot name the files",
    "simulate-script-nested-too-deep": "script nests arrays or objects too deeply",
    "verify-name-leading-zero": "line 2: malformed vertex name '01:'",
    "verify-name-underscore": "line 2: malformed vertex name '1_0:'",
    "verify-weight-plus-sign": "line 2: weight must be in",
    "verify-input-with-degree-and-max-n": "--d and --max-n do not apply to --input",
    "analyze-input-not-utf8": "codec can't decode",
    "simulate-script-not-utf8": "codec can't decode",
    "verify-input-not-utf8": "codec can't decode",
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2(tmp_path, case):
    (tmp_path / "s.json").write_text("[]")
    res = run_cli(*INPUT_ERRORS[case](tmp_path),
                  env_extra=INPUT_ERROR_ENV.get(case))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1, res.stderr
    assert INPUT_ERROR_TEXT.get(case, "") in res.stderr


@pytest.mark.parametrize("make", [fifo, lambda tmp: str(tmp)])
def test_grow_range_refuses_an_out_that_is_not_a_file(tmp_path, capsys, make):
    """A FIFO or a directory cannot name the range's ``PATH.n`` files: the
    range exits 2 before it writes any of them."""
    out = make(tmp_path)
    before = sorted(tmp_path.parent.iterdir()), sorted(tmp_path.iterdir())
    assert cli.main(["grow", "--d", "6", "--n", "5", "--n-to", "7",
                     "--lift-seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {out} is not")
    assert (sorted(tmp_path.parent.iterdir()), sorted(tmp_path.iterdir())) == before


@pytest.mark.parametrize("sizes, flag", [
    (["--n", str(10**19)], "--n"),
    (["--n", "5", "--n-to", str(10**19)], "--n-to"),
    (["--n", str(10**19), "--n-to", "5"], "--n"),
])
def test_grow_refuses_sizes_past_sys_maxsize_before_growing(
    monkeypatch, capsys, sizes, flag
):
    def no_growth(*args):
        raise AssertionError("growth started")

    monkeypatch.setattr(cli.grower, "graph_at", no_growth)
    monkeypatch.setattr(cli.grower, "state_at", no_growth)
    assert cli.main(["grow", "--d", "6", *sizes, "--lift-seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} {10**19} grows G_n past {sys.maxsize} vertices\n"


def test_internal_errors_keep_their_traceback(monkeypatch):
    def broken(*args):
        raise grower.ConstructionError("a growth invariant failed")

    monkeypatch.setattr(cli.grower, "graph_at", broken)
    with pytest.raises(grower.ConstructionError, match="growth invariant"):
        cli.main(["grow", "--d", "6", "--n", "5", "--lift-seed", "1"])


FAILED_CHECKS = {
    "analyze": (analysis, "future_cut_suite", analysis.LemmaViolation, "FAIL: "),
    "simulate": (selfheal, "run_script", selfheal.ProtocolError, "FAIL protocol: "),
}


@pytest.mark.parametrize("command", sorted(FAILED_CHECKS))
def test_failed_checks_exit_1_on_stderr(tmp_path, monkeypatch, capsys, command):
    owner, attr, error, prefix = FAILED_CHECKS[command]

    def fail(*args, **kwargs):
        raise error("the check failed")

    monkeypatch.setattr(owner, attr, fail)
    graph, script = tmp_path / "g.graph", tmp_path / "s.json"
    graph.write_text(graph_to_text(graph_at(6, 9, 1)))
    script.write_text("[]")
    argv = {
        "analyze": ["analyze", "--input", str(graph), "--spectral",
                    "--suite", "lemma43", "--lift-seed", "1"],
        "simulate": ["simulate", "--d", "6", "--script", str(script)],
    }[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"{prefix}the check failed\n")


def lemma43_on(path):
    return ["analyze", "--input", path, "--spectral", "--suite", "lemma43",
            "--lift-seed", "1"]


def test_analyze_lemma43_decides_every_cut_above_the_exact_bound(tmp_path, capsys):
    """The identities enumerate no cut, so G_40's 2^39 - 1 cuts are decided."""
    assert cli.main(lemma43_on(g40_graph(tmp_path))) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite_results"] == [
        {"suite": "lemma43", "result": {"ok": True, "cuts_checked": 2**39 - 1}}
    ]


def test_analyze_lemma43_fails_a_rewired_input_above_the_exact_bound(
    tmp_path, capsys
):
    assert cli.main(lemma43_on(rewired_g40(tmp_path))) == 1
    result = json.loads(capsys.readouterr().out)["suite_results"][0]["result"]
    assert result == {"ok": False, "detail": "input differs from the reference graph"}


def test_analyze_rayleigh_suite_reports_its_result(tmp_path, capsys):
    """The default index 3 at d = 6 splits G_32's first vertex: n = 33."""
    argv = ["analyze", "--input", g9_graph(tmp_path), "--spectral",
            "--suite", "rayleigh", "--lift-seed", "1"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    [suite] = payload["suite_results"]
    res = analysis.rayleigh_lower_bound_check(6, 3, seed=1)
    assert suite == {
        "suite": "rayleigh",
        "result": {"ok": True, "n": 33, "lambda2": res.lambda2,
                   "quotient": res.quotient},
    }


def test_analyze_has_no_lemma46_suite(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--input", g9_graph(tmp_path), "--suite", "lemma46"])
    assert exc.value.code == 2
    assert "invalid choice: 'lemma46'" in capsys.readouterr().err


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
