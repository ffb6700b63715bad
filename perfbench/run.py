"""Benchmark of expanderseq: growth, self-healing simulation, exact analysis.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grow-sweep --seed 0 --seconds 40 --trace 0

Each iteration of a workload runs in a fresh child process (``child.py``)
with BLAS pinned to one thread, and iterations repeat while the next one
can still end within ``--seconds``.  Every iteration's output is checked against golden values
taken on the seed commit (``golden.json``).  With ``--trace 0`` the last
line of stdout carries the end-to-end metrics (medians over the
iterations); with ``--trace 1`` untraced and traced iterations alternate and
it carries the per-layer metrics of the traced ones, plus the tracing
overhead.  The line before it records the environment.  Exit code 0 when
every output matched, 1 when one did not, 2 when the package is missing.

``--seed`` picks one of ``SEED_POOL`` input variants: the lift seed of the
deterministic sequence is ``1 + seed % SEED_POOL``.  Seed 0 is the variant
the paper-style defaults use (lift seed 1, churn script seed 2024).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import child
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEED_POOL = 10
# every child must end before the run's 180 s limit, with room to report
HARD_LIMIT_S = 165.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
}


def lift_seed(seed: int) -> int:
    return 1 + seed % SEED_POOL


def planned_items(workload: str, size: str) -> int:
    s = child.SIZES[size]
    if workload == "grow-sweep":
        return s["grow_n_to"] - 5 + 1
    if workload == "simulate-churn":
        return s["events"]
    return 4  # analyze-exact: the --exact section and three suites


def tail(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it.

    With 508 items this is p98, with 400 it is p97.5; with ten or fewer
    (analyze-exact's four sections) no such percentile exists and the
    maximum is reported.
    """
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def run_child(workload: str, lift: int, size: str, traced: bool, run_id: str,
              timeout: float, corrupt: bool = False) -> tuple[dict | None, str]:
    """Run one iteration; returns its record, or None and the reason."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{run_id}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--lift-seed", str(lift), "--size", size,
           "--trace", str(int(traced)), "--run-id", run_id, "--out", out]
    if traced:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{workload}.jsonl")]
    if corrupt:
        cmd.append("--corrupt")
    env = dict(os.environ, **{var: "1" for var in PINNED})
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{run_id}: timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(out):
        err = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"{run_id}: exit {proc.returncode}: {err[0]}"
    with open(out) as fp:
        record = json.load(fp)
    os.remove(out)
    return record, ""


def same(a, b) -> bool:
    """Structural equality; floats agree to 1e-9 relative."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def gate(workload: str, output: dict, golden: dict | None) -> list[str]:
    """Reasons the output differs from the golden values; empty when it matches."""
    if golden is None:
        return ["no golden value for this input"]
    bad = []
    if output["rc"] != 0:
        bad.append(f"exit code {output['rc']}")
    if workload == "grow-sweep":
        if (output["sha256"], output["bytes"]) != (golden["sha256"], golden["bytes"]):
            bad.append(f"grow stream sha256 {output['sha256'][:12]} "
                       f"({output['bytes']} B), expected {golden['sha256'][:12]} "
                       f"({golden['bytes']} B)")
    elif workload == "simulate-churn":
        for key in ("digest", "content_digest"):
            if output[key] != golden["digest"]:
                bad.append(f"simulate {key} {output[key][:12]}, expected "
                           f"{golden['digest'][:12]}")
        if output["events"] != golden["events"]:
            bad.append(f"{output['events']} events reported, expected {golden['events']}")
        if output["over_budget"]:
            bad.append(f"{output['over_budget']} events over the 6/40 log2(n) budget")
    else:
        payload = output["payload"]
        if not same(payload, golden["payload"]):
            bad.append("analyze payload differs from the golden payload")
        elif not all(s["result"]["ok"] for s in payload["suite_results"]):
            bad.append("an analyze suite is not ok")
    return bad


def load_golden(size: str, workload: str, lift: int) -> dict | None:
    with open(os.path.join(HERE, "golden.json")) as fp:
        return json.load(fp)[size][workload].get(str(lift))


def commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "expanderseq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def loop_ms() -> float:
    """Time of a fixed pure-Python loop, a rough gauge of the host's speed.

    A shared host's speed can drift by tens of percent over minutes; this
    figure is recorded with every result so that drift can be told apart
    from a change in the program.
    """
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return 1000 * (time.perf_counter() - start)


def median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(child.SETUPS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the run; iterations repeat while "
                        "the next one fits, and 0 runs exactly one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(child.SIZES), default="full",
                   help="'smoke' runs tiny inputs for the benchmark's own tests")
    p.add_argument("--corrupt", action="store_true",
                   help="alter each output before the golden check (tests only)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "expanderseq", "__init__.py")):
        print(f"error: no expanderseq package under {ROOT}/src", file=sys.stderr)
        return 2
    lift = lift_seed(args.seed)
    golden = load_golden(args.size, args.workload, lift)
    start = time.monotonic()
    records: list[dict] = []
    failures: list[str] = []
    attempted = 0
    loops: list[float] = []
    sides = (False, True) if args.trace else (False,)
    iteration = 0
    while not failures:
        began = time.monotonic()
        for traced in sides:
            remaining = HARD_LIMIT_S - (time.monotonic() - start)
            run_id = f"{args.workload}-seed{args.seed}-{iteration}{'t' * traced}"
            attempted += planned_items(args.workload, args.size)
            loops.append(loop_ms())
            record, err = run_child(args.workload, lift, args.size, traced,
                                    run_id, remaining, args.corrupt)
            if record is None:
                failures.append(err)
                break
            failures += [f"{run_id}: {b}" for b in gate(args.workload,
                                                         record["output"], golden)]
            records.append(record)
        iteration += 1
        now = time.monotonic()
        # start another iteration only if, as long as the last one, it
        # still ends within --seconds, so a run never outlasts its budget
        if now - start + (now - began) > args.seconds:
            break
    untraced = [r for r in records if not r["traced"]]
    traced_recs = [r for r in records if r["traced"]]
    if not untraced or (args.trace and not traced_recs):
        for f in failures:
            print(f, file=sys.stderr)
        return 1

    if args.trace:
        metrics = {
            name: median_of(traced_recs, lambda r, n=name: r["layers"][n])
            for name in traced_recs[0]["layers"]
        }
        # each traced iteration runs right after its untraced twin, so the
        # pairwise difference cancels the host's slow drift
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced_recs)
        )
        units = {name: tracer.unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": median_of(untraced, lambda r: r["wall_s"]),
            "setup_s": median_of(untraced, lambda r: r["setup_s"]),
            "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
            "item_ms_p50": 1000 * statistics.median(
                x for r in untraced for x in r["items_s"]),
            "item_ms_tail": 1000 * median_of(untraced, lambda r: tail(r["items_s"])),
        }
        units = END_TO_END
    items = len(untraced[0]["items_s"])
    env = {
        "commit": commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": untraced[0]["numpy"],
        "blas": untraced[0]["blas"],
        "blas_threads": {var: "1" for var in PINNED},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "lift_seed": lift,
        "script_seed": child.SCRIPT_SEED if args.workload == "simulate-churn" else None,
        "traced": bool(args.trace),
        "iterations": len(untraced),
        "traced_iterations": len(traced_recs),
        "items_per_iteration": items,
        "item_tail": (f"rank {items - 10} of {items}, 10 beyond" if items > 10
                      else f"maximum of {items}"),
        "loop_ms": statistics.median(loops),
        "failures": failures,
    }
    failed = attempted if failures else 0
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fp:
        json.dump({"env": env, "result": result,
                   "iterations": [{k: r[k] for k in ("traced", "setup_s", "wall_s",
                                                      "peak_rss_mb")}
                                  for r in records]}, fp, indent=1)
    for f in failures:
        print(f, file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
