"""One benchmark iteration in a fresh process.

Sets up one workload, runs its timed region once, and writes a JSON record
(timings, the output digests the golden gates compare, and, when traced,
the per-layer metrics) to the path given by ``--out``.  ``run.py`` starts
this script; it is not meant to be run by hand.

Set-up time runs from the moment the parent started this process (passed as
``--spawned``, a ``time.monotonic`` reading, which is system-wide on Linux)
to the start of the timed region.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
D = 6
SCRIPT_SEED = 2024
# Workload sizes: "full" is what the benchmark measures, "smoke" is the tiny
# variant the benchmark's own tests run.
SIZES = {
    "full": {"grow_n_to": 512, "events": 400, "analyze_n": 22},
    "smoke": {"grow_n_to": 32, "events": 20, "analyze_n": 13},
}


class Sink:
    """Stands in for stdout: hashes what is written and stamps each write."""

    def __init__(self, keep: bool = False, corrupt: bool = False):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.stamps: list[float] = []
        self.kept: list[str] | None = [] if keep else None
        self.corrupt = corrupt

    def write(self, text: str) -> int:
        self.stamps.append(perf_counter())
        data = text.encode()
        if self.corrupt and self.nbytes == 0:
            data = b"#" + data[1:]
        self.sha.update(data)
        self.nbytes += len(data)
        if self.kept is not None:
            self.kept.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def churn_script(events_mod, n_events: int, seed: int,
                 insert_frac: float = 0.7) -> tuple[list, int]:
    """The acceptance test's adversary: 70% inserts attaching to 3 live nodes.

    Returns the events and the peak vertex count the script reaches.
    """
    rng = random.Random(seed)
    base = D // 2 + 1
    live = [f"g{i}" for i in range(base)]
    events, n, k, peak = [], base, 0, base
    for _ in range(n_events):
        if n > base and rng.random() > insert_frac:
            victim = rng.choice(live)
            events.append(events_mod.DeleteEvent(victim))
            live.remove(victim)
            n -= 1
        else:
            ext = f"n{k:04d}"
            k += 1
            attach = tuple(rng.sample(live, min(len(live), 3)))
            events.append(events_mod.InsertEvent(ext, attach))
            live.append(ext)
            n += 1
        peak = max(peak, n)
    return events, peak


def import_package():
    """Import expanderseq from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import expanderseq
    from expanderseq import analysis, cli, grower, lifts, multigraph, selfheal

    where = os.path.dirname(os.path.abspath(expanderseq.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"expanderseq imported from {where}, not from {src}")
    return argparse.Namespace(
        analysis=analysis, cli=cli, grower=grower, lifts=lifts,
        multigraph=multigraph, selfheal=selfheal,
    )


def stamp_entries(owner, attrs, stamps: list[float]) -> None:
    """Record the entry time of every call to ``owner.<attr>``."""
    for attr in attrs:
        original = getattr(owner, attr)

        def stamped(*args, _original=original, **kwargs):
            stamps.append(perf_counter())
            return _original(*args, **kwargs)

        setattr(owner, attr, stamped)


def setup_grow(es, args, size):
    sink = Sink(corrupt=args.corrupt)
    argv = ["grow", "--d", str(D), "--n", "5", "--n-to", str(size["grow_n_to"]),
            "--lift-seed", str(args.lift_seed)]

    def timed():
        real, sys.stdout = sys.stdout, sink
        try:
            rc = es.cli.main(argv)
        finally:
            sys.stdout = real
        return rc

    def finish(rc, t0, t1):
        output = {"rc": rc, "sha256": sink.sha.hexdigest(), "bytes": sink.nbytes}
        return output, [t0] + sink.stamps, {}

    return timed, finish


def setup_churn(es, args, size):
    events, peak = churn_script(es.selfheal, size["events"], SCRIPT_SEED)
    for n in range(D // 2 + 1, peak + 1):
        es.grower.graph_at(D, n, args.lift_seed)
    starts: list[float] = []
    stamp_entries(es.selfheal.SimNetwork, ("insert", "delete"), starts)
    box = {}

    def timed():
        box["report"] = es.selfheal.run_script(D, args.lift_seed, events)
        return 0

    def finish(rc, t0, t1):
        report = box["report"]
        if args.corrupt:
            report.events[0]["messages"] += 1
        # the digest is recomputed from the report's content, as run_script
        # defines it, so a wrong count or graph fails even if the program's
        # own digest were stale
        src = json.dumps(report.events, sort_keys=True) + report.final_graph_text
        rounds_ratio, msgs_ratio, over_budget, bits = 0.0, 0.0, 0, 0
        for e in report.events:
            n_at_event = e["n_after"] + (1 if e["op"] == "delete" else 0)
            log2n = math.ceil(math.log2(max(2, n_at_event)))
            rounds_ratio = max(rounds_ratio, e["rounds"] / log2n)
            msgs_ratio = max(msgs_ratio, e["messages"] / log2n)
            if e["rounds"] > 6 * log2n or e["messages"] > 40 * log2n:
                over_budget += 1
            bits += e["bits"]
        n_events = len(report.events)
        output = {
            "rc": rc,
            "digest": report.digest,
            "content_digest": hashlib.sha256(src.encode()).hexdigest(),
            "events": n_events,
            "over_budget": over_budget,
        }
        protocol = {
            "selfheal.rounds": sum(e["rounds"] for e in report.events),
            "selfheal.messages": sum(e["messages"] for e in report.events),
            "selfheal.bits": bits,
            "selfheal.rounds_per_event_max_log2n": rounds_ratio,
            "selfheal.msgs_per_event_max_log2n": msgs_ratio,
            "selfheal.bits_per_event_mean": bits / n_events,
        }
        return output, starts + [t1], protocol

    return timed, finish


def setup_analyze(es, args, size):
    n = size["analyze_n"]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"g{n}-seed{args.lift_seed}-{os.getpid()}.graph")
    with open(path, "w", newline="\n") as fp:
        fp.write(es.multigraph.graph_to_text(es.grower.graph_at(D, n, args.lift_seed)))
    # the timed region is a fresh `expanderseq analyze` process as a user
    # runs it, so the growth caches the input file came from are dropped
    es.grower.clear_caches()
    sink = Sink(keep=True)
    argv = ["analyze", "--input", path, "--exact", "--suite", "lemma43",
            "--suite", "cheeger", "--suite", "mixing",
            "--lift-seed", str(args.lift_seed)]
    # an item is one section of the report: the --exact expansion, then
    # each suite; boundaries are the suite entries plus the last suite's exit
    bounds: list[float] = []
    run_suite = es.cli._run_suite

    def suite(*a, **k):
        bounds.append(perf_counter())
        result = run_suite(*a, **k)
        bounds.append(perf_counter())
        return result

    es.cli._run_suite = suite

    def timed():
        real, sys.stdout = sys.stdout, sink
        try:
            rc = es.cli.main(argv)
        finally:
            sys.stdout = real
        return rc

    def finish(rc, t0, t1):
        os.remove(path)
        payload = json.loads("".join(sink.kept)) if sink.kept else None
        if args.corrupt and payload is not None:
            payload["h"]["num"] += 1
        output = {"rc": rc, "payload": payload}
        # suite entries and the final exit; each exit but the last is
        # immediately followed by the next entry
        edges = [t0] + bounds[0::2] + bounds[-1:]
        return output, edges, {}

    return timed, finish


SETUPS = {
    "grow-sweep": setup_grow,
    "simulate-churn": setup_churn,
    "analyze-exact": setup_analyze,
}


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(SETUPS), required=True)
    p.add_argument("--lift-seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, default=_STARTED)
    p.add_argument("--run-id", default="run")
    p.add_argument("--spans", default=None)
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    es = import_package()
    timed, finish = SETUPS[args.workload](es, args, SIZES[args.size])
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer, es)
    t0 = perf_counter()
    setup_s = time.monotonic() - args.spawned
    rc = timed()
    t1 = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    output, edges, protocol = finish(rc, t0, t1)
    record = {
        "workload": args.workload,
        "lift_seed": args.lift_seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "items_s": [b - a for a, b in zip(edges, edges[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output": output,
        "numpy": sys.modules["numpy"].__version__,
        "blas": blas_info(),
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(
            tracer, t1 - t0, len(es.grower._STATE_CACHE), protocol
        )
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fp:
        json.dump(record, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
