"""Command line interface: grow, analyze, simulate, verify, bench.

All subcommands are deterministic given their flags; identical invocations
produce byte-identical outputs.  Exit codes: 0 success, 1 verification
failure, 2 usage error; every bad input (a flag value out of range, an
unreadable or malformed input file, an unwritable output path) is a usage
error reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis, grower, selfheal
from .lifts import SpectralReport, spectral_report
from .multigraph import (
    graph_from_text,
    graph_to_text,
    graphs_equal,
    weighted_degree,
)
from .names import format_name

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    env = os.environ.get("GROW_LIFT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: GROW_LIFT_SEED must be an integer, got {env!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return 1


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fp:
        fp.write(text)


def _bad_degree(d: int) -> bool:
    """Report an invalid --d on stderr; true when it is invalid."""
    if d % 2 == 0 and d >= 6:
        return False
    print(f"error: --d must be an even integer >= 6, got {d}", file=sys.stderr)
    return True


def cmd_grow(args: argparse.Namespace) -> int:
    if _bad_degree(args.d):
        return EXIT_USAGE
    n_lo = args.n if args.n_to is None else min(args.n, args.n_to)
    n_hi = args.n if args.n_to is None else max(args.n, args.n_to)
    if n_lo < args.d // 2 + 1:
        print(f"error: --n must be at least d/2 + 1 = {args.d // 2 + 1}",
              file=sys.stderr)
        return EXIT_USAGE
    for n in range(n_lo, n_hi + 1):
        g = grower.graph_at(args.d, n, args.lift_seed)
        text = graph_to_text(g)
        if args.out is None:
            sys.stdout.write(text)
        else:
            path = args.out if n_lo == n_hi else f"{args.out}.{n}"
            _write_text(path, text)
    if args.trace:
        logs = []
        for n in range(max(n_lo, args.d // 2 + 2), n_hi + 1):
            log = grower.changelog_at(args.d, n, args.lift_seed)
            logs.append(
                {
                    "n": n,
                    "u": format_name(log.split_vertex),
                    "u_prime": format_name(log.new_vertex),
                    "changes": [
                        {
                            "edge": [format_name(e[0]), format_name(e[1])],
                            "old": old,
                            "new": new,
                        }
                        for e, old, new in log.changes
                    ],
                    "cost": log.cost,
                }
            )
        trace_text = json.dumps(logs, indent=2, sort_keys=True) + "\n"
        if args.trace == "-":
            sys.stdout.write(trace_text)
        else:
            _write_text(args.trace, trace_text)
    return EXIT_OK


def cmd_bench_cost(args: argparse.Namespace) -> int:
    if _bad_degree(args.d):
        return EXIT_USAGE
    if args.cycles < 0:
        print(f"error: --cycles must be >= 0, got {args.cycles}", file=sys.stderr)
        return EXIT_USAGE
    base = args.d // 2 + 1
    n_hi = base * (1 << args.cycles)
    rows = ["n,cost,U_u,S_u"]
    worst = 0
    for n in range(base + 1, n_hi + 1):
        log = grower.changelog_at(args.d, n, args.lift_seed)
        worst = max(worst, log.cost)
        rows.append(
            f"{n},{log.cost},{log.n_unsplit_neighbors},{log.n_split_neighbors}"
        )
    rows.append(f"max,{worst},,")
    text = "\n".join(rows) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_OK


def _analysis_payload(args: argparse.Namespace) -> dict:
    with open(args.input) as fp:
        g = graph_from_text(fp.read())
    payload: dict = {"n": g.n, "d": g.d}
    suite_names = args.suite or []
    h = None
    if args.exact or not args.spectral:
        report = analysis.edge_expansion_exact(g)
        h = report.h
        payload["h"] = {"num": report.h.numerator, "den": report.h.denominator}
        payload["argmin"] = [format_name(v) for v in report.argmin_set]
        payload["subsets_checked"] = report.n_subsets_checked
    spectrum = None
    if args.spectral or not args.exact or {"cheeger", "mixing"} & set(suite_names):
        spectrum = spectral_report(g)
    if args.spectral or not args.exact:
        payload["lambda2"] = spectrum.lambda2
        payload["lambda"] = spectrum.lambda_
        d_reg = weighted_degree(g, next(iter(g.vertices)))
        lower, upper = analysis.cheeger_bounds(d_reg, spectrum.lambda2)
        payload["bounds"] = {"cheeger_lower": lower, "cheeger_upper": upper}
    suites = []
    for name in suite_names:
        result = _run_suite(name, g, args, h, spectrum)
        suites.append({"suite": name, "result": result})
    if suites:
        payload["suite_results"] = suites
    return payload


def _run_suite(
    name: str,
    g,
    args: argparse.Namespace,
    h: Fraction | None = None,
    spectrum: SpectralReport | None = None,
) -> dict:
    """One analyze suite; ``h`` and ``spectrum`` are passed when already known."""
    seed = args.lift_seed
    d = g.d
    if name in ("lemma43", "lemma46"):
        state = grower.state_at(d, g.n, seed)
        if not graphs_equal(state.current, g):
            return {"ok": False, "detail": "input differs from the reference graph"}
        cuts = analysis.future_cut_suite(state)
        return {"ok": True, "cuts_checked": cuts}
    if name == "cheeger":
        res = analysis.cheeger_check(g, h, spectrum)
        return {
            "ok": res.ok,
            "lower": res.lower,
            "upper": res.upper,
            "h": float(res.h),
        }
    if name == "mixing":
        checked = analysis.mixing_suite(g, spectrum=spectrum)
        return {"ok": True, "pairs_checked": checked}
    if name == "rayleigh":
        i = args.rayleigh_index
        res = analysis.rayleigh_lower_bound_check(d, i, 0.5, seed)
        return {
            "ok": res.ok,
            "n": res.n,
            "lambda2": res.lambda2,
            "quotient": res.quotient,
        }
    raise ValueError(f"unknown suite {name!r}")


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        payload = _analysis_payload(args)
    except (ValueError, analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except analysis.LemmaViolation as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.json is None:
        sys.stdout.write(text)
    else:
        _write_text(args.json, text)
    failed = any(
        not s["result"].get("ok", False) for s in payload.get("suite_results", [])
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _verify_graph_file(path: str, seed: int) -> list[str]:
    """Check a graph file against the reference and the growth invariants.

    The split vertices are inferred as every name deeper than the shallowest.
    """
    with open(path) as fp:
        g = graph_from_text(fp.read())
    shallowest = min((v.depth for v in g.vertices), default=0)
    split = {v for v in g.vertices if v.depth > shallowest}
    failures = list(grower.structure_violations(g, split))
    ref = grower.graph_at(g.d, g.n, seed)
    if not graphs_equal(g, ref):
        failures.append(
            "sequence equality: graph differs from the deterministic "
            f"reference at n = {g.n}"
        )
    return failures


def cmd_verify(args: argparse.Namespace) -> int:
    failures: list[str] = []
    if args.input:
        try:
            failures.extend(_verify_graph_file(args.input, args.lift_seed))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif any(_bad_degree(d) for d in args.d):
        return EXIT_USAGE
    elif args.max_n < max(args.d) // 2 + 1:
        print(f"error: --max-n must be at least d/2 + 1 = {max(args.d) // 2 + 1}, "
              f"got {args.max_n}", file=sys.stderr)
        return EXIT_USAGE
    else:
        for d in args.d:
            base = d // 2 + 1
            max_n = args.max_n
            prev = grower.graph_at(d, base, args.lift_seed)
            for n in range(base + 1, max_n + 1):
                state = grower.state_at(d, n, args.lift_seed)
                log = grower.changelog_at(d, n, args.lift_seed)
                try:
                    grower.check_state_invariants(state)
                    grower.check_split_cost(prev, state.current, log)
                except grower.ConstructionError as exc:
                    failures.append(f"d={d} n={n}: {exc}")
                prev = state.current
            if d == 6 or args.future_cuts_all:
                for n in range(base, min(max_n, 16) + 1):
                    try:
                        analysis.future_cut_suite(
                            grower.state_at(d, n, args.lift_seed)
                        )
                    except analysis.LemmaViolation as exc:
                        failures.append(f"future-cut d={d} n={n}: {exc}")
            for n in range(base, min(max_n, 16) + 1):
                res = analysis.cheeger_check(grower.graph_at(d, n, args.lift_seed))
                if not res.ok:
                    failures.append(
                        f"cheeger d={d} n={n}: h={float(res.h):.6f} outside "
                        f"[{res.lower:.6f}, {res.upper:.6f}]"
                    )
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return EXIT_VERIFY_FAILED
    print("OK all checks passed")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if _bad_degree(args.d):
        return EXIT_USAGE
    try:
        with open(args.script) as fp:
            events = selfheal.parse_script(fp.read())
        if args.snapshot_dir:
            os.makedirs(args.snapshot_dir, exist_ok=True)
        report = selfheal.run_script(
            args.d, args.seed, events, snapshot_dir=args.snapshot_dir
        )
    except selfheal.ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except selfheal.ProtocolError as exc:
        print(f"FAIL protocol: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    text = selfheal.report_to_json(report)
    if args.report is None:
        sys.stdout.write(text)
    else:
        _write_text(args.report, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderseq",
        description=(
            "Deterministic incremental expander multigraphs: growth, "
            "verification, and self-healing overlay simulation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grow", help="emit graphs of the deterministic sequence")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-to", type=int, default=None,
                   help="emit every graph from --n to this size")
    p.add_argument("--lift-seed", type=int, default=_default_seed())
    p.add_argument("--out", default=None)
    p.add_argument("--trace", nargs="?", const="-", default=None,
                   help="emit the per-split change log as JSON")
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("bench", help="per-split rewiring cost as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--lift-seed", type=int, default=_default_seed())
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_cost)

    p = sub.add_parser("analyze", help="expansion and spectral reports")
    p.add_argument("--input", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--spectral", action="store_true")
    p.add_argument(
        "--suite",
        action="append",
        choices=["lemma43", "lemma46", "cheeger", "mixing", "rayleigh"],
    )
    p.add_argument("--rayleigh-index", type=int, default=3)
    p.add_argument("--lift-seed", type=int, default=_default_seed())
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--d", type=int, action="append",
                   help="degree(s) to verify (repeatable)")
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--input", default=None,
                   help="verify one graph file instead of generating")
    p.add_argument("--future-cuts-all", action="store_true")
    p.add_argument("--lift-seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a self-healing adversary script")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--script", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--snapshot-dir", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.input and not args.d:
        args.d = [6]
    try:
        return args.func(args)
    except OSError as exc:  # unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
