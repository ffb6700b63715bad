"""Command line interface: grow, analyze, simulate, verify, bench.

All subcommands are deterministic given their flags; identical invocations
produce byte-identical outputs.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Commands raise; ``main`` alone maps errors to exit
codes and writes to stderr.  Every bad input (a flag value out of range, an
unreadable or malformed input file, an unwritable output path) raises an
``OSError`` or ``ValueError`` and is reported as one ``error:`` line; any
other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis, grower, selfheal
from .lifts import SpectralReport, spectral_report
from .multigraph import graph_from_text, graph_to_text, graphs_equal
from .names import format_name

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """A flag or environment value is out of range."""


def _default_seed() -> int:
    env = os.environ.get("GROW_LIFT_SEED")
    try:
        return 1 if env is None else int(env)
    except ValueError:
        raise UsageError(f"GROW_LIFT_SEED must be an integer, got {env!r}") from None


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fp:
        return fp.read()


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(text)


def _check_degree(d: int) -> None:
    if d % 2 or d < 6:
        raise UsageError(f"--d must be an even integer >= 6, got {d}")


def cmd_grow(args: argparse.Namespace) -> int:
    _check_degree(args.d)
    n_lo = args.n if args.n_to is None else min(args.n, args.n_to)
    n_hi = args.n if args.n_to is None else max(args.n, args.n_to)
    if n_lo < args.d // 2 + 1:
        raise UsageError(f"--n must be at least d/2 + 1 = {args.d // 2 + 1}")
    # G_n's adjacency map is a dict, which holds at most sys.maxsize vertices
    for flag, n in (("--n", args.n), ("--n-to", args.n_to)):
        if n is not None and n > sys.maxsize:
            raise UsageError(f"{flag} {n} grows G_n past {sys.maxsize} vertices")
    logs = []
    for n in range(n_lo, n_hi + 1):
        path = args.out if args.out is None or n_lo == n_hi else f"{args.out}.{n}"
        _emit(path, graph_to_text(grower.graph_at(args.d, n, args.lift_seed)))
        if args.trace and n > args.d // 2 + 1:
            # read while G_n's state is still in the growth window
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
    if args.trace:
        _emit(None if args.trace == "-" else args.trace,
              json.dumps(logs, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_bench_cost(args: argparse.Namespace) -> int:
    _check_degree(args.d)
    if args.cycles < 0:
        raise UsageError(f"--cycles must be >= 0, got {args.cycles}")
    base = args.d // 2 + 1
    # the last graph's adjacency map is a dict, which holds at most
    # sys.maxsize vertices; the bit-length test keeps the shift small
    if (args.cycles >= sys.maxsize.bit_length()
            or base << args.cycles > sys.maxsize):
        raise UsageError(
            f"--cycles {args.cycles} grows G_n past {sys.maxsize} vertices"
        )
    n_hi = base << args.cycles
    rows = ["n,cost,U_u,S_u"]
    worst = 0
    for n in range(base + 1, n_hi + 1):
        log = grower.changelog_at(args.d, n, args.lift_seed)
        worst = max(worst, log.cost)
        rows.append(
            f"{n},{log.cost},{log.n_unsplit_neighbors},{log.n_split_neighbors}"
        )
    rows.append(f"max,{worst},,")
    _emit(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _analysis_payload(args: argparse.Namespace) -> dict:
    g = graph_from_text(_read(args.input))
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
        lower, upper = analysis.cheeger_bounds(g, spectrum.lambda2)
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
    if name == "lemma43":
        state = grower.state_at(d, g.n, seed)
        if not graphs_equal(state.current, g):
            return {"ok": False, "detail": "input differs from the reference graph"}
        return {"ok": True, "cuts_checked": analysis.future_cut_suite(state)}
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
        res = analysis.rayleigh_lower_bound_check(d, i, seed)
        return {
            "ok": res.ok,
            "n": res.n,
            "lambda2": res.lambda2,
            "quotient": res.quotient,
        }
    raise ValueError(f"unknown suite {name!r}")


def cmd_analyze(args: argparse.Namespace) -> int:
    payload = _analysis_payload(args)
    _emit(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    failed = any(
        not s["result"].get("ok", False) for s in payload.get("suite_results", [])
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _verify_graph_file(path: str, seed: int) -> list[str]:
    """Check a graph file against the reference and the growth invariants.

    The split vertices are inferred as every name deeper than the shallowest.
    """
    g = graph_from_text(_read(path))
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
        if args.d or args.max_n is not None:
            raise UsageError("--d and --max-n do not apply to --input")
        failures.extend(_verify_graph_file(args.input, args.lift_seed))
    else:
        degrees = args.d or [6]
        for d in degrees:
            _check_degree(d)
        max_n = 16 if args.max_n is None else args.max_n
        if max_n < max(degrees) // 2 + 1:
            raise UsageError(
                f"--max-n must be at least d/2 + 1 = {max(degrees) // 2 + 1}, "
                f"got {max_n}"
            )
        for d in degrees:
            base = d // 2 + 1
            prev = None
            for n in range(base, max_n + 1):
                state = grower.state_at(d, n, args.lift_seed)
                try:
                    if prev is not None:
                        grower.check_state_invariants(state)
                        grower.check_split_cost(prev, state.current, state.log)
                except grower.ConstructionError as exc:
                    failures.append(f"d={d} n={n}: {exc}")
                try:
                    analysis.future_cut_suite(state)
                except analysis.LemmaViolation as exc:
                    failures.append(f"future-cut d={d} n={n}: {exc}")
                prev = state.current
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
    _check_degree(args.d)
    events = selfheal.parse_script(_read(args.script))
    if args.snapshot_dir:
        os.makedirs(args.snapshot_dir, exist_ok=True)
    report = selfheal.run_script(
        args.d, args.seed, events, snapshot_dir=args.snapshot_dir
    )
    _emit(args.report, selfheal.report_to_json(report))
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
        choices=["lemma43", "cheeger", "mixing", "rayleigh"],
    )
    p.add_argument("--rayleigh-index", type=int, default=3)
    p.add_argument("--lift-seed", type=int, default=_default_seed())
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--d", type=int, action="append",
                   help="degree(s) to verify (repeatable)")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest n to verify (default 16)")
    p.add_argument("--input", default=None,
                   help="verify one graph file instead of generating")
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
    """Run one command; the only place that maps errors to exit codes."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # bad flag, file or path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except analysis.LemmaViolation as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except selfheal.ProtocolError as exc:
        print(f"FAIL protocol: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
