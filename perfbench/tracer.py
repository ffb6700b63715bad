"""In-memory spans around the layer boundaries of expanderseq, and the
per-layer metrics derived from them.

Spans are recorded from outside the package: each traced entry point is
replaced, for the duration of one timed region, by a wrapper bound to the
exact name its callers look up (``grower.next_bl_expander`` rather than
``lifts.next_bl_expander``, because ``grower`` imported the name directly).
Only layer boundaries are wrapped; hot inner helpers such as
``VertexName.key`` are not, so the tracing overhead stays a small share of
the run.  A span is ``(name, start, end, parent, run_id)``; ``parent`` is the
index of the enclosing span or -1.  The layer of a span is the prefix of its
name before the first dot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("lifts", "grower", "multigraph", "analysis", "selfheal", "cli")
# Totals read from the simulate report; zero on the other workloads.
PROTOCOL = (
    "selfheal.rounds",
    "selfheal.messages",
    "selfheal.bits",
    "selfheal.rounds_per_event_max_log2n",
    "selfheal.msgs_per_event_max_log2n",
    "selfheal.bits_per_event_mean",
)


class Tracer:
    """Records spans and boundary counters while its wrappers are installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span called ``name``.

        ``after(args, result)`` runs once the span has closed, so counting
        work at the boundary is charged to the caller, not to the callee.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")


def install(tracer: Tracer, es) -> None:
    """Wrap every layer boundary of the package namespace ``es``."""
    import numpy as np

    c = tracer.counters

    def count_eig(args, _result):
        a = args[0]
        n = a.shape[-1]
        batch = a.size // (n * n)
        c["eig_flops"] += batch * 4 * n**3 / 3
        c["eig_bytes"] += batch * 8 * n * n

    def count_text(_args, text):
        c["serialize_bytes"] += len(text.encode())

    def count_exact(args, _result):
        g = args[0]
        masks = 1 << (g.n - 1)
        c["cuts"] += masks
        c["cut_bytes"] += 8 * masks * len(g.weights)

    def count_future(args, _result):
        state = args[0]
        masks = 1 << (state.current.n - 1)
        c["cuts"] += masks
        c["cut_bytes"] += (
            8 * masks * (len(state.current.weights) + len(state.target.weights))
        )

    def count_pairs(_args, pairs):
        c["mixing_pairs"] += pairs

    net = es.selfheal.SimNetwork
    boundaries = [
        (es.cli, "main", "cli.main", None),
        (es.cli, "graph_to_text", "multigraph.graph_to_text", count_text),
        (es.cli, "graph_from_text", "multigraph.parse", None),
        (es.grower, "graph_at", "grower.graph_at", None),
        (es.grower, "state_at", "grower.state_at", None),
        (es.grower, "split_next", "grower.split_next", None),
        (es.grower, "begin_cycle", "grower.begin_cycle", None),
        (es.grower, "bl_expander", "grower.bl_expander", None),
        (es.grower, "next_bl_expander", "lifts.next_bl_expander", None),
        (es.lifts, "find_good_signing", "lifts.find_good_signing", None),
        (es.lifts, "spectral_report", "lifts.reverify", None),
        (np.linalg, "eigvalsh", "lifts.eigvalsh", count_eig),
        (es.multigraph.WeightedMultigraph, "__init__", "multigraph.build", None),
        (es.analysis, "edge_expansion_exact", "analysis.edge_expansion_exact",
         count_exact),
        (es.analysis, "future_cut_suite", "analysis.future_cut_suite",
         count_future),
        (es.analysis, "cheeger_check", "analysis.cheeger_check", None),
        (es.analysis, "mixing_suite", "analysis.mixing_suite", count_pairs),
        (es.analysis, "spectral_report", "analysis.spectral_report", None),
        (es.selfheal, "run_script", "selfheal.run_script", None),
        (es.selfheal, "graph_at", "grower.graph_at", None),
        (es.selfheal, "bl_expander", "grower.bl_expander", None),
        (es.selfheal, "expansion_cost", "multigraph.expansion_cost", None),
        (es.selfheal, "graph_to_text", "multigraph.graph_to_text", count_text),
        (net, "insert", "selfheal.insert", None),
        (net, "delete", "selfheal.delete", None),
        (net, "route_next_hop", "selfheal.route", None),
        (net, "_exact_next_hop", "selfheal.route", None),
        (net, "topology", "selfheal.topology", None),
        (net, "_common_checks", "selfheal.common_checks", None),
    ]
    for owner, attr, name, after in boundaries:
        tracer.wrap(owner, attr, name, after)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("_bytes"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name in ("selfheal.bits", "selfheal.bits_per_event_mean"):
        return "bit"
    return "count"


def layer_metrics(tracer: Tracer, wall_s: float, cached_states: int,
                  protocol: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced timed region.

    ``protocol`` carries the simulate report's totals (zero elsewhere).
    """
    spans = tracer.spans
    c = tracer.counters
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    searched_eigs = 0
    oracle = 0.0
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        calls[name] += 1
        if parent_name != name:  # recursion counts once
            total[name] += dur
        self_time[name.split(".", 1)[0]] += dur - child_time[i]
        if parent < 0:
            covered += dur
        if name == "lifts.eigvalsh" and parent_name == "lifts.find_good_signing":
            searched_eigs += 1
        if name == "selfheal.common_checks" or (
            parent_name == "selfheal.run_script"
            and name not in ("selfheal.insert", "selfheal.delete")
        ):
            oracle += dur
    searches = calls["lifts.find_good_signing"]
    m = {
        "lifts.searches": searches,
        "lifts.search_s": total["lifts.find_good_signing"],
        "lifts.eigensolves": calls["lifts.eigvalsh"],
        "lifts.eigensolve_s": total["lifts.eigvalsh"],
        "lifts.eigensolves_per_search": searched_eigs / searches if searches else 0.0,
        "lifts.eig_flops_computed": c["eig_flops"],
        "lifts.eig_bytes_computed": c["eig_bytes"],
        "lifts.reverify_s": total["lifts.reverify"],
        "grower.splits": calls["grower.split_next"],
        "grower.split_s": total["grower.split_next"],
        "grower.cycles": calls["grower.begin_cycle"],
        "grower.graph_at_calls": calls["grower.graph_at"],
        "grower.graph_at_s": total["grower.graph_at"],
        "grower.bl_expander_calls": calls["grower.bl_expander"],
        "grower.bl_expander_s": total["grower.bl_expander"],
        "grower.cached_states": cached_states,
        "multigraph.graphs_built": calls["multigraph.build"],
        "multigraph.build_s": total["multigraph.build"],
        "multigraph.serialize_s": total["multigraph.graph_to_text"],
        "multigraph.serialize_bytes": c["serialize_bytes"],
        "multigraph.expansion_cost_calls": calls["multigraph.expansion_cost"],
        "multigraph.expansion_cost_s": total["multigraph.expansion_cost"],
        "analysis.cuts_enumerated": c["cuts"],
        "analysis.expansion_exact_calls": calls["analysis.edge_expansion_exact"],
        "analysis.expansion_exact_s": total["analysis.edge_expansion_exact"],
        "analysis.future_cut_s": total["analysis.future_cut_suite"],
        "analysis.cut_bytes_computed": c["cut_bytes"],
        "analysis.mixing_pairs": c["mixing_pairs"],
        "analysis.mixing_s": total["analysis.mixing_suite"],
        "analysis.spectral_s": total["analysis.spectral_report"],
        "selfheal.events": calls["selfheal.insert"] + calls["selfheal.delete"],
        "selfheal.insert_s": total["selfheal.insert"],
        "selfheal.delete_s": total["selfheal.delete"],
        "selfheal.route_calls": calls["selfheal.route"],
        "selfheal.route_s": total["selfheal.route"],
        "selfheal.topology_s": total["selfheal.topology"],
        "selfheal.oracle_s": oracle,
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - covered,
        "trace.spans": len(spans),
    }
    m.update({key: protocol.get(key, 0) for key in PROTOCOL})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
