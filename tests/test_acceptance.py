"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a PASS line with its measured runtime so the suite doubles
as a reproduction log.  Runtime limits are asserted with caches cleared at
the start of the timed section, so every criterion pays its own setup.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from expanderseq import analysis, grower, selfheal
from expanderseq.grower import changelog_at, graph_at, state_at
from expanderseq.multigraph import expansion_cost, graphs_equal
from expanderseq.selfheal import DeleteEvent, InsertEvent, run_script

SEED = 1


def _fresh():
    grower.clear_caches()
    selfheal.clear_route_cache()


def _report(name, elapsed, detail=""):
    print(f"PASS {name} ({elapsed:.2f}s) {detail}".rstrip())


def test_criterion_1_cost_bound():
    _fresh()
    t0 = time.monotonic()
    for d in (6, 8, 10):
        base = d // 2 + 1
        cycle_costs: dict[int, list[tuple[int, int]]] = {}
        for n in range(base + 1, 4 * base + 1):
            log = changelog_at(d, n, SEED)
            cost = expansion_cost(graph_at(d, n - 1, SEED), graph_at(d, n, SEED))
            assert cost == log.cost
            assert cost == 3 * log.n_unsplit_neighbors + 5 * log.n_split_neighbors // 2
            assert cost <= 5 * d // 2
            cycle = 0 if n <= 2 * base else 1
            cycle_costs.setdefault(cycle, []).append((n, cost))
        for cycle, rows in cycle_costs.items():
            costs = [c for _, c in rows]
            assert max(costs) == 5 * d // 2
            assert costs[-1] == 5 * d // 2  # attained at the final split
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion 1 (cost bound, d in {6,8,10}, two cycles)", elapsed)


def test_criterion_2_invariant_suite():
    t0 = time.monotonic()
    for d in (6, 8, 10):
        base = d // 2 + 1
        prev = graph_at(d, base, SEED)
        for n in range(base + 1, 4 * base + 1):
            st = state_at(d, n, SEED)
            grower.check_state_invariants(st)
            grower.check_split_cost(prev, st.current, changelog_at(d, n, SEED))
            prev = st.current
        # end-of-cycle equality with the doubled lift
        for i in (1, 2):
            boundary = state_at(d, base * (1 << i), SEED)
            assert not boundary.unsplit
            assert graphs_equal(boundary.current, boundary.target)
    _report("criterion 2 (invariant suite after every split)", time.monotonic() - t0)


def test_criterion_3_future_cut_suite():
    _fresh()
    t0 = time.monotonic()
    total = 0
    for n in range(4, 17):
        total += analysis.future_cut_suite(state_at(6, n, SEED))
    elapsed = time.monotonic() - t0
    assert total == sum(2 ** (n - 1) - 1 for n in range(4, 17))
    assert elapsed < 60.0
    _report("criterion 3 (future-cut identities on all cuts as Laplacian "
            "equalities, n in [4,16])", elapsed,
            f"cuts={total}")


def test_criterion_4_tightness_instance():
    t0 = time.monotonic()
    st = state_at(10, 8, SEED)
    h_split_side = analysis.expansion_of_set(st.current, st.split)
    assert h_split_side == 4
    assert h_split_side == (2 * (10 // 2 + 1)) / 3
    _report("criterion 4 (tightness instance, d=10)", time.monotonic() - t0)


def test_criterion_5_cheeger_sandwich():
    t0 = time.monotonic()
    checked = 0
    for d in (6, 8, 10):
        for n in range(d // 2 + 1, 17):
            res = analysis.cheeger_check(graph_at(d, n, SEED))
            assert res.lower - 1e-6 <= float(res.h) <= res.upper + 1e-6
            checked += 1
    _report("criterion 5 (Cheeger sandwich, n <= 16)", time.monotonic() - t0,
            f"graphs={checked}")


def test_criterion_6_mixing():
    t0 = time.monotonic()
    pairs8 = analysis.mixing_suite(grower.bl_expander(6, 1, SEED))
    pairs16 = analysis.mixing_suite(grower.bl_expander(6, 2, SEED))
    assert pairs8 == 6050  # every disjoint nonempty pair on 8 vertices
    assert pairs16 == 10_000
    _report("criterion 6 (mixing lemma)", time.monotonic() - t0,
            f"pairs={pairs8}+{pairs16}")


def test_criterion_7_rayleigh_bound():
    _fresh()
    t0 = time.monotonic()
    res = analysis.rayleigh_lower_bound_check(6, 6, seed=SEED)
    elapsed = time.monotonic() - t0
    assert res.n == 257
    assert res.lambda2 >= 6 / 2 - 0.5
    assert res.quotient <= res.lambda2 + 1e-9
    assert elapsed < 30.0
    _report("criterion 7 (Rayleigh bound at n=257)", elapsed,
            f"lambda2={res.lambda2:.4f} quotient={res.quotient:.4f}")


def _acceptance_script(n_events=200, insert_frac=0.7, rng_seed=2024):
    rng = random.Random(rng_seed)
    events = []
    live = [f"g{i}" for i in range(4)]
    n = 4
    k = 0
    for _ in range(n_events):
        if n > 4 and rng.random() > insert_frac:
            victim = rng.choice(live)
            events.append(DeleteEvent(victim))
            live.remove(victim)
            n -= 1
        else:
            ext = f"n{k:04d}"
            k += 1
            events.append(InsertEvent(ext, tuple(rng.sample(live, min(len(live), 3)))))
            live.append(ext)
            n += 1
    return events


def test_criterion_8_self_healing():
    _fresh()
    t0 = time.monotonic()
    events = _acceptance_script()
    # per-event equality with the reference is asserted inside the harness
    rep1 = run_script(6, SEED, events)
    rep2 = run_script(6, SEED, events)
    elapsed = time.monotonic() - t0
    assert rep1.digest == rep2.digest
    worst_rounds = 0.0
    worst_msgs = 0.0
    for e in rep1.events:
        n_at_event = e["n_after"] + (1 if e["op"] == "delete" else 0)
        budget = math.ceil(math.log2(max(2, n_at_event)))
        assert e["rounds"] <= 6 * budget, e
        assert e["messages"] <= 40 * budget, e
        worst_rounds = max(worst_rounds, e["rounds"] / budget)
        worst_msgs = max(worst_msgs, e["messages"] / budget)
    assert elapsed < 60.0
    _report(
        "criterion 8 (self-healing 200-event script)",
        elapsed,
        f"fitted rounds<={worst_rounds:.1f}*log2(n), "
        f"messages<={worst_msgs:.1f}*log2(n)",
    )


def test_escape_hops_come_from_unmatched_reference_hops(monkeypatch):
    """On the 400-event script at lift seed 1 every escape hop is a
    ``PartnerAnnounce`` with no exclusions whose reference hop no physical
    neighbour carries, never one with no step toward it.  The script is
    the ``simulate-churn`` benchmark's, so its digest is that workload's
    golden one in ``perfbench/golden.json``."""
    real = selfheal.SimNetwork._escape_hop
    escapes = []

    def recorded(net, node, msg):
        escapes.append((type(msg.body), msg.exclude, str(sys.exc_info()[1])))
        return real(net, node, msg)

    monkeypatch.setattr(selfheal.SimNetwork, "_escape_hop", recorded)
    report = run_script(6, SEED, _acceptance_script(400))
    assert report.digest == (
        "4012ec430d7e460ca89b16523e9440819eb468e9f8a8e2db3a363d9e782270d7"
    )
    assert len(escapes) == 26
    for body, exclude, cause in escapes:
        assert body is selfheal.PartnerAnnounce and not exclude
        assert " has no physical neighbor matching " in cause


def test_churn_script_runs_921_route_searches():
    """The ``simulate-churn`` benchmark's 400-event script at lift seed 1,
    from cleared caches, runs one BFS per distinct ``_route_dist`` key: 921.
    A change to how a route is computed must not add a search."""
    _fresh()
    run_script(6, SEED, _acceptance_script(400))
    info = selfheal._route_dist.cache_info()
    assert info.misses == info.currsize == 921


def test_churn_script_of_1000_events_keeps_its_digest():
    """The 1000-event script reaches n = 384 at lift seed 1, past the
    256-vertex boundary, so this pins the harness's scoped checks and
    routing into growth cycle 6."""
    report = run_script(6, SEED, _acceptance_script(1000))
    assert max(e["n_after"] for e in report.events) == 384
    assert report.digest == (
        "dbbb950a59986167543d9fb26a8c9bba4a2fa2ea38cdf2bd30e1020d73490e92"
    )


def test_criterion_9_cli_determinism():
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "expanderseq.cli", "grow", "--d", "6",
           "--n", "64", "--lift-seed", "1"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.decode().splitlines()[0] == "6 64"
    _report("criterion 9 (byte-identical grow output)", time.monotonic() - t0)
