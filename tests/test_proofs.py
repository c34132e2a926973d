"""Tests for the lemma checkers, the two theorem verifiers, trace replay,
and the survey rows of `verify survey`.

Every verifier claim is cross-checked against an independent quantity: exact
eigenvalue counts from the inertia engine, float eigenvalues, or structural
predicates computed directly in the test.
"""

import collections
import dataclasses
import functools
import json
import math
import pathlib
import random

import pytest

from hlspec import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    GenSpec,
    Graph,
    WitnessTrace,
    certify_R_le,
    check_lemma_odd,
    count_at_threshold,
    enumerate_graphs,
    hl_index,
    is_k4_minor_free,
    parse_graph6,
    replay_trace,
    to_graph6,
    trace_from_json_dict,
    verify_theorem_k23,
    verify_theorem_sp,
)
from hlspec import structure
from hlspec.cli import _report_chunk, _verify_rows
from hlspec.proofs import _APPLIES, _EVALUATORS, _c_path, _c_path_lengths, _step
from hlspec.structure import find_k23, k4_minor_free

from named_graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    heawood_graph,
    path_graph,
    petersen_graph,
    prism_graph,
    star_graph,
)
from oracle import (
    brute_force_shaped_unfriendly,
    is_locally_longest_cycle,
    is_unfriendly_side,
    singular_crossing_holds,
)

SQRT2 = math.sqrt(2.0)


def assert_json_safe(obj):
    json.dumps(obj)


# odd-order lemma


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_cycles_pass_odd_lemma(n):
    trace = check_lemma_odd(cycle_graph(n))
    assert trace.verdict == PASS
    assert all(s.ok for s in trace.steps)
    assert certify_R_le(cycle_graph(n), "1").holds


def test_odd_lemma_not_applicable_on_even_or_high_degree():
    assert check_lemma_odd(cycle_graph(6)).verdict == NOT_APPLICABLE
    assert check_lemma_odd(complete_graph(5)).verdict == NOT_APPLICABLE


def test_odd_lemma_sweep_all_subcubic_n7():
    for g in enumerate_graphs(GenSpec(7, connected=True)):
        trace = check_lemma_odd(g)
        assert trace.verdict == PASS
        assert hl_index(g).value <= 1.0 + 1e-9


# trio theorem


def test_k23_theorem_on_k23_itself():
    trace = verify_theorem_k23(complete_bipartite(2, 3))
    assert trace.verdict == PASS
    assert all(s.ok for s in trace.steps)
    assert [s.kind for s in trace.steps] == [
        "degree-le", "k23-present", "unfriendly-shape", "singular-crossing"
    ]
    assert trace.named == {"x1": 0, "x2": 1, "ys": [2, 3, 4], "side_a": [0, 1]}
    assert trace.steps[-1].data == {"side_a": [0, 1], "reason": "twins", "u": 0, "v": 1}


def test_k23_theorem_not_applicable_without_subgraph():
    assert verify_theorem_k23(petersen_graph()).verdict == NOT_APPLICABLE
    assert verify_theorem_k23(cycle_graph(8)).verdict == NOT_APPLICABLE


def test_k23_theorem_not_applicable_on_high_degree():
    assert verify_theorem_k23(complete_bipartite(2, 4)).verdict == NOT_APPLICABLE


def test_k23_theorem_sweep_n8():
    seen_pass = 0
    for g in enumerate_graphs(GenSpec(8, connected=True, filters=("contains-k23",))):
        trace = verify_theorem_k23(g)
        assert trace.verdict == PASS, trace.case
        assert hl_index(g).value <= 1.0 + 1e-9
        seen_pass += 1
    assert seen_pass > 0


def test_k23_theorem_final_bound_is_exact():
    # the last step concludes R <= 1 in integers, from a singular crossing
    # graph with no count, and the exact certificate agrees
    g = complete_bipartite(2, 3)
    final = verify_theorem_k23(g).steps[-1]
    assert (final.kind, final.mode, final.ok) == ("singular-crossing", "combinatorial", True)
    assert certify_R_le(g, "1").holds


def planted_k23_graph(n: int, seed: int) -> Graph:
    """A seeded random subcubic graph on n vertices holding a K2,3, with
    its vertices shuffled."""
    rng = random.Random(seed)
    edges = {(x, y) for x in (0, 1) for y in (2, 3, 4)}
    degree = [3, 3, 2, 2, 2] + [0] * (n - 5)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pairs)
    for u, v in pairs:
        if degree[u] < 3 and degree[v] < 3 and rng.random() < 0.6:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_k23_partition_has_the_argument_shape_at_every_order(monkeypatch):
    # the flip search from side {x1, x2} never moves an end or a trio vertex
    # (the lemma in _k23_trace), so it ends in the argument's shape: on every
    # subcubic class with a K2,3 on n <= 9, where brute force agrees that
    # such a partition exists, and on seeded planted graphs on 15 to 60
    # vertices, past where a walk over every side stays cheap
    flipped = []

    def first_violator(g, a_mask, real=structure._first_violator):
        flipped.append(real(g, a_mask))
        return flipped[-1]

    monkeypatch.setattr(structure, "_first_violator", first_violator)
    graphs = [g for n in range(5, 10) for g in enumerate_graphs(GenSpec(n)) if find_k23(g)]
    planted = [planted_k23_graph(n, seed) for seed, n in enumerate(range(15, 61, 3))]
    moved = 0
    for g in graphs + planted:
        emb = find_k23(g)
        xs, ys = (emb.x1, emb.x2), (emb.y1, emb.y2, emb.y3)
        if g.n <= 9:
            assert brute_force_shaped_unfriendly(g, xs, ys), to_graph6(g)
        flipped.clear()
        trace = verify_theorem_k23(g)
        assert not set(flipped) & {*xs, *ys}, to_graph6(g)
        moved += len(flipped) - flipped.count(None)
        shape = next(s for s in trace.steps if s.kind == "unfriendly-shape")
        side_a = set(shape.data["side_a"])
        assert shape.ok and set(xs) <= side_a and not side_a & set(ys)
        assert is_unfriendly_side(g, side_a)
        assert trace.verdict == PASS and replay_trace(g, trace) is True, to_graph6(g)
    assert moved > 100  # the search does flip vertices outside the five


# series-parallel theorem


def test_sp_theorem_preconditions():
    assert verify_theorem_sp(complete_graph(4)).verdict == NOT_APPLICABLE
    assert verify_theorem_sp(star_graph(4)).verdict == NOT_APPLICABLE
    assert verify_theorem_sp(petersen_graph()).verdict == NOT_APPLICABLE


def test_sp_theorem_base_cases():
    assert verify_theorem_sp(Graph(2, [(0, 1)])).case == "base-n2"
    assert verify_theorem_sp(path_graph(4)).case == "base-n4"
    assert verify_theorem_sp(cycle_graph(6)).case == "cycle"
    assert verify_theorem_sp(cycle_graph(7)).case == "odd-order"
    for g in (Graph(2, [(0, 1)]), path_graph(4), cycle_graph(6), cycle_graph(7)):
        assert verify_theorem_sp(g).verdict == PASS


def test_sp_theorem_cut_vertex_case():
    # two triangles joined at a path: has a cut vertex
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)])
    assert is_k4_minor_free(g)[0]
    trace = verify_theorem_sp(g)
    assert trace.case == "cut-vertex"
    assert trace.verdict == PASS
    kinds = [s.kind for s in trace.steps]
    assert "cut-vertex" in kinds and "interlace-count" in kinds


def test_sp_theorem_two_connected_case():
    # the prism contracts to K4 (one triangle to a vertex), so sp does not apply
    g = prism_graph()
    assert not is_k4_minor_free(g)[0]
    assert verify_theorem_sp(g).verdict == NOT_APPLICABLE
    # a 2-connected k4-minor-free example: C6 plus a long chord path
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    trace = verify_theorem_sp(h)
    assert trace.case == "two-connected"
    assert trace.verdict == PASS


def test_sp_theorem_disconnected_uses_children():
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    assert trace.case == "components"
    assert trace.verdict == PASS
    assert len(trace.children) == 3
    for child in trace.children:
        assert "host-vertices" in child.named


def test_sp_theorem_sweep_n8():
    cases = {}
    for g in enumerate_graphs(GenSpec(8, connected=True, filters=("k4-minor-free",))):
        trace = verify_theorem_sp(g)
        assert trace.verdict == PASS, (g.edges(), trace.case)
        cases[trace.case] = cases.get(trace.case, 0) + 1
        assert certify_R_le(g, "1").holds
    assert "cut-vertex" in cases
    assert "two-connected" in cases


def test_sp_theorem_interlacing_steps_discharge_deleted_bounds():
    # the deletion bound plus interlacing must dominate the final median claim
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    trace = verify_theorem_sp(g)
    inter = [s for s in trace.steps if s.kind == "interlace-count"]
    assert inter
    assert all(s.mode == "exact" for s in inter)
    # n = 8: h = 4, l = 5, so at most h - 1 = 3 above 1 and n - l = 3 below -1
    assert [(s.data["which"], s.data["threshold"], s.data["bound"]) for s in inter] == [
        ("above", "1", 3), ("below", "-1", 3)
    ]
    deleted = {"kind": "delete", "vertices": inter[0].data["deleted"]}
    for step in inter:
        bound = next(
            s for s in trace.steps
            if s.kind == "count-le" and s.data["subject"] == deleted
            and s.data["which"] == step.data["which"]
        )
        # the deletion's own bound plus |A| = 2 is exactly the median bound
        assert bound.data["bound"] + 2 == step.data["bound"]


# the two-connected case's locally longest cycle


def test_locally_longest_cycle_step_matches_the_networkx_oracle():
    # every cycle of every two-connected connected K4-minor-free subcubic
    # class up to n = 10, two-connectedness decided by networkx
    nx = pytest.importorskip("networkx")
    evaluate = _EVALUATORS["locally-longest-cycle"][0]
    verdicts = collections.Counter()
    for n in range(3, 11):
        for g in enumerate_graphs(GenSpec(n, connected=True, filters=("k4-minor-free",))):
            if not nx.is_biconnected(nx.Graph(g.edges())):
                continue
            for cycle in nx.simple_cycles(nx.Graph(g.edges())):
                want = is_locally_longest_cycle(g, cycle)
                assert evaluate(g, {"cycle": cycle}) is want, (g.edges(), cycle)
                verdicts[want] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100


def test_c_path_keeps_its_interior_off_the_cycle():
    # C6 with the chord 0-2 and the path 0-7-6-4, 6 also adjacent to 2: from
    # 6, both 7 and the cycle vertex 2 are one step from 0, and only 7 may be
    # on a C-path
    g = Graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (0, 7), (7, 6), (6, 2), (6, 4)])
    cycle = list(range(6))
    assert _c_path(g, cycle, _c_path_lengths(g, cycle)[0], 4) == [4, 6, 7, 0]


def ear_built(n: int, rng: random.Random) -> Graph:
    """A two-connected K4-minor-free subcubic graph on n vertices that is not
    a cycle: a cycle, then ears joining the two ends of an edge whose ends
    both have degree 2 (at least one ear), and edges subdivided.  Both
    operations are series-parallel, so no K4 minor arises."""
    k = rng.randint(3, n // 2)
    adj = {v: {(v - 1) % k, (v + 1) % k} for v in range(k)}
    ears = 0
    while len(adj) < n:
        free = sorted((x, y) for x in adj for y in adj[x]
                      if x < y and len(adj[x]) == len(adj[y]) == 2)
        if free and (not ears or rng.random() < 0.5):
            x, y = rng.choice(free)
            inner = rng.randint(1, min(3, n - len(adj)))
            path, ears = [x, *range(len(adj), len(adj) + inner), y], ears + 1
        else:
            x = rng.choice(sorted(adj))
            y = rng.choice(sorted(adj[x]))
            adj[x].discard(y)
            adj[y].discard(x)
            path = [x, len(adj), y]
        for a, b in zip(path, path[1:]):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return Graph(n, [(u, v) for u in adj for v in adj[u] if u < v])


def test_sp_passes_and_replays_on_ear_built_two_connected_graphs():
    # 40 seeded instances at even n = 14..40, most above n = 20
    rng = random.Random(2201)
    for _ in range(40):
        g = ear_built(rng.randrange(14, 41, 2), rng)
        assert g.max_degree() <= 3 and k4_minor_free(g)
        trace = verify_theorem_sp(g)
        assert (trace.case, trace.verdict) == ("two-connected", PASS), g.edges()
        assert replay_trace(g, trace) is True


def test_replay_rejects_a_cycle_that_is_not_locally_longest():
    # C8 with the ear 0-8-9-4: the outer 8-cycle is locally longest, and
    # neither 7-cycle through the ear is (the other half of the C8, 4 edges,
    # is a C-path longer than the ear's 3)
    nx = pytest.importorskip("networkx")
    g = Graph(10, [(i, (i + 1) % 8) for i in range(8)] + [(0, 8), (8, 9), (9, 4)])
    trace = verify_theorem_sp(g)
    assert trace.verdict == PASS and replay_trace(g, trace) is True
    cycle = trace.named["cycle"]
    other = next(c for c in nx.simple_cycles(nx.Graph(g.edges()))
                 if not is_locally_longest_cycle(g, c))
    doc = json.loads(json.dumps(trace.to_json_dict()).replace(str(cycle), str(other)))
    forged = trace_from_json_dict(doc)
    assert forged.named["cycle"] == other
    assert [s.ok for s in forged.steps if s.kind == "cycle-in-graph"] == [True]
    assert replay_trace(g, forged) is False


# replay


def sample_traces():
    yield cycle_graph(6), verify_theorem_sp(cycle_graph(6))
    yield complete_bipartite(2, 3), verify_theorem_k23(complete_bipartite(2, 3))
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    yield g, verify_theorem_sp(g)
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    yield h, verify_theorem_sp(h)
    yield cycle_graph(5), check_lemma_odd(cycle_graph(5))


def test_replay_accepts_genuine_traces():
    for g, trace in sample_traces():
        assert replay_trace(g, trace) is True


def test_replay_rejects_wrong_graph():
    # the odd-order child's parity claim cannot hold on an even cycle
    trace = verify_theorem_sp(cycle_graph(5))
    assert replay_trace(cycle_graph(5), trace) is True
    assert replay_trace(cycle_graph(6), trace) is False
    # and a missing edge flips the K2,3's presence
    k23_trace = verify_theorem_k23(complete_bipartite(2, 3))
    pruned = Graph(5, [e for e in complete_bipartite(2, 3).edges() if e != (0, 2)])
    assert replay_trace(pruned, k23_trace) is False


def test_replay_rejects_flipped_outcome():
    g, trace = next(sample_traces())
    step = trace.steps[0]
    forged = dataclasses.replace(step, ok=not step.ok)
    tampered = dataclasses.replace(trace, steps=(forged,) + trace.steps[1:])
    assert replay_trace(g, tampered) is False


def test_replay_rejects_tampered_bound():
    g = complete_bipartite(2, 3)
    trace = verify_theorem_k23(g)
    idx = next(i for i, s in enumerate(trace.steps) if s.kind == "degree-le")
    step = trace.steps[idx]
    forged = dataclasses.replace(step, data={**step.data, "bound": 2})
    steps = trace.steps[:idx] + (forged,) + trace.steps[idx + 1 :]
    assert replay_trace(g, dataclasses.replace(trace, steps=steps)) is False


def test_replay_rejects_tampered_child_host():
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    child = next(c for c in trace.children if c.named["host-vertices"] == [0, 1, 2])
    # growing the host to even order breaks the odd-order parity claim inside
    forged_named = {**child.named, "host-vertices": [0, 1, 2, 3]}
    forged = dataclasses.replace(child, named=forged_named)
    children = tuple(forged if c is child else c for c in trace.children)
    tampered = dataclasses.replace(trace, children=children)
    assert replay_trace(g, tampered) is False


# forged pass verdicts: each step replays as recorded, but the verdict does
# not follow from the steps


def test_replay_rejects_pass_without_steps():
    forged = WitnessTrace("series-parallel-bound", "cycle", {}, (), PASS)
    assert replay_trace(heawood_graph(), forged) is False


def test_replay_rejects_pass_with_a_failed_step():
    g = heawood_graph()
    # R(Heawood) = sqrt2: the certificate honestly fails, and replays as failed
    failed = verify_theorem_sp(cycle_graph(6)).steps[-1]
    forged = WitnessTrace("series-parallel-bound", "cycle", {}, (
        dataclasses.replace(failed, ok=False),
    ), PASS)
    assert forged.steps[0].kind == "certify-r-le" and not certify_R_le(g, "1").holds
    assert replay_trace(g, forged) is False
    # Heawood has a K4 minor, so the theorem does not apply: even the fail
    # verdict that the failed step supports does not replay there
    assert replay_trace(g, dataclasses.replace(forged, verdict=FAIL)) is False
    # on a host the theorem covers, R(C6) = 1 > 1/2: the step honestly
    # fails, and replays as failed under a fail verdict but not a pass
    half = dataclasses.replace(failed, data={**failed.data, "bound": "1/2"}, ok=False)
    forged_half = dataclasses.replace(forged, steps=(half,))
    assert replay_trace(cycle_graph(6), dataclasses.replace(forged_half, verdict=FAIL)) is True
    assert replay_trace(cycle_graph(6), forged_half) is False
    # the same on a genuine trace: a true extra step replays, a false one not
    h = cycle_graph(6)
    trace = verify_theorem_sp(h)
    for bound, verdict in ((2, True), (1, False)):
        extra = dataclasses.replace(
            trace.steps[0], data={**trace.steps[0].data, "bound": bound}, ok=verdict
        )
        steps = (extra,) + trace.steps
        assert replay_trace(h, dataclasses.replace(trace, steps=steps)) is verdict


def test_replay_rejects_a_threshold_it_cannot_count():
    # 1e4400 parses as a Fraction, but its count's token has more digits than
    # str() of an int may: the forged cut-vertex trace replays False, alone
    # and in a batch, and the honest traces it is batched with still replay
    from hlspec.proofs import _replay_traces

    g = parse_graph6("I???FAW`_")
    trace = verify_theorem_sp(g)
    assert (g.n, trace.case, trace.verdict) == (10, "cut-vertex", PASS)
    i = next(i for i, s in enumerate(trace.steps) if s.kind == "count-le")
    huge = dataclasses.replace(trace.steps[i], data={**trace.steps[i].data, "threshold": "1e4400"})
    forged = dataclasses.replace(trace, steps=trace.steps[:i] + (huge,) + trace.steps[i + 1 :])
    assert replay_trace(g, forged) is False
    honest = [(h, verify_theorem_sp(h)) for h in (cycle_graph(6), g)]
    assert _replay_traces([honest[0], (g, forged), honest[1]]) == [True, False, True]


def test_replay_rejects_sp_trace_on_a_host_with_a_k4_minor():
    # every step of this base-n4 trace holds on K4 and it ends in the exact
    # R <= 1 claim, but K4 is its own K4 minor: verify_theorem_sp says
    # not-applicable, so a pass (or a fail) is a forgery
    g = complete_graph(4)
    full = {"kind": "full"}
    base = verify_theorem_sp(cycle_graph(4))
    assert base.case == "base-n4"
    assert [(s.kind, s.data) for s in base.steps] == [
        ("degree-le", {"subject": full, "bound": 3}),
        ("certify-r-le", {"subject": full, "bound": "1"}),
    ]
    assert certify_R_le(g, "1").holds and verify_theorem_sp(g).verdict == NOT_APPLICABLE
    forged = WitnessTrace("series-parallel-bound", "base-n4", {}, base.steps, PASS)
    assert replay_trace(g, forged) is False
    assert replay_trace(g, dataclasses.replace(forged, verdict=FAIL)) is False
    assert replay_trace(g, verify_theorem_sp(g)) is True
    # and above max degree 3, with no K4 minor
    star = star_graph(4)
    assert star.max_degree() == 4
    star_steps = (dataclasses.replace(
        base.steps[1], ok=certify_R_le(star, "1").holds
    ),)
    assert replay_trace(star, WitnessTrace(
        "series-parallel-bound", "cut-vertex", {}, star_steps, PASS
    )) is False
    assert replay_trace(star, verify_theorem_sp(star)) is True


def test_replay_rejects_not_applicable_sp_trace_where_it_applies():
    # C6 is subcubic and K4-minor-free, so the sp theorem applies to it
    forged = WitnessTrace("series-parallel-bound", "precondition", {}, (), NOT_APPLICABLE)
    assert replay_trace(cycle_graph(6), forged) is False
    # an sp child claiming not-applicable on a component that meets the
    # precondition is caught as well
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    child = dataclasses.replace(
        forged, named={"host-vertices": trace.children[0].named["host-vertices"]}
    )
    assert replay_trace(g, dataclasses.replace(
        trace, children=(child,) + trace.children[1:], verdict=FAIL
    )) is False
    # the genuine not-applicable traces still replay: no vertices, a K4
    # minor, max degree above 3
    for host in (Graph(0), complete_graph(4), star_graph(4)):
        trace = verify_theorem_sp(host)
        assert trace.verdict == NOT_APPLICABLE and replay_trace(host, trace) is True


def test_replay_rejects_k23_and_odd_order_traces_where_they_do_not_apply():
    # the full-graph R <= 1 step holds on C6 and is each theorem's exact
    # claim, but C6 has no K2,3 subgraph and even order: both verifiers say
    # not-applicable there, so a pass (or a fail) is a forgery
    g = cycle_graph(6)
    certify = verify_theorem_sp(g).steps[-1]
    assert (certify.kind, certify.data, certify.ok) == (
        "certify-r-le", {"subject": {"kind": "full"}, "bound": "1"}, True
    )
    assert verify_theorem_k23(g).verdict == NOT_APPLICABLE
    assert check_lemma_odd(g).verdict == NOT_APPLICABLE
    for theorem, case in (("k23-bound", "k23"), ("odd-order", "odd-order")):
        forged = WitnessTrace(theorem, case, {}, (certify,), PASS)
        assert replay_trace(g, forged) is False, theorem
        assert replay_trace(g, dataclasses.replace(forged, verdict=FAIL)) is False, theorem
    # above max degree 3 neither theorem applies, K2,3 or odd order or not
    for host in (complete_graph(5), complete_bipartite(2, 4)):
        assert host.max_degree() > 3
        for theorem, case in (("k23-bound", "k23"), ("odd-order", "odd-order")):
            step = dataclasses.replace(certify, ok=certify_R_le(host, "1").holds)
            assert replay_trace(host, WitnessTrace(theorem, case, {}, (step,), PASS)) is False


def test_replay_rejects_not_applicable_k23_and_odd_order_traces_where_they_apply():
    # K2,3 is subcubic, contains itself and has odd order, so both apply
    g = complete_bipartite(2, 3)
    assert verify_theorem_k23(g).verdict == PASS and check_lemma_odd(g).verdict == PASS
    for theorem in ("k23-bound", "odd-order"):
        forged = WitnessTrace(theorem, "precondition", {}, (), NOT_APPLICABLE)
        assert replay_trace(g, forged) is False, theorem
    # a forged not-applicable odd-order child of an sp trace is caught too
    c5 = cycle_graph(5)
    trace = verify_theorem_sp(c5)
    assert trace.case == "odd-order" and trace.children[0].theorem == "odd-order"
    child = WitnessTrace("odd-order", "precondition", {}, (), NOT_APPLICABLE)
    assert replay_trace(c5, dataclasses.replace(trace, children=(child,), verdict=FAIL)) is False
    # the genuine not-applicable traces still replay: even order, no K2,3,
    # max degree above 3, no vertices
    for host in (Graph(0), cycle_graph(6), complete_graph(5), star_graph(4)):
        for check in (verify_theorem_k23, check_lemma_odd):
            trace = check(host)
            assert trace.verdict == NOT_APPLICABLE and replay_trace(host, trace) is True


def test_replay_rejects_not_found_k23_traces():
    # the k23 verifier always builds its partition, so no verdict says it
    # found none: not on K2,3, which has a K2,3 subgraph, nor on C6, which
    # has none
    trace = WitnessTrace("k23-bound", "partition-search", {}, (), "not-found")
    for g in (complete_bipartite(2, 3), cycle_graph(6)):
        assert replay_trace(g, trace) is False


def test_replay_rejects_not_applicable_twins_traces_where_they_apply():
    # no verifier emits the twins theorem, so no twins trace replays: not a
    # not-applicable one on C4, which has twins, nor a pass whose last step
    # is the true exact claim R = 0
    c4 = cycle_graph(4)
    zero = _step(c4, "both median eigenvalues are exactly zero", "certify-r-le",
                 {"subject": {"kind": "full"}, "bound": "0"})
    assert zero.ok and zero.mode == "exact"
    for forged in (WitnessTrace("twins", "no-twins", {}, (), NOT_APPLICABLE),
                   WitnessTrace("twins", "bipartite", {}, (zero,), PASS)):
        assert replay_trace(c4, forged) is False, forged.verdict


def test_replay_rejects_unknown_theorems_and_verdicts():
    # every step of both forgeries holds on C6, and the first even ends in
    # the exact R <= 1 claim; but no verifier emits that theorem, and no
    # verdict is "bogus"
    c6 = cycle_graph(6)
    certify = verify_theorem_sp(c6).steps[-1]
    assert certify.kind == "certify-r-le" and certify.ok
    made_up = WitnessTrace("made-up", "any", {}, (certify,), PASS)
    assert replay_trace(c6, made_up) is False
    bogus = WitnessTrace("series-parallel-bound", "x", {}, (), "bogus")
    assert replay_trace(c6, bogus) is False
    # a theorem that is not a string, as a hand-edited witness may carry
    listed = trace_from_json_dict({**bogus.to_json_dict(), "theorem": ["odd-order"], "verdict": PASS})
    assert replay_trace(c6, listed) is False
    # a child with a bogus verdict sinks its parent
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    assert trace.case == "components" and replay_trace(g, trace) is True
    child = dataclasses.replace(trace.children[0], verdict="bogus")
    forged = dataclasses.replace(trace, children=(child,) + trace.children[1:])
    assert replay_trace(g, forged) is False


def test_witness_schema_enums_match_what_replay_accepts():
    schema = json.loads(
        pathlib.Path(__file__).resolve().parent.parent.joinpath(
            "schemas", "witness-trace.schema.json"
        ).read_text()
    )
    assert set(schema["properties"]["theorem"]["enum"]) == set(_APPLIES)
    assert set(schema["properties"]["verdict"]["enum"]) == {PASS, FAIL, NOT_APPLICABLE}
    # a renamed step kind fails schema validation, not just replay
    kinds = schema["properties"]["steps"]["items"]["properties"]["kind"]["enum"]
    assert len(kinds) == len(set(kinds)) and set(kinds) == set(_EVALUATORS)


def test_replay_rejects_a_size_parity_set_with_a_repeated_vertex():
    # two triangles joined by a path: the cut-vertex case's remainder has
    # even order; naming one vertex twice is not an even set
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)])
    trace = verify_theorem_sp(g)
    assert trace.case == "cut-vertex" and replay_trace(g, trace) is True
    steps = list(trace.steps)
    i = next(i for i, s in enumerate(steps) if s.statement == "remainder has even order")
    steps[i] = dataclasses.replace(steps[i], data={"vertices": [1, 1], "parity": "even"})
    assert replay_trace(g, dataclasses.replace(trace, steps=tuple(steps))) is False


def test_replay_rejects_fail_whose_steps_and_children_hold():
    # a pass flipped to fail: every step still re-evaluates as ok and every
    # child still passes, so nothing the trace records makes it fail
    for g, trace in sample_traces():
        assert trace.verdict == PASS
        assert replay_trace(g, dataclasses.replace(trace, verdict=FAIL)) is False
    # a fail replays when a child did not pass: the triangle's child trace
    # gains a step that honestly fails, so it and its parent fail
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    child = trace.children[0]
    assert child.named["host-vertices"] == [0, 1, 2] and child.steps[0].kind == "degree-le"
    false_step = dataclasses.replace(
        child.steps[0], data={**child.steps[0].data, "bound": 1}, ok=False
    )
    failed = dataclasses.replace(child, steps=child.steps + (false_step,), verdict=FAIL)
    children = (failed,) + trace.children[1:]
    assert replay_trace(g, dataclasses.replace(trace, children=children, verdict=FAIL)) is True
    assert replay_trace(g, dataclasses.replace(trace, children=children)) is False


def test_replay_rejects_pass_cut_to_its_first_step():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    trace = verify_theorem_sp(g)
    assert trace.verdict == PASS and replay_trace(g, trace) is True
    for cut in range(1, len(trace.steps)):
        assert replay_trace(g, dataclasses.replace(trace, steps=trace.steps[:cut])) is False


def test_replay_rejects_components_trace_missing_a_component():
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    assert trace.case == "components" and replay_trace(g, trace) is True
    for drop in range(len(trace.children)):
        children = trace.children[:drop] + trace.children[drop + 1 :]
        assert replay_trace(g, dataclasses.replace(trace, children=children)) is False
    # children must be runs of the same theorem
    other = dataclasses.replace(trace.children[0], theorem="odd-order")
    children = (other,) + trace.children[1:]
    assert replay_trace(g, dataclasses.replace(trace, children=children)) is False


# malformed traces: replay answers False rather than raising


def replace_step(trace, idx, data):
    forged = dataclasses.replace(trace.steps[idx], data=data)
    return dataclasses.replace(trace, steps=trace.steps[:idx] + (forged,) + trace.steps[idx + 1 :])


def test_replay_rejects_a_singular_crossing_whose_sides_meet_in_more_than_a_matching():
    # with trio vertex 2 on the ends' side, the ends are still twins in the
    # crossing graph, but 2 has both ends as own-side neighbours
    g = complete_bipartite(2, 3)
    trace = verify_theorem_k23(g)
    idx = next(i for i, s in enumerate(trace.steps) if s.kind == "singular-crossing")
    data = trace.steps[idx].data
    tampered = replace_step(trace, idx, {**data, "side_a": [0, 1, 2]})
    assert replay_trace(g, trace) is True and replay_trace(g, tampered) is False


def test_replay_rejects_step_missing_its_bound():
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)])
    trace = verify_theorem_sp(g)
    bounded = [i for i, s in enumerate(trace.steps) if "bound" in s.data]
    assert {trace.steps[i].kind for i in bounded} == {
        "degree-le", "count-le", "interlace-count", "certify-r-le"
    }
    for idx in bounded:
        data = {k: v for k, v in trace.steps[idx].data.items() if k != "bound"}
        assert replay_trace(g, replace_step(trace, idx, data)) is False


def test_replay_rejects_child_host_out_of_range():
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    trace = verify_theorem_sp(g)
    assert trace.case == "components"
    # every child passes, so a fail verdict does not follow either
    assert replay_trace(g, dataclasses.replace(trace, verdict=FAIL)) is False
    for child in trace.children:
        host = child.named["host-vertices"]
        for bad in ([g.n + i for i in range(len(host))], host + [g.n], [-1] + host[1:]):
            forged = dataclasses.replace(child, named={**child.named, "host-vertices": bad})
            children = tuple(forged if c is child else c for c in trace.children)
            for verdict in (PASS, FAIL):
                tampered = dataclasses.replace(trace, children=children, verdict=verdict)
                assert replay_trace(g, tampered) is False, (bad, verdict)


def test_replay_rejects_steps_naming_vertices_the_host_lacks():
    # each forged step names a value that is no vertex of the host; read as
    # a negative index or dropped, it would let the step hold, so replay
    # must reject it instead
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    two_connected = verify_theorem_sp(h)
    assert two_connected.case == "two-connected"
    forgeries = []
    for kind, data in (
        ("vertex-in-set", {"vertex": 99, "vertices": [99]}),
        ("set-partition", {"parts": [[99], [-5]], "deleted": [99, -5]}),
        ("no-cross-edges", {"set_a": [99], "set_b": [-5]}),
    ):
        idx = next(i for i, s in enumerate(two_connected.steps) if s.kind == kind)
        forgeries.append((h, replace_step(two_connected, idx, data)))
    k = complete_bipartite(2, 3)
    k23 = verify_theorem_k23(k)
    idx = next(i for i, s in enumerate(k23.steps) if s.kind == "singular-crossing")
    data = k23.steps[idx].data
    forgeries += [(k, replace_step(k23, idx, {**data, "u": data["u"] - k.n})),
                  (k, replace_step(k23, idx, {**data, "side_a": data["side_a"] + [99]}))]
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)])
    cut = verify_theorem_sp(g)
    assert cut.case == "cut-vertex"
    idx = next(i for i, s in enumerate(cut.steps)
               if s.kind == "count-le" and s.data["subject"]["kind"] == "induced")
    data = cut.steps[idx].data
    subject = {**data["subject"], "vertices": data["subject"]["vertices"] + [99]}
    forgeries.append((g, replace_step(cut, idx, {**data, "subject": subject})))
    for host, trace in (h, two_connected), (k, k23), (g, cut):
        assert replay_trace(host, trace) is True
    for host, forged in forgeries:
        assert replay_trace(host, forged) is False, forged.case


def test_replay_rejects_degenerate_vertex_pairs():
    # a vertex is not a cycle position apart from itself, nor its own twin,
    # nor two of a K2,3's five vertices: each forgery names one vertex twice
    # where the step claims distinct ones
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    k = parse_graph6("F?re_")  # n = 7, with a K2,3
    sp, k23 = verify_theorem_sp(h), verify_theorem_k23(k)
    assert (sp.case, k23.case) == ("two-connected", "k23")
    forgeries = []
    for g, trace, kind in ((h, sp, "not-consecutive-on-cycle"), (k, k23, "singular-crossing")):
        assert trace.verdict == PASS and replay_trace(g, trace) is True
        idx = next(i for i, s in enumerate(trace.steps) if s.kind == kind)
        data = trace.steps[idx].data
        same = data["cycle"][0] if kind == "not-consecutive-on-cycle" else data["u"]
        forgeries.append((g, replace_step(trace, idx, {**data, "u": same, "v": same})))
    idx = next(i for i, s in enumerate(k23.steps) if s.kind == "k23-present")
    data = k23.steps[idx].data
    x1, (y1, y2, _) = data["x1"], data["ys"]
    forgeries += [(k, replace_step(k23, idx, {**data, "x2": x1})),
                  (k, replace_step(k23, idx, {**data, "ys": [y1, y2, y1]}))]
    for g, forged in forgeries:
        assert replay_trace(g, forged) is False, forged.theorem


def test_replay_rejects_forged_singular_crossing_steps():
    # K2,3 with a pendant on a trio vertex (even order) and C5 (odd): each
    # forgery makes the step's claim false or leaves it unreadable, and
    # replay answers False without raising (sides that meet in more than a
    # matching have a test of their own, above)
    k = Graph(6, [(x, y) for x in (0, 1) for y in (2, 3, 4)] + [(4, 5)])
    c5 = cycle_graph(5)
    k23, odd = verify_theorem_k23(k), check_lemma_odd(c5)
    twins, parity = k23.steps[-1].data, odd.steps[-1].data
    assert twins == {"side_a": [0, 1, 5], "reason": "twins", "u": 0, "v": 1}
    assert parity["reason"] == "odd" and set(parity) == {"side_a", "reason"}
    forgeries = [
        (k, k23, {**twins, "reason": "odd"}),  # n = 6
        (k, k23, {**twins, "v": 2}),  # the end and a trio vertex differ in C
        (k, k23, {**twins, "v": 0}),  # u == v
        (c5, odd, {**parity, "reason": "twins", "u": 0, "v": 0}),
        *((k, k23, {**twins, "reason": reason}) for reason in ("split", "null-vector", None)),
        *((k, k23, {key: value for key, value in twins.items() if key != drop}) for drop in twins),
        *((c5, odd, {key: value for key, value in parity.items() if key != drop})
          for drop in parity),
    ]
    assert replay_trace(k, k23) is True and replay_trace(c5, odd) is True
    for g, trace, data in forgeries:
        assert replay_trace(g, replace_step(trace, len(trace.steps) - 1, data)) is False, data


def test_singular_crossing_agrees_with_the_sympy_oracle():
    # every k23 and lemma-odd witness on at most 8 vertices, and seeded
    # mutations of its singular-crossing step (reason odd at even order, v
    # swapped for a trio vertex, a vertex of side a moved across), each kept
    # recorded as holding: the independent checker and replay agree on all
    rng = random.Random(34)
    agreed = collections.Counter()
    for n in range(1, 9):
        for g in enumerate_graphs(GenSpec(n)):
            for trace in (verify_theorem_k23(g), check_lemma_odd(g)):
                if trace.verdict == NOT_APPLICABLE:
                    continue
                last = len(trace.steps) - 1
                data = trace.steps[last].data
                cases = [data]
                if data["reason"] == "twins":
                    cases.append({**data, "v": rng.choice(trace.named["ys"])})
                    if n % 2 == 0:
                        cases.append({**data, "reason": "odd"})
                if data["side_a"]:
                    moved = rng.choice(data["side_a"])
                    cases.append({**data, "side_a": [v for v in data["side_a"] if v != moved]})
                for case in cases:
                    holds = singular_crossing_holds(g, case)
                    assert replay_trace(g, replace_step(trace, last, case)) is holds, (
                        to_graph6(g), case)
                    agreed[trace.theorem, case is data, holds] += 1
    assert agreed["k23-bound", True, True] == 62 and agreed["odd-order", True, True] > 0
    assert not agreed["k23-bound", True, False] and not agreed["odd-order", True, False]
    assert agreed["k23-bound", False, False] > 0 and agreed["odd-order", False, True] > 0


def test_replay_ties_set_partition_to_the_deleted_pair():
    # the parts must partition the host less the pair the trace deletes, not
    # whatever set the step itself names
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    trace = verify_theorem_sp(h)
    idx = next(i for i, s in enumerate(trace.steps) if s.kind == "set-partition")
    data = trace.steps[idx].data
    x, v = data["deleted"]
    assert sorted(w for p in data["parts"] for w in p) == sorted(set(range(8)) - {x, v})
    assert replay_trace(h, trace) is True
    for forged in (
        {"parts": [[0], [1]], "whole": [0, 1]},
        {"parts": [[0], [1]], "deleted": [x, v]},
        {"parts": data["parts"], "deleted": [x, x]},
        {"parts": data["parts"], "deleted": [x]},
        {"parts": data["parts"][:1], "deleted": [x, v]},
        {"parts": [data["parts"][0], data["parts"][0] + data["parts"][1]], "deleted": [x, v]},
        {"parts": data["parts"], "deleted": [data["parts"][0][0], v]},
    ):
        assert replay_trace(h, replace_step(trace, idx, forged)) is False, forged


def test_verify_emits_every_theorem_and_step_kind_replay_knows():
    # replay accepts exactly what the verifiers behind `verify` emit: the
    # theorems and step kinds of sp, k23 and lemma-odd, children included,
    # over every subcubic class with n <= 8, are all of _APPLIES and
    # _EVALUATORS, so nothing replay-only survives unreached
    theorems, kinds = set(), set()

    def collect(trace):
        theorems.add(trace.theorem)
        kinds.update(s.kind for s in trace.steps)
        for child in trace.children:
            collect(child)

    for n in range(1, 9):
        for g in enumerate_graphs(GenSpec(n)):
            for check in (verify_theorem_sp, verify_theorem_k23, check_lemma_odd):
                collect(check(g))
    assert theorems == set(_APPLIES)
    assert kinds == set(_EVALUATORS)


def test_count_steps_check_their_inequalities_exactly():
    # each interlace-count step holds exactly up to the count it names plus
    # the deleted vertices, worked out here from induced_delete and the exact
    # kernel: a bound at the sum passes, one below it fails
    from hlspec.graph_core import induced_delete
    from hlspec.proofs import _EVALUATORS

    def tail(sub, threshold, which):
        return getattr(count_at_threshold(sub, threshold), which)

    seen = collections.Counter()
    for n in range(5, 9):
        for g in enumerate_graphs(GenSpec(n, connected=True)):
            for step in verify_theorem_sp(g).steps:
                if step.kind != "interlace-count":
                    continue
                data = step.data
                sub, _ = induced_delete(g, data["deleted"])
                total = tail(sub, data["threshold"], data["which"]) + len(data["deleted"])
                check = _EVALUATORS[step.kind][0]
                assert total <= data["bound"] and step.ok
                assert check(g, {**data, "bound": total})
                assert not check(g, {**data, "bound": total - 1})
                assert not check(g, {**data, "which": "at", "bound": g.n})
                seen[step.kind] += 1
    assert seen["interlace-count"] > 0


def test_verifiers_and_replay_compute_no_float_spectrum(monkeypatch):
    import hlspec.spectra as spectra

    kernel = spectra._adjacency_facts

    def no_floats(graphs, with_spectrum=False):
        assert not with_spectrum, "a float spectrum was computed"
        return kernel(graphs, with_spectrum)

    monkeypatch.setattr(spectra, "_adjacency_facts", no_floats)
    checkers = (verify_theorem_sp, verify_theorem_k23, check_lemma_odd)
    verdicts = collections.Counter()
    for n in range(1, 9):
        for g in enumerate_graphs(GenSpec(n)):
            for check in checkers:
                trace = check(g)
                assert replay_trace(g, trace) is True, (check.__name__, to_graph6(g))
                verdicts[check.__name__, trace.verdict] += 1
    assert verdicts["verify_theorem_sp", PASS] > 0 and verdicts["verify_theorem_k23", PASS] > 0
    assert not any(v == FAIL for _, v in verdicts)


def test_reading_a_pending_step_raises():
    # a verifier builds every exact step pending, so no verifier can branch
    # on a count; settling fills in each outcome and verdict
    from hlspec.proofs import _k23_trace, _odd_trace, _settle, _sp_trace

    exact = collections.Counter()
    for n in range(1, 8):
        for g in enumerate_graphs(GenSpec(n)):
            for build, verify in ((_sp_trace, verify_theorem_sp), (_k23_trace, verify_theorem_k23),
                                  (_odd_trace, check_lemma_odd)):
                trace = build(g)
                nodes = [trace]
                for t in nodes:
                    nodes += t.children
                    for step in t.steps:
                        if step.mode == "exact":
                            with pytest.raises(ValueError, match="settled"):
                                step.ok
                            exact[step.kind] += 1
                    if vars(t)["verdict"] is None:  # a pass or fail waits for the counts
                        with pytest.raises(ValueError, match="settled"):
                            t.verdict
                        exact["verdict"] += 1
                _settle([(g, trace)])
                assert trace == verify(g), to_graph6(g)
    assert set(exact) == {"count-le", "certify-r-le", "interlace-count", "verdict"}


def test_k23_traces_equal_the_cli_chunk_witnesses():
    # verify_theorem_k23 settles one graph; `verify k23 --witness` settles
    # whole chunks together: the traces are the same on every subcubic
    # class with a K2,3 on at most 8 vertices
    from hlspec.cli import _map_tasks

    rows = functools.partial(_verify_rows, "k23", True, False)
    classes = [g for n in range(5, 9) for g in enumerate_graphs(GenSpec(n, filters=("contains-k23",)))]
    tasks = [(i, to_graph6(g)) for i, g in enumerate(classes, start=1)]
    reports = list(_map_tasks(functools.partial(_report_chunk, rows, math.inf), tasks, 1))
    assert len(reports) == len(classes) == 62  # in chunks of 1, 2, 4, 8, 16 and 31
    verdicts = collections.Counter()
    for g, rep in zip(classes, reports):
        trace = verify_theorem_k23(Graph(g.n, g.edges()))
        assert rep["witness"] == trace.to_json_dict(), to_graph6(g)
        verdicts[trace.verdict] += 1
    assert verdicts[PASS] > 0


def test_replay_recomputes_every_count(monkeypatch):
    import collections

    import hlspec.spectra as spectra

    calls: collections.Counter = collections.Counter()
    kernel, prime = spectra._adjacency_facts, spectra.prime

    def counting_kernel(graphs, with_spectrum=False):
        for g in graphs:
            calls["charpoly", g.n, tuple(g.edges())] += 1
        return kernel(graphs, with_spectrum)

    def counting_prime(graphs, counts=()):
        # prime counts each (graph, threshold) once per call, graphs by identity
        counts = list(counts)
        for g, t in {(id(g), t): (g, t) for g, t in counts}.values():
            calls["inertia", g.n, tuple(g.edges()), t] += 1
        return prime(graphs, counts)

    monkeypatch.setattr(spectra, "_adjacency_facts", counting_kernel)
    monkeypatch.setattr(spectra, "prime", counting_prime)
    classes = enumerate_graphs(GenSpec(n=8, connected=True, filters=("k4-minor-free",)))
    graphs = [g for g, _ in sample_traces()] + classes[:40]
    for shared in graphs:
        g = Graph(shared.n, shared.edges())  # no facts from earlier tests
        calls.clear()
        trace = verify_theorem_sp(g)
        by_verifier = collections.Counter(calls)
        calls.clear()
        # g still holds every fact the verifier computed; replay reads none
        assert replay_trace(g, trace) is True
        assert calls == by_verifier, to_graph6(g)
        assert by_verifier or trace.verdict == NOT_APPLICABLE


# trace serialization


def test_trace_json_dict_is_json_safe_and_schema_valid():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        pathlib.Path(__file__).resolve().parent.parent.joinpath(
            "schemas", "witness-trace.schema.json"
        ).read_text()
    )
    validator = jsonschema.Draft202012Validator(schema)
    for _, trace in sample_traces():
        doc = trace.to_json_dict()
        assert_json_safe(doc)
        validator.validate(doc)


def test_trace_json_round_trips_steps():
    trace = verify_theorem_k23(complete_bipartite(2, 3))
    doc = trace.to_json_dict()
    assert doc["verdict"] == PASS
    assert len(doc["steps"]) == len(trace.steps)
    for raw, step in zip(doc["steps"], trace.steps):
        assert raw["kind"] == step.kind
        assert raw["ok"] == step.ok
        assert raw["data"] == step.data


def test_trace_rebuilds_from_json_and_replays():
    for g, trace in sample_traces():
        doc = json.loads(json.dumps(trace.to_json_dict()))
        rebuilt = trace_from_json_dict(doc)
        assert rebuilt.to_json_dict() == trace.to_json_dict()
        assert replay_trace(g, rebuilt) is True


# survey


def survey_row(g):
    # as `verify survey` runs it: only a subcubic graph's spectra are batched
    rows = functools.partial(_verify_rows, "survey", False, False)
    return _report_chunk(rows, 3, [(1, to_graph6(g))])[0]


def test_survey_record_heawood_is_extremal():
    rec = survey_row(heawood_graph())
    assert rec["predicates"]["subcubic"] and "skipped" not in rec
    assert rec["verdict"] == PASS
    assert rec["r"] == pytest.approx(SQRT2, abs=1e-9)
    assert rec["certified_le_one"] is False
    assert rec["certified_le_sqrt2"] is True
    assert rec["predicates"]["bipartite"] is True
    assert rec["known_extremal"] is True


def test_survey_record_skips_high_degree():
    rec = survey_row(complete_graph(5))
    assert rec["skipped"] == "not-subcubic"
    assert rec["verdict"] == "skipped"
    assert rec["r"] is None
    assert rec["known_extremal"] is False


def test_survey_record_petersen():
    rec = survey_row(petersen_graph())
    assert rec["r"] == pytest.approx(1.0, abs=1e-9)
    assert rec["certified_le_one"] is True
    assert rec["certified_le_sqrt2"] is True
    assert rec["predicates"]["k4_minor_free"] is False
    assert rec["known_extremal"] is False


def test_survey_conjecture_stream():
    graphs = enumerate_graphs(GenSpec(6, connected=True))
    records = [survey_row(g) for g in graphs]
    assert len(records) == len(graphs)
    assert all(r["verdict"] == PASS and r["certified_le_sqrt2"] for r in records)
    assert all("skipped" not in r for r in records)  # all subcubic by construction


def test_survey_flags_match_structure_predicates():
    rng = random.Random(7)
    pool = enumerate_graphs(GenSpec(7, connected=True))
    for g in rng.sample(pool, 12):
        rec = survey_row(g)
        assert rec["predicates"]["k4_minor_free"] == is_k4_minor_free(g)[0]
        assert rec["predicates"]["contains_k23"] == (find_k23(g) is not None)
        assert rec["m"] == len(g.edges())


# verdict taxonomy


def test_verdict_values_are_distinct_strings():
    assert len({PASS, FAIL, NOT_APPLICABLE}) == 3
    for v in (PASS, FAIL, NOT_APPLICABLE):
        assert isinstance(v, str)


def test_traces_carry_verdict_constants_only():
    for _, trace in sample_traces():
        assert trace.verdict in (PASS, FAIL, NOT_APPLICABLE)
        stack = list(trace.children)
        while stack:
            child = stack.pop()
            assert child.verdict in (PASS, FAIL, NOT_APPLICABLE)
            stack.extend(child.children)
