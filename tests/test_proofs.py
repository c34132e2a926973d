"""Tests for the lemma checkers, the two theorem verifiers, trace replay,
and the survey rows of `verify survey`.

Every verifier claim is cross-checked against an independent quantity: exact
eigenvalue counts from the inertia engine, float eigenvalues, or structural
predicates computed directly in the test.
"""

import collections
import dataclasses
import json
import math
import pathlib
import random

import pytest

from hlspec import (
    FAIL,
    NOT_APPLICABLE,
    NOT_FOUND,
    PASS,
    GenSpec,
    Graph,
    WitnessTrace,
    certify_R_le,
    check_lemma_odd,
    check_lemma_twins,
    check_lemma_unbalanced,
    complete_bipartite,
    complete_graph,
    count_at_threshold,
    cycle_graph,
    enumerate_graphs,
    heawood_graph,
    hl_index,
    is_k4_minor_free,
    path_graph,
    petersen_graph,
    prism_graph,
    replay_trace,
    star_graph,
    to_graph6,
    trace_from_json_dict,
    verify_theorem_k23,
    verify_theorem_sp,
)
from hlspec.cli import _report_chunk, _verify_report
from hlspec.structure import find_k23

SQRT2 = math.sqrt(2.0)


def assert_json_safe(obj):
    json.dumps(obj)


# twins lemma


def test_twins_on_complete_bipartite():
    trace = check_lemma_twins(complete_bipartite(2, 3))
    assert trace.verdict == PASS
    assert trace.case == "bipartite"
    kinds = [s.kind for s in trace.steps]
    assert "twins" in kinds and "certify-r-le" in kinds
    assert all(s.ok for s in trace.steps)
    # independent check: R really is zero
    assert hl_index(complete_bipartite(2, 3)).value == pytest.approx(0.0, abs=1e-12)


def test_twins_on_nonbipartite_graph_skips_zero_certificate():
    # two non-adjacent vertices sharing all neighbors inside an odd cycle core
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
    trace = check_lemma_twins(g)
    assert trace.verdict == PASS
    assert trace.case == "general"
    assert "certify-r-le" not in [s.kind for s in trace.steps]


def test_twins_not_applicable_without_twins():
    assert check_lemma_twins(path_graph(4)).verdict == NOT_APPLICABLE
    assert check_lemma_twins(petersen_graph()).verdict == NOT_APPLICABLE


def test_twins_zero_eigenvalue_claim_is_exact():
    trace = check_lemma_twins(cycle_graph(4))
    assert trace.verdict == PASS
    step = next(s for s in trace.steps if s.kind == "count-ge")
    assert step.mode == "exact"
    assert step.data["threshold"] == "0"


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


# unbalanced-partition lemma


def test_unbalanced_lemma_on_path():
    trace = check_lemma_unbalanced(path_graph(5))
    assert trace.verdict == PASS
    assert trace.named["reading-nonempty-only"] is not None


def test_unbalanced_lemma_k1_distinguishes_readings():
    trace = check_lemma_unbalanced(Graph(1, []))
    # a single vertex only has the empty-side partition
    assert trace.named["reading-with-empty-side"] is not None
    assert trace.named["reading-nonempty-only"] is None
    assert trace.verdict == PASS


def test_unbalanced_lemma_not_applicable_on_balanced_only_graph():
    trace = check_lemma_unbalanced(cycle_graph(4))
    assert trace.verdict == NOT_APPLICABLE
    assert trace.case == "no-partition"
    assert trace.named["exhaustive"] is True


def test_unbalanced_lemma_not_applicable_on_high_degree():
    assert check_lemma_unbalanced(complete_graph(5)).verdict == NOT_APPLICABLE


def test_unbalanced_lemma_partitions_are_genuinely_unfriendly():
    for g in enumerate_graphs(GenSpec(6, connected=True)):
        trace = check_lemma_unbalanced(g)
        if trace.verdict != PASS:
            continue
        for key in ("reading-with-empty-side", "reading-nonempty-only"):
            side = trace.named[key]
            if side is None:
                continue
            a = set(side)
            for v in range(g.n):
                nbrs = set(g.neighbors(v))
                same = len(nbrs & a) if v in a else len(nbrs - a)
                assert 2 * same <= len(nbrs)
            assert len(a) != g.n - len(a)


# trio theorem


def test_k23_theorem_on_k23_itself():
    trace = verify_theorem_k23(complete_bipartite(2, 3))
    assert trace.verdict == PASS
    assert all(s.ok for s in trace.steps)
    kinds = [s.kind for s in trace.steps]
    for expected in (
        "degree-le",
        "k23-present",
        "unfriendly-shape",
        "bipartite",
        "same-neighborhood",
        "certify-r-le",
        "weyl-count",
    ):
        assert expected in kinds
    weyl = [s for s in trace.steps if s.kind == "weyl-count"]
    assert all(s.mode == "exact" for s in weyl)
    # n = 5: h = l = 3, so at most h - 1 = 2 above 1 and n - l = 2 below -1
    assert [(s.data["which"], s.data["thresholds"], s.data["bound"]) for s in weyl] == [
        ("above", ["0", "1"], 2), ("below", ["0", "-1"], 2)
    ]


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
    trace = verify_theorem_k23(complete_bipartite(2, 3))
    final = trace.steps[-1]
    assert final.kind == "certify-r-le"
    assert final.mode == "exact"
    assert final.data["bound"] == "1"


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
    assert not is_k4_minor_free(g)[0] is True or True
    trace = verify_theorem_sp(g)
    assert trace.case == "cut-vertex"
    assert trace.verdict == PASS
    kinds = [s.kind for s in trace.steps]
    assert "cut-vertex" in kinds and "interlace-count" in kinds


def test_sp_theorem_two_connected_case():
    g = prism_graph()
    if is_k4_minor_free(g)[0]:
        trace = verify_theorem_sp(g)
        assert trace.verdict == PASS
    # a 2-connected k4-minor-free example: C6 plus a long chord path
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    trace = verify_theorem_sp(h)
    assert trace.case in ("two-connected", "k23-decomposition")
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


# replay


def sample_traces():
    yield cycle_graph(6), verify_theorem_sp(cycle_graph(6))
    yield complete_bipartite(2, 3), verify_theorem_k23(complete_bipartite(2, 3))
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
    yield g, verify_theorem_sp(g)
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 3)])
    yield h, verify_theorem_sp(h)
    yield cycle_graph(5), check_lemma_odd(cycle_graph(5))
    yield cycle_graph(4), check_lemma_twins(cycle_graph(4))


def test_replay_accepts_genuine_traces():
    for g, trace in sample_traces():
        assert replay_trace(g, trace) is True


def test_replay_rejects_wrong_graph():
    # the odd-order child's parity claim cannot hold on an even cycle
    trace = verify_theorem_sp(cycle_graph(5))
    assert replay_trace(cycle_graph(5), trace) is True
    assert replay_trace(cycle_graph(6), trace) is False
    # and a missing edge flips the exact certificate outcome
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


def test_replay_accepts_not_found_k23_traces():
    # not-found counts as applicable: it passes the precondition check on
    # K2,3, which has a K2,3 subgraph, and fails it on C6, which has none
    g = complete_bipartite(2, 3)
    trace = WitnessTrace("k23-bound", "partition-search", {}, (), NOT_FOUND)
    assert replay_trace(g, trace) is True
    assert replay_trace(cycle_graph(6), trace) is False


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


def test_replay_rejects_weyl_step_naming_a_non_edge():
    g = complete_bipartite(2, 3)
    trace = verify_theorem_k23(g)
    idx = next(i for i, s in enumerate(trace.steps) if s.kind == "weyl-count")
    data = trace.steps[idx].data
    assert not g.has_edge(0, 1)
    tampered = replace_step(trace, idx, {**data, "edges": data["edges"] + [[0, 1]]})
    assert replay_trace(g, tampered) is False


def test_replay_rejects_step_missing_its_bound():
    g = complete_bipartite(2, 3)
    trace = verify_theorem_k23(g)
    bounded = [i for i, s in enumerate(trace.steps) if "bound" in s.data]
    assert {trace.steps[i].kind for i in bounded} >= {"count-le", "weyl-count", "certify-r-le"}
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


def test_count_steps_check_their_inequalities_exactly():
    # each count step holds exactly up to the sum of counts it names, worked
    # out here from induced_delete / spanning_subgraph and the exact kernel:
    # a bound at the sum passes, one below it fails
    from hlspec.graph_core import induced_delete, spanning_subgraph
    from hlspec.proofs import _EVALUATORS

    def tail(sub, threshold, which):
        return getattr(count_at_threshold(sub, threshold), which)

    seen = collections.Counter()
    for n in range(5, 9):
        for g in enumerate_graphs(GenSpec(n, connected=True)):
            for trace in (verify_theorem_sp(g), verify_theorem_k23(g)):
                for step in trace.steps:
                    data, which = step.data, step.data.get("which")
                    if step.kind == "interlace-count":
                        sub, _ = induced_delete(g, data["deleted"])
                        total = tail(sub, data["threshold"], which) + len(data["deleted"])
                    elif step.kind == "weyl-count":
                        cross = [tuple(e) for e in data["edges"]]
                        rest = [e for e in g.edges() if e not in cross]
                        s, t = data["thresholds"]
                        total = (tail(spanning_subgraph(g, cross), s, which)
                                 + tail(spanning_subgraph(g, rest), t, which))
                    else:
                        continue
                    check = _EVALUATORS[step.kind][0]
                    assert total <= data["bound"] and step.ok
                    assert check(g, {**data, "bound": total})
                    assert not check(g, {**data, "bound": total - 1})
                    assert not check(g, {**data, "which": "at", "bound": g.n})
                    seen[step.kind] += 1
    assert seen["interlace-count"] > 0 and seen["weyl-count"] > 0


def test_verifiers_and_replay_compute_no_float_spectrum(monkeypatch):
    import hlspec.spectra as spectra

    kernel = spectra._adjacency_facts

    def no_floats(graphs, with_spectrum=False):
        assert not with_spectrum, "a float spectrum was computed"
        return kernel(graphs, with_spectrum)

    monkeypatch.setattr(spectra, "_adjacency_facts", no_floats)
    checkers = (verify_theorem_sp, verify_theorem_k23, check_lemma_odd,
                check_lemma_twins, check_lemma_unbalanced)
    verdicts = collections.Counter()
    for n in range(1, 9):
        for g in enumerate_graphs(GenSpec(n)):
            for check in checkers:
                trace = check(g)
                assert replay_trace(g, trace) is True, (check.__name__, to_graph6(g))
                verdicts[check.__name__, trace.verdict] += 1
    assert verdicts["verify_theorem_sp", PASS] > 0 and verdicts["verify_theorem_k23", PASS] > 0
    assert not any(v == FAIL for _, v in verdicts)


def test_replay_recomputes_every_count(monkeypatch):
    import collections

    import hlspec.spectra as spectra

    calls: collections.Counter = collections.Counter()
    kernel, inertia = spectra._adjacency_facts, spectra._inertia

    def counting_kernel(graphs, with_spectrum=False):
        for g in graphs:
            calls["charpoly", g.n, tuple(g.edges())] += 1
        return kernel(graphs, with_spectrum)

    def counting_inertia(g, t):
        calls["inertia", g.n, tuple(g.edges()), t] += 1
        return inertia(g, t)

    monkeypatch.setattr(spectra, "_adjacency_facts", counting_kernel)
    monkeypatch.setattr(spectra, "_inertia", counting_inertia)
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
    return _report_chunk(_verify_report, 3, [(1, to_graph6(g), "survey", False, False)])[0]


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
    assert len({PASS, FAIL, NOT_APPLICABLE, NOT_FOUND}) == 4
    for v in (PASS, FAIL, NOT_APPLICABLE, NOT_FOUND):
        assert isinstance(v, str)


def test_traces_carry_verdict_constants_only():
    for _, trace in sample_traces():
        assert trace.verdict in (PASS, FAIL, NOT_APPLICABLE, NOT_FOUND)
        stack = list(trace.children)
        while stack:
            child = stack.pop()
            assert child.verdict in (PASS, FAIL, NOT_APPLICABLE, NOT_FOUND)
            stack.extend(child.children)
