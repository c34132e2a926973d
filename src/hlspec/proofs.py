"""Mechanical proof replay: verify the median-eigenvalue bound arguments on
concrete graphs, step by step, with exact certificates at the load-bearing
claims.

Every verifier returns a WitnessTrace whose steps carry enough data to be
re-executed independently (see replay_trace).  Structural claims from the
underlying arguments are re-verified on the concrete graph, never assumed;
a claim that fails on the graph produces verdict "fail" with the offending
step, which is exactly the loud surfacing these checks exist for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .graph_core import (
    Graph,
    _bits,
    _components_without,
    components,
    cut_vertices,
    induced_delete,
    induced_subgraph,
    is_bipartite,
    is_connected,
    spanning_subgraph,
)
from .spectra import certify_R_le, count_at_threshold, median_positions
from .structure import (
    Partition,
    find_k23,
    find_twins,
    is_unfriendly,
    k4_minor_free,
    longest_cycle,
    _CYCLE_SEARCH_CAP,
    _first_violator,
    _flip_search,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
NOT_FOUND = "not-found"
_VERDICTS = (PASS, FAIL, NOT_APPLICABLE, NOT_FOUND)


# ---------------------------------------------------------------------------
# trace machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    """One checked assertion: what was claimed, how, and whether it held.

    data is JSON-safe and sufficient to re-run the assertion against the
    host graph; kind selects the evaluator, mode records whether the check
    was exact arithmetic or purely combinatorial.
    """

    statement: str
    kind: str
    mode: str
    ok: bool
    data: dict


@dataclass(frozen=True)
class WitnessTrace:
    """A verifier's full account: case taken, named vertices, checked steps.

    children holds delegated sub-verifications (per-component runs, lemma
    delegations); their graphs are reconstructed from named host vertices
    during replay.
    """

    theorem: str
    case: str
    named: dict
    steps: tuple[TraceStep, ...]
    verdict: str
    children: tuple["WitnessTrace", ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "case": self.case,
            "verdict": self.verdict,
            "named": self.named,
            "steps": [
                {
                    "statement": s.statement,
                    "kind": s.kind,
                    "mode": s.mode,
                    "ok": s.ok,
                    "slack": None,  # no float slack now; kept for older witness files
                    "data": s.data,
                }
                for s in self.steps
            ],
            "children": [c.to_json_dict() for c in self.children],
        }


def trace_from_json_dict(doc: dict) -> WitnessTrace:
    """Rebuild a trace from its JSON form (inverse of to_json_dict), so a
    witness emitted by the command line can be replayed offline."""
    steps = tuple(
        TraceStep(
            statement=s["statement"],
            kind=s["kind"],
            mode=s["mode"],
            ok=s["ok"],
            data=s["data"],
        )
        for s in doc["steps"]
    )
    return WitnessTrace(
        theorem=doc["theorem"],
        case=doc["case"],
        named=doc["named"],
        steps=steps,
        verdict=doc["verdict"],
        children=tuple(trace_from_json_dict(c) for c in doc.get("children", [])),
    )


def _subject_graph(g: Graph, spec: dict) -> Graph:
    """The subgraph a step names, kept on the host's fact record, so the
    steps about one subject share its graph and everything computed on it."""
    kind = spec.get("kind", "full")
    if kind == "full":
        return g
    if kind in ("delete", "induced"):
        build = induced_delete if kind == "delete" else induced_subgraph
        key = ("subject", kind, tuple(spec["vertices"]))
        return g.fact(key, lambda: build(g, spec["vertices"])[0])
    if kind == "spanning":
        pairs = tuple(tuple(e) for e in spec["edges"])
        return g.fact(("subject", kind, pairs), lambda: spanning_subgraph(g, pairs))
    raise ValueError(f"unknown subject kind {kind!r}")


def _eval_count_le(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    count = count_at_threshold(sub, data["threshold"])
    value = getattr(count, data["which"])
    return value <= data["bound"]


def _eval_count_ge(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    count = count_at_threshold(sub, data["threshold"])
    which = data["which"]
    value = count.above + count.at if which == "above-plus-at" else getattr(count, which)
    return value >= data["bound"]


def _eval_certify_r_le(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return certify_R_le(sub, data["bound"]).holds


def _eval_degree_le(g: Graph, data: dict) -> bool:
    return _subject_graph(g, data["subject"]).max_degree() <= data["bound"]


def _eval_bipartite(g: Graph, data: dict) -> bool:
    return is_bipartite(_subject_graph(g, data["subject"]))


def _eval_not_connected(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return len(components(sub)) >= 2


def _eval_components_count(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return len(components(sub)) == data["equals"]


def _eval_size_parity(g: Graph, data: dict) -> bool:
    want = data["parity"]
    if "subject" in data:
        size = _subject_graph(g, data["subject"]).n
    else:
        # subset claims: the set's accuracy is pinned by neighboring steps
        if not all(0 <= v < g.n for v in data["vertices"]):
            return False
        size = len(data["vertices"])
    return size % 2 == (0 if want == "even" else 1)


def _eval_no_cross_edges(g: Graph, data: dict) -> bool:
    a = set(data["set_a"])
    b = set(data["set_b"])
    return not any((u in a and v in b) or (u in b and v in a) for u, v in g.edges())


def _eval_set_partition(g: Graph, data: dict) -> bool:
    parts = [set(p) for p in data["parts"]]
    whole = set(data["whole"])
    union: set[int] = set()
    for p in parts:
        if union & p:
            return False
        union |= p
    return union == whole


def _eval_vertex_in_set(g: Graph, data: dict) -> bool:
    return data["vertex"] in set(data["vertices"])


def _eval_twins(g: Graph, data: dict) -> bool:
    u, v = data["u"], data["v"]
    return g.neighbor_mask(u) == g.neighbor_mask(v)


def _eval_same_neighborhood(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    u, v = data["u"], data["v"]
    must = frozenset(data["contains"])
    return (
        sub.neighbors(u) == sub.neighbors(v)
        and must <= sub.neighbors(u)
    )


def _eval_unfriendly_shape(g: Graph, data: dict) -> bool:
    side_a = frozenset(data["side_a"])
    part = Partition.of(g, side_a)
    if not is_unfriendly(g, part):
        return False
    same = data.get("same_side")
    other = data.get("other_side")
    if same is not None and not set(same) <= side_a:
        return False
    if other is not None and not set(other) <= set(part.side_b):
        return False
    return True


def _tail(sub: Graph, threshold: str, which: str) -> int | None:
    """The exact count of eigenvalues above or below a threshold; None for
    any other which."""
    if which not in ("above", "below"):
        return None
    return getattr(count_at_threshold(sub, threshold), which)


def _eval_interlace_count(g: Graph, data: dict) -> bool:
    # Cauchy interlacing: deleting A moves a tail count by at most |A|, so
    # N(G) <= N(G - A) + |A|; |A| is read off the host, not the data
    sub = _subject_graph(g, {"kind": "delete", "vertices": data["deleted"]})
    tail = _tail(sub, data["threshold"], data["which"])
    return tail is not None and tail + g.n - sub.n <= data["bound"]


def _eval_weyl_count(g: Graph, data: dict) -> bool:
    # Weyl: over an edge split G = G1 + G2, N>s+t(G) <= N>s(G1) + N>t(G2),
    # and likewise below -(s+t); G2 is the rest of the host's edges
    part = {tuple(sorted(e)) for e in data["edges"]}
    one = _subject_graph(g, {"kind": "spanning", "edges": data["edges"]})
    rest = _subject_graph(
        g, {"kind": "spanning", "edges": [list(e) for e in g.edges() if e not in part]}
    )
    s, t = data["thresholds"]
    tails = (_tail(one, s, data["which"]), _tail(rest, t, data["which"]))
    return None not in tails and sum(tails) <= data["bound"]


def _eval_is_cycle(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return sub.n >= 3 and is_connected(sub) and all(d == 2 for d in sub.degrees())


def _eval_cycle_in_graph(g: Graph, data: dict) -> bool:
    seq = data["sequence"]
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    return all(
        g.has_edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
    )


def _eval_longest_cycle_length(g: Graph, data: dict) -> bool:
    found = longest_cycle(g)
    return found is not None and len(found) == data["length"]


def _eval_chordal_path(g: Graph, data: dict) -> bool:
    path = data["path"]
    cyc = set(data["cycle"])
    cyc_edges = set()
    seq = data["cycle"]
    for i in range(len(seq)):
        a, b = seq[i], seq[(i + 1) % len(seq)]
        cyc_edges.add((min(a, b), max(a, b)))
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if path[0] not in cyc or path[-1] not in cyc or path[0] == path[-1]:
        return False
    if any(p in cyc for p in path[1:-1]):
        return False
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            return False
        if (min(a, b), max(a, b)) in cyc_edges:
            return False
    return True


def _eval_not_consecutive_on_cycle(g: Graph, data: dict) -> bool:
    seq = data["cycle"]
    pos = {v: i for i, v in enumerate(seq)}
    iu, iv = pos[data["u"]], pos[data["v"]]
    gap = (iu - iv) % len(seq)
    return gap not in (1, len(seq) - 1)


def _eval_cut_vertex(g: Graph, data: dict) -> bool:
    return data["vertex"] in cut_vertices(g)


def _eval_component_of(g: Graph, data: dict) -> bool:
    sub_spec = data["subject"]
    if sub_spec.get("kind") != "delete":
        raise ValueError("component-of expects a delete subject")
    # in host labels: components of g minus the deleted set
    return frozenset(data["vertices"]) in _components_without(g, sub_spec["vertices"])


def _eval_k23_present(g: Graph, data: dict) -> bool:
    x1, x2 = data["x1"], data["x2"]
    ys = data["ys"]
    return all(g.has_edge(x, y) for x in (x1, x2) for y in ys)


_EVALUATORS = {
    "count-le": (_eval_count_le, "exact"),
    "count-ge": (_eval_count_ge, "exact"),
    "certify-r-le": (_eval_certify_r_le, "exact"),
    "degree-le": (_eval_degree_le, "combinatorial"),
    "bipartite": (_eval_bipartite, "combinatorial"),
    "not-connected": (_eval_not_connected, "combinatorial"),
    "components-count": (_eval_components_count, "combinatorial"),
    "size-parity": (_eval_size_parity, "combinatorial"),
    "no-cross-edges": (_eval_no_cross_edges, "combinatorial"),
    "set-partition": (_eval_set_partition, "combinatorial"),
    "vertex-in-set": (_eval_vertex_in_set, "combinatorial"),
    "twins": (_eval_twins, "combinatorial"),
    "same-neighborhood": (_eval_same_neighborhood, "combinatorial"),
    "unfriendly-shape": (_eval_unfriendly_shape, "combinatorial"),
    "weyl-count": (_eval_weyl_count, "exact"),
    "interlace-count": (_eval_interlace_count, "exact"),
    "is-cycle": (_eval_is_cycle, "combinatorial"),
    "cycle-in-graph": (_eval_cycle_in_graph, "combinatorial"),
    "longest-cycle-length": (_eval_longest_cycle_length, "combinatorial"),
    "chordal-path": (_eval_chordal_path, "combinatorial"),
    "not-consecutive-on-cycle": (_eval_not_consecutive_on_cycle, "combinatorial"),
    "cut-vertex": (_eval_cut_vertex, "combinatorial"),
    "component-of": (_eval_component_of, "combinatorial"),
    "k23-present": (_eval_k23_present, "combinatorial"),
}


def _step(g: Graph, statement: str, kind: str, data: dict) -> TraceStep:
    evaluator, mode = _EVALUATORS[kind]
    ok = evaluator(g, data)
    return TraceStep(statement=statement, kind=kind, mode=mode, ok=ok, data=data)


def replay_trace(g: Graph, trace: WitnessTrace) -> bool:
    """Re-run every step of a trace against the host graph and check that a
    pass verdict follows from it.

    Returns True iff each trace (child or not) names a theorem this package
    emits (a key of _APPLIES) and one of the four verdicts and is
    not-applicable exactly when its host fails that theorem's precondition,
    each step's re-evaluated outcome matches what was recorded, every child
    trace replays against its named host vertices, a pass trace (children
    included) concludes (see _concludes), and a fail trace has a step that
    did not hold or a child that did not pass.
    A malformed trace (a step whose data cannot be evaluated, a child host
    vertex outside g) replays False rather than raising.  Replay works on a
    copy of g with an empty fact record, so every count is recomputed
    rather than read back from the verifier's run.
    """
    return _replay(Graph(g.n, g.edges()), trace)


_FULL = {"kind": "full"}

# The exact claim about the whole graph that a theorem's pass rests on, as
# the (kind, data) of its last step; R <= 1 unless listed.
_CONCLUSIONS = {
    ("twins", "bipartite"): ("certify-r-le", {"subject": _FULL, "bound": "0"}),
    ("twins", "general"): (
        "count-ge", {"subject": _FULL, "which": "at", "threshold": "0", "bound": 1}
    ),
}
_R_LE_ONE = ("certify-r-le", {"subject": _FULL, "bound": "1"})


def _held(trace: WitnessTrace) -> bool:
    """Whether every step of the trace held and every child passed."""
    return all(s.ok for s in trace.steps) and all(c.verdict == PASS for c in trace.children)


def _concludes(g: Graph, trace: WitnessTrace) -> bool:
    """Whether a pass verdict follows from the trace: every step held, every
    child passed, and either the last step is the theorem's exact claim on
    the whole graph, or the children are the same theorem on exactly the
    components of g."""
    if not _held(trace):
        return False
    if trace.case == "components":
        hosts = [c.named.get("host-vertices") for c in trace.children]
        return all(c.theorem == trace.theorem for c in trace.children) and hosts == [
            sorted(c) for c in components(g)
        ]
    if not trace.steps:
        return False
    last = trace.steps[-1]
    return (last.kind, last.data) == _CONCLUSIONS.get((trace.theorem, trace.case), _R_LE_ONE)


def _sp_applies(g: Graph) -> bool:
    """The sp theorem's precondition: non-empty, max degree 3, no K4 minor."""
    return g.n > 0 and g.max_degree() <= 3 and k4_minor_free(g)


def _odd_applies(g: Graph) -> bool:
    return g.n % 2 == 1 and g.max_degree() <= 3


# Each theorem's precondition, where its verifier answers not-applicable
# exactly when it fails (not-found counts as applicable).
_APPLIES = {
    "series-parallel-bound": _sp_applies,
    "k23-bound": lambda g: g.max_degree() <= 3 and find_k23(g) is not None,
    "odd-order": _odd_applies,
    "twins": lambda g: bool(find_twins(g)),
}


def _replay(g: Graph, trace: WitnessTrace) -> bool:
    applies = _APPLIES.get(trace.theorem) if type(trace.theorem) is str else None
    if applies is None or trace.verdict not in _VERDICTS:
        return False
    if (trace.verdict == NOT_APPLICABLE) == applies(g):
        return False
    for step in trace.steps:
        evaluator, mode = _EVALUATORS.get(step.kind, (None, None))
        if evaluator is None or mode != step.mode:
            return False
        try:
            if evaluator(g, step.data) != step.ok:
                return False
        # a malformed step: a missing data key, a vertex out of range, a
        # pair that is not an edge, a value of the wrong type
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return False
    for child in trace.children:
        host = child.named.get("host-vertices")
        if host is not None and not (
            isinstance(host, list) and all(type(v) is int and 0 <= v < g.n for v in host)
        ):
            return False
        if not _replay(g if host is None else induced_subgraph(g, host)[0], child):
            return False
    if trace.verdict == FAIL:
        return not _held(trace)
    return trace.verdict != PASS or _concludes(g, trace)


def _verdict_from(steps: Iterable[TraceStep], children: Iterable[WitnessTrace] = ()) -> str:
    if all(s.ok for s in steps) and all(c.verdict == PASS for c in children):
        return PASS
    return FAIL


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------

def check_lemma_twins(g: Graph) -> WitnessTrace:
    """Twin vertices force a zero adjacency eigenvalue; with bipartiteness
    both median eigenvalues vanish.  Certified by exact inertia at 0."""
    twins = find_twins(g)
    if not twins:
        return WitnessTrace(
            theorem="twins",
            case="no-twins",
            named={},
            steps=(),
            verdict=NOT_APPLICABLE,
        )
    u, v = twins[0]
    full = {"kind": "full"}
    steps = [
        _step(g, f"vertices {u} and {v} have identical neighborhoods", "twins", {"u": u, "v": v}),
        _step(
            g,
            "zero is an adjacency eigenvalue (exact multiplicity count)",
            "count-ge",
            {"subject": full, "which": "at", "threshold": "0", "bound": 1},
        ),
    ]
    bip = is_bipartite(g)
    if bip:
        steps.append(_step(g, "graph is bipartite", "bipartite", {"subject": full}))
        steps.append(
            _step(
                g,
                "both median eigenvalues are exactly zero",
                "certify-r-le",
                {"subject": full, "bound": "0"},
            )
        )
    return WitnessTrace(
        theorem="twins",
        case="bipartite" if bip else "general",
        named={"twin_u": u, "twin_v": v},
        steps=tuple(steps),
        verdict=_verdict_from(steps),
    )


def check_lemma_odd(g: Graph) -> WitnessTrace:
    """Odd-order graphs with max degree 3 keep the median pair within [-1, 1]."""
    if not _odd_applies(g):
        return WitnessTrace(
            theorem="odd-order",
            case="precondition",
            named={},
            steps=(),
            verdict=NOT_APPLICABLE,
        )
    full = {"kind": "full"}
    steps = [
        _step(g, "max degree at most 3", "degree-le", {"subject": full, "bound": 3}),
        _step(
            g,
            "vertex count is odd",
            "size-parity",
            {"subject": full, "parity": "odd"},
        ),
        _step(
            g,
            "median eigenvalues certified within [-1, 1]",
            "certify-r-le",
            {"subject": full, "bound": "1"},
        ),
    ]
    return WitnessTrace(
        theorem="odd-order",
        case="odd-order",
        named={},
        steps=tuple(steps),
        verdict=_verdict_from(steps),
    )


# ---------------------------------------------------------------------------
# first main verifier: the common-trio argument
# ---------------------------------------------------------------------------

def _shaped_partition(g: Graph, xs: tuple[int, int], ys: tuple[int, int, int]) -> frozenset[int] | None:
    """An unfriendly partition with both xs on one side and all ys on the
    other, as the xs side; None if the search exhausts without finding one.

    The flip search from the empty side comes first.  If it misses the
    shape, every xs side (xs plus a subset of the n - 5 other vertices) is
    tried through n = 16, so the answer there is exact; beyond, only flip
    searches from 32 seeded sides are tried.
    """
    x_bits = sum(1 << x for x in xs)
    y_bits = sum(1 << y for y in ys)
    full = (1 << g.n) - 1

    def members(mask: int) -> frozenset[int]:
        return frozenset(v for v in range(g.n) if (mask >> v) & 1)

    def shaped(fixpoint: int) -> frozenset[int] | None:
        for side in (fixpoint, full ^ fixpoint):
            if side & x_bits == x_bits and not side & y_bits:
                return members(side)
        return None

    got = shaped(_flip_search(g, 0))
    if got is not None:
        return got
    if g.n > 16:
        for seed in range(32):
            got = shaped(_flip_search(g, random.Random(seed).getrandbits(g.n)))
            if got is not None:
                return got
        return None
    free = full ^ x_bits ^ y_bits
    extra = 0
    while True:  # the subsets of free in increasing order
        if _first_violator(g, x_bits | extra) is None:
            return members(x_bits | extra)
        extra = (extra - free) & free
        if not extra:
            return None


def verify_theorem_k23(g: Graph) -> WitnessTrace:
    """Replay the argument that a max-degree-3 graph containing a complete
    2x3 bipartite subgraph has both median eigenvalues in [-1, 1].

    Steps: find an unfriendly partition separating the two degree-3 ends
    from the middle trio, split the edges into the crossing (bipartite,
    twin-bearing, hence median-zero) spanning subgraph and the within-side
    leftover (max degree 1), bound both tails of the whole graph by Weyl's
    addition inequality on the parts' exact counts, and certify the final
    bound exactly.
    """
    theorem = "k23-bound"
    emb = find_k23(g)
    if g.max_degree() > 3 or emb is None:
        return WitnessTrace(
            theorem=theorem,
            case="precondition",
            named={},
            steps=(),
            verdict=NOT_APPLICABLE,
        )
    xs = (emb.x1, emb.x2)
    ys = (emb.y1, emb.y2, emb.y3)
    named: dict = {
        "x1": emb.x1,
        "x2": emb.x2,
        "ys": list(ys),
    }
    side_a = _shaped_partition(g, xs, ys)
    if side_a is None:
        return WitnessTrace(
            theorem=theorem,
            case="partition-search",
            named=named,
            steps=(),
            verdict=NOT_FOUND,
        )
    part = Partition.of(g, side_a)
    cross = sorted(
        (min(u, v), max(u, v))
        for u, v in g.edges()
        if (u in part.side_a) != (v in part.side_a)
    )
    named["side_a"] = sorted(part.side_a)
    named["side_b"] = sorted(part.side_b)
    named["cross_edges"] = [list(e) for e in cross]
    h, l = median_positions(g.n)
    cross_set = set(cross)
    cross_spec = {"kind": "spanning", "edges": [list(e) for e in cross]}
    rest_edges = [list(e) for e in g.edges() if (e[0], e[1]) not in cross_set]
    rest_spec = {"kind": "spanning", "edges": rest_edges}
    full = {"kind": "full"}
    steps = [
        _step(g, "max degree at most 3", "degree-le", {"subject": full, "bound": 3}),
        _step(
            g,
            "the 2x3 complete bipartite subgraph is present",
            "k23-present",
            {"x1": emb.x1, "x2": emb.x2, "ys": list(ys)},
        ),
        _step(
            g,
            "unfriendly partition separates the degree-3 ends from the trio",
            "unfriendly-shape",
            {
                "side_a": sorted(part.side_a),
                "same_side": list(xs),
                "other_side": list(ys),
            },
        ),
        _step(g, "crossing-edge subgraph is bipartite", "bipartite", {"subject": cross_spec}),
        _step(
            g,
            "the two ends are twins in the crossing subgraph, covering the trio",
            "same-neighborhood",
            {"subject": cross_spec, "u": emb.x1, "v": emb.x2, "contains": list(ys)},
        ),
        _step(
            g,
            "crossing subgraph has both median eigenvalues exactly zero",
            "certify-r-le",
            {"subject": cross_spec, "bound": "0"},
        ),
        _step(
            g,
            "leftover subgraph has max degree at most 1",
            "degree-le",
            {"subject": rest_spec, "bound": 1},
        ),
        _step(
            g,
            "leftover subgraph has no eigenvalue above 1 (exact)",
            "count-le",
            {"subject": rest_spec, "which": "above", "threshold": "1", "bound": 0},
        ),
        _step(
            g,
            "leftover subgraph has no eigenvalue below -1 (exact)",
            "count-le",
            {"subject": rest_spec, "which": "below", "threshold": "-1", "bound": 0},
        ),
        _step(
            g,
            f"addition bound: at most {h - 1} eigenvalues above 1 (exact part counts)",
            "weyl-count",
            {"edges": cross_spec["edges"], "thresholds": ["0", "1"], "which": "above",
             "bound": h - 1},
        ),
        _step(
            g,
            f"addition bound: at most {g.n - l} eigenvalues below -1 (exact part counts)",
            "weyl-count",
            {"edges": cross_spec["edges"], "thresholds": ["0", "-1"], "which": "below",
             "bound": g.n - l},
        ),
        _step(
            g,
            "median eigenvalues certified within [-1, 1]",
            "certify-r-le",
            {"subject": full, "bound": "1"},
        ),
    ]
    return WitnessTrace(
        theorem=theorem,
        case="k23",
        named=named,
        steps=tuple(steps),
        verdict=_verdict_from(steps),
    )


# ---------------------------------------------------------------------------
# second main verifier: induction over treewidth-2 graphs
# ---------------------------------------------------------------------------

def _count_bound_steps(
    g: Graph,
    subject: dict,
    label: str,
    upper_bound: int,
) -> list[TraceStep]:
    """Exact tail-count bounds at both thresholds for one subgraph."""
    return [
        _step(
            g,
            f"{label}: at most {upper_bound} eigenvalues above 1 (exact)",
            "count-le",
            {"subject": subject, "which": "above", "threshold": "1", "bound": upper_bound},
        ),
        _step(
            g,
            f"{label}: at most {upper_bound} eigenvalues below -1 (exact)",
            "count-le",
            {"subject": subject, "which": "below", "threshold": "-1", "bound": upper_bound},
        ),
    ]


def _interlace_steps(g: Graph, deleted: list[int], label: str) -> list[TraceStep]:
    """The deletion's tail counts plus the deleted vertices bound the whole
    graph's: at most h - 1 eigenvalues above 1 and n - l below -1."""
    h, l = median_positions(g.n)
    return [
        _step(
            g,
            f"{label} interlacing: at most {h - 1} eigenvalues above 1 (exact)",
            "interlace-count",
            {"deleted": deleted, "threshold": "1", "which": "above", "bound": h - 1},
        ),
        _step(
            g,
            f"{label} interlacing: at most {g.n - l} eigenvalues below -1 (exact)",
            "interlace-count",
            {"deleted": deleted, "threshold": "-1", "which": "below", "bound": g.n - l},
        ),
    ]


def _sp_case(g: Graph) -> str:
    """The case of the sp induction that g takes: the theorem's precondition
    failing, components, odd order, n = 2 or 4, a cycle, a cut vertex, or
    two-connected (the last may delegate to the k23 verifier)."""
    if not _sp_applies(g):
        return "precondition"
    if not is_connected(g):
        return "components"
    if g.n % 2 == 1:
        return "odd-order"
    if g.n in (2, 4):
        return f"base-n{g.n}"
    if all(d == 2 for d in g.degrees()):
        return "cycle"
    return "cut-vertex" if cut_vertices(g) else "two-connected"


def _cut_vertex_split(g: Graph) -> tuple[int, list[int], list[int], list[dict]]:
    """The cut-vertex case's split: v, the least cut vertex; the odd
    component of G - v with the least vertex; the rest of G - v; and the
    subjects counted (the component, the rest, G - v)."""
    v = min(cut_vertices(g))
    one = min((c for c in _components_without(g, {v}) if len(c) % 2 == 1), key=min)
    one, rest = sorted(one), sorted(set(range(g.n)) - {v} - one)
    subjects = [{"kind": "induced", "vertices": one}, {"kind": "induced", "vertices": rest},
                {"kind": "delete", "vertices": [v]}]
    return v, one, rest, subjects


def _sp_subjects(g: Graph) -> list[Graph]:
    """The subgraphs whose counts at +-1 verify_theorem_sp will read, as the
    graphs its steps read from g's fact record: those of the cut-vertex
    case, none for any other case."""
    if _sp_case(g) != "cut-vertex":
        return []
    return [_subject_graph(g, spec) for spec in _cut_vertex_split(g)[3]]


def _sp_case_cut_vertex(g: Graph, named: dict) -> tuple[list[TraceStep], dict]:
    n = g.n
    v, part_one, part_rest, (one_spec, rest_spec, del_spec) = _cut_vertex_split(g)
    named.update({"cut_vertex": v, "odd_component": part_one, "remainder": part_rest})
    steps = [
        _step(g, f"vertex {v} is a cut vertex", "cut-vertex", {"vertex": v}),
        _step(
            g,
            "chosen component of the deletion has odd order",
            "size-parity",
            {"vertices": part_one, "parity": "odd"},
        ),
        _step(
            g,
            "chosen set is a full component of the deletion",
            "component-of",
            {"subject": del_spec, "vertices": part_one},
        ),
        _step(
            g,
            "remainder has even order",
            "size-parity",
            {"vertices": part_rest, "parity": "even"},
        ),
    ]
    steps += _count_bound_steps(g, one_spec, "odd component", (len(part_one) - 1) // 2)
    steps += _count_bound_steps(g, rest_spec, "remainder", (len(part_rest) - 2) // 2)
    steps += _count_bound_steps(g, del_spec, "deletion", (n - 4) // 2)
    steps += _interlace_steps(g, del_spec["vertices"], "single-vertex deletion")
    return steps, named


def _arc_split(cyc: tuple[int, ...], u: int, v: int) -> tuple[list[int], list[int]]:
    """The two open arcs of the cycle between u and v, each ordered so the
    first vertex neighbors u and the last neighbors v."""
    pos = {w: i for i, w in enumerate(cyc)}
    iu, iv = pos[u], pos[v]
    L = len(cyc)
    arc_a = [cyc[(iu + k) % L] for k in range(1, (iv - iu) % L)]
    arc_b = [cyc[(iv + k) % L] for k in range(1, (iu - iv) % L)]
    arc_b.reverse()
    return arc_a, arc_b


def _chordal_path(g: Graph, cyc: tuple[int, ...]) -> list[int] | None:
    """Shortest path between two distinct cycle vertices avoiding cycle edges,
    with every interior vertex off the cycle.  Lexicographic tie-break."""
    on_cycle = set(cyc)
    cyc_edges = set()
    for i in range(len(cyc)):
        a, b = cyc[i], cyc[(i + 1) % len(cyc)]
        cyc_edges.add((min(a, b), max(a, b)))

    def allowed_edge(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) not in cyc_edges

    best: tuple[int, tuple[int, ...]] | None = None
    from collections import deque

    for u in sorted(on_cycle):
        for w in sorted(on_cycle):
            if w <= u:
                continue
            # BFS from w over interior-allowed vertices, then walk from u
            # downhill picking the smallest neighbor, for the lexicographically
            # least shortest path
            dist = {w: 0}
            queue = deque([w])
            while queue:
                x = queue.popleft()
                for y in _bits(g.neighbor_mask(x)):
                    if not allowed_edge(x, y):
                        continue
                    if x != w and x in on_cycle:
                        continue  # cycle vertices other than endpoints are terminal
                    if y in dist:
                        continue
                    if y in on_cycle and y not in (u, w):
                        continue
                    dist[y] = dist[x] + 1
                    queue.append(y)
            if u not in dist:
                continue
            path = [u]
            cur = u
            while cur != w:
                nxt = None
                for y in _bits(g.neighbor_mask(cur)):
                    if not allowed_edge(cur, y):
                        continue
                    if y in on_cycle and y not in (u, w):
                        continue
                    if y == u or (y != w and y in path):
                        continue
                    if dist.get(y, -1) == dist[cur] - 1:
                        nxt = y
                        break
                if nxt is None:
                    path = []
                    break
                path.append(nxt)
                cur = nxt
            if not path:
                continue
            cand = (len(path), tuple(path))
            if best is None or cand < best:
                best = cand
    return list(best[1]) if best else None


def _sp_case_two_connected(g: Graph, named: dict) -> tuple[list[TraceStep], dict, str, tuple]:
    """Returns (steps, named, case, children)."""
    n = g.n
    cyc = longest_cycle(g)
    assert cyc is not None  # 2-connected graphs have cycles
    named["cycle"] = list(cyc)
    steps = [
        _step(g, "recorded sequence is a cycle of the graph", "cycle-in-graph", {"sequence": list(cyc)}),
        _step(
            g,
            "no longer cycle exists (exhaustive search)",
            "longest-cycle-length",
            {"length": len(cyc)},
        ),
    ]
    path = _chordal_path(g, cyc)
    if path is None:
        steps.append(
            TraceStep(
                statement="a cycle-avoiding path between two cycle vertices exists",
                kind="chordal-path",
                mode="combinatorial",
                ok=False,
                data={"path": [], "cycle": list(cyc)},
            )
        )
        return steps, named, "two-connected", ()
    u, v = path[0], path[-1]
    named["path"] = list(path)
    named["u"] = u
    named["v"] = v
    steps.append(
        _step(
            g,
            "path avoids cycle edges and interior cycle vertices",
            "chordal-path",
            {"path": list(path), "cycle": list(cyc)},
        )
    )
    steps.append(
        _step(
            g,
            "path endpoints are not consecutive on the cycle",
            "not-consecutive-on-cycle",
            {"cycle": list(cyc), "u": u, "v": v},
        )
    )
    if not steps[-1].ok:
        return steps, named, "two-connected", ()
    arc_a, arc_b = _arc_split(cyc, u, v)
    # label arcs so the second pair of cycle-neighbors is distinct if possible
    if len(arc_a) == 1 and len(arc_b) == 1:
        # both arcs are single vertices: the graph should be the 2x3 complete
        # bipartite graph itself; delegate to its dedicated verifier
        child = verify_theorem_k23(g)
        named["delegated"] = "k23-bound"
        return steps, named, "k23-decomposition", (child,)
    if len(arc_b) == 1:
        arc_a, arc_b = arc_b, arc_a
    elif len(arc_a) > 1 and len(arc_b) > 1 and arc_b[0] < arc_a[0]:
        arc_a, arc_b = arc_b, arc_a
    u1, v1 = arc_a[0], arc_a[-1]
    u2, v2 = arc_b[0], arc_b[-1]
    named.update({"u1": u1, "v1": v1, "u2": u2, "v2": v2})
    # claim: removing {u2, v} disconnects the graph
    del_u2v = {"kind": "delete", "vertices": sorted({u2, v})}
    steps.append(
        _step(
            g,
            "removing the far cycle-neighbor and one path end disconnects the graph",
            "not-connected",
            {"subject": del_u2v},
        )
    )
    if not steps[-1].ok:
        return steps, named, "two-connected", ()
    comps = _components_without(g, {u2, v})
    part_w = next(c for c in comps if u in c)
    named["W"] = sorted(part_w)
    w_minus_u = sorted(set(part_w) - {u})
    expected = 1 if g.has_edge(u, v) else 2
    steps.append(
        _step(
            g,
            f"component of the first end, minus it, splits into {expected} piece(s)",
            "components-count",
            {"subject": {"kind": "induced", "vertices": w_minus_u}, "equals": expected},
        )
    )
    for piece in _components_without(g, set(range(n)) - set(w_minus_u)):
        steps.append(
            _step(
                g,
                "piece is a full component after deleting both path ends",
                "component-of",
                {
                    "subject": {"kind": "delete", "vertices": sorted({u, v})},
                    "vertices": sorted(piece),
                },
            )
        )
    if len(part_w) % 2 == 0:
        g1_set = sorted(part_w)
        x = u2
    else:
        g1_set = w_minus_u
        x = u
    g2_set = sorted(set(range(n)) - {x, v} - set(g1_set))
    named.update({"x": x, "G1": list(g1_set), "G2": list(g2_set)})
    del_xv = {"kind": "delete", "vertices": sorted({x, v})}
    steps += [
        _step(
            g,
            "first part has even order",
            "size-parity",
            {"vertices": list(g1_set), "parity": "even"},
        ),
        _step(
            g,
            "second part has even order",
            "size-parity",
            {"vertices": list(g2_set), "parity": "even"},
        ),
        _step(
            g,
            "the two parts partition the deletion remainder",
            "set-partition",
            {
                "parts": [list(g1_set), list(g2_set)],
                "whole": sorted(set(range(n)) - {x, v}),
            },
        ),
        _step(
            g,
            "no edges join the two parts",
            "no-cross-edges",
            {"set_a": list(g1_set), "set_b": list(g2_set)},
        ),
        _step(
            g,
            "second cycle-neighbor of the far end lies in the second part",
            "vertex-in-set",
            {"vertex": v2, "vertices": list(g2_set)},
        ),
    ]
    steps += _count_bound_steps(
        g, {"kind": "induced", "vertices": list(g1_set)}, "first part", (len(g1_set) - 2) // 2
    )
    steps += _count_bound_steps(
        g, {"kind": "induced", "vertices": list(g2_set)}, "second part", (len(g2_set) - 2) // 2
    )
    steps += _count_bound_steps(g, del_xv, "two-vertex deletion", (n - 6) // 2)
    steps += _interlace_steps(g, del_xv["vertices"], "two-vertex deletion")
    return steps, named, "two-connected", ()


def verify_theorem_sp(g: Graph) -> WitnessTrace:
    """Replay the induction that treewidth-2 graphs of max degree 3 keep both
    median eigenvalues in [-1, 1], on one concrete graph.

    The inductive hypotheses (tail-count bounds for the smaller parts) are
    discharged by exact inertia counts on the concrete subgraphs rather than
    recursive verification, and the final bound carries its own certificate,
    so a flaw anywhere surfaces as a failing step.
    """
    theorem = "series-parallel-bound"
    case = _sp_case(g)
    if case == "precondition":
        return WitnessTrace(theorem, case, {}, (), NOT_APPLICABLE)

    if case == "components":
        comps = components(g)
        children = []
        for comp in comps:
            host = sorted(comp)
            sub, _ = induced_subgraph(g, host)
            child = verify_theorem_sp(sub)
            child = WitnessTrace(
                theorem=child.theorem,
                case=child.case,
                named={**child.named, "host-vertices": host},
                steps=child.steps,
                verdict=child.verdict,
                children=child.children,
            )
            children.append(child)
        verdict = PASS if all(c.verdict == PASS for c in children) else FAIL
        return WitnessTrace(
            theorem=theorem,
            case="components",
            named={"components": [sorted(c) for c in comps]},
            steps=(),
            verdict=verdict,
            children=tuple(children),
        )

    named: dict = {}
    full = {"kind": "full"}
    common = [
        _step(g, "max degree at most 3", "degree-le", {"subject": full, "bound": 3}),
    ]
    certify = _step(
        g,
        "median eigenvalues certified within [-1, 1]",
        "certify-r-le",
        {"subject": full, "bound": "1"},
    )
    if case == "two-connected" and g.n > _CYCLE_SEARCH_CAP:
        # the cycle step rests on an exhaustive search that stops there
        return WitnessTrace(theorem, case, named, (*common, certify), NOT_FOUND)

    children: tuple[WitnessTrace, ...] = ()
    case_steps: list[TraceStep] = []  # none for base-n2 and base-n4
    if case == "odd-order":
        children = (check_lemma_odd(g),)
    elif case == "cycle":
        case_steps = [_step(g, "graph is a single cycle", "is-cycle", {"subject": full})]
    elif case == "cut-vertex":
        case_steps, named = _sp_case_cut_vertex(g, named)
    elif case == "two-connected":
        case_steps, named, case, children = _sp_case_two_connected(g, named)
    steps = (*common, *case_steps, certify)
    verdict = _verdict_from(steps, children)
    if case == "k23-decomposition" and verdict == FAIL and any(
        c.verdict == NOT_FOUND for c in children
    ):
        verdict = NOT_FOUND
    return WitnessTrace(theorem, case, named, steps, verdict, children)
