"""Mechanical proof replay: verify the median-eigenvalue bound arguments on
concrete graphs, step by step, with exact certificates at the load-bearing
claims.

Every verifier returns a WitnessTrace whose steps carry enough data to be
re-executed independently (see replay_trace).  Structural claims from the
underlying arguments are re-verified on the concrete graph, never assumed;
a claim that fails on the graph produces verdict "fail" with the offending
step, which is exactly the loud surfacing these checks exist for.

A verifier first builds its trace with every exact step's outcome pending:
it names the subgraph and thresholds each count reads (_COUNTS), and no
verifier branches on a count.  Settling then counts every subject of a
whole batch of traces in one kernel run per order (spectra.prime) before it
fills in each outcome and verdict; replay collects, counts and checks the
same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable

from .graph_core import (
    Graph,
    _bits,
    _components_without,
    _host_vertices,
    components,
    cut_vertices,
    induced_delete,
    induced_subgraph,
    is_connected,
)
from . import spectra
from .spectra import _bounds, _scaled, certify_R_le, count_at_threshold, median_positions
from .structure import find_k23, k4_minor_free, _first_violator, _flip_search

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
_VERDICTS = (PASS, FAIL, NOT_APPLICABLE)


# ---------------------------------------------------------------------------
# trace machinery
# ---------------------------------------------------------------------------

class _Pending:
    """A field that is None while it waits for its trace's counts (an exact
    step's ok, a pass or fail verdict).  Reading it then raises, so no
    verifier can branch on a count; settling sets it once."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the field has no default
        value = obj.__dict__[self.name]
        if value is None:
            raise ValueError(f"{self.name} read before its trace settled")
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class TraceStep:
    """One checked assertion: what was claimed, how, and whether it held.

    data is JSON-safe and sufficient to re-run the assertion against the
    host graph; kind selects the evaluator, mode records whether the check
    was exact arithmetic or purely combinatorial.  ok is pending (None) on
    an exact step until its trace settles.
    """

    statement: str
    kind: str
    mode: str
    ok: bool = _Pending()
    data: dict


@dataclass(frozen=True)
class WitnessTrace:
    """A verifier's full account: case taken, named vertices, checked steps.

    children holds delegated sub-verifications (per-component runs, lemma
    delegations); their graphs are reconstructed from named host vertices
    during replay.  verdict is pending (None) while a pass or fail waits
    for the exact steps to settle.
    """

    theorem: str
    case: str
    named: dict
    steps: tuple[TraceStep, ...]
    verdict: str = _Pending()
    children: tuple["WitnessTrace", ...] = ()

    def to_json_dict(self) -> dict:
        # each step's slack is None: no float slack now, kept for older witness files
        steps = [{"statement": s.statement, "kind": s.kind, "mode": s.mode, "ok": s.ok,
                  "slack": None, "data": s.data} for s in self.steps]
        return {"theorem": self.theorem, "case": self.case, "verdict": self.verdict,
                "named": self.named, "steps": steps,
                "children": [c.to_json_dict() for c in self.children]}


def trace_from_json_dict(doc: dict) -> WitnessTrace:
    """Rebuild a trace from its JSON form (inverse of to_json_dict), so a
    witness emitted by the command line can be replayed offline."""
    steps = tuple(TraceStep(s["statement"], s["kind"], s["mode"], s["ok"], s["data"])
                  for s in doc["steps"])
    children = tuple(trace_from_json_dict(c) for c in doc.get("children", []))
    return WitnessTrace(doc["theorem"], doc["case"], doc["named"], steps, doc["verdict"], children)


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
    raise ValueError(f"unknown subject kind {kind!r}")


def _eval_count_le(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    count = count_at_threshold(sub, data["threshold"])
    value = getattr(count, data["which"])
    return value <= data["bound"]


def _eval_certify_r_le(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return certify_R_le(sub, data["bound"]).holds


def _eval_degree_le(g: Graph, data: dict) -> bool:
    return _subject_graph(g, data["subject"]).max_degree() <= data["bound"]


def _eval_not_connected(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return len(components(sub)) >= 2


def _eval_components_count(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return len(components(sub)) == data["equals"]


def _eval_size_parity(g: Graph, data: dict) -> bool:
    # the set's accuracy is pinned by neighboring steps
    vertices = _host_vertices(g, data["vertices"])
    if len(set(vertices)) != len(vertices):
        return False
    return len(vertices) % 2 == (0 if data["parity"] == "even" else 1)


def _eval_no_cross_edges(g: Graph, data: dict) -> bool:
    a = set(_host_vertices(g, data["set_a"]))
    b = set(_host_vertices(g, data["set_b"]))
    return not any((u in a and v in b) or (u in b and v in a) for u, v in g.edges())


def _eval_set_partition(g: Graph, data: dict) -> bool:
    # the parts are disjoint and cover the host less the deleted pair iff
    # their concatenation, sorted, is that vertex set, sorted
    x, v = _host_vertices(g, data["deleted"])
    joined = [w for p in data["parts"] for w in _host_vertices(g, p)]
    return x != v and sorted(joined) == sorted(set(range(g.n)) - {x, v})


def _eval_vertex_in_set(g: Graph, data: dict) -> bool:
    vertex, *others = _host_vertices(g, [data["vertex"], *data["vertices"]])
    return vertex in others


def _side_mask(g: Graph, vertices: Iterable[int]) -> int:
    """A step's vertex set as a mask of host vertices."""
    return sum(1 << v for v in set(_host_vertices(g, vertices)))


def _eval_unfriendly_shape(g: Graph, data: dict) -> bool:
    a = _side_mask(g, data["side_a"])
    same, other = _side_mask(g, data["same_side"]), _side_mask(g, data["other_side"])
    return _first_violator(g, a) is None and not same & ~a and not other & a


def _eval_singular_crossing(g: Graph, data: dict) -> bool:
    # G is the crossing graph C of side a and the rest plus the edges within
    # the sides.  Those form a matching when no vertex has two neighbours on
    # its own side, so their eigenvalues lie in [-1, 1].  C is bipartite, so
    # its spectrum is symmetric, and singular for the reason named: n odd, or
    # u != v with equal rows of C, so e_u - e_v is a null vector.  Then both
    # median eigenvalues of C are 0, and Weyl's inequality puts those of G
    # within [-1, 1]: R(G) <= 1.
    a = _side_mask(g, data["side_a"])
    cross = [m & ~a if a >> v & 1 else m & a for v, m in enumerate(g._mask)]
    if any((m ^ c).bit_count() > 1 for m, c in zip(g._mask, cross)):
        return False
    if data["reason"] == "odd":
        return g.n % 2 == 1
    if data["reason"] == "twins":
        u, v = _host_vertices(g, [data["u"], data["v"]])
        return u != v and cross[u] == cross[v]
    return False


def _deletion(g: Graph, data: dict) -> Graph:
    """An interlace-count step's subject: g less the deleted vertices."""
    return _subject_graph(g, {"kind": "delete", "vertices": data["deleted"]})


def _eval_interlace_count(g: Graph, data: dict) -> bool:
    # Cauchy interlacing: deleting A moves a tail count by at most |A|, so
    # N(G) <= N(G - A) + |A|; |A| is read off the host, not the data
    which, sub = data["which"], _deletion(g, data)
    if which not in ("above", "below"):
        return False
    return getattr(count_at_threshold(sub, data["threshold"]), which) + g.n - sub.n <= data["bound"]


def _eval_is_cycle(g: Graph, data: dict) -> bool:
    sub = _subject_graph(g, data["subject"])
    return sub.n >= 3 and is_connected(sub) and all(d == 2 for d in sub.degrees())


def _eval_cycle_in_graph(g: Graph, data: dict) -> bool:
    seq = _host_vertices(g, data["sequence"])
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    return all(
        g.has_edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
    )


def _eval_locally_longest(g: Graph, data: dict) -> bool:
    cyc = data["cycle"]
    return _eval_cycle_in_graph(g, {"sequence": cyc}) and (
        _longer_c_path(cyc, _c_path_lengths(g, cyc)) is None
    )


def _eval_c_path(g: Graph, data: dict) -> bool:
    # distinct vertices, ends on the cycle, interior off it, and every step
    # an edge of g that is not a cycle edge
    path, seq = _host_vertices(g, data["path"]), _host_vertices(g, data["cycle"])
    on = set(seq)
    ring = {frozenset((seq[i - 1], seq[i])) for i in range(len(seq))}
    return (
        len(path) >= 2 and len(set(path)) == len(path)
        and path[0] in on and path[-1] in on and not on & set(path[1:-1])
        and all(g.has_edge(a, b) and frozenset((a, b)) not in ring for a, b in zip(path, path[1:]))
    )


def _eval_not_consecutive_on_cycle(g: Graph, data: dict) -> bool:
    seq = _host_vertices(g, data["cycle"])
    u, v = _host_vertices(g, [data["u"], data["v"]])
    pos = {w: i for i, w in enumerate(seq)}
    gap = (pos[u] - pos[v]) % len(seq)
    return u != v and gap not in (1, len(seq) - 1)


def _eval_cut_vertex(g: Graph, data: dict) -> bool:
    return _host_vertices(g, [data["vertex"]])[0] in cut_vertices(g)


def _eval_component_of(g: Graph, data: dict) -> bool:
    sub_spec = data["subject"]
    if sub_spec.get("kind") != "delete":
        raise ValueError("component-of expects a delete subject")
    # in host labels: components of g minus the deleted set
    deleted = _host_vertices(g, sub_spec["vertices"])
    return frozenset(_host_vertices(g, data["vertices"])) in _components_without(g, deleted)


def _eval_k23_present(g: Graph, data: dict) -> bool:
    # five distinct vertices: the two ends and a trio
    named = _host_vertices(g, [data["x1"], data["x2"], *data["ys"]])
    x1, x2, *ys = named
    return len(set(named)) == 5 and all(g.has_edge(x, y) for x in (x1, x2) for y in ys)


_EVALUATORS = {
    "count-le": (_eval_count_le, "exact"),
    "certify-r-le": (_eval_certify_r_le, "exact"),
    "degree-le": (_eval_degree_le, "combinatorial"),
    "not-connected": (_eval_not_connected, "combinatorial"),
    "components-count": (_eval_components_count, "combinatorial"),
    "size-parity": (_eval_size_parity, "combinatorial"),
    "no-cross-edges": (_eval_no_cross_edges, "combinatorial"),
    "set-partition": (_eval_set_partition, "combinatorial"),
    "vertex-in-set": (_eval_vertex_in_set, "combinatorial"),
    "unfriendly-shape": (_eval_unfriendly_shape, "combinatorial"),
    "singular-crossing": (_eval_singular_crossing, "combinatorial"),
    "interlace-count": (_eval_interlace_count, "exact"),
    "is-cycle": (_eval_is_cycle, "combinatorial"),
    "cycle-in-graph": (_eval_cycle_in_graph, "combinatorial"),
    "locally-longest-cycle": (_eval_locally_longest, "combinatorial"),
    "chordal-path": (_eval_c_path, "combinatorial"),
    "not-consecutive-on-cycle": (_eval_not_consecutive_on_cycle, "combinatorial"),
    "cut-vertex": (_eval_cut_vertex, "combinatorial"),
    "component-of": (_eval_component_of, "combinatorial"),
    "k23-present": (_eval_k23_present, "combinatorial"),
}

# What each exact kind counts, as (graph, threshold) pairs on the step's
# host: its evaluator reads these counts and no others.
_COUNTS = {
    "count-le": lambda g, d: [(_subject_graph(g, d["subject"]), _scaled(d["threshold"]))],
    "certify-r-le": lambda g, d: [(_subject_graph(g, d["subject"]), t)
                                  for t in _bounds(d["bound"])],
    "interlace-count": lambda g, d: [(_deletion(g, d), _scaled(d["threshold"]))],
}

# what a malformed step raises: a missing data key, a vertex out of range,
# a pair that is not an edge, a value of the wrong type, a pending outcome
_MALFORMED = (AttributeError, ArithmeticError, IndexError, KeyError, TypeError, ValueError)


def _step(g: Graph, statement: str, kind: str, data: dict) -> TraceStep:
    """A step evaluated on g now; the verifiers build only combinatorial
    steps this way."""
    evaluator, mode = _EVALUATORS[kind]
    return TraceStep(statement=statement, kind=kind, mode=mode, ok=evaluator(g, data), data=data)


def _exact(statement: str, kind: str, data: dict) -> TraceStep:
    """An exact step, its outcome pending until its trace settles."""
    return TraceStep(statement=statement, kind=kind, mode="exact", ok=None, data=data)


def _host(g: Graph, child: WitnessTrace) -> Graph:
    """A child trace's host: the subgraph of g induced on its named host
    vertices, kept on g's fact record, or g itself when it names none."""
    host = child.named.get("host-vertices")
    return g if host is None else _subject_graph(g, {"kind": "induced", "vertices": host})


def _tree(g: Graph, trace: WitnessTrace) -> list[tuple[Graph, WitnessTrace]]:
    """The trace and its descendants, each with its host, parents first."""
    nodes = [(g, trace)]
    for host, t in nodes:  # the loop also visits the children it appends
        nodes += [(_host(host, c), c) for c in t.children]
    return nodes


def _counted(tree: list[tuple[Graph, WitnessTrace]]) -> list[tuple[Graph, tuple]]:
    """Every (graph, threshold) that the exact steps of a _tree count, each
    on its own host (see _COUNTS)."""
    return [pair for host, t in tree for s in t.steps if s.kind in _COUNTS
            for pair in _COUNTS[s.kind](host, s.data)]


def _settle(pending: list[tuple[Graph, WitnessTrace]], graphs: Iterable[Graph] = ()) -> None:
    """Settle each (graph, trace) built with its counts pending, in place.

    Every count the traces name, and what a report row reads of each of
    graphs, is computed first in one kernel run per order (spectra.prime).
    Then each exact step's ok is read from the counts on the fact records,
    and each pending verdict, children first, is pass when every step held
    and every child passed, and fail otherwise.
    """
    trees = [_tree(g, trace) for g, trace in pending]
    spectra.prime(graphs, [pair for tree in trees for pair in _counted(tree)])
    for tree in trees:
        for host, t in reversed(tree):  # children before parents
            for step in t.steps:
                if step.mode == "exact":
                    object.__setattr__(step, "ok", _EVALUATORS[step.kind][0](host, step.data))
            if vars(t)["verdict"] is None:
                object.__setattr__(t, "verdict", PASS if _held(t) else FAIL)


# the (graph, trace) pairs the public verifiers return in a _settling() block
_deferred: ContextVar[list | None] = ContextVar("deferred", default=None)


@contextmanager
def _settling(graphs: Iterable[Graph] = ()):
    """Within the block, each public verifier returns its trace with the
    counts pending; on leaving it, all of them settle together (see
    _settle), with what a report row reads of each of graphs.  So the
    command line calls the public verifiers and still counts a whole chunk
    in one kernel run per order."""
    pending: list[tuple[Graph, WitnessTrace]] = []
    token = _deferred.set(pending)
    try:
        yield
    finally:
        _deferred.reset(token)
    _settle(pending, graphs)


def _deliver(g: Graph, trace: WitnessTrace) -> WitnessTrace:
    """A public verifier's trace: settled now, or when the open _settling()
    block ends."""
    pending = _deferred.get()
    if pending is None:
        _settle([(g, trace)])
    else:
        pending.append((g, trace))
    return trace


def replay_trace(g: Graph, trace: WitnessTrace) -> bool:
    """Re-run every step of a trace against the host graph and check that a
    pass verdict follows from it.

    Returns True iff each trace (child or not) names a theorem this package
    emits (a key of _APPLIES) and one of the three verdicts and is
    not-applicable exactly when its host fails that theorem's precondition,
    each step's re-evaluated outcome matches what was recorded, every child
    trace replays against its named host vertices, a pass trace (children
    included) concludes (see _concludes), and a fail trace has a step that
    did not hold or a child that did not pass.
    A malformed trace (a step whose data cannot be evaluated, a child host
    vertex outside g) replays False rather than raising.  Replay works on a
    copy of g with an empty fact record, so every count is recomputed
    rather than read back from the verifier's run; the counts the trace
    names are computed first, in one kernel run per order.
    """
    return _replay_traces([(g, trace)])[0]


def _replay_traces(items: Iterable[tuple[Graph, WitnessTrace]]) -> list[bool]:
    """replay_trace of each (graph, trace), with every count that all of
    the traces name computed in one kernel run per order."""
    trees, counts = [], []
    for g, trace in items:
        g = Graph(g.n, g.edges())  # a copy with an empty fact record
        try:
            tree = _tree(g, trace)
            counts += _counted(tree)
        except _MALFORMED:
            tree = None
        trees.append(tree)
    try:
        spectra.prime((), counts)
    except _MALFORMED:
        pass  # each tree then counts what it still needs inside _checks' guard
    return [_checks(tree) for tree in trees]


def _checks(tree: list[tuple[Graph, WitnessTrace]] | None) -> bool:
    """Whether every trace of a tree (None: a malformed one) checks on its
    host; a malformed step or verdict fails rather than raises."""
    try:
        return tree is not None and all(_replay(host, t) for host, t in tree)
    except _MALFORMED:
        return False


_FULL = {"kind": "full"}
# The exact claim about the whole graph that every theorem's pass rests on,
# as the (kind, data) of its last step.
_R_LE_ONE = ("certify-r-le", {"subject": _FULL, "bound": "1"})
_TAILS = (("above", "1"), ("below", "-1"))  # the two tails R <= 1 bounds


def _tail_bounds(n: int) -> Iterable[tuple[tuple[str, str], int]]:
    """Each of _TAILS with its bound for R <= 1 on n vertices: at most h - 1
    eigenvalues above 1 and at most n - l below -1."""
    h, l = median_positions(n)
    return zip(_TAILS, (h - 1, n - l))


def _degree_le_three(g: Graph) -> TraceStep:
    return _step(g, "max degree at most 3", "degree-le", {"subject": _FULL, "bound": 3})


def _certify_r_le_one() -> TraceStep:
    return _exact("median eigenvalues certified within [-1, 1]", *_R_LE_ONE)


def _held(trace: WitnessTrace) -> bool:
    """Whether every step of the trace held and every child passed."""
    return all(s.ok for s in trace.steps) and all(c.verdict == PASS for c in trace.children)


def _concludes(g: Graph, trace: WitnessTrace) -> bool:
    """Whether a pass verdict follows from the trace: every step held, every
    child passed, and either the last step is the exact claim R <= 1 on the
    whole graph or a singular crossing graph (which implies it), or the
    children are the same theorem on exactly the components of g."""
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
    return (last.kind, last.data) == _R_LE_ONE or last.kind == "singular-crossing"


def _sp_applies(g: Graph) -> bool:
    """The sp theorem's precondition: non-empty, max degree 3, no K4 minor."""
    return g.n > 0 and g.max_degree() <= 3 and k4_minor_free(g)


def _odd_applies(g: Graph) -> bool:
    return g.n % 2 == 1 and g.max_degree() <= 3


# Each theorem's precondition, where its verifier answers not-applicable
# exactly when it fails.
_APPLIES = {
    "series-parallel-bound": _sp_applies,
    "k23-bound": lambda g: g.max_degree() <= 3 and find_k23(g) is not None,
    "odd-order": _odd_applies,
}


def _replay(g: Graph, trace: WitnessTrace) -> bool:
    """Whether one trace of a tree checks on its host, its counts already
    on the fact records; each child is checked on its own host."""
    applies = _APPLIES.get(trace.theorem) if type(trace.theorem) is str else None
    if applies is None or trace.verdict not in _VERDICTS:
        return False
    if (trace.verdict == NOT_APPLICABLE) == applies(g):
        return False
    for step in trace.steps:
        evaluator, mode = _EVALUATORS.get(step.kind, (None, None))
        if evaluator is None or mode != step.mode or evaluator(g, step.data) != step.ok:
            return False
    if trace.verdict == FAIL:
        return not _held(trace)
    return trace.verdict != PASS or _concludes(g, trace)


# ---------------------------------------------------------------------------
# the odd-order lemma
# ---------------------------------------------------------------------------

def check_lemma_odd(g: Graph) -> WitnessTrace:
    """Odd-order graphs with max degree 3 keep the median pair within [-1, 1]."""
    return _deliver(g, _odd_trace(g))


def _odd_trace(g: Graph) -> WitnessTrace:
    """check_lemma_odd's trace: the sides of an unfriendly partition (a flip
    search from the empty side) cross in a graph of odd order."""
    if not _odd_applies(g):
        return WitnessTrace("odd-order", "precondition", {}, (), NOT_APPLICABLE)
    steps = (_degree_le_three(g), _singular_crossing(g, _flip_search(g, 0), "odd"))
    return WitnessTrace("odd-order", "odd-order", {}, steps, None)


def _singular_crossing(g: Graph, side: int, reason: str, **twins: int) -> TraceStep:
    """The step that concludes R <= 1 from the sides of a partition of g
    (side: side a's mask) and why their crossing graph is singular."""
    return _step(g, f"the sides meet in a matching and cross in a singular graph ({reason})",
                 "singular-crossing", {"side_a": list(_bits(side)), "reason": reason, **twins})


# ---------------------------------------------------------------------------
# first main verifier: the common-trio argument
# ---------------------------------------------------------------------------

def verify_theorem_k23(g: Graph) -> WitnessTrace:
    """Replay the argument that a max-degree-3 graph containing a complete
    2x3 bipartite subgraph has both median eigenvalues in [-1, 1].

    Steps: build an unfriendly partition separating the two degree-3 ends
    from the middle trio (a flip search from the ends' side, which never
    moves the five).  Its edges within the sides form a matching, and the
    two ends are twins in its crossing graph, which is therefore singular;
    that step concludes R <= 1 (see _eval_singular_crossing), with no count.
    """
    return _deliver(g, _k23_trace(g))


def _k23_trace(g: Graph) -> WitnessTrace:
    """verify_theorem_k23's trace."""
    theorem = "k23-bound"
    emb = find_k23(g)
    if g.max_degree() > 3 or emb is None:
        return WitnessTrace(theorem, "precondition", {}, (), NOT_APPLICABLE)
    x1, x2, ys = emb.x1, emb.x2, [emb.y1, emb.y2, emb.y3]
    # The flip search from side {x1, x2} ends in an unfriendly partition of
    # the argument's shape.  With max degree 3, each x has exactly the trio
    # as neighbours, and each y both xs and at most one more; so while the
    # xs share a side and the trio holds the other, none of the five has
    # more neighbours on its own side than across, and none ever flips.
    side = _flip_search(g, (1 << x1) | (1 << x2))
    named = {"x1": x1, "x2": x2, "ys": ys, "side_a": list(_bits(side))}
    steps = (
        _degree_le_three(g),
        _step(g, "the 2x3 complete bipartite subgraph is present", "k23-present",
              {"x1": x1, "x2": x2, "ys": ys}),
        _step(g, "unfriendly partition separates the degree-3 ends from the trio",
              "unfriendly-shape",
              {"side_a": named["side_a"], "same_side": [x1, x2], "other_side": ys}),
        _singular_crossing(g, side, "twins", u=x1, v=x2),
    )
    return WitnessTrace(theorem, "k23", named, steps, None)


# ---------------------------------------------------------------------------
# second main verifier: induction over treewidth-2 graphs
# ---------------------------------------------------------------------------

def _count_bound_steps(subject: dict, label: str, upper_bound: int) -> list[TraceStep]:
    """Exact tail-count bounds at both thresholds for one subgraph."""
    return [_exact(f"{label}: at most {upper_bound} eigenvalues {which} {t} (exact)", "count-le",
                   {"subject": subject, "which": which, "threshold": t, "bound": upper_bound})
            for which, t in _TAILS]


def _interlace_steps(g: Graph, deleted: list[int], label: str) -> list[TraceStep]:
    """The deletion's tail counts plus the deleted vertices bound the whole
    graph's: at most h - 1 eigenvalues above 1 and n - l below -1."""
    return [_exact(f"{label} interlacing: at most {bound} eigenvalues {which} {t} (exact)",
                   "interlace-count",
                   {"deleted": deleted, "threshold": t, "which": which, "bound": bound})
            for (which, t), bound in _tail_bounds(g.n)]


def _sp_case(g: Graph) -> str:
    """The case of the sp induction that g takes: the theorem's precondition
    failing, components, odd order, n = 2 or 4, a cycle, a cut vertex, or
    two-connected."""
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


def _sp_case_cut_vertex(g: Graph, named: dict) -> tuple[list[TraceStep], dict]:
    """The split at v, the least cut vertex: the odd component of G - v
    with the least vertex, and the rest of G - v."""
    n = g.n
    v = min(cut_vertices(g))
    part_one = min((c for c in _components_without(g, {v}) if len(c) % 2 == 1), key=min)
    part_one, part_rest = sorted(part_one), sorted(set(range(n)) - {v} - part_one)
    del_spec = {"kind": "delete", "vertices": [v]}
    named.update({"cut_vertex": v, "odd_component": part_one, "remainder": part_rest})
    return [
        _step(g, f"vertex {v} is a cut vertex", "cut-vertex", {"vertex": v}),
        _step(g, "chosen component of the deletion has odd order", "size-parity",
              {"vertices": part_one, "parity": "odd"}),
        _step(g, "chosen set is a full component of the deletion", "component-of",
              {"subject": del_spec, "vertices": part_one}),
        _step(g, "remainder has even order", "size-parity",
              {"vertices": part_rest, "parity": "even"}),
        *_count_bound_steps({"kind": "induced", "vertices": part_one}, "odd component",
                            (len(part_one) - 1) // 2),
        *_count_bound_steps({"kind": "induced", "vertices": part_rest}, "remainder",
                            (len(part_rest) - 2) // 2),
        *_count_bound_steps(del_spec, "deletion", (n - 4) // 2),
        *_interlace_steps(g, del_spec["vertices"], "single-vertex deletion"),
    ], named


def _arc_split(cyc: list[int], u: int, v: int) -> tuple[list[int], list[int]]:
    """The two open arcs of the cycle between u and v, each ordered so the
    first vertex neighbors u and the last neighbors v."""
    pos = {w: i for i, w in enumerate(cyc)}
    iu, iv = pos[u], pos[v]
    L = len(cyc)
    arc_a = [cyc[(iu + k) % L] for k in range(1, (iv - iu) % L)]
    arc_b = [cyc[(iv + k) % L] for k in range(1, (iu - iv) % L)]
    arc_b.reverse()
    return arc_a, arc_b


def _c_path_lengths(g: Graph, cyc: list[int]) -> dict[int, dict[int, int]]:
    """For each vertex a of the cycle, BFS distances from a over paths that
    use no cycle edge and whose interior is off the cycle.  Such a path
    between two cycle vertices is a C-path, and the shortest from a to b is
    lengths[a][b] long.  Cycle vertices other than a are reached but never
    left; off-cycle vertices have entries too."""
    on, lengths = set(cyc), {}
    for i, a in enumerate(cyc):
        beside = {cyc[i - 1], cyc[(i + 1) % len(cyc)]}
        dist, frontier = {a: 0}, [a]
        while frontier:
            fresh = []
            for x in frontier:
                for y in _bits(g.neighbor_mask(x)):
                    if y not in dist and not (x == a and y in beside):
                        dist[y] = dist[x] + 1
                        if y not in on:
                            fresh.append(y)
            frontier = fresh
        lengths[a] = dist
    return lengths


def _longer_c_path(cyc: list[int], lengths: dict) -> tuple[int, int] | None:
    """Cycle vertices (a, b) whose shortest C-path is longer than the shorter
    cycle arc between them, that arc running forward from a to b; None when
    the cycle is locally longest."""
    pos = {v: i for i, v in enumerate(cyc)}
    for a in cyc:
        for b, d in lengths[a].items():
            if b in pos:
                k = (pos[b] - pos[a]) % len(cyc)
                if d > min(k, len(cyc) - k):
                    return (a, b) if 2 * k <= len(cyc) else (b, a)
    return None


def _c_path(g: Graph, cyc: list[int], dist: dict[int, int], start: int) -> list[int]:
    """The lexicographically least shortest C-path from start to the source
    of dist (one of _c_path_lengths' maps), stepping to the least neighbour
    one closer; only the source may be a cycle vertex past start."""
    path, on = [start], set(cyc)
    while dist[path[-1]]:
        closer = dist[path[-1]] - 1
        path.append(next(y for y in _bits(g.neighbor_mask(path[-1]))
                         if dist.get(y) == closer and (not closer or y not in on)))
    return path


def _ear_cycle(g: Graph) -> tuple[list[int], dict]:
    """A locally longest cycle of a two-connected g, with its C-path lengths.

    Start from the first cycle a depth-first walk from vertex 0 closes,
    always to the least neighbour but the one it came from (every degree is
    at least 2, so it never backtracks).  While some shortest C-path is
    longer than the shorter arc between its ends, swap that arc for it: the
    cycle grows each time, so this stops.
    """
    walk = [0]
    while True:
        w = next(y for y in _bits(g.neighbor_mask(walk[-1])) if len(walk) < 2 or y != walk[-2])
        if w in walk:
            break
        walk.append(w)
    cyc = walk[walk.index(w):]
    while True:
        lengths = _c_path_lengths(g, cyc)
        pair = _longer_c_path(cyc, lengths)
        if pair is None:
            return cyc, lengths
        a, b = pair
        i = cyc.index(a)
        ahead = cyc[i:] + cyc[:i]
        cyc = _c_path(g, cyc, lengths[b], a) + ahead[ahead.index(b) + 1:]


def _sp_case_two_connected(g: Graph, named: dict) -> tuple[list[TraceStep], dict]:
    """Returns (steps, named)."""
    n = g.n
    cyc, lengths = _ear_cycle(g)
    named["cycle"] = list(cyc)
    steps = [
        _step(g, "recorded sequence is a cycle of the graph", "cycle-in-graph", {"sequence": list(cyc)}),
        _step(g, "no shortest C-path is longer than the shorter cycle arc between its ends",
              "locally-longest-cycle", {"cycle": list(cyc)}),
    ]
    # the least (length, path) C-path, read from the smaller end; g is not a
    # cycle, so one exists
    shortest = min(d for a in cyc for b, d in lengths[a].items() if b in lengths and b != a)
    path = min(_c_path(g, cyc, lengths[w], u) for w in cyc
               for u, d in lengths[w].items() if u in lengths and u < w and d == shortest)
    u, v = path[0], path[-1]
    named.update({"path": list(path), "u": u, "v": v})
    steps += [
        _step(g, "path avoids cycle edges and interior cycle vertices", "chordal-path",
              {"path": list(path), "cycle": list(cyc)}),
        _step(g, "path endpoints are not consecutive on the cycle", "not-consecutive-on-cycle",
              {"cycle": list(cyc), "u": u, "v": v}),
    ]
    if not steps[-1].ok:
        return steps, named
    # The arcs are never both single vertices: then the cycle would be u a v b,
    # with u and v saturated by a, b and the C-path's interior w (or a chord
    # uv).  A further vertex reaching two of {a, b, w} gives a K4 minor, one
    # reaching only one makes that one a cut vertex; so g is K2,3 (odd-order
    # first) or C4 plus a chord (base-n4).
    arc_a, arc_b = _arc_split(cyc, u, v)
    # label arcs so the second pair of cycle-neighbors is distinct if possible
    if len(arc_b) == 1:
        arc_a, arc_b = arc_b, arc_a
    elif len(arc_a) > 1 and len(arc_b) > 1 and arc_b[0] < arc_a[0]:
        arc_a, arc_b = arc_b, arc_a
    u1, v1 = arc_a[0], arc_a[-1]
    u2, v2 = arc_b[0], arc_b[-1]
    named.update({"u1": u1, "v1": v1, "u2": u2, "v2": v2})
    # claim: removing {u2, v} disconnects the graph
    del_u2v = {"kind": "delete", "vertices": sorted({u2, v})}
    steps.append(_step(g, "removing the far cycle-neighbor and one path end disconnects the graph",
                       "not-connected", {"subject": del_u2v}))
    if not steps[-1].ok:
        return steps, named
    comps = _components_without(g, {u2, v})
    part_w = next(c for c in comps if u in c)
    named["W"] = sorted(part_w)
    w_minus_u = sorted(set(part_w) - {u})
    expected = 1 if g.has_edge(u, v) else 2
    steps.append(_step(g, f"component of the first end, minus it, splits into {expected} piece(s)",
                       "components-count",
                       {"subject": {"kind": "induced", "vertices": w_minus_u}, "equals": expected}))
    steps += [_step(g, "piece is a full component after deleting both path ends", "component-of",
                    {"subject": {"kind": "delete", "vertices": sorted({u, v})},
                     "vertices": sorted(piece)})
              for piece in _components_without(g, set(range(n)) - set(w_minus_u))]
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
        *(_step(g, f"{which} part has even order", "size-parity",
                {"vertices": list(part), "parity": "even"})
          for which, part in (("first", g1_set), ("second", g2_set))),
        _step(g, "the two parts partition the deletion remainder", "set-partition",
              {"parts": [list(g1_set), list(g2_set)], "deleted": [x, v]}),
        _step(g, "no edges join the two parts", "no-cross-edges",
              {"set_a": list(g1_set), "set_b": list(g2_set)}),
        _step(g, "second cycle-neighbor of the far end lies in the second part", "vertex-in-set",
              {"vertex": v2, "vertices": list(g2_set)}),
        *_count_bound_steps({"kind": "induced", "vertices": list(g1_set)}, "first part",
                            (len(g1_set) - 2) // 2),
        *_count_bound_steps({"kind": "induced", "vertices": list(g2_set)}, "second part",
                            (len(g2_set) - 2) // 2),
        *_count_bound_steps(del_xv, "two-vertex deletion", (n - 6) // 2),
        *_interlace_steps(g, del_xv["vertices"], "two-vertex deletion"),
    ]
    return steps, named


def verify_theorem_sp(g: Graph) -> WitnessTrace:
    """Replay the induction that treewidth-2 graphs of max degree 3 keep both
    median eigenvalues in [-1, 1], on one concrete graph.

    The inductive hypotheses (tail-count bounds for the smaller parts) are
    discharged by exact inertia counts on the concrete subgraphs rather than
    recursive verification, and the final bound carries its own certificate,
    so a flaw anywhere surfaces as a failing step.
    """
    return _deliver(g, _sp_trace(g))


def _sp_trace(g: Graph) -> WitnessTrace:
    """verify_theorem_sp's trace, its counts pending."""
    theorem = "series-parallel-bound"
    case = _sp_case(g)
    if case == "precondition":
        return WitnessTrace(theorem, case, {}, (), NOT_APPLICABLE)

    if case == "components":
        comps = [sorted(c) for c in components(g)]
        children = []
        for host in comps:
            child = _sp_trace(_subject_graph(g, {"kind": "induced", "vertices": host}))
            child.named["host-vertices"] = host  # each builder makes its own named
            children.append(child)
        return WitnessTrace(theorem, case, {"components": comps}, (), None, tuple(children))

    named: dict = {}
    children: tuple[WitnessTrace, ...] = ()
    case_steps: list[TraceStep] = []  # none for base-n2 and base-n4
    if case == "odd-order":
        children = (_odd_trace(g),)
    elif case == "cycle":
        case_steps = [_step(g, "graph is a single cycle", "is-cycle", {"subject": _FULL})]
    elif case == "cut-vertex":
        case_steps, named = _sp_case_cut_vertex(g, named)
    elif case == "two-connected":
        case_steps, named = _sp_case_two_connected(g, named)
    steps = (_degree_le_three(g), *case_steps, _certify_r_le_one())
    return WitnessTrace(theorem, case, named, steps, None, children)
