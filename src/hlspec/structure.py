"""Combinatorial structure: unfriendly vertex bipartitions and their flip
search (the k23 verifier's shaped-partition search runs on these), twins,
subdivisions of K_{2,3}, K4-minor recognition, and longest cycles.

K4-minor-freeness has two deciders: a reducer that records every step for
replay, and a bitmask elimination that returns only the verdict.  Tests
check both against a brute-force contraction oracle kept out of the
package (tests/oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph_core import Graph, Multigraph


# ---------------------------------------------------------------------------
# vertex bipartitions and the "at least as many neighbors across" condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """An unordered bipartition of the vertex set.  Either side may be empty."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    @classmethod
    def of(cls, g: Graph, side_a: Iterable[int]) -> "Partition":
        a = frozenset(side_a)
        for v in a:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range for n={g.n}")
        return cls(side_a=a, side_b=frozenset(range(g.n)) - a)


def _first_violator(g: Graph, a_mask: int) -> int | None:
    """Smallest vertex with more same-side than cross-side neighbors."""
    for v in range(g.n):
        nb = g.neighbor_mask(v)
        if (a_mask >> v) & 1:
            same = (nb & a_mask).bit_count()
        else:
            same = (nb & ~a_mask).bit_count()
        if 2 * same > g.degree(v):
            return v
    return None


def is_unfriendly(g: Graph, part: Partition) -> bool:
    """Every vertex has at least as many neighbors across as on its own side."""
    a_mask = sum(1 << v for v in part.side_a)
    return _first_violator(g, a_mask) is None


def _flip_search(g: Graph, a_mask: int) -> int:
    """Run the flip local search from a starting side-a mask to a fixpoint.

    Moving a violating vertex strictly increases the cut, and the cut is
    bounded by the edge count, so this terminates within m flips.
    """
    while True:
        v = _first_violator(g, a_mask)
        if v is None:
            return a_mask
        a_mask ^= 1 << v


# ---------------------------------------------------------------------------
# twins and K_{2,3} subgraphs
# ---------------------------------------------------------------------------

def find_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs with identical (open) neighborhoods, lexicographic order.

    Twins sharing an edge cannot exist in a simple graph, so every returned
    pair is non-adjacent.
    """
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.neighbor_mask(u) == g.neighbor_mask(v)
    ]


@dataclass(frozen=True)
class K23Embedding:
    """Six vertices spanning a complete-bipartite 2x3 subgraph of the host.

    x1, x2 are the two degree-3 ends; y1 < y2 < y3 the middle trio.  The
    subgraph need not be induced.
    """

    x1: int
    x2: int
    y1: int
    y2: int
    y3: int


def find_k23(g: Graph) -> K23Embedding | None:
    """First pair (lexicographic) of vertices with >= 3 common neighbors."""
    for x1 in range(g.n):
        m1 = g.neighbor_mask(x1)
        for x2 in range(x1 + 1, g.n):
            common = m1 & g.neighbor_mask(x2)
            if common.bit_count() >= 3:
                ys = []
                v = 0
                while len(ys) < 3:
                    if (common >> v) & 1:
                        ys.append(v)
                    v += 1
                return K23Embedding(x1, x2, ys[0], ys[1], ys[2])
    return None


# ---------------------------------------------------------------------------
# treewidth-2 recognition by reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionStep:
    """One applied reduction rule, with enough detail to replay it.

    vertices is rule-specific: loop-delete (v,), parallel-merge (u, v),
    leaf-delete (v,), suppress (v, a, b) where a, b are the neighbors the
    replacement edge joins.  after is the (vertex count, edge multiplicity)
    signature of the state the step produced.
    """

    rule: str
    vertices: tuple[int, ...]
    multiplicity: int | None
    after: tuple[int, int]


@dataclass(frozen=True)
class SPReductionTrace:
    steps: tuple[ReductionStep, ...]
    final_vertices: int
    final_multiplicity: int
    reduced_to_empty: bool


def _apply_loop_delete(mg: Multigraph, v: int) -> ReductionStep:
    if mg.loop_count(v) < 1:
        raise ValueError(f"no loop at {v}")
    mg.remove_edge(v, v)
    return ReductionStep("loop-delete", (v,), None, mg.signature())


def _apply_parallel_merge(mg: Multigraph, u: int, v: int) -> ReductionStep:
    mult = mg.multiplicity(u, v)
    if u == v or mult < 2:
        raise ValueError(f"({u},{v}) is not a parallel edge bundle")
    mg.remove_edge(u, v, mult - 1)
    return ReductionStep("parallel-merge", (u, v), mult, mg.signature())


def _apply_leaf_delete(mg: Multigraph, v: int) -> ReductionStep:
    if mg.degree(v) > 1:
        raise ValueError(f"vertex {v} has degree > 1")
    mg.delete_vertex(v)
    return ReductionStep("leaf-delete", (v,), None, mg.signature())


def _apply_suppress(mg: Multigraph, v: int) -> ReductionStep:
    if mg.loop_count(v) != 0 or mg.degree(v) != 2:
        raise ValueError(f"vertex {v} is not suppressible")
    nbrs = sorted(mg.neighbors(v))
    if len(nbrs) == 1:
        # double edge to one neighbor: the replacement is a loop there
        a = b = nbrs[0]
        mg.remove_edge(v, a, 2)
    else:
        a, b = nbrs
        mg.remove_edge(v, a)
        mg.remove_edge(v, b)
    mg.delete_vertex(v)
    mg.add_edge(a, b)
    return ReductionStep("suppress", (v, a, b), None, mg.signature())


_APPLIERS = {
    "loop-delete": _apply_loop_delete,
    "parallel-merge": _apply_parallel_merge,
    "leaf-delete": _apply_leaf_delete,
    "suppress": _apply_suppress,
}


def _update_candidates(mg: Multigraph, cands: tuple[set, ...], touched: Iterable[int]) -> None:
    """Recompute at each touched vertex whether it has a loop, has degree
    <= 1, or is loopless of degree 2; a deleted vertex has none of these."""
    loops, _, leaves, suppress = cands
    for x in touched:
        alive = x in mg.vertices
        loop, deg = mg.multiplicity(x, x), mg.degree(x)
        (loops.add if alive and loop else loops.discard)(x)
        (leaves.add if alive and deg <= 1 else leaves.discard)(x)
        (suppress.add if alive and deg == 2 and not loop else suppress.discard)(x)


def reduce_multigraph(mg: Multigraph) -> SPReductionTrace:
    """Apply the four reduction rules to a fixpoint, recording every step.

    Each step applies the first rule in _APPLIERS' order with a candidate
    (kept in one set per rule) to its smallest.  A step changes only edges
    among its first vertex v and v's neighbors, so only those and the pairs
    among them are looked at again.  Each step strictly decreases vertex
    count plus edge multiplicity, so the loop terminates.  The input
    multigraph is consumed (mutated).
    """
    pairs = {e for e, mult in mg.edge_items() if e[0] != e[1] and mult >= 2}
    cands = (set(), pairs, set(), set())
    _update_candidates(mg, cands, mg.vertices)
    steps: list[ReductionStep] = []
    while True:
        for (rule, applier), found in zip(_APPLIERS.items(), cands):
            if found:
                break
        else:
            break
        chosen = min(found)
        args = chosen if rule == "parallel-merge" else (chosen,)
        touched = sorted(mg.neighbors(args[0]) | {args[0]})
        steps.append(applier(mg, *args))
        _update_candidates(mg, cands, touched)
        for i, x in enumerate(touched):
            for y in touched[i + 1 :]:
                (pairs.add if mg.multiplicity(x, y) >= 2 else pairs.discard)((x, y))
    return SPReductionTrace(
        steps=tuple(steps),
        final_vertices=mg.n_vertices,
        final_multiplicity=mg.total_multiplicity,
        reduced_to_empty=(mg.n_vertices == 0),
    )


def is_k4_minor_free(g: Graph) -> tuple[bool, SPReductionTrace]:
    """Recognize treewidth <= 2 by reduction to the empty multigraph.

    Loop deletion, parallel merging, degree <= 1 deletion, and degree-2
    suppression each preserve the presence and absence of a K4 minor, and a
    nonempty multigraph admitting none of them is simple with minimum degree
    >= 3, hence contains a K4 subdivision.  So the answer is exactly
    "did the reduction empty the graph".
    """
    trace = reduce_multigraph(Multigraph.from_graph(g))
    return trace.reduced_to_empty, trace


def _k4_free_by_elimination(g: Graph) -> bool:
    """Whether g has no K4 minor, by eliminating vertices of degree <= 2 on
    neighbour bitmasks: a vertex of degree <= 1 is deleted, and one of
    degree 2 is deleted after its two neighbours are joined.

    These are the reducer's rules on a simple graph: joining the neighbours
    is a suppression, and OR-ing the masks merges the parallel edge it may
    make.  Each rule keeps the presence and absence of a K4 minor, and a
    non-empty graph that admits none has minimum degree >= 3, so it has a
    K4 minor (Dirac 1952; Duffin 1965).  So g is K4-minor-free iff every
    vertex goes, in whatever order.  Only the verdict is kept; the reducer
    (is_k4_minor_free) records the steps.
    """
    nbrs = [g.neighbor_mask(v) for v in range(g.n)]
    alive = (1 << g.n) - 1
    work = list(range(g.n))
    while work:
        v = work.pop()
        m = nbrs[v]
        if not (alive >> v) & 1 or m.bit_count() > 2:
            continue
        alive ^= 1 << v
        low = m & -m  # 0 when v is isolated
        high = m ^ low  # 0 unless v has degree 2
        for end, other in ((low, high), (high, low)):
            if end:
                u = end.bit_length() - 1
                nbrs[u] = (nbrs[u] ^ (1 << v)) | other
                work.append(u)
    return not alive


def k4_minor_free(g: Graph) -> bool:
    """Whether g has no K4 minor, kept on g's fact record.

    The verdict comes from _k4_free_by_elimination, which builds no
    multigraph and records no step; the reducer (is_k4_minor_free) runs
    only where its trace is wanted: recognize --trace and replay_reduction.
    """
    return g.fact("k4-minor-free", lambda: _k4_free_by_elimination(g))


def replay_reduction(g: Graph, trace: SPReductionTrace) -> bool:
    """Re-apply a recorded reduction step list and verify every signature.

    Returns False if any step's preconditions fail on the evolving state or
    any recorded signature (or the final state) disagrees.
    """
    mg = Multigraph.from_graph(g)
    for step in trace.steps:
        applier = _APPLIERS.get(step.rule)
        if applier is None:
            return False
        args = step.vertices[:2] if step.rule == "parallel-merge" else step.vertices[:1]
        try:
            redone = applier(mg, *args)
        except ValueError:
            return False
        if redone.vertices != step.vertices or redone.after != step.after:
            return False
        if redone.multiplicity != step.multiplicity:
            return False
    return (
        mg.n_vertices == trace.final_vertices
        and mg.total_multiplicity == trace.final_multiplicity
        and trace.reduced_to_empty == (mg.n_vertices == 0)
    )


# ---------------------------------------------------------------------------
# longest cycles
# ---------------------------------------------------------------------------

def longest_cycle(g: Graph) -> tuple[int, ...] | None:
    """A maximum-length cycle as a canonical vertex sequence, or None.

    Canonical form: the sequence starts at the cycle's smallest vertex and
    runs in the direction whose second vertex is smaller than its last.
    Ties between maximum-length cycles break lexicographically.  Exhaustive
    backtracking, capped at n = 20.
    """
    if g.n > 20:
        raise ValueError("longest-cycle search is capped at n = 20")
    best: tuple[int, ...] | None = None

    def consider(seq: tuple[int, ...]) -> None:
        nonlocal best
        if best is None or len(seq) > len(best) or (
            len(seq) == len(best) and seq < best
        ):
            best = seq

    path: list[int] = []

    def extend(start: int, u: int, used: int) -> None:
        for w in sorted(g.neighbors(u)):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    consider(tuple(path))
            elif w > start and not (used >> w) & 1:
                path.append(w)
                extend(start, w, used | (1 << w))
                path.pop()

    for s in range(g.n):
        path = [s]
        extend(s, s, 1 << s)
    return best
