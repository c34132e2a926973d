"""Combinatorial structure: partitions, twins, subdivisions of K_{2,3},
treewidth-2 recognition by reduction, a brute-force minor oracle, and
longest cycles.

The reducer and the minor oracle answer the same question by unrelated
methods; keeping both honest against each other is part of the test
contract, so neither may call the other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .graph_core import Graph, Multigraph, components


# ---------------------------------------------------------------------------
# vertex bipartitions and the "at least as many neighbors across" condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """An unordered bipartition of the vertex set, with its cut size.

    Either side may be empty.  cut_size is always the direct recount of
    edges with one end in each side.
    """

    side_a: frozenset[int]
    side_b: frozenset[int]
    cut_size: int

    @classmethod
    def of(cls, g: Graph, side_a: Iterable[int]) -> "Partition":
        a = frozenset(side_a)
        for v in a:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range for n={g.n}")
        b = frozenset(range(g.n)) - a
        cut = sum(1 for u, v in g.edges() if (u in a) != (v in a))
        return cls(side_a=a, side_b=b, cut_size=cut)

    def is_balanced(self) -> bool:
        return len(self.side_a) == len(self.side_b)


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


def unfriendly_partition(g: Graph) -> Partition:
    """A partition where every vertex has >= as many neighbors across.

    Flip local search from the everything-on-side-b start, moving the
    smallest violating vertex each round.  The result is re-verified by
    direct neighbor counting before being returned.
    """
    a_mask = _flip_search(g, 0)
    part = Partition.of(g, [v for v in range(g.n) if (a_mask >> v) & 1])
    if not is_unfriendly(g, part):
        raise RuntimeError("flip search converged to a non-unfriendly partition")
    return part


@dataclass(frozen=True)
class UnbalancedSearch:
    """Result of looking for an unfriendly partition with unequal sides.

    proven_absent is only ever True on the exhaustive path; on the heuristic
    path a miss just means the search did not find one.
    """

    partition: Partition | None
    proven_absent: bool
    exhaustive: bool


def find_unbalanced_unfriendly(
    g: Graph,
    exhaustive_limit: int = 12,
    allow_empty_side: bool = True,
    flip_seeds: int = 8,
) -> UnbalancedSearch:
    """Search for an unfriendly partition whose sides differ in size.

    For n <= exhaustive_limit every one of the 2^(n-1) unordered bipartitions
    is tested, so absence is a proof.  Beyond that, flip searches from
    deterministic seeds are tried and absence is inconclusive.  The trivial
    partition with one empty side counts only when allow_empty_side is set.
    """
    n = g.n
    if n <= exhaustive_limit:
        found = None
        for mask in range(1 << max(n - 1, 0)):
            if not allow_empty_side and mask == 0:
                continue
            if 2 * mask.bit_count() == n:
                continue
            if _first_violator(g, mask) is None:
                found = mask
                break
        if found is None:
            return UnbalancedSearch(None, proven_absent=True, exhaustive=True)
        part = Partition.of(g, [v for v in range(n) if (found >> v) & 1])
        return UnbalancedSearch(part, proven_absent=False, exhaustive=True)

    starts = [0, sum(1 << v for v in range(0, n, 2))]
    for seed in range(flip_seeds):
        rng = random.Random(seed)
        starts.append(rng.getrandbits(n))
    for start in starts:
        a_mask = _flip_search(g, start)
        size_a = a_mask.bit_count()
        if 2 * size_a == n:
            continue
        if not allow_empty_side and (size_a == 0 or size_a == n):
            continue
        part = Partition.of(g, [v for v in range(n) if (a_mask >> v) & 1])
        return UnbalancedSearch(part, proven_absent=False, exhaustive=False)
    return UnbalancedSearch(None, proven_absent=False, exhaustive=False)


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


def _loop_candidates(mg: Multigraph) -> list[int]:
    return sorted(v for v in mg.vertices if mg.loop_count(v) > 0)


def _leaf_candidates(mg: Multigraph) -> list[int]:
    return sorted(v for v in mg.vertices if mg.degree(v) <= 1)


def _suppress_candidates(mg: Multigraph) -> list[int]:
    return sorted(
        v for v in mg.vertices if mg.loop_count(v) == 0 and mg.degree(v) == 2
    )


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


# The rules in priority order, each pairing a candidate finder with an
# applier.  Every step applies the first rule with any candidate to its
# smallest candidate.
_RULES = {
    "loop-delete": (_loop_candidates, _apply_loop_delete),
    "parallel-merge": (Multigraph.parallel_pairs, _apply_parallel_merge),
    "leaf-delete": (_leaf_candidates, _apply_leaf_delete),
    "suppress": (_suppress_candidates, _apply_suppress),
}


def reduce_multigraph(mg: Multigraph) -> SPReductionTrace:
    """Apply the four reduction rules to a fixpoint, recording every step.

    Each step strictly decreases vertex count plus edge multiplicity, so the
    loop terminates.  The input multigraph is consumed (mutated).
    """
    steps: list[ReductionStep] = []
    while True:
        for rule, (finder, applier) in _RULES.items():
            cands = finder(mg)
            if cands:
                chosen = min(cands)
                args = chosen if rule == "parallel-merge" else (chosen,)
                steps.append(applier(mg, *args))
                break
        else:
            break
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


def k4_minor_free(g: Graph) -> bool:
    """is_k4_minor_free's verdict, kept on g's fact record.

    Only the verdict is kept: a reduction trace on every graph would hold
    far more memory than the one call it saves.
    """
    return g.fact("k4-minor-free", lambda: is_k4_minor_free(g)[0])


def replay_reduction(g: Graph, trace: SPReductionTrace) -> bool:
    """Re-apply a recorded reduction step list and verify every signature.

    Returns False if any step's preconditions fail on the evolving state or
    any recorded signature (or the final state) disagrees.
    """
    mg = Multigraph.from_graph(g)
    for step in trace.steps:
        if step.rule not in _RULES:
            return False
        applier = _RULES[step.rule][1]
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
# brute-force minor oracle
# ---------------------------------------------------------------------------

def brute_force_has_k4_minor(g: Graph) -> bool:
    """Decide K4-minor presence by exhaustive contraction search.

    A K4 minor exists iff some sequence of edge contractions produces a
    graph with four pairwise-adjacent vertices (the four merged blocks being
    the branch sets; untouched vertices ride along as deletable extras).
    States are partitions of the vertex set into connected blocks, memoized
    as frozensets.  Deliberately unrelated to the reduction recognizer.
    """
    if g.n > 12:
        raise ValueError("brute-force minor search is capped at n = 12")
    if g.n < 4 or g.m < 6:
        return False

    def block_adjacency(blocks: tuple[frozenset[int], ...]) -> list[int]:
        k = len(blocks)
        masks = [sum(1 << v for v in blk) for blk in blocks]
        nbr = []
        for blk in blocks:
            out = 0
            for v in blk:
                out |= g.neighbor_mask(v)
            nbr.append(out)
        adj = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if nbr[i] & masks[j]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return adj

    def adjacency_has_k4(adj: list[int]) -> bool:
        # four pairwise-adjacent indices: a triangle (i, j, k) plus a common
        # neighbor of all three strictly above k
        k = len(adj)
        for i in range(k):
            for j in range(i + 1, k):
                if not (adj[i] >> j) & 1:
                    continue
                common = adj[i] & adj[j] & ~((1 << (j + 1)) - 1)
                c = common
                while c:
                    low = c & -c
                    v = low.bit_length() - 1
                    if adj[v] & common & ~((1 << (v + 1)) - 1):
                        return True
                    c ^= low
        return False

    seen: set[frozenset[frozenset[int]]] = set()

    def search(blocks: tuple[frozenset[int], ...]) -> bool:
        if len(blocks) < 4:
            return False
        key = frozenset(blocks)
        if key in seen:
            return False
        seen.add(key)
        adj = block_adjacency(blocks)
        if adjacency_has_k4(adj):
            return True
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if not (adj[i] >> j) & 1:
                    continue
                merged = blocks[i] | blocks[j]
                nxt = tuple(
                    sorted(
                        [b for idx, b in enumerate(blocks) if idx not in (i, j)]
                        + [merged],
                        key=min,
                    )
                )
                if search(nxt):
                    return True
        return False

    start = tuple(sorted((frozenset([v]) for v in range(g.n)), key=min))
    return search(start)


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
