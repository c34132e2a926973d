"""Combinatorial structure: unfriendly vertex bipartitions, as side-a masks,
and their flip search (the k23 and odd-order verifiers build their
partitions with it), K_{2,3} subgraphs and K4-minor recognition.

K4-minor-freeness has one decider, a reduction on neighbor bitmasks that
can record its steps; tests check it against a brute-force contraction oracle
kept out of the package (tests/oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph


# ---------------------------------------------------------------------------
# vertex bipartitions and the "at least as many neighbors across" condition
# ---------------------------------------------------------------------------

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
# K_{2,3} subgraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class K23Embedding:
    """Five vertices spanning a complete-bipartite 2x3 subgraph of the host.

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

    vertices is rule-specific: leaf-delete (v,), suppress (v, a, b) where
    a < b are the neighbors the replacement edge joins, parallel-merge
    (a, b) of the double edge that suppress made.  after is the (vertex
    count, edge multiplicity) signature of the state the step produced.
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


def _reduction(g: Graph, steps: list[tuple] | None = None) -> tuple[int, int]:
    """Reduce g on neighbor bitmasks by deleting vertices of degree <= 1
    and suppressing vertices of degree 2, appending each step to ``steps``
    when it is given.

    Each step takes the smallest vertex of degree <= 1, else the smallest
    of degree 2 (one candidate mask each, rechecked only at the vertices
    whose degree a step lowers).  A suppress (v, a, b) joins a and b; if
    they were already adjacent the multigraph it stands for has a double
    edge, and a parallel-merge (a, b) of multiplicity 2 follows at once, so
    no loop and no other double edge ever arises.  Each rule keeps
    the presence and absence of a K4 minor, and a non-empty graph that
    admits none has minimum degree >= 3, so it has a K4 minor (Dirac 1952;
    Duffin 1965): g is K4-minor-free iff no vertex is left.

    A step is (rule, vertices, multiplicity, after).  Returns the mask of
    vertices left and the number of edges left.
    """
    nbrs = list(g._mask)
    alive, left, edges = (1 << g.n) - 1, g.n, 0
    low = two = 0  # vertices of degree <= 1, of degree 2
    for v, m in enumerate(nbrs):
        deg = m.bit_count()
        edges += deg
        low |= (deg < 2) << v
        two |= (deg == 2) << v
    edges //= 2
    while low or two:
        pick = low or two
        bit = pick & -pick
        v = bit.bit_length() - 1
        alive ^= bit
        left -= 1
        m = nbrs[v]
        if low:
            low ^= bit
            lost = m  # its neighbor, if any, loses a degree
            if m:
                nbrs[m.bit_length() - 1] ^= bit
                edges -= 1
            if steps is not None:
                steps.append(("leaf-delete", (v,), None, (left, edges)))
        else:
            two ^= bit
            first = m & -m
            a, b = first.bit_length() - 1, m.bit_length() - 1
            merged = nbrs[a] & (m ^ first)
            nbrs[a] = (nbrs[a] ^ bit) | (m ^ first)
            nbrs[b] = (nbrs[b] ^ bit) | first
            edges -= 1
            if steps is not None:
                steps.append(("suppress", (v, a, b), None, (left, edges)))
            lost = 0  # a new edge ab keeps both degrees
            if merged:  # the double edge ab merges: a and b each lose a degree
                edges -= 1
                if steps is not None:
                    steps.append(("parallel-merge", (a, b), 2, (left, edges)))
                lost = m
        while lost:
            end = lost & -lost
            lost ^= end
            deg = nbrs[end.bit_length() - 1].bit_count()
            if deg < 2:
                low |= end
                two &= ~end
            elif deg == 2:
                two |= end
    return alive, edges


def is_k4_minor_free(g: Graph) -> tuple[bool, SPReductionTrace]:
    """Whether g has no K4 minor, with the steps of _reduction as a trace."""
    steps: list[tuple] = []
    alive, edges = _reduction(g, steps)
    trace = SPReductionTrace(
        steps=tuple(ReductionStep(*s) for s in steps),
        final_vertices=alive.bit_count(),
        final_multiplicity=edges,
        reduced_to_empty=not alive,
    )
    return trace.reduced_to_empty, trace


def k4_minor_free(g: Graph) -> bool:
    """Whether g has no K4 minor, kept on g's fact record.  No trace is
    built; is_k4_minor_free builds one where it is wanted."""
    return g.fact("k4-minor-free", lambda: not _reduction(g)[0])


def replay_reduction(g: Graph, trace: SPReductionTrace) -> bool:
    """Whether trace is exactly the reduction is_k4_minor_free records on g:
    every step, its order, its signature and the final state."""
    return trace == is_k4_minor_free(g)[1]

