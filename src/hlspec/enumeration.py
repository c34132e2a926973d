"""Isomorph-free generation of small graphs.

Generation walks vertex counts 1..n: every class representative on k-1
vertices is extended by one new vertex attached to each admissible neighbor
subset, and the children are deduplicated by canonical form.  A subset in
the orbit of an earlier one under the parent's automorphisms (the
generators the canonical-form search finds) is skipped (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Hereditary
properties (bipartite, no K4 minor: both closed under vertex deletion) are
tested on each child before it is canonicalized, which costs far less, so a
rejected child is never canonicalized; isomorphic children share the
verdict, so a class is kept or dropped whole.  When only connected graphs
are wanted, the last level skips a subset that misses a component of its
parent before building the child, and every subset of a parent with more
components than the new vertex may have neighbors.

Most of the other children are skipped before they are built, tested or
canonicalized, because an earlier parent already made their class.  In
every leaf of the canonical search the isolated vertices come first: the
search splits the unit cell by degree into ascending pieces, and later
splits stay in place.  So a graph on n vertices with exactly k isolated
vertices has zero rows 0..k-1 in its code and a 1 in row k, and more
isolated vertices means a strictly smaller key.  If deleting an old vertex
u from the child C = P + v leaves more isolated vertices than P has, C - u
keys below P and comes earlier in the sorted parent level: it keeps the
degree cap and every hereditary filter C has.  That parent processed the
first subset in the orbit of the image of N(u), which is eligible under the
cap and gives a connected child when C is connected.  By induction on the
parent's rank, C's class is already found, so skipping C changes no
representative and no order.  The test runs before the subset's orbit is
marked; the parent's automorphisms keep its verdict, so the orbit's other
subsets are skipped by the same test.

No shortcut skips the first child of a kept class in (parent, subset)
order, so the representatives are those of the plain every-child search.
Exhaustive and exact, which is the point; the hard cap keeps the cost
honest.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph_core import Graph, components, is_bipartite
from .structure import _reduction, find_k23

HARD_CAP = 12

KNOWN_FILTERS = ("k4-minor-free", "contains-k23", "bipartite", "even-order")
_HEREDITARY = frozenset({"k4-minor-free", "bipartite"})


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _refine(masks: list[int], cmasks: list[int], stable: Iterable[int] = ()) -> list[int]:
    """Equitable refinement: split cells by neighbor counts into each cell.

    A cell is its vertex mask; the cell order is the partition's.  The first
    cell not yet used as a splitter splits every cell into pieces ordered by
    count, and the scan goes on from the first new piece, so the refinement
    depends only on the isomorphism type and the incoming cell order.  A
    splitter of several vertices counts neighbors into it as bit planes over
    all vertices at once (plane k holds the vertices whose count has bit k
    set); a cell splits on each plane from the top down, zero side first,
    which orders its pieces by count.  stable holds cell masks that split
    nothing by the time the scan reaches them, such as the cells of an
    equitable partition this one refines (splitting never undoes that); a
    stable splitter is skipped, as is a cell that holds no neighbor of it.
    """
    cmasks = list(cmasks)
    known = set(stable)
    # the vertices of non-singleton cells; once there are none, stop
    loose = sum(m for m in cmasks if m & (m - 1))
    i = 0
    while loose and i < len(cmasks):
        smask = cmasks[i]
        i += 1
        if smask in known:
            continue
        known.add(smask)
        if smask & (smask - 1):
            planes: list[int] = []
            reach = 0
            rest = smask
            while rest:
                low = rest & -rest
                rest ^= low
                carry = masks[low.bit_length() - 1]
                reach |= carry
                # add the member's neighbors into the planes, bit by bit
                k = 0
                while carry:
                    if k == len(planes):
                        planes.append(carry)
                        break
                    plane = planes[k]
                    planes[k] = plane ^ carry
                    carry &= plane
                    k += 1
            planes.reverse()
        else:
            reach = masks[smask.bit_length() - 1]
            planes = [reach]
        live = reach & loose
        # split from the back, so the cells still to visit keep their index
        j = len(cmasks)
        while live:
            j -= 1
            cmask = cmasks[j]
            if not cmask & live:
                continue
            live &= ~cmask
            pmasks = None
            for plane in planes:
                one = cmask & plane
                if not one or one == cmask:
                    continue
                if pmasks is None:
                    pmasks = [cmask ^ one, one]
                else:  # each piece splits into its zero side, then its one side
                    pmasks = [p for m in pmasks for p in (m & ~plane, m & plane) if p]
            if pmasks is None:
                continue
            # the last piece of a cell the partition is equitable against
            # splits nothing by the time the scan reaches it: the pieces
            # before it are splitters by then, and the cell less them is it
            if cmask in known:
                known.add(pmasks[-1])
            for m in pmasks:
                if not m & (m - 1):
                    loose ^= m
            cmasks[j : j + 1] = pmasks
            if j < i:
                i = j
    return cmasks


def _root(parent: list[int], x: int) -> int:
    """x's root in a union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@functools.cache
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[i][j]: the leaf-code bit of pair {i, j}; (i, j), i < j, is bit offset[i] - j."""
    nbits = n * (n - 1) // 2
    offset = [nbits + i * (i + 3) // 2 - i * n for i in range(n)]
    return tuple(tuple(1 << offset[min(i, j)] - max(i, j) if i != j else 0 for j in range(n))
                 for i in range(n))


def canonical_key(g: Graph, generators: list[tuple[int, ...]] | None = None) -> bytes:
    """A complete isomorphism invariant: two graphs get equal keys iff they
    are isomorphic.

    The key is the vertex count followed by the lexicographically minimal
    upper-triangle adjacency bitstring over the leaves of the search below,
    not over all vertex orderings.  So it is not in general the global
    minimum code (it differs for 93 of the 358 classes on 1 <= n <= 6 and
    subcubic n = 7), and it depends on the cell order _refine produces.  It
    is still a complete invariant: refinement commutes with relabelling, so
    an isomorphism maps one graph's search leaves onto the other's codes.
    The search starts from the unit cell split by degree into ascending
    pieces, which is the split refining the unit cell makes first, and
    individualizes vertices cell by cell inside an equitable partition.
    Two prunings keep symmetric graphs tractable, and neither changes the
    key.  A cell of pairwise twins (equal open or equal closed
    neighborhoods) is individualized whole, in ascending order: swapping two
    twins is an automorphism fixing everything individualized so far, so
    every branch on the cell is the image of that one, leaves and codes
    included; and a twin splits no cell, so the partition stays equitable.
    Automorphisms discovered at equal-code leaves let sibling branches in
    the same orbit be skipped.  The search runs on neighbor masks alone: a
    cell is its vertex mask, a branch is the parent partition's head and tail
    around the individualized vertex and the rest of its cell, and a leaf's
    order is read off its singleton masks.

    The automorphisms the search found (the twin swaps and the leaf ones;
    permutations v -> p[v], not the identity) are appended to
    ``generators`` when it is given.
    """
    n = g.n
    if n > 62:
        raise ValueError("canonical form is sized for graph6-scale graphs")
    if n == 0:
        return bytes([0])
    masks = g._mask
    edges = g.edges()
    nbits = n * (n - 1) // 2
    bits = _pair_bits(n)
    best: int | None = None
    best_pos: list[int] = []
    autos: list[list[int]] = []

    def descend(cmasks: list[int], prefix: list[int]) -> None:
        nonlocal best, best_pos
        if len(cmasks) == n:
            # a leaf: every cell is a singleton, and pos[v] is the index of 1 << v
            pos = sorted(range(n), key=cmasks.__getitem__)
            code = sum([bits[pos[a]][pos[b]] for a, b in edges])
            if best is None or code < best:
                best, best_pos = code, pos
            elif code == best and pos != best_pos:
                # equal codes define an automorphism: v -> the vertex at v's
                # position in the best leaf
                autos.append([cmasks[i].bit_length() - 1 for i in best_pos])
            return
        for target, cmask in enumerate(cmasks):
            if cmask & (cmask - 1):
                break
        head, tail = cmasks[:target], cmasks[target + 1 :]
        # the cell's vertices and the union of their neighborhoods
        cell = []
        reach = 0
        rest = cmask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            cell.append(v)
            reach |= masks[v]
        # a cell of an equitable partition shares one degree, so its members
        # are open twins iff their neighbors number that degree, and closed
        # twins iff their closed neighborhoods number one more
        degree = masks[v].bit_count()
        if reach.bit_count() == degree or (reach | cmask).bit_count() == degree + 1:
            # a cell of twins is individualized whole (see the docstring)
            for a, b in zip(cell, cell[1:]):
                swap = list(range(n))
                swap[a], swap[b] = b, a
                autos.append(swap)
            descend(head + [1 << v for v in cell] + tail, prefix + cell)
            return
        # orbits of the known automorphisms fixing the individualized prefix,
        # as a union-find that takes in each automorphism once, when found;
        # it is made when the first such automorphism arrives
        parent: list[int] | None = None
        absorbed = 0
        explored: list[int] = []
        for v in cell:
            # skip v if a known automorphism fixing the individualized prefix
            # maps an already-explored sibling to it
            if explored:
                for a in autos[absorbed:]:
                    if list(map(a.__getitem__, prefix)) == prefix:
                        if parent is None:
                            parent = list(range(n))
                        for x, y in enumerate(a):
                            if x != y:
                                rx, ry = _root(parent, x), _root(parent, y)
                                if rx != ry:
                                    parent[rx] = ry
                absorbed = len(autos)
                if parent is not None:
                    rv = _root(parent, v)
                    if any(_root(parent, u) == rv for u in explored):
                        continue
            explored.append(v)
            prefix.append(v)
            # the cell's rest splits nothing once 1 << v has split: cmasks is equitable
            rest = cmask ^ 1 << v
            descend(_refine(masks, head + [1 << v, rest] + tail, cmasks + [rest]), prefix)
            prefix.pop()

    # the unit cell split by degree, in ascending pieces, as the refinement
    # would split it; its last piece then splits nothing
    by_degree = [0] * n
    for v, d in enumerate(map(int.bit_count, masks)):
        by_degree[d] |= 1 << v
    cells = [c for c in by_degree if c]
    descend(_refine(masks, cells, cells[-1:]), [])
    # descend refers to itself through its closure; dropping it frees the
    # search state now instead of at the next cycle collection
    del descend
    assert best is not None
    if generators is not None:
        generators.extend(dict.fromkeys(tuple(a) for a in autos))
    nbytes = (nbits + 7) // 8 if nbits else 0
    return bytes([n]) + best.to_bytes(nbytes, "big")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenSpec:
    """What to generate: vertex count, connectivity, degree cap, filters."""

    n: int
    connected: bool = False
    max_degree: int | None = 3
    filters: tuple[str, ...] = ()

    def validate(self) -> None:
        if not (1 <= self.n <= HARD_CAP):
            raise ValueError(f"n must be in 1..{HARD_CAP}, got {self.n}")
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative or None")
        for f in self.filters:
            if f not in KNOWN_FILTERS:
                raise ValueError(f"unknown filter {f!r}; known: {KNOWN_FILTERS}")


# a class representative with the automorphism generators canonical_key found
_Class = tuple[Graph, tuple[tuple[int, ...], ...]]
_LEVEL_CACHE: dict[tuple[int, int | None, frozenset[str], bool], list[_Class]] = {}


def _level(
    n: int,
    max_degree: int | None,
    hered: frozenset[str],
    connected: bool = False,
    stats: Counter | None = None,
) -> list[_Class]:
    """All isomorphism classes on exactly n vertices under the degree cap and
    hereditary filters (only the connected ones if connected), sorted by
    canonical key.  Parent levels are always complete.

    Parents come in key order, so one with more isolated vertices comes
    first.  A child whose deletion of some old vertex leaves more isolated
    vertices than its parent has is that of an earlier parent, whose class
    is found already: it is skipped after the connected check, before its
    subset's orbit is marked and before it is built, tested or keyed."""
    key = (n, max_degree, hered, connected)
    cached = _LEVEL_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 1:
        out: list[_Class] = [(Graph(1), ())]
    else:
        parents = _level(n - 1, max_degree, hered, False, stats)
        found: dict[bytes, _Class] = {}
        built = skipped = disconnected = earlier = tested = keyed = 0
        top = 1 << n - 1
        # the kept children's rows are the parent's ints or this table's,
        # not a fresh int per row
        ints = list(range(1 << n))
        want_bipartite = "bipartite" in hered
        want_k4_free = "k4-minor-free" in hered
        for parent, gens in parents:
            masks = parent._mask
            if max_degree is None:
                eligible = list(range(n - 1))
                cap = n - 1
            else:
                eligible = [v for v, m in enumerate(masks) if m.bit_count() < max_degree]
                cap = min(max_degree, n - 1)
            # the child is connected iff the new vertex meets every component,
            # which takes one neighbor per component; any nonempty subset
            # meets a lone one
            comp_masks = (
                [sum(1 << v for v in c) for c in components(parent)] if connected else []
            )
            sizes = range(len(comp_masks), min(cap, len(eligible)) + 1)
            if not sizes:
                continue
            split = comp_masks if len(comp_masks) > 1 else ()
            # linked: the vertices with a neighbor; pendants[1 << u]: those
            # whose only neighbor is u; lone: all of the latter
            linked = 0
            pendants: dict[int, int] = {}
            for w, m in enumerate(masks):
                if m:
                    linked |= 1 << w
                    if not m & (m - 1):
                        pendants[m] = pendants.get(m, 0) | 1 << w
            isolated = (top - 1) ^ linked
            lone = sum(pendants.values())
            # the parent's generators as bit tables: entry v is 1 << p[v]
            tables = [(p, [1 << w for w in p]) for p in gens]
            seen: set[int] = set()
            ebits = [1 << v for v in eligible]
            for size in sizes:
                for subset, smask in zip(combinations(eligible, size),
                                         map(sum, combinations(ebits, size))):
                    if smask in seen:
                        skipped += 1
                        continue
                    # automorphisms permute components and keep both tests'
                    # verdicts, so a skipped subset's orbit-mates skip the
                    # same way and its orbit is never marked
                    if split and not all(smask & c for c in split):
                        disconnected += 1
                        continue
                    # Is the child C = parent + v that of an earlier parent:
                    # does deleting some old u leave more isolated vertices
                    # than deleting v?  score[u] counts the vertices whose
                    # only neighbor in C is u, less one if u itself is
                    # isolated: deleting u leaves iso(C) + score[u] isolated
                    # vertices.  score[v] is -1 for an empty subset, else the
                    # number of isolated vertices v joins; an old u scores its
                    # pendants outside the subset, plus one if the subset is u
                    # alone, less one if u stays isolated.  So when v joins no
                    # isolated vertex, an empty subset loses to any vertex
                    # with a neighbor, one vertex u loses to u, and a larger
                    # subset loses iff it misses a pendant vertex.
                    joined = smask & isolated
                    if joined:
                        count = joined.bit_count()
                        if any((p & ~smask).bit_count() > count for p in pendants.values()):
                            earlier += 1
                            continue
                    elif size < 2 and (smask or linked) or lone & ~smask:
                        earlier += 1
                        continue
                    # mark the subset's orbit under the parent's group
                    orbit = [subset]
                    for vs in orbit:
                        for p, table in tables:
                            m = sum(map(table.__getitem__, vs))
                            if m not in seen:
                                seen.add(m)
                                orbit.append(tuple(map(p.__getitem__, vs)))
                    # the child's rows: the parent's, the new vertex's bit set
                    # in its neighbors' rows, and the new vertex's row
                    rows = list(masks)
                    for v in subset:
                        rows[v] = ints[rows[v] | top]
                    rows.append(ints[smask])
                    child = Graph._of_masks(tuple(rows))
                    built += 1
                    # a new vertex of degree <= 1 keeps every hereditary
                    # property the parent has: it adds no cycle and no minor
                    if size > 1 and hered:
                        tested += 1
                        if want_bipartite and not is_bipartite(child):
                            continue
                        if want_k4_free and _reduction(child)[0]:
                            continue
                    child_gens: list[tuple[int, ...]] = []
                    ck = canonical_key(child, child_gens)
                    keyed += 1
                    if ck not in found:
                        found[ck] = (child, tuple(child_gens))
        out = [found[k] for k in sorted(found)]
        if stats is not None:
            stats.update(
                children=built,
                disconnected_skipped=disconnected,
                orbit_skipped=skipped,
                earlier_parent_skipped=earlier,
                hereditary_tests=tested,
                canonical_forms=keyed,
            )
    _LEVEL_CACHE[key] = out
    return out


def enumerate_graphs(spec: GenSpec, stats: Counter | None = None) -> list[Graph]:
    """Every isomorphism class the given GenSpec admits, exactly once, in
    canonical key order.  Representatives are deterministic across runs.

    The graphs are fresh copies: facts a caller computes on them never
    reach the level cache.  Levels built by this call (not cached ones) add
    their ``children``, ``disconnected_skipped``, ``orbit_skipped``,
    ``earlier_parent_skipped``, ``hereditary_tests`` and ``canonical_forms``
    counts to ``stats``.
    """
    spec.validate()
    if "even-order" in spec.filters and spec.n % 2:
        return []
    hered = frozenset(spec.filters) & _HEREDITARY
    level = _level(spec.n, spec.max_degree, hered, spec.connected, stats)
    want_k23 = "contains-k23" in spec.filters
    return [Graph._of_masks(g._mask) for g, _ in level
            if not want_k23 or find_k23(g) is not None]
