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
parent before building the child.

Most of the other children are skipped before they are built, tested or
canonicalized, because an earlier parent already made their class.  In
every leaf of the canonical search the isolated vertices come first:
_refine splits the unit cell by degree into ascending pieces, and later
splits stay in place.  So a graph on n vertices with exactly k isolated
vertices has zero rows 0..k-1 in its code and a 1 in row k, and more
isolated vertices means a strictly smaller key.  If deleting an old vertex
u from the child C = P + v leaves more isolated vertices than P has, C - u
keys below P and comes earlier in the sorted parent level: it keeps the
degree cap and every hereditary filter C has.  That parent processed the
first subset in the orbit of the image of N(u), which is eligible under the
cap and gives a connected child when C is connected.  By induction on the
parent's rank, C's class is already found, so skipping C changes no
representative and no order.

No shortcut skips the first child of a kept class in (parent, subset)
order, so the representatives are those of the plain every-child search.
Exhaustive and exact, which is the point; the hard cap keeps the cost
honest.
"""

from __future__ import annotations

import copy
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

def _refine(
    masks: list[int], cells: list[list[int]], stable: Iterable[int] = ()
) -> list[list[int]]:
    """Equitable refinement: split cells by neighbor counts into each cell.

    New sub-cells are ordered by count, so the refinement depends only on
    the isomorphism type and the incoming cell order.  stable holds vertex
    masks the partition is already equitable against (the cells of an
    equitable partition this one refines).  Splitting never undoes that, and
    a splitter splits nothing once its mask is stable, so such splitters are
    skipped without changing the result.
    """
    cells = [list(c) for c in cells]
    known = set(stable)
    changed = True
    while changed:
        changed = False
        for splitter in list(cells):
            smask = 0
            for v in splitter:
                smask |= 1 << v
            if smask in known:
                continue
            known.add(smask)
            new_cells: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((masks[v] & smask).bit_count(), []).append(v)
                if len(buckets) == 1:
                    new_cells.append(cell)
                else:
                    for key in sorted(buckets):
                        new_cells.append(buckets[key])
                    changed = True
            cells = new_cells
            if changed:
                break
    return cells


def _is_homogeneous(masks: list[int], cells: list[list[int]]) -> bool:
    """True when every cell pair is completely joined or completely unjoined,
    so that any within-cell ordering yields the same adjacency code."""
    cmasks = []
    for cell in cells:
        m = 0
        for v in cell:
            m |= 1 << v
        cmasks.append(m)
    for i, cell in enumerate(cells):
        size_i = len(cell)
        for j in range(i, len(cells)):
            limit = size_i - 1 if j == i else len(cells[j])
            c = (masks[cell[0]] & cmasks[j]).bit_count()
            if c != 0 and c != limit:
                return False
    return True


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
    The search individualizes vertices cell by cell inside an equitable
    partition; two prunings keep symmetric graphs tractable: a homogeneous
    partition short-circuits (all orderings tie, so every swap inside a cell
    is an automorphism), and automorphisms discovered at equal-code leaves
    let sibling branches in the same orbit be skipped.

    The automorphisms the search found (permutations v -> p[v], not the
    identity) are appended to ``generators`` when it is given.
    """
    n = g.n
    if n > 62:
        raise ValueError("canonical form is sized for graph6-scale graphs")
    if n == 0:
        return bytes([0])
    masks = [g.neighbor_mask(v) for v in range(n)]
    nbits = n * (n - 1) // 2
    best: int | None = None
    best_order: list[int] | None = None
    autos: list[list[int]] = []

    def code_of(order: list[int]) -> int:
        val = 0
        for i in range(n):
            mi = masks[order[i]]
            for j in range(i + 1, n):
                val = (val << 1) | ((mi >> order[j]) & 1)
        return val

    def leaf(order: list[int]) -> None:
        nonlocal best, best_order
        code = code_of(order)
        if best is None or code < best:
            best = code
            best_order = order
        elif code == best and best_order is not None:
            # equal codes define an automorphism: best_order[i] -> order[i]
            gamma = [0] * n
            for a, b in zip(best_order, order):
                gamma[a] = b
            if gamma != list(range(n)):
                autos.append(gamma)

    def descend(cells: list[list[int]], prefix: list[int]) -> None:
        target = next((idx for idx, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            leaf([c[0] for c in cells])
            return
        if _is_homogeneous(masks, cells):
            for c in cells:
                for a, b in zip(c, c[1:]):
                    swap = list(range(n))
                    swap[a], swap[b] = b, a
                    autos.append(swap)
            leaf([v for c in cells for v in c])
            return
        cell = cells[target]
        stable = [sum(1 << w for w in c) for c in cells]
        # orbits of the known automorphisms fixing the individualized prefix,
        # as a union-find that takes in each automorphism once, when found
        parent = list(range(n))
        absorbed = 0

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        explored: list[int] = []
        for v in cell:
            # skip v if a known automorphism fixing the individualized prefix
            # maps an already-explored sibling to it
            if explored:
                for a in autos[absorbed:]:
                    if all(a[p] == p for p in prefix):
                        for x in range(n):
                            rx, ry = find(x), find(a[x])
                            if rx != ry:
                                parent[rx] = ry
                absorbed = len(autos)
                if any(find(v) == find(u) for u in explored):
                    continue
            explored.append(v)
            rest = [w for w in cell if w != v]
            branched = cells[:target] + [[v], rest] + cells[target + 1 :]
            prefix.append(v)
            descend(_refine(masks, branched, stable), prefix)
            prefix.pop()

    descend(_refine(masks, [list(range(n))]), [])
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


def _passes_hereditary(g: Graph, hered: frozenset[str]) -> bool:
    if "bipartite" in hered and not is_bipartite(g):
        return False
    if "k4-minor-free" in hered and _reduction(g)[1]:
        return False
    return True


def _made_by_earlier_parent(isolated: int, pendants: list[int], smask: int) -> bool:
    """True when deleting some old vertex from the child (the parent plus a
    vertex v joined to ``smask``) leaves more isolated vertices than
    deleting v.  ``isolated`` masks the parent's isolated vertices and
    ``pendants[u]`` its vertices whose only neighbor is u.

    score[u] counts the vertices whose only neighbor in the child is u, less
    one if u itself is isolated: deleting u leaves iso(child) + score[u]
    isolated vertices.  score[v] is -1 for an empty smask, else the number
    of isolated vertices v joins; an old u scores its pendants outside
    smask, plus one if smask is u alone, less one if u stays isolated.
    """
    if not smask:
        return isolated != (1 << len(pendants)) - 1
    if not smask & (smask - 1) and not smask & isolated:
        return True
    joined = (smask & isolated).bit_count()
    return any((p & ~smask).bit_count() > joined for p in pendants)


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
    is found already: it is skipped after the connected check and after its
    subset's orbit is marked, before it is built, tested or canonicalized."""
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
        for parent, gens in parents:
            masks = [parent.neighbor_mask(v) for v in range(n - 1)]
            isolated = sum(1 << w for w, m in enumerate(masks) if not m)
            pendants = [0] * (n - 1)
            for w, m in enumerate(masks):
                if m and not m & (m - 1):
                    pendants[m.bit_length() - 1] |= 1 << w
            if max_degree is None:
                eligible = list(range(n - 1))
                cap = n - 1
            else:
                eligible = [v for v in range(n - 1) if parent.degree(v) < max_degree]
                cap = min(max_degree, n - 1)
            # the child is connected iff the new vertex meets every component
            comp_masks = (
                [sum(1 << v for v in c) for c in components(parent)] if connected else []
            )
            for size in range(0, min(cap, len(eligible)) + 1):
                seen: set[tuple[int, ...]] = set()
                for subset in combinations(eligible, size):
                    if subset in seen:
                        skipped += 1
                        continue
                    smask = 0
                    for v in subset:
                        smask |= 1 << v
                    if connected and not all(smask & c for c in comp_masks):
                        # automorphisms permute components, so the whole
                        # orbit is disconnected too and none is marked
                        disconnected += 1
                        continue
                    if gens:
                        # mark the subset's orbit under the parent's group
                        orbit = [subset]
                        for s in orbit:
                            for p in gens:
                                image = tuple(sorted(p[v] for v in s))
                                if image not in seen:
                                    seen.add(image)
                                    orbit.append(image)
                    if _made_by_earlier_parent(isolated, pendants, smask):
                        earlier += 1
                        continue
                    child = parent.with_vertex(subset)
                    built += 1
                    # a new vertex of degree <= 1 keeps every hereditary
                    # property the parent has: it adds no cycle and no minor
                    if size > 1 and hered:
                        tested += 1
                        if not _passes_hereditary(child, hered):
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
    return [copy.copy(g) for g, _ in level if not want_k23 or find_k23(g) is not None]
