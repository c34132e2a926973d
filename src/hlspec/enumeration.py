"""Isomorph-free generation of small graphs, and graph6 corpus ingestion.

Generation walks vertex counts 1..n: every class representative on k-1
vertices is extended by one new vertex attached to each admissible neighbor
subset, and the children are deduplicated by canonical form.  A subset in
the orbit of an earlier one under the parent's automorphisms (the
generators the canonical-form search finds) is skipped (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Hereditary
properties (bipartite, no K4 minor: both closed under vertex deletion) are
tested once per new class, after canonicalization.  Neither shortcut skips
the first child of a class in (parent, subset) order, so the
representatives are those of the plain every-child search.  Exhaustive and
exact, which is the point; the hard cap keeps the cost honest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .graph_core import Graph, Graph6Error, is_bipartite, is_connected, parse_graph6
from .structure import find_k23, is_k4_minor_free

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
    upper-triangle adjacency bitstring over all vertex orderings.  The
    ordering search individualizes vertices cell by cell inside an equitable
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
_LEVEL_CACHE: dict[tuple[int, int | None, frozenset[str]], list[_Class]] = {}


def _passes_hereditary(g: Graph, hered: frozenset[str]) -> bool:
    if "bipartite" in hered and not is_bipartite(g):
        return False
    if "k4-minor-free" in hered and not is_k4_minor_free(g)[0]:
        return False
    return True


def _level(
    n: int, max_degree: int | None, hered: frozenset[str], stats: Counter | None = None
) -> list[_Class]:
    """All isomorphism classes on exactly n vertices (disconnected included)
    under the degree cap and hereditary filters, sorted by canonical key."""
    key = (n, max_degree, hered)
    cached = _LEVEL_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 1:
        out: list[_Class] = [(Graph(1), ())]
    else:
        parents = _level(n - 1, max_degree, hered, stats)
        new_v = n - 1
        found: dict[bytes, _Class] = {}
        rejected: set[bytes] = set()
        built = skipped = tested = 0
        for parent, gens in parents:
            if max_degree is None:
                eligible = list(range(n - 1))
                cap = n - 1
            else:
                eligible = [v for v in range(n - 1) if parent.degree(v) < max_degree]
                cap = min(max_degree, n - 1)
            base_edges = parent.edges()
            for size in range(0, min(cap, len(eligible)) + 1):
                seen: set[tuple[int, ...]] = set()
                for subset in combinations(eligible, size):
                    if subset in seen:
                        skipped += 1
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
                    child = Graph(n, base_edges + [(v, new_v) for v in subset])
                    built += 1
                    child_gens: list[tuple[int, ...]] = []
                    ck = canonical_key(child, child_gens)
                    if ck in found or ck in rejected:
                        continue
                    # a new vertex of degree <= 1 keeps every hereditary
                    # property the parent has: it adds no cycle and no minor
                    if size > 1 and hered:
                        tested += 1
                        if not _passes_hereditary(child, hered):
                            rejected.add(ck)
                            continue
                    found[ck] = (child, tuple(child_gens))
        out = [found[k] for k in sorted(found)]
        if stats is not None:
            stats.update(children=built, orbit_skipped=skipped, hereditary_tests=tested)
    _LEVEL_CACHE[key] = out
    return out


def _passes_final(g: Graph, spec: GenSpec) -> bool:
    if spec.connected and not is_connected(g):
        return False
    if "even-order" in spec.filters and g.n % 2 != 0:
        return False
    if "contains-k23" in spec.filters and find_k23(g) is None:
        return False
    return True


def enumerate_graphs(spec: GenSpec, stats: Counter | None = None) -> list[Graph]:
    """Every isomorphism class the given GenSpec admits, exactly once, in
    canonical key order.  Representatives are deterministic across runs.

    Levels built by this call (not cached ones) add their ``children``,
    ``orbit_skipped`` and ``hereditary_tests`` counts to ``stats``.
    """
    spec.validate()
    hered = frozenset(spec.filters) & _HEREDITARY
    level = _level(spec.n, spec.max_degree, hered, stats)
    return [g for g, _ in level if _passes_final(g, spec)]


def count_classes(spec: GenSpec) -> int:
    return len(enumerate_graphs(spec))


# ---------------------------------------------------------------------------
# corpus ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusItem:
    """One input line: either a parsed graph or a parse error, never both."""

    line_no: int
    text: str
    graph: Graph | None
    error: str | None


def ingest_corpus(lines: Iterable[str], strict: bool = False) -> Iterator[CorpusItem]:
    """Parse graph6 lines, one item per nonblank line.

    Lenient mode turns malformed lines into error items for the caller to
    report; strict mode raises on the first malformed line.
    """
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            if strict:
                raise Graph6Error(
                    f"line {line_no}: {exc.args[0]}", exc.byte_offset
                ) from exc
            yield CorpusItem(line_no=line_no, text=text, graph=None, error=str(exc))
            continue
        yield CorpusItem(line_no=line_no, text=text, graph=g, error=None)
