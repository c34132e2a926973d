"""Small immutable graphs, a graph6 codec, and basic structural queries.

Vertices are always 0..n-1 and every graph is simple and undirected.
Everything downstream builds on this module.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class Graph6Error(ValueError):
    """Malformed graph6 input.  byte_offset points at the offending byte."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The graph is its order n and one neighbour bitmask per vertex (bit w of
    v's mask is set iff v~w); neighbor sets, degrees and edge lists are read
    from the masks.  Duplicate edges in the constructor collapse silently
    (set semantics); self-loops are rejected.  Equality and hashing are by
    labeled content, not isomorphism.

    Derived facts (the characteristic polynomial, eigenvalue counts, the
    K4-minor verdict, cut vertices, subgraphs a trace names) are kept in a
    per-graph record by fact(), so each is computed once per graph and dies
    with it; the record takes no part in equality, hashing, copying or pickling.
    """

    __slots__ = ("n", "_mask", "_facts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        mask = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} in a simple graph")
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self._mask: tuple[int, ...] = tuple(mask)
        self.n = n

    @classmethod
    def _of_masks(cls, masks: tuple[int, ...]) -> "Graph":
        """The graph with these neighbour masks, which the caller guarantees
        symmetric, loop-free and within range; nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "_mask", masks)
        object.__setattr__(g, "n", len(masks))
        return g

    # With __slots__ and no setters the instance is immutable in practice;
    # guard against accidental attribute rebinding all the same.
    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("Graph is immutable")
        object.__setattr__(self, name, value)

    def fact(self, key, compute: Callable[[], T]) -> T:
        """The fact stored under key, from compute() on the first request.

        The record is created with the first stored fact.  Keys name what
        was computed (and from which arguments); values must be immutable,
        because every later request shares them.
        """
        facts = getattr(self, "_facts", None)
        if facts is None:
            facts = {}
            object.__setattr__(self, "_facts", facts)
        elif key in facts:
            return facts[key]
        value = facts[key] = compute()
        return value

    def has_fact(self, key) -> bool:
        """Whether a fact is stored under key."""
        return key in (getattr(self, "_facts", None) or ())

    def __getstate__(self):
        # pickles and copies carry the graph, never its fact record
        return None, {"n": self.n, "_mask": self._mask}

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self._mask)) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._mask[v]))

    def neighbor_mask(self, v: int) -> int:
        """Neighbors of v as a bitmask (bit w set iff v~w)."""
        return self._mask[v]

    def degree(self, v: int) -> int:
        return self._mask[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self._mask))

    def max_degree(self) -> int:
        return max(map(int.bit_count, self._mask), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v >= 0 and self._mask[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u, mask in enumerate(self._mask):
            mask = mask >> (u + 1) << (u + 1)
            while mask:
                low = mask & -mask
                out.append((u, low.bit_length() - 1))
                mask ^= low
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62)
# ---------------------------------------------------------------------------

_G6_MIN, _G6_MAX = 63, 126


# (i, j) of bit k = j(j-1)/2 + i of the packed upper triangle, i < j
_G6_PAIRS = [(i, j) for j in range(1, 62) for i in range(j)]


def check_graph6(text: str) -> bytes:
    """Validate one short-form graph6 string and return its stripped bytes.

    Accepted alphabet is ASCII 63..126.  The first byte encodes n; the
    remaining bytes pack the upper triangle of the adjacency matrix in
    column-major order, 6 bits per byte, zero-padded.  Raises Graph6Error
    (with a byte offset) for the long form, bad bytes, wrong length, or
    nonzero padding bits.  Non-ASCII text is checked as its UTF-8 bytes
    (surrogate escapes as the bytes they stand for), so it cannot pass.
    """
    data = text.encode("utf-8", errors="surrogateescape").strip()
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    if min(data) < _G6_MIN or max(data) > _G6_MAX:
        off = next(i for i, byte in enumerate(data) if not _G6_MIN <= byte <= _G6_MAX)
        raise Graph6Error(f"byte {data[off]!r} outside graph6 alphabet", off)
    if data[0] == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported", 0)
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    need, got = (nbits + 5) // 6, len(data) - 1
    if got != need:
        fault, off = ("truncated", len(data)) if got < need else ("oversized", 1 + need)
        raise Graph6Error(f"{fault} graph6 string: need {need} data bytes, got {got}", off)
    # the padding is the low 6*need - nbits bits of the last byte
    if (data[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise Graph6Error("nonzero padding bit", need)
    return data


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 string into a Graph, after check_graph6."""
    return _decode_graph6(check_graph6(text))


def _decode_graph6(data: bytes) -> Graph:
    """The Graph of graph6 bytes that check_graph6 accepted; nothing is
    checked again.  Only the set bits of the payload are visited, in payload
    order, each setting its two mask bits."""
    bits = 0
    for byte in data[1:]:
        bits = bits << 6 | byte - 63
    # payload bit k is bit (top - 1 - k) of the integer
    top = 6 * (len(data) - 1)
    mask = [0] * (data[0] - 63)
    while bits:
        high = bits.bit_length()
        bits ^= 1 << (high - 1)
        i, j = _G6_PAIRS[top - high]
        mask[i] |= 1 << j
        mask[j] |= 1 << i
    return Graph._of_masks(tuple(mask))


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (requires n <= 62)."""
    if g.n > 62:
        raise ValueError("short-form graph6 requires n <= 62")
    bits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | g._mask[j] >> i & 1
    need = (g.n * (g.n - 1) // 2 + 5) // 6
    bits <<= 6 * need - g.n * (g.n - 1) // 2
    return chr(63 + g.n) + "".join(chr(63 + (bits >> 6 * k & 63)) for k in range(need - 1, -1, -1))


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def _host_vertices(g: Graph, vertices: Iterable[int]) -> list[int]:
    """The vertices as a list, each checked to be an int in 0..n-1; any
    other value raises ValueError instead of indexing from the end or
    naming no vertex."""
    vertices = list(vertices)
    for v in vertices:
        if type(v) is not int or not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} out of range for n={g.n}")
    return vertices


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    return _components_without(g, ())


def _components_without(g: Graph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Components of g minus the removed vertices (each one of g's), in g's
    labels, ordered by smallest member."""
    masks = g._mask
    seen = 0
    for v in removed:
        seen |= 1 << v
    out = []
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        seen |= 1 << s
        members = []
        frontier = 1 << s
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                members.append(v)
                reach |= masks[v]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        out.append(frozenset(members))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation vertices, kept on g's fact record."""
    return g.fact("cut-vertices", lambda: _articulation(g))


def _articulation(g: Graph) -> frozenset[int]:
    """Articulation vertices, by the usual depth-first lowpoint computation."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cuts: set[int] = set()
    timer = 0

    def visit(root: int) -> None:
        nonlocal timer
        # Iterative DFS keeps us clear of recursion limits at n = 62.
        stack: list[tuple[int, Iterator[int]]] = [(root, _bits(g._mask[root]))]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = u
                    if u == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, _bits(g._mask[w])))
                    advanced = True
                    break
                elif w != parent[u]:
                    low[u] = min(low[u], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if p != root and low[u] >= disc[p]:
                        cuts.add(p)
        if root_children >= 2:
            cuts.add(root)

    for v in range(g.n):
        if disc[v] == -1:
            visit(v)
    return frozenset(cuts)


def induced_delete(g: Graph, deleted: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Delete a vertex set; return the induced remainder and the old->new map.

    Surviving vertices are relabeled contiguously in increasing order, so
    callers can translate names in the reduced graph back to the original.
    """
    dset = set(_host_vertices(g, deleted))
    keep = [v for v in range(g.n) if v not in dset]
    old_to_new = {v: i for i, v in enumerate(keep)}
    kept = sum(1 << v for v in keep)
    masks = tuple(sum(1 << old_to_new[w] for w in _bits(g._mask[v] & kept)) for v in keep)
    return Graph._of_masks(masks), old_to_new


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on a kept vertex set, with the old->new map."""
    kset = set(_host_vertices(g, keep))
    return induced_delete(g, (v for v in range(g.n) if v not in kset))


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-coloring as (side0, side1), or None if an odd cycle exists.

    The smallest vertex of each component goes to side0, so the result is
    deterministic.
    """
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in _bits(g._mask[u]):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return (
        frozenset(v for v in range(g.n) if color[v] == 0),
        frozenset(v for v in range(g.n) if color[v] == 1),
    )


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None
