"""Small immutable graphs, a graph6 codec, and basic structural queries.

Vertices are always 0..n-1.  Graph is simple and undirected; Multigraph
(loops and parallel edges allowed) exists to drive reduction algorithms
that create them.  Everything downstream builds on this module.
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

    Duplicate edges in the constructor collapse silently (set semantics);
    self-loops are rejected.  Equality and hashing are by labeled content,
    not isomorphism.

    Derived facts (the characteristic polynomial, eigenvalue counts, the
    K4-minor verdict, subgraphs named by a trace) are kept in a per-graph
    record through fact(), so each is computed once per graph and dies with
    it.  The record takes no part in equality, hashing, copying or pickling.
    """

    __slots__ = ("n", "_adj", "_mask", "_facts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        mask = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} in a simple graph")
            adj[u].add(v)
            adj[v].add(u)
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self._adj: tuple[frozenset[int], ...] = tuple(map(frozenset, adj))
        self._mask: tuple[int, ...] = tuple(mask)
        self.n = n

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

    def __getstate__(self):
        # pickles and copies carry the graph, never its fact record
        return None, {"n": self.n, "_adj": self._adj, "_mask": self._mask}

    def with_vertex(self, neighbors: Iterable[int]) -> "Graph":
        """This graph plus a new vertex n joined to each given neighbor.

        Equal to Graph(n + 1, edges() + [(v, n) for v in neighbors]), but
        only the neighbors' entries are rebuilt; the rest are shared.
        """
        n = self.n
        nbrs = frozenset(neighbors)
        adj = list(self._adj)
        mask = list(self._mask)
        bit = 1 << n
        new_mask = 0
        for v in nbrs:
            if not 0 <= v < n:
                raise ValueError(f"neighbor {v} out of range for n={n}")
            adj[v] = adj[v] | {n}
            mask[v] |= bit
            new_mask |= 1 << v
        adj.append(nbrs)
        mask.append(new_mask)
        child = Graph.__new__(Graph)
        child._adj = tuple(adj)
        child._mask = tuple(mask)
        child.n = n + 1
        return child

    @property
    def m(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def neighbor_mask(self, v: int) -> int:
        """Neighbors of v as a bitmask (bit w set iff v~w)."""
        return self._mask[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._adj)

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order.

        Each row is walked by its mask bits, not its frozenset, whose order
        depends on how the graph was built."""
        out = []
        for u, mask in enumerate(self._mask):
            mask >>= u + 1
            while mask:
                low = mask & -mask
                out.append((u, u + low.bit_length()))
                mask ^= low
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


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
    """Decode one short-form graph6 string into a Graph, after check_graph6.

    Only the set bits of the payload are visited, in payload order.
    """
    data = check_graph6(text)
    bits = 0
    for byte in data[1:]:
        bits = bits << 6 | byte - 63
    # payload bit k is bit (top - 1 - k) of the integer
    top = 6 * (len(data) - 1)
    edges = []
    while bits:
        high = bits.bit_length()
        bits ^= 1 << (high - 1)
        edges.append(_G6_PAIRS[top - high])
    return Graph(data[0] - 63, edges)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (requires n <= 62)."""
    if g.n > 62:
        raise ValueError("short-form graph6 requires n <= 62")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    return _components_without(g, ())


def _components_without(g: Graph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Components of g minus the removed vertices, in g's labels, ordered by
    smallest member.  A label outside 0..n-1 removes nothing."""
    masks = g._mask
    seen = 0
    for v in removed:
        if 0 <= v < g.n:
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
    """Articulation vertices, by the usual depth-first lowpoint computation."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cuts: set[int] = set()
    timer = 0

    def visit(root: int) -> None:
        nonlocal timer
        # Iterative DFS keeps us clear of recursion limits at n = 62.
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(sorted(g.neighbors(root))))]
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
                    stack.append((w, iter(sorted(g.neighbors(w)))))
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
    dset = set(deleted)
    for v in dset:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    keep = [v for v in range(g.n) if v not in dset]
    old_to_new = {v: i for i, v in enumerate(keep)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges()
        if u in old_to_new and v in old_to_new
    ]
    return Graph(len(keep), edges), old_to_new


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on a kept vertex set, with the old->new map."""
    kset = set(keep)
    return induced_delete(g, (v for v in range(g.n) if v not in kset))


def spanning_subgraph(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Same vertex set, edges restricted to the given pairs, each of which
    must be an edge of g."""
    pairs = list(pairs)
    for u, v in pairs:
        if not (0 <= u < g.n and g.has_edge(u, v)):
            raise ValueError(f"({u},{v}) is not an edge of the host graph")
    return Graph(g.n, pairs)


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
            for w in g.neighbors(u):
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


# ---------------------------------------------------------------------------
# multigraphs
# ---------------------------------------------------------------------------

class Multigraph:
    """Mutable multigraph: loops and parallel edges allowed, vertices deletable.

    Each vertex keeps an incidence map (neighbor -> edge multiplicity, with
    a loop stored under the vertex itself) and a running degree, so degree,
    multiplicity and neighbor queries cost O(1) or O(degree).  A loop
    contributes 2 to its vertex's degree.
    """

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self.vertices: set[int] = set(vertices)
        self._inc: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        self._deg: dict[int, int] = dict.fromkeys(self.vertices, 0)
        self._total = 0
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_graph(cls, g: Graph) -> "Multigraph":
        mg = cls(range(g.n))
        for u, v in g.edges():
            mg.add_edge(u, v)
        return mg

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        if u not in self.vertices or v not in self.vertices:
            raise ValueError(f"edge ({u},{v}) touches a missing vertex")
        inc = self._inc
        inc[u][v] = inc[u].get(v, 0) + count
        if u != v:
            inc[v][u] = inc[v].get(u, 0) + count
        self._deg[u] += count
        self._deg[v] += count
        self._total += count

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        have = self.multiplicity(u, v)
        if have < count:
            key = (u, v) if u <= v else (v, u)
            raise ValueError(f"removing {count} copies of {key}, only {have} present")
        inc = self._inc
        if have == count:
            del inc[u][v]
            if u != v:
                del inc[v][u]
        else:
            inc[u][v] = have - count
            if u != v:
                inc[v][u] = have - count
        self._deg[u] -= count
        self._deg[v] -= count
        self._total -= count

    def multiplicity(self, u: int, v: int) -> int:
        nbrs = self._inc.get(u)
        return nbrs.get(v, 0) if nbrs else 0

    def delete_vertex(self, v: int) -> None:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not present")
        for w, mult in self._inc.pop(v).items():
            if w != v:
                del self._inc[w][v]
                self._deg[w] -= mult
            self._total -= mult
        del self._deg[v]
        self.vertices.remove(v)

    def degree(self, v: int) -> int:
        return self._deg.get(v, 0)

    def neighbors(self, v: int) -> set[int]:
        """Distinct neighbors other than v itself."""
        return {w for w in self._inc.get(v, ()) if w != v}

    def loop_count(self, v: int) -> int:
        return self.multiplicity(v, v)

    def edge_items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(
            ((u, w), mult)
            for u, nbrs in self._inc.items()
            for w, mult in nbrs.items()
            if u <= w
        )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def total_multiplicity(self) -> int:
        return self._total

    def copy(self) -> "Multigraph":
        mg = Multigraph()
        mg.vertices = set(self.vertices)
        mg._inc = {v: dict(nbrs) for v, nbrs in self._inc.items()}
        mg._deg = dict(self._deg)
        mg._total = self._total
        return mg

    def signature(self) -> tuple[int, int]:
        """(vertex count, total edge multiplicity): a cheap state fingerprint."""
        return (len(self.vertices), self._total)

    def __repr__(self) -> str:
        return f"Multigraph(vertices={sorted(self.vertices)}, edges={self.edge_items()})"
