"""Oracles for the tests, independent of hlspec's own code paths: a dense
adjacency matrix built from the edge list, so the spectral oracles share no
matrix code with hlspec, Horner's Taylor shift, the reference for hlspec's
shift-matrix products, a brute-force K4-minor search that shares nothing
with either K4-minor recognizer, set-based unfriendly-partition checks
that share no bitmask code with the flip and shaped-partition searches, a
networkx check that a cycle is locally longest, one pair of its vertices
at a time, and networkx's count of a graph's automorphisms."""

import itertools


def adjacency_rows(g) -> list[list[int]]:
    """Dense symmetric 0/1 adjacency matrix of g as nested lists."""
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        rows[u][v] = rows[v][u] = 1
    return rows


def shift_int(coeffs: list[int], a: int, d: int) -> list[int]:
    """Coefficients of d^n p((z + a) / d), by a Horner Taylor shift."""
    n = len(coeffs) - 1
    shifted = [c * d ** k for k, c in enumerate(coeffs)]
    for stop in range(n, 0, -1):
        prev = shifted[0]
        for j in range(1, stop + 1):
            prev = shifted[j] = shifted[j] + prev * a
    return shifted


def shift_pairs(coeffs: list[int], a: int, b: int, d: int) -> list[tuple[int, int]]:
    """Coefficients of d^n p((z + a + b*sqrt2) / d), which lie in Z[sqrt2],
    as (rational, sqrt2) integer pairs, by a Horner Taylor shift."""
    n = len(coeffs) - 1
    shifted = [(c * d ** k, 0) for k, c in enumerate(coeffs)]
    for stop in range(n, 0, -1):
        for j in range(1, stop + 1):
            u, v = shifted[j - 1]
            x, y = shifted[j]
            shifted[j] = (x + u * a + 2 * v * b, y + u * b + v * a)
    return shifted


def brute_force_has_k4_minor(g) -> bool:
    """Decide K4-minor presence by exhaustive contraction search.

    A K4 minor exists iff some sequence of edge contractions produces a
    graph with four pairwise-adjacent vertices (the four merged blocks being
    the branch sets; untouched vertices ride along as deletable extras).
    States are partitions of the vertex set into connected blocks, memoized
    as frozensets.  Deliberately unrelated to both hlspec recognizers.
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


def is_unfriendly_side(g, side) -> bool:
    """Every vertex has at least as many neighbors across the bipartition
    (side, the rest) as on its own side, by direct neighbor counts."""
    return all(
        2 * sum((w in side) == (v in side) for w in g.neighbors(v)) <= g.degree(v)
        for v in range(g.n)
    )


def brute_force_shaped_unfriendly(g, xs, ys) -> bool:
    """Whether some unfriendly bipartition has all of xs on one side and all
    of ys on the other: tries every side that holds xs and misses ys."""
    free = [v for v in range(g.n) if v not in xs and v not in ys]
    return any(
        is_unfriendly_side(g, set(xs).union(extra))
        for k in range(len(free) + 1)
        for extra in itertools.combinations(free, k)
    )


def is_locally_longest_cycle(g, cycle) -> bool:
    """Whether no shortest C-path of cycle is longer than the shorter cycle
    arc between its ends.  A C-path joins two cycle vertices a, b without a
    cycle edge and with its interior off the cycle, so it is a path of the
    graph less the cycle edges and less every other cycle vertex; networkx
    measures it there, one pair at a time."""
    import networkx as nx

    size = len(cycle)
    ring = {frozenset((cycle[i], cycle[(i + 1) % size])) for i in range(size)}
    rest = nx.Graph()
    rest.add_nodes_from(range(g.n))
    rest.add_edges_from(e for e in g.edges() if frozenset(e) not in ring)
    off = set(range(g.n)) - set(cycle)
    for i, j in itertools.combinations(range(size), 2):
        a, b = cycle[i], cycle[j]
        try:
            length = nx.shortest_path_length(rest.subgraph(off | {a, b}), a, b)
        except nx.NetworkXNoPath:
            continue
        if length > min(j - i, size - (j - i)):
            return False
    return True


def automorphism_count(g) -> int:
    """The order of g's automorphism group: the isomorphisms of g onto
    itself that networkx's VF2 matcher lists."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
