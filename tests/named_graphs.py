"""Constructors for the small named graphs the tests check against."""

from __future__ import annotations

from hlspec.graph_core import Graph


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to vertices 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def paw_graph() -> Graph:
    """Triangle 0-1-2 with a pendant vertex 3 attached at 2."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def diamond_graph() -> Graph:
    """K4 minus one edge (the kite on 4 vertices)."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def prism_graph() -> Graph:
    """Two triangles 0-1-2 and 3-4-5 joined by a perfect matching."""
    return Graph(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    )


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def heawood_graph() -> Graph:
    """The 14-vertex cubic bipartite graph of girth 6.

    Cycle 0..13 plus the chords i -- i+5 (mod 14) for even i.
    """
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph(14, edges)
