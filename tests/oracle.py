"""Dense adjacency matrix for the test oracles, built from the edge list
so the oracles share no matrix code with hlspec."""


def adjacency_rows(g) -> list[list[int]]:
    """Dense symmetric 0/1 adjacency matrix of g as nested lists."""
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        rows[u][v] = rows[v][u] = 1
    return rows
