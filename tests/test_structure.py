"""Partitions, twin and subgraph search, minor recognition, longest cycles.

Dual routes stay separate throughout: the reduction-based recognizer is
checked against the contraction-search oracle, partition searches against
exhaustive set enumeration, and longest cycles against a permutation
brute force.
"""

import itertools
import random

import pytest

from hlspec.graph_core import Graph
from hlspec.named import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    empty_graph,
    heawood_graph,
    path_graph,
    paw_graph,
    petersen_graph,
    prism_graph,
    star_graph,
)
from hlspec.structure import (
    Partition,
    brute_force_has_k4_minor,
    find_k23,
    find_twins,
    find_unbalanced_unfriendly,
    is_k4_minor_free,
    is_unfriendly,
    longest_cycle,
    replay_reduction,
    unfriendly_partition,
)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


# ---------------------------------------------------------------------------
# unfriendly partitions
# ---------------------------------------------------------------------------

def oracle_is_unfriendly(g: Graph, side_a: set[int]) -> bool:
    """Independent set-based recount of the partition predicate."""
    for v in range(g.n):
        same = sum(1 for w in g.neighbors(v) if (w in side_a) == (v in side_a))
        if 2 * same > g.degree(v):
            return False
    return True


@pytest.mark.parametrize("seed", range(20))
def test_unfriendly_partition_random(seed):
    g = random_graph(random.Random(seed).randint(1, 11), 0.4, seed=seed + 50)
    part = unfriendly_partition(g)
    assert oracle_is_unfriendly(g, set(part.side_a))
    assert is_unfriendly(g, part)


def test_partition_of_recounts_cut():
    g = cycle_graph(4)
    part = Partition.of(g, {0, 1})
    assert part.cut_size == 2
    assert part.is_balanced()


def oracle_unbalanced_search(g: Graph, allow_empty: bool):
    """Exhaustive reference: any unfriendly partition with unequal sides."""
    for bits in range(1 << g.n):
        side = {v for v in range(g.n) if (bits >> v) & 1}
        if not allow_empty and (not side or len(side) == g.n):
            continue
        if len(side) * 2 == g.n:
            continue
        if oracle_is_unfriendly(g, side):
            return True
    return False


@pytest.mark.parametrize("seed", range(20))
def test_unbalanced_search_matches_oracle(seed):
    rng = random.Random(seed + 12)
    g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.7), seed=seed + 150)
    for allow_empty in (True, False):
        got = find_unbalanced_unfriendly(g, allow_empty_side=allow_empty)
        want = oracle_unbalanced_search(g, allow_empty)
        assert (got.partition is not None) == want
        assert got.exhaustive
        assert got.proven_absent == (not want)
        if got.partition is not None:
            assert oracle_is_unfriendly(g, set(got.partition.side_a))
            assert not got.partition.is_balanced()


def test_unbalanced_c4_proven_absent():
    got = find_unbalanced_unfriendly(cycle_graph(4))
    assert got.partition is None and got.proven_absent and got.exhaustive


def test_unbalanced_single_vertex_readings_differ():
    # the only unbalanced unfriendly partition of K1 has an empty side
    with_empty = find_unbalanced_unfriendly(empty_graph(1), allow_empty_side=True)
    assert with_empty.partition is not None
    nonempty = find_unbalanced_unfriendly(empty_graph(1), allow_empty_side=False)
    assert nonempty.partition is None and nonempty.proven_absent


# ---------------------------------------------------------------------------
# twins and K_{2,3} embeddings
# ---------------------------------------------------------------------------

def test_find_twins_known():
    assert find_twins(complete_bipartite(2, 3)) == [(0, 1), (2, 3), (2, 4), (3, 4)]
    assert find_twins(cycle_graph(4)) == [(0, 2), (1, 3)]
    assert find_twins(path_graph(4)) == []
    assert find_twins(petersen_graph()) == []


@pytest.mark.parametrize("seed", range(15))
def test_find_twins_oracle(seed):
    g = random_graph(random.Random(seed).randint(2, 10), 0.5, seed=seed + 250)
    expected = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.neighbors(u) == g.neighbors(v)
    ]
    assert find_twins(g) == expected


def oracle_has_k23(g: Graph) -> bool:
    return any(
        len(g.neighbors(u) & g.neighbors(v)) >= 3
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def test_find_k23_known():
    emb = find_k23(complete_bipartite(2, 3))
    assert emb is not None
    assert (emb.x1, emb.x2) == (0, 1) and (emb.y1, emb.y2, emb.y3) == (2, 3, 4)
    assert find_k23(cycle_graph(6)) is None
    assert find_k23(petersen_graph()) is None  # girth 5: no 4-cycles at all
    assert find_k23(complete_graph(5)) is not None
    assert find_k23(heawood_graph()) is None  # girth 6


@pytest.mark.parametrize("seed", range(20))
def test_find_k23_matches_oracle(seed):
    g = random_graph(random.Random(seed).randint(2, 10), 0.4, seed=seed + 350)
    emb = find_k23(g)
    assert (emb is not None) == oracle_has_k23(g)
    if emb is not None:
        for xx in (emb.x1, emb.x2):
            for yy in (emb.y1, emb.y2, emb.y3):
                assert g.has_edge(xx, yy)


# ---------------------------------------------------------------------------
# K4-minor recognition: reducer vs contraction oracle
# ---------------------------------------------------------------------------

FROZEN_K4MF = {
    "k4": (complete_graph(4), False),
    "diamond": (diamond_graph(), True),
    "paw": (paw_graph(), True),
    "k23": (complete_bipartite(2, 3), True),
    "prism": (prism_graph(), False),
    "petersen": (petersen_graph(), False),
    "heawood": (heawood_graph(), False),
    "c9": (cycle_graph(9), True),
    "p6": (path_graph(6), True),
    "star5": (star_graph(5), True),
}


@pytest.mark.parametrize("tag", sorted(FROZEN_K4MF))
def test_recognizer_frozen_cases(tag):
    g, expect_free = FROZEN_K4MF[tag]
    free, trace = is_k4_minor_free(g)
    assert free == expect_free
    assert trace.reduced_to_empty == expect_free
    if g.n <= 12:  # oracle size cap
        assert brute_force_has_k4_minor(g) == (not expect_free)


def test_reducer_exhaustive_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            free, _ = is_k4_minor_free(g)
            assert free == (not brute_force_has_k4_minor(g)), sorted(g.edges())


@pytest.mark.parametrize("seed", range(60))
def test_reducer_matches_oracle_random(seed):
    rng = random.Random(seed + 4242)
    g = random_graph(rng.randint(4, 10), rng.uniform(0.15, 0.6), seed=seed + 450)
    free, _ = is_k4_minor_free(g)
    assert free == (not brute_force_has_k4_minor(g)), sorted(g.edges())


@pytest.mark.parametrize("seed", range(30))
def test_reduction_strategies_agree(seed):
    # reversing the labels makes the reducer fire its rules on other
    # vertices first: a different reduction order must give the same verdict
    rng = random.Random(seed + 777)
    g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.6), seed=seed + 550)
    reversed_g = Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
    assert is_k4_minor_free(g)[0] == is_k4_minor_free(reversed_g)[0]


def test_k4mf_is_hereditary_under_deletion():
    for seed in range(15):
        g = random_graph(8, 0.35, seed=seed + 650)
        if not is_k4_minor_free(g)[0]:
            continue
        for e in list(g.edges())[:4]:
            smaller = Graph(g.n, [f for f in g.edges() if f != e])
            assert is_k4_minor_free(smaller)[0]


@pytest.mark.parametrize("seed", range(25))
def test_reduction_replay_round_trip(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 10), rng.uniform(0.2, 0.7), seed=seed + 750)
    _, trace = is_k4_minor_free(g)
    assert replay_reduction(g, trace)


def test_replay_detects_tampering():
    g = cycle_graph(5)
    _, trace = is_k4_minor_free(g)
    assert trace.reduced_to_empty and trace.steps
    # replaying against a different host must fail
    assert not replay_reduction(cycle_graph(6), trace)


def test_reduction_steps_monotone_shrink():
    g = random_graph(9, 0.4, seed=31)
    _, trace = is_k4_minor_free(g)
    sizes = [(9, g.m)] + [s.after for s in trace.steps]
    for before, after in zip(sizes, sizes[1:]):
        assert sum(after) < sum(before)


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_has_k4_minor(empty_graph(13))


# ---------------------------------------------------------------------------
# longest cycle
# ---------------------------------------------------------------------------

def oracle_longest_cycle_length(g: Graph) -> int:
    """Permutation brute force; 0 when acyclic."""
    best = 0
    for size in range(g.n, 2, -1):
        for verts in itertools.permutations(range(g.n), size):
            if verts[0] != min(verts):
                continue
            if all(
                g.has_edge(verts[i], verts[(i + 1) % size]) for i in range(size)
            ):
                return size
    return best


def test_longest_cycle_known():
    assert longest_cycle(path_graph(5)) is None
    assert longest_cycle(cycle_graph(7)) == (0, 1, 2, 3, 4, 5, 6)
    assert len(longest_cycle(petersen_graph())) == 9  # hypohamiltonian
    assert len(longest_cycle(heawood_graph())) == 14


def test_longest_cycle_canonical_orientation():
    cyc = longest_cycle(cycle_graph(6))
    assert cyc[0] == 0 and cyc[1] < cyc[-1]


@pytest.mark.parametrize("seed", range(20))
def test_longest_cycle_matches_brute_force(seed):
    rng = random.Random(seed + 860)
    g = random_graph(rng.randint(3, 7), rng.uniform(0.25, 0.7), seed=seed + 950)
    found = longest_cycle(g)
    want = oracle_longest_cycle_length(g)
    if want == 0:
        assert found is None
    else:
        assert found is not None and len(found) == want
        assert all(
            g.has_edge(found[i], found[(i + 1) % len(found)])
            for i in range(len(found))
        )


def test_longest_cycle_size_cap():
    with pytest.raises(ValueError):
        longest_cycle(empty_graph(21))
