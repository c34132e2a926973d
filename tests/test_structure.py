"""Partitions, subgraph search, minor recognition.

Dual routes stay separate throughout: the K4-minor reduction is checked
against the contraction-search oracle in tests/oracle.py and its steps
against a full rescan of an edge-multiset model, the flip search against a
set-based neighbor recount.
"""

import hashlib
import itertools
import json
import pathlib
import random
from collections import Counter

import pytest

from hlspec.enumeration import GenSpec, enumerate_graphs
from hlspec.graph_core import Graph
from hlspec.structure import (
    Partition,
    _flip_search,
    _reduction,
    find_k23,
    is_k4_minor_free,
    is_unfriendly,
    k4_minor_free,
    replay_reduction,
)

from named_graphs import (
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
from oracle import brute_force_has_k4_minor, is_unfriendly_side


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

@pytest.mark.parametrize("seed", range(20))
def test_unfriendly_partition_random(seed):
    # the flip search from the everything-on-side-b start, which the k23
    # verifier's shaped-partition search runs first
    g = random_graph(random.Random(seed).randint(1, 11), 0.4, seed=seed + 50)
    a_mask = _flip_search(g, 0)
    part = Partition.of(g, [v for v in range(g.n) if (a_mask >> v) & 1])
    assert is_unfriendly_side(g, set(part.side_a))
    assert is_unfriendly(g, part)


def test_partition_of_splits_sides_and_checks_range():
    g = cycle_graph(4)
    part = Partition.of(g, {0, 1})
    assert part.side_a == {0, 1} and part.side_b == {2, 3}
    assert Partition.of(g, []).side_b == {0, 1, 2, 3}
    for bad in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            Partition.of(g, {0, bad})


# ---------------------------------------------------------------------------
# K_{2,3} embeddings
# ---------------------------------------------------------------------------

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


def test_elimination_verdict_matches_reducer_on_small_classes():
    # every subcubic class on n <= 10 and every class on n <= 7: the fact
    # record's verdict is the trace's, and reversing the labels (another
    # reduction order) keeps it
    graphs = [g for n in range(1, 11) for g in enumerate_graphs(GenSpec(n))]
    graphs += [g for n in range(1, 8) for g in enumerate_graphs(GenSpec(n, max_degree=None))]
    assert len(graphs) == 5389 + 1252
    verdicts = [k4_minor_free(g) for g in graphs]
    assert verdicts == [is_k4_minor_free(g)[0] for g in graphs]
    assert verdicts == [
        k4_minor_free(Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]))
        for g in graphs
    ]
    assert 0 < sum(verdicts) < len(graphs)


def test_elimination_verdict_matches_oracle_and_relabelling():
    # seeded random graphs on 4..12 vertices, with n - 1 to 2n - 2 edges so
    # that both verdicts are common; reversing the labels makes the reduction
    # take its steps in another order
    free = 0
    for seed in range(100):
        rng = random.Random(seed + 12000)
        n = rng.randint(4, 12)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, min(rng.randint(n - 1, 2 * n - 2), len(pairs))))
        reversed_g = Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges()])
        verdict = k4_minor_free(g)
        assert verdict == (not brute_force_has_k4_minor(g)), sorted(g.edges())
        assert verdict == k4_minor_free(reversed_g), sorted(g.edges())
        free += verdict
    assert 20 < free < 80


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


def test_reduction_traces_frozen():
    # sha256 over the repr of every reduction trace, one line per graph: all
    # subcubic classes on n <= 8, then the connected ones on 9 vertices, in
    # generation order; any change to a step, its order or a rule's choice
    # of candidate moves it
    graphs = [g for n in range(1, 9) for g in enumerate_graphs(GenSpec(n))]
    graphs += enumerate_graphs(GenSpec(9, connected=True))
    assert len(graphs) == 1208
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(is_k4_minor_free(g)[1]).encode() + b"\n")
        # the call that records no steps ends in the same vertex mask and
        # edge count as the call that does
        assert _reduction(g) == _reduction(g, [])
    assert digest.hexdigest() == (
        "14f2d08036d80c9ba21055934fed34514d7670ad330e2509d39318abb1ad0504"
    )


def random_trace_corpus():
    """Seeded random graphs on 0..14 vertices with up to 3n edges."""
    for seed in range(2000):
        rng = random.Random(seed + 15000)
        n = rng.randint(0, 14)
        pairs = list(itertools.combinations(range(n), 2))
        yield Graph(n, rng.sample(pairs, rng.randint(0, min(3 * n, len(pairs)))))


def test_reduction_traces_frozen_beyond_subcubic():
    # sha256 over the repr of every reduction trace of the corpus above, one
    # line per graph: degrees above 3 make long runs of suppressions and
    # merges, so this pins the step order where the subcubic pin cannot
    digest = hashlib.sha256()
    free = 0
    for g in random_trace_corpus():
        verdict, trace = is_k4_minor_free(g)
        free += verdict
        digest.update(repr(trace).encode() + b"\n")
    assert free == 1219
    assert digest.hexdigest() == (
        "b0b9f1855af675e0e182348e434c79b0fa4fcde3285bd1af86d21661179144b5"
    )


def test_recognize_schema_rules_are_the_rules_the_reduction_emits():
    schema = json.loads(
        pathlib.Path(__file__).resolve().parent.parent.joinpath(
            "schemas", "recognize-report.schema.json"
        ).read_text()
    )
    step = schema["properties"]["reduction"]["properties"]["steps"]["items"]
    emitted = {s.rule for g in random_trace_corpus() for s in is_k4_minor_free(g)[1].steps}
    assert set(step["properties"]["rule"]["enum"]) == emitted


def rescan_step(vertices: set, edges: Counter):
    """The step a full rescan of a multigraph (vertex set, edge multiset
    keyed by sorted pairs) takes, applied to it: the smallest parallel pair,
    else the smallest vertex of degree <= 1, else the smallest of degree 2.
    Returns (rule, vertices, multiplicity), or None when none applies."""
    degree = Counter({v: 0 for v in vertices})
    for (a, b), mult in edges.items():
        degree[a] += mult
        degree[b] += mult
    pairs = sorted(e for e, mult in edges.items() if mult >= 2)
    if pairs:
        mult = edges[pairs[0]]
        edges[pairs[0]] = 1
        return "parallel-merge", pairs[0], mult
    for rule, wanted in (("leaf-delete", (0, 1)), ("suppress", (2,))):
        found = sorted(v for v in vertices if degree[v] in wanted)
        if found:
            v = found[0]
            ends = sorted(w for e in edges if v in e for w in e if w != v)
            for e in [e for e in edges if v in e]:
                del edges[e]
            vertices.remove(v)
            if rule == "leaf-delete":
                return rule, (v,), None
            assert len(ends) == 2  # no loop and no double edge at v
            edges[tuple(ends)] += 1
            return rule, (v, *ends), None
    return None


@pytest.mark.parametrize("seed", range(40))
def test_reducer_picks_what_a_full_rescan_picks(seed):
    # every step is the one a full rescan of the multigraph it stands for
    # picks, with the state's signature after it, and the reduction stops
    # only when the rescan finds no step
    rng = random.Random(seed + 9100)
    n = rng.randint(1, 12)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    vertices, edges = set(range(n)), Counter(g.edges())
    for step in is_k4_minor_free(g)[1].steps:
        rule, picked, mult = rescan_step(vertices, edges)
        assert (step.rule, step.vertices, step.multiplicity) == (rule, picked, mult)
        assert step.after == (len(vertices), sum(edges.values()))
    assert rescan_step(vertices, edges) is None


def test_reduction_steps_monotone_shrink():
    g = random_graph(9, 0.4, seed=31)
    _, trace = is_k4_minor_free(g)
    sizes = [(9, g.m)] + [s.after for s in trace.steps]
    for before, after in zip(sizes, sizes[1:]):
        assert sum(after) < sum(before)


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_has_k4_minor(empty_graph(13))

