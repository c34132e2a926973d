"""Tests for isomorphism-class enumeration and corpus ingestion.

The canonical form is checked against a brute-force minimum-over-all-labelings
canon for small n, and class counts are checked two independent ways: frozen
values from published counting sequences, and a labeled-graph orbit count via
the orbit-stabilizer theorem.  The automorphisms the canonical form reports
are checked edge by edge, and the pruned generator is checked against a
naive one that canonicalizes and tests every child.
"""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlspec import (
    GenSpec,
    Graph,
    Graph6Error,
    canonical_key,
    count_classes,
    enumerate_graphs,
    hl_index,
    ingest_corpus,
    is_bipartite,
    is_connected,
    is_k4_minor_free,
    parse_graph6,
    to_graph6,
    verify_theorem_sp,
)
from hlspec.enumeration import _refine
from hlspec.structure import brute_force_has_k4_minor, find_k23


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def brute_canon(g: Graph) -> tuple:
    """Minimum edge set over all relabelings.  Exponential; n <= 7 only."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))
        if best is None or edges < best:
            best = edges
    return (g.n, best)


def automorphism_count(g: Graph) -> int:
    adj = {frozenset(e) for e in g.edges()}
    count = 0
    for perm in itertools.permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in adj for u, v in g.edges()):
            count += 1
    return count


# canonical form


def test_canonical_key_relabeling_invariance():
    rng = random.Random(41)
    for trial in range(60):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        key = canonical_key(g)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(h) == key


def test_canonical_key_matches_brute_force_partition():
    # same brute canon <=> same key, over every labeled graph on n vertices
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        by_brute: dict[tuple, set[bytes]] = {}
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            by_brute.setdefault(brute_canon(g), set()).add(canonical_key(g))
        # each brute class maps to exactly one key
        assert all(len(keys) == 1 for keys in by_brute.values())
        # distinct brute classes map to distinct keys
        all_keys = [next(iter(keys)) for keys in by_brute.values()]
        assert len(set(all_keys)) == len(by_brute)


def test_canonical_key_distinguishes_same_degree_sequence():
    # C6 vs 2*C3: both 2-regular on 6 vertices
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_c3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert sorted(c6.degrees()) == sorted(two_c3.degrees())
    assert canonical_key(c6) != canonical_key(two_c3)


def test_canonical_key_bytes_frozen():
    # sha256 over the keys of every labeled graph on 0..5 vertices, in
    # edge-bitmask order; frozen so a faster search cannot change the bytes
    digest = hashlib.sha256()
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            digest.update(canonical_key(g))
    assert digest.hexdigest() == (
        "de5f744004919ecc6abcff18327e37b3149a3c86e0279e8917249b5434d9cdd9"
    )


def test_refine_with_stable_splitters_matches_plain_refinement():
    # individualizing one vertex of an equitable partition and refining with
    # the parent's cells marked stable gives the same cells in the same order
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng.randint(2, 11), rng.random(), rng)
        masks = [g.neighbor_mask(v) for v in range(g.n)]
        cells = _refine(masks, [list(range(g.n))])
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            continue
        stable = [sum(1 << v for v in c) for c in cells]
        for v in cells[target]:
            rest = [w for w in cells[target] if w != v]
            branched = cells[:target] + [[v], rest] + cells[target + 1 :]
            assert _refine(masks, branched, stable) == _refine(masks, branched)


def test_level_cache_classes_carry_no_reduction_trace():
    from hlspec.enumeration import _LEVEL_CACHE
    from hlspec.structure import SPReductionTrace

    classes = enumerate_graphs(GenSpec(n=8, connected=True, filters=("k4-minor-free",)))
    for g in classes[:30]:
        assert verify_theorem_sp(g).verdict == "pass"
    for level in _LEVEL_CACHE.values():
        for g, _ in level:
            facts = getattr(g, "_facts", None) or {}
            assert not any(isinstance(v, SPReductionTrace) for v in facts.values())


# automorphism generators


def is_automorphism(g: Graph, perm) -> bool:
    return sorted(perm) == list(range(g.n)) and all(
        g.has_edge(perm[u], perm[v]) for u, v in g.edges()
    )


def group_order(gens, n: int) -> int:
    identity = tuple(range(n))
    seen = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for a in gens:
            q = tuple(a[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


def test_generators_are_automorphisms_of_enumerated_classes():
    for n in range(1, 9):
        for g in enumerate_graphs(GenSpec(n)):
            gens: list = []
            assert canonical_key(g, gens) == canonical_key(g)
            assert tuple(range(n)) not in gens
            assert all(is_automorphism(g, p) for p in gens), to_graph6(g)


def test_generators_generate_the_whole_group_n6():
    # orbit-stabilizer against brute force: the search finds all of Aut(g)
    for n in range(1, 7):
        for g in enumerate_graphs(GenSpec(n, max_degree=None)):
            gens: list = []
            canonical_key(g, gens)
            assert group_order(gens, n) == automorphism_count(g), to_graph6(g)


@st.composite
def relabelled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, keep in zip(pairs, present) if keep])
    perm = draw(st.permutations(range(n)))
    return g, Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(relabelled_graphs())
def test_generators_are_automorphisms_under_relabelling(pair):
    g, h = pair
    gens_g: list = []
    gens_h: list = []
    key = canonical_key(g, gens_g)
    assert key == canonical_key(h, gens_h) == canonical_key(g)
    assert all(is_automorphism(g, p) for p in gens_g)
    assert all(is_automorphism(h, p) for p in gens_h)
    if g.n <= 6:
        assert group_order(gens_g, g.n) == group_order(gens_h, g.n)


# class counts


def test_all_graph_counts_match_published_sequence():
    # number of graphs on n nodes: 1, 2, 4, 11, 34, 156
    for n, expect in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
        assert count_classes(GenSpec(n, max_degree=None)) == expect


def test_connected_graph_counts_match_published_sequence():
    # connected graphs on n nodes: 1, 1, 2, 6, 21, 112
    for n, expect in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert count_classes(GenSpec(n, connected=True, max_degree=None)) == expect


def test_connected_subcubic_counts():
    # connected graphs with max degree <= 3
    for n, expect in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 10), (6, 29), (7, 64), (8, 194)]:
        assert count_classes(GenSpec(n, connected=True)) == expect


def test_orbit_count_identity_n5():
    # sum over classes of n!/|Aut| must equal the labeled count 2^C(n,2)
    n = 5
    classes = enumerate_graphs(GenSpec(n, max_degree=None))
    total = sum(120 // automorphism_count(g) for g in classes)
    assert total == 2 ** 10


def test_enumeration_members_are_pairwise_nonisomorphic():
    for spec in [GenSpec(5, max_degree=None), GenSpec(6, connected=True)]:
        keys = [canonical_key(g) for g in enumerate_graphs(spec)]
        assert len(set(keys)) == len(keys)


def test_enumeration_is_deterministic():
    spec = GenSpec(7, connected=True, filters=("k4-minor-free",))
    first = [to_graph6(g) for g in enumerate_graphs(spec)]
    second = [to_graph6(g) for g in enumerate_graphs(spec)]
    assert first == second


# filters


def test_generated_graphs_satisfy_requested_predicates():
    spec = GenSpec(
        6,
        connected=True,
        filters=("k4-minor-free", "bipartite", "even-order"),
    )
    out = enumerate_graphs(spec)
    assert out
    for g in out:
        assert g.n == 6
        assert is_connected(g)
        assert g.max_degree() <= 3
        assert is_bipartite(g)
        assert is_k4_minor_free(g)[0]
        assert not brute_force_has_k4_minor(g)


def test_contains_k23_filter():
    out = enumerate_graphs(GenSpec(6, connected=True, filters=("contains-k23",)))
    assert out
    for g in out:
        assert find_k23(g) is not None
    # complement check: everything excluded really lacks the subgraph
    everything = enumerate_graphs(GenSpec(6, connected=True))
    with_k23 = {canonical_key(g) for g in out}
    for g in everything:
        if canonical_key(g) not in with_k23:
            assert find_k23(g) is None


def test_even_order_filter_rejects_odd_n():
    assert enumerate_graphs(GenSpec(5, filters=("even-order",))) == []
    assert count_classes(GenSpec(5, filters=("even-order",))) == 0


def test_filtered_enumeration_equals_post_hoc_filtering():
    # hereditary pruning must not lose classes
    base = enumerate_graphs(GenSpec(6, connected=True))
    expected = {canonical_key(g) for g in base if is_k4_minor_free(g)[0]}
    got = {
        canonical_key(g)
        for g in enumerate_graphs(GenSpec(6, connected=True, filters=("k4-minor-free",)))
    }
    assert got == expected

    expected_bip = {canonical_key(g) for g in base if is_bipartite(g)}
    got_bip = {
        canonical_key(g)
        for g in enumerate_graphs(GenSpec(6, connected=True, filters=("bipartite",)))
    }
    assert got_bip == expected_bip


def test_k4_minor_free_subcubic_n4_count():
    out = enumerate_graphs(GenSpec(4, connected=True, filters=("k4-minor-free",)))
    assert len(out) == 5
    # the one excluded class is the complete graph
    assert count_classes(GenSpec(4, connected=True)) == 6


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        GenSpec(0).validate()
    with pytest.raises(ValueError):
        GenSpec(13).validate()
    with pytest.raises(ValueError):
        GenSpec(4, max_degree=-1).validate()
    with pytest.raises(ValueError):
        GenSpec(4, filters=("planar",)).validate()


def test_max_degree_zero_gives_empty_graph_only():
    out = enumerate_graphs(GenSpec(4, max_degree=0))
    assert len(out) == 1
    assert out[0].edges() == []


def test_enumerated_graphs_satisfy_spectral_bound_spot_check():
    # every connected subcubic graph on <= 6 vertices has HL-index <= sqrt(2)
    for g in enumerate_graphs(GenSpec(6, connected=True)):
        assert hl_index(g).value <= 1.4142135624 + 1e-9


# the pruned generator against a naive one


@functools.lru_cache(maxsize=None)
def naive_level(n: int, max_degree, hered: frozenset) -> tuple:
    """Every child of every parent, hereditary test first, first child of
    each class kept: generation with no orbit pruning and no shortcuts."""
    if n == 1:
        return (Graph(1),)
    found: dict[bytes, Graph] = {}
    for parent in naive_level(n - 1, max_degree, hered):
        eligible = [
            v for v in range(n - 1) if max_degree is None or parent.degree(v) < max_degree
        ]
        cap = n - 1 if max_degree is None else min(max_degree, n - 1)
        for size in range(min(cap, len(eligible)) + 1):
            for subset in itertools.combinations(eligible, size):
                child = Graph(n, parent.edges() + [(v, n - 1) for v in subset])
                if "bipartite" in hered and not is_bipartite(child):
                    continue
                if "k4-minor-free" in hered and not is_k4_minor_free(child)[0]:
                    continue
                found.setdefault(canonical_key(child), child)
    return tuple(found[k] for k in sorted(found))


def naive_enumerate(spec: GenSpec) -> list[Graph]:
    hered = frozenset(spec.filters) & {"k4-minor-free", "bipartite"}
    return [
        g
        for g in naive_level(spec.n, spec.max_degree, hered)
        if (not spec.connected or is_connected(g))
        and ("even-order" not in spec.filters or g.n % 2 == 0)
        and ("contains-k23" not in spec.filters or find_k23(g) is not None)
    ]


# unbounded degree stops at n = 7: the naive n = 8 levels take ~30 s
@pytest.mark.parametrize("max_degree,n_max", [(3, 8), (None, 7)])
@pytest.mark.parametrize(
    "filters",
    [(), ("k4-minor-free",), ("bipartite",), ("contains-k23",), ("even-order",),
     ("k4-minor-free", "bipartite")],
)
def test_generation_matches_naive_reference(max_degree, n_max, filters):
    # same representatives, same labels, same order
    for n in range(1, n_max + 1):
        for connected in (False, True):
            spec = GenSpec(n, connected=connected, max_degree=max_degree, filters=filters)
            got = [to_graph6(g) for g in enumerate_graphs(spec)]
            assert got == [to_graph6(g) for g in naive_enumerate(spec)], spec


# corpus ingestion


def test_ingest_corpus_lenient_mixes_good_and_bad():
    lines = ["A_", "", "  ", "!!bad", "Bw\n"]
    items = list(ingest_corpus(lines))
    assert [it.line_no for it in items] == [1, 4, 5]
    assert items[0].graph is not None and items[0].graph.n == 2
    assert items[1].graph is None
    assert items[1].error is not None and "byte" in items[1].error
    assert items[2].graph is not None and items[2].graph.n == 3


def test_ingest_corpus_strict_raises_with_line_number():
    with pytest.raises(Graph6Error) as exc_info:
        list(ingest_corpus(["A_", "!!bad"], strict=True))
    assert "line 2" in str(exc_info.value)


def test_ingest_corpus_round_trip():
    rng = random.Random(42)
    graphs = [random_graph(rng.randint(1, 10), 0.4, rng) for _ in range(20)]
    lines = [to_graph6(g) for g in graphs]
    items = list(ingest_corpus(lines, strict=True))
    assert len(items) == len(graphs)
    for item, g in zip(items, graphs):
        assert item.graph == g
        assert item.error is None


def test_ingest_corpus_preserves_original_text():
    items = list(ingest_corpus(["  A_  "]))
    assert items[0].text == "A_"
    assert to_graph6(items[0].graph) == "A_"
