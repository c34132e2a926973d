"""Tests for isomorphism-class enumeration.

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
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlspec import (
    GenSpec,
    Graph,
    canonical_key,
    enumerate_graphs,
    hl_index,
    is_bipartite,
    is_connected,
    is_k4_minor_free,
    parse_graph6,
    to_graph6,
    verify_theorem_sp,
)
from hlspec import enumeration
from hlspec.enumeration import _refine
from hlspec.structure import find_k23

from oracle import automorphism_count as networkx_automorphism_count
from oracle import brute_force_has_k4_minor


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


def test_canonical_keys_of_every_subcubic_class_on_9_vertices_frozen():
    # 1,165 classes, disconnected and twin-rich ones included; frozen so a
    # faster search cannot change a key past the n <= 5 digest above
    digest = hashlib.sha256()
    for g in enumerate_graphs(GenSpec(9)):
        digest.update(canonical_key(g))
    assert digest.hexdigest() == (
        "19fa707b098d1d493f6600dc57bf7e13795008cf4bb27bb6dbeed6db86980eb9"
    )


def vertices(cmask):
    return [v for v in range(cmask.bit_length()) if cmask >> v & 1]


def branches(cmasks):
    """Each partition that individualizes one vertex of the first
    non-singleton cell, with the cell's rest: (partition, rest)."""
    target = next((i for i, c in enumerate(cmasks) if c & (c - 1)), None)
    if target is None:
        return
    for v in vertices(cmasks[target]):
        rest = cmasks[target] ^ 1 << v
        yield cmasks[:target] + [1 << v, rest] + cmasks[target + 1 :], rest


def test_refine_with_stable_splitters_matches_plain_refinement():
    # individualizing one vertex of an equitable partition and refining with
    # the parent's cells marked stable gives the same cells in the same order;
    # so does marking the rest of the individualized cell stable too
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng.randint(2, 11), rng.random(), rng)
        masks = [g.neighbor_mask(v) for v in range(g.n)]
        stable = _refine(masks, [(1 << g.n) - 1])
        for branched, rest in branches(stable):
            refined = _refine(masks, branched, stable)
            assert refined == _refine(masks, branched)
            assert refined == _refine(masks, branched, stable + [rest])


def plain_refine(masks, cells, stable=()):
    """The splitter loop _refine shortcuts: the first cell not yet used
    splits every non-singleton cell by neighbor counts, pieces in ascending
    count order, and the scan restarts from the first cell after a split.
    Cells are vertex lists here, counts are bucketed per vertex."""
    cells = [list(c) for c in cells]
    known = set(stable)
    changed = True
    while changed:
        changed = False
        for splitter in list(cells):
            smask = sum(1 << v for v in splitter)
            if smask in known:
                continue
            known.add(smask)
            new_cells = []
            for cell in cells:
                buckets: dict = {}
                for v in cell:
                    buckets.setdefault((masks[v] & smask).bit_count(), []).append(v)
                new_cells.extend(buckets[k] for k in sorted(buckets))
                changed = changed or len(buckets) > 1
            cells = new_cells
            if changed:
                break
    return cells


def assert_refine_matches_plain(g):
    # same cells in the same order, from the unit cell and after
    # individualizing each vertex of the first non-singleton cell
    masks = [g.neighbor_mask(v) for v in range(g.n)]
    cmasks = _refine(masks, [(1 << g.n) - 1])
    assert list(map(vertices, cmasks)) == plain_refine(masks, [list(range(g.n))])
    for branched, _ in branches(cmasks):
        expect = plain_refine(masks, list(map(vertices, branched)), cmasks)
        assert list(map(vertices, _refine(masks, branched, cmasks))) == expect


def test_refine_matches_the_plain_splitter_loop():
    rng = random.Random(12)
    for _ in range(300):
        g = random_graph(rng.randint(2, 12), rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        assert_refine_matches_plain(g)


@pytest.mark.parametrize("n", [12, 30, 62])
def test_refine_and_keys_on_dense_graphs(n):
    # degrees near n/2, so a splitter's counts take three to six bit planes
    rng = random.Random(n)
    for _ in range(3):
        g = random_graph(n, 0.5, rng)
        assert 3 <= max(g.degrees()).bit_length() <= 6
        assert_refine_matches_plain(g)
        key = canonical_key(g)
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])) == key


@pytest.mark.parametrize("spec, forms, digest", [
    (GenSpec(n=9), 3742,
     "47972e9482a47dca4f398fc71a83501b799988ca20b5af07a9ce7dea68e081df"),
    # the benchmark's gen run: the connected last level and the K4 filter
    (GenSpec(n=10, connected=True, filters=("k4-minor-free",)), 4692,
     "816d379d71de6a59674ccf46918a77fc94848b3d316727930de0f7a7d8a43916"),
], ids=["n9", "k4mf-n10"])
def test_canonical_search_output_on_every_gen_n9_form_frozen(monkeypatch, spec, forms, digest):
    # sha256 over each key and the generators the search found for it, in
    # order, for every graph gen canonicalizes from an empty level cache;
    # frozen so a faster search cannot change a key or a generator
    seen = []
    search = enumeration.canonical_key

    def recording(g, generators=None):
        gens: list = []
        key = search(g, gens)
        seen.append((key, gens))
        if generators is not None:
            generators.extend(gens)
        return key

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_key", recording)
    enumerate_graphs(spec)
    assert len(seen) == forms
    h = hashlib.sha256()
    for key, gens in seen:
        h.update(key)
        for p in gens:
            h.update(bytes(p))
        h.update(b"\xff")
    assert h.hexdigest() == digest


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


def test_generators_generate_the_whole_group_against_networkx():
    # past n = 6, where twin cells are common: every connected subcubic class
    # on 9 vertices and every subcubic class on 7, disconnected ones included
    classes = enumerate_graphs(GenSpec(9, connected=True)) + enumerate_graphs(GenSpec(7))
    assert len(classes) == 681
    for g in classes:
        gens: list = []
        canonical_key(g, gens)
        assert group_order(gens, g.n) == networkx_automorphism_count(g), to_graph6(g)


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
        assert len(enumerate_graphs(GenSpec(n, max_degree=None))) == expect


def test_connected_graph_counts_match_published_sequence():
    # connected graphs on n nodes: 1, 1, 2, 6, 21, 112
    for n, expect in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert len(enumerate_graphs(GenSpec(n, connected=True, max_degree=None))) == expect


def test_connected_subcubic_counts():
    # connected graphs with max degree <= 3
    for n, expect in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 10), (6, 29), (7, 64), (8, 194)]:
        assert len(enumerate_graphs(GenSpec(n, connected=True))) == expect


def test_connected_subcubic_n11_matches_frozen_corpus():
    # the benchmark's frozen 5524 classes, labels and order
    data = pathlib.Path(__file__).parents[1] / "perfbench" / "data" / "subcubic_n11.g6"
    got = "".join(to_graph6(g) + "\n" for g in enumerate_graphs(GenSpec(11, connected=True)))
    assert got.encode() == data.read_bytes()


@pytest.mark.parametrize("max_degree,n_max", [(3, 9), (None, 7), (2, 12)])
def test_isolated_vertex_count_never_increases_in_key_order(
    monkeypatch, max_degree, n_max
):
    # the lemma the earlier-parent skip rests on: more isolated vertices,
    # strictly smaller key; each level is built fresh, not read from a cache
    # another test filled
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    for n in range(1, n_max + 1):
        level = enumerate_graphs(GenSpec(n, max_degree=max_degree))
        keys = [canonical_key(g) for g in level]
        assert keys == sorted(keys)
        isolated = [g.degrees().count(0) for g in level]
        assert isolated == sorted(isolated, reverse=True), (n, max_degree)


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
    assert len(enumerate_graphs(GenSpec(5, filters=("even-order",)))) == 0


def test_even_order_at_odd_n_builds_no_level(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    stats: Counter = Counter()
    spec = GenSpec(7, connected=True, filters=("even-order",))
    assert enumerate_graphs(spec, stats) == []
    assert stats["children"] == 0
    assert enumeration._LEVEL_CACHE == {}


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
    assert len(enumerate_graphs(GenSpec(4, connected=True))) == 6


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
@pytest.mark.parametrize("max_degree,n_max", [(3, 8), (None, 7), (2, 9)])
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


@pytest.mark.parametrize("filters", [(), ("k4-minor-free",)])
def test_connected_level_is_never_served_as_a_full_level(monkeypatch, filters):
    # the connected-only last level must not stand in for the complete level
    # at n, nor serve as the parent level of n + 1
    for n in range(1, 8):
        monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
        for size, connected in ((n, True), (n, False), (n + 1, False)):
            spec = GenSpec(size, connected=connected, filters=filters)
            got = [to_graph6(g) for g in enumerate_graphs(spec)]
            assert got == [to_graph6(g) for g in naive_enumerate(spec)], spec


def test_enumerated_graphs_are_fresh_copies(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    classes = enumerate_graphs(GenSpec(8, connected=True, filters=("k4-minor-free",)))
    for g in classes:
        assert verify_theorem_sp(g).verdict == "pass"
        assert getattr(g, "_facts", None) is not None
    assert enumeration._LEVEL_CACHE
    for level in enumeration._LEVEL_CACHE.values():
        for g, _ in level:
            assert getattr(g, "_facts", None) is None
