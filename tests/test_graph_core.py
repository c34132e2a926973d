"""Graph container, graph6 codec, and basic structure queries.

The codec is cross-checked against networkx as an independent oracle on both
named graphs and seeded random corpora.
"""

import collections
import json
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlspec.graph_core import (
    Graph,
    Graph6Error,
    bipartition,
    check_graph6,
    components,
    cut_vertices,
    induced_delete,
    induced_subgraph,
    is_bipartite,
    is_connected,
    parse_graph6,
    to_graph6,
)

from named_graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    heawood_graph,
    path_graph,
    paw_graph,
    petersen_graph,
    prism_graph,
    star_graph,
)
from oracle import adjacency_rows


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Graph container
# ---------------------------------------------------------------------------

def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_deduplicates_and_normalizes_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])


def test_edges_and_reduction_do_not_depend_on_how_the_graph_was_built():
    # a row's frozenset order depends on insertion history; edges() must not
    from hlspec.structure import is_k4_minor_free

    assert Graph(10, [(0, 9), (0, 1)]).edges() == [(0, 1), (0, 9)]
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v)
                    for u, v in rng.sample(pairs, len(pairs))]
        # vertex k joins its earlier neighbors, as gen's level loop builds
        # each child from its parent's mask tuple
        masks: tuple[int, ...] = ()
        for k in range(n):
            smask = sum(1 << u for u, v in pairs if v == k)
            masks = (*(m | (smask >> v & 1) << k for v, m in enumerate(masks)), smask)
        grown = Graph._of_masks(masks)
        builds = [Graph(n, pairs), Graph(n, shuffled), parse_graph6(to_graph6(grown)), grown]
        for b in builds:
            assert b.edges() == pairs
        traces = [is_k4_minor_free(b)[1] for b in builds]
        assert all(t == traces[0] for t in traces)


def test_fact_record_leaves_equality_hash_and_pickle_alone():
    import copy
    import pickle

    from hlspec.spectra import certify_R_le
    from hlspec.structure import k4_minor_free

    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert certify_R_le(a, 1).holds and k4_minor_free(a)
    assert a == b and hash(a) == hash(b)
    assert pickle.dumps(a) == pickle.dumps(b)
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and hash(clone) == hash(a)
        assert getattr(clone, "_facts", None) is None


def test_fact_is_computed_once_per_graph():
    g = path_graph(3)
    calls = []
    assert g.fact("k", lambda: calls.append(1) or "v") == "v"
    assert g.fact("k", lambda: calls.append(1) or "w") == "v"
    assert len(calls) == 1
    assert path_graph(3).fact("k", lambda: "fresh") == "fresh"


@st.composite
def graphs_and_subsets(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    subset = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)) if n else []
    return Graph(n, edges), subset


def assert_masks_are_a_simple_graph(g: Graph) -> None:
    """Every mask lies within 0..n-1, has no loop bit and is mirrored."""
    for v in range(g.n):
        mask = g.neighbor_mask(v)
        assert 0 <= mask < 1 << g.n and not mask >> v & 1
        assert all(g.neighbor_mask(w) >> v & 1 for w in range(g.n) if mask >> w & 1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs_and_subsets())
def test_graph6_round_trip_gives_symmetric_loop_free_masks(case):
    g, _ = case
    back = parse_graph6(to_graph6(g))
    assert back == g and hash(back) == hash(g)
    assert_masks_are_a_simple_graph(back)
    assert back.edges() == g.edges() and back.degrees() == g.degrees()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs_and_subsets())
def test_induced_delete_equals_rebuilt_graph(case):
    g, deleted = case
    sub, old_to_new = induced_delete(g, deleted)
    keep = [v for v in range(g.n) if v not in deleted]
    assert old_to_new == {v: i for i, v in enumerate(keep)}
    rebuilt = Graph(len(keep), [(old_to_new[u], old_to_new[v]) for u, v in g.edges()
                                if u in old_to_new and v in old_to_new])
    assert sub == rebuilt and hash(sub) == hash(rebuilt)
    assert_masks_are_a_simple_graph(sub)
    assert pickle.loads(pickle.dumps(sub)) == rebuilt


def test_degrees_and_masks():
    g = paw_graph()
    assert g.degrees() == (2, 2, 3, 1)
    assert g.max_degree() == 3
    assert g.neighbors(2) == frozenset({0, 1, 3})
    assert g.neighbor_mask(2) == 0b1011
    assert g.m == 4


def test_adjacency_rows_symmetric():
    g = random_graph(9, 0.4, seed=7)
    rows = adjacency_rows(g)
    for i in range(g.n):
        assert rows[i][i] == 0
        for j in range(g.n):
            assert rows[i][j] == rows[j][i]
            assert rows[i][j] == (1 if g.has_edge(i, j) else 0)


# ---------------------------------------------------------------------------
# graph6 codec, oracle-checked against networkx
# ---------------------------------------------------------------------------

# encodings verified against the networkx codec before freezing
FROZEN_GRAPH6 = {
    "@": empty_graph(1),
    "A_": path_graph(2),
    "A?": empty_graph(2),
    "Bw": complete_graph(3),
    "C~": complete_graph(4),
    "Ds_": star_graph(4),
    "IheA@GUAo": petersen_graph(),
}


def test_frozen_graph6_values():
    for text, g in FROZEN_GRAPH6.items():
        assert to_graph6(g) == text
        assert parse_graph6(text) == g


@pytest.mark.parametrize("seed", range(40))
def test_codec_round_trip_random(seed):
    n = random.Random(seed).randint(0, 20)
    g = random_graph(n, 0.35, seed=seed + 100)
    assert parse_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("seed", range(40))
def test_codec_matches_networkx(seed):
    n = random.Random(seed ^ 0xBEEF).randint(1, 30)
    g = random_graph(n, 0.3, seed=seed + 500)
    ours = to_graph6(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert ours == theirs
    back = nx.from_graph6_bytes(ours.encode())
    assert set(back.edges()) == {tuple(sorted(e)) for e in g.edges()} or set(
        map(lambda e: tuple(sorted(e)), back.edges())
    ) == set(g.edges())


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(30))
    assert exc.value.byte_offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated: needs one payload byte
    with pytest.raises(Graph6Error):
        parse_graph6("A~")  # nonzero padding bits


def test_parse_rejects_non_ascii():
    # a non-ASCII character must not be read as some in-alphabet byte
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A\u00e9")
    assert exc.value.byte_offset == 1


def test_parse_rejects_long_form():
    with pytest.raises(Graph6Error):
        parse_graph6("~??~?????")


# graph6 differential: validator and decoder against the bit-by-bit route


def oracle_graph6(raw: bytes) -> Graph | tuple[str, int]:
    """Independent route: the bit-by-bit graph6 decoder, on raw bytes.

    Walks each of the n(n-1)/2 payload bits in order and then each padding
    bit.  Returns the graph, or (message, byte offset) of the first fault.
    Graph is used only to hold the result for comparison.
    """
    data = raw.strip()
    if not data:
        return "empty graph6 string", 0
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            return f"byte {byte!r} outside graph6 alphabet", off
    if data[0] == 126:
        return "long-form graph6 (n > 62) is not supported", 0
    n = data[0] - 63
    need = (n * (n - 1) // 2 + 5) // 6
    got = len(data) - 1
    if got < need:
        return f"truncated graph6 string: need {need} data bytes, got {got}", len(data)
    if got > need:
        return f"oversized graph6 string: need {need} data bytes, got {got}", 1 + need
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (data[1 + k // 6] - 63) >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    while k < 6 * need:
        if (data[1 + k // 6] - 63) >> (5 - k % 6) & 1:
            return "nonzero padding bit", 1 + k // 6
        k += 1
    return Graph(n, edges)


def graph6_fuzz(seed: int) -> list[bytes]:
    """Seeded graph6 lines over n = 0..62: valid ones at three densities,
    random in-alphabet payloads, each single padding bit set, truncations,
    oversizing, bytes outside 63..126, the long form, non-ASCII text and
    surrounding whitespace."""
    rng = random.Random(seed)
    out = [b"", b" \t ", b"~", b"~??~?????", "\u00e9".encode(), b"A\xff"]
    for n in range(63):
        nbits = n * (n - 1) // 2
        need = (nbits + 5) // 6
        pad = 6 * need - nbits
        head = bytes([63 + n])

        def pack(value: int) -> bytes:
            return head + bytes(63 + (value >> 6 * (need - 1 - i) & 63) for i in range(need))

        dense = rng.getrandbits(nbits) if nbits else 0
        sparse = dense & (rng.getrandbits(nbits) if nbits else 0)
        valid = [pack(v << pad) for v in (0, sparse, dense)]
        out += valid
        out.append(b"  " + valid[2] + b"\r\n")
        out.append(head + bytes(rng.randint(63, 126) for _ in range(need)))
        out += [pack(dense << pad | 1 << b) for b in range(pad)]
        out += [valid[2][:-cut] for cut in range(1, min(need, 3) + 1)]
        out += [valid[2] + bytes(rng.randint(63, 126) for _ in range(extra)) for extra in (1, 2)]
        for bad in (rng.randint(0, 62), rng.randint(127, 255), 32):
            at = rng.randrange(len(valid[2]))
            out.append(valid[2][:at] + bytes([bad]) + valid[2][at + 1 :])
        out.append(b"~" + valid[1][1:])
        out.append(valid[1] + "\u00e9".encode())
        out.append(valid[1][:1] + "\u2603".encode() + valid[1][1:])
    return out


def assert_matches_oracle(raw: bytes) -> Graph | tuple[str, int]:
    text = raw.decode("utf-8", errors="surrogateescape")
    expected = oracle_graph6(raw)
    if isinstance(expected, Graph):
        assert check_graph6(text) == raw.strip()
        g = parse_graph6(text)
        assert g == expected
        # built as Graph(n, edges) builds it, down to neighbor iteration order
        assert [list(g.neighbors(v)) for v in range(g.n)] == [
            list(expected.neighbors(v)) for v in range(g.n)
        ]
        assert [g.neighbor_mask(v) for v in range(g.n)] == [
            expected.neighbor_mask(v) for v in range(g.n)
        ]
        assert to_graph6(g).encode() == raw.strip()
    else:
        message, offset = expected
        for decode in (check_graph6, parse_graph6):
            with pytest.raises(Graph6Error) as exc:
                decode(text)
            assert str(exc.value) == f"{message} (byte offset {offset})", raw
            assert exc.value.byte_offset == offset
    return expected


@pytest.mark.parametrize("seed", range(3))
def test_graph6_matches_bit_by_bit_oracle(seed):
    kinds = collections.Counter()
    for raw in graph6_fuzz(seed):
        result = assert_matches_oracle(raw)
        kinds["valid" if isinstance(result, Graph) else result[0].split()[0]] += 1
    assert set(kinds) == {
        "valid", "empty", "byte", "long-form", "truncated", "oversized", "nonzero"
    }
    assert kinds["valid"] >= 3 * 63


def test_cli_reports_graph6_faults_as_the_oracle_does(tmp_path, capsys):
    from hlspec import cli

    # one line per fault kind, free of characters str.strip() would remove
    faults: dict[str, tuple[bytes, tuple[str, int]]] = {}
    for raw in graph6_fuzz(0):
        expected = oracle_graph6(raw)
        if not isinstance(expected, Graph) and raw and min(raw) > 32:
            faults.setdefault(expected[0].split()[0], (raw, expected))
    assert len(faults) == 5
    for raw, (message, offset) in faults.values():
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"A_\n" + raw + b"\nBw\n")
        detail = f"{message} (byte offset {offset})"
        assert cli.main(["hl", str(path)]) == 0
        out, err = capsys.readouterr()
        assert [json.loads(line)["line"] for line in out.splitlines()] == [1, 3]
        assert err.splitlines()[0] == f"warning: {path}:2: skipped: {detail}"
        assert cli.main(["hl", "--strict", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {path}:2: {detail}\n")


# ---------------------------------------------------------------------------
# components, connectivity, cut vertices
# ---------------------------------------------------------------------------

def test_components_ordering():
    g = Graph(6, [(3, 4), (0, 1)])
    comps = components(g)
    assert comps == [frozenset({0, 1}), frozenset({2}), frozenset({3, 4}), frozenset({5})]


def test_components_without_matches_relabelled_deletion():
    from hlspec.graph_core import _components_without

    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25])
        removed = set(rng.sample(range(n), rng.randint(0, n)))
        sub, old_to_new = induced_delete(g, removed)
        new_to_old = {i: v for v, i in old_to_new.items()}
        want = [frozenset(new_to_old[x] for x in c) for c in components(sub)]
        assert _components_without(g, removed) == want
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        assert components(g) == sorted(map(frozenset, nx.connected_components(nxg)), key=min)


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))


@pytest.mark.parametrize("seed", range(30))
def test_cut_vertices_match_networkx(seed):
    g = random_graph(random.Random(seed).randint(2, 12), 0.3, seed=seed + 900)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert cut_vertices(g) == set(nx.articulation_points(nxg))


def test_cut_vertices_known():
    assert cut_vertices(paw_graph()) == {2}
    assert cut_vertices(path_graph(4)) == {1, 2}
    assert cut_vertices(cycle_graph(5)) == set()
    assert cut_vertices(petersen_graph()) == set()


# ---------------------------------------------------------------------------
# subgraph builders
# ---------------------------------------------------------------------------

def test_induced_delete_relabels_in_order():
    g = paw_graph()
    sub, old_to_new = induced_delete(g, {2})
    assert sub == Graph(3, [(0, 1)])
    assert old_to_new == {0: 0, 1: 1, 3: 2}


def test_induced_subgraph_keeps_internal_edges():
    g = complete_graph(4)
    sub, old_to_new = induced_subgraph(g, [1, 2, 3])
    assert sub == complete_graph(3)
    assert old_to_new == {1: 0, 2: 1, 3: 2}


def test_induced_subgraphs_reject_vertices_outside_the_graph():
    # a negative label would index from the end, a large one name nothing,
    # and a float or bool only look like a vertex
    g = complete_graph(4)
    for bad in (4, -1, 1.0, True):
        for build in (induced_delete, induced_subgraph):
            with pytest.raises(ValueError, match="out of range"):
                build(g, [0, bad])


# ---------------------------------------------------------------------------
# bipartstructure
# ---------------------------------------------------------------------------

def test_bipartition_known():
    g = complete_bipartite(2, 3)
    sides = bipartition(g)
    assert sides is not None
    assert frozenset({0, 1}) in (frozenset(sides[0]), frozenset(sides[1]))


def test_is_bipartite():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(heawood_graph())
    assert not is_bipartite(paw_graph())
    assert is_bipartite(empty_graph(3))
    assert not is_bipartite(prism_graph())


@pytest.mark.parametrize("seed", range(25))
def test_bipartite_matches_networkx(seed):
    g = random_graph(random.Random(seed).randint(1, 12), 0.3, seed=seed + 1300)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert is_bipartite(g) == nx.is_bipartite(nxg)
