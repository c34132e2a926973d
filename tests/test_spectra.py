"""Exact inertia counts, floating spectra, and the median-eigenvalue index.

Counts were frozen from an independent oracle (exact characteristic
polynomial via sympy, Sturm-isolated real roots, exact comparisons); the
same oracle runs live on seeded random graphs as a property check.
"""

import math
import pathlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hlspec.enumeration import GenSpec, enumerate_graphs
from hlspec.graph_core import Graph, to_graph6
from hlspec.spectra import (
    SQRT2,
    _adjacency_facts,
    _charpoly,
    _coefficients,
    _shift_matrices,
    _shift_parts,
    _signs,
    certify_R_le,
    count_at_threshold,
    hl_index,
    median_positions,
    parse_threshold,
    prime,
    spectrum,
    threshold_token,
)
from hlspec.graph_core import induced_delete

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
from oracle import adjacency_rows, shift_int, shift_pairs


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


_X = sympy.Symbol("x")


def oracle_counts(g: Graph, t) -> tuple[int, int, int]:
    """Independent route: exact charpoly real roots, exact comparisons."""
    p = sympy.Matrix(adjacency_rows(g)).charpoly(_X)
    roots = sympy.Poly(p.as_expr(), _X).real_roots()
    above = sum(1 for r in roots if (r - t).is_positive)
    at = sum(1 for r in roots if (r - t).is_zero)
    below = sum(1 for r in roots if (r - t).is_negative)
    return (above, at, below)


NAMED = {
    "paw": paw_graph,
    "petersen": petersen_graph,
    "heawood": heawood_graph,
    "c5": lambda: cycle_graph(5),
    "c6": lambda: cycle_graph(6),
    "k23": lambda: complete_bipartite(2, 3),
    "k33": lambda: complete_bipartite(3, 3),
    "k4": lambda: complete_graph(4),
    "p7": lambda: path_graph(7),
    "prism": prism_graph,
    "star6": lambda: star_graph(6),
}

# frozen from the exact-root oracle: (above, at, below) per threshold token
ORACLE_COUNTS = {
    "paw": {"0": (2, 0, 2), "1": (1, 0, 3), "-1": (2, 1, 1), "sqrt2": (1, 0, 3), "-sqrt2": (3, 0, 1)},
    "petersen": {"0": (6, 0, 4), "1": (1, 5, 4), "-1": (6, 0, 4), "sqrt2": (1, 0, 9), "-sqrt2": (6, 0, 4)},
    "heawood": {"0": (7, 0, 7), "1": (7, 0, 7), "-1": (7, 0, 7), "sqrt2": (1, 6, 7), "-sqrt2": (7, 6, 1)},
    "c5": {"0": (3, 0, 2), "1": (1, 0, 4), "-1": (3, 0, 2), "sqrt2": (1, 0, 4), "-sqrt2": (3, 0, 2)},
    "c6": {"0": (3, 0, 3), "1": (1, 2, 3), "-1": (3, 2, 1), "sqrt2": (1, 0, 5), "-sqrt2": (5, 0, 1)},
    "k23": {"0": (1, 3, 1), "1": (1, 0, 4), "-1": (4, 0, 1), "sqrt2": (1, 0, 4), "-sqrt2": (4, 0, 1)},
    "k33": {"0": (1, 4, 1), "1": (1, 0, 5), "-1": (5, 0, 1), "sqrt2": (1, 0, 5), "-sqrt2": (5, 0, 1)},
    "k4": {"0": (1, 0, 3), "1": (1, 0, 3), "-1": (1, 3, 0), "sqrt2": (1, 0, 3), "-sqrt2": (4, 0, 0)},
    "p7": {"0": (3, 1, 3), "1": (2, 0, 5), "-1": (5, 0, 2), "sqrt2": (1, 1, 5), "-sqrt2": (5, 1, 1)},
    "prism": {"0": (2, 2, 2), "1": (1, 1, 4), "-1": (4, 0, 2), "sqrt2": (1, 0, 5), "-sqrt2": (4, 0, 2)},
    "star6": {"0": (1, 5, 1), "1": (1, 0, 6), "-1": (6, 0, 1), "sqrt2": (1, 0, 6), "-sqrt2": (6, 0, 1)},
}

# frozen from the exact-root oracle: the index value per named graph
ORACLE_R = {
    "paw": 1.0,
    "petersen": 1.0,
    "heawood": 1.414213562373,
    "c5": 0.618033988750,
    "c6": 1.0,
    "k23": 0.0,
    "k33": 0.0,
    "k4": 1.0,
    "p7": 0.0,
    "prism": 0.0,
    "star6": 0.0,
}


# ---------------------------------------------------------------------------
# exact signs in Z[sqrt(2)] and threshold tokens
# ---------------------------------------------------------------------------

def signs_of(*pairs):
    """_signs of (u, v) pairs, as one int64 row of each part."""
    import numpy as np

    u, v = (np.array([part], dtype=np.int64) for part in zip(*pairs))
    return _signs(u, v)[0].tolist()


def test_sqrt2_rational_exact_sign_near_zero():
    # continued-fraction convergents of sqrt2 sit on alternating sides,
    # so these are within 1e-2 of zero but have known exact signs:
    # 70*sqrt2 = 98.9949..., 99*sqrt2 = 140.0071...
    assert signs_of((-99, 70), (-140, 99), (0, 0), (0, -1)) == [-1, 1, 0, -1]


def test_sqrt2_signs_exact_where_u_squared_leaves_int64():
    # Pell pairs p^2 - 2 q^2 = +-1 with 3.1e9 < p < 2^62: p fits in int64 and
    # p^2 does not, and p - q*sqrt2 is within 1e-9 of zero; against a small
    # sqrt2 part, p^2 wrapped around in int64 would read as the smaller
    pairs, p, q = [], 1, 1
    while p < 2 ** 62:
        if p > 3.1e9:
            pairs.append((p, q))
        p, q = p + 2 * q, p + q
    assert len(pairs) > 10 and all(p * p > 2 ** 63 for p, _ in pairs)
    assert {p * p - 2 * q * q for p, q in pairs} == {1, -1}
    for p, q in pairs:
        sign = 1 if p * p > 2 * q * q else -1
        assert signs_of((p, -q), (-p, q), (-p, -q), (p, q)) == [sign, -sign, -1, 1], (p, q)
        assert signs_of((p, -1), (-p, 1), (p, -q - 1), (-p, q + 1)) == [1, -1, -1, 1], (p, q)


def test_sqrt2_counts_match_sympy_where_the_int64_shift_leaves_int64_squares():
    # K20 less a few seeded edges: its int64 shift at -sqrt2 has coefficients
    # u + v*sqrt2 with u and v of opposite signs and |u| > 3.1e9
    g = random_graph(20, 0.9, seed=1)
    coeffs = _coefficients([_charpoly(g)])
    assert coeffs[1] * _shift_matrices(20, 0, -1, 1)[2] < 2 ** 63  # the int64 route
    u, v = (part[0].tolist() for part in _shift_parts(coeffs, 0, -1, 1))
    assert any(abs(x) > 3.1e9 and x * y < 0 for x, y in zip(u, v))
    for t, token in ((sympy.sqrt(2), "sqrt2"), (-sympy.sqrt(2), "-sqrt2")):
        count = count_at_threshold(g, token)
        assert (count.above, count.at, count.below) == oracle_counts(g, t), token


def test_threshold_token_round_trip():
    for t in (Fraction(1), Fraction(-1), Fraction(0), Fraction(7, 5), SQRT2, -SQRT2):
        token = threshold_token(t)
        back = parse_threshold(token)
        assert float(back) == pytest.approx(float(t), abs=1e-15)
    assert threshold_token(SQRT2) == "sqrt2"
    assert threshold_token(-SQRT2) == "-sqrt2"
    assert parse_threshold("3/2") == Fraction(3, 2)
    assert float(SQRT2) == pytest.approx(math.sqrt(2), abs=1e-15)


# ---------------------------------------------------------------------------
# exact inertia counts
# ---------------------------------------------------------------------------

TOKENS = {"0": Fraction(0), "1": Fraction(1), "-1": Fraction(-1), "sqrt2": SQRT2, "-sqrt2": -SQRT2}


@pytest.mark.parametrize("tag", sorted(NAMED))
def test_counts_match_frozen_oracle(tag):
    g = NAMED[tag]()
    for token, t in TOKENS.items():
        count = count_at_threshold(g, t)
        assert (count.above, count.at, count.below) == ORACLE_COUNTS[tag][token], (tag, token)
        assert count.above + count.at + count.below == g.n


@pytest.mark.parametrize("seed", range(24))
def test_counts_match_live_oracle_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 8), rng.uniform(0.2, 0.7), seed=seed + 4000)
    pairs = [
        (Fraction(0), sympy.Integer(0)),
        (Fraction(1), sympy.Integer(1)),
        (Fraction(-1), sympy.Integer(-1)),
        (SQRT2, sympy.sqrt(2)),
        (Fraction(1, 2), sympy.Rational(1, 2)),
    ]
    for ours_t, oracle_t in pairs:
        count = count_at_threshold(g, ours_t)
        assert (count.above, count.at, count.below) == oracle_counts(g, oracle_t)


@pytest.mark.parametrize("seed", range(12))
def test_counts_invariant_under_relabeling(seed):
    rng = random.Random(seed + 7777)
    g = random_graph(rng.randint(2, 9), 0.45, seed=seed + 300)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    for t in (Fraction(0), Fraction(1), SQRT2):
        a, b = count_at_threshold(g, t), count_at_threshold(h, t)
        assert (a.above, a.at, a.below) == (b.above, b.at, b.below)


def test_counts_accept_threshold_tokens():
    g = heawood_graph()
    for token, t in TOKENS.items():
        assert count_at_threshold(g, token) == count_at_threshold(g, t)
    assert count_at_threshold(g, "3/2") == count_at_threshold(g, Fraction(3, 2))
    assert certify_R_le(g, "sqrt2").holds and not certify_R_le(g, "1").holds
    assert certify_R_le(g, "sqrt2").bound == "sqrt2"


def test_charpoly_and_counts_in_python_ints():
    # 16 * 15^16 > 2^62, so the walk counts leave int64 and numpy multiplies
    # Python ints
    g = complete_graph(16)
    assert 16 * 15 ** 16 > 2 ** 62
    expected = sympy.Poly((_X - 15) * (_X + 1) ** 15, _X).all_coeffs()
    assert _charpoly(g) == [int(c) for c in expected]
    pairs = [(t, sympy.Integer(t)) for t in (0, 1, -1, 15, 16)]
    pairs += [(SQRT2, sympy.sqrt(2)), (-SQRT2, -sympy.sqrt(2))]
    for ours_t, oracle_t in pairs:
        count = count_at_threshold(g, ours_t)
        assert (count.above, count.at, count.below) == oracle_counts(g, oracle_t)


def test_counts_agree_with_floating_spectrum_away_from_threshold():
    for seed in range(10):
        g = random_graph(8, 0.5, seed=seed + 2000)
        s = spectrum(g)
        for t in (Fraction(1, 3), Fraction(-3, 4)):
            tf = float(t)
            if any(abs(v - tf) < 1e-6 for v in s.values):
                continue
            count = count_at_threshold(g, t)
            assert count.above == sum(1 for v in s.values if v > tf)
            assert count.at == 0


# ---------------------------------------------------------------------------
# floating spectrum
# ---------------------------------------------------------------------------

def test_paw_spectrum_frozen():
    # eigenvalues of the triangle-with-pendant graph, oracle-computed
    vals = spectrum(paw_graph()).values
    expected = (2.17008648663, 0.311107817466, -1.0, -1.48119430410)
    assert vals == pytest.approx(expected, abs=1e-9)


def test_cycle_spectrum_closed_form():
    n = 9
    vals = sorted(spectrum(cycle_graph(n)).values)
    expected = sorted(2 * math.cos(2 * math.pi * k / n) for k in range(n))
    assert vals == pytest.approx(expected, abs=1e-9)


def test_complete_bipartite_spectrum_closed_form():
    vals = spectrum(complete_bipartite(2, 3)).values
    root6 = math.sqrt(6)
    assert vals == pytest.approx((root6, 0.0, 0.0, 0.0, -root6), abs=1e-9)


def test_spectrum_empty_and_indexing():
    assert spectrum(empty_graph(0)).values == ()
    s = spectrum(path_graph(3))
    with pytest.raises(ValueError):
        s.value(0)
    with pytest.raises(ValueError):
        s.value(4)
    assert s.value(1) == pytest.approx(math.sqrt(2))


# ---------------------------------------------------------------------------
# median positions and the index
# ---------------------------------------------------------------------------

def test_median_positions():
    assert median_positions(1) == (1, 1)
    assert median_positions(2) == (1, 2)
    assert median_positions(5) == (3, 3)
    assert median_positions(14) == (7, 8)
    with pytest.raises(ValueError):
        median_positions(0)


@pytest.mark.parametrize("tag", sorted(NAMED))
def test_hl_index_matches_frozen_oracle(tag):
    g = NAMED[tag]()
    idx = hl_index(g)
    assert idx.value == pytest.approx(ORACLE_R[tag], abs=1e-9)
    h, l = median_positions(g.n)
    assert (idx.h, idx.l) == (h, l)
    assert certify_R_le(g, 1).holds == (ORACLE_R[tag] <= 1.0)


def test_hl_index_rejects_empty():
    with pytest.raises(ValueError):
        hl_index(empty_graph(0))


# ---------------------------------------------------------------------------
# bound certificates
# ---------------------------------------------------------------------------

def test_certificate_at_boundary_counts_as_satisfying():
    # C6 has median eigenvalues exactly +1 and -1
    cert = certify_R_le(cycle_graph(6), 1)
    assert cert.holds
    assert cert.at_upper.at == 2 and cert.at_lower.at == 2


def test_certificate_heawood():
    g = heawood_graph()
    assert not certify_R_le(g, 1).holds
    assert certify_R_le(g, SQRT2).holds
    # strictly below sqrt2 must fail: the median pair sits exactly at it
    assert not certify_R_le(g, Fraction(14142135, 10000000)).holds


def test_certificate_zero_bound_means_zero_median_pair():
    assert certify_R_le(complete_bipartite(3, 3), 0).holds
    assert not certify_R_le(cycle_graph(5), 0).holds


def test_readme_quickstart_runs_as_written():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["cert"].holds and scope["trace"].verdict == "pass"


@pytest.mark.parametrize("seed", range(15))
def test_certificate_consistent_with_floating_r(seed):
    g = random_graph(random.Random(seed).randint(1, 9), 0.4, seed=seed + 600)
    idx = hl_index(g)
    if certify_R_le(g, 1).holds:
        assert idx.value <= 1.0 + 1e-6
    else:
        assert idx.value > 1.0 - 1e-6


# ---------------------------------------------------------------------------
# the count forms of interlacing and of Weyl's inequality, which the
# interlace-count and singular-crossing proof steps rest on
# ---------------------------------------------------------------------------

def tails(g: Graph, t) -> tuple[int, int]:
    count = count_at_threshold(g, t)
    return count.above, count.below


def assert_cauchy_counts(g: Graph, deleted) -> None:
    # N(G - A) <= N(G) <= N(G - A) + |A| for each tail at each threshold
    sub, _ = induced_delete(g, deleted)
    for t in (-1, 0, 1):
        for whole, part in zip(tails(g, t), tails(sub, t)):
            assert part <= whole <= part + len(deleted), (sorted(g.edges()), deleted, t)


@pytest.mark.parametrize("seed", range(30))
def test_interlacing_random_instances(seed):
    rng = random.Random(seed + 31337)
    g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.8), seed=seed + 800)
    k = rng.randint(1, max(1, g.n - 1))
    deleted = set(rng.sample(range(g.n), k))
    assert_cauchy_counts(g, deleted)


def test_interlacing_known_case():
    g = petersen_graph()
    assert_cauchy_counts(g, {0})
    # the deletion's counts against the independent sympy oracle
    sub, _ = induced_delete(g, {0})
    for t in (-1, 0, 1):
        count = count_at_threshold(sub, t)
        assert (count.above, count.at, count.below) == oracle_counts(sub, t)


@pytest.mark.parametrize("seed", range(25))
def test_edge_partition_bounds_random(seed):
    # N>s+t(G) <= N>s(G1) + N>t(G2) over a random edge split, and below
    rng = random.Random(seed + 99)
    g = random_graph(rng.randint(2, 9), rng.uniform(0.3, 0.8), seed=seed + 1500)
    edges = list(g.edges())
    if not edges:
        return
    chosen = [e for e in edges if rng.random() < 0.5]
    g1 = Graph(g.n, chosen)
    g2 = Graph(g.n, [e for e in edges if e not in chosen])
    for s in (-1, 0, 1):
        for t in (-1, 0, 1):
            whole = tails(g, s + t)
            for i in (0, 1):
                assert whole[i] <= tails(g1, s)[i] + tails(g2, t)[i], (edges, chosen, s, t)


@pytest.mark.parametrize("n", range(1, 14))
def test_half_power_charpoly_matches_sympy(n):
    # the traces past A^ceil(n/2) come from entrywise products; odd and even
    # n split the powers differently
    for seed in range(3):
        g = random_graph(n, 0.2 + 0.3 * seed, seed=100 * n + seed)
        expected = sympy.Matrix(adjacency_rows(g)).charpoly(_X).all_coeffs()
        assert _charpoly(g) == [int(c) for c in expected]


def test_half_power_charpoly_in_python_ints_odd_n():
    # the object-dtype route at odd n (test_charpoly_and_counts_in_python_ints
    # covers K16): 17 * 16^17 > 2^62
    assert 17 * 16 ** 17 > 2 ** 62
    expected = sympy.Poly((_X - 16) * (_X + 1) ** 16, _X).all_coeffs()
    assert _charpoly(complete_graph(17)) == [int(c) for c in expected]


def test_integer_shift_matches_pair_shift(monkeypatch):
    import numpy as np

    import hlspec.spectra as spectra

    def oracle_parts(coeffs, a, b, d):
        rows = coeffs[0].tolist()
        return [np.array([[u for u, _ in shift_pairs(row, a, b, d)] for row in rows], dtype=object)]

    thresholds = {"1": (1, 1), "-1": (-1, 1), "3/2": (3, 2), "-7/3": (-7, 3)}
    for seed in range(40):
        g = random_graph(3 + seed % 10, 0.35, seed=seed)
        coeffs = _charpoly(g)
        for token, (a, d) in thresholds.items():
            parts = _shift_parts(_coefficients([coeffs]), a, 0, d)
            assert len(parts) == 1
            assert [(c, 0) for c in parts[0][0].tolist()] == shift_pairs(coeffs, a, 0, d)
            by_int = count_at_threshold(fresh(g), token)
            with monkeypatch.context() as m:
                m.setattr(spectra, "_shift_parts", oracle_parts)
                assert count_at_threshold(fresh(g), token) == by_int
            assert by_int == count_at_threshold(g, token)
            assert (by_int.above, by_int.at, by_int.below) == oracle_counts(g, Fraction(a, d))


def test_certify_sqrt2_runs_one_shift_per_threshold_inside_prime(monkeypatch):
    # counted, not timed: with the polynomial known, the counts at +-sqrt2
    # take no kernel run and one shift product each, both inside prime, and
    # the graph's fact record then answers every later request
    import hlspec.spectra as spectra

    calls, runs, depth = [], [], [0]
    kernel, shift, prime = spectra._adjacency_facts, spectra._shift_parts, spectra.prime

    def counting_prime(*args):
        depth[0] += 1
        try:
            return prime(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(spectra, "_adjacency_facts",
                        lambda *args, **kw: runs.append(args) or kernel(*args, **kw))
    monkeypatch.setattr(spectra, "_shift_parts",
                        lambda coeffs, *t: calls.append((t, depth[0])) or shift(coeffs, *t))
    monkeypatch.setattr(spectra, "prime", counting_prime)
    for tag, make in sorted(NAMED.items()):
        g = make()
        _charpoly(g)
        calls.clear()
        runs.clear()
        cert = certify_R_le(g, SQRT2)
        assert runs == [] and sorted(calls) == [((0, -1, 1), 1), ((0, 1, 1), 1)], tag
        assert count_at_threshold(g, "-sqrt2") == cert.at_lower
        assert count_at_threshold(g, "sqrt2") == cert.at_upper
        assert len(calls) == 2, tag


def test_counts_below_minus_sqrt2_from_conjugates_match_direct_shift_and_oracle():
    # every subcubic graph on n <= 8, then 40 seeded graphs of max degree > 3
    subcubic = [g for n in range(1, 9) for g in enumerate_graphs(GenSpec(n))]
    dense: list[Graph] = []
    seed = 0
    while len(dense) < 40:
        seed += 1
        g = random_graph(5 + seed % 8, 0.55, seed=900 + seed)
        if g.max_degree() > 3:
            dense.append(g)
    minus_sqrt2 = -sympy.sqrt(2)
    for g in subcubic + dense:
        coeffs = _charpoly(g)
        plus, minus = (_shift_parts(_coefficients([coeffs]), 0, b, 1) for b in (1, -1))
        assert minus[0].tolist() == plus[0].tolist() and minus[1].tolist() == (-plus[1]).tolist()
        count = count_at_threshold(g, "-sqrt2")
        assert (count.above, count.at, count.below) == oracle_counts(g, minus_sqrt2), g


# ---------------------------------------------------------------------------
# the batched kernel and the shift matrices against their references
# ---------------------------------------------------------------------------

def fresh(g: Graph) -> Graph:
    """A copy of g with an empty fact record."""
    return Graph(g.n, g.edges())


def random_subcubic(n: int, seed: int) -> Graph:
    """Shuffled vertex pairs, each kept while both ends have degree below 3."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    degree, edges = [0] * n, []
    for u, v in pairs:
        if degree[u] < 3 and degree[v] < 3:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


@pytest.mark.parametrize("seed", range(3))
def test_batched_charpoly_matches_batch_of_one_and_sympy(seed):
    # a seeded batch mixing orders 1-13, K16 and K17 (the object-dtype route)
    # in with graphs of their orders, and subcubic graphs at n = 22 and 23
    # (the last order with Newton's sums in int64 and the first past it)
    # and n = 36 (the first past the stack's int64 bound); prime groups it
    # by order
    rng = random.Random(7000 + seed)
    graphs = [random_graph(rng.randint(1, 13), rng.uniform(0.1, 0.7), seed=rng.randrange(10 ** 6))
              for _ in range(30)]
    graphs += [complete_graph(16), random_graph(16, 0.3, seed=seed), complete_graph(17),
               random_graph(17, 0.3, seed=seed)]
    graphs += [random_subcubic(n, seed) for n in (22, 23, 36)]
    assert 16 * 15 ** 16 > 2 ** 62 and 17 * 16 ** 17 > 2 ** 62
    assert 35 * 3 ** 35 < 2 ** 62 <= 36 * 3 ** 36
    assert 22 * 2 ** 22 * 3 ** 22 < 2 ** 62 <= 23 * 2 ** 23 * 3 ** 23
    assert [g.max_degree() for g in graphs[-3:]] == [3, 3, 3]
    # (n, D) of each order's batch, D its largest degree: the Newton dtype
    # is int64 exactly when n 2^n D^n < 2^62, and both must run
    batches = {}
    for g in graphs:
        batches[g.n] = max(batches.get(g.n, 1), g.max_degree())
    newton_int64 = {n * 2 ** n * d ** n < 2 ** 62 for n, d in batches.items()}
    assert newton_int64 == {True, False}
    batch = [fresh(g) for g in graphs]
    prime(batch)
    for g, primed in zip(graphs, batch):
        one = fresh(g)
        expected = [int(c) for c in sympy.Matrix(adjacency_rows(g)).charpoly(_X).all_coeffs()]
        assert _charpoly(primed) == _adjacency_facts([one])[0][0] == expected, g.n
        for t in ((1, 0, 1), (-1, 0, 1)):
            assert count_at_threshold(primed, Fraction(t[0])) == count_at_threshold(fresh(g), t[0])
        assert spectrum(primed) == spectrum(one)


@st.composite
def graph_batches(draw):
    """One to six graphs on 1 to 9 vertices, orders mixed."""
    graphs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n = draw(st.integers(min_value=1, max_value=9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []))
    return graphs


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(graph_batches())
def test_batched_counts_at_ones_match_sympy_and_float_spectrum(graphs):
    # prime's counts at +-1, read from sign arrays for the whole batch, against
    # sympy's exact real roots, and against the float spectrum whenever no
    # eigenvalue lies within 1e-6 of the threshold
    batch = [fresh(g) for g in graphs]
    prime(batch)
    for g, primed in zip(graphs, batch):
        roots = sympy.Poly(sympy.Matrix(adjacency_rows(g)).charpoly(_X).as_expr(), _X).real_roots()
        values = spectrum(primed).values
        for t in (1, -1):
            count = count_at_threshold(primed, t)
            exact = (sum(1 for r in roots if r > t), sum(1 for r in roots if r == t),
                     sum(1 for r in roots if r < t))
            assert (count.above, count.at, count.below) == exact, (to_graph6(g), t)
            if all(abs(v - t) > 1e-6 for v in values):
                assert (count.above, count.at, count.below) == (
                    sum(1 for v in values if v > t), 0, sum(1 for v in values if v < t))


def test_matrix_shift_matches_horner_oracle():
    # 0, +-1, +-sqrt2, 1/2, -7/3 and 1/2 - sqrt2/3 as (a, b, d), batched rows
    thresholds = [(0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (1, 0, 2),
                  (-7, 0, 3), (3, -2, 6)]
    rng = random.Random(31)
    by_order: dict[int, list[list[int]]] = {}
    for _ in range(60):
        n = rng.randint(1, 13)
        by_order.setdefault(n, []).append(_charpoly(random_graph(n, rng.uniform(0.1, 0.8), seed=rng.randrange(10 ** 6))))
    by_order[17] = [_charpoly(complete_graph(17)), _charpoly(random_graph(17, 0.5, seed=3))]
    routes = set()
    for rows in by_order.values():
        n = len(rows[0]) - 1
        for a, b, d in thresholds:
            column_sum = _shift_matrices(n, a, b, d)[2]
            routes.add(max(abs(c) for row in rows for c in row) * column_sum < 2 ** 63)
            parts = [part.tolist() for part in _shift_parts(_coefficients(rows), a, b, d)]
            assert len(parts) == (2 if b else 1)
            for i, row in enumerate(rows):
                if b == 0:
                    assert parts[0][i] == shift_int(row, a, d), (n, a, b, d)
                else:
                    assert list(zip(parts[0][i], parts[1][i])) == shift_pairs(row, a, b, d), (n, a, b, d)
    assert routes == {True, False}  # both the int64 and the object route ran
    # K17 at 1/2 - sqrt2/3 must leave int64
    k17 = _charpoly(complete_graph(17))
    assert max(map(abs, k17)) * _shift_matrices(17, 3, -2, 6)[2] >= 2 ** 63


def corpus_graphs(name: str) -> list[Graph]:
    from hlspec.graph_core import parse_graph6

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / name
    return [parse_graph6(line) for line in path.read_text().split()]


@pytest.mark.parametrize("name", ["subcubic_n11.g6", "k4mf_n10.g6"])
def test_stacked_eigvalsh_matches_per_graph_call(name):
    # bit for bit, in the batches of 64 the CLI hands out
    import numpy as np

    graphs = corpus_graphs(name)
    assert len(graphs) in (5524, 1028)
    for start in range(0, len(graphs), 64):
        batch = graphs[start : start + 64]
        for g, (_, stacked) in zip(batch, _adjacency_facts(batch, with_spectrum=True)):
            adj = np.array(adjacency_rows(g), dtype=np.float64)
            assert stacked.values == tuple(np.linalg.eigvalsh(adj)[::-1].tolist())
