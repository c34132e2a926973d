"""Adjacency spectra: float eigenvalues and exact eigenvalue counting.

Two independent routes coexist on purpose.  The float route diagonalizes
with numpy and gives the reported value of R(G).  The exact route is what
certificates and proof steps rest on, and it never touches a float:

- The characteristic polynomial p(x) = det(xI - A) comes from the power
  traces tr(A^k), k = 1..n, by Newton's identities, run column by column
  over a batch of graphs.  Entries of A^k count walks, so they are at most
  D^k for max degree D; the powers are taken in numpy int64 when
  n * D^n < 2^62, and Newton's sums when n * 2^n * D^n < 2^62, each in
  Python ints (dtype object) otherwise.
- A is symmetric, so p has only real roots, and for a real-rooted polynomial
  Descartes' rule of signs is exact: the sign changes in the coefficients of
  p(x + t) count the eigenvalues above t, and the index of the lowest
  nonzero coefficient is the multiplicity of t.  One reader takes both
  from an array of signs, for a whole batch at once.  A threshold
  t = (a + b*sqrt2) / d is shifted in as p's coefficient row times an
  integer matrix, two when b != 0 (the rational and the sqrt2 parts), so
  every coefficient stays in Z[sqrt2] and its sign is an integer test.

One kernel stacks the adjacency matrices of graphs of one order, read off
their neighbour masks, takes their powers by batched products and, when
asked, diagonalizes the stack.  prime is the one route from a polynomial to
a count: it takes the graphs whose report rows read their spectrum and
counts at +-1, and the (graph, threshold) pairs a batch of witness traces
counts (the subgraphs their exact steps name), runs the kernel once per
order and fills each count with one shift product per threshold, +-sqrt2
included.  A count not yet known when it is read is primed as a batch of
one.  Each fact (polynomial, counts per threshold, float spectrum) is kept
on the graph's fact record (Graph.fact), so it is computed once per graph.
numpy is imported inside the kernel, the shift and the sign readers, so
gen, recognize and --help, which compute no spectrum, never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, lcm
from typing import Iterable, Sequence, Union

from .graph_core import Graph


# ---------------------------------------------------------------------------
# exact thresholds: rationals extended by sqrt(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sqrt2Rational:
    """Exact threshold a + b*sqrt(2) with rational a, b."""

    a: Fraction
    b: Fraction

    @classmethod
    def make(cls, a=0, b=0) -> "Sqrt2Rational":
        return cls(Fraction(a), Fraction(b))

    def __neg__(self):
        return Sqrt2Rational(-self.a, -self.b)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2.0 ** 0.5

    def __str__(self) -> str:
        return threshold_token(self)


SQRT2 = Sqrt2Rational.make(0, 1)

ExactNumber = Union[int, Fraction, Sqrt2Rational]


def threshold_token(t: ExactNumber) -> str:
    """Stable string form of an exact threshold, used in reports and replay."""
    if isinstance(t, Sqrt2Rational):
        if t.b == 0:
            return str(t.a)
        if t.a == 0 and t.b == 1:
            return "sqrt2"
        if t.a == 0 and t.b == -1:
            return "-sqrt2"
        return f"{t.a}{'+' if t.b > 0 else ''}{t.b}*sqrt2"
    return str(Fraction(t))


def parse_threshold(token: str) -> ExactNumber:
    """Inverse of threshold_token for the forms traces actually emit."""
    if token == "sqrt2":
        return SQRT2
    if token == "-sqrt2":
        return -SQRT2
    return Fraction(token)


# ---------------------------------------------------------------------------
# exact eigenvalue counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InertiaCount:
    """Exact eigenvalue counts of an adjacency matrix against a threshold."""

    threshold: str
    above: int
    at: int
    below: int


def _adjacency_facts(graphs: Sequence[Graph], with_spectrum: bool = False) -> list[tuple]:
    """The characteristic polynomial (leading 1 first) and, with_spectrum,
    the float spectrum of each of graphs, which share one order n, from one
    stacked adjacency array; each is also stored on its graph's fact record.

    The (B, n, n) stack is read off the graphs' neighbour masks by shifts.
    A is symmetric, so tr(A^(i+j)) is the sum of the entrywise product of
    A^i and A^j: the powers A^1..A^h, h = ceil(n/2), flattened into rows,
    give every trace up to n from two batched matrix-vector products.
    Newton's identities then run column by column over the whole batch,
    c_k = (sum_{i<k} c_i tr(A^(k-i))) // -k, an exact division.

    Bounds, for the batch's largest degree D: entries of A^j count walks, so
    |tr(A^j)| <= n D^j, and every trace and partial sum of one is at most
    n D^n; the stack is int64 while n D^n < 2^62 (through n = 35 for
    subcubic graphs).  |c_i| <= C(n, i) D^i, so each Newton term is at most
    n C(n, i) D^k and every partial sum at most n 2^n D^n; Newton runs in
    int64 while that is below 2^62 (through n = 22 for subcubic graphs).
    Past either bound the same code runs on Python ints (dtype object).
    """
    n = graphs[0].n
    polys, values = [[1]] * len(graphs), [[]] * len(graphs)
    if n:
        import numpy as np

        masks = np.array([g._mask for g in graphs], dtype=np.int64 if n < 64 else object)
        adj = (masks[:, :, None] >> np.arange(n)) & 1
        degree = max(int(adj.sum(axis=2).max()), 1)
        adj = adj.astype(np.int64 if n * degree ** n < 2 ** 62 else object)
        h = (n + 1) // 2
        powers = [adj]
        for _ in range(h - 1):
            powers.append(powers[-1] @ adj)
        flat = np.stack(powers, axis=1).reshape(-1, h, n * n)
        # tr(A^2)..tr(A^(h+1)) from A^1..A^h against A^1, then
        # tr(A^(h+2))..tr(A^n) from A^2..A^(n-h) against A^h; tr(A) = 0
        first = (flat @ flat[:, 0, :, None])[..., 0]
        rest = (flat[:, 1 : n - h] @ flat[:, -1, :, None])[..., 0]
        traces = np.concatenate((0 * first[:, :1], first, rest), axis=1)[:, :n]
        if n * 2 ** n * degree ** n >= 2 ** 62:
            traces = traces.astype(object)
        coeffs = np.zeros((len(graphs), n + 1), dtype=traces.dtype)
        coeffs[:, 0] = 1
        for k in range(1, n + 1):
            coeffs[:, k] = (coeffs[:, :k] * traces[:, k - 1 :: -1]).sum(axis=1) // -k
        polys = coeffs.tolist()
        if with_spectrum:
            values = np.linalg.eigvalsh(adj.astype(np.float64))[:, ::-1].tolist()
    return [(g.fact("charpoly", lambda: poly),
             g.fact("spectrum", lambda: Spectrum(tuple(vals))) if with_spectrum else None)
            for g, poly, vals in zip(graphs, polys, values)]


def _charpoly(g: Graph) -> list[int]:
    """g's characteristic polynomial, computed as a batch of one if not known."""
    return g.fact("charpoly", lambda: _adjacency_facts([g])[0][0])


def prime(graphs: Iterable[Graph], counts: Iterable[tuple[Graph, Scaled]] = ()) -> None:
    """Store on each graph's fact record what a report row reads (the
    polynomial, the float spectrum and the counts at +1 and -1), and for
    each (graph, threshold) of counts the polynomial and the count there.

    The graphs are batched by order: one kernel run per order, a second
    where an order mixes graphs of both kinds, since only the first ask for
    the spectrum; then one shift product per threshold, rational or not,
    over the graphs of that order that ask for it.  The shifted coefficients
    stay arrays from the product to the counts.  A graph of counts whose
    polynomial is already on its record does not run through the kernel
    again.
    """
    ones = frozenset(_bounds(1))
    asks: dict[int, list] = {}  # [graph, thresholds, spectral] by identity, not content
    for g in graphs:
        if g.n:  # an empty graph's row reads no spectrum and no count
            asks[id(g)] = [g, ones, True]
    for g, t in counts:
        ask = asks.setdefault(id(g), [g, frozenset(), False])
        ask[1] = ask[1] | {t}
    by_order: dict[int, list] = {}
    for ask in asks.values():
        by_order.setdefault(ask[0].n, []).append(ask)
    for same in by_order.values():
        spectral = [g for g, _, s in same if s]
        plain = [g for g, _, s in same if not s and not g.has_fact("charpoly")]
        polys = {}  # by identity, from this order's kernel runs
        for batch, with_spectrum in ((spectral, True), (plain, False)):
            if batch:
                facts = _adjacency_facts(batch, with_spectrum=with_spectrum)
                polys.update(zip(map(id, batch), (poly for poly, _ in facts)))
        coeffs = _coefficients([polys.get(id(g)) or _charpoly(g) for g, _, _ in same])
        for t in frozenset().union(*(ts for _, ts, _ in same)):
            pick = [i for i, (_, ts, _) in enumerate(same) if t in ts]
            rows = coeffs if len(pick) == len(same) else (coeffs[0][pick], coeffs[1])
            key = ("inertia", *t)
            for i, count in zip(pick, _read_counts(_signs(*_shift_parts(rows, *t)), t)):
                same[i][0].fact(key, lambda: count)


def _signs(u, v=None):
    """The signs of u + v*sqrt2 (v None: of u) for integer arrays u and v,
    entrywise, as int8.  Where the signs of u and v differ, the sign is the
    one of the larger of u^2 and 2 v^2, compared in Python ints, since u^2
    can leave int64 while u fits; u^2 = 2 v^2 only at u = v = 0."""
    import numpy as np

    signs = np.sign(u).astype(np.int8)
    if v is None:
        return signs
    other = np.sign(v).astype(np.int8)
    differ = signs != other
    wins = u[differ].astype(object) ** 2 > 2 * v[differ].astype(object) ** 2
    signs[differ] = np.where(wins, signs[differ], other[differ])
    return signs


# A threshold t = (a + b*sqrt2) / d is handled as the integer triple
# (a, b, d), d > 0 minimal: the shift's input and the memo key of its
# counts.  The tokens the verifiers and the CLI name are parsed once, here.
Scaled = tuple[int, int, int]
_TOKEN_SCALED: dict[str, Scaled] = {
    "0": (0, 0, 1), "1": (1, 0, 1), "-1": (-1, 0, 1), "sqrt2": (0, 1, 1), "-sqrt2": (0, -1, 1),
}
_SCALED_TOKEN = {t: token for token, t in _TOKEN_SCALED.items()}


def _scaled(t: ExactNumber | str) -> Scaled:
    if isinstance(t, str):
        known = _TOKEN_SCALED.get(t)
        if known is not None:
            return known
        t = parse_threshold(t)
    if isinstance(t, int):
        return t, 0, 1
    if not isinstance(t, Sqrt2Rational):
        t = Sqrt2Rational.make(t)
    d = lcm(t.a.denominator, t.b.denominator)
    return t.a.numerator * (d // t.a.denominator), t.b.numerator * (d // t.b.denominator), d


@lru_cache(maxsize=64)
def _bounds(bound: ExactNumber | str) -> tuple[Scaled, Scaled]:
    """The two thresholds a bound on R is certified at: it and its negation."""
    a, b, d = _scaled(bound)
    return (a, b, d), (-a, -b, d)


@lru_cache(maxsize=64)
def _shift_matrices(n: int, a: int, b: int, d: int) -> tuple[tuple, tuple | None, int]:
    """The shift at t = (a + b*sqrt2) / d as integer matrices R, and S when
    b != 0, with d^n p((z + a + b*sqrt2) / d) = c R + sqrt2 c S for p's
    coefficient row c (length n + 1, leading first): as object arrays, as
    int64 arrays when they fit, and the largest column sum of |R| and |S|.

    Row k is d^k (z + tau)^(n - k), tau = a + b*sqrt2: its entry in column
    i >= k is d^k C(n - k, i - k) tau^(i - k), and tau^e = A_e + B_e sqrt2
    with integers A_e, B_e.
    """
    import numpy as np

    tau = [(1, 0)]
    for _ in range(n):
        tau.append((tau[-1][0] * a + 2 * tau[-1][1] * b, tau[-1][0] * b + tau[-1][1] * a))
    exact = tuple(np.array([[d ** k * comb(n - k, i - k) * tau[i - k][part] if i >= k else 0
                             for i in range(n + 1)] for k in range(n + 1)], dtype=object)
                  for part in ((0, 1) if b else (0,)))
    column_sum = max(sum(map(abs, column)) for m in exact for column in m.T)
    fast = tuple(m.astype(np.int64) for m in exact) if column_sum < 2 ** 63 else None
    for m in exact + (fast or ()):
        m.flags.writeable = False  # shared by every caller through the cache
    return exact, fast, column_sum


def _coefficients(rows: list[list[int]]) -> tuple:
    """Coefficient rows (all of length n + 1) as one array, int64 when every
    entry fits and Python ints (dtype object) otherwise, with max|c|: the
    input of _shift_parts, built once for any number of thresholds."""
    import numpy as np

    top = max(map(abs, chain.from_iterable(rows)))
    return np.array(rows, dtype=np.int64 if top < 2 ** 63 else object), top


def _shift_parts(coeffs: tuple, a: int, b: int, d: int) -> list:
    """Coefficients of d^n p((z + a + b*sqrt2) / d) for each coefficient row
    p of coeffs (from _coefficients), as one integer array per shift matrix
    M (the rational part, then the sqrt2 part when b != 0), from one product.

    Each coefficient is a sum of c_k M[k, i], so it, and every partial sum
    of it, is at most max|c| times the largest column sum of |M| in absolute
    value: the product runs in int64 when that bound is below 2^63 and in
    Python ints (dtype object) otherwise.
    """
    rows, top = coeffs
    exact, fast, column_sum = _shift_matrices(rows.shape[1] - 1, a, b, d)
    if top * column_sum < 2 ** 63:  # so top < 2^63: rows is int64
        return [rows @ m for m in fast]
    return [rows.astype(object) @ m for m in exact]


def _read_counts(signs, t: Scaled) -> list[InertiaCount]:
    """Descartes' counts against t from each row of signs: those of the
    coefficients of p(x + t), leading (positive) first.  The sign changes
    count the roots above t, and the index of the last nonzero sign is n
    minus the multiplicity of t.  Each zero takes the last nonzero sign
    before it, so zeros add no change."""
    import numpy as np

    a, b, d = t
    n = signs.shape[1] - 1
    nonzero = signs != 0
    last = n - nonzero[:, ::-1].argmax(axis=1)
    held = np.maximum.accumulate(np.where(nonzero, np.arange(n + 1), 0), axis=1)
    filled = np.take_along_axis(signs, held, axis=1)
    above = (filled[:, 1:] != filled[:, :-1]).sum(axis=1)
    token = _SCALED_TOKEN.get(t) or threshold_token(Sqrt2Rational(Fraction(a, d), Fraction(b, d)))
    return [InertiaCount(threshold=token, above=up, at=n - low, below=low - up)
            for up, low in zip(above.tolist(), last.tolist())]


def _counts(g: Graph, t: Scaled) -> InertiaCount:
    """Counts against t from g's fact record, primed as a batch of one when
    not yet there."""
    key = ("inertia", *t)
    if not g.has_fact(key):
        prime((), [(g, t)])
    return g._facts[key]


def count_at_threshold(g: Graph, t: ExactNumber | str) -> InertiaCount:
    """Exact counts of adjacency eigenvalues above / at / below t.

    t may be an int, a Fraction, a Sqrt2Rational, or a token that
    parse_threshold reads ("1", "-sqrt2", "3/2"); no float is consulted, so
    the counts are certificates rather than estimates.
    """
    return _counts(g, _scaled(t))


# ---------------------------------------------------------------------------
# float spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Floating adjacency eigenvalues, sorted descending."""

    values: tuple[float, ...]

    def value(self, i: int) -> float:
        """1-indexed eigenvalue, largest first."""
        if not (1 <= i <= len(self.values)):
            raise ValueError(f"eigenvalue index {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]


def spectrum(g: Graph) -> Spectrum:
    return g.fact("spectrum", lambda: _adjacency_facts([g], with_spectrum=True)[0][1])


def median_positions(n: int) -> tuple[int, int]:
    """The two median positions (1-indexed, equal when n is odd)."""
    if n < 1:
        raise ValueError("median eigenvalues need at least one vertex")
    return (n + 1) // 2, (n + 2) // 2


# ---------------------------------------------------------------------------
# the median-eigenvalue index and its certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HLIndex:
    """max(|median-high eigenvalue|, |median-low eigenvalue|) of a graph."""

    h: int
    l: int
    value: float


@dataclass(frozen=True)
class RBoundCertificate:
    """Exact certificate that both median eigenvalues lie in [-bound, bound].

    holds is derived purely from the two inertia counts: at most h-1
    eigenvalues exceed the bound and at most n-l lie below its negation.
    Eigenvalues exactly at the bound satisfy it.
    """

    bound: str
    holds: bool
    at_upper: InertiaCount
    at_lower: InertiaCount
    h: int
    l: int


def certify_R_le(g: Graph, bound: ExactNumber | str) -> RBoundCertificate:
    if g.n < 1:
        raise ValueError("empty graph has no median eigenvalues")
    h, l = median_positions(g.n)
    at_upper, at_lower = _bounds(bound)
    upper, lower = _counts(g, at_upper), _counts(g, at_lower)
    holds = upper.above <= h - 1 and lower.below <= g.n - l
    return RBoundCertificate(
        bound=upper.threshold,
        holds=holds,
        at_upper=upper,
        at_lower=lower,
        h=h,
        l=l,
    )


def hl_index(g: Graph) -> HLIndex:
    if g.n < 1:
        raise ValueError("empty graph has no median eigenvalues")
    h, l = median_positions(g.n)
    s = spectrum(g)
    return HLIndex(h=h, l=l, value=max(abs(s.value(h)), abs(s.value(l))))
