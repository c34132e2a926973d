"""Adjacency spectra: float eigenvalues and exact eigenvalue counting.

Two independent routes coexist on purpose.  The float route diagonalizes
with numpy and gives the reported value of R(G).  The exact route is what
certificates and proof steps rest on, and it never touches a float:

- The characteristic polynomial p(x) = det(xI - A) comes from the power
  traces tr(A^k), k = 1..n, by Newton's identities.  Entries of A^k count
  walks, so they are at most D^k for max degree D; the powers are taken in
  numpy int64 when n * D^n < 2^62 and in Python ints (dtype object)
  otherwise.  The Newton sums and their exact divisions run in Python ints.
- A is symmetric, so p has only real roots, and for a real-rooted polynomial
  Descartes' rule of signs is exact: the sign changes in the coefficients of
  p(x + t) count the eigenvalues above t, and the index of the lowest
  nonzero coefficient is the multiplicity of t.  A threshold
  t = (a + b*sqrt2) / d is shifted in by Horner's rule: in plain integers
  when b = 0, else over integer pairs, so every coefficient stays in
  Z[sqrt2] and its sign is an integer test.

The polynomial, the Z[sqrt2] shifts, the counts per threshold and the float
spectrum are kept on the graph's fact record (Graph.fact), so each is
computed once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import ne
from typing import Union

import numpy as np

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


def _charpoly(g: Graph) -> list[int]:
    """Coefficients of det(xI - A), leading 1 first, by Newton's identities.

    A is symmetric, so tr(A^(i+j)) is the sum of the entrywise product of
    A^i and A^j: the powers A^1..A^h, h = ceil(n/2), flattened into rows,
    give every trace up to n from two matrix-vector products.
    """
    n = g.n
    if n == 0:
        return [1]
    dtype = np.int64 if n * max(g.max_degree(), 1) ** n < 2 ** 62 else object
    adj = np.zeros(n * n, dtype=dtype)
    adj[[u * n + v for u, v in g.edges()]] = 1
    adj = adj.reshape(n, n)
    adj = adj + adj.T
    h = (n + 1) // 2
    powers = [adj]
    for _ in range(h - 1):
        powers.append(powers[-1].dot(adj))
    flat = np.array(powers).reshape(h, n * n)
    # traces[k] = tr(A^(k+1)): tr(A) = 0, then A^1..A^h against A^1, then
    # A^2..A^(n-h) against A^h; every entry is at most tr(A^n) <= n * D^n
    traces = [0] + (flat @ flat[0]).tolist() + (flat[1 : n - h] @ flat[-1]).tolist()
    coeffs = [1]
    for k in range(1, n + 1):
        total = 0
        for i in range(k):
            total += coeffs[i] * traces[k - 1 - i]
        coeffs.append(-total // k)
    return coeffs


def _sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(2) for integers a, b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: a^2 = 2 b^2 has no integer solution besides 0, 0
    return sa if a * a > 2 * b * b else sb


# A threshold t = (a + b*sqrt2) / d is handled as the integer triple
# (a, b, d), d > 0 minimal: the Horner shift's input and the memo key of its
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


def _shift_int(coeffs: list[int], a: int, d: int) -> list[int]:
    """Coefficients of d^n p((z + a) / d), by a Horner Taylor shift."""
    n = len(coeffs) - 1
    shifted = [c * d ** k for k, c in enumerate(coeffs)] if d != 1 else list(coeffs)
    for stop in range(n, 0, -1):
        prev = shifted[0]
        for j in range(1, stop + 1):
            prev = shifted[j] = shifted[j] + prev * a
    return shifted


def _shift_pairs(coeffs: list[int], a: int, b: int, d: int) -> list[tuple[int, int]]:
    """Coefficients of d^n p((z + a + b*sqrt2) / d), which lie in Z[sqrt2],
    as (rational, sqrt2) integer pairs."""
    n = len(coeffs) - 1
    shifted = [(c * d ** k, 0) for k, c in enumerate(coeffs)]
    for stop in range(n, 0, -1):
        for j in range(1, stop + 1):
            u, v = shifted[j - 1]
            x, y = shifted[j]
            shifted[j] = (x + u * a + 2 * v * b, y + u * b + v * a)
    return shifted


def _inertia(g: Graph, t: Scaled) -> InertiaCount:
    """Count the roots of g's characteristic polynomial p against t.

    The coefficients of p(x + t), scaled by d^n, have the sign pattern
    Descartes' rule reads (leading sign +1); a rational t takes the
    plain-integer shift.  Those of p(x + a - b*sqrt2) are the conjugates
    (u, -v) of those at a + b*sqrt2, so one shift, kept on g's fact
    record, serves both signs of b.
    """
    a, b, d = t
    coeffs = g.fact("charpoly", lambda: _charpoly(g))
    if b == 0:
        signs = [(c > 0) - (c < 0) for c in _shift_int(coeffs, a, d)]
    else:
        pairs = g.fact(("shift", a, abs(b), d), lambda: _shift_pairs(coeffs, a, abs(b), d))
        signs = [_sign(u, v if b > 0 else -v) for u, v in pairs]
    n = last = len(signs) - 1
    while not signs[last]:
        last -= 1
    nonzero = [s for s in signs if s]
    above = sum(map(ne, nonzero, nonzero[1:]))
    token = _SCALED_TOKEN.get(t) or threshold_token(Sqrt2Rational(Fraction(a, d), Fraction(b, d)))
    return InertiaCount(threshold=token, above=above, at=n - last, below=last - above)


def _counts(g: Graph, t: Scaled) -> InertiaCount:
    """Counts against t, from g's fact record when already known."""
    return g.fact(("inertia", *t), lambda: _inertia(g, t))


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
    return g.fact("spectrum", lambda: _spectrum(g))


def _spectrum(g: Graph) -> Spectrum:
    n = g.n
    if n == 0:
        return Spectrum(())
    adj = np.zeros((n, n))
    adj.flat[[u * n + v for u, v in g.edges()]] = 1.0
    vals = np.linalg.eigvalsh(adj + adj.T)
    return Spectrum(tuple(vals[::-1].tolist()))


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
    a, b, d = _scaled(bound)
    upper = _counts(g, (a, b, d))
    lower = _counts(g, (-a, -b, d))
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
