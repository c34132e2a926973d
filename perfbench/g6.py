"""Minimal graph6 codec for the benchmark, kept apart from hlspec's own.

The benchmark relabels its inputs and cross-checks its frozen answers
without importing the program it measures, so it carries its own decoder
and encoder for the short form (n <= 62).
"""

from __future__ import annotations

import random


def decode(text: str) -> tuple[int, list[set[int]]]:
    """Vertex count and adjacency sets of a short-form graph6 string."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    adj: list[set[int]] = [set() for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if ((data[1 + k // 6] - 63) >> (5 - k % 6)) & 1:
                adj[i].add(j)
                adj[j].add(i)
            k += 1
    return n, adj


def encode(n: int, adj: list[set[int]]) -> str:
    """Short-form graph6 string of a graph given as adjacency sets."""
    bits = [1 if i in adj[j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def relabel(text: str, rng: random.Random) -> str:
    """The same graph under a vertex permutation drawn from rng."""
    n, adj = decode(text)
    perm = list(range(n))
    rng.shuffle(perm)
    new_adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        new_adj[perm[v]] = {perm[w] for w in adj[v]}
    return encode(n, new_adj)
