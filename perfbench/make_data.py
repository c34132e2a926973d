"""Regenerate the benchmark's frozen inputs and expected answers.

    python3 perfbench/make_data.py

Run from the repository root, with numpy, sympy and networkx installed.
The class lists are the CLI's own `gen` output (the n=10 list is also the
byte-exact golden output of the `gen-k4mf-n10` workload).  Everything the
benchmark later checks against is computed here by an independent oracle,
never by hlspec's exact route:

- the class counts against published totals (OEIS A112410 gives 1733
  connected subcubic graphs at n=10 and 5524 at n=11) and against the 1611
  classes that acceptance criterion 01 sweeps for n <= 10;
- pairwise non-isomorphism with networkx, connectivity, degree cap, and a
  K4-minor test written here (series-parallel reduction);
- the K4-minor-free n=10 list equals the connected subcubic n=10 classes
  that pass that test;
- r from numpy `eigvalsh`; the certified flags from the same floats when
  both median eigenvalues are clear of +-1 and +-sqrt2, and from sympy's
  exact real roots of the characteristic polynomial otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import sympy

import g6

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

K4MF_N10 = "k4mf_n10.g6"
SUBCUBIC_N11 = "subcubic_n11.g6"
EXPECTED_K4MF_N10 = "expected_k4mf_n10.jsonl"
EXPECTED_SUBCUBIC_N11 = "expected_subcubic_n11.jsonl"
SUMS = "SHA256SUMS"

CLEAR = 1e-6  # float margin beyond which a median eigenvalue decides a flag
_X = sympy.Symbol("x")


def cli_gen(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HLSPEC_JOBS", None)
    out = subprocess.run(
        [sys.executable, "-m", "hlspec", "gen", *args],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
    )
    return out.stdout


def to_nx(text: str) -> nx.Graph:
    n, adj = g6.decode(text)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((v, w) for v in range(n) for w in adj[v] if v < w)
    return g


def k4_minor_free(text: str) -> bool:
    """Series-parallel reduction: delete vertices of degree <= 1, suppress
    vertices of degree 2 (parallel edges merge).  Treewidth <= 2, i.e. no K4
    minor, iff this empties the graph."""
    n, adj = g6.decode(text)
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if len(adj[v]) <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                adj[v] = set()
                alive.discard(v)
                changed = True
            elif len(adj[v]) == 2:
                u, w = adj[v]
                adj[u].discard(v)
                adj[w].discard(v)
                adj[u].add(w)
                adj[w].add(u)
                adj[v] = set()
                alive.discard(v)
                changed = True
    return not alive


def bipartite(text: str) -> bool:
    return nx.is_bipartite(to_nx(text))


def contains_k23(text: str) -> bool:
    n, adj = g6.decode(text)
    return any(len(adj[x] & adj[y]) >= 3 for x in range(n) for y in range(x + 1, n))


def check_classes(lines: list[str], n: int) -> None:
    """Connected, subcubic, on n vertices, and pairwise non-isomorphic."""
    buckets: dict[str, list[nx.Graph]] = {}
    for text in lines:
        g = to_nx(text)
        assert g.number_of_nodes() == n, text
        assert nx.is_connected(g), text
        assert max(d for _, d in g.degree()) <= 3, text
        key = nx.weisfeiler_lehman_graph_hash(g, iterations=4)
        for other in buckets.get(key, []):
            assert not nx.is_isomorphic(g, other), text
        buckets.setdefault(key, []).append(g)


def same_classes(a: list[str], b: list[str]) -> bool:
    """True when the two lists hold the same isomorphism classes."""
    if len(a) != len(b):
        return False
    buckets: dict[str, list[nx.Graph]] = {}
    for text in a:
        g = to_nx(text)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, iterations=4), []).append(g)
    for text in b:
        g = to_nx(text)
        pool = buckets.get(nx.weisfeiler_lehman_graph_hash(g, iterations=4), [])
        hit = next((i for i, o in enumerate(pool) if nx.is_isomorphic(g, o)), None)
        if hit is None:
            return False
        pool.pop(hit)
    return True


def exact_le(rows: list[list[int]], positions: tuple[int, int], t) -> bool:
    """Both median eigenvalues in [-t, t], by exact real roots (sympy)."""
    p = sympy.Matrix(rows).charpoly(_X)
    roots = sorted(sympy.Poly(p.as_expr(), _X).real_roots(), reverse=True)
    assert len(roots) == len(rows)
    return all(
        not (roots[i - 1] - t).is_positive and not (roots[i - 1] + t).is_negative
        for i in positions
    )


def expected_record(text: str, sweep: bool) -> tuple[dict, bool]:
    """The label-invariant fields of a class's report, and whether sympy
    decided a flag."""
    n, adj = g6.decode(text)
    rows = [[1 if w in adj[v] else 0 for w in range(n)] for v in range(n)]
    values = np.linalg.eigvalsh(np.array(rows, dtype=float))[::-1]
    h, l = (n + 1) // 2, (n + 2) // 2
    medians = (float(values[h - 1]), float(values[l - 1]))
    rec = {"graph6": text, "n": n, "m": sum(len(s) for s in adj) // 2,
           "h": h, "l": l, "r": max(abs(x) for x in medians)}
    used_exact = False
    for key, t_float, t_exact in (("certified_le_one", 1.0, sympy.Integer(1)),
                                  ("certified_le_sqrt2", math.sqrt(2), sympy.sqrt(2))):
        if all(abs(abs(x) - t_float) > CLEAR for x in medians):
            rec[key] = rec["r"] < t_float
        else:
            rec[key] = exact_le(rows, (h, l), t_exact)
            used_exact = True
    if sweep:
        rec["verdict"] = "pass"
        rec["predicates"] = {
            "subcubic": max(len(s) for s in adj) <= 3,
            "bipartite": bipartite(text),
            "k4_minor_free": k4_minor_free(text),
            "contains_k23": contains_k23(text),
        }
    return rec, used_exact


def write_expected(lines: list[str], name: str, sweep: bool) -> int:
    exact = 0
    with open(DATA / name, "w") as fh:
        for text in lines:
            rec, used_exact = expected_record(text, sweep)
            exact += used_exact
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return exact


def main() -> int:
    DATA.mkdir(exist_ok=True)
    k4mf_text = cli_gen("n=10", "--connected", "--k4-minor-free")
    sub11_text = cli_gen("n=11", "--connected")
    sub10 = cli_gen("n=10", "--connected").split()
    k4mf = k4mf_text.split()
    sub11 = sub11_text.split()

    assert len(sub10) == 1733, len(sub10)
    assert len(sub11) == 5524, len(sub11)
    assert len(k4mf) == 1028, len(k4mf)
    smaller = sum(
        len(cli_gen(f"n={n}", "--connected", "--k4-minor-free").split()) for n in range(1, 10)
    )
    assert smaller + len(k4mf) == 1611, smaller
    check_classes(sub10, 10)
    check_classes(sub11, 11)
    check_classes(k4mf, 10)
    assert all(k4_minor_free(t) for t in k4mf)
    assert same_classes(k4mf, [t for t in sub10 if k4_minor_free(t)])

    (DATA / K4MF_N10).write_text(k4mf_text)
    (DATA / SUBCUBIC_N11).write_text(sub11_text)
    exact = write_expected(k4mf, EXPECTED_K4MF_N10, sweep=True)
    exact += write_expected(sub11, EXPECTED_SUBCUBIC_N11, sweep=False)

    names = (K4MF_N10, SUBCUBIC_N11, EXPECTED_K4MF_N10, EXPECTED_SUBCUBIC_N11)
    with open(DATA / SUMS, "w") as fh:
        for name in names:
            fh.write(f"{hashlib.sha256((DATA / name).read_bytes()).hexdigest()}  {name}\n")
    print(f"wrote {len(k4mf)} + {len(sub11)} classes; sympy decided {exact} of them",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
