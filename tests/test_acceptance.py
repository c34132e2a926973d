"""Acceptance gate: one test per shipping criterion.

Each test is a single pass/fail line under pytest -v.  The sweeps are
exhaustive over the stated families, certificates are exact integer
arithmetic, and witnesses are replayed before a criterion counts as met.
"""

import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from hlspec import (
    PASS,
    GenSpec,
    Graph,
    SQRT2,
    certify_R_le,
    check_lemma_odd,
    enumerate_graphs,
    count_at_threshold,
    heawood_graph,
    hl_index,
    induced_delete,
    is_bipartite,
    is_k4_minor_free,
    replay_trace,
    to_graph6,
    verify_theorem_k23,
    verify_theorem_sp,
)
from hlspec.structure import k4_minor_free

from oracle import adjacency_rows, brute_force_has_k4_minor


def float_spectrum(g):
    """Adjacency eigenvalues, largest first, from numpy directly."""
    return np.linalg.eigvalsh(np.array(adjacency_rows(g), dtype=float))[::-1]


def connected_subcubic(n):
    return enumerate_graphs(GenSpec(n, connected=True))


def test_criterion_01_sp_theorem_sweep_n10():
    # every connected K4-minor-free subcubic graph up to 10 vertices:
    # exact certificate R <= 1, verifier passes, witness replays
    checked = 0
    for n in range(1, 11):
        for g in enumerate_graphs(GenSpec(n, connected=True, filters=("k4-minor-free",))):
            assert certify_R_le(g, "1").holds, to_graph6(g)
            trace = verify_theorem_sp(g)
            assert trace.verdict == PASS, (to_graph6(g), trace.case)
            assert replay_trace(g, trace), to_graph6(g)
            checked += 1
    assert checked == 1611


def test_criterion_02_k23_theorem_sweep_n10():
    # every subcubic graph containing the complete bipartite trio subgraph,
    # disconnected included
    checked = 0
    for n in range(5, 11):
        for g in enumerate_graphs(GenSpec(n, filters=("contains-k23",))):
            assert certify_R_le(g, "1").holds, to_graph6(g)
            trace = verify_theorem_k23(g)
            assert trace.verdict == PASS, (to_graph6(g), trace.case)
            checked += 1
    assert checked > 300


def test_criterion_03_sqrt2_bound_sweep_n10():
    checked = 0
    for n in range(1, 11):
        for g in connected_subcubic(n):
            assert certify_R_le(g, SQRT2).holds, to_graph6(g)
            checked += 1
    assert checked == 2571


def test_criterion_04_heawood_extremality():
    g = heawood_graph()
    idx = hl_index(g)
    assert idx.value == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert certify_R_le(g, "1").holds is False
    assert certify_R_le(g, SQRT2).holds is True
    # exact witness that R > 1: more eigenvalues above 1 than h - 1 allows
    cert = certify_R_le(g, "1")
    assert cert.at_upper.above > cert.h - 1


def test_criterion_05_n4_census_has_five_classes():
    classes = enumerate_graphs(GenSpec(4, connected=True, filters=("k4-minor-free",)))
    assert len(classes) == 5


def test_criterion_06_reducer_matches_brute_force_oracle_n7():
    # both entry points: the traced reduction and the fact-record verdict
    disagreements = verdict_disagreements = 0
    total = 0
    for n in range(1, 8):
        for g in enumerate_graphs(GenSpec(n, max_degree=None)):
            fast = is_k4_minor_free(g)[0]
            slow = not brute_force_has_k4_minor(g)
            disagreements += fast != slow
            verdict_disagreements += k4_minor_free(g) != slow
            total += 1
    assert total == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    assert disagreements == 0
    assert verdict_disagreements == 0


def test_criterion_07_lemma_suite():
    # odd-order lemma on every subcubic graph of odd order up to 9
    for n in (3, 5, 7, 9):
        for g in enumerate_graphs(GenSpec(n)):
            trace = check_lemma_odd(g)
            assert trace.verdict == PASS, to_graph6(g)

    # twins (two vertices with the same neighbourhood) in a bipartite graph
    # force R = 0: certified exactly on every twin-bearing bipartite graph up
    # to 8 vertices
    twin_bearing = 0
    for n in range(2, 9):
        for g in enumerate_graphs(GenSpec(n, max_degree=None, filters=("bipartite",))):
            if len({g.neighbor_mask(v) for v in range(n)}) == n:
                continue  # no twins
            assert certify_R_le(g, 0).holds, to_graph6(g)
            twin_bearing += 1
    assert twin_bearing > 100

    # interlacing on 1000 randomized deletion instances: every index with
    # numpy as the test's float oracle (2e-9 * n slack), and the exact count
    # form the interlace-count proof step uses
    rng = random.Random(20260815)
    violations = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        k = rng.randint(1, min(3, n - 1))
        deleted = frozenset(rng.sample(range(n), k))
        sub, _ = induced_delete(g, deleted)
        full = float_spectrum(g)
        part = float_spectrum(sub)
        slack = 2 * 1e-9 * n
        for i in range(n - k):
            violations += full[i] - part[i] < -slack or part[i] - full[i + k] < -slack
        for t in (-1, 0, 1):
            whole, minus = count_at_threshold(g, t), count_at_threshold(sub, t)
            for tail in ("above", "below"):
                a, b = getattr(whole, tail), getattr(minus, tail)
                violations += not b <= a <= b + k
    assert violations == 0


def test_criterion_08_bipartite_subcubic_n12_all_le_one():
    # the one known exception has 14 vertices, outside this sweep
    heawood_key = to_graph6(heawood_graph())
    checked = 0
    for n in range(1, 13):
        for g in enumerate_graphs(GenSpec(n, connected=True, filters=("bipartite",))):
            assert is_bipartite(g)
            assert to_graph6(g) != heawood_key
            assert certify_R_le(g, "1").holds, to_graph6(g)
            checked += 1
    assert checked > 3000


def test_criterion_09_verify_output_deterministic_across_workers():
    gen = subprocess.run(
        [sys.executable, "-m", "hlspec", "gen", "n=8", "--connected"],
        capture_output=True, text=True, timeout=300,
    )
    assert gen.returncode == 0
    outputs = set()
    for jobs in ("1", "2", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "hlspec", "verify", "sp", "--jobs", jobs],
            input=gen.stdout, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        for line in proc.stdout.splitlines():
            json.loads(line)
        outputs.add(proc.stdout)
    assert len(outputs) == 1
