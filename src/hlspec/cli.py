"""Command-line interface: batch index computation, theorem verification,
corpus generation, and structural recognition over graph6 streams.

Reports are JSON lines on stdout (sorted keys, one object per input graph)
or CSV with --csv; warnings and the run summary go to stderr so stdout stays
byte-identical across worker counts.  Exit codes: 0 all pass, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext
from typing import Iterable, Iterator, Sequence

# the other hlspec modules are imported by the commands and chunk workers
# that run them, so each command loads only what it uses
from .graph_core import Graph, Graph6Error, _decode_graph6, check_graph6, is_bipartite, to_graph6

THEOREMS = ("k23", "sp", "lemma-odd", "survey")

_GEN_FLAG_FILTERS = ("k4-minor-free", "contains-k23", "bipartite", "even-order")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _collect_graphs(
    paths: Sequence[str], strict: bool
) -> tuple[list[tuple[int, str]], int]:
    """Read and validate every input line before the first report.

    Returns (kept lines as (line number, stripped graph6 text), bad line
    count); blank lines are skipped but still counted in line numbers.
    Lenient mode warns and skips malformed lines; strict mode raises.  No
    line is decoded here: each report decodes its own line once, unchecked.
    """
    kept: list[tuple[int, str]] = []
    bad = 0
    for path in paths or ["-"]:
        # undecodable bytes become surrogate escapes, which check_graph6 rejects
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(encoding="ascii", errors="surrogateescape")
            source, stream = "<stdin>", nullcontext(sys.stdin)
        else:
            source, stream = path, open(path, "r", encoding="ascii", errors="surrogateescape")
        with stream as fh:
            for line_no, raw in enumerate(fh, start=1):
                text = raw.strip(" \t\n\r\v\f")  # not \x1c-\x1f, as str.strip() would
                if not text:
                    continue
                try:
                    check_graph6(text)
                except Graph6Error as exc:
                    if strict:
                        raise UsageError(f"{source}:{line_no}: {exc}") from exc
                    bad += 1
                    print(f"warning: {source}:{line_no}: skipped: {exc}", file=sys.stderr)
                    continue
                kept.append((line_no, text))
    return kept, bad


def parse_graph6(text: str) -> Graph:
    """graph_core.parse_graph6 without its check: lines come validated or from to_graph6."""
    return _decode_graph6(text.encode())


def _parse_gen_string(spec: str) -> GenSpec:
    """Parse a generation spec like "n=8,connected", each key at most once."""
    from .enumeration import GenSpec

    n = None
    connected = False
    max_degree = 3
    filters: list[str] = []
    tokens = [t for t in map(str.strip, spec.split(",")) if t]
    for key, count in Counter(t.split("=", 1)[0] for t in tokens).items():
        if count > 1:
            raise ValueError(f"repeated generation token {key!r}")
    for token in tokens:
        if token.startswith("n="):
            n = int(token[2:])
        elif token.startswith("max-degree="):
            max_degree = int(token[len("max-degree="):])
        elif token == "connected":
            connected = True
        elif token in _GEN_FLAG_FILTERS:
            filters.append(token)
        else:
            raise ValueError(f"unknown generation token {token!r}")
    if n is None:
        raise ValueError("generation spec needs n=<count>")
    return GenSpec(n=n, connected=connected, max_degree=max_degree, filters=tuple(filters))


def _gen_inputs(gen: GenSpec) -> list[tuple[int, str]]:
    from .enumeration import enumerate_graphs

    return [(i, to_graph6(g)) for i, g in enumerate(enumerate_graphs(gen), start=1)]


# ---------------------------------------------------------------------------
# row builders, called once per chunk: each imports the modules its rows
# read and returns (verify, row): verify gives a graph's witness trace
# (None: the rows verify nothing), and row builds a row from (graph, line
# number, graph6 text, settled trace or None); or, for _index_fields and
# _predicates, the function that builds part of a row from the graph
# ---------------------------------------------------------------------------

_INDEX_FIELDS = ("r", "h", "l", "certified_le_one", "certified_le_sqrt2")


def _index_fields():
    """R(G), the median positions and the exact <= 1 / <= sqrt2 certificates
    (the second from the first when that holds, else from the counts at
    +-sqrt2) of a graph; all null for the empty graph."""
    from .spectra import SQRT2, certify_R_le, hl_index

    def fields(g: Graph) -> dict:
        if g.n == 0:
            return dict.fromkeys(_INDEX_FIELDS)
        idx = hl_index(g)
        le_one = certify_R_le(g, 1).holds
        return {
            "r": idx.value,
            "h": idx.h,
            "l": idx.l,
            "certified_le_one": le_one,
            # N>sqrt2 <= N>1 <= h - 1 and N<-sqrt2 <= N<-1 <= n - l
            "certified_le_sqrt2": le_one or certify_R_le(g, SQRT2).holds,
        }

    return fields


def _predicates():
    from .structure import find_k23, k4_minor_free

    def predicates(g: Graph) -> dict:
        return {
            "subcubic": g.max_degree() <= 3,
            "bipartite": is_bipartite(g),
            "k4_minor_free": k4_minor_free(g),
            "contains_k23": find_k23(g) is not None,
        }

    return predicates


def _head(g: Graph, line_no: int, text: str) -> dict:
    """The fields every report starts with."""
    return {"graph6": text, "line": line_no, "n": g.n, "m": g.m}


def _hl_rows():
    index_fields = _index_fields()
    return None, lambda g, line_no, text, _: {**_head(g, line_no, text), **index_fields(g)}


@functools.cache
def _extremal_key() -> bytes:
    """The canonical key of the Heawood graph, the 14-vertex cubic bipartite
    graph of girth 6, built from its LCF form [5, -5]^7: the cycle 0..13
    plus the chords i -- i+5 (mod 14) for even i.  Its median eigenvalue
    pair is the known extremal case among subcubic bipartite graphs
    (R = sqrt2)."""
    from .enumeration import canonical_key

    cycle = [(i, (i + 1) % 14) for i in range(14)]
    chords = [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return canonical_key(Graph(14, cycle + chords))


def _verify_rows(theorem: str, witness: bool, timing: bool):
    """Verify rows.  Each sp, k23 or lemma-odd row reads its graph's trace,
    settled with the rest of the chunk.  The survey passes a subcubic graph
    iff R <= sqrt2 is certified; it skips any other graph, with the index
    fields and all predicates but subcubic null.  The timing covers the
    graph's own work (building its trace and its row), not the chunk's
    parsing, batched counts and settling."""
    from .proofs import FAIL, PASS, check_lemma_odd, verify_theorem_k23, verify_theorem_sp

    index_fields, predicates = _index_fields(), _predicates()
    spent: dict[int, float] = {}  # seconds building each graph's trace, by id
    if theorem == "survey":
        from .enumeration import canonical_key

        timed_verify = None
    else:
        verify = {"k23": verify_theorem_k23, "sp": verify_theorem_sp,
                  "lemma-odd": check_lemma_odd}[theorem]

        def timed_verify(g: Graph):
            start = time.perf_counter()
            trace = verify(g)
            spent[id(g)] = time.perf_counter() - start
            return trace

    def row(g: Graph, line_no: int, text: str, trace) -> dict:
        start = time.perf_counter() - spent.pop(id(g), 0.0)
        rep = _head(g, line_no, text)
        rep["theorem"] = theorem
        if g.n == 0:
            rep.update(index_fields(g), case="empty", verdict="skipped", predicates=predicates(g))
            return rep
        if theorem != "survey":
            rep.update(index_fields(g), case=trace.case, verdict=trace.verdict,
                       predicates=predicates(g))
            if witness:
                rep["witness"] = trace.to_json_dict()
        elif g.max_degree() > 3:
            rep.update(
                dict.fromkeys(_INDEX_FIELDS), case="survey", verdict="skipped",
                skipped="not-subcubic", known_extremal=False,
                predicates={"subcubic": False, "bipartite": None,
                            "k4_minor_free": None, "contains_k23": None},
            )
        else:
            rep.update(index_fields(g), case="survey", predicates=predicates(g),
                       known_extremal=g.n == 14 and g.m == 21
                       and canonical_key(g) == _extremal_key())
            rep["verdict"] = PASS if rep["certified_le_sqrt2"] else FAIL
        if timing:
            rep["ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        return rep

    return timed_verify, row


def _recognize_rows(with_trace: bool):
    from .structure import is_k4_minor_free

    predicates = _predicates()

    def row(g: Graph, line_no: int, text: str, _) -> dict:
        rep = _head(g, line_no, text)
        if with_trace:
            # the traced run also answers the predicate, so the reduction runs once
            free, trace = is_k4_minor_free(g)
            g.fact("k4-minor-free", lambda: free)
            rep["reduction"] = {
                "reduced_to_empty": trace.reduced_to_empty,
                "final_vertices": trace.final_vertices,
                "final_multiplicity": trace.final_multiplicity,
                "steps": [
                    {"rule": s.rule, "vertices": list(s.vertices)} for s in trace.steps
                ],
            }
        rep.update(predicates(g))
        return rep

    return None, row


def _report_chunk(rows, spectral_degree: float | None, chunk: list[tuple[int, str]]) -> list[dict]:
    """The rows of a chunk of (line number, graph6 text) inputs (top level,
    so it pickles for worker pools), with (verify, row) = rows(): every line
    is parsed and, if verify is set, each graph's trace built with its
    counts pending.  Then one batch, one kernel run per order, computes the
    spectral facts of the graphs whose rows read them (max degree at most
    spectral_degree; None: no row does) and every count the traces name,
    and settles the traces; row builds each row from its graph and trace."""
    graphs = [parse_graph6(text) for _, text in chunk]
    verify, row = rows()
    spectral = [] if spectral_degree is None else [
        g for g in graphs if g.max_degree() <= spectral_degree]
    traces = [None] * len(graphs)
    if verify is not None:
        from .proofs import _settling

        with _settling(spectral):
            traces = [verify(g) for g in graphs]
    elif spectral:
        from .spectra import prime

        prime(spectral)
    graphs.reverse()  # each popped as its row is built, so its facts die with the row
    return [row(graphs.pop(), line_no, text, trace)
            for (line_no, text), trace in zip(chunk, traces)]


def _map_tasks(worker, tasks: list, jobs: int) -> Iterator[dict]:
    """Run chunks of 1, 2, 4, ..., 64, 64, ... tasks through the worker, in
    order, optionally across processes, and yield each chunk's results.  The
    first chunk is one task, so the first row waits for one graph.

    The pool never has more workers than CPUs or chunks."""
    chunks, start, size = [], 0, 1
    while start < len(tasks):
        chunks.append(tasks[start : start + size])
        start, size = start + size, min(2 * size, 64)
    workers = min(jobs, os.cpu_count() or 1, len(chunks))
    if workers <= 1:
        for chunk in chunks:
            yield from worker(chunk)
        return
    import multiprocessing

    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        for rows in pool.imap(worker, chunks):
            yield from rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

_CSV_COLUMNS = {
    "hl": ["graph6", "line", "n", "m", "h", "l", "r",
           "certified_le_one", "certified_le_sqrt2"],
    "verify": ["graph6", "line", "n", "m", "theorem", "case", "verdict",
               "r", "h", "l", "certified_le_one", "certified_le_sqrt2",
               "subcubic", "bipartite", "k4_minor_free", "contains_k23"],
    "recognize": ["graph6", "line", "n", "m", "subcubic", "bipartite",
                  "k4_minor_free", "contains_k23"],
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(reports: Iterable[dict], as_csv: bool, command: str) -> Iterator[dict]:
    """Write each report to stdout while passing it through for aggregation."""
    if as_csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS[command])
        for rep in reports:
            flat = dict(rep)
            flat.update(rep.get("predicates", {}))
            writer.writerow([_csv_cell(flat.get(col)) for col in _CSV_COLUMNS[command]])
            yield rep
    else:
        for rep in reports:
            sys.stdout.write(json.dumps(rep, sort_keys=True) + "\n")
            yield rep


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _summary(command: str, graphs: int, skipped: int, start: float) -> None:
    print(
        f"{command}: {graphs} graphs, {skipped} skipped lines, "
        f"wall {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )


def cmd_hl(args) -> int:
    start = time.perf_counter()
    inputs, bad = _collect_graphs(args.files, args.strict)
    worker = functools.partial(_report_chunk, _hl_rows, math.inf)
    for _ in _emit(_map_tasks(worker, inputs, args.jobs), args.csv, "hl"):
        pass
    _summary("hl", len(inputs), bad, start)
    return 0


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if args.gen is not None and args.files:
        raise UsageError("give input files or --gen, not both")
    if args.csv and args.witness:
        raise UsageError("--witness needs JSON output, not --csv")
    if args.gen is not None:
        try:
            spec = _parse_gen_string(args.gen)
            spec.validate()
        except ValueError as exc:
            raise UsageError(f"bad --gen spec: {exc}") from exc
        inputs, bad = _gen_inputs(spec), 0
    else:
        inputs, bad = _collect_graphs(args.files, args.strict)
    from .proofs import FAIL, PASS

    totals = {"pass": 0, "fail": 0, "skipped": 0}
    max_r: float | None = None
    # the survey skips a graph of max degree above 3 without its index
    worker = functools.partial(
        _report_chunk, functools.partial(_verify_rows, args.theorem, args.witness, args.timing),
        3 if args.theorem == "survey" else math.inf,
    )
    for rep in _emit(_map_tasks(worker, inputs, args.jobs), args.csv, "verify"):
        verdict = rep["verdict"]
        if verdict == PASS:
            totals["pass"] += 1
        elif verdict == FAIL:
            totals["fail"] += 1
        else:
            totals["skipped"] += 1
        if rep.get("r") is not None and (max_r is None or rep["r"] > max_r):
            max_r = rep["r"]
    wall = time.perf_counter() - start
    max_r_text = "n/a" if max_r is None else f"{max_r:.9f}"
    print(
        f"verify {args.theorem}: {len(inputs)} graphs, {bad} skipped lines, "
        f"{totals['pass']} pass, {totals['fail']} fail, {totals['skipped']} skipped, "
        f"max R = {max_r_text}, wall {wall:.2f}s",
        file=sys.stderr,
    )
    return 1 if totals["fail"] else 0


def cmd_gen(args) -> int:
    if not args.n.startswith("n="):
        raise UsageError("first argument must look like n=<count>")
    try:
        n = int(args.n[2:])
    except ValueError as exc:
        raise UsageError(f"bad vertex count in {args.n!r}") from exc
    filters = tuple(f for f in _GEN_FLAG_FILTERS if getattr(args, f.replace("-", "_")))
    from .enumeration import GenSpec, enumerate_graphs

    start = time.perf_counter()
    stats: Counter = Counter()
    try:
        spec = GenSpec(n=n, connected=args.connected, max_degree=args.max_degree, filters=filters)
        graphs = enumerate_graphs(spec, stats)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for g in graphs:
        sys.stdout.write(to_graph6(g) + "\n")
    wall = time.perf_counter() - start
    print(
        f"gen n={n}: {len(graphs)} classes, {stats['children']} children built, "
        f"{stats['disconnected_skipped']} disconnected children skipped, "
        f"{stats['orbit_skipped']} subsets skipped by orbit, "
        f"{stats['earlier_parent_skipped']} children made by an earlier parent, "
        f"{stats['hereditary_tests']} hereditary tests, "
        f"{stats['canonical_forms']} canonical forms, wall {wall:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_recognize(args) -> int:
    start = time.perf_counter()
    inputs, bad = _collect_graphs(args.files, args.strict)
    worker = functools.partial(_report_chunk, functools.partial(_recognize_rows, args.trace), None)
    for _ in _emit(_map_tasks(worker, inputs, args.jobs), args.csv, "recognize"):
        pass
    _summary("recognize", len(inputs), bad, start)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="*", help="graph6 files ('-' or none for stdin)")
    p.add_argument("--strict", action="store_true",
                   help="abort with exit 2 on malformed input instead of skipping")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--csv", action="store_true", help="CSV output instead of JSON lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlspec",
        description="Median adjacency eigenvalue toolkit: compute the index, "
        "verify the bound arguments, generate corpora, recognize structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hl = sub.add_parser("hl", help="compute the index per input graph")
    _add_io_flags(p_hl)
    p_hl.set_defaults(func=cmd_hl)

    p_verify = sub.add_parser("verify", help="run a verifier over a corpus")
    p_verify.add_argument("theorem", choices=THEOREMS)
    _add_io_flags(p_verify)
    p_verify.add_argument("--gen", metavar="SPEC",
                          help="generate the corpus instead of reading input, "
                          "e.g. n=8,connected,k4-minor-free")
    p_verify.add_argument("--witness", action="store_true",
                          help="embed the full witness trace in each report")
    p_verify.add_argument("--timing", action="store_true",
                          help="add per-graph milliseconds: the graph's own verifier and "
                          "row work, without its chunk's batched counts (not byte-stable)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="enumerate graphs and print graph6 lines")
    p_gen.add_argument("n", metavar="n=N", help="vertex count, e.g. n=6")
    p_gen.add_argument("--connected", action="store_true")
    p_gen.add_argument("--max-degree", type=int, default=3)
    for flag in _GEN_FLAG_FILTERS:
        p_gen.add_argument(f"--{flag}", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    p_rec = sub.add_parser("recognize", help="report structural predicates per graph")
    _add_io_flags(p_rec)
    p_rec.add_argument("--trace", action="store_true",
                       help="embed the reduction trace in each report")
    p_rec.set_defaults(func=cmd_recognize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    # parse_known_args so input files may follow flags; argparse's greedy
    # nargs="*" positional otherwise rejects "verify sp --witness corpus.g6"
    args, extra = parser.parse_known_args(argv)
    try:
        if extra:
            stray = [t for t in extra if t.startswith("-") and t != "-"]
            if stray or not hasattr(args, "files"):
                raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
            args.files = list(args.files) + extra
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be at least 1")
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (UsageError, Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
