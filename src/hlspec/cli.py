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
import json
import multiprocessing
import os
import sys
import time
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .enumeration import GenSpec, enumerate_graphs
from .graph_core import Graph, Graph6Error, is_bipartite, parse_graph6, to_graph6
from .proofs import (
    FAIL,
    NOT_APPLICABLE,
    NOT_FOUND,
    PASS,
    check_lemma_odd,
    survey_record,
    verify_theorem_k23,
    verify_theorem_sp,
)
from .spectra import SQRT2, certify_R_le, hl_index
from .structure import find_k23, is_k4_minor_free, k4_minor_free

THEOREMS = ("k23", "sp", "lemma-odd", "survey")

_GEN_FLAG_FILTERS = ("k4-minor-free", "contains-k23", "bipartite", "even-order")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _iter_lines(paths: Sequence[str]) -> Iterator[tuple[str, int, str]]:
    """Yield (source, line number, stripped text) for nonblank input lines."""
    if not paths:
        paths = ["-"]
    for path in paths:
        # undecodable bytes become surrogate escapes, which parse_graph6 rejects
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(errors="surrogateescape")
            for i, raw in enumerate(sys.stdin, start=1):
                text = raw.strip()
                if text:
                    yield "<stdin>", i, text
        else:
            with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
                for i, raw in enumerate(fh, start=1):
                    text = raw.strip()
                    if text:
                        yield path, i, text


def _collect_graphs(
    paths: Sequence[str], strict: bool
) -> tuple[list[tuple[int, str]], int]:
    """Parse-validate the input stream up front.

    Returns (kept lines as (line number, graph6 text), bad line count).
    Lenient mode warns and skips malformed lines; strict mode raises.
    """
    kept: list[tuple[int, str]] = []
    bad = 0
    for source, line_no, text in _iter_lines(paths):
        try:
            parse_graph6(text)
        except Graph6Error as exc:
            if strict:
                raise UsageError(f"{source}:{line_no}: {exc}") from exc
            bad += 1
            print(f"warning: {source}:{line_no}: skipped: {exc}", file=sys.stderr)
            continue
        kept.append((line_no, text))
    return kept, bad


def _parse_gen_string(spec: str) -> GenSpec:
    """Parse a generation spec like "n=8,connected,k4-minor-free"."""
    n = None
    connected = False
    max_degree = 3
    filters: list[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("n="):
            n = int(token[2:])
        elif token.startswith("max-degree="):
            max_degree = int(token[len("max-degree="):])
        elif token == "connected":
            connected = True
        elif token in _GEN_FLAG_FILTERS:
            filters.append(token)
        else:
            raise UsageError(f"unknown generation token {token!r}")
    if n is None:
        raise UsageError("generation spec needs n=<count>")
    return GenSpec(n=n, connected=connected, max_degree=max_degree, filters=tuple(filters))


def _gen_inputs(gen: GenSpec) -> list[tuple[int, str]]:
    return [(i, to_graph6(g)) for i, g in enumerate(enumerate_graphs(gen), start=1)]


# ---------------------------------------------------------------------------
# per-graph workers (top level so they pickle for worker pools)
# ---------------------------------------------------------------------------

def _hl_report(task: tuple[int, str]) -> dict:
    line_no, text = task
    g = parse_graph6(text)
    rep: dict = {"graph6": text, "line": line_no, "n": g.n, "m": g.m}
    if g.n == 0:
        rep.update(r=None, h=None, l=None, certified_le_one=None, certified_le_sqrt2=None)
        return rep
    idx = hl_index(g)
    rep.update(
        r=idx.value,
        h=idx.h,
        l=idx.l,
        certified_le_one=certify_R_le(g, 1).holds,
        certified_le_sqrt2=certify_R_le(g, SQRT2).holds,
    )
    return rep


def _predicates(g: Graph) -> dict:
    return {
        "subcubic": g.max_degree() <= 3,
        "bipartite": is_bipartite(g),
        "k4_minor_free": k4_minor_free(g),
        "contains_k23": find_k23(g) is not None,
    }


_VERIFIERS = {
    "k23": verify_theorem_k23,
    "sp": verify_theorem_sp,
    "lemma-odd": check_lemma_odd,
}


def _verify_report(task: tuple[int, str, str, bool, bool]) -> dict:
    line_no, text, theorem, witness, timing = task
    start = time.perf_counter()
    g = parse_graph6(text)
    rep: dict = {"graph6": text, "line": line_no, "n": g.n, "m": g.m, "theorem": theorem}
    if g.n == 0:
        rep.update(
            case="empty", verdict="skipped", r=None, h=None, l=None,
            certified_le_one=None, certified_le_sqrt2=None,
            predicates={"subcubic": True, "bipartite": True,
                        "k4_minor_free": True, "contains_k23": False},
        )
        return rep
    if theorem == "survey":
        rec = survey_record(g)
        rep.update(
            case="survey",
            verdict="skipped" if rec.skipped else (PASS if rec.certified_le_sqrt2 else FAIL),
            r=rec.r_value,
            h=rec.h,
            l=rec.l,
            certified_le_one=rec.certified_le_one,
            certified_le_sqrt2=rec.certified_le_sqrt2,
            predicates={
                "subcubic": rec.subcubic,
                "bipartite": rec.bipartite,
                "k4_minor_free": rec.k4_minor_free,
                "contains_k23": rec.contains_k23,
            },
            known_extremal=rec.known_extremal,
        )
        if rec.skipped:
            rep["skipped"] = rec.skipped
    else:
        trace = _VERIFIERS[theorem](g)
        idx = hl_index(g)
        rep.update(
            case=trace.case,
            verdict=trace.verdict,
            r=idx.value,
            h=idx.h,
            l=idx.l,
            certified_le_one=certify_R_le(g, 1).holds,
            certified_le_sqrt2=certify_R_le(g, SQRT2).holds,
            predicates=_predicates(g),
        )
        if witness:
            rep["witness"] = trace.to_json_dict()
    if timing:
        rep["ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return rep


def _recognize_report(task: tuple[int, str, bool]) -> dict:
    line_no, text, with_trace = task
    g = parse_graph6(text)
    rep: dict = {"graph6": text, "line": line_no, "n": g.n, "m": g.m}
    free, trace = is_k4_minor_free(g)
    rep.update(
        subcubic=g.max_degree() <= 3,
        bipartite=is_bipartite(g),
        k4_minor_free=free,
        contains_k23=find_k23(g) is not None,
    )
    if with_trace:
        rep["reduction"] = {
            "reduced_to_empty": trace.reduced_to_empty,
            "final_vertices": trace.final_vertices,
            "final_multiplicity": trace.final_multiplicity,
            "steps": [
                {"rule": s.rule, "vertices": list(s.vertices)} for s in trace.steps
            ],
        }
    return rep


def _map_tasks(worker, tasks: list, jobs: int) -> Iterator[dict]:
    """Run tasks through the worker, in order, optionally across processes.

    The pool never has more workers than CPUs or tasks."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        for t in tasks:
            yield worker(t)
        return
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(worker, tasks, chunksize=8)


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

def _resolve_jobs(args) -> int:
    if args.jobs is not None:
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        return args.jobs
    env = os.environ.get("HLSPEC_JOBS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"bad HLSPEC_JOBS value {env!r}") from exc
    return 1


def _summary(command: str, graphs: int, skipped: int, start: float) -> None:
    print(
        f"{command}: {graphs} graphs, {skipped} skipped lines, "
        f"wall {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )


def cmd_hl(args) -> int:
    start = time.perf_counter()
    inputs, bad = _collect_graphs(args.files, args.strict)
    tasks = [(line_no, text) for line_no, text in inputs]
    for _ in _emit(_map_tasks(_hl_report, tasks, _resolve_jobs(args)), args.csv, "hl"):
        pass
    _summary("hl", len(tasks), bad, start)
    return 0


def cmd_verify(args) -> int:
    if args.gen and args.files:
        raise UsageError("give input files or --gen, not both")
    if args.csv and args.witness:
        raise UsageError("--witness needs JSON output, not --csv")
    if args.gen:
        inputs = _gen_inputs(_parse_gen_string(args.gen))
    else:
        inputs, _bad = _collect_graphs(args.files, args.strict)
    start = time.perf_counter()
    tasks = [
        (line_no, text, args.theorem, args.witness, args.timing)
        for line_no, text in inputs
    ]
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    max_r: float | None = None
    for rep in _emit(_map_tasks(_verify_report, tasks, _resolve_jobs(args)), args.csv, "verify"):
        verdict = rep["verdict"]
        if verdict == PASS:
            totals["pass"] += 1
        elif verdict in (FAIL, NOT_FOUND):
            totals["fail"] += 1
        else:
            totals["skipped"] += 1
        if rep.get("r") is not None and (max_r is None or rep["r"] > max_r):
            max_r = rep["r"]
    wall = time.perf_counter() - start
    max_r_text = "n/a" if max_r is None else f"{max_r:.9f}"
    print(
        f"verify {args.theorem}: {len(tasks)} graphs, {totals['pass']} pass, "
        f"{totals['fail']} fail, {totals['skipped']} skipped, "
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
        f"{stats['hereditary_tests']} hereditary tests, wall {wall:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_recognize(args) -> int:
    start = time.perf_counter()
    inputs, bad = _collect_graphs(args.files, args.strict)
    tasks = [(line_no, text, args.trace) for line_no, text in inputs]
    for _ in _emit(_map_tasks(_recognize_report, tasks, _resolve_jobs(args)), args.csv, "recognize"):
        pass
    _summary("recognize", len(tasks), bad, start)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="*", help="graph6 files ('-' or none for stdin)")
    p.add_argument("--strict", action="store_true",
                   help="abort with exit 2 on malformed input instead of skipping")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: HLSPEC_JOBS or 1)")
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
                          help="add per-graph milliseconds (not byte-stable)")
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
