"""Traced run: call `hlspec.cli.main` in this interpreter with each layer's
public functions wrapped from outside, so the program's sources stay free of
timing code.

    python3 perfbench/tracer.py OUT_JSON SPANS_JSONL STDOUT_FILE -- CLI_ARGS...

Each wrapper records a span (name, start, end, parent) in memory.  It is
installed in every module that bound the function, because callers look the
name up in their own module's globals (`certify_R_le` is bound in `cli`,
`proofs` and `spectra`).  After `main` returns the wrappers come out, each
trace that `verify_theorem_sp` returned to the CLI is replayed and timed, and
the spans and per-function statistics are written out.  The CLI's stdout
goes to STDOUT_FILE so the benchmark can check it.  Only this process is
traced, so the workloads traced run with `--jobs 1`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# (module, function) pairs wrapped; count_at_threshold is split by threshold
LAYERS = (
    ("graph_core", "parse_graph6"),
    ("graph_core", "to_graph6"),
    ("enumeration", "enumerate_graphs"),
    ("enumeration", "canonical_key"),
    ("structure", "is_k4_minor_free"),
    ("structure", "find_k23"),
    ("spectra", "count_at_threshold"),
    ("spectra", "certify_R_le"),
    ("spectra", "spectrum"),
    ("spectra", "hl_index"),
    ("proofs", "verify_theorem_sp"),
    ("proofs", "check_lemma_odd"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(
    f"{mod}.{fn}" for mod, fn in LAYERS if fn != "count_at_threshold"
) + ("spectra.count_at_threshold.q", "spectra.count_at_threshold.sqrt2")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.threshold_pairs: set = set()
        self.sp_traces: list = []  # (graph, trace) returned by verify_theorem_sp to cli
        self._installed: list[tuple[dict, object, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name == "spectra.count_at_threshold":
            pairs = self.threshold_pairs

            def label(args, kwargs):
                g = args[0] if args else kwargs["g"]
                token = str(args[1] if len(args) > 1 else kwargs["t"])
                pairs.add((g, token))
                return name + (".sqrt2" if "sqrt" in token else ".q")
        else:
            label = None
        captured = self.sp_traces if name == "proofs.verify_theorem_sp" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name if label is None else label(args, kwargs), 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if captured is not None and parent >= 0 and spans[parent][0] == "cli.main":
                captured.append((args[0], result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace each layer function in every hlspec module that binds it,
        directly or as a value of a module-level dict (`cli._VERIFIERS`)."""
        import hlspec

        modules = [hlspec] + [
            importlib.import_module(f"hlspec.{m}")
            for m in ("graph_core", "enumeration", "structure", "spectra", "proofs", "cli")
        ]
        for mod_name, fn_name in LAYERS:
            original = getattr(importlib.import_module(f"hlspec.{mod_name}"), fn_name, None)
            if original is None:
                continue  # a layer the program no longer has reads as 0 calls
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for table in [mod.__dict__] + [
                    v for v in mod.__dict__.values() if isinstance(v, dict)
                ]:
                    for key in [k for k, v in table.items() if v is original]:
                        self._installed.append((table, key, original))
                        table[key] = wrapper

    def uninstall(self) -> None:
        for table, key, original in self._installed:
            table[key] = original
        self._installed.clear()

    def stats(self) -> dict:
        """calls, self_s, us_p50 and us_p99 (inclusive per-call time) per name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - child_time[i]
        out = {}
        for name in SPAN_NAMES:
            d = sorted(durations[name])
            out[name] = {
                "calls": len(d),
                "self_s": self_s[name],
                "us_p50": percentile(d, 50) * 1e6,
                "us_p99": percentile(d, 99) * 1e6,
            }
        return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main(argv: list[str]) -> int:
    out_json, spans_path, stdout_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_JSON SPANS_JSONL STDOUT_FILE -- CLI_ARGS...")
    from hlspec import cli, proofs

    tracer = Tracer()
    tracer.install()
    real_stdout = sys.stdout
    with open(stdout_path, "w") as fh:
        sys.stdout = fh
        try:
            code = cli.main(cli_args)
        finally:
            sys.stdout = real_stdout
    main_done = time.monotonic()
    tracer.uninstall()

    replay_us = []
    replay_failed = 0
    for g, trace in tracer.sp_traces:
        start = time.perf_counter()
        ok = proofs.replay_trace(g, trace)
        replay_us.append((time.perf_counter() - start) * 1e6)
        replay_failed += not ok
    replay_us.sort()

    stats = tracer.stats()
    with open(spans_path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')
    with open(out_json, "w") as fh:
        json.dump({
            "exit_code": code,
            "main_done_monotonic": main_done,
            "functions": stats,
            "threshold_pairs": len(tracer.threshold_pairs),
            "replay": {"calls": len(replay_us), "failed": replay_failed,
                       "us_p50": percentile(replay_us, 50), "us_p99": percentile(replay_us, 99)},
        }, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
