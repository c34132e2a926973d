"""Sweep benchmark for the hlspec CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each timed run is a fresh `python -m
hlspec` child, one at a time, because the generation level cache lives only
as long as the process and users pay for it on every run.  Children start
until about --seconds have gone (at least one), with set-up runs and
first-result probes before and after them; every report line is checked
against frozen answers, and the medians (for first_result_s the minimum)
are printed as the last stdout line.  With --trace 1 the same children run
first (their median is the base of trace.overhead), then one traced child
(tracer.py) gives the per-layer numbers.  A table and the run record go to
stderr and to .perfbench_work/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import g6
from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
SHORT_SAMPLES = 4  # set-up times and first-result probes, before and again after
COPIES = 1  # relabelled copies of each class per input
# check_lemma_odd is traced but no workload reaches it (the n=10 sweep inputs
# are even and `hl` verifies nothing), so its metrics would read 0 everywhere
REPORTED_SPANS = tuple(n for n in SPAN_NAMES if n != "proofs.check_lemma_odd")

# "pool" is the same command through the CLI's worker pool.  It runs once in
# a traced run, for cli.pool.efficiency and the byte-identity check; it is not
# a timed workload because on a 2-core host its wall depends on whether the
# host gives both cores (its median moved 28% between two 10-run sets).
WORKLOADS = {
    "gen-k4mf-n10": {"cli": ["gen", "n=10", "--connected", "--k4-minor-free"]},
    "verify-sp-n10": {"cli": ["verify", "sp", "--jobs", "1"], "classes": "k4mf_n10",
                      "theorem": "sp", "pool": ["verify", "sp", "--jobs", "2"]},
    "hl-n11": {"cli": ["hl", "--jobs", "1"], "classes": "subcubic_n11"},
}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_data() -> dict:
    sums = (DATA / "SHA256SUMS").read_text().split("\n")
    for row in filter(None, sums):
        digest, name = row.split()
        if hashlib.sha256((DATA / name).read_bytes()).hexdigest() != digest:
            raise Fatal(f"frozen data file {name} does not match SHA256SUMS")

    def records(name: str) -> list[dict]:
        return [json.loads(x) for x in (DATA / name).read_text().splitlines()]

    return {
        "golden": (DATA / "k4mf_n10.g6").read_text().split(),
        "k4mf_n10": records("expected_k4mf_n10.jsonl"),
        "subcubic_n11": records("expected_subcubic_n11.jsonl"),
    }


def make_inputs(records: list[dict], seed: int) -> tuple[list[str], list[dict]]:
    """Seeded line order and a seeded vertex relabelling of every copy."""
    rng = random.Random(seed)
    order = list(range(len(records))) * COPIES
    rng.shuffle(order)
    return [g6.relabel(records[i]["graph6"], rng) for i in order], [records[i] for i in order]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HLSPEC_JOBS", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    return env


class Child:
    """One process run to completion, with wall, first-line and rusage.

    A probe (first_line_only) closes the pipe after the first line; the
    CLI's next write then fails and it exits, so only first_result_s counts.
    """

    def __init__(self, argv: list[str], deadline: float, first_line_only: bool = False) -> None:
        with open(WORK / "child.stderr", "wb") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                    stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(max(0.0, deadline - self.spawned), proc.kill)
            killer.start()
            try:
                self.stdout = proc.stdout.readline()
                self.first_result_s = time.monotonic() - self.spawned
                if not first_line_only:
                    self.stdout += proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                killer.cancel()
                self.wall_s = time.monotonic() - self.spawned
                proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.exit_code != 0 and not first_line_only:
            tail = (WORK / "child.stderr").read_bytes()[-2000:].decode(errors="replace")
            print(f"child {argv[3:]} exited {self.exit_code}:\n{tail}", file=sys.stderr)


def hlspec_argv(cli: list[str], input_path: Path | None) -> list[str]:
    return [sys.executable, "-m", "hlspec", *cli] + ([str(input_path)] if input_path else [])


class Run:
    def __init__(self, name: str, seed: int, data: dict, deadline: float) -> None:
        self.spec = WORKLOADS[name]
        self.deadline = deadline
        self.attempted = self.failed = 0
        if "classes" in self.spec:
            self.inputs, self.expected = make_inputs(data[self.spec["classes"]], seed)
            self.input_path = WORK / f"input-{name}-{seed}.g6"
            self.input_path.write_text("\n".join(self.inputs) + "\n")
        else:
            self.inputs, self.expected, self.input_path = [], [], None
        self.golden = data["golden"]

    def graphs(self) -> int:
        return len(self.inputs) if self.inputs else len(self.golden)

    def check(self, stdout: bytes, exit_code: int, same_as: bytes | None = None) -> int:
        """Record and return the graphs this output got wrong; with same_as,
        each line that differs from it is wrong too."""
        if not self.inputs:
            bad = check.failed_gen(stdout, self.golden, exit_code)
        else:
            bad = check.failed_reports(stdout, self.inputs, self.expected, exit_code,
                                       self.spec.get("theorem"))
        if same_as is not None and exit_code == 0:
            bad = max(bad, min(self.graphs(), check.lines_differing(stdout, same_as)))
        self.attempted += self.graphs()
        self.failed += bad
        return bad

    def pool_wall(self, reference: Child) -> float | None:
        """Wall of one run through the worker pool, whose stdout must match
        the --jobs 1 reference byte for byte; None for workloads without one."""
        if "pool" not in self.spec:
            return None
        c = Child(hlspec_argv(self.spec["pool"], self.input_path), self.deadline)
        self.check(c.stdout, c.exit_code, same_as=reference.stdout if reference.exit_code == 0
                   else None)
        return c.wall_s

    def short_samples(self, count: int) -> tuple[list[float], list[float]]:
        """Set-up times and first-result probes, alternating.

        Set-up is a fresh `python -m hlspec --help`: it imports every module
        plus numpy and builds the parser.  A probe is the workload's command
        stopped after its first line (not for `gen`, whose first line comes
        at the end).  Taken before and after the timed children, they
        sample more of the run than one child does.
        """
        setup, first = [], []
        for _ in range(count):
            c = Child(hlspec_argv(["--help"], None), self.deadline)
            if c.exit_code != 0:
                raise Fatal("`python -m hlspec --help` failed")
            setup.append(c.wall_s)
            if self.inputs:
                p = Child(hlspec_argv(self.spec["cli"], self.input_path), self.deadline,
                          first_line_only=True)
                self.attempted += 1
                self.failed += check.failed_reports(p.stdout, self.inputs[:1], self.expected[:1],
                                                    0, self.spec.get("theorem"))
                first.append(p.first_result_s)
        return setup, first

    def timed_children(self, seconds: float) -> list[tuple[Child, int]]:
        """Children back to back until the next would end past `seconds`."""
        out = []
        start = time.monotonic()
        while True:
            c = Child(hlspec_argv(self.spec["cli"], self.input_path), self.deadline)
            out.append((c, self.check(c.stdout, c.exit_code)))
            elapsed = time.monotonic() - start
            if elapsed + 0.5 * elapsed / len(out) >= seconds or time.monotonic() > self.deadline:
                return out

    def traced(self, name: str, seed: int) -> tuple[dict, float]:
        tag = f"{name}-{seed}"
        out_json, spans, stdout = (WORK / f"trace-{tag}.json", WORK / f"spans-{tag}.jsonl",
                                   WORK / f"trace-stdout-{tag}.txt")
        argv = [sys.executable, str(HERE / "tracer.py"), str(out_json), str(spans), str(stdout),
                "--", *self.spec["cli"]] + ([str(self.input_path)] if self.input_path else [])
        c = Child(argv, self.deadline)
        if c.exit_code != 0:
            raise Fatal("traced run failed")
        result = json.loads(out_json.read_text())
        self.check(stdout.read_bytes(), result["exit_code"])
        self.failed += result["replay"]["failed"]
        return result, result["main_done_monotonic"] - c.spawned


def end_to_end(children: list[tuple[Child, int]], graphs: int, setup: list[float],
               probes: list[float]) -> dict:
    median = statistics.median
    return {
        "graphs_per_s": (median([(graphs - bad) / c.wall_s for c, bad in children]), "1/s"),
        "wall_s": (median([c.wall_s for c, _ in children]), "s"),
        # the fastest sample: at ~0.2 s these intervals are bimodal on a shared
        # machine (a fast and a slow mode), and a median flips between modes
        "first_result_s": (min(probes + [c.first_result_s for c, _ in children]), "s"),
        "peak_rss_mb": (median([c.peak_rss_mb for c, _ in children]), "MB"),
        "setup_s": (median(setup), "s"),
    }


def per_layer(result: dict, traced_wall: float, untraced_wall: float, pool_wall: float | None,
              run: Run) -> dict:
    fns = result["functions"]
    metrics: dict = {}
    for name in REPORTED_SPANS:
        f = fns[name]
        metrics[f"{name}.calls"] = (f["calls"], "count")
        metrics[f"{name}.self_s"] = (f["self_s"], "s")
        metrics[f"{name}.us_p50"] = (f["us_p50"], "us")
        metrics[f"{name}.us_p99"] = (f["us_p99"], "us")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cat = fns["spectra.count_at_threshold.q"]["calls"] + fns["spectra.count_at_threshold.sqrt2"]["calls"]
    metrics.update({
        "enumeration.canonical_key.calls_per_output":
            (ratio(fns["enumeration.canonical_key"]["calls"], run.graphs()), "ratio"),
        "structure.is_k4_minor_free.calls_per_output":
            (ratio(fns["structure.is_k4_minor_free"]["calls"], run.graphs()), "ratio"),
        "spectra.count_at_threshold.repeat_ratio": (ratio(cat, result["threshold_pairs"]), "ratio"),
        "graph_core.parse_graph6.calls_per_input":
            (ratio(fns["graph_core.parse_graph6"]["calls"], len(run.inputs)), "ratio"),
        "cli.pool.efficiency":
            (ratio(untraced_wall, 2 * pool_wall) if pool_wall else 0.0, "ratio"),
        "trace.overhead": (ratio(traced_wall, untraced_wall), "ratio"),
        "proofs.replay_trace.calls": (result["replay"]["calls"], "count"),
        "proofs.replay_trace.us_p50": (result["replay"]["us_p50"], "us"),
        "proofs.replay_trace.us_p99": (result["replay"]["us_p99"], "us"),
    })
    return metrics


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for row in packed.read_text().splitlines() if packed.is_file() else []:
        if row.endswith(" " + name):
            return row.split()[0]
    return "unknown"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def summarize(name: str, metrics: dict, attempted: int, failed: int, children: list) -> str:
    rows = [f"workload {name}: {len(children)} timed children, error_rate = {failed}/{attempted}"]
    for key, (value, unit) in metrics.items():
        rows.append(f"  {key:52s} {value:14.6g} {unit}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hlspec" / "__init__.py").is_file():
        raise Fatal(f"no hlspec sources under {ROOT / 'src'}")
    data = load_data()
    try:
        lines = check.self_check(data["golden"], *make_inputs(data["k4mf_n10"], args.seed))
    except AssertionError as exc:
        raise Fatal(str(exc)) from exc
    for line in lines:
        print(f"checker self-check: {line}", file=sys.stderr)
    WORK.mkdir(exist_ok=True)

    run = Run(args.workload, args.seed, data, deadline)
    Child(hlspec_argv(["--help"], None), deadline)  # untimed warm-up
    setup, probes = run.short_samples(SHORT_SAMPLES)
    children = run.timed_children(args.seconds)
    setup_after, probes_after = run.short_samples(SHORT_SAMPLES)
    setup += setup_after
    probes += probes_after
    metrics = end_to_end(children, run.graphs(), setup, probes)
    if args.trace:
        result, traced_wall = run.traced(args.workload, args.seed)
        pool_wall = run.pool_wall(children[0][0])
        metrics = per_layer(result, traced_wall, metrics["wall_s"][0], pool_wall, run)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "attempted": run.attempted, "failed": run.failed,
              "children": [{"wall_s": c.wall_s, "first_result_s": c.first_result_s,
                            "peak_rss_mb": c.peak_rss_mb, "failed": bad} for c, bad in children],
              "setup_s": setup, "first_result_probes_s": probes, "metrics": {k: v for k, (v, _) in metrics.items()},
              "functions": result["functions"] if args.trace else None}
    (WORK / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record["environment"], sort_keys=True), file=sys.stderr)
    print(summarize(args.workload, metrics, run.attempted, run.failed, children), file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
