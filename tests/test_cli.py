"""End-to-end tests of the command line: real subprocesses over graph6
streams, exit codes, JSON/CSV shapes, schema conformance, and determinism
across worker counts."""

import csv
import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys

import pytest

import hlspec.cli as cli
from hlspec import (
    FAIL,
    WitnessTrace,
    complete_bipartite,
    cycle_graph,
    heawood_graph,
    to_graph6,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def run_cli(args, stdin_text="", env_extra=None):
    import os

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hlspec", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def make_validator(schema_name):
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMAS.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        resources.append((doc.get("$id", path.name), Resource.from_contents(doc)))
        resources.append((path.name, Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMAS / schema_name).read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


# hl command


def test_hl_single_edge_report():
    proc = run_cli(["hl"], stdin_text="A_\n")
    assert proc.returncode == 0
    reports = json_lines(proc.stdout)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["graph6"] == "A_"
    assert rep["n"] == 2 and rep["m"] == 1
    assert rep["h"] == 1 and rep["l"] == 2
    assert rep["r"] == pytest.approx(1.0)
    assert rep["certified_le_one"] is True
    assert rep["certified_le_sqrt2"] is True


def test_hl_reads_files_and_stdin_dash(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\nBw\n")
    from_file = run_cli(["hl", str(corpus)])
    from_stdin = run_cli(["hl", "-"], stdin_text="A_\nBw\n")
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_file.stdout == from_stdin.stdout
    assert len(json_lines(from_file.stdout)) == 2


def test_hl_output_keys_are_sorted_and_schema_valid():
    proc = run_cli(["hl"], stdin_text=to_graph6(heawood_graph()) + "\n")
    validator = make_validator("hl-report.schema.json")
    for line in proc.stdout.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)
        validator.validate(json.loads(line))


def test_hl_certificate_vs_float_invariant():
    gen = run_cli(["gen", "n=7", "--connected"])
    proc = run_cli(["hl"], stdin_text=gen.stdout)
    for rep in json_lines(proc.stdout):
        if rep["certified_le_one"]:
            assert rep["r"] <= 1.0 + 1e-6
        if not rep["certified_le_sqrt2"]:
            assert rep["r"] > math.sqrt(2.0) - 1e-6


def test_hl_heawood_not_le_one():
    proc = run_cli(["hl"], stdin_text=to_graph6(heawood_graph()) + "\n")
    rep = json_lines(proc.stdout)[0]
    assert rep["certified_le_one"] is False
    assert rep["certified_le_sqrt2"] is True
    assert rep["r"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_hl_strict_malformed_exits_2():
    proc = run_cli(["hl", "--strict"], stdin_text="!!bad\n")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "byte" in proc.stderr


def test_hl_lenient_malformed_warns_and_continues():
    proc = run_cli(["hl"], stdin_text="!!bad\nA_\n")
    assert proc.returncode == 0
    assert len(json_lines(proc.stdout)) == 1
    assert "warning" in proc.stderr and ":1:" in proc.stderr


def test_hl_strict_non_ascii_byte_in_file_exits_2(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"A_\nA\xe9\nBw\n")
    proc = run_cli(["hl", "--strict", str(corpus)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{corpus}:2:" in proc.stderr and "byte offset 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hl_lenient_non_ascii_byte_in_file_warns_and_continues(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"A_\nA\xe9\nBw\n")
    proc = run_cli(["hl", str(corpus)])
    assert proc.returncode == 0
    assert [rep["line"] for rep in json_lines(proc.stdout)] == [1, 3]
    assert "warning" in proc.stderr and f"{corpus}:2:" in proc.stderr


def test_hl_empty_input_exits_0():
    proc = run_cli(["hl"], stdin_text="")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_hl_csv_output():
    proc = run_cli(["hl", "--csv"], stdin_text="A_\nBw\n")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 2
    assert rows[0]["graph6"] == "A_"
    assert rows[0]["certified_le_one"] == "true"
    assert rows[1]["n"] == "3"


# gen command


def test_gen_counts_match_spec_examples():
    three = run_cli(["gen", "n=3", "--connected"])
    assert three.returncode == 0
    assert len(three.stdout.splitlines()) == 2

    five = run_cli(["gen", "n=4", "--connected", "--k4-minor-free"])
    assert five.returncode == 0
    assert len(five.stdout.splitlines()) == 5


def test_gen_rejects_out_of_range_n():
    proc = run_cli(["gen", "n=13"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() != ""


def test_gen_output_is_parseable_and_deterministic():
    a = run_cli(["gen", "n=6", "--connected", "--bipartite"])
    b = run_cli(["gen", "n=6", "--connected", "--bipartite"])
    assert a.stdout == b.stdout
    reparse = run_cli(["hl"], stdin_text=a.stdout)
    assert reparse.returncode == 0
    assert len(json_lines(reparse.stdout)) == len(a.stdout.splitlines())


def test_gen_stdout_frozen_and_summary_on_stderr():
    proc = run_cli(["gen", "n=8", "--connected", "--k4-minor-free"])
    assert proc.returncode == 0
    # sha256 of the output before orbit pruning: same classes, labels, order
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "69b208a59096da3d12916df7ad2f01a04de251c4cef7c7216d5958d162c0685b"
    )
    summary = proc.stderr.strip().splitlines()[-1]
    assert summary.startswith("gen n=8: 138 classes, ")
    for key in ("children built", "subsets skipped by orbit", "hereditary tests", "wall"):
        assert key in summary


def test_gen_rejects_malformed_count():
    for bad in ("n=x", "four", "n=4,connected"):
        proc = run_cli(["gen", bad])
        assert proc.returncode == 2, bad


# verify command


def test_verify_sp_on_generated_corpus():
    gen = run_cli(["gen", "n=8", "--connected", "--k4-minor-free"])
    proc = run_cli(["verify", "sp"], stdin_text=gen.stdout)
    assert proc.returncode == 0
    reports = json_lines(proc.stdout)
    assert len(reports) == len(gen.stdout.splitlines())
    assert all(rep["verdict"] == "pass" for rep in reports)
    assert all(rep["theorem"] == "sp" for rep in reports)
    assert "verify sp" in proc.stderr


def test_verify_skips_inapplicable_graphs():
    proc = run_cli(["verify", "k23"], stdin_text=to_graph6(cycle_graph(8)) + "\n")
    assert proc.returncode == 0
    rep = json_lines(proc.stdout)[0]
    assert rep["verdict"] == "not-applicable"
    assert "1 skipped" in proc.stderr


def test_verify_witness_validates_against_schema():
    corpus = to_graph6(complete_bipartite(2, 3)) + "\n"
    proc = run_cli(["verify", "k23", "--witness"], stdin_text=corpus)
    assert proc.returncode == 0
    rep = json_lines(proc.stdout)[0]
    assert rep["verdict"] == "pass"
    make_validator("verify-report.schema.json").validate(rep)
    make_validator("witness-trace.schema.json").validate(rep["witness"])
    assert rep["witness"]["verdict"] == "pass"


def test_verify_witness_replays_from_cli_output():
    # the emitted witness is a complete, standalone replay artifact
    from hlspec import parse_graph6, replay_trace, trace_from_json_dict

    gen = run_cli(["gen", "n=7", "--connected", "--k4-minor-free"])
    proc = run_cli(["verify", "sp", "--witness"], stdin_text=gen.stdout)
    reports = json_lines(proc.stdout)
    assert reports
    for rep in reports:
        trace = trace_from_json_dict(rep["witness"])
        assert trace.verdict == rep["verdict"]
        assert replay_trace(parse_graph6(rep["graph6"]), trace) is True


def test_verify_reports_validate_without_witness():
    gen = run_cli(["gen", "n=6", "--connected", "--k4-minor-free"])
    proc = run_cli(["verify", "sp"], stdin_text=gen.stdout)
    validator = make_validator("verify-report.schema.json")
    for rep in json_lines(proc.stdout):
        validator.validate(rep)


def test_verify_survey_heawood():
    proc = run_cli(["verify", "survey"], stdin_text=to_graph6(heawood_graph()) + "\n")
    assert proc.returncode == 0
    rep = json_lines(proc.stdout)[0]
    assert rep["verdict"] == "pass"
    assert rep["known_extremal"] is True
    assert rep["certified_le_sqrt2"] is True
    assert rep["certified_le_one"] is False


def test_verify_survey_skips_non_subcubic():
    proc = run_cli(["verify", "survey"], stdin_text="D~{\n")
    rep = json_lines(proc.stdout)[0]
    assert rep["verdict"] == "skipped"
    assert rep["skipped"] == "not-subcubic"


def test_verify_gen_flag_replaces_files():
    via_gen = run_cli(["verify", "sp", "--gen", "n=7,connected,k4-minor-free"])
    gen = run_cli(["gen", "n=7", "--connected", "--k4-minor-free"])
    via_stdin = run_cli(["verify", "sp"], stdin_text=gen.stdout)
    assert via_gen.returncode == 0
    assert via_gen.stdout == via_stdin.stdout


def test_files_may_follow_flags(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\nBw\n")
    before = run_cli(["verify", "sp", str(corpus), "--witness"])
    after = run_cli(["verify", "sp", "--witness", str(corpus)])
    assert after.returncode == before.returncode == 0
    assert after.stdout == before.stdout
    assert len(json_lines(after.stdout)) == 2


def test_verify_gen_and_files_together_rejected(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\n")
    proc = run_cli(["verify", "sp", str(corpus), "--gen", "n=4"])
    assert proc.returncode == 2


def test_verify_csv_with_witness_rejected():
    proc = run_cli(["verify", "sp", "--csv", "--witness"], stdin_text="A_\n")
    assert proc.returncode == 2


def test_verify_timing_flag_adds_ms():
    corpus = to_graph6(cycle_graph(6)) + "\n"
    plain = json_lines(run_cli(["verify", "sp"], stdin_text=corpus).stdout)[0]
    timed = json_lines(run_cli(["verify", "sp", "--timing"], stdin_text=corpus).stdout)[0]
    assert "ms" not in plain
    assert isinstance(timed["ms"], (int, float)) and timed["ms"] >= 0


def test_verify_lemma_odd_theorem():
    corpus = to_graph6(cycle_graph(7)) + "\n" + to_graph6(cycle_graph(6)) + "\n"
    proc = run_cli(["verify", "lemma-odd"], stdin_text=corpus)
    assert proc.returncode == 0
    reports = json_lines(proc.stdout)
    assert reports[0]["verdict"] == "pass"
    assert reports[1]["verdict"] == "not-applicable"


def test_verify_exit_code_1_on_failure(monkeypatch, capsys):
    # no honest counterexample exists at desk scale, so stub the verifier
    # to exercise the failure exit path end to end
    def fake_verify(g):
        return WitnessTrace("series-parallel-bound", "stub", {}, (), FAIL)

    monkeypatch.setitem(cli._VERIFIERS, "sp", fake_verify)
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code = cli.main(["verify", "sp"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json_lines(out)[0]["verdict"] == "fail"
    assert "1 fail" in err


def test_verify_sp_computes_each_fact_once(monkeypatch):
    # counted, not timed: the reducer runs once per graph and the char-poly
    # once per distinct subject the trace names (the full graph included)
    import collections

    import hlspec.spectra as spectra
    import hlspec.structure as structure
    from hlspec import GenSpec, enumerate_graphs

    calls: collections.Counter = collections.Counter()
    reduce_, charpoly = structure.is_k4_minor_free, spectra._charpoly
    monkeypatch.setattr(
        structure, "is_k4_minor_free", lambda g: calls.update(["reduce"]) or reduce_(g)
    )
    monkeypatch.setattr(
        spectra, "_charpoly", lambda g: calls.update(["charpoly"]) or charpoly(g)
    )

    def subjects(trace: dict) -> set[str]:
        found = {'{"kind": "full"}'}
        for step in trace["steps"]:
            if step["kind"] in ("count-le", "count-ge", "certify-r-le"):
                found.add(json.dumps(step["data"]["subject"], sort_keys=True))
        for child in trace["children"]:
            assert "host-vertices" not in child["named"]  # connected corpus
            found |= subjects(child)
        return found

    classes = enumerate_graphs(GenSpec(n=8, connected=True, filters=("k4-minor-free",)))
    assert len(classes) == 138
    for line_no, g in enumerate(classes, start=1):
        calls.clear()
        rep = cli._verify_report((line_no, to_graph6(g), "sp", True, False))
        assert rep["verdict"] == "pass"
        assert calls["reduce"] == 1
        assert calls["charpoly"] == len(subjects(rep["witness"]))


# determinism across workers


def test_verify_output_byte_identical_across_jobs():
    gen = run_cli(["gen", "n=8", "--connected", "--k4-minor-free"])
    outputs = []
    for jobs in ("1", "2", "8"):
        proc = run_cli(["verify", "sp", "--jobs", jobs], stdin_text=gen.stdout)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_map_tasks_clamps_workers_to_cpus_and_tasks(monkeypatch):
    # a stand-in pool records its size and maps in-process; nothing starts
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, tasks, chunksize=1):
            return map(worker, tasks)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(cli.multiprocessing, "get_context", lambda: FakeContext())
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert list(cli._map_tasks(str, [1, 2, 3], 10_000)) == ["1", "2", "3"]
    assert list(cli._map_tasks(str, list(range(10)), 10_000)) == [str(i) for i in range(10)]
    assert list(cli._map_tasks(str, list(range(10)), 2)) == [str(i) for i in range(10)]
    assert started == [3, 4, 2]
    # an unknown CPU count means one CPU: no pool at all
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert list(cli._map_tasks(str, list(range(10)), 8)) == [str(i) for i in range(10)]
    assert started == [3, 4, 2]


def test_jobs_env_variable_respected():
    gen = run_cli(["gen", "n=6", "--connected"])
    via_flag = run_cli(["hl", "--jobs", "2"], stdin_text=gen.stdout)
    via_env = run_cli(["hl"], stdin_text=gen.stdout, env_extra={"HLSPEC_JOBS": "2"})
    assert via_flag.stdout == via_env.stdout


# recognize command


def test_recognize_reports_predicates():
    corpus = to_graph6(complete_bipartite(2, 3)) + "\n" + to_graph6(heawood_graph()) + "\n"
    proc = run_cli(["recognize"], stdin_text=corpus)
    assert proc.returncode == 0
    k23_rep, heawood_rep = json_lines(proc.stdout)
    assert k23_rep["k4_minor_free"] is True
    assert k23_rep["contains_k23"] is True
    assert k23_rep["bipartite"] is True
    assert heawood_rep["contains_k23"] is False
    assert heawood_rep["k4_minor_free"] is False
    validator = make_validator("recognize-report.schema.json")
    for rep in (k23_rep, heawood_rep):
        validator.validate(rep)


def test_recognize_trace_shows_reduction():
    proc = run_cli(["recognize", "--trace"], stdin_text=to_graph6(cycle_graph(6)) + "\n")
    rep = json_lines(proc.stdout)[0]
    assert rep["k4_minor_free"] is True
    red = rep["reduction"]
    assert red["reduced_to_empty"] is True
    assert all(step["rule"] in
               ("loop-delete", "parallel-merge", "leaf-delete", "suppress")
               for step in red["steps"])
    make_validator("recognize-report.schema.json").validate(rep)


def test_hl_and_recognize_summaries_on_stderr():
    corpus = "A_\nbad\n" + to_graph6(heawood_graph()) + "\n"
    for command in ("hl", "recognize"):
        proc = run_cli([command], stdin_text=corpus)
        assert proc.returncode == 0
        assert [rep["line"] for rep in json_lines(proc.stdout)] == [1, 3]
        summary = proc.stderr.strip().splitlines()[-1]
        assert summary.startswith(f"{command}: 2 graphs, 1 skipped lines, wall ")
        assert summary.endswith("s")


# usage errors


def test_unknown_subcommand_exits_2():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


def test_unknown_theorem_exits_2():
    proc = run_cli(["verify", "fermat"], stdin_text="A_\n")
    assert proc.returncode == 2


def test_missing_file_exits_2(tmp_path):
    proc = run_cli(["hl", str(tmp_path / "absent.g6")])
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""
