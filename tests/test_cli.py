"""End-to-end tests of the command line: real subprocesses over graph6
streams, exit codes, JSON/CSV shapes, schema conformance, and determinism
across worker counts."""

import csv
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hlspec
import hlspec.cli as cli
from hlspec import (
    FAIL,
    Graph,
    WitnessTrace,
    parse_graph6,
    to_graph6,
)

from named_graphs import complete_bipartite, complete_graph, cycle_graph, heawood_graph

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def cli_env():
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    return env


def run_cli(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "hlspec", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=cli_env(),
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


def test_hl_sqrt2_certificate_without_le_one():
    # R = sqrt5 - 1 ~ 1.2361 and sqrt6 - 1 ~ 1.4495 (networkx plus
    # numpy.linalg.eigvalsh): the <= sqrt2 field comes from the counts at
    # +-sqrt2 here
    proc = run_cli(["hl"], stdin_text="EtFW\nEb}g\n")
    first, second = json_lines(proc.stdout)
    assert (first["n"], first["certified_le_one"], first["certified_le_sqrt2"]) == (6, False, True)
    assert first["r"] == pytest.approx(1.2360679775)
    assert (second["n"], second["certified_le_one"], second["certified_le_sqrt2"]) == (6, False, False)
    assert second["r"] == pytest.approx(1.4494897428)


def test_hl_sqrt2_field_matches_direct_certificate(tmp_path, capsys):
    from hlspec import SQRT2, GenSpec, certify_R_le, enumerate_graphs, parse_graph6

    lines = [to_graph6(g) for g in enumerate_graphs(GenSpec(n=6, max_degree=5))]
    assert len(lines) == 156
    lines += ["EtFW", "Eb}g"]
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_main(["hl", str(path)], capsys)
    assert code == 0
    reports = json_lines(out)
    assert [r["graph6"] for r in reports] == lines
    for rep in reports:
        assert rep["certified_le_sqrt2"] == certify_R_le(parse_graph6(rep["graph6"]), SQRT2).holds


def test_hl_shifts_over_sqrt2_only_without_le_one(tmp_path, capsys, monkeypatch):
    # the shifts at +sqrt2 and at -sqrt2 each take the row of every graph
    # not certified <= 1, and of no other row
    import collections

    import hlspec.spectra as spectra
    from hlspec import GenSpec, enumerate_graphs

    lines = [to_graph6(g) for g in enumerate_graphs(GenSpec(n=8, connected=True))]
    lines += [to_graph6(heawood_graph()), "EtFW", "Eb}g"]
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    rows = collections.Counter()  # coefficient rows shifted, by threshold
    shift = spectra._shift_parts
    monkeypatch.setattr(spectra, "_shift_parts",
                        lambda coeffs, *t: rows.update({t: len(coeffs[0])}) or shift(coeffs, *t))
    code, out, _ = run_main(["hl", str(path)], capsys)
    assert code == 0
    reports = json_lines(out)
    assert len(reports) == len(lines)
    assert [r["graph6"] for r in reports if not r["certified_le_one"]] == lines[-3:]
    # b != 0: over Z[sqrt2]
    assert {t: k for t, k in rows.items() if t[1]} == {(0, 1, 1): 3, (0, -1, 1): 3}


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


def run_cli_bytes(args, stdin_bytes=b""):
    proc = subprocess.run(
        [sys.executable, "-m", "hlspec", *args],
        input=stdin_bytes, capture_output=True, env=cli_env(), timeout=300,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize("fault", [b"\xc2\xa0", b"\x1f", b"\x1c"])
def test_stdin_and_files_strip_and_decode_alike(tmp_path, fault):
    # a no-break space (UTF-8) or an ASCII separator after a valid line is
    # not whitespace to graph6: both sources reject it at the same offset
    data = b"Bw\nA_" + fault + b"\n  A_  \n"
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(data)
    message = f"byte {fault[0]} outside graph6 alphabet (byte offset 2)"
    for flags in (["--strict"], []):
        from_file = run_cli_bytes(["hl", *flags, str(corpus)])
        from_stdin = run_cli_bytes(["hl", *flags, "-"], data)
        for (code, out, err), source in ((from_file, corpus), (from_stdin, "<stdin>")):
            if flags:
                assert (code, out) == (2, "")
                assert err == f"error: {source}:2: {message}\n"
            else:
                assert code == 0
                assert [(r["line"], r["graph6"]) for r in json_lines(out)] == [(1, "Bw"), (3, "A_")]
                assert f"warning: {source}:2: skipped: {message}\n" in err
        assert from_file[1] == from_stdin[1]


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
    for key in (
        "children built",
        "disconnected children skipped",
        "subsets skipped by orbit",
        "children made by an earlier parent",
        "hereditary tests",
        "canonical forms",
        "wall",
    ):
        assert key in summary


def test_gen_n10_connected_k4_minor_free_matches_frozen_corpus():
    # the benchmark's frozen corpus: the 1028 classes, labels and order
    proc = run_cli(["gen", "n=10", "--connected", "--k4-minor-free"])
    assert proc.returncode == 0
    frozen = (REPO / "perfbench" / "data" / "k4mf_n10.g6").read_bytes()
    assert proc.stdout.encode() == frozen
    # the work counts: the same children built, skipped, tested and keyed
    summary = proc.stderr.strip().splitlines()[-1]
    for count in (
        "1028 classes",
        "7372 children built",
        "9683 disconnected children skipped",
        "7868 subsets skipped by orbit",
        "26028 children made by an earlier parent",
        "7190 hereditary tests",
        "4692 canonical forms",
    ):
        assert count in summary


def test_gen_and_verify_sp_never_run_the_reducer(tmp_path, capsys, monkeypatch):
    # gen's filter and verify sp's precondition read the K4-minor verdict
    # alone; only recognize --trace builds a reduction trace
    import hlspec.enumeration as enumeration
    import hlspec.structure as structure

    def refuse(**fields):
        raise AssertionError("a reduction trace was built")

    monkeypatch.setattr(structure, "SPReductionTrace", refuse)
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    code, out, _ = run_main(["gen", "n=9", "--k4-minor-free"], capsys)
    assert code == 0 and len(out.splitlines()) == 847
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d18fb26b8959c19d798965bc8ef0ae0d17f79fa366442c5d1b0413b213895a71"
    )
    path = tmp_path / "k4mf_n9.g6"
    path.write_text(out)
    code, out, _ = run_main(["verify", "sp", "--jobs", "1", str(path)], capsys)
    assert code == 0
    assert {rep["verdict"] for rep in json_lines(out)} == {"pass"}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7ad9c58c2b6720949dce9ed7769d8b96c0bf08f04ca81249c8e740842680e0c5"
    )


def test_gen_n9_stdout_frozen(capsys, monkeypatch):
    # every subcubic class on 9 vertices, disconnected ones included: the
    # classes, labels and order, from a fresh level cache
    import hlspec.enumeration as enumeration

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    code, out, _ = run_main(["gen", "n=9"], capsys)
    assert code == 0 and len(out.splitlines()) == 1165
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "efd36795e1c6e07354fc86bfe93f80cd2ca3286ff8f371958afbcf85b1d5cd74"
    )


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


def test_verify_sp_two_connected_above_n_20_passes():
    # C22 plus the chord {0, 11}: two-connected, K4-minor-free, subcubic and
    # not a cycle, past the n = 20 an exhaustive longest-cycle search reached
    from hlspec import parse_graph6, replay_trace, trace_from_json_dict

    line = "UhCGGC@?G?o@?@??_?G?@??C??G??G??C??@_??G"
    proc = run_cli(["verify", "sp", "--witness"], stdin_text=line + "\n")
    assert proc.returncode == 0, proc.stderr
    (rep,) = json_lines(proc.stdout)
    assert (rep["n"], rep["case"], rep["verdict"]) == (22, "two-connected", "pass")
    assert rep["witness"]["verdict"] == "pass"
    make_validator("verify-report.schema.json").validate(rep)
    make_validator("witness-trace.schema.json").validate(rep["witness"])
    assert replay_trace(parse_graph6(line), trace_from_json_dict(rep["witness"])) is True
    assert "1 pass" in proc.stderr


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


# 14 vertices and 21 edges each, so the survey's order and size guard
# passes and the canonical key decides: Heawood, a seeded relabelling of it,
# and the 7-prism C7 x K2, which is cubic but not Heawood
HEAWOOD_ORDER_SURVEY = {
    "MhEGHC@AI?_PC@_G_": True,
    "M?oaAggCGCq?G``A?": True,
    "MhCKK@@GG_`@@@?o_": False,
}


def test_verify_survey_flags_heawood_by_its_canonical_key(tmp_path, capsys):
    from hlspec.enumeration import canonical_key

    assert cli._extremal_key() == canonical_key(heawood_graph())
    path = tmp_path / "heawood_order.g6"
    path.write_text("\n".join(HEAWOOD_ORDER_SURVEY) + "\n")
    code, out, _ = run_main(["verify", "survey", str(path)], capsys)
    assert code == 0
    rows = json_lines(out)
    assert [(r["n"], r["m"]) for r in rows] == [(14, 21)] * 3
    assert {r["graph6"]: r["known_extremal"] for r in rows} == HEAWOOD_ORDER_SURVEY
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "875f53dee41913996d570a7f515f93631d546c356bee2008880f158e61d782de"
    )


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


def test_verify_gen_bad_spec_exits_2():
    for spec in ("n=x", "n=13", "n=4,max-degree=-1", "connected", "",
                 "n=5,n=6", "n=4,max-degree=2,max-degree=3", "n=5,connected,connected"):
        proc = run_cli(["verify", "sp", "--gen", spec])
        assert proc.returncode == 2, spec
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")


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

    import hlspec.proofs as proofs

    monkeypatch.setattr(proofs, "verify_theorem_sp", fake_verify)
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code = cli.main(["verify", "sp"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json_lines(out)[0]["verdict"] == "fail"
    assert "1 fail" in err


def test_verify_sp_computes_each_fact_once(monkeypatch):
    # counted, not timed: the K4-minor reduction runs once per graph, no
    # reduction trace is built, and the char-poly once per distinct subject
    # the trace names (the full graph included)
    import collections

    import hlspec.spectra as spectra
    import hlspec.structure as structure
    from hlspec import GenSpec, enumerate_graphs

    calls: collections.Counter = collections.Counter()
    reduction_, trace_ = structure._reduction, structure.SPReductionTrace
    kernel = spectra._adjacency_facts
    monkeypatch.setattr(
        structure, "_reduction",
        lambda g, steps=None: calls.update(["reduction"]) or reduction_(g, steps),
    )
    monkeypatch.setattr(
        structure, "SPReductionTrace", lambda **kw: calls.update(["trace"]) or trace_(**kw)
    )
    monkeypatch.setattr(
        spectra, "_adjacency_facts",
        lambda graphs, **kw: calls.update({"charpoly": len(graphs)}) or kernel(graphs, **kw),
    )

    def subjects(trace: dict) -> set[str]:
        found = {'{"kind": "full"}'}
        for step in trace["steps"]:
            if step["kind"] in ("count-le", "certify-r-le"):
                found.add(json.dumps(step["data"]["subject"], sort_keys=True))
        for child in trace["children"]:
            assert "host-vertices" not in child["named"]  # connected corpus
            found |= subjects(child)
        return found

    classes = enumerate_graphs(GenSpec(n=8, connected=True, filters=("k4-minor-free",)))
    assert len(classes) == 138
    for line_no, g in enumerate(classes, start=1):
        calls.clear()
        rows = functools.partial(cli._verify_rows, "sp", True, False)
        rep = cli._report_chunk(rows, math.inf, [(line_no, to_graph6(g))])[0]
        assert rep["verdict"] == "pass"
        assert calls["reduction"] == 1
        assert calls["trace"] == 0
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


# K5 (skipped by the subcubic verifiers), Heawood, the empty graph, a padded
# line, a malformed line, a blank line and Petersen: every report branch
GOLDEN_CORPUS = "D~{\nM???FAWT@WOoQ_K_?\n?\n  A_  \n!!bad\n\nIheA@GUAo\n"

GOLDEN_STDOUT_SHA256 = {
    "hl": "8448c5fb0d964d905297d32ff042cf2363c1b743995046651ebb8b4cf89be137",
    "hl --csv": "d210b792cde5797800b54928d3aa48c5ee185bc89a9bf6e4913f649a9135535a",
    "verify survey": "a47606216f98c6fcfc20cd80573e8382710215ae1b8683ea322f358d2f7278d2",
    "verify survey --csv": "0757d0252c2bc6724150aabf9359ba9d5dce4cb2a1d8b1423c8f735feba42acf",
    "verify sp --witness": "a17a09a4a1514bc1ba43cb69b6f0b46af7b69006da4fa715da14a5cbf095f4e2",
    "verify sp --csv": "0e31f56c63feecc8d323a89cd1de8d9bb0d275bf90fdba079f94405056b9531e",
    "verify k23 --witness": "7ad628ccb9c023a5a95ffeb05dcc4c5355ffec9ed547beb5cbba57ddd73e882c",
    "verify lemma-odd --witness": "7e68050ba33322cee74934f62b2c348750a367397ac9d11cf73e2bad236fa311",
    "recognize --trace": "7d65e5cf411ba656ce4945cfcc05c9966548cabe0709a528d6453c0ca31e829c",
    "recognize --csv": "df8597bbd1432bb5929212a30aa0d96be78817d8599f5c82683028d20db4c209",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_golden_digest(command):
    proc = run_cli(command.split(), stdin_text=GOLDEN_CORPUS)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[command]


# K2, P4, C6, C7, two triangles joined by a path, C6 with a chord path, a
# triangle beside an edge, K2,3 and K2,3 with a pendant: every verdict case of
# the sp and k23 verifiers that a subcubic graph reaches
VERDICT_CORPUS = "A_\nCh\nEhEG\nFhCKG\nGxCGGK\nGhEK?c\nDwC\nD]o\nE]oG\n"

VERDICT_CASES = {
    "sp": ["base-n2", "base-n4", "cycle", "odd-order", "cut-vertex",
           "two-connected", "components", "odd-order", "cut-vertex"],
    "k23": ["precondition"] * 7 + ["k23", "k23"],
}

VERDICT_STDOUT_SHA256 = {
    "sp": "101f4ba64a2601ac234b5cd89e66aa28dbe315c744e731a77b13771f5fd4f3f8",
    "k23": "10e7e357020a6c4927058082b8bac2533982c33bf3a407888dd0235e692436f2",
}


@pytest.mark.parametrize("theorem", sorted(VERDICT_STDOUT_SHA256))
def test_verdict_stdout_matches_golden_digest(theorem):
    proc = run_cli(["verify", theorem], stdin_text=VERDICT_CORPUS)
    assert proc.returncode == 0, proc.stderr
    assert [rep["case"] for rep in json_lines(proc.stdout)] == VERDICT_CASES[theorem]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == VERDICT_STDOUT_SHA256[theorem]


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

        def imap(self, worker, chunks, chunksize=1):
            return map(worker, chunks)

    class FakeContext:
        Pool = FakePool

    chunks = []

    def worker(chunk):
        chunks.append(chunk)
        return [str(t) for t in chunk]

    monkeypatch.setattr(multiprocessing, "get_context", lambda: FakeContext())
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    # 3 tasks are 2 chunks, so 2 workers
    assert list(cli._map_tasks(worker, [1, 2, 3], 10_000)) == ["1", "2", "3"]
    assert chunks == [[1], [2, 3]]
    chunks.clear()
    assert list(cli._map_tasks(worker, list(range(10)), 10_000)) == [str(i) for i in range(10)]
    assert chunks == [[0], [1, 2], [3, 4, 5, 6], [7, 8, 9]]
    assert list(cli._map_tasks(worker, list(range(10)), 2)) == [str(i) for i in range(10)]
    assert started == [2, 4, 2]
    # an unknown CPU count means one CPU: no pool at all
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert list(cli._map_tasks(worker, list(range(10)), 8)) == [str(i) for i in range(10)]
    assert started == [2, 4, 2]
    # one chunk, one task: no pool either
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert list(cli._map_tasks(worker, [7], 8)) == ["7"]
    assert started == [2, 4, 2]


def chunking_corpus() -> str:
    """Lines of mixed orders, the n = 0 line ?, a blank and malformed lines."""
    import random

    from hlspec import GenSpec, enumerate_graphs

    lines = [to_graph6(g) for n in range(1, 8) for g in enumerate_graphs(GenSpec(n))]
    random.Random(12).shuffle(lines)
    lines[5:5] = ["?", "!!bad", ""]
    lines[150:150] = ["?", "A_\x1f", "Bw"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", [["hl"], ["verify", "sp"]])
def test_stdout_byte_identical_across_jobs_on_mixed_chunks(command):
    corpus = chunking_corpus()
    procs = [run_cli([*command, "--jobs", jobs], stdin_text=corpus) for jobs in ("1", "2")]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout
    reports = json_lines(procs[0].stdout)
    assert len(reports) == corpus.count("\n") - 3  # a blank and two malformed lines
    assert {r["n"] for r in reports} == set(range(8))


def test_prime_sees_doubling_batches(tmp_path, capsys, monkeypatch):
    # the first row is written after one graph; chunks then double up to 64
    import hlspec.spectra as spectra

    sizes = []
    prime = spectra.prime
    monkeypatch.setattr(
        spectra, "prime",
        lambda graphs, counts=(): sizes.append(len(graphs)) or prime(graphs, counts),
    )
    path = tmp_path / "corpus.g6"
    path.write_text(chunking_corpus())
    for command in (["hl"], ["verify", "sp"]):
        sizes.clear()
        code, out, _ = run_main([*command, str(path)], capsys)
        assert code == 0
        rows = len(json_lines(out))
        assert sizes[:8] == [1, 2, 4, 8, 16, 32, 64, 64]
        assert all(s == 64 for s in sizes[6:-1]) and 0 < sizes[-1] <= 64
        assert sum(sizes) == rows


# the 1028 connected K4-minor-free subcubic classes at n = 10: the cut-vertex
# case fills whole 64-graph chunks here, which the golden corpora never do
K4MF_N10 = REPO / "perfbench" / "data" / "k4mf_n10.g6"

K4MF_N10_VERIFY_SP_SHA256 = {
    "": "74d0953532d198d083891c0ee608f71a1e9acaa03251268eee39cce1a3953b9c",
    "--witness": "7cf25b0c09a976bef61ced193fcef14bc18110c4cc204423e360d0453feb03dd",
}


@pytest.mark.parametrize("flags", sorted(K4MF_N10_VERIFY_SP_SHA256))
def test_verify_sp_stdout_pinned_on_the_k4mf_n10_corpus(flags):
    outputs = []
    for jobs in ("1", "2"):
        proc = run_cli(["verify", "sp", *flags.split(), "--jobs", jobs, str(K4MF_N10)])
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == K4MF_N10_VERIFY_SP_SHA256[flags]


# generated n = 10 classes: the 336 subcubic ones with a K2,3, whose k23
# witnesses name the partition that the flip search from the two ends' side
# builds, and the 1028 K4-minor-free ones, whose sp witnesses do not depend
# on where that search starts; neither stdout ends in a fail
GEN_N10_VERIFY_SHA256 = {
    "k23 --witness --gen n=10,contains-k23":
        "3a9992c4b7d758f5ce0dfb939766335a6d705cc16d85f336cdaeac654bc06221",
    "k23 --gen n=10,contains-k23":
        "f62cc0a0be9455205c4d557712b98ca129df0b77ac9d14a8712a7465330d50ae",
    "sp --witness --gen n=10,k4-minor-free":
        "ca252b7b7b7db6eb0df2c1ade9839bfe1701ac081046dedeb6ff6d31fd1f6446",
}


@pytest.mark.parametrize("args", sorted(GEN_N10_VERIFY_SHA256))
def test_verify_stdout_pinned_on_generated_n10_classes(args):
    proc = run_cli(["verify", *args.split()])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GEN_N10_VERIFY_SHA256[args]


# the 5,524 connected subcubic classes at n = 11: 87 full 64-graph chunks
# through the kernel, which the 7-line golden corpus never fills
SUBCUBIC_N11 = REPO / "perfbench" / "data" / "subcubic_n11.g6"

SUBCUBIC_N11_HL_SHA256 = {
    "": "7799af6ea8e2cf5ba78e27eec8be5021d69f27a421755ee7ca4ca2a86bebc15d",
    "--csv": "a5663cb196b9c1bdba12ce0908468e4ca021276c3938531bb195c75df6499472",
}


@pytest.mark.parametrize("flags", sorted(SUBCUBIC_N11_HL_SHA256))
def test_hl_stdout_pinned_on_the_subcubic_n11_corpus(flags):
    outputs = []
    for jobs in ("1", "2"):
        proc = run_cli(["hl", *flags.split(), "--jobs", jobs, str(SUBCUBIC_N11)])
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == SUBCUBIC_N11_HL_SHA256[flags]


def test_verify_sp_batches_the_kernel_and_searches_cut_vertices_once(capsys, monkeypatch):
    # each chunk counts its graphs and every subgraph their traces name in
    # one kernel run per order, and each graph's cut vertices are searched
    # once
    import collections

    import hlspec.graph_core as graph_core
    import hlspec.spectra as spectra

    calls: collections.Counter = collections.Counter()
    kernel, search = spectra._adjacency_facts, graph_core._articulation
    monkeypatch.setattr(
        spectra, "_adjacency_facts",
        lambda graphs, **kw: calls.update(runs=1, graphs=len(graphs)) or kernel(graphs, **kw),
    )
    monkeypatch.setattr(graph_core, "_articulation", lambda g: calls.update(["search"]) or search(g))
    code, out, _ = run_main(["verify", "sp", "--jobs", "1", str(K4MF_N10)], capsys)
    assert code == 0 and len(json_lines(out)) == 1028
    assert calls["runs"] <= 197
    assert calls["graphs"] == 4109
    assert calls["search"] <= 1028


def counted_kernel(monkeypatch):
    """A counter of kernel runs and of the graphs they take."""
    import collections

    import hlspec.spectra as spectra

    calls: collections.Counter = collections.Counter()
    kernel = spectra._adjacency_facts
    monkeypatch.setattr(
        spectra, "_adjacency_facts",
        lambda graphs, **kw: calls.update(runs=1, graphs=len(graphs)) or kernel(graphs, **kw),
    )
    return calls


@pytest.mark.parametrize("theorem, spec, classes, graphs, budget", [
    ("sp", "n=10,k4-minor-free", 2353, 10502, 600),
    ("k23", "n=10,contains-k23", 336, 1008, 100),
])
def test_verify_gen_n10_meets_its_kernel_run_budget(
    theorem, spec, classes, graphs, budget, capsys, monkeypatch
):
    # every count a chunk's traces name, hosts and subgraphs alike, is
    # counted in one kernel run per order, not one run per subgraph
    calls = counted_kernel(monkeypatch)
    code, out, _ = run_main(["verify", theorem, "--gen", spec], capsys)
    assert code == 0 and len(json_lines(out)) == classes
    assert calls["graphs"] == graphs
    assert calls["runs"] <= budget


def test_replay_of_the_k4mf_n10_witnesses_meets_its_kernel_run_budget(capsys, monkeypatch):
    # batched replay recounts every subgraph of 64 witnesses in one kernel
    # run per order, each on a fresh copy of its host
    from hlspec.proofs import _replay_traces, trace_from_json_dict

    code, out, _ = run_main(["verify", "sp", "--witness", str(K4MF_N10)], capsys)
    assert code == 0
    items = [(parse_graph6(r["graph6"]), trace_from_json_dict(r["witness"])) for r in json_lines(out)]
    assert len(items) == 1028
    calls = counted_kernel(monkeypatch)
    replayed = []
    for start in range(0, len(items), 64):
        replayed += _replay_traces(items[start : start + 64])
    assert replayed == [True] * 1028
    assert calls["graphs"] == 4109
    assert calls["runs"] <= 450


@pytest.fixture(scope="module")
def dense_n8(tmp_path_factory):
    """The 11,117 connected classes at n = 8 of any degree, as a graph6 file:
    119 of them are not certified R <= 1, so their rows count at +-sqrt2."""
    from hlspec import GenSpec, enumerate_graphs

    path = tmp_path_factory.mktemp("dense") / "dense_n8.g6"
    graphs = enumerate_graphs(GenSpec(8, connected=True, max_degree=None))
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    return path


@pytest.mark.parametrize("command, sha256", [
    ("hl", "d3907ed723896d996e72a93178760bbd591cfec1196920dae4eeceb3f9e01e2c"),
    ("verify survey", "81d293d07f1f93e0faa9ea45ec7f12645cdc97ecb8957c2e1cd40d51d29ded2f"),
])
def test_stdout_pinned_on_the_dense_n8_corpus(command, sha256, dense_n8, capsys):
    code, out, _ = run_main([*command.split(), str(dense_n8)], capsys)
    assert code == 0 and len(json_lines(out)) == 11117
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_every_shift_runs_inside_prime(dense_n8, capsys, monkeypatch):
    # one count path: hl at +-1 and +-sqrt2, verify sp and replay shift a
    # polynomial only inside spectra.prime
    import collections

    import hlspec.spectra as spectra
    from hlspec.proofs import _replay_traces, trace_from_json_dict

    depth, shifts = [0], collections.Counter()
    prime, shift = spectra.prime, spectra._shift_parts

    def counting_prime(*args):
        depth[0] += 1
        try:
            return prime(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(spectra, "prime", counting_prime)
    monkeypatch.setattr(spectra, "_shift_parts",
                        lambda coeffs, *t: shifts.update([(t, depth[0] > 0)]) or shift(coeffs, *t))
    code, out, _ = run_main(["hl", str(dense_n8)], capsys)
    assert code == 0
    assert sum(not r["certified_le_one"] for r in json_lines(out)) == 119
    code, out, _ = run_main(["verify", "sp", "--witness", str(K4MF_N10)], capsys)
    assert code == 0
    items = [(parse_graph6(r["graph6"]), trace_from_json_dict(r["witness"])) for r in json_lines(out)]
    assert _replay_traces(items) == [True] * 1028
    assert {t for t, _ in shifts} >= {(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)}
    assert {inside for _, inside in shifts} == {True}


def test_survey_computes_no_spectrum_of_a_skipped_graph(tmp_path, capsys, monkeypatch):
    # a survey row of max degree above 3 is skipped without its index, so
    # its graph is not primed; hl rows read the index at every degree
    import hlspec.spectra as spectra

    primed = []
    prime = spectra.prime
    monkeypatch.setattr(
        spectra, "prime",
        lambda graphs, counts=(): primed.extend(graphs) or prime(graphs, counts),
    )
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(to_graph6(g) for g in (complete_graph(9), cycle_graph(5))) + "\n")
    code, out, _ = run_main(["verify", "survey", str(path)], capsys)
    assert code == 0
    assert [r["verdict"] for r in json_lines(out)] == ["skipped", "pass"]
    assert [g.n for g in primed] == [5]
    primed.clear()
    code, out, _ = run_main(["hl", str(path)], capsys)
    assert code == 0 and [g.n for g in primed] == [9, 5]


def test_jobs_below_one_exits_2():
    for jobs in ("0", "-5"):
        proc = run_cli(["hl", "--jobs", jobs], stdin_text="A_\n")
        assert proc.returncode == 2, jobs
        assert proc.stdout == ""
        assert "--jobs must be at least 1" in proc.stderr


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
               ("parallel-merge", "leaf-delete", "suppress")
               for step in red["steps"])
    make_validator("recognize-report.schema.json").validate(rep)


def test_recognize_runs_the_reducer_once_per_graph(monkeypatch):
    # without --trace the verdict alone answers the predicate; with it the
    # trace answers it, and either way the reduction runs once
    import collections

    import hlspec.structure as structure

    calls: collections.Counter = collections.Counter()
    reduction_, trace_ = structure._reduction, structure.SPReductionTrace
    monkeypatch.setattr(
        structure, "_reduction",
        lambda g, steps=None: calls.update(["reduction"]) or reduction_(g, steps),
    )
    monkeypatch.setattr(
        structure, "SPReductionTrace", lambda **kw: calls.update(["trace"]) or trace_(**kw)
    )
    corpus = (heawood_graph(), cycle_graph(6), complete_bipartite(2, 3))
    for with_trace in (False, True):
        for line_no, g in enumerate(corpus, start=1):
            calls.clear()
            rows = functools.partial(cli._recognize_rows, with_trace)
            rep = cli._report_chunk(rows, None, [(line_no, to_graph6(g))])[0]
            if with_trace:
                assert calls == {"reduction": 1, "trace": 1}
                assert rep["k4_minor_free"] == rep["reduction"]["reduced_to_empty"]
            else:
                assert calls == {"reduction": 1}


def test_hl_and_recognize_summaries_on_stderr():
    corpus = "A_\nbad\n" + to_graph6(heawood_graph()) + "\n"
    for command in ("hl", "recognize"):
        proc = run_cli([command], stdin_text=corpus)
        assert proc.returncode == 0
        assert [rep["line"] for rep in json_lines(proc.stdout)] == [1, 3]
        summary = proc.stderr.strip().splitlines()[-1]
        assert summary.startswith(f"{command}: 2 graphs, 1 skipped lines, wall ")
        assert summary.endswith("s")


def test_verify_summary_counts_skipped_lines():
    proc = run_cli(["verify", "survey"], stdin_text="A_\n!!bad\nBw\n")
    assert proc.returncode == 0
    assert [rep["line"] for rep in json_lines(proc.stdout)] == [1, 3]
    summary = proc.stderr.strip().splitlines()[-1]
    assert summary.startswith("verify survey: 2 graphs, 1 skipped lines, 2 pass, 0 fail, ")
    clean = run_cli(["verify", "sp", "--gen", "n=4,connected"])
    assert ": 6 graphs, 0 skipped lines, " in clean.stderr


# input ingestion (in-process; one path serves every subcommand)


def run_main(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_ingestion_lenient_keeps_original_line_numbers(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("A_\n\n  \n!!bad\nBw\n")
    code, out, err = run_main(["hl", str(path)], capsys)
    assert code == 0
    assert [(r["line"], r["graph6"], r["n"]) for r in json_lines(out)] == [
        (1, "A_", 2), (5, "Bw", 3)
    ]
    assert f"{path}:4: skipped" in err and "byte" in err
    assert err.strip().splitlines()[-1].startswith("hl: 2 graphs, 1 skipped lines")


def test_ingestion_strict_names_the_line(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("A_\n!!bad\n")
    code, out, err = run_main(["hl", "--strict", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"{path}:2:" in err


def test_ingestion_round_trips_random_graphs(tmp_path, capsys):
    import random

    rng = random.Random(42)
    graphs = []
    for _ in range(20):
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        graphs.append(Graph(n, edges))
    path = tmp_path / "corpus.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    code, out, _ = run_main(["recognize", "--strict", str(path)], capsys)
    assert code == 0
    reports = json_lines(out)
    assert [r["line"] for r in reports] == list(range(1, 21))
    for rep, g in zip(reports, graphs):
        assert (rep["graph6"], rep["n"], rep["m"]) == (to_graph6(g), g.n, g.m)


def test_hl_validates_every_line_and_decodes_each_kept_line_once(tmp_path, capsys, monkeypatch):
    import collections
    import random

    rng = random.Random(8)
    lines = []
    for _ in range(20):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        lines.append(to_graph6(Graph(n, edges)))
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines[:10] + ["!!bad", ""] + lines[10:]) + "\n")
    checked: collections.Counter = collections.Counter()
    decoded: collections.Counter = collections.Counter()
    check, parse = cli.check_graph6, cli.parse_graph6
    monkeypatch.setattr(cli, "check_graph6", lambda text: checked.update([text]) or check(text))
    monkeypatch.setattr(cli, "parse_graph6", lambda text: decoded.update([text]) or parse(text))
    code, out, _ = run_main(["hl", str(path)], capsys)
    assert code == 0
    assert [r["graph6"] for r in json_lines(out)] == lines
    assert decoded == collections.Counter(lines)
    assert checked == collections.Counter(lines + ["!!bad"])


def test_hl_reads_masks_and_runs_the_kernel_once_per_graph(tmp_path, capsys, monkeypatch):
    # the batched kernel reads the neighbour masks, never an edge list, and
    # each graph with vertices enters it exactly once
    import collections
    import random

    import hlspec.spectra as spectra

    rng = random.Random(9)
    lines = [to_graph6(Graph(0)), to_graph6(Graph(1)), to_graph6(Graph(4))]
    for _ in range(10):
        n = rng.randint(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        lines.append(to_graph6(Graph(n, edges)))
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    calls = []
    edges = Graph.edges
    monkeypatch.setattr(Graph, "edges", lambda g: calls.append(g.n) or edges(g))
    kernel_graphs: collections.Counter = collections.Counter()
    kernel = spectra._adjacency_facts
    monkeypatch.setattr(
        spectra, "_adjacency_facts",
        lambda graphs, **kw: kernel_graphs.update(map(to_graph6, graphs)) or kernel(graphs, **kw),
    )
    code, out, _ = run_main(["hl", str(path)], capsys)
    assert code == 0
    assert len(json_lines(out)) == len(lines)
    assert calls == []
    assert kernel_graphs == collections.Counter(lines[1:])


# run in a fresh interpreter per command, so no command's imports can hide
# another's; the last stderr line is the exit code and the watched modules
# the command loaded
IMPORT_BOUNDARY_SCRIPT = """
import json
import sys
import hlspec.cli as cli

watched = ["numpy", "multiprocessing"] + [
    "hlspec." + m for m in ("spectra", "structure", "enumeration", "proofs")
]
assert not any(m in sys.modules for m in watched)
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, [m for m in watched if m in sys.modules]]), file=sys.stderr)
"""


def test_gen_recognize_help_and_usage_errors_never_import_numpy(tmp_path):
    # and each command loads only the modules it runs; the hl and verify
    # runs show the check is not vacuous
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\nBw\nCr\n")
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\n!!bad\n")
    heawood_order = tmp_path / "heawood_order.g6"
    heawood_order.write_text("\n".join(HEAWOOD_ORDER_SURVEY) + "\n")
    seen: set[str] = set()

    def loaded(*args):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT, *args],
            capture_output=True, text=True, env=cli_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stderr.splitlines()[-1])
        names = {m.removeprefix("hlspec.") for m in modules}
        seen.update(names)
        return code, names

    assert loaded("--help") == (0, set())
    assert loaded("gen", "n=7", "--connected", "--k4-minor-free") == (
        0, {"enumeration", "structure"}
    )
    assert loaded("recognize", str(corpus)) == (0, {"structure"})
    assert loaded("verify", "sp", "--gen", "n=7,bogus") == (2, {"enumeration", "structure"})
    assert loaded("hl", "--strict", str(bad)) == (2, set())
    assert loaded("hl", "--jobs", "1", str(corpus)) == (0, {"spectra", "numpy"})
    assert loaded("verify", "sp", str(corpus)) == (
        0, {"proofs", "spectra", "structure", "numpy"}
    )
    # the survey keys Heawood-order graphs, and builds Heawood itself
    assert loaded("verify", "survey", str(heawood_order)) == (
        0, {"enumeration", "proofs", "spectra", "structure", "numpy"}
    )
    # every module in the package is watched and loaded by some command:
    # none is kept for the tests alone
    package = {m.name for m in pkgutil.iter_modules(hlspec.__path__)} - {"__main__"}
    assert (seen - {"numpy", "multiprocessing"}) | {"cli", "graph_core"} == package
    if (os.cpu_count() or 1) >= 2:
        # three lines are two chunks, so a pool starts, and the rows are
        # built in its workers
        assert loaded("hl", "--jobs", "2", str(corpus)) == (0, {"multiprocessing"})


# a fresh interpreter whose pools spawn their workers, so each worker starts
# from a bare import of hlspec.cli and must import what its rows read
SPAWN_SCRIPT = """
import multiprocessing
import os
import sys

multiprocessing.set_start_method("spawn")
os.cpu_count = lambda: 2  # so a pool starts on any host
import hlspec.cli as cli

code = cli.main(sys.argv[1:])
print(code, multiprocessing.get_start_method(), "hlspec.spectra" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("command", [["hl"], ["verify", "sp"]])
def test_spawned_workers_import_what_they_run(command):
    corpus = chunking_corpus()
    serial = run_cli([*command, "--jobs", "1"], stdin_text=corpus)
    spawned = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT, *command, "--jobs", "2"],
        input=corpus, capture_output=True, text=True, env=cli_env(), timeout=300,
    )
    assert serial.returncode == spawned.returncode == 0, spawned.stderr
    assert spawned.stdout == serial.stdout
    code, method, spectra_in_parent = spawned.stderr.splitlines()[-1].split()
    assert (code, method) == ("0", "spawn")
    # hl's parent reads no spectra: its workers built every row
    assert spectra_in_parent == ("False" if command == ["hl"] else "True")


def test_ingestion_reports_stripped_text(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("  A_  \n")
    for command in ("hl", "recognize"):
        code, out, _ = run_main([command, str(path)], capsys)
        assert code == 0
        assert [(r["line"], r["graph6"]) for r in json_lines(out)] == [(1, "A_")]
    code, out, _ = run_main(["verify", "survey", str(path)], capsys)
    assert [(r["line"], r["graph6"]) for r in json_lines(out)] == [(1, "A_")]


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
