"""Output checker behind `failed` and `error_rate`.

Every report line is compared with the frozen answer for the class its
input line came from.  Only label-invariant fields are compared (a
relabelled copy keeps them), plus the echo of the input line itself.  Extra
keys in a report are allowed, so a later report format that adds fields
still checks.
"""

from __future__ import annotations

import json

R_TOL = 1e-9
_FIELDS = ("n", "m", "h", "l", "certified_le_one", "certified_le_sqrt2")
_SWEEP_FIELDS = ("verdict", "predicates")


def failed_gen(stdout: bytes, golden: list[str], exit_code: int) -> int:
    """Golden lines that are missing or differ, in canonical order."""
    if exit_code != 0:
        return len(golden)
    got = stdout.decode("ascii", errors="replace").splitlines()
    bad = sum(1 for i, want in enumerate(golden) if i >= len(got) or got[i] != want)
    return min(len(golden), bad + max(0, len(got) - len(golden)))


def _report_ok(line: str, line_no: int, text: str, want: dict, theorem: str | None) -> bool:
    try:
        rep = json.loads(line)
    except ValueError:
        return False
    if not isinstance(rep, dict):
        return False
    if rep.get("graph6") != text or rep.get("line") != line_no:
        return False
    if any(rep.get(k) != want[k] for k in _FIELDS):
        return False
    r = rep.get("r")
    if not isinstance(r, float) or abs(r - want["r"]) > R_TOL:
        return False
    if theorem is not None:
        if rep.get("theorem") != theorem or not isinstance(rep.get("case"), str):
            return False
        if any(rep.get(k) != want[k] for k in _SWEEP_FIELDS):
            return False
    return True


def failed_reports(
    stdout: bytes, inputs: list[str], expected: list[dict], exit_code: int,
    theorem: str | None,
) -> int:
    """Input graphs whose report line is missing, malformed or wrong.

    inputs[i] is the graph6 text on input line i+1 and expected[i] the frozen
    answer for its class; theorem is set for `verify` output.
    """
    if exit_code != 0:
        return len(inputs)
    got = stdout.decode("ascii", errors="replace").splitlines()
    bad = 0
    for i, (text, want) in enumerate(zip(inputs, expected)):
        if i >= len(got) or not _report_ok(got[i], i + 1, text, want, theorem):
            bad += 1
    return min(len(inputs), bad + max(0, len(got) - len(inputs)))


def lines_differing(a: bytes, b: bytes) -> int:
    """Lines at which two outputs differ, for byte-identity across --jobs."""
    la, lb = a.splitlines(), b.splitlines()
    return sum(1 for x, y in zip(la, lb) if x != y) + abs(len(la) - len(lb))


def synthetic_reports(inputs: list[str], expected: list[dict], theorem: str | None) -> bytes:
    """Report lines the checker must accept, built from the frozen answers."""
    out = []
    for i, (text, want) in enumerate(zip(inputs, expected), start=1):
        rep = {k: want[k] for k in (*_FIELDS, "r")}
        rep.update(graph6=text, line=i)
        if theorem is not None:
            rep.update(theorem=theorem, case="synthetic",
                       **{k: want[k] for k in _SWEEP_FIELDS})
        out.append(json.dumps(rep, sort_keys=True))
    return ("\n".join(out) + "\n").encode("ascii")


def self_check(golden: list[str], inputs: list[str], expected: list[dict]) -> list[str]:
    """Feed the checker clean output and output with one corrupted line.

    Returns one line per check, as `<what>: error_rate = <failed>/<total>`;
    raises AssertionError when the checker misses the corruption or flags
    clean output.
    """
    gen_clean = ("\n".join(golden) + "\n").encode("ascii")
    gen_bad = gen_clean.replace(golden[0].encode("ascii"), b"I??????????", 1)
    rep_clean = synthetic_reports(inputs, expected, "sp")
    rows = rep_clean.splitlines()
    rows[len(rows) // 2] = rows[len(rows) // 2].replace(b'"certified_le_one": true',
                                                        b'"certified_le_one": false')
    rep_bad = b"\n".join(rows) + b"\n"
    results = [
        ("gen clean", failed_gen(gen_clean, golden, 0), 0, len(golden)),
        ("gen one corrupted line", failed_gen(gen_bad, golden, 0), 1, len(golden)),
        ("verify clean", failed_reports(rep_clean, inputs, expected, 0, "sp"), 0, len(inputs)),
        ("verify one corrupted line",
         failed_reports(rep_bad, inputs, expected, 0, "sp"), 1, len(inputs)),
        ("verify exit code 1", failed_reports(rep_clean, inputs, expected, 1, "sp"),
         len(inputs), len(inputs)),
        ("jobs byte identity", lines_differing(rep_clean, rep_bad), 1, len(inputs)),
    ]
    lines = []
    for what, got, want, total in results:
        if got != want:
            raise AssertionError(f"checker self-check {what}: {got} failed, expected {want}")
        lines.append(f"{what}: error_rate = {got}/{total}")
    return lines
