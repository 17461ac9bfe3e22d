"""Byte-exact CLI outputs over the fixture corpus.

Every command below runs in-process from inside ``tests/fixtures`` (so
file names in error details carry no directory), and its exit code and
full stdout must equal the recording in ``fixtures/cli_golden.json``.
Re-record only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

from fanrep.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"

FANS = [
    "fan_c2.json",
    "fan_cxcstar.json",
    "fan_cxcstar_override.json",
    "fan_dependent_rays.json",
    "fan_missing_zero_cone.json",
    "fan_nonprimitive_ray.json",
    "fan_nonsmooth.json",
    "fan_p1.json",
    "fan_p2.json",
    "fan_unknown_ray.json",
]
REPS = [
    "rep_bad_rational.json",
    "rep_cn_bad_i.json",
    "rep_cn_bad_ii.json",
    "rep_cn_ok.json",
    "rep_csigma_bad_iii.json",
    "rep_cxcstar_loop_bad.json",
    "rep_loop2.json",
    "rep_loop3.json",
    "rep_p1_bad.json",
    "rep_p1_ok.json",
    "rep_shape_mismatch.json",
]
DESCENTS = [
    "descent_cxcstar_loop_bad.json",
    "descent_p1_delta3.json",
    "descent_p1_ok.json",
    "descent_p1_transport_bad.json",
    "descent_p2_cocycle_bad.json",
    "descent_p2_conjugation_bad.json",
    "descent_p2_ok.json",
]
CDELTA_FANS = ["fan_p1.json", "fan_p2.json", "fan_cxcstar.json"]


def commands() -> list:
    out = []
    for fan in FANS + ["malformed.json"]:
        out += [["fan", name, fan] for name in ("validate", "dual", "gluing")]
        out.append(["quiver", "build", fan, "--family", "fan"])
    for rep in REPS + ["malformed.json"]:
        out += [["rep", "validate", rep, "--category", c] for c in ("cn", "csigma")]
        out += [
            ["rep", "validate", rep, "--category", "cdelta", "--fan", fan]
            for fan in CDELTA_FANS
        ]
        out += [["rep", "hom", rep, rep], ["rep", "iso", rep, rep]]
    for datum in DESCENTS + ["malformed.json"]:
        out += [["descent", name, datum] for name in ("check", "glue")]
    for family in ("hypercube", "arrangement"):
        out += [["quiver", "build", n, "--family", family] for n in ("0", "2", "3", "x")]
    return out


def run_all() -> list:
    """Exit code and stdout of every command; call from FIXTURES."""
    results = []
    for argv in commands():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        results.append({"argv": argv, "exit": code, "stdout": buffer.getvalue()})
    return results


def test_cli_outputs_match_golden(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_all()
    assert [r["argv"] for r in actual] == [r["argv"] for r in golden]
    for got, want in zip(actual, golden):
        assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"]), got["argv"]


CONDITIONS = [
    "i",
    "ii",
    "iii",
    "loop",
    "conjugation",
    "cocycle",
    "transport",
    "rays",
    "independence",
    "face-closure",
    "smoothness",
    "non-smooth",
]


def test_every_condition_has_a_golden_row():
    """Each violation condition the CLI can report is pinned by at least
    one recorded row, so a change to how it is reported shows here."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reported = {
        violation["condition"]
        for record in golden
        if record["exit"] == 1
        for violation in json.loads(record["stdout"])["violations"]
    }
    assert [c for c in CONDITIONS if c not in reported] == []


if __name__ == "__main__":
    os.chdir(FIXTURES)
    lines = ",\n".join(json.dumps(record, sort_keys=True) for record in run_all())
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
