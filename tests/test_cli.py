"""CLI: verdicts, exit codes, and bit-exact JSON round trips."""

import argparse
import gc
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
from collections import Counter

import pytest

from fanrep import cli
from fanrep.cli import main, run
from fanrep.descent import descent_from_json, descent_to_json
from fanrep.geometry import fan_from_json, fan_to_json
from fanrep.quivers import quiver_from_json, quiver_to_json
from fanrep.reps import rep_from_json, rep_to_json
from test_cli_golden import commands

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


CASES = [
    # (argv, expected exit code, expected status)
    (("fan", "validate", fx("fan_p1.json")), 0, "ok"),
    (("fan", "validate", fx("fan_p2.json")), 0, "ok"),
    (("fan", "validate", fx("fan_c2.json")), 0, "ok"),
    (("fan", "validate", fx("fan_cxcstar.json")), 0, "ok"),
    (("fan", "validate", fx("fan_nonsmooth.json")), 1, "violation"),
    (("fan", "validate", fx("fan_missing_zero_cone.json")), 1, "violation"),
    (("fan", "validate", fx("fan_nonprimitive_ray.json")), 1, "violation"),
    (("fan", "validate", fx("fan_dependent_rays.json")), 1, "violation"),
    (("fan", "validate", fx("fan_unknown_ray.json")), 1, "violation"),
    (("fan", "validate", fx("malformed.json")), 2, "error"),
    (("fan", "dual", fx("fan_p2.json")), 0, "ok"),
    (("fan", "dual", fx("fan_cxcstar.json")), 0, "ok"),
    (("fan", "dual", fx("fan_nonsmooth.json")), 1, "violation"),
    (("fan", "gluing", fx("fan_p2.json")), 0, "ok"),
    (("fan", "gluing", fx("fan_cxcstar_override.json")), 0, "ok"),
    (("quiver", "build", fx("fan_p1.json"), "--family", "fan"), 0, "ok"),
    (("quiver", "build", "2", "--family", "hypercube"), 0, "ok"),
    (("quiver", "build", "3", "--family", "arrangement"), 0, "ok"),
    (("quiver", "build", "x", "--family", "hypercube"), 2, "error"),
    (("quiver", "build", fx("fan_nonsmooth.json"), "--family", "fan"), 1, "violation"),
    (
        ("rep", "validate", fx("rep_p1_ok.json"), "--category", "cdelta", "--fan", fx("fan_p1.json")),
        0,
        "ok",
    ),
    (
        ("rep", "validate", fx("rep_p1_bad.json"), "--category", "cdelta", "--fan", fx("fan_p1.json")),
        1,
        "violation",
    ),
    (("rep", "validate", fx("rep_cn_ok.json"), "--category", "cn"), 0, "ok"),
    (("rep", "validate", fx("rep_cn_bad_i.json"), "--category", "cn"), 1, "violation"),
    (("rep", "validate", fx("rep_cn_bad_ii.json"), "--category", "cn"), 1, "violation"),
    (
        ("rep", "validate", fx("rep_csigma_bad_iii.json"), "--category", "csigma"),
        1,
        "violation",
    ),
    (("rep", "validate", fx("rep_shape_mismatch.json"), "--category", "cn"), 2, "error"),
    (("rep", "validate", fx("rep_bad_rational.json"), "--category", "cn"), 2, "error"),
    (("rep", "validate", fx("rep_cn_ok.json"), "--category", "cdelta"), 2, "error"),
    (("rep", "validate", fx("rep_loop2.json"), "--category", "cn"), 2, "error"),
    (("quiver", "build", "0", "--family", "arrangement"), 2, "error"),
    (("rep", "hom", fx("rep_loop2.json"), fx("rep_loop3.json")), 0, "ok"),
    (("rep", "hom", fx("rep_loop2.json"), fx("rep_loop2.json")), 0, "ok"),
    (("rep", "iso", fx("rep_loop2.json"), fx("rep_loop3.json")), 0, "ok"),
    (("rep", "iso", fx("rep_loop2.json"), fx("rep_loop2.json"), "--seed", "1"), 0, "ok"),
    (("descent", "check", fx("descent_p1_ok.json")), 0, "ok"),
    (("descent", "check", fx("descent_p1_delta3.json")), 0, "ok"),
    (("descent", "check", fx("descent_p1_transport_bad.json")), 1, "violation"),
    (("descent", "check", fx("descent_p2_ok.json")), 0, "ok"),
    (("descent", "check", fx("descent_p2_cocycle_bad.json")), 1, "violation"),
    (("descent", "check", fx("descent_p2_conjugation_bad.json")), 1, "violation"),
    (("descent", "check", fx("descent_p2_stray_delta.json")), 2, "error"),
    (("descent", "check", fx("malformed.json")), 2, "error"),
    (("descent", "glue", fx("descent_p1_ok.json")), 0, "ok"),
    (("descent", "glue", fx("descent_p1_transport_bad.json")), 1, "violation"),
]


@pytest.mark.parametrize("argv,code,status", CASES, ids=[" ".join(map(str, c[0][:2])) + "/" + pathlib.Path(str(c[0][-1])).name for c in CASES])
def test_cli_verdicts_and_exit_codes(capsys, argv, code, status):
    got_code, payload = invoke(capsys, *argv)
    assert got_code == code
    assert payload["status"] == status


def test_violation_details_sorted(capsys):
    _, payload = invoke(
        capsys,
        "rep",
        "validate",
        fx("rep_p1_bad.json"),
        "--category",
        "cdelta",
        "--fan",
        fx("fan_p1.json"),
    )
    violations = payload["violations"]
    keys = [(v["condition"], [str(x) for x in v["location"]]) for v in violations]
    assert keys == sorted(keys)
    assert violations[0]["condition"] == "iii"


def test_iso_verdicts(capsys):
    _, payload = invoke(capsys, "rep", "iso", fx("rep_loop2.json"), fx("rep_loop3.json"))
    assert payload["verdict"] == "no"
    _, payload = invoke(capsys, "rep", "iso", fx("rep_loop2.json"), fx("rep_loop2.json"))
    assert payload["verdict"] == "yes"
    assert "witness" in payload


def test_hom_dim_output(capsys):
    _, payload = invoke(capsys, "rep", "hom", fx("rep_loop2.json"), fx("rep_loop3.json"))
    assert payload["dim"] == 0
    _, payload = invoke(capsys, "rep", "hom", fx("rep_loop2.json"), fx("rep_loop2.json"))
    assert payload["dim"] == 1


def test_quiver_build_matches_library(capsys):
    from fanrep.quivers import hypercube_quiver

    _, payload = invoke(capsys, "quiver", "build", "2", "--family", "hypercube")
    assert payload["quiver"] == quiver_to_json(hypercube_quiver(2))


def test_glue_output_is_valid_rep_json(capsys):
    _, payload = invoke(capsys, "descent", "glue", fx("descent_p1_delta3.json"))
    assert payload["validation"] == "ok"
    rep = rep_from_json(payload["representation"])
    assert rep.dims[()] == 1


NON_INTEGERS = [
    # (fixture, path to one integer, non-integer put there, command, location in the error)
    ("fan_p1.json", ("rays", 0, 0), 1.9, ("fan", "validate"), "rays[0][0]"),
    ("fan_p1.json", ("dim",), True, ("fan", "validate"), "dim"),
    ("fan_p1.json", ("cones", 1, 0), 1.0, ("fan", "validate"), "cones[1][0]"),
    ("fan_cxcstar_override.json", ("bases", "1", 0, 0), 1.0, ("fan", "dual"), 'bases["1"][0][0]'),
    ("rep_cn_ok.json", ("dims", ""), 1.5, ("rep", "validate"), 'dims[""]'),
    ("rep_cn_ok.json", ("dims", "1"), True, ("rep", "validate"), 'dims["1"]'),
    ("rep_loop2.json", ("quiver", "loops", "", 0), 1.5, ("rep", "hom"), 'loops[""][0]'),
]


@pytest.mark.parametrize(
    "name,path,value,command,where", NON_INTEGERS, ids=[case[-1] for case in NON_INTEGERS]
)
def test_non_integer_json_is_a_parse_error(tmp_path, capsys, name, path, value, command, where):
    data = json.loads((FIXTURES / name).read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / name
    target.write_text(json.dumps(data))
    argv = [*command, str(target)]
    if command == ("rep", "validate"):
        argv += ["--category", "cn"]
    elif command == ("rep", "hom"):
        argv.append(str(target))
    code, payload = invoke(capsys, *argv)
    assert (code, payload["error"]) == (2, "parse")
    assert f"{where} must be a JSON integer, got {value!r}" in payload["detail"]


STRING_KEYS = [
    # (fixture, object holding the key, key, key written otherwise, command):
    # int() reads each changed key as the original one
    ("rep_cn_ok.json", "dims", "1,2", "1, 2", ("rep", "validate")),
    ("fan_cxcstar_override.json", "bases", "1", "+1", ("fan", "dual")),
    ("rep_loop2.json", "loops", ":1", ":\u0661", ("rep", "hom")),
]


@pytest.mark.parametrize(
    "name,section,key,bad,command", STRING_KEYS, ids=[case[1] for case in STRING_KEYS]
)
def test_key_index_must_be_ascii_digits(tmp_path, capsys, name, section, key, bad, command):
    data = json.loads((FIXTURES / name).read_text())
    data[section][bad] = data[section].pop(key)
    target = tmp_path / name
    target.write_text(json.dumps(data))
    argv = [*command, str(target)]
    if command == ("rep", "validate"):
        argv += ["--category", "cn"]
    elif command == ("rep", "hom"):
        argv.append(str(target))
    code, payload = invoke(capsys, *argv)
    assert (code, payload["error"]) == (2, "parse")
    assert f"key {bad!r}" in payload["detail"]


def test_rational_string_must_be_ascii_digits(tmp_path, capsys):
    data = json.loads((FIXTURES / "rep_cn_ok.json").read_text())
    data["u"]["-1"] = [["\u0661"]]
    target = tmp_path / "rep.json"
    target.write_text(json.dumps(data))
    code, payload = invoke(capsys, "rep", "validate", str(target), "--category", "cn")
    assert (code, payload["error"]) == (2, "parse")
    assert "not a rational string: '\u0661'" in payload["detail"]


UNKNOWN_KEYS = [
    # (fixture, path to the object, key, key written otherwise, command, JSON path in the error)
    ("rep_loop2.json", (), "loops", "loop", ("rep", "hom"), '$["loop"]'),
    ("fan_cxcstar_override.json", (), "bases", "basis", ("fan", "dual"), '$["basis"]'),
    ("rep_cn_ok.json", ("quiver", "arrows", 0), "low", "lo", ("rep", "validate"), '$["quiver"]["arrows"][0]["lo"]'),
    ("descent_p2_ok.json", ("charts", "1,2"), "u", "U", ("descent", "check"), '$["charts"]["1,2"]["U"]'),
    ("descent_p2_ok.json", ("fan",), "cones", "cone", ("descent", "glue"), '$["fan"]["cone"]'),
]


@pytest.mark.parametrize(
    "name,path,key,bad,command,where", UNKNOWN_KEYS, ids=[case[-1] for case in UNKNOWN_KEYS]
)
def test_unknown_key_is_a_parse_error(tmp_path, capsys, name, path, key, bad, command, where):
    data = json.loads((FIXTURES / name).read_text())
    node = data
    for step in path:
        node = node[step]
    node[bad] = node.pop(key)
    target = tmp_path / name
    target.write_text(json.dumps(data))
    argv = [*command, str(target)]
    if command == ("rep", "validate"):
        argv += ["--category", "cn"]
    elif command == ("rep", "hom"):
        argv = [*command, fx(name), str(target)]
    code, payload = invoke(capsys, *argv)
    assert (code, payload["error"]) == (2, "parse")
    assert f"unknown key {where};" in payload["detail"]


MAP_FIELDS = [
    # (fixture, path to a map-valued field, value put there, command, JSON path in the error)
    ("descent_p2_ok.json", ("charts",), [], ("descent", "check"), '$["charts"]'),
    ("descent_p2_ok.json", ("deltas",), "1,2|1,3|1", ("descent", "glue"), '$["deltas"]'),
    ("descent_p2_ok.json", ("charts", "1,2", "dims"), 3, ("descent", "check"), '$["charts"]["1,2"]["dims"]'),
    ("descent_p2_ok.json", ("charts", "1,2", "loops"), [], ("descent", "check"), '$["charts"]["1,2"]["loops"]'),
    ("rep_cn_ok.json", ("dims",), [1, 1], ("rep", "validate"), '$["dims"]'),
    ("rep_cn_ok.json", ("u",), "u", ("rep", "validate"), '$["u"]'),
    ("rep_cn_ok.json", ("v",), 0, ("rep", "validate"), '$["v"]'),
    ("rep_loop2.json", ("loops",), [], ("rep", "hom"), '$["loops"]'),
    ("rep_loop2.json", ("quiver", "loops"), [[1]], ("rep", "hom"), '$["quiver"]["loops"]'),
    ("fan_cxcstar_override.json", ("bases",), [[[1, 0], [0, 1]]], ("fan", "dual"), '$["bases"]'),
]


@pytest.mark.parametrize(
    "name,path,value,command,where", MAP_FIELDS, ids=[case[-1] for case in MAP_FIELDS]
)
def test_map_field_that_is_not_an_object_is_a_parse_error(
    tmp_path, capsys, name, path, value, command, where
):
    data = json.loads((FIXTURES / name).read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / name
    target.write_text(json.dumps(data))
    argv = [*command, str(target)]
    if command == ("rep", "validate"):
        argv += ["--category", "cn"]
    elif command == ("rep", "hom"):
        argv.append(str(target))
    code, payload = invoke(capsys, *argv)
    assert (code, payload["error"]) == (2, "parse")
    assert f"{where} must be a JSON object, got {type(value).__name__}" in payload["detail"]


MATRIX_SHAPES = [
    # (fixture, path to a matrix-valued field, value put there, command, JSON path in the error)
    ("rep_cn_ok.json", ("u", "-1"), {"a": 1}, ("rep", "validate"), '$["u"]["-1"]'),
    ("rep_cn_ok.json", ("v", "-2"), "12", ("rep", "validate"), '$["v"]["-2"]'),
    ("rep_cn_ok.json", ("u", "1-1,2"), ["12"], ("rep", "validate"), '$["u"]["1-1,2"]'),
    ("rep_cn_ok.json", ("v", "2-1,2"), [["1"], ["2", "3"]], ("rep", "validate"), '$["v"]["2-1,2"]'),
    ("rep_loop2.json", ("loops", ":1"), {"a": 1}, ("rep", "hom"), '$["loops"][":1"]'),
    ("descent_p1_ok.json", ("deltas", "1|2|"), "1", ("descent", "check"), '$["deltas"]["1|2|"]'),
    ("descent_p1_ok.json", ("deltas", "1|2|"), ["1"], ("descent", "glue"), '$["deltas"]["1|2|"]'),
    ("descent_p2_ok.json", ("deltas", "1,2|1,3|1"), {"a": 1}, ("descent", "check"), '$["deltas"]["1,2|1,3|1"]'),
    ("descent_p2_ok.json", ("charts", "1,2", "u", "-1"), 1, ("descent", "check"), '$["charts"]["1,2"]["u"]["-1"]'),
]


@pytest.mark.parametrize(
    "name,path,value,command,where", MATRIX_SHAPES, ids=[case[-1] for case in MATRIX_SHAPES]
)
def test_matrix_that_is_not_a_list_of_rows_is_a_parse_error(
    tmp_path, capsys, name, path, value, command, where
):
    data = json.loads((FIXTURES / name).read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / name
    target.write_text(json.dumps(data))
    argv = [*command, str(target)]
    if command == ("rep", "validate"):
        argv += ["--category", "cn"]
    elif command == ("rep", "hom"):
        argv.append(str(target))
    code, payload = invoke(capsys, *argv)
    assert (code, payload["error"]) == (2, "parse")
    assert f"{where} must be a list of equal-length lists of rational strings" in payload["detail"]


@pytest.mark.parametrize("command", ["check", "glue"])
@pytest.mark.parametrize("key", ["0", "1,3"])
def test_chart_key_must_be_a_maximal_cone(tmp_path, capsys, command, key):
    data = json.loads((FIXTURES / "descent_p2_ok.json").read_text())
    if key == "1,3":
        data["fan"]["cones"].remove([1, 3])  # (1,3) is no longer a cone
    else:
        data["charts"][key] = data["charts"].pop("1,3")
    target = tmp_path / "descent.json"
    target.write_text(json.dumps(data))
    code, payload = invoke(capsys, "descent", command, str(target))
    assert (code, payload["error"]) == (2, "descent-structure")
    assert payload["detail"] == f'chart key $["charts"]["{key}"] is not a maximal cone of the fan'


@pytest.mark.parametrize("command", ["check", "glue"])
def test_descent_fan_is_validated(tmp_path, capsys, command):
    data = json.loads((FIXTURES / "descent_p2_ok.json").read_text())
    data["fan"]["cones"].remove([])
    target = tmp_path / "descent.json"
    target.write_text(json.dumps(data))
    code, payload = invoke(capsys, "descent", command, str(target))
    assert (code, payload["error"]) == (2, "fan")
    assert payload["detail"].startswith("face-closure:")


@pytest.mark.parametrize("command", ["check", "glue"])
def test_descent_fan_error_names_the_first_failing_axiom(tmp_path, capsys, command):
    """A zero ray makes the chart bases fail first; the error is still a
    fan error naming the ray, as under rep validate --category cdelta."""
    data = json.loads((FIXTURES / "descent_p2_ok.json").read_text())
    data["fan"]["rays"][0] = [0, 0]
    target = tmp_path / "descent.json"
    target.write_text(json.dumps(data))
    code, payload = invoke(capsys, "descent", command, str(target))
    assert (code, payload["error"]) == (2, "fan")
    assert payload["detail"] == "rays: ray 1 = (0, 0) is zero or not primitive"


STRAY_OVERRIDES = [
    # (command, the file that carries the fan, where its fan sits, expected exit and error)
    (("fan", "validate"), "fan_p2.json", (), (1, None)),
    (("fan", "dual"), "fan_p2.json", (), (1, None)),
    (("fan", "gluing"), "fan_p2.json", (), (1, None)),
    (("quiver", "build"), "fan_p2.json", (), (1, None)),
    (("descent", "check"), "descent_p2_ok.json", ("fan",), (2, "fan")),
    (("rep", "validate"), "fan_p2.json", (), (2, "fan")),
]


@pytest.mark.parametrize("key", ["1", "4,5"])
@pytest.mark.parametrize(
    "command,name,where,expected", STRAY_OVERRIDES, ids=[" ".join(c[0]) for c in STRAY_OVERRIDES]
)
def test_basis_override_off_a_maximal_cone_is_rejected(tmp_path, capsys, command, name, where, expected, key):
    """A basis given for a cone that is not maximal (a ray of P2, or no
    cone at all) is a basis-override failure, not silently dropped."""
    data = json.loads((FIXTURES / name).read_text())
    fan = data
    for part in where:
        fan = fan[part]
    fan.setdefault("bases", {})[key] = [[1, 0], [0, 1]]
    target = tmp_path / name
    target.write_text(json.dumps(data))
    argv = [*command, str(target)]
    if command == ("quiver", "build"):
        argv += ["--family", "fan"]
    elif command == ("rep", "validate"):
        argv = [*command, fx("rep_p1_ok.json"), "--category", "cdelta", "--fan", str(target)]
    code, payload = invoke(capsys, *argv)
    detail = f"basis for {tuple(int(i) for i in key.split(','))} is not on a maximal cone"
    if expected[0] == 1:
        assert code == 1
        assert payload["violations"] == [{"condition": "basis-override", "location": [], "detail": detail}]
    else:
        assert (code, payload["error"]) == expected
        assert payload["detail"] == f"basis-override: {detail}"


@pytest.mark.parametrize("command", ["validate", "dual"])
def test_basis_override_that_is_not_unimodular_is_one_violation(tmp_path, capsys, command):
    """fan validate checks the chart bases under the file's overrides, and
    reports a bad one as the same violation fan dual does."""
    data = json.loads((FIXTURES / "fan_p2.json").read_text())
    data["bases"] = {"1,2": [[2, 0], [0, 1]]}
    target = tmp_path / "fan.json"
    target.write_text(json.dumps(data))
    code, payload = invoke(capsys, "fan", command, str(target))
    assert code == 1
    assert payload["violations"] == [
        {"condition": "basis-override", "location": [], "detail": "basis for (1, 2) has |det| != 1"}
    ]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_process_without_a_verdict_code():
    """A reader that closed its end of the pipe ends fanrep by SIGPIPE, not
    by a BrokenPipeError traceback and exit 1, the "violations found" code."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fanrep", "fan", "validate", fx("fan_p2.json")],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode not in (0, 1)
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["rep", "validate", "x"], ["bogus"]])
def test_usage_error_is_returned_in_process(argv):
    result = run(argv)
    assert (result.status, result.payload["error"], result.exit_code) == ("error", "usage", 2)
    assert result.payload["detail"].startswith("usage: fanrep")
    assert "error:" in result.payload["detail"]


def test_usage_error_through_main_is_argparse_text_on_stderr(capsys):
    assert main(["rep", "validate", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fanrep rep validate")
    assert "the following arguments are required: --category" in captured.err


def test_help_still_exits_0_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rep", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fanrep rep")


def test_delta_key_must_have_three_parts(tmp_path, capsys):
    data = json.loads((FIXTURES / "descent_p2_ok.json").read_text())
    data["deltas"]["1,2|1,3"] = data["deltas"].pop("1,2|1,3|1")
    target = tmp_path / "descent.json"
    target.write_text(json.dumps(data))
    code, payload = invoke(capsys, "descent", "check", str(target))
    assert (code, payload["error"]) == (2, "parse")
    assert """delta key $["deltas"]["1,2|1,3"] is not of the form K|K'|J""" in payload["detail"]


def test_quiver_build_size_must_be_ascii_digits(capsys):
    code, payload = invoke(capsys, "quiver", "build", "+2", "--family", "hypercube")
    assert (code, payload["error"]) == (2, "parse")
    assert "'+2'" in payload["detail"]


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


FAN_FIXTURES = [
    "fan_p1.json",
    "fan_p2.json",
    "fan_c2.json",
    "fan_cxcstar.json",
    "fan_nonsmooth.json",
    "fan_missing_zero_cone.json",
    "fan_nonprimitive_ray.json",
    "fan_dependent_rays.json",
    "fan_unknown_ray.json",
    "fan_cxcstar_override.json",
]

QUIVER_FIXTURES = ["quiver_p1.json", "quiver_q2.json"]

REP_FIXTURES = [
    "rep_cn_ok.json",
    "rep_cn_bad_i.json",
    "rep_cn_bad_ii.json",
    "rep_csigma_bad_iii.json",
    "rep_loop2.json",
    "rep_loop3.json",
]

DESCENT_FIXTURES = [
    "descent_p1_ok.json",
    "descent_p1_delta3.json",
    "descent_p1_transport_bad.json",
    "descent_p2_ok.json",
    "descent_p2_cocycle_bad.json",
    "descent_p2_conjugation_bad.json",
]


@pytest.mark.parametrize("name", FAN_FIXTURES)
def test_fan_roundtrip_bit_exact(name):
    text = (FIXTURES / name).read_text()
    fan, overrides = fan_from_json(json.loads(text))
    assert canonical(fan_to_json(fan, overrides or None)) == text


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_quiver_roundtrip_bit_exact(name):
    text = (FIXTURES / name).read_text()
    quiver = quiver_from_json(json.loads(text))
    assert canonical(quiver_to_json(quiver)) == text


@pytest.mark.parametrize("name", REP_FIXTURES)
def test_rep_roundtrip_bit_exact(name):
    text = (FIXTURES / name).read_text()
    rep = rep_from_json(json.loads(text))
    assert canonical(rep_to_json(rep)) == text


@pytest.mark.parametrize("name", ["rep_p1_ok.json", "rep_p1_bad.json"])
def test_rep_roundtrip_without_inline_quiver(name):
    from fanrep.geometry import chart_bases
    from fanrep.quivers import fan_quiver

    fan, _ = fan_from_json(json.loads((FIXTURES / "fan_p1.json").read_text()))
    quiver = fan_quiver(fan)
    text = (FIXTURES / name).read_text()
    rep = rep_from_json(json.loads(text), quiver=quiver)
    assert canonical(rep_to_json(rep, include_quiver=False)) == text


@pytest.mark.parametrize("name", DESCENT_FIXTURES)
def test_descent_roundtrip_bit_exact(name):
    text = (FIXTURES / name).read_text()
    datum = descent_from_json(json.loads(text))
    assert canonical(descent_to_json(datum)) == text


def test_command_result_roundtrip(capsys):
    # the report JSON itself parses back to the same document
    code = main(["fan", "validate", fx("fan_p2.json")])
    out = capsys.readouterr().out
    assert canonical(json.loads(out)) == out


def matrix_and_map_paths(node, path=()):
    """Paths of the map-valued fields (objects) and matrix-valued fields
    (lists of lists, or []) below a JSON node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, dict) or (
            isinstance(value, list) and all(isinstance(row, list) for row in value)
        ):
            yield path + (key,)
        yield from matrix_and_map_paths(value, path + (key,))


def test_single_field_mutations_never_crash(tmp_path, monkeypatch):
    """Each fixture with one map or matrix field replaced by an object, a
    string, a number or a list of strings, through the fixture's golden
    commands: every run ends in exit 0, 1 or 2, never an exception."""
    monkeypatch.chdir(FIXTURES)
    runs = []
    for name in sorted({arg for argv in commands() for arg in argv if arg.endswith(".json")}):
        if name == "malformed.json":
            continue
        data = json.loads((FIXTURES / name).read_text())
        argvs = [argv for argv in commands() if name in argv]
        for path in matrix_and_map_paths(data):
            for value in ({"a": 1}, "12", 1, ["1"]):
                runs += [(name, data, path, value, argv) for argv in argvs]
    rng = random.Random(0)
    for name, data, path, value, argv in rng.sample(runs, 600):
        mutated = json.loads(json.dumps(data))
        node = mutated
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = tmp_path / name
        target.write_text(json.dumps(mutated))
        result = run([str(target) if arg == name else arg for arg in argv])
        assert result.exit_code in (0, 1, 2), (name, path, value, argv)


def test_run_leaves_no_cyclic_garbage_and_builds_no_parser(monkeypatch):
    """The parser is built once, on import, and a run leaves nothing for
    the cyclic collector, on every golden command.  Only run is counted:
    the indented JSON dump that main prints leaves garbage of its own."""
    monkeypatch.chdir(FIXTURES)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    left = {}
    gc.collect()
    gc.disable()
    try:
        for argv in commands():
            run(argv)
            found = gc.collect()
            if found:
                left[" ".join(argv)] = found
    finally:
        gc.enable()
    assert left == {}
    assert built == []


def subcommands(parser):
    """{name: subparser} of a parser's one subcommand level."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert action.required
    return action.choices


def command_tree(parser):
    """{"group command": (positionals, {option: (dest, choices, default,
    required)}, handler)} for every command of the parser."""
    tree = {}
    for group, group_parser in subcommands(parser).items():
        for name, p in subcommands(group_parser).items():
            actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            positionals = [a.dest for a in actions if not a.option_strings]
            options = {
                a.option_strings[0]: (a.dest, a.choices, a.default, a.required)
                for a in actions
                if a.option_strings
            }
            tree[f"{group} {name}"] = (positionals, options, p.get_default("handler"))
    return tree


def test_the_command_tree_is_pinned():
    assert command_tree(cli.build_parser()) == {
        "fan validate": (["path"], {}, cli.cmd_fan_validate),
        "fan dual": (["path"], {}, cli.cmd_fan_dual),
        "fan gluing": (["path"], {}, cli.cmd_fan_gluing),
        "quiver build": (
            ["target"],
            {"--family": ("family", ["fan", "hypercube", "arrangement"], "fan", False)},
            cli.cmd_quiver_build,
        ),
        "rep validate": (
            ["path"],
            {
                "--category": ("category", ["cn", "csigma", "cdelta"], None, True),
                "--fan": ("fan", None, None, False),
            },
            cli.cmd_rep_validate,
        ),
        "rep hom": (["path_a", "path_b"], {}, cli.cmd_rep_hom),
        "rep iso": (
            ["path_a", "path_b"],
            {
                "--seed": ("seed", None, 0, False),
                "--max-attempts": ("max_attempts", None, 200, False),
            },
            cli.cmd_rep_iso,
        ),
        "descent check": (["path"], {}, cli.cmd_descent_check),
        "descent glue": (["path"], {}, cli.cmd_descent_glue),
    }


def test_every_cmd_function_is_bound_to_exactly_one_command():
    bound = Counter(handler.__name__ for _, _, handler in command_tree(cli.build_parser()).values())
    defined = {name for name in vars(cli) if name.startswith("cmd_")}
    assert set(bound) == defined
    assert set(bound.values()) == {1}
