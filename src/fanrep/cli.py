"""Command-line interface: JSON in, JSON out, deterministic output.

Exit codes: 0 when the command succeeds and nothing is violated, 1 when
a validation reports violations, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import signal
import sys
from dataclasses import dataclass

from .charts import CocycleError, check_cocycle
from .descent import DescentError, descent_from_json, glue, validate_descent
from .exactnum import NotCompletableError, parse_digits
from .geometry import (
    FanError,
    chart_bases,
    cone_key,
    dual_cone_smooth,
    fan_from_json,
    is_smooth,
    validate_fan,
)
from .quivers import (
    arrangement_quiver,
    fan_quiver,
    hypercube_quiver,
    quiver_to_json,
)
from .reps import (
    ShapeError,
    are_isomorphic,
    hom_basis,
    rep_from_json,
    rep_to_json,
    validate_CDelta,
    validate_CSigma,
    validate_Cn,
)

OK = 0
VIOLATION = 1
ERROR = 2


@dataclass
class CommandResult:
    status: str  # "ok" | "violation" | "error"
    payload: dict

    @property
    def exit_code(self) -> int:
        return {"ok": OK, "violation": VIOLATION, "error": ERROR}[self.status]

    def to_json(self) -> dict:
        return {"status": self.status, **self.payload}


class ParseFailure(Exception):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


def _load(path: str, parse, keep=()):
    """parse(the JSON in path).  A read, JSON or parse error becomes a
    ParseFailure naming path, except an error of type keep (none by
    default), which is raised as it is."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path} is not valid JSON: {exc}")
    try:
        return parse(data)
    except keep:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseFailure(f"{path}: {exc}")


def _load_fan(path: str):
    """The fan in path, which must pass validate_fan, and its chart bases
    under the file's basis overrides.  A failing fan raises FanError."""
    fan, overrides = _load(path, fan_from_json)
    validate_fan(fan)
    return fan, chart_bases(fan, overrides)


def _verdict(violations) -> CommandResult:
    """ok when violations is empty, else a violation result listing them."""
    if violations:
        return CommandResult("violation", {"violations": [v.to_json() for v in violations]})
    return CommandResult("ok", {})


def _single_violation(condition: str, detail: str) -> CommandResult:
    return CommandResult(
        "violation",
        {"violations": [{"condition": condition, "location": [], "detail": detail}]},
    )


def cmd_fan_validate(args) -> CommandResult:
    fan, overrides = _load(args.path, fan_from_json)
    try:
        validate_fan(fan)
    except FanError as exc:
        return _single_violation(exc.axiom, exc.detail)
    smooth = {cone_key(c) or "0": is_smooth(fan, c) for c in fan.sorted_cones()}
    non_smooth = sorted(key for key, ok in smooth.items() if not ok)
    if non_smooth:
        return CommandResult(
            "violation",
            {
                "smooth": smooth,
                "violations": [
                    {"condition": "non-smooth", "location": [key], "detail": "cone is not smooth"}
                    for key in non_smooth
                ],
            },
        )
    try:
        chart_bases(fan, overrides)
    except FanError as exc:
        return _single_violation(exc.axiom, exc.detail)
    return CommandResult("ok", {"smooth": smooth})


def cmd_fan_dual(args) -> CommandResult:
    try:
        fan, bases = _load_fan(args.path)
    except FanError as exc:
        return _single_violation(exc.axiom, exc.detail)
    duals = {}
    for cone, basis in sorted(bases.items(), key=lambda kv: kv[0].ray_indices):
        g = dual_cone_smooth(basis.basis)
        duals[cone_key(cone) or "0"] = {
            "labels": list(basis.labels),
            "basis": basis.basis.to_rows(),
            "dual_generators": g.to_rows(),
        }
    return CommandResult("ok", {"duals": duals})


def cmd_fan_gluing(args) -> CommandResult:
    try:
        fan, bases = _load_fan(args.path)
        table = check_cocycle(fan, bases)
    except FanError as exc:
        return _single_violation(exc.axiom, exc.detail)
    except CocycleError as exc:
        return _single_violation("cocycle", str(exc))
    gluings = {
        f"{cone_key(a) or '0'}|{cone_key(b) or '0'}": m.to_rows()
        for (a, b), m in table.items()
        if a != b
    }
    return CommandResult("ok", {"gluings": gluings, "cocycle": "ok"})


def cmd_quiver_build(args) -> CommandResult:
    family = args.family
    if family == "fan":
        try:
            quiver = fan_quiver(*_load_fan(args.target))
        except FanError as exc:
            return _single_violation(exc.axiom, exc.detail)
    else:
        try:
            n = parse_digits(args.target, "n")
        except ValueError:
            raise ParseFailure(f"--family {family} expects an integer, got {args.target!r}")
        try:
            if family == "hypercube":
                quiver = hypercube_quiver(n)
            else:
                quiver = arrangement_quiver(n)
        except ValueError as exc:
            raise ParseFailure(str(exc))
    return CommandResult("ok", {"quiver": quiver_to_json(quiver)})


def cmd_rep_validate(args) -> CommandResult:
    if args.category == "cdelta":
        if args.fan is None:
            raise ParseFailure("--category cdelta requires --fan")
        fan, bases = _load_fan(args.fan)
        quiver = fan_quiver(fan, bases)
        rep = _load(args.path, lambda data: rep_from_json(data, quiver=quiver), ShapeError)
        violations = validate_CDelta(rep, fan, bases)
    else:
        rep = _load(args.path, rep_from_json, ShapeError)
        validator = {"cn": validate_Cn, "csigma": validate_CSigma}[args.category]
        violations = validator(rep)
    return _verdict(violations)


def _load_rep_pair(args):
    a = _load(args.path_a, rep_from_json, ShapeError)
    b = _load(args.path_b, rep_from_json, ShapeError)
    if a.quiver != b.quiver:
        raise ParseFailure("representations live on different quivers")
    return a, b


def cmd_rep_hom(args) -> CommandResult:
    basis = hom_basis(*_load_rep_pair(args))
    return CommandResult(
        "ok", {"dim": len(basis), "basis": [mor.to_json() for mor in basis]}
    )


def cmd_rep_iso(args) -> CommandResult:
    a, b = _load_rep_pair(args)
    result = are_isomorphic(a, b, seed=args.seed, max_attempts=args.max_attempts)
    payload = {"verdict": result.verdict, "reason": result.reason}
    if result.witness is not None:
        payload["witness"] = result.witness.to_json()
    return CommandResult("ok", payload)


def _load_descent(path: str):
    """The descent datum in path, over a fan that passes validate_fan."""
    datum = _load(path, descent_from_json, (DescentError, FanError))
    validate_fan(datum.fan)
    return datum


def cmd_descent_check(args) -> CommandResult:
    return _verdict(validate_descent(_load_descent(args.path)))


def cmd_descent_glue(args) -> CommandResult:
    datum = _load_descent(args.path)
    try:
        glued = glue(datum)
    except DescentError as exc:
        if not exc.violations:
            raise
        return _verdict(exc.violations)
    self_check = validate_CDelta(glued, datum.fan, datum.bases)
    return CommandResult(
        "ok",
        {
            "representation": rep_to_json(glued),
            "validation": "ok" if not self_check else [v.to_json() for v in self_check],
        },
    )


def build_parser() -> argparse.ArgumentParser:
    """The command tree.  Each subcommand binds its cmd_* function as
    ``handler``, which run calls with the parsed namespace."""
    parser = argparse.ArgumentParser(
        prog="fanrep",
        description="Quiver-representation categories over fans, arrangements, "
        "and normal crossings.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def group(name: str, summary: str):
        return sub.add_parser(name, help=summary).add_subparsers(dest="command", required=True)

    fan_sub = group("fan", "fan validation, duality, gluing")
    for name, handler in (
        ("validate", cmd_fan_validate),
        ("dual", cmd_fan_dual),
        ("gluing", cmd_fan_gluing),
    ):
        p = fan_sub.add_parser(name)
        p.add_argument("path", help="fan JSON file")
        p.set_defaults(handler=handler)

    build = group("quiver", "quiver construction").add_parser("build")
    build.add_argument("target", help="fan JSON file, or n for the other families")
    build.add_argument("--family", choices=["fan", "hypercube", "arrangement"], default="fan")
    build.set_defaults(handler=cmd_quiver_build)

    rep_sub = group("rep", "representation validation and Hom")
    validate = rep_sub.add_parser("validate")
    validate.add_argument("path", help="representation JSON file")
    validate.add_argument("--category", choices=["cn", "csigma", "cdelta"], required=True)
    validate.add_argument("--fan", help="fan JSON file (required for cdelta)")
    validate.set_defaults(handler=cmd_rep_validate)
    hom = rep_sub.add_parser("hom")
    hom.add_argument("path_a")
    hom.add_argument("path_b")
    hom.set_defaults(handler=cmd_rep_hom)
    iso = rep_sub.add_parser("iso")
    iso.add_argument("path_a")
    iso.add_argument("path_b")
    iso.add_argument("--seed", type=int, default=0)
    iso.add_argument("--max-attempts", type=int, default=200)
    iso.set_defaults(handler=cmd_rep_iso)

    descent_sub = group("descent", "descent data checking and gluing")
    for name, handler in (("check", cmd_descent_check), ("glue", cmd_descent_glue)):
        p = descent_sub.add_parser(name)
        p.add_argument("path", help="descent JSON file")
        p.set_defaults(handler=handler)

    return parser


_PARSER = build_parser()


def run(argv=None) -> CommandResult:
    """The result of the command argv.  A usage error is an ``error``
    result whose detail is the text argparse prints; ``--help`` prints its
    text and exits 0 through argparse."""
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise
        return CommandResult("error", {"error": "usage", "detail": usage.getvalue()})
    try:
        return args.handler(args)
    except ParseFailure as exc:
        return CommandResult("error", {"error": "parse", "detail": exc.detail})
    except (FanError, NotCompletableError) as exc:
        return CommandResult("error", {"error": "fan", "detail": str(exc)})
    except ShapeError as exc:
        return CommandResult("error", {"error": "shape", "detail": str(exc)})
    except DescentError as exc:
        return CommandResult("error", {"error": "descent-structure", "detail": str(exc)})
    except ValueError as exc:
        # wrong quiver family for a validator, malformed structures, ...
        return CommandResult("error", {"error": "invalid-input", "detail": str(exc)})


def main(argv=None) -> int:
    """Print the result of argv as JSON and return its exit code; a usage
    error prints argparse's text on stderr instead."""
    result = run(argv)
    if result.payload.get("error") == "usage":
        sys.stderr.write(result.payload["detail"])
    else:
        print(json.dumps(result.to_json(), sort_keys=True, indent=2))
    return result.exit_code


def console_main() -> None:
    # a closed stdout ends the process by SIGPIPE, as it ends cat, and not
    # by a BrokenPipeError whose exit status 1 reads as "violations found"
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
