"""Self-tests of the benchmark's generator and tracer.

Run from the root of a checkout:  PYTHONPATH=src python -m pytest perfbench
(or  PYTHONPATH=src python3 perfbench/test_perfbench.py  without pytest).
"""

import sys
import types

import fanrep
import inputs
import tracing
from fanrep import (
    FanError,
    chart_bases,
    descent_from_json,
    fan_from_json,
    fan_quiver,
    rep_from_json,
    validate_CDelta,
    validate_CSigma,
    validate_Cn,
    validate_descent,
    validate_fan,
)


def conditions(category, data, files) -> set:
    """Conditions the library reports for one generated file."""
    if category == "fan":
        fan, _ = fan_from_json(data)
        try:
            validate_fan(fan)
        except FanError as exc:
            return {exc.axiom}
        return set()
    if category == "descent":
        found = validate_descent(descent_from_json(data))
    elif category in ("cn", "csigma"):
        found = {"cn": validate_Cn, "csigma": validate_CSigma}[category](rep_from_json(data))
    else:
        _, fan_file = category
        fan, overrides = fan_from_json(files[fan_file][1])
        bases = chart_bases(fan, overrides)
        found = validate_CDelta(rep_from_json(data, quiver=fan_quiver(fan, bases)), fan, bases)
    return {v.condition for v in found}


def test_valid_inputs_are_valid_and_planted_ones_report_their_condition():
    for workload, build in inputs.ROUND_GENERATORS.items():
        # CLI rounds are cheap to validate and hold all the planted inputs
        for seed in range(20) if workload == "cli_mixed" else (0, 7):
            for item in build(inputs.random.Random(seed)):
                item.files = {name: (reader, inputs.encode(data)) for name, (reader, data) in item.files.items()}
                for name, category in item.checks.items():
                    found = conditions(category, item.files[name][1], item.files)
                    where = f"{workload} seed {seed} {item.name}/{name}"
                    if item.planted is not None and item.planted[0] == name:
                        assert item.planted[1] in found, f"{where}: {sorted(found)}"
                    else:
                        assert found == set(), f"{where}: {sorted(found)}"


def test_planted_iii_breaks_commutation_when_the_other_lines_are_scalar():
    # one round of this seed draws an arrangement representation whose lines
    # 2-4 have scalar monodromy, which no single-entry change to line 1 breaks
    for items in inputs.generate("cli_mixed", 605):
        (item,) = [i for i in items if i.kind == "csigma-planted"]
        assert "iii" in conditions("csigma", item.files["r.json"][1], item.files), item.name


def test_same_seed_gives_same_inputs():
    def files(workload, seed):
        return [(i.name, i.files) for r in inputs.generate(workload, seed) for i in r]

    for workload in inputs.ROUND_GENERATORS:
        first = files(workload, 3)
        assert len(first) == len(set(name for name, _ in first))
        assert first == files(workload, 3)
        assert first != files(workload, 4)


def test_default_seed_output_without_a_recorded_digest_fails():
    import run

    class Job:
        name = "r1-unpinned"

        def digest(self, out):
            return "d" * 64

        def problems(self, out):
            return []

    assert run.Checker(None).ok(Job(), "out")  # another seed: nothing pinned
    checker = run.Checker({})
    assert not checker.ok(Job(), "out")
    assert checker.problems == ["r1-unpinned: no recorded digest"]


def test_every_binding_is_wrapped_and_an_alias_is_caught():
    import fanrep.reps

    original = fanrep.exactnum.mat_mul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert fanrep.reps.mat_mul is not original and fanrep.mat_mul is not original
        fanrep.reps._aliased_kernel = original
        assert tracer.unwrapped_bindings() == ["fanrep.reps._aliased_kernel"]
        caller = types.ModuleType("caller")
        caller.mat_mul = original  # as after "from fanrep.exactnum import mat_mul"
        assert tracer.unwrapped_bindings([caller]) == ["caller.mat_mul", "fanrep.reps._aliased_kernel"]
    finally:
        del fanrep.reps._aliased_kernel
        tracer.uninstall()
    assert fanrep.reps.mat_mul is original


def test_self_time_excludes_child_spans():
    rng = inputs.random.Random(0)
    quiver, coord = inputs.hypercube_family(2)
    rep = rep_from_json(inputs.encode(inputs.quiver_rep(rng, quiver, inputs.Character(rng, 2, 2), coord)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        # through the module: this file's own import of the name is not wrapped
        assert fanrep.reps.validate_Cn(rep) == []
        tracer.active = False
    finally:
        tracer.uninstall()
    validate = tracer.ids["reps.validate_Cn"]
    assert tracer.calls[validate] == 1
    assert tracer.calls[tracer.ids["exactnum.mat_mul"]] > 0
    spans = range(len(tracer.span_name))
    (top,) = [i for i in spans if tracer.span_name[i] == validate]
    children = sum(tracer.span_end[i] - tracer.span_start[i] for i in spans if tracer.span_parent[i] == top)
    duration = tracer.span_end[top] - tracer.span_start[top]
    assert children > 0
    assert abs(tracer.self_s[validate] - (duration - children)) < 1e-9


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    sys.exit(0)
