#!/usr/bin/env python3
"""Regenerate the JSON fixture corpus under tests/fixtures.

Every fixture is written in the canonical serialized form (sorted keys,
two-space indent), so the CLI round-trip tests can compare bytes.
"""

import json
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fanrep.descent import DescentDatum, chart_quiver, descent_to_json, section
from fanrep.exactnum import IntMatrix, RatMatrix
from fanrep.geometry import Cone, Fan, chart_bases, fan_to_json, maximal_cones
from fanrep.quivers import arrangement_quiver, fan_quiver, hypercube_quiver, quiver_to_json
from fanrep.reps import Representation, rep_to_json

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def scalar(x):
    return RatMatrix(1, 1, [Fraction(x)])


def dump(name, data):
    path = FIXTURES / name
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(FIXTURES.parent.parent)}")


def p1_fan():
    return Fan(1, [(1,), (-1,)], [(), (1,), (2,)])


def p2_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])


def p1_rep(m1, m2):
    quiver = fan_quiver(p1_fan())
    return Representation(
        quiver,
        {v: 1 for v in quiver.vertices},
        {((), (1,)): scalar(1), ((), (2,)): scalar(1)},
        {((), (1,)): scalar(Fraction(m1) - 1), ((), (2,)): scalar(Fraction(m2) - 1)},
    )


def p1_descent(m1, m2, delta=1):
    fan = p1_fan()
    bases = chart_bases(fan)
    k1, k2 = Cone((1,)), Cone((2,))
    charts = {}
    for cone, m in [(k1, m1), (k2, m2)]:
        quiver = chart_quiver(fan, bases, cone)
        edge = ((), cone.ray_indices)
        charts[cone] = Representation(
            quiver,
            {v: 1 for v in quiver.vertices},
            {edge: scalar(1)},
            {edge: scalar(Fraction(m) - 1)},
        )
    return DescentDatum(fan, charts, {(k1, k2, ()): scalar(delta)}, bases=bases)


def cxcstar_fan():
    return Fan(2, [(1, 0)], [(), (1,)])


def cxcstar_maps(v, loop_low, loop_high):
    """u = 1, the given v and loop maps on the one arrow and the two
    vertices of the C x C* quiver, whose every vertex carries loop 2."""
    edge = ((), (1,))
    return {edge: scalar(1)}, {edge: scalar(v)}, {((), 2): scalar(loop_low), ((1,), 2): scalar(loop_high)}


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)

    # --- fans ---
    dump("fan_p1.json", fan_to_json(p1_fan()))
    dump("fan_p2.json", fan_to_json(p2_fan()))
    dump("fan_c2.json", fan_to_json(Fan.from_single_cone(2, [(1, 0), (0, 1)])))
    dump("fan_cxcstar.json", fan_to_json(cxcstar_fan()))
    dump("fan_nonsmooth.json", fan_to_json(Fan.from_single_cone(2, [(1, 0), (1, 2)])))
    dump("fan_missing_zero_cone.json", {"dim": 1, "rays": [[1], [-1]], "cones": [[1], [2]]})
    dump("fan_nonprimitive_ray.json", {"dim": 1, "rays": [[2]], "cones": [[], [1]]})
    dump(
        "fan_dependent_rays.json",
        {"dim": 2, "rays": [[1, 0], [-1, 0]], "cones": [[], [1], [2], [1, 2]]},
    )
    dump("fan_unknown_ray.json", {"dim": 1, "rays": [[1]], "cones": [[], [9]]})
    dump(
        "fan_cxcstar_override.json",
        fan_to_json(
            cxcstar_fan(),
            {Cone((1,)): IntMatrix.from_columns([(1, 0), (1, 1)])},
        ),
    )

    # --- quivers ---
    dump("quiver_p1.json", quiver_to_json(fan_quiver(p1_fan())))
    dump("quiver_q2.json", quiver_to_json(hypercube_quiver(2)))

    # --- representations ---
    dump("rep_p1_ok.json", rep_to_json(p1_rep(2, Fraction(1, 2)), include_quiver=False))
    dump("rep_p1_bad.json", rep_to_json(p1_rep(2, 2), include_quiver=False))

    q2 = hypercube_quiver(2)
    dump("rep_cn_ok.json", rep_to_json(Representation(q2, {v: 1 for v in q2.vertices})))

    q1 = hypercube_quiver(1)
    dump(
        "rep_cn_bad_i.json",
        rep_to_json(
            Representation(
                q1,
                {(): 1, (1,): 1},
                {((), (1,)): scalar(1)},
                {((), (1,)): scalar(-1)},
            )
        ),
    )

    ones = {e: scalar(1) for e in q2.arrow_pairs}
    v_bad = dict(ones)
    v_bad[((1,), (1, 2))] = scalar(2)
    dump(
        "rep_cn_bad_ii.json",
        rep_to_json(Representation(q2, {v: 1 for v in q2.vertices}, ones, v_bad)),
    )

    arr = arrangement_quiver(3)
    dims = {v: 0 for v in arr.vertices}
    dims[()] = 2
    dims[(1,)] = 2
    dims[(2,)] = 2
    m1 = RatMatrix.from_rows([[1, 1], [0, 1]])
    m2 = RatMatrix.from_rows([[1, 0], [1, 1]])
    ident = RatMatrix.identity(2)
    dump(
        "rep_csigma_bad_iii.json",
        rep_to_json(
            Representation(
                arr,
                dims,
                {((), (1,)): m1.sub(ident), ((), (2,)): m2.sub(ident)},
                {((), (1,)): ident, ((), (2,)): ident},
            )
        ),
    )

    # shape mismatch: 1x1 u between dims 1 and 2 (construction must fail,
    # so write the raw JSON by hand)
    dump(
        "rep_shape_mismatch.json",
        {
            "quiver": quiver_to_json(q1),
            "dims": {"": 1, "1": 2},
            "u": {"-1": [["1"]]},
            "v": {"-1": [["0", "0"]]},
            "loops": {},
        },
    )
    dump(
        "rep_bad_rational.json",
        {
            "quiver": quiver_to_json(q1),
            "dims": {"": 1, "1": 1},
            "u": {"-1": [["0.5"]]},
            "v": {"-1": [["0"]]},
            "loops": {},
        },
    )

    # the loop 2 at the two ends does not transport along u or v
    cxcstar_quiver = fan_quiver(cxcstar_fan())
    dump(
        "rep_cxcstar_loop_bad.json",
        rep_to_json(
            Representation(cxcstar_quiver, {(): 1, (1,): 1}, *cxcstar_maps(1, 2, 3)),
            include_quiver=False,
        ),
    )

    loop_quiver = {"vertices": [[]], "arrows": [], "loops": {"": [1]}}
    dump(
        "rep_loop2.json",
        {"quiver": loop_quiver, "dims": {"": 1}, "u": {}, "v": {}, "loops": {":1": [["2"]]}},
    )
    dump(
        "rep_loop3.json",
        {"quiver": loop_quiver, "dims": {"": 1}, "u": {}, "v": {}, "loops": {":1": [["3"]]}},
    )

    # --- descent data ---
    dump("descent_p1_ok.json", descent_to_json(p1_descent(2, Fraction(1, 2))))
    dump("descent_p1_delta3.json", descent_to_json(p1_descent(2, Fraction(1, 2), delta=3)))
    dump("descent_p1_transport_bad.json", descent_to_json(p1_descent(2, 2)))

    # one chart, whose loop 2 does not transport along u (v = 0, so it does along v)
    fan = cxcstar_fan()
    cone = Cone((1,))
    chart = Representation(
        chart_quiver(fan, chart_bases(fan), cone), {(): 1, (1,): 1}, *cxcstar_maps(0, 2, 3)
    )
    dump("descent_cxcstar_loop_bad.json", descent_to_json(DescentDatum(fan, {cone: chart}, {})))

    quiver = fan_quiver(p2_fan())
    trivial = Representation(quiver, {v: 1 for v in quiver.vertices})
    datum = section(trivial, p2_fan())
    dump("descent_p2_ok.json", descent_to_json(datum))
    bad = descent_to_json(datum)
    bad["deltas"]["1,2|2,3|"] = [["2"]]
    dump("descent_p2_cocycle_bad.json", bad)

    conj = descent_to_json(datum)
    conj["charts"]["2,3"]["u"]["-2"] = [["1"]]
    dump("descent_p2_conjugation_bad.json", conj)

    # a delta on a vertex outside its pair's overlap (1,2 and 1,3 share only ray 1)
    stray = descent_to_json(datum)
    stray["deltas"]["1,2|1,3|2"] = [["1"]]
    dump("descent_p2_stray_delta.json", stray)

    (FIXTURES / "malformed.json").write_text("{ not json", encoding="utf-8")
    print("wrote tests/fixtures/malformed.json")


if __name__ == "__main__":
    main()
