#!/usr/bin/env python3
"""End-to-end walkthrough on the projective plane fan.

Builds the fan, fixes chart bases, prints the gluing exponents, builds
the fan quiver, validates a representation and a broken mutation of it,
computes a Hom space, and runs a descent round trip.
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fanrep.charts import check_cocycle
from fanrep.descent import glue, section
from fanrep.exactnum import RatMatrix
from fanrep.geometry import Fan, chart_bases, cone_key, dual_cone_smooth, maximal_cones, validate_fan
from fanrep.quivers import fan_quiver
from fanrep.reps import Representation, hom_basis, validate_CDelta


def scalar(x):
    return RatMatrix(1, 1, [Fraction(x)])


def main():
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
    validate_fan(fan)
    print("fan: 3 rays, 7 cones, valid")

    bases = chart_bases(fan)
    for cone in maximal_cones(fan):
        g = dual_cone_smooth(bases[cone].basis)
        print(f"chart {cone_key(cone)}: basis {bases[cone].basis.to_rows()}, dual {g.to_rows()}")

    for (a, b), m in check_cocycle(fan, bases).items():
        if a != b:
            print(f"gluing {cone_key(a)} -> {cone_key(b)}: {m.to_rows()}")

    quiver = fan_quiver(fan, bases)
    print(f"fan quiver: {len(quiver.vertices)} vertices, {len(quiver.arrow_pairs)} arrow pairs")

    dims = {v: 1 for v in quiver.vertices}
    u = {e: scalar(0) for e in quiver.arrow_pairs}
    v = {e: scalar(0) for e in quiver.arrow_pairs}
    u[((1,), (1, 2))] = scalar(1)
    v[((1,), (1, 2))] = scalar(1)
    u[((1,), (1, 3))] = scalar(1)
    v[((1,), (1, 3))] = scalar(Fraction(-1, 2))
    rep = Representation(quiver, dims, u, v)
    print("valid representation:", validate_CDelta(rep, fan, bases) == [])

    v_bad = dict(v)
    v_bad[((1,), (1, 3))] = scalar(Fraction(1, 2))
    bad = Representation(quiver, dims, u, v_bad)
    violations = validate_CDelta(bad, fan, bases)
    print(f"mutated representation: {len(violations)} violations, e.g. {violations[0]}")

    print("dim End:", len(hom_basis(rep, rep)))

    datum = section(rep, fan, bases)
    assert glue(datum) == rep
    print("descent round trip: glue(section(rep)) == rep")


if __name__ == "__main__":
    main()
