"""Descent data: validation, gluing, and the section round trips."""

import gc
import importlib.util
import itertools
import json
import pathlib
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_kernels as ref
from fanrep import descent, exactnum, quivers, reps
from fanrep.descent import (
    DescentDatum,
    DescentError,
    DescentMorphism,
    chart_quiver,
    descent_from_json,
    descent_to_json,
    glue,
    glue_morphism,
    overlaps,
    section,
    validate_descent,
)
from fanrep.exactnum import NotInvertibleError, RatMatrix, invert, mat_mul
from fanrep.geometry import Cone, Fan, FanError, chart_bases, fan_from_json, loop_reference, maximal_cones
from fanrep.quivers import Quiver, fan_quiver
from fanrep.reps import (
    DirectionResolver,
    Morphism,
    Representation,
    hom_basis,
    rep_to_json,
    validate_CDelta,
    violation_sort_key,
)


def scalar(x):
    return RatMatrix(1, 1, [Fraction(x)])


def p1_fan():
    return Fan(1, [(1,), (-1,)], [(), (1,), (2,)])


def p2_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])


def c2_fan():
    return Fan.from_single_cone(2, [(1, 0), (0, 1)])


def p1_datum(m1, m2, delta=1):
    """P^1 descent datum with scalar chart monodromies m1, m2."""
    fan = p1_fan()
    bases = chart_bases(fan)
    k1, k2 = Cone((1,)), Cone((2,))
    charts = {}
    for cone, m in [(k1, m1), (k2, m2)]:
        quiver = chart_quiver(fan, bases, cone)
        edge = ((), cone.ray_indices)
        charts[cone] = Representation(
            quiver,
            {vtx: 1 for vtx in quiver.vertices},
            {edge: scalar(1)},
            {edge: scalar(Fraction(m) - 1)},
        )
    deltas = {(k1, k2, ()): scalar(delta)}
    return DescentDatum(fan, charts, deltas, bases=bases)


def p1_valid_rep(m1=Fraction(2)):
    fan = p1_fan()
    quiver = fan_quiver(fan)
    m2 = 1 / Fraction(m1)
    return Representation(
        quiver,
        {vtx: 1 for vtx in quiver.vertices},
        {((), (1,)): scalar(1), ((), (2,)): scalar(1)},
        {((), (1,)): scalar(m1 - 1), ((), (2,)): scalar(m2 - 1)},
    )


class TestValidateDescent:
    def test_p1_compatible_charts_ok(self):
        assert validate_descent(p1_datum(2, Fraction(1, 2))) == []

    def test_p1_transport_violation(self):
        violations = validate_descent(p1_datum(2, 2))
        locations = {(v.condition, v.location) for v in violations}
        assert ("transport", ("1", "2", "", 2)) in locations
        assert all(v.condition == "transport" for v in violations)

    def test_single_chart_vacuous(self):
        fan = c2_fan()
        bases = chart_bases(fan)
        cone = Cone((1, 2))
        quiver = chart_quiver(fan, bases, cone)
        chart = Representation(quiver, {vtx: 1 for vtx in quiver.vertices})
        d = DescentDatum(fan, {cone: chart}, {}, bases=bases)
        assert validate_descent(d) == []

    def test_invalid_chart_is_reported_with_chart_location(self):
        fan = c2_fan()
        bases = chart_bases(fan)
        cone = Cone((1, 2))
        quiver = chart_quiver(fan, bases, cone)
        u = {e: scalar(0) for e in quiver.arrow_pairs}
        v = {e: scalar(0) for e in quiver.arrow_pairs}
        u[((), (1,))] = scalar(1)
        v[((), (1,))] = scalar(-1)  # singular monodromy in the chart
        chart = Representation(quiver, {vtx: 1 for vtx in quiver.vertices}, u, v)
        d = DescentDatum(fan, {cone: chart}, {}, bases=bases)
        violations = validate_descent(d)
        assert ("i", ("1,2", "-1")) in {(x.condition, x.location) for x in violations}

    def test_missing_delta_rejected(self):
        fan = p1_fan()
        bases = chart_bases(fan)
        k1, k2 = Cone((1,)), Cone((2,))
        charts = {}
        for cone in (k1, k2):
            quiver = chart_quiver(fan, bases, cone)
            charts[cone] = Representation(quiver, {vtx: 1 for vtx in quiver.vertices})
        with pytest.raises(DescentError):
            DescentDatum(fan, charts, {}, bases=bases)

    def test_singular_delta_rejected(self):
        with pytest.raises(DescentError):
            p1_datum(2, Fraction(1, 2), delta=0)

    def test_conjugation_violation(self):
        # two charts sharing an edge: fan with maximal cones (1,) and (1,2)? no;
        # use the fan with two 2d charts sharing the ray 1 in Z^2
        fan = Fan(
            2,
            [(1, 0), (0, 1), (0, -1)],
            [(), (1,), (2,), (3,), (1, 2), (1, 3)],
        )
        bases = chart_bases(fan)
        k12, k13 = Cone((1, 2)), Cone((1, 3))
        charts = {}
        for cone in (k12, k13):
            quiver = chart_quiver(fan, bases, cone)
            u = {e: scalar(0) for e in quiver.arrow_pairs}
            v = {e: scalar(0) for e in quiver.arrow_pairs}
            charts[cone] = Representation(
                quiver, {vtx: 1 for vtx in quiver.vertices}, u, v
            )
        # break the shared u on edge () -> (1,): charts disagree, delta = Id
        u = dict(charts[k13].u)
        u[((), (1,))] = scalar(1)
        charts[k13] = Representation(
            charts[k13].quiver, charts[k13].dims, u, charts[k13].v
        )
        deltas = {}
        for j in [(), (1,)]:
            deltas[(k12, k13, j)] = scalar(1)
        d = DescentDatum(fan, charts, deltas, bases=bases)
        violations = validate_descent(d)
        conds = {(x.condition, x.location) for x in violations}
        assert ("conjugation", ("1,2", "1,3", "-1", "u")) in conds


class TestGlue:
    def test_single_chart_glue_is_chart(self):
        fan = c2_fan()
        bases = chart_bases(fan)
        cone = Cone((1, 2))
        quiver = chart_quiver(fan, bases, cone)
        u = {e: scalar(1) for e in quiver.arrow_pairs}
        v = {e: scalar(1) for e in quiver.arrow_pairs}
        chart = Representation(quiver, {vtx: 1 for vtx in quiver.vertices}, u, v)
        d = DescentDatum(fan, {cone: chart}, {}, bases=bases)
        glued = glue(d)
        assert glued.dims == chart.dims
        assert glued.u == chart.u and glued.v == chart.v

    def test_p1_scalar_assembly(self):
        d = p1_datum(2, Fraction(1, 2))
        glued = glue(d)
        assert glued == p1_valid_rep(Fraction(2))

    def test_glue_validates_output(self):
        d = p1_datum(2, Fraction(1, 2), delta=7)
        glued = glue(d)
        assert validate_CDelta(glued, p1_fan()) == []

    def test_invalid_datum_raises(self):
        with pytest.raises(DescentError):
            glue(p1_datum(2, 2))

    def test_invalid_datum_error_carries_every_violation(self):
        d = p1_datum(2, 2)
        with pytest.raises(DescentError) as info:
            glue(d)
        assert info.value.violations == validate_descent(d) != []

    def test_nontrivial_delta_conjugates_arrows(self):
        d = p1_datum(2, Fraction(1, 2), delta=3)
        glued = glue(d)
        # owner of () is chart (1,), so the edge into chart (2,) is routed
        # through delta: u = 1 * 3, v = (1/2 - 1) / 3
        assert glued.u[((), (2,))] == scalar(3)
        assert glued.v[((), (2,))] == scalar(Fraction(-1, 6))
        assert validate_CDelta(glued, p1_fan()) == []


class TestSection:
    def test_p1_section_has_identity_deltas(self):
        rep = p1_valid_rep()
        d = section(rep, p1_fan())
        for (a, b, j), mat in d.stored_deltas().items():
            assert mat.is_identity()

    def test_section_requires_valid_rep(self):
        fan = p1_fan()
        quiver = fan_quiver(fan)
        bad = Representation(
            quiver,
            {vtx: 1 for vtx in quiver.vertices},
            {((), (1,)): scalar(1), ((), (2,)): scalar(1)},
            {((), (1,)): scalar(1), ((), (2,)): scalar(1)},  # M = 2 both
        )
        with pytest.raises(DescentError):
            section(bad, fan)

    def test_roundtrip_glue_section_exact(self):
        for m in [Fraction(2), Fraction(5, 3), Fraction(-7)]:
            rep = p1_valid_rep(m)
            assert glue(section(rep, p1_fan())) == rep

    def test_section_glue_gives_isomorphic_datum(self):
        d = p1_datum(2, Fraction(1, 2), delta=5)
        e = section(glue(d), p1_fan())
        tops = maximal_cones(d.fan)
        owner = tops[0]  # chart (1,) owns every shared vertex here
        comparison = {}
        for cone in tops:
            maps = {
                vtx: d.delta(cone, owner, vtx) if set(vtx) <= set(owner.ray_indices) and set(vtx) <= set(cone.ray_indices) else RatMatrix.identity(d.charts[cone].dims[vtx])
                for vtx in d.charts[cone].quiver.vertices
            }
            comparison[cone] = Morphism(d.charts[cone], e.charts[cone], maps)
        mor = DescentMorphism(d, e, comparison)
        assert mor.is_valid()
        for cone in tops:
            assert comparison[cone].is_invertible()


class TestChartLoops:
    def test_cxcstar_descent_with_loops(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        bases = chart_bases(fan)
        cone = Cone((1,))
        quiver = chart_quiver(fan, bases, cone)
        chart = Representation(
            quiver,
            {(): 1, (1,): 1},
            loops={((), 2): scalar(2), ((1,), 2): scalar(2)},
        )
        d = DescentDatum(fan, {cone: chart}, {}, bases=bases)
        assert validate_descent(d) == []
        glued = glue(d)
        assert validate_CDelta(glued, fan) == []
        assert glue(section(glued, fan)) == glued

    def test_mismatched_chart_loop_transport(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        bases = chart_bases(fan)
        cone = Cone((1,))
        quiver = chart_quiver(fan, bases, cone)
        chart = Representation(
            quiver,
            {(): 1, (1,): 1},
            u={((), (1,)): scalar(1)},
            loops={((), 2): scalar(2), ((1,), 2): scalar(3)},
        )
        d = DescentDatum(fan, {cone: chart}, {}, bases=bases)
        violations = validate_descent(d)
        assert any(v.condition == "loop" for v in violations)


def p2_descent_from_rep(rep=None):
    fan = p2_fan()
    if rep is None:
        quiver = fan_quiver(fan)
        rep = Representation(quiver, {vtx: 1 for vtx in quiver.vertices})
    return section(rep, fan), fan


class TestCocycle:
    def test_planted_cocycle_violation_detected(self):
        d, fan = p2_descent_from_rep()
        deltas = d.stored_deltas()
        k12, k13, k23 = maximal_cones(fan)
        deltas[(k12, k23, ())] = scalar(2)  # breaks delta(13->23) . delta(12->13)
        bad = DescentDatum(fan, d.charts, deltas, bases=d.bases)
        violations = validate_descent(bad)
        assert any(v.condition == "cocycle" for v in violations)

    def test_consistent_triple_passes(self):
        d, fan = p2_descent_from_rep()
        assert validate_descent(d) == []


class TestGlueMorphism:
    def test_functoriality_on_random_scalar_data(self):
        rng = random.Random(23)
        fan = p1_fan()
        for _ in range(10):
            m = Fraction(rng.choice([2, 3, 5]), rng.choice([1, 2]))
            d1 = p1_datum(m, 1 / m, delta=rng.choice([1, 2, 3]))
            d2 = p1_datum(m, 1 / m, delta=rng.choice([1, 2, 3]))
            # chart morphisms: scalars commuting with everything, delta-compatible
            k1, k2 = maximal_cones(fan)
            c = Fraction(rng.randint(1, 4))
            comp1 = Morphism(
                d1.charts[k1],
                d2.charts[k1],
                {vtx: scalar(c) for vtx in d1.charts[k1].quiver.vertices},
            )
            # compatibility forces the chart-2 component on the overlap
            delta_ratio = mat_mul(
                d2.delta(k1, k2, ()), mat_mul(scalar(c), invert(d1.delta(k1, k2, ())))
            )
            comp2_maps = {
                (): delta_ratio,
                (2,): scalar(
                    delta_ratio.entry(0, 0)
                ),  # transporting along u/v of chart 2 keeps the scalar
            }
            comp2 = Morphism(d1.charts[k2], d2.charts[k2], comp2_maps)
            mor = DescentMorphism(d1, d2, {k1: comp1, k2: comp2})
            assert mor.is_valid()
            glued = glue_morphism(mor)
            assert glued.is_valid()

    def test_glued_hom_dimension_matches_descent_homs(self):
        # 1-dimensional P^1 instances: the space of descent-compatible
        # morphism families, brute-forced as a small nullspace over the
        # scalar unknowns (x_0, x_1) chart 1, (y_0, y_2) chart 2
        from fanrep.exactnum import solve_nullspace

        cases = [
            (Fraction(2), 1, 1),
            (Fraction(2), 1, 3),
            (Fraction(3), 2, 5),
            (Fraction(5, 2), 1, 2),
        ]
        for m, d1_delta, d2_delta in cases:
            d1 = p1_datum(m, 1 / m, delta=d1_delta)
            d2 = p1_datum(m, 1 / m, delta=d2_delta)
            glued_dim = len(hom_basis(glue(d1), glue(d2)))
            k1, k2 = maximal_cones(d1.fan)
            rows = []

            def chart_rows(chart_a, chart_b, x_low, x_high):
                # x_high . u - u' . x_low = 0 and x_low . v - v' . x_high = 0
                edge = chart_a.quiver.arrow_pairs[0]
                row = [Fraction(0)] * 4
                row[x_high] = chart_a.u[edge].entry(0, 0)
                row[x_low] -= chart_b.u[edge].entry(0, 0)
                rows.append(list(row))
                row = [Fraction(0)] * 4
                row[x_low] = chart_a.v[edge].entry(0, 0)
                row[x_high] -= chart_b.v[edge].entry(0, 0)
                rows.append(list(row))

            chart_rows(d1.charts[k1], d2.charts[k1], 0, 1)
            chart_rows(d1.charts[k2], d2.charts[k2], 2, 3)
            # delta compatibility at the shared torus vertex:
            # y_0 . delta1 - delta2 . x_0 = 0
            row = [Fraction(0)] * 4
            row[2] = d1.delta(k1, k2, ()).entry(0, 0)
            row[0] = -d2.delta(k1, k2, ()).entry(0, 0)
            rows.append(row)
            descent_dim = len(solve_nullspace(RatMatrix.from_rows(rows)))
            assert glued_dim == descent_dim


class TestMixedDimensionCharts:
    """Fans whose maximal cones have different dimensions, so vertices
    carry different numbers of loops.  glue takes each vertex from its
    ``loop_reference`` chart, which owns it, and builds no resolver;
    section reads every chart's loops from the direction resolver, so a
    chart that is not a vertex's loop reference gets expansions there."""

    def mixed_fan(self):
        # Z^4: a ray chart (1,) and a 2-dimensional chart (2,3)
        cones = set(Cone((1,)).faces()) | set(Cone((2, 3)).faces())
        return Fan(
            4,
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
            cones,
        )

    def mixed_rep(self):
        fan = self.mixed_fan()
        quiver = fan_quiver(fan)
        dims = {v: 1 for v in quiver.vertices}
        u = {e: scalar(0) for e in quiver.arrow_pairs}
        v = {e: scalar(0) for e in quiver.arrow_pairs}
        u[((), (1,))] = scalar(1)
        v[((), (1,))] = scalar(1)  # arrow monodromy 2 toward ray 1
        loops = {key: scalar(1) for key in (
            ((2,), 7), ((2,), 8), ((3,), 7), ((3,), 8), ((2, 3), 7), ((2, 3), 8),
        )}
        loops[((), 7)] = scalar(2)  # direction e1 = ray 1, must equal the arrow monodromy
        loops[((), 8)] = scalar(3)  # free torus direction e4
        # the edge toward ray 1 has u = v = 1, so the chart-(1,) loops are
        # pinned to the origin operators of the same directions:
        loops[((1,), 4)] = scalar(1)  # e2 direction, matches M at the (2,) arrow
        loops[((1,), 5)] = scalar(1)  # e3 direction
        loops[((1,), 6)] = scalar(3)  # e4 direction, matches the label-8 loop
        return fan, Representation(quiver, dims, u, v, loops)

    def test_quiver_labels(self):
        fan = self.mixed_fan()
        q = fan_quiver(fan)
        assert q.loops[()] == (7, 8)       # reference chart (2,3), two completions
        assert q.loops[(1,)] == (4, 5, 6)  # reference chart (1,), three completions
        assert q.loops[(2,)] == (7, 8)

    def test_validate_and_roundtrip(self):
        fan, rep = self.mixed_rep()
        assert validate_CDelta(rep, fan) == []
        d = section(rep, fan)
        assert validate_descent(d) == []
        assert glue(d) == rep

    def test_loop_tied_to_arrow_monodromy(self):
        fan, rep = self.mixed_rep()
        loops = dict(rep.loop_maps)
        loops[((), 7)] = scalar(5)  # no longer equals the direction-1 monodromy
        bad = Representation(rep.quiver, rep.dims, rep.u, rep.v, loops)
        violations = validate_CDelta(bad, fan)
        assert any(v.condition == "iii" for v in violations)

    def test_cross_label_transport_enforced_globally(self):
        # the direction-e4 loop is labelled 8 at the origin and 6 at the
        # ray-1 vertex; breaking one end must fail global validation the
        # same way it fails the chart-side checks
        fan, rep = self.mixed_rep()
        loops = dict(rep.loop_maps)
        loops[((1,), 6)] = scalar(7)
        bad = Representation(rep.quiver, rep.dims, rep.u, rep.v, loops)
        global_violations = validate_CDelta(bad, fan)
        assert ("loop", ("-1", 6, "u")) in {
            (v.condition, v.location) for v in global_violations
        }
        with pytest.raises(DescentError):
            section(bad, fan)

    def test_full_dim_chart_with_lower_lex_neighbor(self):
        # maximal cones (1,4) and (2,3,5): (1,4) is lexicographically
        # first, but the origin's loop reference, which owns it, is the
        # full-dimensional (2,3,5), so the origin has no loops at all
        cones = set(Cone((1, 4)).faces()) | set(Cone((2, 3, 5)).faces())
        fan = Fan(
            3,
            [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)],
            cones,
        )
        quiver = fan_quiver(fan)
        assert quiver.loops[()] == ()
        assert quiver.loops[(1,)] == (6,)
        rep = Representation(quiver, {v: 1 for v in quiver.vertices})
        assert validate_CDelta(rep, fan) == []
        assert glue(section(rep, fan)) == rep


class TestTwistedLoopDescent:
    """P^1 x C* with 2x2 data: loops built as I + k.BA / I + k.AB so the
    transport identities hold, then chart 2 conjugated by a random g with
    delta = g; gluing must reproduce a valid global representation."""

    def datum(self, rng):
        fan = Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,)])
        quiver = fan_quiver(fan)
        ident = RatMatrix.identity(2)
        while True:
            a = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            b = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            k = rng.choice([1, 2, -1])
            m1 = mat_mul(b, a).add(ident)
            loop_low = mat_mul(b, a).scale(k).add(ident)
            if m1.is_invertible() and loop_low.is_invertible():
                break
        loop_high = mat_mul(a, b).scale(k).add(ident)
        rep = Representation(
            quiver,
            {v: 2 for v in quiver.vertices},
            {((), (1,)): a, ((), (2,)): ident},
            {((), (1,)): b, ((), (2,)): invert(m1).sub(ident)},
            {((), 3): loop_low, ((1,), 3): loop_high, ((2,), 4): loop_low},
        )
        assert validate_CDelta(rep, fan) == []
        base = section(rep, fan)
        while True:
            g = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            if g.is_invertible():
                break
        k1, k2 = maximal_cones(fan)
        c2 = base.charts[k2]
        g_inv = invert(g)
        charts = {
            k1: base.charts[k1],
            k2: Representation(
                c2.quiver,
                c2.dims,
                {e: mat_mul(mat_mul(g, c2.u[e]), g_inv) for e in c2.quiver.arrow_pairs},
                {e: mat_mul(mat_mul(g, c2.v[e]), g_inv) for e in c2.quiver.arrow_pairs},
                {key: mat_mul(mat_mul(g, mat), g_inv) for key, mat in c2.loop_maps.items()},
            ),
        }
        return fan, rep, DescentDatum(fan, charts, {(k1, k2, ()): g}, bases=base.bases)

    def test_twisted_data_glue_to_valid_reps(self):
        rng = random.Random(5150)
        for _ in range(10):
            fan, rep, datum = self.datum(rng)
            assert validate_descent(datum) == []
            glued = glue(datum)
            assert validate_CDelta(glued, fan, datum.bases) == []
            # gluing undoes the twist on the spaces owned by chart 1
            assert glued.dims == rep.dims
            assert len(hom_basis(glued, rep)) == len(hom_basis(rep, rep))


class TestProductFan:
    """Complete product fan (P^1 x P^1): four full-dimensional charts, no
    loops, and two independent inverse-monodromy relations."""

    def fan(self):
        return Fan(
            2,
            [(1, 0), (-1, 0), (0, 1), (0, -1)],
            [(), (1,), (2,), (3,), (4,), (1, 3), (1, 4), (2, 3), (2, 4)],
        )

    def rep(self, mus):
        fan = self.fan()
        quiver = fan_quiver(fan)
        dims = {v: 1 for v in quiver.vertices}
        u = {}
        v = {}
        for e in quiver.arrow_pairs:
            low, high = e
            direction = next(iter(set(high) - set(low)))
            u[e] = scalar(1)
            v[e] = scalar(mus[direction] - 1)
        return fan, Representation(quiver, dims, u, v)

    def test_valid_product_rep(self):
        fan, rep = self.rep({1: Fraction(2), 2: Fraction(1, 2), 3: Fraction(3), 4: Fraction(1, 3)})
        assert validate_CDelta(rep, fan) == []
        assert glue(section(rep, fan)) == rep

    def test_single_factor_violation(self):
        fan, rep = self.rep({1: Fraction(2), 2: Fraction(1, 2), 3: Fraction(3), 4: Fraction(3)})
        violations = validate_CDelta(rep, fan)
        assert violations != []
        assert all(v.condition == "iii" for v in violations)
        # the broken relation names only directions 3 and 4
        for v in violations:
            assert v.location[3] in (3, 4)


def test_descent_json_roundtrip():
    d = p1_datum(2, Fraction(1, 2), delta=3)
    data = descent_to_json(d)
    back = descent_from_json(data)
    assert back == d
    assert descent_to_json(back) == data


def test_descent_json_roundtrip_with_loops():
    fan = Fan(2, [(1, 0)], [(), (1,)])
    bases = chart_bases(fan)
    cone = Cone((1,))
    quiver = chart_quiver(fan, bases, cone)
    chart = Representation(
        quiver,
        {(): 1, (1,): 1},
        loops={((), 2): scalar(2), ((1,), 2): scalar(2)},
    )
    d = DescentDatum(fan, {cone: chart}, {}, bases=bases)
    data = descent_to_json(d)
    assert descent_from_json(data) == d


class TestReverseDelta:
    """A delta given only for the pair (K', K) is stored as its exact
    inverse under the forward key (K, K')."""

    def reverse_only(self, value):
        d = p1_datum(2, Fraction(1, 2))
        k1, k2 = Cone((1,)), Cone((2,))
        return DescentDatum(d.fan, d.charts, {(k2, k1, ()): scalar(value)}, bases=d.bases)

    def test_stores_exact_inverse_under_forward_key(self):
        d = self.reverse_only(3)
        k1, k2 = Cone((1,)), Cone((2,))
        assert d.stored_deltas() == {(k1, k2, ()): scalar(Fraction(1, 3))}
        assert d.delta(k2, k1, ()) == scalar(3)
        assert d == p1_datum(2, Fraction(1, 2), delta=Fraction(1, 3))
        assert validate_descent(d) == []

    def test_json_emits_forward_key(self):
        data = descent_to_json(self.reverse_only(Fraction(-2, 5)))
        assert data["deltas"] == {"1|2|": [["-5/2"]]}
        assert descent_to_json(descent_from_json(data)) == data

    def test_singular_reverse_delta_rejected(self):
        with pytest.raises(DescentError, match="delta for .* is singular"):
            self.reverse_only(0)

    def test_disagreeing_pair_named_by_its_file_key(self):
        path = pathlib.Path(__file__).parent / "fixtures" / "descent_p1_ok.json"
        data = json.loads(path.read_text())
        data["deltas"] = {"1|2|": [["1"]], "2|1|": [["2"]]}
        with pytest.raises(DescentError, match=r"^deltas for 1\|2\| disagree"):
            descent_from_json(data)

    @pytest.mark.parametrize("key", ["2|1|", "1|2|"])
    def test_singular_delta_named_by_its_file_key(self, key):
        path = pathlib.Path(__file__).parent / "fixtures" / "descent_p1_ok.json"
        data = json.loads(path.read_text())
        data["deltas"] = {key: [["0"]]}
        with pytest.raises(DescentError, match=f"^delta for {re.escape(key)} is singular$"):
            descent_from_json(data)


class TestStrayDelta:
    """A delta must sit on a vertex of the overlap of two maximal cones."""

    def with_extra(self, key):
        d, _ = p2_descent_from_rep()
        deltas = d.stored_deltas()
        deltas[key] = scalar(1)
        return DescentDatum(d.fan, d.charts, deltas, bases=d.bases)

    def test_vertex_outside_overlap_rejected(self):
        # (1,2) and (1,3) share only ray 1
        with pytest.raises(DescentError, match=r"delta 1,2\|1,3\|2 does not lie on the overlap"):
            self.with_extra((Cone((1, 2)), Cone((1, 3)), (2,)))

    def test_non_maximal_cone_rejected(self):
        with pytest.raises(DescentError, match=r"delta 1\|1,2\|1 does not lie on the overlap"):
            self.with_extra((Cone((1,)), Cone((1, 2)), (1,)))


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def p2_ok_datum():
    return descent_from_json(json.loads((FIXTURES / "descent_p2_ok.json").read_text()))


class TestReadOnlyAndVerdict:
    """A datum is read-only and validates once; glue and section reuse
    the verdicts kept on the datum and on the glued representation."""

    def test_charts_and_bases_are_read_only(self):
        d = p2_ok_datum()
        cone = maximal_cones(d.fan)[0]
        with pytest.raises(TypeError):
            d.charts[cone] = d.charts[cone]
        with pytest.raises(TypeError):
            d.bases[cone] = d.bases[cone]
        with pytest.raises(TypeError):
            d.charts[cone].u[d.charts[cone].quiver.arrow_pairs[0]] = scalar(1)

    def test_each_call_returns_a_fresh_list(self):
        d = p1_datum(2, 2)
        first = validate_descent(d)
        assert first
        want = list(first)
        first.append(first[0])
        assert validate_descent(d) == want
        with pytest.raises(DescentError) as info:
            glue(d)
        assert info.value.violations == want

    def test_pipeline_checks_squares_once_per_object(self, monkeypatch):
        """The square rows are built once per chart, then once on the
        glued object, whose check section reuses."""
        checked = []

        def counting(rep):
            checked.append(rep)
            return real(rep)

        real = reps._square_rows
        monkeypatch.setattr(reps, "_square_rows", counting)
        d = p2_ok_datum()
        assert validate_descent(d) == []
        glued = glue(d)
        assert validate_CDelta(glued, d.fan, d.bases) == []
        section(glued, d.fan, d.bases)
        assert [id(rep) for rep in checked] == [id(c) for c in d.charts.values()] + [id(glued)]

    def test_a_checked_representation_is_freed_by_reference_counting(self):
        """The C_Delta memo a representation keeps holds no reference back
        to it, so dropping a checked representation leaves no cycle."""
        d = p2_ok_datum()
        gc.collect()
        gc.disable()
        try:
            glued = glue(d)
            assert validate_CDelta(glued, d.fan, d.bases) == []
            assert glue(section(glued, d.fan, d.bases)) == glued
            del glued
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_glue_routes_only_cross_owner_arrows_through_delta(self, monkeypatch):
        d, fan = p2_descent_from_rep()
        validate_descent(d)
        tops = maximal_cones(fan)
        owner = {
            vtx: next(k for k in tops if set(vtx) <= set(k.ray_indices))
            for vtx in fan_quiver(fan).vertices
        }
        crossing = [e for e in fan_quiver(fan).arrow_pairs if owner[e[0]] != owner[e[1]]]
        assert 0 < len(crossing) < len(fan_quiver(fan).arrow_pairs)
        calls = []
        real = DescentDatum.delta

        def counting(self, k, kp, j):
            calls.append((k, kp))
            return real(self, k, kp, j)

        monkeypatch.setattr(DescentDatum, "delta", counting)
        glue(d)
        assert len(calls) == 2 * len(crossing)
        assert all(k != kp for k, kp in calls)


def p1xp1_fan():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    tops = [(1, 3), (1, 4), (2, 3), (2, 4)]
    return Fan(2, rays, [(), (1,), (2,), (3,), (4,)] + tops)


@st.composite
def cocycle_data(draw):
    """A P^2 or (P^1)^2 datum whose charts have dimension n at every
    vertex and zero maps, so that only the cocycle can fail.  Each delta
    is the identity or a random invertible matrix, and one delta at
    J = () is sometimes set to the product that makes its first triple
    hold."""
    fan = draw(st.sampled_from([p2_fan(), p1xp1_fan()]))
    n = draw(st.integers(min_value=1, max_value=2))
    bases = chart_bases(fan)
    tops = maximal_cones(fan)
    charts = {}
    for cone in tops:
        quiver = chart_quiver(fan, bases, cone)
        charts[cone] = Representation(quiver, {vtx: n for vtx in quiver.vertices})
    entries = st.integers(min_value=-2, max_value=2)
    deltas = {}
    for key in overlaps(tops):
        if draw(st.booleans()):
            deltas[key] = RatMatrix.identity(n)
        else:
            mat = RatMatrix(n, n, draw(st.lists(entries, min_size=n * n, max_size=n * n)))
            assume(mat.is_invertible())
            deltas[key] = mat
    if draw(st.booleans()):
        a, b, c = tops[:3]
        deltas[(a, c, ())] = mat_mul(deltas[(b, c, ())], deltas[(a, b, ())])
    return DescentDatum(fan, charts, deltas, bases=bases)


@given(cocycle_data())
@settings(max_examples=60, deadline=None)
def test_cocycle_triples_match_the_ordered_walk(d):
    def rows(violations):
        return [
            (v.condition, v.location, v.detail)
            for v in sorted(violations, key=violation_sort_key)
        ]

    got = [v for v in validate_descent(d) if v.condition == "cocycle"]
    assert rows(got) == rows(ref.cocycle_violations(d))


class TestOneResolver:
    """Every direction operator comes from one cached DirectionResolver
    per validated object."""

    def counting(self, monkeypatch):
        """Counters of RatMatrix.power per (matrix, exponent) and of
        monodromy per (representation, edge, end).  Counted objects are
        kept alive, so no id is reused within a count."""
        powers, monos, alive = Counter(), Counter(), []
        real_power, real_mono = RatMatrix.power, reps.monodromy

        def power(self, k):
            alive.append(self)
            powers[(id(self), k)] += 1
            return real_power(self, k)

        def monodromy(rep, edge, end="low"):
            alive.append(rep)
            monos[(id(rep), tuple(edge), end)] += 1
            return real_mono(rep, edge, end)

        monkeypatch.setattr(RatMatrix, "power", power)
        monkeypatch.setattr(reps, "monodromy", monodromy)
        return powers, monos

    def test_each_power_once_and_each_monodromy_at_most_twice(self, monkeypatch):
        powers, monos = self.counting(monkeypatch)
        d = p2_ok_datum()
        assert validate_descent(d) == []
        assert powers and max(powers.values()) == 1
        assert max(monos.values()) == 1  # condition (i) reads the chart's resolver
        glued = glue(d)
        powers.clear()
        monos.clear()
        assert validate_CDelta(glued, d.fan, d.bases) == []
        assert powers and max(powers.values()) == 1
        assert max(monos.values()) == 1

    def test_one_power_per_operator_and_exponent(self, monkeypatch):
        """Labels whose operators are equal matrices share their powers:
        on (P^1)^3 x C* the completion labels 7-14 of the eight charts
        resolve to one operator at the origin."""
        d = twisted_datum(product_fan(3, 1), 2, random.Random(7).choice)
        glued = glue(d)
        calls = []
        real = RatMatrix.power

        def power(self, k):
            calls.append((self, k))
            return real(self, k)

        monkeypatch.setattr(RatMatrix, "power", power)
        assert validate_CDelta(glued, d.fan, d.bases) == []
        assert calls and len(calls) == len(set(calls))

    def test_section_inverts_no_identity_delta(self, monkeypatch):
        d = p2_ok_datum()
        glued = glue(d)
        assert validate_CDelta(glued, d.fan, d.bases) == []
        calls = []
        real = exactnum.invert

        def invert(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(exactnum, "invert", invert)
        monkeypatch.setattr(descent, "invert", invert)
        back = section(glued, d.fan, d.bases)
        assert calls == []
        for a, b, j in overlaps(maximal_cones(d.fan)):
            assert back.delta(b, a, j) is back.delta(a, b, j)
            assert back.delta(a, b, j).is_identity()


def product_fan(k, e):
    """(P^1)^k x (C*)^e: rays +-e_i for the k projective factors."""
    n = k + e
    rays = [tuple(sign * int(j == i) for j in range(n)) for i in range(k) for sign in (1, -1)]
    picks = itertools.product(*[(None, 2 * i + 1, 2 * i + 2) for i in range(k)])
    return Fan(n, rays, [tuple(x for x in pick if x is not None) for pick in picks])


def non_pure_fan():
    """Maximal cones (1,4) and (2,3,5): the lexicographically first maximal
    cone containing the origin is (1,4), its reference chart is (2,3,5)."""
    cones = set(Cone((1, 4)).faces()) | set(Cone((2, 3, 5)).faces())
    return Fan(3, [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)], cones)


EIGENVALUES = [Fraction(x) for x in ("2", "3", "-2", "1/2", "-1/3")]
# Relation (iii) drops the coordinates on J of a direction's exponents,
# so on P^2 it holds for a torus character only if the character is
# trivial; P^2 data are twists of the trivial representation.
TRIVIAL = [Fraction(1)]


def invertible(n, pick):
    """An n x n invertible matrix: an upper triangular factor with a
    nonzero diagonal times a unipotent lower triangular one."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    upper = [pick((-2, -1, 1, 2)) if i == j else pick(range(-2, 3)) if i < j else 0 for i, j in cells]
    lower = [int(i == j) if i <= j else pick(range(-2, 3)) for i, j in cells]
    return mat_mul(RatMatrix(n, n, upper), RatMatrix(n, n, lower))


def character(p, lams):
    """The torus character chi(m) = p.diag(prod_i lams[j][i] ** m_i).p^-1:
    its operators commute, and two characters of one p share an
    eigenbasis."""
    n = p.rows
    p_inv = invert(p)

    def chi(m):
        diag = [
            prod((lam ** k for lam, k in zip(lams[i], m)), start=Fraction(1)) if i == j else 0
            for i in range(n)
            for j in range(n)
        ]
        return mat_mul(mat_mul(p, RatMatrix(n, n, diag)), p_inv)

    return chi


def twisted_datum(fan, n, pick, eigenvalues=EIGENVALUES):
    """A valid descent datum of dimension n at every vertex, built as the
    benchmark builds its descent data.  A torus character chi(m) =
    P.diag(prod_i lam_ji ** m_i).P^-1 gives commuting operators; chart K
    carries u = g_high.g_low^-1, v = g_low.(chi(ray) - Id).g_high^-1 and
    loops g_J.chi(column).g_J^-1 for a random g^K_J at each vertex J, and
    delta(K, K', J) = g^K'_J.(g^K_J)^-1.  The lam_ji are drawn from
    eigenvalues.  pick(options) chooses one of options, so a hypothesis
    draw and a seeded random.Random both serve."""
    p = invertible(n, pick)
    chi = character(p, [[pick(eigenvalues) for _ in range(fan.dim)] for _ in range(n)])
    bases = chart_bases(fan)
    tops = maximal_cones(fan)
    ident = RatMatrix.identity(n)
    twists = {}
    charts = {}
    for cone in tops:
        quiver = chart_quiver(fan, bases, cone)
        g = {vtx: invertible(n, pick) for vtx in quiver.vertices}
        g_inv = {vtx: invert(mat) for vtx, mat in g.items()}
        twists[cone] = (g, g_inv)
        u, v = {}, {}
        for low, high in quiver.arrow_pairs:
            (added,) = set(high) - set(low)
            u[(low, high)] = mat_mul(g[high], g_inv[low])
            ray_op = chi(fan.ray_vector(added)).sub(ident)
            v[(low, high)] = mat_mul(mat_mul(g[low], ray_op), g_inv[high])
        loops = {
            (vtx, label): mat_mul(mat_mul(g[vtx], chi(bases[cone].column(label))), g_inv[vtx])
            for vtx in quiver.vertices
            for label in quiver.loops[vtx]
        }
        charts[cone] = Representation(quiver, {vtx: n for vtx in quiver.vertices}, u, v, loops)
    deltas = {
        (a, b, j): mat_mul(twists[b][0][j], twists[a][1][j]) for a, b, j in overlaps(tops)
    }
    return DescentDatum(fan, charts, deltas, bases=bases)


TWISTED_FANS = [
    (p2_fan(), TRIVIAL),
    (product_fan(2, 1), EIGENVALUES),
    (non_pure_fan(), EIGENVALUES),
]


@st.composite
def twisted_data(draw):
    """A twisted descent datum over P^2, (P^1)^2 x C* or the non-pure
    (1,4)/(2,3,5) fan, with dimension 1 or 2 at every vertex."""
    fan, eigenvalues = draw(st.sampled_from(TWISTED_FANS))
    n = draw(st.integers(min_value=1, max_value=2))
    return twisted_datum(fan, n, lambda options: draw(st.sampled_from(list(options))), eigenvalues)


@given(twisted_data())
@settings(max_examples=40, deadline=None)
def test_glue_owns_each_vertex_by_its_reference_chart(d):
    assert validate_descent(d) == []
    glued, lexicographic = glue(d), ref.glue(d)
    assert validate_CDelta(glued, d.fan, d.bases) == []
    assert validate_CDelta(lexicographic, d.fan, d.bases) == []
    tops = maximal_cones(d.fan)
    if len({len(cone) for cone in tops}) == 1:
        # a pure fan: both owner rules pick the same chart at every vertex
        assert glued == lexicographic
        return
    # phi_J = delta(lexicographic owner, reference chart, J) is an isomorphism
    owners = {
        vtx: (ref.lexicographic_owner(tops, vtx), loop_reference(d.fan, Cone(vtx)))
        for vtx in glued.quiver.vertices
    }
    assert owners[()] == (Cone((1, 4)), Cone((2, 3, 5)))
    phi = Morphism(lexicographic, glued, {vtx: d.delta(*pair, vtx) for vtx, pair in owners.items()})
    assert phi.is_valid() and phi.is_invertible()


class TestNoResolverBuiltTwice:
    """glue reads the loops of each vertex's reference chart, and section
    reads its chart loops from the resolver validate_CDelta kept."""

    def test_glue_and_section_build_no_resolver(self, monkeypatch):
        d = twisted_datum(product_fan(3, 1), 2, random.Random(7).choice)
        assert validate_descent(d) == []
        built, powers = [], []
        real_init, real_power = DirectionResolver.__init__, RatMatrix.power

        def init(self, rep, fan, bases):
            built.append(rep)
            real_init(self, rep, fan, bases)

        def power(self, k):
            powers.append(k)
            return real_power(self, k)

        monkeypatch.setattr(DirectionResolver, "__init__", init)
        monkeypatch.setattr(RatMatrix, "power", power)
        glued = glue(d)
        assert built == []
        assert validate_CDelta(glued, d.fan, d.bases) == []
        assert built == [glued] and powers
        built.clear()
        powers.clear()
        back = section(glued, d.fan, d.bases)
        assert built == [] and powers == []
        assert glue(back) == glued

    def test_section_builds_no_operator_on_the_benchmark_round(self, monkeypatch):
        """On the 29 data of round 0 of the seed-0 descent_glue benchmark
        workload, validate, glue, validate_CDelta then section: section
        reads every operator it needs from the check, so it builds none
        and takes no power: the check need keep no power cache."""
        path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, inputs)
        spec.loader.exec_module(inputs)
        items = next(inputs.generate("descent_glue", 0))
        assert len(items) == 29
        built, powers = [], []
        real_operator, real_power = DirectionResolver._operator, RatMatrix.power
        for item in items:
            (name,) = item.job
            d = descent_from_json(item.files[name][1])
            assert validate_descent(d) == []
            glued = glue(d)
            assert validate_CDelta(glued, d.fan, d.bases) == []
            with monkeypatch.context() as mp:
                mp.setattr(DirectionResolver, "_operator", lambda *a: built.append(a) or real_operator(*a))
                mp.setattr(RatMatrix, "power", lambda *a: powers.append(a) or real_power(*a))
                section(glued, d.fan, d.bases)
        assert built == [] and powers == []


class TestEachBuildOnce:
    """The benchmark's job on (P^1)^3 x C* at dimension 2 (validate, glue,
    validate_CDelta, section) builds each direction expansion once per
    resolver and the fan quiver once; a repeat of the job builds no
    quiver.  Without the memos the job makes 773 stratum_loop_exponents
    calls over 152 distinct (chart, vertex, vector) inputs, and builds
    the fan quiver twice."""

    def job(self, d):
        d = DescentDatum(d.fan, d.charts, d.stored_deltas(), bases=d.bases)
        assert validate_descent(d) == []
        glued = glue(d)
        assert validate_CDelta(glued, d.fan, d.bases) == []
        section(glued, d.fan, d.bases)

    def test_each_expansion_and_the_fan_quiver_once(self, monkeypatch, fresh_caches):
        d = twisted_datum(product_fan(3, 1), 2, random.Random(7).choice)
        fresh_caches()
        exponents, built = [], []
        real_exponents, real_init = reps.stratum_loop_exponents, Quiver.__init__

        def counting(*args):
            exponents.append(args)
            return real_exponents(*args)

        def init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(reps, "stratum_loop_exponents", counting)
        monkeypatch.setattr(Quiver, "__init__", init)
        self.job(d)
        assert 0 < len(exponents) <= 304
        assert quivers._fan_quiver_cached.cache_info().misses <= 1
        exponents.clear()
        built.clear()
        self.job(d)
        assert 0 < len(exponents) <= 304
        assert built == []


class TestReferenceWalk:
    """On the glued (P^1)^3 x C* datum of TestEachBuildOnce, transport and
    relation (iii) are checked through each vertex's reference chart: 85
    transport comparisons and 27 (iii) comparisons, one per ray of a
    vertex's star outside its reference chart, where the walk over every
    chart pair makes 368 of each.  That walk runs only for a report."""

    def counting(self, monkeypatch):
        """Lists of the full walks started, the reference walk's tuples,
        the transport and (iii) rows built, and the operator pairs
        compared by !=.  The comparator compares every row it is given."""
        full, walked, transports, iii, compared = [], [], [], [], []
        real_full, real_ne = reps.overlap_operators, RatMatrix.__ne__

        def full_walk(*args):
            full.append(args)
            return real_full(*args)

        def recording(real, rows):
            def generator(*args):
                for row in real(*args):
                    rows.append(row)
                    yield row

            return generator

        reference_walk = recording(reps.reference_operators, walked)
        for module in (reps, descent):
            monkeypatch.setattr(module, "overlap_operators", full_walk)
            monkeypatch.setattr(module, "reference_operators", reference_walk)
        monkeypatch.setattr(descent, "_transport_rows", recording(descent._transport_rows, transports))
        monkeypatch.setattr(reps, "_iii_rows", recording(reps._iii_rows, iii))
        monkeypatch.setattr(RatMatrix, "__ne__", lambda a, b: compared.append((a, b)) or real_ne(a, b))
        return full, walked, transports, iii, compared

    def test_a_valid_datum_takes_only_the_reference_walk(self, monkeypatch):
        d = twisted_datum(product_fan(3, 1), 2, random.Random(7).choice)
        full, walked, transports, iii, compared = self.counting(monkeypatch)
        assert validate_descent(d) == []
        assert (len(full), len(walked), len(transports), len(iii)) == (0, 85, 85, 0)
        glued = glue(d)
        walked.clear()
        compared.clear()
        assert validate_CDelta(glued, d.fan, d.bases) == []
        ops = {(id(row[4]), id(row[5])) for row in walked}
        assert sum((id(a), id(b)) in ops for a, b in compared) == 27
        rays = {
            (j, r)
            for j in glued.quiver.vertices
            for r in range(1, len(d.fan.rays) + 1)
            if glued.quiver.has_edge(j, tuple(sorted(j + (r,))))
            and r not in loop_reference(d.fan, Cone(j)).ray_indices
        }
        assert {(j, p) for _, _, j, p, _, _ in walked if p <= len(d.fan.rays)} == rays
        assert len(iii) == 27 and {row[1][2:] for row in iii} == rays
        assert full == []

    def test_a_planted_fault_runs_the_full_walk(self, monkeypatch):
        d = twisted_datum(product_fan(3, 1), 2, random.Random(7).choice)
        bad = scaled_loops(d, maximal_cones(d.fan)[-1])
        p = invertible(2, random.Random(7).choice)
        chi = character(p, [[Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2)]] * 2)
        other = character(p, [[Fraction(3), Fraction(2), Fraction(-2), Fraction(1, 2)]] * 2)
        rep, bases = character_rep(d.fan, 2, random.Random(7).choice, chi, (2, other))
        full, *_ = self.counting(monkeypatch)
        got = validate_descent(bad)
        assert len(full) == 1
        assert got and violation_rows(got) == violation_rows(ref.transport_violations(bad))
        got = validate_CDelta(rep, d.fan, bases)
        assert len(full) == 2
        assert got and violation_rows(got) == violation_rows(ref.iii_violations(rep, d.fan, bases))


def assert_loop_references_match_the_scan(fan):
    """Every set of ray indices, in the fan or not, and one past the rays."""
    for cone in Cone((*range(1, len(fan.rays) + 1), len(fan.rays) + 1)).faces():
        assert outcome(loop_reference, fan, cone) == outcome(ref.loop_reference, fan, cone)


@given(ref.orthant_fans())
@settings(max_examples=100, deadline=None)
def test_loop_reference_table_matches_the_scan(fan):
    assert_loop_references_match_the_scan(fan)


def test_loop_reference_table_matches_the_scan_on_mixed_dimensions():
    mixed = TestMixedDimensionCharts().mixed_fan()
    for fan in (mixed, non_pure_fan()):
        assert_loop_references_match_the_scan(fan)
    assert outcome(loop_reference, mixed, Cone((1, 2))) == (
        FanError,
        "unknown-cone: no maximal cone contains (1, 2)",
    )


def outcome(function, *args):
    """function(*args), or the type and text of the FanError it raised."""
    try:
        return function(*args)
    except FanError as exc:
        return type(exc), str(exc)


def cxcstar_override():
    data = json.loads((FIXTURES / "fan_cxcstar_override.json").read_text())
    fan, overrides = fan_from_json(data)
    return fan, chart_bases(fan, overrides)


CHART_FANS = [
    (p2_fan(), chart_bases(p2_fan())),
    (p1xp1_fan(), chart_bases(p1xp1_fan())),
    cxcstar_override(),
]


@st.composite
def chart_directions(draw):
    """A random representation of one chart of P^2, (P^1)^2 or C x C*
    with a basis override (dims 1-2, entries -2..2, not necessarily
    valid), one of its vertices, and integer vectors whose exponents may
    be negative."""
    fan, bases = draw(st.sampled_from(CHART_FANS))
    cone = draw(st.sampled_from(maximal_cones(fan)))
    quiver = chart_quiver(fan, bases, cone)
    dims = {vtx: draw(st.integers(min_value=1, max_value=2)) for vtx in quiver.vertices}
    entries = st.integers(min_value=-2, max_value=2)

    def matrix(rows, cols):
        return RatMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    u = {e: matrix(dims[e[1]], dims[e[0]]) for e in quiver.arrow_pairs}
    v = {e: matrix(dims[e[0]], dims[e[1]]) for e in quiver.arrow_pairs}
    loops = {
        (vtx, label): matrix(dims[vtx], dims[vtx])
        for vtx in quiver.vertices
        for label in quiver.loops[vtx]
    }
    rep = Representation(quiver, dims, u, v, loops)
    vertex = draw(st.sampled_from(quiver.vertices))
    coords = st.lists(st.integers(min_value=-3, max_value=3), min_size=fan.dim, max_size=fan.dim)
    vectors = draw(st.lists(coords, min_size=1, max_size=4))
    return rep, fan, bases[cone], vertex, vectors


@given(chart_directions())
@settings(max_examples=150, deadline=None)
def test_resolver_expansion_matches_the_reference(case):
    rep, fan, basis, vertex, vectors = case

    def outcome(build):
        try:
            return build()
        except NotInvertibleError:
            return "singular"

    want = [
        outcome(lambda: ref.exponent_product(rep, basis, vertex, vector, ref.chart_operator))
        for vector in vectors
    ]
    # one resolver for every vector, twice over, so later expansions read
    # operators and powers cached by earlier ones
    resolver = DirectionResolver(rep, fan, {basis.cone: basis})
    for _ in range(2):
        got = [outcome(lambda: resolver.expansion(vertex, basis.cone, vector)) for vector in vectors]
        assert got == want


def perturb(rep, pick, count):
    """rep, of dimension n at every vertex, with count of its maps
    replaced: an arrow whose monodromy v.u + Id is zero, a zero loop, or
    a random u, v or loop map with entries -2..2."""
    n = rep.dims[()]
    maps = {"u": dict(rep.u), "v": dict(rep.v), "loops": dict(rep.loop_maps)}
    for _ in range(count):
        kind = pick(["singular arrow", "zero loop", "u", "v", "loops"])
        if kind in ("zero loop", "loops") and not maps["loops"]:
            kind = "singular arrow"
        if kind == "singular arrow":
            edge = pick(rep.quiver.arrow_pairs)
            maps["u"][edge] = RatMatrix.identity(n)
            maps["v"][edge] = RatMatrix.identity(n).scale(-1)
        elif kind == "zero loop":
            maps["loops"][pick(sorted(maps["loops"]))] = RatMatrix.zeros(n, n)
        else:
            key = pick(sorted(maps[kind]))
            maps[kind][key] = RatMatrix(n, n, [pick(range(-2, 3)) for _ in range(n * n)])
    return Representation(rep.quiver, dict(rep.dims), maps["u"], maps["v"], maps["loops"])


def violation_rows(violations, condition=None):
    """The violations, of one condition if given, as (condition, location,
    detail) rows in report order."""
    return [
        (v.condition, v.location, v.detail)
        for v in sorted(violations, key=violation_sort_key)
        if condition in (None, v.condition)
    ]


@st.composite
def perturbed_data(draw):
    """A twisted descent datum with up to two maps of one chart replaced,
    and its glued representation with up to two maps replaced (see
    perturb), so that singular operators reach both checks."""
    d = draw(twisted_data())
    pick = lambda options: draw(st.sampled_from(list(options)))
    glued = perturb(glue(d), pick, draw(st.integers(min_value=0, max_value=2)))
    charts = dict(d.charts)
    cone = pick(maximal_cones(d.fan))
    charts[cone] = perturb(charts[cone], pick, draw(st.integers(min_value=0, max_value=2)))
    return DescentDatum(d.fan, charts, d.stored_deltas(), bases=d.bases), glued


@given(perturbed_data())
@settings(max_examples=60, deadline=None)
def test_iii_and_transport_match_the_reference_walks(case):
    d, glued = case
    got = validate_CDelta(glued, d.fan, d.bases)
    assert violation_rows(got, "iii") == violation_rows(ref.iii_violations(glued, d.fan, d.bases), "iii")
    got = validate_descent(d)
    assert violation_rows(got, "transport") == violation_rows(ref.transport_violations(d), "transport")


def hirzebruch_fan(a):
    """F_a: rays e_1, e_2, -e_1 + a.e_2 and -e_2, consecutive pairs spanning
    the four charts."""
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return Fan(2, rays, [(), (1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 4)])


def p3_fan():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return Fan(3, rays, [c for r in range(4) for c in itertools.combinations(range(1, 5), r)])


def character_rep(fan, n, pick, chi, twisted=(None, None)):
    """chi as a fan-quiver representation of dimension n at every vertex,
    each vertex J twisted by a random g_J as in twisted_datum: the arrows
    that add ray r carry chi(v_r), or other(v_r) for (r, other) = twisted,
    and the loops at J carry chi of R_J's completion columns."""
    bases = chart_bases(fan)
    quiver = fan_quiver(fan, bases)
    g = {vtx: invertible(n, pick) for vtx in quiver.vertices}
    g_inv = {vtx: invert(mat) for vtx, mat in g.items()}
    ray, other = twisted
    u, v = {}, {}
    for low, high in quiver.arrow_pairs:
        (added,) = set(high) - set(low)
        ray_op = (other if added == ray else chi)(fan.ray_vector(added)).sub(RatMatrix.identity(n))
        u[(low, high)] = mat_mul(g[high], g_inv[low])
        v[(low, high)] = mat_mul(mat_mul(g[low], ray_op), g_inv[high])
    loops = {}
    for vtx in quiver.vertices:
        reference = bases[loop_reference(fan, Cone(vtx))]
        for label in quiver.loops[vtx]:
            loops[(vtx, label)] = mat_mul(mat_mul(g[vtx], chi(reference.column(label))), g_inv[vtx])
    return Representation(quiver, {vtx: n for vtx in quiver.vertices}, u, v, loops), bases


def scaled_loops(d, cone):
    """d with chart cone's loops scaled by 2: every chart stays valid, and
    only transport can fail."""
    chart = d.charts[cone]
    loops = {key: mat.scale(2) for key, mat in chart.loop_maps.items()}
    scaled = Representation(chart.quiver, dict(chart.dims), dict(chart.u), dict(chart.v), loops)
    return DescentDatum(d.fan, {**d.charts, cone: scaled}, d.stored_deltas(), bases=d.bases)


# torus characters fail (iii) and transport on these fans under the
# current rule; on product fans they hold until a fault is planted
CHARACTER_FANS = [p2_fan(), *map(hirzebruch_fan, (1, 2, 3)), p3_fan()]
PRODUCT_FANS = [product_fan(1, 1), product_fan(2, 1)]


@st.composite
def iii_cases(draw):
    """A representation whose only possible violations are of (iii): a
    character on P^2, F_1-F_3 or P^3, or on a product fan with the arrows
    of one ray taken from a second character of the same eigenbasis."""
    pick = lambda options: draw(st.sampled_from(list(options)))
    fan = pick(CHARACTER_FANS + PRODUCT_FANS)
    n = draw(st.integers(min_value=1, max_value=2))
    p = invertible(n, pick)
    lams = lambda: [[pick(EIGENVALUES) for _ in range(fan.dim)] for _ in range(n)]
    chi = character(p, lams())
    twisted = (None, None)
    if fan in PRODUCT_FANS:
        twisted = (pick(range(1, len(fan.rays) + 1)), character(p, lams()))
    rep, bases = character_rep(fan, n, pick, chi, twisted)
    return rep, fan, bases


@st.composite
def transport_cases(draw):
    """A descent datum whose only possible violations are of transport: a
    character datum on P^2, F_1-F_3 or P^3, or one on a product fan with
    one chart's loops scaled by 2."""
    pick = lambda options: draw(st.sampled_from(list(options)))
    fan = pick(CHARACTER_FANS + PRODUCT_FANS)
    d = twisted_datum(fan, draw(st.integers(min_value=1, max_value=2)), pick)
    return scaled_loops(d, pick(maximal_cones(fan))) if fan in PRODUCT_FANS else d


def reference_walk_fails_iii(rep, fan, bases) -> bool:
    resolver = DirectionResolver(rep, fan, dict(bases))
    walk = reps.reference_operators(fan, bases, dict.fromkeys(bases, resolver))
    return any(lhs != rhs for *_, lhs, rhs in walk)


def reference_walk_fails_transport(d) -> bool:
    resolvers = {
        cone: DirectionResolver(chart, d.fan, {cone: d.bases[cone]}) for cone, chart in d.charts.items()
    }
    walk = reps.reference_operators(d.fan, d.bases, resolvers)
    return any(
        mat_mul(op, d.delta(a, b, j)) != mat_mul(d.delta(a, b, j), product)
        for a, b, j, _, op, product in walk
    )


@given(iii_cases())
@settings(max_examples=60, deadline=None)
def test_reference_walk_finds_every_iii_fault(case):
    """Every other condition holds, so validate_CDelta trusts the walk
    through each vertex's reference chart: it fails exactly when the
    reference's walk over every chart pair does, and the report is the
    reference's."""
    rep, fan, bases = case
    want = ref.iii_violations(rep, fan, bases)
    assert violation_rows(validate_CDelta(rep, fan, bases)) == violation_rows(want)
    assert reference_walk_fails_iii(rep, fan, bases) == bool(want)


@given(transport_cases())
@settings(max_examples=60, deadline=None)
def test_reference_walk_finds_every_transport_fault(d):
    want = ref.transport_violations(d)
    assert violation_rows(validate_descent(d)) == violation_rows(want)
    assert reference_walk_fails_transport(d) == bool(want)


@st.composite
def delta_tables(draw):
    """Zero-map charts of dimension n over P^2 or (P^1)^2 and the deltas of
    an invertible table, each key given forward only, reverse only or both
    ways.  Sometimes one key carries one planted error instead: a singular
    delta given one way, a disagreeing pair, no delta, or a delta of the
    wrong shape.  Returns (datum arguments, the forward table, the error
    message or None)."""
    fan = draw(st.sampled_from([p2_fan(), p1xp1_fan()]))
    n = draw(st.integers(min_value=1, max_value=2))
    pick = lambda options: draw(st.sampled_from(list(options)))
    bases = chart_bases(fan)
    tops = maximal_cones(fan)
    charts = {}
    for cone in tops:
        quiver = chart_quiver(fan, bases, cone)
        charts[cone] = Representation(quiver, {vtx: n for vtx in quiver.vertices})
    forward = {key: invertible(n, pick) for key in overlaps(tops)}
    deltas = {}
    for (a, b, j), mat in forward.items():
        ways = pick(["forward", "reverse", "both"])
        if ways != "reverse":
            deltas[(a, b, j)] = mat
        if ways != "forward":
            deltas[(b, a, j)] = ref.invert(mat)
    error = pick([None, "singular", "disagreeing", "missing", "shape"])
    a, b, j = bad = pick(list(forward))
    back = (b, a, j)
    name = descent._delta_key(*bad)
    message = None
    if error is not None:
        deltas.pop(bad, None)
        deltas.pop(back, None)
    if error == "singular":
        written = pick([bad, back])
        deltas[written] = RatMatrix.zeros(n, n)
        message = f"delta for {descent._delta_key(*written)} is singular"
    elif error == "disagreeing":
        deltas[bad] = forward[bad]
        deltas[back] = ref.invert(forward[bad]).scale(2)
        message = f"deltas for {name} disagree with the inverse-pair invariant"
    elif error == "missing":
        message = f"missing delta for {name}"
    elif error == "shape":
        deltas[bad] = RatMatrix.zeros(n + 1, n)
        message = f"delta {name} must be {n}x{n}, got {n + 1}x{n}"
    return (fan, charts, deltas, bases), forward, message


@given(delta_tables())
@settings(max_examples=80, deadline=None)
def test_delta_table_holds_each_given_matrix_and_its_inverse(case):
    (fan, charts, deltas, bases), forward, message = case
    if message is not None:
        with pytest.raises(DescentError) as info:
            DescentDatum(fan, charts, deltas, bases=bases)
        assert str(info.value) == message
        return
    d = DescentDatum(fan, charts, deltas, bases=bases)
    for (k, kp, j), mat in deltas.items():
        assert d.delta(k, kp, j) == mat
        assert d.delta(kp, k, j) == ref.invert(mat)
    assert d.stored_deltas() == forward


def test_a_key_given_twice_must_agree():
    d = p1_datum(2, Fraction(1, 2))
    k1, k2 = Cone((1,)), Cone((2,))
    twice = {(k1, k2, ()): scalar(2), ((1,), (2,), ()): scalar(2)}
    assert DescentDatum(d.fan, d.charts, twice, bases=d.bases).delta(k2, k1, ()) == scalar(Fraction(1, 2))
    twice[((1,), (2,), ())] = scalar(3)
    with pytest.raises(DescentError, match=r"^deltas for 1\|2\| disagree"):
        DescentDatum(d.fan, d.charts, twice, bases=d.bases)


@st.composite
def conjugation_data(draw):
    """A twisted descent datum with up to three u or v maps replaced on
    edges that two charts share: by twice the map or by a random matrix
    with entries -2..2, so that conjugation fails through u, through v,
    or not at all."""
    d = draw(twisted_data())
    tops = maximal_cones(d.fan)
    shared = [
        (cone, edge)
        for a, b in itertools.combinations(tops, 2)
        for edge in sorted(set(d.charts[a].quiver.arrow_pairs) & set(d.charts[b].quiver.arrow_pairs))
        for cone in (a, b)
    ]
    assume(shared)
    pick = lambda options: draw(st.sampled_from(list(options)))
    maps = {cone: {"u": dict(chart.u), "v": dict(chart.v)} for cone, chart in d.charts.items()}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        cone, edge = pick(shared)
        arrow = pick(["u", "v"])
        old = maps[cone][arrow][edge]
        maps[cone][arrow][edge] = pick(
            [old.scale(2), RatMatrix(old.rows, old.cols, [pick(range(-2, 3)) for _ in old.entries])]
        )
    charts = {
        cone: Representation(chart.quiver, dict(chart.dims), maps[cone]["u"], maps[cone]["v"], dict(chart.loop_maps))
        for cone, chart in d.charts.items()
    }
    return DescentDatum(d.fan, charts, d.stored_deltas(), bases=d.bases)


@given(conjugation_data())
@settings(max_examples=60, deadline=None)
def test_conjugation_matches_the_reverse_delta_walk(d):
    got = [v for v in validate_descent(d) if v.condition == "conjugation"]
    assert got == sorted(ref.conjugation_violations(d), key=violation_sort_key)


def test_validate_descent_builds_no_quiver(monkeypatch):
    """The conjugation check walks each chart's own edges inside an
    overlap instead of building the overlap's cube quiver."""
    d = p2_ok_datum()
    built = []
    real_init = Quiver.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Quiver, "__init__", init)
    assert validate_descent(d) == []
    assert built == []


def override_section():
    """A valid representation over fan_cxcstar_override.json (dimension 1,
    u = 1, v = 2, loops 3) and its section over the overridden bases."""
    data = json.loads((FIXTURES / "fan_cxcstar_override.json").read_text())
    fan, overrides = fan_from_json(data)
    bases = chart_bases(fan, overrides)
    quiver = fan_quiver(fan, bases)
    rep = Representation(
        quiver,
        {vtx: 1 for vtx in quiver.vertices},
        {edge: scalar(1) for edge in quiver.arrow_pairs},
        {edge: scalar(2) for edge in quiver.arrow_pairs},
        {(vtx, label): scalar(3) for vtx in quiver.vertices for label in quiver.loops[vtx]},
    )
    return section(rep, fan, bases), data["bases"]


class TestChartBasesInJson:
    def test_overridden_bases_survive_json(self):
        d, written = override_section()
        data = descent_to_json(d)
        assert data["fan"]["bases"] == written
        back = descent_from_json(data)
        assert back.bases == d.bases and back == d

    def test_json_rebuilds_no_chart_bases(self, monkeypatch):
        d, written = override_section()
        default = p2_ok_datum()
        calls = []
        real = descent.chart_bases

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(descent, "chart_bases", counting)
        assert descent_to_json(d)["fan"]["bases"] == written
        assert "bases" not in descent_to_json(default)["fan"]
        assert calls == []

    def test_data_differing_only_in_bases_are_unequal(self):
        d, _ = override_section()
        default = DescentDatum(d.fan, d.charts, d.stored_deltas(), bases=chart_bases(d.fan))
        assert default.bases != d.bases
        assert default != d
