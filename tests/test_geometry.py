"""Fans: axioms, smoothness, duality, chart bases."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fanrep.exactnum import IntMatrix, RatMatrix, invert, mat_mul
from fanrep.geometry import (
    Cone,
    Fan,
    FanError,
    Ray,
    chart_bases,
    dual_cone_smooth,
    fan_from_json,
    fan_to_json,
    is_smooth,
    loop_reference,
    maximal_cones,
    validate_fan,
)


def p1_fan():
    return Fan(1, [(1,), (-1,)], [(), (1,), (2,)])


def p2_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])


def c_cstar_fan():
    return Fan(2, [(1, 0)], [(), (1,)])


@pytest.mark.parametrize(
    "build",
    [lambda: Ray((0.5, 1.9)), lambda: Cone((1.7, 2.2)), lambda: Fan(2.9, [], [()])],
    ids=["Ray", "Cone", "Fan"],
)
def test_constructor_rejects_a_float(build):
    # int() would truncate each of these to a valid-looking integer
    with pytest.raises(TypeError):
        build()


class TestValidateFan:
    def test_quadrant_fan_ok(self):
        validate_fan(Fan.from_single_cone(2, [(1, 0), (0, 1)]))

    def test_missing_zero_cone(self):
        with pytest.raises(FanError) as err:
            validate_fan(Fan(1, [(1,), (-1,)], [(1,), (2,)]))
        assert err.value.axiom == "face-closure"

    def test_p1_ok(self):
        validate_fan(p1_fan())

    def test_p2_ok(self):
        validate_fan(p2_fan())

    def test_non_primitive_ray(self):
        with pytest.raises(FanError) as err:
            validate_fan(Fan(1, [(2,)], [(), (1,)]))
        assert err.value.axiom == "rays"

    def test_zero_ray(self):
        with pytest.raises(FanError) as err:
            validate_fan(Fan(2, [(0, 0)], [(), (1,)]))
        assert err.value.axiom == "rays"

    def test_duplicate_rays(self):
        with pytest.raises(FanError) as err:
            validate_fan(Fan(1, [(1,), (1,)], [(), (1,), (2,)]))
        assert err.value.axiom == "rays"

    def test_dependent_rays_in_cone(self):
        with pytest.raises(FanError) as err:
            validate_fan(Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,), (1, 2)]))
        assert err.value.axiom == "independence"

    def test_unknown_ray_index(self):
        with pytest.raises(FanError) as err:
            validate_fan(Fan(1, [(1,)], [(), (9,)]))
        assert err.value.axiom == "rays"

    def test_faces_of_any_single_primitive_cone(self):
        # single-cone fans are always face and intersection closed
        for rays in [[(1, 0), (1, 2)], [(1, 1), (1, -1)], [(2, 1), (1, 1)]]:
            validate_fan(Fan.from_single_cone(2, rays))


class TestIsSmooth:
    def test_standard_quadrant(self):
        fan = Fan.from_single_cone(2, [(1, 0), (0, 1)])
        assert is_smooth(fan, Cone((1, 2)))

    def test_singular_cone(self):
        fan = Fan.from_single_cone(2, [(1, 0), (1, 2)])
        assert not is_smooth(fan, Cone((1, 2)))

    def test_zero_cone(self):
        assert is_smooth(p1_fan(), Cone(()))

    def test_unknown_cone(self):
        with pytest.raises(FanError):
            is_smooth(p1_fan(), Cone((1, 2)))


class TestDual:
    def test_self_dual_quadrant(self):
        assert dual_cone_smooth(IntMatrix.identity(2)) == IntMatrix.identity(2)

    def test_hand_example(self):
        m = IntMatrix.from_columns([(1, 0), (1, 1)])
        g = dual_cone_smooth(m)
        assert g == IntMatrix.from_columns([(1, -1), (0, 1)])
        assert g.transpose().mul(m) == IntMatrix.identity(2)

    def test_permutation(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert dual_cone_smooth(m) == m

    def test_involution(self):
        m = IntMatrix.from_columns([(1, 1, 0), (0, 1, 1), (0, 0, 1)])
        assert dual_cone_smooth(dual_cone_smooth(m)) == m

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            dual_cone_smooth(IntMatrix.from_rows([[2, 0], [0, 1]]))


class TestMaximalCones:
    def test_p1(self):
        assert [c.ray_indices for c in maximal_cones(p1_fan())] == [(1,), (2,)]

    def test_quadrant(self):
        fan = Fan.from_single_cone(2, [(1, 0), (0, 1)])
        assert [c.ray_indices for c in maximal_cones(fan)] == [(1, 2)]

    def test_torus_only(self):
        assert [c.ray_indices for c in maximal_cones(Fan(2, [], [()]))] == [()]


class TestChartBasis:
    def test_p1_charts(self):
        fan = p1_fan()
        bases = chart_bases(fan)
        b1, b2 = bases[Cone((1,))], bases[Cone((2,))]
        assert b1.basis == IntMatrix.from_rows([[1]])
        assert b2.basis == IntMatrix.from_rows([[-1]])
        assert b1.labels == (1,) and b2.labels == (2,)

    def test_p2_chart_23(self):
        fan = p2_fan()
        b = chart_bases(fan)[Cone((2, 3))]
        assert b.basis.col(0) == (0, 1)
        assert b.basis.col(1) == (-1, -1)
        assert abs(b.basis.det()) == 1

    def test_completion_labels_are_globally_fresh(self):
        fan = Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,)])
        bases = chart_bases(fan)
        got = [bases[c].completion_labels for c in maximal_cones(fan)]
        assert got == [(3,), (4,)]

    def test_cxcstar_chart(self):
        fan = c_cstar_fan()
        b = chart_bases(fan)[Cone((1,))]
        assert b.labels == (1, 2)
        assert b.basis == IntMatrix.identity(2)

    def test_override_accepted(self):
        fan = c_cstar_fan()
        override = IntMatrix.from_columns([(1, 0), (1, 1)])
        b = chart_bases(fan, {Cone((1,)): override})[Cone((1,))]
        assert b.basis == override

    def test_only_an_override_that_differs_from_the_default_is_flagged(self):
        fan = c_cstar_fan()
        cone = Cone((1,))
        assert not chart_bases(fan)[cone].override
        assert not chart_bases(fan, {cone: IntMatrix.identity(2)})[cone].override
        assert chart_bases(fan, {cone: IntMatrix.from_columns([(1, 0), (1, 1)])})[cone].override

    def test_override_must_keep_rays(self):
        fan = c_cstar_fan()
        bad = IntMatrix.from_columns([(1, 1), (0, 1)])
        with pytest.raises(FanError):
            chart_bases(fan, {Cone((1,)): bad})

    def test_override_must_be_unimodular(self):
        fan = c_cstar_fan()
        bad = IntMatrix.from_columns([(1, 0), (0, 2)])
        with pytest.raises(FanError):
            chart_bases(fan, {Cone((1,)): bad})

    def test_non_smooth_maximal_cone_rejected(self):
        fan = Fan.from_single_cone(2, [(1, 0), (1, 2)])
        with pytest.raises(FanError):
            chart_bases(fan)


class TestLoopReference:
    def test_prefers_larger_cone(self):
        cones = set(Cone((1, 4)).faces()) | set(Cone((2, 3, 5)).faces())
        fan = Fan(
            3,
            [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)],
            cones,
        )
        validate_fan(fan)
        assert loop_reference(fan, Cone(())).ray_indices == (2, 3, 5)
        assert loop_reference(fan, Cone((1,))).ray_indices == (1, 4)

    def test_lex_tie_break(self):
        fan = Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,)])
        assert loop_reference(fan, Cone(())).ray_indices == (1,)


def random_unimodular(rng, n, steps=6):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for r in range(n):
            m[r][i] += c * m[r][j]
    return IntMatrix.from_rows(m)


def solve_membership(m, x):
    """Exact oracle: is x a non-negative rational combination of m's columns?

    Solves m.lam = x by rational elimination, independent of the dual
    generator path.
    """
    lam = mat_mul(invert(RatMatrix(m.rows, m.cols, m.entries)), RatMatrix(len(x), 1, list(x)))
    return all(v >= 0 for v in lam.entries)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=3))
def test_dual_generators_against_membership_oracle(seed, n):
    rng = random.Random(seed)
    m = random_unimodular(rng, n)
    g = dual_cone_smooth(m)
    gt = g.transpose()
    for v in itertools.product(range(-3, 4), repeat=n):
        by_inequalities = all(
            sum(gt.entry(i, k) * v[k] for k in range(n)) >= 0 for i in range(n)
        )
        assert by_inequalities == solve_membership(m, v)


def test_fan_json_roundtrip():
    fan = p2_fan()
    data = fan_to_json(fan)
    fan2, overrides = fan_from_json(data)
    assert fan2 == fan and overrides == {}
    assert fan_to_json(fan2) == data


def test_fan_json_with_bases_roundtrip():
    fan = c_cstar_fan()
    overrides = {Cone((1,)): IntMatrix.from_columns([(1, 0), (1, 1)])}
    data = fan_to_json(fan, overrides)
    fan2, overrides2 = fan_from_json(data)
    assert fan2 == fan
    assert overrides2 == overrides
    assert fan_to_json(fan2, overrides2) == data
