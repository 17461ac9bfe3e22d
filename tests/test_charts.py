"""Chart transitions: gluing exponents, cocycles, loop transport."""

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from fanrep.charts import (
    CocycleError,
    IllPosedError,
    MonomialMap,
    basis_coordinates,
    check_cocycle,
    compose,
    gluing_map,
    stratum_loop_exponents,
)
from fanrep.exactnum import IntMatrix
from fanrep.geometry import ChartBasis, Cone, Fan, chart_bases, maximal_cones


def p1_setup():
    fan = Fan(1, [(1,), (-1,)], [(), (1,), (2,)])
    return fan, chart_bases(fan)


def p2_setup():
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
    return fan, chart_bases(fan)


class TestGluingMap:
    def test_same_chart_is_identity(self):
        fan, bases = p1_setup()
        b = bases[Cone((1,))]
        assert gluing_map(b, b).is_identity()

    def test_p1_inversion(self):
        fan, bases = p1_setup()
        a = gluing_map(bases[Cone((1,))], bases[Cone((2,))])
        assert a.exponents == IntMatrix.from_rows([[-1]])

    def test_p2_pairs_are_mutually_inverse(self):
        fan, bases = p2_setup()
        tops = maximal_cones(fan)
        for i in tops:
            for j in tops:
                fwd = gluing_map(bases[i], bases[j])
                back = gluing_map(bases[j], bases[i])
                assert compose(back, fwd).is_identity()

    def test_p2_triple_composite_is_identity(self):
        fan, bases = p2_setup()
        k12, k13, k23 = maximal_cones(fan)
        a = gluing_map(bases[k12], bases[k13])
        b = gluing_map(bases[k13], bases[k23])
        c = gluing_map(bases[k23], bases[k12])
        assert compose(c, compose(b, a)).is_identity()


class TestCompose:
    def test_identity_neutral(self):
        m = MonomialMap(IntMatrix.from_rows([[1, 1], [0, 1]]))
        ident = MonomialMap(IntMatrix.identity(2))
        assert compose(ident, m) == m
        assert compose(m, ident) == m

    def test_inversion_involution(self):
        m = MonomialMap(IntMatrix.from_rows([[-1]]))
        assert compose(m, m).is_identity()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(
                MonomialMap(IntMatrix.identity(1)), MonomialMap(IntMatrix.identity(2))
            )

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            MonomialMap(IntMatrix.from_rows([[2]]))


class TestCocycle:
    def test_single_chart_vacuous(self):
        fan = Fan.from_single_cone(2, [(1, 0), (0, 1)])
        check_cocycle(fan, chart_bases(fan))

    def test_p1(self):
        fan, bases = p1_setup()
        check_cocycle(fan, bases)

    def test_p2(self):
        fan, bases = p2_setup()
        check_cocycle(fan, bases)

    def test_holds_with_basis_overrides(self):
        fan = Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,)])
        overrides = {Cone((1,)): IntMatrix.from_columns([(1, 0), (3, 1)])}
        check_cocycle(fan, chart_bases(fan, overrides))


class TestStratumLoopExponents:
    def test_p1_inverse_relation(self):
        fan, bases = p1_setup()
        alpha = stratum_loop_exponents(bases[Cone((1,))], (), fan.ray_vector(2))
        assert alpha == {1: -1}

    def test_p2_relation_at_origin_vertex(self):
        fan, bases = p2_setup()
        alpha = stratum_loop_exponents(bases[Cone((1, 2))], (), fan.ray_vector(3))
        assert alpha == {1: -1, 2: -1}

    def test_p2_relation_at_ray_vertex_drops_vertex_coordinate(self):
        # v3 = -e1 - e2 has a nonzero coordinate on 1, which the stratum kills
        fan, bases = p2_setup()
        alpha = stratum_loop_exponents(bases[Cone((1, 2))], (1,), fan.ray_vector(3))
        assert alpha == {2: -1}

    def test_own_basis_vector_is_unit(self):
        fan, bases = p2_setup()
        alpha = stratum_loop_exponents(bases[Cone((1, 2))], (), fan.ray_vector(2))
        assert alpha == {1: 0, 2: 1}

    def test_vertex_outside_chart_is_ill_posed(self):
        fan, bases = p2_setup()
        with pytest.raises(IllPosedError):
            stratum_loop_exponents(bases[Cone((1, 2))], (3,), fan.ray_vector(1))

    def test_completion_direction(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        bases = chart_bases(fan)
        basis = bases[Cone((1,))]
        assert stratum_loop_exponents(basis, (), (0, 1)) == {1: 0, 2: 1}
        assert stratum_loop_exponents(basis, (1,), (-1, 2)) == {2: 2}


class TestLoopTransportExponents:
    def test_gluing_column_gives_transported_loop_exponents(self):
        # the loop rotating chart-K coordinate p lands in chart K' with
        # exponent vector = coordinates of v_p in chart K's... transported:
        # column p of the gluing exponent matrix equals the coordinates of
        # the chart-K basis vector p in the chart-K' primal basis.
        from fanrep.charts import basis_coordinates

        for fan in [
            Fan(1, [(1,), (-1,)], [(), (1,), (2,)]),
            Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]),
        ]:
            bases = chart_bases(fan)
            tops = maximal_cones(fan)
            for k in tops:
                for kp in tops:
                    if k == kp:
                        continue
                    a = gluing_map(bases[k], bases[kp]).exponents
                    for col, label in enumerate(bases[k].labels):
                        vector = bases[k].column(label)
                        coords = basis_coordinates(bases[kp], vector)
                        expected = [coords[lab] for lab in bases[kp].labels]
                        assert list(a.col(col)) == expected


@st.composite
def unimodular_2x2(draw):
    m = [[1, 0], [0, 1]]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        c = draw(st.integers(min_value=-2, max_value=2))
        which = draw(st.booleans())
        if which:
            m[0] = [m[0][0] + c * m[1][0], m[0][1] + c * m[1][1]]
        else:
            m[1] = [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]
    return IntMatrix.from_rows(m)


@given(unimodular_2x2(), unimodular_2x2())
@settings(max_examples=50)
def test_compose_matches_exponent_product(a, b):
    m = compose(MonomialMap(a), MonomialMap(b))
    assert m.exponents == a.mul(b)


@given(unimodular_2x2())
def test_inverse_roundtrip(a):
    m = MonomialMap(a)
    assert compose(m.inverse(), m).is_identity()


@given(st.data())
@settings(max_examples=100)
def test_basis_coordinates_match_rational_reference(data):
    b = data.draw(ref.unimodular_matrices())
    k = data.draw(st.integers(min_value=0, max_value=b.cols))
    basis = ChartBasis(cone=Cone(tuple(range(1, k + 1))), labels=tuple(range(1, b.cols + 1)), basis=b)
    vector = data.draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=b.rows, max_size=b.rows))
    assert basis_coordinates(basis, vector) == ref.basis_coordinates(basis, vector)
