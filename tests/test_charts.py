"""Chart transitions: gluing exponents, cocycles, loop transport."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from fanrep import charts
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
from fanrep.exactnum import IntMatrix, unimodular_inverse
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


def p1_cubed_setup():
    """(P1)^3: ray 2k + 1 is e_k and ray 2k + 2 is -e_k, and a cone takes at
    most one ray of each pair, so there are 8 maximal charts."""
    rays = [tuple(s * int(i == k) for i in range(3)) for k in range(3) for s in (1, -1)]
    cones = [
        c
        for r in range(4)
        for c in itertools.combinations(range(1, 7), r)
        if len({(i - 1) // 2 for i in c}) == r
    ]
    fan = Fan(3, rays, cones)
    return fan, chart_bases(fan)


def test_cocycle_walk_composes_once_per_chart_pair(monkeypatch):
    """The walk through the first chart makes m^2 compositions on m charts;
    the pair and triple walks made m^2 + m^3 (576 on (P1)^3)."""
    fan, bases = p1_cubed_setup()
    assert len(maximal_cones(fan)) == 8
    calls = []

    def counting(m1, m2):
        calls.append((m1, m2))
        return compose(m1, m2)

    monkeypatch.setattr(charts, "compose", counting)
    check_cocycle(fan, bases)
    assert len(calls) <= 64


@st.composite
def transition_families(draw):
    """Transitions h_ab between 1-4 charts, unimodular of one dimension 1-3:
    the cocycle h_ab = B_b^-1.B_a, or, half the time, that family with one
    map replaced by another unimodular matrix."""
    n = draw(st.integers(min_value=1, max_value=3))
    tops = [Cone((k,)) for k in range(1, draw(st.integers(min_value=1, max_value=4)) + 1)]
    unimodular = ref.unimodular_matrices(min_dim=n, max_dim=n)
    b = {c: draw(unimodular) for c in tops}
    family = {(i, j): unimodular_inverse(b[j]).mul(b[i]) for i, j in itertools.product(tops, repeat=2)}
    if draw(st.booleans()):
        family[draw(st.sampled_from(sorted(family)))] = draw(unimodular)
    return Fan(n, [], [(), *(c.ray_indices for c in tops)]), family


def cocycle_raises(check, fan, family) -> tuple:
    """(whether check raised CocycleError, the triple it named), with
    gluing_map reading family and each chart cone standing for its basis."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (charts, ref):
            mp.setattr(module, "gluing_map", lambda k, kp: MonomialMap(family[k, kp]))
        try:
            check(fan, {c: c for c in maximal_cones(fan)})
        except CocycleError as exc:
            return True, exc.triple
    return False, None


@given(transition_families())
@settings(max_examples=400)
def test_cocycle_walk_matches_the_pair_and_triple_walks(case):
    fan, family = case
    raised, triple = cocycle_raises(check_cocycle, fan, family)
    assert raised == cocycle_raises(ref.check_cocycle, fan, family)[0]
    if raised:
        i, j, k = triple
        assert ref.int_mul(family[j, k], family[i, j]) != family[i, k]


def test_cocycle_walk_checks_each_transition_to_itself():
    """h_IJ = h_OJ.h_IO on every pair, but h_JO.h_OJ = h_JJ = -1: only the
    triple (J, J, J) fails, and the walk names it."""
    o, j = Cone((1,)), Cone((2,))
    minus, plus = IntMatrix.from_rows([[-1]]), IntMatrix.identity(1)
    family = {(o, o): plus, (o, j): plus, (j, o): minus, (j, j): minus}
    fan = Fan(1, [], [(), (1,), (2,)])
    assert cocycle_raises(check_cocycle, fan, family) == (True, (j, j, j))
    assert cocycle_raises(ref.check_cocycle, fan, family)[0]


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
    assert compose(MonomialMap(unimodular_inverse(a)), m).is_identity()


@given(st.data())
@settings(max_examples=100)
def test_basis_coordinates_match_rational_reference(data):
    b = data.draw(ref.unimodular_matrices())
    k = data.draw(st.integers(min_value=0, max_value=b.cols))
    basis = ChartBasis(cone=Cone(tuple(range(1, k + 1))), labels=tuple(range(1, b.cols + 1)), basis=b)
    vector = data.draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=b.rows, max_size=b.rows))
    assert basis_coordinates(basis, vector) == ref.basis_coordinates(basis, vector)
