"""Chart transitions: gluing exponents, cocycles, loop transport."""

import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from fanrep import charts, cli
from fanrep.charts import (
    CocycleError,
    IllPosedError,
    basis_coordinates,
    check_cocycle,
    gluing_map,
    stratum_loop_exponents,
)
from fanrep.exactnum import IntMatrix, unimodular_inverse
from fanrep.geometry import ChartBasis, Cone, Fan, chart_bases, fan_from_json, fan_to_json, maximal_cones

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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
        assert gluing_map(b, b) == IntMatrix.identity(1)

    def test_p1_inversion(self):
        fan, bases = p1_setup()
        a = gluing_map(bases[Cone((1,))], bases[Cone((2,))])
        assert a == IntMatrix.from_rows([[-1]])

    def test_p2_pairs_are_mutually_inverse(self):
        fan, bases = p2_setup()
        tops = maximal_cones(fan)
        for i in tops:
            for j in tops:
                fwd = gluing_map(bases[i], bases[j])
                back = gluing_map(bases[j], bases[i])
                assert back.mul(fwd) == IntMatrix.identity(2)

    def test_p2_triple_composite_is_identity(self):
        fan, bases = p2_setup()
        k12, k13, k23 = maximal_cones(fan)
        a = gluing_map(bases[k12], bases[k13])
        b = gluing_map(bases[k13], bases[k23])
        c = gluing_map(bases[k23], bases[k12])
        assert c.mul(b.mul(a)) == IntMatrix.identity(2)

    def test_non_unimodular_basis_is_rejected_in_either_position(self):
        good = ChartBasis(cone=Cone((1,)), labels=(1, 3), basis=IntMatrix.identity(2))
        bad = ChartBasis(cone=Cone((2,)), labels=(2, 4), basis=IntMatrix.from_rows([[2, 0], [0, 1]]))
        for k, kp in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError):
                gluing_map(k, kp)


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
    the pair and triple walks made m^2 + m^3 (576 on (P1)^3).  The
    transitions are built before the count, so the products inside
    gluing_map are not counted."""
    fan, bases = p1_cubed_setup()
    tops = maximal_cones(fan)
    assert len(tops) == 8
    table = {(a, b): gluing_map(bases[a], bases[b]) for a, b in itertools.product(tops, repeat=2)}
    calls = []
    real = IntMatrix.mul

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(charts, "gluing_map", lambda k, kp: table[k.cone, kp.cone])
    monkeypatch.setattr(IntMatrix, "mul", counting)
    check_cocycle(fan, bases)
    assert len(calls) <= 64


def fixture_setup(name):
    fan, overrides = fan_from_json(json.loads((FIXTURES / name).read_text()))
    return fan, chart_bases(fan, overrides)


@pytest.mark.parametrize(
    "setup",
    [p1_setup, p2_setup, p1_cubed_setup, lambda: fixture_setup("fan_cxcstar_override.json")],
    ids=["P1", "P2", "(P1)^3", "fan_cxcstar_override"],
)
def test_cocycle_returns_every_transition_it_checked(setup):
    fan, bases = setup()
    tops = maximal_cones(fan)
    assert check_cocycle(fan, bases) == {
        (a, b): gluing_map(bases[a], bases[b]) for a, b in itertools.product(tops, repeat=2)
    }


def test_fan_gluing_builds_each_transition_once(tmp_path, monkeypatch, capsys):
    """fan gluing on (P1)^3 builds each of the 8^2 transitions once, in
    check_cocycle, and prints from its table.  On a cold cache it computes
    one determinant per chart basis: complete_to_unimodular checks each
    completion through unimodular_inverse, whose cached inverse gluing_map
    reads.  A repeat computes none."""
    fan, _ = p1_cubed_setup()
    path = tmp_path / "fan_p1_cubed.json"
    path.write_text(json.dumps(fan_to_json(fan)))
    dets, glued = [], []
    real_det = IntMatrix.det

    def det(self):
        dets.append(self)
        return real_det(self)

    def profile(frame, event, arg):
        # counts gluing_map calls through any name bound to it
        if event == "call" and frame.f_code is gluing_map.__code__:
            glued.append(frame.f_locals["basis_k"])

    def fan_gluing():
        dets.clear()
        glued.clear()
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert cli.main(["fan", "gluing", str(path)]) == 0
        finally:
            sys.setprofile(outer)
        return len(dets), len(glued), capsys.readouterr().out

    monkeypatch.setattr(IntMatrix, "det", det)
    unimodular_inverse.cache_clear()
    cold = fan_gluing()
    assert cold[:2] == (8, 64)
    assert fan_gluing() == (0, 64, cold[2])


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
            mp.setattr(module, "gluing_map", lambda k, kp: family[k, kp])
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
                    a = gluing_map(bases[k], bases[kp])
                    for col, label in enumerate(bases[k].labels):
                        vector = bases[k].column(label)
                        coords = basis_coordinates(bases[kp], vector)
                        expected = [coords[lab] for lab in bases[kp].labels]
                        assert list(a.col(col)) == expected


@given(st.data())
@settings(max_examples=100)
def test_basis_coordinates_match_rational_reference(data):
    b = data.draw(ref.unimodular_matrices())
    k = data.draw(st.integers(min_value=0, max_value=b.cols))
    basis = ChartBasis(cone=Cone(tuple(range(1, k + 1))), labels=tuple(range(1, b.cols + 1)), basis=b)
    vector = data.draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=b.rows, max_size=b.rows))
    assert basis_coordinates(basis, vector) == ref.basis_coordinates(basis, vector)
