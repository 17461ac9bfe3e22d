"""Representations: monodromies, validators, Hom spaces, isomorphism."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from fanrep import reps
from fanrep.exactnum import IntMatrix, RatMatrix, invert, mat_mul
from fanrep.geometry import Cone, Fan, chart_bases
from fanrep.quivers import Quiver, arrangement_quiver, cube_quiver, fan_quiver, hypercube_quiver
from fanrep.reps import (
    _hom_system,
    Morphism,
    Representation,
    ShapeError,
    are_isomorphic,
    direct_sum,
    hom_basis,
    identity_morphism,
    monodromy,
    rep_from_json,
    rep_to_json,
    validate_CDelta,
    validate_CSigma,
    validate_Cn,
)


def rat(rows):
    return RatMatrix.from_rows(rows)


def scalar(x):
    return RatMatrix(1, 1, [Fraction(x)])


def p1_fan():
    return Fan(1, [(1,), (-1,)], [(), (1,), (2,)])


def p2_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])


def p1_rep(m1, m2):
    """1-dimensional P^1 representation with prescribed monodromies.

    u = 1 on both edges and v = m - 1, so v.u + Id = m.
    """
    fan = p1_fan()
    quiver = fan_quiver(fan)
    dims = {v: 1 for v in quiver.vertices}
    u = {((), (1,)): scalar(1), ((), (2,)): scalar(1)}
    v = {((), (1,)): scalar(m1 - 1), ((), (2,)): scalar(m2 - 1)}
    return Representation(quiver, dims, u, v)


class TestMonodromy:
    def test_zero_maps(self):
        rep = Representation(hypercube_quiver(1), {(): 2, (1,): 2})
        assert monodromy(rep, ((), (1,)), "low") == RatMatrix.identity(2)
        assert monodromy(rep, ((), (1,)), "high") == RatMatrix.identity(2)

    def test_scalar_two(self):
        rep = Representation(
            hypercube_quiver(1),
            {(): 1, (1,): 1},
            {((), (1,)): scalar(1)},
            {((), (1,)): scalar(1)},
        )
        assert monodromy(rep, ((), (1,)), "low") == scalar(2)

    def test_scalar_zero(self):
        rep = Representation(
            hypercube_quiver(1),
            {(): 1, (1,): 1},
            {((), (1,)): scalar(1)},
            {((), (1,)): scalar(-1)},
        )
        assert monodromy(rep, ((), (1,)), "low") == scalar(0)


class TestShapeChecks:
    def test_wrong_u_shape(self):
        with pytest.raises(ShapeError):
            Representation(
                hypercube_quiver(1),
                {(): 1, (1,): 2},
                {((), (1,)): scalar(1)},
            )

    def test_wrong_loop_shape(self):
        q = Quiver([()], [], {(): (1,)})
        with pytest.raises(ShapeError):
            Representation(q, {(): 2}, loops={((), 1): scalar(1)})

    def test_unknown_edge(self):
        with pytest.raises(ShapeError):
            Representation(hypercube_quiver(0), {(): 1}, {((), (1,)): scalar(1)})

    def test_unknown_vertex_dims(self):
        with pytest.raises(ShapeError, match=r"dims given for unknown vertices \[\(5,\)\]"):
            Representation(hypercube_quiver(1), {(): 1, (5,): 2})

    def test_float_dimension_is_rejected(self):
        with pytest.raises(TypeError):
            Representation(hypercube_quiver(1), {(): 1.9})


class TestValidateCn:
    def test_zero_maps_ok(self):
        for n in range(5):
            q = hypercube_quiver(n)
            rep = Representation(q, {v: 1 for v in q.vertices})
            assert validate_Cn(rep) == []

    def test_singular_monodromy(self):
        rep = Representation(
            hypercube_quiver(1),
            {(): 1, (1,): 1},
            {((), (1,)): scalar(1)},
            {((), (1,)): scalar(-1)},
        )
        violations = validate_Cn(rep)
        assert [v.condition for v in violations] == ["i"]
        assert violations[0].location == ("-1",)

    def test_broken_v_path(self):
        q = hypercube_quiver(2)
        dims = {v: 1 for v in q.vertices}
        ones = {e: scalar(1) for e in q.arrow_pairs}
        v_maps = dict(ones)
        v_maps[((1,), (1, 2))] = scalar(2)
        rep = Representation(q, dims, ones, v_maps)
        violations = validate_Cn(rep)
        assert ("ii", ("", 1, 2, "v-path")) in {
            (v.condition, v.location) for v in violations
        }

    def test_wrong_quiver_rejected(self):
        rep = Representation(arrangement_quiver(3), {})
        with pytest.raises(ValueError):
            validate_Cn(rep)


def arrangement_rep_with_monodromies(m1, m2):
    """n=3 arrangement rep: E_empty = Q^2 with chosen monodromies on the
    first two lines, zero elsewhere."""
    q = arrangement_quiver(3)
    dims = {v: 2 if v == () else 0 for v in q.vertices}
    dims[(1,)] = 2
    dims[(2,)] = 2
    u = {
        ((), (1,)): m1.sub(RatMatrix.identity(2)),
        ((), (2,)): m2.sub(RatMatrix.identity(2)),
    }
    v = {
        ((), (1,)): RatMatrix.identity(2),
        ((), (2,)): RatMatrix.identity(2),
    }
    return Representation(q, dims, u, v)


class TestValidateCSigma:
    def test_zero_maps_ok(self):
        q = arrangement_quiver(3)
        rep = Representation(q, {v: 1 for v in q.vertices})
        assert validate_CSigma(rep) == []

    def test_non_commuting_monodromies(self):
        rep = arrangement_rep_with_monodromies(
            rat([[1, 1], [0, 1]]), rat([[1, 0], [1, 1]])
        )
        violations = validate_CSigma(rep)
        assert ("iii", (1, 2)) in {(v.condition, v.location) for v in violations}

    def test_n2_verdict_matches_cn(self):
        rng = random.Random(7)
        q = arrangement_quiver(2)
        for _ in range(60):
            dims = {v: rng.randint(0, 2) for v in q.vertices}
            u = {
                e: RatMatrix(
                    dims[e[1]],
                    dims[e[0]],
                    [rng.randint(-1, 1) for _ in range(dims[e[1]] * dims[e[0]])],
                )
                for e in q.arrow_pairs
            }
            v = {
                e: RatMatrix(
                    dims[e[0]],
                    dims[e[1]],
                    [rng.randint(-1, 1) for _ in range(dims[e[0]] * dims[e[1]])],
                )
                for e in q.arrow_pairs
            }
            rep = Representation(q, dims, u, v)
            assert (validate_CSigma(rep) == []) == (validate_Cn(rep) == [])

    def test_one_monodromy_per_edge(self, monkeypatch):
        # condition (i) and the commuting check read one resolver
        calls = []
        real = reps.monodromy

        def counting(rep, edge, end="low"):
            calls.append((tuple(edge), end))
            return real(rep, edge, end)

        monkeypatch.setattr(reps, "monodromy", counting)
        q = arrangement_quiver(4)
        rep = Representation(q, {v: 1 for v in q.vertices})
        assert validate_CSigma(rep) == []
        assert sorted(calls) == sorted((edge, "low") for edge in rep.quiver.arrow_pairs)


class TestValidateCDelta:
    def test_p1_inverse_pair_ok(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        assert validate_CDelta(rep, p1_fan()) == []

    def test_p1_non_inverse_rejected(self):
        rep = p1_rep(Fraction(2), Fraction(2))
        violations = validate_CDelta(rep, p1_fan())
        locations = {(v.condition, v.location) for v in violations}
        assert ("iii", ("1", "2", "", 2)) in locations
        assert ("iii", ("2", "1", "", 1)) in locations
        assert all(v.condition == "iii" for v in violations)

    def test_p1_brute_force_equivalence(self):
        # a P^1 rep is valid iff both monodromies are invertible and multiply to 1
        values = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]
        for m1, m2 in itertools.product(values, repeat=2):
            rep = p1_rep(m1, m2)
            expected_ok = m1 != 0 and m2 != 0 and m1 * m2 == 1
            assert (validate_CDelta(rep, p1_fan()) == []) == expected_ok

    def test_p1_brute_force_equivalence_matrix_case(self):
        # same equivalence with 2x2 data: ok iff M1.M2 = Id and both invertible
        rng = random.Random(77)
        fan = p1_fan()
        quiver = fan_quiver(fan)
        for _ in range(40):
            a = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            b = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            c = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            d = RatMatrix(2, 2, [rng.randint(-2, 2) for _ in range(4)])
            rep = Representation(
                quiver,
                {vtx: 2 for vtx in quiver.vertices},
                {((), (1,)): a, ((), (2,)): c},
                {((), (1,)): b, ((), (2,)): d},
            )
            m1 = mat_mul(b, a).add(RatMatrix.identity(2))
            m2 = mat_mul(d, c).add(RatMatrix.identity(2))
            expected_ok = (
                m1.is_invertible()
                and m2.is_invertible()
                and mat_mul(m1, m2) == RatMatrix.identity(2)
                and mat_mul(m2, m1) == RatMatrix.identity(2)
            )
            assert (validate_CDelta(rep, fan) == []) == expected_ok

    def test_loop_commutes_with_arrows(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        quiver = fan_quiver(fan)
        dims = {(): 1, (1,): 1}
        rep = Representation(
            quiver,
            dims,
            loops={((), 2): scalar(2), ((1,), 2): scalar(2)},
        )
        assert validate_CDelta(rep, fan) == []

    def test_loop_transport_violation(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        quiver = fan_quiver(fan)
        dims = {(): 1, (1,): 1}
        rep = Representation(
            quiver,
            dims,
            u={((), (1,)): scalar(1)},
            loops={((), 2): scalar(2), ((1,), 2): scalar(3)},
        )
        violations = validate_CDelta(rep, fan)
        assert ("loop", ("-1", 2, "u")) in {(v.condition, v.location) for v in violations}

    def test_cross_chart_loop_coherence(self):
        # two ray charts in Z^2 (variety P^1 x C*): the torus direction e2
        # is the loop labelled 3 on chart (1,) and 4 on chart (2,); the
        # operators must agree through the arrows even though the labels
        # differ
        fan = Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,)])
        quiver = fan_quiver(fan)
        dims = {v: 1 for v in quiver.vertices}

        def build(m, l_empty, l1, l2):
            u = {((), (1,)): scalar(1), ((), (2,)): scalar(1)}
            v = {((), (1,)): scalar(m - 1), ((), (2,)): scalar(1 / m - 1)}
            loops = {
                ((), 3): scalar(l_empty),
                ((1,), 3): scalar(l1),
                ((2,), 4): scalar(l2),
            }
            return Representation(quiver, dims, u, v, loops)

        good = build(Fraction(3), 2, 2, 2)
        assert validate_CDelta(good, fan) == []

        bad = build(Fraction(3), 2, 2, 5)  # chart-(2,) loop breaks coherence
        violations = validate_CDelta(bad, fan)
        assert ("loop", ("-2", 4, "u")) in {
            (v.condition, v.location) for v in violations
        }

    def test_singular_loop_reported(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        quiver = fan_quiver(fan)
        rep = Representation(
            quiver, {(): 1, (1,): 1}, loops={((), 2): scalar(0), ((1,), 2): scalar(1)}
        )
        violations = validate_CDelta(rep, fan)
        assert ("loop", ("", 2)) in {(v.condition, v.location) for v in violations}

    def test_wrong_quiver_rejected(self):
        rep = Representation(hypercube_quiver(1), {(): 1, (1,): 1})
        with pytest.raises(ValueError):
            validate_CDelta(rep, p1_fan())

    def test_torus_only_fan(self):
        # no rays at all: a single vertex carrying n commuting loops
        fan = Fan(2, [], [()])
        quiver = fan_quiver(fan)
        good = Representation(
            quiver,
            {(): 2},
            loops={((), 1): rat([[1, 1], [0, 1]]), ((), 2): rat([[1, 2], [0, 1]])},
        )
        assert validate_CDelta(good, fan) == []
        bad = Representation(
            quiver,
            {(): 2},
            loops={((), 1): rat([[1, 1], [0, 1]]), ((), 2): rat([[1, 0], [1, 1]])},
        )
        violations = validate_CDelta(bad, fan)
        assert ("loop", ("", 1, 2)) in {(v.condition, v.location) for v in violations}


class TestReadOnlyAndVerdict:
    """A representation is read-only and keeps its C_Delta verdict, keyed
    by the fan and the chart bases by value."""

    def test_maps_are_read_only(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        edge = ((), (1,))
        with pytest.raises(TypeError):
            rep.u[edge] = scalar(5)
        with pytest.raises(TypeError):
            rep.v[edge] = scalar(5)
        with pytest.raises(TypeError):
            rep.dims[()] = 3
        with pytest.raises(TypeError):
            single_vertex_loop_rep(scalar(2)).loop_maps[((), 1)] = scalar(3)
        assert rep.u[edge] == scalar(1) and rep.dims[()] == 1

    def test_each_call_returns_a_fresh_list(self):
        rep = p1_rep(Fraction(2), Fraction(3))
        first = validate_CDelta(rep, p1_fan())
        assert first
        want = list(first)
        first.clear()
        assert validate_CDelta(rep, p1_fan()) == want

    def cross_chart_rep(self):
        """P^1 x C*: loop label 3 is 2 at the first chart's vertices and
        loop label 4 is 2 at (2,); with u = 1 and v = 0 the transport
        along () -> (2,) holds exactly when chart (2,)'s completion
        column has second coordinate +1."""
        fan = Fan(2, [(1, 0), (-1, 0)], [(), (1,), (2,)])
        quiver = fan_quiver(fan)
        loops = {((), 3): scalar(2), ((1,), 3): scalar(2), ((2,), 4): scalar(2)}
        u = {edge: scalar(1) for edge in quiver.arrow_pairs}
        return fan, Representation(quiver, {v: 1 for v in quiver.vertices}, u, None, loops)

    def test_verdict_is_keyed_by_bases_value(self):
        fan, rep = self.cross_chart_rep()
        flipped = chart_bases(fan, {Cone((2,)): IntMatrix.from_columns([(-1, 0), (0, -1)], 2)})
        fresh = self.cross_chart_rep()[1]
        want = validate_CDelta(fresh, fan, flipped)
        assert [v.location for v in want] == [("-2", 4, "u")]

        bases = dict(chart_bases(fan))
        assert validate_CDelta(rep, fan, bases) == []
        bases[Cone((2,))] = flipped[Cone((2,))]  # the caller's dict changes
        assert validate_CDelta(rep, fan, bases) == want
        assert validate_CDelta(rep, fan, flipped) == want
        assert validate_CDelta(rep, fan) == []

    def test_verdict_is_keyed_by_fan(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        assert validate_CDelta(rep, p1_fan()) == []
        with pytest.raises(ValueError, match="does not match the fan quiver"):
            validate_CDelta(rep, p2_fan())


def p2_valid_rep():
    """Nontrivial valid P^2 rep: trivial stratum monodromies, vertex
    monodromies 2 and 1/2 at the chart around the first ray."""
    fan = p2_fan()
    quiver = fan_quiver(fan)
    dims = {v: 1 for v in quiver.vertices}
    u = {e: scalar(0) for e in quiver.arrow_pairs}
    v = {e: scalar(0) for e in quiver.arrow_pairs}
    u[((1,), (1, 2))] = scalar(1)
    v[((1,), (1, 2))] = scalar(1)  # M_12 = 2
    u[((1,), (1, 3))] = scalar(1)
    v[((1,), (1, 3))] = scalar(Fraction(-1, 2))  # M_13 = 1/2
    u[((2,), (2, 3))] = scalar(1)
    return Representation(quiver, dims, u, v)


class TestP2Relations:
    def test_valid_rep_passes(self):
        assert validate_CDelta(p2_valid_rep(), p2_fan()) == []

    def test_origin_relation_mutation(self):
        fan = p2_fan()
        quiver = fan_quiver(fan)
        base = p2_valid_rep()
        u = dict(base.u)
        v = dict(base.v)
        u[((), (1,))] = scalar(1)
        v[((), (1,))] = scalar(1)  # M_{*1} = 2 breaks M1.M2.M3 = 1
        rep = Representation(quiver, base.dims, u, v)
        violations = validate_CDelta(rep, fan)
        locations = {(x.condition, x.location) for x in violations}
        assert ("iii", ("1,2", "1,3", "", 3)) in locations

    def test_vertex_relation_mutation(self):
        fan = p2_fan()
        quiver = fan_quiver(fan)
        base = p2_valid_rep()
        v = dict(base.v)
        v[((1,), (1, 3))] = scalar(Fraction(1, 2))  # M_13 = 3/2, breaks M_12 = M_13^{-1}
        rep = Representation(quiver, base.dims, base.u, v)
        violations = validate_CDelta(rep, fan)
        locations = {(x.condition, x.location) for x in violations}
        assert ("iii", ("1,2", "1,3", "1", 3)) in locations


def single_vertex_loop_rep(value):
    q = Quiver([()], [], {(): (1,)})
    return Representation(q, {(): 1}, loops={((), 1): scalar(value)})


class TestHom:
    def test_identity_always_present(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        basis = hom_basis(rep, rep)
        assert len(basis) >= 1
        for mor in basis:
            assert mor.is_valid()

    def test_distinct_loops_have_zero_hom(self):
        a = single_vertex_loop_rep(2)
        b = single_vertex_loop_rep(3)
        assert hom_basis(a, b) == []

    def test_equal_loops_have_dim_one(self):
        a = single_vertex_loop_rep(2)
        assert len(hom_basis(a, a)) == 1

    def test_members_satisfy_all_squares(self):
        rng = random.Random(3)
        q = hypercube_quiver(2)
        for _ in range(20):
            a = random_rep(rng, q)
            b = random_rep(rng, q)
            for mor in hom_basis(a, b):
                assert mor.is_valid()

    def test_basis_is_deterministic(self):
        rng = random.Random(29)
        q = hypercube_quiver(2)
        a = random_rep(rng, q)
        b = random_rep(rng, q)
        first = hom_basis(a, b)
        second = hom_basis(a, b)
        assert [m.maps for m in first] == [m.maps for m in second]

    def test_dim_invariant_under_conjugation(self):
        rng = random.Random(11)
        q = hypercube_quiver(2)
        for _ in range(10):
            a = random_rep(rng, q, max_dim=2)
            b = random_rep(rng, q, max_dim=2)
            base = len(hom_basis(a, b))
            conj = conjugate_rep(rng, a)
            assert len(hom_basis(conj, b)) == base


def random_rep(rng, quiver, max_dim=2, entries=(-2, 2)):
    dims = {v: rng.randint(0, max_dim) for v in quiver.vertices}
    lo, hi = entries
    u = {}
    v = {}
    for e in quiver.arrow_pairs:
        low, high = e
        u[e] = RatMatrix(
            dims[high], dims[low], [rng.randint(lo, hi) for _ in range(dims[high] * dims[low])]
        )
        v[e] = RatMatrix(
            dims[low], dims[high], [rng.randint(lo, hi) for _ in range(dims[low] * dims[high])]
        )
    loops = {}
    for vtx in quiver.vertices:
        for label in quiver.loops[vtx]:
            n = dims[vtx]
            loops[(vtx, label)] = RatMatrix.identity(n)
    return Representation(quiver, dims, u, v, loops)


def random_invertible(rng, n):
    while True:
        m = RatMatrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
        if m.is_invertible():
            return m


def conjugate_rep(rng, rep):
    """Simultaneous base change by random invertible vertex matrices."""
    g = {v: random_invertible(rng, rep.dims[v]) for v in rep.quiver.vertices}
    u = {}
    v = {}
    for e in rep.quiver.arrow_pairs:
        low, high = e
        u[e] = mat_mul(mat_mul(g[high], rep.u[e]), invert(g[low]))
        v[e] = mat_mul(mat_mul(g[low], rep.v[e]), invert(g[high]))
    loops = {
        (vtx, label): mat_mul(mat_mul(g[vtx], mat), invert(g[vtx]))
        for (vtx, label), mat in rep.loop_maps.items()
    }
    return Representation(rep.quiver, rep.dims, u, v, loops)


class TestIso:
    def test_same_rep(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        result = are_isomorphic(rep, rep)
        assert result.verdict == "yes"
        assert result.witness.is_valid() and result.witness.is_invertible()

    def test_dims_differ(self):
        a = single_vertex_loop_rep(2)
        q = a.quiver
        b = Representation(q, {(): 0})
        assert are_isomorphic(a, b).verdict == "no"

    def test_hom_zero(self):
        assert are_isomorphic(single_vertex_loop_rep(2), single_vertex_loop_rep(3)).verdict == "no"

    def test_conjugated_reps_are_isomorphic(self):
        rng = random.Random(5)
        q = hypercube_quiver(2)
        for _ in range(5):
            rep = random_rep(rng, q, max_dim=2)
            other = conjugate_rep(rng, rep)
            result = are_isomorphic(rep, other, seed=1)
            assert result.verdict == "yes"
            assert result.witness.is_valid() and result.witness.is_invertible()

    def test_non_isomorphic_with_equal_dims(self):
        # loop 2 vs identity loop on the same dims: End dims differ? both 1.
        # Hom(a,b): phi.2 = 1.phi => phi = 0, so Hom is zero: certified no.
        a = single_vertex_loop_rep(2)
        b = single_vertex_loop_rep(1)
        assert are_isomorphic(a, b).verdict == "no"

    def test_zero_reps_isomorphic(self):
        q = hypercube_quiver(1)
        a = Representation(q, {})
        b = Representation(q, {})
        assert are_isomorphic(a, b).verdict == "yes"

    def test_end_dimension_certificate(self):
        # same dims, nonzero Hom, but End dimensions differ: certified no
        q = Quiver([()], [], {(): (1,)})
        a = Representation(q, {(): 2})  # identity loop, End dim 4
        b = Representation(q, {(): 2}, loops={((), 1): rat([[1, 1], [0, 1]])})
        assert len(hom_basis(a, b)) == 2
        result = are_isomorphic(a, b)
        assert result.verdict == "no"
        assert "incompatible" in result.reason

    def test_attempt_bound_gives_undecided(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        result = are_isomorphic(rep, rep, max_attempts=0)
        assert result.verdict == "undecided"


class TestDirectSum:
    def test_dims_add(self):
        a = single_vertex_loop_rep(2)
        b = single_vertex_loop_rep(3)
        s = direct_sum(a, b)
        assert s.dims[()] == 2

    def test_sum_with_zero(self):
        rep = p1_rep(Fraction(2), Fraction(1, 2))
        zero = Representation(rep.quiver, {})
        assert direct_sum(rep, zero) == rep

    def test_hom_additivity(self):
        rng = random.Random(13)
        q = hypercube_quiver(1)
        for _ in range(15):
            a = random_rep(rng, q, max_dim=2)
            b = random_rep(rng, q, max_dim=2)
            c = random_rep(rng, q, max_dim=2)
            lhs = len(hom_basis(direct_sum(a, b), c))
            rhs = len(hom_basis(a, c)) + len(hom_basis(b, c))
            assert lhs == rhs


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_monodromy_low_high_invertibility_match(data):
    nl = data.draw(st.integers(min_value=0, max_value=3))
    nh = data.draw(st.integers(min_value=0, max_value=3))
    ints = st.integers(min_value=-2, max_value=2)
    u = RatMatrix(nh, nl, data.draw(st.lists(ints, min_size=nh * nl, max_size=nh * nl)))
    v = RatMatrix(nl, nh, data.draw(st.lists(ints, min_size=nl * nh, max_size=nl * nh)))
    rep = Representation(
        hypercube_quiver(1),
        {(): nl, (1,): nh},
        {((), (1,)): u},
        {((), (1,)): v},
    )
    low = monodromy(rep, ((), (1,)), "low")
    high = monodromy(rep, ((), (1,)), "high")
    assert low.is_invertible() == high.is_invertible()


def drawn_rep(data, quiver):
    """A representation with dims 0-2 and arbitrary small rational maps; the
    Hom system does not ask the category conditions to hold."""
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def matrix(rows, cols):
        n = rows * cols
        return RatMatrix(rows, cols, data.draw(st.lists(entries, min_size=n, max_size=n)))

    dims = {vtx: data.draw(st.integers(min_value=0, max_value=2)) for vtx in quiver.vertices}
    u = {(low, high): matrix(dims[high], dims[low]) for low, high in quiver.arrow_pairs}
    v = {(low, high): matrix(dims[low], dims[high]) for low, high in quiver.arrow_pairs}
    loops = {
        (vtx, label): matrix(dims[vtx], dims[vtx])
        for vtx in quiver.vertices
        for label in quiver.loops[vtx]
    }
    return Representation(quiver, dims, u, v, loops)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_hom_system_matches_kronecker_reference(data):
    family = data.draw(st.sampled_from(["hypercube", "arrangement", "chart"]))
    if family == "hypercube":
        quiver = hypercube_quiver(data.draw(st.integers(min_value=0, max_value=3)))
    elif family == "arrangement":
        quiver = arrangement_quiver(data.draw(st.integers(min_value=1, max_value=4)))
    else:
        k = data.draw(st.integers(min_value=0, max_value=2))
        n_loops = data.draw(st.integers(min_value=1, max_value=2))
        quiver = cube_quiver(range(1, k + 1), tuple(range(k + 1, k + 1 + n_loops)))
    a = drawn_rep(data, quiver)
    b = drawn_rep(data, quiver)
    system, offsets, total = _hom_system(a, b)
    want, want_offsets, want_total = ref._hom_system(a, b)
    assert (system.shape, system.entries) == (want.shape, want.entries)
    assert (offsets, total) == (want_offsets, want_total)


def test_rep_json_roundtrip():
    rep = p2_valid_rep()
    data = rep_to_json(rep)
    back = rep_from_json(data)
    assert back == rep
    assert rep_to_json(back) == data


def test_rep_json_roundtrip_with_loops():
    fan = Fan(2, [(1, 0)], [(), (1,)])
    quiver = fan_quiver(fan)
    rep = Representation(
        quiver,
        {(): 2, (1,): 1},
        loops={((), 2): rat([[1, 1], [0, 1]]), ((1,), 2): scalar(1)},
    )
    data = rep_to_json(rep)
    assert rep_from_json(data) == rep
    slim = rep_to_json(rep, include_quiver=False)
    assert rep_from_json(slim, quiver=quiver) == rep
