"""Quiver constructions and their structural invariants."""

import dataclasses
import json
import pathlib
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from fanrep import quivers
from fanrep.geometry import Cone, Fan, chart_bases, fan_from_json
from fanrep.quivers import (
    Quiver,
    arrangement_quiver,
    cube_quiver,
    fan_quiver,
    hypercube_quiver,
    quiver_from_json,
    quiver_to_json,
)


def p1_fan():
    return Fan(1, [(1,), (-1,)], [(), (1,), (2,)])


def p2_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])


class TestHypercube:
    def test_n1(self):
        q = hypercube_quiver(1)
        assert len(q.vertices) == 2
        assert len(q.arrow_pairs) == 1

    def test_n2(self):
        q = hypercube_quiver(2)
        assert len(q.vertices) == 4
        assert len(q.arrow_pairs) == 4
        assert q.squares() == [((), 1, 2)]

    def test_n0(self):
        q = hypercube_quiver(0)
        assert q.vertices == ((),)
        assert q.arrow_pairs == ()

    def test_counts(self):
        for n in range(5):
            q = hypercube_quiver(n)
            assert len(q.vertices) == 2 ** n
            assert len(q.arrow_pairs) == n * 2 ** (n - 1) if n else True
            assert sum(map(len, q.loops.values())) == 0


class TestArrangement:
    def test_three_lines(self):
        q = arrangement_quiver(3)
        assert len(q.vertices) == 7
        assert len(q.arrow_pairs) == 9

    def test_two_lines_is_normal_crossing(self):
        assert arrangement_quiver(2) == hypercube_quiver(2)

    def test_one_line(self):
        q = arrangement_quiver(1)
        assert len(q.vertices) == 2
        assert len(q.arrow_pairs) == 1

    def test_squares_only_at_origin(self):
        q = arrangement_quiver(4)
        assert all(base == () for base, _, _ in q.squares())
        assert len(q.squares()) == 6


class TestFanQuiver:
    def test_p1(self):
        q = fan_quiver(p1_fan())
        assert len(q.vertices) == 3
        assert len(q.arrow_pairs) == 2
        assert sum(map(len, q.loops.values())) == 0

    def test_p2_same_shape_as_three_lines(self):
        q = fan_quiver(p2_fan())
        arr = arrangement_quiver(3)
        assert len(q.vertices) == 7 and len(q.arrow_pairs) == 9
        assert sum(map(len, q.loops.values())) == 0
        assert q.vertices == arr.vertices
        assert q.arrow_pairs == arr.arrow_pairs

    def test_c_times_cstar(self):
        fan = Fan(2, [(1, 0)], [(), (1,)])
        q = fan_quiver(fan)
        assert len(q.vertices) == 2
        assert len(q.arrow_pairs) == 1
        assert q.loops[()] == (2,)
        assert q.loops[(1,)] == (2,)

    def test_torus_only_fan(self):
        q = fan_quiver(Fan(2, [], [()]))
        assert q.vertices == ((),)
        assert q.loops[()] == (1, 2)

    def test_loop_count_formula(self):
        cones = set(Cone((1, 2)).faces()) | set(Cone((3,)).faces())
        fan = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], cones)
        q = fan_quiver(fan)
        # j = max |K| over maximal cones containing the vertex
        assert q.loops[()] == (4,)       # j = 2, one loop from chart (1,2)
        assert q.loops[(1,)] == (4,)
        assert q.loops[(1, 2)] == (4,)
        assert q.loops[(3,)] == (5, 6)   # j = 1, two loops from chart (3,)

    def test_quadrant_fan_equals_hypercube(self):
        for n in range(4):
            rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            fan = Fan.from_single_cone(n, rays)
            assert fan_quiver(fan) == hypercube_quiver(n)


class TestQuiverValidation:
    def test_arrow_must_add_one_index(self):
        with pytest.raises(ValueError):
            Quiver([(), (1, 2)], [((), (1, 2))])

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            Quiver([()], [((), (1,))])

    def test_duplicate_loop_labels(self):
        with pytest.raises(ValueError):
            Quiver([()], [], {(): (1, 1)})

    @pytest.mark.parametrize(
        "args",
        [([(), (1.5,)], []), ([(), (1,)], [((), (1.0,))]), ([()], [], {(): (3.5,)})],
        ids=["vertex", "arrow", "loop-label"],
    )
    def test_float_index_is_rejected(self, args):
        with pytest.raises(TypeError):
            Quiver(*args)


class TestEdgeLookup:
    def test_edge_normalizes_and_rejects_unknown_pairs(self):
        q = hypercube_quiver(2)
        assert q.edge([2], (2, 1)) == ((2,), (1, 2))
        assert q.has_edge((), (1,)) and not q.has_edge((), (1, 2))
        with pytest.raises(KeyError):
            q.edge((), (1, 2))

    def test_lookup_set_is_not_part_of_equality(self):
        assert [f.name for f in dataclasses.fields(Quiver)] == ["vertices", "arrow_pairs", "loops"]
        q = hypercube_quiver(2)
        assert Quiver(q.vertices, reversed(q.arrow_pairs)) == q


def test_loops_are_read_only():
    """A quiver's loops cannot change under a representation that was
    already validated against it."""
    q = fan_quiver(Fan(2, [(1, 0)], [(), (1,)]))
    with pytest.raises(TypeError):
        q.loops[()] = ()


def test_a_shared_quiver_is_immutable():
    """One memoized quiver serves every representation over it, so none
    of them can change it: every public attribute is a tuple, a frozenset
    or a read-only mapping of tuples, and no field can be set."""
    q = fan_quiver(p2_fan())
    assert q is fan_quiver(p2_fan())
    public = {name: value for name, value in vars(q).items() if not name.startswith("_")}
    assert set(public) == {"vertices", "arrow_pairs", "loops"}
    for value in public.values():
        assert isinstance(value, (tuple, frozenset, MappingProxyType))
        items = value.values() if isinstance(value, MappingProxyType) else value
        assert all(isinstance(item, tuple) for item in items)
    for name in public:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, name, ())
    with pytest.raises(TypeError):
        q.loops[()] = ()


@given(ref.orthant_fans())
@settings(max_examples=60, deadline=None)
def test_memoized_quivers_equal_fresh_builds(fan):
    bases = chart_bases(fan)
    fresh = quivers._fan_quiver_cached.__wrapped__(fan, tuple(sorted(bases.items())))
    assert fan_quiver(fan, bases) == fresh
    assert fan_quiver(fan) is fan_quiver(fan, bases)
    for cone, basis in bases.items():
        indices, labels = cone.ray_indices, basis.completion_labels
        fresh = quivers._cube_quiver_cached.__wrapped__(indices, labels)
        assert cube_quiver(list(indices), list(labels)) == fresh
        assert cube_quiver(indices, labels) is cube_quiver(list(indices), list(labels))


def test_bases_differing_only_in_override_share_one_quiver():
    data = json.loads((pathlib.Path(__file__).parent / "fixtures" / "fan_cxcstar_override.json").read_text())
    fan, overrides = fan_from_json(data)
    flagged = chart_bases(fan, overrides)
    assert any(basis.override for basis in flagged.values())
    unflagged = {cone: dataclasses.replace(basis, override=False) for cone, basis in flagged.items()}
    assert fan_quiver(fan, unflagged) is fan_quiver(fan, flagged)
    # the default completion has the same labels, so an equal quiver
    assert fan_quiver(fan) == fan_quiver(fan, flagged)


@given(st.integers(min_value=0, max_value=4))
def test_edges_differ_by_one_index(n):
    q = hypercube_quiver(n)
    for low, high in q.arrow_pairs:
        assert set(low) < set(high)
        assert len(high) == len(low) + 1


def test_json_roundtrip():
    for q in [
        hypercube_quiver(2),
        arrangement_quiver(3),
        fan_quiver(Fan(2, [(1, 0)], [(), (1,)])),
    ]:
        data = quiver_to_json(q)
        assert quiver_from_json(data) == q
        assert quiver_to_json(quiver_from_json(data)) == data
