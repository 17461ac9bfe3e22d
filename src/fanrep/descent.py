"""Descent data over the maximal charts of a fan, and the gluing functor.

A descent datum holds one representation per maximal cone (over that
chart's hypercube-with-loops quiver) plus invertible overlap matrices
delta indexed by ordered chart pairs and overlap vertices.  Gluing
assembles a single fan-quiver representation by letting the vertex's
reference chart (``loop_reference``) own each vertex and routing
cross-chart arrows through delta; the quasi-inverse restricts a global
representation to every chart with identity deltas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Tuple

from .exactnum import NotInvertibleError, RatMatrix, check_keys, invert, mat_mul, parse_object
from .geometry import (
    ChartBasis,
    Cone,
    Fan,
    FanError,
    chart_bases,
    cone_key,
    fan_from_json,
    fan_to_json,
    loop_reference,
    maximal_cones,
    parse_cone_key,
    validate_fan,
)
from .quivers import Quiver, Vertex, cube_quiver, fan_quiver, parse_vertex_key, subsets, vertex_key
from .reps import (
    DirectionResolver,
    Morphism,
    Representation,
    Violation,
    cdelta_check,
    check_quiver,
    overlap_operators,
    reference_operators,
    relation_violations,
    rep_from_json,
    rep_to_json,
    violation_sort_key,
)

__all__ = [
    "DescentDatum",
    "DescentError",
    "DescentMorphism",
    "chart_quiver",
    "overlaps",
    "validate_descent",
    "glue",
    "section",
    "glue_morphism",
    "descent_to_json",
    "descent_from_json",
]


class DescentError(ValueError):
    """Structural problem with a descent datum (shapes, missing pieces).
    ``violations`` is empty except for an invalid datum given to glue."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


def chart_quiver(fan: Fan, bases: Dict[Cone, ChartBasis], cone: Cone) -> Quiver:
    """Quiver of one affine chart: the hypercube on the cone's ray set,
    with the chart's completion labels as loops at every vertex."""
    return cube_quiver(cone.ray_indices, bases[cone].completion_labels)


def overlaps(tops):
    """The delta keys (K, K', J): each pair K < K' of the maximal cones
    tops (in lexicographic order) and each vertex J of their overlap."""
    for a, b in itertools.combinations(tops, 2):
        for j in subsets(sorted(set(a.ray_indices) & set(b.ray_indices))):
            yield a, b, j


class DescentDatum:
    """Per-chart representations plus overlap isomorphisms delta.

    Deltas map the first chart's space into the second's:
    delta(K, K', J): E^K_J -> E^K'_J.  Only one direction per pair needs
    to be supplied; the reverse is the exact inverse.  One table holds
    both directions, so delta() never inverts.  delta(K, K, J) is the
    identity.  charts and bases are read-only mappings, and the datum
    keeps its validate_descent verdict once computed.
    """

    __slots__ = ("fan", "bases", "charts", "_deltas", "_verdict")

    def __init__(self, fan: Fan, charts: Dict[Cone, Representation], deltas, bases=None):
        if bases is None:
            bases = chart_bases(fan)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "bases", MappingProxyType(dict(bases)))
        tops = maximal_cones(fan)
        charts = dict(charts)
        for cone in tops:
            if cone not in charts:
                raise DescentError(f"missing chart representation for {cone.ray_indices}")
            expected = chart_quiver(fan, bases, cone)
            if charts[cone].quiver != expected:
                raise DescentError(
                    f"chart {cone.ray_indices} is not over its chart quiver"
                )
        extra = set(charts) - set(tops)
        if extra:
            raise DescentError(f"charts given for non-maximal cones {sorted(extra)}")
        object.__setattr__(self, "charts", MappingProxyType(charts))

        given = {}
        for (k, kp, j), mat in dict(deltas).items():
            k = k if isinstance(k, Cone) else Cone(tuple(k))
            kp = kp if isinstance(kp, Cone) else Cone(tuple(kp))
            j = tuple(sorted(j))
            if k == kp:
                raise DescentError("deltas must join two distinct charts")
            if k not in charts or kp not in charts or not set(j) <= set(k.ray_indices) & set(kp.ray_indices):
                raise DescentError(
                    f"delta {_delta_key(k, kp, j)} does not lie on the overlap of two "
                    "maximal cones"
                )
            given.setdefault((k, kp, j), []).append(mat)
        table = {}
        for key in overlaps(tops):
            a, b, j = key
            back = (b, a, j)
            mats = given.get(key, []) + [_exact_inverse(m, *back) for m in given.get(back, [])]
            if not mats:
                raise DescentError(f"missing delta for {_delta_key(*key)}")
            mat = mats[0]
            if any(m != mat for m in mats):
                raise DescentError(
                    f"deltas for {_delta_key(*key)} disagree with the inverse-pair invariant"
                )
            want = (self.charts[b].dims[j], self.charts[a].dims[j])
            if mat.shape != want:
                raise DescentError(
                    f"delta {_delta_key(*key)} must be {want[0]}x{want[1]}, "
                    f"got {mat.rows}x{mat.cols}"
                )
            table[key] = mat
            table[back] = given[back][0] if back in given else _exact_inverse(mat, *key)
        object.__setattr__(self, "_deltas", table)
        object.__setattr__(self, "_verdict", None)

    def __setattr__(self, name, value):
        raise AttributeError("DescentDatum is immutable")

    def delta(self, k: Cone, kp: Cone, j) -> RatMatrix:
        j = tuple(sorted(j))
        if k == kp:
            return RatMatrix.identity(self.charts[k].dims[j])
        return self._deltas[(k, kp, j)]

    def stored_deltas(self) -> Dict[Tuple[Cone, Cone, Vertex], RatMatrix]:
        """The deltas (K, K', J) with K < K', as descent JSON writes them."""
        return {key: mat for key, mat in self._deltas.items() if key[0] < key[1]}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DescentDatum)
            and self.fan == other.fan
            and self.bases == other.bases
            and self.charts == other.charts
            and self._deltas == other._deltas
        )


def _delta_key(k: Cone, kp: Cone, j: Vertex) -> str:
    """The key K|K'|J of a delta in descent JSON."""
    return f"{cone_key(k)}|{cone_key(kp)}|{vertex_key(j)}"


def _exact_inverse(mat: RatMatrix, k: Cone, kp: Cone, j: Vertex) -> RatMatrix:
    """Inverse of the delta given for (K, K', J); an identity is its own
    inverse, and a singular one is named by its key as written."""
    if mat.is_identity():
        return mat
    try:
        return invert(mat)
    except NotInvertibleError:
        raise DescentError(f"delta for {_delta_key(k, kp, j)} is singular")


def validate_descent(d: DescentDatum) -> List[Violation]:
    """Check chart validity, overlap conjugation, monodromy transport,
    and the triple cocycle.  The verdict is computed once per datum and
    kept on it; each call returns a fresh list."""
    return list(_verdict(d))


def _verdict(d: DescentDatum) -> Tuple[Violation, ...]:
    if d._verdict is None:
        object.__setattr__(d, "_verdict", tuple(_check_descent(d)))
    return d._verdict


def _check_descent(d: DescentDatum) -> List[Violation]:
    tops = maximal_cones(d.fan)
    # one direction resolver per chart, over the bases holding that chart alone
    resolvers = {
        cone: DirectionResolver(chart, d.fan, {cone: d.bases[cone]})
        for cone, chart in d.charts.items()
    }
    out = [v for cone in tops for v in check_quiver(resolvers[cone], (cone,))]
    out += relation_violations(itertools.chain(_conjugation_rows(d, tops), _cocycle_rows(d, tops)))
    # transport through each vertex's reference chart holds for every
    # pair once the checks above pass; every pair is walked only to report
    walk = reference_operators(d.fan, d.bases, resolvers)
    if out or any(relation_violations(_transport_rows(d, walk))):
        out += relation_violations(_transport_rows(d, overlap_operators(d.bases, resolvers)))
    return sorted(out, key=violation_sort_key)


def _conjugation_rows(d: DescentDatum, tops):
    """One pass per chart pair, over chart a's edges inside their overlap:
    djp^-1 . u_b . dj == u_a and dj^-1 . v_b . djp == v_a, each multiplied
    through by its left delta."""
    for a, b in itertools.combinations(tops, 2):
        ca, cb = d.charts[a], d.charts[b]
        overlap = set(a.ray_indices) & set(b.ray_indices)
        for edge in (e for e in ca.quiver.arrow_pairs if overlap.issuperset(e[1])):
            j, jp = edge
            dj, djp = d.delta(a, b, j), d.delta(a, b, jp)
            yield (
                "conjugation", (a, b, edge, "u"), mat_mul(cb.u[edge], dj), mat_mul(djp, ca.u[edge]),
                "delta does not conjugate the shared u map",
            )
            yield (
                "conjugation", (a, b, edge, "v"), mat_mul(cb.v[edge], djp), mat_mul(dj, ca.v[edge]),
                "delta does not conjugate the shared v map",
            )


def _cocycle_rows(d: DescentDatum, tops):
    """The deltas are exact inverse pairs, so the six orders of a triple
    hold or fail together: one product per unordered triple, and a row
    for each order."""
    for triple in itertools.combinations(tops, 3):
        a, b, c = triple
        overlap = set(a.ray_indices) & set(b.ray_indices) & set(c.ray_indices)
        for j in subsets(sorted(overlap)):
            product, delta = mat_mul(d.delta(b, c, j), d.delta(a, b, j)), d.delta(a, c, j)
            for order in itertools.permutations(triple):
                yield "cocycle", order + (j,), product, delta, "deltas fail the triple cocycle"


def _transport_rows(d: DescentDatum, operators):
    """Transport over tuples of overlap_operators' shape: dj^-1 . op . dj ==
    product, multiplied through by dj = delta(a, b, j)."""
    detail = "conjugated monodromy does not match the exponent product"
    for a, b, j, p, op, product in operators:
        dj = d.delta(a, b, j)
        yield "transport", (a, b, j, p), mat_mul(op, dj), mat_mul(dj, product), detail


def glue(d: DescentDatum) -> Representation:
    """Assemble the global fan-quiver representation from a valid datum.

    Each vertex is owned by the vertex's reference chart (loop_reference).
    That chart's completion labels are the vertex's loop labels, so every
    loop is the owning chart's loop map.  Arrows whose two ends have
    different owners are routed through the owning charts' delta, and the
    others keep the chart's maps.
    The datum is read-only, so glue reuses the verdict validate_descent
    kept on it (or computes and keeps it).  An invalid datum raises
    DescentError naming its first violation, with the sorted list of its
    violations in ``violations``; the message is the same whether the
    verdict was kept or computed here.
    """
    violations = _verdict(d)
    if violations:
        raise DescentError(
            f"descent datum is invalid; first violation: {violations[0]}", violations
        )
    quiver = fan_quiver(d.fan, d.bases)
    owners = {vtx: loop_reference(d.fan, Cone(vtx)) for vtx in quiver.vertices}
    dims = {vtx: d.charts[owner].dims[vtx] for vtx, owner in owners.items()}
    u = {}
    v = {}
    for edge in quiver.arrow_pairs:
        low, high = edge
        a = owners[low]
        b = owners[high]
        chart = d.charts[b]
        if a == b:
            u[edge], v[edge] = chart.u[edge], chart.v[edge]
        else:
            u[edge] = mat_mul(chart.u[edge], d.delta(a, b, low))
            v[edge] = mat_mul(d.delta(b, a, low), chart.v[edge])
    loops = {
        (vtx, label): d.charts[owners[vtx]].loop_maps[(vtx, label)]
        for vtx in quiver.vertices
        for label in quiver.loops[vtx]
    }
    return Representation(quiver, dims, u, v, loops)


def section(rep: Representation, fan: Fan, bases=None) -> DescentDatum:
    """Restrict a valid fan-quiver representation to every chart, with
    identity deltas.  The representation is read-only, so section reuses
    the verdict and the operators validate_CDelta kept on it for this fan
    and these bases (or computes and keeps them), chart loop operators
    included.  An invalid one raises DescentError naming its first
    violation, kept verdict or not."""
    if bases is None:
        bases = chart_bases(fan)
    check = cdelta_check(rep, fan, bases)
    if check.verdict:
        raise DescentError(f"representation is invalid; first violation: {check.verdict[0]}")
    resolver = check.resolver(rep)
    tops = maximal_cones(fan)
    charts = {}
    for cone in tops:
        quiver = chart_quiver(fan, bases, cone)
        dims = {vtx: rep.dims[vtx] for vtx in quiver.vertices}
        u = {edge: rep.u[edge] for edge in quiver.arrow_pairs}
        v = {edge: rep.v[edge] for edge in quiver.arrow_pairs}
        loops = {}
        for vtx in quiver.vertices:
            for label in quiver.loops[vtx]:
                loops[(vtx, label)] = resolver.operator(vtx, label)
        charts[cone] = Representation(quiver, dims, u, v, loops)
    deltas = {key: RatMatrix.identity(rep.dims[key[2]]) for key in overlaps(tops)}
    return DescentDatum(fan, charts, deltas, bases=bases)


@dataclass
class DescentMorphism:
    """A morphism of descent data: one chart morphism per maximal cone,
    compatible with the deltas."""

    source: DescentDatum
    target: DescentDatum
    charts: Dict[Cone, Morphism]

    def is_valid(self) -> bool:
        tops = maximal_cones(self.source.fan)
        for cone in tops:
            mor = self.charts.get(cone)
            if mor is None or not mor.is_valid():
                return False
        return all(
            mat_mul(self.charts[b].maps[j], self.source.delta(a, b, j))
            == mat_mul(self.target.delta(a, b, j), self.charts[a].maps[j])
            for a, b, j in overlaps(tops)
        )


def glue_morphism(m: DescentMorphism) -> Morphism:
    """Image of a descent morphism under gluing: the owning chart's
    component at each vertex, owned as in glue."""
    glued_source = glue(m.source)
    glued_target = glue(m.target)
    fan = m.source.fan
    maps = {
        vtx: m.charts[loop_reference(fan, Cone(vtx))].maps[vtx]
        for vtx in glued_source.quiver.vertices
    }
    return Morphism(glued_source, glued_target, maps)


def descent_to_json(d: DescentDatum) -> dict:
    """Descent JSON; the fan's ``bases`` holds the chart bases that differ
    from the default completion of chart_bases(fan), as each basis records
    in its ``override`` flag."""
    overrides = {cone: basis.basis for cone, basis in d.bases.items() if basis.override}
    return {
        "fan": fan_to_json(d.fan, overrides),
        "charts": {
            cone_key(cone): rep_to_json(chart, include_quiver=False)
            for cone, chart in sorted(d.charts.items(), key=lambda kv: kv[0].ray_indices)
        },
        "deltas": {
            _delta_key(*key): mat.to_json()
            for key, mat in sorted(d.stored_deltas().items(), key=lambda kv: kv[0])
        },
    }


def descent_from_json(data: dict) -> DescentDatum:
    if not isinstance(data, dict):
        raise ValueError("descent JSON must be an object")
    check_keys(data, ("fan", "charts", "deltas"), "$")
    try:
        fan, overrides = fan_from_json(data["fan"], '$["fan"]')
        chart_data = parse_object(data["charts"], '$["charts"]')
        delta_data = parse_object(data["deltas"], '$["deltas"]')
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed descent JSON: {exc}")
    try:
        bases = chart_bases(fan, overrides)
    except FanError:
        # name the first failing fan axiom, which a basis check may hide
        validate_fan(fan)
        raise
    tops = maximal_cones(fan)
    charts = {}
    for key, rep_data in chart_data.items():
        cone = parse_cone_key(key)
        if cone not in tops:
            raise DescentError(f'chart key $["charts"]["{key}"] is not a maximal cone of the fan')
        quiver = chart_quiver(fan, bases, cone)
        charts[cone] = rep_from_json(rep_data, quiver=quiver, where=f'$["charts"]["{key}"]')
    deltas = {}
    for key, rows in delta_data.items():
        parts = key.split("|")
        if len(parts) != 3:
            raise ValueError(f'delta key $["deltas"]["{key}"] is not of the form K|K\'|J')
        a_key, b_key, j_key = parts
        deltas[
            (parse_cone_key(a_key), parse_cone_key(b_key), parse_vertex_key(j_key))
        ] = RatMatrix.from_json(rows, f'$["deltas"]["{key}"]')
    return DescentDatum(fan, charts, deltas, bases=bases)
