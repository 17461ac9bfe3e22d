"""Quiver representations and the category validators.

A representation assigns a dimension to each vertex, a u/v matrix pair to
each edge, and an invertible square matrix to each loop.  The validators
check the defining conditions of the three categories (normal crossing,
generic arrangement, fan) and report violations exhaustively instead of
failing fast, so tests can assert exact violation sets.  Each equality
is stated as relation rows (condition, location, lhs, rhs, detail), and
one comparator, relation_violations, reports the failing rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import index
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Tuple

from .charts import stratum_loop_exponents
from .exactnum import (
    NotInvertibleError,
    RatMatrix,
    check_keys,
    mat_mul,
    parse_digits,
    parse_int,
    parse_object,
    solve_nullspace,
)
from .geometry import ChartBasis, Cone, Fan, chart_bases, cone_key, loop_reference
from .quivers import (
    Quiver,
    Vertex,
    arrangement_quiver,
    fan_quiver,
    hypercube_quiver,
    quiver_from_json,
    quiver_to_json,
    subsets,
    vertex_key,
    parse_vertex_key,
)

__all__ = [
    "Representation",
    "Morphism",
    "Violation",
    "ShapeError",
    "IsoResult",
    "monodromy",
    "validate_Cn",
    "validate_CSigma",
    "validate_CDelta",
    "overlap_operators",
    "reference_operators",
    "hom_basis",
    "are_isomorphic",
    "direct_sum",
    "rep_to_json",
    "rep_from_json",
    "edge_key",
    "parse_edge_key",
]


class ShapeError(ValueError):
    """A matrix in a representation has the wrong shape."""


@dataclass(frozen=True, order=True)
class Violation:
    """One failed condition, with a stable location for exact assertions."""

    condition: str
    location: Tuple
    detail: str = field(compare=False, default="")

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "location": list(self.location),
            "detail": self.detail,
        }


def edge_key(edge) -> str:
    low, high = edge
    return f"{vertex_key(low)}-{vertex_key(high)}"


def violation_sort_key(violation: "Violation"):
    return (violation.condition, tuple(str(x) for x in violation.location))


def parse_edge_key(key: str):
    low, _, high = key.partition("-")
    return (parse_vertex_key(low), parse_vertex_key(high))


def _pop_map(maps: dict, kind: str, key, rows: int, cols: int) -> RatMatrix:
    """Remove and return maps[key], the kind ("u", "v" or "loop") map at key,
    or its default when that is absent or None (zero for u and v, the
    identity for a loop); ShapeError unless it is rows x cols."""
    mat = maps.pop(key, None)
    if mat is None:
        mat = RatMatrix.identity(rows) if kind == "loop" else RatMatrix.zeros(rows, cols)
    if mat.shape != (rows, cols):
        where = f"{vertex_key(key[0])}:{key[1]}" if kind == "loop" else edge_key(key)
        raise ShapeError(f"{kind}[{where}] must be {rows}x{cols}, got {mat.rows}x{mat.cols}")
    return mat


class Representation:
    """Immutable representation of a quiver over Q.  dims, u, v and
    loop_maps are read-only mappings, so a validation verdict computed
    once stays true for the object's lifetime (see cdelta_check)."""

    __slots__ = ("quiver", "dims", "u", "v", "loop_maps", "_cdelta")

    def __init__(self, quiver: Quiver, dims: Dict[Vertex, int], u=None, v=None, loops=None):
        unknown = set(dims) - set(quiver.vertices)
        dims = {vtx: index(dims.get(vtx, 0)) for vtx in quiver.vertices}
        if any(d < 0 for d in dims.values()):
            raise ShapeError("negative dimension")
        u = dict(u or {})
        v = dict(v or {})
        loops = dict(loops or {})
        u_maps = {}
        v_maps = {}
        for edge in quiver.arrow_pairs:
            nl, nh = dims[edge[0]], dims[edge[1]]
            u_maps[edge] = _pop_map(u, "u", edge, nh, nl)
            v_maps[edge] = _pop_map(v, "v", edge, nl, nh)
        if u:
            raise ShapeError(f"u maps on unknown edges {sorted(edge_key(e) for e in u)}")
        if v:
            raise ShapeError(f"v maps on unknown edges {sorted(edge_key(e) for e in v)}")
        loop_maps = {}
        for vtx in quiver.vertices:
            n = dims[vtx]
            for label in quiver.loops[vtx]:
                loop_maps[(vtx, label)] = _pop_map(loops, "loop", (vtx, label), n, n)
        if loops:
            raise ShapeError(f"loop maps on unknown loops {sorted(map(str, loops))}")
        if unknown:
            raise ShapeError(f"dims given for unknown vertices {sorted(unknown)}")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dims", MappingProxyType(dims))
        object.__setattr__(self, "u", MappingProxyType(u_maps))
        object.__setattr__(self, "v", MappingProxyType(v_maps))
        object.__setattr__(self, "loop_maps", MappingProxyType(loop_maps))
        object.__setattr__(self, "_cdelta", None)  # the last CDeltaCheck

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.dims == other.dims
            and self.u == other.u
            and self.v == other.v
            and self.loop_maps == other.loop_maps
        )

    def __repr__(self) -> str:
        dims = ", ".join(f"{vertex_key(v) or 'ø'}:{d}" for v, d in self.dims.items())
        return f"Representation({dims})"

    def total_dim(self) -> int:
        return sum(self.dims.values())


def monodromy(rep: Representation, edge, end: str = "low") -> RatMatrix:
    """v.u + Id on the low vertex, or u.v + Id on the high vertex."""
    edge = rep.quiver.edge(*edge)
    low, high = edge
    if end == "low":
        return mat_mul(rep.v[edge], rep.u[edge]).add(RatMatrix.identity(rep.dims[low]))
    if end == "high":
        return mat_mul(rep.u[edge], rep.v[edge]).add(RatMatrix.identity(rep.dims[high]))
    raise ValueError("end must be 'low' or 'high'")


def _location(parts) -> tuple:
    """A location as a violation shows it: each cone by cone_key, edge by
    edge_key and vertex by vertex_key, each label or name as it is."""
    out = []
    for part in parts:
        if isinstance(part, Cone):
            part = cone_key(part)
        elif isinstance(part, tuple):
            part = edge_key(part) if part and isinstance(part[0], tuple) else vertex_key(part)
        out.append(part)
    return tuple(out)


def relation_violations(rows, prefix=()):
    """The comparator of every relation check: lazily, the Violation of
    each failing row.  A row (condition, location, lhs, rhs, detail)
    states lhs == rhs.  Only a failing row's location is formatted, after
    prefix (the chart's cone, for a descent chart check); a detail of None
    reads as the difference lhs - rhs."""
    for condition, location, lhs, rhs, detail in rows:
        if lhs != rhs:
            detail = detail or f"difference {lhs.sub(rhs)!r}"
            yield Violation(condition, _location(prefix + location), detail)


def check_quiver(resolver: DirectionResolver, prefix=()) -> List[Violation]:
    """Conditions (i), (ii) and the loop checks on resolver's
    representation, each location after prefix.  Only two are not
    equalities and are checked here: (i), each arrow monodromy v.u + Id
    (read from the resolver, so later lookups reuse it) is invertible,
    and so is each loop map.  The others are relation rows."""
    rep = resolver.rep
    out = []
    for edge in rep.quiver.arrow_pairs:
        low, high = edge
        (label,) = set(high).difference(low)
        if not resolver.operator(low, label).is_invertible():
            detail = f"v.u + Id is singular on {vertex_key(low) or 'ø'}"
            out.append(Violation("i", _location(prefix + (edge,)), detail))
    for key, mat in rep.loop_maps.items():
        if not mat.is_invertible():
            out.append(Violation("loop", _location(prefix + key), "loop map is singular"))
    out += relation_violations(itertools.chain(_square_rows(rep), _loop_rows(resolver)), prefix)
    return out


def _square_rows(rep: Representation):
    """Rows of (ii): the four path identities on each square face (K; p, q)."""
    u, v = rep.u, rep.v
    for base, p, q in rep.quiver.squares():
        kp = tuple(sorted(base + (p,)))
        kq = tuple(sorted(base + (q,)))
        kpq = tuple(sorted(base + (p, q)))
        e_p, e_q, e_pq, e_qp = (base, kp), (base, kq), (kp, kpq), (kq, kpq)
        yield "ii", (base, p, q, "u-path"), mat_mul(u[e_pq], u[e_p]), mat_mul(u[e_qp], u[e_q]), None
        yield "ii", (base, p, q, "v-path"), mat_mul(v[e_p], v[e_pq]), mat_mul(v[e_q], v[e_qp]), None
        yield "ii", (base, p, q, "mixed-pq"), mat_mul(v[e_pq], u[e_qp]), mat_mul(u[e_p], v[e_q]), None
        yield "ii", (base, p, q, "mixed-qp"), mat_mul(v[e_qp], u[e_pq]), mat_mul(u[e_q], v[e_p]), None


def _loop_rows(resolver: DirectionResolver):
    """Rows of the loop checks.  Loops commute at each vertex, and they
    transport: along every edge, for each chart of the resolver's bases
    that contains the upper vertex, each completion direction's operators
    at the two ends must intertwine with the edge's u and v maps.  On a
    chart representation those operators are its loops; on a fan-quiver
    representation an end may carry the direction as a loop, an arrow
    monodromy or a derived expansion."""
    rep = resolver.rep
    q = rep.quiver
    for vtx in q.vertices:
        for l1, l2 in itertools.combinations(q.loops[vtx], 2):
            a, b = rep.loop_maps[(vtx, l1)], rep.loop_maps[(vtx, l2)]
            yield "loop", (vtx, l1, l2), mat_mul(a, b), mat_mul(b, a), "loop maps do not commute"
    detail = "monodromy direction does not transport along "
    tops = sorted(resolver.bases, key=lambda c: c.ray_indices)
    for edge in q.arrow_pairs:
        low, high = edge
        u, v = rep.u[edge], rep.v[edge]
        for chart in tops:
            if not set(high) <= set(chart.ray_indices):
                continue
            for label in resolver.bases[chart].completion_labels:
                try:
                    op_low = resolver.operator(low, label)
                    op_high = resolver.operator(high, label)
                except NotInvertibleError:
                    continue  # already reported by condition (i) or the loop checks
                yield "loop", (edge, label, "u"), mat_mul(u, op_low), mat_mul(op_high, u), detail + "u"
                yield "loop", (edge, label, "v"), mat_mul(op_low, v), mat_mul(v, op_high), detail + "v"


def validate_Cn(rep: Representation) -> List[Violation]:
    """Conditions of the normal-crossing category on a hypercube quiver:
    (i) every v.u + Id invertible, (ii) the square path identities."""
    ground = max(rep.quiver.vertices, key=len) if rep.quiver.vertices else ()
    n = len(ground)
    if rep.quiver != hypercube_quiver(n):
        raise ValueError("representation is not over a hypercube quiver")
    return sorted(check_quiver(DirectionResolver(rep, None, {})), key=violation_sort_key)


def validate_CSigma(rep: Representation) -> List[Violation]:
    """Arrangement category: (i), (ii) on the present squares, and (iii)
    the monodromies at the open stratum pairwise commute."""
    singles = [v for v in rep.quiver.vertices if len(v) == 1]
    n = len(singles)
    if rep.quiver != arrangement_quiver(n):
        raise ValueError("representation is not over an arrangement quiver")
    resolver = DirectionResolver(rep, None, {})
    out = check_quiver(resolver)
    monos = {i: resolver.operator((), i) for i in range(1, n + 1)}
    out += relation_violations(
        ("iii", (i, j), mat_mul(a, b), mat_mul(b, a), f"monodromies {i} and {j} do not commute")
        for (i, a), (j, b) in itertools.combinations(monos.items(), 2)
    )
    return sorted(out, key=violation_sort_key)


class DirectionResolver:
    """The one builder of direction operators, for a fan-quiver
    representation over every chart basis, or for a chart representation
    over the bases holding its own chart alone.

    A direction is named by its label: a ray index, whose vector is the
    ray, or a chart's completion label, whose vector is that chart's
    basis column (labels are unique across charts).  Order of resolution
    at a vertex: the arrow monodromy when vertex + label is an arrow of
    rep's quiver, then the loop map with that label, then the expansion
    of the direction vector in the vertex's reference chart.  On a chart
    representation every label of the chart's basis resolves as an arrow
    or a loop.  C_n and C_Sigma build a chart-less resolver and ask it for
    arrows only, never reaching the expansion.  Each operator is built once
    per resolver, into operators (a new cache by default), each integer
    power once per (operator, exponent), so labels that resolve to one
    matrix share its powers, and each expansion once per (vertex, chart,
    vector), from coordinates charts computes once per (basis, vector).
    """

    def __init__(self, rep: Representation, fan: Fan, bases, operators: Optional[dict] = None):
        self.rep = rep
        self.fan = fan
        self.bases = bases
        self.vectors = {
            label: basis.column(label) for basis in bases.values() for label in basis.labels
        }
        self._operators = {} if operators is None else operators
        self._powers = {}
        self._expansions = {}

    def operator(self, vertex: Vertex, label: int) -> RatMatrix:
        key = (vertex, label)
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = self._operator(vertex, label)
        return op

    def power(self, vertex: Vertex, label: int, k: int) -> RatMatrix:
        key = (self.operator(vertex, label), k)
        op = self._powers.get(key)
        if op is None:
            op = self._powers[key] = key[0].power(k)
        return op

    def _operator(self, vertex: Vertex, label: int) -> RatMatrix:
        rep = self.rep
        if label not in vertex:
            high = tuple(sorted(vertex + (label,)))
            if rep.quiver.has_edge(vertex, high):
                return monodromy(rep, (vertex, high), "low")
        if label in rep.quiver.loops[vertex]:
            return rep.loop_maps[(vertex, label)]
        return self.expansion(vertex, loop_reference(self.fan, Cone(vertex)), self.vectors[label])

    def expansion(self, vertex: Vertex, chart: Cone, vector) -> RatMatrix:
        """Operator at vertex of the lattice direction vector: the product,
        in label order, of the operators of the directions of chart's basis
        raised to vector's coordinates in that basis.  The stratum rule:
        labels inside the vertex are skipped, since their coordinates
        vanish on the stratum.  The product starts from its first nonzero
        factor; only an empty product is the identity.  Built once per
        (vertex, chart, vector)."""
        key = (vertex, chart, tuple(vector))
        op = self._expansions.get(key)
        if op is None:
            op = self._expansions[key] = self._expansion(vertex, self.bases[chart], key[2])
        return op

    def _expansion(self, vertex: Vertex, basis: ChartBasis, vector: tuple) -> RatMatrix:
        result = None
        for label, k in stratum_loop_exponents(basis, vector):
            if k and label not in vertex:
                factor = self.power(vertex, label, k)
                result = factor if result is None else mat_mul(result, factor)
        return RatMatrix.identity(self.rep.dims[vertex]) if result is None else result


def overlap_operators(bases: Dict[Cone, ChartBasis], resolvers):
    """Both sides of relation (iii), as (K, K', J, p, op, product) for each
    ordered pair of distinct maximal cones (K, K'), vertex J of their
    overlap and chart-K' direction p outside it: op is p's operator at J
    from resolvers[K'], product the chart-K exponent product of p's vector
    at J from resolvers[K] (its expansion skips the labels on J, whose
    coordinates die on the stratum).  A direction with a singular side is
    skipped: condition (i) or the loop checks report it."""
    tops = sorted(bases, key=lambda c: c.ray_indices)
    for k, kp in itertools.permutations(tops, 2):
        overlap = tuple(sorted(set(k.ray_indices) & set(kp.ray_indices)))
        labels = [p for p in bases[kp].labels if p not in overlap]
        for j in subsets(overlap):
            yield from _overlap_tuples(resolvers, k, kp, j, labels)


def reference_operators(fan: Fan, bases: Dict[Cone, ChartBasis], resolvers):
    """The tuples of overlap_operators whose first chart is R_J =
    loop_reference(fan, J), for each face J of a maximal cone K' != R_J
    and label p of K' outside R_J.  If every other condition holds, these
    hold only if all of overlap_operators do.

    C_Delta, one resolver: (i), (ii) and the loop checks make R_J's basis
    operators at J commute (its rays span squares at J, and loops commute
    with the monodromies they transport along), so rho_J, R_J's expansion
    at J, is a homomorphism, trivial on the rays in J.  The resolver reads
    each label at J as rho_J of its vector, except the rays r of J's star
    outside R_J compared here, so chart K's product of v_p is rho_J(v_p).

    Descent, one resolver per chart: each rho^K_J is a homomorphism, and
    conjugation and these tuples give rho^K_J = d.rho^R_J.d^-1 on K's
    basis, d = delta(R_J, K, J).  The cocycle delta(R_J, b, J) =
    delta(a, b, J).delta(R_J, a, J) carries that to every pair (a, b)."""
    for kp in sorted(bases, key=lambda c: c.ray_indices):
        for face in kp.faces():
            k = loop_reference(fan, face)
            if k.ray_indices != kp.ray_indices:
                labels = [p for p in bases[kp].labels if p not in k.ray_indices]
                yield from _overlap_tuples(resolvers, k, kp, face.ray_indices, labels)


def _overlap_tuples(resolvers, k: Cone, kp: Cone, j: Vertex, labels):
    own, other = resolvers[kp], resolvers[k]
    for p in labels:
        try:
            op = own.operator(j, p)
            product = other.expansion(j, k, own.vectors[p])
        except NotInvertibleError:
            continue
        yield k, kp, j, p, op, product


def validate_CDelta(
    rep: Representation, fan: Fan, bases=None
) -> List[Violation]:
    """Fan category: (i), (ii), loop coherence, and (iii) the monodromy
    relations between overlapping charts, over reference_operators, and
    over overlap_operators for the report when any condition fails.
    The verdict is computed once per (rep, fan, bases) by cdelta_check;
    each call returns a fresh list."""
    if bases is None:
        bases = chart_bases(fan)
    return list(cdelta_check(rep, fan, bases).verdict)


class CDeltaCheck(NamedTuple):
    """A C_Delta check, as its representation keeps it: the fan and bases
    checked against, the sorted violations, and the operator cache of the
    check's resolver.  It holds no reference to the representation, so a
    checked representation is no reference cycle."""

    fan: Fan
    bases: dict
    verdict: tuple
    operators: dict

    def resolver(self, rep: Representation) -> DirectionResolver:
        """The resolver of rep over this check's fan, bases and operators,
        so it builds no operator the check built."""
        return DirectionResolver(rep, self.fan, self.bases, self.operators)


def cdelta_check(rep: Representation, fan: Fan, bases) -> CDeltaCheck:
    """rep's C_Delta check against fan and bases, kept on rep: a repeat
    check against an equal fan and equal bases returns the kept one.
    Raises ValueError, and keeps nothing, if rep is not over the fan
    quiver."""
    check = rep._cdelta
    if check is not None and check.fan == fan and check.bases == bases:
        return check
    if rep.quiver != fan_quiver(fan, bases):
        raise ValueError("representation quiver does not match the fan quiver")
    resolver = DirectionResolver(rep, fan, dict(bases))
    verdict = tuple(_check_CDelta(resolver))
    check = CDeltaCheck(fan, resolver.bases, verdict, resolver._operators)
    object.__setattr__(rep, "_cdelta", check)
    return check


def _check_CDelta(resolver: DirectionResolver) -> List[Violation]:
    fan, bases = resolver.fan, resolver.bases
    out = check_quiver(resolver)
    resolvers = dict.fromkeys(bases, resolver)
    # one pair per ray of J's star outside R_J, keyed by (J, p) of the tuple
    # t = (K, K', J, p, op, product): other labels read at J as the
    # product itself, and a ray shared by charts repeats its pair
    rays = {t[2:4]: t for t in reference_operators(fan, bases, resolvers) if t[3] <= len(fan.rays)}
    if out or any(relation_violations(_iii_rows(rays.values()))):
        out += relation_violations(_iii_rows(overlap_operators(bases, resolvers)))
    return sorted(out, key=violation_sort_key)


def _iii_rows(operators):
    """Rows of (iii) over tuples of overlap_operators' shape."""
    for k, kp, j, p, op, product in operators:
        yield "iii", (k, kp, j, p), op, product, None


@dataclass
class Morphism:
    """Per-vertex matrices intertwining two representations."""

    source: Representation
    target: Representation
    maps: Dict[Vertex, RatMatrix]

    def is_valid(self) -> bool:
        a, b = self.source, self.target
        if a.quiver != b.quiver:
            return False
        for vtx in a.quiver.vertices:
            mat = self.maps.get(vtx)
            if mat is None or mat.shape != (b.dims[vtx], a.dims[vtx]):
                return False
        return all(
            mat_mul(self.maps[tgt], x_a) == mat_mul(x_b, self.maps[src])
            for src, tgt, x_a, x_b in _arrow_maps(a, b)
        )

    def is_invertible(self) -> bool:
        return all(mat.is_invertible() for mat in self.maps.values())

    def to_json(self) -> dict:
        return {vertex_key(v): m.to_json() for v, m in sorted(self.maps.items())}


def identity_morphism(rep: Representation) -> Morphism:
    return Morphism(
        rep, rep, {v: RatMatrix.identity(rep.dims[v]) for v in rep.quiver.vertices}
    )


def _arrow_maps(a: Representation, b: Representation):
    """(source, target, map in a, map in b) for every u, v and loop arrow;
    a morphism phi must satisfy phi_target.x_a = x_b.phi_source on each."""
    q = a.quiver
    for edge in q.arrow_pairs:
        low, high = edge
        yield low, high, a.u[edge], b.u[edge]
        yield high, low, a.v[edge], b.v[edge]
    for vtx in q.vertices:
        for label in q.loops[vtx]:
            yield vtx, vtx, a.loop_maps[(vtx, label)], b.loop_maps[(vtx, label)]


def _hom_system(a: Representation, b: Representation):
    """Rows of the homogeneous system whose kernel is Hom(a, b).

    phi_v is stored row-major from offsets[v].  Each arrow gives one row
    per entry (i, j) of phi_tgt.x_a - x_b.phi_src: x_a[k][j] multiplies
    phi_tgt[i][k] and -x_b[i][k] multiplies phi_src[k][j].  The rows are
    assembled as integers over one denominator, the lcm of the arrow
    maps' denominators.
    """
    offsets = {}
    total = 0
    for vtx in a.quiver.vertices:
        offsets[vtx] = total
        total += b.dims[vtx] * a.dims[vtx]

    arrows = list(_arrow_maps(a, b))
    den = lcm(*[x.den for _, _, x_a, x_b in arrows for x in (x_a, x_b)])
    ints: List[int] = []
    nrows = 0
    for src, tgt, x_a, x_b in arrows:
        n_src, n_tgt, b_src = a.dims[src], a.dims[tgt], b.dims[src]
        off_src = offsets[src]
        scale_a, scale_b = den // x_a.den, den // x_b.den
        x_a_cols = [[x * scale_a for x in x_a.ints[j::n_src]] for j in range(n_src)]
        for i in range(b.dims[tgt]):
            start = offsets[tgt] + i * n_tgt
            x_b_row = x_b.ints[i * b_src : (i + 1) * b_src]
            for j in range(n_src):
                row = [0] * total
                row[start : start + n_tgt] = x_a_cols[j]
                for k, x in enumerate(x_b_row):
                    row[off_src + k * n_src + j] -= x * scale_b
                ints += row
                nrows += 1
    return RatMatrix.from_ints(nrows, total, den, ints), offsets, total


def hom_basis(a: Representation, b: Representation) -> List[Morphism]:
    """Echelon-normalized basis of the space of morphisms a -> b."""
    if a.quiver != b.quiver:
        raise ValueError("representations live on different quivers")
    system, offsets, total = _hom_system(a, b)
    out = []
    for vec in solve_nullspace(system):
        maps = {}
        for vtx in a.quiver.vertices:
            rows_n, cols_n = b.dims[vtx], a.dims[vtx]
            off = offsets[vtx]
            maps[vtx] = RatMatrix.from_ints(
                rows_n, cols_n, vec.den, vec.ints[off : off + rows_n * cols_n]
            )
        out.append(Morphism(a, b, maps))
    return out


@dataclass
class IsoResult:
    """Outcome of the isomorphism search; 'undecided' is a real verdict,
    distinct from a certified 'no'."""

    verdict: str  # "yes" | "no" | "undecided"
    witness: Optional[Morphism] = None
    reason: str = ""


def _combine(basis: List[Morphism], coeffs) -> Morphism:
    a = basis[0].source
    b = basis[0].target
    maps = {}
    for vtx in a.quiver.vertices:
        acc = RatMatrix.zeros(b.dims[vtx], a.dims[vtx])
        for c, mor in zip(coeffs, basis):
            if c:
                acc = acc.add(mor.maps[vtx].scale(c))
        maps[vtx] = acc
    return Morphism(a, b, maps)


def are_isomorphic(
    a: Representation,
    b: Representation,
    seed: int = 0,
    max_attempts: int = 200,
) -> IsoResult:
    """Search for an isomorphism; certified 'no' or explicit 'undecided'.

    'no' requires a certificate: a dimension mismatch, a zero Hom space,
    or Hom/End dimension counts incompatible with an equivalence.  'yes'
    always carries a witness whose vertex maps were inverted exactly.
    """
    if a.quiver != b.quiver:
        raise ValueError("representations live on different quivers")
    for vtx in a.quiver.vertices:
        if a.dims[vtx] != b.dims[vtx]:
            return IsoResult(
                "no", reason=f"dimension mismatch at vertex {vertex_key(vtx) or 'ø'}"
            )
    if a.total_dim() == 0:
        return IsoResult("yes", witness=identity_morphism(a), reason="zero representations")
    basis = hom_basis(a, b)
    if not basis:
        return IsoResult("no", reason="Hom space is zero")
    end_a = len(hom_basis(a, a))
    end_b = len(hom_basis(b, b))
    hom_ba = len(hom_basis(b, a))
    if not (len(basis) == end_a == end_b == hom_ba):
        return IsoResult(
            "no",
            reason=(
                "Hom/End dimensions are incompatible with an isomorphism: "
                f"hom(a,b)={len(basis)}, end(a)={end_a}, end(b)={end_b}, hom(b,a)={hom_ba}"
            ),
        )

    h = len(basis)
    candidates = []
    for i in range(h):
        coeffs = [Fraction(0)] * h
        coeffs[i] = Fraction(1)
        candidates.append(coeffs)
    if h <= 4:
        for combo in itertools.product(range(-2, 3), repeat=h):
            if any(combo) and combo.count(0) != h - 1:
                candidates.append([Fraction(c) for c in combo])
    rng = random.Random(seed)
    attempts = 0
    for coeffs in candidates:
        if attempts >= max_attempts:
            break
        attempts += 1
        mor = _combine(basis, coeffs)
        if mor.is_invertible():
            return IsoResult("yes", witness=mor)
    while attempts < max_attempts:
        attempts += 1
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(h)
        ]
        mor = _combine(basis, coeffs)
        if mor.is_invertible():
            return IsoResult("yes", witness=mor)
    return IsoResult(
        "undecided",
        reason=f"no invertible combination found in {attempts} attempts",
    )


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Vertexwise and arrowwise block diagonal sum."""
    if a.quiver != b.quiver:
        raise ValueError("representations live on different quivers")
    q = a.quiver
    dims = {v: a.dims[v] + b.dims[v] for v in q.vertices}
    u = {e: RatMatrix.block_diag(a.u[e], b.u[e]) for e in q.arrow_pairs}
    v = {e: RatMatrix.block_diag(a.v[e], b.v[e]) for e in q.arrow_pairs}
    loops = {
        key: RatMatrix.block_diag(a.loop_maps[key], b.loop_maps[key])
        for key in a.loop_maps
    }
    return Representation(q, dims, u, v, loops)


def rep_to_json(rep: Representation, include_quiver: bool = True) -> dict:
    data = {
        "dims": {vertex_key(v): rep.dims[v] for v in rep.quiver.vertices},
        "u": {edge_key(e): rep.u[e].to_json() for e in rep.quiver.arrow_pairs},
        "v": {edge_key(e): rep.v[e].to_json() for e in rep.quiver.arrow_pairs},
        "loops": {
            f"{vertex_key(v)}:{label}": mat.to_json()
            for (v, label), mat in sorted(rep.loop_maps.items())
        },
    }
    if include_quiver:
        data["quiver"] = quiver_to_json(rep.quiver)
    return data


def _parse_loop_key(key: str):
    vkey, _, label = key.rpartition(":")
    return parse_vertex_key(vkey), parse_digits(label, f"label of loop key {key!r}")


def rep_from_json(
    data: dict, quiver: Optional[Quiver] = None, where: str = "$"
) -> Representation:
    """Parse representation JSON, the object at JSON path ``where``."""
    if not isinstance(data, dict):
        raise ValueError("representation JSON must be an object")
    check_keys(data, ("quiver", "dims", "u", "v", "loops"), where)
    if "quiver" in data:
        quiver = quiver_from_json(data["quiver"], f'{where}["quiver"]')
    if quiver is None:
        raise ValueError("representation JSON has no quiver and none was supplied")
    try:
        dims = {
            parse_vertex_key(key): parse_int(value, f'dims["{key}"]')
            for key, value in parse_object(data["dims"], f'{where}["dims"]').items()
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed representation JSON: {exc}")

    def maps(name, parse_key):
        # an empty list stands for the default map, which Representation fills in
        at = f'{where}["{name}"]'
        return {
            parse_key(key): None if rows == [] else RatMatrix.from_json(rows, f'{at}["{key}"]')
            for key, rows in parse_object(data.get(name, {}), at).items()
        }

    u, v = maps("u", parse_edge_key), maps("v", parse_edge_key)
    return Representation(quiver, dims, u, v, maps("loops", _parse_loop_key))
