"""Smooth rational polyhedral cones and regular fans.

Cones are stored as sorted tuples of 1-based indices into the fan's ray
list; faces of a simplicial cone are exactly the subsets of its index
set, so face closure and intersections are set computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .exactnum import (
    IntMatrix,
    NotCompletableError,
    RatMatrix,
    check_keys,
    complete_to_unimodular,
    is_primitive,
    parse_digits,
    parse_int,
    parse_ints,
    parse_object,
    rank,
    unimodular_inverse,
)

__all__ = [
    "Ray",
    "Cone",
    "Fan",
    "ChartBasis",
    "FanError",
    "validate_fan",
    "is_smooth",
    "dual_cone_smooth",
    "maximal_cones",
    "chart_bases",
    "loop_reference",
    "fan_to_json",
    "fan_from_json",
    "cone_key",
    "parse_cone_key",
    "subsets",
]


class FanError(ValueError):
    """A fan axiom failed; carries the axiom name and the offending data."""

    def __init__(self, axiom: str, detail: str):
        self.axiom = axiom
        self.detail = detail
        super().__init__(f"{axiom}: {detail}")


@dataclass(frozen=True)
class Ray:
    """A one-dimensional cone generator; must be a nonzero primitive vector."""

    vector: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(index(x) for x in self.vector))

    def is_valid(self) -> bool:
        return is_primitive(self.vector)


def subsets(indices) -> list:
    """Every sub-tuple of indices, by size and then lexicographically."""
    indices = tuple(indices)
    return [
        sub
        for r in range(len(indices) + 1)
        for sub in itertools.combinations(indices, r)
    ]


@dataclass(frozen=True, order=True)
class Cone:
    """A cone of a simplicial fan, as a sorted tuple of 1-based ray indices."""

    ray_indices: Tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(index(i) for i in self.ray_indices))
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated ray index in cone {idx}")
        object.__setattr__(self, "ray_indices", idx)

    def __len__(self) -> int:
        return len(self.ray_indices)

    def contains(self, other: "Cone") -> bool:
        return set(other.ray_indices) <= set(self.ray_indices)

    def faces(self) -> list:
        return [Cone(sub) for sub in subsets(self.ray_indices)]


ZERO_CONE = Cone(())


@dataclass(frozen=True)
class Fan:
    """A fan: ambient dimension, ray generators, and index-set cones."""

    dim: int
    rays: Tuple[Ray, ...]
    cones: frozenset

    def __init__(self, dim: int, rays: Iterable, cones: Iterable):
        rays = tuple(r if isinstance(r, Ray) else Ray(tuple(r)) for r in rays)
        cones = frozenset(c if isinstance(c, Cone) else Cone(tuple(c)) for c in cones)
        object.__setattr__(self, "dim", index(dim))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "cones", cones)

    def ray_vector(self, index: int) -> Tuple[int, ...]:
        """Vector of the 1-based ray index."""
        if not 1 <= index <= len(self.rays):
            raise FanError("rays", f"ray index {index} out of range")
        return self.rays[index - 1].vector

    def cone_vectors(self, cone: Cone) -> list:
        return [self.ray_vector(i) for i in cone.ray_indices]

    def sorted_cones(self) -> list:
        return sorted(self.cones, key=lambda c: (len(c), c.ray_indices))

    @staticmethod
    def from_single_cone(dim: int, rays: Sequence[Sequence[int]]) -> "Fan":
        """The fan of all faces of the cone spanned by the given rays."""
        top = Cone(tuple(range(1, len(rays) + 1)))
        return Fan(dim, rays, top.faces())


@dataclass(frozen=True)
class ChartBasis:
    """A Z^n-basis adapted to a maximal cone.

    ``labels[j]`` names column j; columns for the cone's ray indices come
    first (in increasing index order) and equal the rays, and the
    completion columns carry fresh labels never used by any ray or by
    another chart.  ``override`` is True when chart_bases took the basis
    from an override that differs from the default completion; it takes
    no part in equality.
    """

    cone: Cone
    labels: Tuple[int, ...]
    basis: IntMatrix
    override: bool = field(default=False, compare=False)

    def column(self, label: int) -> Tuple[int, ...]:
        return self.basis.col(self.labels.index(label))

    @property
    def completion_labels(self) -> Tuple[int, ...]:
        return self.labels[len(self.cone.ray_indices) :]


def validate_fan(fan: Fan) -> None:
    """Check the fan axioms, raising FanError at the first violation.

    Checked in order: (a) rays nonzero, primitive, of the right dimension
    and pairwise distinct; (b) each cone's rays linearly independent;
    (c) face closure, every subset of a cone's index set is a cone;
    (d) pairwise index-set intersections are cones of the fan.
    """
    seen = {}
    for pos, ray in enumerate(fan.rays, start=1):
        if len(ray.vector) != fan.dim:
            raise FanError("rays", f"ray {pos} has dimension {len(ray.vector)}, fan has {fan.dim}")
        if not ray.is_valid():
            raise FanError("rays", f"ray {pos} = {ray.vector} is zero or not primitive")
        if ray.vector in seen:
            raise FanError("rays", f"rays {seen[ray.vector]} and {pos} coincide")
        seen[ray.vector] = pos
    if not fan.cones:
        raise FanError("face-closure", "fan has no cones; the zero cone is required")
    for cone in fan.sorted_cones():
        for i in cone.ray_indices:
            if not 1 <= i <= len(fan.rays):
                raise FanError("rays", f"cone {cone.ray_indices} references unknown ray {i}")
        vectors = fan.cone_vectors(cone)
        if vectors:
            m = RatMatrix.from_rows([list(v) for v in zip(*vectors)])
            if rank(m) != len(vectors):
                raise FanError(
                    "independence", f"rays of cone {cone.ray_indices} are linearly dependent"
                )
    for cone in fan.sorted_cones():
        for face in cone.faces():
            if face not in fan.cones:
                raise FanError(
                    "face-closure",
                    f"face {face.ray_indices} of cone {cone.ray_indices} is missing",
                )
    for a, b in itertools.combinations(fan.sorted_cones(), 2):
        meet = Cone(tuple(set(a.ray_indices) & set(b.ray_indices)))
        if meet not in fan.cones:
            raise FanError(
                "intersection",
                f"intersection {meet.ray_indices} of cones {a.ray_indices} and "
                f"{b.ray_indices} is not in the fan",
            )


def is_smooth(fan: Fan, cone: Cone) -> bool:
    """True iff the cone's rays extend to a basis of Z^n."""
    if cone not in fan.cones:
        raise FanError("unknown-cone", f"cone {cone.ray_indices} is not in the fan")
    try:
        complete_to_unimodular(fan.cone_vectors(cone), fan.dim)
    except NotCompletableError:
        return False
    return True


def dual_cone_smooth(m: IntMatrix) -> IntMatrix:
    """Dual generators of a full-dimensional smooth cone.

    Input: the square matrix whose columns generate the cone (possibly a
    completed chart basis), with |det| = 1.  Returns G = (M^T)^{-1}, whose
    columns g_i satisfy <g_i, v_j> = delta_ij exactly.  For a lower
    dimensional cone completed to a basis the caller owns the sign choice
    on the completion directions; we always return +g.  A matrix that is
    not square, or not unimodular, raises ValueError from
    unimodular_inverse.
    """
    return unimodular_inverse(m).transpose()


@lru_cache(maxsize=64)
def _maximal_cones_cached(fan: Fan) -> tuple:
    out = []
    for cone in fan.cones:
        if not any(other != cone and other.contains(cone) for other in fan.cones):
            out.append(cone)
    return tuple(sorted(out, key=lambda c: c.ray_indices))


def maximal_cones(fan: Fan) -> list:
    """Cones not strictly contained in another, in lexicographic order."""
    return list(_maximal_cones_cached(fan))


def loop_reference(fan: Fan, cone: Cone) -> Cone:
    """Reference chart of a cone: the lexicographically smallest maximal
    cone containing it, among those of maximal cardinality.

    The cardinality restriction keeps the loop count n - max|K| coherent
    with the reference chart's completion labels on fans whose maximal
    cones have mixed dimensions.
    """
    ref = _loop_references(fan).get(cone)
    if ref is None:
        raise FanError("unknown-cone", f"no maximal cone contains {cone.ray_indices}")
    return ref


@lru_cache(maxsize=64)
def _loop_references(fan: Fan) -> dict:
    """Every face of a maximal cone, mapped to its reference chart: the
    larger maximal cones claim their faces first, then the smaller ray
    index tuples."""
    table = {}
    for top in sorted(_maximal_cones_cached(fan), key=lambda c: (-len(c), c.ray_indices)):
        for face in top.faces():
            table.setdefault(face, top)
    return table


def chart_bases(fan: Fan, overrides: Optional[Dict[Cone, IntMatrix]] = None) -> Dict[Cone, ChartBasis]:
    """Fix a chart basis for every maximal cone.

    Completion columns get globally fresh labels: charts are processed in
    lexicographic order and labels count up from len(rays) + 1, so no two
    charts share a completion label.  A basis taken from ``overrides``
    that differs from the default completion is flagged ``override``.
    An override on a cone that is not maximal raises FanError.
    """
    overrides = overrides or {}
    tops = maximal_cones(fan)
    stray = sorted(set(overrides).difference(tops))
    if stray:
        raise FanError("basis-override", f"basis for {stray[0].ray_indices} is not on a maximal cone")
    out = {}
    next_label = len(fan.rays) + 1
    for cone in tops:
        k = len(cone)
        labels = tuple(cone.ray_indices) + tuple(range(next_label, next_label + fan.dim - k))
        next_label += fan.dim - k
        override = overrides.get(cone)
        if override is not None:
            _validated_override(fan, cone, override)
        try:
            default = complete_to_unimodular(fan.cone_vectors(cone), fan.dim)
        except NotCompletableError as exc:
            raise FanError(
                "smoothness", f"maximal cone {cone.ray_indices} is not smooth: {exc}"
            )
        if override is None or override == default:
            out[cone] = ChartBasis(cone=cone, labels=labels, basis=default)
        else:
            out[cone] = ChartBasis(cone=cone, labels=labels, basis=override, override=True)
    return out


def _validated_override(fan: Fan, cone: Cone, override: IntMatrix) -> None:
    if override.shape != (fan.dim, fan.dim):
        raise FanError(
            "basis-override",
            f"basis for {cone.ray_indices} must be {fan.dim}x{fan.dim}, got {override.shape}",
        )
    if not override.is_unimodular():
        raise FanError("basis-override", f"basis for {cone.ray_indices} has |det| != 1")
    for j, i in enumerate(cone.ray_indices):
        if override.col(j) != fan.ray_vector(i):
            raise FanError(
                "basis-override",
                f"column {j} of the basis for {cone.ray_indices} must equal ray {i}",
            )


def cone_key(cone: Cone) -> str:
    return ",".join(str(i) for i in cone.ray_indices)


def parse_cone_key(key: str) -> Cone:
    if not key:
        return ZERO_CONE
    return Cone(tuple(parse_digits(part, f"index in cone key {key!r}") for part in key.split(",")))


def fan_to_json(fan: Fan, overrides: Optional[Dict[Cone, IntMatrix]] = None) -> dict:
    data = {
        "dim": fan.dim,
        "rays": [list(r.vector) for r in fan.rays],
        "cones": [list(c.ray_indices) for c in fan.sorted_cones()],
    }
    if overrides:
        data["bases"] = {
            cone_key(cone): mat.to_rows() for cone, mat in sorted(overrides.items())
        }
    return data


def fan_from_json(data: dict, where: str = "$") -> tuple:
    """Parse fan JSON, the object at JSON path ``where``; returns (fan,
    basis overrides)."""
    if not isinstance(data, dict):
        raise ValueError("fan JSON must be an object")
    check_keys(data, ("dim", "rays", "cones", "bases"), where)
    try:
        dim = parse_int(data["dim"], "dim")
        rays = [parse_ints(ray, f"rays[{i}]") for i, ray in enumerate(data["rays"])]
        cones = [parse_ints(cone, f"cones[{i}]") for i, cone in enumerate(data["cones"])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fan JSON: {exc}")
    fan = Fan(dim, rays, cones)
    overrides = {}
    for key, rows in parse_object(data.get("bases", {}), f'{where}["bases"]').items():
        mat = IntMatrix.from_rows(
            [parse_ints(row, f'bases["{key}"][{i}]') for i, row in enumerate(rows)]
        )
        overrides[parse_cone_key(key)] = mat
    return fan, overrides
