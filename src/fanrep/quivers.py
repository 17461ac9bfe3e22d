"""The three quiver families: hypercubes, arrangement quivers, fan quivers.

Vertices are sorted tuples of 1-based indices.  Every edge carries a
u-arrow (low vertex to high) and a v-arrow (high to low); loops are
labelled monodromy slots.  Quivers are plain combinatorial data; all
category conditions live in the reps module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .exactnum import check_keys, parse_digits, parse_ints, parse_object
from .geometry import Cone, Fan, chart_bases, loop_reference, subsets

Vertex = Tuple[int, ...]
Edge = Tuple[Vertex, Vertex]

__all__ = [
    "Quiver",
    "Vertex",
    "Edge",
    "subsets",
    "cube_quiver",
    "hypercube_quiver",
    "arrangement_quiver",
    "fan_quiver",
    "quiver_to_json",
    "quiver_from_json",
    "vertex_key",
    "parse_vertex_key",
]


def _vertex(v: Iterable[int]) -> Vertex:
    out = tuple(sorted(index(i) for i in v))
    if len(set(out)) != len(out):
        raise ValueError(f"repeated index in vertex {out}")
    return out


def _vertex_sort_key(v: Vertex):
    return (len(v), v)


@dataclass(frozen=True)
class Quiver:
    """Vertices, u/v arrow pairs on edges, and loop labels per vertex."""

    vertices: Tuple[Vertex, ...]
    arrow_pairs: Tuple[Edge, ...]
    loops: Mapping[Vertex, Tuple[int, ...]]

    def __init__(self, vertices, arrow_pairs, loops=None):
        vertices = tuple(sorted((_vertex(v) for v in vertices), key=_vertex_sort_key))
        if len(set(vertices)) != len(vertices):
            raise ValueError("repeated vertex")
        pairs = []
        for low, high in arrow_pairs:
            low, high = _vertex(low), _vertex(high)
            if not (set(low) < set(high) and len(high) == len(low) + 1):
                raise ValueError(
                    f"arrow pair ({low}, {high}) does not add exactly one index"
                )
            if low not in vertices or high not in vertices:
                raise ValueError(f"arrow pair ({low}, {high}) uses unknown vertex")
            pairs.append((low, high))
        pairs = tuple(sorted(pairs))
        if len(set(pairs)) != len(pairs):
            raise ValueError("repeated arrow pair")
        loops = dict(loops or {})
        norm_loops = {}
        for v in vertices:
            labels = tuple(index(x) for x in loops.pop(v, ()))
            if len(set(labels)) != len(labels):
                raise ValueError(f"repeated loop label at {v}")
            norm_loops[v] = labels
        if loops:
            raise ValueError(f"loops at unknown vertices: {sorted(loops)}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrow_pairs", pairs)
        object.__setattr__(self, "loops", MappingProxyType(norm_loops))
        # not a dataclass field, so equality still compares arrow_pairs only
        object.__setattr__(self, "_pair_set", frozenset(pairs))

    def has_edge(self, low: Vertex, high: Vertex) -> bool:
        """Whether (low, high), two sorted index tuples, is an arrow pair."""
        return (low, high) in self._pair_set

    def edge(self, low, high) -> Edge:
        low, high = _vertex(low), _vertex(high)
        if not self.has_edge(low, high):
            raise KeyError(f"no arrow pair ({low}, {high})")
        return (low, high)

    def squares(self) -> list:
        """All (K, p, q) with p < q whose four subsets are all vertices."""
        vset = set(self.vertices)
        out = []
        for high in self.vertices:
            for p, q in itertools.combinations(high, 2):
                base = tuple(i for i in high if i not in (p, q))
                if (
                    tuple(sorted(base + (p,))) in vset
                    and tuple(sorted(base + (q,))) in vset
                    and base in vset
                ):
                    out.append((base, p, q))
        return sorted(out)


def cube_quiver(indices, loop_labels=()) -> Quiver:
    """The hypercube on an index set: one vertex per subset, a u/v pair
    on each edge adding one index, and the same loop labels at every
    vertex."""
    return _cube_quiver_cached(tuple(indices), tuple(loop_labels))


@lru_cache(maxsize=256)
def _cube_quiver_cached(indices: tuple, loop_labels: tuple) -> Quiver:
    vertices = subsets(indices)
    pairs = [(v, tuple(sorted(v + (p,)))) for v in vertices for p in indices if p not in v]
    return Quiver(vertices, pairs, {v: loop_labels for v in vertices})


def hypercube_quiver(n: int) -> Quiver:
    """The quiver of the normal crossing of n coordinate hyperplanes:
    2^n vertices indexed by subsets of {1..n}, a u/v pair on each edge."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return cube_quiver(range(1, n + 1))


def arrangement_quiver(n_lines: int) -> Quiver:
    """Quiver of n generic lines in the plane: vertices for the open
    stratum, each punctured line, and each crossing point."""
    if n_lines < 1:
        raise ValueError("need at least one line")
    ground = range(1, n_lines + 1)
    vertices = [()]
    vertices += [(i,) for i in ground]
    vertices += [tuple(pair) for pair in itertools.combinations(ground, 2)]
    pairs = [((), (i,)) for i in ground]
    for i, j in itertools.combinations(ground, 2):
        pairs.append(((i,), (i, j)))
        pairs.append(((j,), (i, j)))
    return Quiver(vertices, pairs)


def fan_quiver(fan: Fan, bases: Optional[Dict] = None) -> Quiver:
    """Quiver of a smooth fan: one vertex per cone, an arrow pair for each
    codimension-one face inclusion, and n - j loops at a vertex whose
    largest containing maximal cone has j rays.

    Loop labels are the completion-column labels of the vertex's
    reference chart, so validation can name the monodromy each loop
    carries.
    """
    if bases is None:
        bases = chart_bases(fan)
    return _fan_quiver_cached(fan, tuple(sorted(bases.items())))


@lru_cache(maxsize=64)
def _fan_quiver_cached(fan: Fan, bases: tuple) -> Quiver:
    bases = dict(bases)
    cones = fan.sorted_cones()
    vertices = [c.ray_indices for c in cones]
    pairs = []
    cone_set = set(fan.cones)
    for cone in cones:
        for i in cone.ray_indices:
            face = Cone(tuple(x for x in cone.ray_indices if x != i))
            if face in cone_set:
                pairs.append((face.ray_indices, cone.ray_indices))
    pairs = sorted(set(pairs))
    loops = {}
    for cone in cones:
        ref = loop_reference(fan, cone)
        loops[cone.ray_indices] = bases[ref].completion_labels
    return Quiver(vertices, pairs, loops)


def vertex_key(v: Vertex) -> str:
    return ",".join(str(i) for i in v)


def parse_vertex_key(key: str) -> Vertex:
    if not key:
        return ()
    return _vertex(parse_digits(part, f"index in vertex key {key!r}") for part in key.split(","))


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": [list(v) for v in q.vertices],
        "arrows": [{"low": list(low), "high": list(high)} for low, high in q.arrow_pairs],
        "loops": {vertex_key(v): list(labels) for v, labels in q.loops.items()},
    }


def quiver_from_json(data: dict, where: str = "$") -> Quiver:
    """Parse quiver JSON, the object at JSON path ``where``."""
    if not isinstance(data, dict):
        raise ValueError("quiver JSON must be an object")
    check_keys(data, ("vertices", "arrows", "loops"), where)
    try:
        vertices = [parse_ints(v, f"vertices[{i}]") for i, v in enumerate(data["vertices"])]
        for i, a in enumerate(data["arrows"]):
            check_keys(a, ("low", "high"), f'{where}["arrows"][{i}]')
        pairs = [
            (parse_ints(a["low"], f'arrows[{i}]["low"]'), parse_ints(a["high"], f'arrows[{i}]["high"]'))
            for i, a in enumerate(data["arrows"])
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed quiver JSON: {exc}")
    loops = {
        parse_vertex_key(key): parse_ints(labels, f'loops["{key}"]')
        for key, labels in parse_object(data.get("loops", {}), f'{where}["loops"]').items()
    }
    return Quiver(vertices, pairs, loops)
