"""Toric chart transitions as integer exponent matrices.

A transition between smooth charts is a Laurent-monomial map; everything
the library needs from it (loop transport, cocycles) is linear in the
exponents, so the map is represented by its exponent matrix alone.  Row i
of the matrix holds the coordinates of the i-th dual basis vector of the
target chart against the source chart's dual basis, i.e. the map sends
source coordinates x to y_i = prod_j x_j ** A[i][j].
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul
from typing import Dict, Tuple

from .exactnum import IntMatrix, unimodular_inverse
from .geometry import ChartBasis, Cone, Fan, maximal_cones

__all__ = [
    "CocycleError",
    "gluing_map",
    "check_cocycle",
    "stratum_loop_exponents",
]


class CocycleError(ValueError):
    """A triple of chart transitions fails h_IJ then h_JK = h_IK."""

    def __init__(self, triple, detail: str):
        self.triple = triple
        super().__init__(detail)


def gluing_map(basis_k: ChartBasis, basis_kp: ChartBasis) -> IntMatrix:
    """Exponent matrix of the transition from chart K to chart K'.

    A = B_K'^{-1} . B_K; row i gives the chart-K exponents of the i-th
    chart-K' coordinate.  When the charts coincide the result is the
    identity.  Raises ValueError, through unimodular_inverse, when either
    basis is not unimodular.
    """
    b_k = basis_k.basis
    b_kp = basis_kp.basis
    if b_k.shape != b_kp.shape:
        raise ValueError("charts live in different ambient dimensions")
    unimodular_inverse(b_k)  # rejects B_K; cached, so no new determinant
    return unimodular_inverse(b_kp).mul(b_k)


def check_cocycle(fan: Fan, bases: Dict[Cone, ChartBasis]) -> Dict[tuple, IntMatrix]:
    """Verify h_JK.h_IJ = h_IK on every ordered triple (I, J, K) of maximal
    charts, walking the pairs through the first maximal chart O, and
    return the table {(I, J): h_IJ} of the m^2 transitions it checked.

    It checks the triples (J, J, J), which for an invertible h_JJ say
    h_JJ = I, and (I, O, J), and raises CocycleError on the first that
    fails.  They suffice: with I = J the second gives h_JO = h_OJ^-1, so
    h_JK.h_IJ = h_OK.h_JO.h_OJ.h_IO = h_OK.h_IO = h_IK.
    h_IJ = B_J^-1.B_I satisfies the cocycle for every family of unimodular
    bases, overrides included, so the walk guards gluing_map's index
    order, not the input.
    """
    tops = maximal_cones(fan)
    glue = {
        (a, b): gluing_map(bases[a], bases[b])
        for a, b in itertools.product(tops, repeat=2)
    }
    failing = itertools.chain(
        ((j, j, j) for j in tops if glue[j, j] != IntMatrix.identity(fan.dim)),
        (
            (i, o, j)
            for o in tops[:1]
            for i, j in itertools.product(tops, repeat=2)
            if glue[o, j].mul(glue[i, o]) != glue[i, j]
        ),
    )
    triple = next(failing, None)
    if triple is not None:
        raise CocycleError(
            triple, "cocycle fails on ({}, {}, {})".format(*(c.ray_indices for c in triple))
        )
    return glue


@lru_cache(maxsize=1024)
def stratum_loop_exponents(basis: ChartBasis, vector: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """Exact coordinates of an integer vector in a chart basis, as
    (label, coordinate) pairs in label order: the exponents of the chart's
    basis directions in the direction of ``vector``.  They do not depend
    on the stratum; which factors survive at a vertex is the resolver's
    rule.  Results are cached on (basis, vector); both are immutable.
    """
    inv = unimodular_inverse(basis.basis)
    if len(vector) != inv.cols:
        raise ValueError(f"vector {list(vector)} is not {inv.cols}-dimensional")
    return tuple(sorted((label, sum(map(mul, inv.row(i), vector))) for i, label in enumerate(basis.labels)))
