"""Machine-speed calibration for a shared host.

On a shared machine the same job's wall time swings by half or more
within a minute, and its CPU time swings with it, because neighbours
slow the core down.  The benchmark therefore times this fixed kernel
(exact Gauss-Jordan inverses of a constant rational matrix, the same
kind of interpreter-bound Fraction work the library does, written here
so that no change to the library can move it) next to every job, and
scales each job's wall time by REFERENCE_S / (kernel time around it).
Times are reported as seconds at the reference speed: the speed at which
the kernel takes REFERENCE_S, measured on a 2.1 GHz Xeon vCPU with the
host quiet.  Raw wall times are kept in each run's record.
"""

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + (7 if i == j else 0) for j in range(7)] for i in range(7)]


def _inverse(a):
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = perf_counter()
    for _ in range(3):
        _inverse(_MATRIX)
    return perf_counter() - start


def speed() -> float:
    """Current speed relative to the reference (1.0 = reference speed)."""
    return REFERENCE_S / kernel_seconds()
