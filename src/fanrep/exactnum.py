"""Exact rational and integer linear algebra.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator); floats are never used, so invertibility and rank
decisions are exact.  Matrices act on column vectors: ``mat_mul(a, b)``
is the map "apply b, then a".

A RatMatrix is stored as one positive integer denominator and a tuple of
integer entries, reduced so that their gcd with the denominator is 1;
equal matrices therefore store equal integers, and ``==`` and ``hash``
compare them.  The rational kernels (products, sums, inverses,
determinants, invertibility, row echelon forms and nullspaces) run on
those integers: a product is an integer product over the product of the
denominators, reduced by one gcd, and the eliminations are fraction-free
over Z (Bareiss 1968): one Gauss-Jordan sweep, ``_bareiss``, serves every
determinant, invertibility test and inverse.  Fractions are built only by
the ``entries`` view, on its first read, and by the scalar coercion and
``parse_rational``.

An IntMatrix is the den = 1 case of the same core: its product is the
one ``mat_mul`` computes, its inverse over Z (``unimodular_inverse``) is
the one ``invert`` computes, and ``IntMatrix.is_unimodular``, a Bareiss
determinant of +-1, is the one test of unimodularity.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, Sequence

__all__ = [
    "RatMatrix",
    "IntMatrix",
    "NotInvertibleError",
    "NotCompletableError",
    "parse_rational",
    "parse_int",
    "parse_ints",
    "check_keys",
    "parse_object",
    "parse_digits",
    "format_rational",
    "mat_mul",
    "invert",
    "solve_nullspace",
    "hermite_row_transform",
    "unimodular_inverse",
    "complete_to_unimodular",
]


class NotInvertibleError(ValueError):
    """Raised when a square rational matrix has no inverse."""


class NotCompletableError(ValueError):
    """Raised when integer vectors do not extend to a basis of Z^n."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_ratio(text: str) -> tuple:
    """(p, q), q >= 1, from "p/q" or "p" (q = 1), not reduced.

    Only integer and slash forms are accepted; decimal strings are
    rejected so no value sneaks in through float notation.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational string: {text!r}")
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a reduced Fraction with positive denominator,
    with the checks of _parse_ratio."""
    return Fraction(*_parse_ratio(text))


def parse_int(value, where: str) -> int:
    """A JSON integer, returned as is.  Anything else (a float such as 1.9
    or 2.0, a boolean, a string) raises ValueError naming ``where``, so no
    value is truncated on its way in."""
    if type(value) is not int:
        raise ValueError(f"{where} must be a JSON integer, got {value!r}")
    return value


def parse_ints(values, where: str) -> tuple:
    """A JSON list of integers as a tuple; item k is checked by parse_int
    as ``where[k]``."""
    return tuple(parse_int(x, f"{where}[{k}]") for k, x in enumerate(values))


def check_keys(obj, allowed, where: str) -> None:
    """Raise ValueError naming the JSON path of the first key of obj, the
    JSON object at path ``where``, that is not in ``allowed``, so a
    misspelled key is not silently ignored.  A value that is not an
    object is left to its parser."""
    if isinstance(obj, dict):
        unknown = sorted(set(obj) - set(allowed))
        if unknown:
            raise ValueError(
                f'unknown key {where}["{unknown[0]}"]; allowed keys: {", ".join(allowed)}'
            )


def parse_object(value, where: str) -> dict:
    """A JSON object, returned as is.  Anything else (a list, a string, a
    number) raises ValueError naming ``where``, its JSON path, instead of
    failing later on a missing ``.items()``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def parse_digits(text: str, where: str) -> int:
    """The integer written in text, which must be ASCII digits only: a
    sign, a space, an underscore or a non-ASCII digit raises ValueError
    naming ``where``, where int() would accept it."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{where} must be ASCII digits, got {text!r}")
    return int(text)


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _as_fraction(x, den: int = 1) -> Fraction:
    """The scalar coercion: x / den as a Fraction; a float raises TypeError."""
    if type(x) is Fraction and den == 1:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact matrices")
    return Fraction(x) if den == 1 else Fraction(x, den)


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The integer row divided by the gcd of its entries (a zero row as is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


@lru_cache(maxsize=64)
def _unit(n: int) -> tuple:
    """The entries of the n x n identity, row-major."""
    if n < 0:
        raise ValueError("negative matrix dimension")
    return tuple(int(i == j) for i in range(n) for j in range(n))


def _transposed(values: tuple, cols: int) -> tuple:
    """The row-major entries of the transpose of a matrix with cols columns."""
    return tuple(x for j in range(cols) for x in values[j::cols])


def _bareiss(m: list):
    """Bareiss fraction-free Gauss-Jordan elimination of the leading n
    columns of the n integer rows m; every division is exact.  It reduces
    the leading block to p times the identity, p the last pivot, and
    returns (p, sign, tails): sign * p, sign that of the row swaps, is the
    block's determinant, and tails are the reduced rows past column n.
    Returns None when the block is singular.  The list m is reordered and
    its rows replaced; the rows themselves are not modified.

    After step c the leading column is finished, so each row drops it and
    the pivot column is always index 0.
    """
    n = len(m)
    sign = prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][0]), None)
        if piv is None:
            return None
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p = m[c][0]
        tail = m[c][1:]
        for r in range(n):
            if r != c:
                row = m[r]
                f = row[0]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
        m[c] = tail
        prev = p
    return prev, sign, m


class _Matrix:
    """Immutable dense matrix: ``ints`` / ``den``, with ``ints`` the integer
    entries in row-major order.  A subclass gives the entries as the
    ``entries`` tuple and sets ``_format``, the text of an entry in
    ``repr``."""

    __slots__ = ("rows", "cols")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, rows: int, cols: int, den: int, ints: tuple):
        """Set the fields and return self.  ints is a tuple of rows * cols
        ints with gcd(den, *ints) = 1 and den > 0; an IntMatrix takes
        den = 1 from its class."""
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ints", ints)
        if type(self) is RatMatrix:
            object.__setattr__(self, "den", den)
            object.__setattr__(self, "_entries", None)
        return self

    @classmethod
    def _trusted(cls, rows: int, cols: int, den: int, ints: tuple):
        """The matrix stored as (den, ints), with the conditions of _store;
        skips the coercion and checks of the public constructors."""
        return object.__new__(cls)._store(rows, cols, den, ints)

    @classmethod
    def identity(cls, n: int):
        return cls._trusted(n, n, 1, _unit(n))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.ints))

    def transpose(self):
        return self._trusted(self.cols, self.rows, self.den, _transposed(self.ints, self.cols))

    def _int_rows(self) -> list:
        """The rows of den times the matrix, as integer tuples."""
        c = self.cols
        return [self.ints[i * c : (i + 1) * c] for i in range(self.rows)]

    @staticmethod
    def _check_shape(rows: int, cols: int, count: int) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if count != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {count}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]):
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(map(self._format, self.row(i))) for i in range(self.rows)
        )
        return f"{type(self).__name__}({self.rows}x{self.cols}: [{rows}])"


def _reduced(rows: int, cols: int, den: int, ints) -> "RatMatrix":
    """The RatMatrix with entries ints[k] / den (den != 0), divided through
    by gcd(den, *ints) and the sign of den."""
    g = gcd(den, *ints)
    if den < 0:
        g = -g
    if g == 1:
        return _rat(rows, cols, den, tuple(ints))
    return _rat(rows, cols, den // g, tuple(x // g for x in ints))


class RatMatrix(_Matrix):
    """Immutable rational matrix.  0xk and kx0 shapes are legal.

    Stored as one denominator ``den`` > 0 and ``ints``, the integer entries
    in row-major order: entry (i, j) is ints[i * cols + j] / den, and
    gcd(den, *ints) = 1, so equal matrices store equal integers and every
    zero matrix has den 1.  ``entries`` is the tuple of Fractions, built on
    first read and kept; no kernel reads it.
    """

    __slots__ = ("den", "ints", "_entries")
    _format = staticmethod(format_rational)

    def __init__(self, rows: int, cols: int, entries: Iterable):
        # its own __init__: perfbench/tracing.py wraps RatMatrix.__init__ to
        # count the entries it coerces
        entries = tuple(map(_as_fraction, entries))
        self._check_shape(rows, cols, len(entries))
        # over reduced Fractions the lcm of the denominators leaves
        # gcd(den, *ints) = 1
        dens = [x.denominator for x in entries]
        den = lcm(*dens)
        self._store(rows, cols, den, tuple([x.numerator * (den // d) for x, d in zip(entries, dens)]))

    @classmethod
    def from_ints(cls, rows: int, cols: int, den: int, ints: Iterable[int]) -> "RatMatrix":
        """The rows x cols matrix with entry (i, j) = ints[i * cols + j] / den,
        reduced to the stored form.  den and the entries must be ints
        (``operator.index``), and den must not be 0."""
        ints = tuple(map(index, ints))
        den = index(den)
        cls._check_shape(rows, cols, len(ints))
        if den == 0:
            raise ZeroDivisionError("RatMatrix denominator is 0")
        return _reduced(rows, cols, den, ints)

    @property
    def entries(self) -> tuple:
        """The entries as reduced Fractions, in row-major order."""
        view = self._entries
        if view is None:
            den = self.den
            view = tuple(Fraction(x, den) for x in self.ints)
            object.__setattr__(self, "_entries", view)
        return view

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        cls._check_shape(rows, cols, rows * cols)
        return _rat(rows, cols, 1, (0,) * (rows * cols))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.den == 1 and self.ints == _unit(self.rows)

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        """self + sign * other, over the lcm of the two denominators."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return _reduced(
            self.rows, self.cols, den, [x * sa + y * sb for x, y in zip(self.ints, other.ints)]
        )

    def add(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1)

    def sub(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1)

    def scale(self, x) -> "RatMatrix":
        x = _as_fraction(x)
        return _reduced(
            self.rows, self.cols, self.den * x.denominator, [x.numerator * a for a in self.ints]
        )

    def is_invertible(self) -> bool:
        """Decided by the Bareiss elimination of the integer matrix alone;
        builds no inverse."""
        return self.rows == self.cols and _bareiss(self._int_rows()) is not None

    def power(self, k: int) -> "RatMatrix":
        """Exact integer power; negative exponents go through the inverse.
        Only power(0) builds the identity: the product starts from its
        first factor and squares only while bits remain, so power(1) and
        power(-1) make no mat_mul."""
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k == 0:
            return RatMatrix.identity(self.rows)
        base = self if k > 0 else invert(self)
        k = abs(k)
        result = None
        while True:
            if k & 1:
                result = base if result is None else mat_mul(result, base)
            k >>= 1
            if not k:
                return result
            base = mat_mul(base, base)

    def to_json(self) -> list:
        return [[format_rational(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]], where: str) -> "RatMatrix":
        """The matrix written at JSON path ``where`` as a list of
        equal-length lists of rational strings ([] is 0 x 0).  Any other
        shape raises ValueError naming ``where``."""
        shaped = isinstance(data, list) and all(isinstance(row, list) for row in data)
        cols = len(data[0]) if shaped and data else 0
        if not shaped or any(len(row) != cols for row in data):
            raise ValueError(f"{where} must be a list of equal-length lists of rational strings")
        ratios = [_parse_ratio(x) for row in data for x in row]
        den = lcm(*[q for _, q in ratios])
        return _reduced(len(data), cols, den, [p * (den // q) for p, q in ratios])

    @staticmethod
    def block_diag(a: "RatMatrix", b: "RatMatrix") -> "RatMatrix":
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        ints = []
        for row in a._int_rows():
            ints += [x * sa for x in row]
            ints += [0] * b.cols
        for row in b._int_rows():
            ints += [0] * a.cols
            ints += [x * sb for x in row]
        return _reduced(a.rows + b.rows, a.cols + b.cols, den, ints)


# the RatMatrix stored as (den, ints), which must already be reduced
_rat = RatMatrix._trusted


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact product a.b; as column-vector maps this applies b first, then a.
    The integer product over the product of the two denominators, reduced
    by one gcd."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
    m, y = b.cols, b.ints
    cols = [y[j::m] for j in range(m)]
    return _reduced(
        a.rows,
        m,
        a.den * b.den,
        [sum(map(mul, row, col)) for row in a._int_rows() for col in cols],
    )


def invert(a: RatMatrix) -> RatMatrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination over Z.

    ``a`` is M / den with M an integer matrix (den = 1 for an IntMatrix);
    _bareiss reduces [M | I] to [p I | R] with R = p M^-1, so
    a^-1 = den R / p, a RatMatrix.  Raises NotInvertibleError when the
    rank is deficient; this signal is what the representation validators
    rely on.
    """
    n = a.rows
    if n != a.cols:
        raise NotInvertibleError(f"matrix is {n}x{a.cols}, not square")
    unit = _unit(n)
    reduced = _bareiss([[*row, *unit[i * n : (i + 1) * n]] for i, row in enumerate(a._int_rows())])
    if reduced is None:
        raise NotInvertibleError(f"rank < {n}")
    p, _, tails = reduced
    return _reduced(n, n, p, [x * a.den for row in tails for x in row])


def _rref(a: RatMatrix) -> tuple:
    """Reduced row echelon form over Z; returns (rows, pivot column list).

    Each row is a primitive integer vector.  Row r divided by its entry in
    column pivots[r] is row r of the rational reduced row echelon form.
    """
    nrows, ncols = a.rows, a.cols
    m = [_primitive(row) for row in a._int_rows()]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([p * x - f * y for x, y in zip(m[i], pivot_row)])
        pivots.append(c)
        r += 1
    return m, pivots


def solve_nullspace(a: RatMatrix) -> list:
    """Echelon-normalized basis of {x : a.x = 0}, as n x 1 columns.

    Basis vectors are indexed by the free columns in increasing order;
    each has entry 1 at its free coordinate and 0 at the other free
    coordinates, so the output is deterministic.
    """
    m, pivots = _rref(a)
    n = a.cols
    # entry c of the vector of free column f is -row[f] / row[c]: over the
    # lcm of the pivot entries every vector is an integer vector
    den = lcm(*[row[c] for row, c in zip(m, pivots)])
    scales = [den // row[c] for row, c in zip(m, pivots)]
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        ints = [0] * n
        ints[f] = den
        for row, c, s in zip(m, pivots, scales):
            ints[c] = -row[f] * s
        basis.append(_reduced(n, 1, den, ints))
    return basis


def rank(a: RatMatrix) -> int:
    return len(_rref(a)[1])


class IntMatrix(_Matrix):
    """Immutable arbitrary-precision integer matrix, the den = 1 case of
    the core: ``entries`` is the stored tuple, and ``ints`` names the same
    slot.  An entry must be an int (``operator.index``), so a float raises
    TypeError."""

    __slots__ = ("entries",)
    den = 1
    _format = str

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(map(index, entries))
        self._check_shape(rows, cols, len(entries))
        self._store(rows, cols, 1, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int = None) -> "IntMatrix":
        k = len(columns)
        if nrows is None:
            if k == 0:
                raise ValueError("cannot infer row count from zero columns")
            nrows = len(columns[0])
        if any(len(col) != nrows for col in columns):
            raise ValueError("ragged columns")
        return cls(nrows, k, [columns[j][i] for i in range(nrows) for j in range(k)])

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if type(other) is not IntMatrix:
            raise TypeError(f"IntMatrix.mul needs an IntMatrix, got {type(other).__name__}")
        return self._trusted(self.rows, other.cols, 1, mat_mul(self, other).ints)

    def det(self) -> int:
        """Exact determinant: the last Bareiss pivot times the row-swap sign."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        reduced = _bareiss(self._int_rows())
        return 0 if reduced is None else reduced[0] * reduced[1]

    def is_unimodular(self) -> bool:
        """Whether the matrix is square with |det| = 1: the one test of
        unimodularity."""
        return self.rows == self.cols and abs(self.det()) == 1


IntMatrix.ints = IntMatrix.entries


def hermite_row_transform(a: IntMatrix) -> tuple:
    """Row Hermite form: returns (Uinv, H, pivots) with a = Uinv.H.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot); Uinv is unimodular, the inverse of the
    row operations U with U.a = H.
    """
    nr, nc = a.rows, a.cols
    m = a.to_rows()
    uinv = IntMatrix.identity(nr).to_rows()

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def add(i, j, q):  # row_i += q * row_j ; uinv col_j -= q * col_i
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        for row in uinv:
            row[j] -= q * row[i]

    def neg(i):
        m[i] = [-x for x in m[i]]
        for row in uinv:
            row[i] = -row[i]

    pivots = []
    pr = 0
    for c in range(nc):
        if pr == nr:
            break
        while True:
            nz = [i for i in range(pr, nr) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][c]), i))
            if i0 != pr:
                swap(pr, i0)
            done = True
            for i in range(pr + 1, nr):
                if m[i][c] != 0:
                    q = m[i][c] // m[pr][c]
                    add(i, pr, -q)
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if pr < nr and m[pr][c] != 0:
            if m[pr][c] < 0:
                neg(pr)
            for i in range(pr):
                q = m[i][c] // m[pr][c]
                if q != 0:
                    add(i, pr, -q)
            pivots.append(c)
            pr += 1
    # H from its shape, not its row lists: a 0 x c input has no rows
    h = IntMatrix._trusted(nr, nc, 1, tuple(x for row in m for x in row))
    return IntMatrix.from_rows(uinv), h, pivots


@lru_cache(maxsize=256)
def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse over Z of a square integer matrix with |det| = 1: the
    rational inverse, which is integral for such a matrix, as an
    IntMatrix.  Raises ValueError when m is not square or |det| != 1.
    Results are cached; matrices are immutable.
    """
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, not square")
    if not m.is_unimodular():
        raise ValueError("matrix is not unimodular (|det| != 1)")
    return IntMatrix._trusted(m.rows, m.cols, 1, invert(m).ints)


def complete_to_unimodular(vectors: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Extend k <= n integer vectors to the columns of a unimodular matrix.

    The result is the inverse transform U^-1 of the row Hermite reduction
    U.A = H of the matrix A whose columns are the inputs.  For a saturated
    input H = [I_k; 0], so A = U^-1.H is the first k columns of U^-1: the
    result starts with the inputs verbatim, and it is deterministic.
    Raises NotCompletableError when the inputs do not span a saturated
    rank-k sublattice of Z^n.
    """
    vectors = [tuple(map(index, vec)) for vec in vectors]
    k = len(vectors)
    if k > n:
        raise NotCompletableError(f"{k} vectors cannot be independent in Z^{n}")
    for vec in vectors:
        if len(vec) != n:
            raise ValueError(f"vector {vec} is not {n}-dimensional")
    uinv, h, pivots = hermite_row_transform(IntMatrix.from_columns(vectors, n))
    if len(pivots) < k:
        raise NotCompletableError("vectors are linearly dependent")
    for r in range(k):
        if h.entry(r, pivots[r]) != 1:
            raise NotCompletableError(
                "vectors span a non-saturated sublattice "
                f"(Hermite pivot {h.entry(r, pivots[r])} != 1)"
            )
    if not uinv.is_unimodular():
        raise AssertionError("completion is not unimodular; this is a bug")
    return uinv


def is_primitive(vec: Sequence[int]) -> bool:
    """True iff the integer vector is nonzero with coprime entries; an
    entry that is not an int (``operator.index``) raises TypeError."""
    return gcd(*map(index, vec)) == 1
