"""Exact arithmetic backbone: products, inverses, nullspaces, lattice forms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from fanrep.exactnum import (
    IntMatrix,
    NotCompletableError,
    NotInvertibleError,
    RatMatrix,
    complete_to_unimodular,
    format_rational,
    hermite_row_transform,
    invert,
    is_primitive,
    mat_mul,
    parse_rational,
    rank,
    solve_nullspace,
    unimodular_inverse,
)


def rat(rows):
    return RatMatrix.from_rows(rows)


class TestRationalStrings:
    def test_roundtrip(self):
        for text in ["0", "5", "-3", "1/2", "-7/3"]:
            assert format_rational(parse_rational(text)) == text

    def test_normalisation(self):
        assert parse_rational("4/8") == Fraction(1, 2)
        assert format_rational(Fraction(-4, 8)) == "-1/2"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RatMatrix(1, 1, [0.5])

    @pytest.mark.parametrize("text", ["\u0661", "\uff13", "1/1\u0660", "1.5", "1e3", "1/0", "1/-2", ""])
    def test_other_strings_rejected(self, text):
        # Unicode decimal digits are not digits of a rational string
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == f"not a rational string: {text!r}"


class TestIntMatrix:
    def test_non_integers_rejected(self):
        for value in (1.9, 2.0, Fraction(1, 2), "1"):
            with pytest.raises(TypeError):
                IntMatrix(1, 1, [value])

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(-1, 0, [])

    def test_never_equal_to_a_rational_matrix(self):
        a = IntMatrix.identity(2)
        assert RatMatrix(2, 2, a.entries) == RatMatrix.identity(2)
        assert a != RatMatrix.identity(2) and RatMatrix.identity(2) != a
        assert repr(a) == "IntMatrix(2x2: [1 0; 0 1])"


class TestMatMul:
    def test_identity(self):
        x = rat([[1, 2], [3, 4]])
        assert mat_mul(RatMatrix.identity(2), x) == x

    def test_zero(self):
        assert mat_mul(rat([[0]]), rat([[5]])) == rat([[0]])

    def test_hand_product(self):
        a = rat([[1, 1], [0, 1]])
        b = rat([[1, 0], [1, 1]])
        assert mat_mul(a, b) == rat([[2, 1], [1, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(rat([[1, 2]]), rat([[1, 2]]))

    def test_empty_shapes(self):
        a = RatMatrix.zeros(0, 2)
        b = RatMatrix.zeros(2, 3)
        assert mat_mul(a, b).shape == (0, 3)
        c = RatMatrix.zeros(2, 0)
        assert mat_mul(c, RatMatrix.zeros(0, 2)) == RatMatrix.zeros(2, 2)


class TestInvert:
    def test_identity(self):
        assert invert(RatMatrix.identity(3)) == RatMatrix.identity(3)

    def test_scalar(self):
        assert invert(rat([[2]])) == rat([[Fraction(1, 2)]])

    def test_singular(self):
        with pytest.raises(NotInvertibleError):
            invert(rat([[1, 1], [1, 1]]))

    def test_non_square(self):
        with pytest.raises(NotInvertibleError):
            invert(rat([[1, 0]]))

    def test_dimension_zero(self):
        assert invert(RatMatrix.zeros(0, 0)) == RatMatrix.zeros(0, 0)
        assert RatMatrix.zeros(0, 0).is_invertible()


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert solve_nullspace(RatMatrix.identity(2)) == []

    def test_zero_map(self):
        basis = solve_nullspace(RatMatrix.zeros(1, 2))
        assert basis == [RatMatrix(2, 1, [1, 0]), RatMatrix(2, 1, [0, 1])]

    def test_hand_solve(self):
        basis = solve_nullspace(rat([[1, -1]]))
        assert basis == [RatMatrix(2, 1, [1, 1])]

    def test_members_are_in_kernel(self):
        a = rat([[2, 1, 3], [4, 2, 6]])
        for vec in solve_nullspace(a):
            assert mat_mul(a, vec) == RatMatrix.zeros(2, 1)


class TestCompleteToUnimodular:
    def test_standard_vector(self):
        assert complete_to_unimodular([(1, 0)], 2) == IntMatrix.identity(2)

    def test_non_saturated(self):
        with pytest.raises(NotCompletableError):
            complete_to_unimodular([(1, 0), (1, 2)], 2)

    def test_diagonal_vector(self):
        out = complete_to_unimodular([(1, 1)], 2)
        assert out.col(0) == (1, 1)
        assert abs(out.det()) == 1

    def test_dependent_vectors(self):
        with pytest.raises(NotCompletableError):
            complete_to_unimodular([(1, 0), (2, 0)], 2)

    def test_empty_input(self):
        assert complete_to_unimodular([], 3) == IntMatrix.identity(3)

    def test_too_many_vectors(self):
        with pytest.raises(NotCompletableError):
            complete_to_unimodular([(1,), (0,)], 1)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return IntMatrix.from_rows(rows)


@st.composite
def rat_matrices(draw, rows, cols, entries=small_entries):
    data = draw(
        st.lists(entries, min_size=rows * cols, max_size=rows * cols)
    )
    return RatMatrix(rows, cols, data)


@given(int_matrices(max_dim=4))
def test_hermite_transform_consistency(a):
    uinv, h, pivots = hermite_row_transform(a)
    assert uinv.mul(h) == a
    assert abs(uinv.det()) == 1
    for r, c in enumerate(pivots):
        assert h.entry(r, c) > 0
        for i in range(r + 1, h.rows):
            assert h.entry(i, c) == 0


@given(st.data())
def test_complete_to_unimodular_prefix_and_det(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=n))
    vectors = [
        tuple(data.draw(small_entries) for _ in range(n)) for _ in range(k)
    ]
    try:
        out = complete_to_unimodular(vectors, n)
    except NotCompletableError:
        # the inputs must then fail saturation: some SNF diagonal != 1
        if k:
            _, d, _ = ref.smith_normal_form(IntMatrix.from_columns(vectors, n))
            diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
            assert any(x != 1 for x in diag[:k]) or len([x for x in diag if x != 0]) < k
        return
    assert abs(out.det()) == 1
    for j, vec in enumerate(vectors):
        assert out.col(j) == vec


@given(st.data())
@settings(max_examples=60)
def test_vu_plus_id_invertible_iff_uv_plus_id(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    m = data.draw(st.integers(min_value=0, max_value=4))
    u = data.draw(rat_matrices(m, n, st.integers(min_value=-3, max_value=3)))
    v = data.draw(rat_matrices(n, m, st.integers(min_value=-3, max_value=3)))
    vu = mat_mul(v, u).add(RatMatrix.identity(n))
    uv = mat_mul(u, v).add(RatMatrix.identity(m))
    assert vu.is_invertible() == uv.is_invertible()


@given(st.data())
@settings(max_examples=60)
def test_invert_roundtrip(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    a = data.draw(rat_matrices(n, n))
    try:
        inv = invert(a)
    except NotInvertibleError:
        assert ref.det(a) == 0
        return
    assert mat_mul(inv, a) == RatMatrix.identity(n)
    assert mat_mul(a, inv) == RatMatrix.identity(n)


@given(st.data())
@settings(max_examples=40)
def test_nullspace_dimension_matches_rank(data):
    r = data.draw(st.integers(min_value=1, max_value=4))
    c = data.draw(st.integers(min_value=1, max_value=4))
    a = data.draw(rat_matrices(r, c))
    basis = solve_nullspace(a)
    assert len(basis) == c - rank(a)
    for vec in basis:
        assert mat_mul(a, vec) == RatMatrix.zeros(r, 1)


def test_power_negative_exponent():
    a = rat([[2]])
    assert a.power(-2) == rat([[Fraction(1, 4)]])
    b = rat([[1, 1], [0, 1]])
    assert b.power(-1) == rat([[1, -1], [0, 1]])
    assert b.power(0) == RatMatrix.identity(2)


@given(st.data())
@settings(max_examples=80)
def test_power_equals_repeated_product(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    a = data.draw(rat_matrices(n, n, entries).filter(lambda m: m.is_invertible()))
    for k in range(-5, 6):
        assert a.power(k) == ref.power(a, k)
    assert a.power(0) == RatMatrix.identity(n)


@pytest.mark.parametrize("k, products", [(1, 0), (-1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (-6, 3)])
def test_power_makes_no_identity_products(monkeypatch, k, products):
    """floor(log2 |k|) squarings plus one product per further set bit."""
    from fanrep import exactnum

    calls = []

    def counting(a, b):
        calls.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(exactnum, "mat_mul", counting)
    a = rat([[1, 1], [0, 1]])
    assert a.power(k) == rat([[1, k], [0, 1]])
    assert len(calls) == products
    assert all(RatMatrix.identity(2) not in pair for pair in calls)


# --- differential tests: the integer kernels against the Fraction reference ---

# zeros make singular and rank-deficient matrices common; large
# denominators exercise the row scaling
kernel_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    ),
)


@st.composite
def kernel_matrices(draw, rows=None, cols=None):
    """A matrix of 0..4 rows and columns (0xk and kx0 included); one in
    three is a product through a narrower inner dimension, so its rank is
    deficient."""
    r = draw(st.integers(min_value=0, max_value=4)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=4)) if cols is None else cols
    if min(r, c) > 0 and draw(st.integers(min_value=0, max_value=2)) == 0:
        inner = draw(st.integers(min_value=0, max_value=min(r, c) - 1))
        left = draw(rat_matrices(r, inner, kernel_entries))
        right = draw(rat_matrices(inner, c, kernel_entries))
        return ref.mat_mul(left, right)
    return draw(rat_matrices(r, c, kernel_entries))


def assert_identical(got: RatMatrix, want: RatMatrix):
    assert got.shape == want.shape
    assert got.entries == want.entries
    assert all(type(x) is Fraction for x in got.entries)


def outcome(kernel, a):
    try:
        return kernel(a)
    except NotInvertibleError:
        return NotInvertibleError


@given(st.data())
@settings(max_examples=150)
def test_mat_mul_matches_reference(data):
    a = data.draw(kernel_matrices())
    b = data.draw(kernel_matrices(rows=a.cols))
    assert_identical(mat_mul(a, b), ref.mat_mul(a, b))


@given(st.data())
@settings(max_examples=150)
def test_square_kernels_match_reference(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    a = data.draw(kernel_matrices(rows=n, cols=n))
    got, want = outcome(invert, a), outcome(ref.invert, a)
    if want is NotInvertibleError:
        assert got is NotInvertibleError
    else:
        assert_identical(got, want)
    assert a.is_invertible() == ref.is_invertible(a)
    assert Fraction(IntMatrix(n, n, a.ints).det(), a.den**n) == ref.det(a)


@given(st.data())
@settings(max_examples=60)
def test_non_square_is_never_invertible(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    m = data.draw(st.integers(min_value=0, max_value=4).filter(lambda m: m != n))
    a = data.draw(kernel_matrices(rows=n, cols=m))
    assert outcome(invert, a) is NotInvertibleError
    assert not a.is_invertible()


@given(kernel_matrices())
@settings(max_examples=150)
def test_nullspace_and_rank_match_reference(a):
    got, want = solve_nullspace(a), ref.solve_nullspace(a)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert_identical(x, y)
    assert rank(a) == ref.rank(a)


@st.composite
def int_matrix_pairs(draw):
    """(a, b) of shapes 0-4 x 0-4; b.rows is a.cols, or any row count."""
    dims = st.integers(min_value=0, max_value=4)
    r, k, c = draw(dims), draw(dims), draw(dims)
    k2 = draw(st.one_of(st.just(k), dims))
    a = IntMatrix(r, k, draw(st.lists(small_entries, min_size=r * k, max_size=r * k)))
    b = IntMatrix(k2, c, draw(st.lists(small_entries, min_size=k2 * c, max_size=k2 * c)))
    return a, b


def stored(m: IntMatrix) -> tuple:
    return type(m), m.shape, m.entries


@given(int_matrix_pairs())
@settings(max_examples=300)
def test_int_matrix_core_matches_reference(pair):
    a, b = pair
    if a.cols == b.rows:
        assert stored(a.mul(b)) == stored(ref.int_mul(a, b))
        assert mat_mul(a, b) == RatMatrix(a.rows, b.cols, a.mul(b).entries)
    else:
        with pytest.raises(ValueError):
            a.mul(b)
    cells = [(i, j) for j in range(a.cols) for i in range(a.rows)]
    assert stored(a.transpose()) == stored(IntMatrix(a.cols, a.rows, [a.entry(i, j) for i, j in cells]))
    n = a.rows
    assert stored(IntMatrix.identity(n)) == stored(IntMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)]))
    copy = IntMatrix(a.rows, a.cols, list(a.entries))
    assert copy == a and hash(copy) == hash(a)
    assert (a == b) == (stored(a) == stored(b))
    assert a != RatMatrix(a.rows, a.cols, a.entries)
    if a.rows == a.cols:
        want = ref.det(RatMatrix(a.rows, a.cols, a.entries))
        assert a.det() == want
        assert a.is_unimodular() == (abs(want) == 1)
    else:
        assert not a.is_unimodular()


def test_int_matrix_mul_needs_an_int_matrix():
    with pytest.raises(TypeError):
        IntMatrix.identity(2).mul(RatMatrix.identity(2))


@given(int_matrices(max_dim=4))
def test_int_det_matches_reference(a):
    if a.rows == a.cols:
        assert a.det() == ref.det(RatMatrix(a.rows, a.cols, a.entries))


@pytest.mark.parametrize(
    "rows, det",
    [
        ([[0, 1], [1, 0]], -1),
        # zero leading entries: the sweep swaps rows at columns 0 and 1
        ([[0, 2, 1], [0, 0, 3], [5, 1, 0]], 30),
    ],
)
def test_det_sign_follows_the_row_swaps(rows, det):
    assert IntMatrix.from_rows(rows).det() == det == ref.det(rat(rows))
    a = rat(rows).scale(Fraction(1, 2))
    assert a.is_invertible() and mat_mul(invert(a), a) == RatMatrix.identity(len(rows))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_kernels_agree_with_sympy(data):
    sympy = pytest.importorskip("sympy")

    def exact(m):
        return tuple(Fraction(int(x.p), int(x.q)) for x in m)

    a = data.draw(kernel_matrices())
    m = sympy.Matrix(a.rows, a.cols, [sympy.Rational(x.numerator, x.denominator) for x in a.entries])
    assert rank(a) == m.rank()
    # sympy normalizes its nullspace basis the same way: 1 at each free column
    assert [vec.entries for vec in solve_nullspace(a)] == [exact(vec) for vec in m.nullspace()]
    if a.rows == a.cols:
        assert Fraction(IntMatrix(a.rows, a.cols, a.ints).det(), a.den**a.rows) == exact([m.det()])[0]
        if a.is_invertible():
            assert invert(a).entries == exact(m.inv())


@given(ref.unimodular_matrices())
@settings(max_examples=150)
def test_unimodular_inverse_matches_rational_inverse(m):
    got = unimodular_inverse(m)
    assert type(got) is IntMatrix
    assert list(map(Fraction, got.entries)) == list(ref.invert(RatMatrix(m.rows, m.cols, m.entries)).entries)


@given(int_matrices(max_dim=4))
def test_unimodular_inverse_rejects_other_matrices(a):
    if a.is_unimodular():
        assert a.mul(unimodular_inverse(a)) == IntMatrix.identity(a.rows)
    else:
        with pytest.raises(ValueError):
            unimodular_inverse(a)


def test_unimodular_inverse_messages():
    with pytest.raises(ValueError, match="not square"):
        unimodular_inverse(IntMatrix(1, 2, [1, 0]))
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))


@pytest.mark.parametrize("shape", [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)])
def test_lattice_forms_keep_empty_shapes(shape):
    a = IntMatrix(*shape, [])
    uinv, h, pivots = hermite_row_transform(a)
    assert (h.shape, pivots) == (shape, [])
    assert uinv.mul(h) == a and uinv == IntMatrix.identity(shape[0])


# --- the stored form: one denominator and integer entries ---


def assert_stored_form(m: RatMatrix):
    """den > 0, gcd(den, *ints) = 1, and the entries view reads ints / den."""
    assert m.den > 0 and gcd(m.den, *m.ints) == 1
    assert m.ints == tuple(x * m.den for x in m.entries)
    assert all(type(x) is int for x in m.ints)


def fraction_rows(m: RatMatrix) -> list:
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def test_zero_and_empty_matrices_have_denominator_one():
    for shape in [(0, 0), (0, 3), (3, 0), (2, 2)]:
        assert RatMatrix.zeros(*shape).den == 1
        assert RatMatrix(*shape, [Fraction(0, 7)] * (shape[0] * shape[1])).den == 1
    half = rat([[Fraction(1, 2), Fraction(1, 3)]])
    assert (half.den, half.ints) == (6, (3, 2))
    assert half.sub(half).den == 1 and half.scale(0).den == 1


def test_from_ints_reduces_and_checks():
    assert RatMatrix.from_ints(1, 2, -4, [2, 6]) == rat([[Fraction(-1, 2), Fraction(-3, 2)]])
    assert RatMatrix.from_ints(0, 2, 5, []) == RatMatrix.zeros(0, 2)
    with pytest.raises(ZeroDivisionError):
        RatMatrix.from_ints(1, 1, 0, [1])
    with pytest.raises(ValueError):
        RatMatrix.from_ints(2, 2, 1, [1, 2, 3])
    for value in (1.9, 2.0, Fraction(1, 2)):
        with pytest.raises(TypeError):
            RatMatrix.from_ints(1, 1, 1, [value])
        with pytest.raises(TypeError):
            RatMatrix.from_ints(1, 1, value, [1])


@given(st.data())
@settings(max_examples=150)
def test_kernel_outputs_equal_and_hash_as_constructed_matrices(data):
    """A matrix a kernel returns and the equal matrix built from its
    Fractions by the public constructor, or from a multiple of its
    integers, are ==, hash alike and store the same integers."""
    a = data.draw(kernel_matrices())
    b = data.draw(kernel_matrices(rows=a.cols))
    k = data.draw(st.integers(min_value=1, max_value=10**6))
    outputs = [mat_mul(a, b), a.transpose(), a.add(a), a.sub(a)] + solve_nullspace(a)
    if a.is_invertible():
        outputs.append(invert(a))
    for got in outputs:
        assert_stored_form(got)
        built = RatMatrix(got.rows, got.cols, list(got.entries))
        scaled = RatMatrix.from_ints(got.rows, got.cols, -k * got.den, [-k * x for x in got.ints])
        for twin in (built, scaled):
            assert twin == got and hash(twin) == hash(got)
            assert (twin.den, twin.ints) == (got.den, got.ints)
    assert (mat_mul(a, b) == ref.mat_mul(a, b)) and hash(mat_mul(a, b)) == hash(ref.mat_mul(a, b))


@given(st.data())
@settings(max_examples=150)
def test_linear_operations_match_fraction_arithmetic(data):
    """add, sub, scale, transpose, block_diag, is_identity and equality
    with the zero matrix against the same operation on the Fraction
    entries, 0 x k shapes and denominators up to 10^6 included."""
    a = data.draw(kernel_matrices())
    b = data.draw(kernel_matrices(rows=a.rows, cols=a.cols))
    c = data.draw(kernel_matrices())
    x = data.draw(kernel_entries)
    fa, fb = list(a.entries), list(b.entries)
    cases = [
        (a.add(b), a.rows, a.cols, [p + q for p, q in zip(fa, fb)]),
        (a.sub(b), a.rows, a.cols, [p - q for p, q in zip(fa, fb)]),
        (a.scale(x), a.rows, a.cols, [Fraction(x) * p for p in fa]),
        (a.transpose(), a.cols, a.rows, [p for j in range(a.cols) for p in fa[j :: a.cols]]),
        (
            RatMatrix.block_diag(a, c),
            a.rows + c.rows,
            a.cols + c.cols,
            [p for row in fraction_rows(a) for p in row + [0] * c.cols]
            + [p for row in fraction_rows(c) for p in [0] * a.cols + row],
        ),
    ]
    for got, rows, cols, want in cases:
        assert_stored_form(got)
        assert got.shape == (rows, cols)
        assert got.entries == tuple(Fraction(p) for p in want)
        assert all(type(p) is Fraction for p in got.entries)
    unit = [Fraction(int(i == j)) for i in range(a.rows) for j in range(a.cols)]
    assert a.is_identity() == (a.rows == a.cols and fa == unit)
    assert (a == RatMatrix.zeros(a.rows, a.cols)) == all(p == 0 for p in fa)
    assert RatMatrix.identity(a.rows).is_identity()
    assert RatMatrix.zeros(a.rows, a.cols) == a.sub(a)


@given(kernel_matrices().filter(lambda m: m.rows > 0))
@settings(max_examples=100)
def test_json_parses_into_the_stored_form(a):
    """from_json reads rational strings straight into (den, ints); a JSON
    matrix with 0 rows has no column count, so those shapes are left out."""
    back = RatMatrix.from_json(a.to_json(), "$")
    assert_stored_form(back)
    assert back == a and back.entries == a.entries
    unreduced = [[f"{-2 * x.numerator}/{2 * x.denominator}" for x in row] for row in fraction_rows(a)]
    assert RatMatrix.from_json(unreduced, "$") == a.scale(-1)


@given(st.data())
@settings(max_examples=100)
def test_kernels_leave_the_entries_view_unbuilt(data):
    """mat_mul, invert, is_invertible and == read the stored integers; no
    Fraction view is built on their operands or their results."""
    n = data.draw(st.integers(min_value=0, max_value=4))

    def draw_matrix():
        den = data.draw(st.integers(min_value=1, max_value=10**6))
        ints = data.draw(st.lists(small_entries, min_size=n * n, max_size=n * n))
        return RatMatrix.from_ints(n, n, den, ints)

    a, b = draw_matrix(), draw_matrix()
    product = mat_mul(a, b)
    results = [product, mat_mul(product, a)]
    if a.is_invertible():
        results += [invert(a), a.power(-3)]
    assert product == mat_mul(a, b) and hash(product) == hash(mat_mul(a, b))
    assert all(m._entries is None for m in [a, b] + results)
    assert a.entries == tuple(Fraction(x, a.den) for x in a.ints)
    assert a._entries is not None and b._entries is None


@pytest.mark.parametrize("value", [1.9, 2.0])
def test_lattice_helpers_reject_floats(value):
    # int() would truncate 1.9 to 1 and take 2.0 as 2
    with pytest.raises(TypeError):
        complete_to_unimodular([[value, 0]], 2)
    with pytest.raises(TypeError):
        is_primitive([value, 3])
