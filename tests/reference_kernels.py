"""Fraction Gauss-Jordan kernels kept as the reference for differential tests.

These are the rational kernels ``fanrep.exactnum`` used before its loops
moved to fraction-free integer elimination.  Every product, inverse,
determinant and reduced row echelon form is unique, so the integer
kernels must return exactly the same Fractions and raise
``NotInvertibleError`` on exactly the same inputs.

``_hom_system`` is the Kronecker-product assembly of the Hom system that
``fanrep.reps`` used before it wrote each row directly; the direct
assembly must return the same matrix, entry for entry.

``basis_coordinates`` is the rational version that ``fanrep.charts`` used
before chart-basis inverses were computed over Z; ``unimodular_matrices``
draws the random unimodular inputs both integer inverses are tested on.

``power`` is the repeated product a matrix power must equal, and
``cocycle_violations`` is the descent cocycle walk over every ordered
triple of charts that ``fanrep.descent`` made before it computed one
product per unordered triple.

``chart_operator`` and ``exponent_product`` are the uncached operator of
a lattice direction on a chart representation that ``fanrep.reps`` had
before ``DirectionResolver`` became the only builder of direction
operators; ``DirectionResolver.expansion`` must equal their product.

``glue`` is the gluing functor ``fanrep.descent`` had while the
lexicographically first maximal cone containing a vertex owned it, and
loops at a vertex whose reference chart differs from that owner were
expansions in the owner's chart.  On a pure fan the two owner rules
agree, and ``fanrep.descent.glue`` must return the same representation;
elsewhere the two are isomorphic through the deltas.

``overlap_directions`` with ``iii_violations`` and ``transport_violations``
are the relation (iii) loop of ``fanrep.reps`` and the transport loop of
``fanrep.descent`` as each resolved both sides and skipped a singular
direction itself, before the two shared one operator stream.

``conjugation_violations`` is the overlap conjugation walk of
``fanrep.descent`` while it checked u through the reverse delta,
delta(K', K, J').u_K'.delta(K, K', J) == u_K; the check multiplied
through by delta(K, K', J') must give the same violations.

``smith_normal_form`` is the saturation oracle of the completion test:
k integer vectors extend to a basis of Z^n exactly when the Smith form
of the n x k matrix they make has k diagonal entries equal to 1.  It is
the elimination with its own pivot search, row and column operations
and divisibility repair that ``fanrep.exactnum`` once had; the package
no longer computes a Smith form.  It builds D from its row lists, so a
0 x c input gives a 0 x 0 D.

``int_mul`` is the triple loop through ``entry()`` that ``IntMatrix.mul``
was before it read its integers from ``mat_mul``.  ``check_cocycle`` is
the walk ``fanrep.charts`` made over every ordered pair and every ordered
triple of maximal charts before it walked the pairs through the first
maximal chart; it composes the exponent matrices with ``int_mul``.  Both
walks must raise ``CocycleError`` on the same inputs.

``loop_reference`` is the scan of the maximal cones that
``fanrep.geometry`` made on every call before it kept one table per fan;
the table lookup must return the same chart, or raise the same
``FanError``, for every cone.  ``orthant_fans`` draws the smooth fans,
of mixed dimensions, that it and the quiver memos are tested on.
"""

import itertools
from fractions import Fraction
from typing import Dict, List

from hypothesis import strategies as st

from fanrep.charts import CocycleError, gluing_map, stratum_loop_exponents
from fanrep.descent import DescentError, validate_descent
from fanrep.exactnum import IntMatrix, NotInvertibleError, RatMatrix
from fanrep.geometry import ChartBasis, Cone, Fan, FanError, cone_key, maximal_cones
from fanrep.quivers import Vertex, cube_quiver, fan_quiver, subsets, vertex_key
from fanrep.reps import DirectionResolver, Representation, Violation, _arrow_maps, edge_key, monodromy


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact product a.b; as column-vector maps this applies b first, then a."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
    out = []
    bt = b.transpose()
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            bcol = bt.row(j)
            out.append(sum((x * y for x, y in zip(arow, bcol)), Fraction(0)))
    return RatMatrix(a.rows, b.cols, out)


def invert(a: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination over Q.

    Raises NotInvertibleError when the rank is deficient; this signal is
    what the representation validators rely on.
    """
    if not a.is_square():
        raise NotInvertibleError(f"matrix is {a.rows}x{a.cols}, not square")
    n = a.rows
    m = [list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise NotInvertibleError(f"rank < {n}")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return RatMatrix.from_rows([row[n:] for row in m])


def _rref(a: RatMatrix) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = a.to_rows()
    nrows, ncols = a.rows, a.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        basis.append(RatMatrix(n, 1, vec))
    return basis


def rank(a: RatMatrix) -> int:
    return len(_rref(a)[1])


def det(self: RatMatrix) -> Fraction:
    """The determinant of a rational matrix by Fraction Gaussian
    elimination; the package has it as ``IntMatrix.det`` of den times the
    matrix, over den ** n."""
    if not self.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = self.rows
    a = self.to_rows()
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def is_invertible(self: RatMatrix) -> bool:
    """``RatMatrix.is_invertible`` by building the Gauss-Jordan inverse."""
    if self.rows != self.cols:
        return False
    try:
        invert(self)
    except NotInvertibleError:
        return False
    return True


def _kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                av = a.entry(i, j)
                for l in range(b.cols):
                    out.append(av * b.entry(k, l))
    return RatMatrix(a.rows * b.rows, a.cols * b.cols, out)


def _hom_system(a: Representation, b: Representation):
    """Rows of the homogeneous system whose kernel is Hom(a, b)."""
    offsets = {}
    total = 0
    for vtx in a.quiver.vertices:
        offsets[vtx] = total
        total += b.dims[vtx] * a.dims[vtx]

    rows: List[List[Fraction]] = []
    for src, tgt, x_a, x_b in _arrow_maps(a, b):
        # the Sylvester block of phi_tgt.x_a - x_b.phi_src on vec(phi)
        n_rows = b.dims[tgt] * a.dims[src]
        if not n_rows:
            continue
        block = [[Fraction(0)] * total for _ in range(n_rows)]
        for vtx, coeff, sign in (
            (tgt, _kron(RatMatrix.identity(b.dims[tgt]), x_a.transpose()), 1),
            (src, _kron(x_b, RatMatrix.identity(a.dims[src])), -1),
        ):
            off = offsets[vtx]
            for r in range(coeff.rows):
                row = block[r]
                for c in range(coeff.cols):
                    val = coeff.entry(r, c)
                    if val:
                        row[off + c] += val if sign > 0 else -val
        rows.extend(block)
    if rows:
        system = RatMatrix.from_rows(rows)
    else:
        system = RatMatrix.zeros(0, total)
    return system, offsets, total


def basis_coordinates(basis, vector) -> dict:
    """Coordinates of an integer vector in a chart basis, by label, through
    the rational inverse of the basis."""
    vector = list(vector)
    if len(vector) != basis.basis.rows:
        raise ValueError(f"vector {vector} is not {basis.basis.rows}-dimensional")
    b = basis.basis
    coords = mat_mul(invert(RatMatrix(b.rows, b.cols, b.entries)), RatMatrix(len(vector), 1, vector))
    out = {}
    for label, value in zip(basis.labels, coords.entries):
        if value.denominator != 1:
            raise ValueError(f"{vector} has non-integer coordinates in the chart basis")
        out[label] = value.numerator
    return out


@st.composite
def unimodular_matrices(draw, max_dim=4, min_dim=1):
    """A product of elementary integer matrices (row additions, swaps and
    negations) of size min_dim..max_dim."""
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["add", "swap", "neg"]))
        i, j = draw(index), draw(index)
        if kind == "add" and i != j:
            c = draw(st.integers(min_value=-3, max_value=3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "neg":
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def power(a: RatMatrix, k: int) -> RatMatrix:
    """a^k as |k| products from the identity, through the inverse if k < 0."""
    base = a if k >= 0 else invert(a)
    result = RatMatrix.identity(a.rows)
    for _ in range(abs(k)):
        result = mat_mul(result, base)
    return result


def cocycle_violations(d) -> List[Violation]:
    """The cocycle violations of a descent datum, one product per ordered
    triple (a, b, c) and vertex J of their overlap."""
    out = []
    for a, b, c in itertools.permutations(maximal_cones(d.fan), 3):
        overlap = set(a.ray_indices) & set(b.ray_indices) & set(c.ray_indices)
        for j in subsets(sorted(overlap)):
            left = mat_mul(d.delta(b, c, j), d.delta(a, b, j))
            if left != d.delta(a, c, j):
                out.append(
                    Violation(
                        "cocycle",
                        (cone_key(a), cone_key(b), cone_key(c), vertex_key(j)),
                        "deltas fail the triple cocycle",
                    )
                )
    return out


def chart_operator(
    rep: Representation, basis: ChartBasis, vertex: Vertex, label: int
) -> RatMatrix:
    """Monodromy of a chart-basis direction at a vertex: the arrow
    monodromy for a ray of the chart's cone, the loop map otherwise."""
    if label in basis.cone.ray_indices:
        return monodromy(rep, (vertex, tuple(sorted(vertex + (label,)))), "low")
    return rep.loop_maps[(vertex, label)]


def exponent_product(
    rep: Representation, basis: ChartBasis, vertex: Vertex, vector, operator
) -> RatMatrix:
    """Operator of a lattice direction at a vertex: the product, in label
    order, of operator(rep, basis, vertex, label) raised to the direction's
    exponents in the chart basis (labels inside the vertex are dropped).
    The product starts from its first nonzero factor; only an empty
    product is the identity."""
    result = None
    alpha = stratum_loop_exponents(basis, vertex, vector)
    for label in sorted(alpha):
        if alpha[label]:
            factor = operator(rep, basis, vertex, label).power(alpha[label])
            result = factor if result is None else mat_mul(result, factor)
    return RatMatrix.identity(rep.dims[vertex]) if result is None else result


def lexicographic_owner(tops, vertex) -> Cone:
    """The lexicographically first of the maximal cones tops containing vertex."""
    for cone in tops:
        if set(vertex) <= set(cone.ray_indices):
            return cone
    raise DescentError(f"no maximal cone contains vertex {vertex}")


def glue(d) -> Representation:
    """The glued representation of a valid descent datum, each vertex
    owned by the lexicographically first maximal cone containing it."""
    violations = validate_descent(d)
    if violations:
        raise DescentError(
            f"descent datum is invalid; first violation: {violations[0]}", violations
        )
    fan = d.fan
    bases = d.bases
    quiver = fan_quiver(fan, bases)
    tops = maximal_cones(fan)
    dims = {}
    owners = {}
    for vtx in quiver.vertices:
        owner = lexicographic_owner(tops, vtx)
        owners[vtx] = owner
        dims[vtx] = d.charts[owner].dims[vtx]
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
    loops = {}
    resolvers = {
        cone: DirectionResolver(chart, d.fan, {cone: d.bases[cone]})
        for cone, chart in d.charts.items()
    }
    for vtx in quiver.vertices:
        owner = owners[vtx]
        ref = loop_reference(fan, Cone(vtx))
        for label in quiver.loops[vtx]:
            if ref == owner:
                loops[(vtx, label)] = d.charts[owner].loop_maps[(vtx, label)]
            else:
                loops[(vtx, label)] = resolvers[owner].expansion(
                    vtx, owner, bases[ref].column(label)
                )
    return Representation(quiver, dims, u, v, loops)


def overlap_directions(bases: Dict[Cone, ChartBasis]):
    """The index set of relation (iii), as (K, K', J, labels) once per
    ordered pair of distinct maximal cones (K, K') and vertex J of their
    overlap; labels are the chart-K' basis directions p outside the
    overlap.  The operator of p at J must equal the product of chart-K
    operators with the exponents of p's vector in chart K (coordinates on
    J are dropped; they die on the stratum)."""
    tops = sorted(bases, key=lambda c: c.ray_indices)
    for k, kp in itertools.permutations(tops, 2):
        overlap = tuple(sorted(set(k.ray_indices) & set(kp.ray_indices)))
        labels = [p for p in bases[kp].labels if p not in overlap]
        for j in subsets(overlap):
            yield k, kp, j, labels


def iii_violations(rep: Representation, fan, bases) -> List[Violation]:
    """The relation (iii) violations of a fan-quiver representation."""
    resolver = DirectionResolver(rep, fan, dict(bases))
    out = []
    for k, kp, j, labels in overlap_directions(bases):
        for p in labels:
            try:
                lhs = resolver.operator(j, p)
                rhs = resolver.expansion(j, k, resolver.vectors[p])
            except NotInvertibleError:
                continue  # already reported by condition (i) or the loop checks
            if lhs != rhs:
                out.append(
                    Violation(
                        "iii",
                        (cone_key(k), cone_key(kp), vertex_key(j), p),
                        f"difference {lhs.sub(rhs)!r}",
                    )
                )
    return out


def transport_violations(d) -> List[Violation]:
    """The monodromy transport violations of a descent datum."""
    resolvers = {
        cone: DirectionResolver(chart, d.fan, {cone: d.bases[cone]})
        for cone, chart in d.charts.items()
    }
    out = []
    for a, b, j, labels in overlap_directions(d.bases):
        dj = d.delta(a, b, j)
        for p in labels:
            # dj^-1 . op_b . dj == the chart-a expansion, multiplied through by dj
            try:
                lhs = mat_mul(resolvers[b].operator(j, p), dj)
                rhs = mat_mul(dj, resolvers[a].expansion(j, a, resolvers[b].vectors[p]))
            except NotInvertibleError:
                continue  # the chart validity section already reports this
            if lhs != rhs:
                out.append(
                    Violation(
                        "transport",
                        (cone_key(a), cone_key(b), vertex_key(j), p),
                        "conjugated monodromy does not match the exponent product",
                    )
                )
    return out


def conjugation_violations(d) -> List[Violation]:
    """The overlap conjugation violations of a descent datum."""
    tops = maximal_cones(d.fan)
    out = []
    for a, b in itertools.combinations(tops, 2):
        ca, cb = d.charts[a], d.charts[b]
        for edge in cube_quiver(sorted(set(a.ray_indices) & set(b.ray_indices))).arrow_pairs:
            j, jp = edge
            dj = d.delta(a, b, j)
            checks = (
                ("u", mat_mul(mat_mul(d.delta(b, a, jp), cb.u[edge]), dj), ca.u[edge]),
                # dj^-1 . v_b . djp == v_a, multiplied through by dj
                ("v", mat_mul(cb.v[edge], d.delta(a, b, jp)), mat_mul(dj, ca.v[edge])),
            )
            out += [
                Violation(
                    "conjugation",
                    (cone_key(a), cone_key(b), edge_key(edge), arrow),
                    f"delta does not conjugate the shared {arrow} map",
                )
                for arrow, lhs, rhs in checks
                if lhs != rhs
            ]
    return out


def smith_normal_form(a: IntMatrix) -> tuple:
    """Smith normal form: returns (U, D, V) with U.a.V = D exactly.

    U and V are unimodular; D is diagonal with non-negative entries and
    d_i | d_{i+1}.
    """
    nr, nc = a.rows, a.cols
    m = a.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i, j, q):  # row_i += q * row_j
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def row_neg(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, q):  # col_i += q * col_j
        for row in m:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    row_add(i, t, -q)
                    if m[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    col_add(j, t, -q)
                    if m[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain d_i | d_{i+1}
            offending = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % m[t][t] != 0:
                        offending = i
                        break
                if offending is not None:
                    break
            if offending is None:
                break
            row_add(t, offending, 1)
        if m[t][t] < 0:
            row_neg(t)
        t += 1
    return IntMatrix.from_rows(u), IntMatrix.from_rows(m), IntMatrix.from_rows(v)


def int_mul(self: IntMatrix, other: IntMatrix) -> IntMatrix:
    if self.cols != other.rows:
        raise ValueError(f"shape mismatch: {self.shape} . {other.shape}")
    out = []
    for i in range(self.rows):
        for j in range(other.cols):
            out.append(sum(self.entry(i, k) * other.entry(k, j) for k in range(self.cols)))
    return IntMatrix(self.rows, other.cols, out)


def check_cocycle(fan, bases: Dict[Cone, ChartBasis]) -> None:
    """Verify h_IJ then h_JK equals h_IK on every ordered maximal triple.

    Holds identically for bases produced by chart_bases (matrix
    associativity); kept as a regression guard on index bookkeeping and
    on user-supplied basis overrides.
    """
    tops = maximal_cones(fan)
    glue = {
        (a, b): gluing_map(bases[a], bases[b])
        for a, b in itertools.product(tops, repeat=2)
    }
    for i, j in itertools.product(tops, repeat=2):
        pair = int_mul(glue[j, i], glue[i, j])
        if pair != IntMatrix.identity(pair.rows):
            raise CocycleError(
                (i, j),
                f"transition {i.ray_indices}->{j.ray_indices} composed with its "
                "reverse is not the identity",
            )
    for i, j, k in itertools.product(tops, repeat=3):
        left = int_mul(glue[j, k], glue[i, j])
        if left != glue[i, k]:
            raise CocycleError(
                (i, j, k),
                f"cocycle fails on ({i.ray_indices}, {j.ray_indices}, {k.ray_indices})",
            )


def loop_reference(fan: Fan, cone: Cone) -> Cone:
    """Reference chart of a cone: the lexicographically smallest maximal
    cone containing it, among those of maximal cardinality.

    The cardinality restriction keeps the loop count n - max|K| coherent
    with the reference chart's completion labels on fans whose maximal
    cones have mixed dimensions.
    """
    candidates = [k for k in maximal_cones(fan) if k.contains(cone)]
    if not candidates:
        raise FanError("unknown-cone", f"no maximal cone contains {cone.ray_indices}")
    top = max(len(k) for k in candidates)
    return min((k for k in candidates if len(k) == top), key=lambda c: c.ray_indices)


@st.composite
def orthant_fans(draw):
    """A smooth fan in Z^n, n = 1..4, on the rays +-e_i (ray 2i+1 is e_i,
    ray 2i+2 is -e_i): the faces of 1-5 cones, each on at most one of
    +-e_i for every i.  Such cones are faces of coordinate orthants, so
    any set of them, closed under faces, is a fan; its maximal cones may
    have different dimensions."""
    n = draw(st.integers(min_value=1, max_value=4))
    rays = [tuple(sign * int(j == i) for j in range(n)) for i in range(n) for sign in (1, -1)]
    pick = st.tuples(*[st.sampled_from([(), (2 * i + 1,), (2 * i + 2,)]) for i in range(n)])
    tops = draw(st.lists(pick, min_size=1, max_size=5))
    cones = {face for top in tops for face in Cone(sum(top, ())).faces()}
    return Fan(n, rays, cones)
