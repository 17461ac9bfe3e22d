"""Seeded input generator for the benchmark workloads.

Every input is produced as serialized JSON, so the library sees only the
generated files, never the seed.  The seed picks matrix entries and
eigenvalues; the shapes (fans, quivers, dimensions) of each workload's
rounds are fixed, so different seeds give rounds of near-equal cost.

Valid inputs are valid by construction.  A torus character
chi(m) = P . diag(prod_i D_i[j] ** m_i) . P^-1 gives commuting operators
T_i = chi(e_i); arrows carry u = Id and v = chi(ray) - Id, loops carry
chi(completion column), and every vertex is then conjugated by its own
random invertible matrix g_J.  Descent data twist each chart K by g^K_J
and use delta(K, K', J) = g^K'_J . (g^K_J)^-1.  A planted input changes
exactly one entry of one matrix and records which condition that breaks.

Linear algebra here uses plain Fractions, not the library's kernels, so
generation neither depends on nor exercises the code under test.  Only
the combinatorial structure (chart bases, quivers, loop labels) comes
from the library, because inputs must match what the library expects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from fanrep.geometry import Cone, Fan, chart_bases, loop_reference
from fanrep.quivers import arrangement_quiver, fan_quiver, hypercube_quiver

# Eigenvalues are drawn from this pool; small heights keep Fraction growth
# in the range that real inputs of these sizes show.
EIGENVALUES = [Fraction(x) for x in ("2", "3", "-2", "1/2", "3/2", "-3", "5/2", "4", "-1/2", "5")]


# --- plain Fraction matrices (lists of rows) -------------------------------


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def inverse(a):
    """Gauss-Jordan inverse; None when singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def is_scalar(a):
    return a == [[a[0][0] * (i == j) for j in range(len(a))] for i in range(len(a))]


def conj(g, x, g_inv):
    return mul(mul(g, x), g_inv)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def encode(obj):
    """JSON form of a structure whose matrices hold Fractions."""
    if isinstance(obj, Fraction):
        return fmt(obj)
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


def vkey(v) -> str:
    return ",".join(str(i) for i in v)


def ekey(low, high) -> str:
    return f"{vkey(low)}-{vkey(high)}"


def random_invertible(rng, d):
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(d)]
        inv = inverse(m)
        if inv is not None:
            return m, inv


class Character:
    """chi(m) = P . diag(prod_i D_i[j] ** m_i) . P^-1 on Q^d; the joint
    eigenvalue tuples (D_1[j], ..., D_n[j]) are pairwise distinct."""

    def __init__(self, rng, n, d, diag=None):
        self.p, self.p_inv = random_invertible(rng, d)
        if diag is None:
            diag = distinct_tuples(rng, n, d)
        self.diag = diag  # diag[j] = eigenvalue tuple at position j
        self.d = d
        self._cache = {}

    def __call__(self, m):
        m = tuple(m)
        out = self._cache.get(m)
        if out is None:
            lam = []
            for tup in self.diag:
                x = Fraction(1)
                for val, e in zip(tup, m):
                    x *= val ** e
                lam.append(x)
            scaled = [[self.p[i][j] * lam[j] for j in range(self.d)] for i in range(self.d)]
            out = self._cache[m] = mul(scaled, self.p_inv)
        return out


def distinct_tuples(rng, n, d):
    seen = set()
    out = []
    while len(out) < d:
        tup = tuple(rng.choice(EIGENVALUES) for _ in range(n))
        if tup not in seen:
            seen.add(tup)
            out.append(tup)
    return out


def predicted_hom_dim(char_a: Character, char_b: Character) -> int:
    """dim Hom(A, B) for conjugates of u = Id, v = T_p - Id built from
    characters a and b on a connected quiver: psi . D_p = D'_p . psi for
    every p, so one free entry per pair of equal joint eigenvalue tuples."""
    return sum(1 for ta in char_a.diag for tb in char_b.diag if ta == tb)


# --- inputs ----------------------------------------------------------------


@dataclass
class Input:
    """One generated input: its files, its job, and what a correct program
    reports for it.

    ``files`` maps a file name to ``(reader, data)``, where reader names
    the public JSON reader that parses it ("fan", "rep" or "descent"; a
    representation stored without its quiver reads "rep:<fan file>");
    data is None once the file is written.
    ``job`` is the workload's call: descent file, Hom pair, or CLI argv.
    ``checks`` maps a file name to the category it is validated against
    (with the fan file for "cdelta").  ``planted`` is ``(file, condition)``
    for the one file whose single-entry mutation breaks ``condition``.
    ``kind`` names the input's class within a round (the name by default).
    """

    name: str
    files: dict
    job: tuple
    checks: dict = field(default_factory=dict)
    planted: tuple = None
    expect: dict = field(default_factory=dict)
    kind: str = ""

    def __post_init__(self):
        self.kind = self.kind or self.name


def one_per_kind(items) -> list:
    """The first input of each class, in round order."""
    first = {}
    for item in items:
        first.setdefault(item.kind, item)
    return list(first.values())


def _conjugated_arrows(edges, dims_d, gs, ops):
    """u and v maps for u = Id, v = ops[edge] - Id, conjugated at every vertex."""
    ident = identity(dims_d)
    u, v = {}, {}
    for low, high in edges:
        g_low, g_low_inv = gs[low]
        g_high, g_high_inv = gs[high]
        u[ekey(low, high)] = mul(g_high, g_low_inv)
        v[ekey(low, high)] = conj(g_low, sub(ops[(low, high)], ident), g_high_inv)
    return u, v


def _quiver_json(q):
    return {
        "vertices": [list(v) for v in q.vertices],
        "arrows": [{"low": list(lo), "high": list(hi)} for lo, hi in q.arrow_pairs],
        "loops": {vkey(v): list(labels) for v, labels in q.loops.items()},
    }


def _rep_json(q, d, u, v, loops):
    return {"quiver": _quiver_json(q), "dims": {vkey(x): d for x in q.vertices}, "u": u, "v": v, "loops": loops}


def _added_index(low, high):
    (p,) = set(high) - set(low)
    return p


def quiver_rep(rng, q, char: Character, coord):
    """Valid C_n / C_Sigma representation: arrow adding p has monodromy
    chi(coord(p)), conjugated by a random g_J at every vertex."""
    gs = {x: random_invertible(rng, char.d) for x in q.vertices}
    ops = {(lo, hi): char(coord(_added_index(lo, hi))) for lo, hi in q.arrow_pairs}
    u, v = _conjugated_arrows(q.arrow_pairs, char.d, gs, ops)
    return _rep_json(q, char.d, u, v, {})


def hypercube_family(n):
    def coord(p):
        return tuple(int(i == p - 1) for i in range(n))

    return hypercube_quiver(n), coord


def arrangement_family(n):
    # every line's monodromy is an independent torus direction
    return arrangement_quiver(n), hypercube_family(n)[1]


def product_fan(k, e):
    """(P^1)^k x (C*)^e: rays +-e_i for the k projective factors."""
    n = k + e
    rays = []
    for i in range(k):
        for sign in (1, -1):
            rays.append([sign * int(j == i) for j in range(n)])
    choices = [(None, 2 * i + 1, 2 * i + 2) for i in range(k)]
    cones = sorted(
        (sorted(x for x in pick if x is not None) for pick in itertools.product(*choices)),
        key=lambda c: (len(c), c),
    )
    return {"dim": n, "rays": rays, "cones": cones}


def _fan_object(fan_json):
    return Fan(fan_json["dim"], [tuple(r) for r in fan_json["rays"]], [tuple(c) for c in fan_json["cones"]])


def fan_rep(rng, fan_json, char: Character):
    """Valid C_Delta representation over the fan quiver."""
    fan = _fan_object(fan_json)
    bases = chart_bases(fan)
    q = fan_quiver(fan, bases)
    gs = {x: random_invertible(rng, char.d) for x in q.vertices}
    ops = {(lo, hi): char(fan.ray_vector(_added_index(lo, hi))) for lo, hi in q.arrow_pairs}
    u, v = _conjugated_arrows(q.arrow_pairs, char.d, gs, ops)
    loops = {}
    for x in q.vertices:
        ref = bases[loop_reference(fan, Cone(x))]
        g, g_inv = gs[x]
        for label in q.loops[x]:
            loops[f"{vkey(x)}:{label}"] = conj(g, char(ref.column(label)), g_inv)
    return _rep_json(q, char.d, u, v, loops)


def descent_datum(rng, fan_json, char: Character):
    """Valid descent datum: chart K is the character twisted by g^K_J at
    each vertex J, and delta(K, K', J) = g^K'_J . (g^K_J)^-1."""
    fan = _fan_object(fan_json)
    bases = chart_bases(fan)
    tops = sorted(bases, key=lambda c: c.ray_indices)
    twists = {}
    charts = {}
    for cone in tops:
        basis = bases[cone]
        idx = cone.ray_indices
        verts = [tuple(s) for r in range(len(idx) + 1) for s in itertools.combinations(idx, r)]
        gs = {x: random_invertible(rng, char.d) for x in verts}
        twists[cone] = gs
        edges = [(x, tuple(sorted(x + (p,)))) for x in verts for p in idx if p not in x]
        ops = {(lo, hi): char(fan.ray_vector(_added_index(lo, hi))) for lo, hi in edges}
        u, v = _conjugated_arrows(edges, char.d, gs, ops)
        loops = {}
        for x in verts:
            g, g_inv = gs[x]
            for label in basis.completion_labels:
                loops[f"{vkey(x)}:{label}"] = conj(g, char(basis.column(label)), g_inv)
        charts[vkey(idx)] = {
            "dims": {vkey(x): char.d for x in verts},
            "u": u,
            "v": v,
            "loops": loops,
        }
    deltas = {}
    for a, b in itertools.combinations(tops, 2):
        overlap = sorted(set(a.ray_indices) & set(b.ray_indices))
        for r in range(len(overlap) + 1):
            for j in itertools.combinations(overlap, r):
                deltas[f"{vkey(a.ray_indices)}|{vkey(b.ray_indices)}|{vkey(j)}"] = mul(
                    twists[b][j][0], twists[a][j][1]
                )
    return {"fan": fan_json, "charts": charts, "deltas": deltas}


# --- planted mutations -----------------------------------------------------


def bump(rng, mat, must_stay_invertible=False):
    """Change one entry of a matrix (rows of Fractions), in place."""
    i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
    for step in (1, 2, 3):
        mat[i][j] += step
        if not must_stay_invertible or inverse(mat) is not None:
            return
        mat[i][j] -= step
    raise RuntimeError("no invertible single-entry change found")


# --- workload rounds ---------------------------------------------------------
#
# A workload is a list of rounds; every round holds the same classes in the
# same counts but fresh instances, so a run averages over many random
# instances instead of repeating a few.  Round 0 is the input set setup_s
# parses, and its first input of each class is the warm-up.  Class counts
# put the median job in the middle of one block of like-sized jobs.  The
# costliest class is the tail block: after MIN_ROUNDS timed rounds it holds
# at least 11 jobs, so the tail (the job with ten slower ones beyond it)
# lies inside that class however many rounds fit into a run.  Where a run
# makes few rounds, the descent tail block has about 20 jobs, so the tail
# is near its median rather than at its edge.

DESCENT_ROUND = [
    ((2, 0, 2), 10),
    ((2, 1, 2), 9),  # median block
    ((2, 0, 3), 1),
    ((2, 1, 3), 1),
    ((3, 0, 2), 1),
    ((3, 1, 2), 7),  # tail block, the costliest class
]

# (family, n, d, B conjugate to A?) -> count.  Dimension 3 is left out:
# one such system takes 2 to 21 s and its cost varies with the seed far
# more than the rest of the round.
HOM_ROUND = [
    (("cube", 3, 1, True), 1),
    (("cube", 4, 1, True), 1),
    (("cube", 4, 1, False), 1),
    (("lines", 4, 1, False), 1),
    (("lines", 5, 1, True), 1),
    (("lines", 5, 1, False), 1),
    (("cube", 3, 2, True), 10),  # median block
    (("lines", 4, 2, True), 6),  # tail block
]

ROUNDS = {"descent_glue": 4, "hom_solve": 7, "cli_mixed": 13}
# tail block jobs a round: 7 (P1)^3 x C*, 6 four-line d=2 pairs, 2 rep hom
MIN_ROUNDS = {"descent_glue": 3, "hom_solve": 3, "cli_mixed": 6}


def _quiver_pair(rng, family, n, d, same):
    """Representation A and B on one quiver, with the predicted dim Hom(A, B).

    B is A's character conjugated anew (same=True, so dim Hom = dim End(A)
    = d) or a character sharing only A's first joint eigenvalue tuple."""
    q, coord = family(n)
    char_a = Character(rng, n, d)
    if same:
        char_b = char_a
    else:
        fresh = [t for t in distinct_tuples(rng, n, d + 4) if t not in char_a.diag]
        char_b = Character(rng, n, d, diag=[char_a.diag[0]] + fresh[: d - 1])
    a = quiver_rep(rng, q, char_a, coord)
    b = quiver_rep(rng, q, char_b, coord)
    return a, b, predicted_hom_dim(char_a, char_b)


FAMILIES = {"cube": (hypercube_family, "cn"), "lines": (arrangement_family, "csigma")}


def descent_round(rng):
    out = []
    for (k, e, d), count in DESCENT_ROUND:
        for i in range(count):
            fan = product_fan(k, e)
            datum = descent_datum(rng, fan, Character(rng, k + e, d))
            kind = f"P1^{k}xCstar^{e}-d{d}"
            out.append(
                Input(
                    f"{kind}-{i}",
                    {"datum.json": ("descent", datum)},
                    ("datum.json",),
                    checks={"datum.json": "descent"},
                    kind=kind,
                )
            )
    return out


def hom_round(rng):
    out = []
    for (fam, n, d, same), count in HOM_ROUND:
        family, category = FAMILIES[fam]
        for i in range(count):
            a, b, dim = _quiver_pair(rng, family, n, d, same)
            kind = f"{fam}{n}-d{d}-{'conj' if same else 'other'}"
            out.append(
                Input(
                    f"{kind}-{i}",
                    {"a.json": ("rep", a), "b.json": ("rep", b)},
                    ("a.json", "b.json"),
                    checks={"a.json": category, "b.json": category},
                    expect={"hom_dim": dim},
                    kind=kind,
                )
            )
    return out


def _open_monodromy(rep, line):
    """v.u + Id on the open stratum's arrow to ``line``."""
    key = ekey((), (line,))
    return [[x + (r == c) for c, x in enumerate(row)] for r, row in enumerate(mul(rep["v"][key], rep["u"][key]))]


def _plant_noncommuting(rng, rep, lines) -> bool:
    """Change one entry of v on the arrow to line 1 so that its monodromy
    no longer commutes with some other line's (condition iii); a change
    that happens to keep them commuting is drawn again.  False, with rep
    unchanged, when every other line's monodromy is scalar: then no
    change can break commutation."""
    if all(is_scalar(_open_monodromy(rep, line)) for line in range(2, lines + 1)):
        return False
    key = ekey((), (1,))
    original = rep["v"][key]
    for _ in range(100):
        rep["v"][key] = [row[:] for row in original]
        bump(rng, rep["v"][key])
        m1 = _open_monodromy(rep, 1)
        for line in range(2, lines + 1):
            m = _open_monodromy(rep, line)
            if mul(m1, m) != mul(m, m1):
                return True
    raise RuntimeError("no single-entry change breaks commutation")


def _planted_rep(rng, rep, part, key=None):
    maps = rep[part]
    key = key if key is not None else rng.choice(sorted(maps))
    bump(rng, maps[key], must_stay_invertible=(part == "loops"))
    return rep


def cli_round(rng):
    """CLI commands over small-to-moderate files; about half the
    validation inputs carry one planted violation."""
    out = []

    def add(name, files, argv, checks, planted=None, **expect):
        out.append(Input(name, files, tuple(argv), checks, planted, expect))

    for planted in (False, True):
        tag = "planted" if planted else "valid"
        code = 1 if planted else 0

        a, _, _ = _quiver_pair(rng, hypercube_family, 3, 2, True)
        if planted:
            _planted_rep(rng, a, "u")
        add(f"cn-{tag}", {"r.json": ("rep", a)}, ["rep", "validate", "r.json", "--category", "cn"],
            {"r.json": "cn"}, ("r.json", "ii") if planted else None, exit=code)

        while True:
            a, _, _ = _quiver_pair(rng, arrangement_family, 4, 2, True)
            if not planted or _plant_noncommuting(rng, a, 4):
                break
        add(f"csigma-{tag}", {"r.json": ("rep", a)}, ["rep", "validate", "r.json", "--category", "csigma"],
            {"r.json": "csigma"}, ("r.json", "iii") if planted else None, exit=code)

        fan = product_fan(2, 1)
        rep = fan_rep(rng, fan, Character(rng, 3, 2))
        del rep["quiver"]  # the CLI builds the fan quiver itself
        if planted:
            _planted_rep(rng, rep, "loops", sorted(k for k in rep["loops"] if k.startswith(":"))[0])
        add(f"cdelta-{tag}", {"f.json": ("fan", fan), "r.json": ("rep:f.json", rep)},
            ["rep", "validate", "r.json", "--category", "cdelta", "--fan", "f.json"],
            {"r.json": ("cdelta", "f.json")}, ("r.json", "loop") if planted else None, exit=code)

        for command in ("check", "glue"):
            datum = descent_datum(rng, product_fan(2, 0), Character(rng, 2, 2))
            if planted:
                # delta at the open stratum of two charts sharing a ray
                bump(rng, datum["deltas"]["1,3|1,4|"], must_stay_invertible=True)
            add(f"descent-{command}-{tag}", {"d.json": ("descent", datum)}, ["descent", command, "d.json"],
                {"d.json": "descent"}, ("d.json", "conjugation") if planted else None, exit=code)

        fan = product_fan(3, 0) if not planted else product_fan(2, 1)
        if planted:
            fan["rays"][0][0] = 2  # no longer primitive
        add(f"fan-gluing-{tag}", {"f.json": ("fan", fan)}, ["fan", "gluing", "f.json"],
            {"f.json": "fan"}, ("f.json", "rays") if planted else None, exit=code)

    add("fan-dual", {"f.json": ("fan", product_fan(2, 1))}, ["fan", "dual", "f.json"], {"f.json": "fan"}, exit=0)
    for same in (True, False):
        tag = "conj" if same else "other"
        a, b, dim = _quiver_pair(rng, hypercube_family, 3, 2, same)
        add(f"hom-{tag}", {"a.json": ("rep", a), "b.json": ("rep", b)}, ["rep", "hom", "a.json", "b.json"],
            {"a.json": "cn", "b.json": "cn"}, exit=0, hom_dim=dim)
        a, b, dim = _quiver_pair(rng, hypercube_family, 2, 2, same)
        add(f"iso-{tag}", {"a.json": ("rep", a), "b.json": ("rep", b)}, ["rep", "iso", "a.json", "b.json"],
            {"a.json": "cn", "b.json": "cn"}, exit=0, verdict="yes" if same else "no")
    return out


ROUND_GENERATORS = {"descent_glue": descent_round, "hom_solve": hom_round, "cli_mixed": cli_round}


def generate(workload: str, seed: int):
    """Yield the workload's rounds for this seed, one at a time so that a
    caller can write each to disk before the next is built; each is a list
    of inputs whose files are JSON-encoded and whose names carry the round."""
    rng = random.Random(f"{workload}:{seed}")
    for r in range(ROUNDS[workload]):
        items = ROUND_GENERATORS[workload](rng)
        for item in items:
            item.name = f"r{r}-{item.name}"
            item.files = {name: (reader, encode(data)) for name, (reader, data) in item.files.items()}
        yield items
