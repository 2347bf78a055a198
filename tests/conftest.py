import random
import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

import tamecert.feasibility as feas_mod
from tamecert import ComplexStructure, Fixture, LieAlgebra, Subspace, TwoForm, load_fixture
from tamecert.algebra import scale_structure_constants
from tamecert.forms import is_taming, two_form_pairs
from tamecert.linalg import (
    ONE,
    ZERO,
    _cleared,
    _echelon,
    _forward,
    _invariant_part,
    _kernel,
    _root_counts,
    _scaled,
    charpoly,
    frac,
    mat_inverse,
    mat_mul,
    nullspace,
    rational_roots,
    unit_vec,
    vec,
    vec_dot,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"

# the benchmark's generators, item builder and fixture lists, from its one module;
# perfbench/ is not a package, so its directory goes on the path for this import only
with pytest.MonkeyPatch.context() as patched:
    patched.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from workloads import CORPUS_EXPECTED, NON_ABELIAN, POOL_SEED, RESCALE_FACTORS, build_items, direct_sum, random_basis_change

# R e0 ⋉ R^5 with ad e0 = (M ⊗ C) ⊕ 0, M = [[0, 2], [1, 0]]: the weights ±√2 are
# real, so the theorem applies, but the rank-one precheck finds no rational
# direction and no rounding of the solve re-proves a certificate: Unknown, exit 3
SQRT2_ALMOST_ABELIAN = REPO_ROOT / "tests" / "data" / "sqrt2_almost_abelian.json"

CORPUS_NAMES = sorted(CORPUS_EXPECTED)

# fixtures that ship a verified tamed (omega, J) pair
TAMED_NAMES = ["abelian_r2", "abelian_r4", "abelian_r6", "abelian_r8", "aff_r", "aff_r2"]


def readme_snippet() -> str:
    """The Python code block of README's Library section."""
    section = (REPO_ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def spy(monkeypatch, owner, name: str) -> list[list]:
    """Replace owner.name, and only that attribute, with a pass-through that
    records each call as [args, result] in the returned list: the entry is
    appended when the call starts, and its result stays None if the call raises."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        call = [args, None]
        calls.append(call)
        call[1] = original(*args, **kwargs)
        return call[1]

    monkeypatch.setattr(owner, name, recorded)
    return calls


def h3_r() -> LieAlgebra:
    return LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})


def aff_r() -> LieAlgebra:
    # [H, X] = X
    return LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}, labels=["H", "X"])


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def corpus() -> dict[str, Fixture]:
    return {name: load_fixture(FIXTURES_DIR / f"{name}.json") for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def exact_items(corpus) -> list[tuple[str, LieAlgebra, ComplexStructure]]:
    """(name, g, J) for the 11 fixtures, the 14 conjugated benchmark pool items
    (two draws per non-abelian fixture) and the 3 scaling sums R^10, R^12 and
    aff_r2^3, the last with its summands rescaled by 1, 3/2 and 1/3."""
    items = [(name, fx.algebra, fx.J) for name, fx in corpus.items()]
    for name in NON_ABELIAN:
        for k in range(2):
            items.append((f"{name}~P{k}", *pool_draw(corpus, name, k)))
    r2 = corpus["abelian_r2"]
    aff = corpus["aff_r2"]
    sums = {
        "r10": [(r2.algebra, r2.J)] * 5,
        "r12": [(r2.algebra, r2.J)] * 6,
        "aff_r2^3": [(scale_structure_constants(aff.algebra, Fraction(t)), aff.J) for t in ("1", "3/2", "1/3")],
    }
    for name, parts in sums.items():
        items.append((name, *direct_sum(parts)))
    return items


@pytest.fixture(scope="session")
def bench_items() -> dict[tuple[str, int], tuple]:
    """The benchmark's items of corpus, conjugated and scaling at seeds 1-3, keyed by (workload, seed)."""
    return {(w, seed): tuple(build_items(w, seed, FIXTURES_DIR)) for w in ("corpus", "conjugated", "scaling") for seed in (1, 2, 3)}


def pool_draw(corpus, name: str, k: int) -> tuple[LieAlgebra, ComplexStructure]:
    """(g, J) of the conjugated benchmark item name~Pk, before its rescaling.

    Rescaling P by t rescales the brackets and keeps the closed basis and its
    Gram forms, so the draw's problem does not depend on the run seed.
    """
    fx = corpus[name]
    P = random_basis_change(fx.algebra.dim, random.Random(f"{POOL_SEED}:{name}:{k}"))
    return conjugate(fx.algebra, P, fx.J)


# --- oracles that no package code path calls: references for the integer kernels ---


def mat_trace(m) -> Fraction:
    """The trace of a square matrix; a reference for traces the package sums off the integer table."""
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def mat_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(vec_dot(row, v) for row in m)


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def solve(m, b) -> tuple[Fraction, ...] | None:
    """One solution of m x = b, or None if inconsistent: zero at the free
    columns of the reduced echelon form of (m | b), read off at its pivots."""
    ncols = len(m[0]) if m else 0
    red, pivots = _echelon(_cleared([*row, x])[0] for row, x in zip(m, b))
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)


def contains_vector(s: Subspace, v) -> bool:
    """Whether a rational vector lies in s: ``Subspace._contains_ints`` on v cleared to ints."""
    return s._contains_ints(_cleared(vec(v))[0])


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a cap b by Zassenhaus: in a row echelon form (``_forward``) of the rows
    (x | x), x in a, and (y | 0), y in b, the rows with a zero left half span
    the intersection; the oracle for ``linalg._invariant_part``."""
    if not a.rows or not b.rows:
        return Subspace(a.ambient_dim, ())
    n = a.ambient_dim
    rows = [x + x for x in a.rows] + [y + (0,) * n for y in b.rows]
    echelon, pivots = _forward(rows)
    return Subspace._span(n, [row[n:] for row, p in zip(echelon, pivots) if p >= n])


def invariant_part(space: Subspace, J: ComplexStructure) -> tuple[Subspace, Subspace]:
    """{v in space : Jv in space} twice, for a nonzero space: the span of
    ``linalg._invariant_part``'s rows on space's scaled rows, as ``proof_trace``
    reads them, and by its oracle, the Zassenhaus ``intersect`` of space with J space."""
    n = space.ambient_dim
    b, s = _scaled(space.rows)
    kernel = Subspace._span(n, _invariant_part(b, s, space._pivots, [J._apply_ints(r) for r in b]))
    return kernel, intersect(space, Subspace._span(n, [J._apply_ints(r) for r in space.rows]))


def coordinates_of(s: Subspace, v) -> tuple[Fraction, ...] | None:
    """The coefficients of v in s's reduced-echelon basis, its entries at the pivots; None if v is outside."""
    if not contains_vector(s, v):
        return None
    v = vec(v)
    return tuple(v[p] for p in s._pivots)


def jacobi_residual(g: LieAlgebra, i: int, j: int, k: int) -> tuple[Fraction, ...]:
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], by evaluating ``bracket``."""
    e = [unit_vec(g.dim, t) for t in (i, j, k)]
    terms = [g.bracket(g.bracket(e[a], e[b]), e[c]) for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    return tuple(sum(xs, Fraction(0)) for xs in zip(*terms))


def rank(rows) -> int:
    """The rank of rational rows: the pivot count of one forward pass."""
    return len(_forward(_cleared(r)[0] for r in rows)[1])


def count_real_roots(p) -> int:
    """Number of distinct real roots, via an integer Sturm chain."""
    return _root_counts(p)[0]


def adjoint(g: LieAlgebra, x) -> list[list[Fraction]]:
    """Matrix of ad_x = [x, .] acting on column coordinates, by evaluating ``bracket``."""
    cols = [g.bracket(x, unit_vec(g.dim, j)) for j in range(g.dim)]
    return [[col[i] for col in cols] for i in range(g.dim)]


def _adjoint_ints(table, x) -> list[list[int]]:
    """c ad_x for an integer vector x over the integer table c [e_i, e_j] of
    ``LieAlgebra._int_table``: column j is c [x, e_j], written entry by
    entry off the table; the stacked-adjoint reference for the weight search's
    centralizer and for the traces ``is_unimodular`` sums."""
    n = len(x)
    m = [[0] * n for _ in range(n)]
    for (i, j), comps in table.items():
        for k, c in comps:
            m[k][j] += x[i] * c
            m[k][i] -= x[j] * c
    return m


def is_subalgebra(g: LieAlgebra, s: Subspace) -> bool:
    """[s, s] in s, bracketing every pair of s's basis vectors through ``bracket``."""
    return all(contains_vector(s, g.bracket(a, b)) for a, b in combinations(s.basis, 2))


def form_coeff(omega: TwoForm, i: int, j: int) -> Fraction:
    """omega(e_i, e_j): the coefficient of e^i ^ e^j, negated when i > j."""
    return omega(unit_vec(omega.dim, i), unit_vec(omega.dim, j))


def form_matrix(omega: TwoForm) -> list[list[Fraction]]:
    """The antisymmetric matrix (omega(e_i, e_j))."""
    return [[form_coeff(omega, i, j) for j in range(omega.dim)] for i in range(omega.dim)]


def random_rational_vector(rng: random.Random, dim: int, span: int = 6) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(dim)
    )


def rational_sampler(seed: int) -> random.Random:
    return random.Random(seed)


def conjugate(
    g: LieAlgebra, P: list[list[Fraction]], J: ComplexStructure | None = None
) -> tuple[LieAlgebra, ComplexStructure | None]:
    """(g, J) in the basis given by the columns of P: (P^-1[P., P.], P^-1 J P).

    x -> P x is then an isomorphism from the new algebra onto g.
    """
    n = g.dim
    Pinv = mat_inverse(P)
    cols = [tuple(P[r][c] for r in range(n)) for c in range(n)]
    brackets = {
        (i, j): dict(enumerate(mat_vec(Pinv, g.bracket(cols[i], cols[j]))))
        for i in range(n)
        for j in range(i + 1, n)
    }
    g2 = LieAlgebra.from_brackets(n, brackets)
    J2 = None if J is None else ComplexStructure.from_matrix(mat_mul(mat_mul(Pinv, [list(r) for r in J.matrix]), P))
    return g2, J2


def dense_conjugate(g: LieAlgebra, J: ComplexStructure) -> tuple[LieAlgebra, ComplexStructure]:
    """(g, J) in a dense integer basis: conjugated by random_basis_change(n, Random(5))."""
    return conjugate(g, random_basis_change(g.dim, random.Random(5)), J)


def pull_back(s: Subspace, P: list[list[Fraction]]) -> Subspace:
    """P^-1 s: the subspace s in the basis given by the columns of P."""
    Pinv = mat_inverse(P)
    return Subspace.from_vectors(s.ambient_dim, [mat_vec(Pinv, b) for b in s.basis])


def integrable_bracket_maps(base: int, central: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The bracket maps c: Λ²V -> Z of g = V + Z (dim V = base, dim Z = central,
    both even) that are integrable for the standard J, as the pairs i < j of V
    and an integer basis of the maps, each an integer vector over (pair, k).

    For X, Y in V, N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] lies in Z
    and is linear in c, and N vanishes when an argument lies in the centre Z;
    so the integrable maps are the kernel of one integer matrix, one row per
    pair a < b of V and component k of Z.  With J e_a = s_a e_{a^1}, s_a = (-1)^a,
    N(e_a, e_b)_k = s_a s_b c(a^1, b^1)_k - s_{k^1} (s_a
    c(a^1, b)_{k^1} + s_b c(a, b^1)_{k^1}) - c(a, b)_k.
    """
    pairs = list(combinations(range(base), 2))
    column = {pair: t for t, pair in enumerate(pairs)}

    def add(row, i, j, k, factor):  # row += factor * c(i, j)_k, with c(j, i) = -c(i, j)
        if i != j:
            row[column[min(i, j), max(i, j)] * central + k] += factor if i < j else -factor

    rows = []
    for a, b in pairs:
        for k in range(central):
            row = [0] * (len(pairs) * central)
            add(row, a ^ 1, b ^ 1, k, (-1) ** (a + b))
            add(row, a ^ 1, b, k ^ 1, -((-1) ** ((k ^ 1) + a)))
            add(row, a, b ^ 1, k ^ 1, -((-1) ** ((k ^ 1) + b)))
            add(row, a, b, k, -1)
            rows.append(row)
    return pairs, _kernel(rows, len(pairs) * central)[0]


def integrable_two_step(rng: random.Random, base: int, central: int) -> LieAlgebra:
    """A non-abelian 2-step nilpotent g = V + Z on which the standard J is
    integrable: an integer combination, with coefficients in [-2, 2], of the
    basis of ``integrable_bracket_maps``, drawn again while it is zero."""
    pairs, kernel = integrable_bracket_maps(base, central)
    while True:
        weights = [rng.randint(-2, 2) for _ in kernel]
        c = [sum(w * x for w, x in zip(weights, column)) for column in zip(*kernel)]
        if any(c):
            break
    images = [c[t * central : (t + 1) * central] for t in range(len(pairs))]
    brackets = {pair: {base + k: Fraction(x) for k, x in enumerate(z) if x} for pair, z in zip(pairs, images) if any(z)}
    return LieAlgebra.from_brackets(base + central, brackets)


def is_compatible(omega: TwoForm, J: ComplexStructure) -> bool:
    """Omega(J., J.) = Omega plus taming: the Kaehler condition at this level."""
    n = omega.dim
    for i, j in two_form_pairs(n):
        if omega(J.apply(unit_vec(n, i)), J.apply(unit_vec(n, j))) != form_coeff(omega, i, j):
            return False
    return bool(is_taming(omega, J))


# --- reference reduction: h^perp as a subalgebra in its echelon basis, then its quotient by h ---


def _ref_subalgebra(g: LieAlgebra, s: Subspace) -> LieAlgebra:
    """The algebra induced on a bracket-closed s, in s's echelon basis."""
    brackets = {}
    for a in range(s.dim):
        for b in range(a + 1, s.dim):
            coords = coordinates_of(s, g.bracket(s.basis[a], s.basis[b]))
            assert coords is not None, "subspace is not closed under the bracket"
            brackets[(a, b)] = {k: c for k, c in enumerate(coords) if c != 0}
    units = {}  # a unit vector keeps its label; any other is f<position>, primed past every unit label
    for k, b in enumerate(s.basis):
        nonzero = [(i, c) for i, c in enumerate(b) if c != 0]
        if len(nonzero) == 1 and nonzero[0][1] == 1:
            units[k] = g.basis_labels[nonzero[0][0]]
    labels = []
    for k in range(s.dim):
        label = units.get(k, f"f{k + 1}")
        while k not in units and label in units.values():
            label += "'"
        labels.append(label)
    return LieAlgebra.from_brackets(s.dim, brackets, labels=labels)


def _ref_quotient(g: LieAlgebra, h: Subspace):
    """g/h on the standard coordinates outside h's pivots, and its projection."""
    assert g.is_ideal(h)
    piv = set(h._pivots)
    comp = [i for i in range(g.dim) if i not in piv]

    def project(v):
        w = list(v)
        for row, p in zip(h.basis, h._pivots):
            w = [x - w[p] * y for x, y in zip(w, row)]
        return tuple(w[p] for p in comp)

    reps = [unit_vec(g.dim, c) for c in comp]
    brackets = {
        (a, b): {k: c for k, c in enumerate(project(g.bracket(reps[a], reps[b]))) if c != 0}
        for a in range(len(comp))
        for b in range(a + 1, len(comp))
    }
    labels = [g.basis_labels[c] for c in comp]
    return LieAlgebra.from_brackets(len(comp), brackets, labels=labels), reps, project


def reference_reduce(t, h: Subspace):
    """(algebra, omega, J) of h^perp/h built as the quotient of the subalgebra
    h^perp by the line h; the oracle for ``reduction.reduce``."""
    g = t.algebra
    x = h.basis[0]
    denom = t.omega(t.J.apply(x), x)
    rows = [[t.omega(x, unit_vec(g.dim, c)) for c in range(g.dim)]]
    perp = Subspace.from_vectors(g.dim, nullspace(rows, ncols=g.dim))
    sub = _ref_subalgebra(g, perp)
    red_alg, reps, project = _ref_quotient(sub, Subspace.from_vectors(sub.dim, [coordinates_of(perp, x)]))
    section = []
    for r in reps:
        amb = [Fraction(0)] * g.dim
        for c, b in zip(r, perp.basis):
            if c != 0:
                amb = [u + c * v for u, v in zip(amb, b)]
        section.append(tuple(amb))
    m = red_alg.dim
    omega = TwoForm.from_dict(
        m, {(a, b): t.omega(section[a], section[b]) for a in range(m) for b in range(a + 1, m)}
    )
    cols = []
    for y in section:
        c = t.omega(t.J.apply(y), x) / denom
        jy = t.J.apply([a - c * b for a, b in zip(y, x)])
        cols.append(project(coordinates_of(perp, jy)))
    J = ComplexStructure.from_matrix([[cols[b][a] for b in range(m)] for a in range(m)])
    return red_alg, omega, J


def reference_definite_exit(p) -> tuple[bool, bool]:
    """The precheck's two definite exits as first written, on [g, g]'s scaled
    rows b: whether one closed Gram 2 den w_i G_i is definite there, and whether
    their sum weighted by lcm(w) / w_i, the Gram of B_1 + ... + B_m, is; the
    oracle for ``_degeneracy_search``'s exit by the plain sum of those Grams."""
    b, _ = _scaled(p.algebra.derived_subalgebra().rows)
    grams = list(feas_mod._grams(p, b, [p.J._apply_ints(v) for v in b]))
    lw = lcm(*(form._ints[0] for form in p.z2_basis))
    weights = [lw // form._ints[0] for form in p.z2_basis]
    total = [[sum(w * x for w, x in zip(weights, entries)) for entries in zip(*rows)] for rows in zip(*grams)]
    return any(map(feas_mod._definite, grams)), feas_mod._definite(total)


# --- reference kernels, eliminated in Fractions: the PD test and one vector per free column ---


def ref_leading_minors_positive(m) -> bool:
    """Every leading principal minor of a rational matrix is positive: each pivot
    of elimination in Fractions without row swaps, a ratio of two of them, is;
    the oracle for ``linalg.leading_minors_positive``."""
    a = [[Fraction(x) for x in row] for row in m]
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def reference_rref(rows):
    """The reduced row echelon form of rows, eliminated in Fractions, and its pivots."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def free_column_vectors(m, ncols: int) -> list[list[Fraction]]:
    """A basis of {v : m v = 0}, m of integer or rational rows: one vector per
    free column f of m's ``reference_rref``, 1 at f, minus the reduced rows'
    entries in column f at their pivots and zero at every other free column."""
    red, pivots = reference_rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def reference_kernel(m, ncols: int) -> list[list[int]]:
    """``free_column_vectors`` cleared of denominators, as integer rows: not
    itself in echelon form; the oracle for ``linalg._kernel``, whose basis is
    the echelon form of this one."""
    basis = []
    for v in free_column_vectors(m, ncols):
        d = lcm(*(x.denominator for x in v))
        basis.append([int(x * d) for x in v])
    return basis


def reference_nullspace(m, ncols):
    """The reduced echelon basis of {v : m v = 0}, every entry a ``Fraction``:
    the oracle for ``linalg.nullspace``, whose zeros are the int 0."""
    return [tuple(row) for row in reference_rref(free_column_vectors(m, ncols))[0]]


# --- reference Gram: every entry a Fraction ---


def reference_taming_gram(omega: TwoForm, J: ComplexStructure) -> list[list[Fraction]]:
    """(M + M^T) / 2, M = Omega J from the form's matrix and J's columns, every
    entry a ``Fraction``: the oracle for ``forms.taming_gram``, whose zeros are the int 0."""
    n = omega.dim
    half = Fraction(1, 2)
    cols = list(zip(*J.matrix))
    m = form_matrix(omega)
    mj = [[sum((m[i][k] * cols[j][k] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
    return [[half * (mj[i][j] + mj[j][i]) for j in range(n)] for i in range(n)]


# --- reference weight spaces and series: evaluation-based, over all of g ---


def reference_weight_spaces(g: LieAlgebra) -> list[Subspace]:
    """The rational joint eigenspaces of ad g by branching over every basis
    adjoint in turn, its rational eigenvalues ascending, and intersecting
    eigenspaces; the oracle for ``algebra.weight_spaces``."""
    n = g.dim
    d = lcm(*(c.denominator for _, comps in g.structure_constants for _, c in comps))
    branches = [Subspace.from_vectors(n, identity(n))] if n else []  # nonzero spaces only, and Q^0 is 0
    for i in range(n):
        a = [[int(d * x) for x in row] for row in adjoint(g, unit_vec(n, i))]
        eigenspaces = []
        for mu in rational_roots(charpoly(a)):
            shifted = [list(row) for row in a]
            for k in range(n):
                shifted[k][k] -= mu
            eigenspaces.append(Subspace.from_vectors(n, nullspace(shifted, ncols=n)))
        branches = [intersect(space, e) for space in branches for e in eigenspaces]
        branches = [space for space in branches if space.dim > 0]
        if not branches:
            break
    return branches


def reference_series(g: LieAlgebra, lower: bool) -> list[Subspace]:
    """The lower central (lower=True) or derived series, bracketing every pair
    of basis vectors through the evaluation-based ``bracket``."""
    full = Subspace.from_vectors(g.dim, identity(g.dim))
    series = [full]
    while series[-1].dim:
        left = full if lower else series[-1]
        nxt = Subspace.from_vectors(g.dim, [g.bracket(x, y) for x in left.basis for y in series[-1].basis])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


# --- reference TwoForm.from_dict: a generator per key check, a zero filter always ---


def reference_two_form(dim: int, entries) -> TwoForm:
    """``TwoForm.from_dict`` without its fast paths, the oracle for them: the
    key is checked by a generator, the closing ``v != 0`` filter runs on
    every call, and a zero is dropped before the key's order and range are
    checked, so unlike ``from_dict`` it lets a bad key with a zero value through."""
    norm: dict[tuple[int, int], Fraction] = {}
    for key, c in entries.items():
        if not isinstance(key, tuple) or len(key) != 2 or any(type(x) is not int for x in key):
            raise ValueError(f"index pair {key!r} must be two integers")
        (i, j), c = key, frac(c)
        if c == 0:
            continue
        if i == j:
            raise ValueError("a 2-form has no (i,i) component")
        if i > j:
            i, j, c = j, i, -c
        if not 0 <= i < j < dim:
            raise ValueError(f"index pair ({i},{j}) out of range for dim {dim}")
        norm[(i, j)] = norm[(i, j)] + c if (i, j) in norm else c
    return TwoForm(dim, tuple(sorted((k, v) for k, v in norm.items() if v != 0)))
