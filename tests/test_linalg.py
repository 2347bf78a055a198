"""Exact kernel: echelon forms, kernels, characteristic polynomials, Sturm."""

import math
import pickle
import random
from fractions import Fraction

import pytest

import tamecert.linalg as linalg_mod
from tamecert.algebra import LieAlgebra
from tamecert.forms import ComplexStructure, _gram_ints, d2_matrix, standard_complex_structure
from tamecert.linalg import (
    ONE,
    ZERO,
    Subspace,
    _cleared,
    _echelon,
    _forward,
    _kernel,
    _reduced,
    all_roots_real,
    charpoly,
    clear_denominators,
    det,
    frac,
    leading_minors_positive,
    mat_inverse,
    mat_mul,
    nullspace,
    rational_roots,
    transpose,
    unit_vec,
)

from conftest import (
    adjoint,
    contains_vector,
    count_real_roots,
    identity,
    intersect,
    invariant_part,
    mat_trace,
    mat_vec,
    random_basis_change,
    rank,
    ref_leading_minors_positive,
    reference_kernel,
    reference_nullspace,
    reference_rref,
    spy,
)

F = Fraction


def poly_eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        frac(True)
    for text in ("1e3", "0.5", "1_000", " 1/2", "1/0", "1/-2", ""):
        with pytest.raises(ValueError):
            frac(text)
    assert frac("3/4") == F(3, 4)
    assert frac("-3/4") == F(-3, 4) and frac("+2") == F(2)
    assert frac(-2) == F(-2)


def rref(rows):
    """The reduced row echelon form in Fractions, and its pivots: ``_reduced`` of
    ``_echelon`` on the rows cleared of denominators."""
    red, pivots = _echelon(_cleared(r)[0] for r in rows)
    return _reduced(red, pivots, ZERO), pivots


def test_rref_canonical_and_idempotent():
    red, pivots = _echelon([[2, 4, 6], [1, 2, 4]])
    assert pivots == [0, 2]
    assert red == [[1, 2, 0], [0, 0, 1]]
    assert _echelon(red) == (red, pivots)
    assert _echelon([[-3, 0, 6], [0, 0, 0], [0, 5, 5]]) == ([[1, 0, -2], [0, 1, 1]], [0, 1])
    for zero in (ZERO, 0):  # each zero entry is the zero given, each other entry a Fraction
        reduced = _reduced([[2, 0, 1], [0, 3, 1]], [0, 1], zero)
        assert reduced == [[F(1), F(0), F(1, 2)], [F(0), F(1), F(1, 3)]]
        assert [type(x) for row in reduced for x in row] == [F, type(zero), F, type(zero), F, F]


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        for v in nullspace(rows, ncols=5):
            assert all(x == 0 for x in mat_vec(rows, v))


def test_det_and_inverse():
    a = [[F(2), F(1)], [F(7), F(4)]]
    assert det(a) == F(1)
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == identity(2)
    assert det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_charpoly_matches_determinant_oracle():
    # independent oracle: evaluate det(tI - A) by Gaussian elimination at
    # sample points and compare with the Faddeev-LeVerrier coefficients
    rng = random.Random(3)
    random_inputs = []
    for _ in range(10):
        n = rng.randint(1, 5)
        random_inputs.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    zero_inputs = [[[0] * n for _ in range(n)] for n in range(1, 6)]
    for a in random_inputs + zero_inputs:
        n = len(a)
        p = charpoly(a)
        assert all(type(c) is int for c in p) and p[-1] == 1
        for t in (F(0), F(1), F(-2), F(5, 3)):
            shifted = [[(t if i == j else F(0)) - a[i][j] for j in range(n)] for i in range(n)]
            assert poly_eval(p, t) == det(shifted)


def test_real_root_counting():
    # t^2 - 2: two real irrational roots
    assert count_real_roots([-2, 0, 1]) == 2
    assert all_roots_real([-2, 0, 1])
    # t^2 + 1: none
    assert count_real_roots([1, 0, 1]) == 0
    assert not all_roots_real([1, 0, 1])
    # (t^2+1)(t-3): one real root
    assert count_real_roots([-3, 1, -3, 1]) == 1
    # repeated roots: (t+1)^2 (t-2) = t^3 - 3t - 2
    p = [-2, -3, 0, 1]
    assert poly_eval(p, -1) == 0
    assert all_roots_real(p)


def test_rational_roots():
    # (t - 2)(t + 3) t = t^3 + t^2 - 6t: the charpoly of 4 m for an m with
    # eigenvalues 1/2, -3/4 and 0, whose roots are 4 times m's
    p = [0, -6, 1, 1]
    assert rational_roots(p) == [-3, 0, 2]
    assert all(type(r) is int for r in rational_roots(p))
    # no rational roots for t^2 - 2
    assert rational_roots([-2, 0, 1]) == []


def test_subspace_canonicalization_and_ops():
    s1 = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace.from_vectors(3, [(2, 2, 2), (0, 0, 5), (2, 2, 0)])
    assert s1 == s2  # same subspace, same canonical form
    assert s1._contains_ints((3, 3, -7))
    assert not s1._contains_ints((1, 0, 0))
    line = Subspace.from_vectors(3, [(1, 1, 1)])
    assert intersect(s1, line) == line
    assert Subspace._span(3, s1.rows + Subspace.from_vectors(3, [(1, 0, 0)]).rows) == Subspace.full(3)
    assert Subspace.from_vectors(3, s1.basis) == s1  # idempotent


def test_full_is_the_span_of_the_units():
    # full writes its unit rows and pivots directly: the echelon form and pivot
    # columns that _span computes from the units, for n = 0 ... 16
    for n in range(17):
        full, span = Subspace.full(n), Subspace._span(n, [[int(i == j) for j in range(n)] for i in range(n)])
        assert (full, full.rows, full._pivots) == (span, span.rows, span._pivots), n
        assert all(type(x) is int for row in full.rows for x in row)


def test_subspace_coordinates():
    # a member's coordinates in the reduced-echelon basis are its entries at the pivots
    s = Subspace.from_vectors(4, [(1, 0, 2, 0), (0, 1, 3, 0)])
    v = (F(2), F(-1), F(1), F(0))
    assert s._contains_ints(_cleared(v)[0])
    assert tuple(v[p] for p in s._pivots) == (F(2), F(-1))
    assert tuple(sum(v[p] * b[k] for p, b in zip(s._pivots, s.basis)) for k in range(4)) == v
    assert not s._contains_ints((0, 0, 0, 1))


def test_intersection_oracle_random():
    # oracle: a random vector in the intersection must be in both spaces
    rng = random.Random(11)
    for _ in range(20):
        a = Subspace.from_vectors(4, [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(2)])
        b = Subspace.from_vectors(4, [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)])
        inter = intersect(a, b)
        for v in inter.basis:
            assert contains_vector(a, v) and contains_vector(b, v)
        # dimension formula dim(a) + dim(b) = dim(a+b) + dim(a^b)
        assert a.dim + b.dim == Subspace._span(4, a.rows + b.rows).dim + inter.dim


def test_invariant_part_matches_zassenhaus_under_a_dense_j():
    # seeded random subspaces, half of them holding a J-stable plane span(u, Ju),
    # under J = P^-1 J_0 P, P from random_basis_change: the shared kernel for
    # {v in V : Jv in V} gives the Zassenhaus intersection V cap JV
    rng = random.Random(44)
    dims = set()
    for n in (2, 4, 6, 8):
        for _ in range(15):
            P = random_basis_change(n, rng)
            J = ComplexStructure.from_matrix(mat_mul(mat_mul(mat_inverse(P), standard_complex_structure(n).matrix), P))
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
            if rng.random() < 0.5:
                u = [rng.randint(-3, 3) for _ in range(n)]
                rows += [u, J._apply_ints(u)]
            space = Subspace._span(n, rows)
            if space.dim:
                kernel, oracle = invariant_part(space, J)
                assert kernel == oracle, (n, space)
                dims.add((oracle.dim == 0, oracle == space))
    assert dims == {(True, False), (False, False), (False, True)}  # V cap JV zero, proper and all of V


# --- oracles: the Fraction eliminations these functions used before they moved to integers ---


def ref_det(m):
    n = len(m)
    a = [list(row) for row in m]
    result = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            result = -result
        result *= a[c][c]
        inv = ONE / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def ref_charpoly(m):
    n = len(m)
    coeffs = [ZERO] * n + [ONE]
    if all(x == 0 for row in m for x in row):
        return coeffs
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        c = -mat_trace(mk) / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def random_matrices(seed: int) -> list[list[list[Fraction]]]:
    """Seeded rational matrices with mixed signs and denominators up to 10^6:
    empty, with zero rows, rank-deficient, wide, tall, square and sparse."""
    rng = random.Random(seed)

    def entry(sparse=False):
        if sparse and rng.random() < 0.6:
            return F(0)
        return F(rng.randint(-10**3, 10**3), rng.choice([1, 2, 3, rng.randint(1, 10**6)]))

    def dense(r, c, sparse=False):
        return [[entry(sparse) for _ in range(c)] for _ in range(r)]

    out = [[], [[]], [[F(0)] * 3] * 2]
    for _ in range(6):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        out.append(dense(r, c))  # wide, tall or square
        out.append(dense(r, c, sparse=True))
        k = rng.randint(1, min(r, c))
        out.append(mat_mul(dense(r, k), dense(k, c)))  # rank at most k
        zero_rows = dense(r, c)
        zero_rows.insert(rng.randint(0, r), [F(0)] * c)
        out.append(zero_rows)
        n = rng.randint(1, 6)
        out.append(dense(n, n))
        out.append(mat_mul(dense(n, n - 1), dense(n - 1, n)) if n > 1 else [[F(0)]])  # singular square
    return out


def item_matrices(exact_items):
    """The adjoints, J matrices and d on 2-forms of every benchmark item."""
    out = []
    for _, g, J in exact_items:
        out += [adjoint(g, unit_vec(g.dim, i)) for i in range(g.dim)]
        out.append([list(r) for r in J.matrix])
        out.append(d2_matrix(g)[0])
    return [m for m in out if m]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_nullspace_rank_match_fraction_oracle(seed):
    for m in random_matrices(seed):
        assert rref(m) == reference_rref(m)
        assert rank(m) == len(reference_rref(m)[0])
        ncols = len(m[0]) if m else 4
        assert nullspace(m, ncols=ncols) == reference_nullspace(m, ncols)


@pytest.mark.parametrize("seed", [5, 6])
def test_nullspace_ignores_zero_rows(seed, monkeypatch):
    # all-zero rows constrain nothing: mixed in anywhere they leave the basis
    # unchanged, and only the nonzero rows are cleared of denominators
    rng = random.Random(seed)
    cleared = spy(monkeypatch, linalg_mod, "_cleared")
    # the shared ZERO, as d2_matrix writes it, and zeros that are other objects
    # (fresh Fractions, ints, a tuple row), which list equality must still drop
    zero_rows = [lambda n: [ZERO] * n, lambda n: [F(0) for _ in range(n)], lambda n: [0] * n, lambda n: (ZERO,) * n]
    for m in random_matrices(seed):
        ncols = len(m[0]) if m else 4
        padded = [list(row) for row in m]
        for _ in range(rng.randint(1, 4)):
            padded.insert(rng.randint(0, len(padded)), rng.choice(zero_rows)(ncols))
        cleared.clear()
        assert nullspace(padded, ncols=ncols) == nullspace(m, ncols=ncols)
        assert all(any(row) for (row,), _ in cleared)
    assert nullspace([[ZERO] * 3] * 5, ncols=3) == [unit_vec(3, i) for i in range(3)]
    # a zero row of the shared ZERO costs one Fraction.__bool__, at its first entry
    truth_tests = spy(monkeypatch, F, "__bool__")
    assert nullspace([[ZERO] * 28 for _ in range(56)], ncols=28) == [unit_vec(28, i) for i in range(28)]
    assert len(truth_tests) == 56


def integer_matrices(seed):
    """(m, ncols): seeded integer matrices, empty, with all-zero rows, of full
    column rank, rank-deficient, wide and tall, with entries up to 2^40."""
    rng = random.Random(seed)

    def dense(r, c, bound):
        return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]

    out = [([], 0), ([], 3), ([[0] * 4] * 3, 4)]
    for bound in (3, 2**40):
        for _ in range(4):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            out.append((dense(r, c, bound), c))  # wide, tall or square
            out.append((dense(c + rng.randint(0, 3), c, bound), c))  # tall: full column rank, almost surely
            k = rng.randint(1, min(r, c))
            a, b = dense(r, k, bound), dense(k, c, 3)
            out.append(([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a], c))  # rank <= k
            zero_rows = dense(r, c, bound)
            zero_rows.insert(rng.randint(0, r), [0] * c)
            out.append((zero_rows, c))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_is_the_echelon_form_of_the_kernel(seed):
    # _kernel's one elimination gives the echelon form of the kernel that one
    # vector per free column spans; the forward pass gives the rank profile
    for m, ncols in integer_matrices(seed):
        basis, pivots = _kernel(m, ncols)
        assert (basis, pivots) == _echelon(reference_kernel(m, ncols)), m
        for v, p in zip(basis, pivots):
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)
            assert math.gcd(*v) == 1 and v[p] > 0 and not any(v[:p])
        rows, forward_pivots = _forward(m)
        assert forward_pivots == _echelon(m)[1]
        assert len(basis) == ncols - len(forward_pivots)
        # primitive row echelon rows with the same span
        for row, p in zip(rows, forward_pivots):
            assert math.gcd(*row) == 1 and row[p] and not any(row[:p])
        assert _echelon(rows) == _echelon(m)


def test_forward_pivots_and_echelon_match_the_oracle_at_edge_shapes():
    # the pivot row is the first row from the current one on that is nonzero
    # in the column: all-zero rows before, between and after the others, zero
    # columns before and between pivots, a single row, a nonzero row found
    # only after zero ones, and more columns than the rows can pivot
    cases = [
        [[0, 0, 0]],
        [[0, 3, 0, -6]],
        [[0, 0, 0, 0], [0, 2, 4, 0], [0, 0, 0, 0], [0, 0, 0, 5], [0, 0, 0, 0]],
        [[1, 0, 2], [0, 0, 3]],
        [[0, 0, 0], [0, 0, 0], [4, 0, 0]],
        [[0, 1, 0], [0, 0, 0], [0, 1, 1]],
        [[2, 4, 0, 6, 1], [1, 2, 0, 3, 0], [0, 0, 0, 0, 7]],
        [[1, 2], [3, 4], [5, 6], [0, 0]],
    ]
    for m in cases:
        red, pivots = reference_rref(m)
        assert _forward(m)[1] == pivots, m
        assert rref(m) == (red, pivots), m


def test_rref_and_nullspace_match_fraction_oracle_on_items(exact_items):
    for m in item_matrices(exact_items):
        assert rref(m) == reference_rref(m)
        assert nullspace(m, ncols=len(m[0])) == reference_nullspace(m, len(m[0]))


def test_subspace_rows_are_canonical(exact_items):
    # a Subspace stores primitive integer echelon rows with positive pivots:
    # one representation per subspace, whose basis is the Fraction oracle's rref
    rng = random.Random(17)
    matrices = [m for m in item_matrices(exact_items) + random_matrices(4) if m and m[0]]
    for m in matrices:
        n = len(m[0])
        s = Subspace.from_vectors(n, m)
        red, pivots = reference_rref(m)
        assert s.basis == tuple(map(tuple, red)) and list(s._pivots) == pivots
        # the pivots are stored once, equal to a scan of the rows, and take no
        # part in ==, hash or repr; they survive pickling
        assert s._pivots == tuple(pivots) == Subspace(n, s.rows)._pivots
        forged = Subspace(n, s.rows, tuple(reversed(pivots)))
        assert forged == s and hash(forged) == hash(s) and repr(forged) == repr(s)
        assert pickle.loads(pickle.dumps(s))._pivots == s._pivots
        assert all(isinstance(x, int) for row in s.rows for x in row)
        assert all(math.gcd(*row) == 1 and row[p] > 0 for row, p in zip(s.rows, pivots))
        factors = [F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4, 7])) for _ in m]
        scaled = [[c * x for x in row] for c, row in zip(factors, m)]
        variants = [scaled[::-1] + [[0] * n], s.rows, s.basis]  # scaled, negated and reordered; ints; Fractions
        for rows in variants:
            t = Subspace.from_vectors(n, rows)
            assert t == s and hash(t) == hash(s)
        # membership of int and of cleared Fraction inputs agrees with the oracle's
        probes = list(s.rows[:3]) + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
        if s.rows:
            probes.append([sum(row[k] for row in s.rows) for k in range(n)])
        for v in probes:
            fv = tuple(F(x) for x in v)
            # v lies in the span iff it is the combination of the rref basis read off at the pivots
            inside = tuple(sum((fv[p] * b[k] for p, b in zip(pivots, red)), ZERO) for k in range(n)) == fv
            assert s._contains_ints(v) == s._contains_ints(_cleared(fv)[0]) == inside


def assert_charpoly_of_cleared(m):
    """charpoly of the integer d m, d the common denominator of m, is the
    oracle's on d m, in ints, and its c_k is d^k times the oracle's c_k of m."""
    ints, d = clear_denominators(m)
    p, n = charpoly(ints), len(m)
    assert all(type(c) is int for c in p)
    assert p == ref_charpoly([[F(x) for x in row] for row in ints])
    assert p == [c * d ** (n - k) for k, c in enumerate(ref_charpoly(m))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_det_charpoly_minors_match_fraction_oracle(seed):
    squares = [m for m in random_matrices(seed) if len(m) == len(m[0] if m else [])]
    assert squares and any(ref_det(m) == 0 for m in squares) and any(ref_det(m) != 0 for m in squares)
    for m in squares:
        assert det(m) == ref_det(m)
        assert_charpoly_of_cleared(m)
        mtm = mat_mul(transpose(m), m)
        sym = [[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(mtm)]  # m^T m + I: positive definite
        for s in (m, sym, [[-x for x in row] for row in sym]):
            assert leading_minors_positive(clear_denominators(s)[0]) == ref_leading_minors_positive(s)
        if det(m) != 0:
            assert mat_mul(m, mat_inverse(m)) == identity(len(m))


def sparse_positive_definite(rng: random.Random, n: int) -> list[list[list[Fraction]]]:
    """Positive definite symmetric rational matrices of order n, most entries
    zero: diagonal; blocks b^T b + I of orders 1-3 under one random
    permutation of rows and columns; banded, of width 1 or 2, and
    diagonally dominant."""

    def positive():
        return F(rng.randint(1, 10**3), rng.choice([1, 2, 3, rng.randint(1, 10**6)]))

    def small():
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    diagonal = [[positive() if i == j else F(0) for j in range(n)] for i in range(n)]
    blocks = [[F(0)] * n for _ in range(n)]
    start = 0
    while start < n:
        size = min(rng.randint(1, 3), n - start)
        b = [[small() for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(size):
                blocks[start + i][start + j] = sum(b[k][i] * b[k][j] for k in range(size)) + int(i == j)
        start += size
    perm = rng.sample(range(n), n)
    permuted = [[blocks[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    width = rng.randint(1, 2)
    banded = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, min(n, i + width + 1)):
            banded[i][j] = banded[j][i] = small()
    for i, row in enumerate(banded):
        row[i] = sum(map(abs, row)) + positive()
    return [diagonal, permuted, banded]


def planted(m: list[list[Fraction]], k: int, shift: Fraction) -> list[list[Fraction]]:
    """m, positive definite, with its k-th leading minor made -shift times the
    (k-1)-th, all earlier ones kept: the minor is affine in m[k][k] with slope
    the (k-1)-th minor, so only that diagonal entry moves."""
    before = ref_det([row[:k] for row in m[:k]])
    minor = ref_det([row[: k + 1] for row in m[: k + 1]])
    out = [list(row) for row in m]
    out[k][k] -= minor / before + shift
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_sparse_symmetric_minors_match_fraction_oracle(seed):
    # the PD test rewrites only rows nonzero in the pivot column, and det
    # shares its step: on diagonal, permuted block-diagonal and banded
    # matrices, positive definite and with a zero or a negative leading minor
    # planted at every position, both agree with the Fraction oracles
    rng = random.Random(seed)
    for n in range(11):
        for m in sparse_positive_definite(rng, n):
            cases = [m] + [planted(m, k, shift) for k in range(n) for shift in (F(0), F(rng.randint(1, 9), rng.randint(1, 9)))]
            for s in cases:
                expected = ref_leading_minors_positive(s)
                assert expected == (s is m)
                assert leading_minors_positive(clear_denominators(s)[0]) == expected
                assert det(s) == ref_det(s)


def test_pd_test_rewrites_no_row_of_a_diagonal_gram(corpus, monkeypatch):
    # abelian_r8's omega Gram is diagonal: Sylvester's test decides it with no
    # row rewritten, where eliminating every row below each pivot made 28
    # rewrites; a Gram with no zero entry still takes all 28
    rewrites = []

    class Row(list):
        def __setitem__(self, key, value):
            rewrites.append(key)
            super().__setitem__(key, value)

    original = linalg_mod._primitive
    monkeypatch.setattr(linalg_mod, "_primitive", lambda row: Row(original(row)))
    fx = corpus["abelian_r8"]
    gram = _gram_ints(fx.omega, fx.J)[0]
    assert gram == [[2 * int(i == j) for j in range(8)] for i in range(8)]
    assert leading_minors_positive(gram) and rewrites == []
    assert leading_minors_positive([[x + 1 for x in row] for row in gram]) and len(rewrites) == 28


def test_nullspace_of_no_nonzero_row_is_the_unit_basis(monkeypatch):
    # R^12's d on 2-forms is 220 x 66 zeros, and a matrix with no rows
    # constrains nothing: each kernel is the unit basis, formed with no elimination
    matrix, pairs, _ = d2_matrix(LieAlgebra.from_brackets(12, {}))
    assert (len(matrix), len(pairs)) == (220, 66)
    monkeypatch.setattr(linalg_mod, "_kernel", lambda *a: pytest.fail("eliminated a matrix with no nonzero row"))
    for m, ncols in ((matrix, 66), ([], 4), ([], 0)):
        assert nullspace(m, ncols=ncols) == [unit_vec(ncols, i) for i in range(ncols)]


def test_det_charpoly_match_fraction_oracle_on_items(exact_items):
    for m in item_matrices(exact_items):
        if len(m) == len(m[0]):
            assert det(m) == ref_det(m)
            assert_charpoly_of_cleared(m)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_from_roots(*roots):
    """The monic integer product of the factors (t - r) over the integer roots r, ascending."""
    p = [1]
    for r in roots:
        p = poly_mul(p, [-r, 1])
    return p


def test_rational_roots_large_coefficients_by_bisection():
    # coefficients up to 10^36: the bisection's depth grows with their size, not their divisors
    a = 10**9
    p = poly_from_roots(0, a, a + 1, -(2 * a + 1))
    assert rational_roots(p) == [-(2 * a + 1), 0, a, a + 1]
    # with an irrational pair: the charpoly of d m, d = 6 * 10^7, for an m with
    # eigenvalues 7/3, -5/2 and +-sqrt(2), is (t - 7d/3)(t + 5d/2)(t^2 - 2 d^2)
    d = 6 * 10**7
    p = poly_mul(poly_from_roots(7 * d // 3, -5 * d // 2), [-2 * d * d, 0, 1])
    assert rational_roots(p) == [-5 * d // 2, 7 * d // 3]
    # a double root next to a simple one
    b = 10**7
    assert rational_roots(poly_from_roots(b, b, b + 1)) == [b, b + 1]


NON_SQUARES = [k for k in range(2, 40) if k not in {1, 4, 9, 16, 25, 36}]


@pytest.mark.parametrize("seed", range(5))
def test_root_functions_by_construction(seed):
    # prod (t - r)^mult prod (t^2 - k) prod (t^2 + k'): the roots are known
    rng = random.Random(seed)
    for _ in range(40):
        integers = {rng.randint(-180, 180) for _ in range(rng.randint(0, 4))}
        ks = rng.sample(NON_SQUARES, rng.randint(0, 2))
        kps = rng.sample(range(1, 40), rng.randint(0, 2))
        p = [1]
        for r in integers:
            for _ in range(rng.randint(1, 3)):
                p = poly_mul(p, [-r, 1])
        for k in ks:
            p = poly_mul(p, [-k, 0, 1])
        for k in kps:
            p = poly_mul(p, [k, 0, 1])
        assert count_real_roots(p) == len(integers) + 2 * len(ks)
        assert all_roots_real(p) == (not kps)
        assert rational_roots(p) == sorted(integers)
    # the only monic constant, the charpoly of the 0 x 0 matrix
    assert charpoly([]) == [1]
    assert count_real_roots([1]) == 0
    assert all_roots_real([1])
    assert rational_roots([1]) == []


@pytest.mark.parametrize("seed", range(3))
def test_rational_roots_of_power_of_t_times_f(seed):
    # t^k f, the shape of the charpoly of ad x when x has a kernel: the roots
    # are 0 and those of f, which may have the root 0 itself
    rng = random.Random(seed)
    for _ in range(40):
        roots = {rng.randint(-180, 180) for _ in range(rng.randint(0, 4))}
        f = poly_mul(poly_from_roots(*roots), rng.choice([[1], [-2, 0, 1], [3, 0, 1]]))
        p = [0] * rng.randint(1, 12) + f
        assert rational_roots(p) == sorted(roots | {0})
    assert rational_roots([0] * 11 + [-9, 1]) == [0, 9]
    assert rational_roots([0, 0, 1]) == [0]


@pytest.mark.parametrize("seed", range(3))
def test_rational_roots_linear_remainder_matches_bisection(seed):
    # t^k (t + a_0) with roots up to 10^9, alone and times small linear factors:
    # the bisection finds 0, when k > 0, and -a_0
    rng = random.Random(seed)
    for _ in range(40):
        root = rng.randint(-10**9, 10**9)
        k = rng.randint(0, 4)
        zero = {0} if k else set()
        assert rational_roots([0] * k + [-root, 1]) == sorted({root} | zero)
        roots = [root] + [rng.randint(-180, 180) for _ in range(rng.randint(1, 3))]
        assert rational_roots([0] * k + poly_from_roots(*roots)) == sorted(set(roots) | zero)


def quadratic_roots(q):
    """The integer roots of a monic t^2 + a_1 t + a_0: (-a_1 +- r) / 2 when the
    discriminant is a square r^2, exact as r = a_1 mod 2."""
    disc = q[1] ** 2 - 4 * q[0]
    r = math.isqrt(max(disc, 0))
    return sorted({(-q[1] + x) // 2 for x in (r, -r)}) if r * r == disc else []


@pytest.mark.parametrize("seed", range(3))
def test_rational_roots_quadratic_remainder_matches_bisection(seed):
    # t^k (t^2 + a_1 t + a_0) with coefficients up to about 10^12: the bisection
    # finds 0, when k > 0, and the roots that isqrt of the discriminant gives
    rng = random.Random(seed)

    def integer():
        return rng.randint(-5 * 10**4, 5 * 10**4)

    for _ in range(20):
        a, b = integer(), integer()
        big = rng.randint(10**6 - 10, 10**6 + 10)
        u, v = rng.randint(-big, big), rng.randint(-big, big)
        for q, roots in (
            (poly_from_roots(a, b), {a, b}),  # two rational roots
            (poly_from_roots(a, a), {a}),  # a double root
            ([big * big, rng.randint(-big, big), 1], set()),  # a negative discriminant
            ([-(big * big + rng.randint(1, 2 * big)), 0, 1], set()),  # a positive non-square one
            (poly_from_roots(u, v), {u, v}),  # roots up to 10^6, coefficients up to 10^12
            ([rng.randint(-big * big, big * big), rng.randint(-2 * big, 2 * big), 1], None),  # the same size, roots not known beforehand
        ):
            if q[0] == 0:  # t times a linear factor: the linear test's shape
                continue
            assert roots is None or quadratic_roots(q) == sorted(roots)
            k = rng.randint(0, 4)
            zero = [0] if k else []
            assert rational_roots([0] * k + q) == sorted(zero + quadratic_roots(q))
