"""Exact kernel: echelon forms, kernels, characteristic polynomials, Sturm."""

import random
from fractions import Fraction

import pytest

from tamecert.forms import d2_matrix
from tamecert.linalg import (
    ONE,
    ZERO,
    Subspace,
    all_roots_real,
    charpoly,
    count_real_roots,
    det,
    frac,
    identity,
    leading_minors_positive,
    mat_add,
    mat_copy,
    mat_inverse,
    mat_mul,
    mat_trace,
    mat_vec,
    nullspace,
    rank,
    rational_roots,
    rref,
    solve,
    transpose,
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
    assert frac("3/4") == F(3, 4)
    assert frac(-2) == F(-2)


def test_rref_canonical_and_idempotent():
    rows = [[F(2), F(4), F(6)], [F(1), F(2), F(4)]]
    red, pivots = rref(rows)
    assert pivots == [0, 2]
    assert red == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    again, _ = rref(red)
    assert again == red


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        for v in nullspace(rows, ncols=5):
            assert all(x == 0 for x in mat_vec(rows, v))


def test_solve_consistency():
    a = [[F(1), F(2)], [F(3), F(5)]]
    x = solve(a, (F(1), F(2)))
    assert x is not None
    assert mat_vec(a, x) == (F(1), F(2))
    # inconsistent system
    assert solve([[F(1), F(1)], [F(2), F(2)]], (F(0), F(1))) is None


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
        random_inputs.append([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    zero_inputs = [[[F(0)] * n for _ in range(n)] for n in range(1, 6)]
    for a in random_inputs + zero_inputs:
        n = len(a)
        p = charpoly(a)
        for t in (F(0), F(1), F(-2), F(5, 3)):
            shifted = [[(t if i == j else F(0)) - a[i][j] for j in range(n)] for i in range(n)]
            assert poly_eval(p, t) == det(shifted)


def test_real_root_counting():
    # t^2 - 2: two real irrational roots
    assert count_real_roots([F(-2), F(0), F(1)]) == 2
    assert all_roots_real([F(-2), F(0), F(1)])
    # t^2 + 1: none
    assert count_real_roots([F(1), F(0), F(1)]) == 0
    assert not all_roots_real([F(1), F(0), F(1)])
    # (t^2+1)(t-3): one real root
    assert count_real_roots([F(-3), F(1), F(-3), F(1)]) == 1
    # repeated roots: (t+1)^2 (t-2) = t^3 - 3t - 2
    p = [F(-2), F(-3), F(0), F(1)]
    assert poly_eval(p, F(-1)) == 0
    assert all_roots_real(p)


def test_rational_roots():
    # (t - 1/2)(t + 3) t = t^3 + (5/2)t^2 - (3/2)t
    p = [F(0), F(-3, 2), F(5, 2), F(1)]
    assert rational_roots(p) == [F(-3), F(0), F(1, 2)]
    # no rational roots for t^2 - 2
    assert rational_roots([F(-2), F(0), F(1)]) == []


def test_subspace_canonicalization_and_ops():
    s1 = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace.from_vectors(3, [(2, 2, 2), (0, 0, 5), (2, 2, 0)])
    assert s1 == s2  # same subspace, same canonical form
    assert s1.contains_vector((3, 3, -7))
    assert not s1.contains_vector((1, 0, 0))
    line = Subspace.from_vectors(3, [(1, 1, 1)])
    assert s1.intersect(line) == line
    assert s1.add(Subspace.from_vectors(3, [(1, 0, 0)])) == Subspace.full(3)
    assert Subspace.from_vectors(3, s1.basis) == s1  # idempotent


def test_subspace_coordinates():
    s = Subspace.from_vectors(4, [(1, 0, 2, 0), (0, 1, 3, 0)])
    v = (F(2), F(-1), F(1), F(0))
    coords = s.coordinates_of(v)
    assert coords == (F(2), F(-1))
    assert s.coordinates_of((0, 0, 0, 1)) is None


def test_intersection_oracle_random():
    # oracle: a random vector in the intersection must be in both spaces
    rng = random.Random(11)
    for _ in range(20):
        a = Subspace.from_vectors(4, [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(2)])
        b = Subspace.from_vectors(4, [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)])
        inter = a.intersect(b)
        for v in inter.basis:
            assert a.contains_vector(v) and b.contains_vector(v)
        # dimension formula dim(a) + dim(b) = dim(a+b) + dim(a^b)
        assert a.dim + b.dim == a.add(b).dim + inter.dim


# --- oracles: the Fraction eliminations these functions used before they moved to integers ---


def ref_rref(rows):
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


def ref_det(m):
    n = len(m)
    a = mat_copy(m)
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


def ref_leading_minors_positive(m):
    return all(ref_det([row[: k + 1] for row in m[: k + 1]]) > 0 for k in range(len(m)))


def ref_nullspace(m, ncols):
    red, pivots = ref_rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return [tuple(row) for row in ref_rref(basis)[0]]


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
        out += [g.adjoint_of_basis(i) for i in range(g.dim)]
        out.append([list(r) for r in J.matrix])
        out.append(d2_matrix(g)[0])
    return [m for m in out if m]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_nullspace_rank_match_fraction_oracle(seed):
    for m in random_matrices(seed):
        assert rref(m) == ref_rref(m)
        assert rank(m) == len(ref_rref(m)[0])
        ncols = len(m[0]) if m else 4
        assert nullspace(m, ncols=ncols) == ref_nullspace(m, ncols)
        if m and m[0]:
            rhs = [row[0] - 2 * row[-1] for row in m]
            sol = solve(m, rhs)
            assert sol is not None and list(mat_vec(m, sol)) == rhs


def test_rref_and_nullspace_match_fraction_oracle_on_items(exact_items):
    for m in item_matrices(exact_items):
        assert rref(m) == ref_rref(m)
        assert nullspace(m, ncols=len(m[0])) == ref_nullspace(m, len(m[0]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_det_charpoly_minors_match_fraction_oracle(seed):
    squares = [m for m in random_matrices(seed) if len(m) == len(m[0] if m else [])]
    assert squares and any(ref_det(m) == 0 for m in squares) and any(ref_det(m) != 0 for m in squares)
    for m in squares:
        assert det(m) == ref_det(m)
        assert charpoly(m) == ref_charpoly(m)
        sym = mat_add(mat_mul(transpose(m), m), identity(len(m))) if m else m  # positive definite
        for s in (m, sym, [[-x for x in row] for row in sym]):
            assert leading_minors_positive(s) == ref_leading_minors_positive(s)
        if det(m) != 0:
            assert mat_mul(m, mat_inverse(m)) == identity(len(m))


def test_det_charpoly_match_fraction_oracle_on_items(exact_items):
    for m in item_matrices(exact_items):
        if len(m) == len(m[0]):
            assert det(m) == ref_det(m)
            assert charpoly(m) == ref_charpoly(m)


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_from_roots(*roots):
    """The product of the factors (den t - num) over the roots num / den, ascending."""
    p = [F(1)]
    for r in roots:
        r = F(r)
        p = poly_mul(p, [F(-r.numerator), F(r.denominator)])
    return p


def test_rational_roots_large_coefficients_by_bisection():
    # coefficients up to 10^36: the bisection's depth grows with their size, not their divisors
    a = 10**9
    p = poly_from_roots(0, a, a + 1, -(2 * a + 1))
    assert rational_roots(p) == [F(-(2 * a + 1)), F(0), F(a), F(a + 1)]
    # not monic, with an irrational pair: (3t - 7)(2t + 5)(t^2 - 2), times 10^7
    p = [c * 10**7 for c in poly_mul(poly_from_roots(F(7, 3), F(-5, 2)), [F(-2), F(0), F(1)])]
    assert rational_roots(p) == [F(-5, 2), F(7, 3)]
    # a double root next to a simple one
    b = 10**7
    assert rational_roots(poly_from_roots(b, b, b + 1)) == [F(b), F(b + 1)]


NON_SQUARES = [k for k in range(2, 40) if k not in {1, 4, 9, 16, 25, 36}]


@pytest.mark.parametrize("seed", range(5))
def test_root_functions_by_construction(seed):
    # c prod (den t - num)^mult prod (t^2 - k) prod (t^2 + k'): the roots are known
    rng = random.Random(seed)
    for _ in range(40):
        rationals = {F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))}
        ks = rng.sample(NON_SQUARES, rng.randint(0, 2))
        kps = rng.sample(range(1, 40), rng.randint(0, 2))
        p = [F(rng.choice([-1, -3, 2, 6, F(-5, 7)]))]
        for r in rationals:
            for _ in range(rng.randint(1, 3)):
                p = poly_mul(p, [F(-r.numerator), F(r.denominator)])
        for k in ks:
            p = poly_mul(p, [F(-k), F(0), F(1)])
        for k in kps:
            p = poly_mul(p, [F(k), F(0), F(1)])
        if rng.random() < 0.3:
            p.append(F(0))  # a zero leading coefficient is ignored
        assert count_real_roots(p) == len(rationals) + 2 * len(ks)
        assert all_roots_real(p) == (not kps)
        assert rational_roots(p) == sorted(rationals)
    for constant in ([], [F(0)], [F(0), F(0)], [F(-4)], [F(3, 2), F(0)]):
        assert count_real_roots(constant) == 0
        assert all_roots_real(constant)
        assert rational_roots(constant) == []
