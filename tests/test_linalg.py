"""Exact kernel: echelon forms, kernels, characteristic polynomials, Sturm."""

import random
from fractions import Fraction

import pytest

from tamecert.linalg import (
    Subspace,
    all_roots_real,
    charpoly,
    count_real_roots,
    det,
    frac,
    identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    nullspace,
    poly_eval,
    rational_roots,
    rref,
    solve,
)

F = Fraction


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
