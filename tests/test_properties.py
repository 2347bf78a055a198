"""Randomized invariants on generated algebras.

Two-step nilpotent algebras (brackets landing in a central summand) satisfy
Jacobi for free, which makes them a cheap fuzz family for the exact paths.
Those on which the standard J is integrable are in the paper's class and are
not direct sums of the corpus fixtures.
"""

import random
from fractions import Fraction

from tamecert import (
    Fixture,
    LieAlgebra,
    OneForm,
    analyze,
    ce_d,
    decide,
    Infeasible,
    Feasible,
    is_completely_solvable,
    is_integrable,
    standard_complex_structure,
)
from tamecert.forms import closed_two_forms, is_taming
from tamecert.linalg import unit_vec

from conftest import dense_conjugate, integrable_two_step, random_rational_vector

F = Fraction


def random_two_step(rng: random.Random, base: int, central: int):
    dim = base + central
    brackets = {}
    for i in range(base):
        for j in range(i + 1, base):
            if rng.random() < 0.6:
                entry = {
                    base + k: F(rng.randint(-3, 3))
                    for k in range(central)
                    if rng.random() < 0.7
                }
                entry = {k: c for k, c in entry.items() if c != 0}
                if entry:
                    brackets[(i, j)] = entry
    return LieAlgebra.from_brackets(dim, brackets)


def test_two_step_nilpotent_invariants():
    rng = random.Random(31337)
    for trial in range(15):
        g = random_two_step(rng, base=rng.randint(2, 4), central=rng.randint(1, 3))
        assert g.is_nilpotent()
        assert bool(is_completely_solvable(g))
        assert g.is_unimodular() == (True, None)
        # d-squared and closed-basis exactness
        for i in range(g.dim):
            assert ce_d(g, ce_d(g, OneForm.from_coeffs(unit_vec(g.dim, i)))).is_zero()
        for b in closed_two_forms(g):
            assert ce_d(g, b).is_zero()
        # bilinearity fuzz: [x+y, z] = [x,z] + [y,z]
        x = random_rational_vector(rng, g.dim)
        y = random_rational_vector(rng, g.dim)
        z = random_rational_vector(rng, g.dim)
        lhs = g.bracket([a + b for a, b in zip(x, y)], z)
        rhs = [a + b for a, b in zip(g.bracket(x, z), g.bracket(y, z))]
        assert list(lhs) == rhs


def test_verdicts_are_certified_on_random_kaehler_rotations():
    # random rational symplectic bases of abelian R^4: decide must stay
    # Feasible and certify exactly regardless of the J chosen
    import numpy as np

    from tamecert.forms import ComplexStructure
    from tamecert.linalg import mat_from_rows, mat_inverse, mat_mul

    rng = random.Random(7)
    g = LieAlgebra.from_brackets(4, {})
    j_std = mat_from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    found = 0
    while found < 5:
        p = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        try:
            p_inv = mat_inverse(p)
        except ValueError:
            continue
        found += 1
        J = ComplexStructure.from_matrix(mat_mul(mat_mul(p, j_std), p_inv))
        v = decide(g, J)
        assert isinstance(v, Feasible)
        assert is_taming(v.omega, J)
        assert not isinstance(v, Infeasible)
        assert np.isfinite(v.lambda_min) and v.lambda_min > 0


# (dim V, dim Z) of the integrable 2-step draws, n = 6 to 12, three draws each
INTEGRABLE_SHAPES = [(4, 2), (6, 2), (4, 4), (8, 2), (6, 4), (10, 2), (8, 4)]


def test_integrable_two_step_draws_are_infeasible_by_the_precheck():
    # each draw is nilpotent, so completely solvable and unimodular, with J
    # integrable by construction, and non-abelian: the theorem says no closed
    # form tames J, and the exact precheck proves it with no float lane.  The
    # first draw of each n is also taken in a dense integer basis
    rng = random.Random(2026)
    conjugated = set()
    for base, central in INTEGRABLE_SHAPES:
        n = base + central
        for k in range(3):
            g, J = integrable_two_step(rng, base, central), standard_complex_structure(n)
            cases = [(f"v{base}z{central}#{k}", g, J)]
            if n not in conjugated:
                conjugated.add(n)
                cases.append((f"v{base}z{central}#{k}~dense", *dense_conjugate(g, J)))
            for name, h, K in cases:
                assert is_integrable(h, K), name
                report = analyze(Fixture(name, h, K, None))
                t = report.theorem_consistency
                assert t.applicable and t.consistent and not report.flags["abelian"], (name, t.detail)
                v = decide(h, K)
                assert isinstance(v, Infeasible) and v.rank_one_direction is not None, name
                assert v.best_primal == 0.0, name
