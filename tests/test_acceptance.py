"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value asserted here was either computed by the
independent oracles in this file (sphere sampling, signed-pairing Nijenhuis
search, hand-expanded brackets) or is pinned from exact arithmetic.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from tamecert import (
    Feasible,
    Infeasible,
    LieAlgebra,
    OneForm,
    Subspace,
    TamedTriple,
    Unknown,
    analyze,
    ce_d,
    corpus_run,
    decide,
    is_integrable,
    proof_trace,
    reduction_tower,
    standard_complex_structure,
)
from tamecert.feasibility import build_problem
from tamecert.forms import ComplexStructure, closed_two_forms
from tamecert.linalg import unit_vec
from tamecert.pipeline import EXIT_INCONSISTENT

from conftest import TAMED_NAMES, form_coeff, jacobi_residual

F = Fraction


def _report(num, ok, message):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_criterion_1_torus_direction():
    # abelian R^{2n} with standard J: Feasible, exact PD, margin >= 0.1, < 1 s
    worst = None
    for n in (1, 2, 3, 4):
        dim = 2 * n
        start = time.perf_counter()
        v = decide(LieAlgebra.from_brackets(dim, {}), standard_complex_structure(dim))
        elapsed = time.perf_counter() - start
        assert isinstance(v, Feasible), f"R^{dim} not Feasible"
        assert v.exact_pd, f"R^{dim} lacked an exact PD certificate"
        assert v.lambda_min >= 0.1, f"R^{dim} margin {v.lambda_min} < 0.1"
        assert elapsed < 1.0, f"R^{dim} took {elapsed:.2f}s"
        worst = max(worst or 0.0, elapsed)
    _report(1, True, f"tori R^2..R^8 Feasible with exact PD, margins >= 0.1, worst {worst:.2f}s")


def test_criterion_2_nilpotent_obstruction():
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})  # h3 + R
    J = standard_complex_structure(4)
    # derived precondition: Z^2 excludes e^3 ^ e^4
    basis = closed_two_forms(g)
    assert len(basis) == 5
    assert all(form_coeff(b, 2, 3) == 0 for b in basis)
    start = time.perf_counter()
    v = decide(g, J)
    elapsed = time.perf_counter() - start
    assert isinstance(v, Infeasible)
    assert v.rank_one_direction == (F(0), F(0), F(1), F(0))
    e3e3 = [[F(0)] * 4 for _ in range(4)]
    e3e3[2][2] = F(1)
    assert [list(r) for r in v.dual] == e3e3, "dual is not e3 e3^T"
    # exact pairing of the certificate against all 5 closed Gram forms
    p = build_problem(g, J)
    for s in p.gram_basis:
        assert s[2][2] == 0
    assert v.best_primal <= 1e-9
    assert elapsed < 5.0, f"decide took {elapsed:.2f}s"
    _report(2, True, f"h3+R Infeasible with exact rank-one dual e3 e3^T in {elapsed:.2f}s")


def test_criterion_3_non_unimodular_controls(corpus):
    for name, witness in (("aff_r", "H"), ("aff_r2", "H1")):
        fx = corpus[name]
        start = time.perf_counter()
        report = analyze(fx)
        elapsed = time.perf_counter() - start
        v = report.feasibility
        assert isinstance(v, Feasible) and v.exact_pd, name
        assert not report.theorem_consistency.applicable, name
        assert report.flags["unimodular_witness"] == witness, name
        assert elapsed < 2.0, f"{name} took {elapsed:.2f}s"
    _report(3, True, "aff(R) and aff(R)^2 Feasible with exactified omega; not applicable by unimodularity witness")


def _signed_pairing_structures(dim):
    """All J with J e_a = +-e_b in disjoint index pairs; the pre-build oracle
    search space for integrable complex structures."""
    indices = list(range(dim))
    def pairings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            for tail in pairings(rest[1:k] + rest[k + 1:]):
                yield [(a, b)] + tail
    for pairing in pairings(indices):
        for signs in itertools.product((1, -1), repeat=len(pairing)):
            rows = [[0] * dim for _ in range(dim)]
            for (a, b), s in zip(pairing, signs):
                rows[b][a] = s
                rows[a][b] = -s
            yield ComplexStructure.from_matrix(rows)


def test_criterion_4_theorem_sweep(fixtures_dir, corpus):
    # pre-build oracle: solve the Nijenhuis equations over signed pairings on
    # sol4_1 and check the shipped J is one of the solutions found
    sol = corpus["sol4_1"]
    solutions = [
        J.matrix for J in _signed_pairing_structures(4) if is_integrable(sol.algebra, J)
    ]
    assert solutions, "no integrable signed-pairing J on sol4_1"
    assert sol.J.matrix in solutions, "fixture J was not rederived by the oracle"

    result = corpus_run(fixtures_dir)
    applicable = [
        e
        for e in result.entries
        if e.report is not None and e.report.theorem_consistency.applicable
    ]
    names = {e.name for e in applicable}
    assert len(applicable) >= 6, f"only {len(applicable)} applicable fixtures"
    assert {"h3_r", "iwasawa", "sol4_1"} <= names
    assert any(
        corpus[e.name].algebra.dim == 6 and e.report.flags["nilpotent"]
        for e in applicable
    ), "no 6-dim nilpotent fixture in the sweep"
    violations = []
    for e in applicable:
        r = e.report
        if r.flags["abelian"]:
            continue
        v = r.feasibility
        ok = isinstance(v, Infeasible) or (isinstance(v, Unknown) and v.degenerate_logged)
        if isinstance(v, Feasible):
            violations.append(e.name)
        assert ok, f"{e.name}: non-abelian applicable entry is {v.kind}"
    assert not violations, f"Feasible-and-non-abelian: {violations}"
    assert result.exit_code in (0, 3)
    assert result.exit_code != EXIT_INCONSISTENT
    _report(4, True, f"theorem sweep over {len(applicable)} applicable fixtures: 0 violations, exit {result.exit_code}")


def test_criterion_5_reduction_executable(corpus):
    fx = corpus["aff_r2"]
    triple = TamedTriple.build(fx.algebra, fx.omega, fx.J)
    tower = reduction_tower(triple)
    assert len(tower.steps) == 2 and tower.terminal_dim == 0
    for step in tower.steps:
        red = step.reduced
        assert red.closed and red.integrable and red.taming  # J~^2 = -I held at build
    # unimodular tamed fixtures reduce to exactly unimodular algebras
    for name in TAMED_NAMES:
        g = corpus[name].algebra
        if not g.is_unimodular()[0]:
            continue
        t = TamedTriple.build(g, corpus[name].omega, corpus[name].J)
        for step in reduction_tower(t).steps:
            assert step.reduced.algebra.is_unimodular() == (True, None), name
    _report(5, True, "reduction preserves all four flags; aff(R)^2 tower = 2 steps to dim 0; unimodularity preserved")


def test_criterion_6_proof_trace_regression(corpus):
    checked = 0
    for name in TAMED_NAMES:
        fx = corpus[name]
        rec = proof_trace(TamedTriple.build(fx.algebra, fx.omega, fx.J))  # raises RelationViolation on any residual
        for row in rec.rows:
            for residual in row.residuals.values():
                assert not any(residual), name
        checked += 1
    _report(6, True, f"bracket relations hold with exactly zero residuals on {checked} tamed fixtures")


def _sphere_oracle(problem, samples=100_000, seed=0, batch=20_000):
    """Independent oracle: max of lambda_min over random unit coefficient
    vectors, computed directly from the float Gram stack."""
    rng = np.random.default_rng(seed)
    m = problem.grams.shape[0]
    flat = problem.grams.reshape(m, -1)
    n = problem.algebra.dim
    best = -np.inf
    remaining = samples
    while remaining > 0:
        k = min(batch, remaining)
        c = rng.standard_normal((k, m))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        mats = (c @ flat).reshape(k, n, n)
        mins = np.linalg.eigvalsh(mats)[:, 0]
        best = max(best, float(mins.max()))
        remaining -= k
    return best


def test_criterion_7_oracle_equivalence(corpus):
    eps = 1e-7
    start = time.perf_counter()
    for name, fx in corpus.items():
        if fx.J is None:
            continue
        p = build_problem(fx.algebra, fx.J)
        if p.size == 0:
            continue
        verdict = decide(fx.algebra, fx.J)
        best = _sphere_oracle(p, samples=100_000, seed=2024)
        if isinstance(verdict, Feasible):
            assert best > 0 or verdict.lambda_min > eps, name
        elif isinstance(verdict, Infeasible):
            assert best <= eps, f"{name}: oracle found margin {best} but verdict is Infeasible"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(7, True, f"10^5-sample sphere oracle agrees with every verdict in {elapsed:.1f}s")


def test_criterion_8_exactness_suite(corpus):
    for name, fx in corpus.items():
        g = fx.algebra
        # Jacobi: exactly zero residuals on all basis triples
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                for k in range(j + 1, g.dim):
                    r = jacobi_residual(g, i, j, k)
                    assert not any(r), name
                    assert all(isinstance(x, F) for x in r), name
        # d compose d = 0 on all basis 1-forms, exactly
        for i in range(g.dim):
            dd = ce_d(g, ce_d(g, OneForm.from_coeffs(unit_vec(g.dim, i))))
            assert dd.is_zero(), name
        # Z^2 basis closedness, with exact rational coefficients throughout
        for b in closed_two_forms(g):
            assert ce_d(g, b).is_zero(), name
            assert all(isinstance(c, F) and not isinstance(c, float) for _, c in b.coeffs), name
        # subspace canonicalization idempotence
        for line_basis in ([unit_vec(g.dim, 0)], list(Subspace.full(g.dim).basis)):
            s = Subspace.from_vectors(g.dim, line_basis)
            assert Subspace.from_vectors(g.dim, s.basis) == s, name
            assert all(isinstance(x, F) for row in s.basis for x in row), name
    _report(8, True, "Jacobi, d^2 = 0, closed-basis exactness and canonicalization idempotence hold exactly")
