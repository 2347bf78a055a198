"""Feasibility lane: precheck, barrier solve, exactification, dual certificates."""

import hashlib
import json
import logging
import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import tamecert._numeric as numeric_mod
import tamecert.algebra as algebra_mod
import tamecert.feasibility as feas_mod
import tamecert.forms as forms_mod
from tamecert import (
    Feasible,
    Infeasible,
    LieAlgebra,
    TwoForm,
    Unknown,
    analyze,
    ce_d,
    decide,
    is_integrable,
    standard_complex_structure,
)
from tamecert.algebra import scale_structure_constants, weight_spaces
from tamecert.errors import ExactificationFailed, NotAComplexStructure
from tamecert.feasibility import (
    DEGENERATE_MARGIN,
    DENOMINATOR_BOUND,
    DegeneracyDirection,
    FeasibilityConfig,
    FeasibilityProblem,
    build_problem,
    degeneracy_precheck,
    dual_certificate,
    exactify,
    maximize_lambda_min,
)
from tamecert.forms import ComplexStructure, _gram_ints, closed_two_forms, is_taming, taming_gram
from tamecert.linalg import Subspace, _cleared, _dot, clear_denominators, leading_minors_positive, mat_inverse, mat_mul
from tamecert.pipeline import verdict_to_dict

from conftest import (
    AFF_R2_NONINT_P,
    CORPUS_NAMES,
    NON_ABELIAN,
    aff_r2_rescaled,
    conjugate,
    direct_sum,
    identity,
    intersect,
    invariant_part,
    is_exact_dual,
    largest_entry_bits,
    non_integrable_j,
    pool_draw,
    random_basis_change,
    rational_sampler,
    ref_leading_minors_positive,
    reference_definite_exit,
    reference_kernel,
    solve,
    spy,
    sweep_draws,
)

F = Fraction

# float tolerances of these tests: a reference margin above MARGIN_TOL is
# rounded to a taming form, and a float dual check is read up to DUAL_TOL
MARGIN_TOL = 1e-7
DUAL_TOL = 1e-8


def positive_definite(m) -> bool:
    """Sylvester's test on a Fraction matrix, cleared to ints first."""
    return leading_minors_positive(clear_denominators(m)[0])


def problem_for(dim, brackets):
    return build_problem(LieAlgebra.from_brackets(dim, brackets), standard_complex_structure(dim))


def fake_problem(forms, dim):
    """A hand-built problem on abelian R^dim under the standard J, whose closed
    basis is the given 2-forms and whose Grams are theirs, for unit-testing
    the numeric helpers."""
    J = standard_complex_structure(dim)
    z2 = [TwoForm.from_dict(dim, entries) for entries in forms]
    gram_basis = [taming_gram(b, J) for b in z2]
    return FeasibilityProblem(
        algebra=LieAlgebra.from_brackets(dim, {}),
        J=J,
        z2_basis=z2,
        gram_basis=gram_basis,
        grams=np.array([[[float(x) for x in row] for row in m] for m in gram_basis]),
        config=FeasibilityConfig(),
    )


# the dense basis change of test_conjugated_inoue_rank_one_certificate
INOUE_P = [[F(x) for x in row] for row in [[2, -2, -1, -1], [2, -2, -1, -2], [1, 2, 0, 1], [0, -2, 0, -1]]]


# the supgradient ascent that maximize_lambda_min used before the barrier
# solve, kept here only as an oracle, with its knobs as constants
REF_RESTARTS = 50
REF_ITERATIONS = 5000
REF_SEED = 0
REF_STALL_WINDOW = 300
REF_STALL_TOL = 1e-13


def sequential_maximize_lambda_min(p, stop_above=None, restarts=REF_RESTARTS):
    """Projected supgradient ascent with deterministic restarts, one eigh per step."""
    m = p.size
    n = p.algebra.dim
    if m == 0 or n == 0:
        return np.zeros(m), float("-inf") if n else float("inf")
    scale = max(float(np.linalg.norm(s)) for s in p.grams)
    scale = scale if scale > 0 else 1.0
    best_c = np.zeros(m)
    best_val = float("-inf")
    for restart in range(restarts):
        if restart == 0:
            c = np.array([float(np.trace(s)) for s in p.grams])
            if not np.linalg.norm(c):
                c = np.ones(m)
        else:
            rng = np.random.default_rng((REF_SEED, restart))
            c = rng.standard_normal(m)
        c = c / np.linalg.norm(c)
        local_best = float("-inf")
        since_improve = 0
        for t in range(REF_ITERATIONS):
            mat = np.einsum("i,ijk->jk", c, p.grams)
            vals, vecs = np.linalg.eigh(mat)
            val = float(vals[0])
            if val > local_best + REF_STALL_TOL:
                local_best = val
                since_improve = 0
            else:
                since_improve += 1
                if since_improve >= REF_STALL_WINDOW:
                    break
            if val > best_val:
                best_val = val
                best_c = c.copy()
            u = vecs[:, 0]
            grad = np.einsum("j,ijk,k->i", u, p.grams, u)
            step = 1.0 / (scale * np.sqrt(t + 1.0))
            c = c + step * grad
            nrm = np.linalg.norm(c)
            if nrm > 1.0:
                c = c / nrm
        if stop_above is not None and best_val > stop_above:
            break
    return best_c, best_val


# --- problem assembly ---


def test_build_problem_sizes():
    assert problem_for(4, {}).size == 6
    assert problem_for(4, {(0, 1): {2: 1}}).size == 5
    p = problem_for(2, {(0, 1): {1: 1}})
    assert p.size == 1
    assert p.gram_basis[0] == [[F(1), F(0)], [F(0), F(1)]]  # identity Gram


def test_the_zero_dimensional_algebra_is_decided():
    # the 0-dim algebra is tamed by the empty form: every lane has its own dim-0 branch
    g, J = LieAlgebra.from_brackets(0, {}), standard_complex_structure(0)
    assert decide(g, J) == Feasible(TwoForm(0, ()), math.inf, True)
    p = build_problem(g, J)
    assert p.size == 0 and p.grams.shape == (0, 0, 0)
    c, value = maximize_lambda_min(p)
    assert c.shape == (0,) and value == math.inf
    assert dual_certificate(p) is None
    taming = is_taming(TwoForm(0, ()), J)
    assert (taming.value, taming.margin) == (True, math.inf)


def test_a_j_of_another_dimension_is_refused_before_the_closed_basis(corpus, monkeypatch):
    # aff_r2 has dimension 4: a J on R^2 or R^6 is refused with is_integrable's
    # error, before closed_two_forms or any Gram reads it
    g = corpus["aff_r2"].algebra
    monkeypatch.setattr(feas_mod, "closed_two_forms", lambda g: pytest.fail("built the closed basis"))
    for n in (2, 6):
        for call in (decide, build_problem):
            with pytest.raises(NotAComplexStructure, match="J dimension does not match the algebra"):
                call(g, standard_complex_structure(n))


# --- degeneracy precheck ---


def test_precheck_h3():
    p = problem_for(4, {(0, 1): {2: 1}})
    d = degeneracy_precheck(p)
    assert d is not None
    assert d.vector == (F(0), F(0), F(1), F(0))
    assert d.provenance == "weight space in [g,g]"


def test_precheck_none_for_kaehler_and_aff():
    assert degeneracy_precheck(problem_for(4, {})) is None
    assert degeneracy_precheck(problem_for(2, {(0, 1): {1: 1}})) is None


def test_precheck_corpus_directions(corpus):
    # all three hit on [g, g] cap J[g, g], a plane searched before any weight
    # space; for iwasawa it is all of [g, g]
    expectations = {
        "iwasawa": (F(0),) * 4 + (F(1), F(0)),
        "sol4_1": (F(0), F(0), F(1), F(0)),
        "inoue_s0": (F(1), F(0), F(0), F(0)),
    }
    for name, expected in expectations.items():
        fx = corpus[name]
        p = build_problem(fx.algebra, fx.J)
        d = degeneracy_precheck(p)
        assert d is not None, name
        assert d.vector == expected, name
        assert d.provenance == "J-invariant part of [g,g]", name
        assert invariant_part(fx.algebra.derived_subalgebra(), fx.J)[1].dim == 2, name
        # a universal degeneracy direction: quadratic form zero on every
        # closed basis form, checked here against the raw forms directly
        jv = fx.J.apply(d.vector)
        for b in p.z2_basis:
            assert b(d.vector, jv) == 0, name


def test_precheck_is_basis_independent(corpus):
    # the precheck searches subspaces defined by g and J alone, so it hits on
    # a rational conjugate exactly when it hits on the original; seeds 0 and 1
    # are draws on which echelon-vector candidates missed inoue_s0 and the sum
    cases = {name: (fx.algebra, fx.J) for name, fx in corpus.items() if not fx.algebra.is_abelian()}
    inoue, sol3 = corpus["inoue_s0"], corpus["sol3_r_nonint"]
    cases["inoue_s0+sol3_r_nonint"] = direct_sum([(inoue.algebra, inoue.J), (sol3.algebra, sol3.J)])
    for name, (g, J) in cases.items():
        hit = degeneracy_precheck(build_problem(g, J)) is not None
        for seed in (0, 1):
            g2, J2 = conjugate(g, random_basis_change(g.dim, rational_sampler(seed)), J)
            p = build_problem(g2, J2)
            d = degeneracy_precheck(p)
            assert (d is not None) == hit, (name, seed)
            if d is not None:
                v = d.vector
                for s in p.gram_basis:
                    q = sum(v[i] * s[i][j] * v[j] for i in range(g.dim) for j in range(g.dim))
                    assert isinstance(q, Fraction) and q == 0, (name, seed)


def precheck_cases(corpus, exact_items):
    """(name, g, J): exact_items and two fresh conjugates of each non-abelian fixture."""
    cases = list(exact_items)
    rng = rational_sampler(24)
    for name, fx in corpus.items():
        if not fx.algebra.is_abelian():
            for k in range(2):
                cases.append((f"{name}~Q{k}", *conjugate(fx.algebra, random_basis_change(fx.algebra.dim, rng), fx.J)))
    return cases


def definite_on_derived(p) -> bool:
    """Whether a gram_basis form S_i, or their sum, is definite on [g, g]: the
    leading minors of B S B^T or of -B S B^T, B the rows of derived.basis, all
    positive, in Fractions.  Vacuously so when [g, g] = 0."""
    n = p.algebra.dim
    basis = p.algebra.derived_subalgebra().basis
    total = [[sum(s[i][j] for s in p.gram_basis) for j in range(n)] for i in range(n)]
    for s in list(p.gram_basis) + [total]:
        m = [[sum(x[i] * s[i][j] * y[j] for i in range(n) for j in range(n)) for y in basis] for x in basis]
        if ref_leading_minors_positive(m) or ref_leading_minors_positive([[-v for v in row] for row in m]):
            return True
    return False


def derived_weight_spaces(g) -> list[Subspace]:
    derived = g.derived_subalgebra()
    return [w for w in (intersect(s, derived) for s in weight_spaces(g)) if w.dim]


def takes_invariant_kernel(g, J) -> bool:
    """Whether the precheck takes [g, g] cap J[g, g] by a kernel: [g, g] is neither
    0, a line nor J-invariant, read off the Zassenhaus oracle."""
    derived = g.derived_subalgebra()
    return derived.dim > 1 and invariant_part(derived, J)[1] != derived


def test_precheck_searches_weight_spaces_inside_the_derived_algebra(corpus, exact_items, monkeypatch):
    # the precheck takes [g, g] cap J[g, g] by a kernel once, exactly when [g, g]
    # is neither a line (where it is 0) nor J-invariant (where it is [g, g]); its
    # weight spaces are found inside Z cap [g, g], and sought only after [g, g]
    # cap J[g, g] gave no direction and no closed Gram form, or their sum, is
    # definite on [g, g]: then it searches the nonzero intersections of the
    # public weight spaces with [g, g], in order; a hit on [g, g] cap J[g, g]
    # searches no weight space, and neither does a definite [g, g]
    searched = spy(monkeypatch, feas_mod, "_weight_spaces")
    invariant = spy(monkeypatch, feas_mod, "_invariant_part")
    for name, g, J in precheck_cases(corpus, exact_items):
        searched.clear()
        invariant.clear()
        p = build_problem(g, J)
        d = degeneracy_precheck(p)
        assert len(invariant) == takes_invariant_kernel(g, J), name
        if d is not None and d.provenance == "J-invariant part of [g,g]":
            assert searched == [] and not definite_on_derived(p), name
        elif definite_on_derived(p):
            assert searched == [] and d is None, name
        else:
            assert [spaces for _, spaces in searched] == [derived_weight_spaces(g)], name


def test_precheck_workload_misses_search_no_subspace(bench_items, monkeypatch):
    # on the seed-1 items of corpus and conjugated, each of the 9 non-abelian
    # misses is proved on [g, g] with no weight space and no radical kernel:
    # the 3 aff_r2 items take [g, g] cap J[g, g] = 0 by a kernel first, while
    # aff_r's line and sol3_r_nonint's J-invariant [g, g] take none; each of the
    # 12 hits takes that kernel exactly when [g, g] is neither a line nor
    # J-invariant, and searches its weight spaces only when it did not hit on
    # [g, g] cap J[g, g]: the 3 h3_r items, whose [g, g] is a line
    searched = spy(monkeypatch, feas_mod, "_weight_spaces")
    kernels = [spy(monkeypatch, feas_mod, name) for name in ("_kernel", "_invariant_part")]  # the radicals' and D cap JD's
    misses, hits, on_weights, missed_kernels = [], [], [], []
    for workload in ("corpus", "conjugated"):
        for item in bench_items[workload, 1]:
            for calls in [searched, *kernels]:
                calls.clear()
            direction = degeneracy_precheck(build_problem(item.algebra, item.J))
            label = f"{workload}:{item.name}"
            if item.algebra.is_abelian():
                assert direction is None and searched == [] and kernels == [[], []], label
                continue
            assert len(kernels[1]) == takes_invariant_kernel(item.algebra, item.J), label
            if direction is not None:
                hits.append(label)
                if direction.provenance == "weight space in [g,g]":
                    on_weights.append(label)
                    assert [spaces for _, spaces in searched] == [derived_weight_spaces(item.algebra)], label
                else:
                    assert searched == [], label
            else:
                misses.append(label)
                assert searched == [] and kernels[0] == [], label
                assert [result for _, result in kernels[1]] in ([], [[]]), label
                if kernels[1]:
                    missed_kernels.append(label)
    assert len(misses) == 9 and len(hits) == 12, (misses, hits)
    assert on_weights == ["corpus:h3_r", "conjugated:h3_r~P0", "conjugated:h3_r~P1"], on_weights
    assert missed_kernels == ["corpus:aff_r2", "conjugated:aff_r2~P0", "conjugated:aff_r2~P1"], missed_kernels


def test_precheck_hits_on_a_proper_invariant_part_before_the_exits(bench_items, monkeypatch):
    # the 6 seed-1 hits on a proper [g, g] cap J[g, g] (inoue_s0 and sol4_1, in
    # corpus and conjugated) form every Gram on the rows of that plane, none on
    # [g, g], and run no definite exit; the 3 h3_r items ([g, g] a line) and the
    # 3 iwasawa items ([g, g] J-invariant) hit with no _invariant_part call
    grams = spy(monkeypatch, feas_mod, "_grams")
    definite = spy(monkeypatch, feas_mod, "_definite")
    invariant = spy(monkeypatch, feas_mod, "_invariant_part")
    proper, without_kernel = [], []
    for workload in ("corpus", "conjugated"):
        for item in bench_items[workload, 1]:
            g, J = item.algebra, item.J
            p = build_problem(g, J)
            for calls in (grams, definite, invariant):
                calls.clear()
            d = feas_mod._degeneracy_search(p)
            label, derived = f"{workload}:{item.name}", g.derived_subalgebra()
            fixture = item.name.split("~")[0]
            if fixture in ("inoue_s0", "sol4_1"):
                part = invariant_part(derived, J)[1]
                assert 0 < part.dim < derived.dim and len(invariant) == 1, label
                assert d is not None and d.provenance == "J-invariant part of [g,g]", label
                assert grams and all(Subspace._span(g.dim, rows) == part for (_, rows, _), _ in grams), label
                assert definite == [], label
                proper.append(label)
            elif fixture in ("h3_r", "iwasawa"):
                assert derived.dim == 1 or invariant_part(derived, J)[1] == derived, label
                assert d is not None and invariant == [], label
                without_kernel.append(label)
    assert len(proper) == 6 and len(without_kernel) == 6, (proper, without_kernel)


def test_definite_exit_fires_where_the_weighted_sum_did(corpus, exact_items, bench_items, monkeypatch):
    # the exit sums the integer Grams unweighted, the Gram of W_1 + ... + W_m; it
    # fires, by a single Gram or by the sum, exactly where the lcm-weighted sum of
    # the first formulation fired: on every corpus, conjugated and scaling item at
    # seeds 1-3, on exact_items and on four pool draws per non-abelian fixture;
    # it fired when one of the search's _definite calls was true, which ends the
    # search with no direction, and a hit before the exits makes none
    exit_tests = spy(monkeypatch, feas_mod, "_definite")
    items = [(f"{w}:{s}:{item.name}", item.algebra, item.J) for (w, s), built in bench_items.items() for item in built]
    workload_count = len(items)
    items += exact_items
    items += [(f"{name}~P{k}", *pool_draw(corpus, name, k)) for name in NON_ABELIAN for k in range(4)]
    exits = Counter()
    for k, (label, g, J) in enumerate(items):
        if not g.derived_subalgebra().dim:
            continue
        p = build_problem(g, J)
        single, weighted = reference_definite_exit(p)
        exit_tests.clear()
        found = feas_mod._degeneracy_search(p)
        fired = any(result for _, result in exit_tests)
        assert fired == (single or weighted), label
        assert not fired or found is None, label
        if k < workload_count:
            exits["single" if single else "sum" if weighted else "search"] += 1
    assert exits == {"single": 24, "sum": 6, "search": 36}, exits


def test_invariant_part_of_the_derived_algebra_matches_zassenhaus(bench_items):
    # D cap JD, D = [g, g], from the precheck's kernel equals the oracle's on
    # every corpus, conjugated and scaling item at seeds 1-3
    nonzero = 0
    for (workload, seed), built in bench_items.items():
        for item in built:
            derived = item.algebra.derived_subalgebra()
            if derived.dim:
                kernel, oracle = invariant_part(derived, item.J)
                assert kernel == oracle, (workload, seed, item.name)
                nonzero += oracle.dim > 0
    assert nonzero > 0


def test_precheck_charpolys_fit_in_the_derived_algebra(corpus, exact_items, monkeypatch):
    # no characteristic polynomial the precheck takes is larger than dim [g, g];
    # searching all of the centralizer Z gave iwasawa a 6 x 6 one
    for name, g, J in precheck_cases(corpus, exact_items):
        p = build_problem(g, J)
        with monkeypatch.context() as patched:
            calls = spy(patched, algebra_mod, "charpoly")
            degeneracy_precheck(p)
        sizes = [len(m) for (m,), _ in calls]
        assert max(sizes, default=0) <= g.derived_subalgebra().dim, (name, sizes)


def reference_degeneracy_search(p, invariant_first: bool = True):
    """The precheck in its first formulation: on [g, g] cap J[g, g], then on
    each nonzero intersection of a public weight space with [g, g] (in the
    other order when invariant_first is False), the kernel of the stacked
    B S_i B^T, B the reduced-echelon basis of the subspace and S_i the exact
    Gram forms of gram_basis; the oracle for _degeneracy_search."""
    g = p.algebra
    derived = g.derived_subalgebra()
    spaces = [(w, "weight space in [g,g]") for w in (intersect(s, derived) for s in weight_spaces(g))]
    j_derived = Subspace.from_vectors(g.dim, [p.J.apply(v) for v in derived.basis])
    invariant = (intersect(derived, j_derived), "J-invariant part of [g,g]")
    spaces = [invariant] + spaces if invariant_first else spaces + [invariant]
    for w, provenance in spaces:
        basis = w.basis
        rows = [
            [sum(x[i] * s[i][j] * y[j] for i in range(g.dim) for j in range(g.dim)) for y in basis]
            for s in p.gram_basis
            for x in basis
        ]
        radical = reference_kernel(rows, w.dim)
        if radical:
            first = Subspace.from_vectors(w.dim, radical).basis[0]
            vector = tuple(sum(c * b[k] for c, b in zip(first, basis)) for k in range(g.dim))
            return DegeneracyDirection(vector, provenance)
    return None


def test_precheck_equals_the_restricted_gram_oracle(structures):
    # the w x w Grams read off the closed forms give the radical that
    # restricting each n x n Gram form gives, on every structure: the 11
    # fixtures, the 14 conjugated pool draws, the scaling sums and the 8
    # non-integrable J
    for name, g, J in structures:
        p = build_problem(g, J)
        assert feas_mod._degeneracy_search(p) == reference_degeneracy_search(p), name


def test_precheck_decides_a_line_without_a_kernel(corpus, monkeypatch):
    # on a one-dimensional subspace the radical is the line when every 1 x 1
    # restricted Gram is 0, and 0 otherwise: h3_r hits on a line of [g, g],
    # aff_r and aff_r2 miss on theirs, in the fixture basis and in both
    # conjugated pool draws, and _kernel, patched to fail, is never reached
    def refused(*args):
        raise AssertionError("the precheck took a kernel on a line")

    for name, hit in (("h3_r", True), ("aff_r", False), ("aff_r2", False)):
        fx = corpus[name]
        for label, (g, J) in [(name, (fx.algebra, fx.J))] + [(f"{name}~P{k}", pool_draw(corpus, name, k)) for k in range(2)]:
            p = build_problem(g, J)
            expected = reference_degeneracy_search(p)
            with monkeypatch.context() as patched:
                patched.setattr(feas_mod, "_kernel", refused)
                found = feas_mod._degeneracy_search(p)
            assert found == expected and (found is not None) == hit, label
            if hit:
                assert found.provenance == "weight space in [g,g]", label


def test_precheck_decides_a_zero_gram_subspace_without_a_kernel(corpus, monkeypatch):
    # a subspace on which every restricted Gram is 0 is its own radical, and its
    # first echelon row is the direction: iwasawa's [g, g] cap J[g, g] is all of
    # [g, g], a plane on which each closed Gram vanishes, in the fixture basis and
    # in both conjugated pool draws, and _kernel, patched to fail, is never reached
    def refused(*args):
        raise AssertionError("the precheck took a kernel on a zero-Gram subspace")

    fx = corpus["iwasawa"]
    for label, (g, J) in [("iwasawa", (fx.algebra, fx.J))] + [(f"iwasawa~P{k}", pool_draw(corpus, "iwasawa", k)) for k in range(2)]:
        derived = g.derived_subalgebra()
        assert invariant_part(derived, J)[1] == derived and derived.dim == 2, label
        p = build_problem(g, J)
        basis = derived.basis
        for gram in p.gram_basis:
            assert all(sum(x[i] * gram[i][j] * y[j] for i in range(g.dim) for j in range(g.dim)) == 0 for x in basis for y in basis), label
        expected = reference_degeneracy_search(p)
        with monkeypatch.context() as patched:
            patched.setattr(feas_mod, "_kernel", refused)
            found = feas_mod._degeneracy_search(p)
        assert found == expected and found.provenance == "J-invariant part of [g,g]", label
        assert found.vector == basis[0], label


def test_precheck_directions_are_rank_one_certificates(structures, bench_items):
    # every precheck hit is a rank-one certificate, checked on the closed forms'
    # integer coefficients and not through the precheck: a nonzero v with
    # B(v, Jv) = 0 for every closed B, as a . W J'a = 0 for v's integer
    # numerators a, J' = den J and B = W / w; and the search order moves no hit:
    # the oracle, searching [g, g] cap J[g, g] first or last, hits exactly where
    # the precheck does, on the structures (which hold exact_items) and on every
    # corpus, conjugated and scaling item at seeds 1-3
    items = list(structures)
    items += [(f"{w}:{seed}:{item.name}", item.algebra, item.J) for (w, seed), built in bench_items.items() for item in built]
    hits = Counter()
    for name, g, J in items:
        p = build_problem(g, J)
        d = degeneracy_precheck(p)
        for invariant_first in (True, False):
            assert (reference_degeneracy_search(p, invariant_first) is None) == (d is None), (name, invariant_first)
        if d is not None:
            a = _cleared(d.vector)[0]
            ja = J._apply_ints(a)
            assert any(a) and all(_dot(a, b._apply_ints(ja)) == 0 for b in p.z2_basis), name
            hits[d.provenance] += 1
    # 12 h3_r inputs hit on a weight line, where [g, g] cap J[g, g] = 0; the 36
    # iwasawa, sol4_1 and inoue_s0 inputs on [g, g] cap J[g, g]
    assert hits == {"J-invariant part of [g,g]": 36, "weight space in [g,g]": 12}, hits


def test_precheck_reads_no_integer_gram_stack(corpus, monkeypatch):
    # on a hit and on a miss that searched a nonzero subspace, the precheck
    # restricts the forms' integer coefficients and builds no n x n Gram:
    # _gram_ints runs in build_problem and in dual_certificate, never here
    for name, hit in (("h3_r", True), ("aff_r2", False)):
        fx = corpus[name]
        p = build_problem(fx.algebra, fx.J)
        with monkeypatch.context() as patched:
            calls = [spy(patched, module, "_gram_ints") for module in (forms_mod, feas_mod)]
            assert (degeneracy_precheck(p) is not None) == hit, name
            assert calls == [[], []], name
            if not hit:  # the count sees the dual lane's reads: one per closed form
                dual_certificate(p)
                assert sum(map(len, calls)) == p.size > 0, name


# --- the barrier solve ---


def test_maximize_r4_reaches_known_optimum():
    p = problem_for(4, {})
    c, value = maximize_lambda_min(p)
    assert value >= 1 / math.sqrt(2) - 1e-9


def test_maximize_h3_capped_at_zero():
    # e3-direction pins lambda_min <= 0 for every coefficient vector
    p = problem_for(4, {(0, 1): {2: 1}})
    _, value = maximize_lambda_min(p)
    assert value <= 1e-9


def test_maximize_at_dimension_cap():
    # abelian R^16 (m = 120 closed forms): the largest problem a fixture can pose
    p = problem_for(16, {})
    c, value = maximize_lambda_min(p)
    assert value == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-9)
    omega, _ = exactify(p, c)
    assert omega.coeffs == tuple(((2 * i, 2 * i + 1), F(1)) for i in range(8))


def test_maximize_is_bitwise_deterministic(corpus):
    # two fresh problems of one conjugated pool draw: no state carries over
    c1, v1 = maximize_lambda_min(build_problem(*pool_draw(corpus, "sol3_r_nonint", 0)))
    c2, v2 = maximize_lambda_min(build_problem(*pool_draw(corpus, "sol3_r_nonint", 0)))
    assert c1.tobytes() == c2.tobytes() and v1 == v2


def test_maximize_aff_single_gram():
    p = problem_for(2, {(0, 1): {1: 1}})
    _, value = maximize_lambda_min(p)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_newton_step_matches_finite_differences():
    # direction and decrement at an interior point, against central
    # differences of phi(x) = -tau t - log det F(x) - log(1 - |c|^2)
    rng = np.random.default_rng(0)
    n, m, tau = 3, 4, 7.0
    s = rng.standard_normal((m, n, n))
    a = np.concatenate([s + s.transpose(0, 2, 1), -np.eye(n)[None]])
    x = np.append(0.1 * rng.standard_normal(m), -10.0)  # F = sum c_k A_k + 10 I

    def phi(y):
        return -tau * y[-1] - np.linalg.slogdet(np.tensordot(y, a, 1))[1] - np.log(1.0 - y[:-1] @ y[:-1])

    e = 1e-3 * np.eye(m + 1)
    grad = np.array([(phi(x + u) - phi(x - u)) / 2e-3 for u in e])
    hess = np.array(
        [[(phi(x + u + v) - phi(x + u - v) - phi(x - u + v) + phi(x - u - v)) / 4e-6 for v in e] for u in e]
    )
    newton = -np.linalg.solve(hess, grad)
    dx, delta, *_ = numeric_mod.newton_step(a, a.reshape(m + 1, -1), x, tau)
    assert dx == pytest.approx(newton, rel=1e-5)
    assert delta == pytest.approx(np.sqrt(-(grad @ newton)), rel=1e-5)


def test_max_step_is_the_distance_to_the_boundary():
    # F(c, t) = (c - t) I on R^2 is I at x = (3/4, -1/4), so W_k = A_k and
    # W(dx) = (dc - dt) I: F stays PD up to alpha = 1 / (dt - dc), and the
    # ball |c| < 1 ends at alpha = 1/4 / dc for dc > 0 and 7/4 / -dc for
    # dc < 0.  Every number is dyadic, so max_step must return alpha_max exactly
    a = np.array([np.eye(2), -np.eye(2)])
    x = np.array([0.75, -0.25])
    *_, w = numeric_mod.newton_step(a, a.reshape(2, -1), x, 1.0)
    assert w.tolist() == a.tolist()
    cases = [
        ((0.5, 4.5), 0.25),  # the PSD boundary comes first
        ((0.5, 0.75), 0.5),  # the ball comes first
        ((-0.5, -1.0), 3.5),  # the ball alone bounds the step
        ((-0.5, 0.0), 2.0),  # the PSD boundary comes first, dc < 0
        ((0.0, -1.0), math.inf),  # neither bounds it
    ]
    for dx, alpha_max in cases:
        assert numeric_mod.max_step(w, x[:-1], np.array(dx)) == alpha_max, dx


def test_iterates_stay_strictly_feasible_at_dimension_cap(monkeypatch):
    # a long step stops short of the boundary: at every iterate of the R^16
    # solve F has a Cholesky factor and |c| < 1
    steps = spy(monkeypatch, numeric_mod, "newton_step")
    maximize_lambda_min(problem_for(16, {}))
    assert steps
    for (a, _, x, _), _ in steps:
        np.linalg.cholesky(np.tensordot(x, a, 1))
        assert x[:-1] @ x[:-1] < 1.0


def spy_linalg(monkeypatch) -> list[list]:
    """Spies on the numpy.linalg factorizations and solves, one list of calls each."""
    return [spy(monkeypatch, np.linalg, name) for name in ("eigh", "eigvalsh", "cholesky", "solve", "inv")]


def test_maximize_linalg_call_budget(corpus, monkeypatch):
    # one Newton step costs a cholesky, an inv and a solve, and a long step an
    # eigvalsh more: the path takes 26 steps here, 19 of them long (98 calls
    # with the final eigvalsh); damped steps with tau x100 took 51 (154 calls).
    # The precheck hits here, so maximize_lambda_min solves nothing: the
    # path is read directly
    p = build_problem(*conjugate(corpus["inoue_s0"].algebra, INOUE_P, corpus["inoue_s0"].J))
    calls = spy_linalg(monkeypatch)
    value = numeric_mod.lambda_min(p.grams, p.barrier_path[0][: p.size])
    assert abs(value) <= 1e-9
    assert sum(map(len, calls)) <= 108


@pytest.mark.parametrize("name", CORPUS_NAMES + ["inoue_s0~P"])
@pytest.mark.parametrize("stop_above", [None, 1e-3])
def test_maximize_matches_sequential_reference(corpus, name, stop_above):
    if name == "inoue_s0~P":
        g, J = conjugate(corpus["inoue_s0"].algebra, INOUE_P, corpus["inoue_s0"].J)
    else:
        g, J = corpus[name].algebra, corpus[name].J
    p = build_problem(g, J)
    ref_c, ref_value = sequential_maximize_lambda_min(p, stop_above, restarts=5)
    c, value = maximize_lambda_min(p, stop_above)
    if ref_value > MARGIN_TOL:
        assert value == pytest.approx(ref_value, abs=1e-9)
        assert exactify(p, c)[0].coeffs == exactify(p, ref_c)[0].coeffs
    else:
        assert ref_value <= 1e-9 and value <= 1e-9


@pytest.mark.parametrize("name", ["aff_r2", "sol3_r_nonint"])
@pytest.mark.parametrize("k", [0, 1])
def test_maximize_reaches_reference_on_conjugated_draws(corpus, name, k):
    # the Feasible conjugated benchmark items, where the precheck misses; the
    # reference stalls below the optimum on sol3_r_nonint, so the solve may
    # only match or beat it.  decide asks for a margin above
    # PROJECTION_MARGIN, which the projection of I meets here without a
    # solve, and exactify re-proves both points
    p = build_problem(*pool_draw(corpus, name, k))
    _, ref_value = sequential_maximize_lambda_min(p, 1e-3)
    solved, value = maximize_lambda_min(p)
    assert ref_value > 1e-3
    assert value >= ref_value - 1e-9
    projected, margin = maximize_lambda_min(p, feas_mod.PROJECTION_MARGIN)
    assert feas_mod.PROJECTION_MARGIN < margin <= value + 1e-9
    for c in (solved, projected):
        omega, lam = exactify(p, c)
        assert positive_definite(taming_gram(omega, p.J)) and lam > 0


# --- exactification ---


def test_exactify_r4():
    p = problem_for(4, {})
    c, _ = maximize_lambda_min(p)
    omega, lam = exactify(p, c)
    assert omega.coeffs == (((0, 1), F(1)), ((2, 3), F(1)))
    assert lam == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    gram = taming_gram(omega, p.J)
    assert positive_definite(gram)


def test_exactify_converts_no_fraction_through_float(corpus, monkeypatch):
    # the margin's norm reads each rounded q_i as numerator / denominator, the
    # IEEE value float() gives, with no call to Fraction.__float__
    fx = corpus["abelian_r8"]
    p = build_problem(fx.algebra, fx.J)
    c, _ = maximize_lambda_min(p)
    expected = exactify(p, c)
    calls = spy(monkeypatch, Fraction, "__float__")
    assert exactify(p, c) == expected and calls == []


def test_exactify_aff():
    p = problem_for(2, {(0, 1): {1: 1}})
    c, _ = maximize_lambda_min(p)
    omega, _ = exactify(p, c)
    assert omega.coeffs == (((0, 1), F(1)),)


def rounded_fraction_sum(p, c) -> TwoForm:
    """exactify's omega by its definition: every c_i / max|c| through limit_denominator, summed in Fractions."""
    q = [F(x).limit_denominator(DENOMINATOR_BOUND) for x in c / np.max(np.abs(c))]
    coeffs = {}
    for qi, b in zip(q, p.z2_basis):
        for key, v in b.coeffs:
            coeffs[key] = coeffs.get(key, F(0)) + qi * v
    return TwoForm.from_dict(p.algebra.dim, coeffs)


def test_exactify_rounds_small_coefficients_as_limit_denominator_does():
    # the optimum on R^4 plus each other coefficient set to a value on either
    # side of the 0.1 / bound cut: below it exactify writes 0 without a
    # continued fraction, above it the rounding may give 1 / bound
    p = problem_for(4, {})
    c, _ = maximize_lambda_min(p)
    c = c / np.max(np.abs(c))
    others = [i for i, x in enumerate(c) if abs(x) < 0.5]
    assert others
    for x in (9.9e-8, -9.9e-8, 1e-7, 4e-7, 6e-7, -6e-7, 9e-7, 3e-6):
        bumped = c.copy()
        bumped[others] = x
        omega, _ = exactify(p, bumped)
        reference = rounded_fraction_sum(p, bumped)
        assert repr(omega) == repr(reference) and omega._ints == reference._ints, x


def test_exactify_form_matches_fraction_sum(corpus, monkeypatch):
    # exactify sums q_i B_i in ints over one common denominator and builds omega
    # once; the reference is TwoForm.from_dict of the Fraction sum, on every
    # Feasible corpus fixture and conjugated benchmark draw.  A coefficient that
    # is exactly 0.0, most of those on the tori, is 0 with no limit_denominator,
    # and so is one below 1e-7 after scaling (tiny), all of those on the tori
    calls = spy(monkeypatch, feas_mod, "exactify")
    inputs = [(fx.algebra, fx.J) for fx in corpus.values() if fx.J is not None]
    inputs += [pool_draw(corpus, name, k) for name in NON_ABELIAN for k in range(2)]
    feasible = [v for v in (decide(g, J) for g, J in inputs) if isinstance(v, Feasible)]
    assert [v.omega for v in feasible] == [omega for _, (omega, _) in calls] and len(calls) >= 10
    zeros, tiny = [], []
    for (p, c), (omega, _) in calls:
        zeros.extend(x for x in c if x == 0.0)
        tiny.extend(x for x in c / np.max(np.abs(c)) if 0 < abs(x) < 0.1 / DENOMINATOR_BOUND)
        reference = rounded_fraction_sum(p, c)
        assert repr(omega) == repr(reference) and omega._ints == reference._ints
    assert len(zeros) >= 30, len(zeros)
    assert len(tiny) >= 5, len(tiny)


def test_limit_denominator_rounds_below_a_tenth_of_the_bound_to_zero():
    # exactify writes 0 for a scaled coefficient x with |x| < 0.1 / bound and
    # calls no limit_denominator: 0 is what that call returns there, on seeded
    # x down to the subnormals, on the smallest subnormal and on -0.0
    rng = random.Random(46)
    tiny = 0.1 / DENOMINATOR_BOUND
    xs = [rng.choice((-1, 1)) * rng.uniform(0.01, 1) * 10.0 ** -rng.uniform(7, 320) for _ in range(2000)]
    xs += [5e-324, -5e-324, -0.0, 0.0, math.nextafter(tiny, 0.0), -math.nextafter(tiny, 0.0)]
    assert all(abs(x) < tiny for x in xs)
    assert all(F(x).limit_denominator(DENOMINATOR_BOUND) == 0 for x in xs)
    # the nearest nonzero p/q within the bound, 1 / bound, is ten times the cut
    assert F(10 * tiny).limit_denominator(DENOMINATOR_BOUND) == F(1, DENOMINATOR_BOUND)


def test_exactify_fails_on_singular_optimum(monkeypatch):
    # on h3 + R the optimum margin is 0: the best Gram is PSD singular, and no
    # rounding of the optimizer makes it PD.  exactify rounds once, so one
    # exact PD check, the one in is_taming, decides (a ladder of four
    # denominator bounds made four)
    # (c is read off the path: maximize_lambda_min returns c = 0 after the precheck's proof)
    p = problem_for(4, {(0, 1): {2: 1}})
    c = p.barrier_path[0][: p.size]
    checks = spy(monkeypatch, forms_mod, "leading_minors_positive")
    with pytest.raises(ExactificationFailed):
        exactify(p, c)
    assert len(checks) == 1


# --- dual certificates ---


def test_dual_certificate_crafted():
    # e^1 ^ e^2 - e^3 ^ e^4 has the Gram diag(1, 1, -1, -1), one row with its pivot
    # at X[0][0]: the dual iterate rounds to I/4 at the free entries, and X[0][0]
    # solved from the row, X[2][2] + X[3][3] - X[1][1], is 1/4 as well
    p = fake_problem([{(0, 1): 1, (2, 3): -1}], dim=4)
    assert p.gram_basis == [[[F(int(i == j) * (1 if i < 2 else -1)) for j in range(4)] for i in range(4)]]
    assert dual_certificate(p) == ([[F(int(i == j), 4) for j in range(4)] for i in range(4)], 0.0)


def test_dual_certificate_unreachable_when_identity_in_span():
    # e^1 ^ e^2 has the Gram I: trace-one matrices cannot pair to zero with it
    p = fake_problem([{(0, 1): 1}], dim=2)
    assert p.gram_basis == [[[F(1), F(0)], [F(0), F(1)]]]
    assert dual_certificate(p) is None


# --- decide ---


def test_decide_kaehler_all_dims():
    for n in (1, 2, 3, 4):
        J = standard_complex_structure(2 * n)
        v = decide(LieAlgebra.from_brackets(2 * n, {}), J)
        assert isinstance(v, Feasible)
        assert is_taming(v.omega, J)
        assert v.lambda_min >= 0.1


def test_decide_kaehler_non_standard_j():
    # "any constant J": conjugate the standard one by a rational basis change
    from tamecert.forms import ComplexStructure
    from tamecert.linalg import mat_from_rows, mat_inverse, mat_mul

    p = mat_from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    j_std = mat_from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    conjugated = ComplexStructure.from_matrix(mat_mul(mat_mul(p, j_std), mat_inverse(p)))
    v = decide(LieAlgebra.from_brackets(4, {}), conjugated)
    assert isinstance(v, Feasible)
    assert is_taming(v.omega, conjugated)


def test_decide_h3_rank_one_certificate():
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    v = decide(g, standard_complex_structure(4))
    assert isinstance(v, Infeasible)
    assert v.rank_one_direction == (F(0), F(0), F(1), F(0))
    expected = [[F(0)] * 4 for _ in range(4)]
    expected[2][2] = F(1)
    assert [list(r) for r in v.dual] == expected
    assert v.best_primal <= 1e-9


def test_decide_aff_feasible_nonunimodular():
    g = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    v = decide(g, standard_complex_structure(2))
    assert isinstance(v, Feasible)
    assert v.omega.coeffs == (((0, 1), F(1)),)


def test_feasible_soundness(corpus):
    for name in ("abelian_r4", "abelian_r8", "aff_r", "aff_r2", "sol3_r_nonint"):
        fx = corpus[name]
        v = decide(fx.algebra, fx.J)
        assert isinstance(v, Feasible), name
        assert ce_d(fx.algebra, v.omega).is_zero(), name  # exactly closed
        assert positive_definite(taming_gram(v.omega, fx.J)), name


def test_infeasible_soundness(corpus):
    for name in ("h3_r", "iwasawa", "sol4_1", "inoue_s0"):
        fx = corpus[name]
        v = decide(fx.algebra, fx.J)
        assert isinstance(v, Infeasible), name
        dual = np.array([[float(x) for x in row] for row in v.dual])
        assert abs(np.trace(dual) - 1.0) <= 1e-9, name
        assert np.linalg.eigvalsh(dual)[0] >= -DUAL_TOL, name
        p = build_problem(fx.algebra, fx.J)
        for s in p.grams:
            assert abs(float(np.tensordot(s, dual))) <= DUAL_TOL, name
        if v.rank_one_direction is not None:
            # rank-one certificates pair to exactly zero, in exact arithmetic
            vvec = v.rank_one_direction
            for s_exact in p.gram_basis:
                val = sum(
                    vvec[i] * s_exact[i][j] * vvec[j]
                    for i in range(len(vvec))
                    for j in range(len(vvec))
                )
                assert val == 0, name


def test_conjugated_inoue_rank_one_certificate(corpus):
    # a dense basis change of an algebra with complex weights: the rank-one
    # certificate must come out exact
    fx = corpus["inoue_s0"]
    g, J = conjugate(fx.algebra, INOUE_P, fx.J)
    v = decide(g, J)
    assert isinstance(v, Infeasible)
    u = v.rank_one_direction
    assert u is not None
    assert [list(r) for r in v.dual] == [[u[i] * u[j] / sum(x * x for x in u) for j in range(4)] for i in range(4)]
    for s in build_problem(g, J).gram_basis:
        assert sum(u[i] * s[i][j] * u[j] for i in range(4) for j in range(4)) == 0


@pytest.mark.parametrize("P", AFF_R2_NONINT_P)
def test_exact_dual_certificate_on_aff_r2(corpus, P):
    # a different, non-integrable J = P J0 P^-1 on the same algebra: the
    # precheck misses, so the verdict comes from the rounded dual iterate
    fx = corpus["aff_r2"]
    J = non_integrable_j(fx, P)
    assert not is_integrable(fx.algebra, J)
    p = build_problem(fx.algebra, J)
    assert degeneracy_precheck(p) is None
    v = decide(fx.algebra, J)
    assert isinstance(v, Infeasible) and v.rank_one_direction is None
    dual = [list(row) for row in v.dual]
    assert all(isinstance(x, Fraction) for row in dual for x in row)
    assert sum(dual[i][i] for i in range(4)) == 1
    for s in p.gram_basis:
        assert sum(s[i][j] * dual[i][j] for i in range(4) for j in range(4)) == 0
    assert positive_definite(dual)
    # the report renders the dual exactly
    assert [[F(x) for x in row] for row in verdict_to_dict(v)["dual"]] == dual


def test_decide_solves_the_path_once(corpus, monkeypatch):
    # the dual lane reads the solve twice, through maximize_lambda_min and
    # dual_certificate; both share one central path
    fx = corpus["aff_r2"]
    runs = spy(monkeypatch, numeric_mod, "barrier_path")
    v = decide(fx.algebra, non_integrable_j(fx, AFF_R2_NONINT_P[0]))
    assert isinstance(v, Infeasible) and v.rank_one_direction is None
    assert len(runs) == 1


def test_dual_lane_runs_after_exactify_fails(corpus, monkeypatch):
    # a positive margin sends the solve's point to exactify first; when no
    # rounding is PD the dual lane still runs, since both lanes re-prove exactly
    fx = corpus["aff_r2"]
    maximize = feas_mod.maximize_lambda_min

    def positive_margin(p, stop_above=None):
        return maximize(p)[0], 1e-3

    monkeypatch.setattr(feas_mod, "maximize_lambda_min", positive_margin)
    exactify_calls = spy(monkeypatch, feas_mod, "exactify")
    v = decide(fx.algebra, non_integrable_j(fx, AFF_R2_NONINT_P[0]))
    assert len(exactify_calls) == 1 and exactify_calls[0][1] is None  # it raised
    assert isinstance(v, Infeasible) and v.rank_one_direction is None
    assert v.best_primal == 1e-3
    assert all(isinstance(x, Fraction) for row in v.dual for x in row)
    assert positive_definite(v.dual)


# J = P J0 P^-1 on aff_r + aff_r2, where only the rounded dual iterate certifies
AFF_SUM_NONINT_P = [
    [0, -2, 0, -2, 0, -2],
    [-2, -2, 0, 1, 1, -2],
    [-2, -2, -2, 1, 0, 0],
    [0, -1, -1, 0, 2, 2],
    [1, 0, -1, -2, 0, 0],
    [-1, 2, -2, 2, 1, -2],
]


def exact_projection_of_identity(p) -> list[list[Fraction]]:
    """The Frobenius projection of I/n onto {<S_i, X> = 0, tr X = 1}, in rationals:
    I/n - R^T y with R the rows S_1, ..., S_m, I and (R R^T) y = R I/n - (0, ..., 0, 1)."""
    n = p.algebra.dim
    flat = [[x for row in m for x in row] for m in p.gram_basis + [identity(n)]]
    start = [F(int(i == j), n) for i in range(n) for j in range(n)]
    rhs = [sum(a * b for a, b in zip(r, start)) for r in flat]
    rhs[-1] -= 1
    y = solve([[sum(a * b for a, b in zip(r, t)) for t in flat] for r in flat], rhs)
    x = [start[k] - sum(yk * r[k] for yk, r in zip(y, flat)) for k in range(n * n)]
    return [x[i * n : (i + 1) * n] for i in range(n)]


def test_dual_lane_needs_the_rounded_iterate(corpus):
    # the precheck misses and the rounded dual iterate certifies Infeasible,
    # while the exact projection of I/n, the start that would skip the solve,
    # is not positive definite: the dual lane cannot drop its solve here
    g, J0 = direct_sum([(corpus[name].algebra, corpus[name].J) for name in ("aff_r", "aff_r2")])
    P = [[F(x) for x in row] for row in AFF_SUM_NONINT_P]
    J = ComplexStructure.from_matrix(mat_mul(mat_mul(P, [list(r) for r in J0.matrix]), mat_inverse(P)))
    p = build_problem(g, J)
    assert degeneracy_precheck(p) is None
    v = decide(g, J)
    assert isinstance(v, Infeasible) and v.rank_one_direction is None
    dual = [list(row) for row in v.dual]
    assert sum(dual[i][i] for i in range(6)) == 1
    for s in p.gram_basis:
        assert sum(s[i][j] * dual[i][j] for i in range(6) for j in range(6)) == 0
    assert positive_definite(dual)
    projection = exact_projection_of_identity(p)
    assert sum(projection[i][i] for i in range(6)) == 1
    for s in p.gram_basis:
        assert sum(s[i][j] * projection[i][j] for i in range(6) for j in range(6)) == 0
    assert not positive_definite(projection)


def sixteen_dim_sum(corpus) -> tuple[LieAlgebra, ComplexStructure]:
    """aff_r2 + aff_r2 + aff_r2 + aff_r2 with the first four non-integrable J above."""
    fx = corpus["aff_r2"]
    return direct_sum([(fx.algebra, non_integrable_j(fx, P)) for P in AFF_R2_NONINT_P[:4]])


def test_dual_certificate_on_a_16_dim_sum_is_fast(corpus):
    # on the sum of aff_r2 under the first four J above (n = 16, m = 36) the
    # dual lane eliminates 36 integer rows of length 136 once, in about 3 ms
    g, J = sixteen_dim_sum(corpus)
    p = build_problem(g, J)
    assert (g.dim, p.size) == (16, 36) and degeneracy_precheck(p) is None
    p.barrier_path  # solved before the clock starts
    start = time.process_time()
    cert = dual_certificate(p)
    elapsed = time.process_time() - start
    assert cert is not None and cert[1] == 0.0
    dual = cert[0]
    assert sum(dual[i][i] for i in range(16)) == 1 and positive_definite(dual)
    for s in p.gram_basis:
        assert sum(s[i][j] * dual[i][j] for i in range(16) for j in range(16)) == 0
    assert elapsed < 0.5, f"dual_certificate took {elapsed:.2f} s"


def test_dual_certificate_rounds_only_the_free_entries(corpus, monkeypatch):
    # the pairings are one integer row each on X's n(n+1)/2 = 10 upper-triangle
    # entries, eliminated once; the iterate is rounded on a grid, not by continued
    # fractions, and no normal equations or trace row are formed
    fx = corpus["aff_r2"]
    p = build_problem(fx.algebra, non_integrable_j(fx, AFF_R2_NONINT_P[0]))
    p.barrier_path  # solved before the spies
    eliminations = spy(monkeypatch, feas_mod, "_echelon")
    roundings = spy(monkeypatch, Fraction, "limit_denominator")
    assert dual_certificate(p) is not None
    assert len(eliminations) == 1 and roundings == []
    rows = eliminations[0][0][0]
    assert len(rows) == p.size and all(len(row) == 10 for row in rows)


@pytest.mark.parametrize("P", AFF_R2_NONINT_P)
def test_dual_certificates_on_aff_r2_stay_small(corpus, P):
    # rounded on the 10^-6 grid at the free entries and solved at the pivots,
    # every numerator and denominator stays below 2^40 (at most 2^33 here)
    fx = corpus["aff_r2"]
    cert = dual_certificate(build_problem(fx.algebra, non_integrable_j(fx, P)))
    assert cert is not None and largest_entry_bits(cert[0]) <= 40


def test_dual_certificate_on_a_16_dim_sum_stays_small(corpus):
    # on the 16-dim sum every numerator and denominator stays below 2^64 (at most 2^49 here)
    p = build_problem(*sixteen_dim_sum(corpus))
    cert = dual_certificate(p)
    assert cert is not None and is_exact_dual(cert[0], p.gram_basis)
    assert largest_entry_bits(cert[0]) <= 64


# the draws of ROADMAP item 24's sweep on random.Random(12345) that the dual lane decides
SWEEP_DUAL_DRAWS = (23, 33, 39, 123, 135, 175, 193)


def test_sweep_dual_lane_draws_re_prove_exactly():
    # each is Infeasible by the dual lane, and its dual re-proves against a
    # fresh closed basis with every numerator and denominator below 2^112
    # (at most 2^94 here); draw 33's dual has lambda_min about 2.6e-6, so a
    # coarser grid or a perturbed iterate could lose it
    decided = []
    for index, name, g, J in sweep_draws(12345, max(SWEEP_DUAL_DRAWS) + 1):
        if index in SWEEP_DUAL_DRAWS:
            v = decide(g, J)
            assert isinstance(v, Infeasible) and v.rank_one_direction is None, (index, name)
            grams = [taming_gram(b, J) for b in closed_two_forms(g)]
            assert is_exact_dual([list(row) for row in v.dual], grams), (index, name)
            assert largest_entry_bits(v.dual) <= 112, (index, name)
            decided.append(index)
    assert tuple(decided) == SWEEP_DUAL_DRAWS


# non-integrable J = P J0 P^-1 on sol3_r_nonint whose only duals are singular
SOL3_SINGULAR_P = [
    [[0, 1, 1, 0], [2, 0, 2, 0], [-1, 1, -2, 0], [-1, 0, 0, -1]],
    [[0, 2, 0, 0], [0, -2, 2, 2], [0, 2, -2, -1], [2, 0, 2, 1]],
]


@pytest.mark.parametrize("P", SOL3_SINGULAR_P)
def test_singular_dual_is_unknown_within_budget(corpus, monkeypatch, P):
    # supremum 0 on the boundary of the PSD cone: only a singular dual exists,
    # so no rounding re-proves positive definite, and the lane gives up fast:
    # one shared path of 26 Newton steps, 19 of them long (98 calls; 148 with
    # damped steps and tau x100, 541 with full centering at every tau and one
    # solve per lane)
    fx = corpus["sol3_r_nonint"]
    J = non_integrable_j(fx, P)
    calls = spy_linalg(monkeypatch)
    v = decide(fx.algebra, J)
    assert isinstance(v, Unknown) and v.degenerate_logged
    assert sum(map(len, calls)) <= 108


@pytest.mark.parametrize("P", SOL3_SINGULAR_P)
def test_unknown_verdict_is_logged(corpus, caplog, P):
    fx = corpus["sol3_r_nonint"]
    J = non_integrable_j(fx, P)
    with caplog.at_level(logging.WARNING, logger="tamecert.feasibility"):
        v = decide(fx.algebra, J)
    assert isinstance(v, Unknown)
    records = [r for r in caplog.records if "Unknown" in r.getMessage()]
    assert len(records) == 1 and records[0].name == "tamecert.feasibility"
    message = records[0].getMessage()
    assert f"best margin {v.best_lambda_min:.3g}" in message
    assert "degenerate boundary case: True" in message
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tamecert.feasibility"):
        decide(corpus["aff_r2"].algebra, corpus["aff_r2"].J)
    assert not caplog.records


def test_float_overflow_is_logged_not_warned(caplog):
    # the Unknown that ROADMAP item 30 is to close: aff_r2 with J conjugated by its automorphism
    # diag(1, 10^160, 1, 10^160) is a basis change of a Kaehler pair, but the float lanes overflow
    # on its Gram entries of 10^160; numpy's overflow goes to the log, once, and is not warned
    g, J = aff_r2_rescaled(160)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.WARNING, logger="tamecert.feasibility"):
            v = decide(g, J)
    assert isinstance(v, Unknown) and v.degenerate_logged
    messages = [r.getMessage() for r in caplog.records if r.name == "tamecert.feasibility"]
    assert messages.count("numpy met a floating-point overflow in the float lanes") == 1
    assert np.geterr() == before


def test_non_integrable_j_is_logged(corpus, caplog):
    # analyze reports integrability, so it tests J and logs a failure once;
    # decide needs no integrable J, and neither it nor build_problem logs
    fx = corpus["sol3_r_nonint"]
    with caplog.at_level(logging.WARNING, logger="tamecert.pipeline"):
        report = analyze(fx)
    assert report.j_status["integrable"] is False
    records = [r for r in caplog.records if "not integrable" in r.getMessage()]
    assert [(r.name, r.levelno) for r in records] == [("tamecert.pipeline", logging.WARNING)]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tamecert.pipeline"):
        analyze(corpus["aff_r2"])
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="tamecert"):
        build_problem(fx.algebra, fx.J)
        decide(fx.algebra, fx.J)
    assert not caplog.records


def test_homogeneity_of_verdicts(corpus):
    for name in ("abelian_r4", "aff_r", "h3_r", "sol4_1"):
        fx = corpus[name]
        base = decide(fx.algebra, fx.J)
        scaled = decide(scale_structure_constants(fx.algebra, F(3, 2)), fx.J)
        assert base.kind == scaled.kind, name


def test_determinism(corpus):
    fx = corpus["abelian_r4"]
    v1 = decide(fx.algebra, fx.J)
    v2 = decide(fx.algebra, fx.J)
    assert v1 == v2
    assert v1.kind == "feasible"

    hx = corpus["h3_r"]
    w1 = decide(hx.algebra, hx.J)
    w2 = decide(hx.algebra, hx.J)
    assert w1 == w2
    assert w1.kind == "infeasible"


def test_feasible_downgrade_when_exactify_fails(monkeypatch):
    # a positive margin without an exact form is no certificate: the dual
    # lane runs next, finds no dual on a Kaehler algebra, and the verdict is Unknown
    def boom(p, c):
        raise ExactificationFailed("forced")

    monkeypatch.setattr(feas_mod, "exactify", boom)
    v = feas_mod.decide(LieAlgebra.from_brackets(2, {}), standard_complex_structure(2))
    assert isinstance(v, Unknown)
    assert v.best_lambda_min > DEGENERATE_MARGIN
    assert not v.degenerate_logged


def test_unknown_when_both_lanes_stall(monkeypatch):
    # the precheck is made to miss, so the solve runs and finds the supremum 0
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    monkeypatch.setattr(feas_mod, "_degeneracy_search", lambda p: None)
    monkeypatch.setattr(feas_mod, "dual_certificate", lambda p: None)
    v = feas_mod.decide(g, standard_complex_structure(4))
    assert isinstance(v, Unknown)
    assert v.best_lambda_min <= DEGENERATE_MARGIN
    assert v.degenerate_logged  # supremum is exactly 0 here


@pytest.fixture(scope="module")
def structures(corpus, exact_items) -> list[tuple[str, LieAlgebra, ComplexStructure]]:
    """The 28 exact_items and the 8 non-integrable J above, as (name, g, J)."""
    items = list(exact_items)
    for name, ps in (("aff_r2", AFF_R2_NONINT_P), ("sol3_r_nonint", SOL3_SINGULAR_P)):
        fx = corpus[name]
        items += [(f"{name}~J{k}", fx.algebra, non_integrable_j(fx, P)) for k, P in enumerate(ps)]
    return items


def test_closed_basis_is_never_empty(structures):
    # why decide has no empty-basis verdict: for n >= 1 the closed 2-forms
    # hold d(g*), of dimension dim [g, g], and every 2-form when g is abelian
    for name, g, J in structures:
        size = build_problem(g, J).size
        assert size >= max(1, g.derived_subalgebra().dim), name
        if g.is_abelian():
            assert size == g.dim * (g.dim - 1) // 2, name


@pytest.fixture(scope="module")
def decided(structures) -> dict[str, tuple[object, Counter, int, int]]:
    """decide on each structure, with its Newton steps per tau, the number of
    LinAlgError fallbacks it took and the number of barrier solves it ran:
    {name: (verdict, steps, fallbacks, solves)}."""
    newton_step = numeric_mod.newton_step
    out = {}

    def counted(a, a_flat, x, tau):
        steps[tau] += 1
        try:
            return newton_step(a, a_flat, x, tau)
        except np.linalg.LinAlgError:
            fallbacks[0] += 1
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric_mod, "newton_step", counted)
        solves = spy(mp, numeric_mod, "barrier_path")
        for name, g, J in structures:
            steps, fallbacks = Counter(), [0]
            solves.clear()
            out[name] = (decide(g, J), steps, fallbacks[0], len(solves))
    return out


# Newton steps of decide over the 36 structures: 257 when a precheck hit runs
# no solve and the projection of I decides every Feasible one, 561 with a
# solve after each hit, 1108 with a solve on each structure, 2285 with damped
# steps and tau x100
NEWTON_STEP_BUDGET = 270


def test_newton_step_budget(decided):
    assert sum(sum(steps.values()) for _, steps, _, _ in decided.values()) <= NEWTON_STEP_BUDGET
    for name, (_, steps, fallbacks, _) in decided.items():
        assert max(steps.values(), default=0) < numeric_mod.MAX_CENTERING_STEPS, name
        assert fallbacks == 0, name


def test_projection_lane_skips_the_solve(decided, structures):
    # a precheck hit runs no solve; a miss whose projection of I clears
    # PROJECTION_MARGIN is decided by exactify on that point alone, and here
    # that is every Feasible structure
    skipped = 0
    for name, g, J in structures:
        v, _, _, solves = decided[name]
        p = build_problem(g, J)
        if degeneracy_precheck(p) is not None:
            assert solves == 0, name
            continue
        projected = np.linalg.lstsq(p.grams.reshape(p.size, -1).T, np.eye(g.dim).ravel(), rcond=None)[0]
        margin = np.linalg.eigvalsh(np.einsum("i,ijk->jk", projected / np.linalg.norm(projected), p.grams))[0]
        if margin > feas_mod.PROJECTION_MARGIN:
            assert isinstance(v, Feasible) and solves == 0, name
            skipped += 1
        if isinstance(v, Feasible):
            assert ce_d(g, v.omega).is_zero(), name
            assert positive_definite(taming_gram(v.omega, J)), name
    assert skipped == sum(isinstance(v, Feasible) for v, _, _, _ in decided.values()) == 16


def test_exactify_floats_match_the_fraction_gram_path(structures, monkeypatch):
    # exactify and is_taming read lambda_min off the integer Gram as x / d, which
    # Python rounds exactly as float(Fraction(x, d)): bit for bit the floats of
    # the Fraction Gram, on every problem that decide hands to exactify
    calls = spy(monkeypatch, feas_mod, "exactify")
    for _, g, J in structures:
        decide(g, J)
    assert len(calls) == 16
    for (p, c), (omega, lam) in calls:
        c = np.asarray(c, dtype=float)
        gram = taming_gram(omega, p.J)
        ints, d = _gram_ints(omega, p.J)
        assert [[(x / d).hex() for x in row] for row in ints] == [[float(x).hex() for x in row] for row in gram]
        margin = float(np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in gram]))[0])
        q = [F(x).limit_denominator(DENOMINATOR_BOUND) for x in c / float(np.max(np.abs(c)))]
        assert lam.hex() == (margin / float(np.sqrt(sum(float(x) ** 2 for x in q)))).hex()
        assert is_taming(omega, p.J).margin.hex() == margin.hex()


def test_rank_one_verdicts_report_the_exact_maximum(decided):
    # the precheck's direction caps every lambda_min at 0, and c = 0 attains
    # it: best_primal is that exact maximum, not a solver's float
    rank_one = [v for v, _, _, _ in decided.values() if isinstance(v, Infeasible) and v.rank_one_direction is not None]
    assert len(rank_one) == 12
    for v in rank_one:
        assert type(v.best_primal) is float and v.best_primal == 0.0


def test_precheck_search_runs_once_per_problem(corpus, monkeypatch):
    # the rank-one search is memoized on the problem: whichever of the
    # precheck and maximize_lambda_min asks first, it runs once, and after a
    # hit maximize_lambda_min returns the exact maximizer with no solve
    runs = spy(monkeypatch, feas_mod, "_degeneracy_search")
    for name in ("h3_r", "aff_r2"):
        fx = corpus[name]
        for first, second in ((degeneracy_precheck, maximize_lambda_min), (maximize_lambda_min, degeneracy_precheck)):
            p = build_problem(fx.algebra, fx.J)
            first(p)
            second(p)
            direction = degeneracy_precheck(p)
            c, value = maximize_lambda_min(p, feas_mod.PROJECTION_MARGIN)
            assert [args for args, _ in runs] == [(p,)], (name, first.__name__)
            runs.clear()
            if direction is not None:
                assert value == 0.0 and not c.any() and c.shape == (p.size,), name
                assert "barrier_path" not in vars(p), name
    assert decide(corpus["h3_r"].algebra, corpus["h3_r"].J).rank_one_direction is not None
    assert len(runs) == 1


def test_projection_point_falls_back_to_the_solve(corpus, monkeypatch):
    # exactify fails once, on the projection point; the solve's point then
    # rounds, so no input loses the Feasible the solve gives it
    g, J = pool_draw(corpus, "aff_r2", 0)
    projected, margin = maximize_lambda_min(build_problem(g, J), feas_mod.PROJECTION_MARGIN)
    assert margin > feas_mod.PROJECTION_MARGIN
    tried = []

    def fails_once(p, c):
        tried.append(np.array(c))
        if len(tried) == 1:
            raise ExactificationFailed("forced")
        return exactify(p, c)

    monkeypatch.setattr(feas_mod, "exactify", fails_once)
    v = decide(g, J)
    assert isinstance(v, Feasible)
    assert len(tried) == 2 and np.array_equal(tried[0], projected)
    assert not np.array_equal(tried[1], projected)
    assert ce_d(g, v.omega).is_zero() and positive_definite(taming_gram(v.omega, J))


def certificate_digest(v) -> str:
    """sha256 prefix of the verdict's report without its float fields: the kind
    and the exact certificate."""
    exact = {k: x for k, x in verdict_to_dict(v).items() if not isinstance(x, float)}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16]


# certificate_digest of decide on each structure.  The solver may move its
# floats and never a precheck certificate; a dual-lane certificate (aff_r2~J*)
# moves when the dual iterate does on the 10^-6 grid, and a Feasible omega
# only when the point exactify rounds does (four did when the projection of I
# replaced the solve's point)
CERTIFICATE_DIGESTS = {
    "abelian_r2": "01e6989d3c848f9d",  # feasible
    "abelian_r4": "c619e2bbdcbfad36",  # feasible
    "abelian_r6": "a6b8d386840f0a39",  # feasible
    "abelian_r8": "5bdb5d1d4e66094b",  # feasible
    "aff_r": "01e6989d3c848f9d",  # feasible
    "aff_r2": "c619e2bbdcbfad36",  # feasible
    "h3_r": "2682bcaa5eebb423",  # infeasible
    "inoue_s0": "240901be8347c610",  # infeasible
    "iwasawa": "84b79e99ff99facc",  # infeasible
    "sol3_r_nonint": "ec8fe734d698542d",  # feasible
    "sol4_1": "2682bcaa5eebb423",  # infeasible
    "aff_r~P0": "0ceda8f9517f995c",  # feasible
    "aff_r~P1": "0ceda8f9517f995c",  # feasible
    "aff_r2~P0": "6a9a9adc77b6d496",  # feasible
    "aff_r2~P1": "0a1e4270fac504e4",  # feasible
    "h3_r~P0": "033578fe02205182",  # infeasible
    "h3_r~P1": "15ef562a9302fdca",  # infeasible
    "inoue_s0~P0": "9b4a81e1b2eeb997",  # infeasible
    "inoue_s0~P1": "b204dfa8c7618b98",  # infeasible
    "iwasawa~P0": "07cc5f9184faa241",  # infeasible
    "iwasawa~P1": "5a42647ccd6e0eeb",  # infeasible
    "sol3_r_nonint~P0": "0f8c85269e518087",  # feasible
    "sol3_r_nonint~P1": "4f613f5376eda9b5",  # feasible
    "sol4_1~P0": "5150e950e7d9a62b",  # infeasible
    "sol4_1~P1": "0bd77da8c97d81e6",  # infeasible
    "r10": "4af9a43cd78e6abb",  # feasible
    "r12": "8245c11996ac5bf7",  # feasible
    "aff_r2^3": "8245c11996ac5bf7",  # feasible
    "aff_r2~J0": "b87d5e3015bca986",  # infeasible
    "aff_r2~J1": "462d7276bfbae222",  # infeasible
    "aff_r2~J2": "e65f9f33ed849a93",  # infeasible
    "aff_r2~J3": "f5dd6e416443cf41",  # infeasible
    "aff_r2~J4": "c235d7aaef1e8b2d",  # infeasible
    "aff_r2~J5": "8b985fc2f4f435e6",  # infeasible
    "sol3_r_nonint~J0": "cc93445794e9a336",  # unknown
    "sol3_r_nonint~J1": "cc93445794e9a336",  # unknown
}

# the Feasible conjugated draws whose optimum is irrational: exactify rounds
# the projection of I there, not the optimum, so these pin that projection
IRRATIONAL_OPTIMUM_OMEGA = {
    "aff_r2~P0": [
        ((0, 1), "-283/6370"),
        ((0, 2), "-1"),
        ((0, 3), "-473/3185"),
        ((1, 2), "-6653/12740"),
        ((1, 3), "-1/2"),
        ((2, 3), "5897/6370"),
    ],
    "aff_r2~P1": [
        ((0, 1), "-10139/26128"),
        ((0, 2), "-10139/26128"),
        ((0, 3), "1"),
        ((1, 2), "-10139/26128"),
        ((1, 3), "41425/52256"),
        ((2, 3), "-29725/52256"),
    ],
    "sol3_r_nonint~P0": [
        ((0, 1), "1/17"),
        ((0, 2), "-1679/3281"),
        ((0, 3), "1"),
        ((1, 2), "2037/3281"),
        ((1, 3), "-2959/3281"),
        ((2, 3), "1038/3281"),
    ],
    "sol3_r_nonint~P1": [
        ((0, 1), "2420/2873"),
        ((0, 2), "796/2873"),
        ((0, 3), "548/2873"),
        ((1, 2), "1"),
        ((1, 3), "-991/2873"),
        ((2, 3), "-427/2873"),
    ],
}


def test_certificates_are_pinned(decided):
    assert {name: certificate_digest(v) for name, (v, _, _, _) in decided.items()} == CERTIFICATE_DIGESTS
    for name, omega in IRRATIONAL_OPTIMUM_OMEGA.items():
        v = decided[name][0]
        assert [(k, str(x)) for k, x in v.omega.coeffs] == omega, name
