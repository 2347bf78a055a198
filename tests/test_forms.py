"""Chevalley-Eilenberg differential, Nijenhuis, taming Gram."""

import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import tamecert.forms as forms_mod

from tamecert import (
    ComplexStructure,
    DimensionMismatch,
    LieAlgebra,
    NotAComplexStructure,
    OneForm,
    TwoForm,
    ce_d,
    is_integrable,
    standard_complex_structure,
)
from tamecert.feasibility import build_problem, degeneracy_precheck
from tamecert.forms import (
    _complex_basis,
    _gram_ints,
    _nijenhuis_ints,
    closed_two_forms,
    d2_matrix,
    is_taming,
    taming_gram,
    two_form_pairs,
)
from tamecert.linalg import ONE, ZERO, det, leading_minors_positive, mat_inverse, mat_mul, nullspace, unit_vec
from tamecert.reduction import TamedTriple

from conftest import (
    NON_ABELIAN,
    aff_r,
    aff_r2_rescaled,
    dense_conjugate,
    direct_sum,
    form_coeff,
    form_matrix,
    h3_r,
    is_compatible,
    pool_draw,
    random_basis_change,
    random_rational_vector,
    rank,
    ref_leading_minors_positive,
    reference_nullspace,
    reference_taming_gram,
    reference_two_form,
    spy,
)

F = Fraction


def sol3_r():
    return LieAlgebra.from_brackets(4, {(0, 1): {1: 1}, (0, 2): {2: -1}})


# --- differential ---


def test_from_dict_sums_each_pair_as_the_fraction_accumulation():
    # from_dict adds Fractions only for a pair given twice: reversed pairs are
    # negated, a pair given both ways round sums, to zero here, and zero
    # coefficients are dropped; the reference accumulates from ZERO every time
    rng = random.Random(3)
    entries = {(0, 1): F(1, 2), (1, 0): F(1, 2), (3, 2): F(-2, 3), (1, 3): 0, (2, 4): F(0, 5), (4, 0): "3/4", (2, 1): 5}
    rest = [(i, j) for i, j in two_form_pairs(5) if (i, j) not in entries and (j, i) not in entries]
    entries |= {key: F(rng.randint(-4, 4), rng.randint(1, 6)) for key in rest}
    ref: dict = {}
    for (i, j), c in entries.items():
        c = F(c)
        if i > j:
            i, j, c = j, i, -c
        ref[(i, j)] = ref.get((i, j), ZERO) + c
    form = TwoForm.from_dict(5, entries)
    assert form.coeffs == tuple(sorted((k, v) for k, v in ref.items() if v != 0))
    assert form_coeff(form, 0, 1) == 0 and (0, 1) not in dict(form.coeffs)  # 1/2 and -1/2 cancel
    assert form_coeff(form, 2, 3) == F(2, 3) and form_coeff(form, 1, 2) == -5 and form_coeff(form, 0, 4) == F(-3, 4)
    assert all(type(v) is F and v != 0 for _, v in form.coeffs)
    assert form == TwoForm.from_dict(5, dict(reversed(list(entries.items()))))


def _outcome(build):
    """What build() returns, or the type and message of what it raises."""
    try:
        form = build()
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return form, form.coeffs, form._ints


def test_from_dict_matches_the_reference_on_seeded_dicts():
    # reversed pairs, pairs given both ways round (which cancel half the time),
    # zeros, string and Fraction values, and every key that from_dict refuses:
    # the same form, or the same exception type and message.  A refused key
    # carries a nonzero value here; with a zero value the reference returned
    # the zero form, the refusal that test_algebra's zero-value table pins
    rng = random.Random(46)
    refused = [7, "01", (0,), (0, 1, 2), (0, 1.0), (True, 1), (1, 1), (-1, 2), (0, 9), (9, 0)]
    seen = {"form": 0, "error": 0, "cancelled": 0}
    for _ in range(400):
        dim = rng.randint(2, 6)
        entries: dict = {}
        for _ in range(rng.randint(0, 8)):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice([0, F(0), rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4)), "-3/4"])
            entries[(i, j)] = c
            if rng.random() < 0.3:  # the reversed pair: it cancels when given the same value
                entries[(j, i)] = c if rng.random() < 0.5 else F(rng.randint(1, 5), 2)
        if rng.random() < 0.3:
            key = rng.choice(refused)
            items = list(entries.items())
            items.insert(rng.randint(0, len(items)), (key, rng.choice([1, F(-2, 3), "5"])))
            entries = dict(items)
        if rng.random() < 0.05:
            entries[(0, 1)] = 0.5  # a float value: frac refuses it
        expected = _outcome(lambda: reference_two_form(dim, entries))
        assert _outcome(lambda: TwoForm.from_dict(dim, entries)) == expected, entries
        if isinstance(expected[0], TwoForm):
            seen["form"] += 1
            merged = {(min(k), max(k)) for k in entries if (k[1], k[0]) in entries}
            seen["cancelled"] += any(key not in dict(expected[1]) for key in merged)
        else:
            seen["error"] += 1
    assert min(seen.values()) >= 20, seen


def test_d_one_form_h3():
    g = h3_r()
    e3 = OneForm.from_coeffs((0, 0, 1, 0))
    d = ce_d(g, e3)
    assert d.coeffs == (((0, 1), F(-1)),)  # d e^3 = -e^1 ^ e^2


def test_d_vanishes_on_abelian():
    g = LieAlgebra.from_brackets(4, {})
    assert not ce_d(g, OneForm.from_coeffs((1, 2, 3, 4))).coeffs
    assert ce_d(g, TwoForm.from_dict(4, {(0, 1): 5, (2, 3): -2})).is_zero()


def test_d_two_form_aff():
    # derived oracle: dx = -h^x, and d(h^x) is a 3-form on a 2-dim space
    g = aff_r()
    dx = ce_d(g, OneForm.from_coeffs((0, 1)))
    assert dx.coeffs == (((0, 1), F(-1)),)
    assert ce_d(g, TwoForm.from_dict(2, {(0, 1): 1})).is_zero()


def test_d_squared_zero_on_corpus(corpus):
    for name, fx in corpus.items():
        g = fx.algebra
        for i in range(g.dim):
            dd = ce_d(g, ce_d(g, OneForm.from_coeffs(unit_vec(g.dim, i))))
            assert dd.is_zero(), name
        rng = random.Random(99)
        for _ in range(5):
            alpha = OneForm.from_coeffs(random_rational_vector(rng, g.dim))
            assert ce_d(g, ce_d(g, alpha)).is_zero(), name


def test_closed_two_forms_examples():
    assert len(closed_two_forms(LieAlgebra.from_brackets(4, {}))) == 6
    basis = closed_two_forms(h3_r())
    assert [f.coeffs for f in basis] == [
        (((0, 1), F(1)),),
        (((0, 2), F(1)),),
        (((0, 3), F(1)),),
        (((1, 2), F(1)),),
        (((1, 3), F(1)),),
    ]
    aff_basis = closed_two_forms(aff_r())
    assert len(aff_basis) == 1 and aff_basis[0].coeffs == (((0, 1), F(1)),)


def test_closed_forms_rank_nullity(corpus):
    for name, fx in corpus.items():
        g = fx.algebra
        basis = closed_two_forms(g)
        for b in basis:
            assert ce_d(g, b).is_zero(), name
        matrix, pairs, _ = d2_matrix(g)
        r = rank(matrix) if matrix else 0
        assert len(basis) + r == len(pairs), name


# --- complex structures and Nijenhuis ---


def test_not_a_complex_structure():
    with pytest.raises(NotAComplexStructure):
        ComplexStructure.from_matrix([[1, 0], [0, 1]])
    with pytest.raises(NotAComplexStructure):
        ComplexStructure.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotAComplexStructure):
        standard_complex_structure(3)


def test_standard_complex_structure_refuses_negative_dimensions():
    # range(-2) is empty, so a negative dim once gave a 0-dimensional J
    for dim in (-1, -2, -3):
        with pytest.raises(DimensionMismatch):
            standard_complex_structure(dim)
    assert standard_complex_structure(0).dim == 0


def test_complex_structure_is_stored_uniquely(exact_items):
    # the same J written with ints, reduced Fractions or unreduced "p/q" strings
    # is one stored (ints, den): equal, with one hash, and the same derived matrix
    for name, _, J in exact_items:
        written = [
            [[x.numerator if x.denominator == 1 else x for x in row] for row in J.matrix],
            [[f"{3 * x.numerator}/{3 * x.denominator}" for x in row] for row in J.matrix],
            [[F(-x.numerator, -x.denominator) for x in row] for row in J.matrix],
        ]
        for rows in written:
            K = ComplexStructure.from_matrix(rows)
            assert K == J and hash(K) == hash(J), name
            assert K.matrix == J.matrix and K.ints == J.ints and K.den == J.den, name
        assert all(isinstance(x, int) for row in J.ints for x in row), name
        assert J.den == math.lcm(*(x.denominator for row in J.matrix for x in row)), name
        v = tuple(F(k - 2, k + 1) for k in range(J.dim))
        assert J.apply(v) == tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in J.matrix), name


def test_apply_ints_is_den_j_times_u(corpus):
    # J'u = den J u from J's nonzero entries, for the corpus J and both
    # conjugated pool draws of each (sparse and dense J), on unit vectors and
    # on seeded random integer vectors
    rng = random.Random(0)
    structures = [(name, fx.J) for name, fx in corpus.items() if fx.J is not None]
    structures += [(f"{name}~P{k}", pool_draw(corpus, name, k)[1]) for name in NON_ABELIAN for k in range(2)]
    assert any(all(sum(map(bool, row)) == 1 for row in J.ints) for _, J in structures)  # a sparse J
    assert any(all(all(row) for row in J.ints) for _, J in structures)  # a dense J
    for name, J in structures:
        vectors = [[int(i == k) for i in range(J.dim)] for k in range(J.dim)]
        vectors += [[rng.randint(-50, 50) for _ in range(J.dim)] for _ in range(5)]
        for u in vectors:
            assert J._apply_ints(u) == [sum(x * J.den * y for x, y in zip(row, u)) for row in J.matrix], name
        # _nonzero is derived: it takes no part in ==, hash or repr
        K = ComplexStructure(J.dim, J.ints, J.den)
        object.__setattr__(K, "_nonzero", ())
        assert K == J and hash(K) == hash(J) and repr(K) == repr(J), name
        assert "_nonzero" not in repr(J), name
        assert pickle.loads(pickle.dumps(J))._nonzero == J._nonzero, name


def test_two_form_apply_ints_evaluates_omega(corpus, exact_items):
    # w Omega(x, y) = x . W y for Omega = W / w: the fixtures' forms and the closed
    # forms of every exact item, dense conjugates included, on unit and seeded integer vectors
    rng = random.Random(11)
    forms = [(name, fx.omega) for name, fx in corpus.items() if fx.omega is not None]
    forms += [(name, omega) for name, g, _ in exact_items for omega in closed_two_forms(g)]
    assert len({name for name, _ in forms if "~P" in name}) == 2 * len(NON_ABELIAN)  # the dense conjugates
    for name, omega in forms:
        n, w = omega.dim, omega._ints[0]
        vectors = [[int(i == k) for i in range(n)] for k in range(n)]
        vectors += [[rng.randint(-30, 30) for _ in range(n)] for _ in range(3)]
        for x in vectors:
            for y in vectors:
                assert F(sum(a * b for a, b in zip(x, omega._apply_ints(y))), w) == omega(x, y), name


def test_taming_refuses_a_j_of_another_dimension():
    omega = TwoForm.from_dict(4, {(0, 1): 1, (2, 3): 1})
    for form, n in ((omega, 6), (omega, 2), (TwoForm(0, ()), 4)):
        J = standard_complex_structure(n)
        for check in (is_taming, taming_gram, _gram_ints):
            with pytest.raises(NotAComplexStructure):
                check(form, J)
    assert is_taming(TwoForm(0, ()), standard_complex_structure(0))


def test_nijenhuis_h3_integrable():
    g = h3_r()
    J = standard_complex_structure(4)
    n = kernel_nijenhuis(g, J)
    assert all(all(x == 0 for x in v) for v in n.values())
    assert is_integrable(g, J)


def test_nijenhuis_abelian_any_j():
    g = LieAlgebra.from_brackets(4, {})
    J = ComplexStructure.from_matrix(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, "1/2", 0]]
    )
    assert is_integrable(g, J)


def test_nijenhuis_sol3_not_integrable():
    # derived oracle by direct expansion: N(H, X) = -2X
    g = sol3_r()
    J = ComplexStructure.from_matrix(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )  # JH = U, JX = Y
    n = kernel_nijenhuis(g, J)
    assert n[(0, 1)] == (F(0), F(-2), F(0), F(0))
    assert not is_integrable(g, J)


def test_integrability_identity_restatement(corpus):
    # N == 0 iff [JX,JY] = [X,Y] + J[JX,Y] + J[X,JY] on all basis pairs
    for name, fx in corpus.items():
        if fx.J is None:
            continue
        g, J = fx.algebra, fx.J
        identity_holds = True
        for i, j in two_form_pairs(g.dim):
            ei, ej = unit_vec(g.dim, i), unit_vec(g.dim, j)
            lhs = g.bracket(J.apply(ei), J.apply(ej))
            rhs = list(g.bracket(ei, ej))
            for k, c in enumerate(J.apply(g.bracket(J.apply(ei), ej))):
                rhs[k] += c
            for k, c in enumerate(J.apply(g.bracket(ei, J.apply(ej)))):
                rhs[k] += c
            if list(lhs) != rhs:
                identity_holds = False
        assert identity_holds == is_integrable(g, J), name


# --- taming ---


def test_taming_gram_r2():
    omega = TwoForm.from_dict(2, {(0, 1): 1})
    J = standard_complex_structure(2)
    assert taming_gram(omega, J) == [[F(1), F(0)], [F(0), F(1)]]
    assert is_taming(omega, J)
    bad = TwoForm.from_dict(2, {(0, 1): -1})
    res = is_taming(bad, J)
    assert not res and res.margin == pytest.approx(-1.0)


def test_is_taming_margin_beyond_the_float_range(corpus):
    # aff_r2 with J conjugated by diag(1, 10^310, 1, 10^310) and the fixture's omega: the
    # Gram is diag(10^310, 10^-310, 10^310, 10^-310), exactly PD, with entries beyond the
    # range of a double, so its margin is read off the integer Gram shifted by 2^k
    _, J = aff_r2_rescaled(310)
    taming = is_taming(corpus["aff_r2"].omega, J)
    assert taming and math.isfinite(taming.margin)
    # the shift is exact: Gram diag(2^1030, 2^1030, 2^1000, 2^1000) reads lambda_min 2^1000,
    # and a lambda_min beyond the range of a double reads +-inf
    J = standard_complex_structure(4)
    cases = ((2**1030, 2**1000, 2.0**1000), (2**1030, -(2**1000), -(2.0**1000)), (2**1030, 2**1030, math.inf))
    for top, low, margin in cases:
        taming = is_taming(TwoForm.from_dict(4, {(0, 1): top, (2, 3): low}), J)
        assert (bool(taming), taming.margin) == (margin > 0, margin)
    assert is_taming(TwoForm.from_dict(4, {(0, 1): -(2**1030), (2, 3): 1}), J).margin == -math.inf


def test_taming_gram_aff():
    # derived oracle: G(H,H) = Omega(H,X) = 1, G(X,X) = 1, G(H,X) = 0
    omega = TwoForm.from_dict(2, {(0, 1): 1})
    J = standard_complex_structure(2)  # JH = X, JX = -H
    gram = taming_gram(omega, J)
    assert gram == [[F(1), F(0)], [F(0), F(1)]]
    assert is_compatible(omega, J)  # Kaehler at the algebra level


def test_gram_diagonal_matches_omega(corpus):
    rng = random.Random(17)
    for name, fx in corpus.items():
        if fx.J is None or fx.omega is None:
            continue
        gram = taming_gram(fx.omega, fx.J)
        for _ in range(20):
            x = random_rational_vector(rng, fx.algebra.dim)
            gxx = sum(
                x[i] * gram[i][j] * x[j]
                for i in range(len(x))
                for j in range(len(x))
            )
            assert gxx == fx.omega(x, fx.J.apply(x)), name


def test_taming_implies_nondegenerate(corpus):
    for name, fx in corpus.items():
        if fx.J is None or fx.omega is None:
            continue
        if is_taming(fx.omega, fx.J):
            assert det(form_matrix(fx.omega)) != 0, name


# --- oracles: the evaluation-based versions that d, Nijenhuis and the Gram form replaced ---


def ref_d2_matrix(g):
    pairs = two_form_pairs(g.dim)
    triples = list(combinations(range(g.dim), 3))
    cols = []
    for i, j in pairs:
        image = dict(ce_d(g, TwoForm.from_dict(g.dim, {(i, j): ONE})).coeffs)
        cols.append([image.get(t, ZERO) for t in triples])
    matrix = [[cols[c][r] for c in range(len(pairs))] for r in range(len(triples))]
    return matrix, pairs, triples


def kernel_nijenhuis(g, J):
    """N on every pair i < j from the integer kernel, in Fractions."""
    return {pair: tuple(F(x, s) for x in v) for pair, v, s in _nijenhuis_ints(g, J, two_form_pairs(g.dim))}


def ref_nijenhuis(g, J):
    out = {}
    for i, j in two_form_pairs(g.dim):
        ei, ej = unit_vec(g.dim, i), unit_vec(g.dim, j)
        ji, jj = J.apply(ei), J.apply(ej)
        n = list(g.bracket(ji, jj))
        for k, c in enumerate(g.bracket(ei, ej)):
            n[k] -= c
        for k, c in enumerate(J.apply(g.bracket(ji, ej))):
            n[k] -= c
        for k, c in enumerate(J.apply(g.bracket(ei, jj))):
            n[k] -= c
        out[(i, j)] = tuple(n)
    return out


def random_two_form(rng, dim):
    """Mixed signs, denominators up to 10^6, about half the coefficients zero."""
    return TwoForm.from_dict(
        dim,
        {p: F(rng.randint(-999, 999), rng.randint(1, 10**6)) for p in two_form_pairs(dim) if rng.random() < 0.5},
    )


def test_d2_matrix_matches_ce_d_oracle(exact_items):
    for name, g, _ in exact_items:
        assert d2_matrix(g) == ref_d2_matrix(g), name


def test_nijenhuis_matches_oracle(exact_items):
    rng = random.Random(5)
    for name, g, J in exact_items:
        assert kernel_nijenhuis(g, J) == ref_nijenhuis(g, J), name
        if g.dim <= 6:
            # a different, generally non-integrable J = P J P^-1
            P = random_basis_change(g.dim, rng)
            K = ComplexStructure.from_matrix(mat_mul(mat_mul(P, [list(r) for r in J.matrix]), mat_inverse(P)))
            n = kernel_nijenhuis(g, K)
            assert n == ref_nijenhuis(g, K), name
            assert is_integrable(g, K) == all(all(x == 0 for x in v) for v in n.values())


def cleared(omega):
    """A fresh clearing of omega's coefficients: (w, ((pair, w c), ...)), w the lcm of the denominators."""
    w = math.lcm(*(c.denominator for _, c in omega.coeffs))
    return w, tuple((k, c.numerator * (w // c.denominator)) for k, c in omega.coeffs)


def test_taming_gram_matches_oracle(corpus, exact_items):
    # every form stores its cleared coefficients (TwoForm._ints), and _gram_ints,
    # of which taming_gram is the exact view, reads them, writing d G = M + M^T
    # from the nonzero entries of J' alone; J is dense on the conjugated items,
    # and of mixed density on aff_r2 + a dense conjugate of it, whose J has one
    # nonzero per row on the first block and four on the second
    rng = random.Random(8)
    aff = corpus["aff_r2"]
    mixed = direct_sum([(aff.algebra, aff.J), dense_conjugate(aff.algebra, aff.J)])
    assert sorted({sum(map(bool, row)) for row in mixed[1].ints}) == [1, 4]
    dense = 0
    for name, g, J in exact_items + [("aff_r2+aff_r2~P", *mixed)]:
        dense += any(sum(map(bool, row)) > 1 for row in J.ints)
        forms = closed_two_forms(g) + [random_two_form(rng, g.dim) for _ in range(3)]
        for k, omega in enumerate(forms):
            assert omega._ints == cleared(omega), name
            ref = reference_taming_gram(omega, J)
            gram = taming_gram(omega, J)
            assert gram == ref, name
            ints, d = _gram_ints(omega, J)
            assert d == 2 * omega._ints[0] * J.den
            assert [[F(x, d) for x in row] for row in ints] == ref, name
            assert leading_minors_positive(ints) == ref_leading_minors_positive(gram), name
            if k >= len(forms) - 3:  # the random forms, denominators up to 10^6
                # derived, so outside ==, hash and repr; pickled with the form, rebuilt by scale
                twin = TwoForm(omega.dim, omega.coeffs)
                object.__setattr__(twin, "_ints", None)
                assert twin == omega and hash(twin) == hash(omega) and repr(twin) == repr(omega), name
                assert "_ints" not in repr(omega)
                assert pickle.loads(pickle.dumps(omega))._ints == omega._ints, name
                assert omega.scale(-1)._ints == (omega._ints[0], tuple((key, -x) for key, x in omega._ints[1])), name
    assert dense >= 15
    assert TwoForm.from_dict(6, {})._ints == (1, ())


def test_gram_and_kernel_zeros_are_ints_on_workload_items(bench_items):
    # taming_gram and nullspace write each exact zero as the int 0 and each
    # nonzero entry as a Fraction, and equal the all-Fraction references, on
    # every corpus, conjugated and scaling item at seeds 1-3
    types = {"kernel": Counter(), "gram": Counter()}  # (is zero, type) of every entry
    for (workload, seed), built in bench_items.items():
        for item in built:
            label = (workload, seed, item.name)
            matrix, pairs, _ = d2_matrix(item.algebra)
            kernel = nullspace(matrix, ncols=len(pairs))
            assert kernel == reference_nullspace(matrix, len(pairs)), label
            types["kernel"].update((not x, type(x)) for v in kernel for x in v)
            for omega in closed_two_forms(item.algebra):
                gram = taming_gram(omega, item.J)
                assert gram == reference_taming_gram(omega, item.J), label
                types["gram"].update((not x, type(x)) for row in gram for x in row)
    for view, counts in types.items():
        assert set(counts) == {(True, int), (False, Fraction)}, (view, counts)


def test_build_problem_converts_and_compares_nonzero_entries_only(corpus, monkeypatch):
    # on abelian_r8 the float Gram stack converts, and the closed basis's
    # v != 0 filter compares, a Fraction per nonzero entry only: with a
    # Fraction per zero they made 1,792 and 784 calls
    g, J = corpus["abelian_r8"].algebra, corpus["abelian_r8"].J
    matrix, pairs, _ = d2_matrix(g)
    kernel = nullspace(matrix, ncols=len(pairs))
    floats, comparisons = (spy(monkeypatch, Fraction, name) for name in ("__float__", "__eq__"))
    p = build_problem(g, J)
    monkeypatch.undo()
    nonzero = sum(bool(x) for m in p.gram_basis for row in m for x in row)
    assert len(floats) == nonzero == 104
    assert len(comparisons) == sum(bool(x) for v in kernel for x in v) == 28


def test_integer_closedness_matches_ce_d(exact_items):
    # TamedTriple decides d omega = 0 in ints; ce_d evaluates it in Fractions
    rng = random.Random(24)
    open_forms = 0
    for name, g, J in exact_items:
        forms = closed_two_forms(g) + [random_two_form(rng, g.dim) for _ in range(3)]
        for omega in forms:
            closed = ce_d(g, omega).is_zero()
            assert TamedTriple.build_unverified(g, omega, J).closed == closed, name
            open_forms += not closed
    assert open_forms > 0


def test_d2_matrix_does_not_evaluate_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("d2_matrix must not call ce_d")

    monkeypatch.setattr(forms_mod, "ce_d", refuse)
    g = LieAlgebra.from_brackets(12, {})
    matrix, pairs, triples = d2_matrix(g)
    assert len(matrix) == len(triples) == 220 and len(pairs) == 66
    assert all(x == 0 for row in matrix for x in row)


# --- integrability on a complex basis ---


def all_pairs_integrable(g, J) -> bool:
    """N = 0 on every pair i < j, by the evaluation oracle, which the integer kernel matches."""
    n = ref_nijenhuis(g, J)
    assert kernel_nijenhuis(g, J) == n
    return not any(any(v) for v in n.values())


def test_is_integrable_equals_the_all_pairs_test(exact_items):
    rng = random.Random(25)
    checked = non_integrable = 0
    for name, g, J in exact_items:
        assert is_integrable(g, J) == all_pairs_integrable(g, J), name
        if g.dim <= 8:
            # J = P J0 P^-1 for a random P: mostly not integrable
            for _ in range(2):
                P = random_basis_change(g.dim, rng)
                K = ComplexStructure.from_matrix(mat_mul(mat_mul(P, [list(r) for r in J.matrix]), mat_inverse(P)))
                integrable = is_integrable(g, K)
                assert integrable == all_pairs_integrable(g, K), name
                checked += 1
                non_integrable += not integrable
    assert checked > 0 and non_integrable > checked // 2
    # n = 2: no pair to test, and every J is integrable
    for J in (standard_complex_structure(2), ComplexStructure.from_matrix([[1, -2], [1, -1]])):
        assert is_integrable(aff_r(), J) and all_pairs_integrable(aff_r(), J)
    # abelian: N = 0 for every J
    abelian = LieAlgebra.from_brackets(6, {})
    P = random_basis_change(6, rng)
    J0 = [list(r) for r in standard_complex_structure(6).matrix]
    J = ComplexStructure.from_matrix(mat_mul(mat_mul(P, J0), mat_inverse(P)))
    assert is_integrable(abelian, J) and all_pairs_integrable(abelian, J)


def test_is_integrable_refuses_a_j_of_another_dimension():
    for g in (h3_r(), LieAlgebra.from_brackets(4, {})):
        with pytest.raises(NotAComplexStructure):
            is_integrable(g, standard_complex_structure(2))


def test_is_integrable_tests_the_pairs_of_a_complex_basis(corpus, monkeypatch):
    # iwasawa, n = 6: C(3, 2) = 3 pairs of e_0, e_2, e_4 instead of all C(6, 2) = 15
    yielded = []
    inner = forms_mod._nijenhuis_ints

    def counted(*args):
        for item in inner(*args):
            yielded.append(item[0])
            yield item

    monkeypatch.setattr(forms_mod, "_nijenhuis_ints", counted)
    fx = corpus["iwasawa"]
    assert is_integrable(fx.algebra, fx.J)
    assert yielded == [(0, 2), (0, 4), (2, 4)]
    yielded.clear()
    assert len(list(forms_mod._nijenhuis_ints(fx.algebra, fx.J, two_form_pairs(6)))) == 15 and len(yielded) == 15


def test_complex_basis_is_greedy_in_index_order(exact_items):
    rng = random.Random(26)
    for name, g, J in exact_items:
        P = random_basis_change(g.dim, rng)
        for K in (J, ComplexStructure.from_matrix(mat_mul(mat_mul(P, [list(r) for r in J.matrix]), mat_inverse(P)))):
            chosen = _complex_basis(K)
            # {e_b, J e_b} is a basis, and each e_b skipped lies in the span of those before it
            assert 2 * len(chosen) == g.dim, name
            vectors = [v for b in chosen for v in (unit_vec(g.dim, b), K.apply(unit_vec(g.dim, b)))]
            assert rank(vectors) == g.dim, name
            for b in set(range(g.dim)) - set(chosen):
                before = [v for c in chosen if c < b for v in (unit_vec(g.dim, c), K.apply(unit_vec(g.dim, c)))]
                assert rank(before + [unit_vec(g.dim, b)]) == rank(before), name
    assert _complex_basis(standard_complex_structure(6)) == [0, 2, 4]
    # h3 + R in an integer basis: J e_0 = (-1, 1, 0, -1) leaves e_1 outside span{e_0, J e_0}
    dense = ComplexStructure.from_matrix([[-1, 1, 1, 3], [1, -1, 1, -2], [0, -1, 0, -1], [-1, 1, 0, 2]])
    assert _complex_basis(dense) == [0, 1]
    # J e_0 = e_2, J e_1 = e_3
    crossed = ComplexStructure.from_matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert _complex_basis(crossed) == [0, 1]
    # J e_0 = e_0 + e_1 puts e_1 in span{e_0, J e_0}
    skewed = ComplexStructure.from_matrix([[1, -2, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert _complex_basis(skewed) == [0, 2]


# --- coefficient growth on dense inputs ---

# the largest int, in bits, that any tamecert frame holds in a local or returns,
# on the dense aff_r2^3 conjugate: 78 in is_integrable and 152 in the precheck,
# and 116 in closed_two_forms on the dense aff_r2^2 conjugate (138 when
# nullspace echeloned its kernel a second time; 10,597 in is_integrable when
# _complex_basis eliminated with no gcd step)
MAX_HELD_BITS = 1024


def held_bits(value, depth: int = 3) -> int:
    """The largest bit length of an int in value: an int, or a list or tuple
    of ints, of rows of ints, or of such rows' containers."""
    if isinstance(value, int):
        return value.bit_length()
    if depth and isinstance(value, (list, tuple)):
        return max((held_bits(x, depth - 1) for x in value), default=0)
    return 0


def largest_held_ints(fn, *args) -> dict[str, int]:
    """Run fn(*args); per tamecert code object, the largest bit length of an
    int in its locals or its return value, read at each return event."""
    held: dict[str, int] = {}

    def on_return(frame, event, arg):
        if event == "return":
            code = frame.f_code
            key = f"{frame.f_globals['__name__']}.{code.co_name}:{code.co_firstlineno}"
            bits = max([held_bits(v) for v in frame.f_locals.values()] + [held_bits(arg)])
            held[key] = max(held.get(key, 0), bits)
        return on_return

    def on_call(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("tamecert"):
            frame.f_trace_lines = False
            return on_return
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return held


def test_dense_conjugates_hold_no_coefficient_growth(corpus):
    # aff_r2^k in a dense integer basis, P entries in [-2, 2]: a fraction-free
    # elimination that skips its gcd step holds thousands of bits here
    fx = corpus["aff_r2"]

    def dense(k):
        return dense_conjugate(*direct_sum([(fx.algebra, fx.J)] * k))

    g, J = dense(3)
    problem = build_problem(g, J)
    runs = {
        "is_integrable": largest_held_ints(is_integrable, g, J),
        "degeneracy_precheck": largest_held_ints(degeneracy_precheck, problem),
        "closed_two_forms": largest_held_ints(closed_two_forms, dense(2)[0]),
    }
    # each run reached the kernel it guards
    assert any("._complex_basis:" in key for key in runs["is_integrable"])
    assert any("._degeneracy_search:" in key for key in runs["degeneracy_precheck"])
    assert any("._echelon:" in key for key in runs["closed_two_forms"])
    for name, held in runs.items():
        key, bits = max(held.items(), key=lambda item: item[1])
        assert bits <= MAX_HELD_BITS, (name, key, bits)
