"""Tamed symplectic reduction: perp, quotient step, towers."""

import random
import sys
from fractions import Fraction

import pytest

from tamecert import (
    DimensionMismatch,
    LieAlgebra,
    NoOneDimIdeal,
    NotAnIdeal,
    NotIsotropic,
    Subspace,
    TamedTriple,
    TamingLost,
    TripleVerificationError,
    TwoForm,
    reduce,
    reduction_tower,
    standard_complex_structure,
)
import tamecert.reduction as reduction_mod
from tamecert.reduction import find_isotropic_ideal, omega_perp
from tamecert.algebra import _one_dim_ideals
from tamecert.forms import _d2_ints, ce_d, closed_two_forms, two_form_pairs
from tamecert.linalg import _dot, unit_vec

from conftest import (
    TAMED_NAMES,
    build_items,
    conjugate,
    contains_vector,
    direct_sum,
    form_matrix,
    is_compatible,
    is_subalgebra,
    random_basis_change,
    reference_reduce,
    spy,
)

F = Fraction


def aff_r2_triple() -> TamedTriple:
    g = LieAlgebra.from_brackets(4, {(0, 1): {1: 1}, (2, 3): {3: 1}}, labels=["H1", "X1", "H2", "X2"])
    omega = TwoForm.from_dict(4, {(0, 1): 1, (2, 3): 1})
    return TamedTriple.build(g, omega, standard_complex_structure(4))


def aff_r_triple() -> TamedTriple:
    g = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}, labels=["H", "X"])
    return TamedTriple.build(g, TwoForm.from_dict(2, {(0, 1): 1}), standard_complex_structure(2))


def kaehler_triple(dim: int) -> TamedTriple:
    g = LieAlgebra.from_brackets(dim, {})
    omega = TwoForm.from_dict(dim, {(2 * k, 2 * k + 1): 1 for k in range(dim // 2)})
    return TamedTriple.build(g, omega, standard_complex_structure(dim))


def test_triple_verification_failures():
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})  # h3 + R
    J = standard_complex_structure(4)
    with pytest.raises(TripleVerificationError) as err:
        # e3^e4 is not closed on h3+R
        TamedTriple.build(g, TwoForm.from_dict(4, {(0, 1): 1, (2, 3): 1}), J)
    assert "closed" in err.value.failed_flags or "taming" in err.value.failed_flags
    with pytest.raises(TripleVerificationError) as err2:
        TamedTriple.build(LieAlgebra.from_brackets(2, {}), TwoForm.from_dict(2, {(0, 1): -1}), standard_complex_structure(2))
    assert err2.value.failed_flags == ("taming",)


def test_find_isotropic_ideal_prefers_derived_lines():
    # h3 + R: span(e3) lies inside [g,g]
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    t = TamedTriple.build_unverified(g, TwoForm.from_dict(4, {(0, 1): 1}), standard_complex_structure(4))
    assert find_isotropic_ideal(t) == Subspace.from_vectors(4, [(0, 0, 1, 0)])

    t2 = aff_r2_triple()
    assert find_isotropic_ideal(t2) == Subspace.from_vectors(4, [(0, 1, 0, 0)])  # span(X1)

    t3 = kaehler_triple(2)
    assert find_isotropic_ideal(t3) == Subspace.from_vectors(2, [(1, 0)])


def test_omega_perp_examples():
    t = aff_r2_triple()
    perp = omega_perp(t, Subspace.from_vectors(4, [(0, 1, 0, 0)]))
    assert perp == Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert is_subalgebra(t.algebra, perp)

    t2 = kaehler_triple(2)
    perp2 = omega_perp(t2, Subspace.from_vectors(2, [(1, 0)]))
    assert perp2 == Subspace.from_vectors(2, [(1, 0)])

    # h3+R with a closed nondegenerate form: e^13 + e^24
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    omega = TwoForm.from_dict(4, {(0, 2): 1, (1, 3): 1})
    t3 = TamedTriple.build_unverified(g, omega, standard_complex_structure(4))
    perp3 = omega_perp(t3, Subspace.from_vectors(4, [(0, 0, 1, 0)]))
    assert perp3.dim == 3 and contains_vector(perp3, (0, 0, 1, 0))
    assert is_subalgebra(g, perp3)
    assert omega_perp(t3, Subspace(4, ())) == Subspace.full(4)


def test_reduce_aff_r2():
    t = aff_r2_triple()
    step = reduce(t, find_isotropic_ideal(t))
    red = step.reduced
    assert red.algebra.dim == 2
    assert red.verified
    # the quotient is an aff(R) copy with omega = h2 ^ x2 and the standard J
    assert red.algebra.bracket(unit_vec(2, 0), unit_vec(2, 1)) == (F(0), F(1))
    assert red.omega.coeffs == (((0, 1), F(1)),)
    assert red.J.matrix == ((F(0), F(-1)), (F(1), F(0)))
    assert is_subalgebra(t.algebra, step.perp)


def test_reduce_aff_r_to_zero():
    t = aff_r_triple()
    step = reduce(t, find_isotropic_ideal(t))
    assert step.reduced.algebra.dim == 0


def test_reduce_kaehler_r4():
    t = kaehler_triple(4)
    step = reduce(t, Subspace.from_vectors(4, [(1, 0, 0, 0)]))
    assert step.reduced.algebra.dim == 2
    assert step.reduced.algebra.is_abelian()
    assert is_compatible(step.reduced.omega, step.reduced.J)  # still Kaehler


def test_reduce_with_nonzero_correction_term():
    # skewed taming form on abelian R^4: J no longer preserves h^perp, so the
    # induced J~ must use the corrected representative
    g = LieAlgebra.from_brackets(4, {})
    J = standard_complex_structure(4)
    omega = TwoForm.from_dict(4, {(0, 1): 2, (2, 3): 2, (0, 2): 1, (1, 3): 1})
    t = TamedTriple.build(g, omega, J)
    h = find_isotropic_ideal(t)
    perp = omega_perp(t, h)
    assert any(not contains_vector(perp, J.apply(b)) for b in perp.basis)
    step = reduce(t, h)
    assert step.reduced.verified
    assert step.reduced.J.matrix == ((F(0), F(1, 2)), (F(-2), F(0)))
    tower = reduction_tower(t)
    assert len(tower.steps) == 2 and tower.terminal_dim == 0


def conjugate_triple(t: TamedTriple, P) -> TamedTriple:
    """t in the basis given by the columns of P, with Omega pulled back to P^T Omega P."""
    n, m = t.algebra.dim, form_matrix(t.omega)
    g, J = conjugate(t.algebra, P, t.J)
    pulled = {
        (i, j): sum(P[a][i] * m[a][b] * P[b][j] for a in range(n) for b in range(n))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return TamedTriple.build(g, TwoForm.from_dict(n, pulled), J)


def oracle_triples(corpus) -> list[tuple[str, TamedTriple]]:
    """The tamed fixtures, the skewed-Omega R^4, two conjugates of aff_r2, aff_r2 + aff_r,
    and aff_r2 + aff_r2 in a dense basis, n = 8."""
    tamed = [(name, corpus[name]) for name in TAMED_NAMES]
    cases = [(name, TamedTriple.build(fx.algebra, fx.omega, fx.J)) for name, fx in tamed]
    skewed = TwoForm.from_dict(4, {(0, 1): 2, (2, 3): 2, (0, 2): 1, (1, 3): 1})
    cases.append(("skewed_r4", TamedTriple.build(LieAlgebra.from_brackets(4, {}), skewed, standard_complex_structure(4))))
    aff2 = corpus["aff_r2"]

    def aff_r2_plus(fx) -> TamedTriple:  # aff_r2 + fx, with the block-diagonal Omega and J
        g, J = direct_sum([(aff2.algebra, aff2.J), (fx.algebra, fx.J)])
        omega = dict(aff2.omega.coeffs)
        omega.update({(i + 4, j + 4): c for (i, j), c in fx.omega.coeffs})
        return TamedTriple.build(g, TwoForm.from_dict(g.dim, omega), J)

    rng = random.Random(11)
    t = TamedTriple.build(aff2.algebra, aff2.omega, aff2.J)
    cases += [(f"aff_r2~P{k}", conjugate_triple(t, random_basis_change(4, rng))) for k in range(2)]
    cases.append(("aff_r2+aff_r", aff_r2_plus(corpus["aff_r"])))
    cases.append(("(aff_r2+aff_r2)~P", conjugate_triple(aff_r2_plus(aff2), random_basis_change(8, rng))))
    return cases


def test_reduce_matches_subalgebra_quotient_reference(corpus):
    steps, primed = 0, 0
    for name, t in oracle_triples(corpus):
        current = t
        for step in reduction_tower(t).steps:
            algebra, omega, J = reference_reduce(current, step.h)
            red = step.reduced
            assert red.algebra == algebra, name  # brackets and labels
            assert red.algebra.basis_labels == algebra.basis_labels, name
            # a new label f<k> is primed past a kept unit vector's label: labels stay distinct down the tower
            assert len(set(red.algebra.basis_labels)) == red.algebra.dim, name
            primed += sum(label.endswith("'") for label in red.algebra.basis_labels)
            # the integer forms reduce builds, against those cleared from the reference's Fractions
            assert red.algebra._int_table == algebra._int_table, name
            assert red.omega == omega and red.omega._ints == omega._ints, name
            assert red.J == J and (red.J.ints, red.J.den) == (J.ints, J.den), name
            current = red
            steps += 1
        assert current.algebra.dim == 0, name
    assert steps == 13 + 2 + 2 * 2 + 3 + 4
    assert primed > 0


def test_reduce_tests_h_perp_by_one_dot_product(corpus, monkeypatch):
    # h^perp is the kernel of the one row W xi, so reduce tests v in h^perp as
    # W xi . v == 0; on every vector it tests down the oracle towers, and on the
    # one that falls outside when h^perp is not a subalgebra, that test agrees
    # with eliminating v against the rows of h^perp
    calls = spy(monkeypatch, reduction_mod, "_dot")

    def agreement(t, h):
        """reduce(t, h) or None if it lost taming, and for each vector it tested
        against h^perp, the dot test's and the elimination's answers."""
        calls.clear()
        try:
            step = reduce(t, h)
        except TamingLost:
            step = None
        w_xi, perp = t.omega._apply_ints(h.rows[0]), omega_perp(t, h)
        answers = [(_dot(w_xi, v) == 0, perp._contains_ints(v)) for (x, v), _ in calls if list(x) == w_xi]
        return step, answers

    checked = 0
    for name, t in oracle_triples(corpus):
        while t.algebra.dim:
            step, answers = agreement(t, find_isotropic_ideal(t))
            assert all(by_dot and by_rows for by_dot, by_rows in answers), name
            checked += len(answers)
            t = step.reduced
    assert checked >= 60, checked

    fx = corpus["sol4_1"]
    t = TamedTriple(fx.algebra, TwoForm.from_dict(4, {(0, 1): 1, (1, 3): -2, (2, 3): -2}), fx.J, True, True, True)
    step, answers = agreement(t, find_isotropic_ideal(t))
    assert step is None and answers[-1] == (False, False)
    assert all(by_dot == by_rows for by_dot, by_rows in answers)


def test_reduce_rejects_non_ideal():
    t = aff_r_triple()
    with pytest.raises(NotAnIdeal):
        reduce(t, Subspace.from_vectors(2, [(1, 0)]))  # span(H)


def test_reduce_refuses_a_line_of_another_dimension():
    # aff_r2 lives in Q^4; a line in Q^2 or Q^6 is refused before the ideal test reads its rows
    t = aff_r2_triple()
    for n in (2, 6):
        h = Subspace.from_vectors(n, [unit_vec(n, 1)])
        with pytest.raises(DimensionMismatch):
            reduce(t, h)


def test_reduce_rejects_non_isotropic_and_multidim():
    t = kaehler_triple(4)
    with pytest.raises(NotIsotropic):
        reduce(t, Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0)]))  # Omega(e1,e2)=1
    with pytest.raises(NotAnIdeal):
        # isotropic 2-dim ideal: only the 1-dimensional case is supported
        reduce(t, Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 0, 1, 0)]))


def test_no_rational_invariant_line():
    # ad_H acts on an abelian R^3 by a companion matrix with char poly t^3 - 2:
    # no rational eigenvalue, hence no rational invariant line anywhere
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: 2}})
    assert g.is_solvable()
    t = TamedTriple.build_unverified(
        g, TwoForm.from_dict(4, {(0, 1): 1}), standard_complex_structure(4)
    )
    with pytest.raises(NoOneDimIdeal):
        find_isotropic_ideal(t)


def test_isotropic_ideal_falls_back_to_the_first_line():
    # R e0 acting on span(e1, e2) by A = [[1, 2], [1, 1]], plus a central e3:
    # A's weights 1 +- sqrt(2) are irrational, so no rational ideal line lies in
    # [g, g] = span(e1, e2), and the first line, e3's, is returned
    g = LieAlgebra.from_brackets(4, {(0, 1): {1: 1, 2: 1}, (0, 2): {1: 2, 2: 1}})
    assert g.derived_subalgebra() == Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    t = TamedTriple.build_unverified(g, TwoForm.from_dict(4, {(0, 1): 1, (2, 3): 1}), standard_complex_structure(4))
    assert _one_dim_ideals(g, g.derived_subalgebra()) == [Subspace.from_vectors(4, [(0, 0, 0, 1)])]
    assert find_isotropic_ideal(t) == Subspace.from_vectors(4, [(0, 0, 0, 1)])


def test_reduce_requires_verified_triple():
    g = LieAlgebra.from_brackets(2, {})
    bad = TamedTriple.build_unverified(g, TwoForm.from_dict(2, {(0, 1): -1}), standard_complex_structure(2))
    with pytest.raises(TripleVerificationError):
        reduce(bad, Subspace.from_vectors(2, [(1, 0)]))


def test_reduce_loses_taming_when_perp_is_not_a_subalgebra(corpus):
    # sol4_1 with a taming but non-closed omega, its flags forced to True: h^perp
    # is not a subalgebra, so a bracket of two section vectors falls outside it
    fx = corpus["sol4_1"]
    omega = TwoForm.from_dict(4, {(0, 1): 1, (1, 3): -2, (2, 3): -2})
    t = TamedTriple(fx.algebra, omega, fx.J, True, True, True)
    h = find_isotropic_ideal(t)
    assert not is_subalgebra(t.algebra, omega_perp(t, h))
    with pytest.raises(TamingLost):
        reduce(t, h)


def test_towers():
    assert len(reduction_tower(aff_r2_triple()).steps) == 2
    assert reduction_tower(aff_r2_triple()).terminal_dim == 0
    assert len(reduction_tower(aff_r_triple()).steps) == 1
    for n in (1, 2, 3, 4):
        tower = reduction_tower(kaehler_triple(2 * n))
        assert len(tower.steps) == n
        assert tower.terminal_dim == 0
        # dims drop by exactly 2 and every step re-verifies
        dims = [2 * n] + [s.reduced.algebra.dim for s in tower.steps]
        assert all(a - b == 2 for a, b in zip(dims, dims[1:]))
        assert all(s.reduced.verified for s in tower.steps)


def test_tower_stops_where_no_line_is_found(monkeypatch):
    # a step that finds no rational invariant line ends the tower there: with the
    # second search refused, aff_r2's tower keeps its first step and ends at dim 2
    found = find_isotropic_ideal
    calls = []

    def once(t):
        calls.append(t.algebra.dim)
        if len(calls) > 1:
            raise NoOneDimIdeal("no rational invariant line")
        return found(t)

    monkeypatch.setattr(reduction_mod, "find_isotropic_ideal", once)
    tower = reduction_tower(aff_r2_triple())
    assert calls == [4, 2] and len(tower.steps) == 1 and tower.terminal_dim == 2


def test_tower_preserves_unimodularity(corpus):
    for name, fx in corpus.items():
        if fx.J is None or fx.omega is None:
            continue
        g = fx.algebra
        if not g.is_unimodular()[0]:
            continue
        triple = TamedTriple.build(g, fx.omega, fx.J)
        tower = reduction_tower(triple)
        for step in tower.steps:
            assert step.reduced.algebra.is_unimodular() == (True, None), name


def test_isotropic_ideal_is_abelian(corpus):
    # trivially true in dim 1; assert the bracket vanishes anyway
    for name, fx in corpus.items():
        if fx.J is None or fx.omega is None:
            continue
        triple = TamedTriple.build(fx.algebra, fx.omega, fx.J)
        h = find_isotropic_ideal(triple)
        x = h.basis[0]
        assert fx.algebra.bracket(x, x) == (F(0),) * fx.algebra.dim, name


def test_closed_flag_matches_ce_d(corpus):
    # build_unverified reads closedness off d2_matrix; ce_d is the
    # evaluation-based reference.  Each fixture's own omega, two closed
    # forms and three seeded random forms, most of them not closed.
    rng = random.Random(59)
    seen = []
    for name, fx in corpus.items():
        g, n = fx.algebra, fx.algebra.dim
        forms = ([fx.omega] if fx.omega is not None else []) + closed_two_forms(g)[:2]
        for _ in range(3):
            pairs = rng.sample(two_form_pairs(n), min(3, n * (n - 1) // 2))
            forms.append(TwoForm.from_dict(n, {pair: F(rng.randint(-3, 3), rng.randint(1, 3)) for pair in pairs}))
        for omega in forms:
            closed = TamedTriple.build_unverified(g, omega, fx.J).closed
            assert closed == ce_d(g, omega).is_zero(), name
            seen.append(closed)
    assert seen.count(False) >= 10 and seen.count(True) >= 10


def test_abelian_isotropic_ideal_matches_the_general_rule(monkeypatch):
    # on an empty bracket table find_isotropic_ideal returns e_1's line with no
    # weight search; the general rule is the first line of one_dim_ideals in
    # [g, g], else the first line
    def general_rule(g):
        derived = g.derived_subalgebra()
        lines = _one_dim_ideals(g, derived)
        return next((line for line in lines if derived.contains(line)), lines[0])

    expected = {n: general_rule(kaehler_triple(n).algebra) for n in range(2, 17, 2)}
    monkeypatch.setattr(reduction_mod, "_one_dim_ideals", lambda *a: pytest.fail("searched an abelian algebra"))
    for n, line in expected.items():
        h = find_isotropic_ideal(kaehler_triple(n))
        assert (h, h._pivots) == (line, line._pivots), n


def test_abelian_closed_flag_matches_d2(monkeypatch):
    # on an empty bracket table build_unverified sets closed without building
    # d on 2-forms; the reference is the _d2_ints dot product it skips.  A
    # dense omega and its negative, at most one of which tames J, are closed too
    def d2_closed(g, omega):
        _, rows, pairs, _ = _d2_ints(g)
        column = {pair: k for k, pair in enumerate(pairs)}
        return not any(sum(row[column[key]] * x for key, x in omega._ints[1]) for row in rows)

    rng = random.Random(61)
    dense = TwoForm.from_dict(6, {pair: F(rng.randint(1, 9), rng.randint(1, 4)) for pair in two_form_pairs(6)})
    triples = [(t.algebra, t.omega, t.J) for t in map(kaehler_triple, (2, 4, 6, 8))]
    triples += [(LieAlgebra.from_brackets(6, {}), form, standard_complex_structure(6)) for form in (dense, dense.scale(-1))]
    expected = [d2_closed(g, omega) for g, omega, _ in triples]
    assert dense.coeffs and all(expected)
    monkeypatch.setattr(reduction_mod, "_d2_ints", lambda g: pytest.fail("built d2 on an abelian algebra"))
    for (g, omega, J), closed in zip(triples, expected):
        t = TamedTriple.build_unverified(g, omega, J)
        assert t.closed == closed and t.integrable


def test_abelian_reduce_step_forms_no_bracket(monkeypatch):
    # every bracket of an abelian quotient is zero, so a step writes its empty
    # table with none of the C(m, 2) brackets of h^perp's kept rows (15 on R^8)
    t = kaehler_triple(8)
    expected = reduce(t, find_isotropic_ideal(t))
    monkeypatch.setattr(reduction_mod, "_bracket_ints", lambda *a: pytest.fail("formed a bracket on an abelian algebra"))
    step = reduce(t, find_isotropic_ideal(t))
    assert step == expected and step.reduced.algebra == LieAlgebra.from_brackets(6, {}, labels=["e3", "e4", "e5", "e6", "e7", "e8"])


STRUCTURE_DIGEST = "4e8724a18802acc1eccb85b617d96460ce39974bd50fcdccb0daedf9b3e22942"


def test_structure_digest_is_pinned(monkeypatch):
    """The second line of ``tests/output_digest.py``: the reduce JSON of every
    shipped tamed fixture and the weight spaces and closed basis of every
    fixture and workload item, hashed with no float in them, so every build
    computes the same bytes.
    The first line hashes reports that carry ``eigvalsh`` margins, which can
    differ in their last digits across numpy and BLAS builds, so it stays a
    check to run by hand.  A change that alters exact structure updates this
    constant and names the change in CHANGES.md."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # output_digest prepends src/ and perfbench/
    import output_digest

    # it reads the benchmark module conftest loaded, under the same name: one load per run
    assert output_digest.build_items is build_items and "perfbench.workloads" not in sys.modules
    assert output_digest.structure_digest() == STRUCTURE_DIGEST
