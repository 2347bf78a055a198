"""Lie algebra invariants against hand-expanded oracles and corpus fixtures."""

import ast
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from tamecert import (
    DimensionMismatch,
    JacobiViolation,
    LieAlgebra,
    Subspace,
    TamedTriple,
    TwoForm,
    is_completely_solvable,
    one_dim_ideals,
    reduction_tower,
    weight_spaces,
)
import tamecert.algebra as algebra_mod
from tamecert.algebra import _bracket_ints, _units, _weight_spaces, scale_structure_constants
from tamecert.forms import ThreeForm
from tamecert.linalg import _kernel, _primitive, all_roots_real, charpoly, clear_denominators, rational_roots, unit_vec

from conftest import (
    NON_ABELIAN,
    REPO_ROOT,
    TAMED_NAMES,
    _adjoint_ints,
    adjoint,
    aff_r,
    conjugate,
    h3_r,
    is_subalgebra,
    mat_trace,
    pull_back,
    random_basis_change,
    random_rational_vector,
    reference_series,
    reference_weight_spaces,
    spy,
)

F = Fraction


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(dim, {})


def sol4_1() -> LieAlgebra:
    # [H,X] = X, [H,Y] = -Y, [X,Y] = Z
    return LieAlgebra.from_brackets(
        4,
        {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {3: 1}},
        labels=["H", "X", "Y", "Z"],
    )


def inoue_s0() -> LieAlgebra:
    # ad_{e4} acts on span(e1,e2,e3) by [[1,-1,0],[1,1,0],[0,0,-2]]
    return LieAlgebra.from_brackets(
        4,
        {(0, 3): {0: -1, 1: -1}, (1, 3): {0: 1, 1: -1}, (2, 3): {2: 2}},
    )


def e2() -> LieAlgebra:
    # euclidean motions of the plane: ad_{e3} rotates span(e1,e2)
    return LieAlgebra.from_brackets(3, {(0, 2): {1: -1}, (1, 2): {0: 1}})


def killing_trap() -> LieAlgebra:
    # R x R^4 with ad_{e5} = blocks [[1,-1],[1,1]] and [[-1,-1],[1,-1]]: the
    # weights 1 +- i, -1 +- i square-sum to zero, so the Killing form vanishes
    return LieAlgebra.from_brackets(
        5,
        {(0, 4): {0: -1, 1: -1}, (1, 4): {0: 1, 1: -1}, (2, 4): {2: 1, 3: -1}, (3, 4): {2: 1, 3: 1}},
    )


def shifted_sum(dim: int, g: LieAlgebra) -> LieAlgebra:
    """R^(dim - g.dim) + g, with g on the last basis vectors."""
    off = dim - g.dim
    return LieAlgebra.from_brackets(dim, {(i + off, j + off): {k + off: c for k, c in comps} for (i, j), comps in g.structure_constants})


# --- validation ---


def test_validate_trivial_cases():
    assert abelian(4).is_abelian()
    g = h3_r()
    assert not g.is_abelian()
    assert g.dim == 4


def test_jacobi_violation_with_hand_oracle():
    # oracle (hand expansion): with [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e2:
    #   [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + [e2,e1] + [-e2,e2]
    #                                              = -e3
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})
    assert err.value.triple == (0, 1, 2)
    assert err.value.residual == (F(0), F(0), F(-1))
    # halved constants halve each bracket, so the double brackets and the
    # residual are quartered: the integer sums are divided by c^2, not c
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra.from_brackets(3, {(0, 1): {2: F(1, 2)}, (0, 2): {1: F(1, 2)}, (1, 2): {1: F(1, 2)}})
    assert err.value.triple == (0, 1, 2)
    assert err.value.residual == (F(0), F(0), F(-1, 4))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, {(0, 2): {1: 1}})  # j out of range
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, {(0, 1): {5: 1}})  # target component out of range
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, {}, labels=["only-one"])


@pytest.mark.parametrize(
    "labels, fragment",
    [
        (["e1", "e1"], "basis[1]: label 'e1' repeats basis[0]"),
        ([None, {}], "basis[0]: a label must be a string, got None"),
        ([1, 2], "basis[0]: a label must be a string, got 1"),
        (["a", {}], "basis[1]: a label must be a string, got {}"),
        (["a", "b", "a"], "basis[2]: label 'a' repeats basis[0]"),
    ],
    ids=["repeated", "none", "int", "dict", "repeated_later"],
)
def test_labels_are_distinct_strings(labels, fragment):
    # a label names a basis vector in reports (the unimodular witness, a
    # reduced algebra's kept vectors), as parse_fixture's basis rule says
    with pytest.raises(DimensionMismatch) as err:
        LieAlgebra.from_brackets(len(labels), {(0, 1): {1: 1}}, labels=labels)
    assert fragment in str(err.value)
    assert LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}, labels=["H", "X"]).basis_labels == ("H", "X")


@pytest.mark.parametrize(
    "build, error",
    [
        # an index is an int that is not a bool: no float is truncated and no
        # bool is read as 0 or 1, in a bracket key, a component or a form's key
        (lambda: LieAlgebra.from_brackets(3, {(0, 1): {2.9: 1}}), DimensionMismatch),
        (lambda: LieAlgebra.from_brackets(3, {(0, 1): {True: 1}}), DimensionMismatch),
        (lambda: LieAlgebra.from_brackets(3, {(0, 1.5): {2: 1}}), DimensionMismatch),
        (lambda: LieAlgebra.from_brackets(3, {(False, 1): {2: 1}}), DimensionMismatch),
        (lambda: TwoForm.from_dict(4, {(0, 1.5): 1}), ValueError),
        (lambda: TwoForm.from_dict(4, {(True, 2): 1}), ValueError),
        (lambda: ThreeForm.from_dict(4, {(0, 1, 2.5): 1}), ValueError),
        (lambda: ThreeForm.from_dict(4, {(True, 2, 3): 1}), ValueError),
        # a key of the wrong shape, or components that are not a mapping, is refused
        # by the same rule, not by a bare unpacking or attribute error
        (lambda: LieAlgebra.from_brackets(3, {(0, 1, 2): {2: 1}}), DimensionMismatch),
        (lambda: LieAlgebra.from_brackets(3, {0: {2: 1}}), DimensionMismatch),
        (lambda: LieAlgebra.from_brackets(3, {(0, 1): [2]}), DimensionMismatch),
        (lambda: TwoForm.from_dict(3, {(0, 1, 2): 1}), ValueError),
        (lambda: TwoForm.from_dict(3, {0: 1}), ValueError),
        (lambda: ThreeForm.from_dict(4, {(0, 1): 1}), ValueError),
    ],
)
def test_constructors_refuse_non_integer_indices(build, error):
    with pytest.raises(error, match="integer"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        # a form's key is checked before its value is read as zero, as
        # LieAlgebra.from_brackets checks every key: a zero coefficient does not
        # let an out-of-range, diagonal or unordered key through
        lambda c: TwoForm.from_dict(4, {(9, 12): c}),
        lambda c: TwoForm.from_dict(4, {(1, 1): c}),
        lambda c: ThreeForm.from_dict(4, {(3, 2, 9): c}),
        lambda c: TwoForm.from_dict(4, {(0, 1.5): c}),
        lambda c: ThreeForm.from_dict(4, {(True, 2, 3): c}),
    ],
    ids=["two_form_out_of_range", "two_form_diagonal", "three_form_unordered", "two_form_float", "three_form_bool"],
)
def test_form_constructors_refuse_a_bad_key_with_a_zero_value(build):
    messages = []
    for c in (0, Fraction(0), 1):
        with pytest.raises(ValueError) as err:
            build(c)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]


def test_completely_solvable_at_dim_10():
    # no dimension cutoff: aff(R) + R^8 is decided exactly
    g = LieAlgebra.from_brackets(10, {(0, 1): {1: 1}})
    verdict = is_completely_solvable(g)
    assert verdict.value and verdict.witness is None
    # R^6 + inoue_s0: the rotating e4 of the summand is basis index 9
    bad = is_completely_solvable(shifted_sum(10, inoue_s0()))
    assert not bad.value and bad.witness == 9


def test_bracket_antisymmetry_and_bilinearity():
    g = sol4_1()
    rng = random.Random(5)
    for _ in range(10):
        x = random_rational_vector(rng, 4)
        y = random_rational_vector(rng, 4)
        xy = g.bracket(x, y)
        yx = g.bracket(y, x)
        assert xy == tuple(-c for c in yx)
        assert g.bracket(x, x) == (F(0),) * 4


# --- adjoint ---


def test_adjoint_examples():
    assert adjoint(abelian(3), (1, 2, 3)) == [[F(0)] * 3 for _ in range(3)]
    ad_h = adjoint(aff_r(), (1, 0))
    assert ad_h == [[F(0), F(0)], [F(0), F(1)]]  # X maps to X
    ad_e1 = adjoint(h3_r(), (1, 0, 0, 0))
    expected = [[F(0)] * 4 for _ in range(4)]
    expected[2][1] = F(1)  # e2 -> e3
    assert ad_e1 == expected


def test_unimodularity():
    assert h3_r().is_unimodular() == (True, None)
    ok, witness = aff_r().is_unimodular()
    assert not ok and witness == 0  # trace ad_H = 1
    # derived: trace ad_H = 1 - 1 + 0 on sol4_1
    assert sol4_1().is_unimodular() == (True, None)


def test_unimodular_witness_matches_adjoint_traces(corpus, exact_items):
    # is_unimodular sums each c tr ad_{e_i} off the integer table in one pass;
    # the reference is the trace of each integer adjoint.  The algebras are those
    # of the test structures (exact_items and their conjugates) and every
    # reduced algebra of the tamed fixtures' towers
    algebras = [g for _, g in oracle_algebras(corpus, exact_items)]
    for name in TAMED_NAMES:
        fx = corpus[name]
        algebras += [step.reduced.algebra for step in reduction_tower(TamedTriple.build(fx.algebra, fx.omega, fx.J)).steps]
    assert len(algebras) == 63 + 13
    witnesses = 0
    for g in algebras:
        table = g._int_table[1]
        witness = next((i for i, e in enumerate(_units(g.dim)) if mat_trace(_adjoint_ints(table, e))), None)
        assert g.is_unimodular() == (witness is None, witness), g
        witnesses += witness is not None
    assert witnesses >= 10


# --- series and flags ---


def test_series_examples():
    g = h3_r()
    ds = g.derived_series()
    assert [s.dim for s in ds] == [4, 1, 0]
    assert ds[1] == Subspace.from_vectors(4, [(0, 0, 1, 0)])
    assert g.is_nilpotent()

    a = aff_r()
    assert [s.dim for s in a.derived_series()] == [2, 1, 0]
    assert a.derived_series()[1] == Subspace.from_vectors(2, [(0, 1)])
    assert a.is_solvable() and not a.is_nilpotent()

    assert [s.dim for s in abelian(2).derived_series()] == [2, 0]


def test_flag_implications_on_corpus(corpus):
    for name, fx in corpus.items():
        g = fx.algebra
        nilpotent = g.is_nilpotent()
        cs = bool(is_completely_solvable(g))
        solvable = g.is_solvable()
        if nilpotent:
            assert cs, name
        if cs:
            assert solvable, name


# --- weights ---


def test_weights_inoue_complex():
    # ad_{e4} has eigenvalues 1 +- i on span(e1, e2)
    bad = is_completely_solvable(inoue_s0())
    assert not bad.value and bad.witness == 3  # e4


def test_completely_solvable():
    assert is_completely_solvable(h3_r()).value
    verdict = is_completely_solvable(sol4_1())
    assert verdict.value and verdict.witness is None
    bad = is_completely_solvable(e2())
    assert not bad.value and bad.witness == 2  # ad_{e3} has eigenvalues +- i
    bad = is_completely_solvable(killing_trap())
    assert not bad.value and bad.witness == 4
    # sl2: [e,f] = h, [h,e] = 2e, [h,f] = -2f  (order e,f,h)
    sl2 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    assert not sl2.is_solvable()
    bad = is_completely_solvable(sl2)
    assert not bad.value and bad.witness is None


def test_irrational_real_weights():
    # ad_H = [[2,1],[1,1]] on span(X,Y) has real irrational eigenvalues
    # (3 +- sqrt(5))/2: completely solvable, but no rational invariant line
    g = LieAlgebra.from_brackets(3, {(0, 1): {1: 2, 2: 1}, (0, 2): {1: 1, 2: 1}})
    verdict = is_completely_solvable(g)
    assert verdict.value and verdict.witness is None  # decided exactly by Sturm
    assert one_dim_ideals(g) == []  # the invariant lines are irrational


def test_weight_spaces_basis_covariance(corpus):
    # x -> P x maps the conjugated algebra onto g, so each weight space must
    # follow P^-1; the order of the list depends on the basis, the set does not
    rng = random.Random(41)
    non_abelian = [name for name, fx in corpus.items() if not fx.algebra.is_abelian()]
    assert len(non_abelian) == 7
    for name in non_abelian:
        g = corpus[name].algebra
        P = random_basis_change(g.dim, rng)
        conj, _ = conjugate(g, P)
        assert set(weight_spaces(conj)) == {pull_back(s, P) for s in weight_spaces(g)}, name


def test_weight_spaces_large_structure_constants():
    # [e1,e2] = a e2, [e1,e3] = (a+1) e3, [e1,e4] = -(2a+1) e4: the charpoly of
    # ad e1 has constant term about 2 a^3 after stripping t, far too many
    # divisors to try at a = 10^6, so its roots come from the Sturm bisection
    def spaces(a):
        g = LieAlgebra.from_brackets(4, {(0, 1): {1: a}, (0, 2): {2: a + 1}, (0, 3): {3: -(2 * a + 1)}})
        start = time.process_time()
        ws = weight_spaces(g)
        return ws, one_dim_ideals(g), time.process_time() - start

    small, small_lines, _ = spaces(10)
    large, large_lines, seconds = spaces(10**6)
    assert large == small == [Subspace.from_vectors(4, [e]) for e in ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))]
    assert large_lines == small_lines
    assert seconds < 0.5


def oracle_algebras(corpus, exact_items) -> list[tuple[str, LieAlgebra]]:
    """Every exact item, every algebra of the six tamed fixtures' towers, three
    seeded conjugates of each non-abelian fixture, and the a = 10^6 algebra."""
    algebras = [(name, g) for name, g, _ in exact_items]
    for name in TAMED_NAMES:
        fx = corpus[name]
        tower = reduction_tower(TamedTriple.build(fx.algebra, fx.omega, fx.J))
        algebras += [(f"{name}/{k}", step.reduced.algebra) for k, step in enumerate(tower.steps, 1)]
    rng = random.Random(53)
    for name in NON_ABELIAN:
        g = corpus[name].algebra
        algebras += [(f"{name}~Q{k}", conjugate(g, random_basis_change(g.dim, rng))[0]) for k in range(3)]
    a = 10**6
    algebras.append(("a=10^6", LieAlgebra.from_brackets(4, {(0, 1): {1: a}, (0, 2): {2: a + 1}, (0, 3): {3: -(2 * a + 1)}})))
    return algebras


def test_weight_spaces_and_series_match_reference(corpus, exact_items):
    # weight_spaces works inside the centralizer of [g, g] and the series
    # bracket through the integer table; the references branch over every
    # basis adjoint and bracket by evaluation.  Lists and order must agree.
    # Each space is built from its branch's rows with no echelon pass, so
    # those rows must be canonical: re-echeloning them changes nothing
    algebras = oracle_algebras(corpus, exact_items)
    assert len(algebras) == 28 + 13 + 21 + 1
    # in this basis Z cap [g, g] is spanned by (0, 2, 2, 0), a combination of
    # [g, g]'s rows with content 2, which must be made primitive
    algebras.append(("sol4_1~R7", conjugate(corpus["sol4_1"].algebra, random_basis_change(4, random.Random(7)))[0]))
    with_weights = 0
    for name, g in algebras:
        spaces = weight_spaces(g)
        assert spaces == reference_weight_spaces(g), name
        derived = g.derived_subalgebra()
        for space in spaces + _weight_spaces(g, derived, derived):
            assert Subspace._span(g.dim, space.rows).rows == space.rows, name
        assert g.derived_series() == reference_series(g, lower=False), name
        assert g.lower_central_series() == reference_series(g, lower=True), name
        with_weights += len(spaces) > 1
    assert with_weights >= 10  # the order of several weight spaces is compared too


def fraction_weight(g: LieAlgebra, space: Subspace) -> list[Fraction]:
    """c lambda(e_1), ..., c lambda(e_n) of a weight space as Fractions,
    c [e_i, x] / x at a pivot of x: the reference for the integer key the
    weight search sorts its branches by."""
    _, table = g._int_table
    x, p = space.rows[0], space._pivots[0]
    return [Fraction(_bracket_ints(table, e, x)[p], x[p]) for e in _units(g.dim)]


def test_weight_spaces_sort_as_fraction_weights(corpus, exact_items):
    # the search sorts its branches by integer weight vectors; they must order
    # the spaces as the Fraction weight vectors do, inside [g, g] too.  The
    # last two algebras have the weights 1/2, 1/3 and -5/6 at e_1 on three
    # lines, the second in a dense basis where every pivot entry of [g, g] is 2
    thirds = LieAlgebra.from_brackets(4, {(0, 1): {1: F(1, 2)}, (0, 2): {2: F(1, 3)}, (0, 3): {3: F(-5, 6)}})
    dense = conjugate(thirds, random_basis_change(4, random.Random(99)))[0]
    assert [fraction_weight(thirds, s)[0] for s in weight_spaces(thirds)] == [-5, 2, 3]  # c = 6
    assert {row[p] for row, p in zip(dense.derived_subalgebra().rows, dense.derived_subalgebra()._pivots)} == {2}
    algebras = oracle_algebras(corpus, exact_items) + [("thirds", thirds), ("thirds~Q", dense)]
    ordered = 0
    for name, g in filter(lambda item: item[1].dim, algebras):
        derived = g.derived_subalgebra()
        for spaces in (weight_spaces(g), _weight_spaces(g, derived, derived)):
            weights = [fraction_weight(g, s) for s in spaces]
            assert weights == sorted(weights) and len(set(map(tuple, weights))) == len(weights), name
            ordered += len(spaces) > 2
    assert ordered >= 6


def reference_weight_loop(g: LieAlgebra, derived: Subspace, space: Subspace | None = None) -> list[Subspace]:
    """``algebra._weight_spaces`` before its shortcuts: Z cap space always by a
    kernel, over the stacked integer adjoints c ad_b when space is all of g
    (None), and every branch, lines included, by a kernel per rational
    eigenvalue; the oracle for the one-row weight and the abelian-D rule."""
    n = g.dim
    _, table = g._int_table
    units = _units(n)
    if space is not None:
        images = [[_bracket_ints(table, b, s) for s in space.rows] for b in derived.rows]
        kernel, free = _kernel([[v[k] for v in row] for row in images for k in range(n)], space.dim)
        z = [_primitive([sum(y * s[k] for y, s in zip(ys, space.rows)) for k in range(n)]) for ys in kernel]
        z_cols = [space._pivots[f] for f in free]
    else:
        stacked = [row for b in derived.rows for row in _adjoint_ints(table, b)]
        z, z_cols = _kernel(stacked, n) if stacked else (units, range(n))
    pivots = derived._pivots
    free = [i for i in range(n) if i not in pivots]
    branches = [((), z)] if z else []
    for i in free:
        roots = None
        nxt = []
        for mus, rows in branches:
            images = [_bracket_ints(table, units[i], w) for w in rows]
            if not any(map(any, images)):
                nxt.append((mus + (0,), rows))
                continue
            if roots is None:
                zimg = images if rows is z else [_bracket_ints(table, units[i], w) for w in z]
                s = lcm(*(w[f] for w, f in zip(z, z_cols)))
                scaled = [[v[f] * (s // w[f]) for v in zimg] for w, f in zip(z, z_cols)]
                roots = [r // s for r in rational_roots(charpoly(scaled))]
            for mu in roots:
                shifted = [[v[r] - mu * w[r] for v, w in zip(images, rows)] for r in range(n)]
                kernel, _ = _kernel(shifted, len(rows))
                if kernel:
                    combos = [[sum(y * w[k] for y, w in zip(ys, rows)) for k in range(n)] for ys in kernel]
                    nxt.append((mus + (mu,), [_primitive(v) for v in combos]))
        branches = nxt

    def weight(mus: tuple) -> list[int]:
        lam = dict(zip(free, mus))
        for row, p in zip(derived.rows, pivots):
            lam[p] = -sum(row[f] * lam[f] for f in free) // row[p]
        return [lam[i] for i in range(n)]

    branches.sort(key=lambda b: weight(b[0]))
    return [Subspace(n, tuple(map(tuple, rows))) for _, rows in branches]


def test_weight_shortcuts_match_the_kernel_loop(corpus, exact_items, monkeypatch):
    # a one-row branch reads its weight at a nonzero coordinate, and an abelian
    # [g, g] is its own Z cap [g, g]; both must give the spaces, pivots and
    # order of the loop that takes a kernel for each, in g and in [g, g], with fewer
    # kernels.  thirds has [e_0, e_i] = (1/2, 1/3, -5/6) e_i, and its conjugate
    # every pivot entry of [g, g] equal to 2
    thirds = LieAlgebra.from_brackets(4, {(0, 1): {1: F(1, 2)}, (0, 2): {2: F(1, 3)}, (0, 3): {3: F(-5, 6)}})
    algebras = oracle_algebras(corpus, exact_items) + [("thirds", thirds)]
    algebras.append(("thirds~Q", conjugate(thirds, random_basis_change(4, random.Random(99)))[0]))
    calls = {"reference": 0, "search": 0}
    counted_as = ["reference"]

    def counted(*args, _original=_kernel):
        calls[counted_as[0]] += 1
        return _original(*args)

    monkeypatch.setattr(algebra_mod, "_kernel", counted)
    monkeypatch.setitem(globals(), "_kernel", counted)  # the reference loop's
    lines = abelian_derived = 0
    for name, g in algebras:
        derived = g.derived_subalgebra()
        abelian_derived += bool(derived.dim) and not g.bracket_subspaces(derived, derived).dim
        for space in (None, derived):
            counted_as[0] = "reference"
            reference = reference_weight_loop(g, derived, space)
            counted_as[0] = "search"
            spaces = _weight_spaces(g, derived, space)
            assert spaces == reference, (name, space)
            assert [s._pivots for s in spaces] == [s._pivots for s in reference], (name, space)
            lines += sum(s.dim == 1 for s in spaces)
    assert lines >= 100 and abelian_derived >= 30, (lines, abelian_derived)
    assert calls["search"] < calls["reference"] - 100, calls  # 171 against 312


def ref_complete_solvability(g: LieAlgebra) -> tuple[bool, int | None]:
    """Solvable by the evaluation-based derived series, then the Sturm test on
    the characteristic polynomial of every full adjoint ad_{e_i}, cleared to
    the integer d ad_{e_i} (d > 0 keeps a spectrum real or not): the first
    index with a non-real eigenvalue, or None."""
    if reference_series(g, lower=False)[-1].dim:
        return False, None
    for i in range(g.dim):
        if not all_roots_real(charpoly(clear_denominators(adjoint(g, unit_vec(g.dim, i)))[0])):
            return False, i
    return True, None


def test_complete_solvability_matches_full_adjoint_reference(corpus, exact_items):
    # is_completely_solvable tests ad_{e_i} on [g, g] at D's free columns only,
    # and scans every index only once one fails; the reference takes every full
    # adjoint.  Beside the oracle algebras (the test structures' algebras, the
    # towers' and the conjugates), the three non-completely solvable examples
    # go in shifted into R^n, where the rotating vector is the last one, a free
    # column of D, and in dense conjugates, where D's pivots come first, so that
    # the first witness falls at a pivot column of D too
    algebras = oracle_algebras(corpus, exact_items)
    rng = random.Random(29)
    for name, h in (("inoue_s0", inoue_s0()), ("e2", e2()), ("killing_trap", killing_trap())):
        algebras += [(name, h), (f"R^3+{name}", shifted_sum(h.dim + 3, h))]
        algebras += [(f"{name}~P{k}", conjugate(h, random_basis_change(h.dim, rng))[0]) for k in range(2)]
        algebras.append((f"(R^2+{name})~P", conjugate(shifted_sum(h.dim + 2, h), random_basis_change(h.dim + 2, rng))[0]))
    # e2 with the basis e1 + e3, e3, e2: D = span(e1, e2) has pivots 0 and 2, and
    # both e1 + e3 (a pivot) and e3 (free) rotate D, so the witness is pivot 0
    P = [[F(1), F(0), F(0)], [F(0), F(0), F(1)], [F(1), F(1), F(0)]]
    algebras.append(("e2~pivot", conjugate(e2(), P)[0]))
    sl2 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    algebras += [("sl2", sl2), ("R^2+sl2", shifted_sum(5, sl2))]
    at_pivot = at_free = 0
    for name, g in algebras:
        verdict = is_completely_solvable(g)
        assert (verdict.value, verdict.witness) == ref_complete_solvability(g), name
        if verdict.witness is not None:
            pivots = g.derived_subalgebra()._pivots
            at_pivot += verdict.witness in pivots
            at_free += verdict.witness not in pivots
    assert at_pivot >= 10 and at_free >= 8
    assert is_completely_solvable(conjugate(e2(), P)[0]).witness == 0
    assert is_completely_solvable(shifted_sum(5, sl2)).witness is None


def test_charpolys_of_adjoint_restrictions_are_integer(corpus, exact_items, monkeypatch):
    # every adjoint restriction that complete solvability and the weight search
    # build (ad_{e_i} on [g, g], and on Z cap g or Z cap [g, g]) is an integer
    # matrix, and its characteristic polynomial is monic with int coefficients,
    # so its rational roots are ints
    calls = spy(monkeypatch, algebra_mod, "charpoly")
    algebras = [(name, fx.algebra) for name, fx in corpus.items()] + oracle_algebras(corpus, exact_items)
    for name, g in algebras:
        derived = g.derived_subalgebra()
        is_completely_solvable(g)
        _weight_spaces(g, derived)
        _weight_spaces(g, derived, derived)
    for (m,), p in calls:
        assert all(type(x) is int for row in m for x in row)
        assert p[-1] == 1 and all(type(c) is int for c in p), p
        assert all(type(r) is int for r in rational_roots(p))
    assert len(calls) >= 150, len(calls)  # 202


def test_one_dim_ideals_keep_the_fraction_basis_order(corpus, exact_items):
    # lines are sorted by pivot, then by a common integer multiple of their reduced
    # echelon basis vectors; the reference key is the Fraction basis itself
    ordered = 0
    for name, g in oracle_algebras(corpus, exact_items):
        lines = one_dim_ideals(g)
        assert lines == sorted(lines, key=lambda l: (l._pivots[0], l.basis[0])), name
        ordered += len({l._pivots[0] for l in lines}) < len(lines)  # two lines share a pivot
    assert ordered >= 10


def test_algebra_module_imports_no_numpy():
    # the structural layer is exact: no floating-point library may enter it
    source = REPO_ROOT / "src" / "tamecert" / "algebra.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


# --- one-dimensional ideals, subalgebras ---


def test_one_dim_ideals_examples():
    assert one_dim_ideals(aff_r()) == [Subspace.from_vectors(2, [(0, 1)])]
    lines = one_dim_ideals(h3_r())
    assert Subspace.from_vectors(4, [(0, 0, 1, 0)]) in lines
    assert Subspace.from_vectors(4, [(0, 0, 0, 1)]) in lines
    # every returned line is an ideal (solved [g, L] <= L linearly)
    g = h3_r()
    for line in lines:
        assert g.is_ideal(line)


def test_one_dim_ideals_abelian():
    lines = one_dim_ideals(abelian(2))
    assert lines[0] == Subspace.from_vectors(2, [(1, 0)])


def test_zero_dim_algebra_has_no_weight_space_and_no_line():
    # weight_spaces returns nonzero spaces only, so Q^0 has none, and no line
    g = LieAlgebra.from_brackets(0, {})
    assert weight_spaces(g) == [] and one_dim_ideals(g) == []


def test_subalgebra_closure():
    g = sol4_1()
    s = Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0)])  # span(X, Y): [X,Y]=Z escapes
    assert not is_subalgebra(g, s)
    ok = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0)])  # span(H, X)
    assert is_subalgebra(g, ok)


def test_scaling_preserves_structure():
    g = sol4_1()
    s = scale_structure_constants(g, F(3, 2))
    assert s.is_unimodular() == (True, None)
    assert bool(is_completely_solvable(s))


def test_integer_table_is_stored_at_construction():
    brackets = {(0, 1): {1: F(1, 2)}, (0, 2): {2: F(-2, 3)}, (1, 2): {0: 0}}
    g = LieAlgebra.from_brackets(3, brackets)
    table = g._int_table
    g.check_jacobi(), g.derived_subalgebra(), g.is_unimodular(), is_completely_solvable(g)
    assert g._int_table is table  # built once, at construction: the decisions read it and none rebuilds it
    # a fresh clearing of the structure constants
    c = lcm(*(x.denominator for _, comps in g.structure_constants for _, x in comps))
    fresh = {key: [(k, x.numerator * (c // x.denominator)) for k, x in comps] for key, comps in g.structure_constants}
    assert g._int_table == (6, fresh) == (6, {(0, 1): [(1, 3)], (0, 2): [(2, -4)]})
    # the table is derived: equality, hash and repr see only the declared fields
    h = LieAlgebra.from_brackets(3, dict(brackets))
    assert h == g and hash(h) == hash(g)
    assert repr(g) == repr(h) and "_int_table" not in repr(g)
    assert repr(g).endswith(f"structure_constants={g.structure_constants!r})")
    assert abelian(4)._int_table == (1, {})
