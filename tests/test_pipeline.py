"""Reports, proof trace, corpus runs, fixture parsing, CLI."""

import argparse
import copy
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import tamecert.algebra
import tamecert.feasibility
import tamecert.forms
import tamecert.linalg
import tamecert.pipeline as pipeline_mod
import tamecert.reduction
from tamecert import (
    ComplexStructure,
    Feasible,
    FixtureError,
    Infeasible,
    LieAlgebra,
    RelationViolation,
    TamedTriple,
    TamingLost,
    TripleVerificationError,
    TwoForm,
    Unknown,
    analyze,
    corpus_run,
    decide,
    dumps_report,
    load_fixture,
    parse_fixture,
    proof_trace,
    reduction_tower,
    standard_complex_structure,
)
from tamecert.cli import build_parser, main as cli_main
from tamecert.errors import TamecertError
from tamecert.fixtures import MAX_FIXTURE_DIM
from tamecert.forms import is_taming
from tamecert.linalg import mat_inverse, mat_mul, unit_vec
from tamecert.pipeline import EXIT_INCONSISTENT, EXIT_INPUT_ERROR, EXIT_OK, EXIT_UNKNOWN

from conftest import CORPUS_NAMES, FIXTURES_DIR, SQRT2_ALMOST_ABELIAN, TAMED_NAMES, conjugate, spy

F = Fraction


# --- fixture parsing ---


def test_parse_rationals_and_labels(corpus):
    fx = corpus["inoue_s0"]
    assert fx.algebra.bracket(unit_vec(4, 2), unit_vec(4, 3)) == (F(0), F(0), F(2), F(0))
    assert fx.algebra.basis_labels == ("e1", "e2", "e3", "e4")


def test_parse_fraction_strings(tmp_path):
    doc = {
        "name": "halves",
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "v": {"1": "1/2"}}],
    }
    fx = parse_fixture(doc)
    assert fx.algebra.bracket(unit_vec(2, 0), unit_vec(2, 1)) == (F(0), F(1, 2))


@pytest.mark.parametrize("text, value", [("-3/4", F(-3, 4)), ("+2", F(2)), ("2/4", F(1, 2)), ("-0", F(0))])
def test_parse_rational_grammar(text, value):
    # a sign, digits, and an optional "/" with a nonzero denominator
    fx = parse_fixture({"name": "t", "dim": 2, "brackets": [{"i": 0, "j": 1, "v": {"1": text}}]})
    assert fx.algebra.bracket(unit_vec(2, 0), unit_vec(2, 1)) == (F(0), value)


def _component_key(key):
    """Make the document dim 12, with one bracket whose one component key is key."""
    return lambda d: d.update(dim=12, basis=None, brackets=[{"i": 0, "j": 1, "v": {key: "1"}}])


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("dim"), "missing required field"),
        (lambda d: d.update(dim=-1), "nonnegative"),
        (lambda d: d.update(dim=0), "'dim' is 0"),
        (lambda d: d.update(basis=["one"]), "labels"),
        (lambda d: d["brackets"].append({"i": 1, "j": 0, "v": {}}), "i < j"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"9": 1}}), "outside dimension"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": 0.5}}), "integer or 'p/q'"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": True}}), "v[1]: expected an exact rational"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": "1/0"}}), "v[1]: bad rational '1/0': zero denominator"),
        # only [+-]?digits(/digits)? is a rational string: nothing is expanded or trimmed
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": "1e3"}}), "v[1]: bad rational '1e3'"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": "0.5"}}), "v[1]: bad rational '0.5'"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": "1_000"}}), "v[1]: bad rational '1_000'"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": " 1/2"}}), "v[1]: bad rational ' 1/2'"),
        (lambda d: d.update(J=[[0, "-1"], ["1.0", 0]]), "J[1][0]: bad rational '1.0'"),
        (lambda d: d.update(omega=[{"i": 0, "j": 1, "v": False}]), "omega[0].v: expected an exact rational"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1}), "needs fields i, j, v"),
        (lambda d: d.update(name=5), "'name' must be a string"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": [1]}), "'v' must map component index to rational"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"x": 1}}), "component key 'x' is not an integer"),
        (lambda d: d.update(J=[[1, 0], [0, 1]]), "complex structure"),
        (lambda d: d.update(J=[[0, -1]]), "2x2"),
        (lambda d: d.update(omega=[{"i": 1, "j": 1, "v": 1}]), "i < j"),
        # JSON booleans are Python ints; they are not dimensions or indices
        (lambda d: d.update(dim=True), "'dim' must be a nonnegative integer"),
        (lambda d: d["brackets"].append({"i": False, "j": True, "v": {}}), "'i' must be an integer"),
        (lambda d: d.update(omega=[{"i": 0, "j": True, "v": 1}]), "'j' must be an integer"),
        # a container that is not a list
        (lambda d: d.update(brackets=5), "'brackets' must be a list"),
        (lambda d: d.update(brackets=None), "'brackets' must be a list"),
        (lambda d: d.update(brackets=True), "'brackets' must be a list"),
        (lambda d: d.update(omega=5), "'omega' must be a list"),
        (lambda d: d.update(omega=True), "'omega' must be a list"),
        # a repeated entry is refused, not overwritten by the last one
        (
            lambda d: d["brackets"].extend([{"i": 0, "j": 1, "v": {"1": 1}}, {"i": 0, "j": 1, "v": {"0": 1}}]),
            "brackets[1]: pair (0, 1) is listed twice",
        ),
        (
            lambda d: d.update(omega=[{"i": 0, "j": 1, "v": 1}, {"i": 0, "j": 1, "v": 2}]),
            "omega[1]: pair (0, 1) is listed twice",
        ),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "v": {"1": 1, "01": 2}}), "key '01' repeats component 1"),
        # a component key is ASCII digits, as a rational is: no "_", padding, sign or other script's digit
        (_component_key("1_0"), "brackets[0]: component key '1_0' is not an integer"),
        (_component_key(" 3 "), "brackets[0]: component key ' 3 ' is not an integer"),
        (_component_key("\u0664"), "brackets[0]: component key '\u0664' is not an integer"),
        (_component_key("+2"), "brackets[0]: component key '+2' is not an integer"),
        # a basis label names a basis vector in reports: a string, used once
        (lambda d: d.update(basis=[1, 2]), "basis[0]: a label must be a string, got 1"),
        (lambda d: d.update(basis=[None, {}]), "basis[0]: a label must be a string, got None"),
        (lambda d: d.update(basis=["a", {}]), "basis[1]: a label must be a string, got {}"),
        (lambda d: d.update(basis=["e1", "e1"]), "basis[1]: label 'e1' repeats basis[0]"),
    ],
)
def test_parse_diagnostics(mutate, fragment):
    doc = {"name": "t", "dim": 2, "basis": ["a", "b"], "brackets": []}
    mutate(doc)
    with pytest.raises(FixtureError) as err:
        parse_fixture(doc)
    assert fragment in str(err.value)


def test_parse_null_omega_is_absent():
    fx = parse_fixture({"name": "t", "dim": 2, "brackets": [], "omega": None})
    assert fx.omega is None


@pytest.mark.parametrize("dim", [MAX_FIXTURE_DIM + 1, 10**6])
def test_parse_rejects_dim_above_cap(dim, monkeypatch):
    # refused before any structure is built: the Jacobi check is O(dim^4)
    def build(*args, **kwargs):
        raise AssertionError("algebra built for an oversized fixture")

    monkeypatch.setattr(LieAlgebra, "from_brackets", build)
    with pytest.raises(FixtureError) as err:
        parse_fixture({"name": "big", "dim": dim, "brackets": []})
    assert f"cap of {MAX_FIXTURE_DIM}" in str(err.value)


def test_parse_accepts_dim_at_cap():
    fx = parse_fixture({"name": "r16", "dim": MAX_FIXTURE_DIM, "brackets": []})
    assert fx.algebra.dim == MAX_FIXTURE_DIM and fx.algebra.is_abelian()


HOSTILE_FILES = {
    "not_utf8": b'\xff\xfe{"name": "x", "dim": 2}',
    # past Python's 4,300-digit limit on int parsing; a Python without the
    # limit reads a dim above the cap instead
    "long_int": b'{"name": "x", "dim": 1' + b"0" * 4999 + b"}",
    "deep": b"[" * 200_000,
    # an exponent string that Fraction() alone would expand to 10^8 digits
    "exponent": b'{"name": "x", "dim": 2, "brackets": [{"i": 0, "j": 1, "v": {"1": "1e100000000"}}]}',
    # a key repeated inside one JSON object, which json.loads alone reads last-wins
    "repeated_component": b'{"name": "x", "dim": 3, "brackets": [{"i": 0, "j": 1, "v": {"2": 1, "2": 5}}]}',
    "repeated_dim": b'{"name": "x", "dim": 2, "dim": 4}',
    "repeated_omega_v": b'{"name": "x", "dim": 2, "J": [[0, -1], [1, 0]], "omega": [{"i": 0, "j": 1, "v": 1, "v": -1}]}',
}


@pytest.mark.parametrize("kind", sorted(HOSTILE_FILES))
def test_load_fixture_diagnostics(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(HOSTILE_FILES[kind])
    with pytest.raises(FixtureError) as err:
        load_fixture(path)
    assert str(path) in str(err.value)
    if kind.startswith("repeated_"):
        assert "is repeated in one JSON object" in str(err.value)


NINES = "9" * 3_000_000 + "x"


@pytest.mark.parametrize(
    "text, where",
    [
        # a refused value or key is quoted as a short excerpt, not echoed whole
        (json.dumps({"name": "x", "dim": 2, "brackets": [{"i": 0, "j": 1, "v": {"1": NINES}}]}), "brackets[0].v[1]"),
        (json.dumps({"name": "x", "dim": 2, "brackets": [{"i": 0, "j": 1, "v": {NINES: "1"}}]}), "brackets[0]: component key"),
        (json.dumps({"name": "x", "dim": 2, "brackets": [{"i": NINES, "j": 1, "v": {}}]}), "brackets[0]: 'i' must be"),
        (f'{{"name": "x", "dim": 2, "{NINES}": 1, "{NINES}": 2}}', "is repeated in one JSON object"),
    ],
    ids=["value", "component_key", "index", "repeated_key"],
)
def test_cli_refusal_quotes_a_bounded_excerpt(tmp_path, capsys, text, where):
    path = tmp_path / "nines.json"
    path.write_text(text)
    assert cli_main(["validate", str(path)]) == EXIT_INPUT_ERROR
    out = capsys.readouterr().out
    assert out.startswith("INVALID:") and where in out, out[:300]
    assert len(out.encode()) < 300, out[:300]


def test_jacobi_failure_reported_as_fixture_error():
    doc = {
        "name": "bad",
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "v": {"2": 1}},
            {"i": 0, "j": 2, "v": {"1": 1}},
            {"i": 1, "j": 2, "v": {"1": 1}},
        ],
    }
    with pytest.raises(FixtureError) as err:
        parse_fixture(doc)
    assert "Jacobi" in str(err.value)


# --- analyze ---


def test_analyze_h3(corpus):
    report = analyze(corpus["h3_r"])
    assert report.flags["nilpotent"] and report.flags["unimodular"]
    assert report.theorem_consistency.applicable
    assert isinstance(report.feasibility, Infeasible)
    assert report.theorem_consistency.consistent
    assert report.exit_code == EXIT_OK


def test_analyze_abelian(corpus):
    report = analyze(corpus["abelian_r4"])
    assert report.flags["abelian"]
    assert report.theorem_consistency.applicable
    assert isinstance(report.feasibility, Feasible)
    assert report.theorem_consistency.consistent


def test_analyze_abelian_without_feasible_is_inconsistent(corpus, monkeypatch):
    # an abelian algebra is Kaehler for every J, so the sweep must flag any
    # other verdict there, just as it flags Feasible on a non-abelian one
    monkeypatch.setattr(pipeline_mod, "_decide", lambda g, J, derived: Unknown(best_lambda_min=0.0))
    report = analyze(corpus["abelian_r4"])
    assert report.theorem_consistency.applicable
    assert report.theorem_consistency.consistent is False
    assert "abelian" in report.theorem_consistency.detail
    assert report.exit_code == EXIT_INCONSISTENT


def test_analyze_aff_not_applicable(corpus):
    report = analyze(corpus["aff_r"])
    assert not report.theorem_consistency.applicable
    assert report.flags["unimodular_witness"] == "H"
    assert isinstance(report.feasibility, Feasible)
    assert report.theorem_consistency.consistent
    assert "not unimodular" in report.theorem_consistency.detail


def test_analyze_reduction_summary(corpus, monkeypatch):
    report = analyze(corpus["aff_r2"])
    assert report.reduction == {
        "verified": True,
        "steps": 2,
        "terminal_dim": 0,
        "unimodular_preserved": None,  # input is not unimodular
    }
    # aff_r2's omega plus X1 ^ H2, the pair (1, 2), still tames J but is not closed
    doc = json.loads((FIXTURES_DIR / "aff_r2.json").read_text())
    doc["omega"].append({"i": 1, "j": 2, "v": 1})
    assert analyze(parse_fixture(doc)).reduction == {"verified": False, "failed_flags": ["closed"]}
    # a tower that raises after the triple verified is reported, not propagated

    def lost(triple, derived):
        raise TamingLost("reduction lost a verified property: taming")

    monkeypatch.setattr(pipeline_mod, "_tower", lost)
    assert analyze(corpus["aff_r2"]).reduction == {
        "verified": True,
        "error": "reduction lost a verified property: taming",
    }


# calls over one analyze of each corpus fixture.  charpoly, 21: 17 for
# complete solvability, which reads ad_{e_i} on [g, g] at its free columns
# only and decides an abelian g at once, and 4 for the rational weights of
# the precheck's and the reduction steps' weight-space searches, where a
# one-row branch reads its weight off one bracket.
MAX_CHARPOLY_CALLS = 21
# _echelon, 101: one per span and one per exact kernel; _kernel returns the
# echelon form of its kernel, so nothing echelons a kernel's output again
# (nullspace, the precheck's radical, the weight spaces and Z cap [g, g]),
# and the complex basis and Subspace.intersect need the forward pass only;
# an abelian tower step derives no [g, g].
MAX_ECHELON_CALLS = 101
# clear_denominators, none: charpoly takes the integer matrices that complete
# solvability and the weight search build, and the root finders read its
# monic integer polynomial as it is; reduce builds the reduced J from its
# integer form, and the integer Gram stack is built only in dual_certificate,
# which no corpus fixture reaches.
# _cleared, 25: one per nonzero row of d on 2-forms in nullspace and one per
# rank-one dual; leading_minors_positive takes integer rows, and membership
# tests read integer vectors, so neither clears.
MAX_CLEARED_CALLS = 25
# _kernel, 38: 11 for the closed bases (nullspace), 11 for the weight
# searches, 3 for precheck radicals and 13 for the tower steps' h^perp.  A
# one-row weight branch, Z cap [g, g] of an abelian [g, g] and the radical
# on a line take none.
MAX_KERNEL_CALLS = 38
# [g, g], 12: one per fixture, derived by analyze and handed to both series,
# the precheck and the tower's first search, and one for the one non-abelian
# tower quotient (aff_r2's first reduced algebra); an abelian step derives none
MAX_DERIVED_SUBALGEBRA_CALLS = 12
# LieAlgebra._series, 22: the derived series, for complete solvability, and the
# lower central series, for nilpotency, of each fixture, both started at that [g, g]
MAX_SERIES_CALLS = 2 * len(CORPUS_NAMES)
# one Nijenhuis test per algebra: analyze's own on each fixture with J, which
# the input's tamed triple reuses, and one per reduced triple: 11 + 13
MAX_IS_INTEGRABLE_CALLS = 24
# _d2_ints, 14: one per fixture's closed basis, and one per tamed triple with
# brackets (aff_r's, aff_r2's and its first reduced one): 11 + 3; an abelian
# triple is closed without d on 2-forms
MAX_D2_INTS_CALLS = 14
# _weight_spaces, 14: one per fixture's precheck, and one per tower step on an
# algebra with brackets (aff_r's one, aff_r2's two): 11 + 3; an abelian step
# takes e_1's line with no search
MAX_WEIGHT_SPACES_CALLS = 14


def test_analyze_exact_work_is_bounded_and_uncached(fixtures_dir, monkeypatch):
    homes = [(tamecert.linalg, name) for name in ("charpoly", "_echelon", "_kernel", "clear_denominators", "_cleared")]
    homes += [(tamecert.forms, "is_integrable"), (tamecert.forms, "_d2_ints"), (tamecert.algebra, "_weight_spaces")]
    modules = (tamecert.linalg, tamecert.algebra, tamecert.forms, tamecert.feasibility, tamecert.reduction, pipeline_mod)
    spies = {}  # name: a spy on each module that holds the function
    for home, name in homes:
        original = getattr(home, name)
        spies[name] = [spy(monkeypatch, module, name) for module in modules if getattr(module, name, None) is original]
    for name in ("derived_subalgebra", "_series"):
        spies[name] = [spy(monkeypatch, LieAlgebra, name)]

    def counts() -> dict:
        return {name: sum(map(len, calls)) for name, calls in spies.items()}

    def run(fx) -> dict:
        before = counts()
        analyze(fx)
        return {name: n - before[name] for name, n in counts().items()}

    first_total = dict.fromkeys(spies, 0)
    for name in CORPUS_NAMES:
        fx = load_fixture(fixtures_dir / f"{name}.json")
        inputs = [x for x in (fx.algebra, fx.J, fx.omega) if x is not None]
        state = [copy.deepcopy(vars(x)) for x in inputs]
        first, second = run(fx), run(fx)
        # a second call on the same objects does the same work: nothing is memoized on them
        assert first == second, name
        assert [vars(x) for x in inputs] == state, name
        for key in first_total:
            first_total[key] += first[key]
    assert 0 < first_total["charpoly"] <= MAX_CHARPOLY_CALLS
    assert 0 < first_total["_echelon"] <= MAX_ECHELON_CALLS
    assert 0 < first_total["_kernel"] <= MAX_KERNEL_CALLS, first_total["_kernel"]
    assert first_total["clear_denominators"] == 0
    assert 0 < first_total["_cleared"] <= MAX_CLEARED_CALLS, first_total["_cleared"]
    assert 0 < first_total["is_integrable"] <= MAX_IS_INTEGRABLE_CALLS
    assert 0 < first_total["_d2_ints"] <= MAX_D2_INTS_CALLS, first_total["_d2_ints"]
    assert 0 < first_total["_weight_spaces"] <= MAX_WEIGHT_SPACES_CALLS, first_total["_weight_spaces"]
    assert 0 < first_total["derived_subalgebra"] <= MAX_DERIVED_SUBALGEBRA_CALLS, first_total["derived_subalgebra"]
    assert 0 < first_total["_series"] <= MAX_SERIES_CALLS, first_total["_series"]


def test_only_analyze_tests_integrability(corpus, bench_items, monkeypatch):
    # decide needs no integrable J, so it never runs the Nijenhuis test;
    # analyze runs it once per fixture with J and reports what it read
    original = tamecert.forms.is_integrable
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tamecert"]
    calls = [spy(monkeypatch, m, "is_integrable") for m in modules if getattr(m, "is_integrable", None) is original]
    items = [(it.algebra, it.J) for it in bench_items["conjugated", 1]]
    items.append((corpus["sol3_r_nonint"].algebra, corpus["sol3_r_nonint"].J))
    for g, J in items:
        decide(g, J)
    assert len(items) == 15 and not any(calls)
    for name, fx in corpus.items():
        if fx.J is None:
            continue
        assert analyze(fx).j_status["integrable"] == original(fx.algebra, fx.J), name
    assert any(calls)


def _floats(obj) -> list[tuple[float, float]]:
    """Each float of a JSON-like value, depth first, with its sign (so -0.0 differs from 0.0)."""
    if isinstance(obj, float):
        return [(obj, math.copysign(1, obj))]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [f for x in obj for f in _floats(x)]
    return []


def test_report_round_trip(corpus):
    names = ("h3_r", "abelian_r4", "aff_r2", "inoue_s0", "aff_r", "abelian_r2")
    cases = [(d, d) for d in (analyze(corpus[name]).to_dict() for name in names)]
    literal = {"one": 1.0, "neg_zero": -0.0, "big": 1e16, "inf": float("inf"), "q": F(3, 4)}
    cases.append((literal, {**literal, "q": "3/4"}))
    for obj, expected in cases:
        parsed = json.loads(dumps_report(obj))
        assert parsed == expected
        # 1.0 must not come back as the integer 1, nor -0.0 as 0
        assert _floats(parsed) == _floats(expected), dumps_report(obj)


def test_report_field_names_are_stable(corpus):
    d = analyze(corpus["h3_r"]).to_dict()
    assert set(d) == {"name", "flags", "j_status", "feasibility", "theorem_consistency", "reduction"}
    assert {"solvable", "nilpotent", "completely_solvable", "unimodular", "abelian"} <= set(d["flags"])
    assert set(d["j_status"]) == {"present", "integrable"}
    assert set(d["theorem_consistency"]) == {"applicable", "consistent", "detail"}
    assert d["feasibility"]["verdict"] == "infeasible"
    assert {"verdict", "rank_one_direction", "dual", "best_primal"} == set(d["feasibility"])
    feasible = analyze(corpus["abelian_r4"]).to_dict()["feasibility"]
    assert {"verdict", "lambda_min", "omega"} == set(feasible)
    reduction = analyze(corpus["aff_r2"]).to_dict()["reduction"]
    assert {"verified", "steps", "terminal_dim", "unimodular_preserved"} == set(reduction)


# --- proof trace ---


def test_proof_trace_aff_r2(corpus):
    fx = corpus["aff_r2"]
    rec = proof_trace(TamedTriple.build(fx.algebra, fx.omega, fx.J))
    assert rec.generator == (F(0), F(1), F(0), F(0))  # X1
    assert rec.h_scalar == F(1)
    assert rec.v_space.dim == 2
    for row in rec.rows:
        assert row.a == 0 and row.b == 0
        assert not any(row.z1)
        for residual in row.residuals.values():
            assert not any(residual)


def test_proof_trace_abelian(corpus):
    fx = corpus["abelian_r4"]
    rec = proof_trace(TamedTriple.build(fx.algebra, fx.omega, fx.J))
    assert rec.h_scalar == 0
    assert all(row.a == 0 and row.b == 0 and not any(row.z1) for row in rec.rows)
    assert rec.trace_zero_checked
    assert rec.reduced_unimodular is True


def test_proof_trace_aff_r(corpus):
    fx = corpus["aff_r"]
    rec = proof_trace(TamedTriple.build(fx.algebra, fx.omega, fx.J))
    assert rec.v_space.dim == 0
    assert rec.rows == ()
    assert rec.h_scalar == F(1)  # [X, JX] = [X, -H] = X


def test_proof_trace_pins_the_z1_scale():
    # d_{4,1/2}: [e0,e1] = e2, [e0,e3] = -e0/2, [e1,e3] = -e1/2, [e2,e3] = -e2, J e1 = e0, J e2 = e3;
    # decide's omega tames J, and both rows of the trace have Z1 != 0.  Under diag(2, 1, 1, 3)
    # J has denominator 6 and the brackets 2, so Z1 is read on non-integral J and brackets too
    F = Fraction
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}, (0, 3): {0: F(-1, 2)}, (1, 3): {1: F(-1, 2)}, (2, 3): {2: -1}})
    J = ComplexStructure.from_matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    P = [[F(d if i == j else 0) for j in range(4)] for i, d in enumerate((2, 1, 1, 3))]
    for h, K in ((g, J), conjugate(g, P, J)):
        v = decide(h, K)
        assert isinstance(v, Feasible)
        rec = proof_trace(TamedTriple.build(h, v.omega, K))
        x, jx = rec.generator, K.apply(rec.generator)
        # the Fraction oracle: Z1 = [JX, Y] + 2b X + a JX
        oracle = [tuple(u + 2 * r.b * s + r.a * t for u, s, t in zip(h.bracket(jx, r.y), x, jx)) for r in rec.rows]
        assert [r.z1 for r in rec.rows] == oracle
        assert oracle == [(F(1, 2), 0, 0, 0), (0, F(1, 2), 0, 0)]
        assert (K.den, h._int_table[0]) == ((1, 2) if h is g else (6, 2))


def tower_triples(fx) -> list[TamedTriple]:
    """The fixture's tamed triple, then every reduced triple of its tower above dimension 0."""
    t = TamedTriple.build(fx.algebra, fx.omega, fx.J)
    return [t] + [step.reduced for step in reduction_tower(t).steps if step.reduced.algebra.dim]


def test_proof_trace_zero_residuals_everywhere(corpus):
    checked = 0
    for name, fx in corpus.items():
        if fx.omega is None or fx.J is None:
            continue
        for k, t in enumerate(tower_triples(fx)):
            rec = proof_trace(t)
            for row in rec.rows:
                assert not any(map(any, row.residuals.values())), (name, k)
            checked += 1
    assert checked == 6 + 7  # the tamed fixtures and their reduced triples above dimension 0


def test_proof_trace_reports_relation_violation(corpus):
    # taming forms that are not closed, their flags forced to True.  On sol4_1,
    # for Y = e1 - e4, Z1 = [JX, Y] + 2bX + aJX = e3 falls outside v.  On
    # sol3_r_nonint, whose J is not integrable either, relation 4 leaves 2 e2
    # over for Y = e1 + e2/3.  Every row of a verified triple has a = b = 0 and
    # Z1 = 0, so only these residuals read relation 4 off a nonzero value: the
    # fixture's J and brackets are integral, and the basis e_i -> d_i e_i gives
    # them denominators 6 and 2
    sol4, sol3 = corpus["sol4_1"], corpus["sol3_r_nonint"]
    coeffs = {(0, 2): -2, (0, 3): 2, (1, 2): 3, (1, 3): -1}
    d = [F(1, 2), F(2), F(3), F(1)]
    h, K = conjugate(sol3.algebra, [[d[i] * (i == j) for j in range(4)] for i in range(4)], sol3.J)
    assert (h._int_table[0], K.den) == (2, 6)
    pulled_back = {(i, j): x * d[i] * d[j] for (i, j), x in coeffs.items()}
    relation_3, relation_4 = "[JX,Y] = -2bX - aJX + Z1", "[JX,JY] = 2aX - bJX + JZ1"
    cases = [
        (sol4.algebra, sol4.J, {(0, 1): 1, (1, 3): -2, (2, 3): -2}, ("closed",), relation_3, (1, 0, 0, -1), (0, 0, 1, 0)),
        (sol3.algebra, sol3.J, coeffs, ("closed", "integrable"), relation_4, (1, F(1, 3), 0, 0), (0, 2, 0, 0)),
        (h, K, pulled_back, ("closed", "integrable"), relation_4, (1, F(1, 12), 0, 0), (0, 1, 0, 0)),
    ]
    for g, J, entries, failed, relation, generator, residual in cases:
        omega = TwoForm.from_dict(4, entries)
        assert TamedTriple.build_unverified(g, omega, J).failed_flags == failed
        with pytest.raises(RelationViolation) as info:
            proof_trace(TamedTriple(g, omega, J, True, True, True))
        assert info.value.relation == relation
        assert info.value.generator == tuple(map(F, generator))
        assert info.value.residual == tuple(map(F, residual))
        assert all(isinstance(x, F) for x in info.value.generator + info.value.residual)


def test_proof_trace_reads_the_fraction_definitions(corpus, monkeypatch):
    # the relations are evaluated through LieAlgebra.bracket, not on the integer
    # table that reduce and the precheck read; aff_r and aff_r2 are not
    # unimodular, so no closing reduce step brackets on the table either
    brackets = spy(monkeypatch, LieAlgebra, "bracket")
    monkeypatch.setattr(tamecert.reduction, "_bracket_ints", lambda *a: pytest.fail("bracketed on the integer table"))
    for name in ("aff_r", "aff_r2"):
        fx = corpus[name]
        t = TamedTriple.build(fx.algebra, fx.omega, fx.J)
        brackets.clear()
        proof_trace(t)
        assert brackets, name


def test_reduction_layer_is_float_free(corpus, monkeypatch):
    # taming is decided by exact leading minors, and the proof trace uses
    # membership tests and traces: no floating-point eigensolver may run
    def refuse(*args, **kwargs):
        raise AssertionError("a floating-point eigensolver ran in the reduction layer")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name in TAMED_NAMES:
        for t in tower_triples(corpus[name]):
            proof_trace(t)


def test_proof_trace_requires_verified():
    g = LieAlgebra.from_brackets(2, {})
    bad = TamedTriple.build_unverified(
        g,
        TwoForm.from_dict(2, {(0, 1): -1}),
        standard_complex_structure(2),
    )
    with pytest.raises(TripleVerificationError):
        proof_trace(bad)


# --- corpus runs ---


def test_corpus_run_green(fixtures_dir):
    result = corpus_run(fixtures_dir)
    assert result.exit_code == EXIT_OK
    assert len(result.entries) == 11
    assert all(e.error is None for e in result.entries)
    names = [e.name for e in result.entries]
    assert names == sorted(names)
    d = result.to_dict()
    assert d["inconsistencies"] == 0
    # every report float is finite: a strict parser, which refuses NaN and Infinity, reads the report back
    assert json.loads(dumps_report(d), parse_constant=pytest.fail) == d


def test_corpus_run_empty(tmp_path):
    result = corpus_run(tmp_path)
    assert result.entries == ()
    assert result.exit_code == EXIT_OK


def test_corpus_run_collects_errors(tmp_path, fixtures_dir):
    (tmp_path / "good.json").write_text((fixtures_dir / "aff_r.json").read_text())
    (tmp_path / "bad_j.json").write_text(json.dumps({
        "name": "bad_j",
        "dim": 2,
        "brackets": [],
        "J": [[1, 0], [0, 1]],
    }))
    (tmp_path / "bad.json").write_text(json.dumps({"name": "bad", "dim": 2, "brackets": 5}))
    (tmp_path / "deep.json").write_bytes(HOSTILE_FILES["deep"])
    result = corpus_run(tmp_path)
    assert len(result.entries) == 4
    by_name = {e.name: e for e in result.entries}
    assert by_name["bad_j"].error is not None and "complex structure" in by_name["bad_j"].error
    assert by_name["bad"].error is not None and "'brackets' must be a list" in by_name["bad"].error
    assert by_name["deep"].error is not None and by_name["deep"].report is None
    assert by_name["aff_r"].report is not None
    assert result.exit_code == EXIT_INPUT_ERROR


def test_a_gram_beyond_the_float_range_is_an_input_error(tmp_path, fixtures_dir, capsys):
    # aff_r with J = [[0, -1/10^400], [10^400, 0]] is a legal fixture whose
    # closed Gram has an entry past the largest double: decide raises a
    # TamecertError naming that, not float()'s OverflowError, so tame prints
    # "error: ..." and exits 1, and a corpus run records the error and still
    # reports the fixture beside it
    big = "1" + "0" * 400
    doc = json.loads((fixtures_dir / "aff_r.json").read_text())
    doc["J"] = [["0", f"-1/{big}"], [big, "0"]]
    path = tmp_path / "aff_r.json"
    path.write_text(json.dumps(doc))
    (tmp_path / "h3_r.json").write_text((fixtures_dir / "h3_r.json").read_text())
    assert cli_main(["validate", str(path)]) == EXIT_OK
    capsys.readouterr()
    fx = load_fixture(path)
    with pytest.raises(TamecertError, match="beyond the range of a double") as err:
        decide(fx.algebra, fx.J)
    assert isinstance(err.value.__cause__, OverflowError)
    assert cli_main(["tame", str(path)]) == EXIT_INPUT_ERROR
    assert re.fullmatch(r"error: a closed Gram form has an entry beyond the range of a double \(.*\)\n", capsys.readouterr().err)
    result = corpus_run(tmp_path)
    by_name = {e.name: e for e in result.entries}
    assert by_name["aff_r"].report is None and "beyond the range of a double" in by_name["aff_r"].error
    assert by_name["h3_r"].error is None and by_name["h3_r"].report.feasibility.kind == "infeasible"
    assert result.exit_code == EXIT_INPUT_ERROR


def test_corpus_run_refuses_a_path_that_is_not_a_directory(tmp_path, fixtures_dir, capsys):
    # a mistyped path must not read as an empty, passing corpus
    for path in (tmp_path / "absent", fixtures_dir / "h3_r.json"):
        with pytest.raises(FixtureError) as err:
            corpus_run(path)
        assert "not a directory" in str(err.value)
        assert cli_main(["corpus", str(path)]) == EXIT_INPUT_ERROR
        assert "not a directory" in capsys.readouterr().err


def test_corpus_run_parallel_matches_serial(fixtures_dir):
    serial = corpus_run(fixtures_dir)
    parallel = corpus_run(fixtures_dir, jobs=4)
    assert [e.name for e in serial.entries] == [e.name for e in parallel.entries]
    for a, b in zip(serial.entries, parallel.entries):
        assert (a.report is None) == (b.report is None)
        if a.report is not None:
            assert a.report.to_dict() == b.report.to_dict()


def test_corpus_run_pool_no_larger_than_corpus(fixtures_dir, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(pipeline_mod.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    n_files = len(list(fixtures_dir.glob("*.json")))
    result = corpus_run(fixtures_dir, jobs=5000)
    assert sizes == [n_files] and len(result.entries) == n_files
    corpus_run(fixtures_dir, jobs=3)
    assert sizes == [n_files, 3]


def test_theorem_sweep_invariants(fixtures_dir):
    result = corpus_run(fixtures_dir)
    for e in result.entries:
        r = e.report
        assert r is not None
        if isinstance(r.feasibility, Feasible):
            assert is_taming(r.feasibility.omega, load_fixture(e.path).J), e.name
        if r.theorem_consistency.applicable and isinstance(r.feasibility, Feasible):
            assert r.flags["abelian"], e.name
        # converse: abelian fixtures with J are feasible
        if r.flags["abelian"] and r.j_status["present"]:
            assert isinstance(r.feasibility, Feasible), e.name


# --- CLI ---


def test_cli_validate(fixtures_dir, capsys):
    assert cli_main(["validate", str(fixtures_dir / "h3_r.json")]) == EXIT_OK
    assert "OK: h3_r" in capsys.readouterr().out


def test_cli_validate_rejects_bad(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["validate", str(bad)]) == EXIT_INPUT_ERROR
    assert "INVALID" in capsys.readouterr().out
    # a Jacobi violation reaches the CLI as a FixtureError, like any other bad input
    brackets = [{"i": 0, "j": 1, "v": {"2": 1}}, {"i": 0, "j": 2, "v": {"1": 1}}, {"i": 1, "j": 2, "v": {"1": 1}}]
    bad.write_text(json.dumps({"name": "bad", "dim": 3, "brackets": brackets}))
    assert cli_main(["validate", str(bad)]) == EXIT_INPUT_ERROR
    out = capsys.readouterr().out
    assert out.startswith("INVALID") and "Jacobi identity fails" in out
    bad.write_bytes(HOSTILE_FILES["not_utf8"])
    assert cli_main(["validate", str(bad)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().out.startswith("INVALID")


def test_cli_analyze_json(fixtures_dir, capsys):
    with pytest.raises(SystemExit) as exc:  # the solve is deterministic: there is no --seed
        cli_main(["analyze", str(fixtures_dir / "h3_r.json"), "--json", "--seed", "7"])
    assert exc.value.code == EXIT_INPUT_ERROR  # a usage error
    capsys.readouterr()
    assert cli_main(["analyze", str(fixtures_dir / "h3_r.json"), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] == "infeasible"
    assert doc["feasibility"]["rank_one_direction"] == [0, 0, 1, 0]
    assert doc["theorem_consistency"]["applicable"] is True


def test_cli_analyze_human(fixtures_dir, capsys):
    assert cli_main(["analyze", str(fixtures_dir / "aff_r.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FEASIBLE" in out
    assert "lattices and solvmanifold topology are out of scope" in out


def test_cli_corpus(fixtures_dir, capsys):
    assert cli_main(["corpus", str(fixtures_dir)]) == EXIT_OK
    assert "inconsistencies: 0" in capsys.readouterr().out


def test_cli_corpus_parallel(fixtures_dir, capsys):
    assert cli_main(["corpus", str(fixtures_dir), "--jobs", "3"]) == EXIT_OK
    assert "inconsistencies: 0" in capsys.readouterr().out


def test_cli_corpus_jobs_must_be_at_least_one(fixtures_dir, monkeypatch, capsys):
    # --jobs 0 or a negative count is a usage error, not a serial run: corpus_run never starts
    monkeypatch.setattr("tamecert.cli.corpus_run", lambda *a, **k: pytest.fail("ran the corpus"))
    for jobs in ("0", "-3", "x", "1.5"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["corpus", str(fixtures_dir), "--jobs", jobs])
        assert exc.value.code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: tamecert corpus") and "--jobs" in err and "at least 1" in err


def test_cli_analyze_human_exact_dual(fixtures_dir, tmp_path, capsys):
    # aff_r2 under the non-integrable J = P J0 P^-1: the verdict comes from
    # the rounded dual iterate, re-proved exactly, so there is no --eps-dual
    doc = json.loads((fixtures_dir / "aff_r2.json").read_text())
    doc.pop("omega", None)
    P = [[F(x) for x in row] for row in [[2, 1, 2, -1], [2, 0, -2, 0], [-2, 1, 2, -2], [1, 1, 1, -2]]]
    J = mat_mul(mat_mul(P, [[F(x) for x in row] for row in doc["J"]]), mat_inverse(P))
    doc["J"] = [[str(x) for x in row] for row in J]
    path = tmp_path / "aff_r2_nonint.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", str(path), "--eps-dual", "0.5"])
    assert exc.value.code == EXIT_INPUT_ERROR  # a usage error
    capsys.readouterr()
    assert cli_main(["analyze", str(path)]) == EXIT_OK
    assert "feasibility: INFEASIBLE (exact dual)" in capsys.readouterr().out


def test_cli_tame(fixtures_dir, capsys):
    assert cli_main(["tame", str(fixtures_dir / "abelian_r4.json"), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] == "feasible"
    omega = {(e["i"], e["j"]): Fraction(e["v"]) for e in doc["feasibility"]["omega"]}
    assert is_taming(TwoForm.from_dict(4, omega), load_fixture(fixtures_dir / "abelian_r4.json").J)


def test_cli_unknown_verdict_exits_3(capsys):
    path = str(SQRT2_ALMOST_ABELIAN)
    assert cli_main(["analyze", path]) == EXIT_UNKNOWN == 3
    assert "feasibility: UNKNOWN" in capsys.readouterr().out
    assert cli_main(["analyze", path, "--json"]) == EXIT_UNKNOWN
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] == "unknown"
    assert doc["theorem_consistency"]["detail"].startswith("applicable; verdict Unknown")
    assert cli_main(["tame", path]) == EXIT_UNKNOWN


def test_cli_tame_needs_j(tmp_path, capsys):
    path = tmp_path / "noj.json"
    path.write_text(json.dumps({"name": "noj", "dim": 2, "brackets": []}))
    assert cli_main(["tame", str(path)]) == EXIT_INPUT_ERROR


def test_cli_reduce(fixtures_dir, capsys):
    assert cli_main(["reduce", str(fixtures_dir / "aff_r2.json"), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["terminal_dim"] == 0
    assert [(s["perp_dim"], s["reduced_dim"]) for s in doc["steps"]] == [(3, 2), (1, 0)]
    assert all(set(s) == {"ideal_generator", "perp_dim", "reduced_dim"} for s in doc["steps"])
    assert cli_main(["reduce", str(fixtures_dir / "aff_r2.json")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[2:]
    assert lines == [
        "  step 1: quotient by span(0, 1, 0, 0); reduced dim 2",
        "  step 2: quotient by span(0, 1); reduced dim 0",
        "  terminal dimension: 0",
    ]


def test_cli_refuses_feasibility_flags(fixtures_dir, capsys):
    # the five flags that once tuned the search had no effect, and are gone;
    # a usage error is an input error, exit 1, since 2 means an inconsistency
    flags = (("--eps-feas", "0.9"), ("--eps-dual", "0.5"), ("--seed", "7"), ("--restarts", "3"), ("--iters", "10"))
    targets = (("analyze", "h3_r.json"), ("tame", "h3_r.json"), ("corpus", ""))
    for command, name in targets:
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                cli_main([command, str(fixtures_dir / name), *flag])
            assert exc.value.code == EXIT_INPUT_ERROR, (command, flag)
            err = capsys.readouterr().err
            assert err.startswith("usage: tamecert") and "unrecognized arguments" in err


def test_cli_commands_keep_their_flags(fixtures_dir, capsys, monkeypatch):
    # validate takes no --json and only corpus takes --jobs; the five commands
    # list their help in the top-level --help
    fixture = str(fixtures_dir / "h3_r.json")
    for argv in (["validate", fixture, "--json"], ["tame", fixture, "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == EXIT_INPUT_ERROR, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert cli_main(["corpus", str(fixtures_dir), "--jobs", "2", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["inconsistencies"] == 0
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")) for name, p in sub.choices.items()}
    assert flags == {
        "validate": [],
        "analyze": ["--json"],
        "reduce": ["--json"],
        "tame": ["--json"],
        "corpus": ["--jobs", "--json"],
    }
    monkeypatch.setenv("COLUMNS", "200")  # one help line per command
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    helps = {
        "validate": "check a fixture file (Jacobi identity included)",
        "analyze": "full structural + feasibility report",
        "reduce": "run the symplectic reduction tower",
        "tame": "feasibility verdict only",
        "corpus": "analyze every fixture in a directory",
    }
    for name, text in helps.items():
        assert re.search(rf"^ +{name} +{re.escape(text)}$", out, re.M), (name, out)


def test_cli_corpus_json_exit_codes(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("[]")
    assert cli_main(["corpus", str(tmp_path), "--json"]) == EXIT_INPUT_ERROR
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == EXIT_INPUT_ERROR
