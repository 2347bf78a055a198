"""The public surface of the package and the README's library example."""

import ast
import dataclasses
import inspect
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import tamecert
from tamecert import algebra, errors, feasibility, fixtures, forms, linalg, pipeline, reduction

import ab_pairs
from ab_pairs import seed_list, summary
from conftest import RESCALE_FACTORS, REPO_ROOT, readme_snippet

# what README documents: the library example's calls and the types they return
# or raise, the structural toolkit of its opening section, and what the CLI is
# built on
PUBLIC_NAMES = [
    "AnalysisReport",
    "CompleteSolvability",
    "ComplexStructure",
    "DimensionMismatch",
    "Feasible",
    "Fixture",
    "FixtureError",
    "Infeasible",
    "JacobiViolation",
    "LieAlgebra",
    "NoOneDimIdeal",
    "NotAComplexStructure",
    "NotAnIdeal",
    "NotIsotropic",
    "OneForm",
    "ProofTraceRecord",
    "ReductionStep",
    "ReductionTower",
    "RelationViolation",
    "Subspace",
    "TamecertError",
    "TamedTriple",
    "TamingLost",
    "ThreeForm",
    "TripleVerificationError",
    "TwoForm",
    "Unknown",
    "analyze",
    "ce_d",
    "corpus_run",
    "decide",
    "dumps_report",
    "is_completely_solvable",
    "is_integrable",
    "load_fixture",
    "one_dim_ideals",
    "parse_fixture",
    "proof_trace",
    "reduce",
    "reduction_tower",
    "standard_complex_structure",
    "weight_spaces",
]

# decide's lanes, the reduction's helpers and the coercion: out of the package
# namespace, still importable from the module that defines each
MODULE_ONLY_NAMES = [
    (feasibility, "build_problem"),
    (feasibility, "degeneracy_precheck"),
    (feasibility, "dual_certificate"),
    (feasibility, "exactify"),
    (feasibility, "maximize_lambda_min"),
    (feasibility, "DegeneracyDirection"),
    (feasibility, "FeasibilityProblem"),
    (forms, "closed_two_forms"),
    (forms, "taming_gram"),
    (forms, "is_taming"),
    (reduction, "find_isotropic_ideal"),
    (reduction, "omega_perp"),
    (linalg, "frac"),
    (errors, "ExactificationFailed"),
]

# names deleted from the package; a stale export of any of them is an error
REMOVED_NAMES = [
    "subalgebra",
    "quotient",
    "QuotientMap",
    "NotASubalgebra",
    "check_decomposition",
    "DecompositionCheck",
    "pfaffian",
    "is_nondegenerate",
    "is_compatible",
    "OddDimension",
    "poly_trim",
    "poly_deg",
    "poly_eval",
    "poly_deriv",
    "poly_divmod",
    "poly_gcd",
    "squarefree_part",
    "DIVISOR_SEARCH_LIMIT",
    "_divisors",
    "mat_eq",
    "validate",
    "zeros",
    "mat_add",
    "mat_scale",
    "mat_copy",
    "FeasibilityConfig",
    "nijenhuis",
    "bracket_basis",
    # oracles that only tests call, now in tests/conftest.py
    "mat_vec",
    "rank",
    "count_real_roots",
    # the Fraction vector helpers and eliminations, left without a package
    # caller once the proof trace and the dual lane run on integer rows
    "zero_vec",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "is_zero_vec",
    "identity",
    "rref",
    "solve",
]

# methods that only tests call, now functions in tests/conftest.py
MOVED_METHODS = [
    (tamecert.LieAlgebra, "adjoint"),
    (tamecert.LieAlgebra, "is_subalgebra"),
    (tamecert.TwoForm, "matrix"),
    (tamecert.TwoForm, "coeff"),
    (tamecert.Subspace, "coordinates_of"),
    (tamecert.Subspace, "contains_vector"),
    (tamecert.LieAlgebra, "jacobi_residual"),
]


def test_public_surface():
    assert len(set(tamecert.__all__)) == len(tamecert.__all__)
    assert sorted(tamecert.__all__) == PUBLIC_NAMES
    for module, name in MODULE_ONLY_NAMES:
        assert not hasattr(tamecert, name), name
        assert getattr(module, name).__module__ == module.__name__, name
    for name in tamecert.__all__:
        assert getattr(tamecert, name, None) is not None, name
    namespace: dict = {}
    exec("from tamecert import *", namespace)
    assert set(tamecert.__all__) <= set(namespace)
    for name in REMOVED_NAMES:
        assert name not in tamecert.__all__, name
        for module in (tamecert, algebra, errors, forms, linalg, reduction):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(tamecert.Subspace, "standard_complement_positions")
    assert not hasattr(tamecert.Subspace, "reduce_vector")
    assert not hasattr(tamecert.LieAlgebra, "adjoint_of_basis")
    assert not hasattr(tamecert.LieAlgebra, "bracket_basis")
    assert not hasattr(tamecert.TwoForm, "add")
    for owner, name in MOVED_METHODS:
        assert not hasattr(owner, name), (owner.__name__, name)
    assert not hasattr(feasibility.FeasibilityProblem, "gram_ints")
    step_fields = {f.name for f in dataclasses.fields(tamecert.ReductionStep)}
    assert "complement_witness" not in step_fields and "section_map" not in step_fields
    # decide has no tolerance knob: both certificate lanes re-prove exactly
    for fn in (tamecert.decide, feasibility.build_problem, tamecert.analyze, tamecert.corpus_run):
        assert "config" not in inspect.signature(fn).parameters, fn.__name__
    # the Jacobi check always runs, and reports are written by json.dumps
    assert "check" not in inspect.signature(tamecert.LieAlgebra.from_brackets).parameters
    assert not hasattr(fixtures, "_render")


# R^4, its standard J, and a 2-form on R^2
R4, J4, W2 = tamecert.LieAlgebra.from_brackets(4, {}), tamecert.standard_complex_structure(4), tamecert.TwoForm(2, ())


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tamecert.LieAlgebra.from_brackets(-1, {}), errors.DimensionMismatch, "nonnegative"),
        (lambda: tamecert.ComplexStructure.from_matrix([[0, -1, 0], [1, 0, 0]]), errors.NotAComplexStructure, "square"),
        (lambda: tamecert.Subspace.from_vectors(3, [[1, 0]]), ValueError, "vector length 2 != ambient dim 3"),
        (lambda: tamecert.ce_d(R4, tamecert.ThreeForm.from_dict(4, {})), TypeError, "got ThreeForm"),
        (lambda: feasibility.exactify(feasibility.build_problem(R4, J4), [0] * 6), errors.ExactificationFailed, "zero"),
        (lambda: tamecert.TamedTriple.build_unverified(R4, W2, J4), errors.TripleVerificationError, "dimension"),
        (lambda: pipeline.verdict_to_dict("feasible"), TypeError, "unexpected verdict"),
    ],
    ids=["negative_dim", "non_square_J", "short_vector", "d_of_3_form", "zero_vector", "form_of_other_dim", "not_a_verdict"],
)
def test_public_calls_refuse_bad_arguments(call, error, message):
    # each raises the error its docstring or README names
    with pytest.raises(error, match=message):
        call()


def test_readme_library_snippet(monkeypatch):
    code = readme_snippet()
    monkeypatch.chdir(REPO_ROOT)
    namespace: dict = {}
    exec(code, namespace)
    verdict = namespace["verdict"]
    assert isinstance(verdict, tamecert.Infeasible)
    e3 = [Fraction(int(i == 2)) for i in range(4)]
    assert [list(row) for row in verdict.dual] == [[a * b for b in e3] for a in e3]
    tower = namespace["tower"]
    assert len(tower.steps) == 2 and tower.terminal_dim == 0
    # d e^3 = -e^1 ^ e^2 under d a (X, Y) = -a([X, Y]), with [e1, e2] = e3
    assert namespace["de3"] == tamecert.TwoForm.from_dict(4, {(0, 1): -1})
    g, derived = namespace["g"], namespace["derived"]
    assert derived == g.derived_subalgebra() and derived.rows == ((0, 0, 1, 0),)
    e2, e4 = (tamecert.Subspace.from_vectors(4, [[int(i == k) for i in range(4)]]) for k in (1, 3))
    assert namespace["spaces"] == [e4, e2]  # by weight vector: (0, 0, 1, 0) before (1, 0, 0, 0)
    assert namespace["lines"] == [e2, e4]
    assert tower.steps[0].h == e2


def test_benchmark_imports_resolve(monkeypatch):
    # perfbench/ imports package names that no package code path calls: the
    # traced replay and the certificate checker must still import and agree
    # with the program, as perfbench/run.py loads them
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import certcheck
    import spans
    import workloads  # noqa: F401

    load = {name: tamecert.load_fixture(REPO_ROOT / "fixtures" / f"{name}.json") for name in ("aff_r", "h3_r", "aff_r2")}
    cases = [(fx.algebra, fx.J, tamecert.decide(fx.algebra, fx.J)) for fx in (load["aff_r"], load["h3_r"])]
    assert certcheck.smoke_test(*cases) == []
    fx = load["aff_r2"]
    verdict, basis = spans.traced_decide(spans.Recorder(), fx.algebra, fx.J)
    assert spans.verdict_signature(verdict) == spans.verdict_signature(tamecert.decide(fx.algebra, fx.J))
    assert spans.closed_basis_signature(basis) == spans.closed_basis_signature(forms.closed_two_forms(fx.algebra))


def test_exact_items_hold_the_conjugated_benchmark_draws(exact_items, bench_items):
    # each name~Pk of exact_items is the benchmark's conjugated item name~Pk
    # before its rescaling: at seeds 1-3 the item has the draw's J, and its
    # brackets are the draw's scaled by one of the factors the seed picks from
    draws = {name: (g, J) for name, g, J in exact_items if "~P" in name}
    checked = 0
    for seed in (1, 2, 3):
        for item in bench_items["conjugated", seed]:
            g, J = draws[item.name]
            assert item.J == J, (seed, item.name)
            assert any(item.algebra == algebra.scale_structure_constants(g, t) for t in RESCALE_FACTORS[1:]), (seed, item.name)
            checked += 1
    assert checked == 3 * len(draws) == 42


def test_ab_pairs_reads_its_verdicts():
    # the A/B tool's seed ranges, and its summary on synthetic runs: the gain
    # rule, a metric's direction, "no change", the bound, and a base median of 0
    assert seed_list("101-103,7") == [101, 102, 103, 7]
    base = [100.0 + k for k in range(10)]  # interquartile range 5.5
    wins = [x + 20 for x in base]
    assert "wins 10/10  gain rule holds" in summary(base, wins, True, 0.25)
    assert "wins 8/10  gain rule fails" in summary(base, wins[:8] + base[8:], True, 0.25)
    lower = [x - 20 for x in base]
    assert "wins 10/10  gain rule holds" in summary(base, lower, False, 0.25)
    assert "wins 0/10  gain rule fails" in summary(base, lower, True, 0.25)
    same = summary(base, list(base), True, 0.25)
    assert "no change" in same and same.endswith("within")
    assert summary(base, [x / 2 for x in base], True, 0.25).endswith("EXCEEDS")
    zero = [0.0] * 10
    assert summary(zero, [1.0] * 10, True, 0.25).endswith("within")
    assert summary(zero, [1.0] * 10, False, 0.25).endswith("EXCEEDS")
    # a base spread wider than the bound: the median can move that far on noise alone,
    # so no regression verdict is read unless every change run beats every base run
    noisy = [100.0 + 10 * k for k in range(10)]  # median 145, interquartile range 55, 38%
    assert summary(noisy, list(noisy), True, 0.25).endswith("unresolved")
    assert summary(noisy, [x / 2 for x in noisy], True, 0.25).endswith("unresolved")
    assert summary(noisy, [x + 10 for x in noisy], True, 0.25).endswith("unresolved")
    assert summary(noisy, [200.0 + k for k in range(10)], True, 0.25).endswith("within")
    assert summary(noisy, [50.0 + k for k in range(10)], False, 0.25).endswith("within")
    assert summary(noisy, list(noisy), True, 0.4).endswith("within")


def test_ab_pairs_reads_no_gain_off_too_few_pairs():
    # the gain rule needs ten pairs: below that a better change reads "too few
    # pairs" in place of the rule's verdict, and at ten the rule is read
    one = summary([100.0], [120.0], True, 0.25)
    assert "wins 1/1  too few pairs" in one and "gain rule" not in one and one.endswith("within")
    nine = [100.0 + k for k in range(9)]
    assert "wins 9/9  too few pairs" in summary(nine, [x + 20 for x in nine], True, 0.25)
    ten = [100.0 + k for k in range(10)]
    assert "wins 10/10  gain rule holds" in summary(ten, [x + 20 for x in ten], True, 0.25)
    assert "wins 0/1  too few pairs" in summary([100.0], [50.0], True, 0.25)
    assert summary([100.0], [50.0], True, 0.25).endswith("EXCEEDS")


def test_ab_pairs_shows_why_a_run_crashed(tmp_path, monkeypatch, capsys):
    # a benchmark run that exits nonzero ends the tool with its workload, seed,
    # side, exit code and the tail of its stderr, and exit status 1
    stub = tmp_path / "stub"
    (stub / "perfbench").mkdir(parents=True)
    lines = "".join(f"print('line {k}', file=sys.stderr)\n" for k in range(30))
    (stub / "perfbench" / "run.py").write_text(f"import sys\n{lines}sys.exit(1)\n")
    monkeypatch.setattr(ab_pairs, "extract", lambda rev, dest: shutil.copytree(stub, dest, dirs_exist_ok=True))
    assert ab_pairs.main(["--base", "HEAD", "--workload", "corpus", "--seeds", "1", "--seconds", "1"]) == 1
    out = capsys.readouterr().out
    assert "corpus seed 1 base: perfbench/run.py exited 1" in out
    assert "line 29" in out and "line 10" in out and "line 9\n" not in out


def test_ab_pairs_compiles_the_base_before_its_first_run(tmp_path, monkeypatch, capsys):
    # the extracted base holds bytecode before any run imports from it, as the
    # working tree does, so neither side compiles the package in its setup
    stub = tmp_path / "stub"
    (stub / "src" / "pkg").mkdir(parents=True)
    (stub / "src" / "pkg" / "__init__.py").write_text("")
    (stub / "perfbench").mkdir()
    (stub / "perfbench" / "helper.py").write_text("")
    run = "import pathlib, sys\nroot = pathlib.Path(__file__).resolve().parent.parent\n"
    run += "print('bytecode:', sorted(p.name.split('.')[0] for p in root.rglob('*.pyc')), file=sys.stderr)\nsys.exit(1)\n"
    (stub / "perfbench" / "run.py").write_text(run)
    monkeypatch.setattr(ab_pairs, "extract", lambda rev, dest: shutil.copytree(stub, dest, dirs_exist_ok=True))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert ab_pairs.main(["--base", "HEAD", "--workload", "corpus", "--seeds", "1", "--seconds", "1"]) == 1
    assert "bytecode: ['__init__', 'helper', 'run']" in capsys.readouterr().out


def test_ab_pairs_names_a_base_it_cannot_extract(monkeypatch, capsys):
    # a rev git archive refuses ends the tool with that rev and git's message,
    # and a git that cannot start with the error, both with exit status 1
    args = ["--base", "no-such-rev", "--workload", "corpus", "--seeds", "1", "--seconds", "1"]
    assert ab_pairs.main(args) == 1
    out = capsys.readouterr().out
    assert out.startswith("cannot extract base no-such-rev: git archive exited") and "no-such-rev" in out.split(":", 2)[2]
    monkeypatch.setenv("PATH", "")
    assert ab_pairs.main(args) == 1
    assert capsys.readouterr().out.startswith("cannot extract base no-such-rev: [Errno 2]")


def test_only_the_numeric_module_imports_numpy():
    # one float lane: a single numpy import in the package, in _numeric
    found = []
    for path in sorted((REPO_ROOT / "src" / "tamecert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module] if isinstance(node, ast.ImportFrom) and node.module else []
            found += [(path.stem, name) for name in names if name.split(".")[0] == "numpy"]
    assert found == [("_numeric", "numpy")]


# run in a fresh interpreter, as this process has numpy loaded already
LAZY_NUMPY = """
import sys
import tamecert, tamecert.cli
from tamecert.cli import main
assert "numpy" not in sys.modules, "import"
assert main(["validate", "fixtures/h3_r.json"]) == 0
assert "numpy" not in sys.modules, "validate"
assert main(["reduce", "fixtures/aff_r2.json"]) == 0
assert "numpy" not in sys.modules, "reduce"
fx = tamecert.load_fixture("fixtures/aff_r.json")
v = tamecert.decide(fx.algebra, fx.J)
assert "numpy" in sys.modules and "tamecert._numeric" in sys.modules
print(v.kind, dict(v.omega.coeffs))
"""


def test_numpy_loads_only_at_the_first_decision():
    out = subprocess.run(
        [sys.executable, "-c", LAZY_NUMPY],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    fx = tamecert.load_fixture(REPO_ROOT / "fixtures" / "aff_r.json")
    v = tamecert.decide(fx.algebra, fx.J)
    assert out.stdout.splitlines()[-1] == f"{v.kind} {dict(v.omega.coeffs)}"
