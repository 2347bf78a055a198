"""The public surface of the package and the README's library example."""

import dataclasses
import inspect
import re
from fractions import Fraction
from pathlib import Path

import tamecert
from tamecert import algebra, errors, fixtures, forms, linalg, reduction

REPO_ROOT = Path(__file__).resolve().parent.parent

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
]


def test_public_surface():
    assert len(set(tamecert.__all__)) == len(tamecert.__all__)
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
    assert not hasattr(tamecert.TwoForm, "add")
    assert "complement_witness" not in {f.name for f in dataclasses.fields(tamecert.ReductionStep)}
    # decide has no tolerance knob: both certificate lanes re-prove exactly
    for fn in (tamecert.decide, tamecert.build_problem, tamecert.analyze, tamecert.corpus_run):
        assert "config" not in inspect.signature(fn).parameters, fn.__name__
    # the Jacobi check always runs, and reports are written by json.dumps
    assert "check" not in inspect.signature(tamecert.LieAlgebra.from_brackets).parameters
    assert not hasattr(fixtures, "_render")


def test_readme_library_snippet(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(REPO_ROOT)
    namespace: dict = {}
    exec(code, namespace)
    verdict = namespace["verdict"]
    assert isinstance(verdict, tamecert.Infeasible)
    e3 = [Fraction(int(i == 2)) for i in range(4)]
    assert [list(row) for row in verdict.dual] == [[a * b for b in e3] for a in e3]
    tower = namespace["tower"]
    assert len(tower.steps) == 2 and tower.terminal_dim == 0
