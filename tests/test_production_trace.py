"""Which functions of the package never run in production.

The CLI runs on every shipped fixture (``validate``, and ``analyze``,
``tame`` and ``reduce`` with and without ``--json``), ``corpus`` runs on
the fixture directory with ``--jobs 1`` and with ``--json``, and ``decide``
runs on the seed-1 items of the ``conjugated`` and ``scaling`` benchmark
workloads, built before the profiler starts.  The package functions never
entered under ``sys.setprofile`` must be exactly those of ``NEVER_ENTERED``,
each with its reason: a function that newly stops running fails the test,
and so does an allowlisted one that starts to run.  A "README example" must be
entered when README's library snippet runs.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import tamecert
from tamecert.cli import main as cli_main
from tamecert.feasibility import decide

from conftest import FIXTURES_DIR, REPO_ROOT, readme_snippet

PACKAGE_DIR = Path(tamecert.__file__).parent  # as co_filename spells it

ERROR_PATH = "error path"
# no benchmark workload reaches the barrier solve or the dual lane until one
# is added with the spans the program records (ROADMAP item 1)
BARRIER = "barrier or dual lane"
README = "README example"
PERFBENCH = "imported by perfbench/"

NEVER_ENTERED = {
    "_numeric.barrier_path": BARRIER,
    "_numeric.max_step": BARRIER,
    "_numeric.newton_step": BARRIER,
    "_numeric.with_dual": BARRIER,
    "algebra.LieAlgebra.bracket": PERFBENCH,  # workloads.conjugate
    "algebra.LieAlgebra.bracket_table": PERFBENCH,  # through scale_structure_constants
    "algebra.LieAlgebra.is_solvable": PERFBENCH,  # spans.traced_analyze
    "algebra.one_dim_ideals": README,
    "algebra.scale_structure_constants": PERFBENCH,  # workloads
    "algebra.weight_spaces": README,
    "cli._Parser.error": ERROR_PATH,
    "errors.JacobiViolation.__init__": ERROR_PATH,
    "errors.RelationViolation.__init__": ERROR_PATH,
    "errors.TripleVerificationError.__init__": ERROR_PATH,
    "feasibility.FeasibilityProblem.barrier_path": BARRIER,
    "feasibility.dual_certificate": BARRIER,
    "forms.ComplexStructure.apply": PERFBENCH,  # certcheck
    "forms.ComplexStructure.matrix": PERFBENCH,
    "forms.OneForm.__call__": README,  # through ce_d
    "forms.OneForm.from_coeffs": README,
    "forms.ThreeForm.from_dict": PERFBENCH,
    "forms.ThreeForm.is_zero": PERFBENCH,
    "forms.TwoForm.__call__": PERFBENCH,
    "forms.TwoForm.scale": PERFBENCH,
    "forms.ce_d": PERFBENCH,  # certcheck; the ThreeForm and TwoForm methods above are what it calls
    "forms.standard_complex_structure": README,
    "linalg.Subspace.from_vectors": README,
    "linalg.det": PERFBENCH,
    "linalg.mat_inverse": PERFBENCH,
    "linalg.mat_mul": PERFBENCH,
    "linalg.transpose": PERFBENCH,  # transpose and vec_dot through mat_mul
    "linalg.unit_vec": PERFBENCH,
    "linalg.vec": PERFBENCH,  # through LieAlgebra.bracket
    "linalg.vec_dot": PERFBENCH,
    "reduction.TamedTriple.failed_flags": ERROR_PATH,
    "reduction._over": README,  # proof_trace's
    "reduction.proof_trace": README,
}


def qualnames(path: Path) -> dict[tuple[int, str], str]:
    """The qualified name of every function, method and nested function in one
    source file, with no class body, lambda or comprehension, keyed by the
    (co_firstlineno, co_name) of its code object: the line of its first
    decorator, or of its def.  The names come from the class and function
    nesting, as ``__qualname__`` spells them, so they need no ``co_qualname``,
    which code objects have only from Python 3.11."""
    out = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(first, child.name)] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(), str(path)), "")
    return out


def package_functions() -> dict[tuple[str, int, str], str]:
    """"module.qualname" of every function, method and nested function in the
    package's source, keyed by (module, co_firstlineno, co_name)."""
    return {
        (path.stem, *key): f"{path.stem}.{name}" for path in sorted(PACKAGE_DIR.glob("*.py")) for key, name in qualnames(path).items()
    }


def test_qualnames_match_the_functions_they_name():
    # the table has one key per function code object of the source, with no
    # class body, lambda or comprehension, and each name is the one Python
    # gives: co_qualname where code objects have it (3.11 on), and the
    # __qualname__ of every function reachable from a module or its classes
    functions = package_functions()
    keys = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                keys.append((path.stem, code.co_firstlineno, code.co_name))
                if sys.version_info >= (3, 11):
                    assert functions[keys[-1]] == f"{path.stem}.{code.co_qualname}"
    assert sorted(keys) == sorted(functions)
    found = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"tamecert.{path.stem}") if path.stem != "__init__" else tamecert
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
        for obj in (x for owner in owners for x in vars(owner).values()):
            obj = getattr(obj, "__func__", getattr(obj, "fget", obj))  # a staticmethod, classmethod or property
            if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:  # not a dataclass's generated methods
                code = obj.__code__
                assert functions[(path.stem, code.co_firstlineno, code.co_name)] == f"{path.stem}.{obj.__qualname__}"
                found += 1
    assert found >= 150, found


def entered(run) -> set[str]:
    """The "module.qualname" of every package function that run() enters, under ``sys.setprofile``."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    table = package_functions()
    keys = {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name) for c in codes if Path(c.co_filename).parent == PACKAGE_DIR}
    return {table[key] for key in keys if key in table}


def test_never_entered_functions_are_allowlisted(bench_items):
    items = bench_items["conjugated", 1] + bench_items["scaling", 1]
    fixtures = [str(path) for path in sorted(FIXTURES_DIR.glob("*.json"))]

    def production():
        for path in fixtures:
            cli_main(["validate", path])
            for command in ("analyze", "tame", "reduce"):
                cli_main([command, path])
                cli_main([command, path, "--json"])
        cli_main(["corpus", str(FIXTURES_DIR), "--jobs", "1"])
        cli_main(["corpus", str(FIXTURES_DIR), "--json"])
        for it in items:
            decide(it.algebra, it.J)

    ran = entered(production)
    functions = set(package_functions().values())
    assert set(NEVER_ENTERED) <= functions, sorted(set(NEVER_ENTERED) - functions)
    assert sorted(functions - ran) == sorted(NEVER_ENTERED)


def test_readme_examples_run_in_the_readme_snippet(monkeypatch):
    # a "README example" reason holds only while README's library snippet,
    # which test_package.test_readme_library_snippet checks, enters the function
    code = readme_snippet()
    monkeypatch.chdir(REPO_ROOT)
    ran = entered(lambda: exec(code, {}))
    readme = {entry for entry, reason in NEVER_ENTERED.items() if reason == README}
    assert sorted(readme - ran) == []
