"""End-to-end analysis and corpus aggregation.

The analysis report records structural flags, the feasibility verdict with
certificates, and a consistency check against the structure theorem: on a
unimodular completely solvable algebra with integrable J, a Feasible verdict
on a non-abelian algebra is an inconsistency (a bug, as every Feasible form
is exactly positive definite) and drives a nonzero exit code; so is any
other verdict on an abelian algebra, which is Kaehler for every J.
"""

from __future__ import annotations

import concurrent.futures
import logging
from dataclasses import dataclass
from pathlib import Path

from .algebra import LieAlgebra, _completely_solvable
from .errors import FixtureError, TamecertError, TripleVerificationError
from .feasibility import (
    Feasible,
    FeasibilityVerdict,
    Infeasible,
    Unknown,
    _decide,
)
from .fixtures import Fixture, load_fixture, rational_str
from .forms import TwoForm, is_integrable
from .reduction import TamedTriple, _tower

# exit codes: CI-friendly contract
EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_UNKNOWN = 3

SCOPE_NOTE = (
    "Lie-algebra level analysis over invariant forms; "
    "lattices and solvmanifold topology are out of scope."
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TheoremConsistency:
    applicable: bool
    consistent: bool
    detail: str


@dataclass(frozen=True)
class AnalysisReport:
    name: str
    flags: dict
    j_status: dict
    feasibility: FeasibilityVerdict | None
    theorem_consistency: TheoremConsistency
    reduction: dict | None

    @property
    def exit_code(self) -> int:
        if not self.theorem_consistency.consistent:
            return EXIT_INCONSISTENT
        if isinstance(self.feasibility, Unknown):
            return EXIT_UNKNOWN
        return EXIT_OK

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "flags": dict(self.flags),
            "j_status": dict(self.j_status),
            "feasibility": verdict_to_dict(self.feasibility),
            "theorem_consistency": {
                "applicable": self.theorem_consistency.applicable,
                "consistent": self.theorem_consistency.consistent,
                "detail": self.theorem_consistency.detail,
            },
            "reduction": self.reduction,
        }


def omega_to_entries(omega: TwoForm) -> list[dict]:
    return [{"i": i, "j": j, "v": rational_str(c)} for (i, j), c in omega.coeffs]


def verdict_to_dict(v: FeasibilityVerdict | None) -> dict | None:
    if v is None:
        return None
    if isinstance(v, Feasible):
        return {
            "verdict": "feasible",
            "lambda_min": v.lambda_min,
            "omega": omega_to_entries(v.omega),
        }
    if isinstance(v, Infeasible):
        return {
            "verdict": "infeasible",
            "rank_one_direction": (
                [rational_str(x) for x in v.rank_one_direction]
                if v.rank_one_direction is not None
                else None
            ),
            "dual": [[rational_str(x) for x in row] for row in v.dual],
            "best_primal": v.best_primal,
        }
    if isinstance(v, Unknown):
        return {
            "verdict": "unknown",
            "best_lambda_min": v.best_lambda_min,
            "degenerate_logged": v.degenerate_logged,
        }
    raise TypeError(f"unexpected verdict {v!r}")


def analyze(fixture: Fixture) -> AnalysisReport:
    g = fixture.algebra
    derived = g.derived_subalgebra()  # once, for both series, the precheck and the tower's first search

    cs = _completely_solvable(g, g._series(derived, False))
    solvable = bool(cs) or cs.witness is not None  # the witness is None when g is not solvable
    nilpotent = g._series(derived, True)[-1].dim == 0
    unimodular, witness = g.is_unimodular()
    abelian = g.is_abelian()
    flags = {
        "solvable": solvable,
        "nilpotent": nilpotent,
        "completely_solvable": bool(cs),
        "unimodular": unimodular,
        "unimodular_witness": g.basis_labels[witness] if witness is not None else None,
        "abelian": abelian,
    }

    j_present = fixture.J is not None
    j_status = {
        "present": j_present,
        "integrable": None,
    }
    feas: FeasibilityVerdict | None = None
    integrable = False
    if j_present:
        integrable = is_integrable(g, fixture.J)
        j_status["integrable"] = integrable
        if not integrable:
            logger.warning("J is not integrable; the taming decision still applies")
        feas = _decide(g, fixture.J, derived)

    applicable = bool(unimodular and cs and j_present and integrable)
    feasible = isinstance(feas, Feasible)
    # the theorem forbids Feasible unless abelian; an abelian algebra is
    # Kaehler for every J, so there anything but Feasible is wrong too
    consistent = not applicable or feasible == abelian
    if not j_present:
        detail = "no complex structure supplied; theorem sweep not applicable"
    elif not applicable:
        reasons = []
        if not unimodular:
            reasons.append(f"not unimodular (witness {flags['unimodular_witness']})")
        if not cs:
            reasons.append("not completely solvable")
        if not integrable:
            reasons.append("J not integrable")
        detail = "not applicable: " + "; ".join(reasons)
    elif not consistent and abelian:
        detail = "INCONSISTENT: no Feasible verdict on an abelian algebra, which is Kaehler for every J"
    elif not consistent:
        detail = "INCONSISTENT: Feasible taming form on a non-abelian unimodular completely solvable algebra"
    elif isinstance(feas, Unknown):
        detail = "applicable; verdict Unknown (no rounding re-proved a certificate)" + (
            "; near-zero supremum logged as degenerate boundary case"
            if feas.degenerate_logged
            else ""
        )
    else:
        detail = "applicable and consistent"

    reduction = None
    if fixture.omega is not None and j_present:
        reduction = _reduction_summary(g, fixture.omega, fixture.J, unimodular, derived, integrable)

    return AnalysisReport(
        name=fixture.name,
        flags=flags,
        j_status=j_status,
        feasibility=feas,
        theorem_consistency=TheoremConsistency(applicable, consistent, detail),
        reduction=reduction,
    )


def _reduction_summary(g: LieAlgebra, omega: TwoForm, J, unimodular_in: bool, derived, integrable: bool) -> dict:
    try:
        triple = TamedTriple._build(g, omega, J, integrable, True)
    except TripleVerificationError as exc:
        return {"verified": False, "failed_flags": list(exc.failed_flags)}
    try:
        tower = _tower(triple, derived)
    except TamecertError as exc:
        return {"verified": True, "error": str(exc)}
    preserved = None
    if unimodular_in:
        preserved = all(step.reduced.algebra.is_unimodular()[0] for step in tower.steps)
    return {
        "verified": True,
        "steps": len(tower.steps),
        "terminal_dim": tower.terminal_dim,
        "unimodular_preserved": preserved,
    }


# --- corpus runs ---


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    path: str
    report: AnalysisReport | None
    error: str | None


@dataclass(frozen=True)
class CorpusResult:
    entries: tuple[CorpusEntry, ...]

    @property
    def inconsistencies(self) -> int:
        return sum(e.report is not None and not e.report.theorem_consistency.consistent for e in self.entries)

    @property
    def exit_code(self) -> int:
        if self.inconsistencies:
            return EXIT_INCONSISTENT
        if any(e.error is not None for e in self.entries):
            return EXIT_INPUT_ERROR
        if any(isinstance(e.report.feasibility, Unknown) for e in self.entries if e.report):
            return EXIT_UNKNOWN
        return EXIT_OK

    def to_dict(self) -> dict:
        return {
            "scope": SCOPE_NOTE,
            "entries": [
                {
                    "name": e.name,
                    "path": e.path,
                    "error": e.error,
                    "report": e.report.to_dict() if e.report else None,
                }
                for e in self.entries
            ],
            "inconsistencies": self.inconsistencies,
            "exit_code": self.exit_code,
        }


def _analyze_path(path: str) -> CorpusEntry:
    try:
        fx = load_fixture(path)
    except FixtureError as exc:
        return CorpusEntry(name=Path(path).stem, path=str(path), report=None, error=str(exc))
    try:
        report = analyze(fx)
    except TamecertError as exc:
        return CorpusEntry(name=fx.name, path=str(path), report=None, error=str(exc))
    return CorpusEntry(name=fx.name, path=str(path), report=report, error=None)


def corpus_run(directory: str | Path, jobs: int = 1) -> CorpusResult:
    """Analyze every *.json fixture in a directory; errors are collected, not fatal.

    Entries are ordered by fixture name regardless of completion order.  A path
    that is not a directory is a FixtureError, not an empty corpus.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FixtureError(f"{directory}: not a directory")
    tasks = [str(p) for p in sorted(directory.glob("*.json"))]
    if jobs > 1 and len(tasks) > 1:
        from . import _numeric  # noqa: F401  (loaded once here, forked workers inherit numpy)
        # under fork every worker starts at the first submit: no more than there are files
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            entries = list(pool.map(_analyze_path, tasks))
    else:
        entries = [_analyze_path(t) for t in tasks]
    entries.sort(key=lambda e: e.name)
    return CorpusResult(tuple(entries))
