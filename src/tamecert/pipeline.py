"""End-to-end analysis, proof-trace checks, and corpus aggregation.

The analysis report records structural flags, the feasibility verdict with
certificates, and a consistency check against the structure theorem: on a
unimodular completely solvable algebra with integrable J, a Feasible verdict
on a non-abelian algebra is an inconsistency (numerical false positive or
bug) and drives a nonzero exit code; so is any other verdict on an abelian
algebra, which is Kaehler for every J.
"""

from __future__ import annotations

import concurrent.futures
import logging
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import LieAlgebra, _bracket_ints, is_completely_solvable
from .errors import (
    FixtureError,
    NoOneDimIdeal,
    RelationViolation,
    TamecertError,
    TripleVerificationError,
)
from .feasibility import (
    Feasible,
    FeasibilityVerdict,
    Infeasible,
    Unknown,
    decide,
)
from .fixtures import Fixture, load_fixture, rational_str
from .forms import TwoForm, is_integrable
from .linalg import Subspace, Vec, _invariant_part, _scaled
from .reduction import TamedTriple, _dot, find_isotropic_ideal, omega_perp, reduce, reduction_tower

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
            "exact_pd": v.exact_pd,
            "omega": omega_to_entries(v.omega),
        }
    if isinstance(v, Infeasible):
        return {
            "verdict": "infeasible",
            "residual": v.residual,
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

    cs = is_completely_solvable(g)
    solvable = bool(cs) or cs.witness is not None  # the witness is None when g is not solvable
    nilpotent = g.is_nilpotent()
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
        "j_squared_ok": True if j_present else None,  # enforced by the fixture parser
        "integrable": None,
    }
    feas: FeasibilityVerdict | None = None
    integrable = False
    if j_present:
        integrable = is_integrable(g, fixture.J)
        j_status["integrable"] = integrable
        if not integrable:
            logger.warning("J is not integrable; the taming decision still applies")
        feas = decide(g, fixture.J)

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
        reduction = _reduction_summary(g, fixture.omega, fixture.J, unimodular)

    return AnalysisReport(
        name=fixture.name,
        flags=flags,
        j_status=j_status,
        feasibility=feas,
        theorem_consistency=TheoremConsistency(applicable, consistent, detail),
        reduction=reduction,
    )


def _reduction_summary(g: LieAlgebra, omega: TwoForm, J, unimodular_in: bool) -> dict:
    try:
        triple = TamedTriple.build(g, omega, J)
    except TripleVerificationError as exc:
        return {"verified": False, "failed_flags": list(exc.failed_flags)}
    try:
        tower = reduction_tower(triple)
    except TamecertError as exc:
        return {"verified": True, "error": str(exc)}
    preserved = None
    if unimodular_in:
        preserved = all(step.reduced.algebra.is_unimodular()[0] for step in tower.steps)
    return {
        "verified": True,
        "steps": len(tower.steps),
        "terminal_dim": tower.terminal_dim,
        "all_steps_verified": all(step.reduced.verified for step in tower.steps),
        "unimodular_preserved": preserved,
    }


# --- proof trace: the bracket relations of the structure argument ---


@dataclass(frozen=True)
class ProofTraceRow:
    y: Vec
    a: Fraction
    b: Fraction
    z1: Vec
    residuals: dict


@dataclass(frozen=True)
class ProofTraceRecord:
    generator: Vec
    h_scalar: Fraction
    v_space: Subspace
    rows: tuple[ProofTraceRow, ...]
    trace_zero_checked: bool  # trace(ad_Y | v) = sum y_i tr ad_{e_i} = 0, each term by is_unimodular
    reduced_unimodular: bool | None


def _over(v: list[int], d: int) -> Vec:
    """The integer vector v divided by d, in Fractions."""
    return tuple(Fraction(x, d) for x in v)


def proof_trace(t: TamedTriple) -> ProofTraceRecord:
    """Check the bracket relations forced on a tamed completely solvable algebra.

    With X spanning a 1-dimensional isotropic ideal and v = the J-invariant
    complement h^perp cap J(h^perp), every Y in v must satisfy, exactly:

        [X, Y]  = a X,   [X, JY] = b X,
        [JX, Y] = -2b X - a JX + Z1,   [JX, JY] = 2a X - b JX + J Z1,

    with a = Omega([X,Y], JX) / Omega(X, JX) and b likewise for JY.  Z1 is
    what the third relation leaves over, [JX, Y] + 2b X + a JX, and the
    relation holds iff Z1 lies in v.  On a unimodular input trace(ad_Y | v)
    vanishes: relations 1 and 3 put -a and a on ad_Y's diagonal at X and JX,
    so it is tr ad_Y = sum y_i tr ad_{e_i}, and is_unimodular has decided
    that each term is 0.  A nonzero residual is a bug, not a verdict.

    v is spanned by the rows of g that ``linalg._invariant_part``, the
    precheck's kernel for D cap JD, returns on h^perp's scaled rows.

    Every relation is computed on integer rows.  With Omega = W / w, J = J'/e,
    c[u, v] from ``_bracket_ints``, x = s_x X the row of h, y = s Y a row of v,
    q = x.WJ'x, A = c[x, y].WJ'x and B = c[x, J'y].WJ'x: a = A / (c s q) and
    b = B / (c e s q), and each residual and Z1 is one integer vector over
    c s s_x q e^k (k = 0, 1, 1, 2 for relations 1 to 4, and 1 for Z1).
    Fractions are built only for the record and for a ``RelationViolation``.
    """
    g = t.algebra
    if not t.verified:
        raise TripleVerificationError(["proof_trace requires a verified triple"])
    if not is_completely_solvable(g):
        raise NoOneDimIdeal("proof trace requires a completely solvable algebra")
    h = find_isotropic_ideal(t)
    c, table = g._int_table
    e, n = t.J.den, g.dim
    xi, p = h.rows[0], h._pivots[0]
    sx, x = xi[p], h.basis[0]
    j_xi = t.J._apply_ints(xi)  # e s_x JX
    wj_xi = t.omega._apply_ints(j_xi)
    q = _dot(xi, wj_xi)  # w e s_x^2 Omega(X, JX)

    bx = _bracket_ints(table, xi, j_xi)  # c e s_x^2 [X, JX]
    if not h._contains_ints(bx):
        raise RelationViolation("[X, JX] in span(X)", x, _over(bx, c * e * sx * sx))
    h_scalar = Fraction(bx[p], c * e * sx * sx)

    perp = omega_perp(t, h)
    pb, ps = _scaled(perp.rows)
    vspace = Subspace._span(n, _invariant_part(pb, ps, perp._pivots, [t.J._apply_ints(r) for r in pb]))

    rows = []
    for y, basis_y, pivot in zip(vspace.rows, vspace.basis, vspace._pivots):
        s, jy = y[pivot], t.J._apply_ints(y)
        bxy, bxjy = _bracket_ints(table, xi, y), _bracket_ints(table, xi, jy)
        big_a, big_b = _dot(bxy, wj_xi), _dot(bxjy, wj_xi)
        d = c * s * sx * q
        z1 = [q * u + 2 * big_b * v + big_a * w for u, v, w in zip(_bracket_ints(table, j_xi, y), xi, j_xi)]
        bjj = zip(_bracket_ints(table, j_xi, jy), xi, j_xi, t.J._apply_ints(z1))
        r4 = [q * u - 2 * big_a * e * e * v + big_b * w - z for u, v, w, z in bjj]
        residuals = {
            "[X,Y] = aX": _over([q * u - big_a * v for u, v in zip(bxy, xi)], d),
            "[X,JY] = bX": _over([q * u - big_b * v for u, v in zip(bxjy, xi)], d * e),
            "[JX,Y] = -2bX - aJX + Z1": _over([0] * n if vspace._contains_ints(z1) else z1, d * e),
            "[JX,JY] = 2aX - bJX + JZ1": _over(r4, d * e * e),
        }
        for relation, res in residuals.items():
            if any(res):
                raise RelationViolation(relation, basis_y, res)
        a, b = Fraction(big_a, c * s * q), Fraction(big_b, c * e * s * q)
        rows.append(ProofTraceRow(y=basis_y, a=a, b=b, z1=_over(z1, d * e), residuals=residuals))

    unimodular, _ = g.is_unimodular()
    reduced_unimodular = None
    if unimodular:
        reduced_unimodular = reduce(t, h).reduced.algebra.is_unimodular()[0]
        if not reduced_unimodular:
            raise RelationViolation("reduced algebra unimodular", x, ())

    return ProofTraceRecord(
        generator=x,
        h_scalar=h_scalar,
        v_space=vspace,
        rows=tuple(rows),
        trace_zero_checked=bool(unimodular and vspace.dim),
        reduced_unimodular=reduced_unimodular,
    )


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
