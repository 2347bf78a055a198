"""Decide existence of a closed taming form, with certificates.

The decision pipeline:

  1. exact rank-one pre-check: on subspaces defined by g and J alone (each
     rational weight space of ad g inside [g, g], then [g, g] cap J[g, g]),
     the common radical of the closed Gram forms; a nonzero v in it has
     B(v, Jv) = 0 for every closed 2-form B, so v v^T / |v|^2 is a dual
     certificate and proves infeasibility outright;
  2. projected supgradient ascent maximizing lambda_min(sum c_i S_i) over the
     unit ball of coefficients (S_i = Gram forms of a closed basis), with
     deterministic multi-start.  The restarts step together, one stacked
     eigensolve per step, and a restart leaves the stack when it stalls.  The
     result is the one running the restarts in order gives: the first best
     point, over the restarts up to the first that clears the stop margin;
  3. on a positive margin, continued-fraction rounding back to an exact
     rational form whose Gram is re-proved positive definite by principal
     minors; on a nonpositive margin, alternating projections between the
     affine set {<S_i, P> = 0, tr P = 1} and the PSD cone to produce a dual
     certificate.

Verdicts are Feasible / Infeasible / Unknown; Unknown is an honest outcome
when both certificate searches stall within budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import LieAlgebra, weight_spaces
from .errors import ExactificationFailed
from .forms import ComplexStructure, TwoForm, closed_two_forms, is_integrable, leading_minors_positive, taming_gram
from .linalg import Mat, Subspace, Vec, ZERO, frac, mat_add, mat_scale, mat_vec, nullspace, transpose, vec_dot

DEFAULT_EPS_FEAS = 1e-7
DEFAULT_EPS_DUAL = 1e-8
DEFAULT_RESTARTS = 50
DEFAULT_ITERATIONS = 5000

# a restart stops early once this many iterations pass without improvement
STALL_WINDOW = 300
STALL_TOL = 1e-13

EXACTIFY_DENOMINATOR_BOUNDS = (10**6, 10**8, 10**10, 10**12)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FeasibilityConfig:
    eps_feas: float = DEFAULT_EPS_FEAS
    eps_dual: float = DEFAULT_EPS_DUAL
    restarts: int = DEFAULT_RESTARTS
    iterations: int = DEFAULT_ITERATIONS
    rng_seed: int = 0


@dataclass
class FeasibilityProblem:
    algebra: LieAlgebra
    J: ComplexStructure
    z2_basis: list[TwoForm]
    gram_basis: list[Mat]  # exact symmetric matrices, one per closed basis form
    grams: np.ndarray  # float stack, shape (m, n, n)
    config: FeasibilityConfig
    j_integrable: bool

    @property
    def size(self) -> int:
        return len(self.z2_basis)


@dataclass(frozen=True)
class Feasible:
    omega: TwoForm  # exact rational coefficients
    lambda_min: float  # Gram lambda_min after unit-ball normalization
    exact_pd: bool
    kind: str = field(default="feasible", init=False)


@dataclass(frozen=True)
class Infeasible:
    dual: tuple  # symmetric PSD matrix; exact rationals for rank-one, floats otherwise
    residual: float
    rank_one_direction: Vec | None
    best_primal: float  # best primal margin seen by the ascent
    kind: str = field(default="infeasible", init=False)


@dataclass(frozen=True)
class Unknown:
    best_lambda_min: float
    degenerate_logged: bool = False
    kind: str = field(default="unknown", init=False)


FeasibilityVerdict = Feasible | Infeasible | Unknown


@dataclass(frozen=True)
class DegeneracyDirection:
    vector: Vec
    provenance: str


def build_problem(
    g: LieAlgebra, J: ComplexStructure, config: FeasibilityConfig | None = None
) -> FeasibilityProblem:
    """Assemble the closed-form basis and its Gram forms, exactly then as floats.

    Feasibility is well-defined for any almost complex J; a non-integrable J
    is logged and recorded in j_integrable.
    """
    config = config or FeasibilityConfig()
    integrable = is_integrable(g, J)
    if not integrable:
        logger.warning("J is not integrable; the taming decision still applies")
    basis = closed_two_forms(g)
    gram_basis = [taming_gram(b, J) for b in basis]
    grams = np.array(
        [[[float(x) for x in row] for row in m] for m in gram_basis], dtype=float
    ).reshape(len(gram_basis), g.dim, g.dim)
    return FeasibilityProblem(
        algebra=g,
        J=J,
        z2_basis=basis,
        gram_basis=gram_basis,
        grams=grams,
        config=config,
        j_integrable=integrable,
    )


def degeneracy_precheck(p: FeasibilityProblem) -> DegeneracyDirection | None:
    """Exact search for a universal degeneracy direction.

    The subspaces searched are defined by g and J alone: each rational weight
    space of ad g intersected with D = [g, g], then the J-invariant part
    D cap J D.  On each subspace W the common radical of the closed Gram forms
    restricted to W is an exact nullspace; any nonzero v in it has
    B(v, Jv) = 0 for every closed B.  The radical transforms with a basis
    change, so whether the precheck hits does not depend on the basis.
    """
    g = p.algebra
    derived = g.derived_subalgebra()
    spaces = [(space.intersect(derived), "weight space in [g,g]") for space in weight_spaces(g)]
    j_derived = Subspace.from_vectors(g.dim, [p.J.apply(b) for b in derived.basis])
    spaces.append((derived.intersect(j_derived), "J-invariant part of [g,g]"))
    for w, provenance in spaces:
        if not w.dim:
            continue
        # rows of the stacked restricted Grams B S_i B^T, B the basis rows of w
        rows = [
            [vec_dot(sx, y) for y in w.basis]
            for s in p.gram_basis
            for sx in [mat_vec(s, x) for x in w.basis]
        ]
        radical = nullspace(rows, ncols=w.dim)
        if radical:
            return DegeneracyDirection(vector=mat_vec(transpose(w.basis), radical[0]), provenance=provenance)
    return None


def lambda_min_at(p: FeasibilityProblem, c: np.ndarray) -> float:
    m = np.einsum("i,ijk->jk", np.asarray(c, dtype=float), p.grams)
    return float(np.linalg.eigvalsh(m)[0])


def maximize_lambda_min(
    p: FeasibilityProblem, stop_above: float | None = None
) -> tuple[np.ndarray, float]:
    """Projected supgradient ascent of lambda_min over the coefficient ball.

    Deterministic for a fixed seed: restart 0 starts along the trace
    direction, later restarts draw from per-restart generators seeded by
    (rng_seed, restart).  Each restart stops on stall or after `iterations`
    steps.  Restarts in a group step together, one stacked eigensolve per
    step, and a stalled restart leaves the stack.  Without stop_above all
    restarts form one group; with it, restart 0 runs alone and the rest run
    as one group only if restart 0 did not clear stop_above.

    The result is that of running the restarts one after another: the best
    point of the first restart, in order, with the largest value, taken over
    the restarts up to the first whose best clears stop_above.
    """
    m = p.size
    n = p.algebra.dim
    if m == 0 or n == 0:
        return np.zeros(m), float("-inf") if n else float("inf")
    flat = p.grams.reshape(m, n * n)
    scale = max(float(np.linalg.norm(s)) for s in p.grams)
    scale = scale if scale > 0 else 1.0
    restarts = range(max(1, p.config.restarts))
    iterations = p.config.iterations
    if stop_above is None:
        results = _ascend_stack(flat, n, scale, _starts(p, restarts), iterations, None)
    else:
        results = [_ascend_one(flat, n, scale, _starts(p, restarts[:1])[0], iterations)]
        if results[0][1] <= stop_above and len(restarts) > 1:
            results += _ascend_stack(flat, n, scale, _starts(p, restarts[1:]), iterations, stop_above)
    best_c = np.zeros(m)
    best_val = float("-inf")
    for c, val in results:
        if val > best_val:
            best_c, best_val = c, val
        if stop_above is not None and best_val > stop_above:
            break
    return best_c, best_val


def _starts(p: FeasibilityProblem, restarts: range) -> np.ndarray:
    """The unit start points of the given restarts, one row each."""
    rows = []
    for restart in restarts:
        if restart == 0:
            c = np.array([float(np.trace(s)) for s in p.grams])
            if not np.linalg.norm(c):
                c = np.ones(p.size)
        else:
            c = np.random.default_rng((p.config.rng_seed, restart)).standard_normal(p.size)
        rows.append(c / np.linalg.norm(c))
    return np.array(rows)


def _ascend_one(
    flat: np.ndarray, n: int, scale: float, c: np.ndarray, iterations: int
) -> tuple[np.ndarray, float]:
    """One restart from c: its first best point and value.

    Restart 0 runs here when it runs alone; a stack of one in _ascend_stack
    costs about twice as much per step.
    """
    best_c, best_val = c, float("-inf")
    local_best = float("-inf")
    since_improve = 0
    for t in range(iterations):
        vals, vecs = np.linalg.eigh((c @ flat).reshape(n, n))
        val = float(vals[0])
        if val > local_best + STALL_TOL:
            local_best = val
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= STALL_WINDOW:
                break
        if val > best_val:
            best_c, best_val = c, val
        u = vecs[:, 0]
        c = c + (flat @ np.outer(u, u).ravel()) / (scale * np.sqrt(t + 1.0))
        nrm = np.linalg.norm(c)
        if nrm > 1.0:
            c = c / nrm
    return best_c, best_val


def _ascend_stack(
    flat: np.ndarray,
    n: int,
    scale: float,
    starts: np.ndarray,
    iterations: int,
    stop_above: float | None,
) -> list[tuple[np.ndarray, float]]:
    """The restarts from the rows of starts, stepped together.

    Row r follows the trajectory _ascend_one takes from starts[r].  Once the
    best of some row clears stop_above, the rows after it leave the stack:
    the caller never reads their results.
    """
    best_c = starts.copy()
    best_val = np.full(len(starts), -np.inf)
    rows = np.arange(len(starts))  # the restarts still stepping, with their state
    c = starts
    local_best = best_val.copy()
    since_improve = np.zeros(len(starts), dtype=int)
    for t in range(iterations):
        if not rows.size:
            break
        vals, vecs = np.linalg.eigh((c @ flat).reshape(-1, n, n))
        val = vals[:, 0]
        improved = val > local_best + STALL_TOL
        local_best = np.where(improved, val, local_best)
        since_improve = np.where(improved, 0, since_improve + 1)
        keep = since_improve < STALL_WINDOW
        better = keep & (val > best_val[rows])
        best_val[rows[better]] = val[better]
        best_c[rows[better]] = c[better]
        if stop_above is not None:
            cleared = best_val > stop_above
            if cleared.any():
                keep &= rows <= cleared.argmax()
        u = vecs[:, :, 0]
        c = c + ((u[:, :, None] * u[:, None, :]).reshape(-1, n * n) @ flat.T) / (scale * np.sqrt(t + 1.0))
        c /= np.maximum(np.linalg.norm(c, axis=1), 1.0)[:, None]
        if not keep.all():
            rows, c, local_best, since_improve = rows[keep], c[keep], local_best[keep], since_improve[keep]
    return [(best_c[r], float(best_val[r])) for r in range(len(starts))]


def exactify(p: FeasibilityProblem, c: np.ndarray) -> tuple[TwoForm, float]:
    """Round optimizer coefficients to an exact closed form with a PD Gram.

    Rounds by continued fractions at increasing denominator bounds; the Gram
    positivity is re-proved with exact principal minors.  Raises
    ExactificationFailed when no bound produces a PD certificate.
    """
    c = np.asarray(c, dtype=float)
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        raise ExactificationFailed("zero coefficient vector")
    scaled = c / top
    for bound in EXACTIFY_DENOMINATOR_BOUNDS:
        q = [Fraction(x).limit_denominator(bound) for x in scaled]
        if all(x == 0 for x in q):
            continue
        gram = None
        for qi, s in zip(q, p.gram_basis):
            if qi == 0:
                continue
            term = mat_scale(qi, s)
            gram = term if gram is None else mat_add(gram, term)
        if gram is None or not leading_minors_positive(gram):
            continue
        omega = None
        for qi, b in zip(q, p.z2_basis):
            if qi == 0:
                continue
            term = b.scale(qi)
            omega = term if omega is None else omega.add(term)
        assert omega is not None
        norm = float(np.sqrt(sum(float(x) ** 2 for x in q)))
        lam = float(
            np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in gram]))[0]
        )
        return omega, lam / norm
    raise ExactificationFailed("no denominator bound produced an exactly PD Gram")


def dual_certificate(p: FeasibilityProblem, max_iters: int = 5000) -> tuple[np.ndarray, float] | None:
    """PSD matrix pairing to zero with every closed Gram form, trace one.

    Alternating projections between the affine constraint set and the PSD
    cone; returns (certificate, residual) where the certificate satisfies the
    affine constraints exactly (up to solver roundoff) and the residual is
    its Frobenius distance to the PSD cone.
    """
    n = p.algebra.dim
    if n == 0:
        return None
    rows = [s.reshape(-1) for s in p.grams]
    rows.append(np.eye(n).reshape(-1))
    cmat = np.array(rows)
    b = np.zeros(len(rows))
    b[-1] = 1.0
    pinv = np.linalg.pinv(cmat)

    def proj_affine(x: np.ndarray) -> np.ndarray:
        v = x.reshape(-1)
        return (v - pinv @ (cmat @ v - b)).reshape(n, n)

    def proj_psd(x: np.ndarray) -> np.ndarray:
        sym = (x + x.T) / 2.0
        vals, vecs = np.linalg.eigh(sym)
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.T

    x = np.eye(n) / n
    residual = float("inf")
    tol = p.config.eps_dual / 10.0
    for _ in range(max_iters):
        q = proj_affine(x)
        r = proj_psd(q)
        residual = float(np.linalg.norm(q - r))
        x = r
        if residual < tol:
            break
    q = proj_affine(x)
    residual = float(np.linalg.norm(q - proj_psd(q)))
    if not np.isfinite(residual):
        return None
    if float(np.linalg.norm(cmat @ q.reshape(-1) - b)) > 1e-8:
        return None  # affine set unreachable (or numerically so)
    return q, residual


def _rank_one_dual(p: FeasibilityProblem, v: Vec) -> Mat:
    norm = sum((x * x for x in v), ZERO)
    return [[v[i] * v[j] / norm for j in range(len(v))] for i in range(len(v))]


def decide(
    g: LieAlgebra, J: ComplexStructure, config: FeasibilityConfig | None = None
) -> FeasibilityVerdict:
    """Full pipeline: pre-check, primal ascent, exactify or dual certificate."""
    config = config or FeasibilityConfig()
    p = build_problem(g, J, config)
    if g.dim == 0:
        return Feasible(TwoForm.from_dict(0, {}), float("inf"), True)
    if p.size == 0:
        # no closed 2-forms at all: any trace-one PSD matrix is a certificate
        eye = [[frac(int(i == j)) / g.dim for j in range(g.dim)] for i in range(g.dim)]
        return Infeasible(_freeze_matrix(eye), 0.0, None, float("-inf"))
    direction = degeneracy_precheck(p)
    stop_above = None if direction is not None else max(10 * config.eps_feas, 1e-3)
    c, value = maximize_lambda_min(p, stop_above=stop_above)
    if value > config.eps_feas and direction is None:
        try:
            omega, lam = exactify(p, c)
            return Feasible(omega, lam, True)
        except ExactificationFailed:
            omega, q = _rounded_form(p, c)
            qf = np.array([float(x) for x in q])
            norm = float(np.linalg.norm(qf)) or 1.0
            return Feasible(omega, lambda_min_at(p, qf) / norm, False)
    if direction is not None:
        dual = _rank_one_dual(p, direction.vector)
        return Infeasible(_freeze_matrix(dual), 0.0, direction.vector, value)
    cert = dual_certificate(p)
    if cert is not None and cert[1] <= config.eps_dual:
        q, residual = cert
        return Infeasible(_freeze_matrix(q.tolist()), residual, None, value)
    # near-zero supremum without a certificate: the degenerate boundary case
    return Unknown(best_lambda_min=value, degenerate_logged=abs(value) <= 10 * config.eps_feas)


def _rounded_form(p: FeasibilityProblem, c: np.ndarray) -> tuple[TwoForm, list[Fraction]]:
    top = float(np.max(np.abs(c))) or 1.0
    q = [Fraction(float(x) / top).limit_denominator(10**6) for x in c]
    omega = TwoForm.from_dict(p.algebra.dim, {})
    for qi, b in zip(q, p.z2_basis):
        if qi != 0:
            omega = omega.add(b.scale(qi))
    return omega, q


def _freeze_matrix(m) -> tuple:
    return tuple(tuple(row) for row in m)
