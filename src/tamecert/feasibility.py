"""Decide existence of a closed taming form, with certificates.

The decision pipeline:

  1. exact rank-one pre-check: on subspaces defined by g and J alone (each
     rational weight space of ad g inside [g, g], then [g, g] cap J[g, g]),
     the common radical of the closed Gram forms; a nonzero v in it has
     B(v, Jv) = 0 for every closed 2-form B, so v v^T / |v|^2 is a dual
     certificate and proves infeasibility outright.  It also caps every
     lambda_min(sum c_i S_i) at 0, so the maximum of step 2 is exactly 0,
     at c = 0: a hit is returned at once, with no solve;
  2. when the pre-check finds nothing, the Frobenius projection of I onto
     span{S_i} (S_i = Gram forms of a closed basis), one least-squares solve
     scaled onto the unit sphere; a lambda_min above PROJECTION_MARGIN goes
     to step 3 without a barrier solve.  Otherwise one deterministic
     log-barrier path-following solve maximizing
     lambda_min(sum c_i S_i) over the unit ball of coefficients: Newton
     steps on the barrier of the small SDP
     "maximize t with sum c_i S_i - t I > 0, |c| < 1" for the barrier
     weights tau = 1, 1e6, 1e12; far from the central path a step goes
     STEP_FRACTION of the way to the boundary along the Newton direction,
     never less than the damped step; before the last tau each centering
     stops inside the region of quadratic convergence, and at the last tau,
     the first with duality-gap bound below GAP_TOL, it runs to NEWTON_TOL.
     The path is solved once per problem and read by both lanes of step 3.
     Over the ball the supremum is never below 0 (c = 0), and it is 0
     exactly when no closed form tames J;
  3. on a positive margin, one continued-fraction rounding back to an exact
     rational form whose Gram is re-proved positive definite by principal
     minors (a projection point that fails it gives way to the solve's
     point, rounded the same way); when that gives no Feasible, the
     solve's own dual iterate X = F^-1 / tr F^-1, rounded to rationals,
     moved exactly onto the affine set {<S_i, X> = 0, tr X = 1} and
     re-proved positive definite the same way (the Peyrl-Parrilo pattern,
     Theor. Comput. Sci. 2008).  A PD closed
     Gram and a PSD trace-one matrix pairing to zero with every closed Gram
     cannot both exist, so the lane order can never change a verdict.

Verdicts are Feasible / Infeasible / Unknown.  Every Feasible and Infeasible
verdict carries an exact rational certificate; when neither lane of step 3
re-proves, the verdict is Unknown.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import lcm

import numpy as np

from .algebra import LieAlgebra, _weight_spaces
from .errors import ExactificationFailed
from .forms import ComplexStructure, TwoForm, _gram_ints, closed_two_forms, is_taming, taming_gram
from .linalg import ZERO, Mat, Subspace, Vec, _cleared, _echelon, _kernel, _symmetric, clear_denominators, leading_minors_positive

DEGENERATE_MARGIN = 1e-6  # an Unknown margin this near 0 is logged as the degenerate boundary case

# the barrier solve: tau grows by TAU_STEP until the gap bound (n + 1) / tau
# is below GAP_TOL, so tau = 1, 1e6, 1e12 for every n up to 16.  While the
# decrement exceeds DAMPED_DECREMENT a Newton step goes STEP_FRACTION of the
# way to the boundary, but never less than the damped step 1 / (1 + decrement);
# centering stops there at every tau but the last, and at NEWTON_TOL at the last
DAMPED_DECREMENT = 0.25
STEP_FRACTION = 0.9
NEWTON_TOL = 1e-6
GAP_TOL = 1e-10
TAU_STEP = 1e6
MAX_CENTERING_STEPS = 100

# on a precheck miss decide asks maximize_lambda_min for a margin above this,
# so that a projection of I clearing it skips the solve; perfbench/spans.py
# replays that same call.  It never picks a verdict: exactify re-proves the point
PROJECTION_MARGIN = 1e-3

EXACTIFY_DENOMINATOR_BOUND = 10**6
DUAL_DENOMINATOR_BOUND = 1000

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FeasibilityConfig:
    """Unread, as decide has no tolerance; kept with FeasibilityProblem.config
    only because perfbench/spans.py builds FeasibilityProblem positionally."""

    eps_feas: float = 1e-7
    eps_dual: float = 1e-8


@dataclass
class FeasibilityProblem:
    algebra: LieAlgebra
    J: ComplexStructure
    z2_basis: list[TwoForm]
    gram_basis: list[Mat]  # taming_gram of each closed form, the source of grams; no exact lane reads it
    grams: np.ndarray  # float stack, shape (m, n, n)
    config: FeasibilityConfig  # unread; see FeasibilityConfig
    # unread, and build_problem leaves it None: analyze tests integrability itself;
    # kept only because perfbench/spans.py builds FeasibilityProblem positionally
    j_integrable: bool | None = None

    @property
    def size(self) -> int:
        return len(self.z2_basis)

    @cached_property
    def degeneracy_direction(self) -> DegeneracyDirection | None:
        """The exact rank-one search of degeneracy_precheck, run once per problem.

        degeneracy_precheck returns it, and maximize_lambda_min reads it first.
        """
        return _degeneracy_search(self)

    @cached_property
    def barrier_path(self) -> tuple[np.ndarray, np.ndarray]:
        """The barrier solve's last iterate (c, t) and its dual iterate, solved once per problem.

        Only a precheck miss reaches it: maximize_lambda_min and
        dual_certificate both read it; the fields are not to be changed once
        it is read.
        """
        return _barrier_path(self)


@dataclass(frozen=True)
class Feasible:
    omega: TwoForm  # exact rational coefficients
    lambda_min: float  # Gram lambda_min after unit-ball normalization
    exact_pd: bool  # always True: decide returns Unknown when exactify fails
    kind: str = field(default="feasible", init=False)


@dataclass(frozen=True)
class Infeasible:
    dual: tuple  # symmetric PSD matrix of exact rationals, trace one
    residual: float  # always 0.0: the dual meets its constraints exactly
    rank_one_direction: Vec | None
    best_primal: float  # 0.0 on a rank-one verdict, the exact maximum; else the solve's margin
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


def build_problem(g: LieAlgebra, J: ComplexStructure) -> FeasibilityProblem:
    """Assemble the closed-form basis and its Gram forms, exactly then as floats.

    Feasibility is well-defined for any almost complex J, so J's integrability
    is not tested here: only analyze's theorem sweep reads it.
    """
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
        config=FeasibilityConfig(),
    )


def degeneracy_precheck(p: FeasibilityProblem) -> DegeneracyDirection | None:
    """Exact search for a universal degeneracy direction.

    The subspaces searched are defined by g and J alone: each nonzero
    intersection of a rational weight space of ad g with D = [g, g], then the
    J-invariant part D cap J D.  The weight spaces are sought inside Z cap D
    only, Z the centralizer of D, so no characteristic polynomial is larger
    than dim D, and D cap J D is built only once every weight space has
    missed.  On each subspace W, with integer basis b, the common radical of
    the closed Gram forms restricted to W is one exact kernel (``_kernel``)
    of the w x w Grams 2 den G_i(b_s, b_t) = B_i(b_s, J' b_t) + B_i(b_t, J' b_s),
    J' = den J, read off each closed form's integer coefficients, with no
    n x n Gram; any nonzero v in it has B(v, Jv) = 0 for every closed B.  On
    a line, w = 1, the Grams are 1 x 1 and no kernel is taken: the radical is
    the line when every one of them is 0, and 0 otherwise.  The
    radical transforms with a basis change, so whether the precheck hits does
    not depend on the basis.  The search runs once per problem
    (FeasibilityProblem.degeneracy_direction).
    """
    return p.degeneracy_direction


def _degeneracy_search(p: FeasibilityProblem) -> DegeneracyDirection | None:
    g = p.algebra
    derived = g.derived_subalgebra()
    # each closed form as ints over the columns of keys, the pairs (a, b) some form reads
    keys = sorted({key for form in p.z2_basis for key, _ in form.coeffs})
    column = {key: k for k, key in enumerate(keys)}
    forms = [[(column[key], x) for key, x in form._ints[1]] for form in p.z2_basis]

    def spaces():
        for space in _weight_spaces(g, derived, inside_derived=True):
            yield space, "weight space in [g,g]"
        jd = [p.J._apply_ints(r) for r in derived.rows]  # den J [g, g], in ints
        yield derived.intersect(Subspace._span(g.dim, jd)), "J-invariant part of [g,g]"

    for w, provenance in spaces():
        if not w.dim:
            continue
        # b = scale * w.basis in ints, jb = den J b; 2 den G_i(b_s, b_t) = B_i(b_s, jb_t) + B_i(b_t, jb_s),
        # the form's coefficients dotted with one wedge vector per pair s <= t
        pivots = w.pivots()
        scale = lcm(*(row[q] for row, q in zip(w.rows, pivots)))
        b = [[x * (scale // row[q]) for x in row] for row, q in zip(w.rows, pivots)]
        jb = [p.J._apply_ints(v) for v in b]
        grams = [[[0] * w.dim for _ in b] for _ in forms]
        for s, t in combinations_with_replacement(range(w.dim), 2):
            x, y, jx, jy = b[s], b[t], jb[s], jb[t]
            wedge = [x[i] * jy[j] - x[j] * jy[i] + y[i] * jx[j] - y[j] * jx[i] for i, j in keys]
            for gram, form in zip(grams, forms):
                gram[s][t] = gram[t][s] = sum(c * wedge[k] for k, c in form)
        if w.dim == 1:  # the line is its own radical when every 1 x 1 Gram is 0, and else the radical is 0
            radical, radical_pivots = ([] if any(gram[0][0] for gram in grams) else [[1]]), [0]
        else:
            radical, radical_pivots = _kernel([row for gram in grams for row in gram], w.dim)
        if radical:
            # the first reduced-echelon radical vector, radical[0] / its pivot, times b / scale
            den = radical[0][radical_pivots[0]] * scale
            vector = tuple(Fraction(sum(y * x for y, x in zip(radical[0], col)), den) for col in zip(*b))
            return DegeneracyDirection(vector=vector, provenance=provenance)
    return None


def maximize_lambda_min(
    p: FeasibilityProblem, stop_above: float | None = None
) -> tuple[np.ndarray, float]:
    """Maximize lambda_min(sum c_i S_i) over the unit ball of coefficients.

    One deterministic log-barrier path-following solve (an interior-point
    method for this small SDP, as in Helmberg-Rendl-Vanderbei-Wolkowicz 1996)
    of: maximize t subject to F(c, t) = sum c_i S_i / scale - t I > 0 and
    |c| < 1.  It starts at c = 0, t = -1, strictly feasible for every
    problem, and minimizes -tau t - log det F - log(1 - |c|^2) by Newton
    steps for tau = 1, TAU_STEP, TAU_STEP^2, centering fully only at the
    final tau, the first with gap bound (n + 1) / tau below GAP_TOL.  A
    factorization that fails near the boundary keeps the last strictly
    feasible iterate.  The path is solved once per problem
    (FeasibilityProblem.barrier_path), and dual_certificate reuses it.

    Returns that iterate's c and the float lambda_min of sum c_i S_i there.
    When the precheck has a direction (FeasibilityProblem.degeneracy_direction),
    the maximum is exactly 0, at c = 0, and that is returned with no solve.
    Otherwise, with stop_above set, the Frobenius projection of I onto
    span{S_i}, one least-squares solve scaled onto the unit sphere, is tried
    first and returned without a barrier solve when its lambda_min exceeds
    stop_above: a point the caller re-proves, not the maximizer.
    """
    m = p.size
    n = p.algebra.dim
    if m == 0 or n == 0:
        return np.zeros(m), float("-inf") if n else float("inf")
    if p.degeneracy_direction is not None:
        return np.zeros(m), 0.0
    if stop_above is not None:
        c = np.linalg.lstsq(p.grams.reshape(m, n * n).T, np.eye(n).ravel(), rcond=None)[0]
        c = c / (np.linalg.norm(c) or 1.0)
        value = _lambda_min(p, c)
        if value > stop_above:
            return c, value
    c = p.barrier_path[0][:m].copy()
    return c, _lambda_min(p, c)


def _lambda_min(p: FeasibilityProblem, c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.einsum("i,ijk->jk", c, p.grams))[0])


def _barrier_path(p: FeasibilityProblem) -> tuple[np.ndarray, np.ndarray]:
    """The last strictly feasible iterate x = (c, t) of the solve, and its dual iterate.

    While the decrement delta exceeds DAMPED_DECREMENT, x moves by alpha dx
    with alpha = max(min(1, STEP_FRACTION alpha_max), 1 / (1 + delta)):
    STEP_FRACTION of the distance alpha_max to the boundary (_max_step),
    with the damped Newton step, which needs no alpha_max, as its floor.
    Below DAMPED_DECREMENT full Newton steps converge quadratically.
    Before the final tau, centering stops there; only the final tau is
    centred to NEWTON_TOL, and the gap bound and the dual iterate are read
    there.  The dual iterate is X = F(x)^-1 / tr F(x)^-1.
    At a centred point tr F^-1 = tau and <S_k / scale, X> = 2 c_k / (r tau),
    r = 1 - |c|^2, so X tends to a dual optimum: PSD, trace one, pairing to
    zero with every S_k.
    """
    n = p.algebra.dim
    scale = max(float(np.linalg.norm(s)) for s in p.grams)
    scale = scale if scale > 0 else 1.0
    # F(x) = sum_k x_k A_k for x = (c, t), A = (S_1/scale, ..., S_m/scale, -I)
    a = np.concatenate([p.grams / scale, -np.eye(n)[None]])
    a_flat = a.reshape(len(a), n * n)
    x = np.zeros(len(a))
    x[-1] = -1.0
    good, good_linv = x, np.eye(n)  # F(x) = I here
    tau = 1.0
    while True:
        final = (n + 1) / tau < GAP_TOL
        tol = NEWTON_TOL if final else DAMPED_DECREMENT
        last = np.inf
        for _ in range(MAX_CENTERING_STEPS):
            try:
                dx, delta, linv, w = _newton_step(a, a_flat, x, tau)
            except np.linalg.LinAlgError:
                return _with_dual(good, good_linv)
            good, good_linv = x, linv
            # centered, or a full step no longer shrinks the decrement: roundoff
            if delta <= tol or last <= delta <= DAMPED_DECREMENT:
                break
            last = delta
            if delta > DAMPED_DECREMENT:
                dx = dx * max(min(1.0, STEP_FRACTION * _max_step(w, x[:-1], dx)), 1.0 / (1.0 + delta))
            x = x + dx
        if final:
            return _with_dual(good, good_linv)
        tau *= TAU_STEP


def _with_dual(x: np.ndarray, linv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and the dual iterate F(x)^-1 / tr F(x)^-1 from the inverse Cholesky factor of F(x)."""
    finv = np.einsum("ki,kj->ij", linv, linv)  # F^-1 = L^-T L^-1
    return x, finv / np.trace(finv)


def _newton_step(
    a: np.ndarray, a_flat: np.ndarray, x: np.ndarray, tau: float
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Newton direction and decrement of -tau t - log det F - log(1 - |c|^2) at x = (c, t).

    a is the stack A_k, and a_flat the same stack as rows of length n^2.
    With F = L L^T and W_k = L^-1 A_k L^-T, the gradient of -log det F is
    -tr W_k and its Hessian is <W_j, W_k>.  Also returns L^-1 and the stack
    W_k.  Raises LinAlgError when x is not strictly feasible or the Hessian
    is singular.
    """
    c = x[:-1]
    r = 1.0 - c @ c
    if not r > 0.0:
        raise np.linalg.LinAlgError("outside the coefficient ball")
    linv = np.linalg.inv(np.linalg.cholesky((x @ a_flat).reshape(a.shape[1:])))
    w = linv @ a @ linv.T
    grad = -np.einsum("kii->k", w)
    w_flat = w.reshape(len(x), -1)
    # einsum, not a BLAS product: one summation order whatever the BLAS thread
    # count, and no thread wake-ups (with two threads, a first dim-12 solve
    # took 1 s against 0.1 s)
    hess = np.einsum("ij,kj->ik", w_flat, w_flat)
    grad[-1] -= tau
    grad[:-1] += 2.0 * c / r
    hess[:-1, :-1] += (4.0 / r**2) * np.outer(c, c)
    hess.flat[: -1 : len(x) + 1] += 2.0 / r  # the diagonal of the c block
    dx = -np.linalg.solve(hess, grad)
    return dx, float(np.sqrt(max(-(grad @ dx), 0.0))), linv, w


def _max_step(w: np.ndarray, c: np.ndarray, dx: np.ndarray) -> float:
    """The distance alpha_max to the boundary from x = (c, t) along dx.

    w holds the W_k of _newton_step at x, so F(x + alpha dx) =
    L (I + alpha W(dx)) L^T with W(dx) = sum dx_k W_k: F stays PD up to
    -1 / lambda_min(W(dx)).  The ball |c + alpha dc| < 1 ends at the
    positive root of |dc|^2 alpha^2 + 2 (c . dc) alpha - (1 - |c|^2) = 0.
    Returns the smaller of the two, inf when neither bounds the step.
    """
    lam = float(np.linalg.eigvalsh((dx @ w.reshape(len(dx), -1)).reshape(w.shape[1:]))[0])
    alpha = -1.0 / lam if lam < 0.0 else np.inf
    dc = dx[:-1]
    dd, cd = dc @ dc, c @ dc
    if dd > 0.0:
        alpha = min(alpha, float((np.sqrt(cd * cd + dd * (1.0 - c @ c)) - cd) / dd))
    return alpha


def exactify(p: FeasibilityProblem, c: np.ndarray) -> tuple[TwoForm, float]:
    """Round optimizer coefficients to an exact closed form with a PD Gram.

    Rounds c / max|c_i|, whose largest entry stays +-1, once by continued
    fractions at EXACTIFY_DENOMINATOR_BOUND; an entry that is exactly 0.0
    is 0, as that rounding would give, with no continued fraction.  Sums the
    nonzero q_i B_i in ints over one common denominator from each form's
    ``TwoForm._ints`` (omega's reduced Fractions do not depend on which),
    builds omega once from that sum, and re-proves its Gram positive
    definite with exact principal minors (``is_taming``), else raises
    ExactificationFailed.  The margin is the Gram's lambda_min over |q|.
    """
    c = np.asarray(c, dtype=float)
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        raise ExactificationFailed("zero coefficient vector")
    q = [Fraction(x).limit_denominator(EXACTIFY_DENOMINATOR_BOUND) if x else ZERO for x in c / top]
    # d sum q_i B_i in ints, B_i = W_i / w_i (``TwoForm._ints``), d the lcm of the w_i q_i.denominator
    # over the nonzero q_i: a zero term adds nothing, and omega's Fractions are reduced either way
    terms = [(qi, b) for qi, b in zip(q, p.z2_basis) if qi]
    d = lcm(*(qi.denominator * b._ints[0] for qi, b in terms))
    coeffs = {}
    for qi, b in terms:
        f = qi.numerator * (d // (qi.denominator * b._ints[0]))
        for key, x in b._ints[1]:
            coeffs[key] = coeffs.get(key, 0) + f * x
    omega = TwoForm(p.algebra.dim, tuple((key, Fraction(x, d)) for key, x in sorted(coeffs.items()) if x))
    taming = is_taming(omega, p.J)  # the Gram of omega is sum q_i S_i, as the Gram is linear in omega
    if not taming:
        raise ExactificationFailed("the rounded Gram is not exactly positive definite")
    norm = float(np.sqrt(sum(float(x) ** 2 for x in q)))
    return omega, taming.margin / norm


def dual_certificate(p: FeasibilityProblem) -> tuple[Mat, float] | None:
    """Exact PSD matrix of trace one pairing to zero with every closed Gram form.

    Rounds the dual iterate of the barrier solve to rationals of denominator
    at most DUAL_DENOMINATOR_BOUND, symmetrizes it, and moves it exactly onto
    {<S_i, X> = 0, tr X = 1} by the least-squares correction R^T y, with R
    the rows S_1, ..., S_m, I and (R R^T) y = R X - (0, ..., 0, 1) read off
    one integer elimination (``linalg._echelon``).  Each S_i is read as
    d_i S_i in ints off its closed form (``forms._gram_ints``, the kernel of
    ``taming_gram``), the rounded X is cleared to ints once, and the normal
    equations are formed on those rows; positive row scales leave the
    correction, the unique projection onto that affine set, unchanged, and
    the certificate's positive scale cancels in ``_symmetric``.
    Returns (certificate, 0.0) when exact leading minors prove the corrected
    matrix positive definite, and None otherwise: when the affine set is
    empty (I lies in span{S_i}) or the optimum sits on the boundary of the
    PSD cone, so that only a singular dual exists.
    """
    n = p.algebra.dim
    if n == 0:
        return None
    x = p.barrier_path[1]
    x = (x + x.T) / 2.0
    q, e = clear_denominators([[Fraction(v).limit_denominator(DUAL_DENOMINATOR_BOUND) for v in row] for row in x])
    q = [v for row in q for v in row]  # e X, flattened
    rows = [[v for row in _gram_ints(b, p.J)[0] for v in row] for b in p.z2_basis]  # d_i S_i
    rows.append([int(i == j) for i in range(n) for j in range(n)])
    rhs = [sum(a * b for a, b in zip(r, q)) for r in rows]
    rhs[-1] -= e
    # the reduced echelon form of (R R^T | rhs): a pivot in the last column means no solution;
    # otherwise y, e times the multipliers of these rows, is row[-1] / row[k] at each pivot k, 0 elsewhere
    red, pivots = _echelon([[sum(a * b for a, b in zip(r, t)) for t in rows] + [v] for r, v in zip(rows, rhs)])
    if pivots and pivots[-1] == len(rows):
        return None
    f = lcm(*(row[k] for row, k in zip(red, pivots)))
    fy = [(row[-1] * (f // row[k]), rows[k]) for row, k in zip(red, pivots)]  # f y_k, with its row, at each pivot k
    flat = [f * v - sum(yk * r[k] for yk, r in fy) for k, v in enumerate(q)]  # e f times the certificate
    cert = [flat[i * n : (i + 1) * n] for i in range(n)]
    if not leading_minors_positive(cert):
        return None
    return _symmetric(cert, e * f), 0.0


def _rank_one_dual(v: Vec) -> Mat:
    """v v^T / |v|^2, built as a a^T / |a|^2 from the integer numerators a of v."""
    a = _cleared(v)[0]
    return _symmetric([[x * y for y in a] for x in a], sum(x * x for x in a))


def decide(g: LieAlgebra, J: ComplexStructure) -> FeasibilityVerdict:
    """Pre-check, projection or barrier solve, then exactify on a positive margin
    and, failing a Feasible, dual_certificate; both re-prove exactly, so no
    threshold picks a verdict."""
    return _decide(build_problem(g, J))


def _decide(p: FeasibilityProblem) -> FeasibilityVerdict:
    """decide on a built problem; for n >= 1 the closed basis is never empty, as
    it holds d(g*) when [g, g] != 0 and every 2-form when g is abelian."""
    if p.algebra.dim == 0:
        return Feasible(TwoForm.from_dict(0, {}), float("inf"), True)
    direction = degeneracy_precheck(p)
    if direction is not None:  # the exact maximum is 0: nothing is left to solve
        return Infeasible(_freeze_matrix(_rank_one_dual(direction.vector)), 0.0, direction.vector, 0.0)
    c, value = maximize_lambda_min(p, PROJECTION_MARGIN)
    feasible = _exactified(p, c, value)
    if feasible is None:
        solved = maximize_lambda_min(p)  # a projection point that did not round gives way to the solve's
        if not np.array_equal(solved[0], c):
            c, value = solved
            feasible = _exactified(p, c, value)
    if feasible is not None:
        return feasible
    cert = dual_certificate(p)
    if cert is not None:
        return Infeasible(_freeze_matrix(cert[0]), cert[1], None, value)
    # no certificate re-proved exactly; a near-zero supremum is the degenerate boundary case
    degenerate = abs(value) <= DEGENERATE_MARGIN
    logger.warning(
        "no exact certificate: verdict Unknown, best margin %.3g, degenerate boundary case: %s", value, degenerate
    )
    return Unknown(best_lambda_min=value, degenerate_logged=degenerate)


def _exactified(p: FeasibilityProblem, c: np.ndarray, value: float) -> Feasible | None:
    """Feasible with exactify's form on a positive margin, else None."""
    if value > 0:
        try:
            omega, lam = exactify(p, c)
            return Feasible(omega, lam, True)
        except ExactificationFailed:
            pass
    return None


def _freeze_matrix(m) -> tuple:
    return tuple(tuple(row) for row in m)
