"""Decide existence of a closed taming form, with certificates.

The decision pipeline:

  1. exact rank-one pre-check: on subspaces W of D = [g, g] defined by g and
     J alone, the common radical of the closed Gram forms formed on W's own
     rows.  D cap JD comes first: it is 0 when D is a line and D when J maps
     D into D, and otherwise costs one kernel and is searched before any
     Gram is formed on D, so that a hit there pays for no miss test.  Then
     the Grams on D, one of which, or their plain sum (the Gram of the
     closed form W_1 + ... + W_m, B_i = W_i / w_i), definite there proves a
     miss, as it leaves no radical in any subspace of D; so no result
     depends on that order.  Then D itself when it is J-invariant, and each
     rational weight space of ad g in D, the costliest kind, as it takes
     characteristic polynomials and root isolation.  A nonzero v in a
     radical has B(v, Jv) = 0 for every closed B, so v v^T / |v|^2 is a dual
     certificate and proves infeasibility outright, and caps the maximum of
     step 2 at exactly 0, at c = 0: a hit is returned at once, with no solve;
  2. when the pre-check finds nothing, the Frobenius projection of I onto
     span{S_i} (S_i = Gram forms of a closed basis), one least-squares solve
     scaled onto the unit sphere; a lambda_min above PROJECTION_MARGIN goes
     to step 3 without a barrier solve.  Otherwise one deterministic
     log-barrier path-following solve maximizing
     lambda_min(sum c_i S_i) over the unit ball of coefficients: Newton
     steps on the barrier of the small SDP
     "maximize t with sum c_i S_i - t I > 0, |c| < 1" for the barrier
     weights tau = 1, 1e6, 1e12 (``_numeric.barrier_path``), solved once
     per problem and read by both lanes of step 3.
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
re-proves, the verdict is Unknown.  The float steps (the Gram stack, the
projection, lambda_min and the barrier solve) live in ``_numeric``, the one
module that imports numpy, loaded on first use.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, sqrt
from typing import TYPE_CHECKING, Iterator

from .algebra import LieAlgebra, _weight_spaces
from .errors import ExactificationFailed, NotAComplexStructure
from .forms import ComplexStructure, TwoForm, _gram_ints, closed_two_forms, is_taming, taming_gram
from .linalg import (
    ZERO, Mat, Vec, _cleared, _dot, _echelon, _invariant_part, _kernel, _scaled, _symmetric, clear_denominators,
    leading_minors_positive,
)

if TYPE_CHECKING:
    from ._numeric import np

DEGENERATE_MARGIN = 1e-6  # an Unknown margin this near 0 is logged as the degenerate boundary case

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
        from . import _numeric
        return _numeric.barrier_path(self.grams)


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
    is not tested here: only analyze's theorem sweep reads it.  A J of another
    dimension than g raises ``NotAComplexStructure``.
    """
    from . import _numeric
    if J.dim != g.dim:
        raise NotAComplexStructure("J dimension does not match the algebra")
    basis = closed_two_forms(g)
    gram_basis = [taming_gram(b, J) for b in basis]
    return FeasibilityProblem(
        algebra=g,
        J=J,
        z2_basis=basis,
        gram_basis=gram_basis,
        grams=_numeric.gram_stack(gram_basis, g.dim),
        config=FeasibilityConfig(),
    )


def degeneracy_precheck(p: FeasibilityProblem) -> DegeneracyDirection | None:
    """Exact search for a universal degeneracy direction.

    The closed Gram forms are formed on integer rows x of g, as the Grams
    2 den w_i G_i(x_s, x_t) = x_s . W_i J'x_t + x_t . W_i J'x_s, B_i = W_i / w_i
    and J' = den J, applied only through their classes (``_apply_ints``).
    It searches subspaces W of D = [g, g] defined by g and J alone, with D's
    echelon rows b, the cheaper first.  D cap JD is J-invariant, so of even
    dimension: it is 0 when D is a line, with no kernel; D itself when every
    J'b lies in D, searched after the miss test on D's Grams; and otherwise
    the kernel of v -> Jv mod D on b, as rows of g (``linalg._invariant_part``,
    which also gives the proof trace's v = h^perp cap J h^perp), searched
    before any Gram is formed on b, so that a hit there does not pay for the
    miss test.  That test forms the Grams on b: if one of them, or their
    sum, is definite (exact leading minors of G or -G), no nonzero v in D
    has B(v, Jv) = 0 for every closed B, so no subspace of D has a radical,
    and the search ends with a miss, as it does at once when D = 0; so
    taking D cap JD first moves no hit, direction or provenance.  Last come
    the rational weight spaces of ad g in D, sought inside Z cap D (Z the
    centralizer of D, so no characteristic polynomial is larger than dim D)
    at the cost of a characteristic polynomial and a root isolation per free
    basis vector.  Either kind, searched first, hits on the same inputs; the
    order picks the direction only where both kinds hold one.
    The common radical of the Grams on W's own echelon rows (D's when W = D)
    is one exact kernel, and W itself, with no kernel, when every Gram on W
    is 0.  It transforms with a basis change, so whether the precheck
    hits does not depend on the basis.  The search runs once per problem
    (FeasibilityProblem.degeneracy_direction).
    """
    return p.degeneracy_direction


def _definite(m: list[list[int]]) -> bool:
    """Whether a nonempty symmetric integer matrix is definite: its diagonal has the sign s of m[0][0],
    and Sylvester's test holds for s m."""
    s = m[0][0]
    return all(row[k] * s > 0 for k, row in enumerate(m)) and leading_minors_positive([[s * x for x in r] for r in m])


def _grams(p: FeasibilityProblem, rows: list[list[int]], jrows: list[list[int]]) -> Iterator[list[list[int]]]:
    """2 den w_i G_i(x_s, x_t) = x_s . W_i J'x_t + x_t . W_i J'x_s for each closed form B_i = W_i / w_i, in turn,
    on integer rows x of g with jrows = J'x (``TwoForm._apply_ints``, ``ComplexStructure._apply_ints``)."""
    for form in p.z2_basis:
        wj = [form._apply_ints(jy) for jy in jrows]
        m = [[_dot(x, y) for y in wj] for x in rows]
        yield [[a + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]


def _degeneracy_search(p: FeasibilityProblem) -> DegeneracyDirection | None:
    g = p.algebra
    derived = g.derived_subalgebra()
    if not derived.rows:  # D = 0 holds no v
        return None
    # b = scale * D's reduced-echelon basis in ints, jb = den J b
    b, scale = _scaled(derived.rows)
    jb = [p.J._apply_ints(v) for v in b]
    # D cap JD is J-invariant, so of even dimension: 0 on a line, and D when J maps D into D, with no kernel
    j_stable = len(b) % 2 == 0 and all(map(derived._contains_ints, jb))

    def spaces():  # each subspace W of D by its echelon integer rows in g, with D's Grams once formed
        # a proper D cap JD first, one kernel: a hit there forms no Gram on D, and a definite exit on D leaves
        # no radical in any W, so the order moves no result; then D's exits, and the charpolys last
        if len(b) > 1 and not j_stable:
            yield _invariant_part(b, scale, derived._pivots, jb), "J-invariant part of [g,g]", None
        grams = list(_grams(p, b, jb))
        # a Gram definite on D leaves no v != 0 in D with B(v, Jv) = 0, so no subspace of D has a radical;
        # so does their plain sum, 2 den times the Gram of the closed form W_1 + ... + W_m (B_i = W_i / w_i)
        if any(map(_definite, grams)) or _definite([list(map(sum, zip(*rows))) for rows in zip(*grams)]):
            return
        if j_stable:
            yield b, "J-invariant part of [g,g]", grams
        for space in _weight_spaces(g, derived, derived):
            yield space.rows, "weight space in [g,g]", grams

    for rows, provenance, grams in spaces():
        if not rows:
            continue
        # x = s * W's reduced-echelon basis: its Grams are those of that basis times s^2 > 0, D's own when W = D
        x, s = _scaled(rows)
        restricted = grams if x == b else list(_grams(p, x, [p.J._apply_ints(v) for v in x]))
        if not any(any(map(any, gram)) for gram in restricted):  # W is its own radical: its first row over s
            return DegeneracyDirection(tuple(Fraction(v, s) for v in x[0]), provenance)
        if len(x) == 1:  # a line with a nonzero 1 x 1 Gram has radical 0
            continue
        radical, radical_pivots = _kernel([row for gram in restricted for row in gram], len(x))
        if radical:
            # the first reduced-echelon radical vector, radical[0] / its pivot, in W's basis x / s
            den = radical[0][radical_pivots[0]] * s
            return DegeneracyDirection(tuple(Fraction(_dot(radical[0], col), den) for col in zip(*x)), provenance)
    return None


def maximize_lambda_min(
    p: FeasibilityProblem, stop_above: float | None = None
) -> tuple[np.ndarray, float]:
    """Maximize lambda_min(sum c_i S_i) over the unit ball of coefficients.

    One deterministic log-barrier path-following solve (an interior-point
    method for this small SDP, as in Helmberg-Rendl-Vanderbei-Wolkowicz 1996)
    of: maximize t subject to F(c, t) = sum c_i S_i / scale - t I > 0 and
    |c| < 1 (``_numeric.barrier_path``).  The path is solved once per problem
    (FeasibilityProblem.barrier_path), and dual_certificate reuses it.

    Returns that iterate's c and the float lambda_min of sum c_i S_i there.
    When the precheck has a direction (FeasibilityProblem.degeneracy_direction),
    the maximum is exactly 0, at c = 0, and that is returned with no solve.
    Otherwise, with stop_above set, the Frobenius projection of I onto
    span{S_i}, one least-squares solve scaled onto the unit sphere, is tried
    first and returned without a barrier solve when its lambda_min exceeds
    stop_above: a point the caller re-proves, not the maximizer.
    """
    from . import _numeric
    m = p.size
    n = p.algebra.dim
    if m == 0 or n == 0:
        return _numeric.np.zeros(m), float("-inf") if n else float("inf")
    if p.degeneracy_direction is not None:
        return _numeric.np.zeros(m), 0.0
    if stop_above is not None:
        c = _numeric.projection(p.grams)
        value = _numeric.lambda_min(p.grams, c)
        if value > stop_above:
            return c, value
    c = p.barrier_path[0][:m].copy()
    return c, _numeric.lambda_min(p.grams, c)


def exactify(p: FeasibilityProblem, c: np.ndarray) -> tuple[TwoForm, float]:
    """Round optimizer coefficients to an exact closed form with a PD Gram.

    Rounds c / max|c_i|, whose largest entry stays +-1, once by continued
    fractions at EXACTIFY_DENOMINATOR_BOUND (``_nearest``); an entry below a
    tenth of 1 / EXACTIFY_DENOMINATOR_BOUND in absolute value is 0 with no
    continued fraction, as that rounding would give, since every nonzero p/q
    with q within the bound is at least 1 / bound away from 0.  Sums the
    nonzero q_i B_i in ints over one common denominator from each form's
    ``TwoForm._ints`` (omega's reduced Fractions do not depend on which),
    builds omega once from that sum, and re-proves its Gram positive
    definite with exact principal minors (``is_taming``), else raises
    ExactificationFailed.  The margin is the Gram's lambda_min over |q|.
    c is read as Python floats, with the IEEE operations numpy would use.
    """
    c = [float(x) for x in c]
    top = max(map(abs, c), default=0.0)
    if top == 0.0:
        raise ExactificationFailed("zero coefficient vector")
    tiny = 0.1 / EXACTIFY_DENOMINATOR_BOUND  # a NaN is not below it, and Fraction refuses it
    q = [ZERO if abs(x) < tiny else _nearest(x, EXACTIFY_DENOMINATOR_BOUND) for x in [v / top for v in c]]
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
    norm = sqrt(sum((x.numerator / x.denominator) ** 2 for x in q))  # float(x), with no Rational.__float__
    return omega, taming.margin / norm


def _nearest(x: float, bound: int) -> Fraction:
    """Fraction(x).limit_denominator(bound), in ints: the continued fraction of x.as_integer_ratio() up to
    the bound, then the nearer of its last convergent and its best semiconvergent within the bound, the
    convergent on a tie.  A NaN raises ValueError and an infinity OverflowError, as Fraction(x) does."""
    n, d = x.as_integer_ratio()
    if d <= bound:
        return Fraction(n, d)
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a, r = divmod(n, d)
        if q0 + a * q1 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, r
    k = (bound - q0) // q1
    # the two candidates lie 1 / (q1 (q0 + k q1)) apart on either side of x, and x lies d / (q1 den) from p1 / q1
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


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
    q, e = clear_denominators([[_nearest(v, DUAL_DENOMINATOR_BOUND) for v in row] for row in x.tolist()])
    q = [v for row in q for v in row]  # e X, flattened
    rows = [[v for row in _gram_ints(b, p.J)[0] for v in row] for b in p.z2_basis]  # d_i S_i
    rows.append([int(i == j) for i in range(n) for j in range(n)])
    rhs = [sum(a * b for a, b in zip(r, q)) for r in rows]
    rhs[-1] -= e
    # the reduced echelon form of (R R^T | rhs): a pivot in the last column means no solution;
    # otherwise y, e times the multipliers of these rows, is row[-1] / f on red scaled to one pivot entry f
    red, pivots = _echelon([[sum(a * b for a, b in zip(r, t)) for t in rows] + [v] for r, v in zip(rows, rhs)])
    if pivots and pivots[-1] == len(rows):
        return None
    red, f = _scaled(red)
    fy = [(row[-1], rows[k]) for row, k in zip(red, pivots)]  # f y_k, with its row, at each pivot k
    flat = [f * v - sum(yk * r[k] for yk, r in fy) for k, v in enumerate(q)]  # e f times the certificate
    cert = [flat[i * n : (i + 1) * n] for i in range(n)]
    if not leading_minors_positive(cert):
        return None
    return _symmetric(cert, e * f, ZERO), 0.0


def _rank_one_dual(v: Vec) -> Mat:
    """v v^T / |v|^2, built as a a^T / |a|^2 from the integer numerators a of v."""
    a = _cleared(v)[0]
    return _symmetric([[x * y for y in a] for x in a], sum(x * x for x in a), ZERO)


def decide(g: LieAlgebra, J: ComplexStructure) -> FeasibilityVerdict:
    """Pre-check, projection or barrier solve, then exactify on a positive margin
    and, failing a Feasible, dual_certificate; both re-prove exactly, so no
    threshold picks a verdict.  The one way into these lanes: ``analyze``
    calls it too.  For n >= 1 the closed basis is never empty, as it holds
    d(g*) when [g, g] != 0 and every 2-form when g is abelian."""
    p = build_problem(g, J)
    if g.dim == 0:
        return Feasible(TwoForm.from_dict(0, {}), float("inf"), True)
    direction = degeneracy_precheck(p)
    if direction is not None:  # the exact maximum is 0: nothing is left to solve
        return Infeasible(_freeze_matrix(_rank_one_dual(direction.vector)), 0.0, direction.vector, 0.0)
    c, value = maximize_lambda_min(p, PROJECTION_MARGIN)
    feasible = _exactified(p, c, value)
    if feasible is None:
        solved = maximize_lambda_min(p)  # a projection point that did not round gives way to the solve's
        if not (solved[0] == c).all():
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
