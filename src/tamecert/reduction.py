"""Symplectic reduction along one-dimensional isotropic ideals.

Given a verified triple (g, Omega, J) and a line h = span(X) that is an
ideal, ``reduce`` builds h^perp / h in one change of basis: the echelon
basis of h^perp without its vector at X's pivot represents a basis of the
quotient, and a vector of h^perp, less its multiple of X that clears that
pivot, has its coordinates at the remaining pivots.  The reduced brackets,
the induced form and the induced complex structure with its correction term

    J~(Y + h) = J(Y - Omega(JY, X)/Omega(JX, X) * X) + h

are read off in that basis, and every flag is re-verified on the output.
Losing a flag is an internal error (TamingLost), never a verdict.  Omega, the
vectors and J are read in the integer form that ``TwoForm``, ``Subspace`` and
``ComplexStructure`` store, and brackets go through the integer table; the
kept rows u of h^perp share one pivot entry s (``linalg._scaled``).  W u and
J'u (``_apply_ints``) are formed once per kept u, and zero brackets are
skipped.  The reduced brackets, Omega and J = ints / den are built straight
from those ints, with no re-clearing ``from_*`` pass; Jacobi and J^2 = -I
are still checked on the result.  An h of another dimension is refused.
An empty bracket table decides what it can at once: the ideal chosen is
e_1's line, every 2-form is closed, Jacobi and the ideal test pass, and the
quotient's brackets are all zero, so an abelian step runs neither the weight
search, nor d on 2-forms, nor a bracket.

``proof_trace`` checks, exactly and on the same integer forms, the bracket
relations that the structure argument forces along the line
``find_isotropic_ideal`` picks, on h^perp cap J h^perp (``omega_perp``, then
``linalg._invariant_part``), and that ``reduce`` keeps a unimodular input
unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .algebra import LieAlgebra, _bracket_ints, _one_dim_ideals, is_completely_solvable
from .errors import (
    DimensionMismatch, NoOneDimIdeal, NotAnIdeal, NotIsotropic, RelationViolation, TamingLost, TripleVerificationError,
)
from .forms import ComplexStructure, TwoForm, _d2_ints, _gram_ints, _squares_to_minus_one, is_integrable
from .linalg import Subspace, Vec, _dot, _invariant_part, _kernel, _scaled, leading_minors_positive


@dataclass(frozen=True)
class TamedTriple:
    """(algebra, omega, J) with the verification flags computed on build."""

    algebra: LieAlgebra
    omega: TwoForm
    J: ComplexStructure
    closed: bool
    integrable: bool
    taming: bool

    @property
    def verified(self) -> bool:
        return self.closed and self.integrable and self.taming

    @property
    def failed_flags(self) -> tuple[str, ...]:
        return tuple(name for name in ("closed", "integrable", "taming") if not getattr(self, name))

    @classmethod
    def build(cls, algebra: LieAlgebra, omega: TwoForm, J: ComplexStructure) -> "TamedTriple":
        t = cls.build_unverified(algebra, omega, J)
        if not t.verified:
            raise TripleVerificationError(t.failed_flags)
        return t

    @classmethod
    def build_unverified(cls, algebra: LieAlgebra, omega: TwoForm, J: ComplexStructure) -> "TamedTriple":
        """The triple with its three flags, none raised on, decided in ints:
        d Omega = 0 from ``TwoForm._ints`` against c d2 read off the integer
        bracket table (``forms._d2_ints``), taming on ``forms._gram_ints``.
        On an empty table every 2-form is closed, and no d2 is built."""
        if omega.dim != algebra.dim or J.dim != algebra.dim:
            raise TripleVerificationError(["dimension mismatch"])
        closed = algebra.is_abelian()
        if not closed:
            _, rows, pairs, _ = _d2_ints(algebra)
            column = {pair: k for k, pair in enumerate(pairs)}
            coeffs = [(column[key], x) for key, x in omega._ints[1]]  # w Omega
            closed = not any(sum(row[k] * x for k, x in coeffs) for row in rows)
        integrable = is_integrable(algebra, J)
        taming = leading_minors_positive(_gram_ints(omega, J)[0])
        return cls(algebra, omega, J, closed, integrable, taming)


@dataclass(frozen=True)
class ReductionStep:
    h: Subspace
    generator: Vec
    perp: Subspace
    reduced: TamedTriple


@dataclass(frozen=True)
class ReductionTower:
    steps: tuple[ReductionStep, ...]
    terminal: LieAlgebra

    @property
    def terminal_dim(self) -> int:
        return self.terminal.dim


def find_isotropic_ideal(t: TamedTriple) -> Subspace:
    """The first line of ``one_dim_ideals`` (sorted by pivot, then by reduced
    echelon entries) that lies in [g, g]; if none does, its first line.

    Every line is isotropic for an alternating form, so any 1-dimensional
    ideal qualifies.  [g, g] is derived once, for the weight spaces and for
    the preference test.  On an empty bracket table every line is a weight-0
    ideal and none lies in [g, g] = 0, so the line of e_1, first in that
    order, is returned with no search.
    """
    g = t.algebra
    if g.is_abelian() and g.dim:
        return Subspace(g.dim, (tuple(int(i == 0) for i in range(g.dim)),), (0,))
    derived = g.derived_subalgebra()
    lines = _one_dim_ideals(g, derived)
    if not lines:
        raise NoOneDimIdeal(
            "no rational invariant line; the algebra is either not completely "
            "solvable or its invariant lines are irrational"
        )
    for line in lines:
        if derived.contains(line):
            return line
    return lines[0]


def omega_perp(t: TamedTriple, h: Subspace) -> Subspace:
    """Omega-orthogonal complement of h: the kernel of the rows W b, b the
    integer rows of h, which ``_kernel`` returns in the unique echelon form."""
    n = t.algebra.dim
    rows, pivots = _kernel([t.omega._apply_ints(b) for b in h.rows], n)
    return Subspace(n, tuple(map(tuple, rows)), tuple(pivots))


def reduce(t: TamedTriple, h: Subspace) -> ReductionStep:
    """One tamed symplectic reduction step along a 1-dimensional ideal."""
    g = t.algebra
    if not t.verified:
        raise TripleVerificationError(["reduce requires a verified triple"])
    if h.ambient_dim != g.dim:
        raise DimensionMismatch(f"h lies in Q^{h.ambient_dim}, the algebra has dimension {g.dim}")
    if not g.is_ideal(h):
        raise NotAnIdeal("reduction requires an ideal")
    if any(_dot(a, t.omega._apply_ints(b)) for a in h.rows for b in h.rows):
        raise NotIsotropic("the ideal is not isotropic for omega")
    if h.dim != 1:
        raise NotAnIdeal("only 1-dimensional isotropic ideals are supported")

    w, e = t.omega._ints[0], t.J.den  # Omega = W / w, J = J' / e
    c, table = g._int_table  # [., .] = table / c
    xi, p = h.rows[0], h._pivots[0]  # xi = s_x X, with s_x = xi[p] at X's pivot p
    sx = xi[p]
    w_xi, j_xi = t.omega._apply_ints(xi), t.J._apply_ints(xi)
    beta = _dot(j_xi, w_xi)  # e w s_x^2 Omega(JX, X) = -e w s_x^2 Omega(X, JX) < 0, as Omega tames J

    # h lies in h^perp by isotropy; mod_h's check below enforces that h^perp is a
    # subalgebra, since the brackets with X land in the ideal h
    perp = omega_perp(t, h)

    # the echelon basis of h^perp has a vector with pivot p, where x[p] = 1;
    # the others represent a basis of h^perp / h
    keep = [k for k, q in enumerate(perp._pivots) if q != p]
    kept_pivots = [perp._pivots[k] for k in keep]
    us, s = _scaled([perp.rows[k] for k in keep])  # u = s y, with s = u at y's pivot for every u

    def mod_h(v: list[int]) -> list[int]:
        """sx times the coordinates of v + h in the reduced basis, for v in h^perp; zero for v = 0."""
        if not any(v):
            return [0] * len(kept_pivots)
        if _dot(w_xi, v):  # h^perp is the kernel of the one row W xi
            raise TamingLost("vector expected in h^perp fell outside it")
        return [v[q] * sx - v[p] * xi[q] for q in kept_pivots]

    m = len(us)
    constants = []
    for a, b in combinations(range(m), 2) if table else ():
        v, d = mod_h(_bracket_ints(table, us[a], us[b])), sx * c * s * s
        comps = tuple((k, Fraction(y, d)) for k, y in enumerate(v) if y)
        if comps:
            constants.append(((a, b), comps))
    # a unit vector e_i of h^perp keeps its label; any other is f<position in h^perp>, primed past those
    units = {k: g.basis_labels[q] for k, q in enumerate(perp._pivots) if perp.rows[k].count(0) == g.dim - 1}
    labels = []
    for k in keep:
        label = units.get(k, f"f{k + 1}")
        while k not in units and label in units.values():
            label += "'"
        labels.append(label)
    red_alg = LieAlgebra(m, tuple(labels), tuple(constants))
    red_alg.check_jacobi()

    w_us = [t.omega._apply_ints(u) for u in us]
    pairs = ((a, b, _dot(us[a], w_us[b])) for a in range(m) for b in range(a + 1, m))
    red_omega = TwoForm(m, tuple(((a, b), Fraction(y, w * s * s)) for a, b, y in pairs if y))

    # with y = u / s, alpha = e w s s_x Omega(JY, X), J(Y - alpha s_x / (s beta) X) is
    # (alpha J'xi - beta J'u) / (-e s beta), -e s beta > 0: its coordinates are mod_h of
    # that numerator over den = -s_x e beta s
    cols = []
    for u in us:
        ju = t.J._apply_ints(u)
        alpha = _dot(ju, w_xi)
        cols.append(mod_h([alpha * z - beta * y for y, z in zip(ju, j_xi)]))
    den = -sx * e * beta * s
    k = gcd(den, *(y for col in cols for y in col))  # J = ints / den in its unique form, den over k
    ints = tuple(tuple(col[a] // k for col in cols) for a in range(m))
    if not _squares_to_minus_one(ints, den // k):
        raise TamingLost("induced J is not a complex structure: J^2 != -I")
    red_j = ComplexStructure(m, ints, den // k)

    red_triple = TamedTriple.build_unverified(red_alg, red_omega, red_j)
    if not red_triple.verified:
        raise TamingLost("reduction lost a verified property: " + ", ".join(red_triple.failed_flags))
    return ReductionStep(h=h, generator=h.basis[0], perp=perp, reduced=red_triple)


def reduction_tower(t: TamedTriple) -> ReductionTower:
    """Iterate reduction until dimension 0 or no rational 1-dim ideal remains."""
    steps: list[ReductionStep] = []
    current = t
    while current.algebra.dim > 0:
        try:
            h = find_isotropic_ideal(current)
        except NoOneDimIdeal:
            break
        step = reduce(current, h)
        steps.append(step)
        current = step.reduced
    return ReductionTower(tuple(steps), current.algebra)


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
