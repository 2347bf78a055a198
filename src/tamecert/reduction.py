"""Symplectic reduction along one-dimensional isotropic ideals.

Given a verified triple (g, Omega, J) and a line h = span(X) that is an
ideal, ``reduce`` builds h^perp / h in one change of basis: the echelon
basis of h^perp without its vector at X's pivot represents a basis of the
quotient, and a vector of h^perp, less its multiple of X that clears that
pivot, has its coordinates at the remaining pivots.  The reduced brackets,
the induced form and the induced complex structure with its correction term

    J~(Y + h) = J(Y - Omega(JY, X)/Omega(JX, X) * X) + h

are read off in that basis, and every flag is re-verified on the output.
Losing a flag is an internal error (TamingLost), never a verdict.  The
vectors, Omega and J are cleared to integers once, brackets go through the
integer table, and each reduced entry becomes a ``Fraction`` only at the
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra, _bracket_ints, _cleared_brackets, one_dim_ideals
from .errors import NoOneDimIdeal, NotAnIdeal, NotIsotropic, TamingLost, TripleVerificationError
from .forms import ComplexStructure, TwoForm, d2_matrix, is_integrable, taming_gram
from .linalg import Subspace, Vec, _cleared, clear_denominators, leading_minors_positive, nullspace


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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
        if omega.dim != algebra.dim or J.dim != algebra.dim:
            raise TripleVerificationError(["dimension mismatch"])
        # d Omega = 0: the matrix of d on 2-forms applied to Omega's coefficients
        matrix, pairs, _ = d2_matrix(algebra)
        column = {pair: c for c, pair in enumerate(pairs)}
        closed = not any(sum(row[column[key]] * c for key, c in omega.coeffs) for row in matrix)
        integrable = is_integrable(algebra, J)
        taming = leading_minors_positive(taming_gram(omega, J))
        return cls(algebra, omega, J, closed, integrable, taming)


@dataclass(frozen=True)
class ReductionStep:
    h: Subspace
    generator: Vec
    perp: Subspace
    reduced: TamedTriple
    section_map: tuple[Vec, ...]  # representatives in h^perp of the reduced basis


@dataclass(frozen=True)
class ReductionTower:
    steps: tuple[ReductionStep, ...]
    terminal: LieAlgebra

    @property
    def terminal_dim(self) -> int:
        return self.terminal.dim


def find_isotropic_ideal(t: TamedTriple) -> Subspace:
    """First rational 1-dimensional ideal, preferring lines inside [g, g].

    Every line is isotropic for an alternating form, so any 1-dimensional
    ideal qualifies.
    """
    lines = one_dim_ideals(t.algebra)
    if not lines:
        raise NoOneDimIdeal(
            "no rational invariant line; the algebra is either not completely "
            "solvable or its invariant lines are irrational"
        )
    derived = t.algebra.derived_subalgebra()
    for line in lines:
        if derived.contains(line):
            return line
    return lines[0]


def omega_perp(t: TamedTriple, h: Subspace) -> Subspace:
    """Omega-orthogonal complement of h, in its echelon basis."""
    n = t.algebra.dim
    if not h.dim:
        return Subspace.full(n)
    W, _ = clear_denominators(t.omega.matrix())
    rows = [[_dot(b, col) for col in zip(*W)] for b in clear_denominators(h.basis)[0]]
    return Subspace(n, tuple(nullspace(rows, ncols=n)))


def reduce(t: TamedTriple, h: Subspace) -> ReductionStep:
    """One tamed symplectic reduction step along a 1-dimensional ideal."""
    g = t.algebra
    if not t.verified:
        raise TripleVerificationError(["reduce requires a verified triple"])
    if not g.is_ideal(h):
        raise NotAnIdeal("reduction requires an ideal")
    W, w = clear_denominators(t.omega.matrix())  # Omega = W / w
    hb = clear_denominators(h.basis)[0]
    if any(_dot(a, [_dot(row, b) for row in W]) for a in hb for b in hb):
        raise NotIsotropic("the ideal is not isotropic for omega")
    if h.dim != 1:
        raise NotAnIdeal("only 1-dimensional isotropic ideals are supported")

    jm, e = clear_denominators(t.J.matrix)  # J = jm / e
    c, table = _cleared_brackets(g)  # [., .] = table / c
    x = h.basis[0]
    xi = hb[0]  # xi = s_x x, with s_x = xi[p] at X's pivot p
    p = h.pivots()[0]
    sx = xi[p]
    w_xi = [_dot(row, xi) for row in W]
    j_xi = [_dot(row, xi) for row in jm]  # e s_x J X
    beta = _dot(j_xi, w_xi)  # e w s_x^2 Omega(JX, X)
    if beta == 0:
        # impossible for a taming form; defensive
        raise TamingLost("Omega(JX, X) vanishes on a supposedly tamed triple")

    # h lies in h^perp by isotropy; mod_h's check below enforces that h^perp is a
    # subalgebra, since the brackets with X land in the ideal h
    perp = omega_perp(t, h)

    # the echelon basis of h^perp has a vector with pivot p, where x[p] = 1;
    # the others represent a basis of h^perp / h
    pivots = perp.pivots()
    keep = [k for k in range(perp.dim) if pivots[k] != p]
    section = [perp.basis[k] for k in keep]
    kept_pivots = [pivots[k] for k in keep]
    us = [_cleared(y)[0] for y in section]  # u = s y, with s = u at y's pivot
    ss = [u[q] for u, q in zip(us, kept_pivots)]

    def mod_h(v: list[int], scale: int) -> Vec:
        """Coordinates of v / scale + h in the reduced basis, for v / scale in h^perp."""
        if not perp.contains_vector(v):
            raise TamingLost("vector expected in h^perp fell outside it")
        return tuple(Fraction(v[q] * sx - v[p] * xi[q], sx * scale) for q in kept_pivots)

    m = len(section)
    brackets = {}
    for a in range(m):
        for b in range(a + 1, m):
            v = mod_h(_bracket_ints(table, us[a], us[b]), c * ss[a] * ss[b])
            brackets[(a, b)] = {k: y for k, y in enumerate(v) if y != 0}
    # a unit vector e_i keeps its label; any other basis vector is f<position in h^perp>
    labels = [
        g.basis_labels[pivots[k]] if sum(v != 0 for v in perp.basis[k]) == 1 else f"f{k + 1}"
        for k in keep
    ]
    red_alg = LieAlgebra.from_brackets(m, brackets, labels=labels)

    w_us = [[_dot(row, u) for row in W] for u in us]
    red_omega = TwoForm.from_dict(
        m, {(a, b): Fraction(_dot(us[a], w_us[b]), w * ss[a] * ss[b]) for a in range(m) for b in range(a + 1, m)}
    )

    # with y = u / s, alpha = e w s s_x Omega(JY, X), J(Y - alpha s_x / (s beta) X) is
    # jm (beta u - alpha xi) / (e s beta)
    j_cols = []
    for u, s_u in zip(us, ss):
        alpha = _dot([_dot(row, u) for row in jm], w_xi)
        shifted = [beta * y - alpha * z for y, z in zip(u, xi)]
        j_cols.append(mod_h([_dot(row, shifted) for row in jm], e * s_u * beta))
    j_rows = [[j_cols[b][a] for b in range(m)] for a in range(m)]
    try:
        red_j = ComplexStructure.from_matrix(j_rows)
    except Exception as exc:
        raise TamingLost(f"induced J is not a complex structure: {exc}") from exc

    red_triple = TamedTriple.build_unverified(red_alg, red_omega, red_j)
    if not red_triple.verified:
        raise TamingLost("reduction lost a verified property: " + ", ".join(red_triple.failed_flags))
    return ReductionStep(
        h=h,
        generator=x,
        perp=perp,
        reduced=red_triple,
        section_map=tuple(section),
    )


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
        if step.reduced.algebra.dim != current.algebra.dim - 2:
            raise TamingLost("reduction step did not drop the dimension by 2")
        steps.append(step)
        current = step.reduced
    return ReductionTower(tuple(steps), current.algebra)
