"""Symplectic reduction along one-dimensional isotropic ideals.

Given a verified triple (g, Omega, J) and a line h = span(X) that is an
ideal, ``reduce`` builds h^perp / h in one change of basis: the echelon
basis of h^perp without its vector at X's pivot represents a basis of the
quotient, and a vector of h^perp, less its multiple of X that clears that
pivot, has its coordinates at the remaining pivots.  The reduced brackets,
the induced form and the induced complex structure with its correction term

    J~(Y + h) = J(Y - Omega(JY, X)/Omega(JX, X) * X) + h

are read off in that basis, and every flag is re-verified on the output.
Losing a flag is an internal error (TamingLost), never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, one_dim_ideals
from .errors import NoOneDimIdeal, NotAnIdeal, NotIsotropic, TamingLost, TripleVerificationError
from .forms import ComplexStructure, TwoForm, ce_d, is_integrable, is_taming
from .linalg import Subspace, Vec, nullspace, unit_vec, vec_sub, vec_scale


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

    @classmethod
    def build(cls, algebra: LieAlgebra, omega: TwoForm, J: ComplexStructure) -> "TamedTriple":
        t = cls.build_unverified(algebra, omega, J)
        if not t.verified:
            failed = [
                name
                for name, ok in (("closed", t.closed), ("integrable", t.integrable), ("taming", t.taming))
                if not ok
            ]
            raise TripleVerificationError(failed)
        return t

    @classmethod
    def build_unverified(cls, algebra: LieAlgebra, omega: TwoForm, J: ComplexStructure) -> "TamedTriple":
        if omega.dim != algebra.dim or J.dim != algebra.dim:
            raise TripleVerificationError(["dimension mismatch"])
        closed = algebra.dim == 0 or ce_d(algebra, omega).is_zero()
        integrable = is_integrable(algebra, J)
        taming = bool(is_taming(omega, J, exact=True))
        return cls(algebra, omega, J, closed, integrable, taming)


@dataclass(frozen=True)
class ReductionStep:
    h: Subspace
    generator: Vec
    perp: Subspace
    complement_witness: Vec  # J X, spanning the complement of h^perp
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
    g = t.algebra
    rows = [[t.omega(w, unit_vec(g.dim, c)) for c in range(g.dim)] for w in h.basis]
    return Subspace.from_vectors(g.dim, nullspace(rows, ncols=g.dim)) if rows else Subspace.full(g.dim)


def reduce(t: TamedTriple, h: Subspace) -> ReductionStep:
    """One tamed symplectic reduction step along a 1-dimensional ideal."""
    g = t.algebra
    if not t.verified:
        raise TripleVerificationError(["reduce requires a verified triple"])
    if not g.is_ideal(h):
        raise NotAnIdeal("reduction requires an ideal")
    for a in h.basis:
        for b in h.basis:
            if t.omega(a, b) != 0:
                raise NotIsotropic("the ideal is not isotropic for omega")
    if h.dim != 1:
        raise NotAnIdeal("only 1-dimensional isotropic ideals are supported")

    x = h.basis[0]
    jx = t.J.apply(x)
    denom = t.omega(jx, x)
    if denom == 0:
        # impossible for a taming form; defensive
        raise TamingLost("Omega(JX, X) vanishes on a supposedly tamed triple")

    perp = omega_perp(t, h)
    if not perp.contains(h):
        raise TamingLost("isotropic ideal not inside its own perp")
    if not g.is_subalgebra(perp):
        raise TamingLost("h^perp failed the subalgebra check for an ideal h")

    # the echelon basis of h^perp has a vector with pivot p, X's pivot, where
    # x[p] = 1; the others represent a basis of h^perp / h
    pivots = perp.pivots()
    p = h.pivots()[0]
    keep = [c for c in range(perp.dim) if pivots[c] != p]
    section = [perp.basis[c] for c in keep]

    def mod_h(v: Vec) -> Vec:
        """Coordinates of v + h in the reduced basis, for v in h^perp."""
        if not perp.contains_vector(v):
            raise TamingLost("vector expected in h^perp fell outside it")
        return tuple(v[pivots[c]] - v[p] * x[pivots[c]] for c in keep)

    m = len(section)
    brackets = {}
    for a in range(m):
        for b in range(a + 1, m):
            w = mod_h(g.bracket(section[a], section[b]))
            brackets[(a, b)] = {k: c for k, c in enumerate(w) if c != 0}
    # a unit vector e_i keeps its label; any other basis vector is f<position in h^perp>
    labels = [
        g.basis_labels[pivots[c]] if sum(v != 0 for v in perp.basis[c]) == 1 else f"f{c + 1}"
        for c in keep
    ]
    red_alg = LieAlgebra.from_brackets(m, brackets, labels=labels, check=True)

    red_omega = TwoForm.from_dict(
        m, {(a, b): t.omega(section[a], section[b]) for a in range(m) for b in range(a + 1, m)}
    )

    j_cols = []
    for y in section:
        c = t.omega(t.J.apply(y), x) / denom
        j_cols.append(mod_h(t.J.apply(vec_sub(y, vec_scale(c, x)))))
    j_rows = [[j_cols[b][a] for b in range(m)] for a in range(m)]
    try:
        red_j = ComplexStructure.from_matrix(j_rows)
    except Exception as exc:
        raise TamingLost(f"induced J is not a complex structure: {exc}") from exc

    red_triple = TamedTriple.build_unverified(red_alg, red_omega, red_j)
    if not red_triple.verified:
        raise TamingLost(
            "reduction lost a verified property: "
            + ", ".join(
                name
                for name, ok in (
                    ("closed", red_triple.closed),
                    ("integrable", red_triple.integrable),
                    ("taming", red_triple.taming),
                )
                if not ok
            )
        )
    return ReductionStep(
        h=h,
        generator=x,
        perp=perp,
        complement_witness=jx,
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
