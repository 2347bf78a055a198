"""Symplectic reduction along one-dimensional isotropic ideals.

Implements the quotient construction for tamed pairs: given a verified
triple (g, Omega, J) and a line h = span(X) that is an ideal, the reduction
produces h^perp / h with the induced form, the induced complex structure
with its correction term

    J~(Y + h) = J(Y - Omega(JY, X)/Omega(JX, X) * X) + h,

and re-verifies every flag on the output.  Losing a flag is an internal
error (TamingLost), never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, one_dim_ideals, quotient, subalgebra
from .errors import NoOneDimIdeal, NotAnIdeal, NotIsotropic, TamingLost, TripleVerificationError
from .forms import ComplexStructure, TwoForm, ce_d, is_integrable, is_taming
from .linalg import Subspace, Vec, ZERO, nullspace, unit_vec, vec_sub, vec_scale


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
    perp_is_subalgebra: bool


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


def omega_perp(t: TamedTriple, h: Subspace) -> tuple[Subspace, bool | None]:
    """Omega-orthogonal complement of h; also reports, when h is an ideal,
    whether the complement is a subalgebra (it must be)."""
    g = t.algebra
    rows = [[t.omega(w, unit_vec(g.dim, c)) for c in range(g.dim)] for w in h.basis]
    perp = (
        Subspace.from_vectors(g.dim, nullspace(rows, ncols=g.dim))
        if rows
        else Subspace.full(g.dim)
    )
    subalg_check = g.is_subalgebra(perp) if g.is_ideal(h) else None
    return perp, subalg_check


@dataclass(frozen=True)
class DecompositionCheck:
    value: bool
    witness: Vec | None  # a nonzero vector of Jh intersect h^perp when it fails

    def __bool__(self) -> bool:
        return self.value


def check_decomposition(t: TamedTriple, h: Subspace) -> DecompositionCheck:
    """g = Jh (+) h^perp as vector spaces; taming forces this to hold."""
    g = t.algebra
    perp, _ = omega_perp(t, h)
    jh = Subspace.from_vectors(g.dim, [t.J.apply(b) for b in h.basis])
    inter = jh.intersect(perp)
    if inter.dim == 0 and jh.dim + perp.dim == g.dim:
        return DecompositionCheck(True, None)
    witness = inter.basis[0] if inter.dim else None
    return DecompositionCheck(False, witness)


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

    perp, perp_is_subalg = omega_perp(t, h)
    if not perp.contains(h):
        raise TamingLost("isotropic ideal not inside its own perp")
    if perp_is_subalg is False:
        raise TamingLost("h^perp failed the subalgebra check for an ideal h")

    sub, _ = subalgebra(g, perp)
    x_in_sub = perp.coordinates_of(x)
    assert x_in_sub is not None
    h_in_sub = Subspace.from_vectors(sub.dim, [x_in_sub])
    red_alg, red_reps_sub, proj = quotient(sub, h_in_sub)

    # representatives of reduced basis vectors inside h^perp (ambient coords)
    section = []
    for r in red_reps_sub:
        amb = [ZERO] * g.dim
        for c, b in zip(r, perp.basis):
            if c != 0:
                amb = [u + c * v for u, v in zip(amb, b)]
        section.append(tuple(amb))

    def project_ambient(v) -> Vec:
        coords = perp.coordinates_of(v)
        if coords is None:
            raise TamingLost("vector expected in h^perp fell outside it")
        return proj.project(coords)

    m = red_alg.dim
    omega_entries = {}
    for a in range(m):
        for b in range(a + 1, m):
            omega_entries[(a, b)] = t.omega(section[a], section[b])
    red_omega = TwoForm.from_dict(m, omega_entries)

    j_cols = []
    for a in range(m):
        y = section[a]
        c = t.omega(t.J.apply(y), x) / denom
        corrected = vec_sub(y, vec_scale(c, x))
        jy = t.J.apply(corrected)
        j_cols.append(project_ambient(jy))
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
        perp_is_subalgebra=bool(perp_is_subalg),
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
