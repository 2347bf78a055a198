"""Real Lie algebras with exact structure constants and their invariants.

Structure constants are kept as sparse maps over ``Fraction``; every
structural decision (Jacobi, series, ideals, unimodularity, complete
solvability, rational weight spaces and invariant lines) is made in exact
rational arithmetic at every dimension.  No floating point is used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import DimensionMismatch, JacobiViolation
from .linalg import (
    Mat,
    Subspace,
    Vec,
    ZERO,
    all_roots_real,
    charpoly,
    frac,
    is_zero_vec,
    mat_trace,
    nullspace,
    rational_roots,
    unit_vec,
    vec,
    vec_add,
    zero_vec,
)

Brackets = Mapping[tuple[int, int], Mapping[int, Fraction]]


def _normalize_brackets(dim: int, brackets: Brackets) -> dict[tuple[int, int], dict[int, Fraction]]:
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), comps in brackets.items():
        if not (0 <= i < j < dim):
            raise DimensionMismatch(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim={dim}")
        entry = {}
        for k, c in comps.items():
            k = int(k)
            if not 0 <= k < dim:
                raise DimensionMismatch(f"bracket ({i},{j}) targets component {k} outside dim={dim}")
            c = frac(c)
            if c != 0:
                entry[k] = c
        if entry:
            out[(i, j)] = entry
    return out


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional real Lie algebra in a fixed basis.

    ``structure_constants`` stores [e_i, e_j] for i < j only; antisymmetry is
    implied and the Jacobi identity is validated at construction.
    """

    dim: int
    basis_labels: tuple[str, ...]
    structure_constants: tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Brackets,
        labels: Sequence[str] | None = None,
        check: bool = True,
    ) -> "LieAlgebra":
        if dim < 0:
            raise DimensionMismatch("dimension must be nonnegative")
        if labels is None:
            labels = tuple(f"e{i+1}" for i in range(dim))
        labels = tuple(str(x) for x in labels)
        if len(labels) != dim:
            raise DimensionMismatch(f"{len(labels)} labels for dimension {dim}")
        norm = _normalize_brackets(dim, brackets)
        frozen = tuple(
            (key, tuple(sorted(norm[key].items()))) for key in sorted(norm)
        )
        alg = cls(dim, labels, frozen)
        if check:
            alg.check_jacobi()
        return alg

    # --- bracket machinery ---

    def bracket_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        return {key: dict(comps) for key, comps in self.structure_constants}

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a coordinate vector."""
        if i == j:
            return zero_vec(self.dim)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out = [ZERO] * self.dim
        for key, comps in self.structure_constants:
            if key == (i, j):
                for k, c in comps:
                    out[k] = sign * c
                break
        return tuple(out)

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        """[x, y] by bilinear expansion."""
        x = vec(x)
        y = vec(y)
        out = [ZERO] * self.dim
        for (i, j), comps in self.structure_constants:
            coeff = x[i] * y[j] - x[j] * y[i]
            if coeff != 0:
                for k, c in comps:
                    out[k] += coeff * c
        return tuple(out)

    def jacobi_residual(self, i: int, j: int, k: int) -> Vec:
        ei, ej, ek = unit_vec(self.dim, i), unit_vec(self.dim, j), unit_vec(self.dim, k)
        r = self.bracket(self.bracket(ei, ej), ek)
        r = vec_add(r, self.bracket(self.bracket(ej, ek), ei))
        r = vec_add(r, self.bracket(self.bracket(ek, ei), ej))
        return r

    def check_jacobi(self) -> None:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    r = self.jacobi_residual(i, j, k)
                    if not is_zero_vec(r):
                        raise JacobiViolation((i, j, k), r)

    def adjoint(self, x: Sequence[Fraction]) -> Mat:
        """Matrix of ad_x = [x, .] acting on column coordinates."""
        x = vec(x)
        cols = [self.bracket(x, unit_vec(self.dim, j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.dim)]

    def adjoint_of_basis(self, i: int) -> Mat:
        """ad_{e_i}, read off the structure constants: column j is [e_i, e_j]."""
        m = [[ZERO] * self.dim for _ in range(self.dim)]
        for (a, b), comps in self.structure_constants:
            if a == i:
                for k, c in comps:
                    m[k][b] = c
            elif b == i:
                for k, c in comps:
                    m[k][a] = -c
        return m

    # --- structural invariants ---

    def is_abelian(self) -> bool:
        return not self.structure_constants

    def is_unimodular(self) -> tuple[bool, int | None]:
        """True iff every basis adjoint is traceless; else (False, witness index)."""
        for i in range(self.dim):
            if mat_trace(self.adjoint_of_basis(i)) != 0:
                return False, i
        return True, None

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [a, b]."""
        vecs = [self.bracket(x, y) for x in a.basis for y in b.basis]
        return Subspace.from_vectors(self.dim, vecs)

    def _series(self, left: Subspace | None) -> list[Subspace]:
        """g, [l, g], [l, [l, g]], ... until it stops shrinking; l is the last term when None."""
        series = [Subspace.full(self.dim)]
        while series[-1].dim:
            nxt = self.bracket_subspaces(series[-1] if left is None else left, series[-1])
            if nxt.dim == series[-1].dim:
                break
            series.append(nxt)
        return series

    def derived_series(self) -> list[Subspace]:
        return self._series(None)

    def lower_central_series(self) -> list[Subspace]:
        return self._series(Subspace.full(self.dim))

    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of the nonzero brackets [e_i, e_j], read off the structure constants."""
        vecs = [[dict(comps).get(k, ZERO) for k in range(self.dim)] for _, comps in self.structure_constants]
        return Subspace.from_vectors(self.dim, vecs)

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_ideal(self, h: Subspace) -> bool:
        for i in range(self.dim):
            for b in h.basis:
                if not h.contains_vector(self.bracket(unit_vec(self.dim, i), b)):
                    return False
        return True

    def is_subalgebra(self, s: Subspace) -> bool:
        for a in s.basis:
            for b in s.basis:
                if not s.contains_vector(self.bracket(a, b)):
                    return False
        return True


def validate(
    dim: int,
    brackets: Brackets,
    labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """Construct a LieAlgebra, raising JacobiViolation on the first bad triple."""
    return LieAlgebra.from_brackets(dim, brackets, labels=labels, check=True)


@dataclass(frozen=True)
class CompleteSolvability:
    value: bool
    witness: int | None  # first basis index whose adjoint has a non-real eigenvalue

    def __bool__(self) -> bool:
        return self.value


def is_completely_solvable(g: LieAlgebra) -> CompleteSolvability:
    """Solvable with all adjoint weights real.

    Decided exactly at every dimension by a Sturm real-root count of each
    basis adjoint's characteristic polynomial: the eigenvalues of ad_x are the
    weight values at x, and a weight with a nonzero imaginary part has it at
    some basis vector.
    """
    if not g.is_solvable():
        return CompleteSolvability(False, None)
    for i in range(g.dim):
        if not all_roots_real(charpoly(g.adjoint_of_basis(i))):
            return CompleteSolvability(False, i)
    return CompleteSolvability(True, None)


def weight_spaces(g: LieAlgebra) -> list[Subspace]:
    """The joint eigenspaces of ad g whose weights are rational.

    Each is {x : [y, x] = lambda(y) x for all y} for one rational weight
    lambda, so the list does not depend on the basis; its order does.  They
    are found by branching over the rational eigenvalues of each basis
    adjoint in turn, in ascending order, and intersecting eigenspaces.
    """
    n = g.dim
    # with d the common denominator of the structure constants, each d ad_{e_i}
    # is an integer matrix: its charpoly is monic with integer coefficients, so
    # its rational eigenvalues are integers, and its eigenspaces are those of ad_{e_i}
    d = lcm(*(c.denominator for _, comps in g.structure_constants for _, c in comps))
    branches = [Subspace.full(n)]
    for i in range(n):
        a = [[d * x for x in row] for row in g.adjoint_of_basis(i)]
        eigenspaces = []
        for mu in rational_roots(charpoly(a)):
            shifted = [list(row) for row in a]
            for k in range(n):
                shifted[k][k] -= mu
            eigenspaces.append(Subspace.from_vectors(n, nullspace(shifted, ncols=n)))
        branches = [space.intersect(e) for space in branches for e in eigenspaces]
        branches = [space for space in branches if space.dim > 0]
        if not branches:
            break
    return branches


def one_dim_ideals(g: LieAlgebra) -> list[Subspace]:
    """Rational lines L with [g, L] contained in L.

    Lines are extracted from the rational weight spaces (one line per echelon
    basis vector) and returned sorted by pivot position and basis entries, so
    the order is deterministic.
    """
    lines = {Subspace.from_vectors(g.dim, [b]) for space in weight_spaces(g) for b in space.basis}
    return sorted(lines, key=lambda l: (l.pivots()[0], l.basis[0]))


def scale_structure_constants(g: LieAlgebra, t: Fraction) -> LieAlgebra:
    """Rescale every bracket by t (exact); used for homogeneity checks."""
    t = frac(t)
    table = {
        key: {k: t * c for k, c in comps.items()}
        for key, comps in g.bracket_table().items()
    }
    return LieAlgebra.from_brackets(g.dim, table, labels=g.basis_labels, check=True)
