"""Real Lie algebras with exact structure constants and their invariants.

Structure constants are kept as sparse maps over ``Fraction``; every
structural decision (Jacobi, series, ideals, unimodularity, complete
solvability, rational weight spaces and invariant lines) is made in exact
arithmetic at every dimension.  These decisions read one integer bracket
table, c [e_i, e_j] with c the common denominator of the structure
constants, and bracket integer vectors through it, so that ``Fraction``s
are built only for the results.  The evaluation-based ``bracket`` stays as
the reference.  No floating point is used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Mapping, Sequence

from .errors import DimensionMismatch, JacobiViolation
from .linalg import (
    Mat,
    Subspace,
    Vec,
    ZERO,
    _cleared,
    _kernel,
    _primitive,
    all_roots_real,
    charpoly,
    frac,
    mat_trace,
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


IntTable = dict[tuple[int, int], list[tuple[int, int]]]


def _cleared_brackets(g: "LieAlgebra") -> tuple[int, IntTable]:
    """(c, table): c the lcm of the structure constants' denominators, and
    table[(i, j)] = c [e_i, e_j] as (k, int) pairs, for i < j and [e_i, e_j] != 0."""
    c = lcm(*(x.denominator for _, comps in g.structure_constants for _, x in comps))
    return c, {key: [(k, x.numerator * (c // x.denominator)) for k, x in comps] for key, comps in g.structure_constants}


def _bracket_ints(table: IntTable, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """c [x, y] for integer vectors x and y, by bilinear expansion over the table."""
    out = [0] * len(x)
    for (i, j), comps in table.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        if coeff:
            for k, c in comps:
                out[k] += coeff * c
    return out


def _units(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


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
        _, table = _cleared_brackets(self)
        units = _units(self.dim)
        for i, j, k in combinations(range(self.dim), 3):
            a, b, c = units[i], units[j], units[k]
            cyclic = [_bracket_ints(table, _bracket_ints(table, x, y), z) for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
            if any(map(sum, zip(*cyclic))):
                raise JacobiViolation((i, j, k), self.jacobi_residual(i, j, k))

    def adjoint(self, x: Sequence[Fraction]) -> Mat:
        """Matrix of ad_x = [x, .] acting on column coordinates."""
        x = vec(x)
        cols = [self.bracket(x, unit_vec(self.dim, j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.dim)]

    # --- structural invariants ---

    def is_abelian(self) -> bool:
        return not self.structure_constants

    def is_unimodular(self) -> tuple[bool, int | None]:
        """True iff every basis adjoint is traceless; else (False, witness index)."""
        _, table = _cleared_brackets(self)
        witness = next((i for i, e in enumerate(_units(self.dim)) if mat_trace(_adjoint_ints(table, e))), None)
        return witness is None, witness

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [a, b], bracketing the basis rows cleared to integers."""
        _, table = _cleared_brackets(self)
        xs = [_cleared(x)[0] for x in a.basis]
        pairs = combinations(xs, 2) if a == b else product(xs, [_cleared(y)[0] for y in b.basis])
        return Subspace._span(self.dim, [_bracket_ints(table, x, y) for x, y in pairs])

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
        """[g, g]: the span of the nonzero brackets [e_i, e_j], read off the integer table."""
        rows = [[dict(comps).get(k, 0) for k in range(self.dim)] for comps in _cleared_brackets(self)[1].values()]
        return Subspace._span(self.dim, rows)

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_ideal(self, h: Subspace) -> bool:
        _, table = _cleared_brackets(self)
        basis = [_cleared(b)[0] for b in h.basis]
        return all(h.contains_vector(_bracket_ints(table, e, b)) for e in _units(self.dim) for b in basis)

    def is_subalgebra(self, s: Subspace) -> bool:
        _, table = _cleared_brackets(self)
        basis = [_cleared(b)[0] for b in s.basis]
        return all(s.contains_vector(_bracket_ints(table, a, b)) for a, b in combinations(basis, 2))


@dataclass(frozen=True)
class CompleteSolvability:
    value: bool
    witness: int | None  # first basis index whose adjoint has a non-real eigenvalue

    def __bool__(self) -> bool:
        return self.value


def is_completely_solvable(g: LieAlgebra) -> CompleteSolvability:
    """Solvable with all adjoint weights real.

    Decided exactly at every dimension by a Sturm real-root count of the
    characteristic polynomial of each basis adjoint, c ad_{e_i} read off the
    integer table: the eigenvalues of ad_x are the weight values at x, and a
    weight with a nonzero imaginary part has it at some basis vector.
    """
    if not g.is_solvable():
        return CompleteSolvability(False, None)
    _, table = _cleared_brackets(g)
    for i, e in enumerate(_units(g.dim)):
        if not all_roots_real(charpoly(_adjoint_ints(table, e))):
            return CompleteSolvability(False, i)
    return CompleteSolvability(True, None)


def _adjoint_ints(table: IntTable, x: Sequence[int]) -> list[list[int]]:
    """c ad_x for an integer vector x: column j is c [x, e_j]."""
    n = len(x)
    m = [[0] * n for _ in range(n)]
    for (i, j), comps in table.items():
        for k, c in comps:
            m[k][j] += x[i] * c
            m[k][i] -= x[j] * c
    return m


def weight_spaces(g: LieAlgebra) -> list[Subspace]:
    """The joint eigenspaces of ad g whose weights are rational.

    Each is {x : [y, x] = lambda(y) x for all y} for one rational weight
    lambda, so the list does not depend on the basis; it is sorted by the
    weight vector (lambda(e_1), ..., lambda(e_n)).

    A weight vanishes on D = [g, g]: lambda([y, z]) x = [y, [z, x]] - [z, [y, x]]
    = 0.  So every joint eigenvector lies in Z = {x : [D, x] = 0}, an ideal
    on which the ad_y commute, as [ad_y, ad_z] = ad_[y, z] vanishes there;
    and lambda is fixed by its values at the basis vectors outside D's
    pivots, since each echelon row of D, e_p plus a combination of those,
    has weight 0.  The search branches over those vectors only, in integers:
    for each one, over the rational eigenvalues mu of c ad_{e_i} on Z (c the
    common denominator of the structure constants), taking in each branch W
    the kernel of (c ad_{e_i} - mu) W.  An operator that vanishes on a
    branch keeps it, at weight 0, without a characteristic polynomial.
    """
    return _weight_spaces(g, g.derived_subalgebra())


def _weight_spaces(g: LieAlgebra, derived: Subspace) -> list[Subspace]:
    """weight_spaces for a caller that already holds derived = [g, g]."""
    n = g.dim
    if not n:
        return [Subspace.full(0)]
    _, table = _cleared_brackets(g)
    units = _units(n)
    # Z: the kernel of the stacked c ad_b over the echelon basis b of D
    stacked = [row for b in derived.basis for row in _adjoint_ints(table, _cleared(b)[0])]
    z, z_cols = _kernel(stacked, n) if stacked else (units, range(n))
    pivots = derived.pivots()
    free = [i for i in range(n) if i not in pivots]
    branches = [((), z)] if z else []  # (c lambda at free[:len], integer basis rows)
    for i in free:
        roots = None  # the rational eigenvalues of c ad_{e_i} on Z, once a branch needs them
        nxt = []
        for mus, rows in branches:
            images = [_bracket_ints(table, units[i], w) for w in rows]
            if not any(map(any, images)):
                nxt.append((mus + (0,), rows))
                continue
            if roots is None:
                # column j of the restriction: the coordinates of c [e_i, z_j], read at z's free columns
                zimg = [_bracket_ints(table, units[i], w) for w in z]
                roots = rational_roots(charpoly([[Fraction(v[f], w[f]) for v in zimg] for w, f in zip(z, z_cols)]))
            for mu in roots:
                p, q = mu.numerator, mu.denominator
                shifted = [[q * v[r] - p * w[r] for v, w in zip(images, rows)] for r in range(n)]
                kernel, _ = _kernel(shifted, len(rows))
                if kernel:
                    combos = [[sum(y * w[k] for y, w in zip(ys, rows)) for k in range(n)] for ys in kernel]
                    nxt.append((mus + (mu,), [_primitive(v) for v in combos]))
        branches = nxt

    def weight(mus: tuple) -> list:  # c lambda(e_1), ..., c lambda(e_n)
        lam = dict(zip(free, mus))
        for row, p in zip(derived.basis, pivots):
            lam[p] = -sum(row[f] * lam[f] for f in free)
        return [lam[i] for i in range(n)]

    return [Subspace._span(n, rows) for mus, rows in sorted(branches, key=lambda b: weight(b[0]))]


def one_dim_ideals(g: LieAlgebra) -> list[Subspace]:
    """Rational lines L with [g, L] contained in L.

    Lines are extracted from the rational weight spaces (one line per echelon
    basis vector, already the echelon basis of its line) and returned sorted
    by pivot position and basis entries, so the order is deterministic.
    """
    lines = {Subspace(g.dim, (b,)) for space in weight_spaces(g) for b in space.basis}
    return sorted(lines, key=lambda l: (l.pivots()[0], l.basis[0]))


def scale_structure_constants(g: LieAlgebra, t: Fraction) -> LieAlgebra:
    """Rescale every bracket by t (exact); used for homogeneity checks."""
    t = frac(t)
    table = {
        key: {k: t * c for k, c in comps.items()}
        for key, comps in g.bracket_table().items()
    }
    return LieAlgebra.from_brackets(g.dim, table, labels=g.basis_labels)
