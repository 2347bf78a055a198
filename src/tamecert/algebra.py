"""Real Lie algebras with exact structure constants and their invariants.

Structure constants are kept as sparse maps over ``Fraction``; every
structural decision (Jacobi, series, ideals, unimodularity, complete
solvability, rational weight spaces and invariant lines) is made in exact
arithmetic at every dimension.  These decisions read one integer bracket
table, c [e_i, e_j] with c the common denominator of the structure
constants, and bracket integer vectors through it, so that ``Fraction``s
are built only for the results.  A ``LieAlgebra`` builds that table once, at
construction (the Jacobi check reads it first), and every exact layer reads
the stored table.  The evaluation-based ``bracket`` stays as the reference.
No floating point is used here.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Mapping, Sequence

from .errors import DimensionMismatch, JacobiViolation
from .linalg import (
    Subspace,
    Vec,
    ZERO,
    _kernel,
    _primitive,
    _scaled,
    all_roots_real,
    charpoly,
    frac,
    rational_roots,
    vec,
)

Brackets = Mapping[tuple[int, int], Mapping[int, Fraction]]


def _normalize_brackets(dim: int, brackets: Brackets) -> dict[tuple[int, int], dict[int, Fraction]]:
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for key, comps in brackets.items():
        # an index is an int that is not a bool, as in the fixture parser
        pair = isinstance(key, tuple) and len(key) == 2 and all(type(x) is int for x in key)
        if not (pair and 0 <= key[0] < key[1] < dim):
            raise DimensionMismatch(f"bracket key {key!r} must be a pair of integers with 0 <= i < j < dim={dim}")
        if not isinstance(comps, Mapping):
            raise DimensionMismatch(f"bracket {key} must map integer component indices, not a {type(comps).__name__}")
        i, j = key
        entry = {}
        for k, c in comps.items():
            if not (type(k) is int and 0 <= k < dim):
                raise DimensionMismatch(f"bracket ({i},{j}) targets component {k!r}, not an integer index below dim={dim}")
            c = frac(c)
            if c != 0:
                entry[k] = c
        if entry:
            out[(i, j)] = entry
    return out


IntTable = dict[tuple[int, int], list[tuple[int, int]]]


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
    # (c, table), table[(i, j)] = c [e_i, e_j] != 0 as (k, int) pairs for i < j, c the lcm of the denominators;
    # read, never changed, and derived from structure_constants, so outside equality, hashing and repr
    _int_table: tuple[int, IntTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sc = self.structure_constants
        c = lcm(*(x.denominator for _, comps in sc for _, x in comps))
        table = {key: [(k, x.numerator * (c // x.denominator)) for k, x in comps] for key, comps in sc}
        object.__setattr__(self, "_int_table", (c, table))

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Brackets,
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        if dim < 0:
            raise DimensionMismatch("dimension must be nonnegative")
        labels = tuple(f"e{i+1}" for i in range(dim)) if labels is None else tuple(labels)
        if len(labels) != dim:
            raise DimensionMismatch(f"{len(labels)} labels for dimension {dim}")
        for k, label in enumerate(labels):  # labels name basis vectors in reports, so each is a distinct string
            if not isinstance(label, str):
                raise DimensionMismatch(f"basis[{k}]: a label must be a string, got {reprlib.repr(label)}")
            if labels.index(label) < k:
                raise DimensionMismatch(f"basis[{k}]: label {reprlib.repr(label)} repeats basis[{labels.index(label)}]")
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

    def check_jacobi(self) -> None:
        """The cyclic sum of [[e_i, e_j], e_k] on each basis triple, c^2 times it off the integer table."""
        c, table = self._int_table
        if not table:
            return
        units = _units(self.dim)
        for i, j, k in combinations(range(self.dim), 3):
            ei, ej, ek = units[i], units[j], units[k]
            triples = ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej))
            cyclic = [_bracket_ints(table, _bracket_ints(table, x, y), z) for x, y, z in triples]
            if any(map(sum, zip(*cyclic))):
                raise JacobiViolation((i, j, k), tuple(Fraction(sum(x), c * c) for x in zip(*cyclic)))

    # --- structural invariants ---

    def is_abelian(self) -> bool:
        return not self.structure_constants

    def is_unimodular(self) -> tuple[bool, int | None]:
        """True iff every basis adjoint is traceless; else (False, witness index).

        Each c tr ad_{e_i} is summed off the integer table in one pass: an entry
        (i, j) -> (k, x) adds x to i's trace when k = j, and -x to j's when k = i."""
        trace = [0] * self.dim
        for (i, j), comps in self._int_table[1].items():
            for k, x in comps:
                if k == j:
                    trace[i] += x
                elif k == i:
                    trace[j] -= x
        witness = next((i for i, t in enumerate(trace) if t), None)
        return witness is None, witness

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [a, b], bracketing the integer echelon rows."""
        _, table = self._int_table
        pairs = combinations(a.rows, 2) if a == b else product(a.rows, b.rows)
        return Subspace._span(self.dim, [_bracket_ints(table, x, y) for x, y in pairs])

    def _series(self, derived: Subspace, lower: bool) -> list[Subspace]:
        """g, derived = [g, g], [l, [g, g]], ... until it stops shrinking; l is g when lower, else the last term."""
        series, nxt = [Subspace.full(self.dim)], derived
        while nxt.dim < series[-1].dim:
            series.append(nxt)
            if nxt.dim:
                nxt = self.bracket_subspaces(series[0] if lower else nxt, nxt)
        return series

    def derived_series(self) -> list[Subspace]:
        return self._series(self.derived_subalgebra(), False)

    def lower_central_series(self) -> list[Subspace]:
        return self._series(self.derived_subalgebra(), True)

    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of the nonzero brackets [e_i, e_j], read off the integer table."""
        rows = []
        for comps in self._int_table[1].values():
            rows.append([0] * self.dim)
            for k, x in comps:
                rows[-1][k] = x
        return Subspace._span(self.dim, rows)

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_ideal(self, h: Subspace) -> bool:
        _, table = self._int_table
        return not table or all(h._contains_ints(_bracket_ints(table, e, b)) for e in _units(self.dim) for b in h.rows)


@dataclass(frozen=True)
class CompleteSolvability:
    value: bool
    witness: int | None  # first basis index whose adjoint has a non-real eigenvalue

    def __bool__(self) -> bool:
        return self.value


def is_completely_solvable(g: LieAlgebra) -> CompleteSolvability:
    """Solvable with all adjoint weights real, by Sturm real-root counts.

    ad_x maps g into D = [g, g], so it is block triangular over D with a zero
    block on g / D: its characteristic polynomial is t^(n - dim D) times that
    of ad_x on D, read in D's scaled rows.  The eigenvalues are the weights at
    x, and a weight vanishes on D, so its value at a pivot of D is a rational
    combination of those at D's free columns: testing these decides, and D = 0
    at once.  Only if one fails is every e_i scanned, for the first witness.
    """
    return _completely_solvable(g, g.derived_series())


def _completely_solvable(g: LieAlgebra, series: list[Subspace]) -> CompleteSolvability:
    if series[-1].dim or len(series) < 3:  # not solvable; or D = 0, as g is abelian or 0
        return CompleteSolvability(not series[-1].dim, None)
    pivots = series[1]._pivots
    b, _ = _scaled(series[1].rows)
    _, table = g._int_table

    def real(i: int) -> bool:  # whether s c ad_{e_i} on D, in D's rows b on one pivot entry s, has a real spectrum
        images = [_bracket_ints(table, [int(k == i) for k in range(g.dim)], x) for x in b]
        return all_roots_real(charpoly([[v[p] for v in images] for p in pivots]))

    failed = next((f for f in range(g.dim) if f not in pivots and not real(f)), None)
    witness = None if failed is None else next((p for p in pivots if p < failed and not real(p)), failed)
    return CompleteSolvability(witness is None, witness)


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
    branch keeps it, at weight 0, without a characteristic polynomial.  Each
    c lambda(e_i) is a rational eigenvalue of the integer matrix c ad_{e_i},
    so an integer, and the branches sort by these integer weight vectors.
    A branch of one row w needs no eigenvalue and no kernel either: every
    branch is invariant under each ad_{e_i}, as they commute on Z, so w is
    an eigenvector and its weight is c [e_i, w]_q / w_q at any q with w_q != 0.
    """
    return _weight_spaces(g, g.derived_subalgebra())


def _weight_spaces(g: LieAlgebra, derived: Subspace, space: Subspace | None = None) -> list[Subspace]:
    """The nonzero (weight space cap space), for a caller that already holds
    derived = [g, g]; space is an ideal of g, and g itself when None.

    The search starts from Z cap space and keeps the weights and their order:
    Z cap space is an ideal, so its joint eigenspaces are those intersections.
    The precheck passes space = D, so no characteristic polynomial is larger
    than dim D; the tower's invariant lines pass None, and weight_spaces too.
    Z cap space is the kernel of [b, sum y_r s_r] over D's rows b and space's
    rows s, which for space = g is the stacked c ad_b; when every such bracket
    is 0, as for an abelian D in itself, it is space's rows, with no kernel.
    """
    n = g.dim
    _, table = g._int_table
    units = _units(n)
    space = Subspace.full(n) if space is None else space
    # Z cap space: the combinations y of space's rows s with [b, sum y_r s_r] = 0 for every
    # row b of D; canonical as the branch rows below are, with the pivots of space's rows
    # at the kernel's free columns
    if space == derived:  # [b, s] = -[s, b]: each pair of D's rows is bracketed once
        images = [[[0] * n for _ in space.rows] for _ in space.rows]
        for (s, x), (t, y) in combinations(enumerate(space.rows), 2):
            images[s][t] = _bracket_ints(table, x, y)
            images[t][s] = [-v for v in images[s][t]]
    else:
        images = [[_bracket_ints(table, b, s) for s in space.rows] for b in derived.rows]
    if any(any(v) for row in images for v in row):
        kernel, free = _kernel([[v[k] for v in row] for row in images for k in range(n)], space.dim)
        z = [_primitive([sum(y * s[k] for y, s in zip(ys, space.rows)) for k in range(n)]) for ys in kernel]
        z_cols = [space._pivots[f] for f in free]
    else:
        z, z_cols = [list(s) for s in space.rows], space._pivots
    pivots = derived._pivots
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
            if len(rows) == 1:  # a line kept by ad_{e_i}: its weight is c [e_i, w]_q / w_q at a nonzero w_q
                (w,), (v,) = rows, images
                q = next(k for k, x in enumerate(w) if x)
                nxt.append((mus + (v[q] // w[q],), rows))
                continue
            if roots is None:
                # column j of the restriction: c [e_i, z_j] read at z's free columns, times s for
                # ints; its roots s mu are integers, each mu an eigenvalue of the integer c ad_{e_i}
                zimg = images if rows is z else [_bracket_ints(table, units[i], w) for w in z]
                s = lcm(*(w[f] for w, f in zip(z, z_cols)))
                scaled = [[v[f] * (s // w[f]) for v in zimg] for w, f in zip(z, z_cols)]
                roots = [r // s for r in rational_roots(charpoly(scaled))]
            for mu in roots:
                shifted = [[v[r] - mu * w[r] for v, w in zip(images, rows)] for r in range(n)]
                kernel, _ = _kernel(shifted, len(rows))
                if kernel:
                    combos = [[sum(y * w[k] for y, w in zip(ys, rows)) for k in range(n)] for ys in kernel]
                    nxt.append((mus + (mu,), [_primitive(v) for v in combos]))
        branches = nxt

    def weight(mus: tuple) -> list[int]:  # c lambda(e_1), ..., c lambda(e_n), integers as the mus are
        lam = dict(zip(free, mus))
        for row, p in zip(derived.rows, pivots):
            lam[p] = -sum(row[f] * lam[f] for f in free) // row[p]
        return [lam[i] for i in range(n)]

    if len(branches) > 1:
        branches.sort(key=lambda b: weight(b[0]))
    # each branch's rows are already canonical: z is, and a reduced-echelon kernel
    # combination of reduced-echelon rows, made primitive, stays reduced echelon
    return [Subspace(n, tuple(map(tuple, rows))) for _, rows in branches]


def one_dim_ideals(g: LieAlgebra) -> list[Subspace]:
    """Rational lines L with [g, L] contained in L.

    Lines are extracted from the rational weight spaces (one line per echelon
    row, already the echelon row of its line) and returned sorted by pivot
    position and reduced-echelon basis entries, so the order is deterministic.
    """
    return _one_dim_ideals(g, g.derived_subalgebra())


def _one_dim_ideals(g: LieAlgebra, derived: Subspace) -> list[Subspace]:
    """one_dim_ideals for a caller that already holds derived = [g, g]; the rows,
    scaled to one pivot entry, order as the reduced-echelon basis vectors do."""
    lines = {Subspace(g.dim, (r,), (p,)) for s in _weight_spaces(g, derived) for r, p in zip(s.rows, s._pivots)}
    scale = lcm(*(l.rows[0][l._pivots[0]] for l in lines))
    return sorted(lines, key=lambda l: (l._pivots[0], [x * (scale // l.rows[0][l._pivots[0]]) for x in l.rows[0]]))


def scale_structure_constants(g: LieAlgebra, t: Fraction) -> LieAlgebra:
    """Rescale every bracket by t (exact); used for homogeneity checks."""
    t = frac(t)
    table = {
        key: {k: t * c for k, c in comps.items()}
        for key, comps in g.bracket_table().items()
    }
    return LieAlgebra.from_brackets(g.dim, table, labels=g.basis_labels)
