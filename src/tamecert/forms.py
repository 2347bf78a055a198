"""Exterior forms, the Chevalley-Eilenberg differential, complex structures.

Integrability reads the integer bracket table through ``algebra._bracket_ints``
and finds its complex basis with one ``linalg._forward``, the kernels that
every other exact layer shares.  A ``TwoForm`` is cleared to integers once, at
construction, and every exact layer reads that form (``TwoForm._ints``): on
vectors only through ``TwoForm._apply_ints`` (w Omega(x, y) = x . W y for
Omega = W / w), and its Gram only through ``_gram_ints``, the one taming Gram
kernel, whose view is ``taming_gram``, which the dual lane of ``feasibility``
reads too, and which refuses a J of another dimension than the form.  J' =
den J is applied only through ``ComplexStructure``, from the nonzero entries of
each row that it stores (``_nonzero``, ``_apply_ints``).  Both kernels skip what
is known to be zero: ``_gram_ints`` reads only those nonzero entries, and
``_d2_ints`` writes the zero rows of an empty table without visiting a triple.

Sign convention, fixed globally: d alpha (X, Y) = -alpha([X, Y]) on 1-forms,
extended to 2-forms as an antiderivation, i.e.

    d beta (X, Y, Z) = -beta([X,Y], Z) + beta([X,Z], Y) - beta([Y,Z], X).

The taming condition is packaged as the symmetric Gram form
G(X, Y) = (Omega(X, JY) + Omega(Y, JX)) / 2, so taming = G positive definite.
Only ``is_taming``'s reported float margin comes from ``_numeric``, the numpy module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import copysign, inf, ldexp, lcm
from typing import Iterable, Mapping, Sequence

from .algebra import LieAlgebra, _bracket_ints, _units
from .errors import DimensionMismatch, NotAComplexStructure
from .linalg import (
    Mat,
    Vec,
    ZERO,
    ONE,
    _cleared,
    _forward,
    _symmetric,
    clear_denominators,
    frac,
    leading_minors_positive,
    mat_from_rows,
    nullspace,
    unit_vec,
    vec,
)


@dataclass(frozen=True)
class OneForm:
    dim: int
    coeffs: Vec

    @classmethod
    def from_coeffs(cls, entries: Sequence) -> "OneForm":
        v = vec(entries)
        return cls(len(v), v)

    def __call__(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * frac(xi) for c, xi in zip(self.coeffs, x)), ZERO)


@dataclass(frozen=True)
class TwoForm:
    """Omega = sum over i<j of coeffs[i,j] e^i ^ e^j."""

    dim: int
    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]
    # (w, ((pair, w c), ...)), w the lcm of the denominators; derived, so not in ==, hash or repr
    _ints: tuple[int, tuple[tuple[tuple[int, int], int], ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = lcm(*(c.denominator for _, c in self.coeffs))
        object.__setattr__(self, "_ints", (w, tuple((k, c.numerator * (w // c.denominator)) for k, c in self.coeffs)))

    @classmethod
    def from_dict(cls, dim: int, entries: Mapping[tuple[int, int], object]) -> "TwoForm":
        norm: dict[tuple[int, int], Fraction] = {}
        merged = False
        for key, c in entries.items():
            # a pair of ints that are not bools, as in LieAlgebra; a zero coefficient does not excuse a bad key
            if not isinstance(key, tuple) or len(key) != 2 or type(key[0]) is not int or type(key[1]) is not int:
                raise ValueError(f"index pair {key!r} must be two integers")
            (i, j), c = key, frac(c)
            if i == j:
                raise ValueError("a 2-form has no (i,i) component")
            if i > j:
                i, j, c = j, i, -c
            if not 0 <= i < j < dim:
                raise ValueError(f"index pair ({i},{j}) out of range for dim {dim}")
            if not c:
                continue
            # a Fraction sum only for a pair given both ways round, which alone can cancel to zero
            if (i, j) in norm:
                norm[(i, j)] += c
                merged = True
            else:
                norm[(i, j)] = c
        return cls(dim, tuple(sorted((k, v) for k, v in norm.items() if v) if merged else sorted(norm.items())))

    def __call__(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        x, y = vec(x), vec(y)
        total = ZERO
        for (i, j), c in self.coeffs:
            total += c * (x[i] * y[j] - x[j] * y[i])
        return total

    def _apply_ints(self, u: Sequence[int]) -> list[int]:
        """W u for an integer u, Omega = W / w (``_ints``): every exact layer reads w Omega(x, y) as x . W y."""
        out = [0] * len(u)
        for (a, b), x in self._ints[1]:
            out[a] += x * u[b]
            out[b] -= x * u[a]
        return out

    def scale(self, c) -> "TwoForm":
        c = frac(c)
        return TwoForm.from_dict(self.dim, {k: c * v for k, v in self.coeffs})


@dataclass(frozen=True)
class ThreeForm:
    dim: int
    coeffs: tuple[tuple[tuple[int, int, int], Fraction], ...]

    @classmethod
    def from_dict(cls, dim: int, entries: Mapping[tuple[int, int, int], object]) -> "ThreeForm":
        norm: dict[tuple[int, int, int], Fraction] = {}
        for key, c in entries.items():
            if not isinstance(key, tuple) or len(key) != 3 or any(type(x) is not int for x in key):
                raise ValueError(f"triple {key!r} must hold three integer indices")
            c = frac(c)
            i, j, k = key
            if not 0 <= i < j < k < dim:
                raise ValueError(f"triple {key} must be strictly increasing within dim {dim}")
            # the keys are distinct and each is increasing, so no triple comes twice and nothing is summed
            if c:
                norm[key] = c
        return cls(dim, tuple(sorted(norm.items())))

    def is_zero(self) -> bool:
        return not self.coeffs


def two_form_pairs(dim: int) -> list[tuple[int, int]]:
    return list(combinations(range(dim), 2))


def three_form_triples(dim: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(dim), 3))


def ce_d(g: LieAlgebra, form: OneForm | TwoForm) -> TwoForm | ThreeForm:
    """Chevalley-Eilenberg differential on 1- and 2-forms, evaluating ``g.bracket`` on unit vectors."""
    e = [unit_vec(g.dim, t) for t in range(g.dim)]
    if isinstance(form, OneForm):
        entries = {}
        for i, j in two_form_pairs(g.dim):
            entries[(i, j)] = -form(g.bracket(e[i], e[j]))
        return TwoForm.from_dict(g.dim, entries)
    if isinstance(form, TwoForm):
        entries = {}
        for i, j, k in three_form_triples(g.dim):
            val = (
                -form(g.bracket(e[i], e[j]), e[k])
                + form(g.bracket(e[i], e[k]), e[j])
                - form(g.bracket(e[j], e[k]), e[i])
            )
            entries[(i, j, k)] = val
        return ThreeForm.from_dict(g.dim, entries)
    raise TypeError(f"ce_d expects a OneForm or TwoForm, got {type(form).__name__}")


def d2_matrix(g: LieAlgebra) -> tuple[list[list[Fraction]], list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Matrix of d on 2-forms in the lexicographic wedge bases.

    Assembled from the bracket table: row (i, j, k) is
    d beta(e_i, e_j, e_k) = -beta([e_i,e_j], e_k) + beta([e_i,e_k], e_j) - beta([e_j,e_k], e_i)
    as a function of the coefficients of beta, so it reads three brackets.
    The rows are built in ints (``_d2_ints``), and only their nonzero
    entries become ``Fraction``s; a zero row, every row of an abelian g,
    becomes ``ZERO``s without a pass over its entries.
    ``ce_d`` is the evaluation-based reference.
    """
    c, rows, pairs, triples = _d2_ints(g)
    matrix = [[Fraction(x, c) if x else ZERO for x in row] if any(row) else [ZERO] * len(row) for row in rows]
    return matrix, pairs, triples


def _d2_ints(g: LieAlgebra) -> tuple[int, list[list[int]], list[tuple[int, int]], list[tuple[int, int, int]]]:
    """(c, c d2, pairs, triples): d2_matrix times c, read off the integer table
    c [e_i, e_j], ``LieAlgebra._int_table``, with no ``Fraction``.  Every row of
    an abelian g is zero, since each reads three brackets, so an empty table
    gives its C(n, 3) zero rows at once."""
    pairs = two_form_pairs(g.dim)
    triples = three_form_triples(g.dim)
    column = {pair: k for k, pair in enumerate(pairs)}
    c, table = g._int_table
    if not table:
        return c, [[0] * len(pairs) for _ in triples], pairs, triples
    rows = []
    for i, j, k in triples:
        row = [0] * len(pairs)
        for key, m, sign in (((i, j), k, -1), ((i, k), j, 1), ((j, k), i, -1)):
            # beta(e_l, e_m) is the coefficient of e^l ^ e^m, negated when l > m
            for l, x in table.get(key, ()):
                if l < m:
                    row[column[(l, m)]] += sign * x
                elif l > m:
                    row[column[(m, l)]] -= sign * x
        rows.append(row)
    return c, rows, pairs, triples


def closed_two_forms(g: LieAlgebra) -> list[TwoForm]:
    """Echelon-canonical basis of the closed 2-forms."""
    matrix, pairs, _ = d2_matrix(g)
    return [
        TwoForm.from_dict(g.dim, {pairs[c]: v for c, v in enumerate(k) if v != 0})
        for k in nullspace(matrix, ncols=len(pairs))
    ]


@dataclass(frozen=True)
class ComplexStructure:
    """An endomorphism with J^2 = -I, row-major, acting on column coordinates,
    stored uniquely as J = ints / den, den the lcm of the entries' denominators."""

    dim: int
    ints: tuple[tuple[int, ...], ...]
    den: int
    # each row of ints as its nonzero (column, entry) pairs; derived, so not in ==, hash or repr
    _nonzero: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_nonzero", tuple(tuple((k, z) for k, z in enumerate(row) if z) for row in self.ints))

    @classmethod
    def from_matrix(cls, rows: Iterable[Sequence]) -> "ComplexStructure":
        m = mat_from_rows(rows)
        n = len(m)
        if any(len(r) != n for r in m):
            raise NotAComplexStructure("J must be square")
        if n % 2 != 0:
            raise NotAComplexStructure("J^2 = -I forces an even dimension")
        ints, e = clear_denominators(m)
        if not _squares_to_minus_one(ints, e):
            raise NotAComplexStructure("J^2 != -I")
        return cls(n, tuple(map(tuple, ints)), e)

    @property
    def matrix(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(x, self.den) if x else ZERO for x in row) for row in self.ints)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        w, d = _cleared(vec(v))
        return tuple(Fraction(x, d * self.den) for x in self._apply_ints(w))

    def _apply_ints(self, u: Sequence[int]) -> list[int]:
        """J'u = den J u for an integer vector u, from J''s nonzero entries; every
        exact layer applies J' through this method."""
        return [sum(z * u[k] for k, z in row) for row in self._nonzero]


def _squares_to_minus_one(ints: Sequence[Sequence[int]], e: int) -> bool:
    """J^2 = -I for J = ints / e: each row of ints^2 + e^2 I, summed over the row's nonzero entries, is 0."""
    for i, row in enumerate(ints):
        square = [e * e * (k == i) for k in range(len(row))]
        for j, x in enumerate(row):
            if x:
                square = [s + x * y for s, y in zip(square, ints[j])]
        if any(square):
            return False
    return True


def standard_complex_structure(dim: int) -> ComplexStructure:
    """J e_{2k} = e_{2k+1}, J e_{2k+1} = -e_{2k} (0-indexed pairs)."""
    if dim < 0:
        raise DimensionMismatch("dimension must be nonnegative")
    rows = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim // 2):
        rows[2 * k + 1][2 * k] = ONE
        rows[2 * k][2 * k + 1] = -ONE
    return ComplexStructure.from_matrix(rows)


def _nijenhuis_ints(g: LieAlgebra, J: ComplexStructure, pairs: Iterable[tuple[int, int]]):
    """Yield ((i, j), s N(e_i, e_j) as ints, s) over the given pairs, with s = c e^2.

    N(X, Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY].  With J = J'/e
    (``J.ints``) and c the bracket denominator, so that ``_bracket_ints``
    gives c [x, y] for integer vectors x and y:
    c e^2 N(e_i, e_j) = c[J'e_i, J'e_j] - e^2 c[e_i, e_j] - J'(c[J'e_i, e_j] + c[e_i, J'e_j]).
    """
    e = J.den
    c, table = g._int_table
    units = _units(g.dim)
    columns = [list(col) for col in zip(*J.ints)]  # J'e_j
    for i, j in pairs:
        ji, jj, ei, ej = columns[i], columns[j], units[i], units[j]
        mixed = [x + y for x, y in zip(_bracket_ints(table, ji, ej), _bracket_ints(table, ei, jj))]
        outer = [x - e * e * y for x, y in zip(_bracket_ints(table, ji, jj), _bracket_ints(table, ei, ej))]
        yield (i, j), [x - y for x, y in zip(outer, J._apply_ints(mixed))], c * e * e


def is_integrable(g: LieAlgebra, J: ComplexStructure) -> bool:
    """N = 0, tested on the C(n/2, 2) pairs e_a, e_b of a complex basis {e_b, J e_b}.

    N(JX, Y) = N(X, JY) = -J N(X, Y), so N vanishes on every pair of such a
    basis once it vanishes on the pairs e_a, e_b (``_complex_basis``).
    """
    if J.dim != g.dim:
        raise NotAComplexStructure("J dimension does not match the algebra")
    if g.is_abelian():
        return True
    return not any(any(v) for _, v, _ in _nijenhuis_ints(g, J, combinations(_complex_basis(J), 2)))


def _complex_basis(J: ComplexStructure) -> list[int]:
    """The indices b of the unit vectors e_b, taken greedily in index order,
    each one outside span{e_c, J e_c : c < b}; {e_b, J e_b} is then a basis.

    That span is the span of the pairs already taken, since a skipped e_c lies
    in a J-invariant span and so J e_c does too.  So the b are the even pivot
    columns of the n x 2n integer matrix whose columns are e_0, J'e_0, e_1,
    J'e_1, ...: its rank profile, which one forward pass (``_forward``)
    gives; that pass keeps its rows primitive, so no entry grows on a dense J.
    """
    rows = [[x for b in range(J.dim) for x in (int(a == b), J.ints[a][b])] for a in range(J.dim)]
    return [p // 2 for p in _forward(rows)[1] if p % 2 == 0]


def _gram_ints(omega: TwoForm, J: ComplexStructure) -> tuple[list[list[int]], int]:
    """(d G, d) in ints, d = 2 w den, for G of ``taming_gram``: with Omega = W / w
    (``TwoForm._ints``), J = J' / den and M = Omega J, G = (M + M^T) / 2, and each
    coefficient x of W at (a, b) adds x J'[b] to row a of w den M and -x J'[a] to row b.

    d G = M + M^T is written straight from the nonzero entries of those rows of
    J' (``ComplexStructure._nonzero``): an entry v added to M at (a, k) is
    added to d G at (a, k) and at (k, a), twice to the diagonal when k = a.  So
    the work is that of J''s nonzeros on the rows W reads, one per row for a
    standard J, with no dense row of M and no pass over all n^2 entries."""
    n, (w, coeffs) = omega.dim, omega._ints
    if J.dim != n:
        raise NotAComplexStructure(f"J has dimension {J.dim}, the form {n}")
    gram = [[0] * n for _ in range(n)]
    for (a, b), x in coeffs:
        for row, sign, col in ((a, x, b), (b, -x, a)):
            out = gram[row]
            for k, z in J._nonzero[col]:
                v = sign * z
                out[k] += v
                gram[k][row] += v
    return gram, 2 * w * J.den


def taming_gram(omega: TwoForm, J: ComplexStructure) -> Mat:
    """Symmetric Gram matrix G(X,Y) = (Omega(X,JY) + Omega(Y,JX)) / 2, the
    exact view (``linalg._symmetric``) of ``_gram_ints``: a ``Fraction`` per
    nonzero entry and the int 0 per zero, which the float Gram stack of
    ``build_problem`` converts in C; most entries of a sparse Gram are zero."""
    return _symmetric(*_gram_ints(omega, J), 0)


@dataclass(frozen=True)
class TamingResult:
    value: bool
    margin: float  # numeric lambda_min of the Gram, for reporting

    def __bool__(self) -> bool:
        return self.value


def is_taming(omega: TwoForm, J: ComplexStructure, *, exact: bool = True) -> TamingResult:
    """Strict taming check: the Gram is positive definite, by exact leading minors.

    The margin, the Gram's lambda_min, is reported as a float (``_margin``).
    exact is unread: kept for perfbench/ until ROADMAP item 1's benchmark change.
    """
    gram, d = _gram_ints(omega, J)  # refuses a J of another dimension, for a 0-dim form too
    if not gram:
        return TamingResult(True, float("inf"))
    return TamingResult(leading_minors_positive(gram), _margin(gram, d))


def _margin(gram: list[list[int]], d: int) -> float:
    """lambda_min(gram / d) as a float.  When an entry is beyond the range of a double, it is
    2^k lambda_min(gram / (d 2^k)), the shift 2^k bringing the largest entry within a factor 2 of 1,
    and +-inf when that product is beyond the range too."""
    from . import _numeric
    try:
        return _numeric.min_eigenvalue([[x / d for x in row] for row in gram])
    except OverflowError:  # int / int beyond the range of a double
        k = max(abs(x) for row in gram for x in row).bit_length() - d.bit_length()
        lam = _numeric.min_eigenvalue([[x / (d << k) for x in row] for row in gram])
    try:
        return ldexp(lam, k)
    except OverflowError:
        return copysign(inf, lam)
