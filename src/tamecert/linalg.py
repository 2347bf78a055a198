"""Exact linear algebra over the rationals: exact rationals; eliminations in integers.

Every argument and every returned entry is a ``fractions.Fraction`` (or an
int), and nothing here uses floating point; the numeric lanes of the package
convert at their own boundary.  Two views write each exact zero as the int
0, which compares and converts in C, and a ``Fraction`` per nonzero entry,
since most of their entries are zero: ``nullspace``'s basis and
``forms.taming_gram``, through the ``zero`` that ``_reduced`` and
``_symmetric`` take; bases, inverses and certificates keep ``ZERO``.  The
eliminations work in Python ints on rows cleared of denominators once; a
caller that already holds integer rows, as every subspace and bracket kernel
does, hands them over uncleared.
One fraction-free elimination loop on primitive integer rows serves at two
depths: ``_forward`` stops at a row echelon form, which gives the rank
profile, and ``_echelon`` back-substitutes to the reduced form.  ``_kernel``
reads the reduced echelon basis of a kernel off one elimination, with the
columns reversed; ``_invariant_part`` reads {v in V : Jv in V}, as rows of
Q^n, off one kernel on V's rows on one pivot entry (``_scaled``).  ``det``
and ``leading_minors_positive`` share one Bareiss step (Math. Comp. 22,
1968) that rewrites a row only where it is nonzero in the pivot column and
brings a skipped row up to date by its own divisor when it is next used,
so a diagonal matrix is decided with no row rewritten.  ``nullspace`` of a
matrix with no nonzero row returns the unit basis with no elimination.
The polynomial layer is integer: ``charpoly`` takes an integer matrix and
returns its monic integer characteristic polynomial, whose rational roots
are integers, and the root functions read it as it is.  One Sturm chain of
primitive integer polynomials, with no squarefree part, counts the distinct
real and complex roots, and a Sturm bisection on the same chain finds the
integer roots at every degree.  Fractions are built once, from the final
integers.  A subspace is stored as the integer rows ``_echelon`` returns,
unique per subspace, so equality of subspaces is equality of rows.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]  # the zeros of nullspace's and taming_gram's views are the int 0

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)


def frac(x) -> Fraction:
    """The one coercion to an exact rational: a ``Fraction``, an ``int`` that is
    not a ``bool``, or a string that fully matches ``[+-]?\\d+(/\\d+)?`` in ASCII
    digits, such as "3", "-3/4" or "+2".  Any other type, booleans and floats
    included, raises ``TypeError``; any other string (a decimal, an exponent,
    an underscore, padding, a zero denominator, or past ``int``'s digit limit)
    raises ``ValueError``, so no string costs more than reading its digits.
    A refusal quotes ``reprlib.repr(x)``, an excerpt of at most 30 characters
    of a string, so a long refused value gives a short message."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValueError(f"bad rational {reprlib.repr(x)}: expected an integer or 'p/q' string")
        num, den = int(m[1]), int(m[2] or 1)
        if den == 0:
            raise ValueError(f"bad rational {reprlib.repr(x)}: zero denominator")
        return Fraction(num, den)
    raise TypeError(f"expected an exact rational (an integer or 'p/q' string), got {type(x).__name__}: {reprlib.repr(x)}")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def mat_from_rows(rows: Iterable[Sequence]) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = transpose(b)
    return [[vec_dot(row, col) for col in bt] for row in a]


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _cleared(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times d, the lcm of its denominators, as ints; and d."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def clear_denominators(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """d * m as ints, d the lcm of all the denominators of m; and d."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _clear_column(m: list[list[int]], k: int, c: int, rows: Iterable[int]) -> None:
    """Eliminate column c from the rows m[i], i in rows, with the pivot row m[k]; each stays primitive."""
    prow = m[k]
    p = prow[c]
    for i in rows:
        f = m[i][c]
        if f:
            m[i] = _primitive([p * x - f * y for x, y in zip(m[i], prow)])


def _forward(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination of integer rows: the rank profile.

    Returns the nonzero rows of a row echelon form, each primitive, and the
    pivot columns, which are those of the reduced form too; each pivot is
    eliminated from the rows below it only.
    """
    m = [_primitive(list(r)) for r in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is not None:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            _clear_column(m, r, c, range(r + 1, len(m)))
            pivots.append(c)
    return m[: len(pivots)], pivots


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of integer rows.

    ``_forward``, then back-substitution from the last pivot up, so that each
    pivot is the only nonzero entry of its column.  Returns the nonzero rows,
    primitive with positive pivots, and the pivot columns: the reduced row
    echelon form with each row cleared, unique per row space.  Callers
    holding Fractions clear each row first (``_cleared``).
    """
    m, pivots = _forward(rows)
    for k in range(len(m) - 1, 0, -1):
        _clear_column(m, k, pivots[k], range(k))
    return [row if row[p] > 0 else [-x for x in row] for row, p in zip(m, pivots)], pivots


def _reduced(red: Sequence[Sequence[int]], pivots: Sequence[int], zero: Fraction | int) -> Mat:
    """The reduced row echelon rows of _echelon's integer rows: a ``Fraction`` per
    nonzero entry and ``zero`` per zero entry, ``ZERO`` for a basis or an
    inverse, the int 0 for ``nullspace``'s view."""
    return [[Fraction(x, row[p]) if x else zero for x in row] for row, p in zip(red, pivots)]


def _kernel(m: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon basis of {v : m @ v = 0}, m of integer rows, as
    primitive integer rows with positive pivots, and its pivot columns.

    One elimination of m with its columns reversed: each of its free
    columns f gives a kernel vector nonzero at f and at pivot columns after
    f only, so zero at every other free column.  Taken by ascending f they
    are the reduced echelon form of the kernel, with pivots f, so a kernel
    vector's coordinates in this basis are read off at those columns.
    """
    red, pivots = _echelon([row[::-1] for row in m])  # column j of red is column ncols - 1 - j of m
    # scaled by the lcm of the pivots to stay integral
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    pivot_set = set(pivots)
    basis, free = [], []
    for j in reversed(range(ncols)):
        if j not in pivot_set:
            v = [0] * ncols
            v[j] = scale
            for row, p in zip(red, pivots):
                v[p] = -row[j] * (scale // row[p])
            basis.append(_primitive(v[::-1]))
            free.append(ncols - 1 - j)
    return basis, free


def _scaled(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Echelon integer rows with positive pivots scaled to one pivot entry s, their lcm; and s."""
    firsts = [next(filter(None, row)) for row in rows]
    s = lcm(*firsts)
    return [[x * (s // f) for x in row] for row, f in zip(rows, firsts)], s


def _invariant_part(b: list[list[int]], s: int, pivots: Sequence[int], images: Sequence[Sequence[int]]) -> list[list[int]]:
    """{v in V : Av in V}, V != 0 spanned by b, as the echelon rows sum_k y_k b_k of the ambient space: b
    are V's echelon rows scaled to one pivot entry s (``_scaled``), pivots their pivot columns q, and
    images the rows A' b_k, A' a positive multiple of A.  y runs over ``_kernel``'s rows for the residues
    s A' b_k - sum_l (A' b_k)[q_l] b_l at the columns outside q; for A = J it is V cap JV."""
    free = [i for i in range(len(b[0])) if i not in pivots]
    residues = [[s * v[i] - sum(v[q] * r[i] for q, r in zip(pivots, b)) for v in images] for i in free]
    return [[_dot(y, col) for col in zip(*b)] for y in _kernel(residues, len(b))[0]]


def nullspace(m: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Echelon-canonical basis of {v : m @ v = 0} in Q^ncols; ncols is given, as m may have no rows.

    Each zero entry of a basis vector is the int 0, which ``v != 0`` reads in
    C, and each nonzero entry a ``Fraction``: most entries of a closed-form
    basis are zero, and ``forms.closed_two_forms`` tests each one.

    All-zero rows constrain nothing, so they are dropped before any row is
    cleared: the d on 2-forms of an abelian algebra is all zero rows, and
    most rows of ``forms.d2_matrix`` on a sparse bracket table are.  A row is
    kept at once when its first entry is nonzero, and otherwise compared with
    the zero row: list equality tests identity first, so it passes each
    shared ``ZERO`` that ``d2_matrix`` writes in C, with no
    ``Fraction.__bool__`` per entry, and it stays exact for any other zero.
    When no row is left, as on every abelian d2, the kernel is all of
    Q^ncols and its unit basis, the int 0 and the shared ``ONE``, is
    returned with no elimination.
    """
    zero = [ZERO] * ncols
    ints = [_cleared(r)[0] for r in m if r and (r[0] or list(r) != zero)]
    if not ints:
        zeros = (0,) * ncols
        return [zeros[:i] + (ONE,) + zeros[i + 1 :] for i in range(ncols)]
    return [tuple(row) for row in _reduced(*_kernel(ints, ncols), 0)]


def _bareiss_step(a: list[list[int]], k: int, prev: int, last: list[int]) -> int:
    """Bareiss step k: eliminate column k below row k and return the pivot;
    prev is the pivot of step k - 1 (1 at k = 0).

    Row i holds its entries as of the divisor last[i]: consecutive divisors
    telescope, so its entries at step k are a[i] * prev / last[i], exactly.
    Only the rows nonzero at column k are rewritten, each divided by its own
    last[i], which brings it up to date in the same exact pass; the pivot
    row is brought up to date first if any row is.  A dense matrix keeps
    every last[i] at prev and makes Bareiss's eliminations; a diagonal one
    rewrites no row.
    """
    ak = a[k]
    p = ak[k] if last[k] == prev else ak[k] * prev // last[k]
    rows = [i for i in range(k + 1, len(a)) if a[i][k]]
    if rows and last[k] != prev:
        ak[k + 1 :] = [x * prev // last[k] for x in ak[k + 1 :]]
    tail = ak[k + 1 :]
    for i in rows:
        ai, f, e = a[i], a[i][k], last[i]
        ai[k + 1 :] = [(x * p - f * y) // e for x, y in zip(ai[k + 1 :], tail)]
        last[i] = p
    return p


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Bareiss elimination on the rows cleared of denominators, swapping a
    row zero at its pivot with the first row below that is not."""
    n = len(m)
    a, scale = [], 1
    for row in m:
        ints, d = _cleared(row)
        a.append(ints)
        scale *= d
    sign, prev, last = 1, 1, [1] * n
    for k in range(n):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return ZERO
            a[k], a[swap] = a[swap], a[k]
            last[k], last[swap] = last[swap], last[k]
            sign = -sign
        prev = _bareiss_step(a, k, prev, last)
    return Fraction(sign * prev, scale)


def leading_minors_positive(m: Sequence[Sequence[int]]) -> bool:
    """Every leading principal minor of an integer matrix is positive:
    Sylvester's test for positive definiteness.

    Without pivoting, the k-th Bareiss pivot is the k-th leading minor of the
    matrix with each row made primitive: positive row scales keep each
    minor's sign, and primitive rows keep an integer Gram d G
    (``forms._gram_ints``) small.  A row that ``_bareiss_step`` has not
    brought up to date is a positive multiple of its current entries, so
    its diagonal entry has the sign of the pivot.  It takes integer rows
    only: a caller holding a ``Fraction`` matrix clears it first with
    ``clear_denominators``.
    """
    a = [_primitive(list(row)) for row in m]
    prev, last = 1, [1] * len(a)
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        prev = _bareiss_step(a, k, prev, last)
    return True


def _symmetric(m: Sequence[Sequence[int]], d: int, zero: Fraction | int) -> Mat:
    """m / d for a symmetric integer matrix m, with one ``Fraction`` per nonzero
    entry (i, j), i <= j, stored at (j, i) as well, and ``zero`` per zero entry:
    ``ZERO`` for a dual certificate, the int 0 for ``forms.taming_gram``'s view."""
    out = [[zero] * len(m) for _ in m]
    for i, row in enumerate(m):
        for j in range(i, len(m)):
            if row[j]:
                out[i][j] = out[j][i] = Fraction(row[j], d)
    return out


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> Mat:
    """The right half of the reduced echelon form of (m | I), each row cleared."""
    n = len(m)
    red, pivots = _echelon(_cleared([*row, *(int(i == j) for j in range(n))])[0] for i, row in enumerate(m))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in _reduced(red, pivots, ZERO)]


def charpoly(m: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients [c0, c1, ..., 1] of det(tI - m), ascending in t, for an integer matrix m.

    Faddeev-LeVerrier: every step, and the division of each trace by k, is
    exact in ints.  The zero matrix, the adjoint of every central element,
    gives t^n at once.
    """
    n = len(m)
    coeffs = [0] * n + [1]
    if not any(map(any, m)):
        return coeffs
    b = [[(j, x) for j, x in enumerate(row) if x] for row in m]  # the nonzero entries of m's rows
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = []
        for terms in b:
            out = [0] * n
            for j, x in terms:
                out = [o + x * y for o, y in zip(out, mk[j])]
            prod.append(out)
        mk = prod
        c = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


# --- monic integer polynomials, ascending coefficients: Sturm chains and integer roots ---


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(q: list[int]) -> list[list[int]]:
    """The Sturm chain q, q', -rem(q, q'), ... of an integer q of degree >= 1.

    Each remainder is taken after scaling by |lead(b)|, never by lead(b),
    and each element is divided by its content: only positive factors, so
    the sign variations and Sturm's theorem are those of the rational chain.
    The chain ends at a multiple of gcd(q, q'): its variations count the
    distinct real roots of q in (a, b] wherever q(a) and q(b) are nonzero,
    without taking a squarefree part.
    """
    chain = [_primitive(q), _primitive([k * c for k, c in enumerate(q)][1:])]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        while len(r) >= len(b):  # r <- |lead(b)| r - sign(lead(b)) lead(r) t^shift b
            c, shift = _sign(b[-1]) * r[-1], len(r) - len(b)
            r = [abs(b[-1]) * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(signs: Iterable[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at_infinity(chain: list[list[int]]) -> tuple[int, int]:
    """V(-inf) and V(+inf), read off the leading terms."""
    at_plus = [_sign(f[-1]) for f in chain]
    return _variations(s * (-1) ** (len(f) - 1) for s, f in zip(at_plus, chain)), _variations(at_plus)


def _root_counts(q: Sequence[int]) -> tuple[int, int]:
    """The numbers of distinct real and of distinct complex roots of a monic integer q.

    The real ones are V(-inf) - V(+inf) on the Sturm chain; the complex ones
    are deg q - deg gcd(q, q'), read off the chain's last element.
    """
    if len(q) < 2:
        return 0, 0
    chain = _sturm_chain(q)
    at_minus, at_plus = _variations_at_infinity(chain)
    return at_minus - at_plus, len(q) - len(chain[-1])


def all_roots_real(q: Sequence[int]) -> bool:
    real, distinct = _root_counts(q)
    return real == distinct


def _horner(f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def rational_roots(q: Sequence[int]) -> list[int]:
    """All distinct rational roots of a monic integer polynomial, ascending, by exact Sturm bisection.

    Its rational roots are integers (the rational root theorem), so no
    half-integer is a root: the Sturm chain of q itself, with no squarefree
    part, counts the distinct roots in (lo - 1/2, hi + 1/2] exactly.  Every
    root r has |r| <= 2 max |q_i|^(1/(deg - i)) (Fujiwara), and rounding each
    term up to a power of two gives the bound; bisecting from it down to unit
    intervals, lower half first, leaves one candidate per interval that still
    holds a real root.  A constant has none.
    """
    if len(q) < 2:
        return []
    # 2^deg(f) f(h / 2) is the integer polynomial with coefficients f_i 2^(deg(f) - i), at h
    halved = [[c << (len(f) - 1 - i) for i, c in enumerate(f)] for f in _sturm_chain(q)]

    def variations(h: int) -> int:  # sign variations of the chain at h / 2
        return _variations(_sign(_horner(f, h)) for f in halved)

    bound = 2 * max(1 << -(-c.bit_length() // (len(q) - 1 - i)) for i, c in enumerate(q[:-1]))
    roots = []
    stack = [(-bound, bound, *_variations_at_infinity(halved))]  # no root lies beyond the bound
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if lo == hi:
            if _horner(q, lo) == 0:
                roots.append(lo)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(2 * mid + 1)
        stack += [(mid + 1, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored by its unique ``_echelon`` rows; ``basis``, the
    reduced-echelon basis, divides each row by its pivot.  The pivot columns, as
    ``_echelon`` and ``_kernel`` return them, are kept outside ==, hash and repr."""

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    _pivots: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._pivots is None:
            object.__setattr__(self, "_pivots", tuple(next(i for i, x in enumerate(row) if x) for row in self.rows))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError(f"vector length {len(r)} != ambient dim {ambient_dim}")
        return cls._span(ambient_dim, [_cleared(r)[0] for r in rows])

    @classmethod
    def _span(cls, ambient_dim: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The span of integer rows, each of length ambient_dim, unchecked."""
        red, pivots = _echelon(rows)
        return cls(ambient_dim, tuple(map(tuple, red)), tuple(pivots))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """Q^n by its unit rows, which are their own echelon form with pivots 0, ..., n - 1."""
        zero = (0,) * ambient_dim
        rows = tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(ambient_dim))
        return cls(ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The reduced row echelon basis, in Fractions."""
        return tuple(map(tuple, _reduced(self.rows, self._pivots, ZERO)))

    def _contains_ints(self, w: Sequence[int]) -> bool:
        """Whether the integer vector w lies here, by eliminating it with the integer rows."""
        for row, p in zip(self.rows, self._pivots):
            if w[p]:
                f = w[p]
                w = [row[p] * x - f * y for x, y in zip(w, row)]
        return not any(w)

    def contains(self, other: "Subspace") -> bool:
        return all(self._contains_ints(r) for r in other.rows)
