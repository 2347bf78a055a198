"""Exact linear algebra over the rationals: exact rationals; eliminations in integers.

Every argument and every returned entry is a ``fractions.Fraction`` (or an
int), and nothing here uses floating point; the numeric lanes of the package
convert at their own boundary.  The eliminations clear each row's
denominators once and then work in Python ints: ``rref`` is fraction-free
Gauss-Jordan on primitive integer rows, ``det`` and
``leading_minors_positive`` are one Bareiss pass (Math. Comp. 22, 1968), and
``charpoly`` runs Faddeev-LeVerrier on the integer matrix d*A.  The root
functions take one Sturm chain of primitive integer polynomials, with no
squarefree part: it counts the distinct real and complex roots, and a Sturm
bisection finds the rational roots.  Fractions are built once, from the
final integers.  Subspaces are canonicalized to reduced row echelon form so
that equality of subspaces is equality of representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Sequence[Fraction]) -> Vec:
    return tuple(c * x for x in a)


def vec_dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def mat_from_rows(rows: Iterable[Sequence]) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def mat_copy(m: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(row) for row in m]


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = transpose(b)
    return [[vec_dot(row, col) for col in bt] for row in a]


def mat_add(a, b) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: Fraction, m) -> Mat:
    return [[c * x for x in row] for row in m]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(list(ra) == list(rb) for ra, rb in zip(a, b))


def mat_trace(m: Sequence[Sequence[Fraction]]) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), ZERO)


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


def _echelon(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Returns the nonzero rows, as primitive integer rows, and the pivot
    columns; each row's pivot is the only nonzero entry of its column, so
    dividing each row by its pivot gives the reduced row echelon form.
    """
    m = [_primitive(_cleared(r)[0]) for r in rows]
    if not m:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = _primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    red, pivots = _echelon(rows)
    return [[Fraction(x, row[p]) if x else ZERO for x in row] for row, p in zip(red, pivots)], pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def nullspace(m: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Vec]:
    """Echelon-canonical basis of {v : m @ v = 0}."""
    if ncols is None:
        if not m:
            raise ValueError("nullspace of an empty matrix needs an explicit ncols")
        ncols = len(m[0])
    red, pivots = _echelon(m)
    # one kernel vector per free column f, scaled by the lcm of the pivots to stay integral
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    canon, _ = rref(basis)
    return [tuple(row) for row in canon]


def solve(m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec | None:
    """One solution of m @ x = b, or None if inconsistent."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    aug = [list(m[i]) + [b[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = red[r][-1]
    return tuple(x)


def _bareiss_step(a: list[list[int]], k: int, prev: int) -> None:
    """Eliminate column k below row k; prev is the previous pivot, which divides exactly."""
    ak = a[k]
    p = ak[k]
    for i in range(k + 1, len(a)):
        ai = a[i]
        f = ai[k]
        ai[k + 1 :] = [(x * p - f * y) // prev for x, y in zip(ai[k + 1 :], ak[k + 1 :])]


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Bareiss elimination on the rows cleared of denominators."""
    n = len(m)
    if n == 0:
        return ONE
    a, scale = [], 1
    for row in m:
        ints, d = _cleared(row)
        a.append(ints)
        scale *= d
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        _bareiss_step(a, k, prev)
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], scale)


def leading_minors_positive(m: Sequence[Sequence[Fraction]]) -> bool:
    """Every leading principal minor is positive: Sylvester's test for positive definiteness.

    Without pivoting, the k-th Bareiss pivot is the k-th leading minor of the
    matrix cleared of denominators, whose positive row scales keep each
    minor's sign.
    """
    a = [_cleared(row)[0] for row in m]
    prev = 1
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        _bareiss_step(a, k, prev)
        prev = a[k][k]
    return True


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> Mat:
    n = len(m)
    aug = [list(m[i]) + list(identity(n)[i]) for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def charpoly(m: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Coefficients [c0, c1, ..., 1] of det(tI - m), ascending in t.

    Faddeev-LeVerrier on the integer matrix B = d*m, d the lcm of the
    denominators of m: every step, and the division of each trace by k, is
    exact in ints, and the coefficient c_k of det(tI - B) gives c_k / d^k.
    The zero matrix, the adjoint of every central element, gives t^n at once.
    """
    n = len(m)
    coeffs = [ZERO] * n + [ONE]
    if all(x == 0 for row in m for x in row):
        return coeffs
    ints, d = clear_denominators(m)
    b = [[(j, x) for j, x in enumerate(row) if x] for row in ints]  # the nonzero entries of B's rows
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
        coeffs[n - k] = Fraction(c, d**k)
        for i in range(n):
            mk[i][i] += c
    return coeffs


# --- integer polynomials, ascending coefficients: Sturm chains and rational roots ---


def _integer_poly(p: Sequence[Fraction]) -> list[int]:
    """A primitive integer polynomial with the roots of p, without trailing zeros; [] for 0."""
    q = _primitive(_cleared(p)[0])
    while q and not q[-1]:
        q.pop()
    return q


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


def _root_counts(p: Sequence[Fraction]) -> tuple[int, int]:
    """The numbers of distinct real and of distinct complex roots of p.

    The real ones are V(-inf) - V(+inf) on the Sturm chain; the complex ones
    are deg q - deg gcd(q, q'), read off the chain's last element.
    """
    q = _integer_poly(p)
    if len(q) < 2:
        return 0, 0
    chain = _sturm_chain(q)
    at_minus, at_plus = _variations_at_infinity(chain)
    return at_minus - at_plus, len(q) - len(chain[-1])


def count_real_roots(p: Sequence[Fraction]) -> int:
    """Number of distinct real roots, via an integer Sturm chain."""
    return _root_counts(p)[0]


def all_roots_real(p: Sequence[Fraction]) -> bool:
    real, distinct = _root_counts(p)
    return real == distinct


def _horner(f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _integer_roots(q: list[int]) -> list[int]:
    """The integer roots of a monic integer polynomial, by exact Sturm bisection.

    Its rational roots are integers, so no half-integer is a root: the Sturm
    chain of q itself, with no squarefree part, counts the distinct roots in
    (lo - 1/2, hi + 1/2] exactly.  Every root r has |r| <= 2 max
    |q_i|^(1/(deg - i)) (Fujiwara), and rounding each term up to a power of
    two gives the bound; bisecting from it down to unit intervals leaves one
    candidate per interval that still holds a real root.
    """
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
        stack += [(lo, mid, v_lo, v_mid), (mid + 1, hi, v_mid, v_hi)]
    return roots


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All distinct rational roots, ascending.

    With p cleared to integers a_0, ..., a_d, the substitution s = a_d t
    turns a_d^(d-1) p into a monic integer polynomial, whose integer roots s
    give the roots s / a_d.
    """
    q = _integer_poly(p)
    if len(q) < 2:
        return []
    lead, deg = q[-1], len(q) - 1
    monic = [c * lead ** (deg - 1 - i) for i, c in enumerate(q[:-1])] + [1]
    return sorted(Fraction(s, lead) for s in _integer_roots(monic))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored by its unique reduced-echelon basis."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError(f"vector length {len(r)} != ambient dim {ambient_dim}")
        red, _ = rref(rows)
        return cls(ambient_dim, tuple(tuple(r) for r in red))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        return [next(i for i, x in enumerate(row) if x != 0) for row in self.basis]

    def reduce_vector(self, v: Sequence[Fraction]) -> Vec:
        """Residue of v after eliminating this subspace's pivot coordinates."""
        w = list(vec(v))
        for row, p in zip(self.basis, self.pivots()):
            if w[p] != 0:
                c = w[p]
                w = [x - c * y for x, y in zip(w, row)]
        return tuple(w)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(b) for b in other.basis)

    def coordinates_of(self, v: Sequence[Fraction]) -> Vec | None:
        """Coefficients of v in this basis, or None if v is outside."""
        if not self.contains_vector(v):
            return None
        v = vec(v)
        return tuple(v[p] for p in self.pivots())

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: in an echelon form of the rows (a | a), a in self, and
        (b | 0), b in other, the rows with a zero left half span the intersection."""
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient_dim)
        n = self.ambient_dim
        rows = [list(a) + list(a) for a in self.basis] + [list(b) + [0] * n for b in other.basis]
        red, pivots = _echelon(rows)
        return Subspace.from_vectors(n, [row[n:] for row, p in zip(red, pivots) if p >= n])
