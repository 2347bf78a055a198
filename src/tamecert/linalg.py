"""Exact linear algebra over the rationals: exact rationals; eliminations in integers.

Every argument and every returned entry is a ``fractions.Fraction`` (or an
int), and nothing here uses floating point; the numeric lanes of the package
convert at their own boundary.  The eliminations clear each row's
denominators once and then work in Python ints: ``rref`` is fraction-free
Gauss-Jordan on primitive integer rows, ``det`` and
``leading_minors_positive`` are one Bareiss pass (Math. Comp. 22, 1968), and
``charpoly`` runs Faddeev-LeVerrier on the integer matrix d*A.  Fractions are
built once, from the final integers.  Subspaces are canonicalized to reduced
row echelon form so that equality of subspaces is equality of
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
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


# --- dense polynomials over Fraction, ascending coefficients ---


def poly_trim(p: Sequence[Fraction]) -> list[Fraction]:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly_deg(p: Sequence[Fraction]) -> int:
    q = poly_trim(p)
    return len(q) - 1 if q else -1


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = poly_trim(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and poly_trim(r):
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
        r = poly_trim(r)
        if not r:
            break
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(p: Sequence[Fraction]) -> list[Fraction]:
    p = poly_trim(p)
    if poly_deg(p) < 1:
        return list(p)
    g = poly_gcd(p, poly_deriv(p))
    q, r = poly_divmod(p, g)
    assert not r
    return q


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(q: Sequence[Fraction]) -> list[list[Fraction]]:
    """The Sturm chain q, q', -rem(q, q'), ... of a squarefree q."""
    chain = [list(q), poly_deriv(q)]
    while poly_deg(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _variations(signs: Iterable[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Sequence[Fraction]) -> int:
    """Number of distinct real roots, via a Sturm chain on the squarefree part."""
    q = squarefree_part(p)
    if poly_deg(q) <= 0:
        return 0
    chain = [f for f in _sturm_chain(q) if f]
    at_plus = [_sign(f[-1]) for f in chain]
    at_minus = [_sign(f[-1]) * (-1) ** poly_deg(f) for f in chain]
    return _variations(at_minus) - _variations(at_plus)


def all_roots_real(p: Sequence[Fraction]) -> bool:
    q = squarefree_part(p)
    d = poly_deg(q)
    if d <= 0:
        return True
    return count_real_roots(q) == d


# rational_roots tries every divisor quotient of the constant and leading
# coefficients while both are at most this large; above it, the trial division
# up to their square roots costs more than a Sturm bisection
DIVISOR_SEARCH_LIMIT = 10**6


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _int_eval(f: Sequence[int], num: int, den: int) -> int:
    """den^deg(f) f(num / den) for an integer polynomial f, in ints."""
    acc, power = 0, 1
    for c in reversed(f):
        acc = acc * num + c * power
        power *= den
    return acc


def _integer_roots(q: Sequence[int]) -> list[int]:
    """The integer roots of a monic integer polynomial, by exact Sturm bisection.

    Its rational roots are integers, so no half-integer is a root: the Sturm
    chain of its squarefree part, scaled to primitive integer polynomials,
    counts the roots in (lo - 1/2, hi + 1/2] exactly.  Bisecting from the
    Cauchy bound down to unit intervals leaves one candidate per interval
    that still holds a real root.
    """
    chain = [_primitive(_cleared(f)[0]) for f in _sturm_chain(squarefree_part([Fraction(c) for c in q]))]

    def variations(h: int) -> int:  # sign variations of the chain at h / 2
        return _variations(_sign(_int_eval(f, h, 2)) for f in chain)

    bound = 1 + max(abs(c) for c in q[:-1])  # every root r has |r| < bound
    roots = []
    stack = [(-bound, bound, variations(-2 * bound - 1), variations(2 * bound + 1))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if lo == hi:
            if _int_eval(chain[0], lo, 1) == 0:
                roots.append(lo)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(2 * mid + 1)
        stack += [(lo, mid, v_lo, v_mid), (mid + 1, hi, v_mid, v_hi)]
    return roots


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All distinct rational roots, ascending.

    With the coefficients cleared to integers a_0, ..., a_d, the roots are
    found among the quotients of divisors of a_0 and a_d while both are small
    (DIVISOR_SEARCH_LIMIT); otherwise s = a_d t turns the polynomial into a
    monic integer one, whose integer roots s give the roots s / a_d.
    """
    p = poly_trim(p)
    if poly_deg(p) < 1:
        return []
    roots = []
    m = 0  # strip t^m so the constant term is nonzero
    while p[m] == 0:
        m += 1
    if m:
        roots.append(ZERO)
        p = p[m:]
    if poly_deg(p) >= 1:
        ip, _ = _cleared(p)
        lead, const = ip[-1], ip[0]
        if max(abs(lead), abs(const)) <= DIVISOR_SEARCH_LIMIT:
            for num in _divisors(const):
                for den in _divisors(lead):
                    for sign in (1, -1):
                        if _int_eval(ip, sign * num, den) == 0:
                            roots.append(Fraction(sign * num, den))
        else:
            deg = len(ip) - 1
            monic = [c * lead ** (deg - 1 - i) for i, c in enumerate(ip[:-1])] + [1]
            roots += [Fraction(s, lead) for s in _integer_roots(monic)]
    return sorted(set(roots))


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
