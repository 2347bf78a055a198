"""Exact linear algebra over the rationals.

Everything here works on tuples/lists of ``fractions.Fraction`` and is free of
floating point; the numeric lanes of the package convert at their own
boundary.  Subspaces are canonicalized to reduced row echelon form so that
equality of subspaces is equality of representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
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


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(m: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Vec]:
    """Echelon-canonical basis of {v : m @ v = 0}."""
    if ncols is None:
        if not m:
            raise ValueError("nullspace of an empty matrix needs an explicit ncols")
        ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
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


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(m)
    a = mat_copy(m)
    result = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            result = -result
        result *= a[c][c]
        inv = ONE / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> Mat:
    n = len(m)
    aug = [list(m[i]) + list(identity(n)[i]) for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def charpoly(m: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Coefficients [c0, c1, ..., 1] of det(tI - m), ascending in t.

    Faddeev-LeVerrier; exact divisions stay in the rationals.  The zero
    matrix, the adjoint of every central element, gives t^n at once.
    """
    n = len(m)
    coeffs = [ZERO] * n + [ONE]
    if all(x == 0 for row in m for x in row):
        return coeffs
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        c = -mat_trace(mk) / k
        coeffs[n - k] = c
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


def count_real_roots(p: Sequence[Fraction]) -> int:
    """Number of distinct real roots, via a Sturm chain on the squarefree part."""
    q = squarefree_part(p)
    d = poly_deg(q)
    if d <= 0:
        return 0
    chain = [q, poly_deriv(q)]
    while poly_deg(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    def variations(signs: list[int]) -> int:
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    at_plus = [_sign(f[-1]) for f in chain if f]
    at_minus = [_sign(f[-1]) * (-1) ** poly_deg(f) for f in chain if f]
    return variations(at_minus) - variations(at_plus)


def all_roots_real(p: Sequence[Fraction]) -> bool:
    q = squarefree_part(p)
    d = poly_deg(q)
    if d <= 0:
        return True
    return count_real_roots(q) == d


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All distinct rational roots, ascending."""
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
        denom = lcm(*[c.denominator for c in p])
        ip = [int(c * denom) for c in p]
        lead, const = ip[-1], ip[0]
        for num in _divisors(const):
            for den in _divisors(lead):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if poly_eval(p, cand) == 0 and cand not in roots:
                        roots.append(cand)
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
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient_dim)
        # columns: coefficients on self.basis then on other.basis
        cols = [list(b) for b in self.basis] + [[-x for x in b] for b in other.basis]
        kernel = nullspace(transpose(cols), ncols=len(cols))
        vectors = []
        for k in kernel:
            v = zero_vec(self.ambient_dim)
            for c, b in zip(k[: len(self.basis)], self.basis):
                v = vec_add(v, vec_scale(c, b))
            vectors.append(v)
        return Subspace.from_vectors(self.ambient_dim, vectors)

    def standard_complement_positions(self) -> list[int]:
        """Standard coordinates not used as pivots; they index a complement."""
        piv = set(self.pivots())
        return [i for i in range(self.ambient_dim) if i not in piv]
