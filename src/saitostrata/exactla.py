"""Small exact linear algebra helpers over the rationals.

Everything works on lists of lists of Fractions (or ints); the determinant
is the Bareiss elimination of `algebra.poly_det`, run on integers. IntSpan
is a fraction-free integer row-echelon span used for the many root-span
membership tests; it avoids Fraction overhead on hot paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import poly_det


def rref(matrix):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def solve(A, b):
    """Solve A x = b exactly; raises ValueError if inconsistent.
    Under-determined systems return one solution (free vars = 0)."""
    rows = len(A)
    aug = [[Fraction(x) for x in A[i]] + [Fraction(b[i])] for i in range(rows)]
    cols = len(A[0])
    m, pivots = rref(aug)
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            raise ValueError("inconsistent linear system")
        x[c] = m[r][cols]
    # verify (cheap insurance for under-determined inputs)
    for i in range(rows):
        if sum(Fraction(A[i][j]) * x[j] for j in range(cols)) != Fraction(b[i]):
            raise ValueError("inconsistent linear system")
    return x


def nullspace(A):
    """Basis of the right null space of A (list of Fraction vectors)."""
    m, pivots = rref(A)
    cols = len(A[0]) if A else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def matinv(A):
    n = len(A)
    aug = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def det_fraction(A):
    """Determinant of a rational matrix: each row is scaled to integers by
    the lcm of its denominators, and `poly_det` eliminates on the ints."""
    scale, rows = 1, []
    for row in A:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        scale *= den
        rows.append([x.numerator * (den // x.denominator) for x in row])
    return Fraction(poly_det(rows), scale)


class IntSpan:
    """Integer row-echelon span with exact membership tests.

    Rows are kept fraction-free (scaled integer vectors). Membership is
    rational-span membership, tested without Fractions on the hot path.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []     # echelon rows (integer, primitive)
        self.pivots = []   # pivot column of each row

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                a, b = row[p], v[p]
                g = gcd(a, b)
                fa, fb = a // g, b // g
                v = [fa * x - fb * y for x, y in zip(v, row)]
        return v

    def contains(self, vec):
        return not any(self._reduce(vec))

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        v = self._reduce(vec)
        for p, x in enumerate(v):
            if x:
                g = 0
                for y in v:
                    g = gcd(g, abs(y))
                v = [y // g for y in v]
                if v[p] < 0:
                    v = [-y for y in v]
                idx = 0
                while idx < len(self.pivots) and self.pivots[idx] < p:
                    idx += 1
                self.rows.insert(idx, v)
                self.pivots.insert(idx, p)
                return True
        return False
