"""Small exact linear algebra helpers over the rationals.

Matrices are lists of rows of Fractions or ints.  Each row is scaled to
integers by the lcm of its denominators (`_int_row`), and one elimination
runs on the ints: `IntSpan`'s fraction-free row echelon for `rank` and
`rref` (and through it `solve`, `nullspace`, `matinv`), and the Bareiss
elimination of `algebra.poly_det` for `det_fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .algebra import poly_det


def _int_row(row):
    """(d, d * row) for d the lcm of the row's denominators."""
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _echelon(matrix):
    """The rows of a rational matrix in one `IntSpan`."""
    span = IntSpan(len(matrix[0]) if matrix else 0)
    for row in matrix:
        span.add(_int_row(row)[1])
    return span


def rref(matrix):
    """Reduced row echelon form. Returns (rows, pivot_columns); zero rows
    pad the result to the height of `matrix`."""
    span = _echelon(matrix)
    rows, pivots = span.rows, span.pivots
    # clear each pivot column above its pivot, last row first, so every
    # row is reduced by rows that are already reduced
    for i in range(len(rows) - 2, -1, -1):
        v = rows[i]
        for row, p in zip(rows[i + 1:], pivots[i + 1:]):
            if v[p]:
                g = gcd(row[p], v[p])
                fa, fb = row[p] // g, v[p] // g
                v = [fa * x - fb * y for x, y in zip(v, row)]
        rows[i] = v
    out = [[Fraction(x, v[p]) for x in v] for v, p in zip(rows, pivots)]
    out += [[Fraction(0)] * span.dim for _ in range(len(matrix) - len(out))]
    return out, pivots


def rank(matrix):
    return _echelon(matrix).rank


def solve(A, b):
    """Solve A x = b exactly; raises ValueError if inconsistent.
    Under-determined systems return one solution (free vars = 0)."""
    cols = len(A[0])
    m, pivots = rref([[*row, y] for row, y in zip(A, b)])
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            raise ValueError("inconsistent linear system")
        x[c] = m[r][cols]
    # verify (cheap insurance for under-determined inputs)
    for row, y in zip(A, b):
        if sum(a * v for a, v in zip(row, x)) != y:
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
    m, pivots = rref([[*row, *(int(i == j) for j in range(n))]
                      for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def det_fraction(A):
    """Determinant of a rational matrix: each row is scaled to integers by
    the lcm of its denominators, and `poly_det` eliminates on the ints."""
    scaled = [_int_row(row) for row in A]
    return Fraction(poly_det([row for _, row in scaled]),
                    prod(den for den, _ in scaled))


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
