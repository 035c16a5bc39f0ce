"""Exact linear algebra: `rref`, `rank`, `solve`, `nullspace` and `matinv`
run on `IntSpan`'s integer echelon and must agree with a Fraction
Gauss–Jordan elimination on every input."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from saitostrata import exactla
from saitostrata.exactla import (IntSpan, matinv, matmul, nullspace, rank,
                                 rref, solve)

BIG = 10 ** 12
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                    database=None)


def _ref_rref(matrix):
    """Gauss–Jordan over Fractions: the first nonzero entry of each column
    below the current row is the pivot, its row is scaled to 1 and the
    column is cleared in every other row."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
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


def _ref_nullspace(A):
    m, pivots = _ref_rref(A)
    cols = len(A[0]) if A else 0
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def _ref_solve(A, b):
    cols = len(A[0])
    m, pivots = _ref_rref([list(row) + [y] for row, y in zip(A, b)])
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return x


def _ref_matinv(A):
    n = len(A)
    m, pivots = _ref_rref([list(row) + [int(i == j) for j in range(n)]
                           for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def _rationals():
    return st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


def _entries(integer=False):
    wide = st.integers(-BIG, BIG) if integer else _rationals()
    return st.one_of(st.just(0), st.integers(-3, 3), wide)


@st.composite
def _matrices(draw, rows=st.integers(0, 7), cols=st.integers(1, 8),
              integer=False):
    """Matrices with zero rows, repeated rows and rows that combine two
    earlier ones, next to rows drawn entry by entry."""
    nrows, ncols = draw(rows), draw(cols)
    entry = _entries(integer)
    m = []
    for i in range(nrows):
        kind = draw(st.sampled_from(("own", "own", "zero", "repeat",
                                     "combination")))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "repeat" and i:
            row = list(m[draw(st.integers(0, i - 1))])
        elif kind == "combination" and i:
            a, b = (m[draw(st.integers(0, i - 1))] for _ in range(2))
            s, t = draw(entry), draw(entry)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [draw(entry) for _ in range(ncols)]
        m.append(row)
    return m


@st.composite
def _systems(draw):
    """(A, b) with A nonempty; b is A x for a drawn x or drawn freely."""
    A = draw(_matrices(rows=st.integers(1, 7)))
    if draw(st.booleans()):
        x = [draw(_entries()) for _ in A[0]]
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
    else:
        b = [draw(_entries()) for _ in A]
    return A, b


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestAgainstGaussJordan:
    @SETTINGS
    @given(_matrices())
    def test_rref_rank_nullspace(self, m):
        rows, pivots = rref(m)
        assert (rows, pivots) == _ref_rref(m)
        assert all(type(x) is Fraction for row in rows for x in row)
        assert rank(m) == len(pivots)
        assert nullspace(m) == _ref_nullspace(m)

    @SETTINGS
    @given(_systems())
    def test_solve(self, system):
        A, b = system
        assert _outcome(solve, A, b) == _outcome(_ref_solve, A, b)

    @SETTINGS
    @given(st.integers(1, 6).flatmap(
        lambda n: _matrices(rows=st.just(n), cols=st.just(n))))
    def test_matinv(self, A):
        inv = _outcome(matinv, A)
        assert inv == _outcome(_ref_matinv, A)
        if not isinstance(inv, str):
            n = len(A)
            assert matmul(A, inv) == [[int(i == j) for j in range(n)]
                                      for i in range(n)]

    @SETTINGS
    @given(_matrices(integer=True), st.data())
    def test_intspan_rank_and_contains(self, m, data):
        span = IntSpan(len(m[0]) if m else 0)
        for row in m:
            span.add(row)
        assert span.rank == rank(m)
        if m:
            v = data.draw(_matrices(rows=st.just(1), cols=st.just(len(m[0])),
                                    integer=True))[0]
            assert span.contains(v) == (rank(m + [v]) == rank(m))
            for row in m:
                assert span.contains(row)


class TestExplicitCases:
    def test_empty_matrix(self):
        assert rref([]) == ([], [])
        assert rank([]) == 0
        assert nullspace([]) == []
        assert matinv([]) == []

    def test_inconsistent_solve(self):
        with pytest.raises(ValueError, match="inconsistent"):
            solve([[1, 2], [2, 4]], [1, 3])

    def test_under_determined_solve_sets_free_variables_to_zero(self):
        assert solve([[1, 2, 3]], [6]) == [6, 0, 0]
        assert solve([[0, 2, 1], [0, 4, 2]], [Fraction(1, 3), Fraction(2, 3)]) \
            == [0, Fraction(1, 6), 0]

    def test_singular_matinv(self):
        with pytest.raises(ValueError, match="singular"):
            matinv([[1, 2], [Fraction(1, 2), 1]])

    def test_rank_builds_no_fraction(self, monkeypatch):
        monkeypatch.setattr(exactla, "Fraction", None)
        assert rank([[Fraction(1, 2), 1], [1, 2], [0, Fraction(3, 7)]]) == 2
