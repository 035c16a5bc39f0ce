"""Exact polynomial arithmetic: rational scalars, sparse multivariate
polynomials, determinants by memoized minors, exact division and trial
factorization into linear forms.

Nothing here ever rounds.  `MultiPoly` is the one polynomial type, and it
computes on Python ints, after Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors" (CASC 2007):

- A monomial is packed into one int: the total degree in the top field,
  the exponents below it in lex order, each field `w` bits wide
  (`_Layout`).  So graded-lexicographic order, the term order of
  canonical serialization and of exact division, is integer order, and a
  monomial product is one addition.  A field holds its value plus one
  guard bit, so no field carries into the next and a negative field of a
  packed difference shows up in its guard bit.
- The coefficients are int numerators over one positive denominator,
  kept in lowest terms, so the loops add and multiply ints.
- Layouts are shared by (number of variables, field width), and a
  polynomial's layout holds its total degree.  A binary operation moves
  the operand on the narrower layout onto the wider one, and a product
  whose degree the layout cannot hold moves both onto a wider one.
- The division scales the divisor to a primitive integer polynomial and
  the numerator to integers.  By Gauss's lemma, if a primitive integer
  polynomial divides an integer polynomial over Q, the quotient has
  integer coefficients.  The division algorithm produces the quotient's
  terms one by one, so a leading coefficient that the divisor's leading
  coefficient does not divide in Z, or a quotient monomial with a
  negative exponent, proves the division inexact and raises
  `NotDivisible` at once.

`coefficient(e)` reads one coefficient off the packed terms.  `.terms`,
a dict from exponent tuples to `Fraction`s built on each access, serves
reports and tests; `__hash__` and `substitute` read `nums` and `den`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

ScalarLike = Union[int, Fraction]


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class InvariantViolation(ArithmeticError):
    """A mathematical identity the program relies on failed."""


class IncompleteFactorization(ArithmeticError):
    """Trial division by the candidate linear forms left a non-constant
    cofactor."""

    def __init__(self, msg, cofactor=None, partial=None):
        super().__init__(msg)
        self.cofactor = cofactor
        self.partial = partial


class _Layout:
    """Field layout for monomials in `nvars` variables, each field `width`
    bits: the bit offset of each exponent field (first variable highest),
    the offset `top` of the total-degree field above them, the field mask,
    and the largest total degree `degree` a field holds with its guard bit
    clear.  Build layouts with `_layout`, which shares them."""

    __slots__ = ("width", "degree", "shifts", "top", "mask")

    def __init__(self, nvars, width):
        self.width = width
        self.degree = (1 << (width - 1)) - 1
        self.shifts = [width * (nvars - 1 - i) for i in range(nvars)]
        self.top = nvars * width
        self.mask = (1 << width) - 1

    def exponents(self, key):
        mask = self.mask
        return tuple([(key >> s) & mask for s in self.shifts])

    def pack(self, e):
        """The key of the exponent tuple e."""
        k = sum(e) << self.top
        for x, s in zip(e, self.shifts):
            k |= x << s
        return k

    def move(self, nums, new, shifts=None):
        """The terms `nums` with the fields at `shifts` (default: all) put
        into the fields of the layout `new`, in order."""
        if new is self and shifts is None:
            return nums
        mask, top, ntop = self.mask, self.top, new.top
        pairs = list(zip(self.shifts if shifts is None else shifts,
                         new.shifts))
        out = {}
        for k, c in nums.items():
            nk = (k >> top) << ntop
            for s, t in pairs:
                nk |= ((k >> s) & mask) << t
            out[nk] = c
        return out


_LAYOUTS = {}


def _layout(nvars, degree):
    """The shared layout of the narrowest fields that hold `degree`."""
    width = max(degree, 0).bit_length() + 1
    lay = _LAYOUTS.get((nvars, width))
    if lay is None:
        lay = _LAYOUTS[nvars, width] = _Layout(nvars, width)
    return lay


def _wider(a, b):
    return a if a.width >= b.width else b


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as `nums`, {packed monomial on `layout`: nonzero int}, over the
    positive denominator `den`, in lowest terms.  `terms` gives the
    {exponent tuple (length nvars): nonzero Fraction} view."""

    __slots__ = ("nvars", "layout", "nums", "den")

    def __init__(self, nvars: int, terms: Mapping[tuple, ScalarLike] | None = None):
        tidy = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    e = tuple(e)
                    if len(e) != nvars:
                        raise ValueError("exponent length mismatch")
                    tidy[e] = tidy.get(e, Fraction(0)) + c
            tidy = {e: c for e, c in tidy.items() if c}
        lay = _layout(nvars, max(map(sum, tidy), default=0))
        den = lcm(*(c.denominator for c in tidy.values()))
        nums = {lay.pack(e): c.numerator * (den // c.denominator)
                for e, c in tidy.items()}
        self.nvars, self.layout, self.nums, self.den = nvars, lay, nums, den

    @classmethod
    def _new(cls, nvars, layout, nums, den=1):
        """The polynomial nums / den, with den brought to lowest terms."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                den //= g
        p = cls.__new__(cls)
        p.nvars, p.layout, p.nums, p.den = nvars, layout, nums, den
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def sum(cls, nvars, polys):
        """The sum of an iterable of polynomials in `nvars` variables,
        accumulated in one dict (a chain of `+` copies every partial
        sum); its terms come out in the order that chain gives."""
        polys = list(polys)
        if any(p.nvars != nvars for p in polys):
            raise ValueError("variable count mismatch")
        if not polys:
            return cls.zero(nvars)
        lay = max((p.layout for p in polys), key=lambda lay: lay.width)
        den = lcm(*(p.den for p in polys))
        t = {}
        get = t.get
        for p in polys:
            nums, s = p.layout.move(p.nums, lay), den // p.den
            if s != 1:
                nums = {k: c * s for k, c in nums.items()}
            if not t:
                t.update(nums)
                continue
            for k, c in nums.items():
                c += get(k, 0)
                if c:
                    t[k] = c
                else:
                    del t[k]
        return cls._new(nvars, lay, t, den)

    @classmethod
    def linear(cls, coeffs):
        """Linear form sum_i coeffs[i] * x_i, packed directly: the key of
        x_i is its field bit plus one in the total-degree field."""
        cs = [Fraction(c) for c in coeffs]
        lay = _layout(len(cs), int(any(cs)))
        den = lcm(*(c.denominator for c in cs))
        one = 1 << lay.top
        return cls._new(len(cs), lay, {
            one | (1 << s): c.numerator * (den // c.denominator)
            for c, s in zip(cs, lay.shifts) if c}, den)

    @classmethod
    def int_combinations(cls, nvars, polys, rows):
        """The list of the integer combinations sum_j row[j] * polys[j], one
        per row of ints.  The polys are put on one layout over one
        denominator once, so each combination is int arithmetic on one
        dict; an all-zero row gives the zero polynomial."""
        polys = list(polys)
        if any(p.nvars != nvars for p in polys):
            raise ValueError("variable count mismatch")
        lay = max((p.layout for p in polys), key=lambda lay: lay.width)
        den = lcm(*(p.den for p in polys))
        nums = [[(k, c * (den // p.den))
                 for k, c in p.layout.move(p.nums, lay).items()]
                for p in polys]
        out = []
        for row in rows:
            t = {}
            get = t.get
            for r, terms in zip(row, nums):
                if r:
                    for k, c in terms:
                        t[k] = get(k, 0) + r * c
            out.append(cls._new(nvars, lay, {k: c for k, c in t.items() if c},
                                den))
        return out

    # -- basic queries ------------------------------------------------
    @property
    def terms(self):
        """{exponent tuple: Fraction}, in storage order, built on access."""
        exponents, den = self.layout.exponents, self.den
        return {exponents(k): Fraction(c, den) for k, c in self.nums.items()}

    def coefficient(self, e):
        """The coefficient of the monomial with exponent tuple e, read off
        `nums`; 0 for a total degree this layout does not hold."""
        lay = self.layout
        if sum(e) > lay.degree:
            return Fraction(0)
        return Fraction(self.nums.get(lay.pack(e), 0), self.den)

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return not self.nums or (len(self.nums) == 1 and 0 in self.nums)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.nums.get(0, 0), self.den)

    def degree(self):
        if not self.nums:
            return -1
        return max(self.nums) >> self.layout.top

    def is_homogeneous(self):
        top = self.layout.top
        return len({k >> top for k in self.nums}) <= 1

    def sorted_terms(self):
        """(exponent, coefficient) pairs, graded-lex descending."""
        exponents, den = self.layout.exponents, self.den
        return [(exponents(k), Fraction(c, den))
                for k, c in sorted(self.nums.items(), reverse=True)]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return MultiPoly.sum(self.nvars, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._new(self.nvars, self.layout,
                              {k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        n = self.nvars
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            m = c.numerator
            return MultiPoly._new(n, self.layout,
                                  {k: v * m for k, v in self.nums.items()}
                                  if m else {}, self.den * c.denominator)
        if n != other.nvars:
            raise ValueError("variable count mismatch")
        a, b = self.nums, other.nums
        lay = _wider(self.layout, other.layout)
        if not a or not b:
            return MultiPoly._new(n, lay, {})
        # the top field of a key is its total degree
        deg = (max(a) >> self.layout.top) + (max(b) >> other.layout.top)
        if deg > lay.degree:
            lay = _layout(n, deg)
        a, b = self.layout.move(a, lay), other.layout.move(b, lay)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        b = b.items()
        for ka, ca in a.items():
            for kb, cb in b:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return MultiPoly._new(n, lay, out, self.den * other.den)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient (`divide_exact`)."""
        return divide_exact(self, other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly) or self.nvars != other.nvars \
                or self.den != other.den or len(self.nums) != len(other.nums):
            return False
        lay = _wider(self.layout, other.layout)
        return self.layout.move(self.nums, lay) == \
            other.layout.move(other.nums, lay)

    def __hash__(self):
        # the keys on the narrowest layout that holds the degree, which
        # equal polynomials share whatever layout they sit on
        lay = _layout(self.nvars, self.degree())
        return hash((self.nvars, self.den,
                     frozenset(self.layout.move(self.nums, lay).items())))

    # -- calculus / substitution -------------------------------------
    def diff(self, i):
        lay = self.layout
        s, mask = lay.shifts[i], lay.mask
        step = (1 << s) + (1 << lay.top)
        out = {}
        for k, c in self.nums.items():
            e = (k >> s) & mask
            if e:
                out[k - step] = c * e
        return MultiPoly._new(self.nvars, lay, out, self.den)

    def evaluate(self, point):
        """Exact evaluation at a rational point (sequence of Fractions).

        With the point as xs / d, the value is
        sum(nums * xs^e * d^(top - |e|)) / (den * d^top): integer work and
        one Fraction at the end."""
        nums = self.nums
        if not nums:
            return Fraction(0)
        pt = [Fraction(x) for x in point]
        d = lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (d // x.denominator) for x in pt]
        lay = self.layout
        mask, top = lay.mask, lay.top
        deg = max(nums) >> top
        dpow = [1]
        for _ in range(deg):
            dpow.append(dpow[-1] * d)
        pows = [{} for _ in xs]
        total = 0
        for k, v in nums.items():
            for x, cache, s in zip(xs, pows, lay.shifts):
                e = (k >> s) & mask
                if e:
                    xe = cache.get(e)
                    if xe is None:
                        xe = cache[e] = x ** e
                    v *= xe
            total += v * dpow[deg - (k >> top)]
        return Fraction(total, self.den * dpow[deg])

    def substitute(self, values):
        """Substitute MultiPoly values[i] for variable i (all same nvars)."""
        if not values:
            raise ValueError("empty substitution")
        tgt = values[0].nvars
        exponents = self.layout.exponents
        pow_cache = [{} for _ in range(self.nvars)]

        def term(k, c):
            out = MultiPoly.const(tgt, c)
            for i, ei in enumerate(exponents(k)):
                if ei:
                    cache = pow_cache[i]
                    if ei not in cache:
                        cache[ei] = values[i] ** ei
                    out = out * cache[ei]
            return out
        out = MultiPoly.sum(tgt, (term(k, c) for k, c in self.nums.items()))
        return MultiPoly._new(tgt, out.layout, out.nums, out.den * self.den)

    def set_vars_zero(self, indices):
        """Set the given variables to zero, producing a polynomial in the
        remaining variables, in their order."""
        lay = self.layout
        idx = set(indices)
        zmask = sum(lay.mask << lay.shifts[i] for i in idx)
        keep = [s for i, s in enumerate(lay.shifts) if i not in idx]
        new = _layout(len(keep), lay.degree)
        nums = {k: c for k, c in self.nums.items() if not k & zmask}
        return MultiPoly._new(len(keep), new, lay.move(nums, new, keep),
                              self.den)

    # -- display ------------------------------------------------------
    def __repr__(self):
        if not self.nums:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def _canon_int(vec):
    """Primitive, first-nonzero-positive representative; None for zero."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    v = [x // g for x in vec]
    for x in v:
        if x:
            if x < 0:
                v = [-y for y in v]
            break
    return tuple(v)


class LinearForm(tuple):
    """Canonical representative of a projective class of linear forms: the
    integer coefficient tuple itself, primitive (gcd 1), first nonzero
    entry positive.  Equality, hashing, ordering and repr are the tuple's,
    so a form equals its plain coefficient tuple."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence[int]):
        coeffs = tuple(map(int, coeffs))
        if _canon_int(coeffs) != coeffs:
            raise ValueError("a linear form is nonzero and primitive, its "
                             "first nonzero entry positive: %r" % (coeffs,))
        return super().__new__(cls, coeffs)

    @property
    def coeffs(self):
        """The coefficients as a plain tuple."""
        return tuple(self)

    @classmethod
    def canonical(cls, coeffs: Sequence[ScalarLike]):
        """Canonicalize a rational vector: clear denominators, make
        primitive, fix the sign of the first nonzero entry.

        Returns (form, scale) with  original = scale * form  as covectors."""
        fr = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fr))
        ints = _canon_int([int(c * den) for c in fr])
        if ints is None:
            raise ValueError("zero linear form")
        p = next(i for i, c in enumerate(ints) if c)
        return cls(ints), fr[p] / ints[p]

    def as_poly(self):
        return MultiPoly.linear(self)


class Unknown:
    """Marker for a determinant coefficient the theory leaves unpinned."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unknown"


UNKNOWN = Unknown()


class FactoredDeterminant:
    """A scalar (or Unknown) times a product of linear forms, `factors`
    mapping each LinearForm to its exponent.  A form is its coefficient
    tuple, so two determinants have the same factors exactly when their
    `factors` dicts are equal."""

    __slots__ = ("coefficient", "factors")

    def __init__(self, coefficient, factors: Mapping[LinearForm, int]):
        if not isinstance(coefficient, Unknown):
            coefficient = Fraction(coefficient)
        self.factors = {f: int(k) for f, k in factors.items()}
        if any(k < 1 for k in self.factors.values()):
            raise ValueError("exponents must be >= 1")
        self.coefficient = coefficient

    def degree(self):
        return sum(self.factors.values())

    def expand(self, nvars=None):
        if isinstance(self.coefficient, Unknown):
            raise ValueError("cannot expand with unknown coefficient")
        if nvars is None:
            nvars = len(next(iter(self.factors))) if self.factors else 1
        p = MultiPoly.const(nvars, self.coefficient)
        for f, k in self.factors.items():
            p = p * (f.as_poly() ** k)
        return p

    def evaluate(self, point):
        """Exact value at a rational point (a sequence of Fractions).

        With the point as xs / d, a form f takes the value (f . xs) / d,
        so the value is c * prod((f . xs)^k) / d^degree: integer work and
        one Fraction at the end."""
        if isinstance(self.coefficient, Unknown):
            raise ValueError("cannot evaluate with unknown coefficient")
        pt = [Fraction(x) for x in point]
        d = lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (d // x.denominator) for x in pt]
        num = self.coefficient.numerator
        for f, k in self.factors.items():
            num *= sum(map(mul, f, xs)) ** k
        return Fraction(num, self.coefficient.denominator * d ** self.degree())

    def __repr__(self):
        parts = [repr(self.coefficient)]
        for f, k in sorted(self.factors.items()):
            parts.append(f"{f!r}^{k}" if k > 1 else repr(f))
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# determinants

def minor_table(entry, one):
    """The minors of the matrix with entries `entry(row, col)`, read as
    `minor(rows, cols)` for index tuples of equal length: the Laplace
    expansion along the first row, with zero entries skipped, each minor
    built once however many expansions reach it.  `one`, the empty minor
    (a MultiPoly or the int 1), fixes the ring.  Nothing is divided, and
    an n x n determinant builds at most 2^n minors (a suffix of its rows
    by a subset of its columns)."""
    add = sum if isinstance(one, int) else partial(MultiPoly.sum, one.nvars)
    table = {((), ()): one}

    def minor(rows, cols):
        out = table.get((rows, cols))
        if out is None:
            r, rest = rows[0], rows[1:]
            if not rest:        # a 1 x 1 minor is its entry, not entry * one
                return entry(r, cols[0])
            out = table[rows, cols] = add(
                (-e if j % 2 else e) * minor(rest, cols[:j] + cols[j + 1:])
                for j, c in enumerate(cols) if (e := entry(r, c)) != 0)
        return out
    return minor


def poly_det(matrix):
    """Exact determinant of a square matrix, the full minor of its
    `minor_table`.  The entries are MultiPolys, or ints
    (`exactla.det_fraction` scales a rational matrix to them)."""
    n = len(matrix)
    if not n or any(len(row) != n for row in matrix):
        raise ValueError("matrix empty or not square")
    corner = matrix[0][0]
    one = MultiPoly.const(corner.nvars, 1) \
        if isinstance(corner, MultiPoly) else 1
    full = tuple(range(n))
    return minor_table(lambda i, j: matrix[i][j], one)(full, full)


# ---------------------------------------------------------------------------
# exact division / factorization

def divide_exact(numerator: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Return q with q * divisor == numerator, or raise NotDivisible.  The
    heap division of Monagan & Pearce (see the module docstring)."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    n = numerator.nvars
    if n != divisor.nvars:
        raise ValueError("variable count mismatch")
    if divisor.is_constant():
        c = divisor.constant_value()
        return numerator * (Fraction(1) / c)
    lay = _wider(numerator.layout, divisor.layout)
    if not numerator.nums:
        return MultiPoly._new(n, lay, {})
    guard = sum((lay.mask ^ (lay.mask >> 1)) << s for s in lay.shifts)
    content = gcd(*divisor.nums.values())
    div = sorted(((k, c // content) for k, c in
                  divisor.layout.move(divisor.nums, lay).items()),
                 reverse=True)
    (dk, dc), rest = div[0], div[1:]
    # every remainder term has total degree <= the numerator's, because a
    # step subtracts q * divisor whose top total degree is that of q * lead
    rem = dict(numerator.layout.move(numerator.nums, lay))
    heap = [-k for k in rem]
    heapify(heap)
    q = {}
    while rem:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue  # a stale heap entry: the term cancelled earlier
        qk = k - dk
        qc, r = divmod(c, dc)
        if r or qk < 0 or qk & guard:
            raise NotDivisible("remainder nonzero")
        q[qk] = qc
        for fk, fc in rest:
            tk, t = fk + qk, qc * fc
            s = rem.get(tk)
            if s is None:
                rem[tk] = -t
                heappush(heap, -tk)
            elif s == t:
                del rem[tk]
            else:
                rem[tk] = s - t
    # numerator = (int part) / den, divisor = content * primitive / den'
    return MultiPoly._new(n, lay, {k: c * divisor.den for k, c in q.items()},
                          numerator.den * content)


def try_divide(numerator, divisor):
    try:
        return divide_exact(numerator, divisor)
    except NotDivisible:
        return None


def factor_linear(poly: MultiPoly, candidates: Iterable[LinearForm]) -> FactoredDeterminant:
    """Trial-divide `poly` by the candidate linear forms until none divides.

    The remaining cofactor must be a nonzero constant (it becomes the
    coefficient); a non-constant cofactor raises IncompleteFactorization —
    the falsifier for product-of-linear-forms claims."""
    if poly.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    factors = {}
    rest = poly
    for form in candidates:
        fp = form.as_poly()
        if fp.nvars != poly.nvars:
            raise ValueError("candidate form has wrong variable count")
        k = 0
        while True:
            q = try_divide(rest, fp)
            if q is None:
                break
            rest = q
            k += 1
        if k:
            factors[form] = k
    if not rest.is_constant():
        raise IncompleteFactorization(
            "cofactor is not constant (degree %d)" % rest.degree(),
            cofactor=rest, partial=factors)
    return FactoredDeterminant(rest.constant_value(), factors)
