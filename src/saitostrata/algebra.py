"""Exact polynomial arithmetic: rational scalars, sparse multivariate
polynomials, polynomial-matrix determinants (Bareiss), exact division and
trial factorization into linear forms.

Coefficients are `fractions.Fraction` throughout; nothing here ever rounds.
Polynomials are stored sparsely as {exponent tuple: coefficient} with a
graded-lexicographic term order used for canonical serialization and for
exact division.  That stays the one storage: callers read `.terms`.

The three hot kernels (polynomial product, `divide_exact`, `evaluate`)
convert at their boundary and run their inner loops on Python ints, after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors" (CASC 2007):

- A monomial is packed into one int: the total degree in the top field,
  the exponents below it in lex order, each field `w` bits wide.  So
  grlex order is integer order and a monomial product is one addition.
  `w` is chosen per call from the largest total degree that can occur,
  plus one guard bit, so no field carries into the next and a negative
  field of a packed difference shows up in its guard bit.
- Coefficients are put over one common denominator, so the loops add and
  multiply integer numerators, and one `Fraction` is built per output
  term.
- `divide_exact` scales the divisor to a primitive integer polynomial and
  the numerator to integers.  By Gauss's lemma, if a primitive integer
  polynomial divides an integer polynomial over Q, the quotient has
  integer coefficients.  The division algorithm produces the quotient's
  terms one by one, so a leading coefficient that the divisor's leading
  coefficient does not divide in Z, or a quotient monomial with a
  negative exponent, proves the division inexact and raises
  `NotDivisible` at once.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Fraction
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


def _grlex_key(expt):
    # graded lexicographic: total degree first, then lex on the exponent tuple
    return (sum(expt), expt)


def _packing(nvars, top_degree):
    """Field layout for monomials of total degree <= `top_degree`: the bit
    offset of each exponent field (first variable highest), the offset of
    the total-degree field above them, and the field mask.  A field holds
    the value plus one guard bit on top, which stays clear."""
    w = top_degree.bit_length() + 1
    return [w * (nvars - 1 - i) for i in range(nvars)], nvars * w, (1 << w) - 1


def _pack(e, shifts, top):
    k = sum(e) << top
    for x, s in zip(e, shifts):
        k |= x << s
    return k


def _unpack(k, shifts, mask):
    return tuple([(k >> s) & mask for s in shifts])


def _int_terms(terms, shifts, top):
    """[(packed monomial, integer numerator)] over the lcm `den` of the
    coefficient denominators; returns (pairs, den)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return [(_pack(e, shifts, top), c.numerator * (den // c.denominator))
            for e, c in terms.items()], den


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    `terms` maps exponent tuples (length = nvars) to nonzero Fractions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, ScalarLike] | None = None):
        self.nvars = nvars
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
        self.terms = tidy

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
        t = {}
        get = t.get
        for p in polys:
            if p.nvars != nvars:
                raise ValueError("variable count mismatch")
            if not t:
                t.update(p.terms)   # one C-level copy, no Fraction additions
                continue
            for e, c in p.terms.items():
                s = get(e, 0) + c
                if s:
                    t[e] = s
                else:
                    del t[e]
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = t
        return out

    @classmethod
    def linear(cls, coeffs):
        """Linear form sum_i coeffs[i] * x_i."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return cls(n, terms)

    # -- basic queries ------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------
    def _wrap(self, terms):
        p = MultiPoly.__new__(MultiPoly)
        p.nvars = self.nvars
        p.terms = terms
        return p

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return MultiPoly.sum(self.nvars, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self._wrap({})
            return self._wrap({e: co * c for e, co in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        a, b = self.terms, other.terms
        if not a or not b:
            return self._wrap({})
        shifts, top, mask = _packing(self.nvars,
                                     self.degree() + other.degree())
        pa, da = _int_terms(a, shifts, top)
        pb, db = _int_terms(b, shifts, top)
        if len(pa) > len(pb):
            pa, pb = pb, pa
        out = {}
        get = out.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        den = da * db
        return self._wrap({_unpack(k, shifts, mask): Fraction(c, den)
                           for k, c in out.items() if c})

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient (`divide_exact`), so that `poly_det` runs the
        same elimination on polynomials and on ints."""
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
        return isinstance(other, MultiPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus / substitution -------------------------------------
    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return self._wrap(out)

    def evaluate(self, point):
        """Exact evaluation at a rational point (sequence of Fractions).

        With the point as xs / d and the coefficients as cs / L, the value
        is sum(cs * xs^e * d^(top - |e|)) / (L * d^top): integer work and
        one Fraction at the end."""
        terms = self.terms
        if not terms:
            return Fraction(0)
        pt = [Fraction(x) for x in point]
        d = lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (d // x.denominator) for x in pt]
        cden = lcm(*(c.denominator for c in terms.values()))
        top = max(map(sum, terms))
        dpow = [1]
        for _ in range(top):
            dpow.append(dpow[-1] * d)
        pows = [{} for _ in xs]
        total = 0
        for e, c in terms.items():
            v = c.numerator * (cden // c.denominator)
            deg = 0
            for x, cache, k in zip(xs, pows, e):
                if k:
                    deg += k
                    xk = cache.get(k)
                    if xk is None:
                        xk = cache[k] = x ** k
                    v *= xk
            total += v * dpow[top - deg]
        return Fraction(total, cden * dpow[top])

    def substitute(self, values):
        """Substitute MultiPoly values[i] for variable i (all same nvars)."""
        if not values:
            raise ValueError("empty substitution")
        tgt = values[0].nvars
        pow_cache = [{} for _ in range(self.nvars)]

        def term(e, c):
            out = MultiPoly.const(tgt, c)
            for i, ei in enumerate(e):
                if ei:
                    cache = pow_cache[i]
                    if ei not in cache:
                        cache[ei] = values[i] ** ei
                    out = out * cache[ei]
            return out
        return MultiPoly.sum(tgt, (term(e, c) for e, c in self.terms.items()))

    def set_vars_zero(self, indices):
        """Set the given variables to zero, producing a polynomial in the
        remaining variables, in their order."""
        idx = set(indices)
        keep = [i for i in range(self.nvars) if i not in idx]
        out = {}
        for e, c in self.terms.items():
            if any(e[i] for i in idx):
                continue
            out[tuple(e[i] for i in keep)] = c
        return MultiPoly(len(keep), out)

    # -- display ------------------------------------------------------
    def __repr__(self):
        if not self.terms:
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


class LinearForm:
    """Canonical representative of a projective class of linear forms.

    Integer coefficient vector, primitive (gcd 1), first nonzero entry
    positive. Optionally labelled with parameter names for display."""

    __slots__ = ("coeffs", "labels")

    def __init__(self, coeffs: Sequence[int], labels: Sequence[str] | None = None):
        coeffs = tuple(int(c) for c in coeffs)
        if all(c == 0 for c in coeffs):
            raise ValueError("zero linear form")
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        if g != 1:
            raise ValueError("linear form not primitive: %r" % (coeffs,))
        for c in coeffs:
            if c:
                if c < 0:
                    raise ValueError("first nonzero entry must be positive")
                break
        self.coeffs = coeffs
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def canonical(cls, coeffs: Sequence[ScalarLike], labels=None):
        """Canonicalize a rational vector: clear denominators, make
        primitive, fix the sign of the first nonzero entry.

        Returns (form, scale) with  original = scale * form  as covectors."""
        fr = [Fraction(c) for c in coeffs]
        if all(c == 0 for c in fr):
            raise ValueError("zero linear form")
        den = 1
        for c in fr:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in fr]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        ints = [c // g for c in ints]
        sign = 1
        for c in ints:
            if c:
                sign = 1 if c > 0 else -1
                break
        ints = [sign * c for c in ints]
        scale = Fraction(sign * g, den)
        return cls(ints, labels), scale

    def as_poly(self):
        return MultiPoly.linear(self.coeffs)

    def evaluate(self, point):
        return sum(Fraction(c) * Fraction(x) for c, x in zip(self.coeffs, point))

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return self.coeffs < other.coeffs

    def __repr__(self):
        labels = self.labels or tuple(f"s{i}" for i in range(len(self.coeffs)))
        bits = []
        for c, name in zip(self.coeffs, labels):
            if not c:
                continue
            if c == 1:
                bits.append(("+", name))
            elif c == -1:
                bits.append(("-", name))
            else:
                bits.append(("+" if c > 0 else "-", f"{abs(c)}*{name}"))
        s = ""
        for sign, txt in bits:
            s += (sign if s or sign == "-" else "") + txt
        return s


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
    """A scalar (or Unknown) times a multiset of (LinearForm, exponent)."""

    __slots__ = ("coefficient", "factors")

    def __init__(self, coefficient, factors: Mapping[LinearForm, int]):
        if not isinstance(coefficient, Unknown):
            coefficient = Fraction(coefficient)
        fs = {}
        for f, k in factors.items():
            k = int(k)
            if k < 1:
                raise ValueError("exponents must be >= 1")
            if f in fs:
                raise ValueError("duplicate linear form")
            fs[f] = k
        self.coefficient = coefficient
        self.factors = fs

    def degree(self):
        return sum(self.factors.values())

    def multiset(self):
        """Frozen (form-coefficients, exponent) multiset for comparisons."""
        return frozenset((f.coeffs, k) for f, k in self.factors.items())

    def exponents_sorted(self):
        return sorted(self.factors.values())

    def expand(self, nvars=None):
        if isinstance(self.coefficient, Unknown):
            raise ValueError("cannot expand with unknown coefficient")
        if nvars is None:
            nvars = len(next(iter(self.factors)).coeffs) if self.factors else 1
        p = MultiPoly.const(nvars, self.coefficient)
        for f, k in self.factors.items():
            p = p * (f.as_poly() ** k)
        return p

    def evaluate(self, point):
        if isinstance(self.coefficient, Unknown):
            raise ValueError("cannot evaluate with unknown coefficient")
        v = Fraction(self.coefficient)
        for f, k in self.factors.items():
            v *= f.evaluate(point) ** k
        return v

    def __repr__(self):
        parts = [repr(self.coefficient)]
        for f, k in sorted(self.factors.items()):
            parts.append(f"({f!r})^{k}" if k > 1 else f"({f!r})")
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# determinants

def poly_det(matrix):
    """Exact determinant of a square matrix by fraction-free Bareiss
    elimination.  The entries are MultiPolys, or ints (`exactla.det_fraction`
    scales a rational matrix to them); every division is exact."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix not square")
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in matrix]
    sign, prev = 1, 1       # the first step would divide by 1 and skips it
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num // prev if k else num
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


# ---------------------------------------------------------------------------
# exact division / factorization

def divide_exact(numerator: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Return q with q * divisor == numerator, or raise NotDivisible."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if numerator.nvars != divisor.nvars:
        raise ValueError("variable count mismatch")
    if divisor.is_constant():
        c = divisor.constant_value()
        return numerator * (Fraction(1) / c)
    n = numerator.nvars
    if not numerator.terms:
        return MultiPoly.zero(n)
    # every remainder term has total degree <= the numerator's, because a
    # step subtracts q * divisor whose top total degree is that of q * lead
    shifts, top, mask = _packing(n, max(numerator.degree(), divisor.degree()))
    guard = sum((mask ^ (mask >> 1)) << s for s in shifts)
    pairs, nden = _int_terms(numerator.terms, shifts, top)
    rem = dict(pairs)
    div, dden = _int_terms(divisor.terms, shifts, top)
    content = 0
    for _, c in div:
        content = gcd(content, c)
    div = sorted(((k, c // content) for k, c in div), reverse=True)
    (dk, dc), rest = div[0], div[1:]
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
    # numerator = (int part) / nden, divisor = content * primitive / dden
    den = nden * content
    return numerator._wrap({_unpack(k, shifts, mask): Fraction(c * dden, den)
                            for k, c in q.items()})


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
