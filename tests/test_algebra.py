"""Exact polynomial arithmetic: ring axioms, determinants, division, and
linear factorization; the packed integer kernels against Fraction and
exponent-tuple reference loops."""

import pickle
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from saitostrata.algebra import (MultiPoly, LinearForm, FactoredDeterminant,
                                 UNKNOWN, poly_det, divide_exact, try_divide,
                                 factor_linear, NotDivisible,
                                 IncompleteFactorization, _layout)
from saitostrata.exactla import det_fraction

from conftest import bareiss_det

NVARS = 3


def _poly(terms):
    return MultiPoly(NVARS, terms)


@st.composite
def polys(draw, max_terms=5, max_exp=3):
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(NVARS))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        if c:
            terms[e] = c
    return _poly(terms)


class TestRingAxioms:
    @given(polys(), polys())
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys(), polys(), polys())
    def test_addition_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polys(), polys())
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @settings(max_examples=50)
    @given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(st.lists(polys(), max_size=6))
    @example(ps=[_poly({(1, 0, 0): 1, (0, 1, 0): 2}), _poly({(1, 0, 0): -1}),
                 _poly({(1, 0, 0): 3, (0, 0, 1): 1})])
    def test_n_ary_sum_is_the_chain_of_additions(self, ps):
        # equal terms in the same dict order, cancellations included
        chain = MultiPoly.zero(NVARS)
        for p in ps:
            chain = chain + p
        total = MultiPoly.sum(NVARS, iter(ps))
        assert list(total.terms.items()) == list(chain.terms.items())
        assert all(type(c) is Fraction for c in total.terms.values())

    def test_n_ary_sum_checks_variable_count(self):
        with pytest.raises(ValueError):
            MultiPoly.sum(NVARS, [MultiPoly.const(2, 1)])

    @given(polys())
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()

    @given(polys())
    def test_one_is_neutral(self, p):
        assert p * MultiPoly.const(NVARS, 1) == p


class TestCalculus:
    @given(polys(), polys())
    def test_leibniz_rule(self, p, q):
        for i in range(NVARS):
            lhs = (p * q).diff(i)
            rhs = p.diff(i) * q + p * q.diff(i)
            assert lhs == rhs

    @given(polys())
    def test_evaluate_matches_substitute(self, p):
        pt = [Fraction(1, 2), Fraction(-2), Fraction(3)]
        consts = [MultiPoly.const(NVARS, x) for x in pt]
        subbed = p.substitute(consts)
        assert subbed.is_zero() or subbed.is_constant()
        val = Fraction(0) if subbed.is_zero() else subbed.constant_value()
        assert val == p.evaluate(pt)

    def test_set_vars_zero_reindexes(self):
        p = _poly({(1, 0, 2): Fraction(3), (0, 1, 0): Fraction(1)})
        q = p.set_vars_zero([1])
        assert q == MultiPoly(2, {(1, 2): Fraction(3)})


class TestDivision:
    @given(polys(max_terms=4), polys(max_terms=4))
    def test_product_division_round_trip(self, p, q):
        if q.is_zero():
            return
        assert divide_exact(p * q, q) == p

    def test_not_divisible(self):
        x = MultiPoly.variable(NVARS, 0)
        y = MultiPoly.variable(NVARS, 1)
        with pytest.raises(NotDivisible):
            divide_exact(x * x + y, x)
        assert try_divide(x * x + y, x) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(MultiPoly.const(NVARS, 1), MultiPoly.zero(NVARS))


# Reference kernels: the plain Fraction/tuple loops that `MultiPoly` runs on
# packed monomials and integer numerators.

def _ref_add(p, q, sign):
    out = dict(p.terms)
    for e, c in q.terms.items():
        s = out.get(e, Fraction(0)) + sign * c
        if s:
            out[e] = s
        else:
            del out[e]
    return MultiPoly(p.nvars, out)


def _ref_scale(p, c):
    return MultiPoly(p.nvars, {e: a * c for e, a in p.terms.items()})


def _ref_diff(p, i):
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return MultiPoly(p.nvars, out)


def _ref_set_vars_zero(p, idx):
    keep = [i for i in range(p.nvars) if i not in idx]
    return MultiPoly(len(keep), {tuple(e[i] for i in keep): c
                                 for e, c in p.terms.items()
                                 if not any(e[i] for i in idx)})


def _ref_mul(p, q):
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return MultiPoly(p.nvars, out)


def _ref_divide_exact(numerator, divisor):
    if divisor.is_constant():
        return MultiPoly(numerator.nvars, {
            e: c / divisor.constant_value()
            for e, c in numerator.terms.items()})
    rem = dict(numerator.terms)
    # the divisor's leading term in the order the remainder is reduced in
    de, dc = max(divisor.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    q = {}
    while rem:
        e = max(rem, key=lambda t: (sum(t), t))
        c = rem[e]
        qe = tuple(a - b for a, b in zip(e, de))
        if any(x < 0 for x in qe):
            raise NotDivisible("remainder nonzero")
        qc = c / dc
        q[qe] = qc
        for fe, fc in divisor.terms.items():
            te = tuple(a + b for a, b in zip(qe, fe))
            s = rem.get(te, Fraction(0)) - qc * fc
            if s:
                rem[te] = s
            else:
                rem.pop(te, None)
    return MultiPoly(numerator.nvars, q)


def _ref_evaluate(p, point):
    total = Fraction(0)
    for e, c in p.terms.items():
        v = c
        for xi, ei in zip(point, e):
            if ei:
                v *= Fraction(xi) ** ei
        total += v
    return total


def _ref_quotient(numerator, divisor):
    try:
        return _ref_divide_exact(numerator, divisor)
    except NotDivisible:
        return None


def _widened(p, degree):
    """p on the shared layout that holds total degree `degree` (and its
    own), wider than the one p needs when `degree` passes p's layout."""
    lay = _layout(p.nvars, max(degree, p.degree()))
    return MultiPoly._new(p.nvars, lay, p.layout.move(p.nums, lay), p.den)


def _widened_quotient(numerator, divisor):
    """`divide_exact` on operands widened to a layout wider than the one
    they need, as products leave them; None when it raises NotDivisible."""
    deg = 2 * max(numerator.degree(), divisor.degree(), 0) + 1
    try:
        return divide_exact(_widened(numerator, deg), _widened(divisor, deg))
    except NotDivisible:
        return None


@contextmanager
def _without_terms_view():
    """`MultiPoly.terms` raises while the block runs."""
    def fail(p):
        raise AssertionError("the Fraction view of the terms was built")
    saved = MultiPoly.terms
    MultiPoly.terms = property(fail)
    try:
        yield
    finally:
        MultiPoly.terms = saved


def _listed(p):
    return list(p.terms.items())


def _assert_same(got, ref):
    # equal packed monomials, and the same terms in the same order: the
    # flat-basis digest reads that order
    assert got == ref and _listed(got) == _listed(ref)


BIG = 10 ** 12
# packed fields are as wide as the largest total degree needs, plus a guard
# bit, so exponents at 2^k - 1 and 2^k sit on the width edges
EDGE_EXPONENTS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32)
KERNEL_SETTINGS = settings(derandomize=True, max_examples=150,
                           deadline=None, database=None)


def _rationals(bound=BIG):
    return st.builds(Fraction, st.integers(-bound, bound),
                     st.integers(1, bound))


@st.composite
def _wide_poly(draw, nvars, max_terms=4, nonzero=False):
    exponents = st.one_of(st.sampled_from(EDGE_EXPONENTS),
                          st.integers(0, 40))
    terms = {}
    for _ in range(draw(st.integers(int(nonzero), max_terms))):
        e = tuple(draw(exponents) for _ in range(nvars))
        terms[e] = draw(_rationals())
    p = MultiPoly(nvars, terms)
    if nonzero and p.is_zero():
        p = MultiPoly.const(nvars, 1)
    return p


def _wide_pair(**divisor):
    return st.integers(1, 8).flatmap(lambda n: st.tuples(
        _wide_poly(n), _wide_poly(n, **divisor)))


class TestIntegerKernels:
    @KERNEL_SETTINGS
    @given(_wide_pair())
    @example(pq=(MultiPoly(2, {(31, 0): 1, (0, 16): Fraction(1, 3)}),
                 MultiPoly(2, {(1, 0): Fraction(-BIG, 7), (0, 16): 1})))
    def test_product_matches_reference(self, pq):
        p, q = pq
        assert (p * q).terms == _ref_mul(p, q).terms

    @KERNEL_SETTINGS
    @given(_wide_pair(nonzero=True))
    @example(pq=(MultiPoly(2, {(15, 16): 1, (0, 0): Fraction(2, 3)}),
                 MultiPoly(2, {(16, 15): Fraction(5, BIG), (0, 1): -1})))
    def test_divisible_quotient_matches_reference(self, pq):
        p, q = pq
        prod = p * q
        assert divide_exact(prod, q).terms == \
            _ref_divide_exact(prod, q).terms == \
            _widened_quotient(prod, q).terms == p.terms

    @KERNEL_SETTINGS
    @given(_wide_pair(nonzero=True), st.data())
    def test_perturbed_quotient_matches_reference(self, pq, data):
        p, q = pq
        r = data.draw(_wide_poly(p.nvars, max_terms=2))
        num = p * q + r
        ref = _ref_quotient(num, q)
        for got in (try_divide(num, q), _widened_quotient(num, q)):
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got.terms == ref.terms

    @KERNEL_SETTINGS
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        _wide_poly(n, max_terms=5), st.lists(_rationals(10 ** 6),
                                             min_size=n, max_size=n))))
    def test_evaluate_matches_reference(self, p_point):
        p, point = p_point
        assert p.evaluate(point) == _ref_evaluate(p, point)

    @KERNEL_SETTINGS
    @given(_wide_pair(), _rationals())
    def test_linear_operations_match_reference(self, pq, c):
        p, q = pq
        _assert_same(p + q, _ref_add(p, q, 1))
        _assert_same(p - q, _ref_add(p, q, -1))
        _assert_same(-p, _ref_scale(p, -1))
        _assert_same(p * c, _ref_scale(p, c))
        assert (p * 0).is_zero()

    @KERNEL_SETTINGS
    @given(_wide_pair(), st.data())
    def test_diff_and_set_vars_zero_match_reference(self, pq, data):
        for p in pq:
            for i in range(p.nvars):
                _assert_same(p.diff(i), _ref_diff(p, i))
            idx = data.draw(st.sets(st.integers(0, p.nvars - 1)))
            _assert_same(p.set_vars_zero(idx), _ref_set_vars_zero(p, idx))

    @KERNEL_SETTINGS
    @given(_wide_pair(), st.data())
    def test_evaluate_after_layout_changes_matches_reference(self, pq, data):
        # the sum and the product put p and q on one layout first
        p, q = pq
        point = data.draw(st.lists(_rationals(10 ** 6), min_size=p.nvars,
                                   max_size=p.nvars))
        vp, vq = _ref_evaluate(p, point), _ref_evaluate(q, point)
        assert (p + q).evaluate(point) == vp + vq
        assert (p - q).evaluate(point) == vp - vq
        assert (p * q).evaluate(point) == vp * vq

    @KERNEL_SETTINGS
    @given(_wide_pair(nonzero=True))
    def test_equality_and_hash_ignore_the_layout(self, pq):
        p, q = pq
        r = (p * q) // q
        assert r == p and hash(r) == hash(p)
        w = _widened(p, 2 * max(p.degree(), 0) + 1)
        assert w.layout is not p.layout
        assert w == p and hash(w) == hash(p) and w != p + 1

    @KERNEL_SETTINGS
    @given(_wide_pair(), st.data())
    def test_coefficient_matches_terms(self, pq, data):
        # on its own layout and a wider one, and at a monomial whose total
        # degree the narrow layout does not hold
        p = pq[0]
        for r in (p, _widened(p, 2 * max(p.degree(), 0) + 1)):
            assert all(r.coefficient(e) == c for e, c in p.terms.items())
        e = tuple(data.draw(st.lists(st.integers(0, p.layout.degree + 1),
                                     min_size=p.nvars, max_size=p.nvars)))
        assert p.coefficient(e) == p.terms.get(e, 0)

    @KERNEL_SETTINGS
    @given(_wide_pair(), st.data())
    def test_hash_and_substitute_read_the_packed_terms(self, pq, data):
        # neither builds the Fraction view; equal polynomials on two
        # layouts hash alike, and substituting the variables is evaluation
        p, q = pq
        point = data.draw(st.lists(_rationals(10 ** 6), min_size=p.nvars,
                                   max_size=p.nvars))
        want = _ref_evaluate(p, point)
        r = (p * q) // q if not q.is_zero() else p
        w = _widened(p, 2 * max(p.degree(), 0) + 1)
        with _without_terms_view():
            assert hash(r) == hash(w) == hash(p)
            assert hash(p * 3) == hash(w + w + w)
            consts = [MultiPoly.const(1, x) for x in point]
            got = p.substitute(consts)
        assert got == want and w.layout is not p.layout

    @KERNEL_SETTINGS
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        _wide_poly(n), min_size=1, max_size=4)), st.data())
    def test_int_combinations_match_scaled_sums(self, polys, data):
        rows = data.draw(st.lists(st.lists(
            st.integers(-BIG, BIG) | st.just(0), min_size=len(polys),
            max_size=len(polys)), max_size=4))
        n = polys[0].nvars
        got = MultiPoly.int_combinations(n, polys, rows + [[0] * len(polys)])
        assert len(got) == len(rows) + 1 and got[-1].is_zero()
        for combo, row in zip(got, rows):
            want = MultiPoly.sum(n, (p * r for p, r in zip(polys, row)))
            assert combo == want

    @KERNEL_SETTINGS
    @given(st.lists(_rationals(10 ** 6) | st.just(0), min_size=1,
                    max_size=8))
    def test_linear_packs_the_constructor_terms(self, coeffs):
        # the same layout, terms and term order as the general constructor
        n = len(coeffs)
        got = MultiPoly.linear(coeffs)
        want = MultiPoly(n, {tuple(int(j == i) for j in range(n)): c
                             for i, c in enumerate(coeffs)})
        assert got.layout is want.layout and _listed(got) == _listed(want)

    def test_one_polynomial_on_two_layouts_and_denominators(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = x * Fraction(1, 3) + y * 2
        q = x ** 40 * 3 + y * Fraction(1, 7)
        # p * q has denominator 21 and needs wider fields than p
        r = (p * q) // q
        assert r.layout is not p.layout
        assert r == p and hash(r) == hash(p) and len({p, r}) == 1
        assert r.terms == p.terms == {(1, 0): Fraction(1, 3),
                                      (0, 1): Fraction(2)}
        assert p * 3 == x + y * 6 and hash(p * 3) == hash(x + y * 6)
        assert r != p * 3

    def test_rational_divisor_content(self):
        x = MultiPoly.variable(1, 0)
        assert divide_exact(x + Fraction(1, 2), x * 2 + 1) == \
            MultiPoly.const(1, Fraction(1, 2))

    def test_coefficient_or_monomial_blocks_division(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        cases = [
            # a remainder: 2 does not divide the leading coefficient 1
            (x, x * 2 + y * 3),
            # the remainder y is not a multiple of x
            (x * x + y, x * 2),
            # x y^3 outranks x^2 in total degree, but the x field goes
            # negative: its guard bit is set
            (x * y ** 3, x ** 2),
            # a negative quotient exponent: degree 1 below degree 2
            (x + 1, x * x),
        ]
        for num, div in cases:
            with pytest.raises(NotDivisible):
                divide_exact(num, div)
            assert _widened_quotient(num, div) is None

    def test_zero_numerator_and_constant_divisor(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert divide_exact(MultiPoly.zero(2), x + y).is_zero()
        p = x * Fraction(3, 7) + y ** 2
        assert divide_exact(p, MultiPoly.const(2, Fraction(-3, 5))) == \
            p * Fraction(-5, 3)
        assert MultiPoly.zero(2).evaluate([1, 2]) == 0
        assert (p * MultiPoly.zero(2)).is_zero()


def _ref_det_cofactor(matrix):
    """Laplace expansion along the first row, each minor rebuilt as a
    matrix: the reference for `poly_det` and for the Bareiss oracle."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = MultiPoly.zero(matrix[0][0].nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        t = matrix[0][j] * _ref_det_cofactor(minor)
        total = total + t if j % 2 == 0 else total - t
    return total


class TestDeterminants:
    def _random_matrix(self, rng, n):
        def entry():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(NVARS))
                terms[e] = Fraction(rng.randint(-5, 5))
            return _poly({e: c for e, c in terms.items() if c})
        return [[entry() for _ in range(n)] for _ in range(n)]

    def test_bareiss_agrees_with_cofactor(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(4):
                m = self._random_matrix(rng, n)
                assert bareiss_det(m) == _ref_det_cofactor(m)

    def test_poly_det_alternating(self):
        rng = random.Random(11)
        m = self._random_matrix(rng, 3)
        swapped = [m[1], m[0], m[2]]
        assert poly_det(swapped) == -poly_det(m)

    def test_singular_matrix(self):
        x = MultiPoly.variable(NVARS, 0)
        m = [[x, x, x], [x, x, x], [x, x, x]]
        for det in (poly_det, bareiss_det, _ref_det_cofactor):
            assert det(m).is_zero()

    def test_minor_expansion_matches_bareiss_and_cofactor(self):
        # ints and polynomials, with a zero (0, 0) entry (Bareiss swaps
        # rows there), a zero row, a singular matrix and the 1 x 1 case
        rng = random.Random(13)
        x = MultiPoly.variable(NVARS, 0)
        cases = []
        for n in (1, 2, 3, 4, 5):
            for _ in range(6):
                ints = [[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(n)]
                cases.append(ints)
                cases.append(self._random_matrix(rng, n))
            m = self._random_matrix(rng, n)
            m[0][0] = MultiPoly.zero(NVARS)
            cases.append(m)
            ints = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
            ints[0][0] = 0
            cases.append(ints)
            if n > 1:
                m = self._random_matrix(rng, n)
                m[n // 2] = [MultiPoly.zero(NVARS)] * n
                cases.append(m)
                m = self._random_matrix(rng, n)
                m[-1] = [e * x for e in m[0]]
                cases.append(m)
        for m in cases:
            want = bareiss_det(m)
            got = poly_det(m)
            if isinstance(m[0][0], int):
                assert isinstance(got, int)
                ref = _ref_det_cofactor(
                    [[MultiPoly.const(NVARS, e) for e in row] for row in m])
                assert got == want == ref.constant_value()
            else:
                assert got == want == _ref_det_cofactor(m)
        for bad in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], []):
            with pytest.raises(ValueError):
                poly_det(bad)

    def test_det_fraction(self):
        # singular, a row swap flips the sign, and the 1x1 case
        F = Fraction
        a = [[F(1, 2), F(2), F(-3)], [F(4), F(0), F(5, 3)], [F(7), F(1), F(1)]]
        want = F(5, 2)
        assert det_fraction(a) == want
        assert det_fraction([a[1], a[0], a[2]]) == -want
        assert det_fraction([a[0], a[1], [x + y for x, y in zip(*a[:2])]]) == 0
        assert det_fraction([[0, 1], [0, 2]]) == 0
        assert det_fraction([[F(-3, 7)]]) == F(-3, 7)
        assert det_fraction([[0]]) == 0

    def test_det_fraction_agrees_with_cofactor(self):
        # small entries, so that zero pivots and row swaps are common
        rng = random.Random(5)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                      for _ in range(n)] for _ in range(n)]
                want = _ref_det_cofactor(
                    [[MultiPoly.const(1, x) for x in row] for row in a])
                assert det_fraction(a) == want.constant_value()


class TestLinearForm:
    def test_canonical_scale_contract(self):
        vec = [Fraction(-3, 4), Fraction(1, 2), Fraction(0)]
        form, scale = LinearForm.canonical(vec)
        assert form.coeffs[0] > 0
        assert [scale * c for c in form.coeffs] == vec

    def test_rejects_zero_and_imprimitive(self):
        with pytest.raises(ValueError):
            LinearForm([0, 0])
        with pytest.raises(ValueError):
            LinearForm([2, 4])
        with pytest.raises(ValueError):
            LinearForm([-1, 2])

    def test_is_its_coefficient_tuple(self):
        vecs = [(1, -1, 0), (0, 1, 2), (1, 0, 0), (0, 0, 1), (1, 1, -1)]
        forms = [LinearForm(v) for v in vecs]
        for form, vec in zip(forms, vecs):
            assert form == vec and vec == form and hash(form) == hash(vec)
            assert type(form.coeffs) is tuple and form.coeffs == vec
            assert all(type(c) is int for c in form.coeffs)
            assert repr(form) == repr(vec)
        assert sorted(forms) == sorted(vecs)
        assert dict.fromkeys(forms, 1) == dict.fromkeys(vecs, 1)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(forms, protocol))
            assert back == forms
            assert all(type(form) is LinearForm for form in back)


class TestFactorLinear:
    def test_recovers_product(self):
        f1 = LinearForm([1, 0, 1])
        f2 = LinearForm([0, 1, -1])
        p = (f1.as_poly() ** 2) * f2.as_poly() * Fraction(7, 3)
        fd = factor_linear(p, [f1, f2, LinearForm([1, 1, 1])])
        assert fd.coefficient == Fraction(7, 3)
        assert fd.factors == {f1: 2, f2: 1}
        assert fd.expand() == p

    def test_incomplete_factorization_reports_cofactor(self):
        f1 = LinearForm([1, 0, 0])
        irred = _poly({(0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)})
        p = f1.as_poly() * irred
        with pytest.raises(IncompleteFactorization) as exc:
            factor_linear(p, [f1])
        assert exc.value.partial == {f1: 1}
        assert exc.value.cofactor == irred

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            factor_linear(MultiPoly.zero(NVARS), [LinearForm([1, 0, 0])])


def _ref_factored_evaluate(fd, point):
    """The value as a product of Fraction powers, one Fraction per form:
    the reference for the integer evaluation."""
    v = Fraction(fd.coefficient)
    for f, k in fd.factors.items():
        v *= sum(Fraction(c) * Fraction(x)
                 for c, x in zip(f.coeffs, point)) ** k
    return v


class TestFactoredDeterminant:
    def test_degree_multiset_evaluate(self):
        f1, f2 = LinearForm([1, -1]), LinearForm([1, 1])
        fd = FactoredDeterminant(Fraction(-2), {f1: 2, f2: 3})
        assert fd.degree() == 5
        assert sorted(fd.factors.values()) == [2, 3]
        assert fd.factors == {(1, -1): 2, (1, 1): 3}
        pt = [Fraction(3), Fraction(1)]
        assert fd.evaluate(pt) == Fraction(-2) * 2 ** 2 * 4 ** 3

    def test_repr_prints_forms_as_tuples(self):
        fd = FactoredDeterminant(UNKNOWN, {LinearForm([1, 2, 3]): 7,
                                           LinearForm([0, 1, 0]): 1})
        assert repr(fd) == "Unknown * (0, 1, 0) * (1, 2, 3)^7"

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(data=st.data(), nvars=st.integers(1, 4))
    def test_integer_evaluate_matches_fraction_powers(self, data, nvars):
        coeffs = st.lists(st.integers(-4, 4), min_size=nvars,
                          max_size=nvars).filter(any)
        forms = data.draw(st.lists(coeffs, max_size=5))
        factors = {LinearForm.canonical(c)[0]: data.draw(st.integers(1, 4))
                   for c in forms}
        coefficient = data.draw(st.fractions(-50, 50, max_denominator=20))
        fd = FactoredDeterminant(coefficient, factors)
        point = data.draw(st.one_of(
            st.just([Fraction(0)] * nvars),
            st.lists(st.fractions(-20, 20, max_denominator=12),
                     min_size=nvars, max_size=nvars)))
        assert fd.evaluate(point) == _ref_factored_evaluate(fd, point)

    def test_integer_evaluate_at_mixed_denominators(self):
        f1, f2, f3 = LinearForm([1, -1, 0]), LinearForm([0, 2, 3]), \
            LinearForm([1, 1, 1])
        fd = FactoredDeterminant(Fraction(-5, 4), {f1: 3, f2: 2, f3: 1})
        for point in ([Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 7)],
                      [0, 0, 0], [Fraction(3, 4), Fraction(3, 4), 1],
                      [-2, Fraction(1, 6), Fraction(-9, 10)]):
            assert fd.evaluate(point) == _ref_factored_evaluate(fd, point)
        assert FactoredDeterminant(Fraction(-7, 3), {}).evaluate([]) == \
            Fraction(-7, 3)
        with pytest.raises(ValueError):
            FactoredDeterminant(UNKNOWN, {f1: 1}).evaluate(
                [Fraction(-1, 2), Fraction(2, 3), 0])

    def test_unknown_coefficient_blocks_expansion(self):
        fd = FactoredDeterminant(UNKNOWN, {LinearForm([1, 0]): 1})
        with pytest.raises(ValueError):
            fd.expand()
        with pytest.raises(ValueError):
            fd.evaluate([1, 1])

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            FactoredDeterminant(1, {LinearForm([1, 0]): 0})
