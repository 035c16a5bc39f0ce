"""Symbolic route: invariant bases, flat coordinates, exact restriction of
the covariant metric, and the minor-formula path."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from saitostrata import saitosym
from saitostrata.algebra import (MultiPoly, poly_det, minor_table,
                                 divide_exact, factor_linear,
                                 IncompleteFactorization, InvariantViolation,
                                 NotDivisible)
from saitostrata.exactla import det_fraction, nullspace, rank, solve
from saitostrata.strata import make_stratum, predict_determinant
from saitostrata.saitosym import (InvariantBasis, basic_invariants,
                                  quartic_family_d3, express_in_invariants,
                                  convolution_matrix, covariant_metric,
                                  restricted_saito_det, general_formula_det,
                                  frame_constant, identity_field_checks,
                                  DegenerateBasis, _antidiag,
                                  _certify_forms, _d_root,
                                  _identity_one_form, _identity_tangency,
                                  _sqrt_fraction)

from conftest import bareiss_det

SMALL = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3), ("D", 4)]


def _all_strata(R):
    for size in range(1, R.rank):
        yield from combinations(range(1, R.rank + 1), size)


class TestBasicInvariants:
    @pytest.mark.parametrize("label,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
        ("B", 4), ("D", 3), ("D", 4), ("D", 5), ("F", 4)])
    def test_jacobian_factors_into_mirrors(self, root_system, label, rank):
        basis = basic_invariants(root_system(label, rank))
        assert basis.jacobian_scale != 0
        assert basis.degrees == root_system(label, rank).degrees

    def test_unsupported_group_rejected(self, root_system):
        # E is the one family without basic invariants; the refusal names
        # the families built and is not a DegenerateBasis (a defect)
        for rank in (6, 7, 8):
            with pytest.raises(ValueError, match=f"E{rank}; built for A_n, "
                               "B_n = C_n, D_n and F4") as exc:
                basic_invariants(root_system("E", rank))
            assert not isinstance(exc.value, DegenerateBasis)

    def test_dependent_invariants_rejected(self):
        with pytest.raises(DegenerateBasis):
            quartic_family_d3(0, 5)


def _ref_express_in_invariants(q, basis):
    """The solve by evaluation, written out per call: fresh seeded rational
    points, the invariants evaluated and the rank checked on every call,
    and the re-expansion summed in Fraction arithmetic."""
    rng = random.Random(20240915)
    n = basis.R.rank
    if q.is_zero():
        return MultiPoly.zero(n)
    monos = saitosym._weighted_monomials(basis.degrees, q.degree())
    rows, rhs = [], []
    for _ in range(len(monos) + 6):
        pt = [Fraction(rng.randint(-40, 40), rng.randint(1, 5))
              for _ in range(n)]
        vals = [p.evaluate(pt) for p in basis.polys]
        rows.append([prod(v ** k for v, k in zip(vals, e))
                     for e in monos])
        rhs.append(q.evaluate(pt))
    if rank(rows) < len(monos):
        raise saitosym.SolverFailure("points failed to separate monomials")
    coeffs = solve(rows, rhs)
    result = MultiPoly(n, {e: c for e, c in zip(monos, coeffs) if c})
    recon = MultiPoly.zero(n)
    for e, c in result.terms.items():
        term = MultiPoly.const(n, c)
        for p, k in zip(basis.polys, e):
            term = term * p ** k
        recon = recon + term
    if recon != q:
        raise saitosym.SolverFailure("re-expansion mismatch")
    return result


class TestExpressInInvariants:
    def test_round_trip_of_monomials(self, root_system):
        basis = basic_invariants(root_system("B", 2))
        p = basis.polys[0] * basis.polys[0] * basis.polys[1]
        expr = express_in_invariants(p, basis)
        assert expr.terms == {(2, 1): Fraction(1)}

    def test_zero(self, root_system):
        basis = basic_invariants(root_system("A", 2))
        assert express_in_invariants(
            MultiPoly.zero(2), basis).is_zero()

    def test_constant(self, root_system):
        basis = basic_invariants(root_system("B", 2))
        q = MultiPoly.const(2, Fraction(-3, 7))
        assert express_in_invariants(q, basis).terms == \
            _ref_express_in_invariants(q, basis).terms == \
            {(0, 0): Fraction(-3, 7)}

    @pytest.mark.parametrize("label,rank", SMALL + [("F", 4), ("D", 5)])
    def test_convolution_matches_reference(self, root_system, label, rank):
        # every g^{ab} of the basic basis: the same terms in the same order
        basis = basic_invariants(root_system(label, rank))
        g = convolution_matrix(basis)
        for a in range(rank):
            for b in range(a, rank):
                got = express_in_invariants(g[a][b], basis)
                want = _ref_express_in_invariants(g[a][b], basis)
                assert list(got.terms.items()) == list(want.terms.items())

    def test_plan_belongs_to_its_basis(self, root_system):
        # two bases of one group, used in turn: a plan shared by the group
        # would evaluate the wrong invariants for one of them
        bases = [quartic_family_d3(1, 0), quartic_family_d3(2, 3)]
        basic = basic_invariants(root_system("D", 3))
        g = convolution_matrix(basic)
        qs = [g[a][b] for a in range(3) for b in range(a, 3)] \
            + [basic.polys[0] * basic.polys[2], basic.polys[1] ** 2]
        for q in qs:
            for basis in bases:
                got = express_in_invariants(q, basis)
                want = _ref_express_in_invariants(q, basis)
                assert list(got.terms.items()) == list(want.terms.items())

    def test_rank_is_checked_once_per_degree(self, root_system,
                                             monkeypatch):
        calls = []

        def counting_rank(rows):
            calls.append(len(rows[0]) if rows else 0)
            return rank(rows)
        monkeypatch.setattr(saitosym, "mat_rank", counting_rank)
        basis = basic_invariants(root_system("B", 3))
        g = convolution_matrix(basis)
        degrees = set()
        for a in range(3):
            for b in range(a, 3):
                express_in_invariants(g[a][b], basis)
                express_in_invariants(g[a][b], basis)
                degrees.add(g[a][b].degree())
        assert len(calls) == len(degrees)

    @pytest.mark.parametrize("expt", [(2, 0), (3, 0), (1, 3)])
    def test_non_invariant_input_is_inconsistent(self, root_system, expt):
        basis = basic_invariants(root_system("B", 2))
        with pytest.raises(ValueError, match="inconsistent linear system"):
            express_in_invariants(MultiPoly(2, {expt: 1}), basis)
        assert express_in_invariants(MultiPoly.zero(2), basis).is_zero()


def _self_pairing(basis):
    """The constant matrix d g^{ab}(basis) / d (top invariant), from every
    entry of the convolution matrix: the oracle for the pairing that
    `flat_coordinates` builds inline."""
    n = basis.R.rank
    conv = convolution_matrix(basis)
    P = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            gt = express_in_invariants(conv[a][b], basis)
            entry = gt.diff(n - 1)
            if not entry.is_constant():
                raise saitosym.SolverFailure("flat pairing is not constant")
            P[a][b] = P[b][a] = entry.constant_value() if not entry.is_zero() \
                else Fraction(0)
    return P


def _ref_saito_metric(base):
    """eta^{ab}(p) = d g^{ab}(p) / d p^n for the basis `base`."""
    n = base.R.rank
    gz = convolution_matrix(base)
    return [[express_in_invariants(gz[a][b], base).diff(n - 1)
             for b in range(n)] for a in range(n)]


def _ref_flat_nullspaces(eta, degs):
    """The covariant flatness equations, the oracle of the raised-index
    ones of `flat_coordinates`: the inverse eta_{ab} by cofactors, the
    Christoffel symbols Gamma^k_ij = (1/2) eta^{kl} (d_i eta_lj + d_j eta_il
    - d_l eta_ij), and per degree d the null space of the residuals
    d_i d_j t - Gamma^k_ij d_k t on the ansatz of the p-monomials of
    weighted degree d, keyed by d."""
    n = len(eta)
    c0 = bareiss_det(eta).constant_value()
    eta_cov = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            minor = [[eta[i][j] for j in range(n) if j != b]
                     for i in range(n) if i != a]
            cof = bareiss_det(minor) if n > 1 else MultiPoly.const(n, 1)
            eta_cov[b][a] = cof * (Fraction((-1) ** (a + b)) / c0)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = MultiPoly.zero(n)
                for l in range(n):
                    s = s + eta[k][l] * (eta_cov[l][j].diff(i)
                                         + eta_cov[i][l].diff(j)
                                         - eta_cov[i][j].diff(l))
                gamma[k][i][j] = gamma[k][j][i] = s * Fraction(1, 2)
    out = {}
    for d in sorted(set(degs)):
        cols = []
        for e in saitosym._weighted_monomials(degs, d):
            t = MultiPoly(n, {e: 1})
            col = {}
            for i in range(n):
                for j in range(i, n):
                    resid = t.diff(i).diff(j)
                    for k in range(n):
                        resid = resid - gamma[k][i][j] * t.diff(k)
                    for m, c in resid.terms.items():
                        col[i, j, m] = c
            cols.append(col)
        keys = sorted({key for col in cols for key in col})
        A = [[col.get(key, Fraction(0)) for col in cols] for key in keys]
        out[d] = nullspace(A) if A else \
            [[Fraction(int(i == j)) for j in range(len(cols))]
             for i in range(len(cols))]
    return out


FLAT_GROUPS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2),
               ("B", 3), ("B", 4), ("D", 3), ("D", 4), ("D", 5), ("F", 4)]


def _dense_j(basis):
    """J = c prod beta multiplied out, which the package never forms."""
    out = MultiPoly.const(basis.R.rank, basis.jacobian_scale)
    for beta in basis.R.positive_roots:
        out = out * MultiPoly.linear(beta)
    return out


def _assert_jacobian_rule(basis):
    """The Bareiss expansion of the Jacobian is c prod beta, with c read at
    one point."""
    assert bareiss_det(basis.jacobian) == _dense_j(basis)


def _coordinate_forms(R):
    """The forms `basic_invariants` takes power sums of, as z-coefficient
    vectors: the ambient coordinates x_a, or the positive roots on F4."""
    if R.label == "F":
        return list(R.positive_roots)
    return [tuple(w[a] for w in R.coweights) for a in range(R.ambient_dim)]


def _power_degrees(R):
    return range(2, 2 * R.rank - 1, 2) if R.label == "D" else R.degrees


class TestJacobianRule:
    @pytest.mark.parametrize("label,rank", FLAT_GROUPS)
    def test_basic_and_flat_bases_match_bareiss(self, root_system,
                                                flat_basis, label, rank):
        _assert_jacobian_rule(basic_invariants(root_system(label, rank)))
        _assert_jacobian_rule(flat_basis(label, rank))

    @pytest.mark.parametrize("a,b", [(3, 5), (Fraction(-1, 2), 24)])
    def test_quartic_family_matches_bareiss(self, a, b):
        _assert_jacobian_rule(quartic_family_d3(a, b))

    def test_b5_basic_basis_matches_bareiss(self, root_system):
        # the 5 x 5 expansion the rule replaced, a few seconds of Bareiss
        _assert_jacobian_rule(basic_invariants(root_system("B", 5)))

    @pytest.mark.parametrize("label,rank", [
        ("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
        + [("D", r) for r in range(3, 7)] + [("F", 4)])
    def test_certificate_holds(self, root_system, label, rank):
        R = root_system(label, rank)
        _certify_forms(R, _coordinate_forms(R), _power_degrees(R))

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4),
                                            ("F", 4)])
    def test_dropped_form_fails_the_certificate(self, root_system, label,
                                                rank):
        R = root_system(label, rank)
        with pytest.raises(InvariantViolation, match="does not permute"):
            _certify_forms(R, _coordinate_forms(R)[:-1], _power_degrees(R))

    def test_sign_flip_on_a_fails_the_certificate(self, root_system):
        # A has odd degrees, so its forms must be permuted exactly
        R = root_system("A", 3)
        forms = _coordinate_forms(R)
        forms[0] = tuple(-x for x in forms[0])
        with pytest.raises(InvariantViolation, match="does not permute"):
            _certify_forms(R, forms, R.degrees)

    def test_odd_flip_count_on_d_fails_the_certificate(self, root_system):
        # s_i permutes D4's positive roots up to the one sign of a_i, so
        # their product would change sign
        R = root_system("D", 4)
        with pytest.raises(InvariantViolation, match="odd number"):
            _certify_forms(R, list(R.positive_roots), _power_degrees(R))

    def test_odd_degree_up_to_sign_fails_the_certificate(self, root_system):
        R = root_system("B", 3)
        with pytest.raises(InvariantViolation, match="odd power sum"):
            _certify_forms(R, _coordinate_forms(R), (2, 3))

    def test_dependent_basis_is_degenerate(self, root_system):
        # right degrees and invariant, but p^4 = (p^2)^2: c = 0
        p2, p3, _ = basic_invariants(root_system("A", 3)).polys
        with pytest.raises(DegenerateBasis, match="Jacobian vanishes"):
            InvariantBasis(root_system("A", 3), [p2, p3, p2 * p2])


def _definite_self_dual_block(pairing, degrees):
    """Whether a flat pairing of D_n, n even, has the self-dual block that
    `_pairing_transform` derives: two coordinates of degree (h + 2)/2, a
    block S with det S > 0 (definite), and det S (n - 1)/n^2 a rational
    square."""
    n = len(degrees)
    idx = [i for i, d in enumerate(degrees) if 2 * d == degrees[-1] + 2]
    det = det_fraction([[pairing[i][j] for j in idx] for i in idx])
    return len(idx) == 2 and det > 0 \
        and _sqrt_fraction(det * (n - 1) / n ** 2) is not None


class TestFlatCoordinates:
    @pytest.mark.parametrize("label,rank,normalized",
                             [("A", 2, True), ("A", 3, True), ("B", 2, True),
                              ("B", 3, True), ("D", 3, True),
                              ("D", 4, False)])
    def test_normalization_flag(self, flat_basis, label, rank, normalized):
        fb = flat_basis(label, rank)
        assert fb.flat
        assert fb.normalized is normalized
        if normalized:
            assert fb.pairing == _antidiag(rank)

    @pytest.mark.parametrize("label,rank", FLAT_GROUPS)
    def test_raised_index_equations_match_covariant_ones(self, root_system,
                                                        label, rank):
        # on the same eta^{ab}(p), each degree's null space of the
        # raised-index equations is that of the covariant ones, exactly
        base = basic_invariants(root_system(label, rank))
        eta, degs = _ref_saito_metric(base), list(base.degrees)
        assert {d: sols for d, _, sols in saitosym._flat_nullspaces(
            eta, degs)} == _ref_flat_nullspaces(eta, degs)

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 2), ("D", 3)])
    def test_pairing_is_self_consistent(self, flat_basis, root_system,
                                        label, rank):
        # the pairing stored on the solver output equals the constant
        # matrix d g^{ab}(t) / d t^n recomputed from scratch
        fb = flat_basis(label, rank)
        oracle = _self_pairing(InvariantBasis(root_system(label, rank),
                                              fb.polys, flat=False))
        assert oracle == fb.pairing

    def test_d4_pairing_middle_block_obstruction(self, flat_basis):
        # the degree-4 self-dual 2x2 block is definite, so no real
        # congruence reaches the anti-diagonal identity (det -1)
        fb = flat_basis("D", 4)
        assert _definite_self_dual_block(fb.pairing, fb.degrees)
        assert det_fraction([row[1:3] for row in fb.pairing[1:3]]) \
            == Fraction(625, 243)
        # one negative diagonal entry makes the block indefinite
        flipped = copy.deepcopy(fb.pairing)
        flipped[1][1] = -flipped[1][1]
        assert not _definite_self_dual_block(flipped, fb.degrees)

    @pytest.mark.parametrize("label,rank", [("A", 1)] + SMALL + [("F", 4)])
    def test_chain_rule_jacobian(self, flat_basis, root_system, label, rank):
        # J_t = det(dt/dp) J_p, where dt/dp is block-triangular by degree
        # with constant diagonal blocks: the c read at one point on the flat
        # basis is the basic c times the determinant of the linear part of t
        fb = flat_basis(label, rank)
        base = basic_invariants(root_system(label, rank))
        unit = [tuple(int(i == b) for i in range(rank)) for b in range(rank)]
        linear = [[t.coefficient(e) for e in unit]
                  for t in fb.polys_in_invariants]
        assert fb.jacobian_scale == base.jacobian_scale * det_fraction(linear)

    def test_flat_polys_expressed_in_basics(self, flat_basis, root_system):
        fb = flat_basis("B", 2)
        base = basic_invariants(root_system("B", 2))
        for t_in_p, t_in_z in zip(fb.polys_in_invariants, fb.polys):
            assert t_in_p.substitute(base.polys) == t_in_z


class TestCovariantMetric:
    @pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("D", 3)])
    def test_determinant_proportional_to_jacobian_squared(self, flat_basis,
                                                          label, rank):
        # in the simple-root frame the z-coordinate change contributes
        # det(Gram)^2 on top of the flat-pairing determinant
        fb = flat_basis(label, rank)
        det = poly_det(covariant_metric(fb))
        J2 = _dense_j(fb) * _dense_j(fb)
        gram_det = det_fraction(fb.R._gram)
        scaled = det * (det_fraction(fb.pairing) * gram_det ** 2)
        assert scaled == J2 or scaled == -J2

    def test_convolution_is_symmetric_invariant(self, flat_basis):
        fb = flat_basis("A", 2)
        g = convolution_matrix(fb)
        for a in range(2):
            for b in range(2):
                assert g[a][b] == g[b][a]
                expr = express_in_invariants(g[a][b], fb)
                assert expr.substitute(fb.polys) == g[a][b]


class TestMainTheoremSmall:
    @pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("D", 3)])
    def test_factorization_matches_predictor(self, flat_basis, root_system,
                                             label, rank):
        R = root_system(label, rank)
        fb = flat_basis(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            fd = restricted_saito_det(fb, D)
            assert fd.factors == predict_determinant(D).factors
            assert not isinstance(fd.coefficient, type(None))

    def test_worker_initargs_survive_pickling(self, flat_basis):
        # a caller may ship (R, basis) to another process by pickling
        # (`verify` forks its workers, which inherit them)
        fb = flat_basis("B", 3)
        R2, fb2 = pickle.loads(pickle.dumps((fb.R, fb)))
        for I in _all_strata(fb.R):
            got = restricted_saito_det(fb2, make_stratum(R2, I))
            want = restricted_saito_det(fb, make_stratum(fb.R, I))
            assert (got.coefficient, got.factors) == \
                (want.coefficient, want.factors)

    def test_group_mismatch_rejected(self, flat_basis, root_system):
        D = make_stratum(root_system("B", 2), [1])
        with pytest.raises(ValueError):
            restricted_saito_det(flat_basis("A", 2), D)


class TestTwoRoutes:
    @pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
    def test_minor_route_equals_covariant_route(self, flat_basis,
                                                root_system, label, rank):
        R = root_system(label, rank)
        fb = flat_basis(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            lhs = restricted_saito_det(fb, D).expand()
            rhs = general_formula_det(fb, D) * frame_constant(fb, D)
            assert lhs == rhs


# reference for the minor formula: the Fraction polynomials, rebuilt for
# every stratum, with the exact division by J^{2k-2} before restricting

def _ref_eta_numerators(basis, indices):
    """J^2 eta^{ij} for i, j in `indices` (0-based), as polynomials."""
    n = basis.R.rank
    J = _dense_j(basis)
    Jk = basis.minors
    dJ = [J.diff(i) for i in range(n)]
    dJk = {k: [Jk[k].diff(i) for i in range(n)] for k in indices}
    out = {}
    for i in indices:
        for j in indices:
            if (j, i) in out:
                out[(i, j)] = out[(j, i)]
                continue
            s1 = (dJk[j][i] * J - Jk[j] * dJ[i]) * ((-1) ** (n + j))
            s2 = (dJk[i][j] * J - Jk[i] * dJ[j]) * ((-1) ** (n + i))
            out[(i, j)] = s1 + s2
    return out


def _ref_general_formula_det(basis, D):
    I0 = [i - 1 for i in sorted(D.I)]
    N = _ref_eta_numerators(basis, I0)
    k = len(I0)
    num = bareiss_det([[N[(i, j)] for j in I0] for i in I0])
    J = _dense_j(basis)
    P = num if k == 1 else divide_exact(num, J ** (2 * k - 2))
    return -P.set_vars_zero(I0)


# the oracle of the per-root sums: the minor formula as it ran with J as
# one dense polynomial, v = grad J, the x term divided by J and y_ab by J
# (the same code, less the layout widening, which moves no value)

class _RefJDivisionChain:
    def __init__(self, basis):
        n = basis.R.rank
        self.J = _dense_j(basis)
        self.v = [self.J.diff(a) for a in range(n)]
        self.w = [p if (n + b) % 2 == 0 else -p
                  for b, p in enumerate(basis.minors)]

    def S(self, a, b):
        w = self.w
        return w[b].diff(a) + w[a].diff(b)

    def y(self, a, b):
        v, w = self.v, self.w
        return (v[a] * w[b] - w[a] * v[b]) // self.J


def _ref_j_division_general_formula_det(basis, D):
    I0 = [i - 1 for i in sorted(D.I)]
    chain = _RefJDivisionChain(basis)
    J, v, w, S, y = chain.J, chain.v, chain.w, chain.S, chain.y
    n, k = J.nvars, len(I0)
    if k == 1:
        i, = I0
        return -(J * S(i, i) - w[i] * v[i] * 2).set_vars_zero(I0)
    minors = {}

    def minor(rows, cols):
        if not rows:
            return MultiPoly.const(n, 1)
        key = (rows, cols) if rows <= cols else (cols, rows)
        out = minors.get(key)
        if out is None:
            r, rest = rows[0], rows[1:]
            out = minors[key] = MultiPoly.sum(n, (
                (-S(r, c) if j % 2 else S(r, c))
                * minor(rest, cols[:j] + cols[j + 1:])
                for j, c in enumerate(cols)))
        return out

    def cofactor(p, q):
        m = minor(tuple(a for r, a in enumerate(I0) if r not in p),
                  tuple(a for c, a in enumerate(I0) if c not in q))
        return m if (sum(p) + sum(q)) % 2 == 0 else -m

    x = MultiPoly.sum(n, (v[b] * MultiPoly.sum(n, (
        w[a] * cofactor((p,), (q,)) for p, a in enumerate(I0)))
        for q, b in enumerate(I0))) // J
    pairs = list(combinations(range(k), 2))
    ys = [y(I0[a], I0[b]) for a, b in pairs]
    Q = MultiPoly.sum(n, (
        ys[i] * ys[j] * cofactor(pairs[i], pairs[j]) * (1 if i == j else 2)
        for i, j in combinations_with_replacement(range(len(pairs)), 2)))
    P = minor(tuple(I0), tuple(I0)) - x * 2 - Q
    for _ in range(k - 2):
        P = P // J
    return -P.set_vars_zero(I0)


def _terms_or_not_divisible(det, basis, D):
    try:
        return det(basis, D).terms
    except NotDivisible:
        return NotDivisible


class TestPackedMinorFormula:
    @pytest.mark.parametrize("label,rank", [
        ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("D", 3),
        ("D", 4), ("F", 4)])
    def test_per_root_sums_match_the_j_division(self, flat_basis,
                                                root_system, label, rank):
        # every stratum, the codimension-3 ones of A4, B4 and D4 included,
        # and F4's of codimension 1; on the perturbed basis both raise
        # NotDivisible on the same strata and agree elsewhere
        R = root_system(label, rank)
        fb = flat_basis(label, rank)
        bad = _perturbed(fb)
        raised = set()
        for I in _all_strata(R):
            if label == "F" and len(I) > 1:
                continue
            D = make_stratum(R, I)
            assert general_formula_det(fb, D).terms == \
                _ref_j_division_general_formula_det(fb, D).terms, I
            got = _terms_or_not_divisible(general_formula_det, bad, D)
            assert got == _terms_or_not_divisible(
                _ref_j_division_general_formula_det, bad, D), I
            if got is NotDivisible:
                raised.add(I)
        assert raised == {I for I in _all_strata(R) if len(I) > 1
                          and label != "F"}

    @pytest.mark.parametrize("label,rank", [
        ("A", r) for r in range(2, 7)] + [("B", r) for r in range(2, 6)]
        + [("D", r) for r in range(3, 7)] + [("F", 4)])
    def test_dj_is_the_restricted_derivative_of_dense_j(self, root_system,
                                                        flat_basis, label,
                                                        rank):
        # the product of the restricted roots other than alpha_i, against
        # d_i of the multiplied-out J, restricted to z_i = 0
        bases = [basic_invariants(root_system(label, rank))]
        if rank <= 4:
            bases.append(flat_basis(label, rank))
        for basis in bases:
            J, chain = _dense_j(basis), basis._minor_chain
            for i in range(rank):
                assert chain.dJ(i) == J.diff(i).set_vars_zero([i]), i

    @pytest.mark.parametrize("label,rank", SMALL)
    def test_flat_bases_match_reference(self, flat_basis, root_system,
                                        label, rank):
        fb = flat_basis(label, rank)
        for I, D in _strata_up_to_codim_2(root_system(label, rank)).items():
            got = general_formula_det(fb, D)
            assert got.nvars == D.dim
            assert got.terms == _ref_general_formula_det(fb, D).terms, I

    @pytest.mark.parametrize("which", ["basic B3", "quartic D3 (3, 5)"])
    def test_non_flat_bases_match_reference(self, root_system, which):
        # (3, 5) is not a Saito point of the family (TestQuarticFamily)
        basis = basic_invariants(root_system("B", 3)) \
            if which == "basic B3" else quartic_family_d3(3, 5)
        for I, D in _strata_up_to_codim_2(basis.R).items():
            assert general_formula_det(basis, D).terms == \
                _ref_general_formula_det(basis, D).terms, I

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4)])
    def test_perturbed_basis_is_not_divisible(self, flat_basis, root_system,
                                              label, rank):
        # the exact divisions witness the limit: a basis that is not
        # invariant fails them on every stratum with k >= 2, while k = 1
        # divides by nothing
        bad = _perturbed(flat_basis(label, rank))
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            if len(I) == 1:
                assert general_formula_det(bad, D).nvars == D.dim
            else:
                with pytest.raises(NotDivisible):
                    general_formula_det(bad, D)


class TestQuarticFamily:
    def test_saito_point_factors_completely(self, root_system):
        basis = quartic_family_d3(Fraction(-1, 2), 24)
        D = make_stratum(root_system("D", 3), [1])
        fd = restricted_saito_det(basis, D)
        assert sorted(fd.factors.values()) == \
            sorted(predict_determinant(D).factors.values()) == [2, 3, 3]

    def test_generic_point_fails_to_factor(self, root_system):
        basis = quartic_family_d3(3, 5)
        D = make_stratum(root_system("D", 3), [1])
        with pytest.raises(IncompleteFactorization) as exc:
            restricted_saito_det(basis, D)
        assert exc.value.cofactor.degree() == 2


# reference implementations: the metric and the tangency check written out
# term by term, without the shared Gram contraction or the per-basis 1-form

def _ref_restricted_saito_det(basis, D):
    """The restricted metric sum_ab (P^-1)_ab d_r t^a d_l t^b from the
    restricted gradients, one product per (a, b)."""
    n = basis.R.rank
    I0 = [i - 1 for i in sorted(D.I)]
    params0 = [j - 1 for j in D.params]
    rgrads = [[p.diff(r).set_vars_zero(I0) for r in params0]
              for p in basis.polys]
    Pinv = basis.pairing_inv
    dim = len(params0)
    M = [[None] * dim for _ in range(dim)]
    for r in range(dim):
        for l in range(r, dim):
            s = MultiPoly.zero(dim)
            for a in range(n):
                for b in range(n):
                    if Pinv[a][b]:
                        s = s + rgrads[a][r] * rgrads[b][l] * Pinv[a][b]
            M[r][l] = M[l][r] = s
    return factor_linear(bareiss_det(M), [hp.form for hp in D.arrangement])


def _ref_one_form(basis, gamma):
    """The inverse identity 1-form at the root gamma, built from its own
    directional derivative."""
    R, n = basis.R, basis.R.rank
    Pinv = basis.pairing_inv
    expr = MultiPoly.zero(n)
    for a in range(n):
        for b in range(n):
            if Pinv[a][b]:
                expr = expr + basis.polys[a] * _d_root(
                    R, basis.polys[b], gamma) * (Pinv[a][b]
                                                  * basis.degrees[a])
    return expr


def _ref_tangency(basis, D):
    """The 1-form rebuilt for each positive root of R_D and restricted root
    by root."""
    I0 = [i - 1 for i in sorted(D.I)]
    ok = True
    for gamma in D.rd.roots:
        if all(x <= 0 for x in gamma):
            continue
        if not _ref_one_form(basis, gamma).set_vars_zero(I0).is_zero():
            ok = False
    return ok


def _outcome(det, basis, D):
    try:
        fd = det(basis, D)
    except IncompleteFactorization as exc:
        return "incomplete", exc.cofactor, exc.partial
    return "complete", fd.coefficient, fd.factors


def _strata_up_to_codim_2(R):
    return {I: make_stratum(R, I) for codim in (1, 2) if codim < R.rank
            for I in combinations(range(1, R.rank + 1), codim)}


def _perturbed(fb):
    """A copy of the flat basis with z_1^{d_2} added to t^2, which breaks
    W-invariance; the Jacobian is rebuilt to match."""
    bad = copy.copy(fb)
    bad.__dict__.pop("minors", None)
    bad.__dict__.pop("_minor_chain", None)
    bad.polys = list(fb.polys)
    bad.polys[1] = bad.polys[1] + MultiPoly.variable(fb.R.rank, 0) \
        ** fb.degrees[1]
    bad.jacobian = bad._jacobian_matrix()
    return bad


class TestDeterminantCallersMatchBareiss:
    """Each determinant the package expands, against the Bareiss oracle on
    the same matrix: the restricted Gram matrix of `restricted_saito_det`
    and the Jacobian minors J_k of `InvariantBasis.minors`."""

    @pytest.mark.parametrize("label,rank,min_codim", [
        ("A", 2, 1), ("A", 3, 1), ("A", 4, 1), ("A", 5, 1), ("B", 2, 1),
        ("B", 3, 1), ("B", 4, 1), ("D", 4, 1), ("F", 4, 1), ("D", 5, 2)])
    def test_restricted_saito_det(self, flat_basis, root_system, monkeypatch,
                                  label, rank, min_codim):
        R = root_system(label, rank)
        fb = flat_basis(label, rank)
        expanded = []

        def recording_det(M):
            det = poly_det(M)
            expanded.append((M, det))
            return det
        monkeypatch.setattr(saitosym, "poly_det", recording_det)
        for I in _all_strata(R):
            if len(I) < min_codim:
                continue
            D = make_stratum(R, I)
            got = restricted_saito_det(fb, D)
            (M, det), = expanded
            expanded.clear()
            want = bareiss_det(M)
            assert det == want
            fd = factor_linear(want, [hp.form for hp in D.arrangement])
            assert (got.coefficient, got.factors) == \
                (fd.coefficient, fd.factors)

    @pytest.mark.parametrize("label,rank", [
        ("A", r) for r in range(2, 7)] + [("B", r) for r in range(2, 6)]
        + [("D", r) for r in range(3, 6)] + [("F", 4)])
    def test_jacobian_minors(self, root_system, flat_basis, label, rank):
        bases = [basic_invariants(root_system(label, rank))]
        if (label, rank) in FLAT_GROUPS:
            bases.append(flat_basis(label, rank))
        for basis in bases:
            for k, Jk in enumerate(basis.minors):
                B = [[row[j] for j in range(rank) if j != k]
                     for row in basis.jacobian[:-1]]
                assert Jk == bareiss_det(B)


class TestOneGramContraction:
    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 3),
                                            ("D", 4)])
    def test_restricted_metric_matches_reference(self, flat_basis,
                                                 root_system, label, rank):
        R = root_system(label, rank)
        fb = flat_basis(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            got = _outcome(restricted_saito_det, fb, D)
            assert got[0] == "complete"
            assert got == _outcome(_ref_restricted_saito_det, fb, D)

    def test_quartic_family_matches_reference(self, root_system):
        # at a generic point of the family both routes fail to factor on
        # the mirrors and leave the same cofactor
        basis = quartic_family_d3(3, 5)
        R = root_system("D", 3)
        kinds = set()
        for I in _all_strata(R):
            D = make_stratum(R, I)
            got = _outcome(restricted_saito_det, basis, D)
            assert got == _outcome(_ref_restricted_saito_det, basis, D)
            kinds.add((len(I), got[0]))
        assert (1, "incomplete") in kinds

    def test_covariant_metric_restricts_to_restricted_metric(self,
                                                             flat_basis,
                                                             root_system):
        R = root_system("B", 3)
        fb = flat_basis("B", 3)
        G = covariant_metric(fb)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            I0 = [i - 1 for i in sorted(D.I)]
            p0 = [j - 1 for j in D.params]
            M = [[G[r][l].set_vars_zero(I0) for l in p0] for r in p0]
            got = factor_linear(bareiss_det(M),
                                [hp.form for hp in D.arrangement])
            want = restricted_saito_det(fb, D)
            assert (got.coefficient, got.factors) == \
                (want.coefficient, want.factors)


class _CountingDict(dict):
    """A dict that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


class TestIdentityOneForm:
    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3)])
    def test_one_form_is_linear_in_the_root(self, flat_basis, label, rank):
        # theta(gamma) = sum_k gamma_k theta(alpha_k) on every positive
        # root, also for a basis that is no longer invariant
        for basis in (flat_basis(label, rank),
                      _perturbed(flat_basis(label, rank))):
            theta = _identity_one_form(basis)
            for gamma in basis.R.positive_roots:
                combined = MultiPoly.zero(rank)
                for k, g in enumerate(gamma):
                    combined = combined + theta[k] * g
                assert combined == _ref_one_form(basis, gamma)

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 3),
                                            ("D", 4)])
    def test_tangency_matches_reference(self, flat_basis, root_system,
                                        label, rank):
        fb = flat_basis(label, rank)
        strata = _strata_up_to_codim_2(root_system(label, rank))
        want = {I: _ref_tangency(fb, D) for I, D in strata.items()}
        assert _identity_tangency(fb, strata) == want
        assert all(want.values())

    @pytest.mark.parametrize("label,rank,failing",
                             [("A", 3, {(2,), (2, 3)}), ("B", 3, {(2,)})])
    def test_perturbed_basis_fails_the_same_strata(self, flat_basis,
                                                   root_system, label, rank,
                                                   failing):
        bad = _perturbed(flat_basis(label, rank))
        strata = _strata_up_to_codim_2(root_system(label, rank))
        want = {I: _ref_tangency(bad, D) for I, D in strata.items()}
        assert _identity_tangency(bad, strata) == want
        assert {I for I, ok in want.items() if not ok} == failing

    def test_minors_are_built_once_per_basis(self, flat_basis, root_system,
                                             monkeypatch):
        # a fresh basis, so no earlier test has built its minors yet
        fb = flat_basis("B", 3)
        basis = InvariantBasis(fb.R, fb.polys, flat=True, pairing=fb.pairing)
        tables = []

        def counting_table(entry, one):
            # count each read of a minor from outside its own table
            minor, reads = minor_table(entry, one), Counter()

            def counted(rows, cols):
                reads[rows, cols] += 1
                return minor(rows, cols)
            tables.append((entry, reads))
            return counted
        monkeypatch.setattr(saitosym, "minor_table", counting_table)
        # count every S_ab = d_a w_b + d_b w_a and every y_ab = Y_ab / J
        # stored by the minor formula: none may be built a second time
        chain = basis._minor_chain
        chain._S, chain._y = _CountingDict(), _CountingDict()
        R = root_system("B", 3)
        for I in _all_strata(R):
            general_formula_det(basis, make_stratum(R, I))
        report = identity_field_checks(basis)
        assert all(item["passed"] for item in report)
        # one table on the Jacobian, which gives each J_k once; the others
        # are the minor formula's tables on S, one per stratum with k >= 2
        jacobian = [reads for entry, reads in tables if entry != chain.S]
        rows, cols = tuple(range(R.rank - 1)), tuple(range(R.rank))
        assert jacobian == [Counter(
            (rows, cols[:k] + cols[k + 1:]) for k in range(R.rank))]
        assert len(tables) == 1 + sum(len(I) > 1 for I in _all_strata(R))
        pairs = list(combinations(range(R.rank), 2))
        assert chain._S.writes == Counter(
            [(i, i) for i in range(R.rank)] + pairs)
        assert chain._y.writes == Counter(pairs)
