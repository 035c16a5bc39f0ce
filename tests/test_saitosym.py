"""Symbolic route: invariant bases, flat coordinates, exact restriction of
the covariant metric, and the minor-formula path."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from saitostrata import saitosym
from saitostrata.algebra import (MultiPoly, poly_det, divide_exact,
                                 factor_linear, IncompleteFactorization,
                                 NotDivisible)
from saitostrata.exactla import det_fraction, rank, solve
from saitostrata.strata import make_stratum, predict_determinant
from saitostrata.saitosym import (InvariantBasis, basic_invariants,
                                  quartic_family_d3, express_in_invariants,
                                  convolution_matrix, covariant_metric,
                                  restricted_saito_det, general_formula_det,
                                  frame_constant, identity_field_checks,
                                  DegenerateBasis, _antidiag,
                                  _d_root, _identity_one_form,
                                  _identity_tangency)

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
        # the degree-4 self-dual 2x2 block is positive definite, so no
        # rational congruence can reach the hyperbolic form
        fb = flat_basis("D", 4)
        S = [[fb.pairing[i][j] for j in (1, 2)] for i in (1, 2)]
        assert det_fraction(S) > 0 and S[0][0] > 0

    @pytest.mark.parametrize("label,rank", [("A", 1)] + SMALL + [("F", 4)])
    def test_chain_rule_jacobian(self, flat_basis, label, rank):
        # J_t = det(dt/dp) J_p equals the determinant of the flat Jacobian
        # matrix, and its scalar is the one the mirror-product check reads
        fb = flat_basis(label, rank)
        assert fb.jacobian_det == poly_det(fb.jacobian)
        assert fb.jacobian_scale == fb._check_jacobian()

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
        J2 = fb.jacobian_det * fb.jacobian_det
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
            assert fd.multiset() == predict_determinant(D).multiset()
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
    J = basis.jacobian_det
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
    num = poly_det([[N[(i, j)] for j in I0] for i in I0])
    J = basis.jacobian_det
    P = num if k == 1 else divide_exact(num, J ** (2 * k - 2))
    return -P.set_vars_zero(I0)


class TestPackedMinorFormula:
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
    return factor_linear(poly_det(M), [hp.form for hp in D.arrangement])


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
            got = factor_linear(poly_det(M),
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
        jacobian = {id(e) for row in basis.jacobian for e in row}
        minors = []

        def counting_det(M):
            if M and all(id(e) in jacobian for row in M for e in row):
                minors.append(len(M))
            return poly_det(M)
        monkeypatch.setattr(saitosym, "poly_det", counting_det)
        # count every S_ab = d_a w_b + d_b w_a and every y_ab = Y_ab / J
        # stored by the minor formula: none may be built a second time
        chain = basis._minor_chain
        chain._S, chain._y = _CountingDict(), _CountingDict()
        R = root_system("B", 3)
        for I in _all_strata(R):
            general_formula_det(basis, make_stratum(R, I))
        report = identity_field_checks(basis)
        assert all(item["passed"] for item in report)
        assert minors == [R.rank - 1] * R.rank
        pairs = list(combinations(range(R.rank), 2))
        assert chain._S.writes == Counter(
            [(i, i) for i in range(R.rank)] + pairs)
        assert chain._y.writes == Counter(pairs)
