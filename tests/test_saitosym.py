"""Symbolic route: invariant bases, flat coordinates, exact restriction of
the covariant metric, and the minor-formula path."""

import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from saitostrata.algebra import (MultiPoly, poly_det, IncompleteFactorization)
from saitostrata.exactla import det_fraction
from saitostrata.strata import make_stratum, predict_determinant
from saitostrata.saitosym import (SUPPORTED, InvariantBasis, basic_invariants,
                                  quartic_family_d3, express_in_invariants,
                                  convolution_matrix, covariant_metric,
                                  restricted_saito_det, general_formula_det,
                                  frame_constant, DegenerateBasis,
                                  _self_pairing, _antidiag)

SMALL = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3), ("D", 4)]


def _all_strata(R):
    for size in range(1, R.rank):
        yield from combinations(range(1, R.rank + 1), size)


class TestBasicInvariants:
    @pytest.mark.parametrize("label,rank", sorted(SUPPORTED))
    def test_jacobian_factors_into_mirrors(self, root_system, label, rank):
        basis = basic_invariants(root_system(label, rank))
        assert basis.jacobian_scale != 0
        assert basis.degrees == root_system(label, rank).degrees

    def test_unsupported_group_rejected(self, root_system):
        with pytest.raises(ValueError):
            basic_invariants(root_system("A", 4))

    def test_dependent_invariants_rejected(self):
        with pytest.raises(DegenerateBasis):
            quartic_family_d3(0, 5)


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
        # `verify` hands (R, basis) to its pool workers, pickled under the
        # spawn and forkserver start methods
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


class TestQuarticFamily:
    def test_saito_point_factors_completely(self, root_system):
        basis = quartic_family_d3(Fraction(-1, 2), 24)
        D = make_stratum(root_system("D", 3), [1])
        fd = restricted_saito_det(basis, D)
        assert fd.exponents_sorted() == \
            predict_determinant(D).exponents_sorted() == [2, 3, 3]

    def test_generic_point_fails_to_factor(self, root_system):
        basis = quartic_family_d3(3, 5)
        D = make_stratum(root_system("D", 3), [1])
        with pytest.raises(IncompleteFactorization) as exc:
            restricted_saito_det(basis, D)
        assert exc.value.cofactor.degree() == 2
