"""Discriminant strata, restricted arrangements, the combinatorial
multiplicity predictor, and the Q-polynomial cross-check."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from saitostrata import strata
from saitostrata.roots import reduce_to_fundamental, span_subsystem
from saitostrata.saitosym import restricted_saito_det
from saitostrata.strata import (make_stratum, restricted_arrangement,
                                predict_determinant, q_polynomial,
                                stratum_json_dict)


def _all_strata(R):
    n = R.rank
    for size in range(1, n):
        yield from combinations(range(1, n + 1), size)


class TestStratumBasics:
    def test_dimensions_and_parameters(self, root_system):
        R = root_system("B", 3)
        D = make_stratum(R, [1, 3])
        assert D.dim == 1
        assert sorted(D.I) == [1, 3]
        assert list(D.params) == [2]

    def test_restrict_root_kills_stratum_roots(self, root_system):
        R = root_system("A", 3)
        D = make_stratum(R, [1])
        for beta in D.rd.roots:
            assert D.restrict_root(beta) is None
        outside = [b for b in R.positive_roots if b not in set(D.rd.roots)]
        assert outside
        for beta in outside:
            assert D.restrict_root(beta) is not None
        # the stratum's table is restrict_root on every positive root
        assert list(D.forms) == list(R.positive_roots)
        for beta in R.positive_roots:
            assert D.forms[beta] == D.restrict_root(beta)

    def test_arrangement_is_built_once(self, flat_basis, monkeypatch):
        calls = []
        real = strata.restricted_arrangement

        def counted(D):
            calls.append(D)
            return real(D)

        monkeypatch.setattr(strata, "restricted_arrangement", counted)
        basis = flat_basis("A", 3)
        D = make_stratum(basis.R, [2])
        predict_determinant(D)
        stratum_json_dict(D)
        q_polynomial(D)
        restricted_saito_det(basis, D)
        assert calls == [D]


class TestRestrictedArrangement:
    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4),
                                            ("F", 4)])
    def test_mirror_count_identity(self, root_system, label, rank):
        # |A_H| = |A| - h + 1 on every codimension-1 stratum
        R = root_system(label, rank)
        expect = len(R.positive_roots) - R.coxeter_number + 1
        for i in range(1, R.rank + 1):
            arr = restricted_arrangement(make_stratum(R, [i]))
            assert len(arr) == expect

    def test_class_data_is_well_defined(self, root_system):
        # R_{D,beta} is built from the projective class; span_subsystem is
        # the reference: every member beta spans the same subsystem with
        # a_I, and lies in the component through the representative
        for label, rank in (("F", 4), ("B", 4), ("D", 5), ("E", 6)):
            R = root_system(label, rank)
            for I in _all_strata(R):
                D = make_stratum(R, I)
                simple_I = [R.simple[i - 1] for i in sorted(I)]
                for hp in restricted_arrangement(D):
                    comp0 = set(hp.component0.roots)
                    for beta in hp.roots:
                        ref = span_subsystem(R, simple_I + [beta])
                        assert set(ref.roots) == set(hp.rd_beta.roots)
                        assert ref.rank == hp.rd_beta.rank
                        assert ref.component_multiset() == \
                            hp.rd_beta.component_multiset()
                        assert beta in comp0, (label, rank, I, hp.form)

    def test_exponent_is_component_coxeter_number(self, root_system):
        R = root_system("D", 4)
        for hp in restricted_arrangement(make_stratum(R, [2])):
            assert hp.k == hp.component0.coxeter_number
            assert hp.beta in set(hp.rd_beta.roots)


class TestPredictor:
    def test_a3_line_stratum(self, root_system):
        D = make_stratum(root_system("A", 3), [1, 2])
        fd = predict_determinant(D)
        assert fd.exponents_sorted() == [4]

    def test_f4_wall_stratum(self, root_system):
        D = make_stratum(root_system("F", 4), [1])
        fd = predict_determinant(D)
        assert fd.exponents_sorted() == \
            [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4]

    def test_e8_a5_row(self, root_system):
        D = make_stratum(root_system("E", 8), [4, 5, 6, 7, 8])
        fd = predict_determinant(D)
        assert sorted(fd.factors.values()) == \
            [2, 2, 2, 7, 7, 7, 7, 7, 7, 10, 10, 10, 12]

    @pytest.mark.parametrize("label,rank", [("A", 4), ("B", 4), ("D", 4),
                                            ("F", 4)])
    def test_degree_is_h_times_dim(self, root_system, label, rank):
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            fd = predict_determinant(D)
            assert fd.degree() == R.coxeter_number * D.dim

    def test_equivariance_under_weyl_conjugation(self, root_system):
        # strata built from W-conjugate root sets predict equal exponent
        # multisets
        R = root_system("A", 4)
        rng = random.Random(5)
        for _ in range(4):
            while True:
                S = rng.sample(R.positive_roots, 2)
                try:
                    _, I1 = reduce_to_fundamental(R, S)
                    break
                except ValueError:
                    continue
            word = [rng.randint(1, R.rank) for _ in range(6)]
            wS = [R.apply_word(word, s) for s in S]
            wS = [s if s in set(R.positive_roots) else
                  tuple(-x for x in s) for s in wS]
            _, I2 = reduce_to_fundamental(R, wS)
            fd1 = predict_determinant(make_stratum(R, I1))
            fd2 = predict_determinant(make_stratum(R, I2))
            assert fd1.exponents_sorted() == fd2.exponents_sorted()


class TestQPolynomial:
    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4),
                                            ("F", 4)])
    def test_matches_predictor(self, root_system, label, rank):
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            fd = predict_determinant(D)
            assert q_polynomial(D).multiset() == fd.multiset()

    def test_independent_of_gamma_choice(self, root_system):
        R = root_system("B", 3)
        D = make_stratum(R, [1, 3])
        fd = predict_determinant(D)
        for seed in range(5):
            q = q_polynomial(D, rng=random.Random(seed))
            assert q.multiset() == fd.multiset()

    def test_gamma_validation(self, root_system):
        R = root_system("A", 3)
        D = make_stratum(R, [1])
        bad = next(b for b in R.positive_roots if b not in set(D.rd.roots))
        with pytest.raises(ValueError):
            q_polynomial(D, gamma_choices=[bad])
        with pytest.raises(ValueError):
            q_polynomial(D, gamma_choices=[])


def test_stratum_json_shape(root_system):
    D = make_stratum(root_system("B", 3), [2])
    doc = stratum_json_dict(D)
    assert doc["group"] == "B3"
    assert doc["simple_indices"] == [2]
    assert doc["dim"] == 2
    for comp in doc["r_d_components"]:
        assert set(comp) == {"type", "rank", "size", "h"}
    for fac in doc["factors"]:
        assert set(fac) == {"form", "exponent", "beta", "component0",
                            "r_d_beta_size"}
        assert all(isinstance(c, int) for c in fac["form"])


# sha256 over the root-system and stratum reports of A4, B4, D5, F4, E6,
# E7, E8; pins the ambient `beta` vectors and the representative order
REPORT_DIGEST = \
    "a6005f72ab628b4309af6f693e090d53e6785ae64aaef32f090db0cd02899888"


def test_report_bytes_are_pinned(root_system):
    digest = hashlib.sha256()
    for label, rank in (("A", 4), ("B", 4), ("D", 5), ("F", 4), ("E", 6),
                        ("E", 7), ("E", 8)):
        R = root_system(label, rank)
        digest.update(json.dumps(R.to_json_dict(), sort_keys=True).encode())
        for I in _all_strata(R):
            D = make_stratum(R, I)
            doc = stratum_json_dict(D)
            digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == REPORT_DIGEST
