"""Discriminant strata, restricted arrangements, the combinatorial
multiplicity predictor, and the Q-polynomial cross-check."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from saitostrata import roots, strata
from saitostrata.algebra import (FactoredDeterminant, InvariantViolation,
                                 UNKNOWN)
from saitostrata.exactla import IntSpan
from saitostrata.roots import (build_root_system, reduce_to_fundamental,
                               span_subsystem)
from saitostrata.saitosym import restricted_saito_det
from saitostrata.strata import (RestrictedHyperplane, _canon_int,
                                make_stratum, restricted_arrangement,
                                predict_determinant, q_polynomial,
                                stratum_json_dict)
from test_roots import _ref_components, _ref_span


def _all_strata(R):
    n = R.rank
    for size in range(1, n):
        yield from combinations(range(1, n + 1), size)


def _positives(comps):
    """The positive roots of a subsystem given as its component list;
    negation is elementwise, so they fix its roots."""
    return {r for c in comps for r in c.positive}


class TestStratumBasics:
    def test_dimensions_and_parameters(self, root_system):
        R = root_system("B", 3)
        D = make_stratum(R, [1, 3])
        assert D.dim == 1
        assert sorted(D.I) == [1, 3]
        assert list(D.params) == [2]

    def test_forms_kill_stratum_roots(self, root_system):
        R = root_system("A", 3)
        D = make_stratum(R, [1])
        rd = _positives(D.rd)
        assert list(D.class_index) == list(R.positive_roots)
        outside = [b for b in R.positive_roots if b not in rd]
        assert outside
        for beta in R.positive_roots:
            assert (D.class_index[beta] is None) == (beta in rd)

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 4), ("D", 5),
                                            ("F", 4), ("E", 6), ("E", 7),
                                            ("E", 8)])
    def test_one_form_per_class(self, root_system, label, rank):
        # D.classes partitions R+ outside R_D in order of first
        # appearance, each class holding one shared LinearForm that is
        # the canonical truncation of each of its roots
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            rd = _positives(D.rd)
            outside = [b for b in R.positive_roots if b not in rd]
            flat = [b for roots in D.classes.values() for b in roots]
            assert sorted(flat) == sorted(outside)
            members = list(D.classes.values())
            firsts = [roots[0] for roots in members]
            assert firsts == [b for b in outside
                              if members[D.class_index[b]][0] == b]
            assert list(D.class_index) == list(R.positive_roots)
            for i, (form, roots) in enumerate(D.classes.items()):
                assert roots == [b for b in outside if b in set(roots)]
                for b in roots:
                    assert D.class_index[b] == i
                    assert _canon_int([b[j - 1] for j in D.params]) == \
                        form.coeffs

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
        # R_{D,beta} is built from the projective class; a graph search
        # over the span is the reference: every member beta spans the same
        # subsystem with a_I, and lies in the component through the
        # representative
        for label, rank in (("F", 4), ("B", 4), ("D", 5), ("E", 6)):
            R = root_system(label, rank)
            for I in _all_strata(R):
                D = make_stratum(R, I)
                simple_I = [R.simple[i - 1] for i in sorted(I)]
                for hp in restricted_arrangement(D):
                    comp0 = set(hp.component0.positive)
                    for beta in D.classes[hp.form]:
                        ref = _ref_span(R, simple_I + [beta])
                        assert _positives(ref) == _positives(hp.rd_beta)
                        assert sum(c.rank for c in ref) == \
                            sum(c.rank for c in hp.rd_beta) == len(I) + 1
                        assert _multiset(ref) == _multiset(hp.rd_beta)
                        assert beta in comp0, (label, rank, I, hp.form)

    def test_exponent_is_component_coxeter_number(self, root_system):
        R = root_system("D", 4)
        for hp in restricted_arrangement(make_stratum(R, [2])):
            assert hp.k == hp.component0.coxeter_number
            assert hp.beta in _positives(hp.rd_beta)


def _multiset(comps):
    return sorted((c.type_label, c.rank, c.size) for c in comps)


def _ref_restricted_arrangement(D):
    """A_D by one graph search over R_D u class(H) per hyperplane: the
    reference for the merge of R_D's components."""
    pos, forms = D.R.positive_roots, list(D.classes)
    rd_idx, classes = [], {}
    for i, beta in enumerate(pos):
        c = D.class_index[beta]
        if c is None:
            rd_idx.append(i)
        else:
            classes.setdefault(forms[c], []).append(i)
    out = []
    for form in sorted(classes):
        idx = classes[form]
        members = [pos[i] for i in idx]
        comps = _ref_components(D.R, [pos[i] for i in sorted(rd_idx + idx)])
        comp0 = next(c for c in comps if members[0] in c.positive)
        assert all(b in set(comp0.positive) for b in members)
        out.append(RestrictedHyperplane(form, members[0], comps, comp0))
    return out


def _ref_q_polynomial(D, rng=None):
    """The Q-polynomial with the planes through gamma split afresh on
    every call: the reference for the per-root-system plane cache."""
    comps = D.rd
    m = 2 - sum(c.rank for c in comps)
    gammas = [rng.choice(c.positive) if rng is not None else c.positive[0]
              for c in comps]
    forms, total = list(D.classes), Counter()
    for form, roots in D.classes.items():
        total[form] += m * len(roots)
    for comp, g in zip(comps, gammas):
        piv = next(i for i, x in enumerate(g) if x)
        hyperplanes = {}
        for beta in D.R.positive_roots:
            key = _canon_int([bi * g[piv] - gi * beta[piv]
                              for bi, gi in zip(beta, g)])
            if key is not None:
                hyperplanes.setdefault(key, []).append(beta)
        for members in hyperplanes.values():
            if any(D.class_index[b] is None for b in members):
                continue
            total[forms[D.class_index[members[0]]]] += comp.rank
    return FactoredDeterminant(UNKNOWN, dict(total))


def _component_data(c):
    return c.type_label, c.rank, c.size, c.positive


MERGE_STRATA = [(label, rank, size)
                for label, rank in (("B", 4), ("D", 5), ("E", 6), ("E", 7),
                                    ("F", 4))
                for size in range(1, rank)] + [("E", 8, 1), ("E", 8, 2)]


class TestMergedComponents:
    @pytest.mark.parametrize("label,rank,size", MERGE_STRATA)
    def test_matches_graph_search(self, root_system, label, rank, size):
        # every output of the merge equals that of one graph search per
        # hyperplane: R_{D,beta} as a multiset of components, root order
        # included, holding component0 exactly once
        R = root_system(label, rank)
        for I in combinations(range(1, rank + 1), size):
            D = make_stratum(R, I)
            got, ref = restricted_arrangement(D), _ref_restricted_arrangement(D)
            assert len(got) == len(ref)
            for h, r in zip(got, ref):
                assert (h.form, h.beta, h.k) == (r.form, r.beta, r.k)
                assert sorted(map(_component_data, h.rd_beta)) == \
                    sorted(map(_component_data, r.rd_beta))
                assert _component_data(h.component0) == \
                    _component_data(r.component0)
                assert [c is h.component0 for c in h.rd_beta].count(True) \
                    == 1

    @pytest.mark.parametrize("label,rank", [("A", 4), ("B", 4), ("D", 5),
                                            ("F", 4), ("E", 6), ("E", 7)])
    def test_component0_equals_the_measured_merge(self, root_system, label,
                                                   rank):
        # component0 measures the lengths of the class members alone;
        # measuring every root of the merged list, ranked by an IntSpan,
        # gives the same type, rank, size and h
        R = root_system(label, rank)
        rows = R._gram_rows
        for I in _all_strata(R):
            D = make_stratum(R, I)
            for h in restricted_arrangement(D):
                members = D.classes[h.form]
                merged = list(members)
                for c in D.rd:
                    if any(sum(x * y for x, y in zip(rows[b], r))
                           for b in members for r in c.positive):
                        merged += c.positive
                span = IntSpan(rank)
                for r in merged:
                    span.add(r)
                ref = roots.Component(
                    merged, {sum(x * y for x, y in zip(rows[b], b))
                             for b in merged}, span.rank)
                c0 = h.component0
                assert (c0.type_label, c0.rank, c0.size, c0.coxeter_number) \
                    == (ref.type_label, ref.rank, ref.size,
                        ref.coxeter_number), (label, I, h.form)
                assert c0.positive == sorted(merged)

    def test_gram_rows_are_cached_on_the_root_system(self, root_system):
        R = root_system("D", 5)
        rows = R._gram_rows
        assert R._gram_rows is rows
        assert list(rows) == list(R.positive_roots)
        for b, row in rows.items():
            assert row == tuple(sum(b[i] * R._igram[i][j]
                                    for i in range(R.rank))
                                for j in range(R.rank))


def _seeded_link(R, roots, pieces):
    """The pieces of `roots` joined to seed pieces (probes, members, tags),
    each root b in turn merging every piece with a probe p such that
    (b, p) != 0 into the place of the first of them, or starting a new last
    piece: the link of `_seeded_restricted_arrangement`."""
    rows = R._gram_rows
    pieces = list(pieces)
    for b in roots:
        row = rows[b]
        probes, members, tags = [b], [b], set()
        kept, at = [], None
        for p in pieces:
            if any(sum(x * y for x, y in zip(row, a)) for a in p[0]):
                if at is None:
                    at = len(kept)
                probes += p[0]
                members += p[1]
                tags |= p[2]
            else:
                kept.append(p)
        kept.insert(len(kept) if at is None else at, (probes, members, tags))
        pieces = kept
    return pieces


def _seeded_restricted_arrangement(D):
    """A_D with the class members linked to R_D's components, each seeded
    as a piece probed by its simple roots, by Gram dot products: the
    reference for the link by simple-root masks."""
    R = D.R
    rd_comps = D.rd
    simple_I = [R.simple[i - 1] for i in sorted(D.I)]
    seeds = [([a for a in simple_I if a in c.positive], [], {ci})
             for ci, c in enumerate(rd_comps)]
    out = []
    for form in sorted(D.classes):
        members = D.classes[form]
        held = [p for p in _seeded_link(R, members, seeds) if p[1]]
        assert len(held) == 1
        _, ms, cis = held[0]
        merged = [rd_comps[ci] for ci in cis]
        lengths = {sum(x * y for x, y in zip(R._gram_rows[b], b)) for b in ms}
        comp0 = roots.Component(ms, lengths, 1 + sum(c.rank for c in merged),
                                merged)
        rest = [c for ci, c in enumerate(rd_comps) if ci not in cis]
        out.append(RestrictedHyperplane(form, members[0], rest + [comp0],
                                        comp0))
    return out


def _full_data(c):
    return c.positive, c.rank, c.size, c.type_label


def _parabolic_mismatches(R):
    """The subsets I on which R_D read off the Cartan matrix, or A_D linked
    by masks (I proper), differs from the graph search on the Gram rows and
    the seeded link, or fails to build (a rank, size or length set that no
    type has)."""
    n, bad = R.rank, []
    for size in range(n + 1):
        for I in combinations(range(1, n + 1), size):
            ref = _ref_span(R, [R.simple[i - 1] for i in I])
            try:
                got = span_subsystem(R, I)
                arr = [] if size == n else \
                    restricted_arrangement(make_stratum(R, I))
            except (InvariantViolation, KeyError, ValueError):
                bad.append(I)
                continue
            oracle = [] if size == n else \
                _seeded_restricted_arrangement(strata.Stratum(R, I, ref))
            if sum(c.rank for c in got) != size \
                    or [_full_data(c) for c in got] != \
                    [_full_data(c) for c in ref] \
                    or [_hyperplane_data(h) for h in arr] != \
                    [_hyperplane_data(h) for h in oracle]:
                bad.append(I)
    return bad


def _hyperplane_data(h):
    """A hyperplane's data, R_{D,beta} as a sorted multiset of components
    and the number of times component0 occurs in it."""
    comps = h.rd_beta
    return (h.form, h.beta, h.k, sum(c.rank for c in comps),
            sum(c.size for c in comps), sorted(map(_full_data, comps)),
            _full_data(h.component0),
            [c is h.component0 for c in comps].count(True))


PARABOLIC_GROUPS = ([("A", r) for r in range(1, 7)]
                    + [("B", r) for r in range(2, 7)]
                    + [("D", r) for r in range(4, 8)]
                    + [("F", 4), ("E", 6), ("E", 7)])


class TestParabolicPath:
    @pytest.mark.parametrize("label,rank", PARABOLIC_GROUPS)
    def test_matches_general_path_and_seeded_link(self, root_system, label,
                                                  rank):
        # every subset I: R_D equals the graph search's component by
        # component, and every hyperplane of A_D equals the seeded link's
        assert _parabolic_mismatches(root_system(label, rank)) == []

    @pytest.mark.parametrize("changes", [
        [(0, 6, -1)], [(2, 4, -1)], [(4, 1, -2)],
        [(0, 2, 0), (2, 0, 0)], [(3, 4, 0), (4, 3, 0)]])
    def test_a_mutated_cartan_matrix_is_caught(self, changes):
        # E7 (a1 - a3 - a4 - a5 - a6 - a7, a2 - a4): one nonzero entry off
        # the diagram joins two pieces; an edge counts from either of its
        # entries, so removing it zeroes both.  The graph search reads the
        # Gram rows, so it keeps the true pieces
        R = build_root_system("E", 7)
        for i, j, entry in changes:
            assert (R.cartan[i][j] == 0) == (entry != 0)
            R.cartan[i][j] = entry
        assert _parabolic_mismatches(R) != []


class TestPredictor:
    def test_a3_line_stratum(self, root_system):
        D = make_stratum(root_system("A", 3), [1, 2])
        fd = predict_determinant(D)
        assert sorted(fd.factors.values()) == [4]

    def test_f4_wall_stratum(self, root_system):
        D = make_stratum(root_system("F", 4), [1])
        fd = predict_determinant(D)
        assert sorted(fd.factors.values()) == \
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
            assert sorted(fd1.factors.values()) == \
                sorted(fd2.factors.values())


class TestQPolynomial:
    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4),
                                            ("F", 4)])
    def test_matches_predictor(self, root_system, label, rank):
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            fd = predict_determinant(D)
            assert q_polynomial(D).factors == fd.factors

    def test_independent_of_gamma_choice(self, root_system):
        R = root_system("B", 3)
        D = make_stratum(R, [1, 3])
        fd = predict_determinant(D)
        for seed in range(5):
            q = q_polynomial(D, rng=random.Random(seed))
            assert q.factors == fd.factors

    @pytest.mark.parametrize("label,rank", [("D", 5), ("E", 6), ("F", 4)])
    def test_plane_cache_matches_reference(self, root_system, label, rank):
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            for seed in (None, 1, 2, 3):
                rng = None if seed is None else random.Random(seed)
                ref_rng = None if seed is None else random.Random(seed)
                got = q_polynomial(D, rng=rng)
                ref = _ref_q_polynomial(D, rng=ref_rng)
                assert list(got.factors.items()) == \
                    list(ref.factors.items())
        # one split per root system and gamma, kept on the root system
        g = R.positive_roots[0]
        assert strata._planes_through(R, g) is R._planes[g]

    @pytest.mark.parametrize("label,rank", [("E", 6), ("F", 4)])
    def test_planes_through_gamma_lie_on_or_off_d(self, root_system, label,
                                                  rank):
        # q_polynomial tests each plane through gamma by its first member
        R = root_system(label, rank)
        for I in _all_strata(R):
            D = make_stratum(R, I)
            gammas = [g for c in D.rd for g in c.positive]
            for g in gammas:
                for members in strata._planes_through(R, g):
                    assert len({D.class_index[b] is None
                                for b in members}) == 1


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
