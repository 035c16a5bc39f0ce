"""End-to-end acceptance checks.  Each test prints a single PASS/FAIL line
with its runtime and budget; the assertions carry the details."""

import json
import random
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations

import pytest

from saitostrata import cli
from saitostrata import (build_root_system, make_stratum,
                         restricted_arrangement, predict_determinant,
                         q_polynomial, quartic_family_d3,
                         restricted_saito_det, general_formula_det,
                         frame_constant, StratumConfigA, StratumConfigBD,
                         closed_form_det_A, closed_form_det_BD,
                         residue_metric_at, frobenius_check_at,
                         random_generic_point)
from saitostrata.algebra import IncompleteFactorization, LinearForm, try_divide

_DATA = resources.files("saitostrata") / "data"
REL_TOL = 1e-8


def _line(num, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {num}: {verdict} ({elapsed:.1f}s / "
          f"budget {budget:.0f}s){extra}")


def _all_strata(R):
    for size in range(1, R.rank):
        yield from combinations(range(1, R.rank + 1), size)


def test_criterion_1_determinant_tables():
    """Exponent tables for E8 dim-3, E8 dim-2, E7 dim-2 strata."""
    budget, t0 = 120.0, time.monotonic()
    golden = json.loads((_DATA / "golden_det_tables.json").read_text())
    mismatches = []
    for key in ("e8_dim3", "e8_dim2", "e7_dim2"):
        R = build_root_system("E", int(key[1]))
        for row in golden[key]:
            D = make_stratum(R, row["simple_indices"])
            fd = predict_determinant(D)
            got = {(tuple(int(c) for c in f.coeffs), k)
                   for f, k in fd.factors.items()}
            want = {(tuple(f["form"]), f["exponent"])
                    for f in row["factors"]}
            if got != want:
                mismatches.append((key, row["r_d_type"]))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < budget
    _line(1, ok, elapsed, budget, f"{sum(len(golden[k]) for k in golden if k != 'description')} rows")
    assert not mismatches, mismatches
    assert elapsed < budget


def test_criterion_2_subsystem_tables():
    """R_{D,beta} sizes, component types, and Coxeter numbers."""
    budget, t0 = 120.0, time.monotonic()
    golden = json.loads((_DATA / "golden_subsystem_tables.json").read_text())
    mismatches = []
    for key in ("e8_dim3", "e8_dim2", "e7_dim2"):
        R = build_root_system("E", int(key[1]))
        for entry in golden[key]:
            D = make_stratum(R, entry["simple_indices"])
            arr = restricted_arrangement(D)
            by_form = {tuple(int(c) for c in hp.form.coeffs): hp
                       for hp in arr}
            covered = set()
            for cls in entry["rows"]:
                for form in cls["forms"]:
                    hp = by_form.get(tuple(form))
                    if hp is None:
                        mismatches.append((key, entry["r_d_type"], form,
                                           "form missing"))
                        continue
                    covered.add(tuple(form))
                    got = (hp.rd_beta.size,
                           sorted(c.type_label
                                  for c in hp.rd_beta.components),
                           hp.component0.type_label,
                           hp.component0.coxeter_number)
                    want = (cls["size"], sorted(cls["type"].split("x")),
                            cls["component0"], cls["h"])
                    if got != want:
                        mismatches.append((key, entry["r_d_type"], form,
                                           got, want))
            if covered != set(by_form):
                mismatches.append((key, entry["r_d_type"],
                                   "coverage mismatch"))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < budget
    _line(2, ok, elapsed, budget)
    assert not mismatches, mismatches[:5]
    assert elapsed < budget


def test_criterion_3_quartic_family_cases():
    """The two-parameter D3 invariant family on the codimension-1 stratum.

    The family degenerates at (a, b) = (1, -32): every case locus passes
    through it and the restricted determinant vanishes identically there,
    so each case is exercised at a generic parameter of its locus and the
    vanishing itself is asserted at the common point."""
    budget, t0 = 5.0, time.monotonic()
    R = build_root_system("D", 3)
    D = make_stratum(R, [1])
    pred = sorted(predict_determinant(D).factors.values())

    def factored(a, b):
        return restricted_saito_det(quartic_family_d3(a, b), D)

    # Saito point: complete factorization equal to the prediction
    assert sorted(factored(Fraction(-1, 2), 24).factors.values()) == pred == \
        [2, 3, 3]
    # case locus b = -32 a (a = 2): arrangement part (2,2,2) times the
    # square of a non-arrangement linear form
    with pytest.raises(IncompleteFactorization) as exc:
        factored(2, -64)
    assert sorted(exc.value.partial.values()) == [2, 2, 2]
    cof = exc.value.cofactor
    half = try_divide(cof, LinearForm([1, -1]).as_poly())
    half = half and try_divide(half, LinearForm([1, -1]).as_poly())
    assert half is not None and half.is_constant()
    # case locus b = 32 a (a - 2) (a = 3): complete with pattern (2,2,4)
    assert sorted(factored(3, 96).factors.values()) == [2, 2, 4]
    # case locus b = (32/3) a (a - 4) (a = 3): complete with pattern (2,3,3)
    assert sorted(factored(3, Fraction(-32)).factors.values()) == [2, 3, 3]
    # the common degenerate point: determinant identically zero
    with pytest.raises(ValueError, match="zero polynomial"):
        factored(1, -32)
    elapsed = time.monotonic() - t0
    _line(3, elapsed < budget, elapsed, budget)
    assert elapsed < budget


def test_criterion_4_closed_form_vs_oracle():
    """>= 20 random classical configurations against the residue oracle."""
    budget, t0 = 30.0, time.monotonic()
    rng = random.Random(20240916)
    configs = []
    while len(configs) < 10:           # type A, n <= 6
        d = rng.randint(1, 3)
        mults = [rng.randint(1, 3) for _ in range(d + 1)]
        if sum(mults) <= 7:
            configs.append(StratumConfigA(mults))
    while len(configs) < 20:           # types B/D, N <= 7
        d = rng.randint(1, 3)
        mults = [rng.randint(1, 3) for _ in range(d)]
        m = rng.randint(-1, 3)
        if m + sum(mults) != 0 and m + sum(mults) <= 7:
            configs.append(StratumConfigBD(m, mults,
                                           kind=rng.choice("BD")))
    worst = residual = 0.0
    for cfg in configs:
        fd = closed_form_det_A(cfg) if isinstance(cfg, StratumConfigA) \
            else closed_form_det_BD(cfg)
        for _ in range(3):
            xi = random_generic_point(cfg, rng)
            want = float(fd.evaluate(xi))
            _, got = residue_metric_at(cfg, xi)
            got = complex(got)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            # `classical --at` rejects a point past the residual bound
            res = frobenius_check_at(cfg, xi)
            residual = max(residual, *(res[k] for k in cli.RESIDUALS))
    elapsed = time.monotonic() - t0
    ok = worst <= REL_TOL and residual <= cli.RESIDUAL_BOUND \
        and elapsed < budget
    _line(4, ok, elapsed, budget,
          f"{len(configs)} configs, worst rel err {worst:.2e}, "
          f"worst residual {residual:.2e}")
    assert worst <= REL_TOL
    assert residual <= cli.RESIDUAL_BOUND
    assert elapsed < budget


# The budgets of A4, B4, A5 and D5 are ten times the median of three
# fresh-process runs of the same sweep, flat basis included, rounded up
# (2 cores): 0.15 s, 0.66 s, 3.95 s and 19.7 s.
@pytest.mark.parametrize("label,rank,budget", [
    ("A", 2, 60.0), ("A", 3, 60.0), ("B", 2, 60.0), ("B", 3, 60.0),
    ("D", 3, 60.0), ("D", 4, 60.0), ("F", 4, 600.0),
    ("A", 4, 2.0), ("B", 4, 7.0), ("A", 5, 40.0), ("D", 5, 200.0)])
def test_criterion_5_main_theorem(flat_basis, root_system, label, rank,
                                  budget):
    """Complete factorization with exponents k_H on every stratum."""
    t0 = time.monotonic()
    R = root_system(label, rank)
    fb = flat_basis(label, rank)
    h = R.coxeter_number
    for I in _all_strata(R):
        D = make_stratum(R, I)
        fd = restricted_saito_det(fb, D)
        pred = predict_determinant(D)
        assert fd.multiset() == pred.multiset(), (label, rank, I)
        assert fd.degree() == h * D.dim
    elapsed = time.monotonic() - t0
    _line(f"5({label}{rank})", elapsed < budget, elapsed, budget)
    assert elapsed < budget


# (largest codimension checked, budget in s) per group.  D4 and A4 reach
# codimension 3, the k = 3 minor formula.  Their budgets are ten times the
# median of three fresh-process runs on 2 cores with the rank-2 update
# expansion of `general_formula_det`: 0.79 s for D4 and 0.23 s for A4,
# rounded up.  With Bareiss on the η numerators D4's codimension-3 strata
# alone took 5.1-6.5 s each.
TWO_ROUTE = {("A", 3): (2, 120.0), ("B", 3): (2, 120.0), ("D", 4): (3, 8.0),
             ("A", 4): (3, 2.3)}


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4),
                                        ("A", 4)])
def test_criterion_6_two_route_equality(flat_basis, root_system, label,
                                        rank):
    """Covariant restriction equals the minor-formula route exactly, up to
    the recorded frame constant."""
    max_codim, budget = TWO_ROUTE[label, rank]
    t0 = time.monotonic()
    R = root_system(label, rank)
    fb = flat_basis(label, rank)
    for I in _all_strata(R):
        if len(I) > max_codim:
            continue
        D = make_stratum(R, I)
        lhs = restricted_saito_det(fb, D).expand()
        rhs = general_formula_det(fb, D) * frame_constant(fb, D)
        assert lhs == rhs, (label, rank, I)
    elapsed = time.monotonic() - t0
    _line(f"6({label}{rank})", elapsed < budget, elapsed, budget)
    assert elapsed < budget


def test_criterion_7_structural_identities(root_system):
    """Mirror-count identities and predictor/Q-polynomial agreement on
    every stratum of each group listed below, from A2 up to E8."""
    t0, budget = time.monotonic(), 600.0
    groups = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
              ("D", 3), ("D", 4), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    for label, rank in groups:
        R = root_system(label, rank)
        n, h = R.rank, R.coxeter_number
        assert len(R.positive_roots) == n * h // 2          # |A| = r h / 2
        for I in _all_strata(R):
            D = make_stratum(R, I)
            fd = predict_determinant(D)
            if len(I) == 1:                                  # |A_H|
                assert len(D.arrangement) == n * h // 2 - h + 1, \
                    (label, rank, I)
            assert fd.degree() == h * D.dim                  # degree identity
            assert q_polynomial(D).multiset() == fd.multiset()
            for seed in (1, 2, 3):
                q = q_polynomial(D, rng=random.Random(seed))
                assert q.multiset() == fd.multiset(), (label, rank, I, seed)
    elapsed = time.monotonic() - t0
    _line(7, elapsed < budget, elapsed, budget,
          f"{len(groups)} groups")
    assert elapsed < budget


def test_criterion_8_euler_field_checks(identity_report):
    """Exact inverse-identity-field tangency on A3/B3 strata; numeric
    Euler/Frobenius identities on random classical configurations."""
    t0, budget = time.monotonic(), 120.0
    for label, rank in (("A", 3), ("B", 3)):
        rep = identity_report(label, rank)
        tangency = [r for r in rep
                    if r["check"].startswith("inverse_identity_tangency")]
        assert tangency, (label, rank)
        assert all(r["passed"] for r in tangency), (label, rank, tangency)
    rng = random.Random(20240917)
    worst = 0.0
    for _ in range(10):
        if rng.random() < 0.5:
            mults = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
            cfg = StratumConfigA(mults)
        else:
            mults = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            m = rng.randint(-1, 2)
            if m + sum(mults) == 0:
                m += 1
            cfg = StratumConfigBD(m, mults, kind=rng.choice("BD"))
        res = frobenius_check_at(cfg, random_generic_point(cfg, rng))
        worst = max(worst, res["gram_euler"], res["determinant"],
                    res["idempotency"])
    elapsed = time.monotonic() - t0
    ok = worst <= REL_TOL and elapsed < budget
    _line(8, ok, elapsed, budget, f"worst residual {worst:.2e}")
    assert worst <= REL_TOL
    assert elapsed < budget


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("D", 4),
                                        ("F", 4)])
def test_criterion_9_minor_identities(identity_report, label, rank):
    """Jacobian-minor divisibility, non-divisibility, restriction
    proportionality, and the sign relation, all exact."""
    t0, budget = time.monotonic(), 600.0
    rep = identity_report(label, rank)
    wanted = ("minor_divisibility", "minor_nondivisibility",
              "minor_restriction", "minor_sign_relation")
    relevant = [r for r in rep if r["check"].startswith(wanted)]
    assert relevant, (label, rank)
    failures = [r for r in relevant if not r["passed"]]
    elapsed = time.monotonic() - t0
    _line(f"9({label}{rank})", not failures, elapsed, budget,
          f"{len(relevant)} checks")
    assert not failures, failures
