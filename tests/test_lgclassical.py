"""Closed-form determinants for classical stratum configurations, the
numeric residue oracle, and consistency with the combinatorial predictor."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from saitostrata import lgclassical
from saitostrata.algebra import MultiPoly
from saitostrata.exactla import det_fraction
from saitostrata.lgclassical import (StratumConfigA, StratumConfigBD,
                                     kappa_A, closed_form_det_A,
                                     closed_form_det_BD, residue_metric_at,
                                     frobenius_check_at, random_generic_point,
                                     critical_data, critical_poly_A,
                                     critical_poly_BD, DegeneratePoint,
                                     NZero)
from saitostrata.strata import make_stratum, predict_determinant

REL_TOL = 1e-8


def _config_det(cfg):
    return closed_form_det_A(cfg) if isinstance(cfg, StratumConfigA) \
        else closed_form_det_BD(cfg)


def _check_against_oracle(cfg, rng, points=3):
    fd = _config_det(cfg)
    for _ in range(points):
        xi = random_generic_point(cfg, rng)
        want = fd.evaluate(xi)
        _, got = residue_metric_at(cfg, xi)
        got = complex(got)
        assert abs(got.imag) <= REL_TOL * max(1.0, abs(got.real))
        err = abs(got.real - float(want)) / max(1.0, abs(float(want)))
        assert err <= REL_TOL, (cfg, xi, want, got)


class TestConfigs:
    def test_a_config_constraints(self):
        cfg = StratumConfigA((2, 1, 1))
        assert (cfg.n, cfg.d) == (3, 2)
        xi = (Fraction(1), Fraction(2))
        full = cfg.xi_full(xi)
        # the dependent coordinate balances the weighted sum to zero
        assert sum(m * x for m, x in zip(cfg.mults, full)) == 0
        with pytest.raises(ValueError):
            StratumConfigA((3,))
        with pytest.raises(ValueError):
            StratumConfigA((2, 0, 2))

    def test_bd_config_constraints(self):
        cfg = StratumConfigBD(1, (2, 1))
        assert (cfg.N, cfg.d) == (4, 2)
        with pytest.raises(NZero):
            StratumConfigBD(-2, (1, 1))


class TestKappa:
    def test_known_values(self):
        assert kappa_A(StratumConfigA((2, 1, 1))) == Fraction(-1, 32)
        # generic A_2: three simple points, kappa = -1/(n+1)^n
        assert kappa_A(StratumConfigA((1, 1, 1))) == Fraction(-1, 9)

    def test_kappa_matches_oracle_sign_and_size(self):
        rng = random.Random(3)
        for cfg in (StratumConfigA((3, 1)), StratumConfigBD(0, (2, 1)),
                    StratumConfigBD(2, (1, 1))):
            _check_against_oracle(cfg, rng, points=1)


class TestClosedFormVsOracle:
    @pytest.mark.parametrize("mults", [(1, 1), (2, 1), (1, 1, 1), (2, 2),
                                       (3, 1), (2, 1, 1), (4, 1), (3, 2),
                                       (2, 2, 1), (1, 1, 1, 1)])
    def test_type_a(self, mults):
        _check_against_oracle(StratumConfigA(mults), random.Random(sum(mults)))

    @pytest.mark.parametrize("m,mults", [(0, (1, 1)), (0, (2, 1)),
                                         (1, (1, 1)), (2, (2, 1)),
                                         (-1, (2, 2)), (-1, (3, 1, 1)),
                                         (3, (1, 1, 1)), (0, (2, 2, 1))])
    def test_type_bd(self, m, mults):
        _check_against_oracle(StratumConfigBD(m, mults),
                              random.Random(m + 10 * sum(mults)))


class TestFrobeniusStructure:
    @pytest.mark.parametrize("cfg", [StratumConfigA((2, 1, 1)),
                                     StratumConfigA((1, 1, 1, 1)),
                                     StratumConfigBD(1, (2, 1)),
                                     StratumConfigBD(-1, (2, 2))])
    def test_euler_and_idempotency_identities(self, cfg):
        rng = random.Random(17)
        for _ in range(2):
            xi = random_generic_point(cfg, rng)
            res = frobenius_check_at(cfg, xi)
            assert res["gram_euler"] <= REL_TOL
            assert res["determinant"] <= REL_TOL
            assert res["idempotency"] <= REL_TOL


# The idempotency residual (iii) as computed before its d lam / d xi table:
# lam and each derivative evaluated afresh for every triple and point.

def _ref_dxilam(cfg, cd, a, p):
    xs, m = cd.xs, cfg.mults
    if isinstance(cfg, StratumConfigA):
        lam = math.prod([(p - xs[i]) ** m[i] for i in range(cfg.d + 1)])
        return lam * m[a] * (1.0 / (p - xs[0]) - 1.0 / (p - xs[a]))
    lam = (p ** (2 * cfg.m) if p != 0 else (1.0 if cfg.m == 0 else 0.0)) \
        * math.prod([(p * p - xs[i] ** 2) ** m[i] for i in range(cfg.d)])
    return lam * m[a] * (-2 * xs[a]) / (p * p - xs[a] ** 2)


def _ref_idempotency(cfg, xi):
    cd, K, eta_u, _, _ = lgclassical._transport(cfg, xi)
    pts, l2 = lgclassical._all_simple_critical_points(cfg, cd)
    d = cfg.d
    arange = range(1, d + 1) if isinstance(cfg, StratumConfigA) else range(d)
    res = 0.0
    for ia, a in enumerate(arange):
        for ib, b in enumerate(arange):
            for ic, c in enumerate(arange):
                via_residues = sum(
                    _ref_dxilam(cfg, cd, a, p) * _ref_dxilam(cfg, cd, b, p)
                    * _ref_dxilam(cfg, cd, c, p) / lpp
                    for p, lpp in zip(pts, l2))
                via_canonical = sum(K[i][ia] * K[i][ib] * K[i][ic] * eta_u[i]
                                    for i in range(d))
                scale = max(1.0, abs(via_canonical))
                res = max(res, abs(via_residues - via_canonical) / scale)
    return float(res)


def _mix_configs():
    """Every configuration of the cli-mix benchmark's ranges: type A with
    n <= 6, types B/D with N <= 7 and m >= -1, multiplicities up to 3."""
    out = [StratumConfigA(mults) for d in (1, 2, 3)
           for mults in product((1, 2, 3), repeat=d + 1) if sum(mults) <= 7]
    out += [StratumConfigBD(m, mults) for d in (1, 2, 3)
            for mults in product((1, 2, 3), repeat=d)
            for m in range(-1, 4) if 0 < m + sum(mults) <= 7]
    return out


def test_idempotency_table_is_bit_identical():
    rng = random.Random(20261019)
    configs = _mix_configs()
    for cfg in configs:
        xi = random_generic_point(cfg, rng)
        assert frobenius_check_at(cfg, xi)["idempotency"] == \
            _ref_idempotency(cfg, xi), (cfg, xi)


# The transport on numpy, as the oracle computed it before it ran on the
# standard library alone: critical points from the eigenvalues of the
# companion matrix (np.roots), and LAPACK's inverse and determinant.

def _np_critical_data(cfg, xi):
    if isinstance(cfg, StratumConfigA):
        wf = lgclassical._float_coeffs(lgclassical._check_generic_A(cfg, xi))
        q = np.sort_complex(np.roots(wf))
        xs = [complex(x) for x in cfg.xi_full(xi)]
        m = cfg.mults
        for qi in q:
            if not abs(np.polyval(wf, qi)) < \
                    lgclassical._ROOT_TOL * max(1.0, abs(qi) ** cfg.d):
                raise DegeneratePoint("critical points are ill-conditioned")
        lam2 = np.array([
            (cfg.n + 1)
            * np.prod([(q[l] - xs[a]) ** (m[a] - 1) for a in range(cfg.d + 1)])
            * np.prod([q[l] - q[j] for j in range(cfg.d) if j != l])
            for l in range(cfg.d)])
        u = np.array([np.prod([(p - xs[a]) ** m[a] for a in range(cfg.d + 1)])
                      for p in q])
        return lgclassical.CriticalData(cfg, xs, q, u, np.ones(cfg.d), lam2)
    wf = lgclassical._float_coeffs(lgclassical._check_generic_BD(cfg, xi))
    y = np.sort_complex(np.roots(wf))
    q = np.sqrt(y.astype(complex))
    if cfg.m == 0:
        order = np.argsort(np.abs(y))
        y, q = y[order], q[order]
        q[0] = 0.0
    xs = [complex(Fraction(x)) for x in xi]
    xs2 = [complex(Fraction(x) ** 2) for x in xi]
    m = cfg.mults
    eps = np.array([0.5 if qi == 0 else 1.0 for qi in q])
    lam2 = np.array([
        4 * eps[i] * cfg.N * (q[i] ** (2 * cfg.m) if q[i] != 0 else 1.0)
        * np.prod([(q[i] ** 2 - xs2[a]) ** (m[a] - 1) for a in range(cfg.d)])
        * np.prod([q[i] ** 2 - q[b] ** 2 for b in range(cfg.d) if b != i])
        for i in range(cfg.d)])
    lam = lambda p: (p ** (2 * cfg.m) if p != 0
                     else (1.0 if cfg.m == 0 else 0.0)) \
        * np.prod([(p * p - xs2[a]) ** m[a] for a in range(cfg.d)])
    u = np.array([lam(qi) for qi in q])
    return lgclassical.CriticalData(cfg, xs, q, u, eps, lam2)


@np.errstate(all="ignore")
def _np_transport(cfg, xi):
    """(critical points, eta, det) at a point."""
    cd = _np_critical_data(cfg, xi)
    d, xs = cfg.d, cd.xs
    if isinstance(cfg, StratumConfigA):
        M = np.array([[1.0 / ((cd.q[l] - xs[a]) * cd.lam2[l])
                       for a in range(1, d + 1)] for l in range(d)])
        eta_u = 1.0 / np.array(cd.lam2)
    else:
        M = np.array([[2 * cd.eps[i] * xs[a]
                       / ((cd.q[i] ** 2 - xs[a] ** 2) * cd.lam2[i])
                       for a in range(d)] for i in range(d)])
        eta_u = 2 * np.array(cd.eps) / np.array(cd.lam2)
    K = np.linalg.inv(M.T)
    eta = K.T @ (eta_u[:, None] * K)
    return (np.array(cd.q), eta,
            np.linalg.det(K) ** 2 * np.prod(eta_u))


def _close(got, want, rel=1e-10):
    """max |got - want| <= rel * max |want|, entrywise."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want)
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _check_against_numpy(cfg, xi):
    cd, _, _, eta, det = lgclassical._transport(cfg, xi)
    want_q, want_eta, want_det = _np_transport(cfg, xi)
    assert _close(cd.q, want_q), (cfg, xi, cd.q, want_q)
    assert _close(eta, want_eta), (cfg, xi)
    assert _close(det, want_det), (cfg, xi, det, want_det)


def test_transport_matches_numpy_on_the_mix_configurations():
    rng = random.Random(20261020)
    for cfg in _mix_configs():
        for _ in range(3):
            _check_against_numpy(cfg, random_generic_point(cfg, rng))


@pytest.mark.parametrize("cfg", [
    # the B/D root beside the d - 1 gaps: in (0, xi_1^2) for m > 0, at 0
    # (deflated) for m = 0, in (-B, 0) for m < 0 < N, in (xi_d^2, B) for
    # N < 0, with B the Cauchy bound
    StratumConfigBD(2, (1,)), StratumConfigBD(1, (2, 1, 1)),
    StratumConfigBD(0, (1,)), StratumConfigBD(0, (3, 1, 2)),
    StratumConfigBD(-1, (1, 1)), StratumConfigBD(-3, (2, 1, 1)),
    StratumConfigBD(-2, (1,)), StratumConfigBD(-5, (1, 2)),
    StratumConfigBD(-9, (2, 1, 3))])
def test_transport_matches_numpy_in_every_bd_bracket(cfg):
    rng = random.Random(cfg.m + 10 * sum(cfg.mults))
    for _ in range(5):
        xi = random_generic_point(cfg, rng)
        _check_against_numpy(cfg, xi)
        cd = critical_data(cfg, xi)
        y = [q * q for q in cd.q]
        assert all(abs(v.imag) <= 1e-12 * abs(v) for v in y)
        if cfg.m == 0:
            assert cd.q[0] == 0
        elif cfg.m < 0 < cfg.N:
            assert y[0].real < 0 < min(v.real for v in y[1:] or [1])
        else:
            assert min(v.real for v in y) > 0
        if cfg.N < 0:
            assert y[-1].real > max(float(x) ** 2 for x in xi)


# ---------------------------------------------------------------------------
# exponent consistency with the combinatorial predictor

# Euclid's gcd on coefficient lists (low degree first): the reference for
# the resultant test of `_ref_squarefree`.

def _ref_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _ref_mod(a, b):
    r = _ref_trim([Fraction(x) for x in a])
    while len(r) >= len(b) and not (len(r) == 1 and r[0] == 0):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        for i in range(len(b)):
            r[k + i] -= f * b[i]
        r.pop()
        r = _ref_trim(r)
    return r


def _ref_gcd_is_const(a, b):
    a = _ref_trim([Fraction(x) for x in a])
    b = _ref_trim([Fraction(x) for x in b])
    while not (len(b) == 1 and b[0] == 0):
        if len(b) == 1:
            return True
        a, b = b, _ref_mod(a, b)
    return len(a) == 1


def _univariate(coeffs):
    """The one-variable MultiPoly with the given coefficients, low degree
    first."""
    return MultiPoly(1, {(k,): c for k, c in enumerate(coeffs)})


def _ref_squarefree(w):
    """True iff the monic w of degree >= 1 has no repeated root, that is
    iff the resultant of w and w' (the determinant of their Sylvester
    matrix) is nonzero."""
    f, g = ([v.terms.get((k,), 0) for k in range(v.degree(), -1, -1)]
            for v in (w, w.diff(0)))
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (m - 1 - i) for i in range(m)]
    return det_fraction(rows) != 0


class TestSquarefree:
    def test_resultant_agrees_with_euclid(self):
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(300):
            d = rng.randint(1, 7)
            if rng.random() < 0.5:
                # a product of linear factors, roots drawn from a small
                # range so that they often repeat
                w = _univariate([1])
                for _ in range(d):
                    w = w * _univariate([-rng.randint(-3, 3), 1])
            else:
                w = _univariate([rng.randint(-9, 9) for _ in range(d)] + [1])
            c = [w.terms.get((k,), 0) for k in range(d + 1)]
            want = _ref_gcd_is_const(c, [k * c[k] for k in range(1, d + 1)])
            assert _ref_squarefree(w) == want, c
            outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("cfg", [StratumConfigA((1, 1, 1)),
                                     StratumConfigA((2, 1, 1, 1)),
                                     StratumConfigBD(1, (1, 1, 1)),
                                     StratumConfigBD(0, (2, 1)),
                                     StratumConfigBD(-1, (1, 1, 2)),
                                     StratumConfigBD(-2, (2, 1, 1)),
                                     StratumConfigBD(-5, (1, 2))])
    def test_critical_points_never_collide_at_rational_points(self, cfg):
        # The checks `_check_generic_A` and `_check_generic_BD` leave out,
        # by the interlacing argument in the latter's docstring: at a
        # rational point with distinct xi values (xi^2 and 0 for B/D) the
        # critical points are simple, miss every xi value, and are zero
        # (in y = p^2) only for m = 0. This searches for a counterexample.
        rng = random.Random(7)
        for _ in range(40):
            xi = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(cfg.d))
            if isinstance(cfg, StratumConfigA):
                xs = cfg.xi_full(xi)
                if len(set(xs)) != len(xs):
                    continue
                w = critical_poly_A(cfg, xi)
            elif 0 not in xi and len({x * x for x in xi}) == len(xi):
                xs = [x * x for x in xi]
                w = critical_poly_BD(cfg, xi)
                assert (w.evaluate([0]) == 0) == (cfg.m == 0)
            else:
                continue
            assert _ref_squarefree(w)
            assert all(w.evaluate([x]) != 0 for x in xs)

    @pytest.mark.parametrize("cfg,xi,poly", [
        (StratumConfigA((1, 1, 1)), (1, 2), "critical_poly_A"),
        (StratumConfigBD(1, (1, 1)), (1, 2), "critical_poly_BD")])
    def test_degenerate_points(self, cfg, xi, poly):
        with pytest.raises(DegeneratePoint, match="xi values collide"):
            critical_data(cfg, (xi[0], xi[0]))
        # at a generic point the critical points are the roots of the
        # critical polynomial (in y = p^2 for B/D)
        cd = critical_data(cfg, xi)
        w = getattr(lgclassical, poly)(cfg, xi)
        roots = cd.q if isinstance(cfg, StratumConfigA) \
            else [q * q for q in cd.q]
        coeffs = [float(w.terms.get((k,), 0))
                  for k in range(w.degree(), -1, -1)]
        assert max(abs(np.polyval(coeffs, r)) for r in roots) < 1e-9


def test_ill_conditioned_critical_points():
    # w's coefficients are near 1e100 here, so its float residual at the
    # critical point in (0, 3) exceeds _ROOT_TOL
    cfg = StratumConfigA((1, 1, 1, 1))
    with pytest.raises(DegeneratePoint, match="ill-conditioned"):
        critical_data(cfg, (Fraction(0), Fraction(2 * 10 ** 50), Fraction(3)))


def _a_stratum_indices(mults):
    """Simple wall indices of the A_n stratum with consecutive coordinate
    blocks of the given sizes."""
    I, pos = [], 0
    for m in mults:
        I.extend(range(pos + 1, pos + m))
        pos += m
    return I


def _bd_config_from_walls(N, I, kind):
    """Coordinate blocks of a B_N / D_N stratum via a signed union-find:
    wall i < N glues coordinates i, i+1; wall N sends coordinate N to zero
    (B) or glues N-1, N with a sign flip (D)."""
    parent, sign = list(range(N)), [1] * N

    def find(x):
        if parent[x] == x:
            return x, 1
        r, _ = find(parent[x])
        parent[x] = r
        sign[x] *= _
        return r, sign[x]

    zero_reps = set()

    def union(a, b, rel):
        ra, sa = find(a)
        rb, sb = find(b)
        if ra == rb:
            if sa * sb != rel:   # x = -x forces the block to zero
                zero_reps.add(ra)
            return
        parent[rb] = ra
        sign[rb] = sa * rel * sb

    for i in sorted(I):
        if i < N:
            union(i - 1, i, 1)
        elif kind == "B":
            zero_reps.add(find(N - 1)[0])
        else:
            union(N - 2, N - 1, -1)

    blocks = {}
    for x in range(N):
        blocks.setdefault(find(x)[0], []).append(x)
    zero_reps = {find(z)[0] for z in zero_reps}
    zeros = sum(len(v) for r, v in blocks.items() if r in zero_reps)
    mults = sorted((len(v) for r, v in blocks.items() if r not in zero_reps),
                   reverse=True)
    m = zeros if kind == "B" else zeros - 1
    return StratumConfigBD(m, mults, kind=kind)


class TestPredictorConsistency:
    @pytest.mark.parametrize("mults", [(2, 1), (2, 1, 1), (3, 1), (2, 2),
                                       (3, 2), (2, 2, 1), (4, 1, 1)])
    def test_type_a_exponents(self, root_system, mults):
        cfg = StratumConfigA(mults)
        fd = closed_form_det_A(cfg)
        R = root_system("A", cfg.n)
        D = make_stratum(R, _a_stratum_indices(mults))
        assert sorted(fd.factors.values()) == \
            sorted(predict_determinant(D).factors.values())

    @pytest.mark.parametrize("kind,N", [("B", 3), ("B", 4), ("D", 4)])
    def test_type_bd_exponents_all_strata(self, root_system, kind, N):
        R = root_system(kind, N)
        for size in range(1, N):
            for I in combinations(range(1, N + 1), size):
                cfg = _bd_config_from_walls(N, I, kind)
                fd = closed_form_det_BD(cfg)
                D = make_stratum(R, I)
                pred = predict_determinant(D)
                assert sorted(fd.factors.values()) == \
                    sorted(pred.factors.values()), (kind, N, I)
