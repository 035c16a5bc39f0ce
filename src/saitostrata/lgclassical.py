"""Classical strata determinants: exact closed forms with their rational
prefactor kappa, plus a numeric one-variable residue oracle (critical
points, canonical coordinates, metric, Euler/Frobenius identities) that
validates them independently.

Type A: superpotential lam(p) = prod_{i=0}^d (p - xi_i)^{m_i} on the
sum-zero stratum (xi_0 = -sum (m_i/m_0) xi_i, sum m_i = n+1).
Types B/D: lam(p) = p^{2m} prod (p^2 - xi_i^2)^{m_i}, N = m + sum m_i != 0;
m >= -1 corresponds to actual group strata (m = l for B, m = l - 1 for D).

The exact side works on `algebra.MultiPoly` in one variable: the deflated
critical polynomial w (monic, its roots the critical points, in y = p^2 for
B/D) is built from products of linear factors. A point is generic when the
resultant of w and w' (`exactla.det_fraction` of their Sylvester matrix) is
nonzero and w vanishes at no xi value. The oracle then finds the roots of w
and computes everything after them in floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import (LinearForm, FactoredDeterminant, InvariantViolation,
                      MultiPoly)
from .exactla import det_fraction


class DegeneratePoint(ValueError):
    """Critical data collides at this point; pick another one."""


class NZero(ValueError):
    """B/D configuration with N = m + sum m_i = 0."""


# ---------------------------------------------------------------------------
# configurations

class StratumConfigA:
    """Multiplicities (m_0, ..., m_d) of an A_n stratum, sum m_i = n+1."""

    def __init__(self, mults):
        mults = tuple(int(m) for m in mults)
        if len(mults) < 2 or any(m < 1 for m in mults):
            raise ValueError("need d >= 1 and all multiplicities >= 1")
        self.mults = mults
        self.d = len(mults) - 1
        self.n = sum(mults) - 1

    def xi0(self, xi):
        m = self.mults
        return -sum(Fraction(m[i]) / m[0] * Fraction(xi[i - 1])
                    for i in range(1, self.d + 1))

    def xi_full(self, xi):
        """(xi_0, xi_1, ..., xi_d) with the dependent xi_0 filled in."""
        return (self.xi0(xi),) + tuple(Fraction(x) for x in xi)

    def __repr__(self):
        return f"<A config n={self.n} m={self.mults}>"


class StratumConfigBD:
    """B/D stratum data: integer exponent m and multiplicities (m_1..m_d)."""

    def __init__(self, m, mults, kind=None):
        self.m = int(m)
        self.mults = tuple(int(x) for x in mults)
        if len(self.mults) < 1 or any(x < 1 for x in self.mults):
            raise ValueError("need d >= 1 and all multiplicities >= 1")
        self.N = self.m + sum(self.mults)
        if self.N == 0:
            raise NZero("N = m + sum m_i must be nonzero")
        self.d = len(self.mults)
        self.kind = kind  # optional 'B' / 'D' tag for the group realization
        self.stratum_realizable = self.m >= -1

    def __repr__(self):
        return f"<BD config m={self.m} mults={self.mults} N={self.N}>"


# ---------------------------------------------------------------------------
# deflated critical polynomials, as MultiPoly in the one variable p (y = p^2
# for B/D)

_P = MultiPoly.variable(1, 0)


def critical_poly_A(cfg: StratumConfigA, xi):
    """prod_{i=1}^d (p - q_i) = (n+1)^{-1} sum_a m_a prod_{j != a}(p - xi_j),
    exact."""
    lin = [_P - x for x in cfg.xi_full(xi)]
    return MultiPoly.sum(1, (
        math.prod(lin[:a] + lin[a + 1:]) * Fraction(m, cfg.n + 1)
        for a, m in enumerate(cfg.mults)))


def critical_poly_BD(cfg: StratumConfigBD, xi):
    """prod (y - q_i^2) in y = p^2:
    N^{-1} [ m prod (y - xi_a^2) + sum_a m_a y prod_{b != a}(y - xi_b^2) ]."""
    lin = [_P - Fraction(x) ** 2 for x in xi]
    return MultiPoly.sum(1, [
        math.prod(lin) * Fraction(cfg.m, cfg.N),
        *(math.prod([_P] + lin[:a] + lin[a + 1:]) * Fraction(m, cfg.N)
          for a, m in enumerate(cfg.mults))])


def _coeffs(w):
    """The coefficients of a one-variable polynomial, high degree first."""
    return [w.terms.get((k,), 0) for k in range(w.degree(), -1, -1)]


def _squarefree(w):
    """True iff the monic w of degree >= 1 has no repeated root, that is
    iff the resultant of w and w' (the determinant of their Sylvester
    matrix) is nonzero."""
    f, g = _coeffs(w), _coeffs(w.diff(0))
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (m - 1 - i) for i in range(m)]
    return det_fraction(rows) != 0


def _check_generic_A(cfg, xi):
    xs = cfg.xi_full(xi)
    if len(set(xs)) != len(xs):
        raise DegeneratePoint("xi values collide")
    w = critical_poly_A(cfg, xi)
    if not _squarefree(w):
        raise DegeneratePoint("critical points collide")
    for x in xs:
        if w.evaluate([x]) == 0:
            raise DegeneratePoint("critical point hits a xi value")
    return w


def _check_generic_BD(cfg, xi):
    xs2 = [Fraction(x) ** 2 for x in xi]
    if any(x == 0 for x in xs2) or len(set(xs2)) != len(xs2):
        raise DegeneratePoint("xi values collide or vanish")
    w = critical_poly_BD(cfg, xi)
    if not _squarefree(w):
        raise DegeneratePoint("critical points collide")
    for x in xs2:
        if w.evaluate([x]) == 0:
            raise DegeneratePoint("critical point hits a xi value")
    w0 = w.evaluate([0])
    if cfg.m == 0:
        if w0 != 0:
            raise InvariantViolation("m = 0 must force a zero critical point")
    elif w0 == 0:
        raise DegeneratePoint("unexpected zero critical point")
    return w


def _float_coeffs(w):
    """The coefficients of a one-variable polynomial as floats, high degree
    first."""
    return [float(c) for c in _coeffs(w)]


def _horner(coeffs, x):
    """Float Horner evaluation of a coefficient list, high degree first."""
    v = 0.0
    for c in coeffs:
        v = v * x + complex(c)
    return v


# ---------------------------------------------------------------------------
# closed forms

def kappa_A(cfg: StratumConfigA) -> Fraction:
    m, n, d = cfg.mults, cfg.n, cfg.d
    sign = (-1) ** (sum(i * m[i] for i in range(1, d + 1)) + n * d)
    val = Fraction(sign, (n + 1) ** n)
    for a in range(1, d + 1):
        val *= m[a] ** 2
    for a in range(0, d + 1):
        val *= Fraction(m[a]) ** (m[a] - 1)
    return val


def kappa_BD(cfg: StratumConfigBD) -> Fraction:
    m, mults, N, d = cfg.m, cfg.mults, cfg.N, cfg.d
    sign = (-1) ** (d * d + d * (N - m) + sum(i * mults[i] for i in range(1, d)))
    val = Fraction(sign * 2 ** d)
    val *= Fraction(m) ** m if m != 0 else 1          # 0^0 = 1 convention
    val *= Fraction(1, N ** N) if N > 0 else Fraction(N) ** (-N)
    for a in range(d):
        val *= Fraction(mults[a]) ** (mults[a] + 1)
    return val


def closed_form_det_A(cfg: StratumConfigA) -> FactoredDeterminant:
    """det eta_D(xi) = kappa prod_{0<=i<j<=d} (xi_i - xi_j)^{m_i+m_j},
    expressed over the free parameters xi_1..xi_d (xi_0 eliminated).

    The canonicalization of the xi_0 factors folds their rational scales
    into the coefficient, so the product still evaluates exactly to the
    theorem's right-hand side."""
    d, m = cfg.d, cfg.mults
    labels = tuple(f"xi{i}" for i in range(1, d + 1))
    coeff = kappa_A(cfg)
    factors = {}
    for i in range(0, d + 1):
        for j in range(i + 1, d + 1):
            e = m[i] + m[j]
            if i == 0:
                vec = [-Fraction(m[k], m[0]) for k in range(1, d + 1)]
                vec[j - 1] -= 1
            else:
                vec = [Fraction(0)] * d
                vec[i - 1] = Fraction(1)
                vec[j - 1] = Fraction(-1)
            form, scale = LinearForm.canonical(vec, labels)
            coeff *= scale ** e
            factors[form] = factors.get(form, 0) + e
    return FactoredDeterminant(coeff, factors)


def closed_form_det_BD(cfg: StratumConfigBD) -> FactoredDeterminant:
    """det eta_D(xi) = kappa prod xi_i^{2(m_i+m)} prod_{i<j}
    (xi_i^2 - xi_j^2)^{m_i+m_j}; zero exponents omitted."""
    d, m, mults = cfg.d, cfg.m, cfg.mults
    labels = tuple(f"xi{i}" for i in range(1, d + 1))
    factors = {}

    def unit(i, j=None, sj=0):
        vec = [0] * d
        vec[i] = 1
        if j is not None:
            vec[j] = sj
        return LinearForm(vec, labels)

    for i in range(d):
        e = 2 * (mults[i] + m)
        if e < 0:
            raise ValueError("m_i + m < 0: determinant is not polynomial")
        if e:
            factors[unit(i)] = e
    for i in range(d):
        for j in range(i + 1, d):
            e = mults[i] + mults[j]
            factors[unit(i, j, -1)] = e
            factors[unit(i, j, +1)] = e
    return FactoredDeterminant(kappa_BD(cfg), factors)


# ---------------------------------------------------------------------------
# numeric residue oracle

class CriticalData:
    __slots__ = ("q", "u", "eps", "lam2", "cfg", "xi", "xs")

    def __init__(self, cfg, xi, xs, q, u, eps, lam2):
        self.cfg = cfg
        self.xi = xi
        self.xs = xs        # complex xi values (type A: xi_0 first)
        self.q = q          # critical points (complex array, d entries)
        self.u = u          # canonical coordinates lam(q_i)
        self.eps = eps      # 1 or 1/2 weights
        self.lam2 = lam2    # lam''(q_i)


# relative residual of lam'(q) at a numeric critical point q beyond which
# the point counts as ill-conditioned
_ROOT_TOL = 1e-12
# `random_generic_point` draws numerators from [-_POINT_SPAN, _POINT_SPAN]
_POINT_SPAN = 20


def _critical_data_A(cfg, xi):
    wf = _float_coeffs(_check_generic_A(cfg, xi))
    q = np.sort_complex(np.roots(wf))
    xs = [complex(x) for x in cfg.xi_full(xi)]
    m = cfg.mults
    for qi in q:
        if not abs(_horner(wf, qi)) < _ROOT_TOL * max(1.0, abs(qi) ** cfg.d):
            raise DegeneratePoint("critical points are ill-conditioned here")
    lam = lambda p: np.prod([(p - xs[a]) ** m[a] for a in range(cfg.d + 1)])
    lam2 = np.array([
        (cfg.n + 1)
        * np.prod([(q[l] - xs[a]) ** (m[a] - 1) for a in range(cfg.d + 1)])
        * np.prod([q[l] - q[j] for j in range(cfg.d) if j != l])
        for l in range(cfg.d)])
    u = np.array([lam(qi) for qi in q])
    eps = np.ones(cfg.d)
    return CriticalData(cfg, xi, xs, q, u, eps, lam2)


def _critical_data_BD(cfg, xi):
    y = np.sort_complex(np.roots(_float_coeffs(_check_generic_BD(cfg, xi))))
    q = np.sqrt(y.astype(complex))
    if cfg.m == 0:
        # exact zero critical point: put it first, exactly zero
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
    lam = lambda p: (p ** (2 * cfg.m) if p != 0 else (1.0 if cfg.m == 0 else 0.0)) \
        * np.prod([(p * p - xs2[a]) ** m[a] for a in range(cfg.d)])
    u = np.array([lam(qi) for qi in q])
    return CriticalData(cfg, xi, xs, q, u, eps, lam2)


def critical_data(cfg, xi):
    if isinstance(cfg, StratumConfigA):
        return _critical_data_A(cfg, xi)
    return _critical_data_BD(cfg, xi)


def _jacobi_matrix(cd):
    """M[i][a] = d xi_a / d u_i."""
    cfg, xs = cd.cfg, cd.xs
    d = cfg.d
    if isinstance(cfg, StratumConfigA):
        return np.array([[1.0 / ((cd.q[l] - xs[a]) * cd.lam2[l])
                          for a in range(1, d + 1)] for l in range(d)])
    return np.array([[2 * cd.eps[i] * xs[a] / ((cd.q[i] ** 2 - xs[a] ** 2) * cd.lam2[i])
                      for a in range(d)] for i in range(d)])


def _transport(cfg, xi_point):
    """(cd, K, eta_u, eta, det) at a point: the critical data, K[i][a] =
    du_i/dxi_a, the metric in canonical coordinates, and eta_D in the xi
    coordinates with its determinant.  Raises DegeneratePoint where
    floating point cannot resolve the point; callers silence numpy's
    warnings with np.errstate and check their own results."""
    try:
        cd = critical_data(cfg, xi_point)
        K = np.linalg.inv(_jacobi_matrix(cd).T)
    except (OverflowError, np.linalg.LinAlgError) as exc:
        raise DegeneratePoint(f"out of floating-point range: {exc}")
    eta_u = 2 * cd.eps / cd.lam2 if isinstance(cfg, StratumConfigBD) \
        else 1.0 / cd.lam2
    eta = K.T @ (eta_u[:, None] * K)
    det = np.linalg.det(K) ** 2 * np.prod(eta_u)
    _require_finite(eta, det)
    return cd, K, eta_u, eta, det


def _require_finite(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise DegeneratePoint("out of floating-point range")


@np.errstate(all="ignore")
def residue_metric_at(cfg, xi_point):
    """eta_D in the xi coordinates at the given rational point, and its
    determinant, via canonical coordinates and Jacobi transport."""
    _, _, _, eta, det = _transport(cfg, xi_point)
    return eta, det


def _dxilam(cfg, cd, a, p):
    """d lam / d xi_a evaluated at p (a is 1-based for A, 0-based for BD)."""
    xs, m = cd.xs, cfg.mults
    if isinstance(cfg, StratumConfigA):
        lam = np.prod([(p - xs[i]) ** m[i] for i in range(cfg.d + 1)])
        return lam * m[a] * (1.0 / (p - xs[0]) - 1.0 / (p - xs[a]))
    lam = (p ** (2 * cfg.m) if p != 0 else (1.0 if cfg.m == 0 else 0.0)) \
        * np.prod([(p * p - xs[i] ** 2) ** m[i] for i in range(cfg.d)])
    return lam * m[a] * (-2 * xs[a]) / (p * p - xs[a] ** 2)


def _all_simple_critical_points(cfg, cd):
    """The simple zeros of lam' away from the xi values, with lam'' there."""
    if isinstance(cfg, StratumConfigA):
        return list(cd.q), list(cd.lam2)
    pts, l2 = [], []
    for i in range(cfg.d):
        if cd.q[i] == 0:
            pts.append(0.0)
            l2.append(cd.lam2[i])
        else:
            # lam'' is even, so both +-q_i are simple critical points
            pts.extend([cd.q[i], -cd.q[i]])
            l2.extend([cd.lam2[i], cd.lam2[i]])
    return pts, l2


@np.errstate(all="ignore")
def frobenius_check_at(cfg, xi_point):
    """Euler/Frobenius identities at a point; returns max residuals.

    (i)  eta_D(u,v) = g_D(E_D o u, v) entrywise,
    (ii) det eta_D = det g_D * det(E_D o),
    (iii) canonical idempotency, cross-checked through the residue formula
          for eta(d_a o d_b, d_c) in the xi frame.
    """
    cd, K, eta_u, eta, det_eta = _transport(cfg, xi_point)
    d = cfg.d

    # Constant Gram matrix of the stratum embedding. The residue formulae
    # determine the ambient invariant bilinear form only up to a constant
    # multiple of the Euclidean one; the constant (-1 for type A, -2 for
    # types B/D) is fixed by the one-block case and verified here at every
    # point through identities (i) and (ii).
    if isinstance(cfg, StratumConfigA):
        m = cfg.mults
        g = -np.array([[m[a] * (1 if a == b else 0) + m[a] * m[b] / m[0]
                        for b in range(1, d + 1)] for a in range(1, d + 1)],
                      dtype=float)
    else:
        g = -2.0 * np.diag([float(x) for x in cfg.mults])

    # multiplication by the Euler field: diag(u) in canonical coordinates
    O = np.linalg.inv(K) @ (cd.u[:, None] * K)
    res_i = np.max(np.abs(eta - O.T @ g)) / max(1.0, np.max(np.abs(eta)))
    # det(E_D o) = prod u_i since the operator is diagonal in canonical
    # coordinates; the matrix determinant of O loses precision when the
    # critical values span many orders of magnitude.
    res_ii = abs(det_eta - np.linalg.det(g) * np.prod(cd.u)) / abs(det_eta)

    # idempotency: structure constants two ways
    pts, l2 = _all_simple_critical_points(cfg, cd)
    arange = range(1, d + 1) if isinstance(cfg, StratumConfigA) else range(d)
    res_iii = 0.0
    for ia, a in enumerate(arange):
        for ib, b in enumerate(arange):
            for ic, c in enumerate(arange):
                via_residues = sum(
                    _dxilam(cfg, cd, a, p) * _dxilam(cfg, cd, b, p)
                    * _dxilam(cfg, cd, c, p) / lpp
                    for p, lpp in zip(pts, l2))
                via_canonical = np.sum(K[:, ia] * K[:, ib] * K[:, ic] * eta_u)
                scale = max(1.0, abs(via_canonical))
                res_iii = max(res_iii, abs(via_residues - via_canonical) / scale)
    _require_finite(res_i, res_ii, res_iii)
    return {"gram_euler": float(res_i), "determinant": float(res_ii),
            "idempotency": float(res_iii), "gram": g, "det_eta": det_eta}


# ---------------------------------------------------------------------------
# random generic rational points

def random_generic_point(cfg, rng):
    for _ in range(500):
        xi = tuple(Fraction(rng.randint(-_POINT_SPAN, _POINT_SPAN),
                            rng.randint(1, 7))
                   for _ in range(cfg.d))
        try:
            if isinstance(cfg, StratumConfigA):
                _check_generic_A(cfg, xi)
            else:
                _check_generic_BD(cfg, xi)
            return xi
        except DegeneratePoint:
            continue
    raise RuntimeError("no generic point found")  # pragma: no cover
