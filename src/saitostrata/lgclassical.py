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
B/D) is built from products of linear factors. At a rational point with
distinct xi values its roots are simple and miss them (`_check_generic_BD`).
The oracle finds those roots and computes everything after them in floating
point, in one transport that `residue_metric_at` and `frobenius_check_at`
share, on the standard library alone: each root is refined by Newton steps
inside the interval that the same argument assigns to it, and the transport
is inverted by an LU decomposition with partial pivoting.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction

from .algebra import (LinearForm, FactoredDeterminant, InvariantViolation,
                      MultiPoly)


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
        self._last_transport = None  # (point, result) of `_transport`

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
        self._last_transport = None  # (point, result) of `_transport`

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


def _check_generic_A(cfg, xi):
    """The critical polynomial at a point whose xi values are distinct; see
    `_check_generic_BD` for why nothing else needs checking."""
    xs = cfg.xi_full(xi)
    if len(set(xs)) != len(xs):
        raise DegeneratePoint("xi values collide")
    return critical_poly_A(cfg, xi)


def _check_generic_BD(cfg, xi):
    """The critical polynomial w (in y = p^2) at a point whose xi_i^2 are
    distinct and nonzero.  Nothing else needs checking at a real point.

    w is lam'/lam times a constant and prod (p - xi_i) (B/D: y prod
    (y - xi_i^2)).  lam'/lam has simple poles with positive residues m_i at
    the distinct xi_i (A), or at the distinct xi_i^2 > 0 (B/D, where
    lam'/lam = m/y + sum m_i/(y - xi_i^2)).  It runs from +inf to -inf
    across each gap between them, so each of the d gaps (A) or d - 1 gaps
    (B/D) holds a zero.  For B/D one more zero lies
      - in (0, xi_1^2) if m > 0,
      - at y = 0 if m = 0, simple: N w'(0) = sum m_i prod_{j != i} (-xi_j^2),
      - in (-inf, 0) if m < 0 < N: lam'/lam ~ N/y < 0 far left, +inf at 0-,
      - beyond xi_d^2 if N < 0: lam'/lam ~ N/y < 0 far right.
    So deg w = d zeros lie in disjoint intervals: all simple, none a pole.
    """
    xs2 = [Fraction(x) ** 2 for x in xi]
    if any(x == 0 for x in xs2) or len(set(xs2)) != len(xs2):
        raise DegeneratePoint("xi values collide or vanish")
    w = critical_poly_BD(cfg, xi)
    if cfg.m == 0 and w.evaluate([0]) != 0:
        raise InvariantViolation("m = 0 must force a zero critical point")
    return w


def _float_coeffs(w):
    """The coefficients of a one-variable polynomial as floats, high degree
    first."""
    return [float(w.coefficient((k,))) for k in range(w.degree(), -1, -1)]


def _horner(coeffs, x):
    """The value and the slope at x of a coefficient list, high degree
    first."""
    v = s = 0.0
    for c in coeffs:
        s = s * x + v
        v = v * x + c
    return v, s


# halvings that shrink any interval of finite floats to neighbouring floats:
# the largest float over the smallest positive one is 2^2098
_MAX_STEPS = 2100


def _bracketed_root(coeffs, lo, hi, rising):
    """The root of the real polynomial `coeffs` (high degree first) in the
    open interval (lo, hi), where it is the only root and simple: the
    polynomial is positive above it if `rising`, negative otherwise.
    Newton steps that stay inside the shrinking bracket, bisection where
    one would leave it."""
    x = 0.5 * lo + 0.5 * hi
    for _ in range(_MAX_STEPS):
        v, s = _horner(coeffs, x)
        if v == 0:
            return x
        if not math.isfinite(v):
            raise DegeneratePoint("critical polynomial out of floating-point "
                                  "range")
        if (v > 0) == rising:
            hi = x
        else:
            lo = x
        # a Newton step of at most a few ulps of x: converged
        if abs(v) <= 4 * sys.float_info.epsilon * abs(s * x):
            return x - v / s
        nx = x - v / s if s else lo
        x = nx if lo < nx < hi else 0.5 * lo + 0.5 * hi
        if x in (lo, hi):
            # no float left between the ends of the bracket
            return x
    return x


def _interlaced_roots(coeffs, brackets):
    """The roots of the monic real polynomial `coeffs` (high degree first),
    one in each of the disjoint open intervals `brackets` (ascending, as
    many as the degree).  Above its k-th root of d (from 0) the polynomial
    has d - 1 - k roots to its right, so its sign is (-1)^(d-1-k)."""
    d = len(brackets)
    return [_bracketed_root(coeffs, lo, hi, (d - 1 - k) % 2 == 0)
            for k, (lo, hi) in enumerate(brackets)]


# ---------------------------------------------------------------------------
# closed forms

def kappa_powers(cfg):
    """(sign, powers) with kappa = sign * prod b^e over the pairs (b, e) in
    powers: each base b a positive integer, each exponent e a nonzero
    integer, negative for a factor of the denominator.  Type A:
    kappa = sign prod_{a>=1} m_a^2 prod_{a>=0} m_a^(m_a - 1) / (n+1)^n.
    Types B/D: kappa = sign 2^d m^m N^-N prod m_a^(m_a + 1), with 0^0 = 1,
    and a negative m or N gives its sign to its odd powers."""
    if isinstance(cfg, StratumConfigA):
        m, n, d = cfg.mults, cfg.n, cfg.d
        sign = (-1) ** (sum(i * m[i] for i in range(1, d + 1)) + n * d)
        powers = [(n + 1, -n)] + [(m[a], 2) for a in range(1, d + 1)] \
            + [(x, x - 1) for x in m]
    else:
        m, mults, N, d = cfg.m, cfg.mults, cfg.N, cfg.d
        sign = (-1) ** (d * d + d * (N - m)
                        + sum(i * mults[i] for i in range(1, d)))
        if m < 0 and m % 2:
            sign = -sign
        if N < 0 and N % 2:
            sign = -sign
        powers = [(2, d), (abs(m), m), (abs(N), -N)] \
            + [(x, x + 1) for x in mults]
    return sign, [(b, e) for b, e in powers if e and b != 1]


def _kappa(cfg) -> Fraction:
    """kappa from `kappa_powers`: one product per side, then one Fraction."""
    sign, powers = kappa_powers(cfg)
    num = den = 1
    for b, e in powers:
        if e > 0:
            num *= b ** e
        else:
            den *= b ** -e
    return Fraction(sign * num, den)


def kappa_A(cfg: StratumConfigA) -> Fraction:
    return _kappa(cfg)


def kappa_BD(cfg: StratumConfigBD) -> Fraction:
    return _kappa(cfg)


def closed_form_det_A(cfg: StratumConfigA) -> FactoredDeterminant:
    """det eta_D(xi) = kappa prod_{0<=i<j<=d} (xi_i - xi_j)^{m_i+m_j},
    expressed over the free parameters xi_1..xi_d (xi_0 eliminated).

    The canonicalization of the xi_0 factors folds their rational scales
    into the coefficient, so the product still evaluates exactly to the
    theorem's right-hand side."""
    d, m = cfg.d, cfg.mults
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
            form, scale = LinearForm.canonical(vec)
            coeff *= scale ** e
            factors[form] = factors.get(form, 0) + e
    return FactoredDeterminant(coeff, factors)


def closed_form_det_BD(cfg: StratumConfigBD) -> FactoredDeterminant:
    """det eta_D(xi) = kappa prod xi_i^{2(m_i+m)} prod_{i<j}
    (xi_i^2 - xi_j^2)^{m_i+m_j}; zero exponents omitted."""
    d, m, mults = cfg.d, cfg.m, cfg.mults
    factors = {}

    def unit(i, j=None, sj=0):
        vec = [0] * d
        vec[i] = 1
        if j is not None:
            vec[j] = sj
        return LinearForm(vec)

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
    __slots__ = ("q", "u", "eps", "lam2", "cfg", "xs")

    def __init__(self, cfg, xs, q, u, eps, lam2):
        self.cfg = cfg
        self.xs = xs                # complex xi values (type A: xi_0 first)
        self.q = tuple(q)           # critical points (complex, d entries)
        self.u = tuple(u)           # canonical coordinates lam(q_i)
        self.eps = tuple(eps)       # 1 or 1/2 weights
        self.lam2 = tuple(lam2)     # lam''(q_i)


# relative residual of lam'(q) at a numeric critical point q beyond which
# the point counts as ill-conditioned
_ROOT_TOL = 1e-12
# `random_generic_point` draws numerators from [-_POINT_SPAN, _POINT_SPAN]
_POINT_SPAN = 20


def _critical_data_A(cfg, xi):
    wf = _float_coeffs(_check_generic_A(cfg, xi))
    full = cfg.xi_full(xi)
    xr = sorted(float(x) for x in full)
    roots = _interlaced_roots(wf, list(zip(xr, xr[1:])))
    for r in roots:
        if not abs(_horner(wf, r)[0]) < _ROOT_TOL * max(1.0, abs(r) ** cfg.d):
            raise DegeneratePoint("critical points are ill-conditioned here")
    q = [complex(r) for r in roots]
    xs = [complex(x) for x in full]
    m = cfg.mults
    lam2 = [(cfg.n + 1)
            * math.prod([(q[l] - xs[a]) ** (m[a] - 1) for a in range(cfg.d + 1)])
            * math.prod([q[l] - q[j] for j in range(cfg.d) if j != l])
            for l in range(cfg.d)]
    u = [math.prod([(p - xs[a]) ** m[a] for a in range(cfg.d + 1)]) for p in q]
    eps = [1.0] * cfg.d
    return CriticalData(cfg, xs, q, u, eps, lam2)


def _critical_data_BD(cfg, xi):
    """The critical points q = sqrt(y) from the roots y of w, bracketed as
    in `_check_generic_BD`: one between each two neighbouring xi_i^2, and
    the one more in (0, xi_1^2), at 0, in (-B, 0) or in (xi_d^2, B), where
    B is the Cauchy bound of w."""
    wf = _float_coeffs(_check_generic_BD(cfg, xi))
    squares = [Fraction(x) ** 2 for x in xi]
    ys = sorted(float(v) for v in squares)
    brackets = list(zip(ys, ys[1:]))
    y = []
    if cfg.m == 0:
        # the exact zero critical point, first; deflate w by it
        wf.pop()
        y.append(0.0)
    elif cfg.m > 0:
        brackets.insert(0, (0.0, ys[0]))
    else:
        bound = 1.0 + max(abs(c) for c in wf[1:])
        if cfg.N > 0:
            brackets.insert(0, (-bound, 0.0))
        else:
            brackets.append((ys[-1], bound))
    y += _interlaced_roots(wf, brackets)
    q = [cmath.sqrt(v) for v in y]
    xs = [complex(Fraction(x)) for x in xi]
    xs2 = [complex(v) for v in squares]
    m = cfg.mults
    eps = [0.5 if qi == 0 else 1.0 for qi in q]
    lam2 = [4 * eps[i] * cfg.N * (q[i] ** (2 * cfg.m) if q[i] != 0 else 1.0)
            * math.prod([(q[i] ** 2 - xs2[a]) ** (m[a] - 1) for a in range(cfg.d)])
            * math.prod([q[i] ** 2 - q[b] ** 2 for b in range(cfg.d) if b != i])
            for i in range(cfg.d)]
    lam = lambda p: (p ** (2 * cfg.m) if p != 0 else (1.0 if cfg.m == 0 else 0.0)) \
        * math.prod([(p * p - xs2[a]) ** m[a] for a in range(cfg.d)])
    u = [lam(qi) for qi in q]
    return CriticalData(cfg, xs, q, u, eps, lam2)


def critical_data(cfg, xi):
    if isinstance(cfg, StratumConfigA):
        return _critical_data_A(cfg, xi)
    return _critical_data_BD(cfg, xi)


def _jacobi_matrix(cd):
    """M[i][a] = d xi_a / d u_i."""
    cfg, xs = cd.cfg, cd.xs
    d = cfg.d
    if isinstance(cfg, StratumConfigA):
        return [[1.0 / ((cd.q[l] - xs[a]) * cd.lam2[l])
                 for a in range(1, d + 1)] for l in range(d)]
    return [[2 * cd.eps[i] * xs[a] / ((cd.q[i] ** 2 - xs[a] ** 2) * cd.lam2[i])
             for a in range(d)] for i in range(d)]


def _lu(a):
    """LU decomposition with partial pivoting of a square matrix (a list of
    rows, left unchanged): (lu, perm, det), where row i of lu comes from
    row perm[i] of a, L (unit diagonal, not stored) lies below the diagonal
    of lu and U on and above it.  Raises DegeneratePoint if a is
    singular."""
    n = len(a)
    lu = [list(row) for row in a]
    perm = list(range(n))
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(lu[r][k]))
        if lu[p][k] == 0:
            raise DegeneratePoint("singular transport")
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            perm[k], perm[p] = perm[p], perm[k]
            det = -det
        pivot = lu[k][k]
        det *= pivot
        for r in range(k + 1, n):
            f = lu[r][k] = lu[r][k] / pivot
            for c in range(k + 1, n):
                lu[r][c] -= f * lu[k][c]
    return lu, perm, det


def _inverse(lu, perm):
    """The inverse of the matrix whose `_lu` is (lu, perm), as a tuple of
    rows: column j solves L U x = (the rows perm of) e_j."""
    n = len(lu)
    cols = []
    for j in range(n):
        x = [1.0 if perm[i] == j else 0.0 for i in range(n)]
        for i in range(n):
            x[i] -= sum(lu[i][k] * x[k] for k in range(i))
        for i in reversed(range(n)):
            x[i] = (x[i] - sum(lu[i][k] * x[k] for k in range(i + 1, n))) \
                / lu[i][i]
        cols.append(x)
    return tuple(zip(*cols))


def _float_guard(fn):
    """fn, raising DegeneratePoint where its floating point divides by zero
    or overflows."""
    @functools.wraps(fn)
    def guarded(*args):
        try:
            return fn(*args)
        except (ZeroDivisionError, OverflowError) as exc:
            raise DegeneratePoint(f"out of floating-point range: {exc}") \
                from None
    return guarded


def _require_finite(values):
    if not all(map(cmath.isfinite, values)):
        raise DegeneratePoint("out of floating-point range")


def _transport(cfg, xi_point):
    """(cd, K, eta_u, eta, det) at a point: the critical data, K[i][a] =
    du_i/dxi_a, the metric in canonical coordinates, and eta_D in the xi
    coordinates with its determinant.  Raises DegeneratePoint where
    floating point cannot resolve the point; a division by zero or an
    overflow raises ZeroDivisionError or OverflowError, which the public
    callers turn into DegeneratePoint (`_float_guard`).

    The result for the last point is kept on cfg, so that one request
    calling both `residue_metric_at` and `frobenius_check_at` transports
    once; it is made of tuples, since it is shared."""
    key = tuple(xi_point)
    if cfg._last_transport is not None and cfg._last_transport[0] == key:
        return cfg._last_transport[1]
    cd = critical_data(cfg, xi_point)
    lu, perm, det_mt = _lu(list(zip(*_jacobi_matrix(cd))))
    K = _inverse(lu, perm)
    if isinstance(cfg, StratumConfigBD):
        eta_u = tuple(2 * e / l for e, l in zip(cd.eps, cd.lam2))
    else:
        eta_u = tuple(1.0 / l for l in cd.lam2)
    d = cfg.d
    eta = tuple(tuple(sum(K[i][a] * (eta_u[i] * K[i][b]) for i in range(d))
                      for b in range(d)) for a in range(d))
    # det K = 1 / det M^T
    det = math.prod(eta_u) / det_mt ** 2
    _require_finite([det, *(x for row in eta for x in row)])
    cfg._last_transport = (key, (cd, K, eta_u, eta, det))
    return cfg._last_transport[1]


@_float_guard
def residue_metric_at(cfg, xi_point):
    """eta_D in the xi coordinates at the given rational point, and its
    determinant, via canonical coordinates and Jacobi transport."""
    _, _, _, eta, det = _transport(cfg, xi_point)
    return eta, det


def _dxilam_table(cfg, cd, pts):
    """d lam / d xi_a at each of the points, one row per free xi_a, with
    lam(p) evaluated once per point."""
    xs, m = cd.xs, cfg.mults
    if isinstance(cfg, StratumConfigA):
        # pts are the critical points, and lam there is u
        return [[lam * m[a] * (1.0 / (p - xs[0]) - 1.0 / (p - xs[a]))
                 for p, lam in zip(pts, cd.u)] for a in range(1, cfg.d + 1)]
    lams = [(p ** (2 * cfg.m) if p != 0 else (1.0 if cfg.m == 0 else 0.0))
            * math.prod([(p * p - xs[i] ** 2) ** m[i] for i in range(cfg.d)])
            for p in pts]
    return [[lam * m[a] * (-2 * xs[a]) / (p * p - xs[a] ** 2)
             for p, lam in zip(pts, lams)] for a in range(cfg.d)]


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


@_float_guard
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
    m = cfg.mults
    if isinstance(cfg, StratumConfigA):
        g = [[-(m[a] * (1 if a == b else 0) + m[a] * m[b] / m[0])
              for b in range(1, d + 1)] for a in range(1, d + 1)]
    else:
        g = [[-2.0 * m[a] if a == b else 0.0 for b in range(d)]
             for a in range(d)]

    # multiplication by the Euler field: diag(u) in canonical coordinates,
    # O = K^-1 diag(u) K, where K^-1 = M^T
    M = _jacobi_matrix(cd)
    O = [[sum(M[i][a] * cd.u[i] * K[i][b] for i in range(d))
          for b in range(d)] for a in range(d)]
    diffs = [eta[a][b] - sum(O[c][a] * g[c][b] for c in range(d))
             for a in range(d) for b in range(d)]
    _require_finite(diffs)      # max() would pass over a nan
    res_i = max(map(abs, diffs)) \
        / max(1.0, *(abs(x) for row in eta for x in row))
    # det(E_D o) = prod u_i since the operator is diagonal in canonical
    # coordinates; the matrix determinant of O loses precision when the
    # critical values span many orders of magnitude.
    res_ii = abs(det_eta - _lu(g)[2] * math.prod(cd.u)) / abs(det_eta)

    # idempotency: structure constants two ways
    pts, l2 = _all_simple_critical_points(cfg, cd)
    dlam = _dxilam_table(cfg, cd, pts)
    res_iii = []
    for ia, da in enumerate(dlam):
        for ib, db in enumerate(dlam):
            for ic, dc in enumerate(dlam):
                via_residues = sum(x * y * z / lpp for x, y, z, lpp
                                   in zip(da, db, dc, l2))
                via_canonical = sum(K[i][ia] * K[i][ib] * K[i][ic] * eta_u[i]
                                    for i in range(d))
                scale = max(1.0, abs(via_canonical))
                res_iii.append(abs(via_residues - via_canonical) / scale)
    _require_finite([res_i, res_ii, *res_iii])
    return {"gram_euler": res_i, "determinant": res_ii,
            "idempotency": max(res_iii), "gram": g, "det_eta": det_eta}


# ---------------------------------------------------------------------------
# random generic rational points

def random_generic_point(cfg, rng):
    for _ in range(500):
        xi = tuple(Fraction(rng.randint(-_POINT_SPAN, _POINT_SPAN),
                            rng.randint(1, 7))
                   for _ in range(cfg.d))
        try:
            (_check_generic_A if isinstance(cfg, StratumConfigA)
             else _check_generic_BD)(cfg, xi)
            return xi
        except DegeneratePoint:
            continue
    raise RuntimeError("no generic point found")  # pragma: no cover
