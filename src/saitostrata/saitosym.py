"""Symbolic route for small groups: basic invariants, flat coordinates,
exact restriction of the covariant metric to strata, and the minor-formula
alternate path with its structural checks.

All polynomials live in the simple-root coordinates z_i = (alpha_i, x), so
x = sum_i z_i w^i with w^i the fundamental coweights.  In these coordinates
a root beta = sum_i c_i alpha_i acts as the integer linear form sum c_i z_i,
the mirror of alpha_i is {z_i = 0}, restricting to a stratum D_I is just
setting z_i = 0 for i in I, and the directional derivatives are

    d/d(alpha_j) = sum_k (alpha_k, alpha_j) d/dz_k,
    d/d(w^i)     = d/dz_i.

The convolution g^{ab} and the covariant metric, restricted or not, are
one Gram contraction (`_gram`) of gradient rows against a constant matrix.
A basis builds its Jacobian, its minors and the inverse identity 1-form
once, so the per-stratum work is restriction plus one determinant.

`express_in_invariants` finds the coefficients of an invariant in a basis
by evaluation and certifies them by exact re-expansion.  Each basis keeps
one evaluation plan: a seeded sequence of integer points, the invariants'
values there, and per degree the monomial rows, whose rank is checked
once.  A call evaluates q at the plan's points and solves.  The
re-expansion compares every term on integer numerators over one common
denominator, with the products of the invariants cached on the basis.  In
an algebraically independent basis the coefficients are unique, so the
choice of points never shows in the output.

The flat basis takes its Jacobian by the chain rule, J_t = det(dt/dp) J_p.
Each flat coordinate t^a is weighted-homogeneous of degree d_a in the basic
invariants p, so dt^a/dp^b has weighted degree d_a - d_b: zero if d_b > d_a
and constant if d_b = d_a.  Ordered by degree, dt/dp is block-triangular
with constant diagonal blocks, and its determinant is the product of
theirs: a nonzero constant c, the determinant of the linear part of t
(`_constant_jacobian`).  So J_t = c J_p, and the check of the basic
basis (J_p is a scalar times the mirror product) covers the flat one: no
second Bareiss and no second check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import isqrt, lcm

from .algebra import (MultiPoly, FactoredDeterminant, poly_det, divide_exact,
                      try_divide, factor_linear, IncompleteFactorization,
                      InvariantViolation, _Layout, _Packed)
from .exactla import (matinv, matmul, det_fraction, nullspace, solve,
                      rank as mat_rank)
from .roots import RootSystem, build_root_system, span_subsystem
from .strata import Stratum, make_stratum


class DegenerateBasis(ValueError):
    """The candidate invariants fail the Jacobian factorization check.

    Perturbing the offending invariant by products of lower-degree ones
    restores algebraic independence."""


class SolverFailure(RuntimeError):
    """An exact linear system in the flat-coordinate pipeline was
    inconsistent or had the wrong solution-space dimension."""


# ---------------------------------------------------------------------------
# frames and derivatives

def _ambient_coordinate_forms(R: RootSystem):
    """The ambient coordinate functions x_a as linear forms in z."""
    n = R.rank
    return [MultiPoly.linear([Fraction(R.coweights[i][a]) for i in range(n)])
            for a in range(R.ambient_dim)]


def _d_root(R: RootSystem, f: MultiPoly, beta):
    """Directional derivative along the root with coefficient tuple beta."""
    cs = [sum(R._gram[k][j] * b for j, b in enumerate(beta))
          for k in range(R.rank)]
    return MultiPoly.sum(f.nvars,
                         (f.diff(k) * c for k, c in enumerate(cs) if c))


def _gram(rows, C):
    """The symmetric matrix G[a][b] = sum_{k,l} rows[a][k] C[k][l] rows[b][l]
    of polynomial rows against a symmetric matrix C, whose entries may be
    scalars or polynomials; zero scalars are skipped."""
    m = len(rows)
    if not m:
        return []
    nv = rows[0][0].nvars
    idx = range(len(C))
    mixed = [[MultiPoly.sum(nv, (row[l] * C[k][l] for l in idx if C[k][l]))
              for k in idx] for row in rows]
    G = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            G[a][b] = G[b][a] = MultiPoly.sum(
                nv, (rows[a][k] * mixed[b][k] for k in idx))
    return G


def _positive_product(R: RootSystem):
    prod = MultiPoly.const(R.rank, 1)
    for beta in R.positive_roots:
        prod = prod * MultiPoly.linear(beta)
    return prod


def _antidiag(n):
    return [[Fraction(int(i + j == n - 1)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# invariant bases

class InvariantBasis:
    """n homogeneous W-invariants p^1..p^n (z-polynomials, degrees
    ascending) whose Jacobian factors into the mirror forms.

    `pairing` is the constant matrix eta(dp^a, dp^b): the anti-diagonal
    identity by convention for a non-flat basis (the generalized constant
    metric sum_i dp^i dp^{n+1-i}), the verified flat pairing for solver
    output.  `normalized` records whether that pairing is exactly the
    anti-diagonal identity.  `flat_coordinates` passes `_chain_rule =
    (base, det(dt/dp))` to take the Jacobian from the basic basis (see the
    module docstring)."""

    def __init__(self, R: RootSystem, polys, flat=False, pairing=None,
                 normalized=None, *, _chain_rule=None):
        self.R = R
        self.polys = list(polys)
        self.degrees = tuple(p.degree() for p in self.polys)
        if self.degrees != tuple(R.degrees):
            raise DegenerateBasis(
                f"degrees {self.degrees} != invariant degrees {R.degrees}")
        for p in self.polys:
            if not p.is_homogeneous():
                raise DegenerateBasis("invariants must be homogeneous")
        self.flat = flat
        self.pairing = pairing if pairing is not None else _antidiag(R.rank)
        self.pairing_inv = matinv(self.pairing)
        if normalized is None:
            normalized = self.pairing == _antidiag(R.rank)
        self.normalized = normalized
        # products of the invariants, keyed by exponent tuple, for the
        # re-expansion check of `express_in_invariants`; its evaluation
        # points are `_evaluation_plan`
        self._mono_cache = {}
        self.jacobian = self._jacobian_matrix()
        if _chain_rule is None:
            self.jacobian_det = poly_det(self.jacobian)
            self.jacobian_scale = self._check_jacobian()
        else:
            # these invariants are polynomials t(p) in the checked basis
            # `base`, and c = det(dt/dp) is constant: J_t = c J_p
            base, c = _chain_rule
            if not c:
                raise DegenerateBasis("Jacobian vanishes: det(dt/dp) = 0")
            self.jacobian_det = base.jacobian_det * c
            self.jacobian_scale = base.jacobian_scale * c

    def _jacobian_matrix(self):
        R = self.R
        return [[_d_root(R, p, alpha) for alpha in R.simple]
                for p in self.polys]

    def _check_jacobian(self):
        """det(d p^i / d alpha_j) must equal a nonzero scalar times the
        product of all positive-root forms; returns that scalar."""
        prod = _positive_product(self.R)
        J = self.jacobian_det
        if J.is_zero():
            raise DegenerateBasis(
                "Jacobian vanishes: invariants are algebraically dependent; "
                "perturb by products of lower invariants")
        le, lc = prod.leading()
        ce = J.terms.get(le)
        if ce is None:
            raise DegenerateBasis("Jacobian does not match the mirror product")
        scale = ce / lc
        if J != prod * scale:
            raise DegenerateBasis(
                "Jacobian is not proportional to the mirror product; "
                "perturb by products of lower invariants")
        return scale

    @cached_property
    def _evaluation_plan(self):
        return _EvaluationPlan(self.polys)

    @cached_property
    def minors(self):
        """J_k for k = 1..n, built on first access: eliminate the k-th
        column and n-th row of the directional Jacobi matrix."""
        n = self.R.rank
        out = []
        for k in range(n):
            B = [[self.jacobian[i][j] for j in range(n) if j != k]
                 for i in range(n - 1)]
            out.append(poly_det(B) if n > 1 else MultiPoly.const(1, 1))
        return out

    @cached_property
    def _minor_chain(self):
        """The packed inputs of `general_formula_det`, built on first
        access; `flat_coordinates` never touches them."""
        return _MinorChain(self)

    def __repr__(self):
        tag = "flat" if self.flat else "basic"
        return f"<InvariantBasis {self.R.label}{self.R.rank} {tag} deg={self.degrees}>"


def basic_invariants(R: RootSystem) -> InvariantBasis:
    """Power-sum style invariants (plus the product invariant for D and
    positive-root power sums for F_4); E_6, E_7 and E_8 raise ValueError."""
    if R.label in ("A", "B"):
        xs = _ambient_coordinate_forms(R)
        polys = [MultiPoly.sum(R.rank, (x ** d for x in xs))
                 for d in R.degrees]
    elif R.label == "D":
        xs = _ambient_coordinate_forms(R)
        pf = MultiPoly.const(R.rank, 1)
        for x in xs:
            pf = pf * x
        even = [MultiPoly.sum(R.rank, (x ** d for x in xs))
                for d in range(2, 2 * R.rank - 1, 2)]
        polys = sorted(even + [pf], key=lambda p: p.degree())
    elif R.label == "F":
        forms = [MultiPoly.linear(b) for b in R.positive_roots]
        polys = [MultiPoly.sum(R.rank, (f ** d for f in forms))
                 for d in R.degrees]
    else:
        raise ValueError(f"no basic invariants for {R.label}{R.rank}; "
                         f"built for A_n, B_n = C_n, D_n and F4")
    return InvariantBasis(R, polys, flat=False)


def quartic_family_d3(a, b) -> InvariantBasis:
    """The two-parameter D_3 basis p1 = (1/8) sum x^2, p2 = x1 x2 x3,
    p3 = a sum x^4 + b p1^2 (a != 0)."""
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise DegenerateBasis("a = 0 makes p3 a multiple of p1^2")
    R = build_root_system("D", 3)
    xs = _ambient_coordinate_forms(R)
    p1 = MultiPoly.sum(3, (x ** 2 for x in xs)) * Fraction(1, 8)
    p2 = xs[0] * xs[1] * xs[2]
    p3 = MultiPoly.sum(3, (x ** 4 for x in xs)) * a + p1 * p1 * b
    return InvariantBasis(R, [p1, p2, p3], flat=False)


# ---------------------------------------------------------------------------
# expressing invariants in a basis (exact evaluation + re-expansion)

def _weighted_monomials(weights, total):
    """All exponent tuples e with sum e_i * weights_i == total."""
    n = len(weights)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        top = rem // w
        for e in range(top + 1):
            rec(i + 1, rem - e * w, acc + [e])
    rec(0, total, [])
    return out


_EVALUATION_SEED = 20240915


class _EvaluationPlan:
    """The points at which `express_in_invariants` evaluates, shared by
    every call on one basis: one seeded sequence of integer points, the
    basis invariants' values at each point (computed once), and per
    degree d the weighted monomials of degree d with their value rows at
    the first len(monomials) + 6 points, whose full column rank is checked
    once."""

    def __init__(self, polys):
        self.polys = polys
        self.degrees = [p.degree() for p in polys]
        self.rng = random.Random(_EVALUATION_SEED)
        self.points = []
        self.values = []
        self.by_degree = {}

    def degree(self, d):
        """(monomials, points, rows) for invariants of degree d."""
        plan = self.by_degree.get(d)
        if plan is None:
            monos = _weighted_monomials(self.degrees, d)
            count = len(monos) + 6
            n = self.polys[0].nvars
            while len(self.points) < count:
                pt = [self.rng.randint(-40, 40) for _ in range(n)]
                self.points.append(pt)
                self.values.append([p.evaluate(pt) for p in self.polys])
            rows = [[_eval_monomial(vals, e) for e in monos]
                    for vals in self.values[:count]]
            if mat_rank(rows) < len(monos):
                raise SolverFailure(
                    "evaluation points failed to separate monomials")
            plan = self.by_degree[d] = (monos, self.points[:count], rows)
        return plan


def _eval_monomial(vals, expt):
    out = Fraction(1)
    for v, e in zip(vals, expt):
        if e:
            out *= v ** e
    return out


def _integer_product(basis: InvariantBasis, expt):
    """prod_i p_i^expt_i as (polynomial, denominator, {exponent: integer
    numerator}).  Built as the product for expt less one unit of its first
    (lowest degree) nonzero exponent, times that invariant, and cached on
    the basis with every shorter product the chain passes through."""
    cache = basis._mono_cache
    hit = cache.get(expt)
    if hit is not None:
        return hit
    if not any(expt):
        poly = MultiPoly.const(len(expt), 1)
    else:
        i = next(k for k, e in enumerate(expt) if e)
        rest = expt[:i] + (expt[i] - 1,) + expt[i + 1:]
        poly = basis.polys[i]
        if any(rest):
            poly = poly * _integer_product(basis, rest)[0]
    den = lcm(*(c.denominator for c in poly.terms.values()))
    cache[expt] = out = (poly, den, {e: c.numerator * (den // c.denominator)
                                    for e, c in poly.terms.items()})
    return out


def express_in_invariants(q: MultiPoly, basis: InvariantBasis) -> MultiPoly:
    """Write the invariant z-polynomial q as a polynomial in the basis
    invariants, exactly.  Solves by evaluation at the basis's seeded
    integer points (`_EvaluationPlan`) and verifies by exact re-expansion,
    compared term by term on integer numerators over one common
    denominator."""
    n = basis.R.rank
    if q.is_zero():
        return MultiPoly.zero(n)
    monos, points, rows = basis._evaluation_plan.degree(q.degree())
    coeffs = solve(rows, [q.evaluate(pt) for pt in points])
    result = MultiPoly(n, {e: c for e, c in zip(monos, coeffs) if c})
    products = [(c, _integer_product(basis, e))
                for e, c in result.terms.items()]
    den = lcm(*(c.denominator * d for c, (_, d, _) in products),
              *(c.denominator for c in q.terms.values()))
    recon = {}
    get = recon.get
    for c, (_, d, ints) in products:
        f = c.numerator * (den // (c.denominator * d))
        for e, v in ints.items():
            recon[e] = get(e, 0) + f * v
    want = {e: c.numerator * (den // c.denominator)
            for e, c in q.terms.items()}
    if {e: v for e, v in recon.items() if v} != want:
        raise SolverFailure("re-expansion mismatch in invariant expression")
    return result


# ---------------------------------------------------------------------------
# flat coordinates

def convolution_matrix(basis: InvariantBasis):
    """g^{ab}(z) = (grad p^a, grad p^b) as z-polynomials."""
    n = basis.R.rank
    return _gram([[p.diff(k) for k in range(n)] for p in basis.polys],
                 basis.R._gram)


def _sqrt_fraction(c: Fraction):
    """Exact rational square root, or None."""
    if c < 0:
        return None
    pn, pd = isqrt(c.numerator), isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


def flat_coordinates(R: RootSystem, base=None) -> InvariantBasis:
    """Solve for a flat basis over `base` (default `basic_invariants(R)`):
    convolution, Christoffel data, flatness equations, normalization."""
    base = base or basic_invariants(R)
    n = R.rank
    degs = list(base.degrees)
    h = degs[-1]

    # contravariant invariant form in the p-frame, as p-polynomials
    gz = convolution_matrix(base)
    g_p = [[express_in_invariants(gz[a][b], base) if b >= a else None
            for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(a):
            g_p[a][b] = g_p[b][a]

    # eta^{ab}(p) = d g^{ab} / d p^n ; det must be a nonzero constant
    eta_p = [[g_p[a][b].diff(n - 1) for b in range(n)] for a in range(n)]
    det_eta = poly_det(eta_p)
    if not det_eta.is_constant() or det_eta.is_zero():
        raise SolverFailure("det of d g / d p^n is not a nonzero constant")
    c0 = det_eta.constant_value()

    # polynomial covariant inverse via cofactors
    eta_cov = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            minor = [[eta_p[i][j] for j in range(n) if j != b]
                     for i in range(n) if i != a]
            cof = poly_det(minor) if n > 1 else MultiPoly.const(n, 1)
            eta_cov[b][a] = cof * (Fraction((-1) ** (a + b)) / c0)

    # Christoffel symbols of eta in the p-frame (polynomial)
    half = Fraction(1, 2)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = MultiPoly.sum(n, (eta_p[k][l] * (eta_cov[l][j].diff(i)
                                                     + eta_cov[i][l].diff(j)
                                                     - eta_cov[i][j].diff(l))
                                      for l in range(n)))
                gamma[k][i][j] = gamma[k][j][i] = s * half

    # flatness equations per degree block
    by_degree = {}
    for d in sorted(set(degs)):
        mult = degs.count(d)
        monos = _weighted_monomials(degs, d)
        basis_polys = [MultiPoly(n, {e: Fraction(1)}) for e in monos]
        # linear map: ansatz coeffs -> PDE residual coefficients
        cols = []
        for bp in basis_polys:
            residual_terms = {}
            for i in range(n):
                for j in range(i, n):
                    resid = bp.diff(i).diff(j)
                    for k in range(n):
                        resid = resid - gamma[k][i][j] * bp.diff(k)
                    for e, c in resid.terms.items():
                        residual_terms[(i, j, e)] = \
                            residual_terms.get((i, j, e), Fraction(0)) + c
            cols.append(residual_terms)
        keys = sorted({k for col in cols for k in col},
                      key=lambda t: (t[0], t[1], t[2]))
        A = [[col.get(key, Fraction(0)) for col in cols] for key in keys]
        sols = nullspace(A) if A else \
            [[Fraction(int(i == j)) for j in range(len(cols))]
             for i in range(len(cols))]
        if len(sols) != mult:
            raise SolverFailure(
                f"degree {d}: flatness solution space has dimension "
                f"{len(sols)}, expected {mult}")
        block = []
        for v in sols:
            t = MultiPoly(n, {e: c for e, c in zip(monos, v) if c})
            block.append(t)
        by_degree[d] = block

    ts = []
    used = {d: 0 for d in by_degree}
    for d in degs:
        ts.append(by_degree[d][used[d]])
        used[d] += 1

    # self-consistent pairing: eta(dt^a, dt^b) = d g^{ab}(t) / d t^n, read
    # off in the frame of the flat basis itself.  By degree, p^n appears
    # only in t^n and there linearly with constant coefficient gamma, so
    # d/dt^n = (1/gamma) d/dp^n and the pairing is the p-frame pairing
    # contracted with the flat differentials, divided by gamma.
    e_top = tuple(int(i == n - 1) for i in range(n))
    gamma_top = ts[-1].terms.get(e_top, Fraction(0))
    if not gamma_top:
        raise SolverFailure(
            "top flat coordinate does not involve the top invariant")
    G = _gram([[t.diff(c) for c in range(n)] for t in ts], eta_p)
    if not all(s.is_constant() for row in G for s in row):
        raise SolverFailure("flat pairing is not constant")
    P0 = [[Fraction(0) if s.is_zero() else s.constant_value() / gamma_top
           for s in row] for row in G]
    tz = [t.substitute(base.polys) for t in ts]

    # normalize without rescaling the top flat coordinate, so the metric
    # (defined through d/dt^n) stays fixed under the transformation
    T, lam, normalized = _pairing_transform(P0, degs, h)
    ts = _apply_transform(T, ts)
    tz = _apply_transform(T, tz)
    pairing = [[x / lam for x in row]
               for row in matmul(matmul(T, P0), _transpose(T))]
    if normalized and pairing != _antidiag(n):
        raise SolverFailure("pairing normalization did not reach the "
                            "anti-diagonal identity")

    out = InvariantBasis(R, tz, flat=True, pairing=pairing,
                         normalized=normalized,
                         _chain_rule=(base, _constant_jacobian(ts)))
    out.polys_in_invariants = ts
    return out


def _constant_jacobian(ts):
    """det(dt^a/dp^b) for t^a weighted-homogeneous in the p^b (degree
    d_a, respectively d_b).  The entry has weighted degree d_a - d_b: zero
    when that is negative, and when it is zero the constant coefficient of
    p^b in t^a.  In degree order the matrix is block-triangular with these
    constant blocks on the diagonal, so its determinant is the product of
    theirs, which is the determinant of the linear part of t (the
    coefficient of p^b in t^a vanishes unless d_a = d_b)."""
    n = len(ts)
    unit = [tuple(int(i == b) for i in range(n)) for b in range(n)]
    return det_fraction([[t.terms.get(e, 0) for e in unit] for t in ts])


def _transpose(M):
    return [list(row) for row in zip(*M)]


def _apply_transform(T, ts):
    n = len(ts)
    return [MultiPoly.sum(ts[0].nvars,
                          (ts[b] * T[a][b] for b in range(n) if T[a][b]))
            for a in range(n)]


def _self_pairing(basis: InvariantBasis):
    """The constant matrix d g^{ab}(basis) / d (top invariant)."""
    n = basis.R.rank
    conv = convolution_matrix(basis)
    P = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            gt = express_in_invariants(conv[a][b], basis)
            entry = gt.diff(n - 1)
            if not entry.is_constant():
                raise SolverFailure("flat pairing is not constant")
            P[a][b] = P[b][a] = entry.constant_value() if not entry.is_zero() \
                else Fraction(0)
    return P


def _pairing_transform(C, degs, h):
    """A block transformation T (new = T old) taking the constant pairing C
    to the anti-diagonal identity where that is possible over the
    rationals.  Since the metric is defined through the top flat
    coordinate, rescaling that coordinate by lam rescales every pairing
    entry by 1/lam on top of the usual congruence; this extra freedom
    absorbs the square class of a one-dimensional self-dual block."""
    n = len(degs)
    top = n - 1
    blocks = {}
    for i, d in enumerate(degs):
        blocks.setdefault(d, []).append(i)
    lam = Fraction(1)
    if n == 1:
        lam = 1 / C[0][0]
    else:
        for d, idx in sorted(blocks.items()):
            if h + 2 - d == d and len(idx) == 1 and idx[0] != top \
                    and _sqrt_fraction(C[idx[0]][idx[0]]) is None:
                lam = C[idx[0]][idx[0]]
                break
    if lam != 1:
        T0 = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        T0[top][top] = lam
        C = [[C[i][j] * (lam if i == top else 1) * (lam if j == top else 1)
              / lam for j in range(n)] for i in range(n)]
    else:
        T0 = None
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n == 1:
        return (T0 if T0 is not None else T), lam, True
    normalized = True
    done = set()
    for d, idx in sorted(blocks.items()):
        if d in done:
            continue
        dual = h + 2 - d
        if dual not in blocks:
            raise SolverFailure("degrees do not pair up to h + 2")
        jdx = blocks[dual]
        mu = len(idx)
        done.add(d)
        done.add(dual)
        if d != dual:
            # transform whichever block avoids the top degree h
            fixed, moved = (jdx, idx) if dual == h else (idx, jdx)
            M = [[C[i][j] for j in moved] for i in fixed]
            # want C(fixed[i], new_moved[j]) = delta_{i + j, mu - 1}
            X = matmul(matinv(M), _antidiag(mu))
            for col in range(mu):
                for row in range(mu):
                    T[moved[col]][moved[row]] = X[row][col]
        else:
            S = [[C[i][j] for j in idx] for i in idx]
            if mu == 1:
                r = _sqrt_fraction(S[0][0])
                if r is None:
                    normalized = False
                else:
                    T[idx[0]][idx[0]] = 1 / r
            elif mu == 2:
                uv = _hyperbolic_basis(S)
                if uv is None:
                    normalized = False
                else:
                    u, v = uv
                    i0, i1 = idx
                    T[i0][i0], T[i0][i1] = u[0], u[1]
                    T[i1][i0], T[i1][i1] = v[0], v[1]
            else:
                normalized = False
    if T0 is not None:
        T = matmul(T, T0)
    return T, lam, normalized


def _hyperbolic_basis(S):
    """Rational basis (u, v) with S(u,u) = S(v,v) = 0, S(u,v) = 1, if one
    exists (iff -det S is a rational square)."""
    disc = S[0][1] ** 2 - S[0][0] * S[1][1]
    r = _sqrt_fraction(disc)
    if r is None:
        return None
    if S[0][0] != 0:
        u = [(-S[0][1] + r) / S[0][0], Fraction(1)]
    else:
        u = [Fraction(1), Fraction(0)]
    su = [S[0][0] * u[0] + S[0][1] * u[1],
          S[1][0] * u[0] + S[1][1] * u[1]]
    if su[0] != 0:
        v = [Fraction(1) / su[0], Fraction(0)]
    elif su[1] != 0:
        v = [Fraction(0), Fraction(1) / su[1]]
    else:
        return None
    svv = (S[0][0] * v[0] * v[0] + 2 * S[0][1] * v[0] * v[1]
           + S[1][1] * v[1] * v[1])
    v = [v[0] - svv / 2 * u[0], v[1] - svv / 2 * u[1]]
    return u, v


# ---------------------------------------------------------------------------
# covariant metric and restriction

def covariant_metric(basis: InvariantBasis):
    """The covariant metric sum (P^-1)_{ab} dp^a dp^b in the z-frame: the
    Gram contraction of the transposed gradients against P^-1."""
    n = basis.R.rank
    return _gram([[p.diff(r) for p in basis.polys] for r in range(n)],
                 basis.pairing_inv)


def restricted_saito_det(basis: InvariantBasis,
                         D: Stratum) -> FactoredDeterminant:
    """Restrict the covariant metric to the stratum parameters and factor
    the exact determinant over the restricted arrangement forms.  The
    metric is `covariant_metric`'s contraction of the restricted gradients.

    For a flat basis a complete factorization with exponents k_H is a
    theorem; for a non-flat basis IncompleteFactorization is a legal
    outcome and propagates to the caller."""
    if basis.R is not D.R and (basis.R.label, basis.R.rank) != \
            (D.R.label, D.R.rank):
        raise ValueError("basis and stratum use different groups")
    I0 = [i - 1 for i in sorted(D.I)]
    params0 = [j - 1 for j in D.params]
    M = _gram([[p.diff(r).set_vars_zero(I0) for p in basis.polys]
               for r in params0], basis.pairing_inv)
    return factor_linear(poly_det(M), [hp.form for hp in D.arrangement])


# ---------------------------------------------------------------------------
# the minor-formula route

class _MinorChain:
    """The minor formula of one basis on packed integers (`algebra._Packed`),
    on one layout wide enough for every k x k Bareiss step, k <= n.  J, the
    J_k and their first derivatives are packed once; the numerators
    J^2 eta^{ij} are built once per unordered pair and J^{2k-2} once per k,
    on first use (`_eta`, `_jpow`)."""

    def __init__(self, basis: InvariantBasis):
        n = basis.R.rank
        J, Jk = basis.jacobian_det, basis.minors
        # an entry J^2 eta^{ij} has degree e; Bareiss on k x k entries
        # forms products of two (k-1)-minors, of degree 2(k-1)e at most
        e = J.degree() - 1 + max(p.degree() for p in Jk)
        lay = _Layout(n, max(1, e, 2 * (n - 1) * e))
        self.J = _Packed.pack(J, lay)
        self.dJ = [_Packed.pack(J.diff(a), lay) for a in range(n)]
        # J_b and its derivatives carry the sign (-1)^(n+b) they have in eta
        signed = [p if (n + b) % 2 == 0 else -p for b, p in enumerate(Jk)]
        self.Jk = [_Packed.pack(p, lay) for p in signed]
        self.dJk = [[_Packed.pack(p.diff(a), lay) for a in range(n)]
                    for p in signed]
        self._eta = {}
        self._jpow = {}

    def eta(self, i, j):
        """J^2 eta^{ij} for 0-based i, j: the sum over (a, b) = (i, j) and
        (j, i) of (-1)^(n+b) (d_a J_b J - J_b d_a J)."""
        if i > j:
            i, j = j, i
        out = self._eta.get((i, j))
        if out is None:
            J, dJ, Jk, dJk = self.J, self.dJ, self.Jk, self.dJk
            out = (dJk[j][i] * J - Jk[j] * dJ[i]) \
                + (dJk[i][j] * J - Jk[i] * dJ[j])
            self._eta[i, j] = out
        return out

    def jpow(self, k):
        """J^{2k-2}, for k >= 2."""
        out = self._jpow.get(k)
        if out is None:
            out = self.J * self.J if k == 2 else self.jpow(k - 1) * self.jpow(2)
            self._jpow[k] = out
        return out


def general_formula_det(basis: InvariantBasis, D: Stratum) -> MultiPoly:
    """-P_D where P = J^2 det(eta^{ij})_{i,j in I}.

    The chain stays on packed integers (`_MinorChain`, cached on the
    basis): `poly_det` eliminates on the packed k x k matrix of numerators
    J^2 eta^{ij}, the result is divided exactly by J^{2k-2} on the full
    polynomial, before restricting, which witnesses the well-defined limit
    (a remainder raises `NotDivisible`), and only the quotient's terms with
    z_I = 0 are unpacked.  On the 22 strata of A3, B3 and D4 up to
    codimension 2 this takes a median of 0.60 s against 0.89 s for the same
    chain on `MultiPoly`s rebuilt per stratum (six alternating runs, 2
    cores); D4's six codimension-2 strata are most of it."""
    I0 = [i - 1 for i in sorted(D.I)]
    if not I0:
        raise ValueError("need |I| >= 1")
    chain = basis._minor_chain
    k = len(I0)
    num = poly_det([[chain.eta(i, j) for j in I0] for i in I0])
    P = num if k == 1 else num // chain.jpow(k)
    return -P.unpack(I0)


def frame_constant(basis: InvariantBasis, D: Stratum) -> Fraction:
    """The exact constant c with

        restricted_saito_det(basis, D) == c * general_formula_det(basis, D).

    Two sources: the Jacobian det(G)^2, G = ((w^i, w^j))_{i,j not in I},
    between the parameter frame x = sum s_j w^j and the coweight
    coordinates (w^i, x) used by the minor formula, and -1/det(pairing)
    from the determinant of the unrestricted metric in coweight
    coordinates being J^2/det(pairing) rather than -J^2."""
    R = basis.R
    idx = [j - 1 for j in D.params]
    G = [[sum(Fraction(a) * Fraction(b)
              for a, b in zip(R.coweights[i], R.coweights[j]))
          for j in idx] for i in idx]
    return -det_fraction(G) ** 2 / det_fraction(basis.pairing)


# ---------------------------------------------------------------------------
# structural checks

def identity_field_checks(basis: InvariantBasis):
    """Exact divisibility / proportionality / sign / tangency checks on the
    Jacobian minors and the inverse identity field.  Returns a report
    listing each check with a pass flag; never raises on failure."""
    R = basis.R
    n = R.rank
    h = R.coxeter_number
    Jk = basis.minors
    report = []

    def add(name, passed, detail=""):
        report.append({"check": name, "passed": bool(passed),
                       "detail": detail})

    # divisibility of J_k by every root inside the span of the other
    # simple roots, and non-divisibility by alpha_k itself
    for k in range(n):
        alphas = [b for b in R.positive_roots if b[k] == 0]
        ok = all(try_divide(Jk[k], MultiPoly.linear(b)) is not None
                 for b in alphas)
        add(f"minor_divisibility_k={k + 1}", ok,
            f"{len(alphas)} root forms")
        zk = MultiPoly.variable(n, k)
        add(f"minor_nondivisibility_k={k + 1}",
            try_divide(Jk[k], zk) is None)

    # every stratum of codimension 1 and 2, built once; a rank-1 group has
    # none, its one mirror being the origin
    strata = {I: make_stratum(R, I) for codim in (1, 2) if codim < n
              for I in combinations(range(1, n + 1), codim)}

    # restriction of J_k to its own mirror is the reduced defining
    # polynomial of the restricted arrangement
    for I, D in strata.items():
        if len(I) != 1:
            continue
        k = I[0] - 1
        rk = Jk[k].set_vars_zero([k])
        try:
            forms = [hp.form for hp in D.arrangement]
            detail = f"|A_D| = {len(forms)}"
            fd = factor_linear(rk, forms)
            ok = all(e == 1 for e in fd.factors.values()) \
                and len(fd.factors) == len(forms)
        except IncompleteFactorization:
            ok = False
        except InvariantViolation as exc:
            ok, detail = False, str(exc)
        add(f"minor_restriction_k={k + 1}", ok, detail)

    # sign relation between I_l and I_m on codimension-2 strata whose
    # rank-2 subsystem has more than two positive roots
    Ik = {}
    for k in range(n):
        q = Jk[k]
        for j in range(n):
            if j != k:
                q = divide_exact(q, MultiPoly.variable(n, j))
        Ik[k] = q
    for l, m in combinations(range(n), 2):
        sub = span_subsystem(R, [R.simple[l], R.simple[m]])
        if sub.size // 2 <= 2:
            continue
        lhs = Ik[m].set_vars_zero([l, m])
        rhs = Ik[l].set_vars_zero([l, m]) * ((-1) ** ((l - m - 1) % 2))
        add(f"minor_sign_relation_{l + 1}{m + 1}", lhs == rhs,
            f"subsystem size {sub.size // 2}")

    # tangency of the inverse identity field to every stratum (flat basis)
    if basis.flat:
        for I, ok in _identity_tangency(basis, strata).items():
            add("inverse_identity_tangency_I=" +
                ",".join(str(i) for i in I), ok)
        # degree count of the inverse identity field components
        degs = basis.degrees
        add("inverse_identity_degree",
            all(degs[a] + degs[n - 1 - a] - 1 == h + 1 for a in range(n)))
    return report


def _identity_one_form(basis: InvariantBasis):
    """theta(alpha_k) for each simple root, read off the Jacobian, where
    theta(gamma) = sum_ab (P^-1)_ab deg_a t^a d_gamma t^b is the inverse
    identity 1-form; it is linear in gamma."""
    n = basis.R.rank
    Pinv = basis.pairing_inv
    weighted = [basis.polys[a] * basis.degrees[a] for a in range(n)]
    return [MultiPoly.sum(n, (weighted[a] * basis.jacobian[b][k] * Pinv[a][b]
                              for a in range(n) for b in range(n)
                              if Pinv[a][b]))
            for k in range(n)]


def _identity_tangency(basis: InvariantBasis, strata):
    """Whether theta(gamma) = sum_k gamma_k theta(alpha_k) vanishes on each
    stratum for every positive root gamma of R_D."""
    one_form = _identity_one_form(basis)
    out = {}
    for I, D in strata.items():
        theta = [f.set_vars_zero([i - 1 for i in I]) for f in one_form]
        out[I] = all(
            MultiPoly.sum(D.dim,
                          (theta[k] * g for k, g in enumerate(gamma) if g))
            .is_zero()
            for gamma in D.rd.roots if any(x > 0 for x in gamma))
    return out
