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
A basis builds its Jacobian and its minors once, on first read, and the
inverse identity 1-form once per check, so the per-stratum work is
restriction plus one determinant.

`express_in_invariants` finds the coefficients of an invariant q of degree
d in a basis from q's own coefficients, and certifies them by exact
re-expansion.  Per degree, a basis keeps one plan: the m products p^e of
the invariants of weighted degree d (cached on the basis), and m
z-monomials at which their coefficient rows are independent, whose rank
is checked once.  A call reads q's coefficients there and solves the
m x m system.  The re-expansion is one sum of the coefficients times the
products, compared with q.  In an algebraically independent basis the
p^e are independent, so the coefficients are unique, and the choice of
z-monomials never shows in the output.

Every basis has one Jacobian rule, J = c prod_{beta > 0} beta (Humphreys,
"Reflection groups and Coxeter groups", 1990, ch. 3), whose premise is
homogeneous W-invariants of the degrees of W: J is then anti-invariant,
so each mirror form divides it, and deg J = sum (d_i - 1) = |R+|.
`_certify_forms` certifies the invariance of `basic_invariants`, and
every other basis is a polynomial in them.  c is read at z_0 = (1, ...,
1), where each positive root is its height and the Jacobi matrix is the
gradients of the p^i there times the Gram matrix, and c != 0 is
algebraic independence.  The Jacobi matrix's determinant, expanded, is
an oracle in the tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import isqrt, prod
from operator import mul

from .algebra import (MultiPoly, FactoredDeterminant, poly_det, minor_table,
                      divide_exact, try_divide, factor_linear,
                      IncompleteFactorization, InvariantViolation)
from .exactla import (IntSpan, matinv, matmul, det_fraction, nullspace,
                      solve, rank as mat_rank)
from .roots import RootSystem, build_root_system, span_subsystem
from .strata import Stratum, make_stratum


class DegenerateBasis(ValueError):
    """The candidate invariants have the wrong degrees or a vanishing
    Jacobian.

    Perturbing the offending invariant by products of lower-degree ones
    restores algebraic independence."""


class SolverFailure(RuntimeError):
    """An exact linear system in the flat-coordinate pipeline was
    inconsistent or had the wrong solution-space dimension."""


# ---------------------------------------------------------------------------
# frames and derivatives

def _gradient_at_ones(p: MultiPoly):
    """(d_k p)(1, ..., 1) for each variable k: the sum over p's terms of
    the coefficient times the exponent of z_k, read off the packed terms."""
    coeffs = list(p.nums.values())
    return [Fraction(sum(map(mul, coeffs, col)), p.den)
            for col in zip(*map(p.layout.exponents, p.nums))]


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


def _antidiag(n):
    return [[Fraction(int(i + j == n - 1)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# invariant bases

class InvariantBasis:
    """n homogeneous W-invariants p^1..p^n (z-polynomials, degrees
    ascending) with Jacobian J = c prod_{beta > 0} beta, c =
    `jacobian_scale` != 0 (module docstring).  Degrees and homogeneity
    are checked here, invariance is not: every basis the package builds
    is `basic_invariants` or a polynomial in them, and the CLI takes no
    outside polynomials.

    `pairing` is the constant matrix eta(dp^a, dp^b): the anti-diagonal
    identity by convention for a non-flat basis (the generalized constant
    metric sum_i dp^i dp^{n+1-i}), the verified flat pairing for solver
    output.  `normalized` records whether that pairing is exactly the
    anti-diagonal identity; on solver output it always agrees with the
    flag of `_pairing_transform`, whose docstring proves it."""

    def __init__(self, R: RootSystem, polys, flat=False, pairing=None):
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
        self.normalized = self.pairing == _antidiag(R.rank)
        # products of the invariants, keyed by exponent tuple, and per
        # degree the plan of `express_in_invariants` (`_coefficient_plan`)
        self._mono_cache = {}
        self._coefficient_plans = {}
        # J(z0) = grad p(z0) times the Gram matrix, so c is read off one
        # n x n rational matrix, without the Jacobian's polynomials
        self.jacobian_scale = det_fraction(
            matmul([_gradient_at_ones(p) for p in self.polys], R._gram)) \
            / prod(sum(beta) for beta in R.positive_roots)
        if not self.jacobian_scale:
            raise DegenerateBasis(
                "Jacobian vanishes: invariants are algebraically dependent; "
                "perturb by products of lower invariants")

    @cached_property
    def jacobian(self):
        """The directional Jacobi matrix (d p^i / d alpha_j), built on first
        read; nothing reads the one of the basic basis in
        `flat_coordinates`.  As d/d(alpha_j) = sum_k (alpha_k, alpha_j)
        d/dz_k, row i is one `int_combinations` of p^i's n partial
        derivatives against the integer Gram matrix `_igram`, scaled by
        the one rational that takes `_igram` to the Gram matrix."""
        R, n = self.R, self.R.rank
        scale = R._gram[0][0] / R._igram[0][0]
        return [[f * scale for f in MultiPoly.int_combinations(
                    n, [p.diff(k) for k in range(n)], R._igram)]
                for p in self.polys]

    @cached_property
    def minors(self):
        """J_k for k = 1..n, built on first access: the maximal minors of
        the directional Jacobi matrix without its n-th row, J_k the one
        without the k-th column, all read from one `minor_table`."""
        n = self.R.rank
        minor = minor_table(lambda i, j: self.jacobian[i][j],
                            MultiPoly.const(n, 1))
        rows, cols = tuple(range(n - 1)), tuple(range(n))
        return [minor(rows, cols[:k] + cols[k + 1:]) for k in range(n)]

    @cached_property
    def _minor_chain(self):
        """The inputs of `general_formula_det`, built on first access;
        `flat_coordinates` never touches them."""
        return _MinorChain(self)

    def __repr__(self):
        tag = "flat" if self.flat else "basic"
        return f"<InvariantBasis {self.R.label}{self.R.rank} {tag} deg={self.degrees}>"


def _certify_forms(R: RootSystem, forms, degrees):
    """Raise InvariantViolation unless each simple reflection s_i permutes
    the linear forms (z-coefficient vectors) whose power sums of `degrees`
    are to be invariant: exactly for A_n, else up to sign with even
    degrees, and for D_n flipping an even number of signs, so that the
    product of the forms is invariant too.  f o s_i has the coefficient
    vector s_i(f) (`RootSystem.reflect`), as z_k o s_i = (s_i a_k, x)."""
    exact = R.label == "A"
    if not exact and any(d % 2 for d in degrees):
        raise InvariantViolation("an odd power sum of forms permuted only "
                                 "up to sign")

    def classes(vs):
        return Counter(vs if exact else
                       (max(v, tuple(-x for x in v)) for v in vs))
    own, want = set(forms), classes(forms)
    for i in range(R.rank):
        images = [R.reflect(i, f) for f in forms]
        if classes(images) != want:
            raise InvariantViolation(f"s_{i + 1} does not permute the forms")
        if R.label == "D" and sum(g not in own for g in images) % 2:
            raise InvariantViolation(
                f"s_{i + 1} flips an odd number of the forms' signs")


def basic_invariants(R: RootSystem) -> InvariantBasis:
    """Power sums of linear forms, certified by `_certify_forms`: of the
    ambient coordinate forms x_a (x = sum_i z_i w^i, so x_a has the
    coweight column) for A_n, B_n and D_n, with the product x_1...x_n for
    D_n, and of the positive roots for F_4.  E_6, E_7 and E_8 raise
    ValueError."""
    if R.label in ("A", "B", "D"):
        forms = [tuple(w[a] for w in R.coweights)
                 for a in range(R.ambient_dim)]
    elif R.label == "F":
        forms = list(R.positive_roots)
    else:
        raise ValueError(f"no basic invariants for {R.label}{R.rank}; "
                         f"built for A_n, B_n = C_n, D_n and F4")
    degrees = range(2, 2 * R.rank - 1, 2) if R.label == "D" else R.degrees
    _certify_forms(R, forms, degrees)
    xs = [MultiPoly.linear(f) for f in forms]
    polys = [MultiPoly.sum(R.rank, (x ** d for x in xs)) for d in degrees]
    if R.label == "D":
        pf = MultiPoly.const(R.rank, 1)
        for x in xs:
            pf = pf * x
        polys = sorted(polys + [pf], key=lambda p: p.degree())
    return InvariantBasis(R, polys, flat=False)


def quartic_family_d3(a, b) -> InvariantBasis:
    """The two-parameter D_3 basis p1 = (1/8) sum x^2, p2 = x1 x2 x3,
    p3 = a sum x^4 + b p1^2 (a != 0), built from the certified
    `basic_invariants` of D_3: sum x^2, x1 x2 x3 and sum x^4."""
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise DegenerateBasis("a = 0 makes p3 a multiple of p1^2")
    base = basic_invariants(build_root_system("D", 3))
    b0, p2, b2 = base.polys
    p1 = b0 * Fraction(1, 8)
    return InvariantBasis(base.R, [p1, p2, b2 * a + p1 * p1 * b], flat=False)


# ---------------------------------------------------------------------------
# expressing invariants in a basis (coefficient solve + re-expansion)

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


def _invariant_product(basis: InvariantBasis, expt):
    """prod_i p_i^expt_i, built as the product for expt less one unit of its
    first (lowest degree) nonzero exponent, times that invariant, and
    cached on the basis with every shorter product the chain passes
    through."""
    cache = basis._mono_cache
    out = cache.get(expt)
    if out is None:
        if not any(expt):
            out = MultiPoly.const(len(expt), 1)
        else:
            i = next(k for k, e in enumerate(expt) if e)
            rest = expt[:i] + (expt[i] - 1,) + expt[i + 1:]
            out = basis.polys[i]
            if any(rest):
                out = out * _invariant_product(basis, rest)
        cache[expt] = out
    return out


def _coefficient_plan(basis: InvariantBasis, d):
    """(monomials, z-monomials, rows) for invariants of degree d, built
    once per basis and degree: the m weighted monomials e of degree d, the
    first m z-monomials, in packed-key order, at which the coefficient
    rows of the products p^e are linearly independent (one `IntSpan`
    pass), and those m x m rows, whose rank is checked here."""
    plan = basis._coefficient_plans.get(d)
    if plan is None:
        monos = _weighted_monomials(basis.degrees, d)
        prods = [_invariant_product(basis, e) for e in monos]
        lay = max((p.layout for p in prods), key=lambda lay: lay.width,
                  default=None)
        nums = [p.layout.move(p.nums, lay) for p in prods]
        # the integer rows are the rational ones with column j scaled by
        # the denominator of p^e_j, so they are independent alike
        span, zmonos, rows = IntSpan(len(prods)), [], []
        for k in sorted(set().union(*nums)):
            if span.add([c.get(k, 0) for c in nums]):
                zmonos.append(lay.exponents(k))
                rows.append([Fraction(c.get(k, 0), p.den)
                             for c, p in zip(nums, prods)])
                if span.rank == len(prods):
                    break
        if mat_rank(rows) < len(monos):
            raise SolverFailure("products of the invariants are dependent")
        plan = basis._coefficient_plans[d] = (monos, zmonos, rows)
    return plan


def express_in_invariants(q: MultiPoly, basis: InvariantBasis) -> MultiPoly:
    """Write the invariant z-polynomial q as a polynomial in the basis
    invariants, exactly.  Reads q's coefficients at the z-monomials of the
    basis's plan for q's degree (`_coefficient_plan`), solves for the
    coefficients c_e, and verifies by exact re-expansion: the sum of c_e
    p^e must equal q, or q is not in their span and ValueError is raised."""
    n = basis.R.rank
    if q.is_zero():
        return MultiPoly.zero(n)
    monos, zmonos, rows = _coefficient_plan(basis, q.degree())
    coeffs = solve(rows, [q.coefficient(e) for e in zmonos]) if rows else []
    pairs = [(e, c) for e, c in zip(monos, coeffs) if c]
    if MultiPoly.sum(n, (_invariant_product(basis, e) * c
                         for e, c in pairs)) != q:
        raise ValueError("inconsistent linear system: q is not in the span "
                         "of the products of the invariants")
    return MultiPoly(n, dict(pairs))


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


def _flat_nullspaces(eta, degs):
    """(d, monos, null space) for each degree d of `degs`, ascending: the
    null space of the raised-index flatness equations of `flat_coordinates`
    on the ansatz sum_e x_e p^e over the p-monomials e of weighted degree d,
    one row per (i <= j, p-monomial) of a residual."""
    n = len(eta)
    d_eta = [[[x.diff(a) for a in range(n)] for x in row] for row in eta]
    for d in sorted(set(degs)):
        monos, rows = _weighted_monomials(degs, d), {}
        for m, e in enumerate(monos):
            t = MultiPoly(n, {e: 1})
            V = [MultiPoly.sum(n, (eta[j][c] * t.diff(c)
                                   for c in range(n) if e[c]))
                 for j in range(n)]
            dV = [[v.diff(a) for a in range(n)] for v in V]
            W = [[MultiPoly.sum(n, (eta[i][a] * dV[j][a] for a in range(n)))
                  for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i, n):
                    r = MultiPoly.sum(n, [W[i][j], W[j][i]] + [
                        -(V[a] * d_eta[i][j][a]) for a in range(n)])
                    for e, c in r.terms.items():
                        rows.setdefault((i, j, e), {})[m] = c
        A = [[row.get(m, 0) for m in range(len(monos))]
             for row in rows.values()]
        yield d, monos, nullspace(A or [[0] * len(monos)])


def flat_coordinates(R: RootSystem, base=None) -> InvariantBasis:
    """Solve for a flat basis over `base` (default `basic_invariants(R)`).
    Stages: the convolution g^{ab} in the invariants p; the Saito metric
    eta^{ab}(p) = d g^{ab} / d p^n, whose determinant must be a nonzero
    constant; per degree, the flatness null space (`_flat_nullspaces`);
    the pairing and its normalization.

    t is flat when H_ab = d_a d_b t - Gamma^c_ab d_c t vanishes.  By
    d eta_{..} = -eta_{..} (d eta^{..}) eta_{..}, eta^{ia} eta^{jb} H_ab =
    eta^{ia} eta^{jb} d_a d_b t + (F^{ijc} + F^{jic} - F^{cij}) d_c t / 2,
    F^{ijc} = eta^{ia} d_a eta^{jc} (Dubrovin, "Geometry of 2D topological
    field theories", Lecture 3).  With V^j = eta^{jc} d_c t, F^{ijc} d_c t
    = eta^{ia} d_a V^j - eta^{ia} eta^{jc} d_a d_c t, so

        2 eta^{ia} eta^{jb} H_ab = eta^{ia} d_a V^j + eta^{ja} d_a V^i
                                   - V^a d_a eta^{ij}:

    polynomials in eta^{ab}(p), with no inverse of eta and no covariant
    Christoffel symbol.  det eta is a nonzero constant, so eta is
    invertible over the polynomials and each degree's kernel is that of
    H_ab = 0.  `nullspace` scales its basis to 1 at the free columns of
    the kernel's annihilator, whose reduced row echelon form is unique:
    the output is that of the covariant form (the oracle in
    `tests/test_saitosym.py`)."""
    base = base or basic_invariants(R)
    n = R.rank
    degs = list(base.degrees)

    gz = convolution_matrix(base)
    eta_p = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            eta_p[a][b] = eta_p[b][a] = \
                express_in_invariants(gz[a][b], base).diff(n - 1)
    det_eta = poly_det(eta_p)
    if not det_eta.is_constant() or det_eta.is_zero():
        raise SolverFailure("det of d g / d p^n is not a nonzero constant")

    ts = []
    for d, monos, sols in _flat_nullspaces(eta_p, degs):
        if len(sols) != degs.count(d):
            raise SolverFailure(
                f"degree {d}: flatness solution space has dimension "
                f"{len(sols)}, expected {degs.count(d)}")
        ts += [MultiPoly(n, {e: c for e, c in zip(monos, v) if c})
               for v in sols]

    # self-consistent pairing: eta(dt^a, dt^b) = d g^{ab}(t) / d t^n, read
    # off in the frame of the flat basis itself.  By degree, p^n appears
    # only in t^n and there linearly with constant coefficient gamma, so
    # d/dt^n = (1/gamma) d/dp^n and the pairing is the p-frame pairing
    # contracted with the flat differentials, divided by gamma.
    gamma_top = ts[-1].coefficient(tuple(int(i == n - 1) for i in range(n)))
    if not gamma_top:
        raise SolverFailure(
            "top flat coordinate does not involve the top invariant")
    G = _gram([[t.diff(c) for c in range(n)] for t in ts], eta_p)
    if not all(s.is_constant() for row in G for s in row):
        raise SolverFailure("flat pairing is not constant")
    P0 = [[s.constant_value() / gamma_top for s in row] for row in G]
    tz = [t.substitute(base.polys) for t in ts]

    # normalize; the metric is defined through d/dt^n, so scaling the top
    # flat coordinate by lam also divides the pairing by lam
    T, lam, normalized = _pairing_transform(P0, degs)
    ts = _apply_transform(T, ts)
    tz = _apply_transform(T, tz)
    pairing = [[x / lam for x in row]
               for row in matmul(matmul(T, P0), _transpose(T))]
    if normalized and pairing != _antidiag(n):
        raise SolverFailure("pairing normalization did not reach the "
                            "anti-diagonal identity")

    out = InvariantBasis(R, tz, flat=True, pairing=pairing)
    out.polys_in_invariants = ts
    return out


def _transpose(M):
    return [list(row) for row in zip(*M)]


def _apply_transform(T, ts):
    n = len(ts)
    return [MultiPoly.sum(ts[0].nvars,
                          (ts[b] * T[a][b] for b in range(n) if T[a][b]))
            for a in range(n)]


def _pairing_transform(C, degs):
    """(T, lam, normalized): the transformation T (new = T old) and scale
    lam of the top flat coordinate that take the constant pairing C to the
    anti-diagonal identity where that is possible, by one rule of the
    degrees (h = degs[-1]).  The metric is defined through the top flat
    coordinate, so scaling it by lam also divides the pairing by lam.

    C pairs degree d only with h + 2 - d.  Per pair d < h + 2 - d, the
    block that avoids h moves onto the anti-diagonal of the other.  A
    single coordinate i of the self-dual degree (h + 2)/2 goes to
    1/sqrt(C_ii), after lam = C_ii has made C_ii a square if it was not
    one (lam = 1/C_ii when i is the top index: A1, n = 1).

    A self-dual degree of multiplicity two stays, and normalized=False.
    Only D_n, n = 2k, has one: sum x^n and Pf = x_1 ... x_n in the forms
    x_a, with g(dx_a, dx_b) = delta_ab.  At p = 0 only the linear parts
    of the flat coordinates count, and there eta = d g / d p^n, p^n =
    sum x^{2n-2}, is diag(n^2, 1/(n-1)) on span{d sum x^n, dPf}:
    g(d sum x^n, d sum x^n) = n^2 sum x^{2n-2}; g(dPf, dPf) = e_{n-1}(x^2),
    whose sum x^{2n-2} coefficient is 1/(n-1) by Newton's identities; and
    g(d sum x^n, dPf) = n Pf sum x^{n-2} has no p^n term.  So the block is
    S = L diag(n^2, 1/(n-1)) L^T / gamma (L rational, gamma the p^n
    coefficient of the top flat coordinate): definite, with det S =
    n^2/(n-1) times a rational square.  Any real T and lam leave a block
    of determinant det(T)^2 det S / lam^2 > 0, never the -1 of the
    anti-diagonal identity.  D4: det S = 625/243 = (16/3)(25/36)^2."""
    n, h, top = len(degs), degs[-1], len(degs) - 1
    at = {d: [i for i, e in enumerate(degs) if e == d] for d in degs}
    if any(h + 2 - d not in at for d in at):
        raise SolverFailure("degrees do not pair up to h + 2")
    mid = [i for i, d in enumerate(degs) if 2 * d == h + 2]
    lam = Fraction(1)
    if len(mid) == 1:
        c = C[mid[0]][mid[0]]
        if mid == [top]:
            lam = 1 / c
        elif _sqrt_fraction(c) is None:
            lam = c
    C = [[C[i][j] * (lam if i == top else 1) * (lam if j == top else 1)
          / lam for j in range(n)] for i in range(n)]
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for d, block in at.items():
        if 2 * d < h + 2:
            dual = at[h + 2 - d]
            fixed, moved = (dual, block) if h + 2 - d == h else (block, dual)
            # C(fixed[i], new moved[j]) = delta_{i + j, len(moved) - 1}
            X = matmul(matinv([[C[i][j] for j in moved] for i in fixed]),
                       _antidiag(len(moved)))
            for col, a in enumerate(moved):
                for row, b in enumerate(moved):
                    T[a][b] = X[row][col]
    if len(mid) == 1:
        T[mid[0]][mid[0]] = 1 / _sqrt_fraction(C[mid[0]][mid[0]])
    T[top][top] *= lam
    return T, lam, len(mid) < 2


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
    """The inputs of the minor formula of one basis.

    With w_b = (-1)^(n+b) J_b and v = grad J, the numerators J^2 eta^{ab}
    are N = J S - w v^T - v w^T, where S_ab = d_a w_b + d_b w_a.  v only
    ever meets J as v / J, and J = c prod_{beta > 0} beta gives

        v_b / J = sum_beta beta_b / beta,

    with beta_b the coefficient of z_b in the root beta (c cancels).  So a
    sum over b of polynomials g_b times v_b, divided by J, is the sum over
    the positive roots of (sum_b beta_b g_b) / beta (`per_root`), and the
    chain holds neither v nor J.  w is built once; S_ab and y_ab =
    (v_a w_b - w_a v_b) / J = sum_beta (beta_a w_b - beta_b w_a) / beta
    once per unordered pair, on first use (`_S`, `_y`).  J itself is never
    expanded: k = 1 needs only (d_i J)|_{z_i = 0} (`dJ`), and k >= 3
    divides by c and by each root form in turn.  `one` is the empty
    minor."""

    def __init__(self, basis: InvariantBasis):
        n = basis.R.rank
        self.basis = basis
        # J_b carries the sign (-1)^(n+b) it has in eta
        self.w = [p if (n + b) % 2 == 0 else -p
                  for b, p in enumerate(basis.minors)]
        self.roots = basis.R.positive_roots
        self.forms = [MultiPoly.linear(beta) for beta in self.roots]
        self._S = {}
        self._y = {}
        self.one = MultiPoly.const(n, 1)

    def S(self, a, b):
        """d_a w_b + d_b w_a, for 0-based a, b."""
        if a > b:
            a, b = b, a
        out = self._S.get((a, b))
        if out is None:
            w = self.w
            out = self._S[a, b] = w[b].diff(a) + w[a].diff(b)
        return out

    def y(self, a, b):
        """(v_a w_b - w_a v_b) / J for 0-based a < b; `NotDivisible` if J
        does not divide it."""
        out = self._y.get((a, b))
        if out is None:
            w = self.w
            out = self._y[a, b] = self.per_root(
                [w[a], w[b]], [(-beta[b], beta[a]) for beta in self.roots])
        return out

    def dJ(self, i):
        """(d_i J)|_{z_i = 0}, in the n - 1 other variables.  J = c z_i
        prod_{beta != alpha_i} beta, so d_i J = c prod_{beta != alpha_i}
        beta + z_i (...), and on z_i = 0 that is the product of the other
        roots restricted: the forms that do not vanish there, as alpha_i is
        the one positive root proportional to z_i."""
        restricted = (form.set_vars_zero([i]) for form in self.forms)
        return prod((f for f in restricted if not f.is_zero()),
                    start=MultiPoly.const(self.basis.R.rank - 1,
                                          self.basis.jacobian_scale))

    def per_root(self, polys, rows):
        """sum_beta (sum_j rows[beta][j] polys[j]) / beta over the positive
        roots, one row of ints per root, with a zero numerator skipped.

        The roots are pairwise non-proportional, so coprime, and the sum is
        a polynomial iff each beta divides its own numerator: only the beta
        term can have a pole along beta = 0.  Each division is an exact
        `divide_exact` and raises `NotDivisible` on a remainder, so this
        raises exactly when J does not divide the sum over b of g_b v_b
        that it stands for."""
        n = polys[0].nvars
        return MultiPoly.sum(n, (
            num // form for num, form in
            zip(MultiPoly.int_combinations(n, polys, rows), self.forms)
            if not num.is_zero()))


def general_formula_det(basis: InvariantBasis, D: Stratum) -> MultiPoly:
    """-P_D where P = J^2 det(eta^{ij})_{i,j in I}, k = |I|.

    With the numerators N = J S - w v^T - v w^T of `_MinorChain`,
    P = det N_I / J^{2k-2}.  For k = 1 that is P = J S_ii - 2 w_i v_i, and
    J vanishes on D (z_i divides it), so -P_D = 2 w_i|_D (d_i J)|_D: a
    product of two restricted polynomials.  For k >= 2 the rank-2 update
    expands exactly.  Take A = J S_I (symmetric), X = [w v] (k x 2) and
    G = X^T A^-1 X.  The matrix determinant lemma gives

        det N_I = det A ((1 - G_wv)^2 - G_ww G_vv)
                = det A - 2 w^T adj(A) v - det A det G.

    Cauchy-Binet expands det G over the pairs a < b, c < d of I: the 2 x 2
    minors of X are -Y_ab, Y_ab = v_a w_b - w_a v_b, and by Jacobi's
    theorem det A times a 2 x 2 minor of A^-1 is a complementary
    (k-2)-minor of A.  As A = J S_I,

        det N_I = J^{k-2} [J^2 det S_I - 2 J w^T adj(S_I) v
                  - sum (-1)^(a+b+c+d) Y_ab Y_cd det S_I[I-{a,b}, I-{c,d}]],

    with signs by position in I and an empty minor 1.  So with
    x = w^T adj(S_I) v / J, y = Y / J and Q the same sum over y_ab y_cd,

        P = (det S_I - 2 x - Q) / J^{k-2}.

    v enters only through v / J = sum_beta beta_b / beta (`_MinorChain`),
    so with u_b = sum_a w_a adj(S_I)_ab,

        x = sum_beta (sum_b beta_b u_b) / beta,
        y_ab = sum_beta (beta_a w_b - beta_b w_a) / beta,

    one exact division by a linear form per root whose numerator is not
    zero, on the full polynomial, before restricting.  Together they raise
    `NotDivisible` exactly when the division by J they replace would.  The
    k - 2 divisions of P by J = c prod_{beta > 0} beta are one scaling by
    c^{-(k-2)} and k - 2 exact divisions by each root form in turn; the
    roots are coprime, so these raise exactly when a division by J would.
    If all succeed, det N_I = J^{2k-2} P: the witness of the well-defined
    limit that the division of det N_I by J^{2k-2} gives, with J | Y_ab
    checked besides.  Only then is P restricted to z_I = 0.  Neither v nor
    J is ever formed."""
    I0 = [i - 1 for i in sorted(D.I)]
    if not I0:
        raise ValueError("need |I| >= 1")
    chain = basis._minor_chain
    w, S, y = chain.w, chain.S, chain.y
    n, k = basis.R.rank, len(I0)
    if k == 1:
        i, = I0
        return w[i].set_vars_zero(I0) * chain.dJ(i) * 2
    minor = minor_table(S, chain.one)

    def cofactor(p, q):
        """(-1)^(sum p + sum q) det S_I without the rows at the positions p
        and the columns at the positions q."""
        m = minor(tuple(a for r, a in enumerate(I0) if r not in p),
                  tuple(a for c, a in enumerate(I0) if c not in q))
        return m if (sum(p) + sum(q)) % 2 == 0 else -m

    # u_b = sum_a w_a adj(S_I)_ab: the short w_a meet the minors first
    u = [MultiPoly.sum(n, (w[a] * cofactor((p,), (q,))
                           for p, a in enumerate(I0)))
         for q in range(k)]
    x = chain.per_root(u, [[beta[b] for b in I0] for beta in chain.roots])
    # Q is symmetric in its two pairs: a pair of pairs i < j counts twice
    pairs = list(combinations(range(k), 2))
    ys = [y(I0[a], I0[b]) for a, b in pairs]
    Q = MultiPoly.sum(n, (
        ys[i] * ys[j] * cofactor(pairs[i], pairs[j]) * (1 if i == j else 2)
        for i, j in combinations_with_replacement(range(len(pairs)), 2)))
    P = (minor(tuple(I0), tuple(I0)) - x * 2 - Q) \
        * basis.jacobian_scale ** (2 - k)
    for form in chain.forms * (k - 2):
        P = P // form
    return -P.set_vars_zero(I0)


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
        npos = sum(c.size for c in span_subsystem(R, (l + 1, m + 1))) // 2
        if npos <= 2:
            continue
        lhs = Ik[m].set_vars_zero([l, m])
        rhs = Ik[l].set_vars_zero([l, m]) * ((-1) ** ((l - m - 1) % 2))
        add(f"minor_sign_relation_{l + 1}{m + 1}", lhs == rhs,
            f"subsystem size {npos}")

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
            for c in D.rd for gamma in c.positive)
    return out
