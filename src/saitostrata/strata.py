"""Discriminant strata, restricted arrangements A_D, the combinatorial
multiplicity predictor k_H, and the Q-polynomial cross-check.

A stratum is given by an index set I of simple roots (after fundamental
reduction): D = {x : a_i(x) = 0, i in I}, parametrized by x = sum_{j not in
I} s_j w^j, so restricting a root b = sum b_i a_i to D truncates it to
sum_{j not in I} b_j s_j: integer truncation and canonicalization, no
projections.  A `Stratum` canonicalizes each distinct truncation once:
`D.classes` maps one `LinearForm` per projective class to its roots, and
`D.class_index` sends each positive root to its class's position there,
or to None exactly on R_D.

R_D is `roots.span_subsystem(R, I)`, spanned by a_I: parabolic, so its
components, the list `D.rd`, are the connected pieces of the Dynkin
subdiagram on I.  A_D (`D.arrangement`, built on first use) runs no graph
search: `_join` links each class to R_D's components by bit masks of
simple roots.  The Gram rows, support and touch masks and the 2-planes
through a root gamma (for the Q-polynomial) are cached on R: on E8,
17 KiB of Gram rows, and 1 MiB of planes if every positive root serves
as gamma.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from .algebra import (LinearForm, FactoredDeterminant, UNKNOWN,
                      InvariantViolation, _canon_int)
from .roots import RootSystem, Component, span_subsystem, type_string


class NegativeFinalExponent(ArithmeticError):
    """The factored Q-polynomial came out with a non-positive exponent."""


class Stratum:
    def __init__(self, R: RootSystem, I, rd):
        self.R = R
        self.I = frozenset(int(i) for i in I)
        self.params = tuple(j for j in range(1, R.rank + 1) if j not in self.I)
        self.dim = len(self.params)
        self.rd = rd
        # b -> b|_D, one _canon_int per distinct truncation: the roots of
        # each class in R.positive_roots order, classes by first appearance
        cut = [j - 1 for j in self.params]
        memo, split = {}, {}
        for beta in R.positive_roots:
            t = tuple([beta[j] for j in cut])
            if t not in memo:
                memo[t] = _canon_int(t)
            split.setdefault(memo[t], []).append(beta)
        split.pop(None, None)
        self.classes = {LinearForm(c): roots for c, roots in split.items()}
        self.class_index = dict.fromkeys(R.positive_roots)
        for i, roots in enumerate(self.classes.values()):
            for beta in roots:
                self.class_index[beta] = i

    @cached_property
    def arrangement(self):
        """A_D, built on first access; see `restricted_arrangement`."""
        return restricted_arrangement(self)

    def __repr__(self):
        return f"<Stratum {self.R.label}{self.R.rank} I={sorted(self.I)} dim={self.dim} R_D={type_string(self.rd)}>"


def make_stratum(R: RootSystem, I) -> Stratum:
    I = frozenset(int(i) for i in I)
    rd = span_subsystem(R, I)       # ValueError for I off 1..n
    if len(I) == R.rank:
        raise ValueError("|I| = n gives a zero-dimensional stratum")
    return Stratum(R, I, rd)


class RestrictedHyperplane:
    """One hyperplane H of A_D with its canonical form and multiplicity;
    its roots are `D.classes[form]`."""

    __slots__ = ("form", "beta", "rd_beta", "component0", "k")

    def __init__(self, form, beta, rd_beta, component0):
        self.form = form
        self.beta = beta
        self.rd_beta = rd_beta
        self.component0 = component0
        self.k = component0.coxeter_number

    def __repr__(self):
        return f"<H {self.form!r}: k={self.k} via {self.component0.type_label} in {type_string(self.rd_beta)}>"


def restricted_arrangement(D: Stratum):
    """The hyperplanes of A_D, each with R_{D,beta}, its component through
    beta, and the multiplicity k_H = h(R_{D,beta}^(0)).

    Restriction to D has kernel span(a_I), so a root g lies in
    span(a_I, beta) exactly when g|_D is proportional to beta|_D: hence
    R_{D,beta} = R_D u +-class(H), and `_join` links the class members to
    R_D's components.  R_{D,beta} spans span(a_I, beta), of rank |I| + 1,
    and its components are mutually orthogonal, so the one piece that holds
    class members has rank 1 + those it merges; a second piece with members
    would add one more (b is not in span(a_I)), an `InvariantViolation`.
    R_{D,beta} lists the components of R_D that the piece leaves apart, in
    R_D's order, then the one through beta."""
    R, rows = D.R, D.R._gram_rows
    # per component of R_D, its simple roots: the support of its highest
    # (and last) positive root
    masks = [R._supports[c.positive[-1]] for c in D.rd]
    out = []
    for form, members in sorted(D.classes.items()):
        held = _join(R, members, masks)
        # the multiplicity data must not depend on the representative
        # root in the projective class
        if len(held) != 1:
            raise InvariantViolation(
                "component through beta differs within a projective class")
        touched = held[0][0]
        merged = [c for c, mask in zip(D.rd, masks) if mask & touched]
        comp0 = Component(
            members, {sum(map(mul, rows[b], b)) for b in members},
            1 + sum(c.rank for c in merged), merged)
        rest = [c for c, mask in zip(D.rd, masks) if not mask & touched]
        out.append(RestrictedHyperplane(form, members[0], rest + [comp0],
                                        comp0))
    return out


def _join(R: RootSystem, members, masks):
    """The pieces (mask of R_D components touched, members) of the class
    `members` and R_D's components of simple-root masks `masks`: b touches
    one that meets `R._touches[b]`, and members touching one component or
    with (b, b') != 0 share a piece."""
    rows, touches, pieces = R._gram_rows, R._touches, []
    for b in members:
        row, t = rows[b], touches[b]
        mask, ms, kept = sum(m for m in masks if m & t), [b], []
        for p_mask, p_ms in pieces:
            if p_mask & mask or any(sum(map(mul, row, a)) for a in p_ms):
                mask, ms = mask | p_mask, ms + p_ms
            else:
                kept.append((p_mask, p_ms))
        pieces = kept + [(mask, ms)]
    return pieces


def predict_determinant(D: Stratum) -> FactoredDeterminant:
    """det eta_D up to scalar: product over A_D of l_H^{k_H}."""
    fd = FactoredDeterminant(UNKNOWN, {h.form: h.k for h in D.arrangement})
    if fd.degree() != D.R.coxeter_number * D.dim:
        raise InvariantViolation("degree != h * dim")
    return fd


def q_polynomial(D: Stratum, rng=None) -> FactoredDeterminant:
    """The restricted Q-polynomial as a FactoredDeterminant:
    Q|_D = I(A \\ A^D)^m * prod_i I_i^{r_i} with m = 2 - sum r_i.  The
    root gamma of each component of R_D is its first positive root, or one
    drawn by `rng`.

    Multiset arithmetic with integer (possibly negative) exponent m; every
    final exponent must be >= 1 or NegativeFinalExponent is raised."""
    R = D.R
    m = 2 - sum(c.rank for c in D.rd)

    # I(A \ A^D) restricted: one linear form per mirror not containing D,
    # counted by position in D.classes, which D.class_index records
    index = D.class_index
    total = [m * len(roots) for roots in D.classes.values()]

    # the I_i factors, with exponent r_i each.  gamma vanishes on D, and
    # every other root b of a plane through gamma is x gamma + y b0 with
    # y != 0 (b0 its first member), so b|_D = y b0|_D: the plane lies in
    # A^D exactly when b0 does, and then its restriction is not a factor
    for comp in D.rd:
        g = rng.choice(comp.positive) if rng is not None else comp.positive[0]
        for members in _planes_through(R, g):
            i = index[members[0]]
            if i is not None:
                total[i] += comp.rank

    factors = dict(zip(D.classes, total))
    bad = {f: k for f, k in factors.items() if k < 1}
    if bad:
        raise NegativeFinalExponent(f"non-positive exponents: {bad}")
    return FactoredDeterminant(UNKNOWN, factors)


def _planes_through(R: RootSystem, g):
    """The positive roots not proportional to the root g, grouped by the
    2-plane through g that holds them, each group in R.positive_roots
    order.  b and b' share a plane when b g_p - g b_p and b' g_p - g b'_p
    (p the first nonzero place of g) are proportional.  The split
    depends on R and g only, so it is built once per pair and kept in
    R._planes."""
    planes = R._planes.get(g)
    if planes is None:
        piv = next(i for i, x in enumerate(g) if x)
        split = {}
        for beta in R.positive_roots:
            v = [bi * g[piv] - gi * beta[piv] for bi, gi in zip(beta, g)]
            key = _canon_int(v)
            if key is not None:      # None: beta proportional to gamma
                split.setdefault(key, []).append(beta)
        planes = R._planes[g] = tuple(split.values())
    return planes


def stratum_json_dict(D: Stratum):
    return {
        "group": f"{D.R.label}{D.R.rank}",
        "simple_indices": sorted(D.I),
        "dim": D.dim,
        "r_d_components": [
            {"type": c.type_label, "rank": c.rank, "size": c.size,
             "h": c.coxeter_number}
            for c in D.rd],
        "factors": [
            {"form": list(h.form), "exponent": h.k,
             "beta": D.R.vector_strs(h.beta),
             "component0": {"type": h.component0.type_label,
                            "size": h.component0.size,
                            "rank": h.component0.rank,
                            "h": h.component0.coxeter_number},
             "r_d_beta_size": sum(c.size for c in h.rd_beta)}
            for h in D.arrangement],
    }
