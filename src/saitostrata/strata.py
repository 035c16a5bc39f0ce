"""Discriminant strata, restricted arrangements A_D, the combinatorial
multiplicity predictor k_H, and the Q-polynomial cross-check.

A stratum is given by an index set I of simple roots (after fundamental
reduction): D = {x : a_i(x) = 0, i in I}, parametrized by x = sum_{j not in
I} s_j w^j, so restricting a root b = sum b_i a_i to D truncates it to
sum_{j not in I} b_j s_j: integer truncation and canonicalization, no
projections.  A `Stratum` computes b -> b|_D once: `D.classes` maps one
`LinearForm` per projective class to its roots, `D.forms` sends each
positive root to its class's form, or to None exactly on R_D, and A_D is
built from the classes on first use as `D.arrangement`.

R_D is `roots.span_subsystem` of a_I, whose membership test reads
"coefficients vanish off I" from each root's support bitmask.  No graph
search runs per hyperplane: R_{D,beta} = R_D u +-class(H), and `roots._link`
seeded with R_D's components merges those the class members touch; the
merged component takes the members plus the stored positive roots and
length sets of what it absorbs.  Components keep only positive roots and
build full root lists when read.  The Gram rows, support bitmasks and the
2-planes through a root gamma (for the Q-polynomial) depend on R alone and
are cached on it: on E8, 17 KiB of Gram rows, and 1 MiB of planes if every
positive root serves as gamma.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (LinearForm, FactoredDeterminant, UNKNOWN,
                      InvariantViolation, _canon_int)
from .roots import (RootSystem, SubsystemReport, span_subsystem, _component,
                    _link)


class NegativeFinalExponent(ArithmeticError):
    """The factored Q-polynomial came out with a non-positive exponent."""


class Stratum:
    def __init__(self, R: RootSystem, I, rd: SubsystemReport):
        self.R = R
        self.I = frozenset(int(i) for i in I)
        self.params = tuple(j for j in range(1, R.rank + 1) if j not in self.I)
        self.dim = len(self.params)
        self.rd = rd
        self.param_labels = tuple(f"s{j}" for j in self.params)
        # b -> b|_D on the positive roots: the roots of each projective
        # class in R.positive_roots order, the classes in order of first
        # appearance, and R_D under the key None
        split = {}
        for beta in R.positive_roots:
            c = _canon_int([beta[j - 1] for j in self.params])
            split.setdefault(c, []).append(beta)
        split.pop(None, None)
        self.classes = {LinearForm(c, self.param_labels): roots
                        for c, roots in split.items()}
        self.forms = dict.fromkeys(R.positive_roots)
        for form, roots in self.classes.items():
            for beta in roots:
                self.forms[beta] = form

    @cached_property
    def arrangement(self):
        """A_D, built on first access; see `restricted_arrangement`."""
        return restricted_arrangement(self)

    def __repr__(self):
        return f"<Stratum {self.R.label}{self.R.rank} I={sorted(self.I)} dim={self.dim} R_D={self.rd.type_string()}>"


def make_stratum(R: RootSystem, I) -> Stratum:
    I = frozenset(int(i) for i in I)
    if not I <= set(range(1, R.rank + 1)):
        raise ValueError("I must be a subset of {1..n}")
    if len(I) == R.rank:
        raise ValueError("|I| = n gives a zero-dimensional stratum")
    rd = span_subsystem(R, [R.simple[i - 1] for i in sorted(I)])
    if rd.rank != len(I):
        raise InvariantViolation("simple roots a_I are not independent")
    return Stratum(R, I, rd)


class RestrictedHyperplane:
    """One hyperplane H of A_D with its canonical form and multiplicity."""

    __slots__ = ("form", "beta", "roots", "rd_beta", "component0", "k")

    def __init__(self, form, beta, roots, rd_beta, component0):
        self.form = form
        self.beta = beta
        self.roots = roots
        self.rd_beta = rd_beta
        self.component0 = component0
        self.k = component0.coxeter_number

    def __repr__(self):
        return f"<H {self.form!r}: k={self.k} via {self.component0.type_label} in {self.rd_beta.type_string()}>"


def restricted_arrangement(D: Stratum):
    """The hyperplanes of A_D, each with R_{D,beta}, its component through
    beta, and the multiplicity k_H = h(R_{D,beta}^(0)).

    Restriction to D has kernel span(a_I), so a root g lies in
    span(a_I, beta) exactly when g|_D is proportional to beta|_D: hence
    R_{D,beta} = R_D u +-class(H).  `roots._link` joins the class members
    to R_D's components (parabolic: the pieces of the Dynkin subdiagram on
    I), each seeded as a piece probed by its a_i.  R_{D,beta} spans
    span(a_I, beta), of rank |I| + 1, and its components are mutually
    orthogonal, so their ranks add up to |I| + 1; the untouched components
    keep theirs, so the one piece that holds class members has rank 1 +
    those it merges.  Two pieces with members would each add at least one
    (b is not in span(a_I)); that is still checked, as an
    `InvariantViolation`.  The components are ordered as
    `roots.span_subsystem` orders them: by (-rank, -size), ties by first
    appearance in R.positive_roots."""
    R = D.R
    at = {beta: i for i, beta in enumerate(R.positive_roots)}

    # once per stratum: one seed per component of R_D, probed by its a_i,
    # and where the component first appears in R.positive_roots
    rd_comps = D.rd.components
    simple_I = [R.simple[i - 1] for i in sorted(D.I)]
    seeds = [([a for a in simple_I if a in c.positive], [], {ci})
             for ci, c in enumerate(rd_comps)]
    first = [min(at[r] for r in c.positive) for c in rd_comps]

    out = []
    for form in sorted(D.classes):
        members = D.classes[form]
        held = [p for p in _link(R, members, seeds) if p[1]]
        # the multiplicity data must not depend on the representative
        # root in the projective class
        if len(held) != 1:
            raise InvariantViolation(
                "component through beta differs within a projective class")
        _, ms, cis = held[0]
        merged = [rd_comps[ci] for ci in cis]
        comp0 = _component(R, ms, 1 + sum(c.rank for c in merged), merged)
        keyed = [((-c.rank, -c.size, first[ci]), c)
                 for ci, c in enumerate(rd_comps) if ci not in cis]
        keyed.append(((-comp0.rank, -comp0.size,
                       min([at[members[0]]] + [first[ci] for ci in cis])),
                      comp0))
        keyed.sort(key=lambda kc: kc[0])
        rep = SubsystemReport(D.rd.rank + 1, [c for _, c in keyed])
        out.append(RestrictedHyperplane(form, members[0], members, rep,
                                        comp0))
    return out


def predict_determinant(D: Stratum) -> FactoredDeterminant:
    """det eta_D up to scalar: product over A_D of l_H^{k_H}."""
    fd = FactoredDeterminant(UNKNOWN, {h.form: h.k for h in D.arrangement})
    if fd.degree() != D.R.coxeter_number * D.dim:
        raise InvariantViolation("degree != h * dim")
    return fd


def q_polynomial(D: Stratum, gamma_choices=None, rng=None) -> FactoredDeterminant:
    """The restricted Q-polynomial as a factored multiset:
    Q|_D = I(A \\ A^D)^m * prod_i I_i^{r_i} with m = 2 - sum r_i.

    Multiset arithmetic with integer (possibly negative) exponent m; every
    final exponent must be >= 1 or NegativeFinalExponent is raised."""
    R = D.R
    comps = D.rd.components
    m = 2 - sum(c.rank for c in comps)

    if gamma_choices is None:
        gamma_choices = [rng.choice(c.positive) if rng is not None
                         else c.positive[0] for c in comps]
    if len(gamma_choices) != len(comps):
        raise ValueError("need one gamma per component of R_D")

    # I(A \ A^D) restricted: one linear form per mirror not containing D,
    # counted by position in D.classes.  D.forms hands out the very
    # objects that key D.classes, so identity finds a class's position
    # without a LinearForm.__hash__ per plane
    at = {id(form): i for i, form in enumerate(D.classes)}
    total = [m * len(roots) for roots in D.classes.values()]

    # the I_i factors, with exponent r_i each.  gamma vanishes on D, and
    # every other root b of a plane through gamma is x gamma + y b0 with
    # y != 0 (b0 its first member), so b|_D = y b0|_D: the plane lies in
    # A^D exactly when b0 does, and then its restriction is not a factor
    for comp, gamma in zip(comps, gamma_choices):
        g = tuple(gamma)
        if g not in comp.positive \
                and tuple(-x for x in g) not in comp.positive:
            raise ValueError("gamma must lie in its component of R_D")
        for members in _planes_through(R, g):
            i = at.get(id(D.forms[members[0]]))
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
            for c in D.rd.components],
        "factors": [
            {"form": list(h.form.coeffs), "exponent": h.k,
             "beta": [str(x) for x in D.R.vector(h.beta)],
             "component0": {"type": h.component0.type_label,
                            "size": h.component0.size,
                            "rank": h.component0.rank,
                            "h": h.component0.coxeter_number},
             "r_d_beta_size": h.rd_beta.size}
            for h in D.arrangement],
    }
