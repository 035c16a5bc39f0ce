"""Discriminant strata, restricted arrangements A_D, the combinatorial
multiplicity predictor k_H, and the Q-polynomial cross-check.

A stratum is given by an index set I of simple roots (after fundamental
reduction): D = {x : a_i(x) = 0, i in I}, parametrized by x = sum_{j not in
I} s_j w^j, so the restriction of a root b = sum b_i a_i to D is the
coefficient truncation sum_{j not in I} b_j s_j. All restriction arithmetic
is therefore integer truncation plus canonicalization — no projections.
"""

from __future__ import annotations

import random
from collections import Counter
from math import gcd

from .algebra import LinearForm, FactoredDeterminant, UNKNOWN
from .roots import RootSystem, SubsystemReport, span_subsystem, _components


class NegativeFinalExponent(ArithmeticError):
    """The factored Q-polynomial came out with a non-positive exponent."""


class InvariantViolation(ArithmeticError):
    """A mathematical identity the predictor relies on failed."""


def _canon_int(vec):
    """Primitive, first-nonzero-positive representative; None for zero."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    v = [x // g for x in vec]
    for x in v:
        if x:
            if x < 0:
                v = [-y for y in v]
            break
    return tuple(v)


class Stratum:
    def __init__(self, R: RootSystem, I, rd: SubsystemReport):
        self.R = R
        self.I = frozenset(int(i) for i in I)
        self.params = tuple(j for j in range(1, R.rank + 1) if j not in self.I)
        self.dim = len(self.params)
        self.rd = rd
        self.param_labels = tuple(f"s{j}" for j in self.params)

    def restrict_root(self, beta):
        """Canonical LinearForm of b|_D, or None if b vanishes on D."""
        c = _canon_int([beta[j - 1] for j in self.params])
        return LinearForm(c, self.param_labels) if c is not None else None

    def __repr__(self):
        return f"<Stratum {self.R.label}{self.R.rank} I={sorted(self.I)} dim={self.dim} R_D={self.rd.type_string()}>"


def make_stratum(R: RootSystem, I) -> Stratum:
    I = frozenset(int(i) for i in I)
    if not I <= set(range(1, R.rank + 1)):
        raise ValueError("I must be a subset of {1..n}")
    if len(I) == R.rank:
        raise ValueError("|I| = n gives a zero-dimensional stratum")
    rd = span_subsystem(R, [R.simple[i - 1] for i in sorted(I)])
    assert rd.rank == len(I)
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
        assert self.k == component0.size // component0.rank

    def __repr__(self):
        return f"<H {self.form!r}: k={self.k} via {self.component0.type_label} in {self.rd_beta.type_string()}>"


def restricted_arrangement(D: Stratum):
    """The hyperplanes of A_D, each with R_{D,beta}, its component through
    beta, and the multiplicity k_H = h(R_{D,beta}^(0)).

    Restriction to D truncates simple-root coefficients and has kernel
    span(a_I), so a root g lies in span(a_I, beta) exactly when g|_D is
    proportional to beta|_D.  Hence R_{D,beta} = R_D u +-class(H)."""
    pos = D.R.positive_roots
    rd_roots = set(D.rd.roots)
    rd_idx, classes = [], {}
    for i, beta in enumerate(pos):
        if beta in rd_roots:
            rd_idx.append(i)
            continue
        form = D.restrict_root(beta)
        assert form is not None
        classes.setdefault(form, []).append(i)

    out = []
    for form in sorted(classes):
        idx = classes[form]
        members = [pos[i] for i in idx]
        comps = _components(D.R, [pos[i] for i in sorted(rd_idx + idx)])
        rep = SubsystemReport([r for c in comps for r in c.roots],
                              D.rd.rank + 1, comps)
        beta = members[0]
        comp0 = next(c for c in comps if beta in c.roots)
        # the multiplicity data must not depend on the representative
        # root in the projective class
        comp0_roots = set(comp0.roots)
        if not all(b in comp0_roots for b in members):
            raise InvariantViolation(
                "component through beta differs within a projective class")
        out.append(RestrictedHyperplane(form, beta, members, rep, comp0))
    return out


def predict_determinant(D: Stratum, arrangement=None) -> FactoredDeterminant:
    """det eta_D up to scalar: product over A_D of l_H^{k_H}."""
    arr = arrangement if arrangement is not None else restricted_arrangement(D)
    fd = FactoredDeterminant(UNKNOWN, {h.form: h.k for h in arr})
    if fd.degree() != D.R.coxeter_number * D.dim:
        raise InvariantViolation("degree != h * dim")
    return fd


def q_polynomial(D: Stratum, gamma_choices=None, rng=None) -> FactoredDeterminant:
    """The restricted Q-polynomial as a factored multiset:
    Q|_D = I(A \\ A^D)^m * prod_i I_i^{r_i} with m = 2 - sum r_i.

    Multiset arithmetic with integer (possibly negative) exponent m; every
    final exponent must be >= 1 or NegativeFinalExponent is raised."""
    R = D.R
    rd_roots = set(D.rd.roots)
    comps = D.rd.components
    m = 2 - sum(c.rank for c in comps)

    if gamma_choices is None:
        positive = [[r for r in c.roots if any(x > 0 for x in r)]
                    for c in comps]
        gamma_choices = [rng.choice(pos) if rng is not None else pos[0]
                         for pos in positive]
    if len(gamma_choices) != len(comps):
        raise ValueError("need one gamma per component of R_D")

    total = Counter()

    # I(A \ A^D) restricted: one linear form per mirror not containing D
    for beta in R.positive_roots:
        if beta in rd_roots:
            continue
        total[D.restrict_root(beta)] += m

    # the I_i factors, with exponent r_i each
    for comp, gamma in zip(comps, gamma_choices):
        g = tuple(gamma)
        if g not in set(comp.roots):
            raise ValueError("gamma must lie in its component of R_D")
        piv = next(i for i, x in enumerate(g) if x)
        hyperplanes = {}
        for beta in R.positive_roots:
            v = [bi * g[piv] - gi * beta[piv] for bi, gi in zip(beta, g)]
            key = _canon_int(v)
            if key is None:      # beta proportional to gamma
                continue
            hyperplanes.setdefault(key, []).append(beta)
        for members in hyperplanes.values():
            if any(b in rd_roots for b in members):
                continue         # hyperplane belongs to A^D restricted
            form = D.restrict_root(members[0])
            assert form is not None
            total[form] += comp.rank

    bad = {f: k for f, k in total.items() if k < 1}
    if bad:
        raise NegativeFinalExponent(f"non-positive exponents: {bad}")
    return FactoredDeterminant(UNKNOWN, dict(total))


def stratum_json_dict(D: Stratum, arrangement=None):
    arr = arrangement if arrangement is not None else restricted_arrangement(D)
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
            for h in arr],
    }
