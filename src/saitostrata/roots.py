"""Crystallographic root systems A_n, B_n, D_n, E_6, E_7, E_8, F_4.

Roots are exact rational vectors (tuples of Fraction). Every system carries
its simple system, fundamental coweights (dual basis: (w^i, a_j) = d_ij),
degrees and Coxeter number, and the integer expansion of every root in the
simple basis. E_7 and E_6 are realized inside the E_8 coordinates via the
sub-diagrams {a_1..a_7} and {a_1..a_6}, so no separate coordinate
conventions exist.

Type labels B_r and C_r are merged (they generate the same Coxeter group);
reports use "B".
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import gcd

from .exactla import IntSpan, matinv, nullspace

DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _frac_tuple(v):
    return tuple(Fraction(x) for x in v)


class Component:
    """One irreducible component of a root subsystem."""

    __slots__ = ("roots", "rank", "size", "coxeter_number", "type_label", "lengths")

    def __init__(self, roots, rank, type_label, lengths):
        self.roots = roots          # full set, closed under negation
        self.rank = rank
        self.size = len(roots)
        assert self.size % rank == 0
        self.coxeter_number = self.size // rank
        self.type_label = type_label
        self.lengths = lengths      # multiset of squared lengths

    def __repr__(self):
        return f"<{self.type_label}: rank {self.rank}, size {self.size}, h={self.coxeter_number}>"


class SubsystemReport:
    __slots__ = ("roots", "rank", "size", "components")

    def __init__(self, roots, rank, components):
        self.roots = roots
        self.rank = rank
        self.size = len(roots)
        self.components = components

    @property
    def irreducible(self):
        return len(self.components) == 1

    def type_string(self):
        if not self.components:
            return "empty"
        labels = sorted(c.type_label for c in self.components)
        out = []
        for lab in sorted(set(labels)):
            k = labels.count(lab)
            out.append(lab if k == 1 else f"{lab}^{k}")
        return " x ".join(out)

    def component_multiset(self):
        return tuple(sorted((c.type_label, c.rank, c.size) for c in self.components))

    def __repr__(self):
        return f"<subsystem {self.type_string()}: rank {self.rank}, size {self.size}>"


class RootSystem:
    def __init__(self, label, rank, ambient_dim, roots, simple, degrees):
        self.label = label
        self.rank = rank
        self.ambient_dim = ambient_dim
        self.roots = tuple(_frac_tuple(r) for r in roots)
        self.simple = tuple(_frac_tuple(a) for a in simple)
        self.degrees = tuple(degrees)
        self.coxeter_number = degrees[-1]

        # integer expansions of every root in the simple basis
        gram = [[_dot(a, b) for b in self.simple] for a in self.simple]
        ginv = matinv(gram)
        self._gram = gram
        self._ginv = ginv
        exp = {}
        for r in self.roots:
            rhs = [_dot(r, a) for a in self.simple]
            coeffs = [sum(ginv[i][j] * rhs[j] for j in range(rank)) for i in range(rank)]
            ints = []
            for c in coeffs:
                assert c.denominator == 1, "non-integer simple-root expansion"
                ints.append(int(c))
            assert all(x >= 0 for x in ints) or all(x <= 0 for x in ints)
            exp[r] = tuple(ints)
        self.expansion = exp
        self.positive_roots = tuple(r for r in self.roots
                                    if any(x > 0 for x in exp[r]))

        # fundamental coweights: w^i = sum_j (G^-1)_ij a_j
        self.coweights = tuple(
            tuple(sum(ginv[i][j] * self.simple[j][k] for j in range(rank))
                  for k in range(ambient_dim))
            for i in range(rank))

        # Cartan pairing 2(a_i,a_j)/(a_j,a_j)
        self.cartan = [[Fraction(2) * gram[i][j] / gram[j][j] for j in range(rank)]
                       for i in range(rank)]
        assert all(c.denominator == 1 for row in self.cartan for c in row)
        self.cartan = [[int(c) for c in row] for row in self.cartan]

        # integer-scaled copies of the roots for fraction-free span work
        den = 1
        for r in self.roots:
            for x in r:
                den = den * x.denominator // gcd(den, x.denominator)
        self._scale = den
        self._introot = {r: tuple(int(x * den) for x in r) for r in self.roots}

        self._check_invariants()

    # -- construction-time invariants ---------------------------------
    def _check_invariants(self):
        n, h = self.rank, self.coxeter_number
        assert len(self.roots) == 2 * len(self.positive_roots)
        assert len(self.positive_roots) == n * h // 2
        assert sum(d - 1 for d in self.degrees) == len(self.positive_roots)
        assert self.degrees[0] == 2 and self.degrees[-1] == h
        for i, w in enumerate(self.coweights):
            for j, a in enumerate(self.simple):
                assert _dot(w, a) == (1 if i == j else 0)
        rootset = set(self.roots)
        for r in self.roots:
            assert tuple(-x for x in r) in rootset

    # -- basic helpers ------------------------------------------------
    def reflect(self, i, v):
        """Simple reflection s_i applied to an ambient vector (i 0-based)."""
        a = self.simple[i]
        c = Fraction(2) * _dot(a, v) / _dot(a, a)
        return tuple(x - c * y for x, y in zip(v, a))

    def apply_word(self, word, v):
        """Apply s_{word[0]}, then s_{word[1]}, ... (1-based indices)."""
        for i in word:
            v = self.reflect(i - 1, v)
        return v

    def to_json_dict(self):
        def fr(x):
            return str(x)
        return {
            "type": self.label,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "coxeter_number": self.coxeter_number,
            "degrees": list(self.degrees),
            "simple_roots": [[fr(x) for x in a] for a in self.simple],
            "positive_roots": [[fr(x) for x in r] for r in self.positive_roots],
            "coweights": [[fr(x) for x in w] for w in self.coweights],
            "cartan_matrix": self.cartan,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def __repr__(self):
        return f"<RootSystem {self.label}{self.rank}: |R+|={len(self.positive_roots)}, h={self.coxeter_number}>"


# ---------------------------------------------------------------------------
# builders

def _build_A(n):
    dim = n + 1
    roots = []
    for i in range(dim):
        for j in range(dim):
            if i != j:
                v = [0] * dim
                v[i], v[j] = 1, -1
                roots.append(v)
    simple = []
    for i in range(n):
        v = [0] * dim
        v[i], v[i + 1] = 1, -1
        simple.append(v)
    return RootSystem("A", n, dim, roots, simple, tuple(range(2, n + 2)))


def _build_B(n):
    roots = []
    for i in range(n):
        for s in (1, -1):
            v = [0] * n
            v[i] = s
            roots.append(v)
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.append(v)
    simple = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simple.append(v)
    v = [0] * n
    v[n - 1] = 1
    simple.append(v)
    return RootSystem("B", n, n, roots, simple, tuple(2 * k for k in range(1, n + 1)))


def _build_D(n):
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.append(v)
    simple = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simple.append(v)
    v = [0] * n
    v[n - 2], v[n - 1] = 1, 1
    simple.append(v)
    degrees = tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return RootSystem("D", n, n, roots, simple, degrees)


def _e8_roots():
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    return roots


def _e8_simple():
    half = Fraction(1, 2)
    a1 = tuple(half * s for s in (1, -1, -1, -1, -1, -1, -1, 1))
    a2 = (1, 1, 0, 0, 0, 0, 0, 0)
    simple = [a1, _frac_tuple(a2)]
    for k in range(3, 9):
        v = [Fraction(0)] * 8
        v[k - 2], v[k - 3] = Fraction(1), Fraction(-1)
        simple.append(tuple(v))
    return simple


def _build_E(rank):
    allroots = _e8_roots()
    simple = _e8_simple()[:rank]
    if rank == 8:
        roots = allroots
    else:
        span = IntSpan(8)
        for a in simple:
            span.add([int(2 * x) for x in a])
        roots = [r for r in allroots if span.contains([int(2 * x) for x in r])]
    return RootSystem("E", rank, 8, roots, simple, DEGREES[f"E{rank}"])


def _build_F4():
    roots = []
    for i in range(4):
        for s in (1, -1):
            v = [Fraction(0)] * 4
            v[i] = Fraction(s)
            roots.append(tuple(v))
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 4
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(half * s for s in signs))
    # long-long-short-short simple system
    simple = [
        _frac_tuple((0, 1, -1, 0)),
        _frac_tuple((0, 0, 1, -1)),
        _frac_tuple((0, 0, 0, 1)),
        (half, -half, -half, -half),
    ]
    return RootSystem("F", 4, 4, roots, simple, DEGREES["F4"])


def build_root_system(label, rank=None):
    """Build a root system by type label: A/B/D (with rank) or E6/E7/E8/F4."""
    label = label.upper()
    if label in ("E6", "E7", "E8"):
        return _build_E(int(label[1]))
    if label == "F4":
        return _build_F4()
    if label == "E" and rank in (6, 7, 8):
        return _build_E(rank)
    if label == "F" and rank == 4:
        return _build_F4()
    if rank is None:
        raise ValueError("rank required for type %s" % label)
    if label == "A" and rank >= 1:
        return _build_A(rank)
    if label == "B" and rank >= 2:
        return _build_B(rank)
    if label == "C" and rank >= 2:
        return _build_B(rank)   # Coxeter-identical; merged
    if label == "D" and rank >= 3:
        return _build_D(rank)
    raise ValueError("unsupported type/rank: %s %s" % (label, rank))


def parse_group(name):
    """'A3', 'B2', 'E8', 'F4', ... -> RootSystem."""
    name = name.strip().upper().replace("_", "")
    return build_root_system(name[0], int(name[1:]))


# ---------------------------------------------------------------------------
# subsystems

def _type_label(rank, size, lengths):
    nlen = len(set(lengths))
    if rank == 1:
        return "A1"
    if rank == 2:
        return {6: "A2", 8: "B2", 12: "G2"}[size]
    if nlen >= 2:
        if size == 2 * rank * rank:
            return f"B{rank}"
        if rank == 4 and size == 48:
            return "F4"
        raise ValueError(f"unrecognized two-length subsystem rank={rank} size={size}")
    # one root length: A, D or E only (B_r always has two lengths)
    if size == rank * (rank + 1):
        return f"A{rank}"
    if (rank, size) in ((6, 72), (7, 126), (8, 240)):
        return f"E{rank}"
    if size == 2 * rank * (rank - 1):
        # D_3 is abstractly A_3; size formulas coincide (12) at rank 3
        return f"D{rank}" if rank >= 4 else f"A{rank}"
    raise ValueError(f"unrecognized subsystem rank={rank} size={size}")


def span_subsystem(R: RootSystem, S):
    """All roots of R in the rational span of S, with its irreducible
    decomposition (components of the non-orthogonality graph)."""
    S = [_frac_tuple(s) for s in S]
    span = IntSpan(R.ambient_dim)
    den = R._scale
    for s in S:
        span.add([int(x * den) for x in s])
    sub_pos = [r for r in R.positive_roots if span.contains(R._introot[r])]
    components = _components(R, sub_pos)
    allroots = [r for c in components for r in c.roots]
    return SubsystemReport(allroots, span.rank if S else 0, components)


def _components(R: RootSystem, sub_pos):
    """Irreducible components of the subsystem with positive roots
    `sub_pos` (in R.positive_roots order): the connected components of the
    non-orthogonality graph, found on the integer-scaled roots to avoid
    Fraction arithmetic."""
    iv = R._introot
    comps = []
    unseen = set(sub_pos)
    while unseen:
        seed = unseen.pop()
        stack, comp = [seed], {seed}
        while stack:
            cur = iv[stack.pop()]
            linked = [r for r in unseen
                      if sum(a * b for a, b in zip(cur, iv[r])) != 0]
            for r in linked:
                unseen.discard(r)
                comp.add(r)
                stack.append(r)
        comps.append(sorted(comp))

    components = []
    for comp in comps:
        cs = IntSpan(R.ambient_dim)
        for r in comp:
            cs.add(R._introot[r])
        full = list(comp) + [tuple(-x for x in r) for r in comp]
        lengths = tuple(sorted(_dot(r, r) for r in comp))
        components.append(Component(full, cs.rank, _type_label(cs.rank, len(full), lengths),
                                    lengths))
    components.sort(key=lambda c: (-c.rank, -c.size))
    return components


# ---------------------------------------------------------------------------
# fundamental reduction

def reduce_to_fundamental(R: RootSystem, S, rng=None):
    """Find w in W (as a word in simple reflections, 1-based) and an index
    set I with w(D_S) = the intersection of the simple walls {a_i, i in I}.

    Walks a generic rational point of D_S into the closed fundamental
    chamber by simple reflections."""
    rng = rng or random.Random(0xC0C0)
    S = [_frac_tuple(s) for s in S]
    rootset = set(R.roots)
    for s in S:
        if s not in rootset:
            raise ValueError("S must consist of roots")
    n = R.rank
    if len(S) >= n:
        raise ValueError("|S| must be < rank (strata of dimension >= 1)")
    coeff_rows = [R.expansion[s] for s in S]
    span = IntSpan(n)
    for row in coeff_rows:
        if not span.add(row):
            raise ValueError("S must be linearly independent")

    basis = nullspace(coeff_rows) if coeff_rows else \
        [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    # span membership in ambient coordinates, for the genericity check
    amb_span = IntSpan(R.ambient_dim)
    for s in S:
        amb_span.add([int(x * R._scale) for x in s])

    for _attempt in range(200):
        mix = [rng.randint(-10**6, 10**6) for _ in basis]
        cs = [sum(m * b[j] for m, b in zip(mix, basis)) for j in range(n)]
        x = tuple(sum(cs[j] * R.coweights[j][k] for j in range(n))
                  for k in range(R.ambient_dim))
        ok = all(_dot(r, x) != 0 for r in R.positive_roots
                 if not amb_span.contains(R._introot[r]))
        if ok:
            break
    else:  # pragma: no cover
        raise RuntimeError("could not find a generic point of the stratum")

    word = []
    p = x
    while True:
        for i in range(n):
            if _dot(R.simple[i], p) < 0:
                p = R.reflect(i, p)
                word.append(i + 1)
                break
        else:
            break
    I = frozenset(i + 1 for i in range(n) if _dot(R.simple[i], p) == 0)
    assert len(I) == len(S)
    return word, I
