"""Crystallographic root systems A_n, B_n, D_n, E_6, E_7, E_8, F_4.

A root is the integer tuple of its coefficients in the simple roots: a_i is
the unit tuple with a 1 in place i, negation is elementwise, and restricting
a root to a stratum truncates the tuple. Every system also keeps the ambient
simple vectors and the fundamental coweights (dual basis: (w^i, a_j) = d_ij)
and converts between the two encodings in one place (`vector`,
`coefficients`), for the JSON reports and the symbolic layer. It carries its
degrees and Coxeter number. E_7 and E_6 are realized inside the E_8
coordinates via the sub-diagrams {a_1..a_7} and {a_1..a_6}, so no separate
coordinate conventions exist.

Type labels B_r and C_r are merged (they generate the same Coxeter group);
reports use "B".
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

from .algebra import InvariantViolation
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

    __slots__ = ("roots", "rank", "size", "coxeter_number", "type_label")

    def __init__(self, roots, rank, type_label):
        self.roots = roots          # full set, closed under negation
        self.rank = rank
        self.size = len(roots)
        if self.size % rank:
            raise InvariantViolation("component size not a multiple of rank")
        self.coxeter_number = self.size // rank
        self.type_label = type_label

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
    """A root system built from ambient roots and simple roots; every root
    is then held as its integer simple-root coefficient tuple, in the
    builder's order."""

    def __init__(self, label, rank, ambient_dim, roots, simple, degrees):
        self.label = label
        self.rank = rank
        self.ambient_dim = ambient_dim
        self.simple_vectors = tuple(_frac_tuple(a) for a in simple)
        self.simple = tuple(tuple(int(i == j) for j in range(rank))
                            for i in range(rank))
        self.degrees = tuple(degrees)
        self.coxeter_number = degrees[-1]

        gram = [[_dot(a, b) for b in self.simple_vectors]
                for a in self.simple_vectors]
        ginv = matinv(gram)
        self._gram = gram
        # an integer multiple of the Gram matrix, for orthogonality and
        # length comparisons without Fractions
        den = lcm(*(g.denominator for row in gram for g in row))
        self._igram = [[int(g * den) for g in row] for row in gram]

        # fundamental coweights: w^i = sum_j (G^-1)_ij a_j
        self.coweights = tuple(
            tuple(sum(ginv[i][j] * self.simple_vectors[j][k]
                      for j in range(rank))
                  for k in range(ambient_dim))
            for i in range(rank))

        # the coefficient of a_i in a root r is (w^i, r)
        coeffs = []
        for r in roots:
            c = [_dot(w, r) for w in self.coweights]
            if any(x.denominator != 1 for x in c):
                raise InvariantViolation("non-integer simple-root expansion")
            c = tuple(int(x) for x in c)
            if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
                raise InvariantViolation("root with mixed-sign expansion")
            coeffs.append(c)
        self.roots = tuple(coeffs)
        self.positive_roots = tuple(r for r in self.roots
                                    if any(x > 0 for x in r))

        # Cartan pairing 2(a_i,a_j)/(a_j,a_j)
        self.cartan = [[Fraction(2) * gram[i][j] / gram[j][j] for j in range(rank)]
                       for i in range(rank)]
        if any(c.denominator != 1 for row in self.cartan for c in row):
            raise InvariantViolation("non-integer Cartan matrix")
        self.cartan = [[int(c) for c in row] for row in self.cartan]

        self._check_invariants()

    # -- construction-time invariants ---------------------------------
    def _check_invariants(self):
        n, h = self.rank, self.coxeter_number
        npos = len(self.positive_roots)
        if len(self.roots) != 2 * npos:
            raise InvariantViolation("|R| != 2 |R+|")
        if npos != n * h // 2:
            raise InvariantViolation("|R+| != n h / 2")
        if sum(d - 1 for d in self.degrees) != npos:
            raise InvariantViolation("sum of (degree - 1) != |R+|")
        if self.degrees[0] != 2 or self.degrees[-1] != h:
            raise InvariantViolation("degrees must run from 2 to h")
        for i, w in enumerate(self.coweights):
            for j, a in enumerate(self.simple_vectors):
                if _dot(w, a) != (1 if i == j else 0):
                    raise InvariantViolation("coweights not dual to a_j")
        rootset = set(self.roots)
        for r in self.roots:
            if tuple(-x for x in r) not in rootset:
                raise InvariantViolation("R not closed under negation")

    # -- the ambient encoding -----------------------------------------
    def vector(self, beta):
        """The ambient vector sum_i beta_i a_i of a coefficient tuple."""
        return tuple(sum(b * a[k] for b, a in zip(beta, self.simple_vectors))
                     for k in range(self.ambient_dim))

    def coefficients(self, v):
        """The coefficient tuple of the root with ambient vector v, or None
        if v is not a root."""
        c = tuple(_dot(w, v) for w in self.coweights)
        if self.vector(c) != tuple(v) \
                or any(Fraction(x).denominator != 1 for x in c):
            return None
        c = tuple(int(x) for x in c)
        return c if c in set(self.roots) else None

    # -- basic helpers ------------------------------------------------
    def reflect(self, i, beta):
        """Simple reflection s_i (i 0-based) of a coefficient tuple:
        s_i(beta) = beta - <beta, a_i^v> a_i."""
        beta = tuple(beta)
        c = sum(b * row[i] for b, row in zip(beta, self.cartan))
        return beta[:i] + (beta[i] - c,) + beta[i + 1:]

    def apply_word(self, word, beta):
        """Apply s_{word[0]}, then s_{word[1]}, ... (1-based indices)."""
        for i in word:
            beta = self.reflect(i - 1, beta)
        return beta

    def to_json_dict(self):
        return {
            "type": self.label,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "coxeter_number": self.coxeter_number,
            "degrees": list(self.degrees),
            "simple_roots": [[str(x) for x in a] for a in self.simple_vectors],
            "positive_roots": [[str(x) for x in self.vector(r)]
                               for r in self.positive_roots],
            "coweights": [[str(x) for x in w] for w in self.coweights],
            "cartan_matrix": self.cartan,
        }

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
    if not name:
        raise ValueError("empty group label")
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
    """All roots of R in the rational span of the coefficient tuples S,
    with its irreducible decomposition (components of the
    non-orthogonality graph)."""
    span = IntSpan(R.rank)
    for s in S:
        span.add(s)
    sub_pos = [r for r in R.positive_roots if span.contains(r)]
    components = _components(R, sub_pos)
    allroots = [r for c in components for r in c.roots]
    return SubsystemReport(allroots, span.rank, components)


def _components(R: RootSystem, sub_pos):
    """Irreducible components of the subsystem with positive roots
    `sub_pos` (in R.positive_roots order): the connected components of the
    non-orthogonality graph under the integer Gram matrix."""
    n, G = R.rank, R._igram
    unseen = set(sub_pos)
    components = []
    for seed in sub_pos:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        stack, comp, lengths = [seed], [seed], set()
        while stack:
            b = stack.pop()
            # the scaled pairings (b, a_j)
            row = [sum(b[i] * G[i][j] for i in range(n)) for j in range(n)]
            lengths.add(_dot(row, b))
            linked = [r for r in unseen if _dot(row, r)]
            unseen.difference_update(linked)
            comp.extend(linked)
            stack.extend(linked)
        comp.sort()
        cs = IntSpan(n)
        for r in comp:
            cs.add(r)
        full = comp + [tuple(-x for x in r) for r in comp]
        components.append(Component(full, cs.rank,
                                    _type_label(cs.rank, len(full), lengths)))
    components.sort(key=lambda c: (-c.rank, -c.size))
    return components


# ---------------------------------------------------------------------------
# fundamental reduction

def reduce_to_fundamental(R: RootSystem, S, rng=None):
    """Find w in W (as a word in simple reflections, 1-based) and an index
    set I with w(D_S) = the intersection of the simple walls {a_i, i in I}.
    S is a list of coefficient tuples.

    Walks a generic point x of D_S into the closed fundamental chamber by
    simple reflections, in the coordinates z_i = (a_i, x): a root b is the
    form sum b_i z_i there, and s_i sends z to z - z_i C[.][i]."""
    rng = rng or random.Random(0xC0C0)
    rootset = set(R.roots)
    if any(tuple(s) not in rootset for s in S):
        raise ValueError("S must consist of roots")
    S = [tuple(int(x) for x in s) for s in S]
    n = R.rank
    if len(S) >= n:
        raise ValueError("|S| must be < rank (strata of dimension >= 1)")
    span = IntSpan(n)
    for s in S:
        if not span.add(s):
            raise ValueError("S must be linearly independent")

    basis = nullspace(S or [(0,) * n])
    off = [r for r in R.positive_roots if not span.contains(r)]
    for _attempt in range(200):
        mix = [rng.randint(-10**6, 10**6) for _ in basis]
        z = [sum(m * b[j] for m, b in zip(mix, basis)) for j in range(n)]
        den = lcm(*(Fraction(x).denominator for x in z))
        z = [int(x * den) for x in z]
        if all(_dot(r, z) for r in off):
            break
    else:  # pragma: no cover
        raise RuntimeError("could not find a generic point of the stratum")

    C = R.cartan
    word = []
    while any(x < 0 for x in z):
        i = next(i for i, x in enumerate(z) if x < 0)
        z = [zj - z[i] * C[j][i] for j, zj in enumerate(z)]
        word.append(i + 1)
    I = frozenset(i + 1 for i in range(n) if z[i] == 0)
    if len(I) != len(S):
        raise InvariantViolation("reduced stratum has the wrong codimension")
    return word, I
