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

The construction runs on ints. The builders pass int coordinates, and a
`Fraction` only for the half-integer ones of E_n and F_4. One common
denominator q (2 for E_n and F_4, 1 for A, B, D) makes q a_i and q r integer
vectors, so the q^2-scaled Gram matrix, the Cartan matrix, the coweights
(an integer matrix over one denominator) and every root's simple-root
coefficients come from int dot products, each integrality guard being an
exact divisibility test. Fractions are still built for the public
`simple_vectors`, `coweights` and `_gram` (read by the symbolic layer and
the reports), for the one inverse of the Gram matrix, and one per output
coordinate by `vector`; `coefficients`, which reads ambient input, still
pairs it with the Fraction coweights.  The reports print root vectors by
`vector_strs`, from the ints alone.

The only subsystems the package builds are parabolic, spanned by simple
roots a_I: `span_subsystem` reads them off the Dynkin diagram.  Type labels
B_r and C_r are merged (they generate the same Coxeter group); reports use
"B".
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

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


def _scaled(v, q):
    """q v as a list of ints, for int or Fraction entries whose
    denominators divide q."""
    return [x.numerator * (q // x.denominator) for x in v]


class Component:
    """One irreducible component of a root subsystem; its type follows
    from its rank, size and set of squared root lengths.  Its positive
    roots, `members` and those of the components `merged`, are sorted on
    first read; `roots` (them, then their negatives) is built when read."""

    __slots__ = ("_parts", "_positive", "rank", "size", "coxeter_number",
                 "type_label")

    def __init__(self, members, lengths, rank, merged=()):
        self._parts = [members, *(c.positive for c in merged)]
        self._positive = None
        self.rank = rank
        self.size = 2 * len(members) + sum(c.size for c in merged)
        if self.size % rank:
            raise InvariantViolation("component size not a multiple of rank")
        self.coxeter_number = self.size // rank
        self.type_label = _type_label(rank, self.size, lengths)

    @property
    def positive(self):
        if self._positive is None:
            self._positive = sorted(itertools.chain(*self._parts))
        return self._positive

    @property
    def roots(self):
        return self.positive + [tuple(-x for x in r) for r in self.positive]

    def __repr__(self):
        return f"<{self.type_label}: rank {self.rank}, size {self.size}, h={self.coxeter_number}>"


class SubsystemReport:
    """A root subsystem: its irreducible components in order, and its roots
    as theirs concatenated in that order, built when read."""

    __slots__ = ("rank", "size", "components")

    def __init__(self, rank, components):
        self.rank = rank
        self.size = sum(c.size for c in components)
        self.components = components

    @property
    def roots(self):
        return [r for c in self.components for r in c.roots]

    def type_string(self):
        labels = Counter(sorted(c.type_label for c in self.components))
        return " x ".join(lab if k == 1 else f"{lab}^{k}"
                          for lab, k in labels.items()) or "empty"

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
        self.simple_vectors = tuple(tuple(Fraction(x) for x in a)
                                    for a in simple)
        self.simple = tuple(tuple(int(i == j) for j in range(rank))
                            for i in range(rank))
        self.degrees = tuple(degrees)
        self.coxeter_number = degrees[-1]

        # one common denominator q of every coordinate: q a_i and q r are
        # integer vectors, and all the work below is on them
        q = lcm(*(x.denominator for v in itertools.chain(simple, roots)
                  for x in v))
        S = [_scaled(a, q) for a in simple]
        self._q = q
        self._qsimple_cols = tuple(zip(*S))

        Q = [[_dot(a, b) for b in S] for a in S]   # q^2 times the Gram matrix
        qq = q * q
        self._gram = [[Fraction(g, qq) for g in row] for row in Q]
        # an integer multiple of the Gram matrix, for orthogonality and
        # length comparisons without Fractions
        k = gcd(qq, *(g for row in Q for g in row))
        self._igram = [[g // k for g in row] for row in Q]

        # fundamental coweights: w^i = sum_j (G^-1)_ij a_j = q W_i / d for
        # the integer rows W_i of (d Q^-1) S, Q = q^2 G and d the least
        # common denominator of Q^-1
        qinv = matinv(Q)
        d = lcm(*(x.denominator for row in qinv for x in row))
        W = [[sum(map(mul, a, col)) for col in self._qsimple_cols]
             for a in (_scaled(row, d) for row in qinv)]
        g = gcd(d, *(x for row in W for x in row))
        self._icoweights = tuple(tuple(x // g for x in row) for row in W)
        self._icoweight_den = d = d // g
        self.coweights = tuple(tuple(Fraction(q * x, d) for x in row)
                               for row in self._icoweights)

        # the coefficient of a_i in a root r is (w^i, r) = (W_i, q r) / d
        coeffs = []
        for r in roots:
            r = _scaled(r, q)
            c = [sum(map(mul, w, r)) for w in self._icoweights]
            if any(x % d for x in c):
                raise InvariantViolation("non-integer simple-root expansion")
            c = tuple(x // d for x in c)
            if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
                raise InvariantViolation("root with mixed-sign expansion")
            coeffs.append(c)
        self.roots = tuple(coeffs)
        self.positive_roots = tuple(r for r in self.roots
                                    if any(x > 0 for x in r))

        # Cartan pairing 2(a_i,a_j)/(a_j,a_j)
        if any(2 * g % Q[j][j] for row in Q for j, g in enumerate(row)):
            raise InvariantViolation("non-integer Cartan matrix")
        self.cartan = [[2 * g // Q[j][j] for j, g in enumerate(row)]
                       for row in Q]

        self._check_invariants(S)
        # the positive roots split by the 2-planes through a root gamma,
        # keyed by gamma and filled on first use by `strata._planes_through`
        self._planes = {}

    @cached_property
    def _gram_rows(self):
        """The row ((b, a_j))_j under the integer Gram matrix `_igram` of
        every positive root b, built on first use (`_igram` is symmetric,
        so its rows serve as its columns)."""
        G = self._igram
        return {b: tuple(sum(map(mul, b, col)) for col in G)
                for b in self.positive_roots}

    @cached_property
    def _supports(self):
        """Each positive root's support, bit i for a_{i+1}; on first use."""
        return {b: sum(1 << i for i, x in enumerate(b) if x)
                for b in self.positive_roots}

    @cached_property
    def _touches(self):
        """Each positive root's mask of simple roots not orthogonal to it."""
        return {b: sum(1 << i for i, x in enumerate(row) if x)
                for b, row in self._gram_rows.items()}

    # -- construction-time invariants ---------------------------------
    def _check_invariants(self, S):
        """The counting and closure invariants, and the duality of the
        coweights against the q-scaled simple roots S."""
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
        # (w^i, a_j) = (W_i, q a_j) / d
        d = self._icoweight_den
        for i, w in enumerate(self._icoweights):
            for j, a in enumerate(S):
                if _dot(w, a) != (d if i == j else 0):
                    raise InvariantViolation("coweights not dual to a_j")
        # kept for the membership tests of `coefficients` and
        # `reduce_to_fundamental`
        self._rootset = rootset = set(self.roots)
        for r in self.roots:
            if tuple(-x for x in r) not in rootset:
                raise InvariantViolation("R not closed under negation")

    # -- the ambient encoding -----------------------------------------
    def vector(self, beta):
        """The ambient vector sum_i beta_i a_i of a coefficient tuple."""
        q = self._q
        return tuple(Fraction(sum(map(mul, beta, col)), q)
                     for col in self._qsimple_cols)

    def vector_strs(self, beta):
        """The entries of `vector(beta)` as `str` prints them ("n" or
        "n/d" in lowest terms), from the integers q a_i with one gcd per
        entry and no Fraction: what the JSON reports print."""
        q = self._q
        out = []
        for col in self._qsimple_cols:
            n = sum(map(mul, beta, col))
            g = gcd(n, q)
            out.append(str(n // g) if g == q else f"{n // g}/{q // g}")
        return out

    def coefficients(self, v):
        """The coefficient tuple of the root with ambient vector v, or None
        if v is not a root."""
        c = tuple(_dot(w, v) for w in self.coweights)
        if self.vector(c) != tuple(v) \
                or any(Fraction(x).denominator != 1 for x in c):
            return None
        c = tuple(int(x) for x in c)
        return c if c in self._rootset else None

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
            "positive_roots": [self.vector_strs(r)
                               for r in self.positive_roots],
            "coweights": [[str(x) for x in w] for w in self.coweights],
            "cartan_matrix": self.cartan,
        }

    def __repr__(self):
        return f"<RootSystem {self.label}{self.rank}: |R+|={len(self.positive_roots)}, h={self.coxeter_number}>"


# ---------------------------------------------------------------------------
# builders

def _pm_pairs(n):
    """The roots +-e_i +-e_j (i < j) of R^n, for i, then j, then the sign of
    e_i, then that of e_j; every builder lists them in this order."""
    for i, j in itertools.combinations(range(n), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0] * n
                v[i], v[j] = si, sj
                yield tuple(v)


def _chain(n, dim):
    """e_i - e_{i+1} in R^dim for i < n: the simple roots of A_n, which
    the builders of B_n and D_n extend by one more."""
    return [[int(j == i) - int(j == i + 1) for j in range(dim)]
            for i in range(n)]


def _build_A(n):
    dim = n + 1
    roots = []
    for i in range(dim):
        for j in range(dim):
            if i != j:
                v = [0] * dim
                v[i], v[j] = 1, -1
                roots.append(v)
    return RootSystem("A", n, dim, roots, _chain(n, dim),
                      tuple(range(2, n + 2)))


def _build_B(n):
    roots = []
    for i in range(n):
        for s in (1, -1):
            v = [0] * n
            v[i] = s
            roots.append(v)
    roots.extend(_pm_pairs(n))
    simple = _chain(n - 1, n) + [[0] * (n - 1) + [1]]
    return RootSystem("B", n, n, roots, simple, tuple(2 * k for k in range(1, n + 1)))


def _build_D(n):
    roots = list(_pm_pairs(n))
    simple = _chain(n - 1, n) + [[0] * (n - 2) + [1, 1]]
    degrees = tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return RootSystem("D", n, n, roots, simple, degrees)


def _e8_roots():
    roots = list(_pm_pairs(8))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(Fraction(s, 2) for s in signs))
    return roots


def _e8_simple():
    a1 = tuple(Fraction(s, 2) for s in (1, -1, -1, -1, -1, -1, -1, 1))
    simple = [a1, (1, 1, 0, 0, 0, 0, 0, 0)]
    for k in range(3, 9):
        v = [0] * 8
        v[k - 2], v[k - 3] = 1, -1
        simple.append(tuple(v))
    return simple


def _build_E(rank):
    simple = _e8_simple()[:rank]
    span = IntSpan(8)
    for a in simple:
        span.add(_scaled(a, 2))
    normals = span.annihilator()
    roots = [r for r in _e8_roots()
             if not any(_dot(v, _scaled(r, 2)) for v in normals)]
    return RootSystem("E", rank, 8, roots, simple, DEGREES[f"E{rank}"])


def _build_F4():
    roots = []
    for i in range(4):
        for s in (1, -1):
            v = [0] * 4
            v[i] = s
            roots.append(tuple(v))
    roots.extend(_pm_pairs(4))
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(Fraction(s, 2) for s in signs))
    # long-long-short-short simple system
    simple = [
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 0, 1),
        tuple(Fraction(s, 2) for s in (1, -1, -1, -1)),
    ]
    return RootSystem("F", 4, 4, roots, simple, DEGREES["F4"])


def build_root_system(label, rank=None):
    """Build a root system by type label: A/B/D (with rank) or E6/E7/E8/F4."""
    label = label.upper()
    if label in ("E6", "E7", "E8", "F4"):
        label, rank = label[0], int(label[1])
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


def span_subsystem(R: RootSystem, I):
    """The parabolic subsystem spanned by the simple roots a_i, i in I
    (1-based), with its irreducible decomposition, listed by (-rank, -size),
    then by first appearance in R.positive_roots.  A component per
    connected piece (bit mask) of the Cartan matrix on I holds the roots
    whose support, which is connected, is in I and starts in the piece; its
    rank and root lengths are those of its simple roots."""
    I = {i - 1 for i in I}
    if not all(0 <= i < R.rank for i in I):
        raise ValueError("I must be a subset of {1..n}")
    C = R.cartan
    pieces = []
    for i in I:
        near = sum(1 << j for j in I if C[i][j])     # i too: C_ii = 2
        pieces = [p for p in pieces if not p & near] + \
            [near | sum(p for p in pieces if p & near)]
    home = {1 << i: p for p in pieces for i in I if p >> i & 1}
    off, members = ~sum(pieces), {}
    for b, support in R._supports.items():
        if not support & off:
            members.setdefault(home[support & -support], []).append(b)
    G = R._igram
    components = [Component(ms, {G[i][i] for i in I if p >> i & 1},
                            p.bit_count()) for p, ms in members.items()]
    components.sort(key=lambda c: (-c.rank, -c.size))
    return SubsystemReport(len(I), components)


# ---------------------------------------------------------------------------
# fundamental reduction

# seed of the generic point drawn in each stratum
_REDUCE_SEED = 0xC0C0


def reduce_to_fundamental(R: RootSystem, S):
    """Find w in W (as a word in simple reflections, 1-based) and an index
    set I with w(D_S) = the intersection of the simple walls {a_i, i in I}.
    S is a list of coefficient tuples.

    Walks a generic point x of D_S into the closed fundamental chamber by
    simple reflections, in the coordinates z_i = (a_i, x): a root b is the
    form sum b_i z_i there, and s_i sends z to z - z_i C[.][i]."""
    rng = random.Random(_REDUCE_SEED)
    if any(tuple(s) not in R._rootset for s in S):
        raise ValueError("S must consist of roots")
    S = [tuple(int(x) for x in s) for s in S]
    n = R.rank
    if len(S) >= n:
        raise ValueError("|S| must be < rank (strata of dimension >= 1)")
    span = IntSpan(n)
    for s in S:
        if not span.add(s):
            raise ValueError("S must be linearly independent")

    # z lies on D_S, so it is generic when only the roots of span(S)
    # vanish there
    basis = nullspace(S or [(0,) * n])
    for _attempt in range(200):
        mix = [rng.randint(-10**6, 10**6) for _ in basis]
        z = [sum(m * b[j] for m, b in zip(mix, basis)) for j in range(n)]
        den = lcm(*(Fraction(x).denominator for x in z))
        z = [int(x * den) for x in z]
        if all(span.contains(r) for r in R.positive_roots if not _dot(r, z)):
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
