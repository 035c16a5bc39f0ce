"""Root system construction, subsystem spans, and fundamental reduction."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from saitostrata import roots
from saitostrata.algebra import InvariantViolation
from saitostrata.exactla import IntSpan, matinv
from saitostrata.roots import (build_root_system, parse_group,
                               span_subsystem, reduce_to_fundamental)

GROUPS = [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 4), ("D", 4),
          ("F", 4), ("E", 6), ("E", 7), ("E", 8)]

# (label, rank) -> invariant degrees
KNOWN_DEGREES = {
    ("A", 4): (2, 3, 4, 5),
    ("B", 4): (2, 4, 6, 8),
    ("D", 4): (2, 4, 4, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


@pytest.mark.parametrize("label,rank", GROUPS)
def test_cardinality_and_degrees(label, rank):
    R = build_root_system(label, rank)
    n, h = R.rank, R.coxeter_number
    assert len(R.positive_roots) == n * h // 2
    assert sum(d - 1 for d in R.degrees) == len(R.positive_roots)
    if (label, rank) in KNOWN_DEGREES:
        assert R.degrees == KNOWN_DEGREES[(label, rank)]


@pytest.mark.parametrize("label,rank", GROUPS)
def test_coweights_dual_to_simple_roots(label, rank):
    R = build_root_system(label, rank)
    for i, w in enumerate(R.coweights):
        for j, a in enumerate(R.simple_vectors):
            dot = sum(Fraction(x) * Fraction(y) for x, y in zip(w, a))
            assert dot == (1 if i == j else 0)


@pytest.mark.parametrize("label,rank", GROUPS)
def test_roots_closed_under_simple_reflections(label, rank):
    R = build_root_system(label, rank)
    rootset = set(R.roots)
    for i in range(R.rank):
        for r in R.positive_roots:
            assert R.reflect(i, r) in rootset


@pytest.mark.parametrize("label,rank", GROUPS)
def test_reflection_matches_ambient_reflection(label, rank):
    # the integer reflection of coefficient tuples is the Euclidean
    # reflection of the ambient vectors
    R = build_root_system(label, rank)
    for i, a in enumerate(R.simple_vectors):
        aa = sum(x * x for x in a)
        for r in R.positive_roots:
            v = R.vector(r)
            c = 2 * sum(x * y for x, y in zip(a, v)) / aa
            assert R.vector(R.reflect(i, r)) == \
                tuple(x - c * y for x, y in zip(v, a))


def test_expansion_is_integral_and_one_signed():
    R = build_root_system("F", 4)
    assert R.simple == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                        (0, 0, 0, 1))
    for r in R.positive_roots:
        assert all(isinstance(c, int) and c >= 0 for c in r)
        v = R.vector(r)
        assert v == tuple(sum(r[i] * R.simple_vectors[i][k]
                              for i in range(R.rank))
                          for k in range(R.ambient_dim))
        assert R.coefficients(v) == r
        assert R.coefficients(tuple(-x for x in v)) == tuple(-c for c in r)
    # neither a non-root in the span nor a vector off it converts
    assert R.coefficients(R.vector((2, 0, 0, 0))) is None
    assert R.coefficients((Fraction(1),) * 3) is None
    E6 = build_root_system("E", 6)
    assert E6.coefficients((0, 0, 0, 0, 0, 0, 1, 1)) is None


# sha256 of repr(R.roots): the builders' root order fixes every class
# representative beta in the reports, so it must not move
ROOT_ORDER_DIGESTS = {
    ("B", 4): "2fc5898289b44c6d58997912d9da77fa24af9a464a6213015c17fc99f1c90cb6",
    ("D", 5): "3919ba0d944bdd42215377fd62ba52e7b80e56e39af5442957b0619d89b70a4c",
    ("E", 8): "575ced38cdc1bafae03e85401e35361d34650f9d62d461b80773239ebf9d7ad5",
    ("F", 4): "9d15e7cb2025cde23d617b14cf59738295b6337590eeb0dd2a7b462bc7d27744",
}


@pytest.mark.parametrize("label,rank", sorted(ROOT_ORDER_DIGESTS))
def test_root_order_is_pinned(label, rank):
    R = build_root_system(label, rank)
    digest = hashlib.sha256(repr(R.roots).encode()).hexdigest()
    assert digest == ROOT_ORDER_DIGESTS[(label, rank)]


def test_parse_group_forms():
    assert parse_group("A3").rank == 3
    assert parse_group("E8").coxeter_number == 30
    # C realizes the same Coxeter group as B
    assert parse_group("C3").degrees == parse_group("B3").degrees
    with pytest.raises(ValueError):
        parse_group("H3")


class TestSpanSubsystem:
    def test_e8_parabolic_a5(self):
        R = build_root_system("E", 8)
        rep = span_subsystem(R, (4, 5, 6, 7, 8))
        assert rep.type_string() == "A5"
        assert rep.size == 30
        assert rep.rank == 5

    def test_reducible_span(self):
        R = build_root_system("A", 3)
        rep = span_subsystem(R, (1, 3))
        assert len(rep.components) == 2
        assert rep.type_string() == "A1^2"
        assert sorted(c.rank for c in rep.components) == [1, 1]

    def test_components_partition_roots(self):
        R = build_root_system("E", 7)
        rep = span_subsystem(R, (1, 3, 5, 7))
        total = sum(c.size for c in rep.components)
        assert total == rep.size == len(rep.roots)

    def test_rejects_indices_off_the_diagram(self):
        R = build_root_system("A", 3)
        for I in ((0,), (4,), (1, 4), (-1, 2)):
            with pytest.raises(ValueError):
                span_subsystem(R, I)


def _ref_components(R, sub_pos):
    """Irreducible components of the subsystem with positive roots
    `sub_pos` (in R.positive_roots order) by one graph search on the Gram
    rows that pops a root and scans every unseen one: the reference for
    `roots.span_subsystem`, which reads the Cartan matrix."""
    n, rows = R.rank, R._gram_rows
    unseen = set(sub_pos)
    components = []
    for seed in sub_pos:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        stack, comp, lengths = [seed], [seed], set()
        while stack:
            b = stack.pop()
            row = rows[b]
            lengths.add(roots._dot(row, b))
            linked = [r for r in unseen if roots._dot(row, r)]
            unseen.difference_update(linked)
            comp.extend(linked)
            stack.extend(linked)
        comp.sort()
        cs = IntSpan(n)
        for r in comp:
            cs.add(r)
        components.append(roots.Component(comp, lengths, cs.rank))
    components.sort(key=lambda c: (-c.rank, -c.size))
    return components


def _ref_span(R, S):
    """The roots of R in the span of the coefficient tuples S, split by
    `_ref_components`: the reference subsystem for any S."""
    span = IntSpan(R.rank)
    for s in S:
        span.add(s)
    return roots.SubsystemReport(span.rank, _ref_components(
        R, [r for r in R.positive_roots if span.contains(r)]))


class TestLinkMatchesGraphSearch:
    @pytest.mark.parametrize("label,rank", [("B", 4), ("D", 5), ("E", 6),
                                            ("F", 4)])
    def test_simple_root_subsets(self, label, rank):
        R = build_root_system(label, rank)
        for size in range(rank + 1):
            for I in itertools.combinations(range(1, rank + 1), size):
                ref = _ref_span(R, [R.simple[i - 1] for i in I])
                rep = span_subsystem(R, I)
                assert rep.rank == ref.rank == size
                assert [(c.type_label, c.rank, c.size, c.roots)
                        for c in rep.components] == \
                    [(c.type_label, c.rank, c.size, c.roots)
                     for c in ref.components]
                assert rep.roots == ref.roots


# recorded before `reduce_to_fundamental` tested genericity by span
# membership in place of the roots off the span
REDUCE_DIGESTS = {
    ("A", 4): "0cb2154451488a58ee193afb306600ce4b64a8f0e9aab6036f6007513289aa88",
    ("B", 3): "cb84906867dfc37269f429691df22c467f46957b095370f9c7f28ae1bd17a681",
    ("D", 4): "50bc919d50ae39eeaf2e52a4f127912a5b59b017edd597b2525c6d4e25fb404d",
    ("F", 4): "fc26bf08592b7e1035e3b737a89141df9b9fbf904236fc5d1a892aa90222e3bc",
    ("E", 6): "cb97e7dacba51b1324092310d667b61cc59f85ab9e8a9f0d73d3808f01b03727",
    ("E", 7): "e304bf676c7da44ec597dab9d0153e7d3d5eee36393f6128faeefc287d8e558d",
    ("E", 8): "e546302ff3988be5f01cab119d608951d8843ccc211f7af91924a151e69ff056",
}


class TestReduceToFundamental:
    @pytest.mark.parametrize("label,rank", [("A", 4), ("B", 3), ("D", 4),
                                            ("F", 4)])
    def test_random_strata_reach_fundamental_walls(self, label, rank):
        R = build_root_system(label, rank)
        rng = random.Random(42)
        for _ in range(5):
            size = rng.randint(1, R.rank - 1)
            while True:
                S = rng.sample(R.positive_roots, size)
                try:
                    word, I = reduce_to_fundamental(R, S)
                    break
                except ValueError:   # dependent sample; redraw
                    continue
            assert len(I) == len(S)
            # w maps the span of S onto the span of the walls alpha_i, i in I
            wS = [R.apply_word(word, s) for s in S]
            walls = _ref_span(R, [R.simple[i - 1] for i in I])
            assert set(wS) <= set(walls.roots)

    @pytest.mark.parametrize("label,rank", sorted(REDUCE_DIGESTS))
    def test_words_and_walls_are_pinned(self, label, rank):
        # sha256 of (word, sorted(I)) over seeded root samples, None for a
        # dependent one: the word depends on the generic point drawn
        R = build_root_system(label, rank)
        rng = random.Random(rank * 101 + ord(label))
        out = []
        for _ in range(24):
            S = rng.sample(R.positive_roots, rng.randint(1, rank - 1))
            try:
                word, I = reduce_to_fundamental(R, S)
                out.append((word, sorted(I)))
            except ValueError:
                out.append(None)
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == REDUCE_DIGESTS[(label, rank)]

    def test_rejects_non_roots_and_dependence(self):
        R = build_root_system("A", 3)
        with pytest.raises(ValueError):
            reduce_to_fundamental(R, [(1, 0, 1)])      # a1 + a3
        with pytest.raises(ValueError):
            reduce_to_fundamental(R, [(Fraction(1, 2), 0, 0)])
        a = R.simple[0]
        with pytest.raises(ValueError):
            reduce_to_fundamental(R, [a, tuple(-x for x in a)])


def test_json_serialization_uses_exact_fractions():
    R = build_root_system("F", 4)
    doc = R.to_json_dict()
    assert doc["coxeter_number"] == 12
    assert len(doc["positive_roots"]) == 24
    for row in doc["positive_roots"]:
        for entry in row:
            Fraction(entry)  # every coordinate parses back exactly


# A2 in R^3 given the degrees of B2: h = 4 needs |R+| = n h / 2 = 4, not 3
A2_ROOTS = [(1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1),
            (0, -1, 1)]
A2_SIMPLE = [(1, -1, 0), (0, 1, -1)]


def _raises_under_python_O(args):
    """Whether RootSystem(*args) raises InvariantViolation under `python
    -O`, so the check is not an assert that -O strips."""
    code = ("from fractions import Fraction\n"
            "from saitostrata.roots import RootSystem\n"
            "from saitostrata.algebra import InvariantViolation\n"
            "try:\n"
            f"    RootSystem(*{args!r})\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(3)\n")
    src = os.path.dirname(os.path.dirname(roots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr


def test_wrong_degrees_raise_invariant_violation():
    args = ("A", 2, 3, A2_ROOTS, A2_SIMPLE, (2, 4))
    with pytest.raises(InvariantViolation):
        roots.RootSystem(*args)
    _raises_under_python_O(args)


# -- the integer constructor against the Fraction one it replaced -------------

def _frac_dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


class _RefRootSystem:
    """The Fraction-arithmetic constructor, `vector` and `coefficients`
    that the integer ones replaced, kept as a reference."""

    def __init__(self, rank, ambient_dim, roots, simple):
        self.ambient_dim = ambient_dim
        self.simple_vectors = tuple(tuple(Fraction(x) for x in a)
                                    for a in simple)
        gram = [[_frac_dot(a, b) for b in self.simple_vectors]
                for a in self.simple_vectors]
        ginv = matinv(gram)
        self._gram = gram
        den = math.lcm(*(g.denominator for row in gram for g in row))
        self._igram = [[int(g * den) for g in row] for row in gram]
        self.coweights = tuple(
            tuple(sum(ginv[i][j] * self.simple_vectors[j][k]
                      for j in range(rank))
                  for k in range(ambient_dim))
            for i in range(rank))
        self.roots = tuple(tuple(int(_frac_dot(w, r)) for w in self.coweights)
                           for r in roots)
        self.positive_roots = tuple(r for r in self.roots
                                    if any(x > 0 for x in r))
        self.cartan = [[int(Fraction(2) * gram[i][j] / gram[j][j])
                        for j in range(rank)] for i in range(rank)]

    def vector(self, beta):
        return tuple(sum(b * a[k] for b, a in zip(beta, self.simple_vectors))
                     for k in range(self.ambient_dim))

    def coefficients(self, v):
        c = tuple(_frac_dot(w, v) for w in self.coweights)
        if self.vector(c) != tuple(v) \
                or any(Fraction(x).denominator != 1 for x in c):
            return None
        c = tuple(int(x) for x in c)
        return c if c in set(self.roots) else None


def _ref_root_system(monkeypatch, label, rank):
    """(R, the reference built from the same builder inputs)."""
    args = []

    class Capture(roots.RootSystem):
        def __init__(self, *a):
            args.append(a)
            super().__init__(*a)

    with monkeypatch.context() as m:
        m.setattr(roots, "RootSystem", Capture)
        R = build_root_system(label, rank)
    _, rank, dim, ambient_roots, simple, _ = args[0]
    return R, _RefRootSystem(rank, dim, ambient_roots, simple)


REFERENCE_GROUPS = ([("A", r) for r in range(1, 7)]
                    + [("B", r) for r in range(2, 7)] + [("C", 3)]
                    + [("D", r) for r in range(3, 7)]
                    + [("E", 6), ("E", 7), ("E", 8), ("F", 4)])


@pytest.mark.parametrize("label,rank", REFERENCE_GROUPS)
def test_integer_constructor_matches_fraction_reference(monkeypatch, label,
                                                        rank):
    R, ref = _ref_root_system(monkeypatch, label, rank)
    for attr in ("roots", "positive_roots", "simple_vectors", "coweights",
                 "_gram", "_igram", "cartan"):
        # repr also pins the types: Fractions stay Fractions, ints ints
        assert repr(getattr(R, attr)) == repr(getattr(ref, attr)), attr
    vectors = [ref.vector(r) for r in ref.roots]
    probes = list(vectors)
    probes += [tuple(2 * x for x in v) for v in vectors[:12]]      # non-roots
    probes += [tuple(x + y for x, y in zip(u, v))                  # sums
               for u, v in zip(vectors, vectors[1:12])]
    probes += [tuple(x / 3 for x in v) for v in vectors[:12]]      # off-lattice
    probes += [tuple(x + 1 for x in v) for v in vectors[:12]]      # off-span in A
    probes += [tuple(Fraction(1, 2) for _ in vectors[0]),
               tuple(1 for _ in vectors[0]), tuple(0 for _ in vectors[0])]
    probes += [v[:-1] for v in vectors[:4]] + [v + (0,) for v in vectors[:4]]
    for r, v in zip(R.roots, vectors):
        assert repr(R.vector(r)) == repr(v)
    for v in probes:
        assert R.coefficients(v) == ref.coefficients(v), v
    assert R.coefficients(vectors[0]) == R.roots[0]


@pytest.mark.parametrize("rank", [6, 7])
def test_e6_e7_are_the_e8_roots_in_their_span(rank):
    # a_1..a_rank of E_rank are those of E_8, so an E_8 root lies in their
    # span exactly when its last 8 - rank coefficients vanish
    E8, R = build_root_system("E", 8), build_root_system("E", rank)
    assert R.roots == tuple(c[:rank] for c in E8.roots if not any(c[rank:]))


# crafted inputs that each fail one integrality guard of the constructor
HALF_ROOT_A2 = A2_ROOTS + [(Fraction(1, 2), Fraction(-1, 2), 0),
                           (Fraction(-1, 2), Fraction(1, 2), 0)]
MIXED_SIGN_A2 = A2_ROOTS + [(1, -2, 1), (-1, 2, -1)]   # +-(a_1 - a_2)
# (a_1, a_1) = 9, (a_2, a_2) = 2, (a_1, a_2) = -3: 2(a_2, a_1)/(a_1, a_1) = -2/3
BAD_CARTAN_SIMPLE = [(3, 0), (-1, 1)]
BAD_CARTAN_ROOTS = [(3, 0), (-3, 0), (-1, 1), (1, -1)]

GUARD_CASES = {
    "non-integer simple-root expansion": (
        2, 3, HALF_ROOT_A2, A2_SIMPLE, (2, 3)),
    "root with mixed-sign expansion": (
        2, 3, MIXED_SIGN_A2, A2_SIMPLE, (2, 3)),
    "non-integer Cartan matrix": (
        2, 2, BAD_CARTAN_ROOTS, BAD_CARTAN_SIMPLE, (2, 2)),
}


@pytest.mark.parametrize("message", sorted(GUARD_CASES))
def test_integrality_guards_raise_invariant_violation(message):
    with pytest.raises(InvariantViolation, match=message):
        roots.RootSystem("A", *GUARD_CASES[message])


def test_integrality_guard_survives_python_O():
    _raises_under_python_O(
        ("A",) + GUARD_CASES["non-integer simple-root expansion"])
