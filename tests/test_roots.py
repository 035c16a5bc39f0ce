"""Root system construction, subsystem spans, and fundamental reduction."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from saitostrata import roots
from saitostrata.algebra import InvariantViolation
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
        S = [R.simple[i - 1] for i in (4, 5, 6, 7, 8)]
        rep = span_subsystem(R, S)
        assert rep.type_string() == "A5"
        assert rep.size == 30
        assert rep.rank == 5

    def test_b3_short_long_split(self):
        R = build_root_system("B", 3)
        # two orthogonal short roots e1, e2 span a B-side A1 x A1... their
        # rational span contains the long roots e1 +- e2 as well: type B2
        e1 = R.coefficients((1, 0, 0))
        e2 = R.coefficients((0, 1, 0))
        assert (e1, e2) == ((1, 1, 1), (0, 1, 1))
        rep = span_subsystem(R, [e1, e2])
        assert rep.type_string() == "B2"
        assert rep.size == 8

    def test_reducible_span(self):
        R = build_root_system("A", 3)
        a1, a3 = R.simple[0], R.simple[2]
        rep = span_subsystem(R, [a1, a3])
        assert not rep.irreducible
        assert rep.type_string() == "A1^2"
        assert sorted(c.rank for c in rep.components) == [1, 1]

    def test_components_partition_roots(self):
        R = build_root_system("E", 7)
        S = [R.simple[i] for i in (0, 2, 4, 6)]
        rep = span_subsystem(R, S)
        total = sum(c.size for c in rep.components)
        assert total == rep.size == len(rep.roots)


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
            walls = span_subsystem(R, [R.simple[i - 1] for i in I])
            assert set(wS) <= set(walls.roots)

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


def test_wrong_degrees_raise_invariant_violation():
    with pytest.raises(InvariantViolation):
        roots.RootSystem("A", 2, 3, A2_ROOTS, A2_SIMPLE, (2, 4))
    # the check must not be an assert that `python -O` strips
    code = ("from saitostrata.roots import RootSystem\n"
            "from saitostrata.algebra import InvariantViolation\n"
            "try:\n"
            f"    RootSystem('A', 2, 3, {A2_ROOTS!r}, {A2_SIMPLE!r}, (2, 4))\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(3)\n")
    src = os.path.dirname(os.path.dirname(roots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
