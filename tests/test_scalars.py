"""Coefficient ring tests: ring axioms, rendering grammar, specialization."""

import random
from fractions import Fraction

import pytest

from hecke_kit.scalars import A, B, BiPoly, ParamSpec, y_seq


def rand_poly(rng, nterms=4, deg=3, cmax=6):
    return BiPoly(
        [((rng.randint(0, deg), rng.randint(0, deg)), rng.randint(-cmax, cmax)) for _ in range(nterms)]
    )


def test_zero_terms_dropped():
    p = BiPoly([((1, 0), 2), ((1, 0), -2), ((0, 1), 5)])
    assert p.terms == {(0, 1): 5}
    assert BiPoly([((2, 2), 0)]).is_zero()


def test_cancellation_leaves_no_terms():
    rng = random.Random(13)
    for _ in range(100):
        p = rand_poly(rng)
        assert (p + (-p)).terms == {}
        assert (p - p).terms == {}
        assert (-p + p).terms == {}
    assert ((A - B) * (A + B) - (A * A - B * B)).terms == {}
    assert (A * 0).terms == {} and (0 * B).terms == {}


def test_arithmetic_matches_constructor_normalization():
    # the public constructor, given the raw term lists, is the reference
    rng = random.Random(14)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        pt, qt = list(p.terms.items()), list(q.terms.items())
        assert (p + q).terms == BiPoly(pt + qt).terms
        assert (p - q).terms == BiPoly(pt + [(k, -c) for k, c in qt]).terms
        assert (-p).terms == BiPoly([(k, -c) for k, c in pt]).terms
        prod = [((i1 + i2, j1 + j2), c1 * c2) for (i1, j1), c1 in pt for (i2, j2), c2 in qt]
        assert (p * q).terms == BiPoly(prod).terms
        assert 0 not in (p + q).terms.values() and 0 not in (p * q).terms.values()


def test_equal_polynomials_hash_equal():
    routes = [
        (A + B) * (A - B),
        A * A - B * B,
        BiPoly.parse("a^2 - b^2"),
        BiPoly([((0, 2), -1), ((2, 0), 1), ((1, 1), 0)]),
        (A + 1) * (A - 1) - B * B + 1,
        -(B * B - A ** 2),
    ]
    for p in routes:
        assert p == routes[0] and hash(p) == hash(routes[0])
    assert hash(A - A) == hash(BiPoly.zero())
    seen = {p: i for i, p in enumerate(routes)}
    assert len(seen) == 1


def test_rendering_examples():
    # (-a)*a^2 + b*(-a), graded display with the degree-3 term first
    p = (-A) * A ** 2 + B * (-A)
    assert str(p) == "-a^3 - a*b"
    assert str(A ** 2 + B) == "a^2 + b"
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.const(-7)) == "-7"
    assert str(3 - 2 * A * B ** 2) == "-2*a*b^2 + 3"


def test_parse_round_trip_fixed():
    for text in ["0", "-a^3 - a*b", "a^2 + b", "7", "-2*a*b^2 + 3", "a*b - 1"]:
        assert str(BiPoly.parse(text)) == text


def test_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        p = rand_poly(rng)
        assert BiPoly.parse(str(p)) == p


def test_parse_rejects_garbage():
    for bad in ["a^", "a b", "* a", "c + 1", "a^-2"]:
        with pytest.raises(ValueError):
            BiPoly.parse(bad)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(150):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == BiPoly.zero()
        assert p * BiPoly.one() == p
        assert p * BiPoly.zero() == BiPoly.zero()


def test_specialize_is_ring_hom():
    rng = random.Random(3)
    pts = [ParamSpec(Fraction(1), Fraction(0)), ParamSpec(Fraction(-1, 2), Fraction(3, 4))]
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        for pt in pts:
            assert (p + q).specialize(pt) == p.specialize(pt) + q.specialize(pt)
            assert (p * q).specialize(pt) == p.specialize(pt) * q.specialize(pt)
    assert BiPoly.one().specialize(pts[1]) == 1


def test_param_parse():
    p = ParamSpec.parse("2,3")
    assert (p.a0, p.b0) == (2, 3)
    q = ParamSpec.parse("-1/2, 3/4")
    assert (q.a0, q.b0) == (Fraction(-1, 2), Fraction(3, 4))
    assert str(q) == "-1/2,3/4"
    with pytest.raises(ValueError):
        ParamSpec.parse("1")


def test_y_seq_frozen_values():
    ys = y_seq(5)
    assert [str(p) for p in ys[:4]] == ["0", "-a", "a^2", "-a^3 - a*b"]
    # recurrence holds throughout
    for k in range(2, 6):
        assert ys[k] == -A * ys[k - 1] + B * ys[k - 2]


def test_y_seq_specializes():
    # at the 0-Hecke point the sequence is 0, -1, 1, -1, 1, ...
    pt = ParamSpec(Fraction(1), Fraction(0))
    vals = [p.specialize(pt) for p in y_seq(6)]
    assert vals == [0, -1, 1, -1, 1, -1, 1]
