"""Semiring arithmetic: axioms, the negation isomorphism, weight literals, the tags."""

import random
from fractions import Fraction

import pytest

from twa import (
    MAX_PLUS,
    MIN_PLUS,
    FormatError,
    TagMismatchError,
    format_finite,
    negate_weight,
    oplus,
    otimes,
    parse_finite,
    semiring_for,
)


def test_oplus_zero_is_neutral():
    assert oplus(3, None, MAX_PLUS) == 3
    assert oplus(None, 3, MIN_PLUS) == 3
    assert oplus(None, None, MAX_PLUS) is None


def test_oplus_max_and_min():
    assert oplus(2, 5, MAX_PLUS) == 5
    assert oplus(2, 5, MIN_PLUS) == 2
    assert oplus(Fraction(-1, 2), Fraction(1, 3), MAX_PLUS) == Fraction(1, 3)


def test_otimes_zero_absorbs():
    assert otimes(3, None, MAX_PLUS) is None
    assert otimes(None, 3, MIN_PLUS) is None


def test_otimes_adds():
    assert otimes(1, 1, MAX_PLUS) == 2
    assert otimes(Fraction(2, 3), Fraction(1, 3), MIN_PLUS) == 1


def test_oplus_rejects_pair_tag():
    with pytest.raises(TagMismatchError):
        oplus((1, 2), (3, 4), "max-plus-pair")
    with pytest.raises(TagMismatchError):
        otimes(1, 2, "no-such-semiring")


def test_negate_weight():
    assert negate_weight(3) == -3
    assert negate_weight(None) is None
    assert negate_weight(Fraction(-5, 2)) == Fraction(5, 2)


def _random_weights(rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.25:
            out.append(None)
        elif rng.random() < 0.5:
            out.append(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        else:
            out.append(rng.randint(-10, 10))
    return out


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS])
def test_semiring_axioms(tag):
    rng = random.Random(1234)
    xs = _random_weights(rng, 40)
    one = tag.one
    for _ in range(300):
        x, y, z = rng.choice(xs), rng.choice(xs), rng.choice(xs)
        assert oplus(oplus(x, y, tag), z, tag) == oplus(x, oplus(y, z, tag), tag)
        assert oplus(x, y, tag) == oplus(y, x, tag)
        assert oplus(x, x, tag) == x  # idempotent
        assert otimes(otimes(x, y, tag), z, tag) == otimes(x, otimes(y, z, tag), tag)
        assert otimes(x, oplus(y, z, tag), tag) == oplus(
            otimes(x, y, tag), otimes(x, z, tag), tag
        )
        assert otimes(x, None, tag) is None and otimes(None, x, tag) is None
        assert otimes(x, one, tag) == x and otimes(one, x, tag) == x


def test_negation_is_involutive_and_swaps_the_additions():
    rng = random.Random(99)
    xs = _random_weights(rng, 60)
    for _ in range(300):
        x, y = rng.choice(xs), rng.choice(xs)
        assert negate_weight(negate_weight(x)) == x
        assert negate_weight(oplus(x, y, MAX_PLUS)) == oplus(
            negate_weight(x), negate_weight(y), MIN_PLUS
        )
        assert negate_weight(otimes(x, y, MAX_PLUS)) == otimes(
            negate_weight(x), negate_weight(y), MIN_PLUS
        )


def test_parse_finite_literals():
    assert parse_finite("3") == 3
    assert parse_finite("-7") == -7
    assert parse_finite("+2") == 2
    assert parse_finite("3/4") == Fraction(3, 4)
    assert parse_finite("-10/4") == Fraction(-5, 2)
    assert parse_finite("0.5") == Fraction(1, 2)
    assert parse_finite("-2.125") == Fraction(-17, 8)
    assert parse_finite("0.123456789") == Fraction(123456789, 10**9)


@pytest.mark.parametrize(
    "bad",
    ["", "x", "1/0", "1.2345678901", "1/2/3", ".5", "3.", "1e3", "1,-1",
     # digits outside ASCII: fullwidth five and three, Arabic-Indic one
     "1.\uff15", "\uff13", "\u0661/2"],
)
def test_parse_finite_rejects(bad):
    with pytest.raises(FormatError):
        parse_finite(bad)


def test_weight_roundtrip_is_canonical():
    rng = random.Random(5)
    for _ in range(200):
        w = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        text = format_finite(w)
        assert parse_finite(text) == w
        # whole values print as integers
        if w.denominator == 1:
            assert "/" not in text


def test_semiring_for_accepts_tags_and_instances():
    assert semiring_for("max-plus") is MAX_PLUS
    assert semiring_for(MIN_PLUS) is MIN_PLUS
    assert semiring_for(type(MAX_PLUS)()) is MAX_PLUS
    for tag in ("plus-times", "boolean"):
        with pytest.raises(TagMismatchError):
            semiring_for(tag)
