"""Semiring arithmetic: axioms, the negation isomorphism, weight literals, the tags."""

import random
from fractions import Fraction

import pytest

from twa import (
    MAX_PLUS,
    MIN_PLUS,
    FormatError,
    TagMismatchError,
    WeightedAutomaton,
    format_finite,
    parse_finite,
    semiring_for,
)
from twa.semiring import Semiring


def otimes(x, y):
    """The product of both semirings: rational +, with the zero None absorbing."""
    return None if x is None or y is None else x + y


def negate(x):
    return None if x is None else -x


def test_oplus_zero_is_neutral():
    assert MAX_PLUS.plus(3, None) == 3
    assert MIN_PLUS.plus(None, 3) == 3
    assert MAX_PLUS.plus(None, None) is None


def test_oplus_max_and_min():
    assert MAX_PLUS.plus(2, 5) == 5
    assert MIN_PLUS.plus(2, 5) == 2
    assert MAX_PLUS.plus(Fraction(-1, 2), Fraction(1, 3)) == Fraction(1, 3)


def test_oplus_keeps_the_first_of_a_tie():
    # an int and an equal Fraction: the value's type does not switch
    for sr in (MAX_PLUS, MIN_PLUS):
        assert type(sr.plus(1, Fraction(1))) is int
        assert type(sr.plus(Fraction(1), 1)) is Fraction


def _path(tag, initial, arc, final):
    return WeightedAutomaton.from_arcs(
        tag, "a", 2, initial=[(0, initial)], final=[(1, final)], arcs=[(0, "a", 1, arc)]
    )


def test_otimes_zero_absorbs():
    # eval multiplies along a path; an absent arc or arrow is the zero
    no_arc = WeightedAutomaton.from_arcs(MAX_PLUS, "a", 2, initial=[(0, 3)], final=[(1, 0)])
    assert no_arc.eval("a") is None
    no_final = WeightedAutomaton.from_arcs(
        MIN_PLUS, "a", 2, initial=[(0, 3)], final=[(0, 1)], arcs=[(0, "a", 1, 0)]
    )
    assert no_final.eval("a") is None


def test_otimes_adds():
    assert _path(MAX_PLUS, 0, 1, 1).eval("a") == 2
    assert _path(MIN_PLUS, 0, Fraction(2, 3), Fraction(1, 3)).eval("a") == 1


def test_oplus_rejects_pair_tag():
    for tag in ("max-plus-pair", "no-such-semiring", ("max-plus", "min-plus")):
        with pytest.raises(TagMismatchError):
            semiring_for(tag)


def test_negate_weight():
    # the one negation of weights is WeightedAutomaton.negate
    aut = _path(MAX_PLUS, 3, Fraction(-5, 2), 0).negate()
    assert aut.semiring is MIN_PLUS
    assert aut.alpha == [-3, None] and aut.beta == [None, 0]
    assert aut.mu["a"].rows == [{1: Fraction(5, 2)}, {}]


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
    plus = tag.plus
    for _ in range(300):
        x, y, z = rng.choice(xs), rng.choice(xs), rng.choice(xs)
        assert plus(plus(x, y), z) == plus(x, plus(y, z))
        assert plus(x, y) == plus(y, x)
        assert plus(x, x) == x  # idempotent
        assert plus(x, None) == x and plus(None, x) == x
        assert otimes(x, plus(y, z)) == plus(otimes(x, y), otimes(x, z))
        assert otimes(plus(y, z), x) == plus(otimes(y, x), otimes(z, x))


def test_negation_is_involutive_and_swaps_the_additions():
    rng = random.Random(99)
    xs = _random_weights(rng, 60)
    for _ in range(300):
        x, y = rng.choice(xs), rng.choice(xs)
        assert negate(negate(x)) == x
        assert negate(MAX_PLUS.plus(x, y)) == MIN_PLUS.plus(negate(x), negate(y))
        assert negate(MIN_PLUS.plus(x, y)) == MAX_PLUS.plus(negate(x), negate(y))


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
    assert semiring_for(Semiring("max-plus", max)) is MAX_PLUS
    for tag in ("plus-times", "boolean"):
        with pytest.raises(TagMismatchError):
            semiring_for(tag)
