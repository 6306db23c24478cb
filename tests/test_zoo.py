"""The ready-made constructions evaluate to their closed forms."""

import pytest

from twa import MAX_PLUS, MIN_PLUS, TwaError, decide_series_equal, zoo
from twa.oracle import equal_upto, words_upto


def test_letter_count_max_closed_form():
    aut = zoo.letter_count_max()
    for word in words_upto("ab", 8):
        assert aut.eval(word) == max(word.count("a"), word.count("b"))


def test_letter_count_max_three_letters():
    aut = zoo.letter_count_max(("a", "b", "c"))
    for word in words_upto("abc", 5):
        assert aut.eval(word) == max(word.count(ch) for ch in "abc")


def test_divisibility_series():
    for tag in (MAX_PLUS, MIN_PLUS):
        aut = zoo.divisibility_series(3, 7, tag)
        for n in range(20):
            expected = 7 if n % 3 == 0 else None
            assert aut.eval("a" * n) == expected


def test_periods_and_divisors_are_checked():
    for tag in (MAX_PLUS, MIN_PLUS):
        with pytest.raises(TwaError, match="period must be positive"):
            zoo.divisibility_series(0, 1, tag)
        with pytest.raises(TwaError, match="divisors must be coprime"):
            zoo.divisor_max_series(2, 4, tag)


def test_divisor_series_pairs_agree_across_tags():
    vmax = zoo.divisor_max_series(2, 3, MAX_PLUS)
    vmin = zoo.divisor_max_series(2, 3, MIN_PLUS)
    assert vmax.n == 5 and vmin.n == 6
    for n in range(40):
        expected = max((d for d in (2, 3) if n % d == 0), default=None)
        assert vmax.eval("a" * n) == expected
        assert vmin.eval("a" * n) == expected
    wmin = zoo.divisor_min_series(5, 7, MIN_PLUS)
    wmax = zoo.divisor_min_series(5, 7, MAX_PLUS)
    assert wmin.n == 12 and wmax.n == 35
    for n in range(80):
        expected = min((d for d in (5, 7) if n % d == 0), default=None)
        assert wmin.eval("a" * n) == expected
        assert wmax.eval("a" * n) == expected


def test_prime_period_values():
    assert zoo.prime_period_value(0) == 8
    assert zoo.prime_period_value(10) == 7
    assert zoo.prime_period_value(14) == 9
    assert zoo.prime_period_value(6) is None


def test_prime_period_pair_small_instance():
    tmax, tmin = zoo.prime_period_pair(2, 3, 5, 7)
    assert (tmax.n, tmin.n) == (175, 72)
    for n in range(60):
        expected = zoo.prime_period_value(n)
        assert tmax.eval("a" * n) == expected
        assert tmin.eval("a" * n) == expected


@pytest.mark.parametrize("pqrs", [(2, 3, 5, 4), (2, 3, 4, 5)])
def test_prime_period_pair_with_shared_factors_across_sides(pqrs):
    # 2 | 4 makes some product pairs unreachable; the series is unchanged
    tmax, tmin = zoo.prime_period_pair(*pqrs)
    assert (tmax.n, tmin.n) == (80, 42)
    p, q, r, s = pqrs
    for n in range(2 * p * q * r * s + 1):
        expected = zoo.prime_period_value(n, *pqrs)
        assert tmax.eval("a" * n) == expected
        assert tmin.eval("a" * n) == expected


def test_sample_pair_is_equivalent():
    amax, bmin = zoo.sample_equivalent_pair()
    assert decide_series_equal(amax, bmin).holds
    assert equal_upto(amax, bmin, 7).holds
