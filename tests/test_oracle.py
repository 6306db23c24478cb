"""The brute-force oracle itself: paths, counts, bounded sweeps, circuits."""

import random
import time
from fractions import Fraction

import pytest

from corpus import one_letter, random_automaton
from twa import MAX_PLUS, MIN_PLUS, OracleBoundError, TagMismatchError, WeightedAutomaton, save, zoo
from twa.cli import main
from twa.oracle import (
    MAX_ENUM,
    ambiguity,
    enum_paths,
    equal_upto,
    eval_bruteforce,
    max_ambiguity_upto,
    one_valued_upto,
    simple_circuits,
    words_upto,
)


def test_words_upto_is_length_lex():
    assert list(words_upto("ab", 2)) == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_enum_paths_demo_single_letter():
    amax, _ = zoo.sample_equivalent_pair()
    paths = enum_paths(amax, "a")
    assert paths == [((0, 1), 2)]  # one successful path, weight 0+1+1


def test_enum_paths_empty_word():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 1, initial=[(0, 2)], final=[(0, 3)]
    )
    assert enum_paths(aut, "") == [((0,), 5)]


def test_enum_paths_dead_letter_row():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 1, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, "a", 0, 1)]
    )
    assert enum_paths(aut, "b") == []


def test_ambiguity_equals_path_count():
    rng = random.Random(3)
    for _ in range(20):
        aut = random_automaton(rng, max_states=3)
        for word in words_upto(aut.alphabet, 4):
            assert ambiguity(aut, word) == len(enum_paths(aut, word))


def test_eval_bruteforce_folds_paths():
    amax, bmin = zoo.sample_equivalent_pair()
    assert eval_bruteforce(amax, "ab") == amax.eval("ab")
    assert eval_bruteforce(bmin, "ab") == bmin.eval("ab")


def test_equal_upto_finds_first_difference():
    a = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 1, initial=[(0, 0)], final=[(0, 0)],
        arcs=[(0, "a", 0, 1), (0, "b", 0, 1)],
    )
    b = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 1, initial=[(0, 0)], final=[(0, 0)],
        arcs=[(0, "a", 0, 1), (0, "b", 0, 2)],
    )
    verdict = equal_upto(a, b, 3)
    assert not verdict.holds and verdict.witness == "b"
    assert equal_upto(a, a, 3).holds


def test_equal_upto_compares_across_tags():
    amax, bmin = zoo.sample_equivalent_pair()
    assert equal_upto(amax, bmin, 6).holds


def test_one_valued_upto():
    two_values = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 3, initial=[(0, 0)],
        final=[(1, 0), (2, 0)],
        arcs=[(0, "a", 1, 1), (0, "a", 2, 2)],
    )
    verdict = one_valued_upto(two_values, 3)
    assert not verdict.holds and verdict.witness == "a"
    amax, bmin = zoo.sample_equivalent_pair()
    assert not one_valued_upto(amax, 6).holds  # genuinely many-valued
    assert not one_valued_upto(bmin, 6).holds


def test_max_ambiguity_upto():
    dup = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 3, initial=[(0, 0)],
        final=[(1, 0), (2, 0)],
        arcs=[(0, "a", 1, 1), (0, "a", 2, 1)],
    )
    count, word = max_ambiguity_upto(dup, 4)
    assert (count, word) == (2, "a")


def test_simple_circuits_example():
    circuits = simple_circuits(one_letter([{0: -1, 1: 2}, {0: 0}]))
    assert {mean for _, mean in circuits} == {-1, 1}
    assert ((0,), -1) in circuits and ((0, 1), 1) in circuits


def test_simple_circuits_means_are_exact():
    circuits = simple_circuits(one_letter([{1: 1}, {2: 1}, {0: 2}]))
    assert circuits == [((0, 1, 2), Fraction(4, 3))]


def test_simple_circuits_read_the_letter_sum():
    # arc 0 -> 1 weighs 2 on b and 0 -> 0 only exists on a: the heaviest letter counts
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 2, arcs=[(0, "a", 1, -4), (0, "b", 1, 2), (1, "a", 0, 0), (0, "a", 0, -1)]
    )
    assert simple_circuits(aut) == [((0,), -1), ((0, 1), 1)]
    message = "^simple_circuits requires a max-plus automaton, got min-plus$"
    with pytest.raises(TagMismatchError, match=message):
        simple_circuits(one_letter([{0: 0}], MIN_PLUS))


def test_oracle_bounds_guard():
    amax, _ = zoo.sample_equivalent_pair()
    with pytest.raises(OracleBoundError):
        list(words_upto("ab", 64))
    with pytest.raises(OracleBoundError):
        simple_circuits(one_letter([{} for _ in range(11)]))
    with pytest.raises(OracleBoundError):
        equal_upto(amax, amax, 64)


def _counter(alphabet):
    """A one-state automaton over ``alphabet`` whose every word weighs 0."""
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, alphabet, 1, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, ch, 0, 0) for ch in alphabet]
    )


@pytest.mark.parametrize("alphabet", ["a", ""], ids=["one letter", "no letter"])
def test_the_bound_refuses_long_sweeps_over_small_alphabets(alphabet):
    # |alphabet|^maxlen is 1 or 0 here, so only the length can refuse the sweep
    aut = _counter(alphabet)
    for maxlen in (MAX_ENUM, 10**12):
        with pytest.raises(OracleBoundError):
            equal_upto(aut, aut, maxlen)
        with pytest.raises(OracleBoundError):
            one_valued_upto(aut, maxlen)
        with pytest.raises(OracleBoundError):
            max_ambiguity_upto(aut, maxlen)
        with pytest.raises(OracleBoundError):
            list(words_upto(alphabet, maxlen))
    assert equal_upto(aut, aut, 50).holds
    assert one_valued_upto(aut, 50).holds
    assert max_ambiguity_upto(aut, 50) == (1, "")
    assert list(words_upto(alphabet, 3)) == ["", *(alphabet * k for k in (1, 2, 3) if alphabet)]


@pytest.mark.parametrize(
    "alphabet, longest",
    [("ab", 22), ("abcdefghij", 6)],
    ids=["two letters", "ten letters"],
)
def test_the_bound_counts_every_level_of_the_sweep(alphabet, longest):
    # 1 + a + ... + a^L words are swept, not a^L alone: 2^23 - 1 and 11,111,111
    # words pass the bound one length past the longest accepted sweep
    assert next(words_upto(alphabet, longest)) == ""
    with pytest.raises(OracleBoundError):
        next(words_upto(alphabet, longest + 1))


def test_the_bound_refuses_a_long_sweep_at_once(capsys, tmp_path):
    # the count stops at the first level past the bound, so a huge --maxlen
    # costs a few steps, not a power of 9,999,999 digits
    path = tmp_path / "ten.twa"
    save(_counter("abcdefghij"), str(path))
    start = time.perf_counter()
    code = main(["oracle", "ambiguity", str(path), "--maxlen", "9999999"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "enumeration bound" in err
    assert elapsed < 1.0


def test_words_upto_stops_at_the_first_empty_level():
    # the empty alphabet has one word: no level after the first is walked
    assert list(words_upto("", MAX_ENUM - 1)) == [""]
    aut = _counter("")
    assert equal_upto(aut, aut, MAX_ENUM - 1).holds
    assert max_ambiguity_upto(aut, MAX_ENUM - 1) == (1, "")
