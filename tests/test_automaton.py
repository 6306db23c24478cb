"""Automaton operations: evaluation, trim, support, products, negation."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import Nfa, automata, grid_product, random_automaton
from twa import (
    MAX_PLUS,
    MIN_PLUS,
    AlphabetError,
    TagMismatchError,
    WeightedAutomaton,
    hadamard,
    zoo,
)
from twa.automaton import _accessible_product, _pair_labels
from twa.errors import DimensionError, TwaError
from twa.oracle import eval_bruteforce, words_upto
from twa.semiring import semiring_for


@pytest.fixture(scope="module")
def pair():
    return zoo.sample_equivalent_pair()


def test_eval_on_empty_word(pair):
    amax, _ = pair
    assert amax.eval("") == 0


def test_eval_single_letter(pair):
    amax, _ = pair
    assert amax.eval("a") == 2


def test_eval_matches_path_enumeration_on_corpus(pair):
    rng = random.Random(11)
    for aut in pair:
        for word in words_upto(aut.alphabet, 8):
            assert aut.eval(word) == eval_bruteforce(aut, word)
    for aut in (random_automaton(rng, max_states=3) for _ in range(12)):
        for word in words_upto(aut.alphabet, 5):
            assert aut.eval(word) == eval_bruteforce(aut, word)


def test_eval_rejects_unknown_symbols(pair):
    amax, _ = pair
    with pytest.raises(AlphabetError):
        amax.eval("ax")


def test_eval_with_no_final_arrow_is_zero():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], arcs=[(0, "a", 1, 1)]
    )
    assert aut.eval("") is None
    assert aut.eval("a") is None


def test_trim_is_identity_on_trim_automata(pair):
    amax, _ = pair
    assert amax.trim() is amax
    trimmed = amax.trim().trim()
    assert trimmed == amax


def test_trim_drops_unreachable_state():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "ab",
        3,
        initial=[(0, 0)],
        final=[(1, 2)],
        arcs=[(0, "a", 1, 1), (2, "b", 1, 5)],  # state 2 is unreachable
    )
    slim = aut.trim()
    assert slim.n == 2
    for word in words_upto(aut.alphabet, 6):
        assert slim.eval(word) == aut.eval(word)


def test_trim_of_automaton_without_finals_is_empty():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], arcs=[(0, "a", 1, 1), (1, "a", 0, 1)]
    )
    assert aut.trim().n == 0


def test_trim_preserves_series_on_randoms():
    rng = random.Random(21)
    for _ in range(40):
        aut = random_automaton(rng, max_states=4)
        slim = aut.trim()
        assert slim.trim() == slim  # idempotent
        for word in words_upto(aut.alphabet, 4):
            assert slim.eval(word) == aut.eval(word)


def support_nfa(aut):
    """The production support NFA, read back into the reference NFA."""
    return Nfa.from_engine(aut._support_nfa(), aut.n)


def test_support_accepts_exactly_nonzero_words():
    rng = random.Random(31)
    corpus = [random_automaton(rng, max_states=4) for _ in range(25)]
    corpus.append(zoo.sample_equivalent_pair()[0])
    for aut in corpus:
        nfa = support_nfa(aut)
        for word in words_upto(aut.alphabet, 5):
            assert nfa.accepts(word) == (aut.eval(word) is not None)


def test_support_of_demo_pair_is_all_words(pair):
    amax, _ = pair
    nfa = support_nfa(amax)
    for word in words_upto(amax.alphabet, 6):
        assert nfa.accepts(word)


def test_support_of_empty_automaton_accepts_nothing():
    empty = WeightedAutomaton.from_arcs(MAX_PLUS, "a", 0)
    nfa = support_nfa(empty)
    assert not nfa.accepts("")
    assert not nfa.accepts("a")


def test_hadamard_single_paths():
    a = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 1)]
    )
    b = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 2)]
    )
    h = hadamard(a, b)
    assert h.eval("a") == 3
    assert h.eval("") is None  # zero absorbs


def test_hadamard_pointwise_contract():
    rng = random.Random(41)
    for _ in range(25):
        a = random_automaton(rng, max_states=3)
        b = random_automaton(rng, max_states=3)
        h = hadamard(a, b)
        for word in words_upto(a.alphabet, 4):
            x, y = a.eval(word), b.eval(word)
            # the product: rational +, the zero None absorbing
            assert h.eval(word) == (None if x is None or y is None else x + y)


def test_hadamard_rejects_mismatches(pair):
    amax, bmin = pair
    with pytest.raises(TagMismatchError):
        hadamard(amax, bmin)
    other = WeightedAutomaton.from_arcs(MAX_PLUS, "ac", 1, initial=[(0, 0)], final=[(0, 0)])
    with pytest.raises(AlphabetError):
        hadamard(amax, other)


# -- products build only reachable pairs ------------------------------------


def reachable(aut):
    """The states reachable from an initial arrow."""
    seen = {i for i, w in enumerate(aut.alpha) if w is not None}
    stack = list(seen)
    while stack:
        i = stack.pop()
        for mat in aut.mu.values():
            for j in mat.rows[i].keys() - seen:
                seen.add(j)
                stack.append(j)
    return seen


def assert_accessible_part_of_grid(product, grid):
    assert product.n <= grid.n
    assert reachable(product) == set(range(product.n))
    trimmed, expected = product.trim(), grid.trim()
    # == compares n, tag, alphabet, alpha, beta and every row
    assert trimmed == expected
    assert trimmed.state_labels == expected.state_labels


@given(st.sampled_from([MAX_PLUS, MIN_PLUS]).flatmap(
    lambda tag: st.tuples(automata(tag), automata(tag))
))
def test_hadamard_is_the_accessible_part_of_the_grid(ab):
    a, b = ab
    assert_accessible_part_of_grid(
        hadamard(a, b), grid_product(a, b, a.semiring, lambda x, y: x + y)
    )


def difference_product(a, b):
    """The product of the equality kernel: each weight is a's minus b's.

    The kernel formats no label; it is labelled here by the helper that
    labels extract_one_valued's output from the kept pairs.
    """
    product, pairs = _accessible_product(a, b, operator.sub)
    assert product.state_labels is None
    product.state_labels = _pair_labels(a, b, pairs)
    return product


@given(automata(MAX_PLUS), automata(MIN_PLUS))
def test_difference_product_is_the_accessible_part_of_the_grid(a, b):
    assert_accessible_part_of_grid(
        difference_product(a, b), grid_product(a, b, MAX_PLUS, operator.sub)
    )


@pytest.mark.parametrize("product", [hadamard, difference_product], ids=["hadamard", "difference"])
def test_products_skip_unreachable_pairs(product):
    # from (0,0), a 2-cycle and a 4-cycle in lockstep reach 4 of the 8 pairs
    a = zoo.divisibility_series(2, 1, MAX_PLUS)
    b = zoo.divisibility_series(4, 2, MAX_PLUS)
    result = product(a, b)
    assert result.n < a.n * b.n
    assert reachable(result) == set(range(result.n))
    assert result.state_labels == ("(0,0)", "(0,2)", "(1,1)", "(1,3)")


def test_negate_is_an_involution(pair):
    _, bmin = pair
    assert bmin.negate().negate() == bmin


def test_negate_flips_values_pointwise(pair):
    _, bmin = pair
    flipped = bmin.negate()
    assert flipped.semiring.tag == "max-plus"
    assert flipped.eval("b") == -1  # bmin evaluates b to 1
    for word in words_upto(bmin.alphabet, 5):
        value = bmin.eval(word)
        assert flipped.eval(word) == (None if value is None else -value)


def test_negate_single_transition():
    aut = WeightedAutomaton.from_arcs(
        MIN_PLUS, "a", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 3)]
    )
    flipped = aut.negate()
    assert flipped.mu["a"].rows[0].get(1) == -3
    assert flipped.semiring.tag == "max-plus"


def test_letter_sum():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "ab",
        2,
        initial=[(0, 0)],
        final=[(1, 0)],
        arcs=[(0, "a", 1, 1), (0, "b", 1, 2)],
    )
    assert aut.letter_sum() == [{1: 2}, {}]
    single = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 5)]
    )
    assert single.letter_sum() == single.mu["a"].rows
    assert single.letter_sum() is not single.mu["a"].rows  # a copy, never the letter's own rows
    silent = WeightedAutomaton.from_arcs(MAX_PLUS, "ab", 2, initial=[(0, 0)], final=[(1, 0)])
    assert silent.letter_sum() == [{}, {}]


@given(st.sampled_from([MAX_PLUS, MIN_PLUS]).flatmap(lambda tag: automata(tag, alphabet="abc")))
def test_letter_sum_is_the_chain_of_matrix_sums(aut):
    # same entries in the same order (the first letter's first), and rows
    # that check out like the rows of a validated automaton
    expected = [{} for _ in range(aut.n)]
    for ch in aut.alphabet:
        for row, mrow in zip(expected, aut.mu[ch].rows):
            for j, w in mrow.items():
                row[j] = w if j not in row else aut.semiring.plus(row[j], w)
    m = aut.letter_sum()
    assert [list(row.items()) for row in m] == [list(row.items()) for row in expected]
    assert WeightedAutomaton(aut.semiring, "a", aut.n, aut.alpha, aut.beta, {"a": m}).mu["a"].rows == m


def reference_trim_states(aut):
    """States reachable from an initial arrow and co-reachable to a final one."""
    def closure(seeds, edges):
        seen = set(seeds)
        stack = list(seen)
        while stack:
            i = stack.pop()
            for j in edges(i):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    arcs = [(i, j) for i, _, j, _ in aut.arcs()]
    fwd = closure([i for i, w in enumerate(aut.alpha) if w is not None], lambda i: [t for s, t in arcs if s == i])
    bwd = closure([i for i, w in enumerate(aut.beta) if w is not None], lambda j: [s for s, t in arcs if t == j])
    return sorted(fwd & bwd)


@given(automata(MAX_PLUS, max_states=8))
def test_trim_keeps_the_useful_states_in_order(aut):
    keep = reference_trim_states(aut)
    trimmed = aut.trim()
    assert trimmed.n == len(keep)
    assert trimmed.alpha == [aut.alpha[i] for i in keep]
    assert trimmed.beta == [aut.beta[i] for i in keep]
    index = {old: new for new, old in enumerate(keep)}
    assert sorted(trimmed.arcs()) == sorted(
        (index[s], ch, index[t], w) for s, ch, t, w in aut.arcs() if s in index and t in index
    )
    assert (trimmed is aut) == (len(keep) == aut.n)


def test_constructor_validates():
    with pytest.raises(AlphabetError):
        WeightedAutomaton.from_arcs(MAX_PLUS, "aa", 1)
    with pytest.raises(AlphabetError):
        WeightedAutomaton.from_arcs(MAX_PLUS, ["ab"], 1)
    with pytest.raises(TagMismatchError):
        WeightedAutomaton.from_arcs(MAX_PLUS, "a", 1, initial=[(0, 0.5)])
    with pytest.raises(TagMismatchError):
        WeightedAutomaton.from_arcs(MAX_PLUS, "a", 1, initial=[(0, (1, 2))])
    # supports are NFAs, never a weighted automaton's tag
    with pytest.raises(TagMismatchError):
        WeightedAutomaton.from_arcs("boolean", "a", 1)
    # a state count is an int, as a state index is: "1" and None raised a
    # bare TypeError from a comparison, 2.0 failed in an allocation, and True
    # and 1.0 were taken as one state
    for n in ("1", None, 2.0, True, 1.0):
        with pytest.raises(DimensionError, match=f"state count {n!r} is not an int"):
            WeightedAutomaton(MAX_PLUS, "a", n, [None], [None], {"a": [{}]})
        with pytest.raises(DimensionError, match=f"state count {n!r} is not an int"):
            WeightedAutomaton.from_arcs(MAX_PLUS, "a", n)


def test_constructor_copies_its_input():
    rows = {"a": [{1: 2}, {}], "b": [{}, {0: -1}]}
    alpha, beta = [0, None], [None, 0]
    aut = WeightedAutomaton(MAX_PLUS, "ab", 2, alpha, beta, rows)
    expected = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 2), (1, "b", 0, -1)]
    )
    assert aut == expected
    rows["a"][0][1] = 5
    rows["a"][1][0] = 3
    rows["b"].append({})
    alpha[1] = 4
    beta[0] = 4
    assert aut == expected
    assert aut.eval("ab") is None and aut.eval("a") == 2


def test_constructor_takes_an_automatons_mu_and_copies_its_rows():
    # an automaton's own mu may be handed back, as the benchmark does
    amax, _ = zoo.sample_equivalent_pair()
    copy = WeightedAutomaton(amax.semiring, amax.alphabet, amax.n, amax.alpha, amax.beta, amax.mu)
    assert copy == amax
    for ch in amax.alphabet:
        assert copy.mu[ch] is not amax.mu[ch]
        assert all(a is not b for a, b in zip(copy.mu[ch].rows, amax.mu[ch].rows))


@pytest.mark.parametrize(
    "mu, error",
    [
        ({"a": [{}]}, DimensionError),  # one row for two states
        ({"a": [{}, {}, {}]}, DimensionError),
        ({"a": [{2: 0}, {}]}, DimensionError),  # a column out of range
        ({"a": [{}, {-1: 0}]}, DimensionError),
        ({"a": [{0: None}, {}]}, TagMismatchError),  # the zero is never stored
        ({"a": [{0: 0.5}, {}]}, TagMismatchError),
        ({"a": [{}, {1: True}]}, TagMismatchError),
        ({}, AlphabetError),  # a letter without rows
        ({"a": [{}, {}], "b": [{}, {}]}, AlphabetError),  # rows without a letter
        ({"a": [{True: 1}, {}]}, DimensionError),  # a column that is not an int
        ({"a": [{1.0: 1}, {}]}, DimensionError),
        ({"a": [{"1": 1}, {}]}, DimensionError),
    ],
)
def test_constructor_checks_every_row(mu, error):
    with pytest.raises(error):
        WeightedAutomaton(MAX_PLUS, "a", 2, [0, None], [None, 0], mu)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_from_arcs_takes_only_int_states(bad):
    # a bool or float state was kept, and serialize then wrote a file that
    # parse rejects, or eval failed later; a string failed with a bare TypeError
    for parts in (
        {"arcs": [(0, "a", bad, 1)]},
        {"arcs": [(bad, "a", 1, 1)]},
        {"initial": [(bad, 0)]},
        {"final": [(bad, 0)]},
    ):
        with pytest.raises(DimensionError):
            WeightedAutomaton.from_arcs(MAX_PLUS, "a", 2, **parts)


def test_fraction_weights_evaluate_exactly():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "a",
        1,
        initial=[(0, Fraction(1, 3))],
        final=[(0, Fraction(1, 6))],
        arcs=[(0, "a", 0, Fraction(1, 2))],
    )
    assert aut.eval("aa") == Fraction(3, 2)


# -- from_arcs checks each weight once, and raises as the constructors do ------


def ref_from_arcs(tag, alphabet, n, *, initial=(), final=(), arcs=(), labels=None):
    """from_arcs through the public constructor, which copies and checks every row again."""
    sr = semiring_for(tag)
    alphabet = tuple(alphabet)
    alpha = [None] * n
    beta = [None] * n
    rows = {ch: [dict() for _ in range(n)] for ch in alphabet}

    def check_state(i):
        if type(i) is not int or not 0 <= i < n:
            raise DimensionError(f"state {i!r} is not an int in range({n})")

    for i, w in initial:
        check_state(i)
        if alpha[i] is not None:
            raise TwaError(f"duplicate initial weight for state {i}")
        alpha[i] = w
    for i, w in final:
        check_state(i)
        if beta[i] is not None:
            raise TwaError(f"duplicate final weight for state {i}")
        beta[i] = w
    for src, ch, dst, w in arcs:
        check_state(src)
        check_state(dst)
        if ch not in rows:
            raise AlphabetError(f"unknown letter {ch!r}")
        if dst in rows[ch][src]:
            raise TwaError(f"duplicate arc {src} -{ch}-> {dst}")
        rows[ch][src][dst] = w
    return WeightedAutomaton(sr, alphabet, n, alpha, beta, rows, state_labels=labels)


def _built(build, *args, **kwargs):
    """Every part of the automaton built, rows in insertion order, or what was raised."""
    try:
        aut = build(*args, **kwargs)
    except TwaError as exc:
        return type(exc), str(exc)
    rows = {ch: [list(row.items()) for row in mat.rows] for ch, mat in aut.mu.items()}
    return aut.semiring, aut.alphabet, aut.n, aut.alpha, aut.beta, rows, aut.state_labels


# the kinds that hypothesis draws more often come first
FLAWS = ["weight", "state", "duplicate", "n", "letter", "labels", "alphabet", "tag"]
BAD_WEIGHTS = ["1", 0.5, True, None]


@st.composite
def from_arcs_parts(draw):
    """Arguments of from_arcs: well formed, then up to two flaws, each at a random place."""
    flaws = draw(st.lists(st.sampled_from(FLAWS), max_size=2))
    tag = "boolean" if "tag" in flaws else draw(st.sampled_from([MAX_PLUS, MIN_PLUS, "min-plus"]))
    alphabet = list(draw(st.sampled_from(["ab", "a", ""])))
    if "alphabet" in flaws:
        bad = draw(st.sampled_from(["a", "#", " ", "ab"]))
        alphabet.insert(draw(st.integers(0, len(alphabet))), bad)
    n = -1 if "n" in flaws else draw(st.integers(1, 3))
    state = st.integers(0, max(n, 1) - 1)
    weight = st.sampled_from([0, -2, 3, Fraction(1, 2)])
    letter = st.sampled_from([ch for ch in alphabet if len(ch) == 1] or ["a"])
    arrow = st.tuples(state, weight)
    initial = draw(st.lists(arrow, max_size=2, unique_by=lambda a: a[0]))
    final = draw(st.lists(arrow, max_size=2, unique_by=lambda a: a[0]))
    arc = st.tuples(state, letter, state, weight)
    arcs = draw(st.lists(arc, max_size=4, unique_by=lambda a: a[:3]))
    labels = draw(st.none() | st.just([f"q{i}" for i in range(max(n, 0))]))
    for flaw in flaws:
        parts, ch = draw(st.sampled_from([initial, final, arcs])), draw(letter)
        if flaw == "state":
            bad = draw(st.sampled_from([-1, max(n, 1), True, 1.0, "1"]))
            entries = [(bad, 0)] if parts is not arcs else [(bad, ch, 0, 0), (0, ch, bad, 0)]
        elif flaw == "letter":
            parts, entries = arcs, [(0, "z", 0, 0)]
        elif flaw == "duplicate":
            entries = [(0, 0)] * 2 if parts is not arcs else [(0, ch, 0, 0)] * 2
        elif flaw == "weight":
            w = draw(st.sampled_from(BAD_WEIGHTS))
            entries = [(0, w)] if parts is not arcs else [(0, ch, 0, w)]
        else:
            if flaw == "labels":
                labels = ["p"] * (max(n, 0) + 1)
            continue
        for entry in entries if flaw == "duplicate" else [draw(st.sampled_from(entries))]:
            parts.insert(draw(st.integers(0, len(parts))), entry)
    return tag, alphabet, n, dict(initial=initial, final=final, arcs=arcs, labels=labels)


@settings(max_examples=500)
@given(from_arcs_parts())
def test_from_arcs_raises_what_the_public_constructors_raise(parts):
    tag, alphabet, n, arrows = parts
    expected = _built(ref_from_arcs, tag, alphabet, n, **arrows)
    assert _built(WeightedAutomaton.from_arcs, tag, alphabet, n, **arrows) == expected
