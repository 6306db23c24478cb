"""Metamorphic properties of the deciders, checked exactly, with no length bound.

Conjugating an automaton by a potential h (alpha - h, beta + h, and
w + h_s - h_t on each arc s -> t) keeps the weight of every successful path,
so it must keep every Decision, witness included.  Adding c to every final
weight adds c to every coefficient, so it must map the constant test for k
to the constant test for k + c.  Renumbering the states changes no path,
so it must keep the nonpositivity verdict and, state by state, the arrows
of the Fatou renormalization.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import as_min_plus_copy, automata, conjugate, shift_final
from twa import (
    MAX_PLUS,
    MIN_PLUS,
    WeightedAutomaton,
    decide_equal_const,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    fatou_normalize,
)

# potentials and shifts mix ints and Fractions, some of them integral
offsets = st.integers(-6, 6) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def conjugates(draw, automaton):
    """An automaton drawn from ``automaton`` and a conjugate of it by a random potential."""
    aut = draw(automaton)
    return aut, conjugate(aut, draw(st.lists(offsets, min_size=aut.n, max_size=aut.n)))


@settings(max_examples=400)
@given(conjugates(automata(MAX_PLUS)), st.sampled_from([0, 1, -2, Fraction(1, 2)]))
def test_conjugation_keeps_nonpositivity_and_the_constant_tests(pair, const):
    aut, conj = pair
    assert decide_nonpositive(conj) == decide_nonpositive(aut)
    assert decide_equal_const(conj, const) == decide_equal_const(aut, const)
    assert decide_equal_const_on_support(conj, const) == decide_equal_const_on_support(aut, const)


@settings(max_examples=400)
@given(conjugates(automata(MAX_PLUS, weight=st.integers(-1, 0))))
def test_conjugation_keeps_the_all_words_test_past_nonpositivity(pair):
    # weights in {-1, 0} keep the series nonpositive, so the constant 0 is
    # decided by the universality walk or by the support comparison
    aut, conj = pair
    assert decide_equal_const(conj, 0) == decide_equal_const(aut, 0)
    assert decide_equal_const_on_support(conj, 0) == decide_equal_const_on_support(aut, 0)


# a max-plus automaton beside a min-plus one, or beside its own min-plus copy,
# which shares its support and, when it is 1-valued, its series
comparable = st.tuples(automata(MAX_PLUS), automata(MIN_PLUS)) | automata(MAX_PLUS).map(
    lambda aut: (aut, as_min_plus_copy(aut))
)


@settings(max_examples=400)
@given(comparable, st.data())
def test_conjugation_keeps_the_series_comparisons(pair, data):
    amax, bmin = pair
    camax = conjugate(amax, data.draw(st.lists(offsets, min_size=amax.n, max_size=amax.n)))
    cbmin = conjugate(bmin, data.draw(st.lists(offsets, min_size=bmin.n, max_size=bmin.n)))
    assert decide_series_equal(camax, cbmin) == decide_series_equal(amax, bmin)
    assert decide_series_leq(camax, cbmin) == decide_series_leq(amax, bmin)


@settings(max_examples=400)
@given(automata(MAX_PLUS), st.sampled_from([0, 1, -2]), offsets)
def test_a_final_shift_shifts_the_constant(aut, const, c):
    assert decide_equal_const(shift_final(aut, c), const + c) == decide_equal_const(aut, const)


@settings(max_examples=400)
@given(automata(MAX_PLUS, weight=st.integers(-1, 0)), offsets)
def test_a_final_shift_shifts_the_constant_past_nonpositivity(aut, c):
    assert decide_equal_const(shift_final(aut, c), c) == decide_equal_const(aut, 0)


def renumbered(aut: WeightedAutomaton, perm) -> WeightedAutomaton:
    """``aut`` with state i renumbered perm[i] and labelled by its old number i."""
    labels = [None] * aut.n
    for i, new in enumerate(perm):
        labels[new] = str(i)
    return WeightedAutomaton.from_arcs(
        aut.semiring,
        aut.alphabet,
        aut.n,
        initial=[(perm[i], w) for i, w in enumerate(aut.alpha) if w is not None],
        final=[(perm[i], w) for i, w in enumerate(aut.beta) if w is not None],
        arcs=[(perm[s], ch, perm[t], w) for s, ch, t, w in aut.arcs()],
        labels=labels,
    )


def arrows_by_label(aut: WeightedAutomaton) -> dict:
    """The (initial, final) weights of each state, keyed by its label."""
    return {aut.state_label(i): (aut.alpha[i], aut.beta[i]) for i in range(aut.n)}


@settings(max_examples=400)
@given(
    automata(MAX_PLUS, weight=st.integers(-3, 1)).flatmap(
        lambda aut: st.tuples(st.just(aut), st.permutations(range(aut.n)))
    )
)
def test_renumbering_the_states_keeps_the_potential(drawn):
    # the witness may change: ties between words go to the smaller state
    aut, perm = drawn
    labelled, moved = renumbered(aut, range(aut.n)), renumbered(aut, perm)
    verdict = decide_nonpositive(labelled)
    assert decide_nonpositive(moved).holds == verdict.holds
    if verdict.holds:
        # alpha_i + u_i and beta_i - u_i, so u_i itself, per state
        expected = arrows_by_label(fatou_normalize(labelled))
        assert arrows_by_label(fatou_normalize(moved)) == expected
