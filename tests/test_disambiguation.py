"""Difference product, one-valued extraction, covering, competition removal."""

import itertools
import pathlib
import random

import pytest

from corpus import (
    Nfa,
    as_min_plus_copy,
    nonsequential_pair,
    random_automaton,
    random_deterministic_automaton,
    support,
)
from twa import (
    DEFAULT_SUBSET_CAP,
    MAX_PLUS,
    MIN_PLUS,
    CapExceededError,
    Covering,
    NotEqualError,
    WeightedAutomaton,
    covering,
    decide_series_equal,
    disambiguate,
    extract_one_valued,
    fatou_normalize,
    hadamard,
    load,
    remove_competitions,
    serialize,
    unambiguous_from_pair,
    zoo,
)
from twa.decisions import _decision
from twa.oracle import (
    equal_upto,
    max_ambiguity_upto,
    one_valued_upto,
)


@pytest.fixture(scope="module")
def pair():
    return zoo.sample_equivalent_pair()


def automata_isomorphic(a, b):
    """Exact isomorphism search; fine for a handful of states."""
    if (a.n, a.alphabet, a.semiring.tag) != (b.n, b.alphabet, b.semiring.tag):
        return False
    for perm in itertools.permutations(range(a.n)):
        if any(a.alpha[i] != b.alpha[perm[i]] for i in range(a.n)):
            continue
        if any(a.beta[i] != b.beta[perm[i]] for i in range(a.n)):
            continue
        if all(
            a.mu[ch].rows[i].get(j) == b.mu[ch].rows[perm[i]].get(perm[j])
            for ch in a.alphabet
            for i in range(a.n)
            for j in range(a.n)
        ):
            return True
    return False


# The 4-state difference product S - T of the demo pair and the 1-valued
# automaton it filters down to, both written out by hand from the
# construction rules.
def expected_difference_product():
    return WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "ab",
        4,  # 0=(A,A') 1=(A,B') 2=(B,A') 3=(B,B')
        initial=[(0, 0)],
        final=[(0, 0), (2, 1)],
        arcs=[
            (0, "a", 2, -1),
            (0, "a", 3, 0),
            (0, "b", 0, 0),
            (1, "a", 2, 0),
            (1, "b", 1, -2),
            (2, "a", 0, -1),
            (2, "a", 1, 0),
            (2, "a", 2, -2),
            (2, "a", 3, -1),
            (2, "b", 0, 1),
            (2, "b", 2, 0),
            (3, "a", 0, 0),
            (3, "a", 2, -1),
            (3, "b", 1, -1),
            (3, "b", 3, -2),
        ],
    )


def expected_one_valued():
    return WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "ab",
        4,
        initial=[(0, 0)],
        final=[(0, 0), (2, 1)],
        arcs=[
            (0, "a", 2, 1),
            (0, "a", 3, 1),
            (0, "b", 0, 1),
            (1, "a", 2, 1),
            (2, "a", 1, 1),
            (2, "b", 0, 2),
            (2, "b", 2, 1),
            (3, "a", 0, 1),
            (3, "a", 2, 0),
            (3, "b", 1, 2),
        ],
    )


def test_difference_product_matches_hand_transcription(pair):
    amax, bmin = pair
    product = hadamard(amax, bmin.negate())
    # state (p,q) lands at index p*2+q, so this is equality, not just isomorphism
    assert product == expected_difference_product()


def test_second_coordinate_renormalization_matches_hand_figures(pair):
    # the renormalized difference product: potentials are u = (0, 1, 1, 0),
    # so arc 2->0 on a moves -1 -> -2 and 3->2 on a -1 -> 0
    flat = fatou_normalize(expected_difference_product())
    assert flat.mu["a"].rows[2].get(0) == -2
    assert flat.mu["a"].rows[3].get(2) == 0
    assert flat.beta == [0, None, 0, None]
    assert flat.mu["b"].rows == [{0: 0}, {1: -2}, {0: 0, 2: 0}, {1: 0, 3: -2}]


def test_extract_one_valued_demo(pair):
    amax, bmin = pair
    result = extract_one_valued(amax, bmin)
    assert result.n == 4
    assert result.trim() == result
    assert automata_isomorphic(result, expected_one_valued())
    assert one_valued_upto(result, 8).holds
    assert equal_upto(result, amax, 8).holds


def test_extract_one_valued_trivial_pair():
    path = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 2, initial=[(0, 0)], final=[(1, 2)], arcs=[(0, "a", 1, 1)]
    )
    result = extract_one_valued(path, as_min_plus_copy(path))
    assert equal_upto(result, path, 5).holds
    assert result.n <= path.n * path.n


def test_extract_one_valued_checks_equality(pair):
    amax, bmin = pair
    worse = as_min_plus_copy(amax)  # not equal to amax as series (two-valued words)
    with pytest.raises(NotEqualError) as err:
        extract_one_valued(amax, worse)
    assert amax.eval(err.value.witness) != worse.eval(err.value.witness)


def test_extract_one_valued_dimension_bound_and_values():
    rng = random.Random(6006)
    for _ in range(20):
        det = random_deterministic_automaton(rng, max_states=3)
        result = extract_one_valued(det, as_min_plus_copy(det))
        assert result.n <= det.n * det.n
        assert equal_upto(result, det, 5).holds
        assert one_valued_upto(result, 5).holds


# -- the subset construction -----------------------------------------------------


def _nfa(alphabet, n, initial, final, arcs):
    delta = {}
    for i, ch, j in arcs:
        delta.setdefault((i, ch), set()).add(j)
    return Nfa(alphabet, n, initial, final, delta)


def determinize(nfa, cap=DEFAULT_SUBSET_CAP):
    """The subset construction of the engine as a (partial) deterministic reference NFA."""
    subsets, accepting, moves = nfa.engine().subsets(cap)
    delta = {(i, ch): {j} for i, table in enumerate(moves) for ch, j in table.items()}
    final = {i for i, acc in enumerate(accepting) if acc}
    return Nfa(nfa.alphabet, len(subsets), {0}, final, delta)


def equivalent(a, b):
    return _decision(a.engine().compare(b.engine(), inclusion=False, what="support comparison")).holds


def test_determinize_twostate_example():
    nfa = _nfa("a", 2, {0}, {1}, [(0, "a", 0), (0, "a", 1)])
    dfa = determinize(nfa)
    assert dfa.n == 2  # subsets {0} and {0,1}
    assert equivalent(nfa, dfa)


def test_determinize_is_deterministic_and_equivalent():
    rng = random.Random(7007)
    for _ in range(25):
        aut = random_automaton(rng, max_states=4)
        nfa = support(aut)
        dfa = determinize(nfa)
        assert equivalent(nfa, dfa)
        assert all(len(targets) == 1 for targets in dfa.delta.values())
        # a deterministic accessible input comes back with the same shape
        already = determinize(dfa)
        assert already.n == dfa.n
        assert equivalent(already, dfa)


def test_determinize_cap():
    nfa = _nfa("a", 2, {0}, {1}, [(0, "a", 0), (0, "a", 1)])  # needs two subsets
    with pytest.raises(CapExceededError):
        determinize(nfa, cap=1)


# -- covering and competitions ---------------------------------------------------


def test_covering_of_deterministic_automaton_is_isomorphic():
    rng = random.Random(9009)
    for _ in range(15):
        det = random_deterministic_automaton(rng, max_states=3).trim()
        if det.n == 0:
            continue
        cover = covering(det)
        assert automata_isomorphic(cover.automaton.trim(), det)


def test_covering_preserves_series(pair):
    amax, bmin = pair
    one_valued = extract_one_valued(amax, bmin)
    cover = covering(one_valued)
    assert equal_upto(cover.automaton, one_valued, 10).holds
    rng = random.Random(1010)
    for _ in range(15):
        aut = random_automaton(rng, max_states=3)
        cover = covering(aut)
        assert equal_upto(cover.automaton, aut, 5).holds


def test_covering_provenance_tracks_subsets(pair):
    amax, bmin = pair
    cover = covering(extract_one_valued(amax, bmin))
    aut = cover.automaton
    for i, (p, s) in enumerate(cover.provenance):
        assert p in cover.subsets[s]
    assert aut.state_labels is not None


def test_a_covering_is_a_named_tuple_of_three_fields(pair):
    cover = covering(extract_one_valued(*pair))
    assert Covering._fields == ("automaton", "provenance", "subsets")
    assert tuple(cover) == (cover.automaton, cover.provenance, cover.subsets)
    assert cover == Covering(*cover) and cover != cover._replace(subsets=())
    assert repr(cover).startswith("Covering(automaton=<WeightedAutomaton max-plus states=")
    with pytest.raises(AttributeError):
        cover.subsets = ()


def test_remove_competitions_no_op_without_competitions():
    rng = random.Random(1111)
    for _ in range(10):
        det = random_deterministic_automaton(rng, max_states=3).trim()
        if det.n == 0:
            continue
        cover = covering(det)
        pruned = remove_competitions(cover)
        assert automata_isomorphic(pruned, cover.automaton.trim())


def test_remove_competitions_parallel_paths_toy():
    toy = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 3, initial=[(0, 0)],
        final=[(1, 0), (2, 0)],
        arcs=[(0, "a", 1, 1), (0, "a", 2, 1)],  # two equal-weight paths
    )
    assert one_valued_upto(toy, 3).holds
    result = remove_competitions(covering(toy))
    assert max_ambiguity_upto(result, 3)[0] <= 1
    assert equal_upto(result, toy, 3).holds


def test_disambiguate_demo(pair):
    amax, bmin = pair
    one_valued = extract_one_valued(amax, bmin)
    result = disambiguate(one_valued)
    assert max_ambiguity_upto(result, 10)[0] <= 1
    assert equal_upto(result, one_valued, 10).holds


def test_disambiguate_keeps_unambiguous_inputs_equivalent():
    rng = random.Random(1212)
    for _ in range(15):
        det = random_deterministic_automaton(rng, max_states=3)
        result = disambiguate(det)
        assert max_ambiguity_upto(result, 6)[0] <= 1
        assert equal_upto(result, det, 6).holds


def test_full_pipeline_demo(pair):
    amax, bmin = pair
    result = unambiguous_from_pair(amax, bmin)
    assert max_ambiguity_upto(result, 10)[0] <= 1
    assert equal_upto(result, amax, 10).holds
    assert equal_upto(result, bmin, 10).holds


def test_full_pipeline_single_path():
    path = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 2, initial=[(0, 0)], final=[(1, 2)], arcs=[(0, "a", 1, 1)]
    )
    result = unambiguous_from_pair(path, as_min_plus_copy(path))
    assert result.n == 2
    assert equal_upto(result, path, 4).holds


def test_full_pipeline_random_onevalued_corpus():
    rng = random.Random(1313)
    for _ in range(15):
        det = random_deterministic_automaton(rng, max_states=3)
        result = unambiguous_from_pair(det, as_min_plus_copy(det))
        assert max_ambiguity_upto(result, 8)[0] <= 1
        assert equal_upto(result, det, 8).holds


def test_full_pipeline_rejects_unequal_pairs(pair):
    amax, _ = pair
    with pytest.raises(NotEqualError):
        unambiguous_from_pair(amax, as_min_plus_copy(amax))


def _duplicate_union(aut):
    """Disjoint union of an automaton with itself: 1-valued but ambiguous."""
    shift = aut.n
    return WeightedAutomaton.from_arcs(
        aut.semiring,
        aut.alphabet,
        2 * aut.n,
        initial=[(i + d, w) for d in (0, shift) for i, w in enumerate(aut.alpha) if w is not None],
        final=[(i + d, w) for d in (0, shift) for i, w in enumerate(aut.beta) if w is not None],
        arcs=[(s + d, ch, t + d, w) for d in (0, shift) for s, ch, t, w in aut.arcs()],
    )


def test_disambiguate_collapses_duplicated_automata():
    rng = random.Random(1414)
    for _ in range(12):
        det = random_deterministic_automaton(rng, max_states=3).trim()
        if det.n == 0:
            continue
        doubled = _duplicate_union(det)
        assert one_valued_upto(doubled, 6).holds
        assert max_ambiguity_upto(doubled, 6)[0] >= 2  # genuinely ambiguous
        result = disambiguate(doubled)
        assert max_ambiguity_upto(result, 8)[0] <= 1
        assert equal_upto(result, det, 8).holds


def test_full_pipeline_with_ambiguous_max_side():
    rng = random.Random(1515)
    for _ in range(10):
        det = random_deterministic_automaton(rng, max_states=3).trim()
        if det.n == 0:
            continue
        doubled = _duplicate_union(det)
        result = unambiguous_from_pair(doubled, as_min_plus_copy(det))
        assert decide_series_equal(result, as_min_plus_copy(det)).holds  # exact, no length bound
        assert max_ambiguity_upto(result, 8)[0] <= 1
        assert equal_upto(result, det, 8).holds


# -- the deterministic output and its fallback --------------------------------


def _is_deterministic(aut):
    return sum(w is not None for w in aut.alpha) <= 1 and all(
        len(row) <= 1 for mat in aut.mu.values() for row in mat.rows
    )


def _equals_both_inputs(out, amax, bmin):
    # an unambiguous max-plus automaton read as min-plus has the same series
    return (
        decide_series_equal(amax, as_min_plus_copy(out)).holds
        and decide_series_equal(out, bmin).holds
    )


@pytest.mark.parametrize("pqrs, period", [((2, 3, 5, 7), 210), ((3, 4, 5, 7), 420)])
def test_pipeline_determinizes_the_prime_pairs_to_their_period(pqrs, period):
    amax, bmin = zoo.prime_period_pair(*pqrs)
    one = extract_one_valued(amax, bmin)
    out = unambiguous_from_pair(amax, bmin)
    assert (one.n, out.n) == (4 * period, period)
    assert _is_deterministic(out)
    assert out.trim() == out
    assert _equals_both_inputs(out, amax, bmin)


def test_pipeline_output_is_deterministic_within_the_one_valued_size():
    rng = random.Random(1616)
    branches = set()
    for _ in range(30):
        det = random_deterministic_automaton(rng, max_states=4).trim()
        if det.n == 0:
            continue
        amax, bmin = _duplicate_union(det), as_min_plus_copy(det)
        one = extract_one_valued(amax, bmin)
        out = unambiguous_from_pair(amax, bmin)
        assert _equals_both_inputs(out, amax, bmin)
        if _is_deterministic(out) and out.n <= one.n:
            branches.add("deterministic")
        else:
            assert serialize(out) == serialize(disambiguate(one))
            branches.add("covering")
    assert "deterministic" in branches


def test_nonsequential_pair_falls_back_to_the_covering():
    amax, bmin = nonsequential_pair()
    assert decide_series_equal(amax, bmin).holds
    assert [amax.eval("a" * n + "b") for n in range(4)] == [0, 1, 2, 3]
    assert [amax.eval("a" * n + "c") for n in range(4)] == [0, 2, 4, 6]
    one = extract_one_valued(amax, bmin)
    out = unambiguous_from_pair(amax, bmin)
    assert serialize(out) == serialize(disambiguate(one))
    assert not _is_deterministic(out)
    assert _equals_both_inputs(out, amax, bmin)
    assert max_ambiguity_upto(out, 8)[0] <= 1


# The weighted subset construction of this automaton's 3-state 1-valued
# automaton needs 3 states, so it finishes under the default cap and stops
# under a cap of 2: the cap, not the input alone, picks the branch.
SUBSET_CAP_EXAMPLE = pathlib.Path(__file__).parent / "data" / "subset_cap.twa"
DETERMINIZED = """twa 1
semiring max-plus
alphabet a b
states 3
# 0: {(0,0):0,(2,2):-3}
# 1: {(0,0):-2,(1,1):0}
# 2: {(0,0):0,(2,2):-5}
initial 0 5
final 0 -4
final 1 -2
final 2 -6
trans 0 1 a 0
trans 1 1 a -2
trans 1 2 b 0
trans 2 1 a 0
"""
COVERED = """twa 1
semiring max-plus
alphabet a b
states 4
# 0: ((0,0),{0,2})
# 1: ((0,0),{0,1})
# 2: ((1,1),{0,1})
# 3: ((2,2),{0,2})
initial 0 5
initial 3 2
final 2 -2
final 3 -1
trans 0 1 a -2
trans 0 2 a 0
trans 1 1 a -2
trans 1 2 a 0
trans 2 0 b 0
trans 2 3 b -5
"""


def test_the_subset_cap_can_choose_the_pipelines_branch():
    amax = load(SUBSET_CAP_EXAMPLE)
    bmin = as_min_plus_copy(amax)
    assert extract_one_valued(amax, bmin).n == 3
    determinized = unambiguous_from_pair(amax, bmin)
    covered = unambiguous_from_pair(amax, bmin, subset_cap=2)
    assert serialize(determinized) == DETERMINIZED and _is_deterministic(determinized)
    assert serialize(covered) == COVERED and not _is_deterministic(covered)
    for out in (determinized, covered):
        assert _equals_both_inputs(out, amax, bmin)
        assert max_ambiguity_upto(out, 8)[0] <= 1


@pytest.mark.parametrize("cap", [0, -5])
def test_pipeline_rejects_caps_below_one_before_any_work(pair, cap):
    amax, _ = pair
    # an unequal pair: any work would raise NotEqualError first
    with pytest.raises(ValueError, match="cap must be at least 1"):
        unambiguous_from_pair(amax, as_min_plus_copy(amax), subset_cap=cap)


def test_every_unequal_pair_raises_with_a_witness_on_which_it_differs():
    # T is S + 1 on the words that end in one final state; the extraction and
    # the pipeline always decide S = T first, and build only on equal pairs
    rng = random.Random(1717)
    unequal = 0
    for _ in range(12):
        det = random_deterministic_automaton(rng, max_states=3).trim()
        if det.n == 0:
            continue
        finals = [(i, w) for i, w in enumerate(det.beta) if w is not None]
        raised = WeightedAutomaton.from_arcs(
            MAX_PLUS,
            det.alphabet,
            det.n,
            initial=[(i, w) for i, w in enumerate(det.alpha) if w is not None],
            final=[(i, w + (k == 0)) for k, (i, w) in enumerate(finals)],
            arcs=list(det.arcs()),
        )
        amax, bmin = _duplicate_union(det), as_min_plus_copy(raised)
        verdict = decide_series_equal(amax, bmin)
        unequal += not verdict.holds
        for call in (extract_one_valued, unambiguous_from_pair):
            if verdict.holds:
                assert decide_series_equal(call(amax, bmin), bmin).holds
                continue
            with pytest.raises(NotEqualError) as err:
                call(amax, bmin)
            assert err.value.witness == verdict.witness
            assert amax.eval(verdict.witness) != bmin.eval(verdict.witness)
    assert unequal > 0


def test_the_pipeline_has_no_unchecked_path():
    # S = 0 on a*, and T = 0 on the empty word only, or T(a^n) = n + 1:
    # unchecked, these pairs once gave a 1-state and a 0-state automaton
    s = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 1, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, "a", 0, 0)]
    )
    empty_word = WeightedAutomaton.from_arcs(MIN_PLUS, "a", 1, initial=[(0, 0)], final=[(0, 0)])
    plus_one = WeightedAutomaton.from_arcs(
        MIN_PLUS, "a", 1, initial=[(0, 0)], final=[(0, 1)], arcs=[(0, "a", 0, 1)]
    )
    for t, witness in ((empty_word, "a"), (plus_one, "")):
        for call in (extract_one_valued, unambiguous_from_pair):
            with pytest.raises(NotEqualError) as err:
                call(s, t)
            assert err.value.witness == witness
    with pytest.raises(TypeError):
        extract_one_valued(s, as_min_plus_copy(s), check=False)
    with pytest.raises(TypeError):
        unambiguous_from_pair(s, as_min_plus_copy(s), check=False)
