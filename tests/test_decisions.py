"""Decision procedures: nonpositivity, renormalization, constant tests, equality."""

import random
import time
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twa.decisions
import twa.spectral
from corpus import (
    Nfa,
    as_min_plus_copy,
    automata,
    conjugate,
    one_letter,
    power_star,
    random_automaton,
    random_deterministic_automaton,
    random_matrix,
    random_trim_nonpositive,
    ref_fatou,
    ref_nonpositive,
    ref_positive_word,
    relaxed,
    reordered,
    shift_final,
    support,
    vec_rows,
    zero_filter,
)
from twa import (
    MAX_PLUS,
    MIN_PLUS,
    AlphabetError,
    CapExceededError,
    Decision,
    NotNonpositiveError,
    TagMismatchError,
    WeightedAutomaton,
    decide_equal_const,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    extract_one_valued,
    fatou_normalize,
    hadamard,
    max_mean_cycle,
    serialize,
    unambiguous_from_pair,
    zoo,
)
from twa.decisions import _decision, _positive_word, _predecessors
from twa.errors import TwaError
from twa.oracle import equal_upto, eval_bruteforce, words_upto


def loop_automaton(weight):
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 1, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, "a", 0, weight)]
    )


# -- decide_nonpositive -------------------------------------------------------


def test_nonpositive_negative_loop():
    assert decide_nonpositive(loop_automaton(-1)) == (True, None)


def test_nonpositive_positive_loop_gives_witness():
    verdict = decide_nonpositive(loop_automaton(1))
    assert not verdict.holds
    assert verdict.witness == "a"


def test_nonpositive_two_state_chain():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], final=[(1, -2)], arcs=[(0, "a", 1, 1)]
    )
    assert decide_nonpositive(aut).holds  # values: zero and -1


def test_nonpositive_rejects_min_plus():
    with pytest.raises(TagMismatchError):
        decide_nonpositive(loop_automaton(0).negate())


def test_nonpositive_epsilon_witness():
    aut = WeightedAutomaton.from_arcs(MAX_PLUS, "a", 1, initial=[(0, 1)], final=[(0, 1)])
    verdict = decide_nonpositive(aut)
    assert (verdict.holds, verdict.witness) == (False, "")


def padded_loop():
    """A positive cycle behind expensive access and co-access arrows."""
    return WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "ab",
        3,
        initial=[(0, -20)],
        final=[(2, -30)],
        arcs=[(0, "a", 1, 0), (1, "b", 1, Fraction(1, 3)), (1, "a", 2, 0)],
    )


def test_nonpositive_pumped_witness_outruns_negative_padding():
    # the witness must pump the loop enough times to climb above zero
    aut = padded_loop()
    verdict = decide_nonpositive(aut)
    assert not verdict.holds
    value = aut.eval(verdict.witness)
    assert value is not None and value > 0


def test_nonpositive_agrees_with_bounded_oracle():
    rng = random.Random(1001)
    for _ in range(60):
        aut = random_automaton(rng, max_states=4, lo=-5, hi=2)
        verdict = decide_nonpositive(aut)
        if verdict.holds:
            for word in words_upto(aut.alphabet, 2 * aut.n):
                value = eval_bruteforce(aut, word)
                assert value is None or value <= 0
        else:
            value = aut.eval(verdict.witness)
            assert value is not None and value > 0


def _scan_is_nonpositive(trim):
    """Whether alpha M^k beta <= 0 for every k < n: no word shorter than n is positive."""
    m = trim.letter_sum()
    x = {i: w for i, w in enumerate(trim.alpha) if w is not None}
    for _ in range(trim.n):
        if any(trim.beta[i] is not None and xi + trim.beta[i] > 0 for i, xi in x.items()):
            return False
        x = vec_rows(x, m)
    return True


def test_pumped_witnesses_are_exact_when_the_scan_finds_no_positive_word():
    # positive loops behind heavy negative arrows, as in the padding test above
    rng = random.Random(1501)
    pumped = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        arcs = [
            (i, ch, j, Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])))
            for i in range(n) for ch in "ab" for j in range(n) if rng.random() < 0.35
        ]
        initial = [(i, rng.randint(-60, -10)) for i in range(n) if rng.random() < 0.5]
        final = [(i, rng.randint(-60, -10)) for i in range(n) if rng.random() < 0.5]
        aut = WeightedAutomaton.from_arcs(
            MAX_PLUS, "ab", n, initial=initial, final=final, arcs=arcs
        )
        trim = aut.trim()
        if trim.n == 0 or not _scan_is_nonpositive(trim):
            continue
        verdict = decide_nonpositive(aut)
        if verdict.holds:
            continue
        pumped += 1
        value = aut.eval(verdict.witness)
        assert value is not None and value > 0
    assert pumped >= 50


def _reference_bfs_path(trim, target, forward):
    """_bfs_path as it was: backward, it scans every row of every letter per dequeued state."""
    seeds = {i: w for i, w in enumerate(trim.alpha if forward else trim.beta) if w is not None}
    prev = {state: None for state in sorted(seeds)}
    queue = deque(sorted(seeds))
    while queue:
        state = queue.popleft()
        if state == target:
            break
        for ch in trim.alphabet:
            if forward:
                hops = trim.mu[ch].rows[state].items()
            else:
                hops = ((i, row[state]) for i, row in enumerate(trim.mu[ch].rows) if state in row)
            for nxt, w in sorted(hops):
                if nxt not in prev:
                    prev[nxt] = (state, ch, w)
                    queue.append(nxt)
    letters = []
    weight = 0
    node = target
    while prev[node] is not None:
        node, ch, w = prev[node]
        letters.append(ch)
        weight += w
    weight += seeds[node]
    if forward:
        letters.reverse()
    return "".join(letters), weight


def test_bfs_path_matches_the_row_scanning_reference():
    rng = random.Random(1502)
    checked = 0
    for _ in range(150):
        trim = random_automaton(rng, max_states=7, alphabet="abc", arc_p=0.2, frac_p=0.3).trim()
        for target in range(trim.n):
            for forward in (True, False):
                expected = _reference_bfs_path(trim, target, forward)
                into = None if forward else _predecessors(trim)
                assert twa.decisions._bfs_path(trim, target, into) == expected
                checked += 1
    assert checked > 500


def test_profile_scan_matches_oracle_per_length():
    # alpha M^k beta equals the best value over words of length exactly k
    rng = random.Random(1002)
    for _ in range(20):
        aut = random_automaton(rng, max_states=3).trim()
        if aut.n == 0:
            continue
        m = aut.letter_sum()
        x = {i: w for i, w in enumerate(aut.alpha) if w is not None}
        for k in range(4):
            best = None
            for i, xi in x.items():
                b = aut.beta[i]
                if b is not None:
                    v = xi + b
                    best = v if best is None or v > best else best
            from itertools import product

            expected = None
            for word in map("".join, product(aut.alphabet, repeat=k)):
                v = eval_bruteforce(aut, word)
                if v is not None and (expected is None or v > expected):
                    expected = v
            assert best == expected
            x = vec_rows(x, m)


# -- fatou_normalize ----------------------------------------------------------


def test_fatou_hand_example():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], final=[(1, -1)], arcs=[(0, "a", 1, 1)]
    )
    result = fatou_normalize(aut)
    assert result.alpha == [0, None]
    assert result.beta == [None, 0]
    assert result.mu["a"].rows[0].get(1) == 0


def test_fatou_identity_when_already_flat():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "a",
        2,
        initial=[(0, -1)],
        final=[(0, 0), (1, 0)],
        arcs=[(0, "a", 1, -2), (1, "a", 1, -1)],
    )
    assert fatou_normalize(aut) == aut


def test_fatou_rejects_positive_series():
    with pytest.raises(NotNonpositiveError) as err:
        fatou_normalize(loop_automaton(2))
    assert err.value.witness == "a"


def test_fatou_outputs_nonpositive_weights_and_same_series():
    rng = random.Random(2002)
    for _ in range(30):
        aut = random_trim_nonpositive(rng, decide_nonpositive)
        result = fatou_normalize(aut)
        assert result.n == aut.trim().n
        for vec in (result.alpha, result.beta):
            assert all(w is None or w <= 0 for w in vec)
        assert all(w <= 0 for _, _, _, w in result.arcs())
        assert equal_upto(result, aut, 6).holds


# -- one potential for the verdict and the renormalization -------------------


def test_the_potential_matches_the_star():
    # the relaxed potential against the star by its definition
    rng = random.Random(4242)
    for _ in range(100):
        a = random_matrix(rng, nmax=5, lo=-5, hi=0)
        if (rho := max_mean_cycle(one_letter(a))) is not None and rho > 0:
            continue
        beta = [
            None if rng.random() < 0.4 else rng.randint(-5, 5) for _ in range(len(a))
        ]
        expected = []
        for row in power_star(a):
            acc = None
            for j, w in row.items():
                if beta[j] is not None:
                    cand = w + beta[j]
                    acc = cand if acc is None or cand > acc else acc
            expected.append(acc)
        assert relaxed(a, beta) == expected


def test_the_potential_diverges_on_a_positive_cycle():
    a = [{0: 1}]  # positive self-loop feeding the final vector
    assert relaxed(a, [0]) is None


def chain(n, shortcut, tag, reverse):
    """A chain 0 -> 1 -> ... -> n-1 -> F on `a` (weight 0) with a shortcut
    i -> F on `b` (weight ``shortcut``) from each i; F = n is the one final
    state and 0 the initial one.  ``reverse`` numbers the chain from the end."""
    num = (lambda i: n - 1 - i) if reverse else (lambda i: i)
    arcs = [(num(i), "a", num(i + 1), 0) for i in range(n - 1)] + [(num(n - 1), "a", n, 0)]
    arcs += [(num(i), "b", n, shortcut) for i in range(n)]
    return WeightedAutomaton.from_arcs(
        tag, "ab", n + 1, initial=[(num(0), 0)], final=[(n, 0)], arcs=arcs
    )


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_the_potential_of_a_long_chain_is_relaxed_in_linear_time(reverse):
    # every state lies one arc from F, so full rounds over the arcs in order
    # of fewest arcs to F carry the chain's weight back one state per round:
    # quadratic work, about 2 s per call under the forward numbering (2-core
    # VM, Python 3.11)
    n = 4000
    amax, bmin = chain(n, -n, MAX_PLUS, reverse), chain(n, 0, MIN_PLUS, reverse)
    calls = {
        "decide_nonpositive": (lambda: decide_nonpositive(amax).holds, True),
        "fatou_normalize": (lambda: fatou_normalize(amax).n, n + 1),
        # the empty word has no coefficient
        "decide_equal_const": (lambda: decide_equal_const(amax, 0), (False, "")),
        "decide_series_leq": (lambda: decide_series_leq(amax, bmin).holds, True),
    }
    for name, (call, expected) in calls.items():
        start = time.perf_counter()
        assert call() == expected, name
        assert time.perf_counter() - start < 0.5, name


def _tied_automaton(initial, final, arcs):
    return WeightedAutomaton.from_arcs(MAX_PLUS, "ab", 3, initial=initial, final=final, arcs=arcs)


# two predecessors tie on the path to state 2: the first, (0, "b"), gives "b"
TIED_PREDECESSORS = _tied_automaton([(0, 0), (1, 0)], [(2, 0)], [(0, "b", 2, 1), (1, "a", 2, 1)])
# two final states tie on level 1: the smaller, state 1, gives "a"
TIED_ENDS = _tied_automaton([(0, 0)], [(1, 0), (2, 0)], [(0, "a", 1, 1), (0, "b", 2, 1)])


def one_state_loop(weights, alphabet="ab", initial=-100):
    """One state, with an initial weight and final weight 0, and a loop on
    each letter of ``weights``, which maps it to the loop's weight."""
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, alphabet, 1, initial=[(0, initial)], final=[(0, 0)],
        arcs=[(0, ch, 0, w) for ch, w in weights.items()],
    )


# lowered by 0, round 1 finds the positive word a, which is no shorter than
# n = 1: pumped; lowered by 1, round 2 still improves: diverged
LOOP = one_state_loop({"a": 1, "b": 1})


def test_the_forward_pass_gives_the_word_of_the_scan_and_backward_walk():
    kinds = set()

    @settings(max_examples=300)
    @given(
        # few distinct weights, so that paths tie and the choice among them shows
        automata(MAX_PLUS, weight=st.integers(-1, 1) | st.just(Fraction(1, 2))),
        st.integers(0, 2),
    )
    @example(TIED_PREDECESSORS, 0)
    @example(TIED_ENDS, 0)
    @example(LOOP, 0)
    @example(LOOP, 1)
    def check(aut, lower):
        # the empty word is lowered to at most 0, so that longer words decide
        empty = aut.eval("")
        trim = shift_final(aut, -(empty or 0) - lower).trim()
        expected = ref_positive_word(trim)
        assert _positive_word(trim) == expected
        verdict = decide_nonpositive(trim)
        if verdict.holds:
            assert expected is None
            return
        rounds = twa.decisions._relax(trim.alpha, trim.beta, _predecessors(trim))[0]
        # no positive word has fewer letters than the round that found one
        assert expected is None or len(expected) >= rounds
        if rounds > trim.n:
            # a divergence: no positive word is shorter than n
            assert expected is None
            kinds.add("diverged")
            return
        if expected is None:
            value = trim.eval(verdict.witness)
            assert value is not None and value > 0
            kinds.add("pumped")
        else:
            assert verdict.witness == expected
            kinds.add("shortest")

    check()
    assert kinds == {"shortest", "pumped", "diverged"}
    assert (_positive_word(TIED_PREDECESSORS), _positive_word(TIED_ENDS)) == ("b", "a")


# -- the reference for the all-words test: the Boolean transition monoid -----


def _bool_mul(a, b):
    out = []
    for bits in a:
        acc = 0
        while bits:
            low = bits & -bits
            acc |= b[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return tuple(out)


def boolean_monoid_closure(nfa, cap=None):
    """The transition monoid {matrix of w : w word}, identity included.

    Matrices are tuples of row bitmasks.  Returns a dict matrix -> shortest
    word, in breadth-first (length-lex) discovery order.  Raises
    CapExceededError when more than ``cap`` distinct matrices appear.
    """
    generators = [
        (ch, tuple(sum(1 << j for j in nfa.delta.get((i, ch), ())) for i in range(nfa.n)))
        for ch in nfa.alphabet
    ]
    identity = tuple(1 << i for i in range(nfa.n))
    closure = {identity: ""}
    queue = deque([identity])
    while queue:
        mat = queue.popleft()
        word = closure[mat]
        for ch, gen in generators:
            product = _bool_mul(mat, gen)
            if product not in closure:
                if cap is not None and len(closure) >= cap:
                    raise CapExceededError("boolean monoid closure", cap)
                closure[product] = word + ch
                queue.append(product)
    return closure


def _reference_equal_const(aut, const):
    """Every matrix of the zero filter's monoid must map an initial state to a final one.

    An independent check of the subset exploration: the first matrix in
    discovery order that rejects carries the length-lex-first rejected word.
    """
    trim = shift_final(aut, -const).trim()
    verdict = ref_nonpositive(trim)
    if not verdict.holds:
        return verdict
    filtered = zero_filter(ref_fatou(trim))
    final_mask = sum(1 << j for j in filtered.final)
    for mat, word in boolean_monoid_closure(filtered).items():
        if not any(mat[i] & final_mask for i in filtered.initial):
            return Decision(False, word)
    return Decision(True, None)


@st.composite
def zero_on_every_word(draw):
    """An automaton whose series is 0 on every word over {a, b}.

    A drawn automaton with weights in {-1, 0} gains a state z with initial
    and final weight 0 and a 0 loop on each letter, and drawn arcs of weight
    -1 or 0 between z and the rest (the larger weight where two fall on one
    arc).  Every path weighs at most 0 and z's loops read every word at 0.
    The result is conjugated by a drawn potential, so its weights are not
    all <= 0.
    """
    aut = draw(automata(MAX_PLUS, max_states=5, weight=st.integers(-1, 0)))
    z = aut.n
    state = st.integers(0, z)
    links = draw(st.lists(st.tuples(state, st.sampled_from("ab"), state, st.integers(-1, 0)), max_size=4))
    weights = {}
    for s, ch, t, w in [*aut.arcs(), *links, (z, "a", z, 0), (z, "b", z, 0)]:
        weights[s, ch, t] = max(w, weights.get((s, ch, t), w))
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", z + 1,
        initial=[(i, w) for i, w in enumerate(aut.alpha) if w is not None] + [(z, 0)],
        final=[(i, w) for i, w in enumerate(aut.beta) if w is not None] + [(z, 0)],
        arcs=[(s, ch, t, w) for (s, ch, t), w in weights.items()],
    )
    return conjugate(aut, draw(st.lists(st.integers(-3, 3), min_size=z + 1, max_size=z + 1)))


def test_nonpositivity_and_fatou_match_the_scan_and_karp_reference():
    kinds = set()

    @settings(max_examples=300)
    @given(st.one_of(
        # lowering the final arrows by up to 8 makes both verdicts common
        st.tuples(automata(MAX_PLUS), st.integers(-8, 2)),
        # with weights in {-1, 0} the universality step decides the constant 0
        st.tuples(automata(MAX_PLUS, weight=st.integers(-1, 0)), st.just(0)),
        # a YES of decide_equal_const at the constant 0
        st.tuples(zero_on_every_word(), st.just(0)),
    ))
    def check(drawn):
        aut, shift = drawn
        aut = shift_final(aut, shift)
        trim = aut.trim()
        expected = ref_nonpositive(trim)
        assert decide_nonpositive(aut) == expected
        if expected.holds:
            result = fatou_normalize(aut)
            assert result == ref_fatou(trim)
            assert result.state_labels == trim.state_labels
        else:
            with pytest.raises(NotNonpositiveError) as err:
                fatou_normalize(aut)
            assert err.value.witness == expected.witness
        empty = aut.eval("")
        for const in {0, -1, 0 if empty is None else empty}:
            reference = _reference_equal_const(aut, const)
            assert decide_equal_const(aut, const) == reference
            if reference.holds:
                kinds.add("YES")
            elif ref_nonpositive(shift_final(aut, -const).trim()).holds:
                kinds.add("NO by universality")
            else:
                kinds.add("NO by nonpositivity")

    check()
    assert kinds == {"YES", "NO by nonpositivity", "NO by universality"}


def permutation_automaton(k, lowered):
    """Letters a (the transposition (0 1)) and b (the k-cycle) generate S_k.

    Every word has one weight-0 path from state 0, to a final arrow of weight
    3; the weight -1 arcs add only cheaper paths.  ``lowered`` drops the final
    arrow of state 1 to 2.  Its transition monoid has k! elements, but the
    subsets that words reach from state 0 are the k singletons.
    """
    arcs = [(i, "a", (1, 0)[i] if i < 2 else i, 0) for i in range(k)]
    arcs += [(i, "b", (i + 1) % k, 0) for i in range(k)]
    arcs += [(i, "b", (i + 2) % k, -1) for i in range(k)]
    final = [(i, 2 if lowered and i == 1 else 3) for i in range(k)]
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", k, initial=[(0, 0)], final=final, arcs=arcs
    )


def test_all_words_test_on_s10_explores_subsets_not_the_monoid():
    # the transition monoid has 10! = 3,628,800 elements; the words reach 10 subsets
    assert decide_equal_const(permutation_automaton(10, False), 3, subset_cap=100).holds
    lowered = permutation_automaton(10, True)
    verdict = decide_equal_const(lowered, 3, subset_cap=100)
    assert not verdict.holds
    assert lowered.eval(verdict.witness) != 3
    assert verdict.witness == "a"


def _raise(*args, **kwargs):
    raise AssertionError("called on a positive verdict")


@pytest.mark.parametrize(
    "pair", [zoo.sample_equivalent_pair, lambda: zoo.prime_period_pair(2, 3, 5, 7)]
)
def test_positive_verdicts_skip_karp_and_the_profile_scan(monkeypatch, pair):
    amax, bmin = pair()
    monkeypatch.setattr(twa.decisions, "_critical_circuit", _raise)
    monkeypatch.setattr(twa.decisions, "_positive_word", _raise)
    difference = hadamard(amax, bmin.negate())
    assert decide_nonpositive(difference).holds
    assert fatou_normalize(difference).n == difference.trim().n
    assert decide_series_equal(amax, bmin).holds
    assert unambiguous_from_pair(amax, bmin).n > 0


def _counted(calls, fn):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def test_a_diverging_relaxation_pumps_after_one_howard_call_and_no_scan(monkeypatch):
    # the relaxation of the padded loop diverges; every positive word shorter
    # than n would have stopped an earlier round, so the forward pass is skipped
    expected = decide_nonpositive(padded_loop())
    circuits, scans = [], []
    critical_circuit = _counted(circuits, twa.spectral._critical_circuit)
    for module in (twa.spectral, twa.decisions):
        monkeypatch.setattr(module, "_critical_circuit", critical_circuit)
    monkeypatch.setattr(twa.decisions, "_positive_word", _counted(scans, _positive_word))
    assert decide_nonpositive(padded_loop()) == expected
    assert (len(circuits), len(scans)) == (1, 0)


def test_a_positive_empty_word_is_a_no_before_the_relaxation():
    positive_empty = WeightedAutomaton.from_arcs(MAX_PLUS, "a", 1, initial=[(0, 1)], final=[(0, 1)])
    # the NO comes before the lists are read, so None stands in for them
    assert twa.decisions._relax(positive_empty.alpha, positive_empty.beta, None) == (0, None, None)
    assert decide_nonpositive(positive_empty) == (False, "")
    assert decide_equal_const(constant_automaton(3), 0) == (False, "")
    # and so is the constant test's: it relaxes with the final weight 3
    # lowered by the constant 0
    assert twa.decisions._relax([0], [3], None) == (0, None, None)


def test_a_no_keeps_the_states_that_the_relaxation_had_not_reached():
    # round 1 finds the positive word a before u reaches states 1 and 2, yet
    # they lie on a successful path, so the trim keeps them; state 5 reaches
    # no final arrow and goes
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 6, initial=[(0, 0)], final=[(4, 0)],
        arcs=[(0, "a", 4, 1), (0, "a", 5, 0)] + [(i, "b", i + 1, 0) for i in range(4)],
    )
    verdict, u, keep = twa.decisions._nonpositive(aut.alphabet, aut.alpha, aut.beta, _predecessors(aut))
    assert (verdict, u, keep) == ((False, "a"), None, [0, 1, 2, 3, 4])


# -- the caps of a NO witness -------------------------------------------------


def pumped_loop(k):
    """One state, initial -k, final 0, an `a` loop of weight 1: a^(k+1) is the first positive word."""
    return one_state_loop({"a": 1}, "a", -k)


def test_a_pumped_witness_past_the_cap_is_refused_before_it_is_built():
    assert decide_nonpositive(pumped_loop(10**5)) == (False, "a" * 100_001)
    for k in (10**6, 10**30):  # 1,000,001 letters, and more than an index can hold
        with pytest.raises(CapExceededError) as err:
            decide_nonpositive(pumped_loop(k))
        assert (err.value.what, err.value.cap) == ("witness", 10**6)


def test_a_pumped_circuit_reads_the_first_letter_of_the_heaviest_loop():
    # no word shorter than n = 1 is positive, so the witness is pumped; its
    # loop is the letter sum's entry, spelt by the first letter in alphabet
    # order that attains it
    for alphabet, weights, letter in [
        ("ab", {"a": 1, "b": 1}, "a"),
        ("ba", {"a": 1, "b": 1}, "b"),
        ("ab", {"a": 0, "b": 1}, "b"),
        ("ba", {"a": 0, "b": 1}, "b"),
    ]:
        aut = one_state_loop(weights, alphabet)
        assert aut.alphabet == tuple(alphabet)
        assert decide_nonpositive(aut) == (False, letter * 101), (alphabet, weights)


def test_the_forward_pass_holds_at_most_the_cap(monkeypatch):
    # a positive `a` loop at state 0, padded with 20 states that one `b`
    # reaches, so the first level holds 21 pointers; the relaxation stops on
    # the positive word aa, not on a divergence
    padded = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 21, initial=[(0, -1)], final=[(i, 0) for i in range(21)],
        arcs=[(0, "a", 0, 1)] + [(0, "b", i, -10) for i in range(1, 21)],
    )
    # an acyclic positive path of 12 letters, one pointer per level
    chain = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 13, initial=[(0, 0)], final=[(12, 1)],
        arcs=[(i, "a", i + 1, 0) for i in range(12)],
    )
    assert decide_nonpositive(padded) == (False, "aa")
    assert decide_nonpositive(chain) == (False, "a" * 12)
    monkeypatch.setattr(twa.decisions, "DEFAULT_SUBSET_CAP", 10)
    assert _positive_word(padded.trim()) is None
    # past the cap the pumped loop takes over, with an exact positive word
    assert decide_nonpositive(padded) == (False, "aa")
    with pytest.raises(CapExceededError) as err:
        decide_nonpositive(chain)  # no circuit to pump
    assert (err.value.what, err.value.cap) == ("positive word", 10)


# -- the reference monoid closure ---------------------------------------------


def test_closure_of_full_single_state():
    nfa = Nfa.from_arcs("ab", 1, {0}, {0}, [(0, "a", 0), (0, "b", 0)])
    closure = boolean_monoid_closure(nfa)
    assert closure == {(1,): ""}


def test_closure_with_duplicate_generators():
    two = Nfa.from_arcs("ab", 2, {0}, {1}, [(0, "a", 1), (0, "b", 1)])
    one = Nfa.from_arcs("a", 2, {0}, {1}, [(0, "a", 1)])
    assert len(boolean_monoid_closure(two)) == len(boolean_monoid_closure(one))


def test_closure_of_demo_support():
    amax, _ = zoo.sample_equivalent_pair()
    closure = boolean_monoid_closure(support(amax))
    assert 1 <= len(closure) <= 16  # 2x2 boolean matrices
    # words annotate their own matrices
    for matrix, word in closure.items():
        assert len(word) <= 4


def test_closure_cap():
    amax, _ = zoo.sample_equivalent_pair()
    with pytest.raises(CapExceededError):
        boolean_monoid_closure(support(amax), cap=1)


# -- constant-series tests ----------------------------------------------------


def constant_automaton(c):
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 1, initial=[(0, 0)], final=[(0, c)],
        arcs=[(0, "a", 0, 0), (0, "b", 0, 0)],
    )


def test_equal_const_constant_series():
    assert decide_equal_const(constant_automaton(3), 3).holds


def test_equal_const_wrong_constant():
    verdict = decide_equal_const(constant_automaton(3), 0)
    assert (verdict.holds, verdict.witness) == (False, "")


def test_equal_const_nonconstant_demo():
    amax, _ = zoo.sample_equivalent_pair()
    verdict = decide_equal_const(amax, 0)
    assert not verdict.holds
    assert amax.eval(verdict.witness) != 0


def test_equal_const_catches_support_gaps():
    # constant on its support but undefined on b: not constant on Sigma*
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", 1, initial=[(0, 0)], final=[(0, 1)], arcs=[(0, "a", 0, 0)]
    )
    verdict = decide_equal_const(aut, 1)
    assert not verdict.holds
    assert aut.eval(verdict.witness) is None
    assert decide_equal_const_on_support(aut, 1).holds


def test_equal_const_fractional():
    aut = constant_automaton(Fraction(5, 3))
    assert decide_equal_const(aut, Fraction(5, 3)).holds
    assert not decide_equal_const(aut, Fraction(4, 3)).holds


@pytest.mark.parametrize("const", [0.5, True], ids=["float", "bool"])
def test_constant_tests_take_exact_rationals_only(const):
    aut = constant_automaton(1)
    for decide in (decide_equal_const, decide_equal_const_on_support):
        with pytest.raises(TypeError, match="constant must be an exact rational"):
            decide(aut, const)


def test_equal_const_on_support_single_word():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 2)]
    )
    assert decide_equal_const_on_support(aut, 2).holds
    plain = decide_equal_const(aut, 2)
    assert (plain.holds, plain.witness) == (False, "")  # epsilon not in support


def test_equal_const_verdicts_match_oracle():
    rng = random.Random(3003)
    for _ in range(40):
        aut = random_automaton(rng, max_states=3, lo=-3, hi=2)
        for c in (0, 1):
            verdict = decide_equal_const(aut, c)
            if verdict.holds:
                for word in words_upto(aut.alphabet, 5):
                    assert eval_bruteforce(aut, word) == c
            else:
                assert aut.eval(verdict.witness) != c
            on_support = decide_equal_const_on_support(aut, c)
            if on_support.holds:
                for word in words_upto(aut.alphabet, 5):
                    value = eval_bruteforce(aut, word)
                    assert value is None or value == c
            else:
                witness_value = aut.eval(on_support.witness)
                assert witness_value is not None and witness_value != c


def test_empty_series_is_not_constant_but_is_constant_on_support():
    empty = WeightedAutomaton.from_arcs(MAX_PLUS, "a", 1, initial=[(0, 0)])
    verdict = decide_equal_const(empty, 0)
    assert (verdict.holds, verdict.witness) == (False, "")
    assert decide_equal_const_on_support(empty, 0).holds


# -- NFA comparisons ----------------------------------------------------------


def test_nfa_equivalence_reflexive():
    amax, _ = zoo.sample_equivalent_pair()
    nfa = support(amax)
    assert _decision(nfa.engine().walk(nfa.engine(), inclusion=False, what="support comparison")[0]).holds


def test_nfa_equivalence_ignores_dead_states():
    live = Nfa.from_arcs("ab", 1, {0}, {0}, [(0, "a", 0), (0, "b", 0)])
    dead = Nfa.from_arcs("ab", 2, {0}, {0}, [(0, "a", 0), (0, "b", 0), (1, "a", 0)])
    assert _decision(live.engine().walk(dead.engine(), inclusion=False, what="support comparison")[0]).holds


def test_nfa_equivalence_witness():
    just_a = Nfa.from_arcs("a", 2, {0}, {1}, [(0, "a", 1)])
    a_or_aa = Nfa.from_arcs("a", 3, {0}, {1, 2}, [(0, "a", 1), (1, "a", 2)])
    verdict = _decision(just_a.engine().walk(a_or_aa.engine(), inclusion=False, what="support comparison")[0])
    assert (verdict.holds, verdict.witness) == (False, "aa")


def test_nfa_inclusion():
    just_a = Nfa.from_arcs("a", 2, {0}, {1}, [(0, "a", 1)])
    a_or_aa = Nfa.from_arcs("a", 3, {0}, {1, 2}, [(0, "a", 1), (1, "a", 2)])
    assert _decision(just_a.engine().walk(a_or_aa.engine(), inclusion=True, what="support comparison")[0]).holds
    verdict = _decision(a_or_aa.engine().walk(just_a.engine(), inclusion=True, what="support comparison")[0])
    assert (verdict.holds, verdict.witness) == (False, "aa")


# -- series equality and inequality -------------------------------------------


def test_series_equal_demo_pair():
    amax, bmin = zoo.sample_equivalent_pair()
    assert decide_series_equal(amax, bmin).holds


def test_demo_pair_difference_vanishes_on_support():
    # pointwise difference of the equal pair: identically 0 on the support
    amax, bmin = zoo.sample_equivalent_pair()
    diff = hadamard(amax, bmin.negate())
    assert decide_equal_const_on_support(diff, 0).holds
    for word in words_upto("ab", 8):
        value = diff.eval(word)
        assert value is None or value == 0


def test_series_equal_detects_perturbation():
    amax, bmin = zoo.sample_equivalent_pair()
    bumped = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        amax.alphabet,
        amax.n,
        initial=[(i, w) for i, w in enumerate(amax.alpha) if w is not None],
        final=[(i, w) for i, w in enumerate(amax.beta) if w is not None],
        arcs=[
            (src, ch, dst, w + 1 if (src, ch, dst) == (0, "a", 1) else w)
            for src, ch, dst, w in amax.arcs()
        ],
    )
    verdict = decide_series_equal(bumped, bmin)
    assert not verdict.holds
    assert bumped.eval(verdict.witness) != bmin.eval(verdict.witness)
    # the bounded oracle finds the same disagreement
    assert not equal_upto(bumped, bmin, 6).holds


def test_series_equal_two_path_word():
    # same data as max-plus and min-plus differs when some word has two
    # successful paths with distinct weights
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 3, initial=[(0, 0)],
        final=[(1, 0), (2, 0)],
        arcs=[(0, "a", 1, 1), (0, "a", 2, 2)],
    )
    verdict = decide_series_equal(amax, as_min_plus_copy(amax))
    assert (verdict.holds, verdict.witness) == (False, "a")


def test_series_equal_rejects_mismatched_supports():
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 1, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, "a", 0, 0)]
    )
    bmin = WeightedAutomaton.from_arcs(
        MIN_PLUS, "a", 2, initial=[(0, 0)], final=[(1, 0)], arcs=[(0, "a", 1, 0)]
    )
    verdict = decide_series_equal(amax, bmin)
    assert not verdict.holds
    assert (amax.eval(verdict.witness) is None) != (bmin.eval(verdict.witness) is None)


def test_series_equal_on_deterministic_copies():
    rng = random.Random(4004)
    for _ in range(25):
        det = random_deterministic_automaton(rng)
        assert decide_series_equal(det, as_min_plus_copy(det)).holds


def test_series_leq_reflexive_on_demo_pair():
    amax, bmin = zoo.sample_equivalent_pair()
    assert decide_series_leq(amax, bmin).holds


def test_series_leq_strict_cases():
    amax, bmin = zoo.sample_equivalent_pair()
    lowered = shift_final(amax, -1)
    assert decide_series_leq(lowered, bmin).holds
    raised = shift_final(amax, 1)
    verdict = decide_series_leq(raised, bmin)
    assert (verdict.holds, verdict.witness) == (False, "")
    assert raised.eval("") == 1 > 0 == bmin.eval("")


def test_series_leq_requires_support_inclusion():
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 1, initial=[(0, 0)], final=[(0, -5)], arcs=[(0, "a", 0, -5)]
    )
    empty_min = WeightedAutomaton.from_arcs(MIN_PLUS, "a", 1, initial=[(0, 0)])
    verdict = decide_series_leq(amax, empty_min)
    assert not verdict.holds
    assert amax.eval(verdict.witness) is not None


def test_series_decisions_validate_tags_and_alphabets():
    amax, bmin = zoo.sample_equivalent_pair()
    with pytest.raises(TagMismatchError):
        decide_series_equal(amax, amax)
    with pytest.raises(TagMismatchError):
        decide_series_leq(bmin, bmin)


# -- the letters of a pair may come in any order ---------------------------------


def _outcome(call):
    """What a call returns (an automaton serialized), or the type and message it raises."""
    try:
        result = call()
    except TwaError as exc:
        return type(exc), str(exc)
    return serialize(result) if isinstance(result, WeightedAutomaton) else result


PAIR_CALLS = {
    "decide_series_equal": decide_series_equal,
    "decide_series_leq": decide_series_leq,
    "extract_one_valued": extract_one_valued,
    "unambiguous_from_pair": unambiguous_from_pair,
    "hadamard": lambda a, b: hadamard(a, b.negate()),
    "equal_upto": lambda a, b: equal_upto(a, b, 5),
}


def _pair_outcomes(amax, bmin):
    return {name: _outcome(lambda: call(amax, bmin)) for name, call in PAIR_CALLS.items()}


@settings(max_examples=150)
@given(automata(MAX_PLUS, max_states=4), automata(MIN_PLUS, max_states=4))
@example(*zoo.sample_equivalent_pair())
def test_a_reordered_alphabet_gives_the_same_results(amax, bmin):
    # every engine reads the second automaton's letters by name, and results
    # and witnesses follow the first one's alphabet order
    assert reordered(bmin).alphabet != bmin.alphabet
    assert _pair_outcomes(amax, reordered(bmin)) == _pair_outcomes(amax, bmin)


def test_different_letters_are_still_refused():
    amax, bmin = zoo.sample_equivalent_pair()
    other = WeightedAutomaton.from_arcs(MIN_PLUS, "ac", 1, initial=[(0, 0)], final=[(0, 0)])
    wider = WeightedAutomaton.from_arcs(MIN_PLUS, "bac", 1, initial=[(0, 0)], final=[(0, 0)])
    messages = {
        "decide_series_equal": "decide_series_equal: automata must share one alphabet",
        "decide_series_leq": "decide_series_leq: automata must share one alphabet",
        "extract_one_valued": "decide_series_equal: automata must share one alphabet",
        "unambiguous_from_pair": "decide_series_equal: automata must share one alphabet",
        "hadamard": "hadamard requires identical alphabets",
        "equal_upto": "equal_upto requires identical alphabets",
    }
    for b in (other, wider):
        expected = {name: (AlphabetError, text) for name, text in messages.items()}
        assert _pair_outcomes(amax, b) == expected
