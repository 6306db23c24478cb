"""The equality kernel: one product, one relaxation, one subset-exploration engine.

The series decisions, the 1-valued extraction and the pipeline share one
difference product, one potential and one bitmask subset exploration.  These
tests hold them to a reference copy of the separate path they replaced: the
Hadamard product with the negated min-plus automaton and a frozenset NFA
comparison for the decisions, the doubled-semiring pair product for the
extraction, and the sort of every competing group for the one-pass
competition removal.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twa.automaton
import twa.decisions
import twa.disambiguation
from corpus import as_min_plus_copy, automata
from twa import (
    MAX_PLUS,
    MIN_PLUS,
    BooleanAutomaton,
    CapExceededError,
    Decision,
    NotEqualError,
    NotNonpositiveError,
    TropicalMatrix,
    WeightedAutomaton,
    covering,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    determinize,
    disambiguate,
    extract_one_valued,
    hadamard,
    mat_star,
    max_mean_cycle,
    nfa_equivalence,
    nfa_inclusion,
    pair_product,
    remove_competitions,
    serialize,
    unambiguous_from_pair,
    zoo,
)
from twa.decisions import _backtrack_word, _pumped_witness
from twa.spectral import _star_rounds, vec_mat

# -- the reference: the separate path, with frozenset subsets -----------------


def ref_nfa_compare(a, b, inclusion):
    """Breadth-first search over pairs of frozenset subsets."""

    def bad(pair):
        acc_a, acc_b = bool(pair[0] & a.final), bool(pair[1] & b.final)
        return (acc_a and not acc_b) if inclusion else (acc_a != acc_b)

    start = (frozenset(a.initial), frozenset(b.initial))
    parents = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        if bad(pair):
            letters = []
            while parents[pair] is not None:
                pair, ch = parents[pair]
                letters.append(ch)
            return Decision(False, "".join(reversed(letters)))
        for ch in a.alphabet:
            nxt = (a.step(pair[0], ch), b.step(pair[1], ch))
            if nxt not in parents:
                parents[nxt] = (pair, ch)
                queue.append(nxt)
    return Decision(True, None)


def ref_determinize(nfa, cap=None):
    """Accessible subset construction over frozensets; the empty set is no state."""
    start = frozenset(nfa.initial)
    subsets, index, moves = [start], {start: 0}, [{}]
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for ch in nfa.alphabet:
            target = nfa.step(subsets[cur], ch)
            if not target:
                continue
            if target not in index:
                if cap is not None and len(subsets) >= cap:
                    raise CapExceededError("subset construction", cap)
                index[target] = len(subsets)
                subsets.append(target)
                moves.append({})
                queue.append(index[target])
            moves[cur][ch] = index[target]
    delta = {(i, ch): {j} for i, row in enumerate(moves) for ch, j in row.items()}
    final = {i for i, subset in enumerate(subsets) if subset & nfa.final}
    return subsets, BooleanAutomaton(nfa.alphabet, len(subsets), {0}, final, delta)


def ref_nonpositive(trim):
    """The scan of alpha M^k beta for k < n, then Karp."""
    if trim.n == 0:
        return Decision(True, None)
    m = trim.letter_sum()
    profiles = [{i: w for i, w in enumerate(trim.alpha) if w is not None}]
    for k in range(trim.n):
        best, best_state = None, None
        for i, xi in sorted(profiles[k].items()):
            if trim.beta[i] is not None and (best is None or xi + trim.beta[i] > best):
                best, best_state = xi + trim.beta[i], i
        if best is not None and best > 0:
            return Decision(False, _backtrack_word(trim, profiles, k, best_state))
        if k + 1 < trim.n:
            profiles.append(vec_mat(profiles[k], m))
    rho = max_mean_cycle(m)
    if rho is not None and rho > 0:
        return Decision(False, _pumped_witness(trim, m, rho))
    return Decision(True, None)


def ref_fatou(trim):
    """Conjugation by u = M*beta, with the star from Floyd-Warshall."""
    star = mat_star(trim.letter_sum())
    u = []
    for row in star.rows:
        best = None
        for j, w in row.items():
            if trim.beta[j] is not None and (best is None or w + trim.beta[j] > best):
                best = w + trim.beta[j]
        u.append(best)
    mu = {
        ch: TropicalMatrix(
            MAX_PLUS,
            trim.n,
            [{j: w - u[i] + u[j] for j, w in row.items()} for i, row in enumerate(mat.rows)],
        )
        for ch, mat in trim.mu.items()
    }
    return WeightedAutomaton(
        MAX_PLUS,
        trim.alphabet,
        trim.n,
        [None if w is None else w + u[i] for i, w in enumerate(trim.alpha)],
        [None if w is None else w - u[i] for i, w in enumerate(trim.beta)],
        mu,
        trim.state_labels,
    )


def ref_zero_filter(aut):
    delta = {}
    for ch, mat in aut.mu.items():
        for i, row in enumerate(mat.rows):
            delta[(i, ch)] = {j for j, w in row.items() if w == 0}
    return BooleanAutomaton(
        aut.alphabet,
        aut.n,
        {i for i, w in enumerate(aut.alpha) if w == 0},
        {i for i, w in enumerate(aut.beta) if w == 0},
        delta,
    )


def ref_const_on_support(aut):
    trim = aut.trim()
    verdict = ref_nonpositive(trim)
    if not verdict.holds:
        return verdict
    return ref_nfa_compare(trim.support(), ref_zero_filter(ref_fatou(trim)), False)


def ref_series_equal(amax, bmin):
    ta, tb = amax.trim(), bmin.trim()
    verdict = ref_nfa_compare(ta.support(), tb.support(), False)
    if not verdict.holds:
        return verdict
    return ref_const_on_support(hadamard(ta, tb.negate()))


def ref_series_leq(amax, bmin):
    ta, tb = amax.trim(), bmin.trim()
    verdict = ref_nfa_compare(ta.support(), tb.support(), True)
    if not verdict.holds:
        return verdict
    return ref_nonpositive(hadamard(ta, tb.negate()).trim())


def ref_extract(amax, bmin, check):
    """The pair-product extraction: renormalize the second coordinate, keep its zeros."""
    if check:
        verdict = ref_series_equal(amax, bmin)
        if not verdict.holds:
            raise NotEqualError(verdict.witness)
    pair = pair_product(amax.trim(), bmin.trim().negate()).trim()
    if pair.n == 0:
        return WeightedAutomaton(
            MAX_PLUS, amax.alphabet, 0, [], [], {ch: TropicalMatrix(MAX_PLUS, 0) for ch in amax.alphabet}
        )
    second = WeightedAutomaton(
        MAX_PLUS,
        pair.alphabet,
        pair.n,
        [None if w is None else w[1] for w in pair.alpha],
        [None if w is None else w[1] for w in pair.beta],
        {
            ch: TropicalMatrix(MAX_PLUS, pair.n, [{j: w[1] for j, w in row.items()} for row in mat.rows])
            for ch, mat in pair.mu.items()
        },
        pair.state_labels,
    )
    verdict = ref_nonpositive(second)
    if not verdict.holds:
        raise NotNonpositiveError(verdict.witness)
    flat = ref_fatou(second)
    mu = {
        ch: TropicalMatrix(
            MAX_PLUS,
            pair.n,
            [
                {j: pair.mu[ch].rows[i][j][0] for j, w in row.items() if w == 0}
                for i, row in enumerate(flat.mu[ch].rows)
            ],
        )
        for ch in pair.alphabet
    }

    def keep(vec, flat_vec):
        return [None if w is None or f != 0 else w[0] for w, f in zip(vec, flat_vec)]

    return WeightedAutomaton(
        MAX_PLUS,
        pair.alphabet,
        pair.n,
        keep(pair.alpha, flat.alpha),
        keep(pair.beta, flat.beta),
        mu,
        pair.state_labels,
    ).trim()


def ref_remove_competitions(cover):
    """The grouping rule: every competing group sorted, its least (original state, state) kept.

    Returns the kept arcs (src, letter, dst), the kept final states and the
    trimmed result.
    """
    aut, prov = cover.automaton, cover.provenance
    groups = {}
    for src in range(aut.n):
        p, s = prov[src]
        for ch in aut.alphabet:
            for dst, w in aut.mu[ch].rows[src].items():
                groups.setdefault((s, ch, dst), []).append((p, src, dst, ch, w))
    keep_arcs = set()
    for members in groups.values():
        members.sort()
        _, src, dst, ch, _ = members[0]
        keep_arcs.add((src, ch, dst))
    final_groups = {}
    for i, w in enumerate(aut.beta):
        if w is not None:
            final_groups.setdefault(prov[i][1], []).append((prov[i][0], i))
    keep_finals = {min(members)[1] for members in final_groups.values()}
    pruned = WeightedAutomaton(
        aut.semiring,
        aut.alphabet,
        aut.n,
        aut.alpha,
        [w if i in keep_finals else None for i, w in enumerate(aut.beta)],
        {
            ch: TropicalMatrix(
                aut.semiring,
                aut.n,
                [
                    {j: w for j, w in row.items() if (i, ch, j) in keep_arcs}
                    for i, row in enumerate(mat.rows)
                ],
            )
            for ch, mat in aut.mu.items()
        },
        aut.state_labels,
    )
    return keep_arcs, keep_finals, pruned.trim()


def outcome(fn, *args, **kwargs):
    """A comparable record: the verdict, the serialized automaton, or the error and its witness."""
    try:
        result = fn(*args, **kwargs)
    except (NotEqualError, NotNonpositiveError) as exc:
        return (type(exc).__name__, exc.witness)
    if isinstance(result, WeightedAutomaton):
        return serialize(result)
    return tuple(result)


# -- drawn max-plus/min-plus pairs --------------------------------------------


def _arcs_of(aut):
    return [(i, w) for i, w in enumerate(aut.alpha) if w is not None], [
        (i, w) for i, w in enumerate(aut.beta) if w is not None
    ]


@st.composite
def deterministic(draw, max_states=4, alphabet="ab"):
    """A max-plus automaton with one initial state and at most one arc per state and letter."""
    n = draw(st.integers(1, max_states))
    weight = st.integers(-4, 4)
    keys = [(i, ch) for i in range(n) for ch in alphabet]
    moves = draw(st.lists(
        st.none() | st.tuples(st.integers(0, n - 1), weight), min_size=len(keys), max_size=len(keys)
    ))
    final = draw(st.lists(st.none() | weight, min_size=n, max_size=n).filter(lambda ws: ws != [None] * n))
    return WeightedAutomaton.from_arcs(
        MAX_PLUS,
        alphabet,
        n,
        initial=[(0, draw(weight))],
        final=[(i, w) for i, w in enumerate(final) if w is not None],
        arcs=[(i, ch, move[0], move[1]) for (i, ch), move in zip(keys, moves) if move is not None],
    )


def _union(a, b):
    shift = a.n
    ia, fa = _arcs_of(a)
    ib, fb = _arcs_of(b)
    return WeightedAutomaton.from_arcs(
        a.semiring,
        a.alphabet,
        a.n + b.n,
        initial=ia + [(i + shift, w) for i, w in ib],
        final=fa + [(i + shift, w) for i, w in fb],
        arcs=list(a.arcs()) + [(s + shift, ch, t + shift, w) for s, ch, t, w in b.arcs()],
    )


def _conjugate(aut, h):
    initial, final = _arcs_of(aut)
    return WeightedAutomaton.from_arcs(
        aut.semiring,
        aut.alphabet,
        aut.n,
        initial=[(i, w - h[i]) for i, w in initial],
        final=[(i, w + h[i]) for i, w in final],
        arcs=[(s, ch, t, w + h[s] - h[t]) for s, ch, t, w in aut.arcs()],
    )


def _edit(aut, target, delta):
    """Move one final arrow (target < 0) or arc (target >= 0) by ``delta``; None deletes the arc."""
    initial, final = _arcs_of(aut)
    arcs = list(aut.arcs())
    if target < 0 or not arcs:
        i, w = final[target % len(final)]
        final[target % len(final)] = (i, w + (delta or -1))
    elif delta is None:
        del arcs[target % len(arcs)]
    else:
        s, ch, t, w = arcs[target % len(arcs)]
        arcs[target % len(arcs)] = (s, ch, t, w + delta)
    return WeightedAutomaton.from_arcs(
        aut.semiring, aut.alphabet, aut.n, initial=initial, final=final, arcs=arcs
    )


edits = st.tuples(st.integers(-4, 4) | st.integers(0, 12), st.sampled_from([-1, 1, None]))


@st.composite
def related_pairs(draw):
    """bmin is a deterministic d conjugated by a potential and read as min-plus;
    amax is d alone or beside a copy of d that has the same series (conjugated, or
    with its arcs lowered by 0 or 1 and one final arrow by 1) or an edited one.  Either
    side may get one final arrow or arc moved or deleted, which usually breaks
    the equality."""
    d = draw(deterministic())
    initial, final = _arcs_of(d)
    arcs = list(d.arcs())
    amax = d
    side = draw(st.sampled_from(["alone", "conjugated copy", "lowered copy", "edited copy"]))
    if side == "conjugated copy":
        amax = _union(d, _conjugate(d, draw(st.lists(st.integers(-3, 3), min_size=d.n, max_size=d.n))))
    elif side == "lowered copy":
        drop = draw(st.lists(st.integers(-1, 0), min_size=len(arcs), max_size=len(arcs)))
        lowered = WeightedAutomaton.from_arcs(
            MAX_PLUS,
            d.alphabet,
            d.n,
            initial=initial,
            final=final,
            arcs=[(s, ch, t, w + dw) for (s, ch, t, w), dw in zip(arcs, drop)],
        )
        # one final arrow lowered too: its paths lose to others through that state
        amax = _union(d, _edit(lowered, -1 - draw(st.integers(0, 3)), -1))
    elif side == "edited copy":
        amax = _union(d, _edit(d, *draw(edits)))
    h = draw(st.lists(st.integers(-3, 3), min_size=d.n, max_size=d.n))
    bmin = as_min_plus_copy(_conjugate(d, h))
    if draw(st.booleans()):
        bmin = _edit(bmin, *draw(edits))
    return amax, bmin


pairs = st.one_of(related_pairs(), st.tuples(automata(MAX_PLUS), automata(MIN_PLUS)))


def test_kernel_matches_the_separate_path():
    seen = set()

    @settings(max_examples=400)
    @given(pairs)
    def check(pair):
        amax, bmin = pair
        equal = ref_series_equal(amax, bmin)
        assert decide_series_equal(amax, bmin) == equal
        assert decide_series_leq(amax, bmin) == ref_series_leq(amax, bmin)
        difference = hadamard(amax, bmin.negate())
        assert decide_equal_const_on_support(difference, 0) == ref_const_on_support(difference)
        for check in (True, False):
            expected = outcome(ref_extract, amax, bmin, check)
            assert outcome(extract_one_valued, amax, bmin, check) == expected
            if isinstance(expected, str):
                expected = serialize(disambiguate(ref_extract(amax, bmin, check)))
            assert outcome(unambiguous_from_pair, amax, bmin, check) == expected
        ta, tb = amax.trim(), bmin.trim()
        seen.add("equal" if equal.holds else "not equal")
        if not ref_nfa_compare(ta.support(), tb.support(), False).holds:
            seen.add("unequal supports")
        if difference.trim().n == 0:
            seen.add("empty product")
        if expected[0] == "NotNonpositiveError":
            seen.add("not nonpositive")

    check()
    # the drawn pairs reach every branch of the kernel
    assert seen == {"equal", "not equal", "unequal supports", "empty product", "not nonpositive"}


# -- one product, one relaxation ----------------------------------------------


@pytest.mark.parametrize(
    "pair", [zoo.sample_equivalent_pair, lambda: zoo.prime_period_pair(2, 3, 5, 7)]
)
def test_kernel_builds_no_negated_copy_and_no_product_support(monkeypatch, pair):
    amax, bmin = pair()
    ta, tb = amax.trim(), bmin.trim()
    expected = (
        ref_series_equal(amax, bmin),
        ref_series_leq(amax, bmin),
        serialize(ref_remove_competitions(covering(ref_extract(amax, bmin, True)))[2]),
    )
    kernel_calls = []  # per kernel call: the automata whose support masks it built
    inside = []
    difference, support_masks = twa.decisions._difference, WeightedAutomaton._support_masks

    def watched_difference(*args):
        kernel_calls.append([])
        inside.append(True)
        try:
            return difference(*args)
        finally:
            inside.pop()

    def watched_support_masks(self):
        if inside:
            kernel_calls[-1].append(self)
        return support_masks(self)

    for module in (twa.decisions, twa.disambiguation):
        monkeypatch.setattr(module, "_difference", watched_difference)
    monkeypatch.setattr(WeightedAutomaton, "_support_masks", watched_support_masks)
    monkeypatch.setattr(WeightedAutomaton, "negate", _raise)
    assert (
        decide_series_equal(amax, bmin),
        decide_series_leq(amax, bmin),
        serialize(unambiguous_from_pair(amax, bmin)),
    ) == expected
    assert kernel_calls == [[ta, tb]] * 3



def _raise(*args, **kwargs):
    raise AssertionError("the pipeline left the equality kernel")


@pytest.mark.parametrize(
    "pair", [zoo.sample_equivalent_pair, lambda: zoo.prime_period_pair(2, 3, 5, 7)]
)
def test_pipeline_builds_one_product_and_relaxes_once(monkeypatch, pair):
    amax, bmin = pair()
    expected = serialize(unambiguous_from_pair(amax, bmin))
    products, relaxations = [], []
    product, rounds = twa.automaton._accessible_product, twa.decisions._star_rounds

    def counted_product(*args):
        products.append(args)
        return product(*args)

    def counted_rounds(*args):
        relaxations.append(args)
        return rounds(*args)

    for module in (twa.automaton, twa.decisions):
        monkeypatch.setattr(module, "_accessible_product", counted_product)
    monkeypatch.setattr(twa.decisions, "_star_rounds", counted_rounds)
    monkeypatch.setattr(twa.disambiguation, "pair_product", _raise)
    monkeypatch.setattr(twa.decisions, "_zero_filter", _raise)
    monkeypatch.setattr(twa.decisions, "nfa_equivalence", _raise)
    assert serialize(unambiguous_from_pair(amax, bmin)) == expected
    assert (len(products), len(relaxations)) == (1, 1)


@pytest.mark.parametrize("pqrs", [(2, 3, 5, 7), (3, 4, 5, 7)])
def test_relaxation_of_the_prime_products_takes_few_rounds(pqrs):
    # relaxing in state order took 28 and 42 improving rounds here
    amax, bmin = zoo.prime_period_pair(*pqrs)
    product = hadamard(amax.trim(), bmin.trim().negate()).trim()
    u = list(product.beta)
    assert sum(1 for _ in _star_rounds(product.letter_sum(), u)) <= 3
    assert all(w is not None for w in u)
    assert decide_nonpositive(product).holds


# -- one-pass competition removal against the grouping rule -------------------


def _one_valued(pair):
    try:
        return extract_one_valued(*pair, check=False)
    except NotNonpositiveError:
        return None


coverable = st.one_of(
    automata(MAX_PLUS),
    automata(MIN_PLUS),
    related_pairs().map(_one_valued).filter(lambda aut: aut is not None),
)


def test_one_pass_competition_removal_matches_the_grouping_rule():
    competitions = set()

    @settings(max_examples=300)
    @given(coverable)
    def check(aut):
        cover = covering(aut)
        keep_arcs, keep_finals, expected = ref_remove_competitions(cover)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WeightedAutomaton, "trim", lambda self: self)
            pruned = remove_competitions(cover)
        assert {(i, ch, j) for i, ch, j, _ in pruned.arcs()} == keep_arcs
        assert {i for i, w in enumerate(pruned.beta) if w is not None} == keep_finals
        assert serialize(remove_competitions(cover)) == serialize(expected)
        if len(keep_arcs) < sum(1 for _ in cover.automaton.arcs()):
            competitions.add("arcs")
        if len(keep_finals) < sum(1 for w in cover.automaton.beta if w is not None):
            competitions.add("final arrows")

    check()
    # the drawn coverings hold real competitions of both kinds
    assert competitions == {"arcs", "final arrows"}


# -- the bitmask engine against frozensets -------------------------------------


supports = automata(MAX_PLUS).map(lambda aut: aut.support())


@settings(max_examples=200)
@given(supports, supports)
def test_nfa_comparisons_match_frozenset_exploration(a, b):
    assert nfa_equivalence(a, b) == ref_nfa_compare(a, b, False)
    assert nfa_inclusion(a, b) == ref_nfa_compare(a, b, True)
    assert nfa_inclusion(b, a) == ref_nfa_compare(b, a, True)


@settings(max_examples=200)
@given(automata(MAX_PLUS), st.integers(1, 6))
def test_determinize_and_covering_match_frozenset_subsets(aut, cap):
    nfa = aut.support()
    subsets, expected = ref_determinize(nfa)
    assert determinize(nfa) == expected
    cover = covering(aut)
    assert cover.subsets == tuple(subsets)
    for label, (p, s) in zip(cover.automaton.state_labels, cover.provenance):
        assert label == f"({aut.state_label(p)},{{{','.join(map(str, sorted(subsets[s])))}}})"
    if len(subsets) > cap:
        with pytest.raises(CapExceededError):
            determinize(nfa, cap)
    else:
        assert determinize(nfa, cap) == expected
