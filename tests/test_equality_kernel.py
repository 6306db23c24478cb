"""The equality kernel: one product, one relaxation, one subset-exploration engine.

The series decisions, the 1-valued extraction and the pipeline share one
difference product, one potential and one subset exploration.  These
tests hold them to a reference copy of the separate path they replaced: the
Hadamard product with the negated min-plus automaton and a frozenset NFA
comparison for the decisions, two full-grid products (the difference, and
amax's own weights) for the extraction, the grid product with the frozenset
subset automaton of the support for the covering, and the sort of every
competing group for the one-pass competition removal.
"""

import gc
import operator
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twa.automaton
import twa.decisions
import twa.disambiguation
from corpus import (
    as_min_plus_copy,
    automata,
    conjugate,
    grid_product,
    kernel_product,
    kth_letter_from_last,
    nonsequential_pair,
    one_letter,
    ref_covering,
    ref_determinize,
    ref_difference,
    ref_fatou,
    ref_nonpositive,
    ref_rows,
    rotation_cycle,
    support,
    tight_kth_letter_from_last,
    zero_filter,
)
from twa import (
    DEFAULT_SUBSET_CAP,
    MAX_PLUS,
    MIN_PLUS,
    CapExceededError,
    Decision,
    NotEqualError,
    WeightedAutomaton,
    covering,
    decide_equal_const,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    disambiguate,
    extract_one_valued,
    format_finite,
    hadamard,
    remove_competitions,
    serialize,
    unambiguous_from_pair,
    zoo,
)
from twa.automaton import _SubsetNfa
from twa.decisions import _decision, _nonpositive, _predecessors, _zero_filter

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


def ref_const_on_support(aut):
    trim = aut.trim()
    verdict = ref_nonpositive(trim)
    if not verdict.holds:
        return verdict
    return ref_nfa_compare(support(trim), zero_filter(ref_fatou(trim)), False)


def ref_series_equal(amax, bmin):
    ta, tb = amax.trim(), bmin.trim()
    verdict = ref_nfa_compare(support(ta), support(tb), False)
    if not verdict.holds:
        return verdict
    return ref_const_on_support(hadamard(ta, tb.negate()))


def ref_series_leq(amax, bmin):
    ta, tb = amax.trim(), bmin.trim()
    verdict = ref_nfa_compare(support(ta), support(tb), True)
    if not verdict.holds:
        return verdict
    return ref_nonpositive(hadamard(ta, tb.negate()).trim())


def ref_extract(amax, bmin):
    """Decide S = T, renormalize the difference on the full grid, keep its zeros with amax's weights.

    The difference S - T and amax's weights come from two full-grid products
    of the same shape, never from the kernel, so trimming keeps the same
    states of both.
    """
    verdict = ref_series_equal(amax, bmin)
    if not verdict.holds:
        raise NotEqualError(verdict.witness)
    ta, negated = amax.trim(), bmin.trim().negate()
    difference = grid_product(ta, negated, MAX_PLUS, operator.add).trim()
    weights = grid_product(ta, negated, MAX_PLUS, lambda x, y: x).trim()
    if difference.n == 0:
        return WeightedAutomaton(
            MAX_PLUS, amax.alphabet, 0, [], [], {ch: [] for ch in amax.alphabet}
        )
    assert ref_nonpositive(difference).holds  # S = T, so S - T is 0 on its support
    flat = ref_fatou(difference)
    mu = {
        ch: [
            {j: weights.mu[ch].rows[i][j] for j, w in row.items() if w == 0}
            for i, row in enumerate(flat.mu[ch].rows)
        ]
        for ch in difference.alphabet
    }

    def keep(vec, flat_vec):
        return [None if f != 0 else w for w, f in zip(vec, flat_vec)]

    return WeightedAutomaton(
        MAX_PLUS,
        difference.alphabet,
        difference.n,
        keep(weights.alpha, flat.alpha),
        keep(weights.beta, flat.beta),
        mu,
        difference.state_labels,
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
            ch: [
                {j: w for j, w in row.items() if (i, ch, j) in keep_arcs}
                for i, row in enumerate(mat.rows)
            ]
            for ch, mat in aut.mu.items()
        },
        aut.state_labels,
    )
    return keep_arcs, keep_finals, pruned.trim()


def ref_determinize_weighted(aut, cap):
    """Max-plus weighted subset construction over frozensets of (state, residual).

    Breadth-first in alphabet order, each residual set shifted so that its
    largest residual is 0.  Returns None when more than ``cap`` sets appear.
    """
    if aut.n == 0:
        return aut
    alpha = {q: w for q, w in enumerate(aut.alpha) if w is not None}
    top = max(alpha.values())
    start = frozenset((q, w - top) for q, w in alpha.items())
    sets, index, queue, arcs = [start], {start: 0}, deque([start]), []
    while queue:
        current = queue.popleft()
        for ch in aut.alphabet:
            best = {}
            for q, r in current:
                for t in range(aut.n):
                    w = aut.mu[ch].rows[q].get(t)
                    if w is not None and (t not in best or r + w > best[t]):
                        best[t] = r + w
            if not best:
                continue
            lam = max(best.values())
            target = frozenset((t, v - lam) for t, v in best.items())
            if target not in index:
                if len(sets) >= cap:
                    return None
                index[target] = len(sets)
                sets.append(target)
                queue.append(target)
            arcs.append((index[current], ch, index[target], lam))
    final = []
    for i, current in enumerate(sets):
        values = [r + aut.beta[q] for q, r in current if aut.beta[q] is not None]
        if values:
            final.append((i, max(values)))
    labels = [
        "{" + ",".join(f"{aut.state_label(q)}:{format_finite(r)}" for q, r in sorted(current)) + "}"
        for current in sets
    ]
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, aut.alphabet, len(sets), initial=[(0, top)], final=final, arcs=arcs, labels=labels
    )


def ref_unambiguous(amax, bmin, cap=DEFAULT_SUBSET_CAP):
    """The weighted determinization of ref_extract's automaton if it stays within
    min(its state count, cap) states, else its covering with the competitions
    removed by the grouping rule."""
    one = ref_extract(amax, bmin)
    deterministic = ref_determinize_weighted(one, min(one.n, cap))
    if deterministic is not None:
        return deterministic
    return ref_remove_competitions(ref_covering(one))[2]


def outcome(fn, *args, **kwargs):
    """A comparable record: the verdict, the serialized automaton, or the error and its witness."""
    try:
        result = fn(*args, **kwargs)
    except NotEqualError as exc:
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
        amax = _union(d, conjugate(d, draw(st.lists(st.integers(-3, 3), min_size=d.n, max_size=d.n))))
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
    bmin = as_min_plus_copy(conjugate(d, h))
    if draw(st.booleans()):
        bmin = _edit(bmin, *draw(edits))
    return amax, bmin


pairs = st.one_of(related_pairs(), st.tuples(automata(MAX_PLUS), automata(MIN_PLUS)))


def test_kernel_matches_the_separate_path():
    seen = set()

    @settings(max_examples=400)
    @given(pairs)
    @example(zoo.sample_equivalent_pair())  # the covering: 5 sets, 4 states
    @example(nonsequential_pair())  # the covering: the sets never end
    def check(pair):
        amax, bmin = pair
        equal = ref_series_equal(amax, bmin)
        assert decide_series_equal(amax, bmin) == equal
        assert decide_series_leq(amax, bmin) == ref_series_leq(amax, bmin)
        difference = hadamard(amax, bmin.negate())
        assert decide_equal_const_on_support(difference, 0) == ref_const_on_support(difference)
        expected = outcome(ref_extract, amax, bmin)
        assert outcome(extract_one_valued, amax, bmin) == expected
        if isinstance(expected, str):
            one = ref_extract(amax, bmin)
            assert serialize(disambiguate(one)) == serialize(ref_remove_competitions(ref_covering(one))[2])
            seen.add("deterministic" if ref_determinize_weighted(one, one.n) else "covering")
        assert outcome(unambiguous_from_pair, amax, bmin) == outcome(ref_unambiguous, amax, bmin)
        ta, tb = amax.trim(), bmin.trim()
        seen.add("equal" if equal.holds else "not equal")
        if not ref_nfa_compare(support(ta), support(tb), False).holds:
            seen.add("unequal supports")
        elif not ref_nonpositive(difference.trim()).holds:
            seen.add("not nonpositive")
        if difference.trim().n == 0:
            seen.add("empty product")

    check()
    # the drawn pairs reach every branch of the kernel
    assert seen == {
        "equal",
        "not equal",
        "unequal supports",
        "empty product",
        "not nonpositive",
        "deterministic",
        "covering",
    }


# -- one product, one relaxation ----------------------------------------------


@pytest.mark.parametrize(
    "pair", [zoo.sample_equivalent_pair, lambda: zoo.prime_period_pair(2, 3, 5, 7)]
)
def test_kernel_builds_no_negated_copy_and_no_product_support(monkeypatch, pair):
    amax, bmin = pair()
    ta, tb = amax.trim(), bmin.trim()
    one = ref_extract(amax, bmin)
    assert serialize(disambiguate(extract_one_valued(amax, bmin))) == serialize(
        ref_remove_competitions(ref_covering(one))[2]
    )
    expected = (
        ref_series_equal(amax, bmin),
        ref_series_leq(amax, bmin),
        serialize(ref_unambiguous(amax, bmin)),
    )
    kernel_calls = []  # per kernel call: the automata whose support NFAs it built
    inside = []
    difference, support_nfa = twa.decisions._difference, WeightedAutomaton._support_nfa

    def watched_difference(*args):
        kernel_calls.append([])
        inside.append(True)
        try:
            return difference(*args)
        finally:
            inside.pop()

    def watched_support_nfa(self):
        if inside:
            kernel_calls[-1].append(self)
        return support_nfa(self)

    for module in (twa.decisions, twa.disambiguation):
        monkeypatch.setattr(module, "_difference", watched_difference)
    monkeypatch.setattr(WeightedAutomaton, "_support_nfa", watched_support_nfa)
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
    # the kernel lists its product's arcs once, one relaxation gives the
    # potential and the trim, and the letter sum, needed only for a NO
    # witness, is never built (the covering numbers its own pairs)
    amax, bmin = pair()
    expected = serialize(unambiguous_from_pair(amax, bmin))
    products, relaxations = [], []
    product, relax = twa.automaton._product_predecessors, twa.decisions._relax

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(twa.decisions, "_product_predecessors", counted(products, product))
    monkeypatch.setattr(twa.decisions, "_relax", counted(relaxations, relax))
    monkeypatch.setattr(WeightedAutomaton, "letter_sum", _raise)
    assert serialize(unambiguous_from_pair(amax, bmin)) == expected
    assert (len(products), len(relaxations)) == (1, 1)


def test_a_yes_builds_no_product_rows(monkeypatch):
    # the kernel keeps its product as predecessor lists and reads u, the trim
    # and the zero filter off them: on a YES no row emitter runs, and no
    # automaton is assembled (the inputs are trim, so trimming adopts none)
    amax, bmin = (aut.trim() for aut in zoo.prime_period_pair(2, 3, 5, 7))
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    product = twa.automaton._accessible_product  # the row emitter
    monkeypatch.setattr(twa.automaton, "_accessible_product", counted("_accessible_product", product))
    adopt = WeightedAutomaton._adopt.__func__
    monkeypatch.setattr(WeightedAutomaton, "_adopt", classmethod(counted("_adopt", adopt)))
    assert decide_series_equal(amax, bmin).holds
    assert decide_series_leq(amax, bmin).holds
    assert calls == []
    hadamard(amax, amax)  # the counters count
    assert calls == ["_accessible_product", "_adopt"]


@pytest.mark.parametrize(
    "pair", [zoo.sample_equivalent_pair, lambda: zoo.prime_period_pair(2, 3, 5, 7)]
)
def test_only_the_kernel_reads_the_zero_filter(monkeypatch, pair):
    # the extraction takes its arrows and arcs from the kernel's zero filter,
    # so the tightness of an arrow or arc is tested once; "leq" reads none
    amax, bmin = pair()
    expected = serialize(extract_one_valued(amax, bmin))
    leq = decide_series_leq(amax, bmin)
    calls = []
    zero_filter = twa.decisions._zero_filter

    def counted(*args):
        calls.append(args)
        return zero_filter(*args)

    monkeypatch.setattr(twa.decisions, "_zero_filter", counted)
    assert serialize(extract_one_valued(amax, bmin)) == expected
    assert len(calls) == 1
    calls.clear()
    assert decide_series_leq(amax, bmin) == leq
    assert calls == []


def _reaches_a_kept_final_arrow(zero):
    """The states from which the arcs of a zero filter lead to one of its final arrows."""
    _, final, targets = zero
    sources = {}
    for kept in targets.values():
        for i, row in enumerate(kept):
            for j in row:
                sources.setdefault(j, []).append(i)
    reached = set(final)
    queue = deque(final)
    while queue:
        for i in sources.get(queue.popleft(), ()):
            if i not in reached:
                reached.add(i)
                queue.append(i)
    return reached


def test_every_state_of_the_zero_filter_reaches_a_kept_final_arrow():
    # When S - T is nonpositive, u = M*beta is attained along a path of the
    # trim product, and every arc and the final arrow of that path are tight;
    # so the closing trim of the extraction can drop only the states that no
    # kept initial arrow reaches.  The related pairs of ``pairs`` have arcs
    # that are not tight.
    seen = set()

    @settings(max_examples=300)
    @given(st.one_of(automata(MAX_PLUS).map(lambda aut: (aut, as_min_plus_copy(aut))), pairs))
    @example(zoo.prime_period_pair(2, 3, 5, 7))
    def check(pair):
        difference = twa.decisions._difference(*pair, False)
        if difference.zero is None:
            seen.add("no zero filter")
            return
        # the kernel lets its product go; this is the same trimmed product
        product = kernel_product(difference.ta, difference.tb)[0].trim()
        assert len(difference.pairs) == product.n
        assert _reaches_a_kept_final_arrow(difference.zero) == set(range(product.n))
        kept = sum(len(row) for rows in difference.zero[2].values() for row in rows)
        seen.add("arcs dropped" if kept < sum(1 for _ in product.arcs()) else "zero filter")

    check()
    assert seen == {"no zero filter", "zero filter", "arcs dropped"}


EQUAL_PAIRS = {
    "sample": zoo.sample_equivalent_pair,
    "nonsequential": nonsequential_pair,
    "kth letter from last, k = 4": lambda: (kth_letter_from_last(4, MAX_PLUS), kth_letter_from_last(4, MIN_PLUS)),
    "tight kth letter from last, k = 4": lambda: (tight_kth_letter_from_last(4), _one_state_loop(MIN_PLUS)),
    "rotation cycle, n = 12": lambda: (rotation_cycle(12, MAX_PLUS), rotation_cycle(12, MIN_PLUS)),
    "prime pair (2,3,5,7)": lambda: zoo.prime_period_pair(2, 3, 5, 7),
    "prime pair (3,4,5,7)": lambda: zoo.prime_period_pair(3, 4, 5, 7),
}


@pytest.mark.parametrize("name", sorted(EQUAL_PAIRS))
def test_the_determinization_bound_is_the_one_valued_state_count(name):
    # unambiguous_from_pair bounds the weighted determinization by the states
    # that the kept initial arrows reach, counted on the zero filter's lists
    # without building the 1-valued automaton; that count must be the size
    # of extract_one_valued's output, whose closing trim may drop only the
    # states no kept initial arrow reaches
    amax, bmin = EQUAL_PAIRS[name]()
    difference = twa.decisions._difference(amax, bmin, False)
    assert difference.verdict.holds
    initial, _, targets = difference.zero
    flags = twa.automaton._reach(initial, list(targets.values()), len(difference.pairs))
    reached = {i for i, flag in enumerate(flags) if flag}
    assert len(flags) == len(difference.pairs)
    assert sum(flags) == len(reached) == extract_one_valued(amax, bmin).n
    one = twa.disambiguation._untrimmed_one_valued(difference)
    forward = {i for i, w in enumerate(one.alpha) if w is not None}
    queue = deque(forward)
    while queue:
        i = queue.popleft()
        for ch in one.alphabet:
            for j in one.mu[ch].rows[i]:
                if j not in forward:
                    forward.add(j)
                    queue.append(j)
    assert reached == forward
    assert forward <= _reaches_a_kept_final_arrow(difference.zero)


def ref_star_rounds(rows, u):
    """Plain Bellman-Ford on the letter sum's rows: rounds over every arc in
    row order, up to n + 1 of them.

    Returns the states that each improving round improved, and how it ended."""
    n = len(rows)
    rounds = []
    for k in range(n + 1):
        improved = []
        for i, row in enumerate(rows):
            for j, w in row.items():
                if u[j] is not None and (u[i] is None or w + u[j] > u[i]):
                    u[i] = w + u[j]
                    improved.append(i)
        if not improved:
            return rounds, "fixpoint"
        if k == n:
            return rounds, "diverged"
        rounds.append(improved)


class _Counted(list):
    """A list that counts its item assignments: the improvements of a potential."""

    def __init__(self, items):
        super().__init__(items)
        self.assignments = 0

    def __setitem__(self, index, value):
        self.assignments += 1
        super().__setitem__(index, value)


def relaxes_like_the_letter_sum(amax, bmin):
    """The kernel relaxes the untrimmed product and reads its trim off the
    result; the trimmed product's letter sum, relaxed by the reference rounds,
    must end the same way and, at the fixpoint, in the same u up to the
    renumbering, and the kernel must keep exactly the useful states.  No
    initial arrow is passed to the first relaxation, so no round stops it
    early; a second one with the product's initial arrows must flag exactly
    the useful states too, also when it stops at a positive word.
    Returns how it ended, whether u improved, whether the trim dropped
    states, and whether the second relaxation stopped before u reached a
    state it flags as useful."""
    product, _ = kernel_product(amax.trim(), bmin.trim())
    keep = product._useful_states()
    every = list(range(product.n))
    verdict, _, kept = _nonpositive(product.alphabet, product.alpha, product.beta, _predecessors(product))
    searched = False
    if verdict.witness != "":  # a positive empty word is decided untrimmed
        assert (every if kept is None else kept) == keep
        # u is handed back only on a YES, so the list that _relax builds
        # from beta is caught as it is made
        made = []

        def caught(items):
            made.append(list(items))
            return made[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twa.decisions, "list", caught, raising=False)
            rounds, _, kept = twa.decisions._relax(product.alpha, product.beta, _predecessors(product))
        assert (every if kept is None else kept) == keep
        searched = rounds is not None and any(made[0][i] is None for i in keep)
    rounds, u, kept = twa.decisions._relax([None] * product.n, product.beta, _predecessors(product))
    holds = rounds is None
    assert (every if kept is None else kept) == keep
    trim = product._restrict(keep)
    ref_u = list(trim.beta)
    rounds, end = ref_star_rounds(trim.letter_sum(), ref_u)
    assert ("fixpoint" if holds else "diverged") == end
    if holds:
        assert [u[i] for i in keep] == ref_u
        assert [i for i, ui in enumerate(u) if ui is not None] == keep
    return end, len(rounds) > 0, len(keep) < product.n, searched


def test_the_product_relaxes_like_its_trimmed_letter_sum():
    seen = set()

    @settings(max_examples=300)
    @given(pairs)
    def check(pair):
        end, improved, trimmed, searched = relaxes_like_the_letter_sum(*pair)
        seen.add(end)
        if improved:
            seen.add("improved")
        if trimmed:
            seen.add("trimmed")
        if searched:
            seen.add("searched")

    check()
    assert seen == {"fixpoint", "diverged", "improved", "trimmed", "searched"}


# a -> 1 and b -> 3 from two initial states: the product pairs (0, 2) and
# (2, 0) of the two initial states have no letter in common, so they reach
# no final arrow, and the YES trims them
BRANCHES = WeightedAutomaton.from_arcs(
    MAX_PLUS, "ab", 4, initial=[(0, 0), (2, 0)], final=[(1, 0), (3, 1)], arcs=[(0, "a", 1, 1), (2, "b", 3, 2)]
)


def _zero_sets(zero):
    """A zero filter with each row of targets as a set, and its letters in order."""
    if zero is None:
        return None
    initial, final, targets = zero
    return initial, final, [(ch, [set(row) for row in rows]) for ch, rows in targets.items()]


def test_the_kernel_on_predecessor_lists_matches_the_assembled_product():
    # the kernel builds no product rows; its verdict, witness, pairs and zero
    # filter must be those of the path that assembles the product
    seen = set()

    @settings(max_examples=300)
    @given(pairs, st.booleans())
    @example((BRANCHES, as_min_plus_copy(BRANCHES)), False)
    def check(pair, inclusion):
        difference = twa.decisions._difference(*pair, inclusion)
        verdict, kept, zero = ref_difference(*pair, inclusion)
        assert (difference.verdict, difference.pairs) == (verdict, kept)
        assert _zero_sets(difference.zero) == _zero_sets(zero)
        if kept is None:
            seen.add("supports differ")
        elif zero is not None:
            seen.add("zero filter")
            ta, tb = pair[0].trim(), pair[1].trim()
            if len(kept) < len(twa.automaton._pair_numbering(ta, tb)):
                seen.add("trimmed")
        elif not verdict.holds:
            seen.add("empty word" if verdict.witness == "" else "positive word")

    check()
    assert seen == {"supports differ", "zero filter", "trimmed", "empty word", "positive word"}


@pytest.mark.parametrize("pqrs", [(2, 3, 5, 7), (3, 4, 5, 7)])
def test_relaxation_of_the_prime_products_takes_few_rounds(monkeypatch, pqrs):
    # a round scans only the arcs into the states the round before improved,
    # so the improvements measure the work: 1,004 on 840 states and 1,974 on
    # 1,680 here, in 42 and 63 rounds
    amax, bmin = zoo.prime_period_pair(*pqrs)
    assert relaxes_like_the_letter_sum(amax, bmin) == ("fixpoint", True, False, False)
    product = hadamard(amax.trim(), bmin.trim().negate()).trim()
    # _relax builds u with list(beta), so u is counted as it is relaxed
    monkeypatch.setattr(twa.decisions, "list", _Counted, raising=False)
    rounds, u, _ = twa.decisions._relax(product.alpha, product.beta, _predecessors(one_letter(product.letter_sum())))
    monkeypatch.undo()
    assert rounds is None and u.assignments <= 2 * product.n
    assert all(w is not None for w in u)
    assert decide_nonpositive(product).holds


# -- one-pass competition removal against the grouping rule -------------------


def _one_valued(pair):
    try:
        return extract_one_valued(*pair)
    except NotEqualError:
        return None


coverable = st.one_of(
    automata(MAX_PLUS),
    automata(MIN_PLUS),
    related_pairs().map(_one_valued).filter(lambda aut: aut is not None),
)


# on the subset {0, 1} that `aa` reaches, the arcs 0 -a-> 0 and 1 -a-> 0 compete
ARC_COMPETITION = WeightedAutomaton.from_arcs(
    MAX_PLUS, "ab", 2, initial=[(1, 0)], final=[(1, 0)], arcs=[(0, "a", 0, 0), (0, "a", 1, 0), (1, "a", 0, 0)]
)
# the subset {0, 1} of the empty word holds two final states, whose arrows compete
FINAL_COMPETITION = WeightedAutomaton.from_arcs(MAX_PLUS, "ab", 2, initial=[(0, 0), (1, 0)], final=[(0, 0), (1, 0)])


def test_one_pass_competition_removal_matches_the_grouping_rule():
    competitions = set()

    @settings(max_examples=300)
    @given(coverable)
    @example(ARC_COMPETITION)
    @example(FINAL_COMPETITION)
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


# -- the subset engine against the reference exploration -----------------------


ROW_KINDS = {
    "frozenset": frozenset,
    "list": lambda row: sorted(row, reverse=True),
    "tuple": lambda row: tuple(sorted(row)),
    "dict": lambda row: dict.fromkeys(sorted(row), 0),
}


def _rows_as(nfa, kind):
    """The same NFA with every row of its targets turned into ``kind``."""
    convert = ROW_KINDS[kind]
    return _SubsetNfa.of(nfa.initial, nfa.final, {ch: [convert(row) for row in rows] for ch, rows in nfa.succ.items()})


@settings(max_examples=200)
@given(automata(MAX_PLUS), automata(MAX_PLUS))
def test_nfa_comparisons_match_frozenset_exploration(a, b):
    # _SubsetNfa.of keeps the rows it is given (the automaton's row dicts for
    # a support NFA, lists for the zero filter), so every kind of row must
    # walk the same pairs in the same order to the same witness, and build
    # the same subsets
    ma, mb, ra, rb = a._support_nfa(), b._support_nfa(), support(a), support(b)
    subsets = ma.subsets(DEFAULT_SUBSET_CAP)
    for x, y, rx, ry, inclusion in ((ma, mb, ra, rb, False), (ma, mb, ra, rb, True), (mb, ma, rb, ra, True)):
        walk = x.walk(y, inclusion, "support comparison")
        assert _decision(walk[0]) == ref_nfa_compare(rx, ry, inclusion)
        for kind in ROW_KINDS:
            assert _rows_as(x, kind).walk(_rows_as(y, kind), inclusion, "support comparison") == walk, kind
    for kind in ROW_KINDS:
        assert _rows_as(ma, kind).subsets(DEFAULT_SUBSET_CAP) == subsets, kind


@settings(max_examples=50)
@given(st.sampled_from([MAX_PLUS, MIN_PLUS]).flatmap(automata))
def test_a_support_nfa_is_a_view_of_the_rows(aut):
    # the support walks read the automaton's own row dicts; no row is copied
    nfa = aut._support_nfa()
    assert list(nfa.succ) == list(aut.alphabet)
    for ch in aut.alphabet:
        assert nfa.succ[ch] is aut.mu[ch].rows


@settings(max_examples=200)
@given(automata(MAX_PLUS), st.integers(1, 6))
def test_determinize_and_covering_match_frozenset_subsets(aut, cap):
    engine, nfa = aut._support_nfa(), support(aut)
    subsets, moves = ref_determinize(nfa)
    accepting = [bool(subset & nfa.final) for subset in subsets]
    expected = [sorted(subset) for subset in subsets], accepting, ref_rows(nfa.alphabet, moves)
    assert engine.subsets(DEFAULT_SUBSET_CAP) == expected
    cover = covering(aut)
    assert cover.subsets == tuple(subsets)
    for label, (p, s) in zip(cover.automaton.state_labels, cover.provenance):
        assert label == f"({aut.state_label(p)},{{{','.join(map(str, sorted(subsets[s])))}}})"
    if len(subsets) > cap:
        with pytest.raises(CapExceededError):
            engine.subsets(cap)
    else:
        assert engine.subsets(cap) == expected


def test_subset_memory_grows_with_the_subsets_walked():
    # the supports and the zero filter of the 20,020-state difference product
    # are compared on few subsets; per-state bitmasks as wide as their highest
    # target would add about n^2/16 bytes, some 25 MB here.  The pipeline
    # determinizes on the same zero filter.
    amax, bmin = zoo.prime_period_pair(5, 7, 11, 13)
    calls = {
        "decide_series_equal": lambda: decide_series_equal(amax, bmin).holds,
        "unambiguous_from_pair": lambda: unambiguous_from_pair(amax, bmin).n > 0,
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            assert call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, name


def _traced_peak(call):
    """The tracemalloc peak of a warm ``call()``, in bytes: one untraced call
    first, so that what a first call caches is not counted.  A full
    collection then empties the interpreter's free lists: an object taken
    from one (a 2-tuple of a predecessor list, say) is not traced, so the
    peak would otherwise depend on what the tests before left there."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The kernel's peak before it kept its product as predecessor lists, warm,
# under Python 3.11, over the peak of the difference product's rows then:
# 425,956 of 350,840 B on (2,3,5,7), 862,996 of 709,936 B on (3,4,5,7).
@pytest.mark.parametrize(
    "pqrs, bound", [((2, 3, 5, 7), 425_956 / 350_840), ((3, 4, 5, 7), 862_996 / 709_936)]
)
def test_the_kernel_holds_little_beside_its_product(monkeypatch, pqrs, bound):
    # Each product-sized structure goes after its last read: the walked pairs
    # once the product's pairs are numbered, the set of their keys once it is
    # sorted, the predecessor lists once the zero filter is read off them.
    # Holding them put the kernel's peak at 2.2-2.4 times the product's own,
    # hence the first bound.  The kernel builds no row on a YES, so it now
    # peaks near what the product's rows alone take (711 against 702 kB on
    # (3,4,5,7)), and the pipeline, which determinizes straight from the zero
    # filter, peaks in the determinization (727 kB).  Neither may pass the
    # kernel's peak before the lists, as the same ratio of the product's: a
    # ratio, so that the object sizes of each version cancel.  The product's
    # peak is that of its rows alone: the row emitter's sum product with the
    # negation of bmin has the same rows, and its labels are left out here.
    amax, bmin = zoo.prime_period_pair(*pqrs)
    ta, negated = amax.trim(), bmin.trim().negate()
    with monkeypatch.context() as patch:
        patch.setattr(twa.automaton, "_pair_labels", lambda a, b, pairs: ())
        product = _traced_peak(lambda: twa.automaton._accessible_product(ta, negated))
    kernel = _traced_peak(lambda: decide_series_equal(amax, bmin))
    pipeline = _traced_peak(lambda: unambiguous_from_pair(amax, bmin))
    assert kernel <= 1.8 * product
    assert max(kernel, pipeline) <= bound * product


def _named(cover):
    """The arrows, arcs and labels of a covering, each state named by its provenance."""
    aut, name = cover.automaton, cover.provenance.__getitem__
    return (
        aut.semiring.tag,
        {name(i): w for i, w in enumerate(aut.alpha) if w is not None},
        {name(i): w for i, w in enumerate(aut.beta) if w is not None},
        {(name(i), ch, name(j)): w for i, ch, j, w in aut.arcs()},
        {name(i): aut.state_label(i) for i in range(aut.n)},
    )


@settings(max_examples=300)
@given(st.sampled_from([MAX_PLUS, MIN_PLUS]).flatmap(automata))
def test_covering_is_the_accessible_grid_product_with_the_subset_automaton(aut):
    cover, expected = covering(aut), ref_covering(aut)
    assert cover.subsets == expected.subsets
    assert _named(cover) == _named(expected)
    assert cover.provenance == expected.provenance
    # the engine's numbering: (original state, subset) pairs in increasing order
    assert list(cover.provenance) == sorted(set(cover.provenance))


# -- the product's pairs from the support walk, the zero filter on either side --


def _walk(ta, tb, inclusion):
    return ta._support_nfa().walk(tb._support_nfa(), inclusion, "support comparison")


def test_products_from_the_walked_pairs_match_the_search():
    seen = set()

    @settings(max_examples=300)
    @given(pairs)
    def check(pair):
        ta, tb = pair[0].trim(), pair[1].trim()
        equal = _walk(ta, tb, False)[0] is None
        for inclusion in (False, True):
            witness, walked = _walk(ta, tb, inclusion)
            if witness is not None:
                continue
            grouped = twa.automaton._product_predecessors(ta, tb, walked)
            searched = twa.automaton._product_predecessors(ta, tb)
            assert grouped == searched
            seen.add("equal supports" if equal else "included supports")
            if sum(len(x) * len(y) for x, y in walked) <= ta.n * tb.n:
                seen.add("groups")

    check()
    assert seen == {"equal supports", "included supports", "groups"}


def test_products_search_when_the_walked_pairs_outnumber_the_cells():
    # 12 walked pairs of 6 x 6 states: 432 pairs against 144 cells, so the
    # groups are never read, not even one that would add every cell
    amax = rotation_cycle(12, MAX_PLUS)
    bmin = as_min_plus_copy(amax)
    witness, walked = _walk(amax, bmin, False)
    assert witness is None
    assert sum(len(x) * len(y) for x, y in walked) == 432
    every_cell = walked + [(range(12), range(12))]
    grouped = twa.automaton._product_predecessors(amax, bmin, every_cell)
    searched = twa.automaton._product_predecessors(amax, bmin)
    assert grouped == searched
    assert len(searched[0]) < 144
    assert decide_series_equal(amax, bmin).holds


@settings(max_examples=200)
@given(st.sampled_from([MAX_PLUS, MIN_PLUS]).flatmap(automata))
def test_covering_from_its_subsets_is_the_searched_covering(aut):
    cover = covering(aut)
    product = twa.automaton._accessible_product

    def searched(a, b, groups):
        return product(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twa.disambiguation, "_accessible_product", searched)
        expected = covering(aut)
    assert _named(cover) == _named(expected)
    assert (cover.provenance, cover.subsets) == (expected.provenance, expected.subsets)


def test_either_support_gives_the_zero_filter_witness():
    # with equal supports, the zero filter may be compared with either input
    seen = set()

    @settings(max_examples=300)
    @given(pairs)
    def check(pair):
        ta, tb = pair[0].trim(), pair[1].trim()
        sa, sb = ta._support_nfa(), tb._support_nfa()
        if sa.walk(sb, False, "support comparison")[0] is not None:
            return
        trim = kernel_product(ta, tb)[0].trim()
        into = _predecessors(trim)
        verdict, u, _ = _nonpositive(trim.alphabet, trim.alpha, trim.beta, into)
        if not verdict.holds:
            return
        zero = _SubsetNfa.of(*_zero_filter(trim.alphabet, trim.alpha, trim.beta, into, u))
        what = "zero-filter comparison"
        words = {sa.walk(zero, False, what)[0], sb.walk(zero, False, what)[0]}
        words |= {zero.walk(sa, False, what)[0], zero.walk(sb, False, what)[0]}
        assert len(words) == 1
        seen.add("equal" if words == {None} else "not equal")

    check()
    assert seen == {"equal", "not equal"}


@pytest.mark.parametrize(
    "pair", [zoo.sample_equivalent_pair, lambda: zoo.prime_period_pair(2, 3, 5, 7)]
)
def test_only_kept_products_are_labelled(monkeypatch, pair):
    amax, bmin = pair()
    calls = []
    labels = twa.automaton._pair_labels

    def counted(*args):
        calls.append(args)
        return labels(*args)

    for module in (twa.automaton, twa.disambiguation):
        monkeypatch.setattr(module, "_pair_labels", counted)
    assert decide_series_equal(amax, bmin).holds
    decide_series_leq(amax, bmin)
    assert calls == []
    one = extract_one_valued(amax, bmin)
    cover = covering(one)
    product = hadamard(amax, amax)
    assert len(calls) == 3
    assert all(aut.state_labels for aut in (one, cover.automaton, product))


def _one_state_loop(tag):
    return WeightedAutomaton.from_arcs(
        tag, "ab", 1, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, "a", 0, 0), (0, "b", 0, 0)]
    )


CAPPED = {
    "decide_equal_const": lambda cap: decide_equal_const(_one_state_loop(MAX_PLUS), 0, cap),
    # the shifted series is positive, so the verdict is NO before any exploration
    "decide_equal_const_no": lambda cap: decide_equal_const(_one_state_loop(MAX_PLUS), -1, cap),
    "determinize": lambda cap: _one_state_loop(MAX_PLUS)._support_nfa().subsets(cap),
    "covering": lambda cap: covering(_one_state_loop(MAX_PLUS), cap),
    "disambiguate": lambda cap: disambiguate(_one_state_loop(MAX_PLUS), cap),
    "unambiguous_from_pair": lambda cap: unambiguous_from_pair(
        _one_state_loop(MAX_PLUS), _one_state_loop(MIN_PLUS), subset_cap=cap
    ),
}


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("entry", sorted(CAPPED))
def test_caps_below_one_are_rejected_by_every_exploration(entry, cap):
    # each input reaches at most one subset, so a cap that is not checked goes unnoticed
    with pytest.raises(ValueError, match="cap must be at least 1"):
        CAPPED[entry](cap)
    CAPPED[entry](1)


@pytest.mark.parametrize("cap", [True, 2.5, None, "3", 0], ids=repr)
@pytest.mark.parametrize("entry", sorted(CAPPED))
def test_a_cap_is_an_int_of_at_least_one_and_its_error_names_it(entry, cap):
    # a bool or float cap was taken as it was (covering(aut, 2.5) built its
    # automaton, and the pipeline raised "exceeded cap of True"), and None
    # or "3" raised a bare TypeError from the comparison with 1
    name = "subset_cap" if entry.startswith(("decide", "unambiguous")) else "cap"
    error, rule = (ValueError, "at least 1") if type(cap) is int else (TypeError, "an int")
    with pytest.raises(error) as err:
        CAPPED[entry](cap)
    assert str(err.value) == f"{name} must be {rule}, got {cap!r}"


# -- every product stops at the cap ---------------------------------------------


def _products():
    """Per entry point: a call that builds one product, and that product's pair count.

    The kernel's entries run on the prime pair (2,3,5,7), whose comparisons
    meet 210 subset pairs and whose difference product has 840 pairs, so the
    product is the first to pass a cap between the two.
    """
    amax, bmin = zoo.sample_equivalent_pair()
    one = extract_one_valued(amax, bmin)
    pmax, pmin = zoo.prime_period_pair(2, 3, 5, 7)
    difference = hadamard(pmax.trim(), pmin.trim().negate()).n
    # two initial states on each side: four initial pairs before any arc
    starts = WeightedAutomaton.from_arcs(MAX_PLUS, "ab", 2, initial=[(0, 0), (1, 0)], final=[(0, 0)])
    return {
        "hadamard": (lambda: hadamard(amax, amax), hadamard(amax, amax).n),
        "hadamard of initial pairs": (lambda: hadamard(starts, starts), 4),
        "decide_series_equal": (lambda: decide_series_equal(pmax, pmin), difference),
        "extract_one_valued": (lambda: extract_one_valued(pmax, pmin), difference),
        "covering": (lambda: covering(one), covering(one).automaton.n),
    }


@pytest.mark.parametrize("entry", sorted(_products()))
def test_every_product_stops_at_the_cap(monkeypatch, entry):
    build, pairs = _products()[entry]
    assert pairs > 1
    monkeypatch.setattr(twa.automaton, "DEFAULT_SUBSET_CAP", pairs)
    build()  # exactly the cap: no error
    monkeypatch.setattr(twa.automaton, "DEFAULT_SUBSET_CAP", pairs - 1)
    with pytest.raises(CapExceededError) as info:
        build()
    assert (info.value.what, info.value.cap) == ("product", pairs - 1)


# -- every comparison stops at the cap ------------------------------------------


def _comparisons():
    """Per entry point: a call, its comparison that meets the most subset pairs, and their count.

    Each comparison of (a+b)*a(a+b)^4 meets its 2^5 subsets, paired with one
    subset of the other side.  The tight family's zero filter is compared
    with the support of ``every``, the smaller input, whose one state pairs
    with each of those subsets; with the tight side's support it would meet
    33, the empty word's pair besides.  Every product here has at most 36 pairs.
    """
    kmax, kmin = kth_letter_from_last(4, MAX_PLUS), kth_letter_from_last(4, MIN_PLUS)
    tight, every = tight_kth_letter_from_last(4), _one_state_loop(MIN_PLUS)
    supports, zeros = "support comparison", "zero-filter comparison"
    return {
        "decide_series_equal supports": (lambda: decide_series_equal(kmax, kmin), supports, 32),
        "decide_series_leq": (lambda: decide_series_leq(kmax, every), supports, 32),
        "extract_one_valued": (lambda: extract_one_valued(kmax, kmin), supports, 32),
        "decide_equal_const_on_support": (
            lambda: decide_equal_const_on_support(kmax, 0), zeros, 32
        ),
        "decide_series_equal zero filter": (lambda: decide_series_equal(tight, every), zeros, 32),
        "unambiguous_from_pair": (lambda: unambiguous_from_pair(tight, every), zeros, 32),
    }


@pytest.mark.parametrize("entry", sorted(_comparisons()))
def test_every_comparison_stops_at_the_cap(monkeypatch, entry):
    build, what, pairs = _comparisons()[entry]
    result = build()
    assert getattr(result, "holds", True)
    monkeypatch.setattr(twa.automaton, "DEFAULT_SUBSET_CAP", pairs)
    try:
        build()  # exactly the cap: the comparison passes
    except CapExceededError as exc:  # a product larger than the comparison may stop next
        assert exc.what == "product"
    monkeypatch.setattr(twa.automaton, "DEFAULT_SUBSET_CAP", pairs - 1)
    with pytest.raises(CapExceededError) as info:
        build()
    assert (info.value.what, info.value.cap) == (what, pairs - 1)
