"""Seeded random generators shared by the test modules."""

import operator
import struct
import sys
from collections import deque
from fractions import Fraction

from hypothesis import strategies as st

from twa import MAX_PLUS, MIN_PLUS, Covering, Decision, WeightedAutomaton, max_mean_cycle
from twa.automaton import _accessible_product, _SubsetNfa
from twa.decisions import _decision, _nonpositive, _predecessors, _pumped_witness, _relax
from twa.format import serialize
from twa.semiring import format_finite, parse_finite


def random_weight(rng, lo=-5, hi=5, zero_p=0.4, frac_p=0.0):
    """A random exact weight; None (the semiring zero) with probability zero_p."""
    if rng.random() < zero_p:
        return None
    if frac_p and rng.random() < frac_p:
        return Fraction(rng.randint(2 * lo, 2 * hi), rng.choice([2, 3, 4, 5, 7]))
    return rng.randint(lo, hi)


def random_matrix(rng, n=None, nmax=6, lo=-5, hi=5, zero_p=0.4):
    """A random square matrix as n row dicts {column: weight}."""
    if n is None:
        n = rng.randint(1, nmax)
    rows = []
    for _ in range(n):
        row = {}
        for j in range(n):
            w = random_weight(rng, lo, hi, zero_p)
            if w is not None:
                row[j] = w
        rows.append(row)
    return rows


def relaxed(rows, beta):
    """The potential u = M*beta of the production relaxation, M given as row
    dicts: u at the fixpoint, or None when the relaxation diverges."""
    u = list(beta)
    # no initial arrow, so no round is positive: the fixpoint or a divergence
    return u if _relax(_predecessors(one_letter(rows)), [None] * len(u), u)[0] else None


def vec_rows(x, rows):
    """The max-plus product of the sparse row vector ``x`` {state: weight} and ``rows``."""
    out = {}
    for i, xi in x.items():
        for j, w in rows[i].items():
            if j not in out or xi + w > out[j]:
                out[j] = xi + w
    return out


def one_letter(rows, tag=MAX_PLUS):
    """The automaton whose one letter ``a`` has the matrix ``rows``, with no arrows:
    what max_mean_cycle and simple_circuits take for a matrix."""
    n = len(rows)
    return WeightedAutomaton(tag, "a", n, [None] * n, [None] * n, {"a": rows})


def random_automaton(
    rng,
    max_states=4,
    alphabet="ab",
    tag=MAX_PLUS,
    arc_p=0.5,
    arrow_p=0.6,
    lo=-5,
    hi=5,
    frac_p=0.1,
):
    """A random automaton; not necessarily trim."""
    n = rng.randint(1, max_states)
    alphabet = tuple(alphabet)

    def arrow():
        return random_weight(rng, lo, hi, 1.0 - arrow_p, frac_p)

    initial = [(i, w) for i in range(n) if (w := arrow()) is not None]
    final = [(i, w) for i in range(n) if (w := arrow()) is not None]
    arcs = []
    for src in range(n):
        for ch in alphabet:
            for dst in range(n):
                if rng.random() < arc_p:
                    w = random_weight(rng, lo, hi, 0.0, frac_p)
                    arcs.append((src, ch, dst, w))
    return WeightedAutomaton.from_arcs(
        tag, alphabet, n, initial=initial, final=final, arcs=arcs
    )


def random_deterministic_automaton(
    rng, max_states=4, alphabet="ab", tag=MAX_PLUS, arc_p=0.7, lo=-4, hi=4
):
    """Single initial state, at most one arc per (state, letter): unambiguous by shape."""
    n = rng.randint(1, max_states)
    alphabet = tuple(alphabet)
    arcs = []
    for src in range(n):
        for ch in alphabet:
            if rng.random() < arc_p:
                arcs.append((src, ch, rng.randrange(n), rng.randint(lo, hi)))
    final = [(i, rng.randint(lo, hi)) for i in range(n) if rng.random() < 0.6]
    if not final:
        final = [(n - 1, rng.randint(lo, hi))]
    return WeightedAutomaton.from_arcs(
        tag, alphabet, n, initial=[(0, rng.randint(lo, hi))], final=final, arcs=arcs
    )


def grid_product(a, b, semiring, combine):
    """Reference: the full a.n * b.n grid, pair (p, q) at index p * b.n + q."""
    bn = b.n
    grid = [(p, q) for p in range(a.n) for q in range(bn)]

    def arrows(va, vb):
        return [
            None if va[p] is None or vb[q] is None else combine(va[p], vb[q])
            for p, q in grid
        ]

    mu = {
        ch: [
            {
                r * bn + s: combine(w1, w2)
                for r, w1 in a.mu[ch].rows[p].items()
                for s, w2 in b.mu[ch].rows[q].items()
            }
            for p, q in grid
        ]
        for ch in a.alphabet
    }
    labels = [f"({a.state_label(p)},{b.state_label(q)})" for p, q in grid]
    alpha, beta = arrows(a.alpha, b.alpha), arrows(a.beta, b.beta)
    return WeightedAutomaton(semiring, a.alphabet, len(grid), alpha, beta, mu, labels)


class Nfa:
    """Reference NFA over frozensets of states, such as a support or a zero filter."""

    def __init__(self, alphabet, n, initial, final, delta):
        self.alphabet = tuple(alphabet)
        self.n = n
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.delta = {key: frozenset(targets) for key, targets in delta.items() if targets}

    @classmethod
    def from_arcs(cls, alphabet, n, initial, final, arcs):
        """The NFA with the (source, letter, target) triples ``arcs``."""
        delta = {}
        for i, ch, j in arcs:
            delta.setdefault((i, ch), set()).add(j)
        return cls(alphabet, n, initial, final, delta)

    def step(self, states, letter):
        return frozenset(j for i in states for j in self.delta.get((i, letter), ()))

    def accepts(self, word):
        states = self.initial
        for ch in word:
            states = self.step(states, ch)
        return bool(states & self.final)

    def engine(self):
        """The same NFA on the subset engine that answers ``walk`` and ``subsets``."""
        targets = {ch: [self.delta.get((i, ch), ()) for i in range(self.n)] for ch in self.alphabet}
        return _SubsetNfa.of(self.initial, self.final, targets)

    @classmethod
    def from_engine(cls, nfa, n):
        """Read the subset engine's NFA over states 0..n-1 back."""
        delta = {(i, ch): row for ch, rows in nfa.succ.items() for i, row in enumerate(rows)}
        return cls(nfa.succ, n, nfa.initial, nfa.final, delta)


def support(aut):
    """The NFA accepting exactly the words with a nonzero coefficient."""
    delta = {(i, ch): set(row) for ch, mat in aut.mu.items() for i, row in enumerate(mat.rows)}
    return Nfa(
        aut.alphabet,
        aut.n,
        {i for i, w in enumerate(aut.alpha) if w is not None},
        {i for i, w in enumerate(aut.beta) if w is not None},
        delta,
    )


def ref_determinize(nfa):
    """Accessible subset construction over frozensets; the empty set is no state.

    Returns (subsets, moves): moves[i] maps each letter to the index of its
    target subset.  ``ref_rows`` turns the moves into letter rows.
    """
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
                index[target] = len(subsets)
                subsets.append(target)
                moves.append({})
                queue.append(index[target])
            moves[cur][ch] = index[target]
    return subsets, moves


def ref_rows(alphabet, moves):
    """The moves of ``ref_determinize`` as rows[letter][i] = {target: 0}, or {} for no move."""
    return {ch: [{table[ch]: 0} if ch in table else {} for table in moves] for ch in alphabet}


def ref_covering(aut):
    """The covering by its definition: ``aut`` times the frozenset subset automaton of its support.

    The full grid of ``aut`` with ``ref_determinize(support(aut))``, whose
    one initial arrow, final arrows and arcs weigh 0 and whose states are
    labelled by their subsets ({0,2}), restricted to the pairs that an
    initial pair reaches, in grid order.  Returns a ``Covering``:
    provenance[i] is the pair (p, s) of state i.
    """
    nfa = support(aut)
    subsets, moves = ref_determinize(nfa)
    dfa = WeightedAutomaton.from_arcs(
        aut.semiring,
        aut.alphabet,
        len(subsets),
        initial=[(0, 0)],
        final=[(s, 0) for s, subset in enumerate(subsets) if subset & nfa.final],
        arcs=[(s, ch, t, 0) for s, table in enumerate(moves) for ch, t in table.items()],
        labels=["{" + ",".join(map(str, sorted(subset))) + "}" for subset in subsets],
    )
    grid = grid_product(aut, dfa, aut.semiring, operator.add)
    reached = {i for i, w in enumerate(grid.alpha) if w is not None}
    stack = list(reached)
    while stack:
        i = stack.pop()
        for mat in grid.mu.values():
            for j in mat.rows[i].keys() - reached:
                reached.add(j)
                stack.append(j)
    keep = sorted(reached)
    index = {old: new for new, old in enumerate(keep)}
    mu = {
        ch: [{index[j]: w for j, w in mat.rows[i].items()} for i in keep]
        for ch, mat in grid.mu.items()
    }
    accessible = WeightedAutomaton(
        aut.semiring,
        aut.alphabet,
        len(keep),
        [grid.alpha[i] for i in keep],
        [grid.beta[i] for i in keep],
        mu,
        [grid.state_labels[i] for i in keep],
    )
    return Covering(accessible, tuple(divmod(i, dfa.n) for i in keep), tuple(subsets))


def zero_filter(aut):
    """The NFA of the weight-0 arrows and arcs of a nonpositively weighted automaton."""
    delta = {}
    for ch, mat in aut.mu.items():
        for i, row in enumerate(mat.rows):
            delta[(i, ch)] = {j for j, w in row.items() if w == 0}
    return Nfa(
        aut.alphabet,
        aut.n,
        {i for i, w in enumerate(aut.alpha) if w == 0},
        {i for i, w in enumerate(aut.beta) if w == 0},
        delta,
    )


def row_zero_filter(trim, u):
    """The zero filter of a trim automaton read off its rows and u = M*beta:
    (initial, final, targets), targets[letter][i] the set of the targets of
    i's tight arcs, w + u_j = u_i."""
    initial = [i for i, w in enumerate(trim.alpha) if w is not None and w + u[i] == 0]
    final = [i for i, w in enumerate(trim.beta) if w is not None and w == u[i]]
    targets = {
        ch: [{j for j, w in row.items() if w + u[j] == u[i]} for i, row in enumerate(mat.rows)]
        for ch, mat in trim.mu.items()
    }
    return initial, final, targets


def ref_difference(amax, bmin, inclusion):
    """The equality kernel on an assembled product: (verdict, pairs, zero filter).

    The path the kernel took while it built its product's rows: trim both
    inputs, compare the supports, assemble the difference product with
    ``_accessible_product(ta, tb, operator.sub)``, decide a positive empty
    word on it, trim it, decide its nonpositivity with the witness read off
    the trim's rows, and, for S = T, read the zero filter off those rows and
    compare it with the support of the smaller input.  ``pairs`` is None
    after a support witness, and the zero filter None but on a YES of the
    potential for S = T.
    """
    ta, tb = amax.trim(), bmin.trim()
    sa, sb = ta._support_nfa(), tb._support_nfa()
    witness, _ = sa.walk(sb, inclusion, "support comparison")
    if witness is not None:
        return Decision(False, witness), None, None
    product, pairs = _accessible_product(ta, tb, operator.sub)
    if any(a is not None and b is not None and a + b > 0 for a, b in zip(product.alpha, product.beta)):
        return Decision(False, ""), pairs, None
    keep = product._useful_states()
    trim = product._restrict(keep)
    verdict, u, _, _ = _nonpositive(trim=trim)
    pairs = [pairs[i] for i in keep]
    if not verdict.holds or inclusion:
        return verdict, pairs, None
    zero = row_zero_filter(trim, u)
    smaller = sa if ta.n <= tb.n else sb
    return _decision(_SubsetNfa.of(*zero).walk(smaller, False, "zero-filter comparison")[0]), pairs, zero


def power_star(rows):
    """I + M + M^2 + ... + M^(n-1) of a max-plus matrix given as n row dicts, as dict rows.

    The star by its definition; it equals the star whenever no cycle of
    the matrix has positive weight.
    """
    n = len(rows)
    acc = [{i: 0} for i in range(n)]
    power = [{i: 0} for i in range(n)]
    for _ in range(n - 1):
        nxt = []
        for row in power:
            out = {}
            for k, w1 in row.items():
                for j, w2 in rows[k].items():
                    if j not in out or w1 + w2 > out[j]:
                        out[j] = w1 + w2
            nxt.append(out)
        power = nxt
        for arow, prow in zip(acc, power):
            for j, w in prow.items():
                if j not in arow or w > arow[j]:
                    arow[j] = w
    return acc


def ref_fatou(trim):
    """Conjugation of a trim nonpositive automaton by u = M*beta, the star from power_star."""
    beta = trim.beta
    u = [
        max((w + beta[j] for j, w in row.items() if beta[j] is not None), default=None)
        for row in power_star(trim.letter_sum())
    ]
    mu = {
        ch: [{j: w - u[i] + u[j] for j, w in row.items()} for i, row in enumerate(mat.rows)]
        for ch, mat in trim.mu.items()
    }
    return WeightedAutomaton(
        MAX_PLUS,
        trim.alphabet,
        trim.n,
        [None if w is None else w + u[i] for i, w in enumerate(trim.alpha)],
        [None if w is None else w - u[i] for i, w in enumerate(beta)],
        mu,
        trim.state_labels,
    )


def ref_positive_word(trim):
    """The scan of alpha M^k beta for k < n, M the letter sum, then a backward walk.

    A shortest word with positive value, found by walking the profiles back
    from the first state of best value and taking at each step the first
    (state, letter), in increasing state and alphabet order, that attains
    the profile; None when no word shorter than n is positive (a NO verdict
    then pumps a circuit).
    """
    total = trim.letter_sum()
    profiles = [{i: w for i, w in enumerate(trim.alpha) if w is not None}]
    for k in range(trim.n):
        x = profiles[k]
        best, best_state = None, None
        for i, xi in sorted(x.items()):
            b = trim.beta[i]
            if b is None:
                continue
            v = xi + b
            if best is None or v > best:
                best, best_state = v, i
        if best is not None and best > 0:
            return _backtrack_word(trim, profiles, k, best_state)
        if k + 1 < trim.n:
            profiles.append(vec_rows(x, total))
    return None


def ref_nonpositive(trim):
    """The scan of alpha M^k beta for k < n, then Karp: the decision that the
    single Bellman-Ford relaxation replaced, with the same pumped witness."""
    if trim.n == 0:
        return Decision(True, None)
    word = ref_positive_word(trim)
    if word is not None:
        return Decision(False, word)
    rho = max_mean_cycle(trim)
    if rho is not None and rho > 0:
        return Decision(False, _pumped_witness(trim))
    return Decision(True, None)


def _backtrack_word(aut, profiles, k: int, end_state: int) -> str:
    """Recover a length-k word whose best path reaches ``end_state`` with the profile value."""
    letters = []
    cur = end_state
    for t in range(k, 0, -1):
        target = profiles[t][cur]
        prev = profiles[t - 1]
        hop = None
        for i in sorted(prev):
            for ch in aut.alphabet:
                w = aut.mu[ch].rows[i].get(cur)
                if w is not None and prev[i] + w == target:
                    hop = (i, ch)
                    break
            if hop:
                break
        assert hop is not None, "profile backtracking lost the maximizing path"
        cur, ch = hop
        letters.append(ch)
    return "".join(reversed(letters))


def as_min_plus_copy(aut):
    """The same data read as a min-plus automaton.

    For a 1-valued automaton (deterministic ones in particular) max and min
    over paths coincide, so the copy recognizes the same series.
    """
    return WeightedAutomaton(
        MIN_PLUS,
        aut.alphabet,
        aut.n,
        aut.alpha,
        aut.beta,
        {ch: mat.rows for ch, mat in aut.mu.items()},
        aut.state_labels,
    )


def duplicate_union(aut):
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


def conjugate(aut, h):
    """``aut`` conjugated by the potential h: alpha - h, beta + h, and w + h_s - h_t
    on each arc s -> t.  Every successful path keeps its weight, so the series stays."""
    return WeightedAutomaton.from_arcs(
        aut.semiring,
        aut.alphabet,
        aut.n,
        initial=[(i, w - h[i]) for i, w in enumerate(aut.alpha) if w is not None],
        final=[(i, w + h[i]) for i, w in enumerate(aut.beta) if w is not None],
        arcs=[(s, ch, t, w + h[s] - h[t]) for s, ch, t, w in aut.arcs()],
    )


def reordered(aut):
    """The same automaton with its alphabet in reverse order."""
    return WeightedAutomaton(
        aut.semiring, aut.alphabet[::-1], aut.n, aut.alpha, aut.beta, aut.mu, aut.state_labels
    )


def nonsequential_pair():
    """f(a^n b) = n and f(a^n c) = 2n over {a, b, c}: unambiguous, not sequential.

    The max-plus automaton guesses the last letter at the start, so it is
    unambiguous and its min-plus copy has the same series; after a^n a
    deterministic automaton would have to remember n, so weighted
    determinization never ends on it.
    """
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "abc",
        4,
        initial=[(0, 0), (1, 0)],
        final=[(2, 0), (3, 0)],
        arcs=[(0, "a", 0, 1), (0, "b", 2, 0), (1, "a", 1, 2), (1, "c", 3, 0)],
    )
    return amax, as_min_plus_copy(amax)


def _kth_letter_arcs(k):
    # state 0 loops and guesses an `a`; states 1..k+1 count the letters after it
    arcs = [(0, "a", 0, 0), (0, "b", 0, 0), (0, "a", 1, 0)]
    return arcs + [(i, ch, i + 1, 0) for i in range(1, k + 1) for ch in "ab"]


def kth_letter_from_last(k, tag):
    """(a+b)*a(a+b)^k over {a, b}, every arrow and arc of weight 0.

    k + 2 states; the words reach 2^(k+1) subsets of them, one per choice of
    the letters among the last k + 1 that are an `a`.
    """
    return WeightedAutomaton.from_arcs(
        tag, "ab", k + 2, initial=[(0, 0)], final=[(k + 1, 0)], arcs=_kth_letter_arcs(k)
    )


def tight_kth_letter_from_last(k):
    """A max-plus automaton of the constant series 0 whose zero filter is the family above.

    The arcs of kth_letter_from_last weigh 0, every other arc between its
    k + 2 states weighs -1, and every state has a final arrow of weight 0.
    So the nonempty words reach all states, while the zero filter keeps the
    family's arcs and reaches 2^(k+1) subsets.
    """
    tight = _kth_letter_arcs(k)
    keys = {(i, ch, j) for i, ch, j, _ in tight}
    loose = [
        (i, ch, j, -1)
        for i in range(k + 2) for ch in "ab" for j in range(k + 2)
        if (i, ch, j) not in keys
    ]
    every = [(i, 0) for i in range(k + 2)]
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, "ab", k + 2, initial=[(0, 0)], final=every, arcs=tight + loose
    )


def rotation_cycle(n, tag):
    """One `a` cycle through n states, states 0..n/2 - 1 initial, `final 0 0`.

    Unambiguous, so its max-plus and min-plus readings have one series.  The
    word a^k reaches the n/2 states from k on (mod n), so the support comparison of
    the pair walks n pairs of subsets of n/2 states each: n^3/4 pairs in all
    against the n^2 cells of the product.
    """
    return WeightedAutomaton.from_arcs(
        tag, "a", n,
        initial=[(i, 0) for i in range(n // 2)],
        final=[(0, 0)],
        arcs=[(i, "a", (i + 1) % n, 1) for i in range(n)],
    )


def random_trim_nonpositive(rng, decide, max_states=4, alphabet="ab", tries=2000):
    """Rejection-sample a trim automaton whose series is nonpositive.

    ``decide`` is the nonpositivity decision procedure (passed in to keep
    this helper free of import-order knots).
    """
    for _ in range(tries):
        aut = random_automaton(
            rng, max_states, alphabet, arc_p=0.45, lo=-5, hi=1, frac_p=0.1
        ).trim()
        if aut.n == 0:
            continue
        if decide(aut).holds:
            return aut
    raise AssertionError("rejection sampling failed to find a nonpositive automaton")


@st.composite
def automata(draw, tag, max_states=6, alphabet="ab", weight=st.integers(-5, 5)):
    """Hypothesis strategy: an automaton with 0..max_states states and integer weights.

    Not necessarily trim; every arrow and arc is drawn independently, each
    weight from ``weight``.
    """
    n = draw(st.integers(0, max_states))
    alpha = draw(st.lists(st.none() | weight, min_size=n, max_size=n))
    beta = draw(st.lists(st.none() | weight, min_size=n, max_size=n))
    arcs = {}
    if n:
        state = st.integers(0, n - 1)
        arcs = draw(st.dictionaries(
            st.tuples(state, st.sampled_from(alphabet), state), weight, max_size=3 * n
        ))
    return WeightedAutomaton.from_arcs(
        tag,
        alphabet,
        n,
        initial=[(i, w) for i, w in enumerate(alpha) if w is not None],
        final=[(i, w) for i, w in enumerate(beta) if w is not None],
        arcs=[(src, ch, dst, w) for (src, ch, dst), w in arcs.items()],
    )


# Digits that are not ASCII: Arabic-Indic one, fullwidth one, Devanagari one,
# superscript two.
_NON_ASCII_DIGITS = "\u0661\uff11\u0967\u00b2"
_MUTATIONS = (
    "drop-line", "dup-line", "drop", "dup", "swap", "digit", "state", "letter", "weight", "count",
)
# No list is longer than the address space divided by the size of a pointer.
LONGEST_LIST = sys.maxsize // struct.calcsize("P")


@st.composite
def twa_texts(draw, tag=None, max_states=4, lowered=False):
    """Hypothesis strategy: `.twa` text, valid or malformed.

    Serializes an automaton of ``automata`` (of ``tag``, else of either tag;
    integer or fraction weights); with ``lowered``, half of the time lowers
    one initial arrow by 10**3 or 10**30, so that the first positive word
    may be about that long, past any cap; shuffles the lines after the
    `states` line, then applies up to four mutations: drop or duplicate a
    line; drop, duplicate or swap tokens of a line; put a non-ASCII digit
    into a token; put an out-of-range state into an arrow or arc; put an
    unknown letter into an arc; put a malformed literal in place of a
    weight; give the `states` line a count longer than any list.  Such a count must fail before anything is allocated.
    Counts between the drawn ones and that limit are never drawn: a count
    near 10**9 would really allocate gigabytes.
    """
    if tag is None:
        tag = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    weight = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4)
    aut = draw(automata(tag, max_states=max_states, weight=weight))
    lines = serialize(aut).splitlines()
    initial = [k for k, line in enumerate(lines) if line.startswith("initial ")]
    if lowered and initial and draw(st.booleans()):
        k = draw(st.sampled_from(initial))
        head, literal = lines[k].rsplit(" ", 1)
        value = parse_finite(literal) - 10 ** draw(st.sampled_from([3, 30]))
        lines[k] = f"{head} {format_finite(value)}"
    lines[4:] = draw(st.permutations(lines[4:]))
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(_MUTATIONS))
        arc_line = tokens[0] in ("initial", "final", "trans")
        if kind == "drop-line":
            del lines[i]
            continue
        if kind == "dup-line":
            lines.insert(i, lines[i])
            continue
        if kind == "count":
            at = [k for k, line in enumerate(lines) if line.split(" ")[0] == "states"]
            for k in at[:1]:
                lines[k] = f"states {draw(st.integers(LONGEST_LIST + 1, 10**40))}"
            continue
        if kind == "drop":
            del tokens[j]
        elif kind == "dup":
            tokens.insert(j, tokens[j])
        elif kind == "swap":
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif kind == "digit":
            digits = [k for k, c in enumerate(tokens[j]) if c.isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                tok = tokens[j]
                tokens[j] = tok[:k] + draw(st.sampled_from(_NON_ASCII_DIGITS)) + tok[k + 1:]
        elif kind == "state" and arc_line:
            bad = draw(st.sampled_from([-1, aut.n, aut.n + 1, 10**12]))
            tokens[draw(st.sampled_from([1, 2] if tokens[0] == "trans" else [1]))] = str(bad)
        elif kind == "letter" and tokens[0] == "trans" and len(tokens) > 3:
            tokens[3] = draw(st.sampled_from(["c", "z", "aa", "\u00e9", "#"]))
        elif kind == "weight" and arc_line:
            tokens[-1] = draw(st.sampled_from(["1/0", "0.0000000001", "1e3", "+-1", "1,2", "inf"]))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def twa_files(draw, tag=None, max_states=4, lowered=False):
    """Hypothesis strategy: the bytes of a `.twa` file, sometimes not UTF-8.

    The UTF-8 encoding of ``twa_texts``, with one byte sequence that does not
    decode inserted at a drawn offset half of the time.
    """
    data = draw(twa_texts(tag, max_states, lowered)).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data
