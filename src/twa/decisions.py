"""Decision procedures for max-plus rational series.

All entry points trim internally, so user automata need not be trim.  Every
negative verdict comes with a witness word that fails the property exactly;
witnesses are deterministic (first in length-lex order where the search is
breadth-first; for nonpositivity a shortest positive word, or a pumped
circuit when none is shorter than the state count or the forward pass meets
its cap).  No witness longer than ``DEFAULT_SUBSET_CAP`` letters is built.

Nonpositivity, on which Fatou renormalization, the constant tests and the
series comparisons rest, is decided by one early-exit Bellman-Ford relaxation
of the potential u = M*beta, and a positive verdict hands u on to the
renormalization.  The relaxation reads predecessor lists, the arcs into each
state with their letters, in rounds, each over the arcs into the states that
the round before improved, so the work follows the improvements and not the
numbering of the states.  It hands back the trim with the verdict: on a YES
the states with a finite u, and on a NO also those that reach a state of the
last round's frontier, whose arcs in were never scanned, found by one search
over the lists from that frontier.  Only a negative verdict reads rows, for
its witness: one forward pass over the letters, or, when the round that found
it shows that no word shorter than n is positive, the maximum mean circuit
(Howard policy iteration, in twa.spectral).

The zero filter, the NFA of the weight-0 arrows and arcs of the renormalized
automaton, is read straight off u and the predecessor lists as lists of
states: an initial arrow is kept iff alpha_i + u_i = 0, a final arrow iff
beta_i = u_i, an arc i -> j of weight w iff w + u_j = u_i.  _zero_filter is
the only place that tests this tightness.  Every language question goes to the subset engine of
``twa.automaton`` (``_SubsetNfa``), the only module that knows how a subset is
stored (a frozenset of states), and comes back as a witness word or None; the
engine walks the zero filter from these lists and a support from the trimmed
automaton's own row dicts, copying neither.
Each one walks pairs of subsets breadth-first in alphabet order, at most
``DEFAULT_SUBSET_CAP`` of them (``subset_cap`` for the all-words constant test,
which walks the one-state NFA of all words against the zero filter).  The
series comparisons and the 1-valued extraction of ``twa.disambiguation`` share
one kernel, _difference, for S = T or S <= T: it trims each input once,
compares the supports, lists the product of S and -T once, relaxes its
potential once and, for S = T, reads its zero filter once, from which the
extraction takes its arrows and arcs, and the pipeline's weighted
determinization its moves.  The product is kept as predecessor lists, in its
(p, q) numbering, that subtract T's weights, so no negated copy of T and, on
a YES, no row of the product exists; it is accessible by construction, so
its trim only removes the states that reach no final arrow, and its
relaxation finds them; it reads its pairs off the walk of the support
comparison; and with equal supports the zero filter is compared with the
support NFA of the input with fewer states, already built.  The lists are the
kernel's largest data, and each structure of their size goes after its last
read: the walked pairs once the pairs are numbered, the set of their keys
once it is sorted, and the lists once the zero filter is read (at once for
S <= T or a NO); only the pairs and the zero filter are handed on.

Min-plus questions are the duals of these under the negation isomorphism; the
command line performs that translation, the library functions insist on
max-plus input.  The two automata of a comparison must have the same letters,
in any order; witnesses follow the first one's alphabet order.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .automaton import (
    DEFAULT_SUBSET_CAP,
    WeightedAutomaton,
    _check_alphabets,
    _check_cap,
    _product_predecessors,
    _require_max_plus,
    _SubsetNfa,
)
from .errors import CapExceededError, NotNonpositiveError, TagMismatchError
from .semiring import MAX_PLUS, MIN_PLUS, is_rational
from .spectral import _critical_circuit


class Decision(namedtuple("Decision", "holds witness")):
    """Outcome of a decision procedure: the verdict ``holds`` plus an optional witness word."""

    __slots__ = ()


def _decision(witness: str | None) -> Decision:
    """The verdict of a language question: it holds when no witness word exists."""
    return Decision(witness is None, witness)


def _shift_final(aut: WeightedAutomaton, delta) -> WeightedAutomaton:
    """Add ``delta`` to every finite final weight; shifts the series by delta."""
    if delta == 0:
        return aut
    beta = [None if w is None else w + delta for w in aut.beta]
    rows = {ch: mat.rows for ch, mat in aut.mu.items()}
    return WeightedAutomaton._adopt(
        aut.semiring, aut.alphabet, aut.alpha, beta, rows, aut.state_labels
    )


# ---------------------------------------------------------------------------
# Nonpositivity.
# ---------------------------------------------------------------------------


def decide_nonpositive(aut: WeightedAutomaton) -> Decision:
    """Decide whether every coefficient of the series is <= 0.

    Criterion on the trimmed automaton with M the letter sum: u = M*beta
    exists (no cycle has positive weight) and alpha_i + u_i <= 0 for every
    state i.  Decided by one early-exit Bellman-Ford relaxation.  The
    returned witness word has a value > 0 (exactly): a shortest offending
    word when one is shorter than n (_positive_word), otherwise a pumped
    maximum-mean (positive) cycle.  Raises CapExceededError when no witness
    within ``DEFAULT_SUBSET_CAP`` letters or forward-pass pointers is found.
    """
    _require_max_plus(aut, "decide_nonpositive")
    return _nonpositive(trim=aut.trim())[0]


def _predecessors(aut: WeightedAutomaton) -> list:
    """The predecessor lists of ``aut``, which _relax and _zero_filter read: one
    pass over its rows lists in into[j] the arcs into state j as (source,
    weight, letter), by increasing source, then in alphabet order."""
    into = [[] for _ in range(aut.n)]
    letters = [(ch, aut.mu[ch].rows) for ch in aut.alphabet]
    for i in range(aut.n):
        for ch, rows in letters:
            for j, w in rows[i].items():
                into[j].append((i, w, ch))
    return into


def _nonpositive(alphabet=None, alpha=None, beta=None, into=None, trim=None) -> tuple:
    """The nonpositivity verdict of a trim automaton ``trim``, or of an
    accessible one given by its arrows and predecessor lists ``into``.

    A positive empty word (alpha_i + beta_i > 0) is a NO before any search;
    else ``trim``'s lists are built, and _relax decides and hands back the
    trim as flags.  Returns (verdict, u, keep, into): u = M*beta (None on
    the states that reach no final arrow) and the lists on a YES, else
    None, and ``keep`` the trim's states in increasing order, or None for
    all.  Only a NO reads rows, for its witness: ``trim``'s, else the
    trim's, built from ``into``, which then goes before the search.
    """
    if trim is not None:
        alphabet, alpha, beta = trim.alphabet, trim.alpha, trim.beta
    for a, b in zip(alpha, beta):
        if a is not None and b is not None and a + b > 0:
            return Decision(False, ""), None, None, None
    if into is None:
        into = _predecessors(trim)
    u = list(beta)
    holds, rounds, useful = _relax(into, alpha, u)
    keep = None if all(useful) else [i for i in range(len(u)) if useful[i]]
    if holds:
        return Decision(True, None), u, keep, into
    if trim is None:
        if keep is not None:
            into, alpha, beta = _restricted(keep, into, alpha, beta)
        rows = {ch: [{} for _ in into] for ch in alphabet}
        for j, preds in enumerate(into):
            for i, w, ch in preds:
                rows[ch][i][j] = w
        trim = WeightedAutomaton._adopt(MAX_PLUS, alphabet, alpha, beta, rows, None)
    del into
    # no positive word has fewer letters than the round that found one, and
    # the forward pass looks only at words shorter than the trim's n
    witness = _positive_word(trim) if rounds < trim.n else None
    if witness is None:
        witness = _pumped_witness(trim)
    return Decision(False, witness), None, keep, None


def _restricted(keep: list, into: list, *vectors) -> tuple:
    """``into`` and each of ``vectors`` on the states ``keep`` of a trim, in that order."""
    new = dict(zip(keep, range(len(keep))))
    into = [[(new[i], w, ch) for i, w, ch in into[j]] for j in keep]
    return (into, *[[v[i] for i in keep] for v in vectors])


def _relax(into: list, alpha: list, u: list) -> tuple[bool, int, list]:
    """Relax ``u`` in place toward M*beta, in Bellman-Ford rounds over the
    improved states, and tell whether the series is nonpositive.

    ``into`` lists the arcs into each state as _predecessors does, and ``u``
    starts as beta, with alpha_i + beta_i <= 0 for every i.  Round k scans
    the arcs into the states that round k - 1 improved (round 1: those with
    a finite beta), so after round k every path of at most k arcs has been
    offered; a source's arcs on several letters, listed one after another,
    act as their maximum.  States that reach no final arrow keep u_i = None.

    Every finite u_i is, at all times, the weight of a real path from i to a
    final arrow, so alpha_i + u_i > 0, tested on the states a round
    improved, exhibits a positive word, and none has fewer letters than
    that round's number.  Returns (holds, rounds, useful): holds is True
    when a round changes nothing, so u = M*beta and alpha + u <= 0 is
    exactly nonpositivity, and False on a positive word or when round
    len(u) + 1 still changes u: a positive cycle reaches a final arrow, and
    it pumps, because the automaton is accessible (trim, or a product built
    from its initial pairs), so the cycle lies on a successful path.

    ``useful`` flags the states that reach a final arrow, the trim of an
    accessible automaton.  At the fixpoint they are the states with a finite
    u.  On a NO, a state with u_i = None may still reach one, but only
    through a state that the last round improved: the arcs into every state
    an earlier round improved were scanned in the round after it.  So one
    search over the predecessor lists, from that round's improved states and
    through the states with u_i = None alone, adds the rest.
    """
    n = len(u)
    frontier = [j for j, uj in enumerate(u) if uj is not None]
    last = [0] * n  # the last round that improved each state
    for rounds in range(1, n + 2):
        improved = []
        for j in frontier:
            uj = u[j]
            for i, w, _ in into[j]:
                c = w + uj
                if (ui := u[i]) is None or c > ui:
                    u[i] = c
                    if last[i] != rounds:
                        last[i] = rounds
                        improved.append(i)
        if not improved:
            return True, rounds, [ui is not None for ui in u]
        if rounds <= n:
            for i in improved:
                if alpha[i] is not None and alpha[i] + u[i] > 0:
                    break
            else:
                frontier = improved
                continue
        break  # a positive word, or round n + 1 still changed u
    useful = [ui is not None for ui in u]
    stack = improved  # the arcs into these were never scanned
    while stack:
        for i, _, _ in into[stack.pop()]:
            if not useful[i]:
                useful[i] = True
                stack.append(i)
    return False, rounds, useful


def _positive_word(trim: WeightedAutomaton) -> str | None:
    """A shortest word with positive value, or None when none is shorter than n.

    One forward pass over the letters: level k holds the best weight
    (alpha M^k)_j of the words of length k that reach each state j, with
    the first (state, letter) in increasing state and alphabet order that
    attains it.  The first level whose best alpha M^k beta (at the smallest
    state that attains it) is positive gives the word, read back along
    those pointers.  Also None once it holds over ``DEFAULT_SUBSET_CAP`` pointers
    (pointers, not bytes: each is a dict entry holding a (state, letter)
    tuple, and 10**6 of them take about 100 MB).
    """
    letters = [(ch, trim.mu[ch].rows) for ch in trim.alphabet]
    x = {i: w for i, w in enumerate(trim.alpha) if w is not None}
    hops = []  # hops[k][j]: the (state, letter) before j on level k + 1
    held = 0
    for _ in range(trim.n):
        states = sorted(x)
        ends = [(x[i] + trim.beta[i], -i) for i in states if trim.beta[i] is not None]
        best, end = max(ends, default=(0, 0))
        if best > 0:
            end, word = -end, ""
            for hop in reversed(hops):
                end, ch = hop[end]
                word = ch + word
            return word
        nxt, hop = {}, {}
        for i in states:
            xi = x[i]
            for ch, rows in letters:
                for j, w in rows[i].items():
                    v = xi + w
                    if j not in nxt or v > nxt[j]:
                        nxt[j], hop[j] = v, (i, ch)
        x = nxt
        hops.append(hop)
        held += len(hop)
        if held > DEFAULT_SUBSET_CAP:
            break
    return None


def _pumped_witness(trim: WeightedAutomaton) -> str:
    """Build a word with positive value from a circuit of maximum mean rho > 0.

    ``trim`` has a positive series; the circuit and rho come from one
    _critical_circuit call on its letter sum, built here for that call.  The
    witness pumps the circuit enough times to dominate the exact weight of
    its access and co-access paths.  Raises CapExceededError ("positive
    word") when no circuit is positive, as only a forward pass stopped at
    its cap leaves it, and ("witness") before building a word of more than
    ``DEFAULT_SUBSET_CAP`` letters.
    """
    m = trim.letter_sum()
    rho, cycle = _critical_circuit(m)
    if rho is None or rho <= 0:
        raise CapExceededError("positive word", DEFAULT_SUBSET_CAP)
    cycle_word = []
    cycle_weight = 0
    for idx, src in enumerate(cycle):
        dst = cycle[(idx + 1) % len(cycle)]
        target = m[src][dst]
        for ch in trim.alphabet:
            if trim.mu[ch].rows[src].get(dst) == target:
                cycle_word.append(ch)
                break
        else:
            raise AssertionError("letter sum lost the maximizing letter")
        cycle_weight += target
    start = cycle[0]

    access_word, access_weight = _bfs_path(trim, start, forward=True)
    coaccess_word, coaccess_weight = _bfs_path(trim, start, forward=False)
    base = access_weight + coaccess_weight
    # the fewest pumps k >= 1 with base + k * cycle_weight > 0; exact floor
    # division keeps this correct for Fraction weights too
    pumps = max(1, (-base) // cycle_weight + 1)
    if len(access_word) + pumps * len(cycle_word) + len(coaccess_word) > DEFAULT_SUBSET_CAP:
        raise CapExceededError("witness", DEFAULT_SUBSET_CAP)
    return access_word + "".join(cycle_word) * pumps + coaccess_word


def _bfs_path(trim: WeightedAutomaton, target: int, forward: bool):
    """Shortest word from an initial arrow to ``target`` (or from it to a final arrow).

    Returns (word, exact weight of that particular path including the arrow).
    The automaton is trim, so the path exists.  The search tries the letters
    in alphabet order and, per letter, the next states in increasing order;
    the backward search lists the arcs into each state once, before it starts.
    """
    if forward:
        seeds, hops = trim.alpha, {ch: mat.rows for ch, mat in trim.mu.items()}
    else:
        seeds, hops = trim.beta, {ch: [{} for _ in range(trim.n)] for ch in trim.mu}
        for ch, mat in trim.mu.items():
            into = hops[ch]
            for i, row in enumerate(mat.rows):
                for j, w in row.items():
                    into[j][i] = w
    prev = {}
    queue = deque()
    for state, w in enumerate(seeds):
        if w is not None:
            prev[state] = None
            queue.append(state)
    while queue:
        state = queue.popleft()
        if state == target:
            break
        for ch in trim.alphabet:
            for nxt, w in sorted(hops[ch][state].items()):
                if nxt not in prev:
                    prev[nxt] = (state, ch, w)
                    queue.append(nxt)
    assert target in prev, "trim automaton lost access to the cycle"
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


# ---------------------------------------------------------------------------
# Fatou normalization.
# ---------------------------------------------------------------------------


def fatou_normalize(aut: WeightedAutomaton) -> WeightedAutomaton:
    """Renormalize a nonpositive series onto nonpositive weights.

    Conjugates the trimmed automaton by the diagonal potential u = M*beta
    (the best path-to-acceptance weight per state): alpha'_i = alpha_i + u_i,
    beta'_i = beta_i - u_i, mu'(a)_ij = -u_i + mu(a)_ij + u_j.  The series is
    unchanged, every output weight is <= 0, and the state count equals the
    trimmed input's.  Raises NotNonpositiveError (with witness) when some
    coefficient is positive.
    """
    _require_max_plus(aut, "fatou_normalize")
    # the decision and the renormalization share one relaxation
    trim = aut.trim()
    verdict, u = _nonpositive(trim=trim)[:2]
    if not verdict.holds:
        raise NotNonpositiveError(verdict.witness)
    if trim.n == 0:
        return trim
    alpha = [None if w is None else w + u[i] for i, w in enumerate(trim.alpha)]
    beta = [None if w is None else w - u[i] for i, w in enumerate(trim.beta)]
    rows = {
        ch: [{j: w - u[i] + u[j] for j, w in row.items()} for i, row in enumerate(mat.rows)]
        for ch, mat in trim.mu.items()
    }
    return WeightedAutomaton._adopt(
        trim.semiring, trim.alphabet, alpha, beta, rows, trim.state_labels
    )


def _zero_filter(alphabet, alpha, beta, into, u: list) -> tuple:
    """The zero filter of a trim's Fatou form, read off its lists and u = M*beta.

    The renormalized arrows and arcs are alpha_i + u_i, beta_i - u_i and
    w - u_i + u_j, so an initial arrow survives iff alpha_i + u_i = 0, a
    final arrow iff beta_i = u_i, and an arc i -> j of weight w iff
    w + u_j = u_i.  On the Fatou form these are exactly the weight-0 arrows
    and arcs, so the NFA accepts exactly the words with coefficient 0.
    Returns it sparse: (initial states, final states, targets), where
    targets maps each letter to the kept targets of every state, in order.
    """
    initial = [i for i, w in enumerate(alpha) if w is not None and w + u[i] == 0]
    final = [i for i, w in enumerate(beta) if w is not None and w == u[i]]
    targets = {ch: [[] for _ in u] for ch in alphabet}
    for j, preds in enumerate(into):
        uj = u[j]
        for i, w, ch in preds:
            if w + uj == u[i]:
                targets[ch][i].append(j)
    return initial, final, targets


# ---------------------------------------------------------------------------
# Constant-series tests.
# ---------------------------------------------------------------------------


def _shifted_zero_filter(aut: WeightedAutomaton, const, op: str):
    """The prelude of the constant tests: (verdict, trim, zero filter or None).

    Checks the tag and the constant, shifts the final arrows of the trim by
    -const, relaxes, and reads the zero filter off a nonpositive result.
    """
    _require_max_plus(aut, op)
    if not is_rational(const):
        raise TypeError(f"constant must be an exact rational, got {const!r}")
    trim = _shift_final(aut.trim(), -const)
    verdict, u, _, into = _nonpositive(trim=trim)
    zero = _zero_filter(trim.alphabet, trim.alpha, trim.beta, into, u) if verdict.holds else None
    return verdict, trim, zero


def decide_equal_const(
    aut: WeightedAutomaton, const, subset_cap: int = DEFAULT_SUBSET_CAP
) -> Decision:
    """Decide whether every word (all of Sigma*) has coefficient exactly ``const``.

    Shifts the series by -const and requires nonpositivity; then every word
    has value const iff the zero filter read off the potential is universal,
    that is, includes the one-state NFA of all words.  That inclusion is
    walked breadth-first in alphabet order, so the walk meets the subsets of
    the filter that the words reach until one holds no final state, and the
    witness is the length-lex-first word of another value (or of no value).
    Raises TypeError for a ``subset_cap`` that is not an int and ValueError
    for one below 1, both before any work, and CapExceededError when more
    than ``subset_cap`` subsets appear.
    """
    _check_cap(subset_cap, "subset_cap")
    verdict, trim, zero = _shifted_zero_filter(aut, const, "decide_equal_const")
    if not verdict.holds:
        return verdict
    every_word = _SubsetNfa.of([0], [0], {ch: [[0]] for ch in trim.alphabet})
    witness, _ = every_word.walk(_SubsetNfa.of(*zero), True, "universality check", subset_cap)
    return _decision(witness)


def decide_equal_const_on_support(aut: WeightedAutomaton, const) -> Decision:
    """Decide whether every word *of the support* has coefficient ``const``.

    Same pipeline as decide_equal_const, but the final check compares the
    support NFA with the weight-0 filtered NFA for language equality, so
    words outside the support are unconstrained.  Raises CapExceededError
    when that comparison meets more than ``DEFAULT_SUBSET_CAP`` pairs of
    subsets.
    """
    verdict, trim, zero = _shifted_zero_filter(aut, const, "decide_equal_const_on_support")
    if not verdict.holds:
        return verdict
    zero_nfa = _SubsetNfa.of(*zero)
    return _decision(trim._support_nfa().walk(zero_nfa, False, "zero-filter comparison")[0])


# ---------------------------------------------------------------------------
# Max-plus vs min-plus series comparison.
# ---------------------------------------------------------------------------


def _check_pair(amax: WeightedAutomaton, bmin: WeightedAutomaton, op: str):
    if amax.semiring is not MAX_PLUS:
        raise TagMismatchError(f"{op}: first automaton must be max-plus")
    if bmin.semiring is not MIN_PLUS:
        raise TagMismatchError(f"{op}: second automaton must be min-plus")
    _check_alphabets(amax, bmin, f"{op}: automata must share one alphabet")


class _Difference(namedtuple("_Difference", "verdict ta tb pairs zero")):
    """What the equality kernel learned about S - T: its ``verdict``, the
    trimmed amax ``ta`` and bmin ``tb``, and two parts of its product.

    That product is the trimmed accessible product of ``ta`` and ``tb``,
    each arrow and arc weighing the amax weight minus the bmin weight, so
    its series is S - T on the common support.  It is never assembled:
    ``pairs`` holds the (p, q) of each of its states and ``zero`` its zero
    filter, read off its predecessor lists and potential by _zero_filter.
    ``pairs`` is None when the supports failed their comparison, ``zero``
    when S - T is not nonpositive or the question is S <= T.
    """

    __slots__ = ()


def _difference(
    amax: WeightedAutomaton, bmin: WeightedAutomaton, inclusion: bool
) -> _Difference:
    """The equality kernel: S = T, or S <= T with ``inclusion``.

    Trims each input once, compares the supports (equivalence, or inclusion
    with ``inclusion``), lists the difference product's arcs once, relaxes
    its potential u once, and, for S = T, reads the zero filter off u and
    compares it with the support of the smaller trimmed input.  Each step
    runs only when the ones before it held, so a witness is the one that
    the failing step alone gives.

    A support comparison without a witness walked every pair (A(w), B(w))
    that a word w reaches, and the union of those A x B is the product's
    pairs, which it hands on.  One pass over the product's arcs lists the
    arcs into each state (_product_predecessors), each weighing amax's
    weight minus bmin's, and builds no row.  The product is accessible by
    construction, so its trim is the backward half alone, which the one
    relaxation of its potential finds (see _nonpositive); the lists are
    renumbered to it only on a YES that drops states.  Rows and the letter
    sum are built only for a NO witness.  Once the supports are equal, the
    product's support language is that of ``ta`` and of ``tb``, so comparing
    the zero filter with either support NFA, both already built, gives the
    same verdict and length-lex-first witness; the one with fewer states
    (``ta`` on a tie) is walked.  Both support NFAs are views of the trimmed
    inputs' rows, so neither holds memory of its own, and each structure the
    size of the product goes after its last read (see the module docstring).
    """
    ta = amax.trim()
    tb = bmin.trim()
    sa, sb = ta._support_nfa(), tb._support_nfa()
    witness, walked = sa.walk(sb, inclusion, "support comparison")
    if witness is not None:
        return _Difference(_decision(witness), ta, tb, None, None)
    smaller = sa if ta.n <= tb.n else sb
    pairs, alpha, beta, into = _product_predecessors(ta, tb, walked)
    verdict, u, keep = _nonpositive(ta.alphabet, alpha, beta, into)[:3]
    if keep is not None:
        pairs = [pairs[i] for i in keep]
    zero = None
    if verdict.holds and not inclusion:
        if keep is not None:
            into, alpha, beta, u = _restricted(keep, into, alpha, beta, u)
        zero = _zero_filter(ta.alphabet, alpha, beta, into, u)
        del into, u
        verdict = _decision(_SubsetNfa.of(*zero).walk(smaller, False, "zero-filter comparison")[0])
    return _Difference(verdict, ta, tb, pairs, zero)


def decide_series_equal(amax: WeightedAutomaton, bmin: WeightedAutomaton) -> Decision:
    """Decide S = T for a max-plus S and a min-plus T.

    Equality means: equal supports, and equal coefficients on the support.
    Checked as (a) NFA equivalence of the supports and (b) the pointwise
    difference S - T (a tensor product that subtracts T's weights from S's)
    being constantly 0 on its support.  Raises CapExceededError when that
    product, or either comparison, reaches more than ``DEFAULT_SUBSET_CAP``
    pairs.
    """
    _check_pair(amax, bmin, "decide_series_equal")
    return _difference(amax, bmin, False).verdict


def decide_series_leq(amax: WeightedAutomaton, bmin: WeightedAutomaton) -> Decision:
    """Decide S <= T: supp S contained in supp T and S(w) <= T(w) on supp S.

    Raises CapExceededError as decide_series_equal does.
    """
    _check_pair(amax, bmin, "decide_series_leq")
    return _difference(amax, bmin, True).verdict


__all__ = [
    "Decision",
    "decide_nonpositive",
    "fatou_normalize",
    "decide_equal_const",
    "decide_equal_const_on_support",
    "decide_series_equal",
    "decide_series_leq",
]
