"""From a max-plus/min-plus pair of equivalent automata to an unambiguous one.

The pipeline has two halves.  First, the difference product of S and -T (built
once, by the equality kernel of ``twa.decisions``) carries S - T along joint
paths; the kernel reads its zero filter, the arrows and arcs whose difference
renormalized by u = M*beta is exactly 0, off u as lists of states, and those
are kept, each with the weight of the max-plus arc it came from.  Every
surviving successful path then carries the series value, so the result is
1-valued.  Second, the 1-valued automaton is made unambiguous.  The output is
deterministic when the max-plus weighted subset construction (Mohri 1997)
finishes within min(the 1-valued automaton's size, the cap), which is exact
when it finishes and finishes only on a sequential series.  That construction
runs straight on the kernel's zero filter and product pairs, so the pipeline
assembles no 1-valued automaton on this branch; its size is the count of
states that the kept initial arrows reach.  Otherwise the output is the
subset covering of the 1-valued automaton, assembled then: the accessible
product of the 1-valued automaton with the subset automaton of its own
support, its states numbered in (original state, subset) order; deleting
competing arcs leaves at most one successful path per word without changing
the series.

Both halves run on the shared engines of ``twa.automaton``: the pair
numbering of a product (the kernel's difference product, kept as lists, and
the covering, whose labelled rows ``_accessible_product`` emits), the pair
labels of ``_pair_labels``, and the breadth-first exploration ``_explore``,
which hands both subset constructions the letter rows they build, while
``_SubsetNfa.subsets`` lists each subset of the support.  ``DEFAULT_SUBSET_CAP``
bounds both.  The weights stay scalar max-plus; no semiring of pairs is involved.
"""

from __future__ import annotations

from collections import namedtuple

from .automaton import (
    DEFAULT_SUBSET_CAP,
    WeightedAutomaton,
    _accessible_product,
    _check_cap,
    _explore,
    _pair_labels,
    _reach,
)
from .decisions import _check_pair, _difference, _Difference
from .errors import CapExceededError, NotEqualError
from .semiring import MAX_PLUS, format_finite


def extract_one_valued(amax: WeightedAutomaton, bmin: WeightedAutomaton) -> WeightedAutomaton:
    """A 1-valued max-plus automaton recognizing the common series of the pair.

    Pipeline: trim both inputs, build the product of amax and bmin whose
    arrows and arcs weigh amax's weight minus bmin's, that is, the product
    of amax with the negation of bmin, without building that negation (only
    the pairs reachable from an initial pair, numbered in (p, q) order),
    trim it, relax its potential u = M*beta, keep only the arrows and arcs
    whose renormalized weight is exactly 0 (the zero filter that the kernel
    reads off u), give each kept one the weight of the amax arrow or arc at
    its (p, q) pair, trim again.  That trim only drops states that no kept
    initial arrow reaches, since u is attained along kept arcs and a kept
    final arrow.  The result has at most states(amax) * states(bmin) states
    and all successful paths of a word weigh exactly the series value.

    The equivalence of the two inputs is decided on the same product and
    potential, so the result is certified equal to both, and NotEqualError
    (with the decision's witness) is raised when it fails.  Raises
    CapExceededError when the product, or a comparison of that decision,
    reaches more than ``DEFAULT_SUBSET_CAP`` pairs, or its witness more
    than that many letters.
    """
    # the kernel's pairs and zero filter are let go before the closing trim
    return _untrimmed_one_valued(_equal_difference(amax, bmin)).trim()


def _equal_difference(amax: WeightedAutomaton, bmin: WeightedAutomaton) -> _Difference:
    """The equality kernel on S = T; NotEqualError (with the witness) when it fails."""
    # errors name the decision the extraction runs
    _check_pair(amax, bmin, "decide_series_equal")
    difference = _difference(amax, bmin, False)
    if not difference.verdict.holds:
        raise NotEqualError(difference.verdict.witness)
    return difference


def _untrimmed_one_valued(difference: _Difference) -> WeightedAutomaton:
    """The zero filter of an S = T that held, with amax's weights."""
    ta, pairs = difference.ta, difference.pairs
    initial, final, targets = difference.zero
    firsts = [p for p, _ in pairs]  # the amax state of each product state
    alpha, beta = [None] * len(pairs), [None] * len(pairs)
    for i in initial:
        alpha[i] = ta.alpha[firsts[i]]
    for i in final:
        beta[i] = ta.beta[firsts[i]]
    rows = {}
    for ch, kept in targets.items():
        arows = ta.mu[ch].rows
        rows[ch] = [{j: arows[p][firsts[j]] for j in row} for row, p in zip(kept, firsts)]
    labels = tuple(_pair_labels(ta, difference.tb, pairs))
    return WeightedAutomaton._adopt(MAX_PLUS, ta.alphabet, alpha, beta, rows, labels)


# ---------------------------------------------------------------------------
# Subset covering and competition removal.
# ---------------------------------------------------------------------------


class Covering(namedtuple("Covering", "automaton provenance subsets")):
    """A weighted ``automaton`` whose states are (original state, subset) pairs.

    ``provenance[i]`` is the pair (p, s): p indexes a state of the covered
    automaton, s indexes a subset of the determinized support.  ``subsets``
    lists those subsets for reporting.
    """

    __slots__ = ()


def covering(aut: WeightedAutomaton, cap: int = DEFAULT_SUBSET_CAP) -> Covering:
    """Tensor an automaton with the determinization of its own support.

    The subset component evolves deterministically with the input, so it adds
    no weight and no new values: the covering recognizes the same series.
    It is the accessible product of ``aut`` with the subset automaton of its
    support, whose arrows and arcs all weigh 0: the pairs (p, s) reachable
    from the initial ones, numbered in (p, s) order, labelled by _pair_labels.
    Raises TypeError for a ``cap`` that is not an int and ValueError for one
    below 1, both before the subsets are explored, and CapExceededError when
    more than ``cap`` subsets, or more than ``DEFAULT_SUBSET_CAP`` pairs, appear.
    """
    members, accepting, rows = aut._support_nfa().subsets(cap)
    dfa = WeightedAutomaton._adopt(
        aut.semiring,
        aut.alphabet,
        [0] + [None] * (len(members) - 1),
        [0 if acc else None for acc in accepting],
        rows,
        tuple("{" + ",".join(map(str, m)) + "}" for m in members),
    )
    groups = [(m, (s,)) for s, m in enumerate(members)]  # each (p, s) once
    cover, pairs = _accessible_product(aut, dfa, groups)
    return Covering(cover, tuple(pairs), tuple(frozenset(m) for m in members))


def remove_competitions(cover: Covering) -> WeightedAutomaton:
    """Delete competing arcs of a covering, then trim.

    Two arcs compete when they share the source subset, the letter, and the
    full target state but start from different original states; two final
    arrows compete when they share the subset.  Exactly one member of each
    group survives (the one with the smallest original state; a subset and
    an original state determine a covering state), which is the minimal
    number of deletions.  ``covering`` numbers the states in (original
    state, subset) order, and the one pass over them in index order relies
    on that: it visits the states of each subset by increasing original
    state, so keeping the first arc of each group and the first final arrow
    of each subset keeps the survivors.  For a 1-valued covered automaton
    the result is unambiguous and equivalent.
    """
    aut = cover.automaton
    prov = cover.provenance
    n = aut.n
    final_subsets = set()  # the subsets whose final arrow is kept
    beta = [None] * n
    kept = {ch: [None] * n for ch in aut.alphabet}
    # per letter: the rows, the kept rows, and subset -> the targets of its kept arcs
    letters = [(aut.mu[ch].rows, kept[ch], {}) for ch in aut.alphabet]
    for i in range(n):
        s = prov[i][1]
        for rows, out, taken in letters:
            row = {}
            if rows[i]:
                targets = taken.setdefault(s, set())
                for j, w in rows[i].items():
                    if j not in targets:
                        targets.add(j)
                        row[j] = w
            out[i] = row
        if aut.beta[i] is not None and s not in final_subsets:
            final_subsets.add(s)
            beta[i] = aut.beta[i]
    pruned = WeightedAutomaton._adopt(
        aut.semiring, aut.alphabet, aut.alpha, beta, kept, aut.state_labels
    )
    return pruned.trim()


def disambiguate(aut: WeightedAutomaton, cap: int = DEFAULT_SUBSET_CAP) -> WeightedAutomaton:
    """Unambiguous automaton equivalent to a 1-valued input.

    The caller asserts 1-valuedness (check a bound with
    oracle.one_valued_upto if unsure); for inputs that are not 1-valued the
    construction still runs but may change the series.
    """
    return remove_competitions(covering(aut, cap))


def _weighted_subsets(difference: _Difference, cap: int) -> WeightedAutomaton:
    """Max-plus weighted subset construction (Mohri 1997) of the 1-valued automaton.

    Runs straight on the kernel's result of an S = T that held: the states
    are product states, the arrows and arcs those of the zero filter, each
    weighing amax's arrow or arc at the amax states of the product pairs.
    A state is the sorted tuple of pairs (q, residual) whose largest
    residual is 0: after a word, q is in the tuple when some path of the
    word reaches it, with the best such weight minus the weight already
    put on the deterministic path.  The initial state holds the states with
    a kept initial arrow, which weighs the largest of those arrows; a letter
    moves every pair along its kept arcs, keeps the best weight per target
    and takes out the largest, lambda, as the weight of the arc; a final
    arrow weighs the largest residual + beta over the pairs.  So every word
    has at most one path, of weight alpha + mu(word) + beta of the 1-valued
    automaton.  States are explored breadth-first in alphabet order
    (``_explore``), labelled {(p,q):residual,...}, each (p,q) the label of a
    product pair from _pair_labels.  The product states reached are those of
    ``extract_one_valued``'s trimmed output, in the same order, so the
    result is the construction on that output, labels included.  It is
    exact whenever the construction ends, and it ends only on a sequential
    series: raises CapExceededError when more than ``cap`` states appear.
    """
    ta, tb, pairs = difference.ta, difference.tb, difference.pairs
    initial, final, targets = difference.zero
    alpha = [ta.alpha[pairs[i][0]] for i in initial]
    top = max(alpha)
    letters = {ch: (targets[ch], ta.mu[ch].rows) for ch in ta.alphabet}

    def step(node, ch):
        kept, arows = letters[ch]
        reach = {}
        for i, r in node:
            row = arows[pairs[i][0]]
            for j in kept[i]:
                c = r + row[pairs[j][0]]
                old = reach.get(j)
                if old is None or c > old:
                    reach[j] = c
        if not reach:
            return None
        lam = max(reach.values())
        return tuple([(j, reach[j] - lam) for j in sorted(reach)]), lam

    start = tuple([(i, w - top) for i, w in zip(initial, alpha)])
    nodes, mu = _explore(start, ta.alphabet, step, cap, "weighted determinization")
    n = len(nodes)
    beta = {i: ta.beta[pairs[i][0]] for i in final}  # the kept final arrows
    finals = []
    for node in nodes:
        best = None
        for i, r in node:
            b = beta.get(i)
            if b is not None and (best is None or r + b > best):
                best = r + b
        finals.append(best)
    # each entry's pair label, made as it is read: held all at once, they outweighed the labels
    names = _pair_labels(ta, tb, (pairs[i] for node in nodes for i, _ in node))
    texts = {}  # residual -> its text, formatted once
    labels = []
    for node in nodes:
        parts = []
        for (_, r), name in zip(node, names):  # node first, so zip takes no name past its end
            text = texts.get(r)
            if text is None:
                text = texts[r] = format_finite(r)
            parts.append(f"{name}:{text}")
        labels.append("{" + ",".join(parts) + "}")
    return WeightedAutomaton._adopt(
        MAX_PLUS, ta.alphabet, [top] + [None] * (n - 1), finals, mu, tuple(labels)
    )


def unambiguous_from_pair(
    amax: WeightedAutomaton,
    bmin: WeightedAutomaton,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> WeightedAutomaton:
    """Full pipeline: decide equality, extract the 1-valued automaton, make it unambiguous.

    The equality check, the extraction and the determinization share one
    product, one relaxation and its zero filter, which the weighted
    determinization reads as the kernel leaves it.  The output is
    deterministic (hence unambiguous) when that determinization finishes
    within min(n, ``subset_cap``) states, n being the state count of the
    1-valued automaton (``extract_one_valued``'s), the states that the kept
    initial arrows reach; otherwise it is the subset covering of the
    1-valued automaton, built only then, with its competitions removed
    (``disambiguate(one, subset_cap)``).  The branch follows from the inputs
    and ``subset_cap``, never from timing.  Both keep the series of the
    1-valued automaton, which the kernel certifies equal to both inputs.
    Raises TypeError for a ``subset_cap`` that is not an int and ValueError
    for one below 1, both before any work, NotEqualError (with witness) for
    unequal inputs, and CapExceededError when the covering exceeds the cap
    or a product or a comparison exceeds ``DEFAULT_SUBSET_CAP`` pairs.
    """
    _check_cap(subset_cap, "subset_cap")
    difference = _equal_difference(amax, bmin)
    # the states that the kept initial arrows reach along kept arcs; each
    # reaches a kept final arrow (u is attained along kept arcs), so these
    # are the states of extract_one_valued's trimmed output
    initial, _, targets = difference.zero
    n = sum(_reach(initial, list(targets.values()), len(difference.pairs)))
    if n == 0:  # the empty series, whose 1-valued automaton has no state
        return _untrimmed_one_valued(difference).trim()
    try:
        return _weighted_subsets(difference, min(n, subset_cap))
    except CapExceededError:
        one = _untrimmed_one_valued(difference).trim()
    del difference  # the covering needs only the 1-valued automaton
    return disambiguate(one, subset_cap)


__all__ = [
    "Covering",
    "DEFAULT_SUBSET_CAP",
    "extract_one_valued",
    "covering",
    "remove_competitions",
    "disambiguate",
    "unambiguous_from_pair",
]
