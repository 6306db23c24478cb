"""From a max-plus/min-plus pair of equivalent automata to an unambiguous one.

The pipeline has two halves.  First, the pair product over the doubled
semiring tracks (value, value − other value) along joint paths; after
renormalizing the second coordinate and keeping only its weight-0 arcs, every
surviving successful path carries the series value, so the result is
1-valued.  Second, tensoring a 1-valued automaton with the determinization of
its own support (the subset covering) and deleting competing arcs leaves at
most one successful path per word without changing the series.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import BooleanAutomaton, WeightedAutomaton, _accessible_product
from .decisions import (
    _fatou_trimmed,
    _nonpositive_trimmed,
    decide_series_equal,
)
from .errors import (
    AlphabetError,
    CapExceededError,
    NotEqualError,
    NotNonpositiveError,
    TagMismatchError,
)
from .semiring import MAX_PLUS, MAX_PLUS_PAIR
from .spectral import TropicalMatrix

DEFAULT_SUBSET_CAP = 1_000_000


def pair_product(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """Product automaton over the doubled max-plus semiring.

    State (p,q) carries arcs weighted (w, w + w') where w is a's arc weight
    and w' is b's; arrows combine the same way.  Arcs exist only when both
    sides are finite, so the first coordinate evaluates to a's series and the
    second to the pointwise product of both series, on the intersection of
    the supports.  Only the pairs reachable from an initial pair are built,
    numbered in (p, q) order, so the result has at most a.n * b.n states.
    """
    if a.semiring.tag != "max-plus" or b.semiring.tag != "max-plus":
        raise TagMismatchError("pair_product requires two max-plus automata")
    if a.alphabet != b.alphabet:
        raise AlphabetError("pair_product requires identical alphabets")
    return _accessible_product(a, b, MAX_PLUS_PAIR, lambda w1, w2: (w1, w1 + w2))


def _second_coordinate(pair: WeightedAutomaton) -> WeightedAutomaton:
    """The max-plus automaton of the second components (same shape, same support)."""
    alpha = [None if w is None else w[1] for w in pair.alpha]
    beta = [None if w is None else w[1] for w in pair.beta]
    mu = {
        ch: TropicalMatrix._adopt(
            MAX_PLUS,
            pair.n,
            [{j: w[1] for j, w in row.items()} for row in mat.rows],
        )
        for ch, mat in pair.mu.items()
    }
    return WeightedAutomaton._adopt(
        MAX_PLUS, pair.alphabet, pair.n, alpha, beta, mu, pair.state_labels
    )


def extract_one_valued(
    amax: WeightedAutomaton, bmin: WeightedAutomaton, check: bool = True
) -> WeightedAutomaton:
    """A 1-valued max-plus automaton recognizing the common series of the pair.

    Pipeline: negate the min-plus side, build the pair product (only the
    pairs reachable from an initial pair, numbered in (p, q) order), trim,
    renormalize the second coordinate (the first is left untouched), keep
    only arcs whose second coordinate is exactly 0, carry the first
    coordinate as the weight, trim again.  The result has at most
    states(amax) * states(bmin) states and all successful paths of a word
    weigh exactly the series value.

    With ``check`` the equivalence of the two inputs is decided first and
    NotEqualError (with witness) raised if it fails; without it, unequal
    inputs surface as NotNonpositiveError from the renormalization step.
    """
    if check:
        verdict = decide_series_equal(amax, bmin)
        if not verdict.holds:
            raise NotEqualError(verdict.witness)
    else:
        if amax.semiring.tag != "max-plus" or bmin.semiring.tag != "min-plus":
            raise TagMismatchError("extract_one_valued takes a max-plus and a min-plus automaton")
        if amax.alphabet != bmin.alphabet:
            raise AlphabetError("extract_one_valued requires identical alphabets")
    pair = pair_product(amax.trim(), bmin.trim().negate()).trim()
    if pair.n == 0:
        return WeightedAutomaton(MAX_PLUS, amax.alphabet, 0, [], [], {ch: TropicalMatrix(MAX_PLUS, 0) for ch in amax.alphabet})
    second = _second_coordinate(pair)
    verdict, u = _nonpositive_trimmed(second)
    if not verdict.holds:
        raise NotNonpositiveError(verdict.witness)
    normalized = _fatou_trimmed(second, u)
    # Keep an arrow/arc exactly when its renormalized second coordinate is 0;
    # the surviving weight is the untouched first coordinate.
    alpha = [
        pair.alpha[i][0] if pair.alpha[i] is not None and normalized.alpha[i] == 0 else None
        for i in range(pair.n)
    ]
    beta = [
        pair.beta[i][0] if pair.beta[i] is not None and normalized.beta[i] == 0 else None
        for i in range(pair.n)
    ]
    mu = {}
    for ch in pair.alphabet:
        prows = pair.mu[ch].rows
        nrows = normalized.mu[ch].rows
        rows = [
            {j: prows[i][j][0] for j, w in nrows[i].items() if w == 0}
            for i in range(pair.n)
        ]
        mu[ch] = TropicalMatrix._adopt(MAX_PLUS, pair.n, rows)
    filtered = WeightedAutomaton._adopt(
        MAX_PLUS, pair.alphabet, pair.n, alpha, beta, mu, pair.state_labels
    )
    return filtered.trim()


# ---------------------------------------------------------------------------
# Subset covering and competition removal.
# ---------------------------------------------------------------------------


def _determinize_subsets(nfa: BooleanAutomaton, cap: int):
    """Accessible subset construction; returns (subset list, move table)."""
    start = frozenset(nfa.initial)
    subsets = [start]
    index = {start: 0}
    moves: list[dict] = [dict()]
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for ch in nfa.alphabet:
            target = nfa.step(subsets[cur], ch)
            if not target:
                continue
            if target not in index:
                if len(subsets) >= cap:
                    raise CapExceededError("subset construction", cap)
                index[target] = len(subsets)
                subsets.append(target)
                moves.append(dict())
                queue.append(index[target])
            moves[cur][ch] = index[target]
    return subsets, moves


def determinize(nfa: BooleanAutomaton, cap: int = DEFAULT_SUBSET_CAP) -> BooleanAutomaton:
    """Deterministic automaton for the same language (accessible subsets only).

    The result is partial: a missing transition rejects.  Raises
    CapExceededError when more than ``cap`` subsets appear.
    """
    subsets, moves = _determinize_subsets(nfa, cap)
    delta = {}
    for i, table in enumerate(moves):
        for ch, j in table.items():
            delta[(i, ch)] = frozenset((j,))
    final = frozenset(i for i, subset in enumerate(subsets) if subset & nfa.final)
    return BooleanAutomaton(nfa.alphabet, len(subsets), frozenset((0,)), final, delta)


@dataclass(frozen=True)
class Covering:
    """A weighted automaton whose states are (original state, subset) pairs.

    ``provenance[i]`` is the pair (p, s): p indexes a state of the covered
    automaton, s indexes a subset of the determinized support.  ``subsets``
    lists those subsets for reporting.
    """

    automaton: WeightedAutomaton
    provenance: tuple
    subsets: tuple


def covering(aut: WeightedAutomaton, cap: int = DEFAULT_SUBSET_CAP) -> Covering:
    """Tensor an automaton with the determinization of its own support.

    The subset component evolves deterministically with the input, so it adds
    no weight and no new values: the covering recognizes the same series.
    Restricted to accessible states.
    """
    if aut.semiring.tag not in ("max-plus", "min-plus"):
        raise TagMismatchError(f"covering is not defined for tag {aut.semiring.tag!r}")
    support = aut.support()
    subsets, moves = _determinize_subsets(support, cap)
    start_subset = 0
    index: dict = {}
    provenance: list = []
    queue = deque()
    for p in range(aut.n):
        if aut.alpha[p] is not None:
            key = (p, start_subset)
            index[key] = len(provenance)
            provenance.append(key)
            queue.append(key)
    arcs = []
    while queue:
        p, s = key = queue.popleft()
        src = index[key]
        for ch in aut.alphabet:
            row = aut.mu[ch].rows[p]
            if not row:
                continue
            target_subset = moves[s].get(ch)
            if target_subset is None:
                continue
            for r in sorted(row):
                nkey = (r, target_subset)
                if nkey not in index:
                    index[nkey] = len(provenance)
                    provenance.append(nkey)
                    queue.append(nkey)
                arcs.append((src, ch, index[nkey], row[r]))
    n = len(provenance)
    alpha = [None] * n
    beta = [None] * n
    for i, (p, s) in enumerate(provenance):
        if s == start_subset and aut.alpha[p] is not None:
            alpha[i] = aut.alpha[p]
        if aut.beta[p] is not None and subsets[s] & support.final:
            beta[i] = aut.beta[p]
    labels = tuple(
        f"({aut.state_label(p)},{{{','.join(map(str, sorted(subsets[s])))}}})"
        for p, s in provenance
    )
    rows = {ch: [dict() for _ in range(n)] for ch in aut.alphabet}
    for src, ch, dst, w in arcs:
        rows[ch][src][dst] = w
    mu = {ch: TropicalMatrix._adopt(aut.semiring, n, rows[ch]) for ch in aut.alphabet}
    cover = WeightedAutomaton._adopt(aut.semiring, aut.alphabet, n, alpha, beta, mu, labels)
    return Covering(cover, tuple(provenance), tuple(subsets))


def remove_competitions(cover: Covering) -> WeightedAutomaton:
    """Delete competing arcs of a covering, then trim.

    Two arcs compete when they share the source subset, the letter, and the
    full target state but start from different original states; two final
    arrows compete when they share the subset.  Exactly one member of each
    group survives (the one with the smallest original state, then smallest
    state index), which is the minimal number of deletions.  For a 1-valued
    covered automaton the result is unambiguous and equivalent.
    """
    aut = cover.automaton
    prov = cover.provenance
    groups: dict = {}
    for src in range(aut.n):
        p, s = prov[src]
        for ch in aut.alphabet:
            for dst, w in aut.mu[ch].rows[src].items():
                groups.setdefault((s, ch, dst), []).append((p, src, dst, ch, w))
    keep_arcs = set()
    for members in groups.values():
        members.sort()
        p, src, dst, ch, _ = members[0]
        keep_arcs.add((src, ch, dst))
    final_groups: dict = {}
    for i, w in enumerate(aut.beta):
        if w is not None:
            p, s = prov[i]
            final_groups.setdefault(s, []).append((p, i))
    keep_finals = {min(members)[1] for members in final_groups.values()}
    beta = [w if i in keep_finals else None for i, w in enumerate(aut.beta)]
    mu = {}
    for ch in aut.alphabet:
        rows = [
            {j: w for j, w in aut.mu[ch].rows[i].items() if (i, ch, j) in keep_arcs}
            for i in range(aut.n)
        ]
        mu[ch] = TropicalMatrix._adopt(aut.semiring, aut.n, rows)
    pruned = WeightedAutomaton._adopt(
        aut.semiring, aut.alphabet, aut.n, aut.alpha, beta, mu, aut.state_labels
    )
    return pruned.trim()


def disambiguate(aut: WeightedAutomaton, cap: int = DEFAULT_SUBSET_CAP) -> WeightedAutomaton:
    """Unambiguous automaton equivalent to a 1-valued input.

    The caller asserts 1-valuedness (check a bound with
    oracle.one_valued_upto if unsure); for inputs that are not 1-valued the
    construction still runs but may change the series.
    """
    return remove_competitions(covering(aut, cap))


def unambiguous_from_pair(
    amax: WeightedAutomaton,
    bmin: WeightedAutomaton,
    check: bool = True,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> WeightedAutomaton:
    """Full pipeline: decide equality, extract the 1-valued automaton, disambiguate."""
    if check:
        verdict = decide_series_equal(amax, bmin)
        if not verdict.holds:
            raise NotEqualError(verdict.witness)
    one_valued = extract_one_valued(amax, bmin, check=False)
    return disambiguate(one_valued, subset_cap)


__all__ = [
    "Covering",
    "DEFAULT_SUBSET_CAP",
    "pair_product",
    "extract_one_valued",
    "determinize",
    "covering",
    "remove_competitions",
    "disambiguate",
    "unambiguous_from_pair",
]
