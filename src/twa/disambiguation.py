"""From a max-plus/min-plus pair of equivalent automata to an unambiguous one.

The pipeline has two halves.  First, the difference product of S and -T
(built once, by the equality kernel of ``twa.decisions``) carries S - T along
joint paths; its potential u = M*beta renormalizes it, and the arcs whose
renormalized difference is exactly 0 are kept, each with the weight of the
max-plus arc it came from.  Every surviving successful path then carries the
series value, so the result is 1-valued.  Second, tensoring a 1-valued
automaton with the determinization of its own support (the subset covering)
and deleting competing arcs leaves at most one successful path per word
without changing the series.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    BooleanAutomaton,
    WeightedAutomaton,
    _accessible_product,
    _bits,
    _explore,
    _post,
)
from .decisions import _check_pair, _difference
from .errors import (
    AlphabetError,
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
    return _accessible_product(a, b, MAX_PLUS_PAIR, lambda w1, w2: (w1, w1 + w2))[0]


def extract_one_valued(
    amax: WeightedAutomaton, bmin: WeightedAutomaton, check: bool = True
) -> WeightedAutomaton:
    """A 1-valued max-plus automaton recognizing the common series of the pair.

    Pipeline: trim both inputs, build the product of amax and bmin whose
    arrows and arcs weigh amax's weight minus bmin's, that is, the product
    of amax with the negation of bmin, without building that negation (only
    the pairs reachable from an initial pair, numbered in (p, q) order),
    trim it, relax its potential u = M*beta, keep only the arrows and arcs
    whose renormalized weight is exactly 0 (alpha_i + u_i = 0,
    beta_i = u_i, w + u_j = u_i), give each kept one the weight of the amax
    arrow or arc at its (p, q) pair, trim again.  The result has at most
    states(amax) * states(bmin) states and all successful paths of a word
    weigh exactly the series value.

    With ``check`` the equivalence of the two inputs is decided on the same
    product and potential, and NotEqualError (with witness) raised if it
    fails; without it, unequal inputs surface as NotNonpositiveError from
    the renormalization step.
    """
    if check:
        _check_pair(amax, bmin, "decide_series_equal")  # errors name the check it runs
    else:
        if amax.semiring.tag != "max-plus" or bmin.semiring.tag != "min-plus":
            raise TagMismatchError("extract_one_valued takes a max-plus and a min-plus automaton")
        if amax.alphabet != bmin.alphabet:
            raise AlphabetError("extract_one_valued requires identical alphabets")
    difference = _difference(amax, bmin, "equal" if check else "extract")
    if not difference.verdict.holds:
        raise (NotEqualError if check else NotNonpositiveError)(difference.verdict.witness)
    ta, product, pairs, u = difference.ta, difference.product, difference.pairs, difference.u
    if product.n == 0:
        return WeightedAutomaton(MAX_PLUS, ta.alphabet, 0, [], [], {ch: TropicalMatrix(MAX_PLUS, 0) for ch in ta.alphabet})
    firsts = [p for p, _ in pairs]  # the amax state of each product state
    alpha = [
        ta.alpha[p] if w is not None and w + ui == 0 else None
        for w, ui, p in zip(product.alpha, u, firsts)
    ]
    beta = [
        ta.beta[p] if w is not None and w == ui else None
        for w, ui, p in zip(product.beta, u, firsts)
    ]
    mu = {}
    for ch in product.alphabet:
        arows = ta.mu[ch].rows
        rows = []
        for i, row in enumerate(product.mu[ch].rows):
            ui = u[i]
            arow = arows[firsts[i]]
            rows.append({j: arow[firsts[j]] for j, w in row.items() if w + u[j] == ui})
        mu[ch] = TropicalMatrix._adopt(MAX_PLUS, product.n, rows)
    filtered = WeightedAutomaton._adopt(
        MAX_PLUS, product.alphabet, product.n, alpha, beta, mu, product.state_labels
    )
    return filtered.trim()


# ---------------------------------------------------------------------------
# Subset covering and competition removal.
# ---------------------------------------------------------------------------


def _determinize_subsets(nfa, cap: int):
    """Accessible subset construction on a bitmask NFA.

    Returns (subset masks, move table); the empty subset is not a state.
    """
    def step(mask, ch):
        return _post(mask, nfa.succ[ch]) or None

    subsets, _, moves, _ = _explore(
        nfa.initial, list(nfa.succ), step, cap=cap, what="subset construction"
    )
    return subsets, moves


def determinize(nfa: BooleanAutomaton, cap: int = DEFAULT_SUBSET_CAP) -> BooleanAutomaton:
    """Deterministic automaton for the same language (accessible subsets only).

    The result is partial: a missing transition rejects.  Raises
    CapExceededError when more than ``cap`` subsets appear.
    """
    masks = nfa._masks()
    subsets, moves = _determinize_subsets(masks, cap)
    delta = {}
    for i, table in enumerate(moves):
        for ch, j in table.items():
            delta[(i, ch)] = frozenset((j,))
    final = frozenset(i for i, subset in enumerate(subsets) if subset & masks.final)
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
    Restricted to accessible states, numbered breadth-first from the initial
    ones in state order, each state's targets in state order.  Each state is
    expanded as it is numbered, so every row is built once, and each
    subset's label text is formatted once.
    """
    if aut.semiring.tag not in ("max-plus", "min-plus"):
        raise TagMismatchError(f"covering is not defined for tag {aut.semiring.tag!r}")
    support = aut._support_masks()
    subsets, moves = _determinize_subsets(support, cap)
    start_subset = 0
    provenance = [(p, start_subset) for p, w in enumerate(aut.alpha) if w is not None]
    index = {key: i for i, key in enumerate(provenance)}
    rows = {ch: [] for ch in aut.alphabet}
    letters = [(ch, aut.mu[ch].rows, rows[ch]) for ch in aut.alphabet]
    src = 0
    while src < len(provenance):  # breadth-first: states are expanded in index order
        p, s = provenance[src]
        table = moves[s]
        for ch, arows, out in letters:
            row = arows[p]
            target_subset = table.get(ch)
            built = {}
            if row and target_subset is not None:
                for r in sorted(row):
                    nkey = (r, target_subset)
                    dst = index.get(nkey)
                    if dst is None:
                        dst = index[nkey] = len(provenance)
                        provenance.append(nkey)
                    built[dst] = row[r]
            out.append(built)
        src += 1
    n = len(provenance)
    alpha = [aut.alpha[p] if s == start_subset else None for p, s in provenance]
    beta = [aut.beta[p] if subsets[s] & support.final else None for p, s in provenance]
    members = [_bits(mask) for mask in subsets]
    texts = [",".join(map(str, m)) for m in members]
    la = [aut.state_label(p) for p in range(aut.n)]
    labels = tuple(f"({la[p]},{{{texts[s]}}})" for p, s in provenance)
    mu = {ch: TropicalMatrix._adopt(aut.semiring, n, rows[ch]) for ch in aut.alphabet}
    cover = WeightedAutomaton._adopt(aut.semiring, aut.alphabet, n, alpha, beta, mu, labels)
    return Covering(cover, tuple(provenance), tuple(frozenset(m) for m in members))


def remove_competitions(cover: Covering) -> WeightedAutomaton:
    """Delete competing arcs of a covering, then trim.

    Two arcs compete when they share the source subset, the letter, and the
    full target state but start from different original states; two final
    arrows compete when they share the subset.  Exactly one member of each
    group survives (the one with the smallest original state; a subset and
    an original state determine a covering state), which is the minimal
    number of deletions.  One pass over the states in (subset, original
    state) order keeps the first arc of each group and the first final arrow
    of each subset.  For a 1-valued covered automaton the result is
    unambiguous and equivalent.
    """
    aut = cover.automaton
    prov = cover.provenance
    n = aut.n
    final_subsets = set()  # the subsets whose final arrow is kept
    beta = [None] * n
    kept = {ch: [None] * n for ch in aut.alphabet}
    # per letter: the rows, the kept rows, and subset -> the targets of its kept arcs
    letters = [(aut.mu[ch].rows, kept[ch], {}) for ch in aut.alphabet]
    for i in sorted(range(n), key=lambda i: (prov[i][1], prov[i][0])):
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
    mu = {ch: TropicalMatrix._adopt(aut.semiring, n, kept[ch]) for ch in aut.alphabet}
    pruned = WeightedAutomaton._adopt(
        aut.semiring, aut.alphabet, n, aut.alpha, beta, mu, aut.state_labels
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
    """Full pipeline: decide equality, extract the 1-valued automaton, disambiguate.

    The equality check and the extraction share one product and one
    relaxation.
    """
    return disambiguate(extract_one_valued(amax, bmin, check), subset_cap)


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
