"""Decision procedures for max-plus rational series.

All entry points trim internally, so user automata need not be trim.  Every
negative verdict comes with a witness word that fails the property exactly;
witnesses are deterministic (first in length-lex order where the search is
breadth-first, argmax backtracking otherwise).

Nonpositivity, on which Fatou renormalization, the constant tests and the
series comparisons rest, is decided by one early-exit Bellman-Ford relaxation
of the potential u = M*beta, and a positive verdict hands u on to the
renormalization.  The relaxation visits the arcs in backward breadth-first
order from the final arrows, so a round carries the weights along every
fewest-arc path and few rounds are needed.  The scan of alpha M^k beta and
Karp's maximum mean cycle run only to build the witness of a negative
verdict.

The zero filter, the NFA of the weight-0 arrows and arcs of the renormalized
automaton, is read straight off u as bitmasks: an initial arrow is kept iff
alpha_i + u_i = 0, a final arrow iff beta_i = u_i, an arc i -> j of weight w
iff w + u_j = u_i.  Languages are compared by one breadth-first exploration
of subset pairs (``twa.automaton._explore``).  The series comparisons and the
1-valued extraction of ``twa.disambiguation`` share one kernel, _difference:
it trims each input once, compares the supports, builds the product of S and
-T once and relaxes its potential once.  The product subtracts T's weights as
it builds each row, in its final (p, q) numbering, so no negated copy of T
exists; it is accessible by construction, so its trim only removes the states
that reach no final arrow; and with equal supports the zero filter is
compared with S's support, whose masks the support check already built.

Min-plus questions are the duals of these under the negation isomorphism; the
command line performs that translation, the library functions insist on
max-plus input.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import NamedTuple, Optional

from .automaton import (
    BooleanAutomaton,
    WeightedAutomaton,
    _accessible_product,
    _explore,
    _mask,
    _MaskNfa,
    _path_word,
    _post,
)
from .errors import (
    AlphabetError,
    CapExceededError,
    NotNonpositiveError,
    PositiveCycleError,
    TagMismatchError,
)
from .semiring import MAX_PLUS, is_rational
from .spectral import TropicalMatrix, _star_rounds, max_mean_cycle, vec_mat

DEFAULT_MONOID_CAP = 1_000_000


class Decision(NamedTuple):
    """Outcome of a decision procedure: the verdict plus an optional witness word."""

    holds: bool
    witness: Optional[str]


def _require_max_plus(aut: WeightedAutomaton, op: str):
    if aut.semiring.tag != "max-plus":
        raise TagMismatchError(f"{op} requires a max-plus automaton, got {aut.semiring.tag}")


def _shift_final(aut: WeightedAutomaton, delta) -> WeightedAutomaton:
    """Add ``delta`` to every finite final weight; shifts the series by delta."""
    if delta == 0:
        return aut
    beta = [None if w is None else w + delta for w in aut.beta]
    return WeightedAutomaton(
        aut.semiring, aut.alphabet, aut.n, aut.alpha, beta, aut.mu, aut.state_labels
    )


# ---------------------------------------------------------------------------
# Nonpositivity.
# ---------------------------------------------------------------------------


def decide_nonpositive(aut: WeightedAutomaton) -> Decision:
    """Decide whether every coefficient of the series is <= 0.

    Criterion on the trimmed automaton with M the letter sum: u = M*beta
    exists (no cycle has positive weight) and alpha_i + u_i <= 0 for every
    state i.  Decided by one early-exit Bellman-Ford relaxation.  The
    returned witness word has a value > 0 (exactly): the shortest offending
    word from the scan of alpha M^k beta for k < n when there is one,
    otherwise a pumped maximum-mean (positive) cycle.
    """
    _require_max_plus(aut, "decide_nonpositive")
    return _nonpositive_trimmed(aut.trim())[0]


def _nonpositive_trimmed(trim: WeightedAutomaton) -> tuple[Decision, Optional[list]]:
    """The nonpositivity verdict of a trim automaton, with u = M*beta when it holds.

    The potential is None with a negative verdict, which carries the witness.
    """
    m = trim.letter_sum()
    u = _nonpositive_potential(trim, m)
    if u is not None:
        return Decision(True, None), u
    return Decision(False, _positive_word(trim, m)), None


def _nonpositive_potential(trim: WeightedAutomaton, m: TropicalMatrix) -> Optional[list]:
    """u = M*beta if the series of ``trim`` is nonpositive, else None.

    Relaxes u from beta toward M*beta.  Every finite u_i is the weight of a
    real path from i to a final arrow, so alpha_i + u_i > 0 at any time
    (tested before the first round, which covers the empty word, and after
    each round on the states it improved) exhibits a positive word.  A
    positive cycle stops the relaxation; it pumps, because every cycle of a
    trim automaton lies on a successful path.  At the fixpoint alpha + u <= 0
    is exactly nonpositivity.
    """
    alpha = trim.alpha
    u = list(trim.beta)

    def positive(states) -> bool:
        return any(
            alpha[i] is not None and u[i] is not None and alpha[i] + u[i] > 0
            for i in states
        )

    if positive(range(trim.n)):
        return None
    try:
        for improved in _star_rounds(m, u):
            if positive(improved):
                return None
    except PositiveCycleError:
        return None
    return u


def _positive_word(trim: WeightedAutomaton, m: TropicalMatrix) -> str:
    """A word with positive value, for a trim automaton whose series is not <= 0.

    Scans alpha M^k beta for k < n first: when it fails, the witness is a
    shortest offending word; otherwise a positive cycle exists, and the
    witness pumps a maximum-mean one.
    """
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
            profiles.append(vec_mat(x, m))
    rho = max_mean_cycle(m)
    assert rho is not None and rho > 0, "positive series without a positive word or cycle"
    return _pumped_witness(trim, m, rho)


def _backtrack_word(aut: WeightedAutomaton, profiles, k: int, end_state: int) -> str:
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


def _find_critical_cycle(m: TropicalMatrix, rho) -> list[int]:
    """A circuit of ``m`` whose mean weight equals the maximum mean ``rho``.

    Subtracting rho from every arc makes all cycle weights <= 0, so the
    longest-walk potentials b (from an all-zero floor) reach a fixpoint; the
    arcs that are tight for b form a subgraph in which every cycle has mean
    exactly rho, and the critical circuit guarantees at least one exists.
    """
    n = m.n
    arcs = [(i, j, w - rho) for i, j, w in m.arcs()]
    b = [0] * n
    for _ in range(n + 1):
        changed = False
        for i, j, w in arcs:
            c = b[i] + w
            if c > b[j]:
                b[j] = c
                changed = True
        if not changed:
            break
    assert not changed, "potentials failed to converge; mean cycle was wrong"
    tight = [[] for _ in range(n)]
    for i, j, w in arcs:
        if b[i] + w == b[j]:
            tight[i].append(j)
    for row in tight:
        row.sort()
    color = [0] * n  # 0 fresh, 1 on stack, 2 done
    for start in range(n):
        if color[start] or not tight[start]:
            continue
        path = [start]
        iters = [iter(tight[start])]
        color[start] = 1
        while path:
            for nxt in iters[-1]:
                if color[nxt] == 1:
                    return path[path.index(nxt):]
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    iters.append(iter(tight[nxt]))
                    break
            else:
                color[path.pop()] = 2
                iters.pop()
    raise AssertionError("tight subgraph has no cycle; mean cycle was wrong")


def _pumped_witness(trim: WeightedAutomaton, m: TropicalMatrix, rho) -> str:
    """Build a word with positive value from a maximum-mean (positive) circuit.

    The witness pumps the circuit enough times to dominate the exact weight
    of its access and co-access paths.
    """
    cycle = _find_critical_cycle(m, rho)
    cycle_word = []
    cycle_weight = 0
    for idx, src in enumerate(cycle):
        dst = cycle[(idx + 1) % len(cycle)]
        target = m.rows[src][dst]
        for ch in trim.alphabet:
            if trim.mu[ch].rows[src].get(dst) == target:
                cycle_word.append(ch)
                break
        else:
            raise AssertionError("letter sum lost the maximizing letter")
        cycle_weight += target
    assert cycle_weight > 0, "extracted cycle is not positive"
    start = cycle[0]

    access_word, access_weight = _bfs_path(trim, start, forward=True)
    coaccess_word, coaccess_weight = _bfs_path(trim, start, forward=False)
    base = access_weight + coaccess_weight
    if base + cycle_weight > 0:
        pumps = 1
    else:
        # exact floor division keeps this correct for Fraction weights too
        pumps = (-base) // cycle_weight + 1
    return access_word + "".join(cycle_word) * pumps + coaccess_word


def _bfs_path(trim: WeightedAutomaton, target: int, forward: bool):
    """Shortest word from an initial arrow to ``target`` (or from it to a final arrow).

    Returns (word, exact weight of that particular path including the arrow).
    The automaton is trim, so the path exists.
    """
    if forward:
        seeds = {i: w for i, w in enumerate(trim.alpha) if w is not None}
    else:
        seeds = {i: w for i, w in enumerate(trim.beta) if w is not None}
    prev = {}
    queue = deque()
    for state in sorted(seeds):
        prev[state] = None
        queue.append(state)
    while queue:
        state = queue.popleft()
        if state == target:
            break
        for ch in trim.alphabet:
            if forward:
                hops = trim.mu[ch].rows[state].items()
            else:
                hops = (
                    (i, row[state])
                    for i, row in enumerate(trim.mu[ch].rows)
                    if state in row
                )
            for nxt, w in sorted(hops):
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
    trim = aut.trim()
    verdict, u = _nonpositive_trimmed(trim)
    if not verdict.holds:
        raise NotNonpositiveError(verdict.witness)
    return _fatou_trimmed(trim, u)


def _fatou_trimmed(trim: WeightedAutomaton, u: list) -> WeightedAutomaton:
    """Conjugate a trim nonpositive automaton by its potential ``u`` = M*beta.

    ``u`` is the potential that _nonpositive_trimmed returns with a positive
    verdict, so the decision and the renormalization share one relaxation.
    """
    if trim.n == 0:
        return trim
    alpha = [None if w is None else w + u[i] for i, w in enumerate(trim.alpha)]
    beta = [None if w is None else w - u[i] for i, w in enumerate(trim.beta)]
    mu = {}
    for ch, mat in trim.mu.items():
        rows = [
            {j: w - u[i] + u[j] for j, w in mat.rows[i].items()}
            for i in range(trim.n)
        ]
        mu[ch] = TropicalMatrix._adopt(trim.semiring, trim.n, rows)
    return WeightedAutomaton._adopt(
        trim.semiring, trim.alphabet, trim.n, alpha, beta, mu, trim.state_labels
    )


def _zero_filter(aut: WeightedAutomaton) -> BooleanAutomaton:
    """Keep exactly the weight-0 arrows/arcs of a nonpositively-weighted automaton.

    On a Fatou-normalized automaton the resulting NFA accepts exactly the
    words with coefficient 0.
    """
    initial = frozenset(i for i, w in enumerate(aut.alpha) if w == 0)
    final = frozenset(i for i, w in enumerate(aut.beta) if w == 0)
    delta = {}
    for ch, mat in aut.mu.items():
        for i, row in enumerate(mat.rows):
            targets = frozenset(j for j, w in row.items() if w == 0)
            if targets:
                delta[(i, ch)] = targets
    return BooleanAutomaton(aut.alphabet, aut.n, initial, final, delta)


def _zero_masks(trim: WeightedAutomaton, u: list) -> _MaskNfa:
    """The zero filter of the Fatou form of ``trim``, read straight off u = M*beta.

    The renormalized arrows and arcs are alpha_i + u_i, beta_i - u_i and
    w - u_i + u_j, so an initial arrow survives iff alpha_i + u_i = 0, a
    final arrow iff beta_i = u_i, and an arc i -> j of weight w iff
    w + u_j = u_i.  Same language as _zero_filter(_fatou_trimmed(trim, u)).
    """
    alpha, beta = trim.alpha, trim.beta
    initial = _mask(i for i, w in enumerate(alpha) if w is not None and w + u[i] == 0)
    final = _mask(i for i, w in enumerate(beta) if w is not None and w == u[i])
    succ = {}
    for ch, mat in trim.mu.items():
        masks = []
        for i, row in enumerate(mat.rows):
            ui = u[i]
            mask = 0
            for j, w in row.items():
                if w + u[j] == ui:
                    mask |= 1 << j
            masks.append(mask)
        succ[ch] = masks
    return _MaskNfa(initial, final, succ)


# ---------------------------------------------------------------------------
# Boolean transition monoid.
# ---------------------------------------------------------------------------


def _bool_matrix(nfa: BooleanAutomaton, ch: str) -> tuple:
    return tuple(
        sum(1 << j for j in nfa.moves(i, ch)) for i in range(nfa.n)
    )


def _bool_mul(a: tuple, b: tuple) -> tuple:
    out = []
    for bits in a:
        acc = 0
        while bits:
            low = bits & -bits
            acc |= b[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return tuple(out)


def boolean_monoid_closure(nfa: BooleanAutomaton, cap: int = DEFAULT_MONOID_CAP) -> dict:
    """The transition monoid {matrix of w : w word}, identity included.

    Matrices are tuples of row bitmasks.  Returns a dict matrix -> shortest
    witness word, in breadth-first (length-lex) discovery order.  Raises
    CapExceededError when more than ``cap`` distinct matrices appear; the
    monoid can hold up to 2^(n^2) elements.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    generators = [(ch, _bool_matrix(nfa, ch)) for ch in nfa.alphabet]
    identity = tuple(1 << i for i in range(nfa.n))
    closure = {identity: ""}
    queue = deque([identity])
    while queue:
        mat = queue.popleft()
        word = closure[mat]
        for ch, gen in generators:
            product = _bool_mul(mat, gen)
            if product not in closure:
                if len(closure) >= cap:
                    raise CapExceededError("boolean monoid closure", cap)
                closure[product] = word + ch
                queue.append(product)
    return closure


def _matrix_accepts(mat: tuple, initial, final_mask: int) -> bool:
    return any(mat[i] & final_mask for i in initial)


# ---------------------------------------------------------------------------
# Constant-series tests.
# ---------------------------------------------------------------------------


def decide_equal_const(
    aut: WeightedAutomaton, const, monoid_cap: int = DEFAULT_MONOID_CAP
) -> Decision:
    """Decide whether every word (all of Sigma*) has coefficient exactly ``const``.

    Shifts the series by -const, requires nonpositivity, Fatou-normalizes,
    keeps only weight-0 arrows, and then checks that every matrix of the
    Boolean transition monoid maps some initial state into a final one.
    """
    _require_max_plus(aut, "decide_equal_const")
    if not is_rational(const):
        raise TypeError(f"constant must be an exact rational, got {const!r}")
    trim = _shift_final(aut, -const).trim()
    verdict, u = _nonpositive_trimmed(trim)
    if not verdict.holds:
        return verdict
    filtered = _zero_filter(_fatou_trimmed(trim, u))
    final_mask = sum(1 << j for j in filtered.final)
    initial = sorted(filtered.initial)
    for mat, word in boolean_monoid_closure(filtered, monoid_cap).items():
        if not _matrix_accepts(mat, initial, final_mask):
            return Decision(False, word)
    return Decision(True, None)


def decide_equal_const_on_support(aut: WeightedAutomaton, const) -> Decision:
    """Decide whether every word *of the support* has coefficient ``const``.

    Same pipeline as decide_equal_const, but the final check compares the
    support NFA with the weight-0 filtered NFA for language equality, so
    words outside the support are unconstrained.
    """
    _require_max_plus(aut, "decide_equal_const_on_support")
    if not is_rational(const):
        raise TypeError(f"constant must be an exact rational, got {const!r}")
    shifted = _shift_final(aut.trim(), -const)
    verdict, u = _nonpositive_trimmed(shifted)
    if not verdict.holds:
        return verdict
    return _compare(shifted._support_masks(), _zero_masks(shifted, u), inclusion=False)


# ---------------------------------------------------------------------------
# NFA comparisons (on-the-fly product of subset constructions).
# ---------------------------------------------------------------------------


def _compare(a: _MaskNfa, b: _MaskNfa, inclusion: bool) -> Decision:
    """Explore the pairs of subsets that one word reaches in a and in b.

    Breadth-first in alphabet order, so the witness is the length-lex-first
    word accepted by a and not by b (for inclusion), or by exactly one of
    them (for equivalence).
    """
    afinal, bfinal = a.final, b.final

    def bad(pair) -> bool:
        acc_a = bool(pair[0] & afinal)
        acc_b = bool(pair[1] & bfinal)
        return (acc_a and not acc_b) if inclusion else (acc_a != acc_b)

    def step(pair, ch):
        return _post(pair[0], a.succ[ch]), _post(pair[1], b.succ[ch])

    _, parents, _, hit = _explore((a.initial, b.initial), list(a.succ), step, stop=bad)
    if hit is None:
        return Decision(True, None)
    return Decision(False, _path_word(parents, hit))


def _nfa_compare(a: BooleanAutomaton, b: BooleanAutomaton, inclusion: bool) -> Decision:
    if a.alphabet != b.alphabet:
        raise AlphabetError("NFA comparison requires identical alphabets")
    return _compare(a._masks(), b._masks(), inclusion)


def nfa_equivalence(a: BooleanAutomaton, b: BooleanAutomaton) -> Decision:
    """Language equality of two NFAs; the witness is the length-lex first difference."""
    return _nfa_compare(a, b, inclusion=False)


def nfa_inclusion(a: BooleanAutomaton, b: BooleanAutomaton) -> Decision:
    """Language inclusion L(a) <= L(b); the witness is accepted by a only."""
    return _nfa_compare(a, b, inclusion=True)


# ---------------------------------------------------------------------------
# Max-plus vs min-plus series comparison.
# ---------------------------------------------------------------------------


def _check_pair(amax: WeightedAutomaton, bmin: WeightedAutomaton, op: str):
    if amax.semiring.tag != "max-plus":
        raise TagMismatchError(f"{op}: first automaton must be max-plus")
    if bmin.semiring.tag != "min-plus":
        raise TagMismatchError(f"{op}: second automaton must be min-plus")
    if amax.alphabet != bmin.alphabet:
        raise AlphabetError(f"{op}: automata must share one alphabet")


class _Difference:
    """What the equality kernel learned about S - T.

    ``product`` is the trimmed accessible product of the trimmed amax ``ta``
    and the trimmed bmin, each joint arrow and arc weighing the amax weight
    minus the bmin weight, so its series is S - T on the common support;
    ``pairs`` holds the (p, q) of each of its states and ``u`` its
    potential M*beta.  ``product`` and ``pairs`` are None when the supports
    failed their comparison, ``u`` when S - T is not nonpositive.
    """

    __slots__ = ("verdict", "ta", "product", "pairs", "u")

    def __init__(self, verdict: Decision, ta: WeightedAutomaton, product, pairs, u):
        self.verdict = verdict
        self.ta = ta
        self.product = product
        self.pairs = pairs
        self.u = u


def _difference(amax: WeightedAutomaton, bmin: WeightedAutomaton, mode: str) -> _Difference:
    """The equality kernel: S = T ("equal"), S <= T ("leq"), or only S - T <= 0 ("extract").

    Trims each input once, compares the supports ("equal": equivalence,
    "leq": inclusion, "extract": skipped), builds the difference product
    once, relaxes its potential u once, and for "equal" compares the zero
    filter read off u with the support of ``ta``.  Each step runs only when
    the ones before it held, so a witness is the one that the failing step
    alone gives.

    The product subtracts bmin's weights as it combines them, so no negated
    copy of bmin is built.  It is accessible by construction, so its trim
    is the backward (co-reachability) half alone.  Once the supports are
    equal, the product's support language is that of ``ta``, and comparing
    the zero filter with ``ta``'s support masks, already built for the
    support check, gives the same verdict and the same length-lex-first
    witness as comparing it with the product's.
    """
    ta = amax.trim()
    tb = bmin.trim()
    if mode != "extract":
        support = ta._support_masks()
        verdict = _compare(support, tb._support_masks(), inclusion=mode == "leq")
        if not verdict.holds:
            return _Difference(verdict, ta, None, None, None)
    product, pairs = _accessible_product(ta, tb, MAX_PLUS, operator.sub)
    keep = product._coreachable_states()
    if len(keep) < product.n:
        product = product._restrict(keep)
        pairs = [pairs[i] for i in keep]
    verdict, u = _nonpositive_trimmed(product)
    if verdict.holds and mode == "equal":
        verdict = _compare(support, _zero_masks(product, u), inclusion=False)
    return _Difference(verdict, ta, product, pairs, u)


def decide_series_equal(amax: WeightedAutomaton, bmin: WeightedAutomaton) -> Decision:
    """Decide S = T for a max-plus S and a min-plus T.

    Equality means: equal supports, and equal coefficients on the support.
    Checked as (a) NFA equivalence of the supports and (b) the pointwise
    difference S - T (a tensor product that subtracts T's weights from S's)
    being constantly 0 on its support.
    """
    _check_pair(amax, bmin, "decide_series_equal")
    return _difference(amax, bmin, "equal").verdict


def decide_series_leq(amax: WeightedAutomaton, bmin: WeightedAutomaton) -> Decision:
    """Decide S <= T: supp S contained in supp T and S(w) <= T(w) on supp S."""
    _check_pair(amax, bmin, "decide_series_leq")
    return _difference(amax, bmin, "leq").verdict


__all__ = [
    "Decision",
    "DEFAULT_MONOID_CAP",
    "decide_nonpositive",
    "fatou_normalize",
    "boolean_monoid_closure",
    "decide_equal_const",
    "decide_equal_const_on_support",
    "nfa_equivalence",
    "nfa_inclusion",
    "decide_series_equal",
    "decide_series_leq",
]
