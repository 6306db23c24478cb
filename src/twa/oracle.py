"""Brute-force ground truth, independent of the production algorithms.

`enum_paths`/`eval_bruteforce` walk every successful path explicitly and are
the reference semantics for evaluation.  The bounded sweeps (`equal_upto`,
`one_valued_upto`) track, per state, the *set* of weights achievable by some
path for the current prefix; that keeps exact path semantics while staying
polynomial per word.  `ambiguity` counts successful paths with an integer DP.

Nothing here is meant to be fast; it exists so that every production
algorithm can be checked against something simpler.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .automaton import WeightedAutomaton, _check_alphabets
from .decisions import Decision
from .errors import AlphabetError, OracleBoundError, TagMismatchError
from .semiring import as_value

MAX_ENUM = 10**7
MAX_CIRCUIT_NODES = 10


def _guard(alphabet_size: int, maxlen: int):
    # a sweep over one letter or none takes maxlen steps, which its word count
    # never refuses; tested first, the length also spares a huge power
    if maxlen >= MAX_ENUM:
        raise OracleBoundError(f"length {maxlen} exceeds the enumeration bound {MAX_ENUM}")
    if alphabet_size**maxlen > MAX_ENUM:
        raise OracleBoundError(
            f"{alphabet_size}^{maxlen} words exceed the enumeration bound {MAX_ENUM}"
        )


def _validate(aut: WeightedAutomaton, word: str):
    for ch in word:
        if ch not in aut.mu:
            raise AlphabetError(f"symbol {ch!r} is not in the alphabet")


def words_upto(alphabet, maxlen: int):
    """All words of length <= maxlen in length-lexicographic order."""
    alphabet = tuple(alphabet)
    _guard(len(alphabet), maxlen)
    frontier = [""]
    yield ""
    for _ in range(maxlen):
        if not frontier:  # the empty alphabet has no longer word
            return
        nxt = []
        for word in frontier:
            for ch in alphabet:
                extended = word + ch
                yield extended
                nxt.append(extended)
        frontier = nxt


def enum_paths(aut: WeightedAutomaton, word: str):
    """Every successful path labeled by ``word`` with its weight.

    A path is the tuple of visited states; its weight multiplies the initial
    arrow, each arc, and the final arrow.  Deterministic order (sorted by the
    state tuple).
    """
    _validate(aut, word)
    sr = aut.semiring
    partial = [((i,), w) for i, w in enumerate(aut.alpha) if w is not None]
    for ch in word:
        rows = aut.mu[ch].rows
        nxt = []
        for states, weight in partial:
            for j, arc_w in rows[states[-1]].items():
                nxt.append((states + (j,), sr.times(weight, arc_w)))
        partial = nxt
    out = []
    for states, weight in partial:
        b = aut.beta[states[-1]]
        if b is not None:
            out.append((states, sr.times(weight, b)))
    out.sort(key=lambda item: item[0])
    return out


def eval_bruteforce(aut: WeightedAutomaton, word: str):
    """Fold the semiring addition over all successful path weights."""
    acc = None
    for _, weight in enum_paths(aut, word):
        acc = aut.semiring.plus(acc, weight)
    return acc


def ambiguity(aut: WeightedAutomaton, word: str) -> int:
    """The number of successful paths labeled by ``word`` (integer count DP)."""
    _validate(aut, word)
    counts = [1 if w is not None else 0 for w in aut.alpha]
    for ch in word:
        rows = aut.mu[ch].rows
        nxt = [0] * aut.n
        for i, c in enumerate(counts):
            if not c:
                continue
            for j in rows[i]:
                nxt[j] += c
        counts = nxt
    return sum(c for i, c in enumerate(counts) if aut.beta[i] is not None)


# -- per-prefix achievable-weight sets ---------------------------------------


def _initial_sets(aut) -> dict:
    return {i: {w} for i, w in enumerate(aut.alpha) if w is not None}


def _step_sets(aut, sets: dict, ch: str) -> dict:
    sr = aut.semiring
    rows = aut.mu[ch].rows
    out: dict = {}
    for i, weights in sets.items():
        for j, arc_w in rows[i].items():
            bucket = out.setdefault(j, set())
            for w in weights:
                bucket.add(sr.times(w, arc_w))
    return out


def _successful_weights(aut, sets: dict) -> set:
    sr = aut.semiring
    out = set()
    for i, weights in sets.items():
        b = aut.beta[i]
        if b is not None:
            for w in weights:
                out.add(sr.times(w, b))
    return out


def _series_value(aut, sets: dict):
    acc = None
    for w in _successful_weights(aut, sets):
        acc = aut.semiring.plus(acc, w)
    return acc


def values_upto(aut: WeightedAutomaton, maxlen: int):
    """Yield (word, series value) for every word of length <= maxlen, length-lex.

    Values are folded from the per-state achievable-weight sets, i.e. from
    explicit path semantics rather than the production evaluator.
    """
    _guard(len(aut.alphabet), maxlen)
    queue = deque([("", _initial_sets(aut))])
    while queue:
        word, sets = queue.popleft()
        yield word, _series_value(aut, sets)
        if len(word) < maxlen:
            for ch in aut.alphabet:
                queue.append((word + ch, _step_sets(aut, sets, ch)))


def equal_upto(a: WeightedAutomaton, b: WeightedAutomaton, maxlen: int) -> Decision:
    """Compare two series on every word of length <= maxlen, in length-lex order.

    Values are compared exactly (zero included), so a max-plus automaton can
    be compared against a min-plus one.  Returns the first mismatching word
    as witness.  The two automata must have the same letters, in any order;
    words follow a's alphabet order.
    """
    _check_alphabets(a, b, "equal_upto requires identical alphabets")
    _guard(len(a.alphabet), maxlen)
    queue = deque([("", _initial_sets(a), _initial_sets(b))])
    while queue:
        word, sa, sb = queue.popleft()
        if _series_value(a, sa) != _series_value(b, sb):
            return Decision(False, word)
        if len(word) < maxlen:
            for ch in a.alphabet:
                queue.append((word + ch, _step_sets(a, sa, ch), _step_sets(b, sb, ch)))
    return Decision(True, None)


def one_valued_upto(aut: WeightedAutomaton, maxlen: int) -> Decision:
    """Check that all successful paths of each word (length <= maxlen) share one weight."""
    _guard(len(aut.alphabet), maxlen)
    queue = deque([("", _initial_sets(aut))])
    while queue:
        word, sets = queue.popleft()
        if len(_successful_weights(aut, sets)) > 1:
            return Decision(False, word)
        if len(word) < maxlen:
            for ch in aut.alphabet:
                queue.append((word + ch, _step_sets(aut, sets, ch)))
    return Decision(True, None)


def max_ambiguity_upto(aut: WeightedAutomaton, maxlen: int):
    """The largest successful-path count over words of length <= maxlen.

    Returns (count, word) for the first word attaining the maximum in
    length-lex order.
    """
    _guard(len(aut.alphabet), maxlen)
    best, best_word = 0, ""
    counts0 = [1 if w is not None else 0 for w in aut.alpha]
    queue = deque([("", counts0)])
    while queue:
        word, counts = queue.popleft()
        succ = sum(c for i, c in enumerate(counts) if aut.beta[i] is not None)
        if succ > best:
            best, best_word = succ, word
        if len(word) < maxlen:
            for ch in aut.alphabet:
                rows = aut.mu[ch].rows
                nxt = [0] * aut.n
                for i, c in enumerate(counts):
                    if not c:
                        continue
                    for j in rows[i]:
                        nxt[j] += c
                queue.append((word + ch, nxt))
    return best, best_word


def simple_circuits(aut: WeightedAutomaton):
    """Every simple circuit of a max-plus automaton with its exact mean weight.

    The circuits are those of its letter sum, as for max_mean_cycle.  A
    circuit is reported once, anchored at its smallest state; the result is a
    list of (state tuple, mean).  Exhaustive, so bounded to small automata.
    """
    if aut.semiring.tag != "max-plus":
        raise TagMismatchError("simple_circuits requires a max-plus automaton")
    if aut.n > MAX_CIRCUIT_NODES:
        raise OracleBoundError(
            f"circuit enumeration is limited to {MAX_CIRCUIT_NODES} states"
        )
    succ = aut.letter_sum()
    out = []
    for anchor in range(aut.n):
        # DFS over simple paths anchored at `anchor`, visiting only larger states.
        stack = [(anchor, (anchor,), 0)]
        while stack:
            node, path, weight = stack.pop()
            for j in sorted(succ[node], reverse=True):
                w = succ[node][j]
                if j == anchor:
                    total = weight + w
                    out.append((path, as_value(Fraction(total, len(path)))))
                elif j > anchor and j not in path:
                    stack.append((j, path + (j,), weight + w))
    out.sort(key=lambda item: item[0])
    return out


__all__ = [
    "enum_paths",
    "eval_bruteforce",
    "ambiguity",
    "equal_upto",
    "one_valued_upto",
    "max_ambiguity_upto",
    "simple_circuits",
    "values_upto",
    "words_upto",
    "MAX_ENUM",
]
