"""Weighted automata as linear representations.

An automaton is a triple (alpha, mu, beta): an initial weight vector, one
square transition matrix per letter, and a final weight vector, all over a
single semiring tag.  States are dense integers 0..n-1; initial and final
weights play the role of ingoing/outgoing arrows, so there are no designated
initial/final state sets at this level.

Everything here is pure: automata are immutable after construction and all
operations build new ones.
"""

from __future__ import annotations

import operator

from .errors import AlphabetError, CapExceededError, DimensionError, TagMismatchError, TwaError
from .semiring import MAX_PLUS, MIN_PLUS, Semiring, semiring_for
from .spectral import TropicalMatrix, _backward_order, vec_mat


def _valid_symbol(ch) -> bool:
    # single visible ASCII character; '#' is reserved for comments in files
    return isinstance(ch, str) and len(ch) == 1 and 33 <= ord(ch) <= 126 and ch != "#"


def _check_alphabets(a: "WeightedAutomaton", b: "WeightedAutomaton", message: str) -> None:
    """Raise AlphabetError(message) unless a and b have the same letters.

    The order may differ: every engine reads b's letters by name, so results
    and witnesses follow a's alphabet order.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetError(message)


class WeightedAutomaton:
    """A linear representation over max-plus or min-plus."""

    __slots__ = ("semiring", "alphabet", "n", "alpha", "beta", "mu", "state_labels")

    def __init__(self, tag, alphabet, n: int, alpha, beta, mu, state_labels=None):
        sr = semiring_for(tag)
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise AlphabetError("alphabet symbols must be distinct")
        for ch in alphabet:
            if not _valid_symbol(ch):
                raise AlphabetError(f"bad alphabet symbol {ch!r}")
        if n < 0:
            raise DimensionError("state count must be nonnegative")
        if len(alpha) != n or len(beta) != n:
            raise DimensionError("initial/final vectors must have length n")
        if set(mu) != set(alphabet):
            raise AlphabetError("every alphabet letter needs exactly one matrix")
        for vec in (alpha, beta):
            for i, w in enumerate(vec):
                if w is not None and not sr.is_weight(w):
                    raise TagMismatchError(f"vector entry {i}={w!r} is not a {sr.tag} weight")
        for ch, mat in mu.items():
            if not isinstance(mat, TropicalMatrix):
                raise TypeError(f"mu[{ch!r}] must be a TropicalMatrix")
            if mat.semiring.tag != sr.tag:
                raise TagMismatchError(f"mu[{ch!r}] has tag {mat.semiring.tag}, automaton has {sr.tag}")
            if mat.n != n:
                raise DimensionError(f"mu[{ch!r}] has dimension {mat.n}, automaton has {n}")
        if state_labels is not None:
            state_labels = tuple(str(s) for s in state_labels)
            if len(state_labels) != n:
                raise DimensionError("state_labels must have length n")
        self.semiring: Semiring = sr
        self.alphabet = alphabet
        self.n = n
        self.alpha = list(alpha)
        self.beta = list(beta)
        self.mu = {ch: mu[ch] for ch in alphabet}
        self.state_labels = state_labels

    @classmethod
    def _adopt(cls, semiring: Semiring, alphabet: tuple, alpha, beta, rows, state_labels):
        """Assemble an automaton from parts the library built, without copying or re-checking.

        The one place where a construction's rows become matrices.  The state
        count is n = len(alpha).  The caller guarantees what __init__ checks:
        ``alphabet`` is a tuple of distinct valid symbols, ``alpha`` and
        ``beta`` are lists of n weights of ``semiring``, ``rows`` maps the
        letters, in alphabet order, to lists of n row dicts {target: weight}
        whose targets lie in range and whose weights are finite weights of
        ``semiring``, and ``state_labels`` is None or a tuple of n strings.
        The caller keeps no reference it later mutates.
        """
        n = len(alpha)
        aut = cls.__new__(cls)
        aut.semiring = semiring
        aut.alphabet = alphabet
        aut.n = n
        aut.alpha = alpha
        aut.beta = beta
        aut.mu = {ch: TropicalMatrix._adopt(semiring, n, letter) for ch, letter in rows.items()}
        aut.state_labels = state_labels
        return aut

    @classmethod
    def from_arcs(cls, tag, alphabet, n, *, initial=(), final=(), arcs=(), labels=None):
        """Convenience constructor from (state, weight) and (src, letter, dst, weight) lists.

        Raises what ``TropicalMatrix(sr, n, rows)`` and ``__init__`` would
        raise, in the same order, but checks each arc once and copies no row.
        """
        sr = semiring_for(tag)
        alphabet = tuple(alphabet)
        alpha = [None] * n
        beta = [None] * n
        rows = {ch: [dict() for _ in range(n)] for ch in alphabet}

        def _check_state(i):
            if not 0 <= i < n:
                raise DimensionError(f"state {i} out of range for {n} states")

        for i, w in initial:
            _check_state(i)
            if alpha[i] is not None:
                raise TwaError(f"duplicate initial weight for state {i}")
            alpha[i] = w
        for i, w in final:
            _check_state(i)
            if beta[i] is not None:
                raise TwaError(f"duplicate final weight for state {i}")
            beta[i] = w
        for src, ch, dst, w in arcs:
            _check_state(src)
            _check_state(dst)
            if ch not in rows:
                raise AlphabetError(f"unknown letter {ch!r}")
            if dst in rows[ch][src]:
                raise TwaError(f"duplicate arc {src} -{ch}-> {dst}")
            rows[ch][src][dst] = w
        # TropicalMatrix's checks, letter by letter; __init__ checks the rest
        if n < 0 and rows:
            raise DimensionError("matrix dimension must be nonnegative")
        for letter in rows.values():
            for i, row in enumerate(letter):
                for j, w in row.items():
                    if w is None or not sr.is_weight(w):
                        raise TagMismatchError(
                            f"entry ({i},{j})={w!r} is not a finite {sr.tag} weight"
                        )
        mu = {ch: TropicalMatrix._adopt(sr, n, letter) for ch, letter in rows.items()}
        return cls(sr, alphabet, n, alpha, beta, mu, state_labels=labels)

    # -- basic queries ------------------------------------------------------

    def state_label(self, i: int) -> str:
        return self.state_labels[i] if self.state_labels else str(i)

    def arcs(self):
        """Yield (src, letter, dst, weight) in deterministic order."""
        for src in range(self.n):
            for ch in self.alphabet:
                row = self.mu[ch].rows[src]
                for dst in sorted(row):
                    yield src, ch, dst, row[dst]

    def __eq__(self, other):
        if not isinstance(other, WeightedAutomaton):
            return NotImplemented
        return (
            self.semiring.tag == other.semiring.tag
            and self.alphabet == other.alphabet
            and self.n == other.n
            and self.alpha == other.alpha
            and self.beta == other.beta
            and all(self.mu[ch] == other.mu[ch] for ch in self.alphabet)
        )

    def __repr__(self):
        arcs = sum(len(r) for m in self.mu.values() for r in m.rows)
        return (
            f"<WeightedAutomaton {self.semiring.tag} states={self.n} "
            f"alphabet={''.join(self.alphabet)!r} arcs={arcs}>"
        )

    # -- evaluation ---------------------------------------------------------

    def eval(self, word: str):
        """The coefficient of ``word``: alpha * mu(word) * beta.

        Returns the semiring zero (None) when the word has no successful path.
        """
        for ch in word:
            if ch not in self.mu:
                raise AlphabetError(f"symbol {ch!r} is not in the alphabet")
        sr = self.semiring
        x = {i: w for i, w in enumerate(self.alpha) if w is not None}
        for ch in word:
            if not x:
                return None
            x = vec_mat(x, self.mu[ch])
        acc = None
        for i, xi in x.items():
            b = self.beta[i]
            if b is not None:
                acc = sr.plus(acc, sr.times(xi, b))
        return acc

    # -- structure ----------------------------------------------------------

    def trim(self) -> "WeightedAutomaton":
        """Restrict to states that lie on some successful path.

        Keeps exactly the states both reachable from a nonzero initial entry
        and co-reachable to a nonzero final entry; the recognized series is
        unchanged.  Idempotent; returns self when already trim.
        """
        keep = self._useful_states()
        return self if len(keep) == self.n else self._restrict(keep)

    def _useful_states(self) -> list:
        """The states on some successful path, in increasing order.

        Those reachable from an initial arrow (the forward search below)
        among those that reach a final arrow (the backward search of
        ``spectral._backward_order``, which also orders the relaxation of
        the potential).
        """
        letters = [mat.rows for mat in self.mu.values()]
        fwd = [w is not None for w in self.alpha]
        stack = [i for i, reached in enumerate(fwd) if reached]
        while stack:
            i = stack.pop()
            for rows in letters:
                for j in rows[i]:
                    if not fwd[j]:
                        fwd[j] = True
                        stack.append(j)
        into = [[] for _ in range(self.n)]
        for rows in letters:
            for i, row in enumerate(rows):
                for j in row:
                    into[j].append(i)
        return [i for i in sorted(_backward_order(into, self.beta)) if fwd[i]]

    def _restrict(self, keep: list) -> "WeightedAutomaton":
        """The automaton on the states ``keep`` (increasing), renumbered in that order."""
        index = {old: new for new, old in enumerate(keep)}
        alpha = [self.alpha[old] for old in keep]
        beta = [self.beta[old] for old in keep]
        rows = {
            ch: [{index[j]: w for j, w in mat.rows[old].items() if j in index} for old in keep]
            for ch, mat in self.mu.items()
        }
        labels = tuple(self.state_labels[old] for old in keep) if self.state_labels else None
        return WeightedAutomaton._adopt(self.semiring, self.alphabet, alpha, beta, rows, labels)

    def negate(self) -> "WeightedAutomaton":
        """Negate every weight and flip max-plus <-> min-plus.

        Realizes the semiring isomorphism, so the result's series is the
        pointwise negation of this one's.
        """
        sr = MIN_PLUS if self.semiring is MAX_PLUS else MAX_PLUS
        alpha = [None if w is None else -w for w in self.alpha]
        beta = [None if w is None else -w for w in self.beta]
        rows = {
            ch: [{j: -w for j, w in row.items()} for row in mat.rows]
            for ch, mat in self.mu.items()
        }
        return WeightedAutomaton._adopt(sr, self.alphabet, alpha, beta, rows, self.state_labels)

    def letter_sum(self) -> TropicalMatrix:
        """The entrywise semiring sum of all letter matrices."""
        plus = self.semiring.plus
        letters = [self.mu[ch].rows for ch in self.alphabet]
        # the first letter's rows are copied whole, the others merged in
        rows = [dict(row) for row in letters[0]] if letters else [{} for _ in range(self.n)]
        for mrows in letters[1:]:
            for row, mrow in zip(rows, mrows):
                for j, w in mrow.items():
                    old = row.get(j)
                    row[j] = w if old is None else plus(old, w)
        return TropicalMatrix._adopt(self.semiring, self.n, rows)

    def _support_masks(self) -> "_MaskNfa":
        """The support NFA: the states with an initial or a final arrow, and every arc."""
        return _MaskNfa.of(
            (i for i, w in enumerate(self.alpha) if w is not None),
            (i for i, w in enumerate(self.beta) if w is not None),
            {ch: self.mu[ch].rows for ch in self.alphabet},
        )


def _accessible_product(
    a: WeightedAutomaton, b: WeightedAutomaton, semiring: Semiring, combine
) -> tuple[WeightedAutomaton, list]:
    """The part of the product a x b reachable from its initial pairs.

    A pair (p, q) is initial when both initial weights are finite, and a
    joint arc (p, q) -x-> (r, s) exists when both p -x-> r and q -x-> s do;
    arrows and arcs weigh ``combine(wa, wb)``.  Only reached pairs are built.
    They are numbered in (p, q) order, so the result is the full grid with its
    unreachable pairs deleted, and trimming either gives the same automaton.
    Returns the product and the pair (p, q) of each of its states.

    Two phases: the first discovers the reachable pairs and builds nothing
    else; the second builds each row once, already in the final numbering.
    Raises CapExceededError("product", ...) past DEFAULT_SUBSET_CAP pairs.
    """
    cap = DEFAULT_SUBSET_CAP
    bn = b.n
    letters = [(a.mu[ch].rows, b.mu[ch].rows) for ch in a.alphabet]
    seen = {
        p * bn + q
        for p, wa in enumerate(a.alpha) if wa is not None
        for q, wb in enumerate(b.alpha) if wb is not None
    }
    if len(seen) > cap:
        raise CapExceededError("product", cap)
    stack = list(seen)
    while stack:
        p, q = divmod(stack.pop(), bn)
        for arows, brows in letters:
            brow = brows[q]
            if brow:
                for r in arows[p]:
                    base = r * bn
                    for s in brow:
                        t = base + s
                        if t not in seen:
                            if len(seen) >= cap:
                                raise CapExceededError("product", cap)
                            seen.add(t)
                            stack.append(t)
    keys = sorted(seen)
    index = {key: i for i, key in enumerate(keys)}
    pairs = [divmod(key, bn) for key in keys]
    mu = {}
    for ch, (arows, brows) in zip(a.alphabet, letters):
        mu[ch] = rows = []
        for p, q in pairs:
            row = {}
            brow = brows[q]
            if brow:
                for r, w1 in arows[p].items():
                    base = r * bn
                    for s, w2 in brow.items():
                        row[index[base + s]] = combine(w1, w2)
            rows.append(row)

    def arrows(va, vb):
        return [
            None if va[p] is None or vb[q] is None else combine(va[p], vb[q])
            for p, q in pairs
        ]

    la = [a.state_label(p) for p in range(a.n)]
    lb = [b.state_label(q) for q in range(bn)]
    labels = tuple(f"({la[p]},{lb[q]})" for p, q in pairs)
    product = WeightedAutomaton._adopt(
        semiring, a.alphabet, arrows(a.alpha, b.alpha), arrows(a.beta, b.beta), mu, labels
    )
    return product, pairs


def hadamard(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """Tensor product of representations; realizes the pointwise product of series.

    For every word w: eval(result, w) = eval(a, w) (x) eval(b, w).  Both
    automata must carry the same tag and the same letters, in any order; the
    result has a's alphabet order.  Only the pairs (p, q) reachable from an
    initial pair are built, numbered in (p, q) order, so the result has at
    most a.n * b.n states; more than ``DEFAULT_SUBSET_CAP`` raise
    CapExceededError.
    """
    if a.semiring.tag != b.semiring.tag:
        raise TagMismatchError(f"mixed tags: {a.semiring.tag} vs {b.semiring.tag}")
    _check_alphabets(a, b, "hadamard requires identical alphabets")
    return _accessible_product(a, b, a.semiring, operator.add)[0]


# ---------------------------------------------------------------------------
# Subset exploration over bitmasks.
# ---------------------------------------------------------------------------

DEFAULT_SUBSET_CAP = 1_000_000


class _MaskNfa:
    """An NFA over states 0..n-1 as Python ints: bit i set means state i is in.

    The one reader and writer of subset masks: other modules build it from
    sparse states (``of``) and get back words, state lists and move tables.
    ``succ`` maps each letter, in alphabet order, to the successor mask of
    every state.  Each question is one breadth-first ``_explore`` in
    alphabet order, so every witness is the length-lex-first word.
    """

    __slots__ = ("initial", "final", "succ")

    def __init__(self, initial: int, final: int, succ: dict):
        self.initial = initial
        self.final = final
        self.succ = succ

    @classmethod
    def of(cls, initial_states, final_states, targets: dict) -> "_MaskNfa":
        """``targets`` maps each letter, in alphabet order, to an iterable of targets per state."""
        succ = {ch: [_mask(row) for row in rows] for ch, rows in targets.items()}
        return cls(_mask(initial_states), _mask(final_states), succ)

    def compare(self, other: "_MaskNfa", inclusion: bool, what: str):
        """The first word accepted here and not by ``other`` (inclusion), or by
        exactly one of them (equivalence); None when there is none.

        Walks the pairs of subsets that one word reaches, reading ``other``'s
        letters by name.  Raises CapExceededError(what, cap) past
        ``DEFAULT_SUBSET_CAP`` pairs, the cap read at call time.
        """
        afinal, bfinal, asucc, bsucc = self.final, other.final, self.succ, other.succ

        def bad(pair) -> bool:
            acc_a, acc_b = bool(pair[0] & afinal), bool(pair[1] & bfinal)
            return (acc_a and not acc_b) if inclusion else (acc_a != acc_b)

        def step(pair, ch):
            return _post(pair[0], asucc[ch]), _post(pair[1], bsucc[ch])

        _, parents, _, hit = _explore(
            (self.initial, other.initial), list(asucc), step, DEFAULT_SUBSET_CAP, what, stop=bad
        )
        return None if hit is None else _path_word(parents, hit)

    def rejected_word(self, cap: int, what: str):
        """The first word rejected, found by walking the subsets that the words
        reach; None when every word is accepted.  Raises
        CapExceededError(what, cap) past ``cap`` subsets."""
        final, succ = self.final, self.succ
        _, parents, _, hit = _explore(
            self.initial, list(succ), lambda mask, ch: _post(mask, succ[ch]), cap, what,
            stop=lambda mask: not mask & final,
        )
        return None if hit is None else _path_word(parents, hit)

    def subsets(self, cap: int):
        """The accessible subset construction, without the empty subset.

        Returns (members, accepting, moves): per subset, its states in
        increasing order, whether one is final, and {letter: successor index}.
        Raises CapExceededError("subset construction", cap) past ``cap`` subsets.
        """
        final, succ = self.final, self.succ
        masks, _, moves, _ = _explore(
            self.initial, list(succ), lambda mask, ch: _post(mask, succ[ch]) or None, cap,
            "subset construction",
        )
        return [_bits(mask) for mask in masks], [bool(mask & final) for mask in masks], moves


def _mask(states) -> int:
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def _bits(mask: int) -> list:
    """The states of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _post(mask: int, succ: list) -> int:
    """The states reached from the states of ``mask`` by one move in ``succ``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ[low.bit_length() - 1]
        mask ^= low
    return out


def _explore(start, letters, step, cap: int, what: str, stop=None):
    """Breadth-first search over the nodes reachable from ``start``.

    ``step(node, letter)`` is the successor of a node, or None for no move.
    Letters are tried in the order given, so the first path to each node
    spells the length-lex-first word that reaches it.  Returns (nodes,
    parents, moves, hit): the nodes in discovery order, ``start`` first;
    parents[i] = (index, letter) of the move that discovered node i (None for
    the start); moves[i] = {letter: index of the successor}; and hit = the
    index of the first node for which ``stop`` holds, where the search
    ended, or None.  Raises CapExceededError(what, cap) when more than
    ``cap`` nodes appear, and ValueError for a ``cap`` below 1.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    nodes = [start]
    index = {start: 0}
    parents: list = [None]
    moves: list = [{}]
    cur = 0
    while cur < len(nodes):
        node = nodes[cur]
        if stop is not None and stop(node):
            return nodes, parents, moves, cur
        row = moves[cur]
        for ch in letters:
            nxt = step(node, ch)
            if nxt is None:
                continue
            target = index.get(nxt)
            if target is None:
                if len(nodes) >= cap:
                    raise CapExceededError(what, cap)
                target = index[nxt] = len(nodes)
                nodes.append(nxt)
                parents.append((cur, ch))
                moves.append({})
            row[ch] = target
        cur += 1
    return nodes, parents, moves, None


def _path_word(parents: list, node: int) -> str:
    """The word that first reached ``node`` in an exploration."""
    letters = []
    while parents[node] is not None:
        node, ch = parents[node]
        letters.append(ch)
    return "".join(reversed(letters))


__all__ = [
    "WeightedAutomaton",
    "hadamard",
]
