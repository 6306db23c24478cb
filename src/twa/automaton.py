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
from .spectral import TropicalMatrix, vec_mat


def _valid_symbol(ch) -> bool:
    # single visible ASCII character; '#' is reserved for comments in files
    return isinstance(ch, str) and len(ch) == 1 and 33 <= ord(ch) <= 126 and ch != "#"


class WeightedAutomaton:
    """A linear representation over max-plus, min-plus, boolean, or the pair semiring."""

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
    def _adopt(cls, semiring: Semiring, alphabet: tuple, n: int, alpha, beta, mu, state_labels):
        """Wrap parts the library built itself, without copying or re-checking.

        The caller guarantees what __init__ checks: ``alphabet`` is a tuple of
        distinct valid symbols, ``alpha`` and ``beta`` are lists of n weights
        of ``semiring``, ``mu`` maps the letters, in alphabet order, to n x n
        matrices of ``semiring``, and ``state_labels`` is None or a tuple of n
        strings.  The caller keeps no reference it later mutates.
        """
        aut = cls.__new__(cls)
        aut.semiring = semiring
        aut.alphabet = alphabet
        aut.n = n
        aut.alpha = alpha
        aut.beta = beta
        aut.mu = mu
        aut.state_labels = state_labels
        return aut

    @classmethod
    def from_arcs(cls, tag, alphabet, n, *, initial=(), final=(), arcs=(), labels=None):
        """Convenience constructor from (state, weight) and (src, letter, dst, weight) lists."""
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
        mu = {ch: TropicalMatrix(sr, n, rows[ch]) for ch in alphabet}
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
        among those that reach a final arrow (_coreachable_states).
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
        return [i for i in self._coreachable_states() if fwd[i]]

    def _coreachable_states(self) -> list:
        """The states from which some path reaches a final arrow, in increasing order.

        The backward half of _useful_states.  On an automaton that is
        accessible by construction, such as a product, it alone trims.
        """
        into = [[] for _ in range(self.n)]
        for mat in self.mu.values():
            for i, row in enumerate(mat.rows):
                for j in row:
                    into[j].append(i)
        bwd = [w is not None for w in self.beta]
        stack = [i for i, reached in enumerate(bwd) if reached]
        while stack:
            j = stack.pop()
            for i in into[j]:
                if not bwd[i]:
                    bwd[i] = True
                    stack.append(i)
        return [i for i, reached in enumerate(bwd) if reached]

    def _restrict(self, keep: list) -> "WeightedAutomaton":
        """The automaton on the states ``keep`` (increasing), renumbered in that order."""
        index = {old: new for new, old in enumerate(keep)}
        n = len(keep)
        alpha = [self.alpha[old] for old in keep]
        beta = [self.beta[old] for old in keep]
        mu = {}
        for ch, mat in self.mu.items():
            rows = [
                {index[j]: w for j, w in mat.rows[old].items() if j in index}
                for old in keep
            ]
            mu[ch] = TropicalMatrix._adopt(self.semiring, n, rows)
        labels = tuple(self.state_labels[old] for old in keep) if self.state_labels else None
        return WeightedAutomaton._adopt(self.semiring, self.alphabet, n, alpha, beta, mu, labels)

    def support(self) -> "BooleanAutomaton":
        """The Boolean automaton accepting exactly the words with nonzero coefficient."""
        initial = frozenset(i for i, w in enumerate(self.alpha) if w is not None)
        final = frozenset(i for i, w in enumerate(self.beta) if w is not None)
        delta = {}
        for ch, mat in self.mu.items():
            for i, row in enumerate(mat.rows):
                if row:
                    delta[(i, ch)] = frozenset(row)
        return BooleanAutomaton(self.alphabet, self.n, initial, final, delta)

    def negate(self) -> "WeightedAutomaton":
        """Negate every weight and flip max-plus <-> min-plus.

        Realizes the semiring isomorphism, so the result's series is the
        pointwise negation of this one's.
        """
        if self.semiring.tag == "max-plus":
            sr = MIN_PLUS
        elif self.semiring.tag == "min-plus":
            sr = MAX_PLUS
        else:
            raise TagMismatchError(f"cannot negate a {self.semiring.tag} automaton")
        alpha = [None if w is None else -w for w in self.alpha]
        beta = [None if w is None else -w for w in self.beta]
        mu = {
            ch: TropicalMatrix._adopt(
                sr, self.n, [{j: -w for j, w in row.items()} for row in mat.rows]
            )
            for ch, mat in self.mu.items()
        }
        return WeightedAutomaton._adopt(
            sr, self.alphabet, self.n, alpha, beta, mu, self.state_labels
        )

    def letter_sum(self) -> TropicalMatrix:
        """The entrywise semiring sum of all letter matrices."""
        if self.semiring.tag not in ("max-plus", "min-plus"):
            raise TagMismatchError(f"letter_sum is not defined for tag {self.semiring.tag!r}")
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
        """The support NFA as bitmasks: bit j of succ[letter][i] is an arc i -> j."""
        return _MaskNfa(
            _mask(i for i, w in enumerate(self.alpha) if w is not None),
            _mask(i for i, w in enumerate(self.beta) if w is not None),
            {ch: [_mask(row) for row in self.mu[ch].rows] for ch in self.alphabet},
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
    """
    bn = b.n
    letters = [(a.mu[ch].rows, b.mu[ch].rows) for ch in a.alphabet]
    seen = {
        p * bn + q
        for p, wa in enumerate(a.alpha) if wa is not None
        for q, wb in enumerate(b.alpha) if wb is not None
    }
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
                            seen.add(t)
                            stack.append(t)
    keys = sorted(seen)
    n = len(keys)
    index = {key: i for i, key in enumerate(keys)}
    pairs = [divmod(key, bn) for key in keys]
    mu = {}
    for ch, (arows, brows) in zip(a.alphabet, letters):
        rows = []
        for p, q in pairs:
            row = {}
            brow = brows[q]
            if brow:
                for r, w1 in arows[p].items():
                    base = r * bn
                    for s, w2 in brow.items():
                        row[index[base + s]] = combine(w1, w2)
            rows.append(row)
        mu[ch] = TropicalMatrix._adopt(semiring, n, rows)

    def arrows(va, vb):
        return [
            None if va[p] is None or vb[q] is None else combine(va[p], vb[q])
            for p, q in pairs
        ]

    la = [a.state_label(p) for p in range(a.n)]
    lb = [b.state_label(q) for q in range(bn)]
    labels = tuple(f"({la[p]},{lb[q]})" for p, q in pairs)
    product = WeightedAutomaton._adopt(
        semiring, a.alphabet, n, arrows(a.alpha, b.alpha), arrows(a.beta, b.beta), mu, labels
    )
    return product, pairs


def hadamard(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """Tensor product of representations; realizes the pointwise product of series.

    For every word w: eval(result, w) = eval(a, w) (x) eval(b, w).  Both
    automata must carry the same scalar tag (max-plus or min-plus) and the
    same alphabet.  Only the pairs (p, q) reachable from an initial pair are
    built, numbered in (p, q) order, so the result has at most a.n * b.n
    states.
    """
    if a.semiring.tag != b.semiring.tag:
        raise TagMismatchError(f"mixed tags: {a.semiring.tag} vs {b.semiring.tag}")
    if a.semiring.tag not in ("max-plus", "min-plus"):
        raise TagMismatchError(f"hadamard is not defined for tag {a.semiring.tag!r}")
    if a.alphabet != b.alphabet:
        raise AlphabetError("hadamard requires identical alphabets")
    return _accessible_product(a, b, a.semiring, operator.add)[0]


class BooleanAutomaton:
    """A plain NFA: the image of a weighted automaton under the Boolean projection."""

    __slots__ = ("alphabet", "n", "initial", "final", "delta")

    def __init__(self, alphabet, n: int, initial, final, delta):
        alphabet = tuple(alphabet)
        if n < 0:
            raise DimensionError("state count must be nonnegative")
        initial = frozenset(initial)
        final = frozenset(final)
        for s in initial | final:
            if not 0 <= s < n:
                raise DimensionError(f"state {s} out of range")
        clean = {}
        for (i, ch), targets in delta.items():
            if not 0 <= i < n:
                raise DimensionError(f"state {i} out of range")
            if ch not in alphabet:
                raise AlphabetError(f"unknown letter {ch!r} in transition relation")
            targets = frozenset(targets)
            for j in targets:
                if not 0 <= j < n:
                    raise DimensionError(f"state {j} out of range")
            if targets:
                clean[(i, ch)] = targets
        self.alphabet = alphabet
        self.n = n
        self.initial = initial
        self.final = final
        self.delta = clean

    def moves(self, state: int, letter: str) -> frozenset:
        return self.delta.get((state, letter), frozenset())

    def step(self, states, letter: str) -> frozenset:
        out = set()
        for s in states:
            out.update(self.delta.get((s, letter), ()))
        return frozenset(out)

    def _masks(self) -> "_MaskNfa":
        """This NFA as bitmasks: bit j of succ[letter][i] is a move i -> j."""
        succ = {ch: [0] * self.n for ch in self.alphabet}
        for (i, ch), targets in self.delta.items():
            succ[ch][i] = _mask(targets)
        return _MaskNfa(_mask(self.initial), _mask(self.final), succ)

    def accepts(self, word: str) -> bool:
        for ch in word:
            if ch not in self.alphabet:
                raise AlphabetError(f"symbol {ch!r} is not in the alphabet")
        cur = self.initial
        for ch in word:
            if not cur:
                return False
            cur = self.step(cur, ch)
        return bool(cur & self.final)

    def arcs(self):
        for (i, ch), targets in sorted(
            self.delta.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            for j in sorted(targets):
                yield i, ch, j

    def __eq__(self, other):
        if not isinstance(other, BooleanAutomaton):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.n == other.n
            and self.initial == other.initial
            and self.final == other.final
            and self.delta == other.delta
        )

    def __repr__(self):
        return (
            f"<BooleanAutomaton states={self.n} initial={sorted(self.initial)} "
            f"final={sorted(self.final)} arcs={sum(len(t) for t in self.delta.values())}>"
        )


# ---------------------------------------------------------------------------
# Subset exploration over bitmasks.
# ---------------------------------------------------------------------------


class _MaskNfa:
    """An NFA over states 0..n-1 as Python ints: bit i set means state i is in.

    ``succ`` maps each letter, in alphabet order, to the successor mask of
    every state.
    """

    __slots__ = ("initial", "final", "succ")

    def __init__(self, initial: int, final: int, succ: dict):
        self.initial = initial
        self.final = final
        self.succ = succ


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


def _explore(start, letters, step, stop=None, cap=None, what="subset exploration"):
    """Breadth-first search over the nodes reachable from ``start``.

    ``step(node, letter)`` is the successor of a node, or None for no move.
    Letters are tried in the order given, so the first path to each node
    spells the length-lex-first word that reaches it.  Returns (nodes,
    parents, moves, hit): the nodes in discovery order, ``start`` first;
    parents[i] = (index, letter) of the move that discovered node i (None for
    the start); moves[i] = {letter: index of the successor}; and hit = the
    index of the first node for which ``stop`` holds, where the search
    ended, or None.  Raises CapExceededError when more than ``cap`` nodes
    appear.
    """
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
                if cap is not None and len(nodes) >= cap:
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
    "BooleanAutomaton",
    "hadamard",
]
