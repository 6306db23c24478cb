"""Weighted automata as linear representations.

An automaton is a triple (alpha, mu, beta): an initial weight vector, one
square transition matrix per letter, kept as n row dicts {target: weight},
and a final weight vector, all over a single semiring tag.  States are dense
integers 0..n-1; initial and final weights play the role of
ingoing/outgoing arrows, so there are no designated initial/final state sets
at this level.

The subset engine ``_SubsetNfa`` has one loop per job: questions (universality,
equivalence, inclusion) walk pairs of subsets and return a witness word, and
constructions (the subset construction, weighted determinization) explore
subsets with ``_explore`` and return nodes and moves.

Everything here is pure: automata are immutable after construction and all
operations build new ones.
"""

from __future__ import annotations

import operator

from .errors import AlphabetError, CapExceededError, DimensionError, TagMismatchError, TwaError
from .semiring import MAX_PLUS, MIN_PLUS, Semiring, is_rational, semiring_for


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


def _require_max_plus(aut: "WeightedAutomaton", op: str) -> None:
    if aut.semiring is not MAX_PLUS:
        raise TagMismatchError(f"{op} requires a max-plus automaton, got {aut.semiring.tag}")


def _backward_order(into: list, u: list) -> list:
    """Breadth-first search backward from the finite entries of ``u``.

    Iterating ``into[j]`` gives the sources of the arcs into j.  Returns the
    states from which some arc path reaches a finite entry: those entries
    first, in increasing order, then the others in discovery order.
    """
    order = [j for j, uj in enumerate(u) if uj is not None]
    seen = [uj is not None for uj in u]
    for j in order:  # grows while it is walked: a breadth-first queue
        for i in into[j]:
            if not seen[i]:
                seen[i] = True
                order.append(i)
    return order


class _Rows:
    """What ``mu[ch]`` holds: the letter's n row dicts {target: weight}, as ``rows``.

    It stays only because the benchmark reads ``mu[ch].rows`` (and hands
    ``aut.mu`` back to the constructor); built only in WeightedAutomaton._take.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows


def _checked(sr: Semiring, alphabet, n: int, alpha: list, beta: list, rows: dict, state_labels):
    """Check parts built outside the library, rows {letter: list of row dicts} included.

    The one row check.  Raises AlphabetError, DimensionError or
    TagMismatchError for the first flaw, in the order of the tests below.
    Returns what _take sets, the alphabet and labels as tuples and the rows
    in alphabet order.
    """
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
    if set(rows) != set(alphabet):
        raise AlphabetError("every alphabet letter needs exactly one matrix")
    for vec in (alpha, beta):
        for i, w in enumerate(vec):
            if w is not None and not is_rational(w):
                raise TagMismatchError(f"vector entry {i}={w!r} is not a {sr.tag} weight")
    rows = {ch: rows[ch] for ch in alphabet}
    for ch, letter in rows.items():
        if len(letter) != n:
            raise DimensionError(f"mu[{ch!r}] has {len(letter)} rows, automaton has {n}")
        for i, row in enumerate(letter):
            for j, w in row.items():
                if not 0 <= j < n:
                    raise DimensionError(f"column {j} out of range in row {i}")
                if not is_rational(w):
                    raise TagMismatchError(f"entry ({i},{j})={w!r} is not a finite {sr.tag} weight")
    if state_labels is not None:
        state_labels = tuple(str(s) for s in state_labels)
        if len(state_labels) != n:
            raise DimensionError("state_labels must have length n")
    return alphabet, alpha, beta, rows, state_labels


class WeightedAutomaton:
    """A linear representation over max-plus or min-plus."""

    __slots__ = ("semiring", "alphabet", "n", "alpha", "beta", "mu", "state_labels")

    def __init__(self, tag, alphabet, n: int, alpha, beta, mu, state_labels=None):
        """``mu`` maps each letter to its n row dicts {target: weight}, or to an
        automaton's ``mu[ch]``.  Copies the rows, ``alpha`` and ``beta``, then checks them.
        """
        sr = semiring_for(tag)
        rows = {
            ch: [dict(row) for row in (letter.rows if isinstance(letter, _Rows) else letter)]
            for ch, letter in mu.items()
        }
        self._take(sr, *_checked(sr, alphabet, n, list(alpha), list(beta), rows, state_labels))

    @classmethod
    def _adopt(cls, semiring: Semiring, alphabet: tuple, alpha, beta, rows, state_labels):
        """Assemble an automaton from parts the library built, without copying or re-checking.

        The state count is n = len(alpha).  The caller guarantees what
        _checked checks: ``alphabet`` is a tuple of distinct valid symbols,
        ``alpha`` and ``beta`` are lists of n weights of ``semiring``,
        ``rows`` maps the letters, in alphabet order, to lists of n row dicts
        {target: weight} whose targets lie in range and whose weights are
        finite weights of ``semiring``, and ``state_labels`` is None or a
        tuple of n strings.  The caller keeps no reference it later mutates.
        """
        aut = cls.__new__(cls)
        aut._take(semiring, alphabet, alpha, beta, rows, state_labels)
        return aut

    def _take(self, semiring: Semiring, alphabet: tuple, alpha, beta, rows, state_labels):
        """Set every slot from parts that hold what _adopt's caller guarantees."""
        self.semiring = semiring
        self.alphabet = alphabet
        self.n = len(alpha)
        self.alpha = alpha
        self.beta = beta
        self.mu = {ch: _Rows(letter) for ch, letter in rows.items()}
        self.state_labels = state_labels

    @classmethod
    def from_arcs(cls, tag, alphabet, n, *, initial=(), final=(), arcs=(), labels=None):
        """Convenience constructor from (state, weight) and (src, letter, dst, weight) lists.

        Raises what ``__init__`` would raise for the same parts, in the same
        order (the rows go through the same _checked), but copies no row.
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
        return cls._adopt(sr, *_checked(sr, alphabet, n, alpha, beta, rows, labels))

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
            self.semiring is other.semiring
            and self.alphabet == other.alphabet
            and self.n == other.n
            and self.alpha == other.alpha
            and self.beta == other.beta
            and all(self.mu[ch].rows == other.mu[ch].rows for ch in self.alphabet)
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
            rows = self.mu[ch].rows
            y: dict = {}
            for i, xi in x.items():
                for j, w in rows[i].items():
                    y[j] = xi + w if j not in y else sr.plus(y[j], xi + w)
            x = y
        acc = None
        for i, xi in x.items():
            b = self.beta[i]
            if b is not None:
                acc = sr.plus(acc, xi + b)
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
        _backward_order, which also orders the relaxation of the potential
        in ``twa.decisions``).
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

    def letter_sum(self) -> list:
        """The entrywise semiring sum of all letter matrices, as n row dicts."""
        plus = self.semiring.plus
        letters = [self.mu[ch].rows for ch in self.alphabet]
        # the first letter's rows are copied whole, the others merged in
        rows = [dict(row) for row in letters[0]] if letters else [{} for _ in range(self.n)]
        for mrows in letters[1:]:
            for row, mrow in zip(rows, mrows):
                for j, w in mrow.items():
                    old = row.get(j)
                    row[j] = w if old is None else plus(old, w)
        return rows

    def _support_nfa(self) -> "_SubsetNfa":
        """The support NFA: the states with an initial or a final arrow, and every arc."""
        return _SubsetNfa.of(
            (i for i, w in enumerate(self.alpha) if w is not None),
            (i for i, w in enumerate(self.beta) if w is not None),
            {ch: self.mu[ch].rows for ch in self.alphabet},
        )


def _accessible_product(
    a: WeightedAutomaton, b: WeightedAutomaton, combine, reached=None
) -> tuple[WeightedAutomaton, list]:
    """The part of the product a x b reachable from its initial pairs, unlabelled.

    A pair (p, q) is initial when both initial weights are finite, and a
    joint arc (p, q) -x-> (r, s) exists when both p -x-> r and q -x-> s do;
    arrows and arcs weigh ``combine(wa, wb)``.  Only reached pairs are built.
    They are numbered in (p, q) order, so the result is the full grid with its
    unreachable pairs deleted, and trimming either gives the same automaton.
    Returns the product, in a's semiring, and the pair (p, q) of each of its states.

    Two phases: the first finds the reachable pairs, the second builds each
    row once, in the final numbering.  The pairs are read off ``reached``,
    groups (x, y) whose products x * y make up exactly the reachable pairs,
    when those hold at most min(a.n * b.n, DEFAULT_SUBSET_CAP) pairs in all;
    else a search from the initial pairs finds them.
    Raises CapExceededError("product", ...) past DEFAULT_SUBSET_CAP pairs.
    """
    cap = DEFAULT_SUBSET_CAP
    bn = b.n
    letters = [(a.mu[ch].rows, b.mu[ch].rows) for ch in a.alphabet]
    if reached is not None and sum(len(x) * len(y) for x, y in reached) <= min(a.n * bn, cap):
        seen = {p * bn + q for x, y in reached for p in x for q in y}
    else:
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

    product = WeightedAutomaton._adopt(
        a.semiring, a.alphabet, arrows(a.alpha, b.alpha), arrows(a.beta, b.beta), mu, None
    )
    return product, pairs


def _pair_labels(a: WeightedAutomaton, b: WeightedAutomaton, pairs) -> tuple:
    """The label "(label of p,label of q)" of each pair (p, q) of a product of a and b."""
    la = [a.state_label(p) for p in range(a.n)]
    lb = [b.state_label(q) for q in range(b.n)]
    return tuple(f"({la[p]},{lb[q]})" for p, q in pairs)


def hadamard(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """Tensor product of representations; realizes the pointwise product of series.

    For every word w: eval(result, w) = eval(a, w) (x) eval(b, w).  Both
    automata must carry the same tag and the same letters, in any order; the
    result has a's alphabet order.  Only the pairs (p, q) reachable from an
    initial pair are built, numbered in (p, q) order, so the result has at
    most a.n * b.n states; more than ``DEFAULT_SUBSET_CAP`` raise
    CapExceededError.
    """
    if a.semiring is not b.semiring:
        raise TagMismatchError(f"mixed tags: {a.semiring.tag} vs {b.semiring.tag}")
    _check_alphabets(a, b, "hadamard requires identical alphabets")
    product, pairs = _accessible_product(a, b, operator.add)
    product.state_labels = _pair_labels(a, b, pairs)
    return product


# ---------------------------------------------------------------------------
# Subset exploration over frozensets of states.
# ---------------------------------------------------------------------------

DEFAULT_SUBSET_CAP = 1_000_000

_EMPTY = frozenset()  # the targets of every state without an arc on a letter


class _SubsetNfa:
    """An NFA over states 0..n-1 whose subsets are frozensets of states.

    The one owner of subsets: other modules build it from sparse states
    (``of``) and get back words, state lists and move tables.
    ``succ`` maps each letter, in alphabet order, to the frozenset of targets
    of every state, so memory grows with the arcs and the subsets walked.
    Questions (universality, equivalence, inclusion) walk pairs of subsets in
    ``walk``, and ``subsets`` explores subsets on ``_explore``.  Both go
    breadth-first in alphabet order, so every witness is the length-lex-first word.
    """

    __slots__ = ("initial", "final", "succ")

    def __init__(self, initial: frozenset, final: frozenset, succ: dict):
        self.initial = initial
        self.final = final
        self.succ = succ

    @classmethod
    def of(cls, initial_states, final_states, targets: dict) -> "_SubsetNfa":
        """``targets`` maps each letter, in alphabet order, to an iterable of targets per state."""
        succ = {ch: [frozenset(r) if r else _EMPTY for r in rows] for ch, rows in targets.items()}
        return cls(frozenset(initial_states), frozenset(final_states), succ)

    def compare(self, other: "_SubsetNfa", inclusion: bool, what: str):
        """The first word accepted here and not by ``other`` (inclusion), or by
        exactly one of them (equivalence); None when there is none.  See ``walk``.
        """
        return self.walk(other, inclusion, what)[0]

    def walk(self, other: "_SubsetNfa", inclusion: bool, what: str, cap=None):
        """``compare``'s witness, and the pairs of subsets walked: with no
        witness, every pair (A(w), B(w)) that a word w reaches.

        Breadth-first in this NFA's alphabet order, ``other``'s letters read
        by name, with no move table.  A one-state subset steps to its stored
        set.  Raises CapExceededError(what, cap) past ``cap`` pairs, by
        default ``DEFAULT_SUBSET_CAP`` read at call time.
        """
        cap = DEFAULT_SUBSET_CAP if cap is None else cap
        afinal, bfinal = self.final, other.final
        letters = [(ch, asucc, other.succ[ch]) for ch, asucc in self.succ.items()]
        start = (self.initial, other.initial)
        parents = {start: None}
        walked = [start]
        for pair in walked:  # the list grows as the walk goes
            x, y = pair
            accepted = not afinal.isdisjoint(x)
            if accepted != (not bfinal.isdisjoint(y)) and (accepted or not inclusion):
                word = []  # read back along the parents to the start
                while parents[pair] is not None:
                    pair, ch = parents[pair]
                    word.append(ch)
                return "".join(reversed(word)), walked
            p = next(iter(x)) if len(x) == 1 else None
            q = next(iter(y)) if len(y) == 1 else None
            for ch, asucc, bsucc in letters:
                nxt = (
                    asucc[p] if p is not None else _EMPTY.union(*[asucc[s] for s in x]),
                    bsucc[q] if q is not None else _EMPTY.union(*[bsucc[s] for s in y]),
                )
                if nxt not in parents:
                    if len(walked) >= cap:
                        raise CapExceededError(what, cap)
                    parents[nxt] = (pair, ch)
                    walked.append(nxt)
        return None, walked

    def subsets(self, cap: int):
        """The accessible subset construction.

        Returns (members, accepting, moves): per subset, its states in
        increasing order, whether one is final, and {letter: successor index}.
        The empty subset is left out, except as the start subset of an NFA
        with no initial state, which then has one subset, empty, and no move.
        Raises CapExceededError("subset construction", cap) past ``cap`` subsets.
        """
        final, succ = self.final, self.succ
        nodes, moves = _explore(
            self.initial, list(succ), lambda node, ch: _post(node, succ[ch]) or None, cap,
            "subset construction",
        )
        accepting = [not final.isdisjoint(node) for node in nodes]
        return [sorted(node) for node in nodes], accepting, moves


def _post(subset: frozenset, succ: list) -> frozenset:
    """The states reached from the states of ``subset`` by one move in ``succ``.

    A one-state subset gets its stored successor set back, whose hash is
    then computed once however often it is reached.
    """
    if len(subset) == 1:
        (state,) = subset
        return succ[state]
    return _EMPTY.union(*[succ[s] for s in subset])


def _explore(start, letters, step, cap: int, what: str):
    """Breadth-first search over the nodes reachable from ``start``.

    ``step(node, letter)`` is the successor of a node, or None for no move.
    It is called once per node and letter: nodes in discovery order, letters
    in the order given.  Returns (nodes, moves): the nodes in discovery
    order, ``start`` first, and moves[i] = {letter: index of the successor}.
    Raises CapExceededError(what, cap) when more than ``cap`` nodes appear,
    and ValueError for a ``cap`` below 1.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    nodes = [start]
    index = {start: 0}
    moves: list = [{}]
    for node, row in zip(nodes, moves):  # both lists grow as the search goes
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
                moves.append({})
            row[ch] = target
    return nodes, moves


__all__ = [
    "WeightedAutomaton",
    "hadamard",
]
