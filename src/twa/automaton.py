"""Weighted automata as linear representations.

An automaton is a triple (alpha, mu, beta): an initial weight vector, one
square transition matrix per letter, kept as n row dicts {target: weight},
and a final weight vector, all over a single semiring tag.  States are dense
integers 0..n-1; initial and final weights play the role of
ingoing/outgoing arrows, so there are no designated initial/final state sets
at this level.

The subset engine ``_SubsetNfa`` has one loop per job: questions (universality,
equivalence, inclusion) walk pairs of subsets in ``walk`` and return a witness
word, and constructions (the subset construction, weighted determinization)
explore nodes with ``_explore`` and return them with the letter rows that an
automaton is assembled from.  It reads the rows of targets where they lie,
without a copy: a support NFA's are the automaton's own row dicts, the zero
filter's are its lists.

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


class _Rows:
    """What ``mu[ch]`` holds: the letter's n row dicts {target: weight}, as ``rows``.

    It stays only because the benchmark reads ``mu[ch].rows`` (and hands
    ``aut.mu`` back to the constructor); built only in WeightedAutomaton._take.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows


def _check_count(n) -> None:
    if type(n) is not int:  # like a state index: not a bool, float or string
        raise DimensionError(f"state count {n!r} is not an int")


def _checked(sr: Semiring, alphabet, n: int, alpha: list, beta: list, rows: dict, state_labels):
    """Check parts built outside the library, rows {letter: list of row dicts} included.

    The one row check.  Raises AlphabetError, DimensionError or
    TagMismatchError for the first flaw, in the order of the tests below.
    Returns what _take sets, the alphabet and labels as tuples and the rows
    in alphabet order, uncopied.
    """
    _check_count(n)
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
    if not isinstance(rows, dict) or set(rows) != set(alphabet):
        raise AlphabetError("mu must be a dict with exactly one matrix per alphabet letter")
    for vec in (alpha, beta):
        for i, w in enumerate(vec):
            if w is not None and not is_rational(w):
                raise TagMismatchError(f"vector entry {i}={w!r} is not a {sr.tag} weight")
    rows = {ch: rows[ch].rows if isinstance(rows[ch], _Rows) else rows[ch] for ch in alphabet}
    for ch, letter in rows.items():
        if not isinstance(letter, (list, tuple)):
            raise DimensionError(f"mu[{ch!r}] is not a list of rows")
        if len(letter) != n:
            raise DimensionError(f"mu[{ch!r}] has {len(letter)} rows, automaton has {n}")
        for i, row in enumerate(letter):
            if not isinstance(row, dict):  # dict() would read a list of pairs as a row
                raise DimensionError(f"row {i} of mu[{ch!r}] is not a dict")
            for j, w in row.items():
                if type(j) is not int or not 0 <= j < n:
                    raise DimensionError(f"column {j!r} in row {i} is not an int in range({n})")
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
        automaton's ``mu[ch]``.  Checks the parts, then copies the rows.
        """
        sr = semiring_for(tag)
        alphabet, alpha, beta, rows, labels = _checked(
            sr, alphabet, n, list(alpha), list(beta), mu, state_labels
        )
        rows = {ch: [dict(row) for row in letter] for ch, letter in rows.items()}
        self._take(sr, alphabet, alpha, beta, rows, labels)

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
        _check_count(n)
        alphabet = tuple(alphabet)
        alpha = [None] * n
        beta = [None] * n
        rows = {ch: [dict() for _ in range(n)] for ch in alphabet}

        def _check_state(i):
            if type(i) is not int or not 0 <= i < n:
                raise DimensionError(f"state {i!r} is not an int in range({n})")

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
        """The states on some successful path, in increasing order: those that
        an initial arrow reaches and that reach a final arrow.

        One forward search from the initial arrows lists, as it goes, the
        predecessors of each state along the arcs it follows, so it reads
        each arc once; ``_reach`` then runs backward along those lists from
        the final arrows that the forward search met.  Every state it finds
        is therefore reached from an initial arrow too.
        """
        n = self.n
        letters = [mat.rows for mat in self.mu.values()]
        into = [[] for _ in range(n)]
        fwd = [False] * n
        stack = [i for i, w in enumerate(self.alpha) if w is not None]
        for i in stack:
            fwd[i] = True
        while stack:
            i = stack.pop()
            for rows in letters:
                for j in rows[i]:
                    into[j].append(i)
                    if not fwd[j]:
                        fwd[j] = True
                        stack.append(j)
        finals = (j for j, w in enumerate(self.beta) if w is not None and fwd[j])
        bwd = _reach(finals, [into], n)
        return [i for i in range(n) if bwd[i]]

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
        """The support NFA: the states with an initial or a final arrow, and every arc.

        A view, not a copy: its rows are this automaton's own row dicts,
        whose keys are the targets.
        """
        return _SubsetNfa.of(
            (i for i, w in enumerate(self.alpha) if w is not None),
            (i for i, w in enumerate(self.beta) if w is not None),
            {ch: self.mu[ch].rows for ch in self.alphabet},
        )


def _reach(starts, letters, n: int) -> list:
    """n flags: True for each of the states 0..n-1 that ``starts`` reach.

    ``letters`` lists row lists, ``rows[i]`` iterating over the states that
    state i steps to: the predecessor lists of a trim's backward half, or the
    zero filter's lists, on which the pipeline counts its 1-valued states.
    The states in ``starts`` reach themselves.
    """
    seen = [False] * n
    stack = []
    for i in starts:
        if not seen[i]:
            seen[i] = True
            stack.append(i)
    while stack:
        i = stack.pop()
        for rows in letters:
            for j in rows[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    return seen


def _pair_numbering(a: WeightedAutomaton, b: WeightedAutomaton, reached=None) -> dict:
    """The one numbering of a product's states: {p * b.n + q: number} for the
    pairs (p, q) that an initial pair (both initial weights finite) reaches
    in a x b, where (p, q) steps to (r, s) on x when p -x-> r and q -x-> s,
    numbered in (p, q) order.  The pairs are read off ``reached``, groups
    (x, y) whose products x * y make up exactly the reachable pairs, when
    those hold at most min(a.n * b.n, DEFAULT_SUBSET_CAP) pairs in all, and
    ``reached`` is then emptied; else a search from the initial pairs finds
    them.  Raises CapExceededError("product", ...) past DEFAULT_SUBSET_CAP pairs.
    """
    cap = DEFAULT_SUBSET_CAP
    bn = b.n
    if reached is not None and sum(len(x) * len(y) for x, y in reached) <= min(a.n * bn, cap):
        seen = {p * bn + q for x, y in reached for p in x for q in y}
        reached.clear()
    else:
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
    del seen
    return dict(zip(keys, range(len(keys))))


def _product_arrows(a: WeightedAutomaton, b: WeightedAutomaton, pairs: list, op) -> tuple:
    """(alpha, beta) of the product on ``pairs``: op(wa, wb) where both are finite."""
    return tuple(
        [None if va[p] is None or vb[q] is None else op(va[p], vb[q]) for p, q in pairs]
        for va, vb in ((a.alpha, b.alpha), (a.beta, b.beta))
    )


def _accessible_product(a: WeightedAutomaton, b: WeightedAutomaton, reached=None) -> tuple:
    """The row emitter, the sum product: a x b on the pairs of _pair_numbering,
    in a's semiring, labelled by _pair_labels, and the pair (p, q) of each of
    its states.  ``hadamard`` and the covering build their products here.

    A joint arc (p, q) -x-> (r, s) exists when both p -x-> r and q -x-> s
    do; arrows and arcs weigh wa + wb.  Each row is built once, in the final
    numbering, so the result is the full grid with its unreachable pairs
    deleted, and trimming either gives the same automaton.
    """
    index = _pair_numbering(a, b, reached)
    bn = b.n
    pairs = [divmod(key, bn) for key in index]
    mu = {}
    for ch in a.alphabet:
        arows, brows = a.mu[ch].rows, b.mu[ch].rows
        mu[ch] = rows = []
        for p, q in pairs:
            row = {}
            brow = brows[q]
            if brow:
                for r, w1 in arows[p].items():
                    base = r * bn
                    for s, w2 in brow.items():
                        row[index[base + s]] = w1 + w2
            rows.append(row)
    alpha, beta = _product_arrows(a, b, pairs, operator.add)
    labels = tuple(_pair_labels(a, b, pairs))
    return WeightedAutomaton._adopt(a.semiring, a.alphabet, alpha, beta, mu, labels), pairs


def _product_predecessors(a: WeightedAutomaton, b: WeightedAutomaton, reached=None) -> tuple:
    """The list emitter, the difference product: a x b on the pairs of
    _pair_numbering, arrows and arcs weighing wa - wb, as (pairs, alpha, beta,
    into), in one pass over its arcs, with no row: ``into`` lists the arcs into
    each state as (source, weight, letter), by increasing source, then in a's
    alphabet order, the predecessor lists that the equality kernel reads."""
    index = _pair_numbering(a, b, reached)
    bn = b.n
    pairs = [divmod(key, bn) for key in index]
    letters = [(ch, a.mu[ch].rows, b.mu[ch].rows) for ch in a.alphabet]
    into = [[] for _ in pairs]
    for i, (p, q) in enumerate(pairs):
        for ch, arows, brows in letters:
            brow = brows[q]
            if brow:
                for r, w1 in arows[p].items():
                    base = r * bn
                    for s, w2 in brow.items():
                        into[index[base + s]].append((i, w1 - w2, ch))
    return (pairs, *_product_arrows(a, b, pairs, operator.sub), into)


def _pair_labels(a: WeightedAutomaton, b: WeightedAutomaton, pairs):
    """The labels "(label of p,label of q)" of the pairs (p, q) of a product of a and b, lazily."""
    la = [a.state_label(p) for p in range(a.n)]
    lb = [b.state_label(q) for q in range(b.n)]
    return (f"({la[p]},{lb[q]})" for p, q in pairs)


def hadamard(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """Tensor product of representations; realizes the pointwise product of series.

    For every word w: eval(result, w) = eval(a, w) (x) eval(b, w).  Both
    automata must carry the same tag and the same letters, in any order; the
    result has a's alphabet order.  Only the pairs (p, q) reachable from an
    initial pair are built, numbered in (p, q) order and labelled
    "(label of p,label of q)", so the result has at most a.n * b.n states;
    more than ``DEFAULT_SUBSET_CAP`` raise CapExceededError.
    """
    if a.semiring is not b.semiring:
        raise TagMismatchError(f"mixed tags: {a.semiring.tag} vs {b.semiring.tag}")
    _check_alphabets(a, b, "hadamard requires identical alphabets")
    return _accessible_product(a, b)[0]


# ---------------------------------------------------------------------------
# Subset exploration over frozensets of states.
# ---------------------------------------------------------------------------

DEFAULT_SUBSET_CAP = 1_000_000

_EMPTY = frozenset()  # the empty subset, into which a subset's rows are united


class _SubsetNfa:
    """An NFA over states 0..n-1 whose subsets are frozensets of states.

    The one owner of subsets: other modules build it from sparse states
    (``of``) and get back words, state lists and letter rows.
    ``succ`` maps each letter, in alphabet order, to the targets of every
    state, kept as given: an automaton's row dicts, whose keys are the
    targets, or the zero filter's lists.  So memory grows with the subsets
    walked, not with the arcs.
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
        """``targets`` maps each letter, in alphabet order, to a collection of
        targets per state; it becomes ``succ`` as it is, so no row is copied."""
        return cls(frozenset(initial_states), frozenset(final_states), targets)

    def walk(self, other: "_SubsetNfa", inclusion: bool, what: str, cap=None):
        """(witness, walked): the first word accepted here and not by ``other``
        (inclusion), or by exactly one of them (equivalence), or None when
        there is none; and the pairs of subsets walked, so with no witness
        every pair (A(w), B(w)) that a word w reaches.

        Breadth-first in this NFA's alphabet order, ``other``'s letters read
        by name, building no rows.  A one-state subset steps to
        ``frozenset(row)`` of its state's row, a larger one to the union of
        its states' rows.  Raises CapExceededError(what, cap)
        past ``cap`` pairs, by default ``DEFAULT_SUBSET_CAP`` read at call time.
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
                    frozenset(asucc[p]) if p is not None else _EMPTY.union(*[asucc[s] for s in x]),
                    frozenset(bsucc[q]) if q is not None else _EMPTY.union(*[bsucc[s] for s in y]),
                )
                if nxt not in parents:
                    if len(walked) >= cap:
                        raise CapExceededError(what, cap)
                    parents[nxt] = (pair, ch)
                    walked.append(nxt)
        return None, walked

    def subsets(self, cap: int):
        """The accessible subset construction.

        Returns (members, accepting, rows): per subset, its states in
        increasing order and whether one is final, and the letter rows of
        ``_explore``, in which every arc weighs 0.  The empty subset is left
        out, except as the start subset of an NFA with no initial state,
        which then has one subset, empty, and no move.
        Raises CapExceededError("subset construction", cap) past ``cap`` subsets.
        """
        final, succ = self.final, self.succ

        def step(node, ch):
            nxt = _post(node, succ[ch])
            return (nxt, 0) if nxt else None

        nodes, rows = _explore(self.initial, succ, step, cap, "subset construction")
        accepting = [not final.isdisjoint(node) for node in nodes]
        return [sorted(node) for node in nodes], accepting, rows


def _post(subset: frozenset, succ: list) -> frozenset:
    """The states reached from the states of ``subset`` by one move in ``succ``.

    A one-state subset steps to ``frozenset`` of its state's row, which
    skips the union's call; ``walk`` inlines the same shortcut.
    """
    if len(subset) == 1:
        (state,) = subset
        return frozenset(succ[state])
    return _EMPTY.union(*[succ[s] for s in subset])


def _check_cap(cap, name: str) -> None:
    """The one check of a cap given to the library, named ``name`` in the errors.

    Like a state, a cap is an int, not a bool, float or string: TypeError
    otherwise, and ValueError below 1.
    """
    if type(cap) is not int:
        raise TypeError(f"{name} must be an int, got {cap!r}")
    if cap < 1:
        raise ValueError(f"{name} must be at least 1, got {cap!r}")


def _explore(start, letters, step, cap: int, what: str):
    """Breadth-first search over the nodes reachable from ``start``.

    ``step(node, letter)`` is (successor, weight) for the node's move on the
    letter, or None for no move.  It is called once per node and letter:
    nodes in discovery order, letters in the order given.  Returns (nodes,
    rows): the nodes in discovery order, ``start`` first, and
    rows[letter][i] = {index of the successor: weight}, or {} for no move,
    the letter rows that ``WeightedAutomaton._adopt`` takes.
    Raises CapExceededError(what, cap) when more than ``cap`` nodes appear,
    and, before the search, what _check_cap raises for ``cap``.
    """
    _check_cap(cap, "cap")
    nodes = [start]
    index = {start: 0}
    rows = {ch: [] for ch in letters}
    for node in nodes:  # the list grows as the search goes
        for ch, out in rows.items():
            move = step(node, ch)
            row = {}
            if move is not None:
                nxt, weight = move
                target = index.get(nxt)
                if target is None:
                    if len(nodes) >= cap:
                        raise CapExceededError(what, cap)
                    target = index[nxt] = len(nodes)
                    nodes.append(nxt)
                row[target] = weight
            out.append(row)
    return nodes, rows


__all__ = [
    "WeightedAutomaton",
    "hadamard",
]
