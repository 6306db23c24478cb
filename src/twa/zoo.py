"""Ready-made automata used by the demos and the test corpus."""

from __future__ import annotations

from math import gcd

from .automaton import WeightedAutomaton, hadamard
from .errors import TwaError
from .semiring import MAX_PLUS, MIN_PLUS, Semiring, semiring_for


def letter_count_max(letters=("a", "b")) -> WeightedAutomaton:
    """Max-plus automaton for w -> max over letters of the letter count.

    One state per letter; the state for x pays 1 on x and 0 on everything
    else, so each branch accumulates one letter's count and the automaton
    takes the maximum.
    """
    letters = tuple(letters)
    n = len(letters)
    arcs = []
    for state, own in enumerate(letters):
        for ch in letters:
            arcs.append((state, ch, state, 1 if ch == own else 0))
    every = [(i, 0) for i in range(n)]
    return WeightedAutomaton.from_arcs(
        MAX_PLUS, letters, n, initial=every, final=every, arcs=arcs
    )


def divisibility_series(period: int, bonus, tag, letter: str = "a") -> WeightedAutomaton:
    """One-letter series: a^n -> bonus when period | n, zero otherwise.

    A plain cycle of ``period`` states with weight-0 arcs and a single final
    arrow of weight ``bonus`` at the start state.  Works for either scalar tag.
    """
    if period < 1:
        raise TwaError("period must be positive")
    arcs = [(i, letter, (i + 1) % period, 0) for i in range(period)]
    return WeightedAutomaton.from_arcs(
        semiring_for(tag), (letter,), period, initial=[(0, 0)], final=[(0, bonus)], arcs=arcs
    )


def _direct_sum(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """Disjoint union; adds the two series (pointwise max or min per the tag)."""
    if a.semiring is not b.semiring or a.alphabet != b.alphabet:
        raise TwaError("direct sum needs matching tags and alphabets")
    shift = a.n
    initial = [(i, w) for i, w in enumerate(a.alpha) if w is not None]
    initial += [(i + shift, w) for i, w in enumerate(b.alpha) if w is not None]
    final = [(i, w) for i, w in enumerate(a.beta) if w is not None]
    final += [(i + shift, w) for i, w in enumerate(b.beta) if w is not None]
    arcs = list(a.arcs())
    arcs += [(src + shift, ch, dst + shift, w) for src, ch, dst, w in b.arcs()]
    return WeightedAutomaton.from_arcs(
        a.semiring, a.alphabet, a.n + b.n, initial=initial, final=final, arcs=arcs
    )


def _cycle_with_finals(length: int, finals, tag, letter: str = "a") -> WeightedAutomaton:
    arcs = [(i, letter, (i + 1) % length, 0) for i in range(length)]
    return WeightedAutomaton.from_arcs(
        semiring_for(tag), (letter,), length, initial=[(0, 0)], final=sorted(finals.items()), arcs=arcs
    )


def _divisor_series(p: int, q: int, tag, native: Semiring) -> WeightedAutomaton:
    """One-letter series: a^n -> the best d in {p,q} with d | n, zero when neither divides.

    The best is the plus of ``native``: max for MAX_PLUS, min for MIN_PLUS.
    Over ``native`` this is the disjoint union of two cycles (p + q states);
    over the other tag the same series needs the deterministic product cycle
    of p*q states, whose final weights spell out the best by hand.
    """
    if gcd(p, q) != 1:
        raise TwaError("divisors must be coprime")
    sr = semiring_for(tag)
    if sr is native:
        return _direct_sum(
            divisibility_series(p, p, sr), divisibility_series(q, q, sr)
        )
    finals = {0: native.plus(p, q)}
    for i in range(1, q):
        finals[i * p % (p * q)] = p
    for j in range(1, p):
        finals[j * q % (p * q)] = q
    return _cycle_with_finals(p * q, finals, sr)


def divisor_max_series(p: int, q: int, tag) -> WeightedAutomaton:
    """a^n -> max(d in {p,q} with d | n): p + q states over max-plus, p*q over min-plus."""
    return _divisor_series(p, q, tag, MAX_PLUS)


def divisor_min_series(r: int, s: int, tag) -> WeightedAutomaton:
    """a^n -> min(d in {r,s} with d | n): r + s states over min-plus, r*s over max-plus."""
    return _divisor_series(r, s, tag, MIN_PLUS)


def prime_period_pair(p: int = 2, q: int = 3, r: int = 5, s: int = 7):
    """A (max-plus, min-plus) pair of automata for the same one-letter series.

    The series is the pointwise sum of "best divisor among {p,q}" and
    "cheapest divisor among {r,s}" (zero when either factor has none), built
    as tensor products.  Dimensions are at most (p+q)*r*s for the max-plus
    automaton and p*q*(r+s) for the min-plus one, with equality when every
    period on one side is coprime to every period on the other; the value
    sequence is periodic with period p*q*r*s.
    """
    tmax = hadamard(divisor_max_series(p, q, MAX_PLUS), divisor_min_series(r, s, MAX_PLUS))
    tmin = hadamard(divisor_max_series(p, q, MIN_PLUS), divisor_min_series(r, s, MIN_PLUS))
    return tmax, tmin


def prime_period_value(n: int, p: int = 2, q: int = 3, r: int = 5, s: int = 7):
    """Closed form for the series of prime_period_pair at a^n (None = zero)."""
    first = max((d for d in (p, q) if n % d == 0), default=None)
    second = min((d for d in (r, s) if n % d == 0), default=None)
    if first is None or second is None:
        return None
    return first + second


def sample_equivalent_pair():
    """A 2-state max-plus and 2-state min-plus automaton over {a,b} with equal series.

    The pair is genuinely nondeterministic on the max side, so the equality
    is not word-by-word obvious; it exercises the full decision machinery and
    the disambiguation pipeline on something human-sized.
    """
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        ("a", "b"),
        2,
        initial=[(0, 0)],
        final=[(0, 0), (1, 1)],
        arcs=[
            (0, "a", 1, 1),
            (0, "b", 0, 1),
            (1, "a", 0, 1),
            (1, "a", 1, 0),
            (1, "b", 0, 2),
            (1, "b", 1, 1),
        ],
        labels=("A", "B"),
    )
    bmin = WeightedAutomaton.from_arcs(
        MIN_PLUS,
        ("a", "b"),
        2,
        initial=[(0, 0)],
        final=[(0, 0)],
        arcs=[
            (0, "a", 0, 2),
            (0, "a", 1, 1),
            (0, "b", 0, 1),
            (1, "a", 0, 1),
            (1, "b", 1, 3),
        ],
        labels=("A", "B"),
    )
    return amax, bmin


__all__ = [
    "letter_count_max",
    "divisibility_series",
    "divisor_max_series",
    "divisor_min_series",
    "prime_period_pair",
    "prime_period_value",
    "sample_equivalent_pair",
]
