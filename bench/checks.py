"""Exact checks of every operation's outcome, run outside the timed intervals.

Each check compares an outcome with the answer its input was built to have:
verdicts must match, every NO witness must fail its property exactly under
``eval``, and output automata must agree with their inputs (or with the
closed form ``zoo.prime_period_value``) word by word.  A mismatch raises
CheckError, which makes the benchmark exit nonzero.
"""

from __future__ import annotations

import re
from math import factorial

import twa
from twa import CapExceededError, Decision, WeightedAutomaton, oracle, zoo


class CheckError(Exception):
    """An operation returned a wrong answer."""


def _expect(result, kind):
    if not isinstance(result, kind):
        raise CheckError(f"expected {kind.__name__}, got {result!r}")
    return result


def is_failure(result) -> bool:
    """An operation failed when it raised (a CLI run: exit code 2 or 3)."""
    if isinstance(result, BaseException):
        return True
    return getattr(result, "rc", 0) >= 2


def fingerprint(result):
    """An exact, comparable image of an outcome; later passes must repeat the first."""
    if isinstance(result, WeightedAutomaton):
        return twa.serialize(result)
    if isinstance(result, BaseException):
        return type(result).__name__, str(result)
    if hasattr(result, "rc"):
        text = None
        if result.output is not None and result.rc == 0:
            with open(result.output, encoding="utf-8") as handle:
                text = handle.read()
        return result.rc, result.out, result.err, text
    return tuple(result)


# -- word samples ------------------------------------------------------------


def sample_words(rnd, letters, count, maxlen):
    """``count`` uniform random words with lengths 0..maxlen."""
    return ["".join(rnd.choice(letters) for _ in range(rnd.randint(0, maxlen))) for _ in range(count)]


def support_words(rnd, aut: WeightedAutomaton, count, maxlen):
    """Words of the support of ``aut``: of ``count`` random walks, a prefix that
    ends at a final state, for each walk that visits one."""
    initial = [i for i, w in enumerate(aut.alpha) if w is not None]
    words = []
    for _ in range(count):
        state, letters, ends = rnd.choice(initial), [], []
        for _ in range(maxlen + 1):
            if aut.beta[state] is not None:
                ends.append("".join(letters))
            moves = [(ch, j) for ch in aut.alphabet for j in sorted(aut.mu[ch].rows[state])]
            if not moves:
                break
            ch, state = rnd.choice(moves)
            letters.append(ch)
        if ends:
            words.append(rnd.choice(ends))
    return words


# -- verdicts ----------------------------------------------------------------


def _verdict(result, holds) -> Decision:
    verdict = _expect(result, Decision)
    if verdict.holds != holds:
        raise CheckError(f"verdict {verdict.holds}, expected {holds}")
    if not holds and not isinstance(verdict.witness, str):
        raise CheckError(f"negative verdict without a witness word: {verdict.witness!r}")
    return verdict


def verdict_true(result) -> int:
    _verdict(result, True)
    return 0


def nonpositive_witness(result, aut) -> int:
    word = _verdict(result, False).witness
    value = aut.eval(word)
    if value is None or value <= 0:
        raise CheckError(f"witness {word!r} has value {value}, not > 0")
    return 0


def const_verdict(result, aut, const, holds, group_order) -> int:
    """Constant test on a permutation automaton.  With ``group_order`` k the
    all-words test walks the transition monoid S_k, and a cap hit is the
    correct outcome exactly when k! exceeds the cap."""
    if isinstance(result, CapExceededError) and group_order is not None:
        if factorial(group_order) <= result.cap:
            raise CheckError(f"cap {result.cap} hit, but the monoid has only {group_order}! elements")
        return 0
    verdict = _verdict(result, holds)
    if not holds:
        value = aut.eval(verdict.witness)
        if value == const:
            raise CheckError(f"witness {verdict.witness!r} has the constant value {const}")
    return 0


def series_equal(result, amax, bmin, holds) -> int:
    verdict = _verdict(result, holds)
    if not holds:
        word = verdict.witness
        if amax.eval(word) == bmin.eval(word):
            raise CheckError(f"NOT-EQUAL witness {word!r} has equal values")
    return 0


def series_leq(result, amax, bmin, holds) -> int:
    verdict = _verdict(result, holds)
    if not holds:
        word = verdict.witness
        s, t = amax.eval(word), bmin.eval(word)
        if s is None or (t is not None and s <= t):
            raise CheckError(f"NOT-LEQ witness {word!r} has {s} <= {t}")
    return 0


# -- output automata ---------------------------------------------------------


def fatou_output(result, source, words) -> int:
    out = _expect(result, WeightedAutomaton)
    if out.n != source.trim().n:
        raise CheckError(f"{out.n} states, trimmed input has {source.trim().n}")
    weights = [w for w in out.alpha + out.beta if w is not None]
    weights += [w for _, _, _, w in out.arcs()]
    if any(w > 0 for w in weights):
        raise CheckError("renormalized automaton has a positive weight")
    for word in words:
        if out.eval(word) != source.eval(word):
            raise CheckError(f"renormalization changed the value of {word!r}")
    return out.n


def unambiguous_output(result, amax, bmin, words) -> int:
    out = _expect(result, WeightedAutomaton)
    for word in words:
        value = out.eval(word)
        if not value == amax.eval(word) == bmin.eval(word):
            raise CheckError(f"output disagrees with the inputs on {word!r}")
        paths = oracle.ambiguity(out, word)
        if paths != (0 if value is None else 1):
            raise CheckError(f"{paths} successful paths on {word!r}")
    return out.n


# -- CLI runs ------------------------------------------------------------------


def cli_equal(run) -> int:
    if (run.rc, run.out.strip()) != (0, "EQUAL"):
        raise CheckError(f"expected EQUAL, got exit {run.rc}: {run.out.strip()!r} {run.err.strip()!r}")
    return 0


def cli_not_equal(run, amax, bmin) -> int:
    match = re.fullmatch(r"NOT-EQUAL witness=(\S+)", run.out.strip())
    if run.rc != 1 or match is None:
        raise CheckError(f"expected NOT-EQUAL, got exit {run.rc}: {run.out.strip()!r}")
    word = "" if match[1] == '""' else match[1]
    if amax.eval(word) == bmin.eval(word):
        raise CheckError(f"NOT-EQUAL witness {word!r} has equal values")
    return 0


def _one_letter_profile(aut: WeightedAutomaton, length):
    """(value, number of successful paths) of a^n for n = 0..length, by forward vectors."""
    rows = aut.mu[aut.alphabet[0]].rows
    best = {i: w for i, w in enumerate(aut.alpha) if w is not None}
    count = {i: 1 for i in best}
    for _ in range(length + 1):
        finals = [i for i in best if aut.beta[i] is not None]
        yield max((best[i] + aut.beta[i] for i in finals), default=None), sum(count[i] for i in finals)
        nbest, ncount = {}, {}
        for i, x in best.items():
            for j, w in rows[i].items():
                if j not in nbest or x + w > nbest[j]:
                    nbest[j] = x + w
                ncount[j] = ncount.get(j, 0) + count[i]
        best, count = nbest, ncount


def prime_pipeline(run, pqrs) -> int:
    """The unambiguous automaton equals the closed form on a^n for n <= p*q*r*s."""
    if run.rc != 0 or run.out:
        raise CheckError(f"pipeline exit {run.rc}: {run.out.strip()!r} {run.err.strip()!r}")
    out = twa.load(run.output)
    if out.semiring.tag != "max-plus":
        raise CheckError(f"pipeline wrote a {out.semiring.tag} automaton")
    p, q, r, s = pqrs
    for n, (value, paths) in enumerate(_one_letter_profile(out, p * q * r * s)):
        if value != zoo.prime_period_value(n, *pqrs):
            raise CheckError(f"a^{n} has value {value}, expected {zoo.prime_period_value(n, *pqrs)}")
        if paths != (0 if value is None else 1):
            raise CheckError(f"a^{n} has {paths} successful paths")
    return out.n
