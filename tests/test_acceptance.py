"""Acceptance suite.

Six end-to-end criteria, each with its stated exact tolerance and runtime
budget; one PASS/FAIL line is printed per criterion (run with `pytest -s` to
see them on success).
"""

import pathlib
import random
import time
from contextlib import contextmanager

import pytest

from corpus import one_letter, power_star, random_automaton, random_matrix, random_trim_nonpositive
from twa import (
    MAX_PLUS,
    PositiveCycleError,
    WeightedAutomaton,
    decide_equal_const,
    decide_nonpositive,
    decide_series_equal,
    fatou_normalize,
    max_mean_cycle,
    zoo,
)
from twa.cli import main
from twa.format import load
from twa.oracle import (
    equal_upto,
    eval_bruteforce,
    max_ambiguity_upto,
    simple_circuits,
    values_upto,
    words_upto,
)
from twa.spectral import _backward_search, _relax

DATA = pathlib.Path(__file__).parent / "data"
AMAX = str(DATA / "amax.twa")
BMIN = str(DATA / "bmin.twa")


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"CRITERION {number} ({description}): FAIL (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"CRITERION {number} ({description}): PASS ({elapsed:.2f}s)")


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _isomorphic(a, b):
    import itertools

    if (a.n, a.alphabet, a.semiring.tag) != (b.n, b.alphabet, b.semiring.tag):
        return False
    for perm in itertools.permutations(range(a.n)):
        if (
            all(a.alpha[i] == b.alpha[perm[i]] for i in range(a.n))
            and all(a.beta[i] == b.beta[perm[i]] for i in range(a.n))
            and all(
                a.mu[ch].rows[i].get(j) == b.mu[ch].rows[perm[i]].get(perm[j])
                for ch in a.alphabet
                for i in range(a.n)
                for j in range(a.n)
            )
        ):
            return True
    return False


def test_criterion_1_two_letter_walkthrough(capsys, tmp_path):
    """Demo pair: equality, the expected 1-valued automaton, the full pipeline."""
    expected_one_valued = WeightedAutomaton.from_arcs(
        MAX_PLUS,
        "ab",
        4,
        initial=[(0, 0)],
        final=[(0, 0), (2, 1)],
        arcs=[
            (0, "a", 2, 1), (0, "a", 3, 1), (0, "b", 0, 1),
            (1, "a", 2, 1),
            (2, "a", 1, 1), (2, "b", 0, 2), (2, "b", 2, 1),
            (3, "a", 0, 1), (3, "a", 2, 0), (3, "b", 1, 2),
        ],
    )
    with criterion(1, "two-letter walkthrough", 1.0):
        code, out = _run_cli(capsys, "equal", AMAX, BMIN)
        assert (code, out.strip()) == (0, "EQUAL")

        one_valued_path = tmp_path / "onevalued.twa"
        code, _ = _run_cli(capsys, "onevalued", AMAX, BMIN, "-o", str(one_valued_path))
        assert code == 0
        one_valued = load(one_valued_path)
        assert one_valued.n == 4
        assert one_valued.trim() == one_valued
        assert _isomorphic(one_valued, expected_one_valued)

        pipeline_path = tmp_path / "pipeline.twa"
        code, _ = _run_cli(capsys, "pipeline", AMAX, BMIN, "-o", str(pipeline_path))
        assert code == 0
        result = load(pipeline_path)
        amax, bmin = load(AMAX), load(BMIN)
        assert equal_upto(result, amax, 10).holds
        assert equal_upto(result, bmin, 10).holds
        assert max_ambiguity_upto(result, 10)[0] <= 1


def test_criterion_2_one_letter_prime_series(capsys, tmp_path):
    """The 175-state / 72-state one-letter pair: equality, values, periodicity."""
    with criterion(2, "one-letter prime-period series", 30.0):
        tmax, tmin = zoo.prime_period_pair(2, 3, 5, 7)
        assert (tmax.n, tmin.n) == (175, 72)

        max_path = tmp_path / "tmax.twa"
        min_path = tmp_path / "tmin.twa"
        from twa.format import save

        save(tmax, max_path)
        save(tmin, min_path)
        code, out = _run_cli(capsys, "equal", str(max_path), str(min_path))
        assert (code, out.strip()) == (0, "EQUAL")

        one_valued_path = tmp_path / "onevalued.twa"
        code, _ = _run_cli(
            capsys, "onevalued", str(max_path), str(min_path), "-o", str(one_valued_path)
        )
        assert code == 0
        one_valued = load(one_valued_path)
        assert one_valued.n <= tmax.n * tmin.n

        values = [one_valued.eval("a" * n) for n in range(421)]
        expected = [zoo.prime_period_value(n) for n in range(421)]
        assert values == expected  # includes 8 at 0, 7 at 10, 9 at 14, zero at 6
        assert values[0] == 8 and values[10] == 7 and values[14] == 9
        assert values[6] is None
        assert all(values[n] == values[n + 210] for n in range(211))


def _relaxed(mat, beta):
    """The production potential u = M*beta, M given as row dicts, relaxed to its fixpoint."""
    u = list(beta)
    for _ in _relax(*_backward_search([mat], u), u):
        pass
    return u


def test_criterion_3_spectral_correctness():
    """Cycle means against exhaustive circuit enumeration; the potential against powers."""
    with criterion(3, "spectral correctness", 10.0):
        rng = random.Random(33033)
        star_exercised = 0
        for _ in range(200):
            mat = random_matrix(rng, nmax=6, lo=-5, hi=5, zero_p=0.45)
            expected = max(
                (mean for _, mean in simple_circuits(one_letter(mat))), default=None
            )
            rho = max_mean_cycle(one_letter(mat))
            assert rho == expected
            n = len(mat)
            if rho is not None and rho > 0:
                with pytest.raises(PositiveCycleError):
                    _relaxed(mat, [0] * n)
                continue
            # column j of the star is the potential of the unit vector at j
            star = power_star(mat)
            for j in range(n):
                unit = [None] * n
                unit[j] = 0
                assert _relaxed(mat, unit) == [row.get(j) for row in star]
            star_exercised += 1
        assert star_exercised >= 40


def test_criterion_4_fatou_property():
    """100 nonpositive automata renormalize onto weights <= 0, same series."""
    with criterion(4, "renormalization onto nonpositive weights", 30.0):
        rng = random.Random(44044)
        for _ in range(100):
            aut = random_trim_nonpositive(rng, decide_nonpositive)
            result = fatou_normalize(aut)
            assert result.n == aut.trim().n
            assert all(w is None or w <= 0 for w in result.alpha)
            assert all(w is None or w <= 0 for w in result.beta)
            for _, _, _, w in result.arcs():
                assert w <= 0
            assert equal_upto(result, aut, 8).holds


def test_criterion_5_decision_soundness():
    """Random corpus: verdicts agree with the bounded oracle; witnesses check exactly."""
    with criterion(5, "decision-procedure soundness", 60.0):
        rng = random.Random(55055)
        corpus = [random_automaton(rng, max_states=4, alphabet="ab") for _ in range(200)]
        # sprinkle in shapes that actually reach the positive verdicts
        from corpus import as_min_plus_copy, random_deterministic_automaton

        constants = [
            WeightedAutomaton.from_arcs(
                MAX_PLUS, "ab", 1, initial=[(0, 0)], final=[(0, c)],
                arcs=[(0, "a", 0, 0), (0, "b", 0, 0)],
            )
            for c in (-1, 0, 2)
        ]
        for aut in corpus:
            verdict = decide_nonpositive(aut)
            if verdict.holds:
                for _, value in values_upto(aut, 8):
                    assert value is None or value <= 0
            else:
                value = aut.eval(verdict.witness)
                assert value is not None and value > 0

        for aut in corpus[:60] + constants:
            for c in (0, 2):
                verdict = decide_equal_const(aut, c)
                if verdict.holds:
                    for _, value in values_upto(aut, 8):
                        assert value == c
                else:
                    assert aut.eval(verdict.witness) != c

        dets = [random_deterministic_automaton(rng, max_states=4) for _ in range(40)]
        for i, amax in enumerate(corpus[:60]):
            bmin = as_min_plus_copy(corpus[(i + 1) % len(corpus)])
            verdict = decide_series_equal(amax, bmin)
            if verdict.holds:
                assert equal_upto(amax, bmin, 8).holds
            else:
                w = verdict.witness
                assert amax.eval(w) != bmin.eval(w)
        for det in dets:
            bmin = as_min_plus_copy(det)
            assert decide_series_equal(det, bmin).holds
            assert equal_upto(det, bmin, 8).holds


def test_criterion_6_letter_count_series():
    """The 2-state automaton for max(#a, #b) evaluates to the closed form."""
    with criterion(6, "max letter-count series", 10.0):
        aut = zoo.letter_count_max(("a", "b"))
        assert aut.n == 2
        for word in words_upto("ab", 8):
            expected = max(word.count("a"), word.count("b"))
            assert aut.eval(word) == expected
            assert eval_bruteforce(aut, word) == expected
