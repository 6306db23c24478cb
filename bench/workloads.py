"""The four workloads: seeded inputs with known answers, and one pass of operations.

Every generator draws from ``random.Random(seed)``, and the shape of the
nonpos-large and const-perm instances from ``random.Random(size)``, so a seed
fixes the inputs exactly.  Each instance is built so that its answer is known without
running the library: equal series come from construction (conjugation by a
hidden potential, dominated copies), unequal ones from a perturbation whose
effect on some word is provable.  The checks in ``checks.py`` compare every
result against that answer.

Operations call the library through module attributes (``decisions.f``,
``cli.main``) looked up at call time, so the span wrappers of a traced run
see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

import twa
import twa.cli as cli
import twa.decisions as decisions
import twa.disambiguation as disambiguation
from twa import MAX_PLUS, MIN_PLUS, WeightedAutomaton, zoo

import checks

# Input sizes named by the workload definitions.  SMOKE holds the tiny sizes
# of the harness's own test; a monoid cap there makes the cap path show up.
SIZES = {
    "prime-pipeline": {"pairs": [(2, 3, 5, 7), (3, 4, 5, 7)]},
    "nonpos-large": {"states": [200, 400, 800]},
    "const-perm": {"ks": [6, 7, 8, 9, 10], "monoid_cap": None},
    "random-pairs": {"pairs": 64, "states": (10, 40)},
}
SMOKE = {
    "prime-pipeline": {"pairs": [(2, 3, 5, 7)]},
    "nonpos-large": {"states": [12, 30]},
    "const-perm": {"ks": [4, 5], "monoid_cap": 100},
    "random-pairs": {"pairs": 4, "states": (3, 6)},
}

# The seconds of a run that one untraced pass counts for: a run of S seconds
# makes round(S / PASS_SECONDS) passes, at least two, whatever the speed of
# the code, so that faster code gets no more samples than slower code.  Near
# the length of a pass at the seed commit on a shared 2-core virtual machine
# (Python 3.11), except on nonpos-large: its passes take about 8 s, and four
# of them give each multi-second operation four calls.
PASS_SECONDS = {
    "prime-pipeline": 1.0,
    "nonpos-large": 5.0,
    "const-perm": 13.0,
    "random-pairs": 3.0,
}

CONST = 3


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` (outside the timing) raises
    CheckError on a wrong outcome and returns the states of the output automaton.
    ``repeat`` is the number of back-to-back calls per untraced pass, fixed by
    the workload so that operations of about a millisecond get enough samples
    in runs of few passes."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], int]
    repeat: int = 1


@dataclass
class CliRun:
    rc: int
    out: str
    err: str
    output: str | None  # the -o file, read back by the checks


def _cli(*argv, output=None):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return CliRun(rc, out.getvalue(), err.getvalue(), output)

    return call


def _lib(module, name, *args):
    """Call ``module.name(*args)``, looking the name up at call time."""
    return lambda: getattr(module, name)(*args)


def _conjugate(tag, letters, n, initial, final, arcs, h) -> WeightedAutomaton:
    """Diagonal conjugation by the potential h; every path weight telescopes,
    so the series is unchanged while single weights get both signs."""
    return WeightedAutomaton.from_arcs(
        tag,
        letters,
        n,
        initial=[(i, w - h[i]) for i, w in sorted(initial.items())],
        final=[(i, w + h[i]) for i, w in sorted(final.items())],
        arcs=[(i, ch, j, w + h[i] - h[j]) for (i, ch, j), w in sorted(arcs.items())],
    )


def _relabel(label, initial, final, arcs):
    """The same automaton with state i renamed label[i]."""
    return (
        {label[i]: w for i, w in initial.items()},
        {label[i]: w for i, w in final.items()},
        {(label[i], ch, label[j]): w for (i, ch, j), w in arcs.items()},
    )


def _hop_path(arcs, source, target):
    """Fewest-arc path from ``source`` to ``target``, as a list of arc keys."""
    out = {}
    for key in sorted(arcs):
        out.setdefault(key[0], []).append(key)
    prev = {source: None}
    queue = deque([source])
    while target not in prev:
        u = queue.popleft()
        for key in out.get(u, ()):
            if key[2] not in prev:
                prev[key[2]] = key
                queue.append(key[2])
    path = []
    while prev[target] is not None:
        path.append(prev[target])
        target = prev[target][0]
    return path[::-1]


# ---------------------------------------------------------------------------
# prime-pipeline: the CLI on the prime-period pairs.
# ---------------------------------------------------------------------------


def _lower_one_final(aut: WeightedAutomaton, rnd) -> WeightedAutomaton:
    """Lower one finite final weight of a min-plus automaton by 1.

    In the prime-period min-plus automaton every final state is reached by a
    word on which it is the only accepting path, so the series changes."""
    finals = [i for i, w in enumerate(aut.beta) if w is not None]
    target = rnd.choice(finals)
    beta = [w - 1 if i == target else w for i, w in enumerate(aut.beta)]
    return WeightedAutomaton(aut.semiring, aut.alphabet, aut.n, aut.alpha, beta, aut.mu)


def prime_pipeline(seed, workdir, sizes):
    rnd = random.Random(seed)
    ops = []
    for pqrs in sizes["pairs"]:
        amax, bmin = zoo.prime_period_pair(*pqrs)
        bad = _lower_one_final(bmin, rnd)
        name = "-".join(map(str, pqrs))
        paths = {}
        for key, aut in (("max", amax), ("min", bmin), ("bad", bad)):
            paths[key] = os.path.join(workdir, f"{key}-{name}.twa")
            twa.save(aut, paths[key])
        out = os.path.join(workdir, f"unambiguous-{name}.twa")
        ops += [
            Op(f"equal {name}", _cli("equal", paths["max"], paths["min"]), checks.cli_equal),
            Op(
                f"pipeline {name}",
                _cli("pipeline", paths["max"], paths["min"], "-o", out, output=out),
                partial(checks.prime_pipeline, pqrs=pqrs),
            ),
            Op(
                f"equal-perturbed {name}",
                _cli("equal", paths["max"], paths["bad"]),
                partial(checks.cli_not_equal, amax=amax, bmin=bad),
            ),
        ]
    return ops


# ---------------------------------------------------------------------------
# nonpos-large: random trim automata, nonpositive behind a hidden potential.
# ---------------------------------------------------------------------------


def _random_nonpositive(rnd, n):
    """Nonpositive weights on a strongly connected graph over {a,b}.

    Letter a contains the ring i -> i+1, so every state is reachable and
    co-reachable; each state has 3 targets per letter."""
    arcs = {}
    for i in range(n):
        for ch in "ab":
            targets = {(i + 1) % n} if ch == "a" else set()
            while len(targets) < min(3, n):
                targets.add(rnd.randrange(n))
            for j in sorted(targets):
                arcs[(i, ch, j)] = rnd.randint(-4, 0)
    initial = {i: rnd.randint(-3, 0) for i in rnd.sample(range(n), 2)}
    final = {i: rnd.randint(-3, 0) for i in rnd.sample(range(n), max(2, n // 20))}
    return initial, final, arcs


def nonpos_instances(rnd, n):
    """(true instance, false instance, kind of the false one) with n states.

    The graph and its weights are drawn from n alone; the seed relabels the
    states and conjugates by a random potential, so every seed gives the
    same series and the same work on the true instance, whose cost depends
    on the graph much more than on its size.  The false instance raises one
    arc (closing a cycle of weight 10n) or one final arrow (to 10n); every
    path of fewer than n arcs weighs more than -5n, so a positive word
    appears within a few letters."""
    initial, final, arcs = _relabel(rnd.sample(range(n), n), *_random_nonpositive(random.Random(n), n))
    h = [rnd.randint(-20, 20) for _ in range(n)]
    good = _conjugate(MAX_PLUS, "ab", n, initial, final, arcs, h)
    kind = rnd.choice(("cycle", "arrow"))
    if kind == "cycle":
        key = rnd.choice(sorted(arcs))
        back = _hop_path(arcs, key[2], key[0])
        arcs = dict(arcs)
        arcs[key] = 10 * n - sum(arcs[k] for k in back)
    else:
        final = dict(final)
        final[rnd.randrange(n)] = 10 * n
    bad = _conjugate(MAX_PLUS, "ab", n, initial, final, arcs, h)
    return good, bad, kind


def nonpos_large(seed, workdir, sizes):
    rnd = random.Random(seed)
    ops = []
    for n in sizes["states"]:
        good, bad, kind = nonpos_instances(rnd, n)
        words = checks.sample_words(rnd, "ab", 8, 16)
        # the 200-state calls take about 0.2 s and hold the median operation
        repeat = 5 if n <= 200 else 1
        ops += [
            Op(f"nonpositive n={n} true", _lib(decisions, "decide_nonpositive", good), checks.verdict_true, repeat),
            Op(
                f"fatou n={n}",
                _lib(decisions, "fatou_normalize", good),
                partial(checks.fatou_output, source=good, words=words),
                repeat,
            ),
            Op(
                f"nonpositive n={n} false-{kind}",
                _lib(decisions, "decide_nonpositive", bad),
                partial(checks.nonpositive_witness, aut=bad),
                repeat,
            ),
        ]
    return ops


# ---------------------------------------------------------------------------
# const-perm: constant series on permutation automata generating S_k.
# ---------------------------------------------------------------------------


def perm_instance(rnd, k, lowered):
    """Letters a (the transposition (0 1)) and b (the k-cycle) generate S_k.

    Every word has one weight-0 path from state 0, ending at a state with
    final weight CONST; k dominated extra arcs (weight <= -1) add only
    cheaper paths.  ``lowered`` drops one final arrow by 1, so the words
    ending there (every state is reached) have value CONST - 1 or less.

    The extra arcs, their weights and the lowered arrow depend on k alone;
    the seed relabels the states and conjugates by a random potential, so
    every seed gives the same series and the same work."""
    swap = list(range(k))
    swap[0], swap[1] = 1, 0
    arcs = {}
    for i in range(k):
        arcs[(i, "a", swap[i])] = 0
        arcs[(i, "b", (i + 1) % k)] = 0
    shape = random.Random(k)
    while len(arcs) < 3 * k:
        key = (shape.randrange(k), shape.choice("ab"), shape.randrange(k))
        if key not in arcs:
            arcs[key] = -shape.randint(1, 3)
    final = {i: CONST for i in range(k)}
    if lowered:
        final[shape.randrange(k)] = CONST - 1
    label = rnd.sample(range(k), k)
    h = [rnd.randint(-10, 10) for _ in range(k)]
    return _conjugate(MAX_PLUS, "ab", k, *_relabel(label, {0: 0}, final, arcs), h)


def const_perm(seed, workdir, sizes):
    rnd = random.Random(seed)
    cap = sizes["monoid_cap"]
    extra = () if cap is None else (cap,)
    ops = []
    for k in sizes["ks"]:
        for lowered in (False, True):
            aut = perm_instance(rnd, k, lowered)
            truth = "false" if lowered else "true"
            ops += [
                Op(
                    f"equal-const k={k} {truth}",
                    _lib(decisions, "decide_equal_const", aut, CONST, *extra),
                    partial(checks.const_verdict, aut=aut, const=CONST, holds=not lowered, group_order=k),
                    repeat=10 if k <= 7 else 1,  # S_7 has 5,040 elements, S_8 40,320
                ),
                Op(
                    f"equal-const-on-support k={k} {truth}",
                    _lib(decisions, "decide_equal_const_on_support", aut, CONST),
                    partial(checks.const_verdict, aut=aut, const=CONST, holds=not lowered, group_order=None),
                    repeat=10,
                ),
            ]
    return ops


# ---------------------------------------------------------------------------
# random-pairs: small equivalent pairs and perturbed unequal ones.
# ---------------------------------------------------------------------------


def _random_deterministic(rnd, n):
    """A trim deterministic partial automaton over {a,b,c} with n states:
    (initial, final, arcs).  Letter a follows a random cycle through all
    states, so the automaton is strongly connected and trim as drawn; b and c
    have an arc from each state with probability 0.8."""
    order = rnd.sample(range(n), n)
    arcs = {(i, "a", j): rnd.randint(-5, 5) for i, j in zip(order, order[1:] + order[:1])}
    for i in range(n):
        for ch in "bc":
            if rnd.random() < 0.8:
                arcs[(i, ch, rnd.randrange(n))] = rnd.randint(-5, 5)
    final = {i: rnd.randint(-5, 5) for i in range(n) if rnd.random() < 0.4}
    final.setdefault(order[-1], rnd.randint(-5, 5))
    return {0: rnd.randint(-5, 5)}, final, arcs


def random_pair(rnd, n, perturbed):
    """(amax, bmin, kind): amax is a deterministic d plus a copy of d whose
    weights are lowered by 0 or 1, reached also by a few cross arcs, so it is
    ambiguous with the series of d, and the paths that tie with d's survive
    into the 1-valued automaton; bmin is d conjugated by a random potential,
    read as min-plus.

    A perturbation lowers one arc or final weight of bmin by 1, or deletes one
    arc; d is trim, so some word uses that arc and gets T(w) < S(w) or leaves
    the support of T: NOT-EQUAL and NOT-LEQ."""
    initial, final, arcs = _random_deterministic(rnd, n)
    amax_arcs = dict(arcs)
    for (i, ch, j), w in sorted(arcs.items()):
        amax_arcs[(i + n, ch, j + n)] = w - rnd.randint(0, 1)
        if rnd.random() < 0.3:
            amax_arcs[(i, ch, j + n)] = w - rnd.randint(0, 1)
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS, "abc", 2 * n,
        initial=sorted(initial.items()) + [(i + n, w - rnd.randint(0, 1)) for i, w in sorted(initial.items())],
        final=sorted(final.items()) + [(i + n, w - rnd.randint(0, 1)) for i, w in sorted(final.items())],
        arcs=[(i, ch, j, w) for (i, ch, j), w in sorted(amax_arcs.items())],
    )
    kind = "equal"
    if perturbed:
        kind = rnd.choice(("lower-arc", "lower-final", "delete-arc"))
        arcs, final = dict(arcs), dict(final)
        if kind == "lower-final":
            state = rnd.choice(sorted(final))
            final[state] -= 1
        else:
            key = rnd.choice(sorted(arcs))
            if kind == "lower-arc":
                arcs[key] -= 1
            else:
                del arcs[key]
    h = [rnd.randint(-10, 10) for _ in range(n)]
    bmin = _conjugate(MIN_PLUS, "abc", n, initial, final, arcs, h)
    return amax, bmin, kind


def random_pairs(seed, workdir, sizes):
    rnd = random.Random(seed)
    low, high = sizes["states"]
    ops = []
    count = sizes["pairs"]
    for index in range(count):
        # sizes spread evenly over the range, so seeds differ in structure only
        perturbed = index % 2 == 1
        n = low + (high - low) * (index // 2) // max(1, (count - 1) // 2)
        amax, bmin, kind = random_pair(rnd, n, perturbed)
        name = f"#{index} {kind} {amax.n}/{bmin.n}"
        pair = dict(amax=amax, bmin=bmin)
        ops += [
            Op(f"series-equal {name}", _lib(decisions, "decide_series_equal", amax, bmin),
               partial(checks.series_equal, holds=not perturbed, **pair)),
            Op(f"series-leq {name}", _lib(decisions, "decide_series_leq", amax, bmin),
               partial(checks.series_leq, holds=not perturbed, **pair)),
        ]
        if not perturbed:
            words = checks.support_words(rnd, bmin, 20, 12) + checks.sample_words(rnd, "abc", 10, 8)
            ops.append(
                Op(f"unambiguous {name}", _lib(disambiguation, "unambiguous_from_pair", amax, bmin),
                   partial(checks.unambiguous_output, words=words, **pair))
            )
    return ops


WORKLOADS = {
    "prime-pipeline": prime_pipeline,
    "nonpos-large": nonpos_large,
    "const-perm": const_perm,
    "random-pairs": random_pairs,
}
