"""The golden corpus: one SHA-256 per exact outcome of the library and the CLI.

    python tests/golden/regenerate.py [MANIFEST]

rewrites ``tests/golden/manifest.json`` (or MANIFEST) from the current code;
it needs no pytest.  ``tests/test_golden.py`` regenerates the same outcomes
and names each one that differs from the manifest.  Rewrite the manifest
only for an intended change of outcome, and record that change.

The outcomes are:

- every operation of the gated benchmark workloads, prime-pipeline and
  random-pairs, and of the constant tests of const-perm, at seeds 1 to 3,
  built by ``bench/workloads.py``;
- ``twa rho`` on every automaton of ``twa.zoo``, read in both tags;
- ``twa pipeline`` on an example whose branch ``--subset-cap`` chooses, with
  the default cap and with a cap of 2;
- the all-words constant test on an example that needs 5 subsets, through
  the library and through ``twa equal-const``, with caps of 5 and 4;
- the equality kernel on 152 seeded pairs (``_kernel_pairs``):
  ``decide_series_equal``, ``decide_series_leq`` and
  ``unambiguous_from_pair``.  The pairs are built from ``tests/corpus.py``
  and ``twa.zoo`` so that between them they reach inputs that are not
  trim, YES products with states that reach no final arrow, NOs that the
  forward pass finds and NOs that pump a circuit, equal pairs of an
  unambiguous automaton read in both tags and of its duplicate union, and
  both branches of the pipeline;
- on 300 draws of ``tests/corpus.py``'s ``random_automaton``:
  ``decide_nonpositive``, ``fatou_normalize`` serialized, and
  ``decide_equal_const`` with constant 0 at caps 1, 2, 3 and the default.
  The even draws have weights in {-1, 0}, so that the series is nonpositive
  and the all-words walk answers YES or meets its cap; the odd ones keep
  the default weights, so that they pin NO witnesses, pumped ones included.

The bytes of an outcome are the repr of ``bench/checks.fingerprint``: a CLI
run's exit code, stdout, stderr and ``-o`` file, a library result serialized,
an exception's type and message.  The manifest keeps each outcome's name and
the SHA-256 of its bytes, and its verdict and witness verbatim when they are
short.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
MANIFEST = pathlib.Path(__file__).with_name("manifest.json")
for _path in (ROOT / "bench", ROOT / "src", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402  (bench/checks.py)
import corpus  # noqa: E402  (tests/corpus.py)
import workloads  # noqa: E402  (bench/workloads.py)

import twa  # noqa: E402
from twa import MAX_PLUS, MIN_PLUS, Decision, TwaError, WeightedAutomaton, zoo  # noqa: E402

WORKLOADS = ("prime-pipeline", "random-pairs", "const-perm")
SEEDS = (1, 2, 3)
SHORT = 64  # the longest verdict or witness kept verbatim

# The weighted subset construction of this automaton's 1-valued automaton
# needs 3 states, so a cap of 2 makes the pipeline write the covering.
SUBSET_CAP_EXAMPLE = ROOT / "tests" / "data" / "subset_cap.twa"

# Every word of this S_5 permutation automaton has value CONST, and the
# all-words test walks 5 subsets to see it, so a cap of 4 stops it.
UNIVERSALITY_EXAMPLE = (5, False)
UNIVERSALITY_CAPS = (5, 4)

# The random slice: draws 0..RANDOM_DRAWS-1, and the caps of its constant
# tests (None for the default).
RANDOM_DRAWS = 300
RANDOM_CAPS = (1, 2, 3, None)


def retagged(aut: WeightedAutomaton, semiring) -> WeightedAutomaton:
    """The same arrows and arcs read in ``semiring``."""
    rows = {ch: aut.mu[ch].rows for ch in aut.alphabet}
    return WeightedAutomaton(semiring, aut.alphabet, aut.n, aut.alpha, aut.beta, rows, aut.state_labels)


def _zoo():
    """(name, automaton) for every kind of automaton ``twa.zoo`` builds."""
    yield "letter_count_max()", zoo.letter_count_max()
    yield "divisibility_series(4, 3, max-plus)", zoo.divisibility_series(4, 3, MAX_PLUS)
    for sr in (MAX_PLUS, MIN_PLUS):
        yield f"divisor_max_series(2, 3, {sr.tag})", zoo.divisor_max_series(2, 3, sr)
        yield f"divisor_min_series(5, 7, {sr.tag})", zoo.divisor_min_series(5, 7, sr)
    for name, build in (("prime_period_pair", zoo.prime_period_pair), ("sample_equivalent_pair", zoo.sample_equivalent_pair)):
        amax, bmin = build()
        yield f"{name}()[0]", amax
        yield f"{name}()[1]", bmin


# The kernel slice: KERNEL_DRAWS seeded draws, cycling through KERNEL_KINDS,
# then the zoo's pairs.
KERNEL_KINDS = ("deterministic", "duplicate", "branches", "lowered", "long", "nonsequential", "random")
KERNEL_DRAWS = 140


def _branches(d, e):
    """d behind a first letter a and e behind a first letter b: unambiguous
    when d and e are, and the product of its two readings has pairs that
    reach no final arrow, such as the two initial states' (d's, e's)."""
    shift = d.n + 1
    initial = [(0, 0), (shift, 0)]
    final = [(i + 1, w) for i, w in enumerate(d.beta) if w is not None]
    final += [(i + 1 + shift, w) for i, w in enumerate(e.beta) if w is not None]
    arcs = [(0, "a", i + 1, w) for i, w in enumerate(d.alpha) if w is not None]
    arcs += [(shift, "b", i + 1 + shift, w) for i, w in enumerate(e.alpha) if w is not None]
    arcs += [(s + 1, ch, t + 1, w) for s, ch, t, w in d.arcs()]
    arcs += [(s + 1 + shift, ch, t + 1 + shift, w) for s, ch, t, w in e.arcs()]
    return WeightedAutomaton.from_arcs(MAX_PLUS, "ab", shift + 1 + e.n, initial=initial, final=final, arcs=arcs)


def _moved(aut, rng, delta=0, start=0):
    """``aut`` with every arc moved by ``delta`` and every initial arrow by
    ``start``, then one arc or final arrow, drawn by ``rng``, lowered by 1 to 3
    when ``delta`` is 0."""
    initial = [(i, w + start) for i, w in enumerate(aut.alpha) if w is not None]
    final = [(i, w) for i, w in enumerate(aut.beta) if w is not None]
    arcs = [(s, ch, t, w + delta) for s, ch, t, w in aut.arcs()]
    if not delta:
        parts = arcs if arcs and rng.random() < 0.7 else final
        k = rng.randrange(len(parts))
        parts[k] = parts[k][:-1] + (parts[k][-1] - rng.randint(1, 3),)
    return WeightedAutomaton.from_arcs(aut.semiring, aut.alphabet, aut.n, initial=initial, final=final, arcs=arcs)


def _nonsequential(rng):
    """``corpus.nonsequential_pair`` with drawn weights: f(a^n b) and f(a^n c)
    grow at two different rates, so no weighted determinization ends."""
    x, y = rng.sample(range(-3, 4), 2)
    amax = WeightedAutomaton.from_arcs(
        MAX_PLUS, "abc", 4,
        initial=[(0, rng.randint(-2, 2)), (1, rng.randint(-2, 2))],
        final=[(2, rng.randint(-2, 2)), (3, rng.randint(-2, 2))],
        arcs=[(0, "a", 0, x), (0, "b", 2, rng.randint(-2, 2)), (1, "a", 1, y), (1, "c", 3, rng.randint(-2, 2))],
    )
    return amax, corpus.as_min_plus_copy(amax)


def _kernel_pair(kind, rng):
    """One (max-plus, min-plus) pair of the kind ``kind``, drawn by ``rng``."""
    if kind == "nonsequential":
        return _nonsequential(rng)
    if kind == "random":
        return corpus.random_automaton(rng, 4), corpus.random_automaton(rng, 4, tag=MIN_PLUS)
    d = corpus.random_deterministic_automaton(rng, max_states=5)
    if kind == "deterministic":  # often not trim
        return d, corpus.as_min_plus_copy(d)
    if kind == "duplicate":
        return corpus.duplicate_union(d), corpus.as_min_plus_copy(d)
    if kind == "branches":
        e = corpus.random_deterministic_automaton(rng, max_states=4)
        amax = _branches(d, e)
        return amax, corpus.as_min_plus_copy(amax)
    if kind == "lowered":  # S > T on the words through the lowered arc or arrow
        return d, corpus.as_min_plus_copy(_moved(d, rng))
    # long: S - T = |w| - k, so the first positive words are longer than the product
    return d, corpus.as_min_plus_copy(_moved(d, rng, -1, d.n + rng.randint(0, 3)))


def _zoo_pairs():
    """(name, pair) for the pairs of equal series that ``twa.zoo`` builds, and
    each with one final arrow of its min-plus side lowered by 1."""
    rng = random.Random(0)
    pairs = [("sample_equivalent_pair()", zoo.sample_equivalent_pair()), ("prime_period_pair(2, 3, 3, 5)", zoo.prime_period_pair(2, 3, 3, 5))]
    for p, q in ((2, 3), (3, 4)):
        for name, build in (("divisor_max_series", zoo.divisor_max_series), ("divisor_min_series", zoo.divisor_min_series)):
            pairs.append((f"{name}({p}, {q})", (build(p, q, MAX_PLUS), build(p, q, MIN_PLUS))))
    for name, (amax, bmin) in pairs:
        yield name, (amax, bmin)
        yield f"{name} lowered", (amax, _moved(bmin, rng))


def _kernel_pairs():
    """(name, pair) for every pair of the kernel slice."""
    for i in range(KERNEL_DRAWS):
        kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
        yield f"kernel draw={i} {kind}", _kernel_pair(kind, random.Random(i))
    for name, pair in _zoo_pairs():
        yield f"kernel zoo {name}", pair


def _call(call):
    """The outcome of ``call()``: its result, or the TwaError it raises."""
    try:
        return call()
    except TwaError as exc:
        return exc


def outcomes(workdir: str):
    """(name, outcome) for every outcome of the corpus, in a fixed order."""
    for name in WORKLOADS:
        for seed in SEEDS:
            for op in workloads.WORKLOADS[name](seed, workdir, workloads.SIZES[name]):
                yield f"{name} seed={seed} {op.label}", _call(op.call)
    path = os.path.join(workdir, "zoo.twa")
    for name, aut in _zoo():
        for sr in (MAX_PLUS, MIN_PLUS):
            twa.save(retagged(aut, sr), path)
            yield f"rho {name} as {sr.tag}", workloads._cli("rho", path)()
    bmin = os.path.join(workdir, "example-min-plus.twa")
    twa.save(retagged(twa.load(SUBSET_CAP_EXAMPLE), MIN_PLUS), bmin)
    out = os.path.join(workdir, "example-out.twa")
    for extra in ((), ("--subset-cap", "2")):
        run = workloads._cli("pipeline", str(SUBSET_CAP_EXAMPLE), bmin, *extra, "-o", out, output=out)
        yield " ".join(("pipeline subset-cap example",) + extra), run()
    aut = workloads.perm_instance(random.Random(1), *UNIVERSALITY_EXAMPLE)
    path = os.path.join(workdir, "universality.twa")
    twa.save(aut, path)
    for cap in UNIVERSALITY_CAPS:
        yield f"universality cap={cap} library", _call(lambda: twa.decide_equal_const(aut, workloads.CONST, cap))
        yield f"universality cap={cap} cli", workloads._cli("equal-const", str(workloads.CONST), path, "--subset-cap", str(cap))()
    for name, (amax, bmin) in _kernel_pairs():
        yield f"{name} decide_series_equal", _call(lambda: twa.decide_series_equal(amax, bmin))
        yield f"{name} decide_series_leq", _call(lambda: twa.decide_series_leq(amax, bmin))
        yield f"{name} unambiguous_from_pair", _call(lambda: twa.unambiguous_from_pair(amax, bmin))
    for name, aut in _random_draws():
        yield f"{name} decide_nonpositive", _call(lambda: twa.decide_nonpositive(aut))
        yield f"{name} fatou_normalize", _call(lambda: twa.fatou_normalize(aut))
        for cap in RANDOM_CAPS:
            caps = () if cap is None else (cap,)
            yield f"{name} decide_equal_const 0 cap={cap or 'default'}", _call(lambda: twa.decide_equal_const(aut, 0, *caps))


def _random_draws():
    """(name, automaton) for every draw of the random slice."""
    for i in range(RANDOM_DRAWS):
        rng = random.Random(i)
        if i % 2 == 0:
            yield f"random draw={i} weights=-1..0", corpus.random_automaton(rng, arc_p=0.7, arrow_p=0.8, lo=-1, hi=0, frac_p=0)
        else:
            yield f"random draw={i} weights=default", corpus.random_automaton(rng)


def _verbatim(outcome) -> dict:
    """The verdict and witness of an outcome, each when it is short."""
    if isinstance(outcome, Decision):
        fields = {"verdict": outcome.holds, "witness": outcome.witness}
    elif isinstance(outcome, BaseException):
        fields = {"verdict": type(outcome).__name__}
    elif isinstance(outcome, WeightedAutomaton):
        fields = {}
    else:  # a CLI run: its exit code, and its stdout as "VERDICT witness=WORD"
        fields = {"exit": outcome.rc}
        verdict, _, witness = outcome.out.strip().partition(" witness=")
        if verdict:
            fields["verdict"] = verdict
        if witness:
            fields["witness"] = witness
    return {key: value for key, value in fields.items() if not isinstance(value, str) or len(value) <= SHORT}


def entries() -> list:
    """The manifest entries of the current code, one per outcome."""
    result = []
    with tempfile.TemporaryDirectory(prefix="twa-golden-") as workdir:
        for name, outcome in outcomes(workdir):
            data = repr(checks.fingerprint(outcome)).encode("utf-8")
            result.append({"name": name, "sha256": hashlib.sha256(data).hexdigest(), **_verbatim(outcome)})
    names = [entry["name"] for entry in result]
    if len(set(names)) != len(names):
        raise ValueError("two outcomes of the golden corpus share a name")
    return result


def read_manifest(path=MANIFEST) -> list:
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def write_manifest(records, path=MANIFEST) -> None:
    """One entry a line, so that a diff of the manifest names the outcomes that changed."""
    lines = ",\n".join("  " + json.dumps(record, ensure_ascii=False) for record in records)
    pathlib.Path(path).write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = pathlib.Path(argv[0]) if argv else MANIFEST
    records = entries()
    write_manifest(records, path)
    print(f"{len(records)} outcomes written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
