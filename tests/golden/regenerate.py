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
