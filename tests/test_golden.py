"""The golden corpus: every outcome of tests/golden/manifest.json is reproduced exactly.

The outcomes and how their bytes are hashed are described in
tests/golden/regenerate.py, which rewrites the manifest.
"""

import twa.automaton
import twa.decisions
import twa.disambiguation
from golden import regenerate


def _show(entry):
    if entry is None:
        return "absent"
    return ", ".join(f"{key}={value!r}" for key, value in entry.items() if key != "name")


def test_every_outcome_matches_the_manifest():
    expected = {entry["name"]: entry for entry in regenerate.read_manifest()}
    actual = {entry["name"]: entry for entry in regenerate.entries()}
    differ = [name for name in sorted(expected.keys() | actual.keys()) if expected.get(name) != actual.get(name)]
    report = "\n".join(
        f"{name}\n  manifest: {_show(expected.get(name))}\n  now:      {_show(actual.get(name))}" for name in differ
    )
    assert not differ, f"{len(differ)} of {len(expected)} outcomes differ from the manifest:\n{report}"


def test_the_corpus_covers_the_gated_workloads_the_zoo_and_the_subset_cap_example():
    manifest = regenerate.read_manifest()
    names = [entry["name"] for entry in manifest]
    workload = [name for name in names if name.startswith(regenerate.WORKLOADS)]
    assert len(workload) == 558  # (6 + 160 + 20) operations at each of three seeds
    assert sum(name.startswith("const-perm ") for name in names) == 60
    assert sum(name.startswith("rho ") for name in names) == 20
    assert sum(name.startswith("pipeline subset-cap example") for name in names) == 2
    assert sum(name.startswith("universality cap=") for name in names) == 4
    assert sum(name.startswith("random draw=") for name in names) == 1800  # 6 outcomes of 300 draws
    assert sum(name.startswith("kernel ") for name in names) == 456  # 3 outcomes of 152 pairs
    # the random slice reaches both ends of the all-words walk
    verdicts = {(entry["name"].rpartition(" ")[2], entry.get("verdict")) for entry in manifest if entry["name"].startswith("random draw=")}
    assert {("cap=default", True), ("cap=1", "CapExceededError"), ("cap=3", "CapExceededError")} <= verdicts


def test_the_kernel_slice_reaches_every_branch_of_the_kernel(monkeypatch):
    reached = set()

    def watched(name, fn, seen):
        def wrapper(*args):
            result = fn(*args)
            reached.update(seen(result, *args))
            return result

        monkeypatch.setattr(module_of[name], name, wrapper)

    module_of = {
        "_pair_numbering": twa.automaton,
        "_nonpositive": twa.decisions,
        "_positive_word": twa.decisions,
        "_relax": twa.decisions,
        "_weighted_subsets": twa.disambiguation,
        "disambiguate": twa.disambiguation,
    }
    seen = {
        # the walked pairs are emptied once the product's pairs are read off them
        "_pair_numbering": lambda index, a, b, walked=None: (
            {"the walked pairs overflow the grid, so the product's pairs are found by search"} if walked else ()
        ),
        "_nonpositive": lambda r, *_: {"YES with states that reach no final arrow"} if r[0].holds and r[2] is not None else (),
        "_positive_word": lambda word, *_: {"NO of the forward pass"} if word is not None else (),
        # no positive word is shorter than the round, so the witness is pumped
        "_relax": lambda r, *_: {"NO whose round is at least n"} if not r[0] and r[1] >= sum(r[2]) else (),
        "_weighted_subsets": lambda aut, *_: {"deterministic branch"},
        "disambiguate": lambda aut, *_: {"covering branch"},
    }
    for name, fn in seen.items():
        watched(name, getattr(module_of[name], name), fn)
    for name, (amax, bmin) in regenerate._kernel_pairs():
        if amax.trim() is not amax or bmin.trim() is not bmin:
            reached.add("inputs that are not trim")
        for call in (twa.decide_series_equal, twa.decide_series_leq, twa.unambiguous_from_pair):
            try:
                call(amax, bmin)
            except twa.TwaError:
                pass
    assert reached == {
        "the walked pairs overflow the grid, so the product's pairs are found by search",
        "inputs that are not trim",
        "YES with states that reach no final arrow",
        "NO of the forward pass",
        "NO whose round is at least n",
        "deterministic branch",
        "covering branch",
    }
    equal = {entry["name"] for entry in regenerate.read_manifest() if entry.get("verdict") is True}
    for kind in ("deterministic", "duplicate"):  # an unambiguous automaton in both tags, and its duplicate union
        assert any(name.startswith("kernel draw=") and f" {kind} decide_series_equal" in name for name in equal)
