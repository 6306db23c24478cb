"""The golden corpus: every outcome of tests/golden/manifest.json is reproduced exactly.

The outcomes and how their bytes are hashed are described in
tests/golden/regenerate.py, which rewrites the manifest.
"""

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
    names = [entry["name"] for entry in regenerate.read_manifest()]
    workload = [name for name in names if name.startswith(regenerate.WORKLOADS)]
    assert len(workload) == 558  # (6 + 160 + 20) operations at each of three seeds
    assert sum(name.startswith("const-perm ") for name in names) == 60
    assert sum(name.startswith("rho ") for name in names) == 20
    assert sum(name.startswith("pipeline subset-cap example") for name in names) == 2
    assert sum(name.startswith("universality cap=") for name in names) == 4
