"""Smoke run of the benchmark harness at tiny sizes; timings are not checked.

    python3 -m pytest bench/test_smoke.py

It checks that every named metric is produced, that the per-layer counts
repeat exactly for one seed, and that the checker rejects wrong answers.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402  (needs twa on the path)
import workloads  # noqa: E402
from twa import Decision, decisions, disambiguation  # noqa: E402

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
TABLE_ONLY = {"op_p90_ms", "fail_share", "out_states"}


def tiny(name, trace, seed=1):
    return run.run_workload(name, seed, 0, trace, sizes=workloads.SMOKE[name])


@pytest.mark.parametrize("name", run.NAMES)
def test_every_metric_is_reported(name):
    result, rows = tiny(name, 0)
    assert result["correct"] and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert TABLE_ONLY <= {metric for metric, *_ in rows}

    result, rows = tiny(name, 1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", run.NAMES)
def test_counts_repeat_for_one_seed(name):
    first, _ = tiny(name, 1, seed=7)
    second, _ = tiny(name, 1, seed=7)
    for metric, entry in first["metrics"].items():
        if not metric.endswith("self_ms"):
            assert second["metrics"][metric] == entry, metric


@pytest.mark.parametrize("name", run.NAMES)
def test_calls_per_run_do_not_depend_on_speed(name, tmp_path):
    # --seconds 0 makes the two-pass minimum, whatever the calls take
    ops = workloads.WORKLOADS[name](1, str(tmp_path), workloads.SMOKE[name])
    result, _ = tiny(name, 0)
    assert result["attempted"] == 2 * sum(op.repeat for op in ops)


def test_prime_product_keeps_840_of_12600():
    metrics = tiny("prime-pipeline", 1)[0]["metrics"]
    assert metrics["disambiguation.pair_product.states_built"]["value"] == 12600
    assert metrics["disambiguation.product.kept_ratio"]["value"] == 840 / 12600


def test_cap_hits_count_as_failures():
    # SMOKE caps the monoid at 100 < 5!, so both k=5 all-words tests stop at the cap
    result, _ = tiny("const-perm", 1)
    assert result["failed"] / result["attempted"] == 2 / 8  # of the 8 operations per pass
    assert result["metrics"]["decisions.boolean_monoid_closure.cap_hits"]["value"] == 2


def _flipped(fn):
    return lambda *args: Decision(not fn(*args).holds, None)


WRONG = {
    "flipped series verdict": ("random-pairs", decisions, "decide_series_equal", _flipped),
    "ambiguous pipeline output": ("random-pairs", disambiguation, "unambiguous_from_pair", lambda fn: lambda a, b: a),
    "constant on support always": ("const-perm", decisions, "decide_equal_const_on_support",
                                   lambda fn: lambda *args: Decision(True, None)),
    "flipped nonpositivity": ("nonpos-large", decisions, "decide_nonpositive", _flipped),
}


@pytest.mark.parametrize("case", sorted(WRONG))
def test_checker_rejects_a_wrong_answer(case, monkeypatch):
    name, module, attr, corrupt = WRONG[case]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    with pytest.raises(checks.CheckError):
        tiny(name, 0)


def test_exits_nonzero_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    command = [sys.executable, str(bench / "run.py"), "--workload", "random-pairs", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    child = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
