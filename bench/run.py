"""Benchmark of the twa library and CLI on four named workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 1]

One workload runs in one single-threaded process as a closed loop with one
client: the next call starts when the previous one returns.  A pass runs
every operation of the workload in turn.  The number of passes is fixed by
``--seconds`` and the workload's nominal pass length, at least two, so that
the sample count does not depend on the speed of the code.  Set-up is the
import of twa plus input generation and file writing.  It is repeated nine
times before the first pass and once more after each pass, and setup_s is
the fastest import plus the fastest generation.

Every outcome is checked exactly outside the timed intervals (``checks.py``):
an operation's first call against the answer its inputs were built with,
later calls against the first.  A wrong answer prints WRONG ANSWER and exits 1 without a
result.  The library is imported from ``src/`` next to this directory;
without it the run exits 2.

The last line of standard output is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones; with ``--trace 1`` the module-boundary calls
are wrapped (``spans.py``), spans go to ``bench/out/spans-*.jsonl``, and the
metrics are per layer.  ``--workload all`` runs each workload in a fresh
process, one after another, and prints one row per workload and metric;
with ``--trace 1`` it adds the traced runs and the tracing overhead, the
traced run's ops_per_s over the untraced run's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("prime-pipeline", "nonpos-large", "const-perm", "random-pairs")
SETUP_ROUNDS = 9
P90_MIN_SAMPLES = 100
# Much slower code stops after the pass that takes its timed intervals past
# this multiple of --seconds (at least two passes still run).
BUDGET_FACTOR = 4


def import_twa():
    """Import the library from this checkout's ``src/``."""
    if not (SRC / "twa" / "__init__.py").is_file():
        raise ImportError(f"no twa package under {SRC}")
    sys.path.insert(0, str(SRC))
    twa = importlib.import_module("twa")
    if SRC not in Path(twa.__file__).resolve().parents:
        raise ImportError(f"twa was imported from {twa.__file__}, not from {SRC}")


def _twa_modules():
    return [name for name in sys.modules if name == "twa" or name.startswith("twa.")]


def time_import() -> float:
    """Seconds one import of twa from scratch takes.  The modules loaded
    before are put back, so the workload keeps using one copy of twa."""
    loaded = {name: sys.modules.pop(name) for name in _twa_modules()}
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("twa")
    elapsed = time.perf_counter() - start
    for name in _twa_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return elapsed


def measure(ops, passes, budget, between, tracer=None):
    """Run ``passes`` passes over ``ops``, fewer (but two) when the timed
    intervals pass ``budget`` seconds, and call ``between`` after each pass.
    Untraced, each operation is called ``op.repeat`` times back to back per
    pass; traced, once, so that the counts stay per pass.  Returns the times
    of each operation's calls, the passes, the failed calls, the output
    states per pass and the number of operations whose outcome is a failure."""
    from twa import TwaError

    import checks

    times = [[] for _ in ops]
    first = []
    failed = out_states = done = 0
    spent = 0.0
    while done < passes and (done < 2 or spent <= budget):
        gc.collect()
        for index, op in enumerate(ops):
            for _ in range(1 if tracer else op.repeat):
                scope = tracer.operation(sum(map(len, times)), op.label) if tracer else contextlib.nullcontext()
                with scope:
                    start = time.perf_counter()
                    try:
                        result = op.call()
                    except TwaError as exc:
                        # drop the traceback: its frames would keep the work alive
                        result = exc.with_traceback(None)
                    elapsed = time.perf_counter() - start
                times[index].append(elapsed)
                spent += elapsed
                failed += checks.is_failure(result)
                try:
                    if len(first) == index:
                        first.append((checks.fingerprint(result), op.check(result), checks.is_failure(result)))
                    elif checks.fingerprint(result) != first[index][0]:
                        raise checks.CheckError("outcome differs from the first call")
                except checks.CheckError as exc:
                    raise checks.CheckError(f"{op.label}: {exc}") from None
                result = None
            out_states += first[index][1]
        done += 1
        between()
    return times, done, failed, out_states // done, sum(entry[2] for entry in first)


def run_workload(name, seed, seconds, trace, sizes=None):
    """Set up, measure and check one workload; returns (result, table rows)."""
    import spans
    import workloads

    sizes = sizes or workloads.SIZES[name]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    imports, generations = [], []

    def generate():
        # Rounds after the first only time the set-up again, spread over the
        # run so that a short slow spell of the machine cannot cover them all;
        # they rewrite the same files and their operations are dropped.
        imports.append(time_import())
        gc.collect()
        start = time.perf_counter()
        ops = workloads.WORKLOADS[name](seed, workdir, sizes)
        generations.append(time.perf_counter() - start)
        return ops

    try:
        ops = generate()
        for _ in range(SETUP_ROUNDS - 1):
            generate()
        passes = max(2, round(seconds / workloads.PASS_SECONDS[name]))
        tracer = spans.Tracer() if trace else None
        with spans.installed(tracer) if trace else contextlib.nullcontext():
            times, passes, failed, out_states, failing = measure(ops, passes, BUDGET_FACTOR * seconds, generate, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Calls of one operation repeat identical work, so the differences between
    # them come from outside the process (other tenants of a shared machine
    # slow it by a fifth or more, for seconds to minutes).  Each operation is
    # timed by its fastest call, which that interference cannot lower; the
    # number of calls is fixed by the workload, so faster code is not favoured.
    best = [min(calls) for calls in times]
    samples = sum(map(len, times))
    ops_per_s = len(best) / sum(best)
    note = f"{len(ops)} operations, each timed by its fastest call; {samples} calls in {passes} passes"
    rows = [
        ("ops_per_s", ops_per_s, "1/s", note),
        ("op_p50_ms", 1000 * statistics.median_high(best), "ms", note),
    ]
    if len(best) >= P90_MIN_SAMPLES:
        rows.append(("op_p90_ms", 1000 * statistics.quantiles(best, n=10)[-1], "ms", note))
    else:
        rows.append(("op_p90_ms", None, "ms", f"not reported: {len(best)} operations < {P90_MIN_SAMPLES}"))
    rows += [
        ("fail_share", failing / len(ops), "ratio", f"{failing} of {len(ops)} operations raise; {failed} of {samples} calls"),
        ("out_states", out_states, "count", "per pass"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        ("setup_s", min(imports) + min(generations), "s", f"fastest import plus fastest generation of {len(imports)}"),
    ]
    if trace:
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        layer = spans.per_layer(tracer, samples, passes)
        layer["out_states"] = (out_states, "count")
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in layer.items()}
        rows = [("ops_per_s", ops_per_s, "1/s", f"traced, {note}")]
        rows += [(key, value, unit, "") for key, (value, unit) in layer.items()]
    else:
        json_metrics = ("ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s")
        metrics = {key: {"value": value, "unit": unit} for key, value, unit, _ in rows if key in json_metrics}
    return {"correct": True, "attempted": samples, "failed": failed, "metrics": metrics}, rows


def format_rows(workload, rows):
    lines = []
    for metric, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"{workload:<15} {metric:<52} {shown:>12} {unit:<6} {note}".rstrip())
    return lines


def _row_value(stdout, metric):
    """The value of ``metric`` in a child's table (see format_rows)."""
    for line in stdout.splitlines():
        fields = line.split()
        if fields[1:2] == [metric]:
            return float(fields[2])
    raise ValueError(f"no {metric} row")


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; one row per metric."""
    for name in NAMES:
        ops_per_s = []
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, capture_output=True, text=True)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                print(f"{name:<15} failed with exit code {child.returncode}")
                return child.returncode
            print("\n".join(child.stdout.splitlines()[:-1]))
            ops_per_s.append(_row_value(child.stdout, "ops_per_s"))
        if args.trace:
            ratio = ops_per_s[1] / ops_per_s[0]
            print(format_rows(name, [("tracing_overhead", ratio, "ratio", "traced ops_per_s / untraced")])[0])
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_twa()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import checks

    try:
        result, rows = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except checks.CheckError as exc:
        print(f"WRONG ANSWER in {args.workload}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(format_rows(args.workload, rows)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
