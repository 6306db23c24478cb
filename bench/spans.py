"""Span recording for the traced run, installed from outside the library.

Only a traced run calls ``installed``: it replaces the module attributes
through which one layer calls another (``twa.decisions.hadamard``,
``twa.format.parse``, ``WeightedAutomaton.trim``, ...) with wrappers that
record a span (name, start, end, parent, operation) and read counts off the
call's arguments and result.  Outside an operation the wrappers only pass the
call through, so set-up and checks leave no spans.  ``semiring`` is not
wrapped: its per-arc calls are cheaper than a wrapper.

A layer's self time is its span minus the child spans it covers; the time a
wrapper spends on counting is charged to no span.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import twa.automaton
import twa.cli
import twa.decisions
import twa.disambiguation
import twa.format
from twa import CapExceededError


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.op = None
        self._stack = []  # [span index, seconds covered by children]

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, parent, self.op])

    def exit(self):
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end = perf_counter()
        self.self_s[span[0]] += end - span[1] - children
        if self._stack:
            self._stack[-1][1] += end - span[1]
        return end

    def exclude(self, since):
        """Charge the time from ``since`` to now to no span (the counting)."""
        if self._stack:
            self._stack[-1][1] += perf_counter() - since

    @contextlib.contextmanager
    def operation(self, op_id, label):
        self.op = op_id
        self.enter(f"op {label}")
        try:
            yield
        finally:
            self.exit()
            self.op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                handle.write("\n")


def _wrap(tracer, name, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        result = error = None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            end = tracer.exit()
            for key, count in counts.items():
                tracer.counts[f"{name}.{key}"] += count(args, result, error)
            tracer.exclude(end)

    return traced


# -- counts: {metric suffix: (args, result, error) -> increment} ---------------


def _of_result(fn):
    """A count read off the result; a call that raised counts 0."""
    return lambda args, result, error: 0 if result is None else fn(args, result)


def _arcs(aut):
    return sum(len(row) for mat in aut.mu.values() for row in mat.rows)


def _closure_elements(args, result, error):
    if isinstance(error, CapExceededError):
        return error.cap
    return 0 if result is None else len(result)


def _calls(args, result, error):
    return 1


def _targets():
    """(owner, attribute, span name, counts) for every wrapped entry point.

    Several owners of one function (a name imported into another module) share
    one span name.  A count ``key`` becomes the per-layer metric
    ``<span name>.<key>``, summed over a pass."""
    automaton, cli, decisions = twa.automaton, twa.cli, twa.decisions
    disambiguation, fmt = twa.disambiguation, twa.format
    aut = automaton.WeightedAutomaton
    states_built = {"states_built": _of_result(lambda args, out: out.n)}
    return [
        (cli, "main", "cli.main", {}),
        (fmt, "parse", "format.parse", {"kb": lambda args, result, error: len(args[0]) / 1024}),
        (fmt, "serialize", "format.serialize", {"kb": _of_result(lambda args, text: len(text) / 1024)}),
        (aut, "trim", "automaton.trim", {
            "states_in": _of_result(lambda args, out: args[0].n),
            "states_kept": _of_result(lambda args, out: out.n),
        }),
        (aut, "support", "automaton.support", {}),
        (decisions, "hadamard", "automaton.hadamard", states_built),
        (decisions, "max_mean_cycle", "spectral.max_mean_cycle", {"calls": _calls}),
        (decisions, "vec_mat", "spectral.vec_mat", {"calls": _calls}),
        (decisions, "star_vector", "spectral.star_vector", {"calls": _calls}),
        (decisions, "decide_nonpositive", "decisions.decide_nonpositive", {}),
        (decisions, "fatou_normalize", "decisions.fatou_normalize", {}),
        (decisions, "boolean_monoid_closure", "decisions.boolean_monoid_closure", {
            "elements": _closure_elements,
            "cap_hits": lambda args, result, error: isinstance(error, CapExceededError),
        }),
        (decisions, "nfa_equivalence", "decisions.nfa_equivalence", {}),
        (decisions, "nfa_inclusion", "decisions.nfa_inclusion", {}),
        (decisions, "decide_series_equal", "decisions.decide_series_equal", {}),
        (cli, "decide_series_equal", "decisions.decide_series_equal", {}),
        (disambiguation, "decide_series_equal", "decisions.decide_series_equal", {}),
        (disambiguation, "pair_product", "disambiguation.pair_product", states_built),
        (disambiguation, "extract_one_valued", "disambiguation.extract_one_valued", {
            "states_out": _of_result(lambda args, out: out.n),
        }),
        (disambiguation, "covering", "disambiguation.covering", {
            "states": _of_result(lambda args, out: out.automaton.n),
            "subsets": _of_result(lambda args, out: len(out.subsets)),
        }),
        (disambiguation, "remove_competitions", "disambiguation.remove_competitions", {
            "arcs_removed": _of_result(lambda args, out: _arcs(args[0].automaton) - _arcs(out)),
        }),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target that exists (a later version may have removed some),
    and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, counts in _targets():
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------


def per_layer(tracer, ops, passes):
    """Self time per operation, and counts per pass, as {name: (value, unit)}."""
    out = {}
    for _, _, name, counts in _targets():
        out.setdefault(f"{name}.self_ms", (1000 * tracer.self_s[name] / ops, "ms"))
        for key in counts:
            unit = "KiB" if key == "kb" else "count"
            out.setdefault(f"{name}.{key}", (tracer.counts[f"{name}.{key}"] / passes, unit))
    built = tracer.counts["disambiguation.pair_product.states_built"]
    kept = tracer.counts["disambiguation.extract_one_valued.states_out"]
    out["disambiguation.product.kept_ratio"] = (kept / built if built else 0.0, "ratio")
    return out
