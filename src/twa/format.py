"""The `.twa` text format for weighted automata.

Line-oriented UTF-8 with `#` comments.  Weights use the shared literal syntax
(integer, `p/q`, or decimal with at most nine fractional digits; pair weights
are `w1,w2`).  The semiring zero is never written: an absent arc or arrow is
the zero.  Example:

    twa 1
    semiring max-plus        # or: min-plus | max-plus-pair
    alphabet a b
    states 2
    initial 0 0
    final 0 0
    final 1 1
    trans 0 1 a 1
    trans 1 0 b 2

`serialize` emits a canonical ordering (header, initial/final by state,
transitions by source state, then letter in alphabet order, then target), so
serialize(parse(text)) is a canonical form of `text`.  State labels survive
only as comments; parsing does not restore them.
"""

from __future__ import annotations

from .automaton import WeightedAutomaton, _valid_symbol
from .errors import FormatError
from .semiring import format_weight, parse_weight

MAGIC = "twa"
VERSION = "1"

_FILE_TAGS = ("max-plus", "min-plus", "max-plus-pair")


def parse(text: str) -> WeightedAutomaton:
    """Parse `.twa` text; raises FormatError with a line number on bad input."""
    semiring = None
    alphabet = None
    n = None
    magic_seen = False
    initial: dict[int, object] = {}
    final: dict[int, object] = {}
    arcs: dict[tuple[int, str, int], object] = {}

    def fail(msg: str, lineno: int):
        raise FormatError(msg, line=lineno)

    def want_int(tok: str, what: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            fail(f"{what} must be an integer, got {tok!r}", lineno)

    def want_state(tok: str, lineno: int) -> int:
        s = want_int(tok, "state", lineno)
        if n is None:
            fail("states line must appear before arc lines", lineno)
        if not 0 <= s < n:
            fail(f"state {s} out of range (states {n})", lineno)
        return s

    def want_weight(tok: str, lineno: int):
        if semiring is None:
            fail("missing `semiring` header before arc lines", lineno)
        try:
            return parse_weight(tok, semiring)
        except FormatError as exc:
            fail(str(exc), lineno)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if not magic_seen:
            if key != MAGIC or len(tokens) != 2 or tokens[1] != VERSION:
                fail(f"expected header `{MAGIC} {VERSION}`", lineno)
            magic_seen = True
            continue
        if key == "semiring":
            if len(tokens) != 2:
                fail("semiring line takes exactly one value", lineno)
            if tokens[1] not in _FILE_TAGS:
                fail(f"unsupported semiring {tokens[1]!r}", lineno)
            if semiring is not None:
                fail("duplicate semiring line", lineno)
            semiring = tokens[1]
        elif key == "alphabet":
            if alphabet is not None:
                fail("duplicate alphabet line", lineno)
            alphabet = tokens[1:]
            for ch in alphabet:
                if not _valid_symbol(ch):
                    fail(f"bad alphabet symbol {ch!r}", lineno)
            if len(set(alphabet)) != len(alphabet):
                fail("alphabet symbols must be distinct", lineno)
        elif key == "states":
            if n is not None:
                fail("duplicate states line", lineno)
            if len(tokens) != 2:
                fail("states line is `states <count>`", lineno)
            count = want_int(tokens[1], "state count", lineno)
            if count < 0:
                fail("state count must be nonnegative", lineno)
            n = count
        elif key == "initial":
            if len(tokens) != 3:
                fail("initial line is `initial <state> <weight>`", lineno)
            s = want_state(tokens[1], lineno)
            if s in initial:
                fail(f"duplicate initial weight for state {s}", lineno)
            initial[s] = want_weight(tokens[2], lineno)
        elif key == "final":
            if len(tokens) != 3:
                fail("final line is `final <state> <weight>`", lineno)
            s = want_state(tokens[1], lineno)
            if s in final:
                fail(f"duplicate final weight for state {s}", lineno)
            final[s] = want_weight(tokens[2], lineno)
        elif key == "trans":
            if len(tokens) != 5:
                fail("trans line is `trans <src> <dst> <letter> <weight>`", lineno)
            src = want_state(tokens[1], lineno)
            dst = want_state(tokens[2], lineno)
            ch = tokens[3]
            if alphabet is None:
                fail("alphabet line must appear before trans lines", lineno)
            if ch not in alphabet:
                fail(f"letter {ch!r} is not in the alphabet", lineno)
            if (src, ch, dst) in arcs:
                fail(f"duplicate arc {src} -{ch}-> {dst}", lineno)
            arcs[(src, ch, dst)] = want_weight(tokens[4], lineno)
        else:
            fail(f"unknown directive {key!r}", lineno)

    if not magic_seen:
        raise FormatError(f"empty input: expected header `{MAGIC} {VERSION}`")
    if semiring is None:
        raise FormatError("missing `semiring` header")
    if alphabet is None:
        raise FormatError("missing `alphabet` header")
    if n is None:
        raise FormatError("missing `states` header")

    return WeightedAutomaton.from_arcs(
        semiring,
        alphabet,
        n,
        initial=sorted(initial.items()),
        final=sorted(final.items()),
        arcs=[(src, ch, dst, w) for (src, ch, dst), w in sorted(arcs.items())],
    )


def serialize(aut: WeightedAutomaton) -> str:
    """Emit canonical `.twa` text for an automaton."""
    tag = aut.semiring.tag
    if tag not in _FILE_TAGS:
        raise FormatError(f"semiring {tag!r} has no file representation")
    lines = [f"{MAGIC} {VERSION}", f"semiring {tag}", " ".join(("alphabet",) + aut.alphabet)]
    lines.append(f"states {aut.n}")
    if aut.state_labels:
        for i, label in enumerate(aut.state_labels):
            lines.append(f"# {i}: {label}")
    for i, w in enumerate(aut.alpha):
        if w is not None:
            lines.append(f"initial {i} {format_weight(w, tag)}")
    for i, w in enumerate(aut.beta):
        if w is not None:
            lines.append(f"final {i} {format_weight(w, tag)}")
    for src in range(aut.n):
        for ch in aut.alphabet:
            row: dict = aut.mu[ch].rows[src]
            for dst in sorted(row):
                lines.append(f"trans {src} {dst} {ch} {format_weight(row[dst], tag)}")
    return "\n".join(lines) + "\n"


def load(path) -> WeightedAutomaton:
    """Read and parse a `.twa` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def save(aut: WeightedAutomaton, path) -> None:
    """Serialize an automaton to a `.twa` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(aut))


__all__ = ["parse", "serialize", "load", "save"]
