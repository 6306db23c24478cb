"""The `.twa` text format for weighted automata.

Line-oriented UTF-8 with `#` comments.  Weights use the shared literal syntax
(integer, `p/q`, or decimal with at most nine fractional digits); state
counts and indices are integers.  Digits are ASCII only.  The semiring zero
is never written: an absent arc or arrow is the zero.  Example:

    twa 1
    semiring max-plus        # or: min-plus
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
only as `# i: label` comments, with the characters `str.splitlines` breaks on
written as backslash escapes (`\n`, `\x85`, `\u2028`, ...) so that each
label stays on its line; parsing does not restore them.  `load` reports a
file that is not UTF-8 as a FormatError, like any other malformed input.
"""

from __future__ import annotations

import re

from .automaton import WeightedAutomaton, _valid_symbol
from .errors import FormatError
from .semiring import format_finite, parse_finite, semiring_for
from .spectral import TropicalMatrix

MAGIC = "twa"
VERSION = "1"

_FILE_TAGS = ("max-plus", "min-plus")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
# The characters str.splitlines breaks on, each mapped to its backslash escape.
_ESCAPE_BREAKS = {
    ord(c): c.encode("unicode_escape").decode("ascii")
    for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
}


def parse(text: str) -> WeightedAutomaton:
    """Parse `.twa` text; raises FormatError with a line number on bad input.

    Each distinct state token and weight literal is checked once per call,
    and each arc goes straight into its row; rows list their targets in
    increasing order whatever the order of the lines.
    """
    semiring = None
    alphabet = None
    n = None
    magic_seen = False
    alpha = beta = rows = None
    unsorted = False
    states: dict[str, int] = {}  # token -> state index, checked
    weights: dict[str, object] = {}  # literal -> weight, checked

    def fail(msg: str, lineno: int):
        raise FormatError(msg, line=lineno)

    def want_int(tok: str, what: str, lineno: int) -> int:
        if not _INT_RE.match(tok):
            fail(f"{what} must be an integer, got {tok!r}", lineno)
        return int(tok)

    def want_state(tok: str, lineno: int) -> int:
        s = states.get(tok)
        if s is None:
            s = want_int(tok, "state", lineno)
            if n is None:
                fail("states line must appear before arc lines", lineno)
            if not 0 <= s < n:
                fail(f"state {s} out of range (states {n})", lineno)
            states[tok] = s
        return s

    def want_weight(tok: str, lineno: int):
        w = weights.get(tok)
        if w is None:
            if semiring is None:
                fail("missing `semiring` header before arc lines", lineno)
            try:
                w = weights[tok] = parse_finite(tok)
            except FormatError as exc:
                fail(str(exc), lineno)
        return w

    def grid():
        if n is None or alphabet is None:
            return None
        return {ch: [{} for _ in range(n)] for ch in alphabet}

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if not magic_seen:
            if key != MAGIC or len(tokens) != 2 or tokens[1] != VERSION:
                fail(f"expected header `{MAGIC} {VERSION}`", lineno)
            magic_seen = True
        elif key == "trans":
            if len(tokens) != 5:
                fail("trans line is `trans <src> <dst> <letter> <weight>`", lineno)
            src = want_state(tokens[1], lineno)
            dst = want_state(tokens[2], lineno)
            if rows is None:  # the states line was seen, so the alphabet was not
                fail("alphabet line must appear before trans lines", lineno)
            letter = rows.get(tokens[3])
            if letter is None:
                fail(f"letter {tokens[3]!r} is not in the alphabet", lineno)
            row = letter[src]
            if dst in row:
                fail(f"duplicate arc {src} -{tokens[3]}-> {dst}", lineno)
            if row and dst < next(reversed(row)):
                unsorted = True
            row[dst] = want_weight(tokens[4], lineno)
        elif key == "initial" or key == "final":
            if len(tokens) != 3:
                fail(f"{key} line is `{key} <state> <weight>`", lineno)
            s = want_state(tokens[1], lineno)
            vec = alpha if key == "initial" else beta
            if vec[s] is not None:
                fail(f"duplicate {key} weight for state {s}", lineno)
            vec[s] = want_weight(tokens[2], lineno)
        elif key == "semiring":
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
            rows = grid()
        elif key == "states":
            if n is not None:
                fail("duplicate states line", lineno)
            if len(tokens) != 2:
                fail("states line is `states <count>`", lineno)
            count = want_int(tokens[1], "state count", lineno)
            if count < 0:
                fail("state count must be nonnegative", lineno)
            n = count
            alpha = [None] * n
            beta = [None] * n
            rows = grid()
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

    if unsorted:
        for letter in rows.values():
            for i, row in enumerate(letter):
                letter[i] = dict(sorted(row.items()))
    sr = semiring_for(semiring)
    mu = {ch: TropicalMatrix._adopt(sr, n, letter) for ch, letter in rows.items()}
    return WeightedAutomaton._adopt(sr, tuple(alphabet), n, alpha, beta, mu, None)


def serialize(aut: WeightedAutomaton) -> str:
    """Emit canonical `.twa` text for an automaton; each distinct weight is formatted once."""
    tag = aut.semiring.tag
    if tag not in _FILE_TAGS:
        raise FormatError(f"semiring {tag!r} has no file representation")
    lines = [f"{MAGIC} {VERSION}", f"semiring {tag}", " ".join(("alphabet",) + aut.alphabet)]
    lines.append(f"states {aut.n}")
    labels = aut.state_labels
    if labels:
        # the labels hold a line break iff, joined and followed by a space,
        # they split into more than one line
        if len((" ".join(labels) + " ").splitlines()) > 1:
            labels = [label.translate(_ESCAPE_BREAKS) for label in labels]
        for i, label in enumerate(labels):
            lines.append(f"# {i}: {label}")
    texts: dict = {}  # weight -> canonical text; equal values share one text

    def show(w) -> str:
        t = texts.get(w)
        if t is None:
            t = texts[w] = format_finite(w)
        return t

    for key, vec in (("initial", aut.alpha), ("final", aut.beta)):
        for i, w in enumerate(vec):
            if w is not None:
                lines.append(f"{key} {i} {show(w)}")
    letters = [(ch, aut.mu[ch].rows) for ch in aut.alphabet]
    for src in range(aut.n):
        for ch, rows in letters:
            row = rows[src]
            for dst in sorted(row):
                lines.append(f"trans {src} {dst} {ch} {show(row[dst])}")
    return "\n".join(lines) + "\n"


def load(path) -> WeightedAutomaton:
    """Read and parse a `.twa` file; bytes that are not UTF-8 are a FormatError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text (byte {data[exc.start]:#04x} at offset {exc.start})"
        ) from None
    return parse(text)


def save(aut: WeightedAutomaton, path) -> None:
    """Serialize an automaton to a `.twa` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(aut))


__all__ = ["parse", "serialize", "load", "save"]
