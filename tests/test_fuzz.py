"""Fuzzing of the `.twa` parser and of the command line.

The parser must agree with a straightforward reference on every input: the
same automaton, down to the insertion order of each row, or the same
FormatError with the same line.  The command line must answer every input
with an exit code from 0 to 3, never with an exception.
"""

import contextlib
import io
import pathlib
import re
import tempfile

from hypothesis import given, settings

import corpus
from twa import MAX_PLUS, MIN_PLUS
from twa.automaton import WeightedAutomaton, _valid_symbol
from twa.cli import main
from twa.errors import FormatError
from twa.format import parse
from twa.semiring import parse_finite

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FILE_TAGS = ("max-plus", "min-plus")


def reference_parse(text: str) -> WeightedAutomaton:
    """Collect every arrow and arc, sort them, and build through `from_arcs`."""
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
        if not _INT_RE.match(tok):
            fail(f"{what} must be an integer, got {tok!r}", lineno)
        return int(tok)

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
            return parse_finite(tok)
        except FormatError as exc:
            fail(str(exc), lineno)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if not magic_seen:
            if key != "twa" or len(tokens) != 2 or tokens[1] != "1":
                fail(f"expected header `twa 1`", lineno)
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
        raise FormatError(f"empty input: expected header `twa 1`")
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


def snapshot(aut: WeightedAutomaton):
    """Everything a parse result holds, rows as ordered item lists."""
    return (
        aut.semiring.tag,
        aut.alphabet,
        aut.n,
        [repr(w) for w in aut.alpha],
        [repr(w) for w in aut.beta],
        [(ch, [repr(list(row.items())) for row in mat.rows]) for ch, mat in aut.mu.items()],
        aut.state_labels,
    )


def outcome(parser, text):
    try:
        return "parsed", snapshot(parser(text))
    except FormatError as exc:
        return "FormatError", str(exc), exc.line


def test_parse_agrees_with_the_reference():
    # the agreement means little unless the texts reach valid files, rows
    # written out of order and most of the parser's messages, so those are
    # counted too
    seen = set()

    @settings(max_examples=300)
    @given(corpus.twa_texts())
    def agree(text):
        result = outcome(parse, text)
        assert result == outcome(reference_parse, text)
        if result[0] == "FormatError":
            seen.add(re.sub(r"'[^']*'|\"[^\"]*\"|-?[0-9]+", "_", result[1].split(": ", 1)[-1]))
            return
        seen.add("parsed")
        trans = [t for t in map(str.split, text.splitlines()) if t[:1] == ["trans"]]
        rows = {}
        for _, src, dst, ch, _ in trans:
            rows.setdefault((src, ch), []).append(int(dst))
        if any(dsts != sorted(dsts) for dsts in rows.values()):
            seen.add("out-of-order row")

    agree()
    assert {"parsed", "out-of-order row"} <= seen
    assert len(seen) >= 20, sorted(seen)


# F is each file in turn; A is the max-plus file and B the min-plus one.
_COMMANDS = (
    ("eval", "F", "ab"),
    ("trim", "F"),
    ("rho", "F"),
    ("check-nonpositive", "F"),
    ("fatou", "F"),
    ("equal-const", "0", "F", "--monoid-cap", "2"),
    ("equal-const", "0", "F", "--on-support"),
    ("disambiguate", "F", "--subset-cap", "2"),
    ("oracle", "ambiguity", "F", "--maxlen", "3"),
    ("equal", "A", "B"),
    ("leq", "A", "B"),
    ("onevalued", "A", "B"),
    ("pipeline", "A", "B", "--subset-cap", "2"),
    ("oracle", "compare", "A", "B", "--maxlen", "3"),
)


@settings(max_examples=60)
@given(corpus.twa_files(MAX_PLUS), corpus.twa_files(MIN_PLUS))
def test_cli_answers_every_file_with_an_exit_code(data_a, data_b):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = pathlib.Path(tmp, "a.twa"), pathlib.Path(tmp, "b.twa")
        a.write_bytes(data_a)
        b.write_bytes(data_b)
        for command in _COMMANDS:
            for f in (a, b) if "F" in command else (None,):
                names = {"A": a, "B": b, "F": f}
                argv = [str(names.get(arg, arg)) for arg in command]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2, 3), argv
                if code in (2, 3):
                    assert err.getvalue().startswith("error: "), argv
                    assert err.getvalue().count("\n") == 1, argv
