"""The .twa text format: canonical round-trips and error reporting."""

import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import LONGEST_LIST, automata, random_automaton
from twa import (
    DEFAULT_SUBSET_CAP,
    MAX_PLUS,
    CapExceededError,
    FormatError,
    WeightedAutomaton,
    zoo,
)
import twa.format
from twa.format import load, parse, serialize

DATA = pathlib.Path(__file__).parent / "data"


def test_data_files_are_canonical():
    for name in ("amax.twa", "bmin.twa", "bmin_lowered.twa"):
        text = (DATA / name).read_text()
        assert serialize(parse(text)) == text


def test_parse_serialize_roundtrip_on_randoms():
    rng = random.Random(13)
    for _ in range(40):
        aut = random_automaton(rng, max_states=5, frac_p=0.3)
        text = serialize(aut)
        again = parse(text)
        assert again == aut
        assert serialize(again) == text


def test_noncanonical_input_is_canonicalized():
    messy = """
# a comment before the header would not parse; after it, anything goes
twa 1
semiring max-plus
alphabet a b
states 2

final 1 1        # trailing comments are fine
trans 1 0 b 2
initial 0 0.50
trans 0 1 a 2/4
final 0 0
"""
    # the header must still be the first significant line
    aut = parse(messy.strip().split("\n", 1)[1])
    text = serialize(aut)
    assert text.index("initial") < text.index("final")
    assert "trans 0 1 a 1/2" in text
    assert "initial 0 1/2" in text
    assert parse(text) == aut


def test_state_labels_survive_as_comments_only():
    amax, _ = zoo.sample_equivalent_pair()
    text = serialize(amax)
    assert "# 0: A" in text
    assert parse(text).state_labels is None


def _expect_error(text, fragment, line=None):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line == line


def test_out_of_range_state():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 2\ntrans 0 5 a 1\n",
        "out of range",
        line=5,
    )


def test_missing_semiring_header():
    _expect_error("twa 1\nalphabet a\nstates 1\n", "missing `semiring`")


def test_missing_magic():
    _expect_error("semiring max-plus\nalphabet a\nstates 1\n", "expected header", line=1)


@pytest.mark.parametrize("symbol", ["ab", "\u00e9"], ids=["two-letters", "non-ascii"])
def test_bad_alphabet_symbol_names_its_line(symbol):
    _expect_error(
        f"twa 1\nsemiring max-plus\nalphabet a {symbol}\nstates 1\n",
        f"bad alphabet symbol {symbol!r}",
        line=3,
    )


def test_duplicate_arc():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\n"
        "trans 0 0 a 1\ntrans 0 0 a 2\n",
        "duplicate arc",
        line=6,
    )


def test_duplicate_arrow():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 1\ninitial 0 2\n",
        "duplicate initial",
        line=6,
    )


def test_unknown_letter_in_transition():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ntrans 0 0 b 1\n",
        "not in the alphabet",
        line=5,
    )


def test_states_must_precede_arcs():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\ninitial 0 0\nstates 1\n",
        "states line must appear before",
        line=4,
    )


def test_boolean_semiring_has_no_file_form():
    _expect_error("twa 1\nsemiring boolean\nalphabet a\nstates 1\n", "unsupported semiring")


def test_pair_semiring_has_no_file_form():
    _expect_error(
        "twa 1\nsemiring max-plus-pair\nalphabet a\nstates 1\n", "unsupported semiring", line=2
    )


def test_bad_weight_literal_reports_line():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 1.0000000001\n",
        "bad weight literal",
        line=5,
    )


@pytest.mark.parametrize(
    "line, fragment, lineno",
    [
        ("states 1_0", "state count must be an integer", 4),
        ("states \uff13", "state count must be an integer", 4),  # fullwidth three
        ("states 2\ninitial \u0661 0", "state must be an integer", 5),  # Arabic-Indic one
        ("states 2\ninitial 0 1.\uff15", "bad weight literal", 5),  # fullwidth five
    ],
    ids=["underscore", "fullwidth-count", "arabic-indic-state", "fullwidth-weight"],
)
def test_integers_and_weights_take_ascii_digits_only(line, fragment, lineno):
    _expect_error(f"twa 1\nsemiring max-plus\nalphabet a\n{line}\n", fragment, line=lineno)


@pytest.mark.parametrize("count", [LONGEST_LIST + 1, 10**30, 10**400])
def test_state_count_longer_than_any_list_is_a_format_error(count):
    # rejected at its line, before the parser allocates anything
    _expect_error(
        f"twa 1\nsemiring max-plus\nalphabet a\nstates {count}\ninitial 0 0\n",
        "larger than the longest list",
        line=4,
    )


@pytest.mark.parametrize("count", [DEFAULT_SUBSET_CAP + 1, 10**9, LONGEST_LIST])
def test_state_count_above_the_cap_is_refused_before_allocating(count):
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as err:
        parse(f"twa 1\nsemiring max-plus\nalphabet a b\nstates {count}\ninitial 0 0\n")
    assert time.perf_counter() - start < 0.5
    assert (err.value.what, err.value.cap) == (f"line 4: state count {count}", DEFAULT_SUBSET_CAP)


@pytest.mark.parametrize(
    "header",
    ["alphabet a b c\nstates 500000", "states 500000\nalphabet a b c"],
    ids=["alphabet-first", "states-first"],
)
def test_states_times_letters_above_the_cap_is_refused_before_allocating(header):
    # each state count is under the cap, but the rows would number 1,500,000
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as err:
        parse(f"twa 1\nsemiring max-plus\n{header}\ninitial 0 0\n")
    assert time.perf_counter() - start < 0.5
    assert (err.value.what, err.value.cap) == ("line 4: 500000 states x 3 letters", DEFAULT_SUBSET_CAP)


def test_states_times_letters_at_the_cap_is_parsed(monkeypatch):
    monkeypatch.setattr(twa.format, "DEFAULT_SUBSET_CAP", 6)
    assert parse("twa 1\nsemiring max-plus\nalphabet a b\nstates 3\n").n == 3
    with pytest.raises(CapExceededError):
        parse("twa 1\nsemiring max-plus\nalphabet a b\nstates 4\n")


@pytest.mark.parametrize(
    "line, fragment, lineno",
    [
        ("states " + "1" * 5000, "state count has 5000 digits", 4),
        ("states 1\ninitial " + "0" * 5000 + " 0", "state has 5000 digits", 5),
        ("states 1\ninitial 0 " + "1" * 5000, "weight literal of 5000 characters", 5),
        ("states 1\ninitial 0 1/" + "1" * 5000, "weight literal of 5002 characters", 5),
    ],
    ids=["count", "state", "integer-weight", "fraction-weight"],
)
def test_numbers_longer_than_int_converts_are_format_errors(line, fragment, lineno):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default; int() rejects longer digit strings
    try:
        _expect_error(f"twa 1\nsemiring max-plus\nalphabet a\n{line}\n", fragment, line=lineno)
    finally:
        sys.set_int_max_str_digits(limit)


def test_pair_weight_in_scalar_file_fails():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 1,2\n",
        "bad weight literal",
        line=5,
    )


def test_decimals_parse_exactly():
    aut = parse(
        "twa 1\nsemiring min-plus\nalphabet a\nstates 1\n"
        "initial 0 0.1\nfinal 0 -0.2\ntrans 0 0 a 0.25\n"
    )
    assert aut.alpha[0] == Fraction(1, 10)
    assert aut.beta[0] == Fraction(-1, 5)
    assert aut.mu["a"].rows[0].get(0) == Fraction(1, 4)
    assert "trans 0 0 a 1/4" in serialize(aut)


# Every character str.splitlines breaks a line on.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=150)
@given(
    automata(MAX_PLUS, max_states=4),
    st.data(),
)
def test_labels_with_line_breaks_round_trip(aut, data):
    labels = data.draw(st.lists(
        st.text(st.sampled_from(LINE_BREAKS + "ab #:\\\té"), max_size=6),
        min_size=aut.n, max_size=aut.n,
    ))
    labelled = WeightedAutomaton(
        aut.semiring, aut.alphabet, aut.n, aut.alpha, aut.beta, aut.mu, labels
    )
    text = serialize(labelled)
    assert parse(text) == aut
    assert serialize(parse(text)) == serialize(aut)
    comments = [line for line in text.splitlines() if line.startswith("#")]
    assert len(comments) == aut.n
    for i, (line, label) in enumerate(zip(comments, labels)):
        shown = line[len(f"# {i}: "):]
        assert not any(ch in shown for ch in LINE_BREAKS)
        if not any(ch in label for ch in LINE_BREAKS):
            assert shown == label  # written byte for byte


def test_line_breaks_in_labels_are_backslash_escapes():
    aut = WeightedAutomaton.from_arcs(
        MAX_PLUS, "a", 3, labels=["x\ny", "\r\n\x85\u2028", "back\\slash\tand #"]
    )
    text = serialize(aut)
    assert "# 0: x\\ny\n" in text
    assert "# 1: \\r\\n\\x85\\u2028\n" in text
    assert "# 2: back\\slash\tand #\n" in text
    assert parse(text) == aut


def test_undecodable_file_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.twa"
    path.write_bytes(b"twa 1\nsemiring max-plus\nalphabet a\nstates 1\n# caf\xe9\n")
    with pytest.raises(FormatError) as err:
        load(path)
    assert "not UTF-8" in str(err.value)
    assert "byte 0xe9 at offset 49" in str(err.value)
