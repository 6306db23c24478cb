"""The .twa text format: canonical round-trips and error reporting."""

import pathlib
import random
from fractions import Fraction

import pytest

from corpus import random_automaton
from twa import FormatError, MAX_PLUS_PAIR, WeightedAutomaton, pair_product, zoo
from twa.format import parse, serialize

DATA = pathlib.Path(__file__).parent / "data"


def test_data_files_are_canonical():
    for name in ("amax.twa", "bmin.twa"):
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


def test_pair_weights_roundtrip():
    amax, bmin = zoo.sample_equivalent_pair()
    pair = pair_product(amax, bmin.negate())
    text = serialize(pair)
    assert "semiring max-plus-pair" in text
    again = parse(text)
    assert again.semiring is MAX_PLUS_PAIR
    assert again == WeightedAutomaton(
        pair.semiring, pair.alphabet, pair.n, pair.alpha, pair.beta, pair.mu
    )


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


def test_bad_weight_literal_reports_line():
    _expect_error(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 1.0000000001\n",
        "bad weight literal",
        line=5,
    )


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
    assert aut.mu["a"].entry(0, 0) == Fraction(1, 4)
    assert "trans 0 0 a 1/4" in serialize(aut)
