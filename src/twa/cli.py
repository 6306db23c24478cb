"""Command-line front end.

Exit codes: 0 when a decision holds or a construction succeeds, 1 when a
decision fails (a witness is printed), 2 for usage or I/O errors, 3 when a
resource cap is exceeded.

Decision subcommands insist on the tag that makes the question well-posed;
`check-nonpositive`, `fatou`, `equal-const`, and `rho` accept min-plus input
too and answer the mirrored question through the negation isomorphism (for a
min-plus series, `check-nonpositive` decides "every coefficient >= 0", `rho`
reports the minimal cycle mean).

The argument parser is built on the first ``main`` call, not at import, and
reused by every later call in the same process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import format as twa_format
from .automaton import DEFAULT_SUBSET_CAP, WeightedAutomaton
from .decisions import (
    decide_equal_const,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    fatou_normalize,
)
from .disambiguation import (
    disambiguate,
    extract_one_valued,
    unambiguous_from_pair,
)
from .errors import (
    CapExceededError,
    NotEqualError,
    NotNonpositiveError,
    TagMismatchError,
    TwaError,
)
from .oracle import equal_upto, max_ambiguity_upto
from .semiring import format_finite, parse_finite
from .spectral import max_mean_cycle


def _show_weight(value, tag: str) -> str:
    if value is not None:
        return format_finite(value)
    return "+inf" if tag == "min-plus" else "-inf"


def _show_word(word: str) -> str:
    return word if word else '""'


def _write(aut: WeightedAutomaton, args) -> None:
    text = twa_format.serialize(aut)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_pair(args):
    amax = twa_format.load(args.maxfile)
    bmin = twa_format.load(args.minfile)
    if amax.semiring.tag != "max-plus":
        raise TagMismatchError(f"{args.maxfile}: expected a max-plus automaton")
    if bmin.semiring.tag != "min-plus":
        raise TagMismatchError(f"{args.minfile}: expected a min-plus automaton")
    return amax, bmin


def cmd_eval(args) -> int:
    aut = twa_format.load(args.file)
    print(_show_weight(aut.eval(args.word), aut.semiring.tag))
    return 0


def cmd_trim(args) -> int:
    _write(twa_format.load(args.file).trim(), args)
    return 0


def cmd_rho(args) -> int:
    aut = twa_format.load(args.file)
    if aut.semiring.tag == "max-plus":
        value = max_mean_cycle(aut.letter_sum())
        print(_show_weight(value, "max-plus"))
    elif aut.semiring.tag == "min-plus":
        value = max_mean_cycle(aut.negate().letter_sum())
        print(_show_weight(None if value is None else -value, "min-plus"))
    else:
        raise TagMismatchError("rho needs a max-plus or min-plus automaton")
    return 0


def _dualize(aut: WeightedAutomaton) -> WeightedAutomaton:
    """Map a min-plus automaton onto the max-plus mirror of its question."""
    if aut.semiring.tag == "max-plus":
        return aut
    if aut.semiring.tag == "min-plus":
        return aut.negate()
    raise TagMismatchError(f"expected a max-plus or min-plus automaton, got {aut.semiring.tag}")


def cmd_check_nonpositive(args) -> int:
    verdict = decide_nonpositive(_dualize(twa_format.load(args.file)))
    if verdict.holds:
        print("YES")
        return 0
    print(f"NO witness={_show_word(verdict.witness)}")
    return 1


def cmd_fatou(args) -> int:
    aut = twa_format.load(args.file)
    try:
        if aut.semiring.tag == "min-plus":
            result = fatou_normalize(aut.negate()).negate()
        else:
            result = fatou_normalize(aut)
    except NotNonpositiveError as exc:
        print(f"NOT-NONPOSITIVE witness={_show_word(exc.witness)}")
        return 1
    _write(result, args)
    return 0


def cmd_equal_const(args) -> int:
    aut = twa_format.load(args.file)
    const = parse_finite(args.const)
    if aut.semiring.tag == "min-plus":
        aut = aut.negate()
        const = -const
    if args.on_support:
        verdict = decide_equal_const_on_support(aut, const)
    else:
        verdict = decide_equal_const(aut, const, args.monoid_cap)
    if verdict.holds:
        print("YES")
        return 0
    print(f"NO witness={_show_word(verdict.witness)}")
    return 1


def cmd_equal(args) -> int:
    verdict = decide_series_equal(*_load_pair(args))
    if verdict.holds:
        print("EQUAL")
        return 0
    print(f"NOT-EQUAL witness={_show_word(verdict.witness)}")
    return 1


def cmd_leq(args) -> int:
    verdict = decide_series_leq(*_load_pair(args))
    if verdict.holds:
        print("LEQ")
        return 0
    print(f"NOT-LEQ witness={_show_word(verdict.witness)}")
    return 1


def cmd_onevalued(args) -> int:
    amax, bmin = _load_pair(args)
    try:
        result = extract_one_valued(amax, bmin, check=not args.no_check)
    except (NotEqualError, NotNonpositiveError) as exc:
        print(f"NOT-EQUAL witness={_show_word(exc.witness)}")
        return 1
    _write(result, args)
    return 0


def cmd_disambiguate(args) -> int:
    aut = twa_format.load(args.file)
    _write(disambiguate(aut, args.subset_cap), args)
    return 0


def cmd_pipeline(args) -> int:
    amax, bmin = _load_pair(args)
    try:
        result = unambiguous_from_pair(
            amax, bmin, check=not args.no_check, subset_cap=args.subset_cap
        )
    except (NotEqualError, NotNonpositiveError) as exc:
        print(f"NOT-EQUAL witness={_show_word(exc.witness)}")
        return 1
    _write(result, args)
    return 0


def cmd_oracle_compare(args) -> int:
    a = twa_format.load(args.file_a)
    b = twa_format.load(args.file_b)
    verdict = equal_upto(a, b, args.maxlen)
    if verdict.holds:
        print(f"EQUAL-UPTO {args.maxlen}")
        return 0
    print(f"NOT-EQUAL witness={_show_word(verdict.witness)}")
    return 1


def cmd_oracle_ambiguity(args) -> int:
    aut = twa_format.load(args.file)
    count, word = max_ambiguity_upto(aut, args.maxlen)
    print(f"max-ambiguity {count} word={_show_word(word)}")
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones.

    Parsing leaves a parser unchanged (each call fills a fresh namespace), so
    one tree serves every ``main`` call of a process.
    """
    parser = argparse.ArgumentParser(
        prog="twa",
        description="Weighted automata over tropical semirings with exact rational weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def with_output(p):
        p.add_argument("-o", "--output", metavar="FILE", help="write the result here instead of stdout")

    p = add("eval", cmd_eval, "evaluate an automaton on a word")
    p.add_argument("file")
    p.add_argument("word", help='bare symbol string; the empty word is ""')

    p = add("trim", cmd_trim, "remove states that lie on no successful path")
    p.add_argument("file")
    with_output(p)

    p = add("rho", cmd_rho, "extremal cycle mean of the letter-sum matrix")
    p.add_argument("file")

    p = add("check-nonpositive", cmd_check_nonpositive, "decide: every coefficient <= 0 (>= 0 for min-plus)")
    p.add_argument("file")

    p = add("fatou", cmd_fatou, "renormalize a nonpositive (nonnegative for min-plus) series onto such weights")
    p.add_argument("file")
    with_output(p)

    p = add("equal-const", cmd_equal_const, "decide: every coefficient equals a constant")
    p.add_argument("const", help="rational constant (weight literal)")
    p.add_argument("file")
    p.add_argument("--on-support", action="store_true", help="quantify over the support only")
    p.add_argument(
        "--monoid-cap", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP, metavar="N",
        help="cap on the subsets explored by the all-words test",
    )

    p = add("equal", cmd_equal, "decide equality of a max-plus and a min-plus series")
    p.add_argument("maxfile")
    p.add_argument("minfile")

    p = add("leq", cmd_leq, "decide max-plus <= min-plus (support inclusion + pointwise)")
    p.add_argument("maxfile")
    p.add_argument("minfile")

    p = add("onevalued", cmd_onevalued, "build a 1-valued automaton from an equivalent pair")
    p.add_argument("maxfile")
    p.add_argument("minfile")
    p.add_argument("--no-check", action="store_true", help="skip the equality pre-check")
    with_output(p)

    p = add("disambiguate", cmd_disambiguate, "make a 1-valued automaton unambiguous")
    p.add_argument("file")
    p.add_argument("--subset-cap", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP, metavar="N")
    with_output(p)

    p = add("pipeline", cmd_pipeline, "equivalent pair -> unambiguous automaton")
    p.add_argument("maxfile")
    p.add_argument("minfile")
    p.add_argument("--no-check", action="store_true", help="skip the equality pre-check")
    p.add_argument("--subset-cap", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP, metavar="N")
    with_output(p)

    oracle = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("compare", help="compare two series on all short words")
    p.set_defaults(func=cmd_oracle_compare)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--maxlen", type=_int_at_least(0), default=8, metavar="L")
    p = osub.add_parser("ambiguity", help="largest successful-path count on short words")
    p.set_defaults(func=cmd_oracle_ambiguity)
    p.add_argument("file")
    p.add_argument("--maxlen", type=_int_at_least(0), default=8, metavar="L")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TwaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
