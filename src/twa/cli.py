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
from .semiring import MAX_PLUS, MIN_PLUS, format_finite, parse_finite
from .spectral import max_mean_cycle


def _show_weight(value, semiring) -> str:
    if value is not None:
        return format_finite(value)
    return "+inf" if semiring is MIN_PLUS else "-inf"


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
    if amax.semiring is not MAX_PLUS:
        raise TagMismatchError(f"{args.maxfile}: expected a max-plus automaton")
    if bmin.semiring is not MIN_PLUS:
        raise TagMismatchError(f"{args.minfile}: expected a min-plus automaton")
    return amax, bmin


def cmd_eval(args) -> int:
    aut = twa_format.load(args.file)
    print(_show_weight(aut.eval(args.word), aut.semiring))
    return 0


def cmd_trim(args) -> int:
    _write(twa_format.load(args.file).trim(), args)
    return 0


def _dualize(aut: WeightedAutomaton):
    """The max-plus mirror of an automaton, and the sign that carries values across.

    A max-plus automaton is its own mirror (sign 1); a min-plus one is
    negated (sign -1), so its series T becomes -T.
    """
    if aut.semiring is MIN_PLUS:
        return aut.negate(), -1
    return aut, 1


def _report(verdict, yes: str, no: str) -> int:
    """Print ``yes`` when the verdict holds, else ``no`` with the witness; the exit code."""
    if verdict.holds:
        print(yes)
        return 0
    print(f"{no} witness={_show_word(verdict.witness)}")
    return 1


def _construct(build, args, no: str) -> int:
    """Write the automaton ``build()`` returns, or report the witness of the check it fails."""
    try:
        result = build()
    except (NotEqualError, NotNonpositiveError) as exc:
        print(f"{no} witness={_show_word(exc.witness)}")
        return 1
    _write(result, args)
    return 0


def cmd_rho(args) -> int:
    aut = twa_format.load(args.file)
    mirror, sign = _dualize(aut)
    value = max_mean_cycle(mirror)
    print(_show_weight(None if value is None else sign * value, aut.semiring))
    return 0


def cmd_check_nonpositive(args) -> int:
    mirror, _ = _dualize(twa_format.load(args.file))
    return _report(decide_nonpositive(mirror), "YES", "NO")


def cmd_fatou(args) -> int:
    mirror, sign = _dualize(twa_format.load(args.file))

    def build():
        result = fatou_normalize(mirror)
        return result if sign > 0 else result.negate()

    return _construct(build, args, "NOT-NONPOSITIVE")


def cmd_equal_const(args) -> int:
    aut, sign = _dualize(twa_format.load(args.file))
    const = sign * parse_finite(args.const)
    if args.on_support:
        verdict = decide_equal_const_on_support(aut, const)
    else:
        verdict = decide_equal_const(aut, const, args.subset_cap)
    return _report(verdict, "YES", "NO")


def cmd_equal(args) -> int:
    return _report(decide_series_equal(*_load_pair(args)), "EQUAL", "NOT-EQUAL")


def cmd_leq(args) -> int:
    return _report(decide_series_leq(*_load_pair(args)), "LEQ", "NOT-LEQ")


def cmd_onevalued(args) -> int:
    amax, bmin = _load_pair(args)
    return _construct(lambda: extract_one_valued(amax, bmin), args, "NOT-EQUAL")


def cmd_disambiguate(args) -> int:
    aut = twa_format.load(args.file)
    _write(disambiguate(aut, args.subset_cap), args)
    return 0


def cmd_pipeline(args) -> int:
    amax, bmin = _load_pair(args)
    return _construct(
        lambda: unambiguous_from_pair(amax, bmin, args.subset_cap), args, "NOT-EQUAL"
    )


def cmd_oracle_compare(args) -> int:
    from .oracle import equal_upto
    a = twa_format.load(args.file_a)
    b = twa_format.load(args.file_b)
    return _report(equal_upto(a, b, args.maxlen), f"EQUAL-UPTO {args.maxlen}", "NOT-EQUAL")


def cmd_oracle_ambiguity(args) -> int:
    from .oracle import max_ambiguity_upto
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
    # the support test compares two NFAs under the fixed cap: no option caps it
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--on-support", action="store_true", help="quantify over the support only")
    scope.add_argument(
        "--subset-cap", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP,
        metavar="N", help="cap on the subsets explored by the all-words test",
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
    with_output(p)

    p = add("disambiguate", cmd_disambiguate, "make a 1-valued automaton unambiguous")
    p.add_argument("file")
    p.add_argument(
        "--subset-cap", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP, metavar="N",
        help="cap on the subsets of the covering",
    )
    with_output(p)

    p = add(
        "pipeline",
        cmd_pipeline,
        "equivalent pair -> unambiguous automaton: deterministic when the weighted subset construction"
        " finishes within --subset-cap and the 1-valued automaton's size, otherwise the covering",
    )
    p.add_argument("maxfile")
    p.add_argument("minfile")
    p.add_argument(
        "--subset-cap", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP, metavar="N",
        help="cap on the subsets of the covering; the weighted subset construction"
        " stops at the smaller of N and the 1-valued automaton's state count",
    )
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
