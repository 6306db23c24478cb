"""Exact scalar arithmetic for the tropical semirings.

Two tags exist, max-plus and min-plus, and ``SEMIRINGS`` is the only place
that lists them.  Both are scalar: finite weights are exact rationals stored
as plain ``int`` or ``fractions.Fraction``; the semiring zero carries no value
and is represented by ``None`` everywhere (an absent arc *is* the zero
weight).  The supports of their series are handled as NFAs over
frozensets of states (``twa.automaton._SubsetNfa``) that read the automata's
own row dicts, not as a third tag.

No floating point is used anywhere: comparisons against 0 made by the
decision procedures are boundary-exact and would be corrupted by rounding.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError, TagMismatchError

Rational = int | Fraction


def as_value(x: Rational) -> Rational:
    """Collapse whole fractions to int; keeps equality/hashing tidy."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def is_rational(x) -> bool:
    """True for the finite weight domain: int (but not bool) or Fraction."""
    return type(x) is int or isinstance(x, Fraction)


class Semiring:
    """One semiring tag and its addition, max or min.

    Both tags multiply by rational ``+``, so a semiring is its addition
    alone.  ``plus`` takes raw weight values with ``None`` as the zero; on a
    tie ``max`` and ``min`` return their first argument.
    """

    __slots__ = ("tag", "_choose")

    def __init__(self, tag: str, choose):
        self.tag = tag
        self._choose = choose

    def plus(self, x, y):
        if x is None:
            return y
        if y is None:
            return x
        return self._choose(x, y)

    def __repr__(self):
        return f"<semiring {self.tag}>"


MAX_PLUS = Semiring("max-plus", max)
MIN_PLUS = Semiring("min-plus", min)

SEMIRINGS = {s.tag: s for s in (MAX_PLUS, MIN_PLUS)}


def semiring_for(tag) -> Semiring:
    """The singleton of a tag string or of a Semiring's tag; reject anything else.

    Every automaton holds MAX_PLUS or MIN_PLUS itself, so a semiring can be
    tested with ``is``.
    """
    if isinstance(tag, Semiring):
        tag = tag.tag
    try:
        return SEMIRINGS[tag]
    except (KeyError, TypeError):
        raise TagMismatchError(f"unknown semiring tag {tag!r}") from None


# ---------------------------------------------------------------------------
# Weight literals.
#
# Grammar (shared by the .twa file format and the command line): an optional
# sign followed by an integer, a fraction `p/q`, or a decimal with at most
# nine fractional digits.  Digits are ASCII only.  Decimals are converted
# exactly.  There is no literal for the semiring zero; absence denotes zero.
# ---------------------------------------------------------------------------

_FINITE_RE = re.compile(r"[+-]?(?:\d+/\d+|\d+(?:\.\d{1,9})?)\Z", re.ASCII)


def parse_finite(text: str) -> Rational:
    """Parse a finite scalar weight literal; raises FormatError on bad syntax."""
    if not _FINITE_RE.match(text):
        raise FormatError(f"bad weight literal {text!r}")
    try:
        if "/" in text:
            num_text, den_text = text.split("/")
            den = int(den_text)
            if den == 0:
                raise FormatError(f"zero denominator in weight literal {text!r}")
            return as_value(Fraction(int(num_text), den))
        if "." in text:
            return as_value(Fraction(text))
        return int(text)
    except ValueError:  # more digits than int() converts
        raise FormatError(
            f"weight literal of {len(text)} characters has more digits than this Python converts"
        ) from None


def format_finite(value: Rational) -> str:
    """Canonical text for a finite scalar weight: integer or `p/q` in lowest terms."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)
