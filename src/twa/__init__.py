"""Weighted automata over tropical semirings with exact rational weights.

The package provides linear representations over max-plus/min-plus, the
maximum cycle mean, decision procedures (nonpositivity, constant series,
equality and inequality of a max-plus and a min-plus series), and the
constructive pipeline that turns an equivalent max-plus/min-plus pair into a
1-valued and then unambiguous automaton.  The supports of the series are
handled inside as NFAs whose subsets are frozensets of states.  The language
questions (the all-words constant test, the support comparisons) walk pairs
of subsets, and the constructions (the subset covering, weighted
determinization) explore subsets; every product comes from one
accessible-product engine, all are bounded by one cap, ``DEFAULT_SUBSET_CAP``,
and every potential u = M*beta comes from one Bellman-Ford relaxation.

Weights are exact rationals (``int`` or ``fractions.Fraction``); the semiring
zero is ``None`` and never carries a value.  All operations are pure and all
results deterministic.
"""

from .automaton import WeightedAutomaton, hadamard
from .decisions import (
    Decision,
    decide_equal_const,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    fatou_normalize,
)
from .disambiguation import (
    DEFAULT_SUBSET_CAP,
    Covering,
    covering,
    disambiguate,
    extract_one_valued,
    remove_competitions,
    unambiguous_from_pair,
)
from .errors import (
    AlphabetError,
    CapExceededError,
    DimensionError,
    FormatError,
    NotEqualError,
    NotNonpositiveError,
    OracleBoundError,
    TagMismatchError,
    TwaError,
)
from .format import load, parse, save, serialize
from .semiring import (
    MAX_PLUS,
    MIN_PLUS,
    format_finite,
    parse_finite,
    semiring_for,
)
from .spectral import max_mean_cycle
from . import zoo

__version__ = "0.1.0"

__all__ = [
    "MAX_PLUS",
    "MIN_PLUS",
    "AlphabetError",
    "CapExceededError",
    "Covering",
    "Decision",
    "DEFAULT_SUBSET_CAP",
    "DimensionError",
    "FormatError",
    "NotEqualError",
    "NotNonpositiveError",
    "OracleBoundError",
    "TagMismatchError",
    "TwaError",
    "WeightedAutomaton",
    "covering",
    "decide_equal_const",
    "decide_equal_const_on_support",
    "decide_nonpositive",
    "decide_series_equal",
    "decide_series_leq",
    "disambiguate",
    "extract_one_valued",
    "fatou_normalize",
    "format_finite",
    "hadamard",
    "load",
    "max_mean_cycle",
    "parse",
    "parse_finite",
    "remove_competitions",
    "save",
    "semiring_for",
    "serialize",
    "unambiguous_from_pair",
    "zoo",
]
