"""Weighted automata over tropical semirings with exact rational weights.

The package provides linear representations over max-plus/min-plus (their
supports are plain NFAs), exact spectral primitives (maximum cycle mean,
matrix star), decision procedures (nonpositivity, constant series,
equality and inequality of a max-plus and a min-plus series), and the
constructive pipeline that turns an equivalent max-plus/min-plus pair into a
1-valued and then unambiguous automaton.  Every language question (the
all-words constant test, the NFA comparisons, determinization, the covering)
runs on one breadth-first subset exploration, bounded by one cap,
``DEFAULT_SUBSET_CAP``.

Weights are exact rationals (``int`` or ``fractions.Fraction``); the semiring
zero is ``None`` and never carries a value.  All operations are pure and all
results deterministic.
"""

from .automaton import (
    BooleanAutomaton,
    WeightedAutomaton,
    hadamard,
)
from .decisions import (
    Decision,
    decide_equal_const,
    decide_equal_const_on_support,
    decide_nonpositive,
    decide_series_equal,
    decide_series_leq,
    fatou_normalize,
    nfa_equivalence,
    nfa_inclusion,
)
from .disambiguation import (
    DEFAULT_SUBSET_CAP,
    Covering,
    covering,
    determinize,
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
    PositiveCycleError,
    TagMismatchError,
    TwaError,
)
from .format import load, parse, save, serialize
from .semiring import (
    MAX_PLUS,
    MIN_PLUS,
    format_finite,
    negate_weight,
    oplus,
    otimes,
    parse_finite,
    semiring_for,
)
from .spectral import (
    TropicalMatrix,
    mat_add,
    mat_mul,
    mat_star,
    max_mean_cycle,
    star_vector,
)
from . import oracle, zoo

__version__ = "0.1.0"

__all__ = [
    "MAX_PLUS",
    "MIN_PLUS",
    "AlphabetError",
    "BooleanAutomaton",
    "CapExceededError",
    "Covering",
    "Decision",
    "DEFAULT_SUBSET_CAP",
    "DimensionError",
    "FormatError",
    "NotEqualError",
    "NotNonpositiveError",
    "OracleBoundError",
    "PositiveCycleError",
    "TagMismatchError",
    "TropicalMatrix",
    "TwaError",
    "WeightedAutomaton",
    "covering",
    "decide_equal_const",
    "decide_equal_const_on_support",
    "decide_nonpositive",
    "decide_series_equal",
    "decide_series_leq",
    "determinize",
    "disambiguate",
    "extract_one_valued",
    "fatou_normalize",
    "format_finite",
    "hadamard",
    "load",
    "mat_add",
    "mat_mul",
    "mat_star",
    "max_mean_cycle",
    "negate_weight",
    "nfa_equivalence",
    "nfa_inclusion",
    "oplus",
    "oracle",
    "otimes",
    "parse",
    "parse_finite",
    "remove_competitions",
    "save",
    "semiring_for",
    "serialize",
    "star_vector",
    "unambiguous_from_pair",
    "zoo",
]
