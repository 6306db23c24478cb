"""Exception types shared across the library."""


class TwaError(Exception):
    """Base class for every error raised by this library."""


class TagMismatchError(TwaError):
    """Operands belong to different semirings, or the tag is unsupported here."""


class DimensionError(TwaError):
    """Matrix or vector dimensions do not line up, or a state index is out of range."""


class AlphabetError(TwaError):
    """An unknown symbol was used, or two alphabets do not match."""


class PositiveCycleError(TwaError):
    """The potential u = M*beta diverges: a positive-weight cycle reaches beta.

    Raised by the Bellman-Ford relaxation of u (``twa.spectral._relax``).
    """


class NotNonpositiveError(TwaError):
    """A construction required a nonpositive series but found a value above zero.

    The offending word is available as ``witness``.
    """

    def __init__(self, witness: str):
        super().__init__(f"series is positive on witness {witness!r}")
        self.witness = witness


class NotEqualError(TwaError):
    """Two automata that were required to be equivalent are not.

    A word on which they differ is available as ``witness``.
    """

    def __init__(self, witness: str):
        super().__init__(f"series differ on witness {witness!r}")
        self.witness = witness


class CapExceededError(TwaError):
    """A resource cap was hit: more subsets or states appeared than the cap allows.

    Every subset exploration (the all-words constant test, determinization,
    the covering) takes a cap.  Every product stops at DEFAULT_SUBSET_CAP
    pairs (``what`` is "product"), and so does every comparison of two NFAs
    ("support comparison", "zero-filter comparison"), which explores pairs of
    subsets.  `format.parse` refuses a state count, or a number of states
    times letters, above DEFAULT_SUBSET_CAP.
    ``what`` names the exploration, the product, the comparison or the count.
    """

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded cap of {cap}")
        self.what = what
        self.cap = cap


class FormatError(TwaError):
    """A text file or literal does not conform to the expected syntax."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class OracleBoundError(TwaError):
    """A brute-force enumeration would exceed its safety bound."""
