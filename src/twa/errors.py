"""Exception types shared across the library."""


class TwaError(Exception):
    """Base class for every error raised by this library."""


class TagMismatchError(TwaError):
    """Operands belong to different semirings, or the tag is unsupported here."""


class DimensionError(TwaError):
    """Matrix or vector dimensions do not line up, or a state index is out of range."""


class AlphabetError(TwaError):
    """An unknown symbol was used, or two alphabets do not match."""


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
    """A resource cap was hit: a construction or a witness grew past its cap.

    Every subset exploration (the all-words constant test, determinization,
    the covering) takes a cap.  DEFAULT_SUBSET_CAP bounds every product
    (``what`` is "product") and every comparison of two NFAs ("support
    comparison", "zero-filter comparison"), the letters of a nonpositivity
    witness ("witness"), and the pointers of its forward pass when no circuit
    is positive ("positive word").  `format.parse` refuses a state count, or
    a number of states times letters, above it.  ``what`` names what stopped.
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
