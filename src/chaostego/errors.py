"""Exception hierarchy shared by all chaostego modules."""


class ChaostegoError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ChaostegoError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(ChaostegoError):
    """Malformed input file (netpbm image, bit matrix, or key file)."""


class DimensionMismatch(ChaostegoError):
    """Two operands that must share dimensions do not."""


class CapacityError(ChaostegoError):
    """A payload does not fit the addressed image."""


class InsufficientCapacity(CapacityError):
    """The position generator stopped before producing enough unique
    positions: the count exceeds the grid, the iteration cap ran out
    (count too close to the grid size), or the orbit repeated a state
    (a degenerate key whose orbit collapses onto a cycle)."""


class EncodingError(ChaostegoError):
    """A message cannot be represented in the requested encoding mode."""


class DecodeError(ChaostegoError):
    """A recovered bit payload violates the framing of its mode."""


class ExtractError(ChaostegoError):
    """Extraction failed: the declared payload exceeds the grid, or the
    position stream could not be regenerated."""
