"""Exception hierarchy shared by all evoaut modules.

Every library error derives from :class:`EvoautError` so callers (notably the
CLI) can map failures onto exit codes without enumerating concrete types.
"""


class EvoautError(Exception):
    """Base class for all library errors."""


class FieldMismatch(EvoautError):
    """Operands or containers belong to different coefficient fields."""


class DivisionByZero(EvoautError, ZeroDivisionError):
    """Division by, or inversion of, the zero scalar."""


class ZeroArgument(EvoautError):
    """Zero passed where a unit of the multiplicative group is required."""


class NotPrimeField(EvoautError):
    """Operation requires a prime finite field."""


class DimensionMismatch(EvoautError):
    """Vector or matrix dimensions do not match the algebra."""


class ZeroVector(EvoautError):
    """The zero vector is not allowed here."""


class NotANaturalBasis(EvoautError):
    """A claimed natural basis fails orthogonality or independence.

    ``witness`` carries the offending pair of vectors (nonzero product) or the
    string ``"dependent"`` when the vectors do not form a basis.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TooLarge(EvoautError):
    """Requested computation exceeds a configured resource cap."""


class UnknownVertex(EvoautError):
    """Vertex label or index not present in the graph."""


class NotAGraphAutomorphism(EvoautError):
    """Permutation does not preserve the adjacency of the graph."""


class NotAnAutomorphism(EvoautError):
    """Scales and permutation do not define an algebra automorphism."""


class DepthTooSmall(EvoautError):
    """Chain depth too small for the stationarity argument to apply."""


class ParseError(EvoautError):
    """Input text is malformed; carries the 1-based line when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class InvariantViolation(EvoautError):
    """An internal consistency check failed; indicates a library bug."""
