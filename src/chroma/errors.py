"""Exception types shared across the package."""


class ChromaError(Exception):
    """Base class for all package-specific errors.  ``detail`` holds what a
    failure report adds to the class name and message."""

    detail = {}


class MalformedNext(ChromaError):
    """A threshold vector violates the unit-interval-order invariants."""


class VariableMismatch(ChromaError):
    """Polynomial arithmetic between rings with different variable counts."""


class TooLarge(ChromaError):
    """An enumeration would exceed the configured desk-scale budget."""


class BadShape(ChromaError):
    """A partition does not fit the requested grid geometry."""


class BadParameter(ChromaError):
    """An argument is outside the range where the formula is valid."""


class SingularSystem(ChromaError):
    """A basis-change linear system was singular (internal failure)."""


class NonIdentityPermutation(ChromaError):
    """A non-intersecting multipath induced a non-identity permutation,
    which contradicts planarity and signals a grid-construction bug."""


class TriplePoint(ChromaError):
    """Three paths meet in one grid vertex (impossible for single-column
    destinations; signals corrupted input)."""
