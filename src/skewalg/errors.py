"""Exception types shared across the package."""

__all__ = [
    "ActionInvalidError",
    "AxiomViolationError",
    "BoundExceededError",
    "CompositionAmbiguityError",
    "ElementIndexError",
    "MalformedSystemError",
    "SignatureMismatchError",
    "SkeletonNotClosedError",
    "SkewalgError",
]


class SkewalgError(Exception):
    """Base class for all package-specific errors."""


class SignatureMismatchError(SkewalgError):
    """Two structures handed to an isomorphism search have different signatures."""


class BoundExceededError(SkewalgError):
    """An enumeration was requested beyond its configured order bound."""


class ElementIndexError(SkewalgError, IndexError):
    """A scalar entry point was given an index outside 0..n-1."""


class MalformedSystemError(SkewalgError):
    """An input file or table was refused: unreadable or not a structure, of the
    wrong shape or range, or missing an entry a total operation needs."""


class AxiomViolationError(SkewalgError):
    """A construction was attempted on a structure that fails its axiom checks."""

    def __init__(self, check_name, witness=None):
        self.check_name = check_name
        self.witness = witness
        detail = f"axiom check failed: {check_name}"
        if witness is not None:
            detail += f" at {witness}"
        super().__init__(detail)


class SkeletonNotClosedError(SkewalgError):
    """The idempotents of an algebra are not closed under its operations."""


class ActionInvalidError(SkewalgError):
    """A group action table fails the action axioms."""


class CompositionAmbiguityError(SkewalgError):
    """The two products disagree on a composable pair during reconstruction."""
