"""Exception types shared across the package.

Everything raised on bad input or violated preconditions derives from
ColligateError so the command line tool can map the whole family to a
single diagnostic exit code.
"""

from __future__ import annotations

__all__ = [
    "ColligateError",
    "DimensionError",
    "FormatError",
    "OrthogonalityError",
    "PaddingError",
    "RankError",
    "SingularResolventError",
    "StructureError",
    "ToleranceError",
    "WitnessError",
]


class ColligateError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ColligateError, ValueError):
    """Matrix shapes are incompatible with the requested operation."""


class RankError(ColligateError, ValueError):
    """A matrix has higher numerical rank than the operation allows."""


class OrthogonalityError(ColligateError, ValueError):
    """Two ranges that must be orthogonal are not, beyond tolerance."""


class PaddingError(ColligateError, ValueError):
    """The orthogonal complement is too small to complete a basis."""


class SingularResolventError(ColligateError, ValueError):
    """A resolvent solve hit a singular matrix during evaluation."""


class ToleranceError(ColligateError, ValueError):
    """An absolute tolerance is not a finite nonnegative number, or is
    zero where a bisection needs a positive bracket width."""


class StructureError(ColligateError, ValueError):
    """A structural invariant fails: missing split, stray block, bad
    projection family, or mismatched point sets."""


class WitnessError(ColligateError, ValueError):
    """A factorization witness is absent or inconsistent.

    Carries the certificate with the residuals that were actually
    measured, when one was computed before the failure.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class FormatError(ColligateError, ValueError):
    """An input document does not match the on-disk format, or a matrix
    argument holds non-finite entries."""
