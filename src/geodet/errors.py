"""Exception types raised by the numerical routines, and the one count check.

Every error surfaced by the CLI is one of these; reports carry the class
name, never a bare traceback.
"""

import operator


class GeodetError(Exception):
    """Base class for all library errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class DomainError(GeodetError):
    """An argument lies outside the mathematical domain of the operation."""


def check_count(value, least: int, message: str) -> int:
    """``value`` as an int (``operator.index``): a dimension, step or level count.

    An integer below ``least`` raises DomainError(message); anything that is
    no integer, a float even when integral, raises a DomainError naming it.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{value!r} is not an integer count: {message}") from None
    if count < least:
        raise DomainError(message)
    return count


class ConjugatePointError(GeodetError):
    """A distance or segment reaches the first conjugate distance pi/sqrt(kappa)."""


class DegenerateOperatorError(GeodetError):
    """The operator or its truncation is singular; use a zero-mode (deflated) route."""


class RouteDisagreementError(GeodetError):
    """Two independent routes to the same quantity disagree beyond their tolerance."""


class IllSeparatedKernelError(GeodetError):
    """No clear spectral gap between near-zero and bulk eigenvalues."""


class NonpositiveOperatorError(GeodetError):
    """The boundary-value operator has a nonpositive eigenvalue (interior zero of det J)."""


class IntegrationError(GeodetError):
    """A potential sample is not finite, or a result left the float64 range.

    Propagation can take J or J' beyond float64, and the determinants and
    ratios built from a finite J(t) can overflow as well.
    """


class OutOfScopeError(GeodetError):
    """A case excluded from the supported geometry (e.g. antipodal circle)."""


class InsufficientDegreeError(GeodetError):
    """The spectral sum was truncated before meeting its tail bound."""


class UsageError(GeodetError):
    """Malformed CLI configuration."""
