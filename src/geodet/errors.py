"""Exception types raised by the numerical routines.

Every error surfaced by the CLI is one of these; reports carry the class
name, never a bare traceback.
"""


class GeodetError(Exception):
    """Base class for all library errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class DomainError(GeodetError):
    """An argument lies outside the mathematical domain of the operation."""


class ConjugatePointError(GeodetError):
    """Endpoints at or beyond the first conjugate point (kappa > 0)."""


class CutLocusError(GeodetError):
    """A chain segment reaches the cut locus; the short-segment factor is undefined."""


class DegenerateSegmentError(GeodetError):
    """A partition segment has conjugate endpoints; its Jacobi interpolant is singular."""


class DegenerateOperatorError(GeodetError):
    """The operator or its truncation is singular; use a zero-mode (deflated) route."""


class RouteDisagreementError(GeodetError):
    """Two independent routes to the same quantity disagree beyond their tolerance."""


class IllSeparatedKernelError(GeodetError):
    """No clear spectral gap between near-zero and bulk eigenvalues."""


class NonpositiveOperatorError(GeodetError):
    """The boundary-value operator has a nonpositive eigenvalue (interior zero of det J)."""


class WrongRouteError(GeodetError):
    """The degenerate formula was requested for a nondegenerate operator."""


class IntegrationError(GeodetError):
    """Propagation left float64: non-finite potential samples or J, J' out of range."""


class DegenerateRouteError(GeodetError):
    """Conjugate or antipodal input to a route that assumes a unique minimizer."""


class OutOfScopeError(GeodetError):
    """A case excluded from the supported geometry (e.g. antipodal circle)."""


class InsufficientDegreeError(GeodetError):
    """The spectral sum was truncated before meeting its tail bound."""


class UsageError(GeodetError):
    """Malformed CLI configuration."""
