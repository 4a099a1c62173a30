"""Exception types raised by the numerical routines, and the float64 boundary.

Every error surfaced by the CLI is one of these; reports carry the class
name, never a bare traceback.
"""

import functools
import math
import operator
import os
import sys

# logs of the smallest normal and of the largest float64 number
LOG_TINY, LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


class GeodetError(Exception):
    """Base class for all library errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class DomainError(GeodetError):
    """An argument lies outside the mathematical domain of the operation."""


class _Name(str):
    """A message's name for a value; its repr is the name itself."""

    __repr__ = str.__str__


def printable(value):
    """``value``, with an int too long to print (``sys.get_int_max_str_digits``) named by its size.

    Inside a tuple too; a message template takes the result in ``{}`` or ``{!r}``.
    """
    if isinstance(value, tuple):
        return tuple(map(printable, value))
    try:
        repr(value)
    except ValueError:
        return _Name(f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits")
    return value


def check_count(value, least: int, message: str, shown=None) -> int:
    """``value`` as an int (``operator.index``): a dimension, step or level count.

    An integer below ``least`` raises DomainError; anything that is no
    integer, a float even when integral, raises a DomainError naming it.
    ``message`` is a ``str.format`` template, filled only then with
    ``shown``, by default ``value``, through :func:`printable`.
    """
    try:
        count = operator.index(value)
    except TypeError:
        text = message.format(printable(value if shown is None else shown))
        raise DomainError(f"{value!r} is not an integer count: {text}") from None
    if count < least:
        raise DomainError(message.format(printable(value if shown is None else shown)))
    return count


@functools.cache
def physical_memory() -> float:
    """Bytes of physical memory by ``os.sysconf``, read once; inf where it does not tell."""
    try:
        return max(os.sysconf("SC_PHYS_PAGES"), 0) * os.sysconf("SC_PAGE_SIZE") or math.inf
    except (AttributeError, ValueError, OSError):
        return math.inf


def check_memory(floats: int, message: str, shown) -> None:
    """DomainError when ``floats`` float64 numbers exceed the physical memory.

    Called before the arrays that a count implies are made.  ``message`` is
    a ``str.format`` template, filled only then with ``shown`` (the count)
    through :func:`printable` and the size they need, in GiB or, beyond
    float64, as a power of two; the physical memory follows it.
    """
    memory = physical_memory()
    if 8 * floats > memory:
        try:
            size = f"{8 * floats / 2**30:.3g} GiB"
        except OverflowError:  # an int quotient beyond float64
            size = f"2^{(8 * floats).bit_length() - 1} bytes or more"
        text = message.format(printable(shown), size)
        raise DomainError(f"{text}, more than the {memory / 2**30:.3g} GiB of physical memory")


def check_float_count(count: int, message: str) -> None:
    """DomainError unless the int ``count`` converts to float64, as a power or quotient does.

    ``message`` is a ``str.format`` template, filled only then with ``count``
    through :func:`printable`.
    """
    try:
        float(count)
    except OverflowError:
        raise DomainError(message.format(printable(count))) from None


def check_real(value, ok, message: str):
    """``value`` if it is a number for which ``ok(value)`` holds, else DomainError.

    The error is ``message.format(value)``; a non-number, for which ``ok``
    raises TypeError, is named by its repr, and an int beyond float64, for
    which it raises OverflowError, by its type.
    """
    try:
        if ok(value):
            return value
    except TypeError:
        value = repr(value)
    except OverflowError:
        value = f"{type(value).__name__} beyond float64"
    raise DomainError(message.format(value))


def check_positive(value, what: str) -> None:
    """DomainError unless ``value`` lies in (0, inf) in float64; a non-number is named by its repr."""
    check_real(value, lambda v: 0 < v and math.isfinite(v), f"{what} must be positive and finite, got {{}}")


def check_normal(value: float, message: str) -> float:
    """``value`` if it is a normal float64 > 0, not 0.0, subnormal, inf or nan; else DomainError."""
    if not sys.float_info.min <= value < math.inf:
        raise DomainError(message)
    return value


def signed_exp(sign: float, log_abs: float) -> float:
    """sign * exp(log_abs), +-inf beyond float64: the one exit of a (sign, log|det|) pair.

    math.exp is the exponential numpy's det applies to its LU log, so a
    determinant carried as a log returns the bits det would.
    """
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return sign * math.inf


def normal_exp(log_abs: float, what: str) -> float:
    """exp(log_abs) through signed_exp; DomainError naming ``what`` unless it is a normal float64."""
    return check_normal(signed_exp(1.0, log_abs), f"{what} lies outside float64")


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
