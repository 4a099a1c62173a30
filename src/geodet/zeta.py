"""Zeta determinants: the value type every route returns, and the free closed form.

The free Dirichlet operator -d^2/ds^2 on [0, t] normalizes the transfer
det_zeta(P + V) = (2t)^n det J(t)/t^n, and its determinant (2t)^n is a
closed form.  This module imports no numpy, so a process that asks for the
closed form alone does not pay for it.
"""

import math
from typing import NamedTuple

from .errors import check_count, check_normal, check_positive, check_real

__all__ = ["ZetaDetValue", "zeta_det_dirichlet_laplacian"]


class ZetaDetValue(NamedTuple):
    """A zeta-regularized determinant and the route that produced it."""

    value: float
    route: str  # "closed_form" | "gy_ratio" | "deflated"
    excluded_zero_modes: int = 0
    error_estimate: float = 0.0  # |value - value at steps // 2| / 15 on one route


def zeta_det_dirichlet_laplacian(t: float, n: int) -> ZetaDetValue:
    """Zeta determinant (2t)^n of the free Dirichlet operator on [0, t].

    From the spectrum pi^2 k^2/t^2 with multiplicity n the spectral zeta
    function is n (t/pi)^(2z) zeta_R(2z), and -zeta'(0) = n log(2t).  The
    power rule det_zeta(P^m) = det_zeta(P)^m follows from
    zeta_{P^m}(z) = zeta_P(mz).  A power outside the normal float64 range,
    or an n beyond float64, raises DomainError.
    """
    check_positive(t, "interval length")
    n = check_count(n, 1, "fiber dimension must be >= 1, got {}")
    check_real(n, float, "fiber dimension n must lie in float64, got {}")
    try:  # C pow on float64, as numpy's power; an overflow is inf there
        value = (2.0 * float(t)) ** n
    except OverflowError:
        value = math.inf
    flow = "overflows" if value > 1.0 else "underflows"
    value = check_normal(value, f"(2t)^n = (2 * {t:.4g})^{n} {flow} float64")
    return ZetaDetValue(value, "closed_form", 0)
