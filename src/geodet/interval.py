"""Every Gauss-Legendre rule geodet uses, built once per order and mapped onto panels.

The Fourier filtration integrates the potential against products of sine
modes sin(pi k s/t) sin(pi l s/t), that is, against the half-wave cosines
cos(pi m s/t) with m = |k - l| and k + l; a composite Gauss-Legendre rule
with panels sized for the fastest oscillation keeps those integrals at
machine precision.  The 16-point rule's error on cos(w x) and x sin(w x)
over [-1, 1], a panel of phase 2w, stays at its rounding floor of about
1.1e-15 up to 16 rad and leaves it from 17 rad on (2.3e-15 at 17 rad,
1.7e-14 at 18), so a panel spans up to 16 rad: mode_quadrature takes
16 ceil(pi h/16), about pi h, nodes for h half-waves.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import check_count, check_memory, check_positive

__all__ = ["gauss_legendre", "composite_gauss", "mode_quadrature", "mode_cosine_moments"]

# the largest phase per panel at which the rule of this order holds
# oscillatory integrands at machine precision (see the module docstring)
_PANEL_ORDER = 16
_MAX_PHASE_PER_PANEL = 16  # radians
_MIN_PANELS = 4  # at least 64 nodes, however smooth the integrand


@lru_cache(maxsize=None, typed=True)  # typed: 16.0 is checked, not served the rule of 16
def gauss_legendre(order: int):
    """Nodes and weights of the ``order``-point rule on [-1, 1], read-only: callers share them.

    An order that is no integer count of at least 1 raises DomainError.
    """
    order = check_count(order, 1, "Gauss-Legendre order must be >= 1, got {}")
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def composite_gauss(edges: np.ndarray, order: int):
    """(nodes, weights) of the ``order``-point rule on each panel, shape (panels, order)."""
    x, w = gauss_legendre(order)
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1, None] + edges[1:, None]) / 2.0
    return mid + half * x, half * w


def mode_quadrature(t: float, max_halfwaves: int):
    """Composite Gauss-Legendre rule resolving sine products on [0, t].

    ``max_halfwaves`` is the largest combined frequency k + k' appearing in
    the integrand.  Panels are sized so the phase per panel stays at most
    16 radians of the fastest oscillation, where the 16-point rule is still
    at machine precision: 16 ceil(pi max_halfwaves/16) nodes, at least 64.

    Returns (nodes, weights) on [0, t].  A t outside (0, inf), or a
    ``max_halfwaves`` that is no integer count of at least 0, raises
    DomainError, as does a rule beyond the physical memory.
    """
    check_positive(t, "interval length")
    max_halfwaves = check_count(max_halfwaves, 0, "max_halfwaves must be >= 0, got {}")
    # ceil(pi h/16) in integers, on the float64 pi: pi h itself overflows for
    # the largest h, which check_memory then names
    pi_num, pi_den = math.pi.as_integer_ratio()
    panels = max(-(-pi_num * max(1, max_halfwaves) // (pi_den * _MAX_PHASE_PER_PANEL)), _MIN_PANELS)
    message = "{} half-waves need {} for the rule's nodes and weights"
    check_memory(2 * _PANEL_ORDER * panels, message, max_halfwaves)
    nodes, weights = composite_gauss(np.linspace(0.0, t, panels + 1), _PANEL_ORDER)
    return nodes.ravel(), weights.ravel()


def mode_cosine_moments(fw: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_q fw_q cos(pi m s_q/t) for each index m >= 0 of ``m``; fw_q = weight x f(s_q).

    The nodes are those of a mode_quadrature rule on [0, t], and ``fw`` may
    stack integrands along its leading axes; the moments take the last axis.
    The rule's panels are uniform, s = p t/P + u, so one FFT over p,
    zero-padded to 2P, and a phase in the offsets u give every m at once;
    only the phases of the requested m are formed.
    """
    panels = fw.shape[-1] // _PANEL_ORDER
    f = fw.reshape(fw.shape[:-1] + (panels, _PANEL_ORDER))
    u = (gauss_legendre(_PANEL_ORDER)[0] + 1.0) / (2.0 * panels)  # offsets, in units of t
    # sum_p f_p exp(-i pi m p/P)
    F = np.fft.fft(f, n=2 * panels, axis=-2)[..., m % (2 * panels), :]
    phase = np.pi * np.outer(m, u)
    return np.sum(F.real * np.cos(phase) + F.imag * np.sin(phase), axis=-1)  # Re F exp(-i phase)
