"""Quadrature for products of Dirichlet sine modes on an interval [0, t].

The Fourier filtration integrates the potential against products of sine
modes sin(pi k s/t) sin(pi l s/t); a composite Gauss-Legendre rule with
panels sized for the fastest oscillation keeps those integrals at machine
precision.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["mode_quadrature"]

# Gauss-Legendre panels of this order keep oscillatory integrands at
# machine precision as long as the phase per panel stays below ~8.
_PANEL_ORDER = 16
_MAX_PHASE_PER_PANEL = 8.0
_MIN_PANELS = 4  # at least 64 nodes, however smooth the integrand


def mode_quadrature(t: float, max_halfwaves: int):
    """Composite Gauss-Legendre rule resolving sine products on [0, t].

    ``max_halfwaves`` is the largest combined frequency k + k' appearing in
    the integrand.  Panels are sized so the phase per panel stays below
    ~8 radians of the fastest oscillation, which keeps the 16-point rule
    at machine precision.

    Returns (nodes, weights) on [0, t].
    """
    total_phase = np.pi * max(1, max_halfwaves)
    panels = max(int(np.ceil(total_phase / _MAX_PHASE_PER_PANEL)), _MIN_PANELS)
    x, w = leggauss(_PANEL_ORDER)
    edges = np.linspace(0.0, t, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
