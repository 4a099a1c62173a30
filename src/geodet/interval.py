"""Every Gauss-Legendre rule geodet uses, built once per order and mapped onto panels.

The Fourier filtration integrates the potential against products of sine
modes sin(pi k s/t) sin(pi l s/t), that is, against the half-wave cosines
cos(pi m s/t) with m = |k - l| and k + l; a composite Gauss-Legendre rule
with panels sized for the fastest oscillation keeps those integrals at
machine precision.  Its size is set by the accuracy of the weights, not by
the panel phase: numpy's leggauss weights are 7.0e-15, 5.8e-14 and 1.3e-12
relative off at orders 16, 32 and 64, and with weights recomputed from the
Legendre recurrence (gauss_legendre) the 32-point rule's error on cos(w x)
and x sin(w x) over [-1, 1], a panel of phase 2w, is 7.1e-16 at 58 rad
and 2.3e-15 at 60, where numpy's weights leave 2.4e-15 at every phase.  So
a panel spans up to 58 rad: mode_quadrature takes 32 ceil(pi h/58), about
0.55 pi h, nodes for h half-waves, where the 16-point rule on 16 rad panels
took about pi h.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, check_count, check_memory, check_positive, printable

__all__ = ["gauss_legendre", "composite_gauss", "mode_quadrature", "mode_cosine_moments"]

# the largest phase per panel at which the rule of this order holds
# oscillatory integrands at machine precision (see the module docstring)
_PANEL_ORDER = 32
_MAX_PHASE_PER_PANEL = 58  # radians
_MIN_PANELS = 2  # at least 64 nodes, however smooth the integrand


@lru_cache(maxsize=None, typed=True)  # typed: 16.0 is checked, not served the rule of 16
def gauss_legendre(order: int):
    """Nodes and weights of the ``order``-point rule on [-1, 1], read-only: callers share them.

    The nodes are numpy's leggauss nodes, within 1 ulp of the correctly
    rounded roots.  The weights are recomputed at them as
    2/((1 - x^2) P_n'(x)^2), P_n' from the three-term recurrence,
    symmetrized and scaled to sum to 2 (exactly so at the orders 4, 16, 32
    and 64, within 2 ulp up to 256): 5.0e-16, 2.1e-15, 5.2e-15 and 9.2e-14
    relative off at orders 4, 16, 32 and 64, where leggauss's own are
    7.0e-15, 5.8e-14 and 1.3e-12 off at 16, 32 and 64.  An order that
    is no integer count of at least 1 raises DomainError, as does one whose
    order^2 companion matrix (leggauss finds the nodes as its eigenvalues)
    exceeds the physical memory.
    """
    order = check_count(order, 1, "Gauss-Legendre order must be >= 1, got {}")
    check_memory(order * order, "Gauss-Legendre order {} needs {} for its companion matrix", order)
    x, _ = leggauss(order)
    p0, p1 = np.ones_like(x), x.copy()  # P_{k-1} and P_k, up to k = order
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    s = 1.0 - x * x
    derivative = order * (p0 - x * p1) / s
    w = 2.0 / (s * derivative * derivative)
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / np.sum(w)
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
    58 radians of the fastest oscillation, where the 32-point rule is still
    at machine precision: 32 ceil(pi max_halfwaves/58) nodes, at least 64.

    Returns (nodes, weights) on [0, t].  A t outside (0, inf), or a
    ``max_halfwaves`` that is no integer count of at least 0, raises
    DomainError, as does a rule beyond the physical memory.
    """
    check_positive(t, "interval length")
    max_halfwaves = check_count(max_halfwaves, 0, "max_halfwaves must be >= 0, got {}")
    # ceil(pi h/58) in integers, on the float64 pi: pi h itself overflows for
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
    only the phases of the requested m are formed, once per panel count
    and index set.  A last axis that is no whole positive number of
    panels, or indices that are no integers, raise DomainError.
    """
    panels, rest = divmod(fw.shape[-1], _PANEL_ORDER)
    if rest or not panels:
        raise DomainError(f"{fw.shape[-1]} nodes are no whole number of {_PANEL_ORDER}-point panels")
    m = np.asarray(m)
    if m.dtype.kind not in "iu":
        shown = printable(m.ravel().tolist()[0]) if m.size else f"an empty {m.dtype} array"
        raise DomainError(f"cosine-moment indices must form an integer array, got {shown}")
    f = fw.reshape(fw.shape[:-1] + (panels, _PANEL_ORDER))
    # sum_p f_p exp(-i pi m p/P)
    F = np.fft.fft(f, n=2 * panels, axis=-2)[..., m % (2 * panels), :]
    cos, sin = _phase_table(panels, m.astype(np.float64).tobytes())
    return np.sum(F.real * cos + F.imag * sin, axis=-1)  # Re F exp(-i phase)


@lru_cache(maxsize=16)
def _phase_table(panels: int, m: bytes):
    """Read-only cos and sin of pi m u for the indices ``m`` (float64 bytes), shared by callers."""
    u = (gauss_legendre(_PANEL_ORDER)[0] + 1.0) / (2.0 * panels)  # offsets, in units of t
    phase = np.pi * np.outer(np.frombuffer(m), u)
    cos, sin = np.cos(phase), np.sin(phase)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin
