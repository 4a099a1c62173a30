"""Determinants through the matrix Jacobi initial value problem.

Solving J'' = V J with J(0) = 0, J'(0) = id turns infinite-dimensional
determinant ratios into boundary data of an ODE: for positive operators
P_i = -d^2/ds^2 + V_i on [0, t],

    det_zeta(P_2) / det_zeta(P_1) = det J_2(t) / det J_1(t),

and the free operator has the closed form det_zeta(-d^2/ds^2) = (2t)^n.
When the operator has zero modes, det J(t) vanishes and the ratio is
replaced by a boundary expression involving int J^T J and the second
fundamental solution on the kernel of J(t).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOperatorError,
    DomainError,
    IntegrationError,
    NonpositiveOperatorError,
    WrongRouteError,
)
from .geometry import JacobiSystem

__all__ = [
    "JacobiPropagation",
    "ZetaDetValue",
    "solve_jacobi_ode",
    "gy_ratio",
    "gy_degenerate_ratio",
    "zeta_det_dirichlet_laplacian",
    "zeta_det_jacobi",
]

# singular values of J(t) below DEGENERACY_REL_TOL t span its kernel (the
# zero modes); every route decides degeneracy by this one test
DEGENERACY_REL_TOL = 1e-6
DEFAULT_STEPS = 2048


@dataclass
class JacobiPropagation:
    """Grid values of the fundamental solution (J, J') of J'' = V J."""

    t_grid: np.ndarray
    J: np.ndarray  # (steps+1, n, n)
    Jprime: np.ndarray
    step_size: float
    error_estimate: float = 0.0

    @property
    def n(self) -> int:
        return self.J.shape[1]

    @property
    def t(self) -> float:
        return float(self.t_grid[-1])

    def det_final(self) -> float:
        return float(np.linalg.det(self.J[-1]))

    def wronskian_drift(self) -> float:
        """max_s ||J'^T J - J^T J'||; zero for symmetric potentials."""
        W = np.einsum("sji,sjk->sik", self.Jprime, self.J) - np.einsum(
            "sji,sjk->sik", self.J, self.Jprime
        )
        return float(np.max(np.abs(W)))


@dataclass
class ZetaDetValue:
    """A zeta-regularized determinant and the route that produced it."""

    value: float
    route: str  # "closed_form" | "gy_ratio" | "deflated"
    excluded_zero_modes: int = 0
    error_estimate: float = 0.0  # |value - value at steps // 2| / 15 on one route


def _sample_potential(sys: JacobiSystem, steps: int) -> np.ndarray:
    """V at the 2*steps+1 half-grid points needed by the RK4 stages."""
    V = sys.sample(np.linspace(0.0, sys.t, 2 * steps + 1))
    if not np.all(np.isfinite(V)):
        raise IntegrationError("potential produced non-finite samples")
    return V


def _transfer_increments(V: np.ndarray, h: float) -> np.ndarray:
    """RK4 step increments D_m with (y, z)_{m+1} = (I + D_m) (y, z)_m for y'' = V y.

    ``V`` holds the half-grid samples; with a = V(s_m), b = V(s_m + h/2) and
    c = V(s_m + h), one classical RK4 step of the first-order system
    (y, z)' = [[0, I], [V, 0]] (y, z) has the transfer matrix I + D_m with

        D_yy = h^2/6 (a + 2b) + h^4/24 ba     D_yz = h I + h^3/6 b
        D_zy = h/6 (a + 4b + c) + h^3/12 (ba + cb)
        D_zz = h^2/6 (2b + c) + h^4/24 cb,

    built for all steps at once.  The identity is kept out: rounding
    I + O(h^2) would drop the low bits of the increment in the same
    direction at every step of a smooth potential, an error that grows
    linearly with the step count.
    """
    a, b, c = V[0:-1:2], V[1::2], V[2::2]
    steps, n = b.shape[0], b.shape[1]
    ba, cb = b @ a, c @ b
    D = np.empty((steps, 2 * n, 2 * n))
    D[:, :n, :n] = (h * h / 6.0) * (a + 2.0 * b) + (h**4 / 24.0) * ba
    D[:, :n, n:] = h * np.eye(n) + (h**3 / 6.0) * b
    D[:, n:, :n] = (h / 6.0) * (a + 4.0 * b + c) + (h**3 / 12.0) * (ba + cb)
    D[:, n:, n:] = (h * h / 6.0) * (2.0 * b + c) + (h**4 / 24.0) * cb
    return D


def _rk4_run(sys: JacobiSystem, steps: int, Y0: np.ndarray, Z0: np.ndarray, V=None):
    """Fixed-step RK4 for Y'' = V Y; returns Y, Y' at every grid point.

    ``V`` are the half-grid samples of :func:`_sample_potential`, taken
    here when not given.  Raises IntegrationError when Y or Y' leaves the
    float64 range.
    """
    if V is None:
        V = _sample_potential(sys, steps)
    D = _transfer_increments(V, sys.t / steps)
    U = np.empty((steps + 1, 2 * sys.n, Y0.shape[1]))
    U[0] = np.concatenate((Y0, Z0))
    states = list(U)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for Dm, u, nxt in zip(D, states, states[1:]):
            np.dot(Dm, u, out=nxt)
            nxt += u
    finite = np.isfinite(U).all(axis=(1, 2))
    if not finite.all():
        s = sys.t * np.argmin(finite) / steps
        raise IntegrationError(
            f"J or J' left the float64 range at s = {s:.4g} of t = {sys.t:.4g}"
        )
    return U[:, : sys.n], U[:, sys.n :]


def _fine_run(sys: JacobiSystem, steps: int):
    """The propagation at ``steps`` and the half-grid samples of V it used."""
    if steps < 16:
        raise DomainError("need at least 16 steps")
    n = sys.n
    V = _sample_potential(sys, steps)
    J, Jp = _rk4_run(sys, steps, np.zeros((n, n)), np.eye(n), V)
    return JacobiPropagation(np.linspace(0.0, sys.t, steps + 1), J, Jp, sys.t / steps), V


def _coarse_final(sys: JacobiSystem, steps: int, V: np.ndarray) -> np.ndarray:
    """J(t) at steps // 2, the partner of the fine run on the half-grid samples ``V``.

    For even step counts the coarse half-grid is every other fine sample
    (``np.linspace`` grids nest exactly), so the potential is sampled once.
    """
    n = sys.n
    Vc = V[::2] if steps % 2 == 0 else None
    return _rk4_run(sys, steps // 2, np.zeros((n, n)), np.eye(n), Vc)[0][-1]


def solve_jacobi_ode(sys: JacobiSystem, steps: int = DEFAULT_STEPS) -> JacobiPropagation:
    """Propagate J'' = V J, J(0) = 0, J'(0) = id with fixed-step RK4.

    A half-resolution run provides the step-halving error estimate
    ||J_fine(t) - J_coarse(t)|| / 15 (the order-4 Richardson factor).
    """
    prop, V = _fine_run(sys, steps)
    Jc = _coarse_final(sys, steps, V)
    prop.error_estimate = float(np.max(np.abs(prop.J[-1] - Jc))) / 15.0
    return prop


def _zero_modes(Jt: np.ndarray, t: float):
    """SVD kernel test of J(t): (singular values, V^T, kernel mask).

    Singular values below DEGENERACY_REL_TOL t mark zero modes, and the
    matching rows of V^T span the kernel.  A small det J(t) alone is no
    zero mode: near a conjugate point of S^4 (n = 4, r = 3.12) det J(1) =
    3.3e-7 is a product of three singular values 0.0069, each computed to
    full relative accuracy.
    """
    _, sig, Vt = np.linalg.svd(Jt)
    return sig, Vt, sig < DEGENERACY_REL_TOL * t


def _check_positive(prop: JacobiPropagation, label: str):
    """A finite det J and no interior sign change: the operator is positive."""
    dets = np.linalg.det(prop.J[1:])
    if not np.all(np.isfinite(dets)):
        raise IntegrationError(f"{label}: det J left the float64 range")
    if np.any(dets <= 0.0):
        raise NonpositiveOperatorError(
            f"{label}: det J changes sign on (0, t]; operator not positive"
        )


def _check_ratio_operand(prop: JacobiPropagation, label: str):
    """:func:`_check_positive`, and DegenerateOperatorError when J(t) has a kernel."""
    _check_positive(prop, label)
    sig, _, kernel = _zero_modes(prop.J[-1], prop.t)
    if kernel.any():
        raise DegenerateOperatorError(
            f"{label}: J(t) has the singular value {sig[-1]:.3g}, below the kernel "
            f"threshold {DEGENERACY_REL_TOL * prop.t:.3g}; the operator has zero "
            "modes (use gy_degenerate_ratio, or det-zeta on the command line)"
        )


def gy_ratio(sys1: JacobiSystem, sys2: JacobiSystem, steps: int = DEFAULT_STEPS) -> float:
    """det_zeta(P_2)/det_zeta(P_1) = det J_2(t)/det J_1(t), both positive.

    Raises DegenerateOperatorError when either operator has zero modes,
    i.e. J(t) has a singular value below DEGENERACY_REL_TOL t.
    """
    if sys1.n != sys2.n or abs(sys1.t - sys2.t) > 1e-14:
        raise DomainError("operators must share fiber dimension and interval")
    p1, _ = _fine_run(sys1, steps)
    p2, _ = _fine_run(sys2, steps)
    for prop, label in ((p1, "P1"), (p2, "P2")):
        _check_ratio_operand(prop, label)
    return p2.det_final() / p1.det_final()


def _free_reference_ratio(sys: JacobiSystem, steps: int) -> ZetaDetValue:
    """gy_ratio(free, sys) and its step-halving estimate, free = -d^2/ds^2 on [0, t].

    The free det J(t) = t^n is exact, so only sys is propagated.
    """
    prop, V = _fine_run(sys, steps)
    _check_ratio_operand(prop, "P2")
    free = sys.t**sys.n
    value = prop.det_final() / free
    coarse = float(np.linalg.det(_coarse_final(sys, steps, V))) / free
    return ZetaDetValue(value, "gy_ratio", 0, abs(value - coarse) / 15.0)


def _simpson_weights(num_points: int, h: float) -> np.ndarray:
    w = np.ones(num_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def _degenerate_boundary_det(sys: JacobiSystem, steps: int, kdim: int = 0):
    """|det A| of the kernel-aware degenerate boundary matrix, and kernel dim.

    A has columns J(t) d_b on the complement of ker J(t) and
    -K(t) (int_0^t J^T J ds) c_a on the kernel, with K the second
    fundamental solution (K(0) = id, K'(0) = 0).  Dividing |det A| by
    det J_1(t) of a positive reference operator gives
    det'_zeta(P)/det_zeta(P_1).  When the kernel fills every direction
    this reduces to det(int J^T J)/|det J'(t)| since then
    K(t) = J'(t)^{-T}.  A nonzero ``kdim`` takes the kdim smallest singular
    directions of J(t) as the kernel instead of testing for it, so that a
    coarser run stays on the route a finer one chose.
    """
    steps = steps + (steps % 2)  # Simpson needs an even step count
    n = sys.n
    # one propagation of the 2n x 2n identity: columns (K, K') then (J, J')
    eye = np.eye(2 * n)
    Y, Z = _rk4_run(sys, steps, eye[:n], eye[n:])
    K, J = Y[:, :, :n], Y[:, :, n:]
    Jt = J[-1]

    sig, Vt, kernel_mask = _zero_modes(Jt, sys.t)
    kdim = kdim or int(np.count_nonzero(kernel_mask))
    if kdim == 0:
        raise WrongRouteError(
            f"J(t) has no zero mode (smallest singular value {sig[-1]:.3g}, "
            f"kernel threshold {DEGENERACY_REL_TOL * sys.t:.3g}); use the ratio route"
        )
    # singular values sort descending: the last kdim rows of V^T span the kernel
    C_ker = Vt[n - kdim :].T
    C_perp = Vt[: n - kdim].T

    w = _simpson_weights(steps + 1, sys.t / steps)
    gram = np.einsum("s,sji,sjk->ik", w, J, J)

    cols = []
    if C_perp.size:
        cols.append(Jt @ C_perp)
    cols.append(-K[-1] @ gram @ C_ker)
    A = np.hstack(cols)
    return abs(float(np.linalg.det(A))), kdim


def gy_degenerate_ratio(
    sys_deg: JacobiSystem, sys_ref: JacobiSystem, steps: int = DEFAULT_STEPS
) -> float:
    """det'_zeta(P_deg)/det_zeta(P_ref) for an operator with zero modes.

    P_deg must have zero modes, a singular value of J(t) below
    DEGENERACY_REL_TOL t (else WrongRouteError points back to gy_ratio);
    P_ref must be positive.
    On the kernel directions the boundary data is replaced by the
    quadrature of J^T J over the propagation grid (composite Simpson);
    regular directions keep their J(t) columns, so block-diagonal
    systems factor as expected.  The scalar second derivative at a
    simple zero mode carries the absolute-value convention: the ratio
    of two nonnegative operators is reported positive.
    """
    if sys_deg.n != sys_ref.n or abs(sys_deg.t - sys_ref.t) > 1e-14:
        raise DomainError("operators must share fiber dimension and interval")
    detA, _ = _degenerate_boundary_det(sys_deg, steps)
    pref, _ = _fine_run(sys_ref, steps)
    _check_ratio_operand(pref, "reference")
    return detA / pref.det_final()


def zeta_det_dirichlet_laplacian(t: float, n: int) -> ZetaDetValue:
    """Zeta determinant (2t)^n of the free Dirichlet operator on [0, t].

    From the spectrum pi^2 k^2/t^2 with multiplicity n the spectral zeta
    function is n (t/pi)^(2z) zeta_R(2z), and -zeta'(0) = n log(2t).  The
    power rule det_zeta(P^m) = det_zeta(P)^m follows from
    zeta_{P^m}(z) = zeta_P(mz).
    """
    if t <= 0:
        raise DomainError(f"interval length must be positive, got {t}")
    if n < 1:
        raise DomainError(f"fiber dimension must be >= 1, got {n}")
    try:
        value = (2.0 * t) ** n
    except OverflowError:  # a finite base raises, an infinite one gives inf
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"(2t)^n = (2 * {t:.4g})^{n} overflows float64")
    return ZetaDetValue(float(value), "closed_form", 0)


def zeta_det_jacobi(sys: JacobiSystem, steps: int = DEFAULT_STEPS) -> ZetaDetValue:
    """Zeta determinant of -d^2/ds^2 + V via the multiplicative transfer.

    det_zeta(P + V) = det_zeta(P) det(P^{-1}(P + V)) = (2t)^n det J(t)/t^n.
    Operators with zero modes return det'_zeta instead, with the kernel
    dimension recorded in excluded_zero_modes.  The error estimate compares
    the value with the same route at steps // 2.
    """
    n, t = sys.n, sys.t
    free = float((2.0 * t) ** n)
    prop, V = _fine_run(sys, steps)
    _, _, kernel = _zero_modes(prop.J[-1], t)
    if not kernel.any():
        _check_positive(prop, "P")
        value = free * prop.det_final() / t**n
        coarse = free * float(np.linalg.det(_coarse_final(sys, steps, V))) / t**n
        return ZetaDetValue(value, "gy_ratio", 0, abs(value - coarse) / 15.0)
    detA, kdim = _degenerate_boundary_det(sys, steps)
    value = free * detA / t**n
    coarse = free * _degenerate_boundary_det(sys, steps // 2, kdim)[0] / t**n
    return ZetaDetValue(value, "deflated", kdim, abs(value - coarse) / 15.0)
