"""Model manifolds and the curvature data entering the Jacobi operator.

Two families are supported: constant-curvature spaces (sphere kappa > 0,
flat kappa = 0, hyperbolic kappa < 0) and a synthetic family whose metric
is engineered so that a prescribed symmetric matrix potential V(s) appears
as the orthogonal block of the curvature term along a straight geodesic.
Geodesics are parametrized on [0, 1] at constant speed r = d(x, y), so the
energy of a minimizer is r^2/2 and the Jacobi operator lives on [0, 1].
"""

import math

import numpy as np

from .errors import (
    ConjugatePointError,
    DomainError,
    IntegrationError,
    check_count,
    check_float_count,
    check_memory,
    check_normal,
    check_real,
    printable,
)

__all__ = [
    "ConstantCurvature",
    "SyntheticPotential",
    "GeodesicData",
    "JacobiSystem",
    "jacobi_endomorphism",
    "exp_jacobian_closed_form",
]

_SYMMETRY_TOL = 1e-12


class ConstantCurvature:
    """Space form of dimension n and sectional curvature kappa."""

    def __init__(self, n: int, kappa: float):
        self.n = check_count(n, 1, "dimension must be >= 1, got {}")
        try:
            finite = math.isfinite(kappa)
        except (TypeError, OverflowError):  # a string or None, or an int beyond float64
            finite = False
        if not finite:
            raise DomainError("curvature must be finite")
        self.kappa = float(kappa)

    @property
    def conjugate_distance(self) -> float:
        """First conjugate distance pi/sqrt(kappa); inf for kappa <= 0."""
        return np.pi / np.sqrt(self.kappa) if self.kappa > 0 else np.inf

    def __repr__(self):
        return f"ConstantCurvature(n={printable(self.n)}, kappa={self.kappa})"


class SyntheticPotential:
    """Manifold of dimension n realizing a prescribed (n-1)x(n-1) potential.

    The metric g_ss = 1 + sum_ij V_ij(s) x^i x^j near the segment
    [0, t] x {0} makes the s-axis a geodesic whose curvature term has
    the orthogonal block V(s); the tangent direction stays flat.
    """

    def __init__(self, n: int, potential, t: float):
        self.n = _check_fiber(check_count(n, 2, "synthetic manifolds need dimension >= 2"))
        self.t = _check_length(t)
        self.potential = potential
        # V(u) = t^2 pot(t u) on the orthogonal block of the unit interval;
        # building it checks the block's shape and symmetry
        self._system = JacobiSystem._embedded(self.n, 1.0, potential, self.t, self.t * self.t)

    def __repr__(self):
        return f"SyntheticPotential(n={self.n}, t={self.t})"


class GeodesicData:
    """A constant-speed geodesic on [0, 1] with speed r = d(x, y)."""

    def __init__(self, manifold, speed: float):
        try:
            valid = speed >= 0  # False for NaN
            speed = float(speed)
        except TypeError:
            valid, speed = False, repr(speed)
        if not valid:
            raise DomainError(f"geodesic speed must be >= 0, got {speed}")
        if isinstance(manifold, ConstantCurvature):
            # minimizers on the sphere do not pass the antipode
            if speed > manifold.conjugate_distance + 1e-12:
                raise DomainError(
                    "speed exceeds pi/sqrt(kappa); no minimizing geodesic"
                )
            # every consumer builds the potential -kappa r^2 from these two
            if not np.isfinite(manifold.kappa * speed * speed):
                raise DomainError(
                    f"kappa r^2 overflows float64 (kappa = {manifold.kappa:g}, r = {speed:g})"
                )
        # the synthetic geodesic is the s-axis segment [0, t], so its speed is t
        if isinstance(manifold, SyntheticPotential) and speed != manifold.t:
            raise DomainError(f"a synthetic geodesic has speed t = {manifold.t}, got {speed}")
        self.manifold = manifold
        self.speed = speed


def _check_length(t) -> float:
    """t as a float; DomainError unless t > 0 and t^2, the scale of every route, is a float64.

    The square is taken of Python floats, where an overflow is inf without a warning.
    """
    message = "interval length must be positive with t^2 in float64, got {}"
    return float(check_real(t, lambda v: v > 0 and float(v) * float(v) < math.inf, message))


def _check_fiber(n: int) -> int:
    """n, unless one n x n float64 matrix exceeds the physical memory (DomainError naming n)."""
    check_memory(n * n, "a fiber dimension of {} needs {} for one n x n matrix", n)
    return n


def _check_finite(V):
    if not np.isfinite(V).all():
        raise IntegrationError("potential produced non-finite samples")


class JacobiSystem:
    """The operator -d^2/ds^2 + V(s) on [0, t] with Dirichlet conditions.

    V is symmetric-matrix valued; it may be given as a constant matrix or
    as a callable of s.  Constant potentials keep closed-form evaluation
    paths available downstream.  Every consumer of V reads it through
    :meth:`sample`, which calls a callable potential once per point.  A
    non-finite constant matrix or sample raises IntegrationError.
    """

    def __init__(self, n: int, t: float, potential):
        self.n = n = _check_fiber(check_count(n, 1, "fiber dimension must be >= 1, got {}"))
        self.t = _check_length(t)
        # a callable fills the block [lo:, lo:] of V with value_scale * func(arg_scale * s)
        self._lo, self._arg_scale, self._value_scale = 0, 1.0, 1.0
        if callable(potential):
            self._func = potential
            self._const = None
        else:
            mat = np.array(potential, dtype=float)
            if mat.shape == () and n == 1:
                mat = mat.reshape(1, 1)
            if mat.shape != (n, n):
                raise DomainError(f"potential must be {n}x{n}, got {mat.shape}")
            _check_finite(mat)
            mat.flags.writeable = False  # shared by every sample and call
            self._func = None
            self._const = mat
        self._check_symmetric()

    def _check_symmetric(self):
        t = self.t
        # a constant potential has one sample to check
        checks = (0.0,) if self.is_constant else (0.0, 0.29 * t, 0.5 * t, 0.83 * t, t)
        for s, V in zip(checks, self.sample(checks)):
            if np.max(np.abs(V - V.T)) >= _SYMMETRY_TOL * max(1.0, np.max(np.abs(V))):
                raise DomainError(f"potential not symmetric at s={s}")

    @classmethod
    def constant(cls, matrix, t: float) -> "JacobiSystem":
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        return cls(mat.shape[0], t, mat)

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    def sample(self, s) -> np.ndarray:
        """V at every point of ``s``, as an array of shape (len(s), n, n).

        Constant potentials return a read-only broadcast view.  A callable
        is called once per point, in order, and its values are written into
        one preallocated array.  Every sample must be k x k, k the block
        size; for k = 1 any single number is accepted.
        """
        s = np.asarray(s, dtype=float).reshape(-1)
        n = self.n
        if self._const is not None:
            return np.broadcast_to(self._const, (len(s), n, n))
        out = np.zeros((len(s), n, n))
        block = out[:, self._lo :, self._lo :]
        k = n - self._lo
        shape = (k, k)
        points = (self._arg_scale * s).tolist()
        func = self._func
        try:
            for i, p in enumerate(points):
                block[i] = v = func(p)
                # a sample that broadcasts into the block, such as a scalar,
                # is written without error; .shape first, as np.shape costs
                # a tenth of a potential call
                if k > 1 and getattr(v, "shape", None) != shape and np.shape(v) != shape:
                    raise DomainError(
                        f"potential sample at {p:g}: block must be {shape}, got {np.shape(v)}"
                    )
        except ValueError as exc:  # a sample of another shape, or the potential's own
            raise DomainError(f"potential sample at {p:g}: {exc}") from None
        block *= self._value_scale
        _check_finite(out)
        return out

    def __call__(self, s: float) -> np.ndarray:
        return self.sample((s,))[0]

    @classmethod
    def _embedded(cls, n: int, t: float, func, arg_scale: float, value_scale: float):
        """Callable (n-1)x(n-1) block V_ij(s) = value_scale func(arg_scale s) for
        i, j >= 1, with a zero first row and column."""
        sys = object.__new__(cls)
        sys.n, sys.t = n, float(t)
        sys._func, sys._const = func, None
        sys._lo, sys._arg_scale, sys._value_scale = 1, arg_scale, value_scale
        sys._check_symmetric()
        return sys


def jacobi_endomorphism(g: GeodesicData) -> JacobiSystem:
    """Curvature term of the Jacobi operator along g, in a parallel frame.

    The frame is chosen with e_1 = velocity/r.  For constant curvature the
    result is the constant matrix -kappa r^2 (I - e_1 e_1^T): the tangent
    direction is annihilated and each orthogonal direction is shifted by
    -kappa r^2, matching the eigenvalues pi^2 k^2 - kappa r^2 of the
    Jacobi operator.  Synthetic manifolds return their prescribed block
    (rescaled to the unit parametrization interval) with a zero tangent
    block.
    """
    m = g.manifold
    r = g.speed
    if isinstance(m, ConstantCurvature):
        mat = np.zeros((_check_fiber(m.n), m.n))
        if m.n > 1:
            mat[1:, 1:] = -m.kappa * r * r * np.eye(m.n - 1)
        return JacobiSystem(m.n, 1.0, mat)
    if isinstance(m, SyntheticPotential):
        return m._system
    raise DomainError(f"unsupported manifold {type(m).__name__}")


def _segment_phase(m: ConstantCurvature, d: float) -> float:
    """sqrt(|kappa|) d, after the manifold, dimension, distance and conjugate-point checks.

    The dimension must lie in float64, as n - 1 is the power of sin x/x.
    """
    if not isinstance(m, ConstantCurvature):
        raise DomainError("closed form requires a constant-curvature manifold")
    check_float_count(m.n, "dimension {} lies beyond float64")
    check_real(d, lambda d: d >= 0 and math.isfinite(d), "distance must be finite and >= 0, got {}")
    if d >= m.conjugate_distance:
        raise ConjugatePointError(f"d={d} reaches the conjugate distance pi/sqrt(kappa)")
    return np.sqrt(abs(m.kappa)) * d


def exp_jacobian_closed_form(m: ConstantCurvature, d: float) -> float:
    """Jacobian of the exponential map between points at distance d.

    Equals (sin(sqrt(kappa) d)/(sqrt(kappa) d))^(n-1), with sin replaced
    by sinh for negative curvature; the d -> 0 limit is 1.  A Jacobian outside
    the normal float64 range is a DomainError; :func:`_log_exp_jacobian` has its log.
    """
    x = _segment_phase(m, d)
    if x == 0:
        return 1.0
    with np.errstate(over="ignore"):  # sinh x beyond float64: caught below
        value = float((np.sinc(x / np.pi) if m.kappa > 0 else np.sinh(x) / x) ** (m.n - 1))
    return check_normal(value, f"exp Jacobian at d = {d:.4g} on {m} lies outside float64")


def _log_exp_jacobian(m: ConstantCurvature, d: float) -> float:
    """log of :func:`exp_jacobian_closed_form`, (n-1) log(sin x/x) or (n-1) log(sinh x/x)."""
    x = _segment_phase(m, d)
    if x == 0:
        return 0.0
    if m.kappa > 0:
        return (m.n - 1) * math.log(np.sinc(x / np.pi))
    # from x = 20 on, log(sinh x/x) is x - log 2x to rounding, and sinh x overflows from 711
    return (m.n - 1) * (math.log(math.sinh(x) / x) if x < 20.0 else x - math.log(2.0 * x))
