"""Lowest-order short-time heat kernel limits and the sphere spectral oracle.

The limit lim_{t->0} (4 pi t)^{k/2} p_t(x,y)/e_t(x,y) is predicted from the
determinant layer (J(x,y)^{-1/2} off the cut locus; a kernel-volume integral
of |det J'(1)|^{1/2} over initial velocities for antipodal sphere points,
where k = n-1) and confirmed against a brute-force spectral sum for the heat
kernel of the round sphere.  The spectral sum at antipodal points loses
d^2/(4t)/ln(10) digits to cancellation, so small times are summed in
adaptive-precision arithmetic.
"""

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import (
    DegenerateRouteError,
    DomainError,
    InsufficientDegreeError,
    OutOfScopeError,
)
from .geometry import ConstantCurvature, GeodesicData, jacobi_endomorphism
from .gelfand_yaglom import solve_jacobi_ode

__all__ = [
    "SphereSpectrum",
    "HeatLimitReport",
    "euclidean_heat_kernel",
    "nondegenerate_limit_prediction",
    "antipodal_sphere_limit_closed_form",
    "antipodal_limit_via_Sxy",
    "sphere_heat_kernel",
    "heat_limit_validation",
    "richardson_extrapolate",
]

# relative truncation the oracle must certify for its last retained term
ORACLE_TAIL_REL = 1e-14
# cancellation depth (decimal digits) still handled in float64
_FLOAT64_CANCEL_DIGITS = 9.0


def euclidean_heat_kernel(d: float, n: int, t: float) -> float:
    """Flat-space comparison kernel (4 pi t)^{-n/2} exp(-d^2/(4t))."""
    if t <= 0:
        raise DomainError(f"time must be positive, got {t}")
    if d < 0:
        raise DomainError(f"distance must be >= 0, got {d}")
    return float((4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-d * d / (4.0 * t)))


def log_euclidean_heat_kernel(d: float, n: int, t: float) -> float:
    if t <= 0:
        raise DomainError(f"time must be positive, got {t}")
    return float(-(n / 2.0) * np.log(4.0 * np.pi * t) - d * d / (4.0 * t))


def nondegenerate_limit_prediction(m: ConstantCurvature, d: float, steps: int = 1024) -> float:
    """Predicted ratio limit J(x,y)^{-1/2} through det J(1) of the Jacobi ODE."""
    if not isinstance(m, ConstantCurvature):
        raise DomainError("prediction implemented for constant curvature")
    if d < 0:
        raise DomainError("distance must be >= 0")
    if m.kappa > 0 and d >= np.pi / np.sqrt(m.kappa) - 1e-12:
        raise DegenerateRouteError(
            "conjugate/antipodal endpoints; use the antipodal route"
        )
    if d == 0:
        return 1.0
    sys = jacobi_endomorphism(GeodesicData(m, d))
    prop = solve_jacobi_ode(sys, steps)
    return float(prop.det_final() ** -0.5)


def sphere_surface_volume(m: int) -> float:
    """Volume of the unit m-sphere, 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    return 2.0 * np.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def antipodal_sphere_limit_closed_form(n: int, R: float) -> float:
    """Antipodal limit 2 pi^(3n/2 - 1) R^(n-1) / Gamma(n/2) on the n-sphere."""
    if n < 2:
        raise OutOfScopeError("antipodal circle has a discrete set of minimizers")
    if R <= 0:
        raise DomainError(f"radius must be positive, got {R}")
    return float(2.0 * np.pi ** (1.5 * n - 1.0) * R ** (n - 1) / math.gamma(n / 2.0))


def antipodal_limit_via_Sxy(n: int, R: float, steps: int = 2048) -> float:
    """Antipodal limit as a velocity-sphere integral of |det J'(1)|^{1/2}.

    The minimizing geodesics to the antipode have initial speeds filling
    the sphere of radius pi R in the tangent space; by symmetry the
    integrand is constant, so the integral is |det J'(1)|^{1/2} times the
    volume of that sphere.  J'(1) comes from the Jacobi propagation along
    one antipodal geodesic (speed pi R, curvature 1/R^2).
    """
    if n < 2:
        raise OutOfScopeError("antipodal circle has a discrete set of minimizers")
    if R <= 0:
        raise DomainError(f"radius must be positive, got {R}")
    m = ConstantCurvature(n, 1.0 / R**2)
    sys = jacobi_endomorphism(GeodesicData(m, np.pi * R))
    prop = solve_jacobi_ode(sys, steps)
    det_jp = abs(float(np.linalg.det(prop.Jprime[-1])))
    return float(
        np.sqrt(det_jp) * sphere_surface_volume(n - 1) * (np.pi * R) ** (n - 1)
    )


def _multiplicity(n: int, l: int) -> int:
    """Dimension of the degree-l eigenspace on the n-sphere."""
    if l == 0:
        return 1
    if l == 1:
        return n + 1
    return math.comb(l + n, l) - math.comb(l + n - 2, l - 2)


@dataclass(frozen=True)
class SphereSpectrum:
    """Laplace spectrum of the round n-sphere of radius R up to degree L.

    Eigenvalues are l(l + n - 1)/R^2 with the zonal kernel of degree l
    evaluating to multiplicity/volume at angle 0.
    """

    n: int
    R: float
    max_degree: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sphere dimension must be >= 1")
        if self.R <= 0:
            raise DomainError("radius must be positive")
        if self.max_degree < 1:
            raise DomainError("max_degree must be >= 1")

    @classmethod
    def for_time_range(cls, n: int, R: float, t_min: float, tol: float = ORACLE_TAIL_REL):
        """Degree chosen from the tail bound e^{-L^2 t/R^2} L^{n-1}.

        The bound must push the first omitted term below tol relative to
        the smallest kernel value on the sphere at t_min, which is of the
        order of the Euclidean kernel at the antipodal distance pi R.
        """
        if t_min <= 0:
            raise DomainError("t_min must be positive")
        # log of required absolute tail, with safety margin
        target = (
            -((np.pi * R) ** 2) / (4.0 * t_min)
            - (n / 2.0) * np.log(4.0 * np.pi * t_min)
            + np.log(tol)
            - 30.0
        )
        L = max(8, int(np.ceil(R * np.sqrt(max(-target, 1.0) / t_min))))
        while -L * (L + n - 1) * t_min / R**2 + (n - 1) * np.log(L + 1) > target:
            L += max(4, L // 8)
        return cls(n, R, L)

    def eigenvalue(self, l: int) -> float:
        return l * (l + self.n - 1) / self.R**2

    def multiplicity(self, l: int) -> int:
        return _multiplicity(self.n, l)

    @property
    def volume(self) -> float:
        return sphere_surface_volume(self.n) * self.R**self.n


def _fold_angle(theta: float) -> float:
    """Reduce an angle to [0, pi] using the symmetries of the kernel."""
    th = abs(float(theta)) % (2.0 * np.pi)
    return 2.0 * np.pi - th if th > np.pi else th


def _zonal_sum_float(spec: SphereSpectrum, theta: float, t: float):
    """float64 spectral sum; valid when cancellation is shallow.

    Returns (total, envelope of the last summed degree, stopped early).  The
    sum stops on the term envelope e^{-lambda_l t} m_l / vol, which bounds
    every later term since the normalized Gegenbauer values obey |g_l| <= 1;
    a term itself can vanish exactly at a rational angle.
    """
    n, R, L = spec.n, spec.R, spec.max_degree
    x = np.cos(theta)
    alpha = (n - 1) / 2.0
    vol = spec.volume
    total = 0.0
    g2, g1 = 1.0, x  # normalized Gegenbauer values g_0, g_1
    for l in range(L + 1):
        if l == 0:
            g = 1.0
        elif l == 1:
            g = x
        else:
            g = (2.0 * x * (l + alpha - 1.0) * g1 - (l - 1.0) * g2) / (l + 2.0 * alpha - 1.0)
            g2, g1 = g1, g
        weight = math.exp(-spec.eigenvalue(l) * t) * spec.multiplicity(l)
        total += weight * g / vol
        env = weight / vol
        if l > 8 and env < 1e-20 * abs(total):
            return total, env, True
    return total, env, False


def _zonal_sum_mp(spec: SphereSpectrum, theta: float, t: float, dps: int):
    """The sum of :func:`_zonal_sum_float` in ``dps``-digit arithmetic."""
    n, R, L = spec.n, spec.R, spec.max_degree
    with mp.workdps(dps):
        x = mp.cos(theta)
        alpha = mp.mpf(n - 1) / 2
        vol = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2) * mp.mpf(R) ** n
        total = mp.mpf(0)
        g2, g1 = mp.mpf(1), x
        cutoff = mp.mpf(10) ** (-(dps - 5))
        for l in range(L + 1):
            if l == 0:
                g = mp.mpf(1)
            elif l == 1:
                g = x
            else:
                g = (2 * x * (l + alpha - 1) * g1 - (l - 1) * g2) / (l + 2 * alpha - 1)
                g2, g1 = g1, g
            lam = mp.mpf(l) * (l + n - 1) / mp.mpf(R) ** 2
            weight = mp.exp(-lam * t) * spec.multiplicity(l)
            total += weight * g / vol
            env = weight / vol
            if l > 8 and env < cutoff * abs(total):
                return float(total), float(env), True
        return float(total), float(env), False


def sphere_heat_kernel(spec: SphereSpectrum, theta: float, t: float) -> float:
    """Heat kernel p_t on the round sphere at geodesic angle theta.

    Sums e^{-l(l+n-1) t/R^2} Z_l(theta) over degrees l <= L with Z_l the
    zonal kernel (normalized Gegenbauer recurrence; the alpha = 0 case
    degenerates to the cosine series of the circle).  At angles near pi
    and small t the sum cancels down to exp(-d^2/(4t)) of its term scale,
    so deep cases switch to adaptive-precision arithmetic.  Raises
    InsufficientDegreeError when the term envelope at degree L fails the
    1e-14 relative tail bound.
    """
    if t <= 0:
        raise DomainError(f"time must be positive, got {t}")
    th = _fold_angle(theta)
    d = spec.R * th
    cancel_digits = d * d / (4.0 * t) / np.log(10.0)
    if cancel_digits <= _FLOAT64_CANCEL_DIGITS:
        total, env, early = _zonal_sum_float(spec, th, t)
    else:
        dps = 25 + int(np.ceil(cancel_digits))
        total, env, early = _zonal_sum_mp(spec, th, t, dps)
    if not early and env > ORACLE_TAIL_REL * abs(total):
        raise InsufficientDegreeError(
            f"degree {spec.max_degree} leaves relative tail "
            f"{env / abs(total):.2e} above {ORACLE_TAIL_REL}"
        )
    return float(total)


def richardson_extrapolate(values, stages: int, ratio: float = 2.0):
    """Eliminate leading O(t), O(t^2), ... terms from a geometric t-grid.

    values[j] corresponds to t_j = t_0 ratio^{-j}.  Stage m combines
    (ratio^m v_{j+1} - v_j)/(ratio^m - 1).  Returns the final table row.
    """
    row = list(values)
    for m in range(1, stages + 1):
        factor = ratio**m
        row = [(factor * row[i + 1] - row[i]) / (factor - 1.0) for i in range(len(row) - 1)]
        if len(row) == 1:
            break
    return row


@dataclass
class HeatLimitReport:
    """Prediction vs oracle for one short-time limit instance."""

    n: int
    R: float
    k: int
    case: str
    predicted: float
    oracle_values: list = field(default_factory=list)  # (t, scaled ratio)
    extrapolated_oracle: float = 0.0
    rel_deviation: float = 0.0
    d: float = None


def heat_limit_validation(
    n: int,
    R: float,
    case: str,
    d: float = None,
    t0: float = 0.2,
    levels: int = 5,
    richardson_stages: int = 2,
) -> HeatLimitReport:
    """Compare the predicted limit with the Richardson-extrapolated oracle.

    The scaled ratio (4 pi t)^{k/2} p_t/e_t is evaluated on the geometric
    grid t_j = t0 2^{-j}, j = 0..levels-1, and extrapolated in integer
    powers of t.  case 'antipodal' uses k = n-1 at angle pi; case
    'nondegenerate' needs d < pi R strictly and uses k = 0.
    """
    if levels < 2:
        raise DomainError("need at least two time levels")
    if case == "antipodal":
        k = n - 1
        theta = np.pi
        dist = np.pi * R
        predicted = antipodal_sphere_limit_closed_form(n, R)
    elif case == "nondegenerate":
        if d is None:
            raise DomainError("nondegenerate case needs a distance d")
        if not (0 < d < np.pi * R):
            raise DomainError("need 0 < d < pi R strictly")
        k = 0
        theta = d / R
        dist = d
        predicted = nondegenerate_limit_prediction(ConstantCurvature(n, 1.0 / R**2), d)
    else:
        raise DomainError(f"unknown case {case!r}")

    ts = [t0 * 2.0 ** (-j) for j in range(levels)]
    spec = SphereSpectrum.for_time_range(n, R, ts[-1])
    series = []
    for t in ts:
        p = sphere_heat_kernel(spec, theta, t)
        ratio = (4.0 * np.pi * t) ** (k / 2.0) * p / euclidean_heat_kernel(dist, n, t)
        series.append((float(t), float(ratio)))

    stages = min(richardson_stages, levels - 1)
    extrapolated = richardson_extrapolate([r for _, r in series], stages)[-1]
    return HeatLimitReport(
        n=n,
        R=R,
        k=k,
        case=case,
        d=None if case == "antipodal" else d,
        predicted=float(predicted),
        oracle_values=series,
        extrapolated_oracle=float(extrapolated),
        rel_deviation=float(abs(predicted - extrapolated) / abs(predicted)),
    )
