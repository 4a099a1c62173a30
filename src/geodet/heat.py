"""Lowest-order short-time heat kernel limits and the sphere spectral oracle.

The limit lim_{t->0} (4 pi t)^{k/2} p_t(x,y)/e_t(x,y) is predicted from the
determinant layer (J(x,y)^{-1/2} off the cut locus; a kernel-volume integral
of |det J'(1)|^{1/2} over initial velocities for antipodal sphere points,
where k = n-1) and confirmed against a brute-force spectral sum for the heat
kernel of the round sphere.  The spectral sum at geodesic distance d loses
d^2/(4t)/ln(10) digits to cancellation, so it runs only where that loss is
small; deeper cells use closed forms of the sphere kernel that do not
cancel: image sums on odd spheres and a Mehler-type integral on even ones,
raised in dimension by the recursion of Camporesi (Phys. Rep. 196, 1990).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConjugatePointError,
    DomainError,
    InsufficientDegreeError,
    OutOfScopeError,
)
from .errors import LOG_MAX, LOG_TINY, check_count, check_positive, check_real, normal_exp, printable
from .errors import check_float_count, signed_exp
from .geometry import ConstantCurvature, GeodesicData, JacobiSystem, jacobi_endomorphism
from .gelfand_yaglom import _read_endpoint, solve_jacobi_ode
from .interval import gauss_legendre

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
# from S^343 on the Gamma((n + 1)/2) of the sphere volume leaves float64
_MAX_SPHERE_DIM = 342

def euclidean_heat_kernel(d: float, n: int, t: float) -> float:
    """Flat-space comparison kernel (4 pi t)^{-n/2} exp(-d^2/(4t)); 0.0 at d = inf.

    An n beyond float64 raises DomainError.
    """
    n = check_count(n, 1, "dimension must be >= 1, got {}")
    check_float_count(n, "dimension {} lies beyond float64")
    check_positive(t, "time")
    check_real(d, lambda d: d >= 0, "distance must be >= 0, got {}")
    return float((4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-d * d / (4.0 * t)))


def _limit_prediction(sys: JacobiSystem, log_volume: float):
    """(prediction, singular values of J(1), kernel dim) of a geodesic's Jacobi system.

    vol(family) prod sig_perp^{-1/2} |det(W^T J'(1) C)|^{1/2} on the kernel split of J(1)
    at 1024 steps, log_volume = log vol(family): det J(1)^{-1/2} with an empty kernel, else
    the density integrated over the family of minimizers, partial or full.  Its one exit
    is a DomainError outside the normal float64 range.
    """
    # the run's end state alone, no grid
    sig, kdim, _, log_wjc = _read_endpoint(solve_jacobi_ode(sys, 1024).end, sys.t)
    log_value = log_volume + 0.5 * (log_wjc - float(np.sum(np.log(sig[: sys.n - kdim]))))
    return normal_exp(log_value, f"the limit prediction exp({log_value:.6g})"), sig, kdim


def nondegenerate_limit_prediction(m, d: float) -> float:
    """Predicted ratio limit J(x,y)^{-1/2} through det J(1) of the Jacobi ODE.

    On any manifold jacobi_endomorphism supports.  The one conjugacy test is a zero mode
    of J(1) by the Gel'fand-Yaglom singular-value test, a ConjugatePointError: on a
    sphere of radius R every d within about pi R 1e-6 of pi R (GeodesicData rejects more).
    """
    value, sig, kdim = _limit_prediction(jacobi_endomorphism(GeodesicData(m, d)), 0.0)
    if kdim:
        raise ConjugatePointError(f"conjugate endpoints: J(1) has the singular value {sig[-1]:.3g}")
    return value


def sphere_surface_volume(m: int) -> float:
    """Volume of the unit m-sphere, 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    return 2.0 * np.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _check_sphere(n: int, R: float) -> int:
    """n, in the scope of every sphere computation: S^n(R) with 1 <= n <= 342 and R > 0."""
    n = check_count(n, 1, "dimension must be >= 1, got {}")
    if n > _MAX_SPHERE_DIM:
        raise OutOfScopeError(f"spheres above S^{_MAX_SPHERE_DIM} are out of scope, got S^{printable(n)}")
    check_positive(R, "radius")
    # the float64 sum divides by R^2 and by the volume vol(S^n) R^n, and the degree sizing squares pi R
    log_r = math.log(R)
    for what, log_x in (("R^2", 2 * log_r), ("R^n", n * log_r), ("(pi R)^2", 2 * math.log(np.pi * R)),
                        ("the volume", n * log_r + math.log(sphere_surface_volume(n)))):
        if not LOG_TINY <= log_x < LOG_MAX:
            raise DomainError(f"{what} of S^{n}(R = {R}) is not a normal float64 number")
    return n


def _check_antipodal_scope(n: int, R: float) -> int:
    n = _check_sphere(n, R)
    if n < 2:
        raise OutOfScopeError("antipodal circle has a discrete set of minimizers")
    return n


def antipodal_sphere_limit_closed_form(n: int, R: float) -> float:
    """Antipodal limit 2 pi^(3n/2 - 1) R^(n-1) / Gamma(n/2) on the n-sphere.

    The factors are summed as logs, so none needs to lie in float64 on its
    own; a limit outside the normal float64 range is a DomainError.
    """
    n = _check_antipodal_scope(n, R)
    log_value = math.log(2.0) + (1.5 * n - 1.0) * math.log(np.pi) + (n - 1) * math.log(R) - math.lgamma(n / 2.0)
    return normal_exp(log_value, f"the antipodal limit of S^{n}(R = {R})")


def antipodal_limit_via_Sxy(n: int, R: float) -> float:
    """Antipodal limit as a velocity-sphere integral of |det J'(1)|^{1/2}.

    The minimizing geodesics to the antipode have initial speeds filling
    the sphere of radius pi R in the tangent space; by symmetry the integrand
    is constant: the full-kernel prediction along one of them, times the
    volume of that sphere.
    """
    n = _check_antipodal_scope(n, R)
    log_volume = math.log(sphere_surface_volume(n - 1)) + (n - 1) * math.log(np.pi * R)
    m = ConstantCurvature(n, 1.0 / R**2)
    return _limit_prediction(jacobi_endomorphism(GeodesicData(m, np.pi * R)), log_volume)[0]


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
        object.__setattr__(self, "n", _check_sphere(self.n, self.R))
        object.__setattr__(self, "max_degree", check_count(self.max_degree, 1, "max_degree must be >= 1"))

    @classmethod
    def for_time_range(cls, n: int, R: float, t_min: float):
        """Degree chosen from the tail bound e^{-L^2 t/R^2} L^{n-1}.

        The bound must push the first omitted term below ORACLE_TAIL_REL
        relative to the smallest kernel value on the sphere at t_min, which
        is of the order of the Euclidean kernel at the antipodal distance
        pi R.  A bound beyond 2^53 is a DomainError.
        """
        check_positive(t_min, "t_min")
        n = _check_sphere(n, R)
        # log of required absolute tail, with safety margin
        target = (
            -((np.pi * R) ** 2) / (4.0 * t_min)
            - (n / 2.0) * np.log(4.0 * np.pi * t_min)
            + np.log(ORACLE_TAIL_REL)
            - 30.0
        )
        # in Python floats a division beyond float64 gives inf, where numpy warns
        bound = R * np.sqrt(max(-float(target), 1.0) / t_min)
        if not bound <= 2.0**53:
            raise DomainError(f"the spectral sum on S^{n}(R = {R}) at t = {t_min} needs degree {bound:.3g}")
        L = max(8, int(np.ceil(bound)))
        while -L * (L + n - 1) * t_min / R**2 + (n - 1) * np.log(L + 1) > target:
            L += max(4, L // 8)
        return cls(n, R, L)

    def eigenvalue(self, l: int) -> float:
        return l * (l + self.n - 1) / self.R**2

    def multiplicity(self, l: int) -> int:
        """Dimension of the degree-l eigenspace."""
        if l == 0:
            return 1
        return math.comb(l + self.n, self.n) - math.comb(l + self.n - 2, self.n)

    @property
    def volume(self) -> float:
        return sphere_surface_volume(self.n) * self.R**self.n


def _fold_angle(theta: float) -> float:
    """Reduce an angle to [0, pi] using the symmetries of the kernel; DomainError unless finite."""
    th = abs(float(check_real(theta, math.isfinite, "angle must be finite, got {}"))) % (2.0 * np.pi)
    return 2.0 * np.pi - th if th > np.pi else th


def _zonal_sum_float(spec: SphereSpectrum, theta: float, t: float):
    """float64 spectral sum; valid when cancellation is shallow.

    Returns (total, envelope of the last summed degree).  The sum stops on
    the term envelope e^{-lambda_l t} m_l / vol, which bounds every later term
    since the normalized Gegenbauer values obey |g_l| <= 1; a term itself can
    vanish exactly at a rational angle.  A multiplicity m_l beyond float64 is
    a DomainError.

    The loop runs on Python floats and ints, where numpy scalars cost a
    method dispatch per operation, with the arithmetic of
    :meth:`SphereSpectrum.eigenvalue` and :meth:`SphereSpectrum.multiplicity`
    in the same order, so every value is bit-identical to theirs.  The
    multiplicity m_l = C(l+n, n) - C(l+n-2, n) steps C(l+n, n) exactly,
    C(l+n, n) = C(l+n-1, n) (l+n)/l, and lags it two degrees for the second
    binomial.
    """
    n, R, L = spec.n, spec.R, spec.max_degree
    x = float(np.cos(theta))
    alpha = (n - 1) / 2.0
    vol = float(spec.volume)
    R2 = R**2
    total = 0.0
    g2, g1 = 1.0, x  # normalized Gegenbauer values g_0, g_1
    c2, c1 = 0, 0  # c = C(l+n, n) two and one degrees back
    for l in range(L + 1):
        if l == 0:
            g, c = 1.0, 1
        elif l == 1:
            g, c = x, n + 1
        else:
            g = (2.0 * x * (l + alpha - 1.0) * g1 - (l - 1.0) * g2) / (l + 2.0 * alpha - 1.0)
            g2, g1 = g1, g
            c = c1 * (l + n) // l
        try:
            weight = math.exp(-(l * (l + n - 1) / R2) * t) * (c - c2)
        except OverflowError:
            raise DomainError(f"the multiplicity of degree {l} on S^{n} is beyond float64") from None
        total += weight * g / vol
        env = weight / vol
        c2, c1 = c1, c
        if l > 8 and env < 1e-20 * abs(total):
            break
    return total, env


# Closed-form kernels.  With delta = pi - theta the distance from the antipode
# and x = cos(theta), the unit-sphere kernels obey
#   p^{n+2}_t = e^{nt}/(2 pi) dp^n_t/dx,   d/dx = (1/sin delta) d/d delta,
# so every kernel is a power of that operator applied to the circle's wrapped
# Gaussian (odd n) or to the Mehler-type integral on S^2 (even n)
#   p^2_t = 2 e^{t/4} (4 pi t)^{-3/2} sum_k (-1)^k
#           int_0^{pi/2} u_k e^{-u_k^2/4t} [sinc(a_+ delta) sinc(a_- delta)]^{-1/2} dpsi,
# with a_+- = (1 +- sin psi)/2 and u_k = pi - delta sin psi + 2 pi k.  The
# operator acts on truncated Taylor series ("jets") in delta.  Near the
# antipode the images pi - delta and -pi - delta cancel in each derivative, so
# there the jet is taken at delta = 0 and summed out to delta; elsewhere it is
# taken at delta itself.  Jets carry the factor e^{theta^2/4t}, which is put
# back in log space.

# exponent drop past which the Mehler integrand is left out
_MEHLER_CUT = 50.0
# jets are summed from the antipode while lambda delta <= the reach (lambda =
# pi/2t, the rate of the leading image): 1 up to S^8, and 3 above, where a jet
# taken at delta itself just outside lambda delta = 1 lost digits (4e-11) ...
_ANTIPODE_REACH = 1.0
_ANTIPODE_REACH_HIGH = 3.0
_REACH_DIM = 8
# ... with this many orders beyond 2m: 1/24! and (1/(2 pi))^24 are below 1e-18;
# the t-independent Mehler factor at the antipode is cached per jet order
_ANTIPODE_TAIL = 24
# terms of the sinc series: pi^30/30! < 1e-17 on the range [0, pi] of use
_SINC_TERMS = 30
# reach of the jets in dimension over the deep cells (t/R^2 < 0.12), against a
# spectral sum carried 50 digits beyond its cancellation: 1e-12 relative to
# S^32 at the antipode itself, where the jet is read at its centre (1.2e-12
# at S^33); elsewhere 1e-12 to S^8, 1.1e-13 at S^9 and S^10 with the reach
# of 3 (4e-11 with a reach of 1), 2e-9 at S^11
_JET_DIM_AT_ANTIPODE = 32
_JET_DIM = 10


def _jet_mul(a, b):
    """Product of truncated Taylor series stored along axis 0."""
    return np.array([np.einsum("i...,i...->...", a[: j + 1], b[j::-1]) for j in range(len(a))])


def _jet_div(a, b):
    """Quotient a/b of truncated Taylor series; b[0] must be nonzero."""
    c = np.empty_like(a)
    for j in range(len(a)):
        c[j] = (a[j] - np.einsum("i...,i...->...", b[1 : j + 1], c[:j][::-1])) / b[0]
    return c


def _jet_pow(a, p: float):
    """a^p for a truncated Taylor series with a[0] > 0."""
    y = np.empty_like(a)
    y[0] = a[0] ** p
    for j in range(1, len(a)):
        k = np.arange(1, j + 1).reshape((-1,) + (1,) * (a.ndim - 1))
        y[j] = np.sum(((p + 1.0) * k - j) * a[1 : j + 1] * y[:j][::-1], axis=0) / (j * a[0])
    return y


def _gauss_jet(phi, t: float, order: int):
    """h_j with exp(-(phi - e)^2/4t) = exp(-phi^2/4t) sum_j h_j e^j (Hermite recurrence)."""
    h = np.empty((order + 1,) + np.shape(phi))
    h[0] = 1.0
    if order:
        h[1] = phi / (2.0 * t)
    for j in range(1, order):
        h[j + 1] = (phi * h[j] - h[j - 1]) / (2.0 * t * (j + 1))
    return h


@lru_cache(maxsize=32)
def _sinc_shift_matrix(order: int):
    """B with sum_r B[j, r] z^r the j-th Taylor coefficient of sinc at z."""
    terms = order + _SINC_TERMS
    a = [0.0 if i % 2 else (-1.0) ** (i // 2) / math.factorial(i + 1) for i in range(terms + order)]
    B = np.array([[a[j + r] * math.comb(j + r, j) for r in range(terms)] for j in range(order + 1)])
    B.flags.writeable = False  # shared by every caller through the cache
    return B


def _sinc_jet(z0, order: int):
    """Taylor coefficients in h of sinc(z0 + h), for each z0 in [0, pi]."""
    B = _sinc_shift_matrix(order)
    return B @ (z0 ** np.arange(B.shape[1])[:, None])


def _circle_jet(center: float, theta: float, t: float, order: int, ks):
    """Jet in delta of e^{theta^2/4t} p^1_t, the wrapped Gaussian, at delta = center."""
    phi = np.pi - center + 2.0 * np.pi * ks
    weight = np.exp((theta * theta - phi * phi) / (4.0 * t))
    return (_gauss_jet(phi, t, order) * weight).sum(axis=1) / math.sqrt(4.0 * np.pi * t)


def _mehler_factor(center: float, span: float, order: int):
    """(s, s^j, root) at the Mehler nodes: the integrand's factors that t enters only via span.

    The 64 Gauss-Legendre nodes psi = pi/2 - eps cover eps in [0, span], with
    s = cos(eps) = sin psi; the powers s^j, j <= order, turn a jet in
    e = delta - center into one along u = pi - delta s, and root is the jet
    of [sinc(a_+ delta) sinc(a_- delta)]^{-1/2} at delta = center.
    """
    nodes, _ = gauss_legendre(64)
    s = np.cos(0.5 * span * (nodes + 1.0))
    powers = s ** np.arange(order + 1)[:, None]
    a_plus, a_minus = 0.5 * (1.0 + s), 0.5 * (1.0 - s)
    sinc_prod = _jet_mul(
        _sinc_jet(a_plus * center, order) * a_plus ** np.arange(order + 1)[:, None],
        _sinc_jet(a_minus * center, order) * a_minus ** np.arange(order + 1)[:, None],
    )
    return s, powers, _jet_pow(sinc_prod, -0.5)


@lru_cache(maxsize=32)
def _antipode_factor(order: int):
    """:func:`_mehler_factor` at the antipode, where the span is pi/2: a function of order alone."""
    arrays = _mehler_factor(0.0, 0.5 * np.pi, order)
    for a in arrays:
        a.flags.writeable = False  # shared by every caller through the cache
    return arrays


def _mehler_jet(center: float, theta: float, t: float, order: int, ks):
    """Jet in delta of e^{theta^2/4t} p^2_t, the Mehler-type integral, at delta = center.

    The integrand decays like exp(-kappa (1 - sin psi)) with
    kappa = theta delta/2t, so the nodes cover only the part of [0, pi/2]
    next to pi/2 where it has not dropped by e^{-_MEHLER_CUT}.  At the
    antipode, center 0, kappa is 0 and the t-independent factor is cached.
    """
    kappa = theta * center / (2.0 * t)
    span = 0.5 * np.pi
    if kappa > _MEHLER_CUT:
        span = 2.0 * math.asin(math.sqrt(0.5 * _MEHLER_CUT / kappa))
    if center == 0.0:
        s, powers, root = _antipode_factor(order)
    else:
        s, powers, root = _mehler_factor(center, span, order)
    u = np.pi - center * s + 2.0 * np.pi * ks[:, None]
    h = _gauss_jet(u, t, order)
    h_prev = np.concatenate([np.zeros((1,) + u.shape), h[:-1]])
    # jet of u e^{-u^2/4t} along u = u_c - s e, scaled by e^{theta^2/4t}
    weight = np.where(ks % 2, -1.0, 1.0)[:, None] * np.exp((theta * theta - u * u) / (4.0 * t))
    numer = powers * ((u * h - h_prev) * weight).sum(axis=1)
    integrand = _jet_mul(numer, root)
    scale = 2.0 * math.exp(t / 4.0) * (4.0 * np.pi * t) ** -1.5 * 0.5 * span
    return integrand @ gauss_legendre(64)[1] * scale


def _raise_dimension(jet, center: float):
    """Jet of (1/sin delta) d/d delta applied to a jet taken at delta = center.

    At center 0 the derivative of the (even) kernel vanishes, so it is
    divided by sin(e)/e after dropping that zero; the jet loses two orders.
    """
    deriv = jet[1:] * np.arange(1, len(jet))
    i = np.arange(len(jet))
    sn, cs = math.sin(center), math.cos(center)
    sin_jet = np.array([sn, cs, -sn, -cs])[i % 4] / np.array([math.factorial(k) for k in i])
    if center == 0.0:
        return _jet_div(deriv[1:], sin_jet[1 : len(deriv)])
    return _jet_div(deriv, sin_jet[: len(deriv)])


def _closed_form_kernel(n: int, R: float, theta: float, t: float) -> float:
    """Heat kernel of the n-sphere of radius R at angle theta in [0, pi], in closed form.

    Uses p^{S^n_R}_t(theta) = R^{-n} p^{S^n_1}_{t/R^2}(theta).  Matches a
    high-precision spectral sum to 1e-12 for n <= 8 and t/R^2 up to 1;
    beyond that the kernel flattens and the image sums cancel.  Returns 0.0
    where p is below the float64 range.  Above _JET_DIM, or
    _JET_DIM_AT_ANTIPODE at the antipode, the jets lose digits, and such a
    cell raises DomainError before they are computed, as does a p beyond
    float64.
    """
    t = t / (R * R)
    m = (n - 1) // 2
    base = n - 2 * m  # 1: wrapped Gaussian, 2: Mehler integral
    delta = np.pi - theta
    # log p < -theta^2/4t + n (|log t| + 2), so p is below the float64 range here
    if theta * theta / (4.0 * t) > 800.0 + n * (abs(math.log(t)) + 2.0):
        return 0.0
    if n > (_JET_DIM_AT_ANTIPODE if delta == 0.0 else _JET_DIM):
        raise DomainError(f"closed-form kernels reach S^{_JET_DIM} off the antipode "
                          f"and S^{_JET_DIM_AT_ANTIPODE} at it, got S^{n}")
    reach = _ANTIPODE_REACH if n <= _REACH_DIM else _ANTIPODE_REACH_HIGH
    if delta <= reach * 2.0 * t / np.pi:
        center, order = 0.0, 2 * m + (_ANTIPODE_TAIL if delta > 0 else 0)
    else:
        center, order = delta, m
    # image pairs k, -1-k lie e^{-k^2 pi^2/t} below the leading pair; keep those above e^{-45}
    pairs = int(math.sqrt(45.0 * t) / np.pi)
    ks = np.arange(-pairs - 1, pairs + 1)
    jet = (_circle_jet if base == 1 else _mehler_jet)(center, theta, t, order, ks)
    for _ in range(m):
        jet = _raise_dimension(jet, center)
    value = float(np.polynomial.polynomial.polyval(delta - center, jet))
    log_rest = t * m * (base + m - 1) - m * math.log(2.0 * np.pi) - theta * theta / (4.0 * t)
    p = signed_exp(1.0, math.log(value) + log_rest - n * math.log(R)) if value > 0.0 else math.nan
    if not p < math.inf:  # nan or inf: the jets lost every digit of p > 0, or p left float64
        raise DomainError(f"closed-form kernel of S^{n} at t/R^2 = {t:.3g} has no float64 value")
    return p


def sphere_heat_kernel(spec: SphereSpectrum, theta: float, t: float) -> float:
    """Heat kernel p_t on the round sphere at geodesic angle theta.

    Where the spectral sum cancels by at most _FLOAT64_CANCEL_DIGITS
    (d^2/(4t)/ln 10 with d = R theta), sums e^{-l(l+n-1) t/R^2} Z_l(theta)
    over degrees l <= L in float64, with Z_l the zonal kernel (normalized
    Gegenbauer recurrence; the alpha = 0 case degenerates to the cosine
    series of the circle), and raises InsufficientDegreeError when the term
    envelope at degree L fails the 1e-14 relative tail bound.  Deeper cells
    use the closed forms of _closed_form_kernel, which do not cancel and do
    not depend on L; they return 0.0 below the float64 range.
    """
    check_positive(t, "time")
    th = _fold_angle(theta)
    d = spec.R * th
    if d * d / (4.0 * t) / np.log(10.0) > _FLOAT64_CANCEL_DIGITS:
        return _closed_form_kernel(spec.n, spec.R, th, t)
    total, env = _zonal_sum_float(spec, th, t)
    if env > ORACLE_TAIL_REL * abs(total):
        raise InsufficientDegreeError(
            f"degree {spec.max_degree} leaves relative tail "
            f"{env / abs(total):.2e} above {ORACLE_TAIL_REL}"
        )
    return float(total)


def richardson_extrapolate(values, stages: int):
    """Eliminate leading O(t), O(t^2), ... terms from a geometric t-grid.

    values[j] corresponds to t_j = t_0 2^{-j}.  Stage m combines
    (2^m v_{j+1} - v_j)/(2^m - 1).  Returns the final table row.
    """
    stages = check_count(stages, 0, "need stages >= 0, got {}")
    row = list(values)
    for m in range(1, stages + 1):
        factor = 2.0**m
        row = [(factor * row[i + 1] - row[i]) / (factor - 1.0) for i in range(len(row) - 1)]
        if len(row) == 1:
            break
    return row


@dataclass
class HeatLimitReport:
    """Prediction vs oracle for one short-time limit instance."""

    k: int
    predicted: float
    oracle_values: list  # (t, scaled ratio)
    extrapolated_oracle: float
    rel_deviation: float


def heat_limit_validation(
    n: int, R: float, case: str, d: float = None, t0: float = 0.2, levels: int = 5
) -> HeatLimitReport:
    """Compare the predicted limit with the Richardson-extrapolated oracle.

    The scaled ratio (4 pi t)^{k/2} p_t/e_t is evaluated on the geometric
    grid t_j = t0 2^{-j}, j = 0..levels-1, and extrapolated in the powers
    t and t^2.  case 'antipodal' uses k = n-1 at angle pi and takes no d;
    case 'nondegenerate' uses k = 0 and needs 0 < d < pi R strictly; within
    about pi R 1e-6 of pi R, and beyond, it raises ConjugatePointError.  The
    sphere's scope is checked before the prediction propagates n x n Jacobi
    fields, as are t0 and the levels, and a ratio or limit beyond float64 is a
    DomainError.
    """
    levels = check_count(levels, 2, "need at least two time levels")
    n = _check_sphere(n, R)
    check_positive(t0, "t0")
    # each ratio scales by (4 pi t)^{k/2} and divides by e_t, which holds (4 pi t)^{-n/2}
    log_4pi_t0 = math.log(4.0 * np.pi * t0)
    for log_4pi_t in (log_4pi_t0, log_4pi_t0 - (levels - 1) * math.log(2.0)):
        if not LOG_TINY <= 0.5 * n * log_4pi_t < LOG_MAX:
            raise DomainError(f"(4 pi t)^(n/2) on S^{n} from t0 = {t0} over {levels} levels "
                              "is not a normal float64 number")
    if case == "antipodal":
        if d is not None:
            raise DomainError(f"the antipodal case is at d = pi R and takes no d, got {d}")
        k, theta, dist = n - 1, np.pi, np.pi * R
        predicted = antipodal_sphere_limit_closed_form(n, R)
    elif case == "nondegenerate":
        if d is None:
            raise DomainError("nondegenerate case needs a distance d")
        check_real(d, lambda d: d > 0, "need d > 0, got {}")
        m = ConstantCurvature(n, 1.0 / R**2)
        if d >= m.conjugate_distance:  # the sphere's cut locus
            raise ConjugatePointError("conjugate/antipodal endpoints; use the antipodal route")
        k, theta, dist = 0, d / R, d
        predicted = nondegenerate_limit_prediction(m, d)
    else:
        raise DomainError(f"unknown case {case!r}")

    ts = [t0 * 2.0 ** (-j) for j in range(levels)]
    spec = SphereSpectrum.for_time_range(n, R, ts[-1])
    ratios = [float((4.0 * np.pi * t) ** (k / 2.0) * sphere_heat_kernel(spec, theta, t)
                    / euclidean_heat_kernel(dist, n, t)) for t in ts]
    extrapolated = richardson_extrapolate(ratios, 2)[-1]
    rel_deviation = abs(predicted - extrapolated) / abs(predicted)
    if not all(map(math.isfinite, ratios + [rel_deviation])):
        raise DomainError(f"the heat ratios on S^{n}(R = {R}) from t0 = {t0}, or their limit's "
                          f"deviation from {predicted:.6g}, are beyond float64")
    series = [(float(t), r) for t, r in zip(ts, ratios)]
    return HeatLimitReport(k, float(predicted), series, float(extrapolated), float(rel_deviation))
