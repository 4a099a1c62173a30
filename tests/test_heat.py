"""Heat kernel limits: predictions, sphere oracle, Richardson extrapolation."""

import itertools
import math
import warnings

import numpy as np
import pytest

from geodet import (
    ConjugatePointError,
    ConstantCurvature,
    DomainError,
    GeodesicData,
    GeodetError,
    InsufficientDegreeError,
    JacobiSystem,
    OutOfScopeError,
    SphereSpectrum,
    SyntheticPotential,
    antipodal_limit_via_Sxy,
    antipodal_sphere_limit_closed_form,
    euclidean_heat_kernel,
    exp_jacobian_closed_form,
    heat_limit_validation,
    nondegenerate_limit_prediction,
    jacobi_endomorphism,
    solve_jacobi_ode,
    sphere_heat_kernel,
    zeta_det_dirichlet_laplacian,
)
from geodet import heat
from geodet.heat import (
    _closed_form_kernel,
    _limit_prediction,
    richardson_extrapolate,
    sphere_surface_volume,
)

PI = np.pi


def wrapped_gaussian_circle(theta, R, t, terms=64):
    """Poisson-summation oracle: sum of Euclidean kernels over all windings."""
    total = 0.0
    for m in range(-terms, terms + 1):
        d = abs(R * theta + 2.0 * PI * R * m)
        total += euclidean_heat_kernel(d, 1, t)
    return total


def spectral_sum_mp(n, R, theta, t):
    """The sphere's spectral sum in 30 digits beyond its cancellation depth."""
    import mpmath as mp

    dps = 30 + math.ceil((R * theta) ** 2 / (4.0 * t) / math.log(10.0))
    spec = SphereSpectrum(n, R, 1)
    with mp.workdps(dps):
        x = mp.cos(theta)
        alpha = mp.mpf(n - 1) / 2
        vol = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2) * mp.mpf(R) ** n
        total, g_prev, g = mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for l in itertools.count():
            if l == 1:
                g_prev, g = g, x
            elif l > 1:
                g_prev, g = g, (2 * x * (l + alpha - 1) * g - (l - 1) * g_prev) / (l + 2 * alpha - 1)
            env = mp.exp(-l * (l + n - 1) * mp.mpf(t) / mp.mpf(R) ** 2) * spec.multiplicity(l) / vol
            total += env * g
            if l > 8 and env < mp.mpf(10) ** (5 - dps) * abs(total):
                return float(total)


# ---------------------------------------------------------------------------
# Euclidean kernel


def test_euclidean_kernel_at_origin():
    t = 0.37
    assert euclidean_heat_kernel(0.0, 3, t) == pytest.approx((4 * PI * t) ** -1.5, rel=1e-14)


def test_euclidean_kernel_normalization_1d():
    t = 0.21
    xs = np.linspace(-40.0, 40.0, 2001)
    vals = np.array([euclidean_heat_kernel(abs(x), 1, t) for x in xs])
    integral = np.trapezoid(vals, xs)
    assert abs(integral - 1.0) < 1e-8


def test_euclidean_kernel_scaling_identity():
    d, n, t, c = 0.8, 3, 0.2, 2.5
    lhs = euclidean_heat_kernel(np.sqrt(c) * d, n, c * t)
    rhs = c ** (-n / 2.0) * euclidean_heat_kernel(d, n, t)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_euclidean_kernel_domain_errors():
    with pytest.raises(DomainError):
        euclidean_heat_kernel(1.0, 2, 0.0)
    with pytest.raises(DomainError):
        euclidean_heat_kernel(-1.0, 2, 0.1)


# ---------------------------------------------------------------------------
# predictions


def test_prediction_flat_is_one():
    assert nondegenerate_limit_prediction(ConstantCurvature(3, 0.0), 1.1) == pytest.approx(
        1.0, abs=1e-12
    )


def test_prediction_sphere_halfpi():
    val = nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), PI / 2)
    assert val == pytest.approx(PI / 2, rel=1e-10)


def test_prediction_hyperbolic():
    val = nondegenerate_limit_prediction(ConstantCurvature(2, -1.0), 1.0)
    assert val == pytest.approx(np.sinh(1.0) ** -0.5, rel=1e-10)
    assert val == pytest.approx(0.9224, abs=1e-4)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_prediction_conjugate_band(n):
    # within about pi R 1e-6 of pi R, J(1) has a zero mode by the Gel'fand-Yaglom
    # singular-value test; the old 1e-12 margin returned 1.2e-3..4.6e-3 off at 1e-9
    m = ConstantCurvature(n, 1.0)
    with pytest.raises(ConjugatePointError):
        nondegenerate_limit_prediction(m, PI - 1e-9)
    d = PI - 1e-5
    exact = (math.sin(d) / d) ** (-(n - 1) / 2)
    assert nondegenerate_limit_prediction(m, d) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("n, kappa, d", [(2, 1.0, 1.0), (3, 1.0, 3.0), (4, -1.0, 2.0), (5, 4.0, 0.3)])
def test_empty_kernel_prediction_is_the_singular_value_product(n, kappa, d):
    # with no kernel the prediction keeps the sum of logs of the SVD without vectors
    m = ConstantCurvature(n, kappa)
    J1 = solve_jacobi_ode(jacobi_endomorphism(GeodesicData(m, d)), 1024).J[-1]
    sig = np.linalg.svd(J1, compute_uv=False)
    assert nondegenerate_limit_prediction(m, d) == math.exp(-0.5 * float(np.sum(np.log(sig))))


def test_prediction_reads_a_partial_kernel():
    # V = diag(0, -pi^2, -pi^2, -0.3) has J(1) = diag(1, 0, 0, sin x/x), x = sqrt(0.3),
    # and J'(1) = -1 on the two kernel directions, so the prediction is (sin x/x)^{-1/2}
    sys = JacobiSystem.constant(np.diag([0.0, -PI**2, -PI**2, -0.3]), 1.0)
    value, _, kdim = _limit_prediction(sys, 0.0)
    x = math.sqrt(0.3)
    assert kdim == 2
    assert value == pytest.approx((math.sin(x) / x) ** -0.5, rel=1e-12)


def test_prediction_on_a_synthetic_manifold():
    # V = diag(-1, 1/2) along [0, 1] has J(1) = diag(1, sin 1, sinh(sqrt(1/2))/sqrt(1/2));
    # the prediction needs no constant curvature
    m = SyntheticPotential(3, lambda s: np.diag([-1.0, 0.5]), 1.0)
    exact = (math.sin(1.0) * math.sinh(math.sqrt(0.5)) / math.sqrt(0.5)) ** -0.5
    assert nondegenerate_limit_prediction(m, 1.0) == pytest.approx(exact, rel=1e-10)


def test_prediction_beyond_float64_det():
    # det J(1) = (sinh 200/200)^4 overflows float64; its log does not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        val = nondegenerate_limit_prediction(ConstantCurvature(5, -1.0), 200.0)
    assert math.isfinite(val)
    assert val == pytest.approx((200.0 / math.sinh(200.0)) ** 2, rel=1e-2, abs=0.0)


def test_antipodal_closed_form_values():
    assert antipodal_sphere_limit_closed_form(2, 1.0) == pytest.approx(2 * PI**2, rel=1e-14)
    assert antipodal_sphere_limit_closed_form(3, 1.0) == pytest.approx(4 * PI**3, rel=1e-14)
    assert antipodal_sphere_limit_closed_form(2, 2.0) == pytest.approx(4 * PI**2, rel=1e-14)
    with pytest.raises(OutOfScopeError):
        antipodal_sphere_limit_closed_form(1, 1.0)


def test_spheres_above_s342_are_out_of_scope():
    # Gamma((n + 1)/2) of the volume of S^343 is beyond float64
    for call in (
        lambda: antipodal_sphere_limit_closed_form(344, 1.0),
        lambda: antipodal_limit_via_Sxy(343, 1.0),
        lambda: SphereSpectrum(343, 1.0, 10),
        # rejected before the prediction propagates 343 x 343 Jacobi fields
        lambda: heat_limit_validation(343, 1.0, "nondegenerate", d=1.0),
    ):
        with pytest.raises(OutOfScopeError, match="above S\\^342"):
            call()
    assert SphereSpectrum(342, 1.0, 10).volume > 0.0


@pytest.mark.parametrize("n", [0, -2])
def test_antipodal_routes_reject_dimension_below_one(n):
    # a dimension error, not the n = 1 scope error
    message = f"dimension must be >= 1, got {n}"
    for route in (antipodal_sphere_limit_closed_form, antipodal_limit_via_Sxy):
        with pytest.raises(DomainError, match=message):
            route(n, 1.0)
    for case, d in (("antipodal", None), ("nondegenerate", 1.0)):
        with pytest.raises(DomainError, match=message):
            heat_limit_validation(n, 1.0, case, d=d)
    with pytest.raises(OutOfScopeError):
        antipodal_limit_via_Sxy(1, 1.0)


def test_antipodal_via_velocity_sphere_small_cases():
    # ODE gives J'(1) = diag(1, -1, ...): |det| = 1, leaving the sphere volume
    assert antipodal_limit_via_Sxy(2, 1.0) == pytest.approx(2 * PI**2, rel=1e-10)
    assert antipodal_limit_via_Sxy(3, 1.0) == pytest.approx(4 * PI**3, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_antipodal_routes_agree(n, R):
    # the full-kernel prediction (every normal direction) times the velocity-sphere volume
    a = antipodal_limit_via_Sxy(n, R)
    b = antipodal_sphere_limit_closed_form(n, R)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# sphere spectral oracle


def test_multiplicities():
    spec2 = SphereSpectrum(2, 1.0, 10)
    assert [spec2.multiplicity(l) for l in range(4)] == [1, 3, 5, 7]
    spec3 = SphereSpectrum(3, 1.0, 10)
    assert [spec3.multiplicity(l) for l in range(4)] == [1, 4, 9, 16]
    spec1 = SphereSpectrum(1, 1.0, 10)
    assert [spec1.multiplicity(l) for l in range(4)] == [1, 2, 2, 2]


@pytest.mark.parametrize("n", range(1, 9))
def test_multiplicity_matches_the_factorial_formula(n):
    # (2l + n - 1)(l + n - 2)!/(l!(n - 1)!) for l >= 1, and 1 at l = 0
    spec = SphereSpectrum(n, 1.0, 10)
    assert spec.multiplicity(0) == 1
    for l in range(1, 61):
        expected = (2 * l + n - 1) * math.factorial(l + n - 2) // (math.factorial(l) * math.factorial(n - 1))
        assert spec.multiplicity(l) == expected


def zonal_sum_reference(spec, theta, t):
    """Reference: the float64 zonal sum on numpy scalars, through the spectrum's methods."""
    n = spec.n
    x = np.cos(theta)
    alpha = (n - 1) / 2.0
    vol = spec.volume
    total = 0.0
    g2, g1 = 1.0, x
    for l in range(spec.max_degree + 1):
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
            break
    return total, env


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 50, 300])
@pytest.mark.parametrize("t", [0.2, 0.0125])
def test_zonal_sum_is_bit_identical_to_the_spectrum_methods(n, t):
    # the loop on Python floats and exact integer multiplicity steps gives
    # the total and the envelope of the numpy-scalar loop bit for bit
    for R, theta in itertools.product((1.0, 0.7), (0.1, 1.0, 0.2 * PI, 2.0, PI)):
        spec = SphereSpectrum.for_time_range(n, R, t)
        assert heat._zonal_sum_float(spec, theta, t) == zonal_sum_reference(spec, theta, t)


def test_zonal_sum_multiplicity_beyond_float64_is_a_domain_error():
    spec = SphereSpectrum.for_time_range(300, 10.0, 0.0125)
    with pytest.raises(OverflowError):
        zonal_sum_reference(spec, 0.1, 0.0125)
    with pytest.raises(DomainError, match=r"the multiplicity of degree 1048 on S\^300 is beyond float64"):
        heat._zonal_sum_float(spec, 0.1, 0.0125)


def test_eigenvalues_nondecreasing():
    spec = SphereSpectrum(3, 2.0, 50)
    evals = [spec.eigenvalue(l) for l in range(51)]
    assert all(b >= a for a, b in zip(evals, evals[1:]))


def test_oracle_normalization_on_s2():
    # int over the sphere of p_t = 1; only the constant mode survives
    spec = SphereSpectrum.for_time_range(2, 1.0, 0.3)
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(200)
    thetas = 0.5 * PI * (x + 1.0)
    weights = 0.5 * PI * w
    vals = np.array([sphere_heat_kernel(spec, th, 0.3) for th in thetas])
    integral = float(
        np.sum(weights * vals * np.sin(thetas)) * sphere_surface_volume(1) * 1.0
    )
    assert abs(integral - 1.0) < 1e-8


def test_oracle_matches_wrapped_gaussian_on_circle():
    spec = SphereSpectrum.for_time_range(1, 1.0, 0.05)
    for theta in (0.0, 0.6, 2.0):
        series = sphere_heat_kernel(spec, theta, 0.05)
        oracle = wrapped_gaussian_circle(theta, 1.0, 0.05)
        assert abs(series - oracle) < 1e-10


def test_oracle_symmetry_and_positivity():
    spec = SphereSpectrum.for_time_range(2, 1.0, 0.2)
    for theta in np.linspace(0.0, PI, 13):
        p = sphere_heat_kernel(spec, theta, 0.2)
        assert p > 0.0
        assert sphere_heat_kernel(spec, -theta, 0.2) == pytest.approx(p, rel=1e-13)


def test_oracle_deep_cancellation_accuracy():
    # antipodal S^2 at t = 0.0125 cancels ~86 digits; compare against an
    # independent high-precision direct sum
    import mpmath as mp

    spec = SphereSpectrum.for_time_range(2, 1.0, 0.0125)
    val = sphere_heat_kernel(spec, PI, 0.0125)
    with mp.workdps(140):
        total = mp.mpf(0)
        for l in range(400):
            term = (
                (2 * l + 1)
                * mp.exp(-l * (l + 1) * mp.mpf("0.0125"))
                * (-1) ** l
                / (4 * mp.pi)
            )
            total += term
        oracle = float(total)
    assert val == pytest.approx(oracle, rel=1e-12, abs=0.0)


# (R, theta, t/R^2) with more than 9 digits of cancellation and p in float64
# range: the antipode, next to it, off it, and t/R^2 = 0.2/256
DEEP_CELLS = [
    (0.5, PI, 0.0125),
    (2.0, PI, 0.02),
    (1.0, PI - 0.004, 0.01),
    (1.0, PI - 0.001, 0.03),
    (2.0, 2.0, 0.005),
    (0.5, 1.0, 0.2 / 256),
    (1.0, 0.3, 0.2 / 256),
]


@pytest.mark.parametrize("n", range(1, 8))
def test_deep_kernel_matches_mp_spectral_sum(n):
    for R, theta, t_unit in DEEP_CELLS:
        t = t_unit * R * R
        assert theta**2 / (4.0 * t_unit) / math.log(10.0) > 9.0
        # the closed forms of deep cells do not use the spectral degree
        val = sphere_heat_kernel(SphereSpectrum(n, R, 8), theta, t)
        assert val == pytest.approx(spectral_sum_mp(n, R, theta, t), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_form_matches_float64_sum_on_shallow_cells(n):
    for R in (0.5, 1.0, 2.0):
        for theta, t_unit in ((PI, 0.4), (PI - 0.05, 0.36), (PI - 0.3, 0.5), (2.0, 0.2), (1.0, 0.05), (0.2, 0.003)):
            t = t_unit * R * R
            assert theta**2 / (4.0 * t_unit) / math.log(10.0) <= 3.0
            spec = SphereSpectrum.for_time_range(n, R, t)
            expected = sphere_heat_kernel(spec, theta, t)
            assert _closed_form_kernel(n, R, theta, t) == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_matches_mp_spectral_sum_up_to_unit_time(n):
    # t/R^2 in (pi/4, 1] sums the jets from the antipode out to delta = 2t/pi > 1/2;
    # capped at delta = 1/2, S^8 was 2.7e-12 off at (0.95, 0.51)
    for t_unit, delta in ((0.85, 0.51), (0.95, 0.51), (1.0, 0.55), (1.0, 0.63)):
        theta = PI - delta
        assert delta <= 2.0 * t_unit / PI
        assert _closed_form_kernel(n, 1.0, theta, t_unit) == pytest.approx(
            spectral_sum_mp(n, 1.0, theta, t_unit), rel=1e-12, abs=0.0
        )


def test_deep_kernel_beyond_the_jets_reach_is_a_named_error(monkeypatch):
    # at S^20, theta = 0.95 pi, t = 0.1 the jets returned 0.0687, 3.1e-6 off;
    # the reach is checked before any jet is computed
    def no_jets(*args):
        raise AssertionError("jets computed past their reach")

    monkeypatch.setattr(heat, "_circle_jet", no_jets)
    monkeypatch.setattr(heat, "_mehler_jet", no_jets)
    for n, theta in ((11, 0.95 * PI), (20, 0.95 * PI), (33, PI), (72, PI)):
        message = f"reach S\\^10 off the antipode and S\\^32 at it, got S\\^{n}$"
        with pytest.raises(DomainError, match=message):
            sphere_heat_kernel(SphereSpectrum(n, 1.0, 8), theta, 0.1)


@pytest.mark.parametrize("n, theta, t", [(10, 0.98 * PI, 0.09), (10, 0.95 * PI, 0.1), (32, PI, 0.1)])
def test_deep_kernel_at_the_jets_reach_matches_mp_spectral_sum(n, theta, t):
    val = sphere_heat_kernel(SphereSpectrum(n, 1.0, 8), theta, t)
    assert val == pytest.approx(spectral_sum_mp(n, 1.0, theta, t), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("t", [0.004, 0.008])
def test_high_dimension_antipode_window_matches_mp_spectral_sum(n, t):
    # S^9 and S^10 sum the jets from the antipode out to delta = 3 (2t/pi):
    # with the window ending at 2t/pi, a jet taken at delta = 1.0001 (2t/pi)
    # was 2.5e-11 (S^9, t = 0.008) and 4.1e-11 (S^10, t = 0.004) off
    for edge_multiple in (1.0001, 1.1, 2.99, 3.03, 5.0):
        theta = PI - edge_multiple * 2.0 * t / PI
        val = sphere_heat_kernel(SphereSpectrum(n, 1.0, 8), theta, t)
        assert val == pytest.approx(spectral_sum_mp(n, 1.0, theta, t), rel=1e-12, abs=0.0)


def uncached_mehler_jet(center, theta, t, order, ks):
    # the Mehler jet with every factor rebuilt on each call, as before the
    # antipode factor was cached
    kappa = theta * center / (2.0 * t)
    span = 0.5 * PI
    if kappa > heat._MEHLER_CUT:
        span = 2.0 * math.asin(math.sqrt(0.5 * heat._MEHLER_CUT / kappa))
    nodes, weights = heat.gauss_legendre(64)
    eps = 0.5 * span * (nodes + 1.0)
    s = np.cos(eps)
    u = PI - center * s + 2.0 * PI * ks[:, None]
    h = heat._gauss_jet(u, t, order)
    h_prev = np.concatenate([np.zeros((1,) + u.shape), h[:-1]])
    weight = np.where(ks % 2, -1.0, 1.0)[:, None] * np.exp((theta * theta - u * u) / (4.0 * t))
    powers = s ** np.arange(order + 1)[:, None]
    numer = powers * ((u * h - h_prev) * weight).sum(axis=1)
    a_plus, a_minus = 0.5 * (1.0 + s), 0.5 * (1.0 - s)
    sinc_prod = heat._jet_mul(
        heat._sinc_jet(a_plus * center, order) * a_plus ** np.arange(order + 1)[:, None],
        heat._sinc_jet(a_minus * center, order) * a_minus ** np.arange(order + 1)[:, None],
    )
    integrand = heat._jet_mul(numer, heat._jet_pow(sinc_prod, -0.5))
    scale = 2.0 * math.exp(t / 4.0) * (4.0 * PI * t) ** -1.5 * 0.5 * span
    return integrand @ weights * scale


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_cached_antipode_factor_is_bit_identical(monkeypatch, n):
    # at the antipode and inside the 2t/pi window the jets are taken at
    # delta = 0, from the cached factor; every kernel equals the uncached one
    cells = [(R, theta, t_unit * R * R) for R in (0.5, 1.0, 2.0)
             for t_unit in (0.2, 0.01, 1e-3) for theta in (PI, PI - t_unit / PI)]
    cached = [_closed_form_kernel(n, R, theta, t) for R, theta, t in cells]
    monkeypatch.setattr(heat, "_mehler_jet", uncached_mehler_jet)
    assert cached == [_closed_form_kernel(n, R, theta, t) for R, theta, t in cells]


def test_antipode_factor_cache_is_keyed_on_the_jet_order(monkeypatch):
    # a sweep over theta, t and R leaves one cache entry per jet order, so no
    # float is part of the key
    orders = set()
    mehler_jet = heat._mehler_jet

    def recorded(center, theta, t, order, ks):
        orders.add(order)
        return mehler_jet(center, theta, t, order, ks)

    monkeypatch.setattr(heat, "_mehler_jet", recorded)
    heat._antipode_factor.cache_clear()
    for n, R, t_unit, offset in itertools.product((2, 4), (0.5, 1.0, 2.0), (0.3, 0.05, 0.01), (0.0, 0.1, 0.5)):
        _closed_form_kernel(n, R, PI - offset * t_unit, t_unit * R * R)
    assert orders == {0, 24, 2, 26}
    assert heat._antipode_factor.cache_info().currsize == len(orders)


def test_deep_kernel_below_float64_range_is_zero():
    assert sphere_heat_kernel(SphereSpectrum(3, 1.0, 8), PI, 1e-4) == 0.0


def test_oracle_insufficient_degree_error():
    spec = SphereSpectrum(2, 1.0, 3)
    with pytest.raises(InsufficientDegreeError):
        sphere_heat_kernel(spec, 0.3, 0.05)


def test_chapman_kolmogorov_on_circle():
    spec = SphereSpectrum.for_time_range(1, 1.0, 0.15)
    t, s, theta = 0.2, 0.15, 0.9
    M = 512
    phis = np.linspace(0.0, 2 * PI, M, endpoint=False)
    vals = np.array(
        [
            sphere_heat_kernel(spec, theta - phi, t) * sphere_heat_kernel(spec, phi, s)
            for phi in phis
        ]
    )
    integral = float(np.sum(vals) * (2 * PI / M))
    assert abs(integral - sphere_heat_kernel(spec, theta, t + s)) < 1e-8


# ---------------------------------------------------------------------------
# limit validation


def test_richardson_eliminates_linear_term():
    ts = [0.1 * 2.0**-j for j in range(4)]
    vals = [3.0 + 2.0 * t + 0.5 * t * t for t in ts]
    out = richardson_extrapolate(vals, 2)
    assert out[-1] == pytest.approx(3.0, abs=1e-12)


def test_flat_limit_sanity_small_distance_on_big_sphere():
    report = heat_limit_validation(2, 4.0, "nondegenerate", d=0.05, t0=0.1, levels=4)
    assert abs(report.extrapolated_oracle - 1.0) < 1e-3


def test_antipodal_s2_report():
    report = heat_limit_validation(2, 1.0, "antipodal")
    assert report.k == 1
    assert report.predicted == pytest.approx(2 * PI**2, rel=1e-12)
    assert report.rel_deviation < 0.01


def test_nondegenerate_s3_report():
    report = heat_limit_validation(3, 1.0, "nondegenerate", d=PI / 2)
    assert report.k == 0
    assert report.rel_deviation < 0.005


def test_nondegenerate_report_at_rational_angle():
    # at the angle pi/5 the n = 3 zonal terms of degree 4 and 9 vanish
    # exactly; the oracle sum must not stop at such a zero term
    d = 0.2 * PI
    report = heat_limit_validation(3, 1.0, "nondegenerate", d=d)
    predicted = nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), d)
    assert report.extrapolated_oracle == pytest.approx(predicted, rel=5e-3)


def test_ratio_monotone_and_residuals_linear():
    report = heat_limit_validation(2, 1.0, "antipodal")
    ratios = [r for _, r in report.oracle_values]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # decreasing toward limit
    residuals = [abs(r - report.predicted) for r in ratios]
    for a, b in zip(residuals, residuals[1:]):
        assert 1.5 < a / b < 2.6  # halving t roughly halves the residual


def test_focusing_sign_pattern():
    # kappa > 0 focuses (prediction > 1), kappa < 0 defocuses (prediction < 1)
    for kappa, d in ((1.0, 1.0), (1.0, 2.0), (0.3, 1.5)):
        assert nondegenerate_limit_prediction(ConstantCurvature(3, kappa), d) > 1.0
    for kappa, d in ((-1.0, 1.0), (-0.3, 2.0)):
        assert nondegenerate_limit_prediction(ConstantCurvature(3, kappa), d) < 1.0


def test_heat_limit_validation_input_errors():
    with pytest.raises(DomainError):
        heat_limit_validation(2, 1.0, "nondegenerate")  # missing d
    with pytest.raises(DomainError):
        heat_limit_validation(2, 1.0, "nondegenerate", d=0.0)
    with pytest.raises(ConjugatePointError):
        heat_limit_validation(2, 1.0, "nondegenerate", d=PI)  # not strictly inside
    with pytest.raises(DomainError):
        heat_limit_validation(2, 1.0, "unknown-case")
    with pytest.raises(DomainError, match="takes no d"):
        heat_limit_validation(2, 1.0, "antipodal", d=1.0)  # computed at d = pi R


@pytest.mark.parametrize(
    "x", [np.nan, np.inf, 0.0, -1.0, "3", None, 10**400],
    ids=["nan", "inf", "zero", "negative", "string", "none", "int-beyond-float64"],
)
def test_heat_times_and_radii_must_be_positive_and_finite(x):
    # t0 = nan ended in a ValueError from int(nan), t0 = inf in a RuntimeWarning
    # traceback, a NaN time made the kernels return nan, and an int beyond
    # float64 passed 0 < x < inf and ended in an OverflowError
    calls = [
        lambda: heat_limit_validation(3, 1.0, "nondegenerate", d=1.0, t0=x),
        lambda: heat_limit_validation(3, x, "antipodal"),
        lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 10), 0.5, x),
        lambda: euclidean_heat_kernel(1.0, 2, x),
        lambda: SphereSpectrum(2, x, 10),
        lambda: SphereSpectrum.for_time_range(2, 1.0, x),
        lambda: SphereSpectrum.for_time_range(2, x, 0.1),
        lambda: antipodal_sphere_limit_closed_form(3, x),
        lambda: zeta_det_dirichlet_laplacian(x, 2),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="positive and finite"):
            call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 50), np.nan, 0.2), "angle must be finite, got nan"),
        (lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 50), np.inf, 0.2), "angle must be finite, got inf"),
        (lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 50), -np.inf, 0.2), "angle must be finite, got -inf"),
        (lambda: euclidean_heat_kernel(np.nan, 2, 1.0), "distance must be >= 0, got nan"),
        (lambda: heat_limit_validation(2, "3", "antipodal"), "radius must be positive and finite, got '3'"),
        (lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 50), 0.5, None),
         "time must be positive and finite, got None"),
        (lambda: euclidean_heat_kernel(None, 2, 1.0), "distance must be >= 0, got None"),
        (lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 50), None, 0.2), "angle must be finite, got None"),
        (lambda: heat_limit_validation(2, 1.0, "nondegenerate", d="1"), "need d > 0, got '1'"),
        (lambda: exp_jacobian_closed_form(ConstantCurvature(2, 1.0), None),
         "distance must be finite and >= 0, got None"),
        (lambda: sphere_heat_kernel(SphereSpectrum(2, 1.0, 50), 0.5, 10**400),
         "time must be positive and finite, got int beyond float64"),
    ],
)
def test_nan_angles_distances_and_non_numbers_are_named(call, message):
    # each returned nan, or ended in a TypeError from a comparison or float(),
    # or an int beyond float64 in an OverflowError
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


def test_euclidean_kernel_is_zero_at_infinite_distance():
    assert euclidean_heat_kernel(np.inf, 2, 1.0) == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SphereSpectrum(0, 1.0, 5), "dimension must be >= 1, got 0"),
        (lambda: SphereSpectrum(2, 1.0, 0), "max_degree must be >= 1"),
        (
            lambda: heat_limit_validation(2, 1.0, "antipodal", levels=1),
            "need at least two time levels",
        ),
    ],
    ids=["sphere-n0", "degree-0", "one-level"],
)
def test_input_guards_are_named_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: antipodal_limit_via_Sxy(40, 5e7), "the limit prediction exp(720.266) lies outside float64"),
        (
            lambda: nondegenerate_limit_prediction(ConstantCurvature(5, -1.0), 400.0),
            "the limit prediction exp(-786.519) lies outside float64",
        ),
        (
            lambda: antipodal_sphere_limit_closed_form(40, 5e7),
            "the antipodal limit of S^40(R = 50000000.0) lies outside float64",
        ),
    ],
    ids=["sxy-n40-r5e7", "prediction-k-1-d400", "closed-form-n40-r5e7"],
)
def test_limits_beyond_float64_are_named_domain_errors(call, message):
    # the velocity-sphere route ended in an OverflowError, the prediction returned
    # 0.0 and the closed form inf; the family volume now enters the prediction's log
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


@pytest.mark.parametrize(
    "n, R, case, d, t0, levels",
    [(3, 1.0, "nondegenerate", 1.0, 1e300, 5), (40, 1.0, "antipodal", None, 1e20, 5),
     (5, 1e-61, "antipodal", None, 2e-123, 7)],
    ids=["t0-1e300", "n40-t0-1e20", "t-min-2e-123-over-64"],
)
def test_heat_times_beyond_float64_are_named_before_the_prediction(n, R, case, d, t0, levels, monkeypatch):
    # (4 pi t)^{-n/2} underflowed to a ZeroDivisionError, and (4 pi t)^{k/2} or
    # (4 pi t_min)^{-n/2} overflowed to an OverflowError
    def no_prediction(*args):
        raise AssertionError("the prediction ran for out-of-range times")

    monkeypatch.setattr(heat, "nondegenerate_limit_prediction", no_prediction)
    monkeypatch.setattr(heat, "antipodal_sphere_limit_closed_form", no_prediction)
    with pytest.raises(DomainError) as info:
        heat_limit_validation(n, R, case, d=d, t0=t0, levels=levels)
    assert str(info.value) == (f"(4 pi t)^(n/2) on S^{n} from t0 = {t0} over {levels} levels "
                               "is not a normal float64 number")


def test_richardson_stops_at_one_value():
    # three stages asked of two values: the first stage leaves one, and it is final
    assert richardson_extrapolate([1.0, 2.0], 3) == [3.0]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: heat_limit_validation(2, 1e-200, "nondegenerate", d=1e-200),
            "R^2 of S^2(R = 1e-200) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(2, 1e-200, "antipodal"),
            "R^2 of S^2(R = 1e-200) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(2, 1e160, "antipodal"),
            "R^2 of S^2(R = 1e+160) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(2, 1e200, "nondegenerate", d=1e200),
            "R^2 of S^2(R = 1e+200) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(1, 5e153, "nondegenerate", d=5e153),
            "(pi R)^2 of S^1(R = 5e+153) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(30, 1e-12, "nondegenerate", d=1e-12),
            "R^n of S^30(R = 1e-12) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(300, 0.1, "nondegenerate", d=0.1),
            "the volume of S^300(R = 0.1) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(150, 0.01, "nondegenerate", d=0.01),
            "the volume of S^150(R = 0.01) is not a normal float64 number",
        ),
        (
            lambda: heat_limit_validation(3, 1e10, "antipodal"),
            "the spectral sum on S^3(R = 10000000000.0) at t = 0.0125 needs degree 1.26e+22",
        ),
        (
            lambda: sphere_heat_kernel(SphereSpectrum.for_time_range(300, 10.0, 0.0125), 0.1, 0.0125),
            "the multiplicity of degree 1048 on S^300 is beyond float64",
        ),
        (
            lambda: heat_limit_validation(10, 1e-30, "antipodal", t0=2.0),
            "the heat ratios on S^10(R = 1e-30) from t0 = 2.0, or their limit's deviation from 7.60181e-265, "
            "are beyond float64",
        ),
    ],
    ids=["r1e-200-nondegenerate", "r1e-200-antipodal", "r1e160", "r1e200", "circle-r5e153", "n30-r1e-12",
         "n300-r0.1", "n150-r0.01", "degree-1e22", "multiplicity-n300", "ratio-n10-r1e-30"],
)
def test_spheres_beyond_float64_are_named_domain_errors(call, message, monkeypatch):
    # each ended in a ZeroDivisionError, OverflowError or TypeError traceback, or in
    # inf in the report; the scale is checked before the prediction propagates
    def no_propagation(*args):
        raise AssertionError("the prediction propagated an out-of-scope sphere")

    if "R^" in message or "volume" in message:
        monkeypatch.setattr(heat, "solve_jacobi_ode", no_propagation)
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


def test_seeded_heat_limit_sweep_ends_finite_or_in_a_named_error():
    # every draw returns finite values or a GeodetError; a ZeroDivisionError is the
    # underflow of e_t past the depth d^2/(4 t_min) = 700, the one defect left open
    rng = np.random.default_rng(2024)
    outcomes = {"finite": 0, "named": 0, "underflow": 0}
    for _ in range(1500):
        case = ("antipodal", "nondegenerate")[int(rng.integers(2))]
        n = int(rng.integers(1, 41 if case == "antipodal" else 13))
        R = float(10.0 ** rng.uniform(-200.0, 200.0))
        d = float(PI * R * rng.uniform(0.05, 0.95)) if case == "nondegenerate" else None
        t0 = float(rng.choice([1e-3, 0.2, 2.0]))
        levels = int(rng.integers(2, 8))
        try:
            report = heat_limit_validation(n, R, case, d=d, t0=t0, levels=levels)
        except GeodetError:
            outcomes["named"] += 1
            continue
        except ZeroDivisionError:
            dist = PI * R if d is None else d
            assert dist * dist / (4.0 * t0 * 2.0 ** (1 - levels)) > 700.0, (n, R, case, d, t0, levels)
            outcomes["underflow"] += 1
            continue
        values = [report.predicted, report.extrapolated_oracle] + [v for tr in report.oracle_values for v in tr]
        assert all(map(math.isfinite, values)), (n, R, case, d, t0, levels)
        outcomes["finite"] += 1
    assert all(outcomes.values()), outcomes
