"""Model manifolds, curvature terms and the Jacobi systems they define."""

import numpy as np
import pytest

from geodet import (
    ConjugatePointError,
    ConstantCurvature,
    DomainError,
    GeodesicData,
    IntegrationError,
    JacobiSystem,
    Partition,
    RouteDisagreementError,
    SyntheticPotential,
    evaluation_map_jacobian,
    exp_jacobian_closed_form,
    fredholm_det,
    fredholm_det_deflated,
    fredholm_det_piecewise,
    gy_degenerate_ratio,
    hessian_trace,
    jacobi_endomorphism,
    nondegenerate_limit_prediction,
    phi0_chain,
    solve_jacobi_ode,
    zeta_det_jacobi,
)
from geodet import gelfand_yaglom
from geodet.gelfand_yaglom import gy_ratio

PI = np.pi


def test_flat_endomorphism_is_zero():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 0.0), 1.7))
    assert np.all(sys(0.5) == 0.0)


def test_sphere_endomorphism_matches_eigenvalue_shift():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 1.0), PI / 2))
    expected = np.diag([0.0, -PI**2 / 4, -PI**2 / 4])
    assert np.allclose(sys(0.3), expected, atol=1e-14)


def test_hyperbolic_endomorphism_sign():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(2, -1.0), 1.0))
    assert np.allclose(sys(0.0), np.diag([0.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("kappa,r,n", [(1.0, 2.2, 4), (-0.7, 1.3, 3), (0.0, 0.9, 2)])
def test_endomorphism_symmetric_with_tangent_kernel(kappa, r, n):
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), r))
    V = sys(0.5)
    assert np.allclose(V, V.T, atol=1e-14)
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert np.allclose(V @ e1, 0.0, atol=1e-14)


def test_negative_speed_rejected():
    with pytest.raises(DomainError):
        GeodesicData(ConstantCurvature(2, 1.0), -0.5)


def test_sphere_speed_beyond_antipode_rejected():
    with pytest.raises(DomainError):
        GeodesicData(ConstantCurvature(2, 1.0), PI + 0.1)


def test_exp_jacobian_flat_and_zero_distance():
    assert exp_jacobian_closed_form(ConstantCurvature(5, 0.0), 2.3) == 1.0
    assert exp_jacobian_closed_form(ConstantCurvature(3, 1.0), 0.0) == 1.0


def test_exp_jacobian_sphere_value():
    val = exp_jacobian_closed_form(ConstantCurvature(3, 1.0), PI / 2)
    assert val == pytest.approx((2.0 / PI) ** 2, abs=1e-15)


def test_exp_jacobian_hyperbolic_value():
    val = exp_jacobian_closed_form(ConstantCurvature(2, -1.0), 1.0)
    assert val == pytest.approx(np.sinh(1.0), abs=1e-14)
    assert val == pytest.approx(1.1752012, abs=1e-7)


def test_conjugate_distance():
    assert ConstantCurvature(3, 4.0).conjugate_distance == PI / 2
    assert ConstantCurvature(2, 0.0).conjugate_distance == np.inf
    assert ConstantCurvature(2, -1.0).conjugate_distance == np.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: exp_jacobian_closed_form(ConstantCurvature(3, 1.0), PI),
        # segments longer than the injectivity radius
        lambda: phi0_chain(ConstantCurvature(2, 1.0), 7.0, Partition.uniform(2)),
        # an antipodal geodesic with one segment of (numerically) full length
        # puts that segment exactly at the conjugate distance
        lambda: evaluation_map_jacobian(
            GeodesicData(ConstantCurvature(2, 1.0), PI), Partition((0.0, 1e-17, 1.0))
        ),
        lambda: nondegenerate_limit_prediction(ConstantCurvature(2, 1.0), PI),
    ],
    ids=["exp_jacobian_closed_form", "phi0_chain", "evaluation_map_jacobian",
         "nondegenerate_limit_prediction"],
)
def test_conjugate_distance_is_one_error(call):
    # every route that needs a unique minimizer names pi/sqrt(kappa) the same way
    with pytest.raises(ConjugatePointError):
        call()


@pytest.mark.parametrize(
    "kappa, d, n", [(1.0, 1.0, 3), (1.0, 3.0, 40), (-1.0, 1.0, 2), (-1.0, 30.0, 5), (0.3, 0.5, 4)]
)
def test_exp_jacobian_inside_float64_keeps_the_power(kappa, d, n):
    # the range check leaves the value the bits of the power it always was
    x = np.sqrt(abs(kappa)) * d
    base = np.sinc(x / PI) if kappa > 0 else np.sinh(x) / x
    assert exp_jacobian_closed_form(ConstantCurvature(n, kappa), d) == float(base ** (n - 1))


@pytest.mark.parametrize("kappa, d", [(1.0, 3.0), (-1.0, 800.0)], ids=["underflow", "overflow"])
def test_exp_jacobian_outside_float64_is_a_domain_error(kappa, d):
    # (sin 3/3)^399 = 1e-530 returned 0.0, and (sinh 800/800)^399 inf with an
    # overflow warning
    with pytest.raises(DomainError, match="outside float64"):
        exp_jacobian_closed_form(ConstantCurvature(400, kappa), d)


def test_exp_jacobian_small_distance_limit():
    m = ConstantCurvature(3, 1.0)
    assert exp_jacobian_closed_form(m, 1e-9) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kappa", [-1.0, -0.3, 0.3, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exp_jacobian_agrees_with_ode_route(kappa, n):
    # det J(1) of the Jacobi propagation is the same Jacobian (ODE oracle)
    dists = [0.1, 0.5, 1.0] + ([2.0] if kappa <= 0 else [])
    for d in dists:
        closed = exp_jacobian_closed_form(ConstantCurvature(n, kappa), d)
        sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), d))
        ode = float(np.linalg.det(solve_jacobi_ode(sys, 1024).J[-1]))
        assert abs(closed - ode) < 1e-8 * max(1.0, abs(closed))


def test_jacobian_symmetric_under_time_reversal():
    # J(x, y) = J(y, x): reversing the potential leaves det J(1) unchanged
    pot = lambda s: np.array([[np.sin(1.7 * s) - 0.3, 0.2 * s], [0.2 * s, 0.1 + s**2]])
    sys = JacobiSystem(2, 1.0, pot)
    fwd = float(np.linalg.det(solve_jacobi_ode(sys, 2048).J[-1]))
    rev = JacobiSystem(2, 1.0, lambda s: pot(1.0 - s))
    bwd = float(np.linalg.det(solve_jacobi_ode(rev, 2048).J[-1]))
    assert abs(fwd - bwd) < 1e-9 * max(1.0, abs(fwd))


def test_ricci_flat_and_sphere():
    # -trace V is ric(velocity, velocity) = (n-1) kappa r^2
    def ricci(n, kappa, r):
        return -np.trace(jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), r))(0.0))

    assert ricci(4, 0.0, 1.0) == 0.0
    # kappa r^2 = 0 * 1e200 * 1e200 is 0; r**2 alone raised OverflowError
    assert ricci(2, 0.0, 1e200) == 0.0
    assert ricci(3, 1.0, PI) == pytest.approx(2 * PI**2, abs=1e-12)


def test_synthetic_potential_reproduces_prescribed_block():
    # gy ratio through the synthetic manifold equals the [0, t] computation
    c = 0.8
    t = 1.4
    manifold = SyntheticPotential(2, lambda s: np.array([[c]]), t)
    sys = jacobi_endomorphism(GeodesicData(manifold, t))
    free = JacobiSystem.constant(np.zeros((2, 2)), 1.0)
    ratio = gy_ratio(free, sys, steps=2048)
    expected = np.sinh(np.sqrt(c) * t) / (np.sqrt(c) * t)  # orthogonal direction only
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_synthetic_potential_requires_symmetry():
    with pytest.raises(DomainError):
        SyntheticPotential(3, lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_constant_potential_checks_symmetry_on_one_sample(monkeypatch):
    # a callable is checked at five points of [0, t]; a constant is one matrix
    sizes = []
    sample = JacobiSystem.sample

    def recorded(self, s):
        sizes.append(len(s))
        return sample(self, s)

    monkeypatch.setattr(JacobiSystem, "sample", recorded)
    JacobiSystem.constant(np.eye(2), 1.0)
    JacobiSystem(2, 1.0, lambda s: np.eye(2))
    assert sizes == [1, 5]


def test_potential_changing_shape_is_a_domain_error():
    # every sample's shape is checked; a later one of another shape must
    # still end in the named error, not a numpy ValueError
    change = lambda s: np.eye(2) if s < 0.5 else np.eye(3)
    with pytest.raises(DomainError, match="potential sample at 0.5: could not broadcast"):
        SyntheticPotential(3, change, 1.0)
    sys = JacobiSystem(2, 1.0, lambda s: np.eye(3) if 0.9 < s < 0.95 else np.eye(2))
    with pytest.raises(DomainError, match="potential sample at 0.9"):
        solve_jacobi_ode(sys, 64)
    # a scalar broadcast into the whole 2x2 block is finite and symmetric
    with pytest.raises(DomainError, match=r"potential sample at 1: block must be \(2, 2\), got \(\)"):
        JacobiSystem(2, 1.0, lambda s: np.eye(2) if s < 0.95 else 2.0)
    sys = JacobiSystem(2, 1.0, lambda s: 2.0 if 0.9 < s < 0.95 else np.eye(2))
    with pytest.raises(DomainError, match="potential sample at 0.92: block must be"):
        sys.sample([0.0, 0.92])
    # a 1x1 block accepts any single number
    one = JacobiSystem(1, 1.0, lambda s: 2.0 if s < 0.5 else np.array([[3.0]]))
    assert np.array_equal(one.sample([0.0, 0.7])[:, 0, 0], [2.0, 3.0])


def _reference_samples(fn, s, n):
    out = np.empty((len(s), n, n))
    for i, x in enumerate(s):
        out[i] = np.atleast_2d(np.asarray(fn(float(x)), dtype=float))
    return out


def test_sample_is_bit_identical_to_pointwise_values():
    s = np.linspace(0.0, 1.0, 37)
    # constant: broadcast
    mat = np.array([[1.0, 0.3], [0.3, -2.0]])
    const = JacobiSystem.constant(mat, 1.0)
    assert np.array_equal(const.sample(s), np.broadcast_to(mat, (37, 2, 2)))
    # plain callable, including a scalar-valued one for n = 1
    pot = lambda x: np.array([[np.sin(1.7 * x), 0.2 * x], [0.2 * x, 0.1 + x**2]])
    plain = JacobiSystem(2, 1.0, pot)
    assert np.array_equal(plain.sample(s), _reference_samples(pot, s, 2))
    scalar = JacobiSystem(1, 1.0, lambda x: 3.0 - x)
    assert np.array_equal(scalar.sample(s), (3.0 - s)[:, None, None])
    # synthetic: t^2 pot(t u) on the orthogonal block, zero tangent row
    t = 1.7
    block = lambda x: np.array([[np.cos(x), 0.1 * x], [0.1 * x, 2.0 - x]])
    synth = jacobi_endomorphism(GeodesicData(SyntheticPotential(3, block, t), t))
    ref = np.zeros((37, 3, 3))
    for i, u in enumerate(s):
        ref[i, 1:, 1:] = t * t * block(t * float(u))
    assert np.array_equal(synth.sample(s), ref)
    # sample agrees with stacking single-point values
    for sys in (const, plain, scalar, synth):
        assert np.array_equal(sys.sample(s), np.stack([sys(x) for x in s]))


def test_sample_calls_potential_once_per_point():
    calls = []

    def block(x):
        calls.append(x)
        return np.array([[1.0 + x]])

    sys = jacobi_endomorphism(GeodesicData(SyntheticPotential(2, block, 2.0), 2.0))
    calls.clear()
    sys.sample(np.linspace(0.0, 1.0, 101))
    assert len(calls) == 101


def test_callable_block_shape_is_checked():
    with pytest.raises(DomainError):
        JacobiSystem(2, 1.0, lambda s: np.eye(3))
    with pytest.raises(DomainError):
        JacobiSystem(2, 1.0, lambda s: 1.0)


def test_jacobi_system_validation():
    with pytest.raises(DomainError):
        JacobiSystem(2, 1.0, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        JacobiSystem(2, -1.0, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        JacobiSystem(2, 1.0, lambda s: np.array([[0.0, s], [0.0, 0.0]]))


def _nan_between_checks(s):
    # NaN only on (0.9, 0.95), away from the points the symmetry check reads
    return np.array([[np.nan if 0.9 < s < 0.95 else 1.0]])


@pytest.mark.parametrize(
    "route",
    [
        lambda sys: fredholm_det(sys, (16, 32)),
        lambda sys: fredholm_det_deflated(sys, (16, 32)),
        lambda sys: fredholm_det_piecewise(sys, (32, 64)),
        hessian_trace,
        lambda sys: solve_jacobi_ode(sys, 64),
    ],
    ids=["fredholm_det", "fredholm_det_deflated", "fredholm_det_piecewise", "hessian_trace",
         "gelfand_yaglom"],
)
def test_non_finite_potential_sample_is_an_integration_error(route):
    sys = JacobiSystem(1, 1.0, _nan_between_checks)
    with pytest.raises(IntegrationError, match="non-finite samples"):
        route(sys)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_constant_potential_is_an_integration_error(value):
    with pytest.raises(IntegrationError, match="non-finite samples"):
        JacobiSystem.constant([[value]], 1.0)


def test_constant_potential_is_read_only():
    # a write through sys(0.0) used to reach every later sample and mean, and
    # fredholm_det then returned 1440.49
    sys = JacobiSystem.constant(np.diag([1.0, 2.0]), 1.0)
    before = fredholm_det(sys, (8, 16)).extrapolated
    for view in (sys(0.0), sys.sample([0.5])[0]):
        with pytest.raises(ValueError):
            view[0, 0] = 99.0
    assert np.array_equal(sys.sample([0.5])[0], np.diag([1.0, 2.0]))
    assert fredholm_det(sys, (8, 16)).extrapolated == before


_ROUTES = {
    "fredholm_det": lambda sys: fredholm_det(sys, (8, 16)),
    "fredholm_det_deflated": lambda sys: fredholm_det_deflated(sys, (8, 16)),
    "fredholm_det_piecewise": lambda sys: fredholm_det_piecewise(sys, (8, 16)),
    "hessian_trace": hessian_trace,
    "gy_ratio": lambda sys: gy_ratio(JacobiSystem.constant(np.zeros((sys.n, sys.n)), sys.t), sys),
    "gy_degenerate_ratio": lambda sys: gy_degenerate_ratio(
        sys, JacobiSystem.constant(np.zeros((sys.n, sys.n)), sys.t)
    ),
    "zeta_det_jacobi": zeta_det_jacobi,
    "free_reference_ratio": lambda sys: gelfand_yaglom._free_reference_ratio(sys, 2048),
    "solve_jacobi_ode": solve_jacobi_ode,
}


def _system(kind, n, t):
    if kind == "constant":
        return JacobiSystem.constant(np.eye(n), t)
    if kind == "callable":
        return JacobiSystem(n, t, lambda s: (1.0 + 0.1 * np.sin(s)) * np.eye(n))
    return jacobi_endomorphism(GeodesicData(SyntheticPotential(n + 1, lambda s: np.eye(n), t), t))


@pytest.mark.parametrize("t", [np.nan, np.inf, 1e200], ids=["nan", "inf", "1e200"])
@pytest.mark.parametrize("kind", ["constant", "callable", "synthetic"])
@pytest.mark.parametrize("route", list(_ROUTES), ids=list(_ROUTES))
def test_interval_without_float64_square_is_a_domain_error(route, kind, t):
    # t = nan or inf reached the routes, and t = 1e200 ended in OverflowError
    # from t**2, h**4 or t**n, or in a RuntimeWarning traceback
    for n in (1, 2):
        with pytest.raises(DomainError, match="interval length"):
            _ROUTES[route](_system(kind, n, t))


def _end_at_1e150(route, kind):
    """The named error a route ends in at t = 1e150, or None for a finite value."""
    if route == "hessian_trace":
        # sin(s) turns 1e149 times on [0, t], which neither trace route resolves
        return RouteDisagreementError if kind == "callable" else None
    if route.startswith("fredholm_det"):
        return DomainError  # the tail series diverges, or the determinant overflows
    return IntegrationError  # the RK4 run leaves the float64 range


@pytest.mark.parametrize("t", [1e-70, 1e150])
@pytest.mark.parametrize("kind", ["constant", "callable", "synthetic"])
@pytest.mark.parametrize("route", list(_ROUTES), ids=list(_ROUTES))
def test_extreme_finite_interval_ends_in_a_value_or_a_named_error(route, kind, t):
    # det J(t) and t^n beyond float64 stay logs, and no trace forms s(t - s):
    # fredholm_det_piecewise and hessian_trace at 1e150 ended in a
    # RuntimeWarning traceback, and fredholm_det called the synthetic n = 1
    # system, V = diag(0, 1e300), singular before it found the tail diverges;
    # on t = 1e-70 every route has its value
    expected = None if t == 1e-70 else _end_at_1e150(route, kind)
    for n in (1, 2):
        if expected is not None:
            with pytest.raises(expected):
                _ROUTES[route](_system(kind, n, t))
            continue
        result = _ROUTES[route](_system(kind, n, t))
        for name in ("value", "extrapolated", "J"):
            result = getattr(result, name, result)
        assert np.all(np.isfinite(result))


def test_trace_of_a_huge_interval_is_t_squared_over_three():
    # int tr V s(t-s)/t = t^2/3 is finite, but each quadrature term
    # w s (t - s) tr V, formed before dividing by t, was not
    sys = JacobiSystem.constant(np.eye(2), 1e150)
    assert hessian_trace(sys) == pytest.approx(1e300 / 3, rel=1e-12)
    with pytest.raises(DomainError, match="overflows float64"):
        fredholm_det_piecewise(sys, (8, 16))


@pytest.mark.parametrize("route", ["gy_ratio", "gy_degenerate_ratio", "zeta_det_jacobi",
                                   "free_reference_ratio", "solve_jacobi_ode"])
@pytest.mark.parametrize("t", [1e100, 1e150])
def test_huge_interval_leaves_the_float64_range_by_name(route, t):
    # t^2 is a float64, but the RK4 step's h^4 is not: the run leaves the range
    for n in (1, 2):
        with pytest.raises(IntegrationError, match="float64 range"):
            _ROUTES[route](_system("constant", n, t))


def _one(s):
    return np.eye(1)


def _synthetic():
    return SyntheticPotential(2, _one, 1.0)


_NOT_CONSTANT = "closed form requires a constant-curvature manifold"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: ConstantCurvature(2, np.inf), "curvature must be finite", id="kappa-inf"
        ),
        pytest.param(lambda: ConstantCurvature(0, 1.0), "dimension must be >= 1, got 0", id="kappa-n0"),
        pytest.param(
            lambda: GeodesicData(_synthetic(), 2.5),
            "a synthetic geodesic has speed t = 1.0, got 2.5",
            id="synthetic-speed",
        ),
        pytest.param(
            lambda: SyntheticPotential(1, _one, 1.0),
            "synthetic manifolds need dimension >= 2",
            id="synthetic-n1",
        ),
        pytest.param(
            lambda: JacobiSystem(0, 1.0, _one), "fiber dimension must be >= 1, got 0", id="fiber-n0"
        ),
        pytest.param(
            lambda: JacobiSystem.constant([[0.0, 1.0], [0.0, 0.0]], 1.0),
            "potential not symmetric at s=0.0",
            id="asymmetric-constant",
        ),
        pytest.param(
            lambda: JacobiSystem(2, 1.0, lambda s: np.array([[0.0, float(s >= 0.5)], [0.0, 0.0]])),
            "potential not symmetric at s=0.5",
            id="asymmetric-callable",
        ),
        pytest.param(
            lambda: jacobi_endomorphism(GeodesicData(object(), 1.0)),
            "unsupported manifold object",
            id="unknown-manifold",
        ),
        pytest.param(
            lambda: exp_jacobian_closed_form(_synthetic(), -1.0), _NOT_CONSTANT, id="synthetic-d-1"
        ),
        pytest.param(
            lambda: exp_jacobian_closed_form(_synthetic(), np.nan),
            _NOT_CONSTANT,
            id="synthetic-nan",
        ),
        pytest.param(
            lambda: exp_jacobian_closed_form(ConstantCurvature(2, 1.0), -1.0),
            "distance must be finite and >= 0, got -1.0",
            id="sphere-d-1",
        ),
        pytest.param(
            lambda: exp_jacobian_closed_form(ConstantCurvature(2, 1.0), np.nan),
            "distance must be finite and >= 0, got nan",
            id="sphere-nan",
        ),
        pytest.param(
            lambda: Partition((0.0, np.nan, 1.0)),
            "partition times must be strictly increasing",
            id="partition-nan",
        ),
        pytest.param(
            lambda: Partition((0.0, "x", 1.0)),
            "partition times must be numbers, got 'x'",
            id="partition-string",
        ),
        pytest.param(
            lambda: Partition((0.0, None, 1.0)),
            "partition times must be numbers, got None",
            id="partition-none",
        ),
        pytest.param(
            lambda: Partition((0.0, "0.5", 1.0)),
            "partition times must be numbers, got '0.5'",
            id="partition-numeric-string",
        ),
        pytest.param(
            lambda: JacobiSystem(1, None, [[1.0]]),
            "interval length must be positive with t^2 in float64, got None",
            id="length-none",
        ),
        pytest.param(
            lambda: JacobiSystem(1, "2", [[1.0]]),
            "interval length must be positive with t^2 in float64, got '2'",
            id="length-string",
        ),
        pytest.param(
            lambda: GeodesicData(ConstantCurvature(3, 1.0), np.nan),
            "geodesic speed must be >= 0, got nan",
            id="speed-nan",
        ),
        pytest.param(
            lambda: GeodesicData(ConstantCurvature(3, 1.0), None),
            "geodesic speed must be >= 0, got None",
            id="speed-none",
        ),
        pytest.param(
            lambda: GeodesicData(ConstantCurvature(3, 1.0), "3"),
            "geodesic speed must be >= 0, got '3'",
            id="speed-string",
        ),
        pytest.param(
            lambda: JacobiSystem(1, 1.0, "x"),
            "potential must be a real matrix or a callable of s, got 'x'",
            id="potential-string",
        ),
        pytest.param(
            lambda: JacobiSystem(1, 1.0, "2.0"),
            "potential must be a real matrix or a callable of s, got '2.0'",
            id="potential-numeric-string",
        ),
        pytest.param(
            lambda: JacobiSystem(1, 1.0, None),
            "potential must be a real matrix or a callable of s, got None",
            id="potential-none",
        ),
        pytest.param(
            lambda: JacobiSystem.constant([[1, 2], [3]], 1.0),
            "potential must be a real matrix or a callable of s, got [[1, 2], [3]]",
            id="potential-ragged",
        ),
        pytest.param(
            lambda: SyntheticPotential(2, "x", 1.0),
            "a synthetic potential must be a callable of s, got 'x'",
            id="synthetic-potential-string",
        ),
        pytest.param(lambda: ConstantCurvature(3, "3"), "curvature must be finite", id="kappa-string"),
        pytest.param(lambda: ConstantCurvature(3, None), "curvature must be finite", id="kappa-none"),
        # ended in OverflowError from float()
        pytest.param(
            lambda: GeodesicData(ConstantCurvature(2, 0.0), 10**400),
            "geodesic speed must lie in float64, got int beyond float64",
            id="speed-int-beyond-float64",
        ),
        # a potential that takes no argument ended in a bare TypeError
        pytest.param(
            lambda: JacobiSystem(1, 1.0, lambda: 1.0),
            "potential sample at 0: <lambda>.<locals>.<lambda>() takes 0 positional arguments but 1 was given",
            id="potential-arity",
        ),
        pytest.param(
            lambda: SyntheticPotential(2, lambda: 1.0, 1.0),
            "potential sample at 0: <lambda>.<locals>.<lambda>() takes 0 positional arguments but 1 was given",
            id="synthetic-potential-arity",
        ),
    ],
)
def test_input_guards_are_named_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


def test_scalar_constant_potential_is_a_one_by_one_matrix():
    assert np.array_equal(JacobiSystem(1, 1.0, 2.5)(0.3), [[2.5]])
