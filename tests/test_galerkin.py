"""Galerkin truncations, tail corrections, deflation, and the partition layer."""

import numpy as np
import pytest

from geodet import (
    ConstantCurvature,
    CutLocusError,
    DegenerateOperatorError,
    DegenerateSegmentError,
    DomainError,
    GeodesicData,
    IllSeparatedKernelError,
    JacobiSystem,
    Partition,
    RouteDisagreementError,
    assemble_hessian_fourier,
    assemble_hessian_piecewise,
    bernoulli_cosine_sum,
    evaluation_map_jacobian,
    exp_jacobian_closed_form,
    fredholm_det,
    fredholm_det_deflated,
    fredholm_det_piecewise,
    hessian_trace,
    jacobi_endomorphism,
    phi0_chain,
)
from geodet import galerkin
from geodet.galerkin import deflated_matrix_determinant
from geodet.interval import mode_quadrature

PI = np.pi


def sphere_system(kappa, r, n):
    return jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), r))


# ---------------------------------------------------------------------------
# assembly


def test_zero_potential_assembles_identity():
    sys = JacobiSystem.constant(np.zeros((2, 2)), 1.0)
    M = assemble_hessian_fourier(sys, 8)
    assert np.array_equal(M.entries, np.eye(16))


def test_constant_curvature_diagonal_entries():
    kappa, r = 1.0, PI / 2
    M = assemble_hessian_fourier(sphere_system(kappa, r, 3), 6).entries
    for k in range(1, 7):
        blk = M[(k - 1) * 3 : k * 3, (k - 1) * 3 : k * 3]
        assert blk[0, 0] == pytest.approx(1.0, abs=1e-15)  # tangent mode
        assert blk[1, 1] == pytest.approx(1.0 - kappa * r * r / (PI**2 * k**2), abs=1e-14)
        assert blk[2, 2] == pytest.approx(blk[1, 1], abs=1e-15)


def test_varying_potential_matches_refined_quadrature():
    # oracle: same integrals at doubled quadrature resolution
    K = 12
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[s]]))
    M = assemble_hessian_fourier(sys, K).entries
    nodes, weights = mode_quadrature(1.0, 8 * K)  # 4x the assembly resolution
    ks = np.arange(1, K + 1)
    amp = np.sqrt(2.0) / (PI * ks)
    S = np.sin(PI * np.outer(ks, nodes)) * amp[:, None]
    oracle = np.eye(K) + (S * (weights * nodes)[None, :]) @ S.T
    assert np.max(np.abs(M - oracle)) < 1e-10


def varying_potential(n):
    """A smooth symmetric n x n potential with every fiber pair populated."""
    rng = np.random.default_rng(n)
    A, B = (0.5 * (X + X.T) for X in rng.normal(size=(2, n, n)))
    return lambda s: A + B * np.sin(3.0 * s) + np.eye(n) * s * s


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fourier_gemm_assembly_matches_einsum(n):
    K, t = 24, 1.3
    sys = JacobiSystem(n, t, varying_potential(n))
    M = assemble_hessian_fourier(sys, K).entries
    nodes, weights = mode_quadrature(t, 2 * K)
    Vq = np.stack([sys(s) for s in nodes])
    amp = np.sqrt(2.0 * t) / (PI * np.arange(1, K + 1))
    S = np.sin(PI * np.outer(np.arange(1, K + 1), nodes) / t) * amp[:, None]
    W = np.einsum("kq,lq,qij,q->kilj", S, S, Vq, weights).reshape(n * K, n * K)
    ref = np.eye(n * K) + W
    assert np.max(np.abs(M - 0.5 * (ref + ref.T))) < 1e-14


def test_assembled_matrix_is_symmetric():
    sys = JacobiSystem(2, 1.0, lambda s: np.array([[np.cos(3 * s), s], [s, 1.0 - s]]))
    M = assemble_hessian_fourier(sys, 10).entries
    assert np.max(np.abs(M - M.T)) < 1e-12


# ---------------------------------------------------------------------------
# Fredholm determinants along the mode filtration


def test_fredholm_det_sphere_value():
    est = fredholm_det(sphere_system(1.0, PI / 2, 3), (64, 128, 256, 512))
    assert est.extrapolated == pytest.approx((2.0 / PI) ** 2, abs=1e-6)


def test_fredholm_det_flat_is_one_at_every_level():
    est = fredholm_det(sphere_system(0.0, 1.0, 2), (4, 8, 16))
    for _, value in est.levels:
        assert value == 1.0
    assert est.extrapolated == 1.0


def test_fredholm_det_hyperbolic_value():
    est = fredholm_det(sphere_system(-1.0, 1.0, 2), (64, 128, 256, 512))
    assert est.extrapolated == pytest.approx(np.sinh(1.0), abs=1e-6)


def test_tail_correction_reaches_exact_product():
    # the infinite product has the closed form sin(sqrt(k) r)/(sqrt(k) r)
    for kappa, r, n, K in ((1.0, PI / 2, 3, 64), (-1.0, 1.0, 2, 64), (0.3, 1.0, 2, 128)):
        exact = exp_jacobian_closed_form(ConstantCurvature(n, kappa), r)
        est = fredholm_det(sphere_system(kappa, r, n), (K // 2, K))
        corrected = est.levels[-1][1] * est.tail_correction
        assert abs(corrected - exact) < 1e-8


def test_callable_and_constant_paths_agree():
    V = np.diag([0.0, -1.3, -1.3])
    sys_const = JacobiSystem.constant(V, 1.0)
    sys_callable = JacobiSystem(3, 1.0, lambda s: V)
    assert not sys_callable.is_constant
    a = fredholm_det(sys_const, (16, 32)).extrapolated
    b = fredholm_det(sys_callable, (16, 32)).extrapolated
    assert abs(a - b) < 1e-9


def test_error_estimate_bounds_last_level_change():
    sys = sphere_system(1.0, PI / 2, 3)
    prev = fredholm_det(sys, (64, 128))
    last = fredholm_det(sys, (64, 128, 256))
    assert last.error_estimate >= abs(last.extrapolated - prev.extrapolated) - 1e-18


def test_tail_completed_overflow_is_domain_error():
    # the 256-mode determinant is finite, the completed sinh(v)/v with
    # v = sqrt(5.2e5) = 721 is not, on either route
    sys = JacobiSystem.constant([[5.2e5]], 1.0)
    logdet = np.sum(np.log(galerkin._level_eigenvalues(sys, 256, None)))
    assert logdet < np.log(np.finfo(float).max)
    with pytest.raises(DomainError, match="tail-completed"):
        fredholm_det(sys, (256,))
    with pytest.raises(DomainError, match="tail-completed"):
        fredholm_det_deflated(sys, (128, 256))


def test_divergent_tail_is_domain_error():
    # c = 5e5 / pi^2 = 50660 needs (K + 1)^2 > c, that is K >= 225 modes
    sys = sphere_system(-5e5, 1.0, 2)
    for route in (fredholm_det, fredholm_det_deflated):
        with pytest.raises(DomainError, match="needs at least 225 modes"):
            route(sys, (32, 64))
    assert fredholm_det(sys, (256, 512)).extrapolated == pytest.approx(8.7e303, rel=1e-2)


def test_level_eigenvalues_constant_match_assembled_matrix():
    sys = sphere_system(0.9, 1.1, 4)
    closed = np.sort(galerkin._level_eigenvalues(sys, 16, None))
    dense = np.linalg.eigvalsh(assemble_hessian_fourier(sys, 16).entries)
    assert np.max(np.abs(closed - dense)) < 1e-14


def test_singular_truncation_directs_to_deflated():
    with pytest.raises(DegenerateOperatorError):
        fredholm_det(sphere_system(1.0, PI, 2), (32, 64))


def test_schedule_validation():
    sys = sphere_system(1.0, 1.0, 2)
    with pytest.raises(DomainError):
        fredholm_det(sys, (64, 64))
    with pytest.raises(DomainError):
        fredholm_det(sys, ())


# ---------------------------------------------------------------------------
# trace identities


def test_hessian_trace_route_disagreement_is_named(monkeypatch):
    sys = sphere_system(1.0, PI / 2, 3)
    exact = galerkin._trace_exact
    monkeypatch.setattr(galerkin, "_trace_exact", lambda s: exact(s) + 1e-6)
    with pytest.raises(RouteDisagreementError):
        hessian_trace(sys)


def test_hessian_trace_flat_is_zero():
    assert hessian_trace(sphere_system(0.0, 1.0, 3)) == 0.0


def test_hessian_trace_sphere_value():
    val = hessian_trace(sphere_system(1.0, PI / 2, 3))
    assert val == pytest.approx(-(PI**2) / 12.0, abs=1e-10)


def test_hessian_trace_matches_ricci_integral_for_varying_potential():
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[np.sin(2 * s) - 0.4]]))
    val = hessian_trace(sys)
    # independent quadrature of tr V(s) s(1-s)
    s = np.linspace(0.0, 1.0, 20001)
    integrand = (np.sin(2 * s) - 0.4) * s * (1.0 - s)
    oracle = np.trapezoid(integrand, s)
    assert abs(val - oracle) < 1e-8


def test_trace_equals_minus_sixth_of_ricci():
    # -6 * trace = (n-1) kappa r^2 = ric, to 1e-8
    from geodet import ricci_along

    for kappa, r, n in ((1.0, PI / 2, 3), (-0.3, 1.2, 2)):
        g = GeodesicData(ConstantCurvature(n, kappa), r)
        assert abs(-6.0 * hessian_trace(jacobi_endomorphism(g)) - ricci_along(g)) < 1e-8


@pytest.mark.parametrize("s", [0.1, 0.3, 0.7])
def test_bernoulli_cosine_series(s):
    val = bernoulli_cosine_sum(s, 10**6)
    assert abs(val - (s * s - s + 1.0 / 6.0)) < 1e-6


# ---------------------------------------------------------------------------
# deflation


def test_antipodal_sphere_deflated_values():
    for n, expected_dim in ((2, 1), (3, 2)):
        res = fredholm_det_deflated(sphere_system(1.0, PI, n), schedule=(64, 128, 256))
        assert res.kernel_dimension == expected_dim
        assert res.estimate.extrapolated == pytest.approx(2.0 ** (1 - n), abs=1e-4)


def test_deflated_on_nondegenerate_matches_plain():
    sys = sphere_system(1.0, PI / 2, 2)
    res = fredholm_det_deflated(sys, schedule=(32, 64))
    plain = fredholm_det(sys, (32, 64))
    assert res.kernel_dimension == 0
    assert res.estimate.extrapolated == pytest.approx(plain.extrapolated, abs=1e-12)


def test_ill_separated_kernel_raises():
    # two near-zero Hessian eigenvalues 5e-9 and 2e-7: gap 40 < 100
    V = np.diag([-(PI**2) * (1.0 - 5e-9), -(PI**2) * (1.0 - 2e-7)])
    with pytest.raises(IllSeparatedKernelError):
        fredholm_det_deflated(JacobiSystem.constant(V, 1.0), schedule=(16, 32))


def test_deflated_constant_system_assembles_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("constant systems use the closed-form eigenvalues")

    monkeypatch.setattr(galerkin, "assemble_hessian_fourier", refuse)
    res = fredholm_det_deflated(sphere_system(1.0, PI, 3), schedule=(64, 128, 256))
    assert res.kernel_dimension == 2


DEGENERACY_CASES = {
    "sphere-half-pi": (sphere_system(1.0, PI / 2, 3), False),
    "antipodal-S2": (sphere_system(1.0, PI, 2), True),
    "antipodal-S3": (sphere_system(1.0, PI, 3), True),
    # finest eigenvalue 2.3e-9: below KERNEL_TOL, far above zero
    "near-conjugate": (sphere_system(1.0, 3.14159265, 3), True),
    "varying": (JacobiSystem(3, 1.3, varying_potential(3)), False),
}


@pytest.mark.parametrize("case", sorted(DEGENERACY_CASES))
def test_plain_route_raises_iff_deflated_route_finds_kernel(case):
    sys, degenerate = DEGENERACY_CASES[case]
    schedule = (32, 64, 128)
    assert (fredholm_det_deflated(sys, schedule).kernel_dimension > 0) == degenerate
    if degenerate:
        with pytest.raises(DegenerateOperatorError):
            fredholm_det(sys, schedule)
    else:
        fredholm_det(sys, schedule)


def test_deflated_invariant_under_kernel_rebasing():
    sys = sphere_system(1.0, PI, 3)
    M = assemble_hessian_fourier(sys, 64).entries
    val, kdim = deflated_matrix_determinant(np.linalg.eigvalsh(M))
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.normal(size=M.shape))
    val2, kdim2 = deflated_matrix_determinant(np.linalg.eigvalsh(Q @ M @ Q.T))
    assert kdim2 == kdim
    assert abs(val - val2) < 1e-10 * max(1.0, abs(val))


def test_telescoping_partial_products():
    for K in (10, 100, 1000, 10000):
        k = np.arange(2, K + 1, dtype=float)
        partial = float(np.exp(np.sum(np.log1p(-1.0 / k**2))))
        assert abs(partial - 0.5) <= 1.0 / K


# ---------------------------------------------------------------------------
# piecewise-linear filtration


def test_partition_basics():
    part = Partition.uniform(8)
    assert part.N == 8
    assert part.mesh == pytest.approx(0.125)
    with pytest.raises(DomainError):
        Partition((0.0, 0.5, 0.4, 1.0))
    with pytest.raises(DomainError):
        Partition((0.1, 1.0))


def test_piecewise_zero_potential_is_identity():
    sys = JacobiSystem.constant(np.zeros((2, 2)), 1.0)
    M = assemble_hessian_piecewise(sys, Partition.uniform(16))
    assert np.array_equal(M.entries, np.eye(2 * 15))


def dense_hat_reference(sys, N, quad_order=8):
    """Stiffness D and potential Gram B of the interior hats, node by node."""
    n, t = sys.n, sys.t
    nodes = np.linspace(0.0, 1.0, N + 1) * t
    deltas = np.diff(nodes)
    D = np.zeros((n * (N - 1), n * (N - 1)))
    B = np.zeros_like(D)

    def blk(j):
        return slice((j - 1) * n, j * n)

    for j in range(1, N):
        D[blk(j), blk(j)] += (1.0 / deltas[j - 1] + 1.0 / deltas[j]) * np.eye(n)
        if j + 1 < N:
            D[blk(j), blk(j + 1)] = D[blk(j + 1), blk(j)] = -np.eye(n) / deltas[j]
    x, w = np.polynomial.legendre.leggauss(quad_order)
    for seg in range(N):
        a, b = nodes[seg], nodes[seg + 1]
        for xq, wq in zip(x, w):
            s = 0.5 * (a + b) + 0.5 * (b - a) * xq
            V = 0.5 * (b - a) * wq * sys(s)
            up, down = (s - a) / (b - a), (b - s) / (b - a)
            if seg >= 1:
                B[blk(seg), blk(seg)] += down * down * V
            if seg + 1 < N:
                B[blk(seg + 1), blk(seg + 1)] += up * up * V
            if seg >= 1 and seg + 1 < N:
                B[blk(seg), blk(seg + 1)] += down * up * V
                B[blk(seg + 1), blk(seg)] += up * down * V
    return D, B


PIECEWISE_POTENTIALS = {
    "varying-positive": (2, lambda s: np.array([[1.0 + np.sin(2 * s), 0.3], [0.3, 2.0 - s]])),
    "constant": (3, np.diag([0.0, -2.0, -2.0])),
    "indefinite": (2, -12.0 * np.eye(2)),
    "negative-det": (2, lambda s: np.array([[-45.0 + s, 0.2], [0.2, -12.0]])),
}


@pytest.mark.parametrize("name", sorted(PIECEWISE_POTENTIALS))
def test_piecewise_recurrence_matches_dense_route(name):
    n, pot = PIECEWISE_POTENTIALS[name]
    sys = JacobiSystem(n, 1.0, pot)
    schedule = (16, 32, 64)
    est = fredholm_det_piecewise(sys, schedule)
    for N, (dim, value) in zip(schedule, est.levels):
        D, B = dense_hat_reference(sys, N)
        M = assemble_hessian_piecewise(sys, Partition.uniform(N))
        L = np.linalg.cholesky(D)
        ref = np.eye(dim) + np.linalg.solve(L, np.linalg.solve(L, B).T).T
        assert np.max(np.abs(M.entries - 0.5 * (ref + ref.T))) < 1e-13
        sign, logdet = np.linalg.slogdet(M.entries)
        assert dim == M.dimension
        assert abs(value - sign * np.exp(logdet)) < 1e-12 * abs(value)
        nodes = np.linspace(0.0, 1.0, N + 1)
        tr = galerkin._hat_trace(nodes, *galerkin._hat_blocks(sys, nodes))
        assert tr == pytest.approx(np.trace(np.linalg.solve(D, B)), rel=1e-12, abs=1e-15)
    # the signs: det > 0 for two negative directions, det < 0 for three
    expected_sign = {"varying-positive": 1, "constant": 1, "indefinite": 1, "negative-det": -1}
    assert np.sign(est.levels[-1][1]) == expected_sign[name]


def test_piecewise_singular_pivot_is_named():
    # D = [[2, -1], [-1, 2]] with pivots 2 and 3/2; B zeroes the first
    # pivot of D + B (inside the recurrence) or the last one (in slogdet)
    a, c = np.array([2.0, 2.0]), np.array([-1.0])
    off = np.zeros((1, 2, 2))
    first = np.stack([-2.0 * np.eye(2), np.eye(2)])
    last = np.stack([np.zeros((2, 2)), -1.5 * np.eye(2)])
    for diag in (first, last):
        with pytest.raises(DegenerateOperatorError):
            galerkin._hat_slogdet(a, c, diag, off)


def test_piecewise_fine_constant_curvature_is_linear_in_N():
    # dimension 3 * 2047: far beyond a dense factorization
    est = fredholm_det_piecewise(sphere_system(1.0, PI / 2, 3), (1024, 2048))
    assert est.levels[-1][0] == 3 * 2047
    assert est.extrapolated == pytest.approx((2.0 / PI) ** 2, abs=1e-6)


def test_piecewise_determinant_near_fourier_value():
    # cross-filtration oracle at N=64 after the trace-defect completion
    sys = sphere_system(1.0, PI / 2, 3)
    est = fredholm_det_piecewise(sys, (32, 64))
    corrected = est.levels[-1][1] * est.tail_correction
    assert abs(corrected - (2.0 / PI) ** 2) < 1e-3


def test_piecewise_converges_monotonically_to_fourier_value():
    sys = sphere_system(1.0, PI / 2, 3)
    fourier = fredholm_det(sys, (64, 128, 256, 512)).extrapolated
    gaps = []
    for N in (8, 16, 32, 64, 128, 256):
        est = fredholm_det_piecewise(sys, (N,))
        gaps.append(abs(est.levels[-1][1] * est.tail_correction - fourier))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_piecewise_varying_potential_against_fourier():
    pot = lambda s: np.array([[np.sin(2 * s), 0.3], [0.3, -0.5 * s]])
    sys = JacobiSystem(2, 1.0, pot)
    fourier = fredholm_det(sys, (32, 64)).extrapolated
    piecewise = fredholm_det_piecewise(sys, (64, 128)).extrapolated
    assert abs(fourier - piecewise) < 1e-5


def test_filtration_independence_within_error_estimates():
    for kappa, r, n in ((1.0, PI / 2, 3), (-1.0, 1.0, 2), (0.3, 1.0, 2)):
        sys = sphere_system(kappa, r, n)
        f = fredholm_det(sys, (64, 128, 256, 512))
        p = fredholm_det_piecewise(sys, (64, 128, 256))
        tol = max(1e-5, f.error_estimate + p.error_estimate)
        assert abs(f.extrapolated - p.extrapolated) < tol


# ---------------------------------------------------------------------------
# evaluation-map Jacobian and segment factor chain


def test_evaluation_map_flat_is_exactly_one():
    g = GeodesicData(ConstantCurvature(2, 0.0), 1.3)
    for N in (4, 16, 64):
        val = evaluation_map_jacobian(g, Partition.uniform(N))
        assert abs(val - 1.0) < 1e-12


def test_evaluation_map_nonuniform_flat():
    g = GeodesicData(ConstantCurvature(3, 0.0), 0.7)
    part = Partition((0.0, 0.1, 0.35, 0.4, 0.8, 1.0))
    assert abs(evaluation_map_jacobian(g, part) - 1.0) < 1e-12


def test_evaluation_map_deviation_bounded_by_fitted_cubic():
    # the N=8 value sits inside [-alpha |tau|^3, alpha |tau|^3] with alpha
    # fitted over the tested meshes
    g = GeodesicData(ConstantCurvature(2, 1.0), PI / 2)
    meshes, devs = [], []
    for N in (4, 8, 16, 32, 64):
        val = evaluation_map_jacobian(g, Partition.uniform(N))
        meshes.append(1.0 / N)
        devs.append(abs(val - 1.0))
    alpha = max(d / m**3 for d, m in zip(devs, meshes))
    val8 = evaluation_map_jacobian(g, Partition.uniform(8))
    assert -alpha * 0.125**3 <= val8 - 1.0 <= alpha * 0.125**3


def test_evaluation_map_at_most_one():
    # det(id + K*K)^(-1/2) <= 1 for every instance
    for kappa, r, n in ((1.0, PI / 2, 2), (-1.0, 1.5, 3)):
        g = GeodesicData(ConstantCurvature(n, kappa), r)
        assert evaluation_map_jacobian(g, Partition.uniform(12)) <= 1.0 + 1e-14


def test_evaluation_map_conjugate_segment_error():
    # an antipodal geodesic with one segment of (numerically) full length
    # puts that segment exactly at the conjugate distance
    g = GeodesicData(ConstantCurvature(2, 1.0), PI)
    with pytest.raises(DegenerateSegmentError):
        evaluation_map_jacobian(g, Partition((0.0, 1e-17, 1.0)))


def test_phi0_chain_flat():
    assert phi0_chain(ConstantCurvature(3, 0.0), 1.0, Partition.uniform(4)) == 1.0


def test_phi0_chain_matches_segment_products():
    m = ConstantCurvature(3, 1.0)
    r = PI / 2
    part = Partition.uniform(4)
    chain = phi0_chain(m, r, part)
    oracle = np.prod(
        [exp_jacobian_closed_form(m, r * 0.25) ** -0.5 for _ in range(4)]
    )
    assert abs(chain - oracle) < 1e-12
    # per orthogonal dimension the segment factor is (sin(pi/8)/(pi/8))^-1
    x = PI / 8
    assert chain == pytest.approx((np.sin(x) / x) ** (-0.5 * 2 * 4), rel=1e-12)


def test_phi0_chain_linear_mesh_bound():
    m = ConstantCurvature(2, 1.0)
    r = PI / 2
    meshes, devs = [], []
    for N in (4, 8, 16, 32, 64, 128):
        val = phi0_chain(m, r, Partition.uniform(N))
        meshes.append(1.0 / N)
        devs.append(abs(val - 1.0))
    C = max(d / m for d, m in zip(devs, meshes))
    assert all(d <= C * m + 1e-15 for d, m in zip(devs, meshes))
    # and the deviation really is first order: halving the mesh roughly halves it
    assert 1.5 < devs[0] / devs[1] < 2.5


def test_phi0_chain_cut_locus_error():
    # a chain whose segments are longer than the injectivity radius
    with pytest.raises(CutLocusError):
        phi0_chain(ConstantCurvature(2, 1.0), 7.0, Partition.uniform(2))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zeta_tail_matches_hurwitz_zeta(m):
    # Euler-Maclaurin tail against mpmath's Hurwitz zeta at 40 digits
    import mpmath as mp

    Ks = list(range(1, 70)) + [127, 128, 500, 1000, 2048, 4096, 20000]
    with mp.workdps(40):
        for K in Ks:
            ref = float(mp.zeta(2 * m, K + 1))
            assert galerkin._zeta_tail(K, m) == pytest.approx(ref, rel=2e-15, abs=0.0)
