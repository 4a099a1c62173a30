"""Galerkin truncations, tail corrections, deflation, and the partition layer."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from geodet import (
    ConstantCurvature,
    DegenerateOperatorError,
    DomainError,
    GeodesicData,
    IllSeparatedKernelError,
    JacobiSystem,
    Partition,
    RouteDisagreementError,
    SyntheticPotential,
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
from geodet import galerkin, interval
from geodet.errors import signed_exp
from geodet.galerkin import deflated_matrix_determinant
from geodet.interval import mode_cosine_moments, mode_quadrature

PI = np.pi


def sphere_system(kappa, r, n):
    return jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), r))


# ---------------------------------------------------------------------------
# assembly


def test_zero_potential_assembles_identity():
    sys = JacobiSystem.constant(np.zeros((2, 2)), 1.0)
    M = assemble_hessian_fourier(sys, 8)
    assert np.array_equal(M.entries, np.eye(16))


def test_zero_callable_potential_is_the_identity_and_determinant_one():
    # no fiber couples: the moments see an empty stack, every level an empty
    # spectrum, and the tail a zero mean
    for n in (1, 3):
        sys = JacobiSystem(n, 1.3, lambda s: np.zeros((n, n)))
        M = assemble_hessian_fourier(sys, 8)
        assert np.array_equal(M.entries, np.eye(8 * n)) and len(M.coupled) == 0
        assert fredholm_det(sys, (4, 8)).extrapolated == 1.0
        assert fredholm_det_deflated(sys, (4, 8)).extrapolated == 1.0


@pytest.mark.parametrize("K", [3.0, 2.5, 0, -1, "4", None])
def test_fourier_mode_count_is_an_integer_of_at_least_one(K):
    sys = JacobiSystem(2, 1.0, lambda s: np.diag([s, 1.0]))
    with pytest.raises(DomainError, match="integer mode counts >= 1"):
        assemble_hessian_fourier(sys, K)


def test_fourier_dimension_is_a_python_int():
    M = assemble_hessian_fourier(JacobiSystem(2, 1.0, lambda s: np.diag([s, 1.0])), np.int64(3))
    assert type(M.dimension) is int and M.dimension == 6 and M.entries.shape == (6, 6)


def test_constant_curvature_diagonal_entries():
    kappa, r = 1.0, PI / 2
    M = assemble_hessian_fourier(sphere_system(kappa, r, 3), 6).entries
    for k in range(1, 7):
        blk = M[(k - 1) * 3 : k * 3, (k - 1) * 3 : k * 3]
        assert blk[0, 0] == pytest.approx(1.0, abs=1e-15)  # tangent mode
        assert blk[1, 1] == pytest.approx(1.0 - kappa * r * r / (PI**2 * k**2), abs=1e-14)
        assert blk[2, 2] == pytest.approx(blk[1, 1], abs=1e-15)


def constant_potential(n):
    """A constant symmetric n x n potential with every entry nonzero."""
    rng = np.random.default_rng(10 + n)
    X = rng.normal(size=(n, n))
    return X + X.T


def test_constant_potential_assembly_is_closed_form():
    # oracle: the sine modes diagonalize P^{-1}, so the matrix is block
    # diagonal with blocks I + V t^2 / (pi^2 k^2)
    n, K, t = 3, 12, 1.3
    V = constant_potential(n)
    M = assemble_hessian_fourier(JacobiSystem.constant(V, t), K).entries
    oracle = np.kron(np.diag(t**2 / (PI**2 * np.arange(1, K + 1) ** 2)), V) + np.eye(n * K)
    assert np.max(np.abs(M - oracle)) <= 1e-14 * np.max(np.abs(oracle))


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
    assert np.max(np.abs(M - oracle)) <= 1e-15 * np.max(np.abs(oracle))


def varying_potential(n):
    """A smooth symmetric n x n potential with every fiber pair populated."""
    rng = np.random.default_rng(n)
    A, B = (0.5 * (X + X.T) for X in rng.normal(size=(2, n, n)))
    return lambda s: A + B * np.sin(3.0 * s) + np.eye(n) * s * s


def sparse_potential(s):
    """4 x 4: fiber 0 only couples (zero diagonal), fiber 2 is zero throughout."""
    V = np.zeros((4, 4))
    V[0, 1] = V[1, 0] = np.sin(2.0 * s) + 0.5
    V[0, 3] = V[3, 0] = s
    V[1, 1], V[3, 3], V[1, 3] = 1.0 + s * s, np.cos(3.0 * s), 0.3 - s
    V[3, 1] = V[1, 3]
    return V


ASSEMBLY_CASES = {f"dense-n{n}": (n, varying_potential(n)) for n in (1, 2, 3, 4)}
ASSEMBLY_CASES["sparse-n4"] = (4, sparse_potential)


def catalog_like_potential(t, n=3):
    """A + B sin(2 pi s/t) + C s/t, the shape of the catalog's varying potentials."""
    rng = np.random.default_rng(7)
    A, B, C = (0.5 * (X + X.T) for X in rng.normal(size=(3, n, n)))
    return lambda s: A + B * np.sin(2.0 * PI * s / t) + C * (s / t)


@pytest.mark.parametrize("K", [32, 128, 256])
@pytest.mark.parametrize("case", ["dense-n3", "sparse-n4", "catalog-n3"])
def test_fourier_assembly_matches_a_rule_refined_four_times(case, K, monkeypatch):
    # the panels span up to 58 rad of the fastest half-wave; a quarter of
    # that (14 rad) moves no entry beyond rounding (at 88 rad they move by up
    # to 7e-14, at 116 rad by up to 3e-7)
    t = 1.3
    n, potential = (3, catalog_like_potential(t)) if case == "catalog-n3" else ASSEMBLY_CASES[case]
    sys = JacobiSystem(n, t, potential)
    M = assemble_hessian_fourier(sys, K).entries
    monkeypatch.setattr(interval, "_MAX_PHASE_PER_PANEL", interval._MAX_PHASE_PER_PANEL // 4)
    refined = assemble_hessian_fourier(sys, K).entries
    assert np.max(np.abs(M - refined)) <= 1e-15 * np.max(np.abs(refined))


@pytest.mark.parametrize("K", [1, 7, 24])
@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_fourier_moment_assembly_matches_einsum(case, K):
    # oracle: the sine products taken node by node on the same rule
    n, potential = ASSEMBLY_CASES[case]
    t = 1.3
    sys = JacobiSystem(n, t, potential)
    G = assemble_hessian_fourier(sys, K)
    M = G.entries
    assert list(G.coupled) == ([0, 1, 3] if case == "sparse-n4" else list(range(n)))
    nodes, weights = mode_quadrature(t, 2 * K)
    Vq = np.stack([sys(s) for s in nodes])
    amp = np.sqrt(2.0 * t) / (PI * np.arange(1, K + 1))
    S = np.sin(PI * np.outer(np.arange(1, K + 1), nodes) / t) * amp[:, None]
    W = np.einsum("kq,lq,qij,q->kilj", S, S, Vq, weights).reshape(n * K, n * K)
    ref = np.eye(n * K) + W
    assert np.max(np.abs(M - 0.5 * (ref + ref.T))) < 1e-14
    assert np.array_equal(M, M.T)
    # the tail's mean matrix is the rule's average of the same samples
    mean = np.einsum("q,qij->ij", weights, Vq) / t
    assert np.max(np.abs(G.mean - 0.5 * (mean + mean.T))) < 1e-14


def _whole_matrix(sys, K, coupled):
    """The (nK)^2 matrix filled on every fiber, zeros off the coupled pairs, from the same moments."""
    n, t = sys.n, sys.t
    nodes, weights = mode_quadrature(t, 2 * K)
    Vq = sys.sample(nodes)
    i, j = (coupled[r] for r in np.triu_indices(len(coupled)))
    C = mode_cosine_moments(weights * (0.5 * (Vq[:, i, j] + Vq[:, j, i])).T, np.arange(2 * K + 1))
    folded = np.concatenate([C[:, K - 1 : 0 : -1], C[:, :K]], 1)
    toeplitz = sliding_window_view(folded, K, 1)[:, ::-1]
    hankel = sliding_window_view(C[:, 2:], K, 1)
    amp = np.sqrt(2.0 * t) / (PI * np.arange(1, K + 1))
    W = np.zeros((K, n, K, n))
    W[:, i, :, j] = W[:, j, :, i] = 0.5 * np.outer(amp, amp) * (toeplitz - hankel)
    M = W.reshape(n * K, n * K)
    M.flat[:: n * K + 1] += 1.0
    return M


@pytest.mark.parametrize("K", [7, 128])
@pytest.mark.parametrize("case", ["dense-n3", "sparse-n4", "catalog-n3", "synthetic-n4"])
def test_coupled_block_is_the_whole_matrix_on_the_coupled_fibers(case, K):
    # the block holds, bit for bit, the rows and columns of the coupled fibers
    # of the whole matrix, and entries embeds it back in the identity
    t = 1.3
    if case == "synthetic-n4":
        manifold = SyntheticPotential(4, varying_potential(3), t)
        sys = jacobi_endomorphism(GeodesicData(manifold, t))
    else:
        n, potential = (3, catalog_like_potential(t)) if case == "catalog-n3" else ASSEMBLY_CASES[case]
        sys = JacobiSystem(n, t, potential)
    G = assemble_hessian_fourier(sys, K)
    width = 3 if case in ("sparse-n4", "synthetic-n4") else sys.n
    assert len(G.coupled) == width and G.block.shape == (K * width, K * width)
    M = _whole_matrix(sys, K, G.coupled)
    keep = (sys.n * np.arange(K)[:, None] + G.coupled).ravel()
    assert np.array_equal(G.block, M[np.ix_(keep, keep)])
    assert np.array_equal(G.entries, M)


def test_fredholm_det_holds_no_whole_matrix():
    # n = 4 with one uncoupled fiber: the coupled block at K = 256 is 4.5 MiB
    # and the peak 11.2 MiB, where filling the (nK)^2 matrix (8 MiB) and
    # gathering the block from it took 17.2 MiB
    manifold = SyntheticPotential(4, varying_potential(3), 1.3)
    sys = jacobi_endomorphism(GeodesicData(manifold, 1.3))
    fredholm_det(sys, (8,))  # the rules are built once per process
    tracemalloc.start()
    try:
        fredholm_det(sys, (64, 128, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20


def _full_block_determinant(G, n, K):
    return deflated_matrix_determinant(np.linalg.eigvalsh(G.entries[: n * K, : n * K]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coupled_fiber_eigenvalues_match_the_full_block(n):
    # the tangent fiber of a synthetic system is a block of the identity, so
    # each level diagonalizes the coupled fibers of the finest assembly only
    manifold = SyntheticPotential(n, varying_potential(n - 1), 1.3)
    sys = jacobi_endomorphism(GeodesicData(manifold, 1.3))
    G = assemble_hessian_fourier(sys, 64)
    assert list(G.coupled) == list(range(1, n))
    est = fredholm_det(sys, (16, 32, 64))
    for K, (dim, value) in zip((16, 32, 64), est.levels):
        (sign_full, log_full), kdim_full = _full_block_determinant(G, n, K)
        assert dim == n * K and kdim_full == 0
        assert np.sign(value) == sign_full
        assert abs(np.log(abs(value)) - log_full) < 1e-13


def test_coupled_fiber_eigenvalues_keep_the_antipodal_kernel():
    # the antipodal S^3 potential as a callable takes the assembled route and
    # has a two-dimensional kernel from K = 1 on
    V = sphere_system(1.0, PI, 3)(0.0)
    sys = JacobiSystem(3, 1.0, lambda s: V)
    for K in (1, 16, 64):
        G = assemble_hessian_fourier(sys, K)
        assert list(G.coupled) == [1, 2]
        est = fredholm_det_deflated(sys, (K,))
        (sign_full, log_full), kdim_full = _full_block_determinant(G, 3, K)
        assert est.kernel_dimension == kdim_full == 2
        value = est.levels[-1][1]
        assert np.sign(value) == sign_full
        assert abs(np.log(abs(value)) - log_full) < 1e-13
    assert fredholm_det_deflated(sys, (16, 32, 64)).kernel_dimension == 2


def _spy_cholesky(monkeypatch):
    """Count the Cholesky factorizations numpy runs while the test lasts."""
    calls = []
    factor = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return factor(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("schedule", [(16, 32, 64), (32, 64, 128), (1, 8, 128)])
def test_certified_cholesky_levels_match_per_level_eigenvalues(n, schedule, monkeypatch):
    # one factor of the finest coupled block gives every level; each level's
    # log det agrees with the eigenvalues of its own leading block
    manifold = SyntheticPotential(n + 1, varying_potential(n), 1.3)
    synthetic = jacobi_endomorphism(GeodesicData(manifold, 1.3))
    for sys in (JacobiSystem(n, 1.3, varying_potential(n)), synthetic):
        G = assemble_hessian_fourier(sys, schedule[-1])
        width = len(G.coupled)
        assert galerkin._positivity_bound(G.samples, sys.t) > 1e-6
        calls = _spy_cholesky(monkeypatch)
        est = fredholm_det(sys, schedule)
        assert calls == [(width * schedule[-1],) * 2]
        keep = (sys.n * np.arange(schedule[-1])[:, None] + G.coupled).ravel()
        for K, (dim, value) in zip(schedule, est.levels):
            rows = keep[: K * width]
            evals = np.linalg.eigvalsh(G.entries[np.ix_(rows, rows)])
            (sign, log_abs), kdim = deflated_matrix_determinant(evals)
            assert dim == sys.n * K and kdim == 0 and sign == 1.0 and value > 0
            assert abs(np.log(value) - log_abs) <= 1e-13


def test_positive_operator_without_certificate_diagonalizes_every_level(monkeypatch):
    # -d^2/ds^2 - 12 s on [0, 1] is positive (lowest eigenvalue near pi^2 - 6),
    # but the Gershgorin bound -12 of its samples certifies nothing: 1 - 12/pi^2 < 0
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[-12.0 * s]]))
    schedule = (16, 32, 64)
    G = assemble_hessian_fourier(sys, 64)
    assert galerkin._positivity_bound(G.samples, 1.0) < 0
    calls = _spy_cholesky(monkeypatch)
    est = fredholm_det_deflated(sys, schedule)
    assert calls == [] and est.kernel_dimension == 0
    for K, (dim, value) in zip(schedule, est.levels):
        (sign, log_abs), kdim = deflated_matrix_determinant(np.linalg.eigvalsh(G.entries[:K, :K]))
        assert kdim == 0 and value == signed_exp(sign, log_abs)


def test_positivity_bound_holds_below_every_level():
    # the bound lies below the smallest eigenvalue of every leading block
    for n in (2, 3, 4):
        sys = JacobiSystem(n, 1.3, varying_potential(n))
        G = assemble_hessian_fourier(sys, 32)
        bound = galerkin._positivity_bound(G.samples, sys.t)
        for K in (1, 8, 32):
            assert bound <= np.linalg.eigvalsh(G.entries[: n * K, : n * K])[0]


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
    logdet = np.sum(np.log(1.0 + 5.2e5 / (PI**2 * np.arange(1, 257) ** 2)))
    assert logdet < np.log(np.finfo(float).max)
    with pytest.raises(DomainError, match="tail-completed"):
        fredholm_det(sys, (256,))
    with pytest.raises(DomainError, match="tail-completed"):
        fredholm_det_deflated(sys, (128, 256))


def test_divergent_tail_is_domain_error():
    # c = 5e5 / pi^2 = 50660 needs (K + 1)^2 > c, that is K >= 225 modes
    sys = sphere_system(-5e5, 1.0, 2)
    varying = JacobiSystem(2, 1.0, lambda s: sys(0.0))  # the same samples, assembled
    for route in (fredholm_det, fredholm_det_deflated):
        for system in (sys, varying):
            with pytest.raises(DomainError, match="needs at least 225 modes"):
                route(system, (32, 64))
    assert fredholm_det(sys, (256, 512)).extrapolated == pytest.approx(8.7e303, rel=1e-2)


def test_level_eigenvalues_constant_match_assembled_matrix():
    # a constant V is never assembled: its levels are the closed-form
    # factors 1 + v t^2/(pi^2 k^2) of the block-diagonal matrix
    sys = sphere_system(0.9, 1.1, 4)
    v = np.linalg.eigvalsh(sys(0.0))
    closed = 1.0 + np.outer(v, sys.t**2 / (PI**2 * np.arange(1, 17) ** 2)).ravel()
    dense = np.linalg.eigvalsh(assemble_hessian_fourier(sys, 16).entries)
    assert np.max(np.abs(np.sort(closed) - dense)) < 1e-14
    value = fredholm_det(sys, (16,)).levels[-1][1]
    assert value > 0 and abs(np.log(value) - np.sum(np.log(closed))) < 1e-13


def test_singular_truncation_directs_to_deflated():
    with pytest.raises(DegenerateOperatorError):
        fredholm_det(sphere_system(1.0, PI, 2), (32, 64))


def test_schedule_validation():
    sys = sphere_system(1.0, 1.0, 2)
    with pytest.raises(DomainError):
        fredholm_det(sys, (64, 64))
    with pytest.raises(DomainError):
        fredholm_det(sys, ())


@pytest.mark.parametrize(
    "route, schedule",
    [
        (fredholm_det, (0, 4)),
        (fredholm_det, (-3, 4)),
        (fredholm_det, (4.0, 8)),
        (fredholm_det_deflated, (0, 4)),
        (fredholm_det_piecewise, (1, 4)),
        (fredholm_det_piecewise, (2.5,)),
        (fredholm_det_piecewise, (-2, 4)),
        (fredholm_det, 64),
        (fredholm_det, None),
        (fredholm_det_piecewise, 8),
    ],
)
def test_schedule_counts_are_integers_of_at_least_one_mode_or_two_segments(route, schedule):
    # a level of dimension 0 was returned quietly, 2.5 ran as N = 2, and a
    # negative count ended in ZeroDivisionError in the tail
    for sys in (JacobiSystem(1, 1.0, [[1.0]]), JacobiSystem(1, 1.0, lambda s: 1.0 + s)):
        with pytest.raises(DomainError, match="integer"):
            route(sys, schedule)
    assert fredholm_det(sphere_system(1.0, 1.0, 2), (np.int64(8), 16)).extrapolated > 0


# ---------------------------------------------------------------------------
# trace identities


def test_hessian_trace_route_disagreement_is_named(monkeypatch):
    # route (a) without its analytic tails misses the modes beyond its sum
    monkeypatch.setattr(galerkin, "_zeta_tail", lambda K, m: 0.0)
    varying = JacobiSystem(1, 1.0, lambda s: np.array([[np.sin(2 * s) - 0.4]]))
    for sys in (sphere_system(1.0, PI / 2, 3), varying):
        with pytest.raises(RouteDisagreementError):
            hessian_trace(sys)


def test_trace_quadrature_constant_potential_is_closed_form():
    # int_0^t tr V s(t - s)/t ds = tr V t^2 / 6, by the constant branch and by
    # the quadrature of the general branch on the same matrix as a callable
    for n, t in ((1, 1.0), (3, 1.3), (4, 0.4)):
        V = constant_potential(n)
        exact = np.trace(V) * t * t / 6.0
        for sys in (JacobiSystem.constant(V, t), JacobiSystem(n, t, lambda s: V)):
            assert hessian_trace(sys) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("w, tol", [(2.0, 1e-14), (400.0, 1e-9)])
def test_hessian_trace_of_sine_potential_is_closed_form(w, tol):
    # int_0^1 (2 + 3 sin ws) s(1 - s) ds = 1/3 + 3 (2 (1 - cos w)/w^3 - sin w/w^2).
    # At w = 400 a separate 96-point route (b) aliased to 0.518 and raised
    # RouteDisagreementError; route (a) without its 1/k^4 tail is 1.2e-8 off
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[2.0 + 3.0 * np.sin(w * s)]]))
    exact = 1.0 / 3.0 + 3.0 * (2.0 * (1.0 - np.cos(w)) / w**3 - np.sin(w) / w**2)
    assert abs(hessian_trace(sys) - exact) < tol


def test_hessian_trace_takes_one_route_for_every_potential():
    # a constant matrix and the same matrix as a callable give the same
    # samples, so the one route returns the same bits
    for n, t in ((1, 1.0), (3, 1.3)):
        V = constant_potential(n)
        assert hessian_trace(JacobiSystem.constant(V, t)) == hessian_trace(
            JacobiSystem(n, t, lambda s: V)
        )


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
    for kappa, r, n in ((1.0, PI / 2, 3), (-0.3, 1.2, 2)):
        g = GeodesicData(ConstantCurvature(n, kappa), r)
        assert abs(-6.0 * hessian_trace(jacobi_endomorphism(g)) - (n - 1) * kappa * r * r) < 1e-8


@pytest.mark.parametrize("s", [0.1, 0.3, 0.7])
def test_bernoulli_cosine_series(s):
    val = bernoulli_cosine_sum(s, 10**6)
    assert abs(val - (s * s - s + 1.0 / 6.0)) < 1e-6


def _bernoulli_one_expression(s, K):
    k = np.arange(1, K + 1, dtype=float)
    return float(np.sum(np.cos(2.0 * np.pi * k * s) / (np.pi**2 * k**2)))


@pytest.mark.parametrize("K", [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 5, 10**6])
def test_bernoulli_cosine_sum_matches_the_one_expression_form_bit_for_bit(K):
    # the chunked fill computes each term as the one-expression form does,
    # and one np.sum over the same K values sums them pairwise alike
    for s in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0, -2.3, 2.9):
        assert bernoulli_cosine_sum(s, K).hex() == _bernoulli_one_expression(s, K).hex()


def test_bernoulli_cosine_sum_traced_heap_peak():
    # one 8 MB term array at K = 10^6 and chunk temporaries of 256 KB each:
    # 8.4 MiB, where the one-expression form's temporaries take 22.9 MiB
    bernoulli_cosine_sum(0.3, 100)
    tracemalloc.start()
    try:
        bernoulli_cosine_sum(0.3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, "0.3"])
def test_bernoulli_cosine_sum_needs_a_finite_point(s):
    # nan summed to nan, inf to nan through a RuntimeWarning, and a string
    # ended in a TypeError
    with pytest.raises(DomainError, match="^s must be finite, got "):
        bernoulli_cosine_sum(s, 100)


# ---------------------------------------------------------------------------
# deflation


def test_antipodal_sphere_deflated_values():
    for n, expected_dim in ((2, 1), (3, 2)):
        res = fredholm_det_deflated(sphere_system(1.0, PI, n), schedule=(64, 128, 256))
        assert res.kernel_dimension == expected_dim
        assert res.extrapolated == pytest.approx(2.0 ** (1 - n), abs=1e-4)


def test_deflated_on_nondegenerate_matches_plain():
    # one kernel test: without a kernel both routes return the same estimate, bit for bit
    for sys, schedule in (
        (sphere_system(1.0, PI / 2, 2), (32, 64)),
        (sphere_system(0.9, 1.1, 4), (16, 32, 64)),
        (JacobiSystem(3, 1.3, varying_potential(3)), (16, 32, 64)),
    ):
        res = fredholm_det_deflated(sys, schedule=schedule)
        assert res.kernel_dimension == 0
        assert repr(fredholm_det(sys, schedule)) == repr(res)


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
    (sign, log_abs), kdim = deflated_matrix_determinant(np.linalg.eigvalsh(M))
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.normal(size=M.shape))
    (sign2, log_abs2), kdim2 = deflated_matrix_determinant(np.linalg.eigvalsh(Q @ M @ Q.T))
    assert kdim2 == kdim
    # the same sign, and the value to 1e-10 relative
    assert sign2 == sign and abs(log_abs - log_abs2) < 1e-10


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
    H = assemble_hessian_piecewise(sys, Partition.uniform(16))
    assert H.dimension == 2 * 15
    assert not H.diag.any() and not H.off.any()
    assert galerkin._hat_slogdet(H.a, H.c, H.diag, H.off) == (1.0, 0.0)
    assert fredholm_det_piecewise(sys, (16, 32)).extrapolated == 1.0


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
        H = assemble_hessian_piecewise(sys, Partition.uniform(N))
        assert dim == H.dimension == len(D)
        sign, logdet = np.linalg.slogdet(D + B)
        logdet -= np.linalg.slogdet(D)[1]
        assert abs(value - sign * np.exp(logdet)) < 1e-12 * abs(value)
        tr = H.green_trace - H.bump_trace
        assert tr == pytest.approx(np.trace(np.linalg.solve(D, B)), rel=1e-12, abs=1e-15)
    # the signs: det > 0 for two negative directions, det < 0 for three
    expected_sign = {"varying-positive": 1, "constant": 1, "indefinite": 1, "negative-det": -1}
    assert np.sign(est.levels[-1][1]) == expected_sign[name]


def test_hat_blocks_constant_potential_are_mass_blocks():
    # oracle: the hat mass matrix, (delta_j + delta_{j+1})/3 on the diagonal
    # and delta_{j+1}/6 off it, times V
    n, t = 3, 1.3
    V = constant_potential(n)
    partition = Partition((0.0, 0.1, 0.35, 0.4, 0.8, 1.0))
    deltas = partition.deltas * t
    H = assemble_hessian_piecewise(JacobiSystem.constant(V, t), partition)
    diag, off = H.diag, H.off
    diag_ref = ((deltas[:-1] + deltas[1:]) / 3.0)[:, None, None] * V
    off_ref = (deltas[1:-1] / 6.0)[:, None, None] * V
    assert np.max(np.abs(diag - diag_ref)) <= 1e-14 * np.max(np.abs(diag_ref))
    assert np.max(np.abs(off - off_ref)) <= 1e-14 * np.max(np.abs(off_ref))


def test_fourier_filtration_samples_the_potential_once_per_node():
    # the finest assembly's rule is the only sampling: 32 ceil(256 pi/58) =
    # 448 calls at K = 128, where 16-point panels of 16 rad took 816 and of 8 rad 1616
    calls = []

    def pot(s):
        calls.append(s)
        return np.array([[1.0 + np.sin(2 * s), 0.3], [0.3, 2.0 - s]])

    sys = JacobiSystem(2, 1.0, pot)
    calls.clear()  # the symmetry checks of the constructor
    fredholm_det(sys, (32, 64, 128))
    assert len(calls) == len(mode_quadrature(1.0, 256)[0]) == 448


@pytest.mark.parametrize(
    "call, pattern",
    [(lambda: fredholm_det(JacobiSystem(1, 1.0, lambda s: 1.0 + s), (10**12,)),
      "1000000000000 modes need .* GiB for the Galerkin matrix of fiber dimension 1"),
     (lambda: assemble_hessian_fourier(JacobiSystem(1, 1.0, lambda s: 1.0 + s), 10**12),
      "1000000000000 modes need .* GiB for the Galerkin matrix of fiber dimension 1"),
     (lambda: fredholm_det(JacobiSystem.constant([[1.0]], 1.0), (10**12,)),
      "1000000000000 modes need .* GiB for the spectrum of the finest level")],
    ids=["fredholm_det", "assemble_hessian_fourier", "fredholm_det-constant"],
)
def test_mode_count_beyond_memory_is_a_domain_error(call, pattern):
    # a varying V ended in numpy's MemoryError on the rule's 2.9 TiB of nodes
    with pytest.raises(DomainError, match=f"^{pattern}, more than the .* GiB of physical memory$"):
        call()


def test_piecewise_samples_potential_four_times_per_segment():
    # the finest level's Gauss nodes are the only samples of a doubling
    # schedule: every coarser level and the exact trace read them.  A level
    # that does not divide the finest samples its own rule
    calls = []

    def pot(s):
        calls.append(s)
        return np.array([[1.0 + np.sin(2 * s), 0.3], [0.3, 2.0 - s]])

    sys = JacobiSystem(2, 1.0, pot)
    for schedule, count in (((32, 64, 128), 4 * 128), ((96, 128), 4 * (96 + 128))):
        calls.clear()
        fredholm_det_piecewise(sys, schedule)
        assert len(calls) == count


@pytest.mark.parametrize("n", [1, 3])
def test_piecewise_builds_every_level_through_the_public_assembly(n, monkeypatch):
    # the benchmark's tracer wraps the module-level name the same way
    dims = []
    build = galerkin.assemble_hessian_piecewise

    def counted(sys, partition, rule=None):
        H = build(sys, partition, rule=rule)
        dims.append(H.dimension)
        return H

    monkeypatch.setattr(galerkin, "assemble_hessian_piecewise", counted)
    sys = JacobiSystem(n, 1.0, lambda s: (1.0 + np.sin(2 * s)) * np.eye(n))
    est = fredholm_det_piecewise(sys, (16, 32, 64))
    assert dims == [15 * n, 31 * n, 63 * n] == [dim for dim, _ in est.levels]


def test_piecewise_trace_does_not_alias():
    # V = 2 + 3 sin(400 s) runs 64 periods on [0, 1]; det J(1) by RK4 at 65,536
    # steps is 1.3683153196 (the same to 1e-15 at 262,144).  A separate
    # 96-point trace rule aliased and returned 1.6466 +- 5.6e-6
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[2.0 + 3.0 * np.sin(400.0 * s)]]))
    est = fredholm_det_piecewise(sys, (128, 256))
    assert abs(est.extrapolated - 1.3683153196) <= est.error_estimate


@pytest.mark.parametrize("n", [2, 3])
def test_piecewise_antipodal_sphere_is_degenerate(n):
    # the kernel of dimension n - 1 makes the raw levels fall like mesh^(2(n-1)),
    # and the value lands within its estimate of zero: S^3 at (256, 512)
    # returned -9.84e-12 +- 3.69e-11 with kernel_dimension 0
    sys = sphere_system(1.0, PI, n)
    for schedule in ((64, 128), (256, 512)):
        with pytest.raises(DegenerateOperatorError, match="call fredholm_det_deflated"):
            fredholm_det_piecewise(sys, schedule)
    with pytest.raises(DegenerateOperatorError):
        fredholm_det(sys, (64, 128))


def test_piecewise_coarse_mesh_is_not_called_degenerate():
    # V = -1e5 at (256, 1024) returns 0.00205 +- 0.00205 (the value is
    # sin(316.2)/316.2 = 0.00278): the raw levels change sign, so no kernel
    sys = JacobiSystem.constant([[-1e5]], 1.0)
    est = fredholm_det_piecewise(sys, (256, 1024))
    assert abs(est.extrapolated) <= est.error_estimate and est.kernel_dimension == 0


def test_piecewise_singular_pivot_is_named():
    # D = [[2, -1], [-1, 2]].  ``first`` zeroes the first-stage pivot
    # I + P_1/a_1 of a nonsingular D + B (det -1 per fiber); ``last`` makes
    # D + B itself singular, so the pivot of the last stage vanishes
    a, c = np.array([2.0, 2.0]), np.array([-1.0])
    off = np.zeros((1, 2, 2))
    first = np.stack([np.zeros((2, 2)), -2.0 * np.eye(2)])
    last = np.stack([np.zeros((2, 2)), -1.5 * np.eye(2)])
    for diag in (first, last):
        with pytest.raises(DegenerateOperatorError):
            galerkin._hat_slogdet(a, c, diag, off)


def _mp_hat_logdet(a, c, diag, off):
    """log|det(D + B)/det(D)| of the same float64 blocks at 30 digits.

    A sequential block LDL^T: pivots S_j = A_j - C_{j-1}^T S_{j-1}^-1 C_{j-1}
    with A_j = a_j I + P_j and C_j = c_j I + Q_j formed in mpmath, since a
    float64 sum a_j + P_j drops the low bits of P_j.
    """
    import mpmath as mp

    n = diag.shape[1]
    with mp.workdps(30):
        eye = mp.eye(n)
        A = [mp.mpf(float(x)) * eye + mp.matrix(blk.tolist()) for x, blk in zip(a, diag)]
        C = [mp.mpf(float(x)) * eye + mp.matrix(blk.tolist()) for x, blk in zip(c, off)]
        S, d = A[0], mp.mpf(float(a[0]))
        total = mp.log(abs(mp.det(S))) - n * mp.log(d)
        for j in range(1, len(A)):
            S = A[j] - C[j - 1].T * mp.inverse(S) * C[j - 1]
            d = mp.mpf(float(a[j])) - mp.mpf(float(c[j - 1])) ** 2 / d
            total += mp.log(abs(mp.det(S))) - n * mp.log(d)
        return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hat_slogdet_matches_mp_reference(n):
    # every interior node count 1..33, so odd, even and non-power-of-two
    # counts meet every stage of the reduction; random nonuniform meshes,
    # symmetric P and general Q at the scale of hat moments of a V <= 4
    rng = np.random.default_rng(n)
    for m in range(1, 34):
        deltas = rng.uniform(0.5, 1.5, m + 1)
        deltas /= deltas.sum()
        a, c = galerkin._hat_stiffness(deltas)
        V = rng.uniform(-4.0, 4.0, (m, n, n))
        diag = (deltas[:-1] + deltas[1:])[:, None, None] / 3.0 * 0.5 * (V + V.transpose(0, 2, 1))
        off = deltas[1:-1, None, None] / 6.0 * rng.uniform(-4.0, 4.0, (m - 1, n, n))
        _, logdet = galerkin._hat_slogdet(a, c, diag, off)
        assert abs(logdet - float(_mp_hat_logdet(a, c, diag, off))) <= 1e-13, m


@pytest.mark.parametrize("N", [256, 1024])
def test_hat_slogdet_through_interior_conjugate_point(N):
    # V = -12 I on [0, 1] has a conjugate point at pi/sqrt(12) = 0.907; the
    # sequential recurrence divided by the small pivots near the zero of the
    # discrete Jacobi field and lost 3.0e-13 at N = 256 and 3.0e-12 at 1024
    sys = JacobiSystem.constant(-12.0 * np.eye(2), 1.0)
    H = assemble_hessian_piecewise(sys, Partition.uniform(N))
    _, logdet = galerkin._hat_slogdet(H.a, H.c, H.diag, H.off)
    assert abs(logdet - float(_mp_hat_logdet(H.a, H.c, H.diag, H.off))) <= 1e-13


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


def test_piecewise_completed_overflow_is_domain_error():
    # both raw levels are finite; the completed sinh(v)/v, v = sqrt(6e5) = 775,
    # is not, and the Richardson step turned inf - inf into a NaN value
    with pytest.raises(DomainError, match="tail-completed"):
        fredholm_det_piecewise(JacobiSystem.constant([[6e5]], 1.0), (256, 512))


def test_one_level_piecewise_error_estimate_covers_error():
    # a one-level schedule reported 1e-15 for an actual error of 2e-5
    est = fredholm_det_piecewise(sphere_system(1.0, PI / 2, 3), (64,))
    error = abs(est.extrapolated - (2.0 / PI) ** 2)
    assert error > 1e-5
    assert est.error_estimate >= error


@pytest.mark.parametrize("schedule", [(128, 256), (256, 512)])
def test_unresolved_piecewise_mesh_is_domain_error(schedule):
    # V = -1e5 oscillates with sqrt(-V) = 316.2: at 1.24 and 0.62 rad per
    # segment the last two levels agreed by accident, (128, 256) reporting
    # -2.2e-6 with an estimate of 1.6e-6 for sin(316.2)/316.2 = 2.78e-3
    sys = JacobiSystem.constant([[-1e5]], 1.0)
    with pytest.raises(DomainError, match="needs at least 904 segments"):
        fredholm_det_piecewise(sys, schedule)


def test_resolved_piecewise_mesh_is_honest():
    # 0.31 rad per segment at N = 1024; only the finest level is guarded
    sys = JacobiSystem.constant([[-1e5]], 1.0)
    w = np.sqrt(1e5)
    for schedule in ((512, 1024), (256, 1024)):
        est = fredholm_det_piecewise(sys, schedule)
        assert est.error_estimate >= abs(est.extrapolated - np.sin(w) / w)


@pytest.mark.parametrize("c, needed", [(120.0, None), (200.0, 70)])
def test_piecewise_resolution_guard_reads_eigenvalues(c, needed):
    # V = [[-c, 5c], [5c, 10c]] has lambda_min = -2.93c, above its Gershgorin
    # bound -6c: the screen passes c = 120 on to the eigenvalues, which clear
    # the limit -(0.35 * 64)^2 = -502; c = 200 gives lambda_min = -586
    sys = JacobiSystem.constant([[-c, 5.0 * c], [5.0 * c, 10.0 * c]], 1.0)
    if needed is None:
        fredholm_det_piecewise(sys, (32, 64))
    else:
        with pytest.raises(DomainError, match=f"needs at least {needed} segments"):
            fredholm_det_piecewise(sys, (32, 64))


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


def _mp_evaluation_map(kappa, r, n, deltas):
    """det(G)/det(D) of the Jacobi-shape Gram G and hat Gram D on ``deltas``,
    raised to -(n - 1)/2, from the closed-form segment stiffness at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        v = -mp.mpf(kappa) * mp.mpf(r) ** 2
        ds = [mp.mpf(float(d)) for d in deltas]
        if v < 0:
            w = mp.sqrt(-v)
            sn, ct = mp.sin, mp.cot
        else:
            w = mp.sqrt(v)
            sn, ct = mp.sinh, mp.coth
        s_dd = [w / 2 * (w * d / sn(w * d) ** 2 + ct(w * d)) for d in ds]
        s_od = [-w / 2 * (w * d * ct(w * d) + 1) / sn(w * d) for d in ds]

        def continuant(seg_dd, seg_od):
            prev, det = mp.mpf(1), seg_dd[0] + seg_dd[1]
            for j in range(2, len(ds)):
                prev, det = det, (seg_dd[j - 1] + seg_dd[j]) * det - seg_od[j - 1] ** 2 * prev
            return det

        ratio = continuant(s_dd, s_od) / continuant([1 / d for d in ds], [-1 / d for d in ds])
        return mp.exp(-mp.mpf(n - 1) / 2 * mp.log(ratio))


@pytest.mark.parametrize(
    "kappa, r, n, times, tol",
    [
        (-0.5, 0.01, 5, 512, 1e-15),  # ev - 1 = -2.64e-16
        (1.0, PI / 2, 2, 16, 1e-13),
        (-1.0, 1.0, 3, 64, 1e-13),
        (-1e3, 1.5, 5, 512, 1e-13),  # z = v delta^2 = 8.6e-3
        (-1e3, 1.5, 2, 8, 1e-13),  # z = 35: the csch/coth form
        (2.0, 2.0, 3, 2, 1e-13),  # z = -2: the sin form
        (1.0, 3.0, 3, (0.0, 0.1, 0.35, 0.4, 0.8, 1.0), 1e-13),  # z from -0.09 to -1.44
        # the validation mesh sweep: log ev ~ 1e-7 is a sum of pivot logs
        # log(1 + x) with x down to 1e-12; rounding 1 + x without restoring
        # the dropped bits of x cost up to 1.5e-14 on these three
        (1.0, PI / 2, 2, 128, 2.5e-16),
        (-1.0, 1.0, 3, 256, 2.5e-16),
        (0.5, 1.5, 4, 128, 2.5e-16),
    ],
    ids=[
        "near-one", "sphere", "hyperbolic", "hyperbolic-fine", "z35", "z-2", "nonuniform",
        "mesh2-kappa1-n2", "mesh2-kappa-1-n3", "mesh2-kappa0.5-n4",
    ],
)
def test_evaluation_map_matches_mp_gram(kappa, r, n, times, tol):
    # the same Gram ratio at 50 digits; the values sit near 1, so a form that
    # subtracts two O(N log N) log-determinants loses up to 5e-11 here
    part = Partition.uniform(times) if isinstance(times, int) else Partition(times)
    val = evaluation_map_jacobian(GeodesicData(ConstantCurvature(n, kappa), r), part)
    ref = _mp_evaluation_map(kappa, r, n, part.deltas)
    assert abs(val - float(ref)) <= tol


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


@pytest.mark.parametrize(
    "kappa, n, r, times",
    [
        (1.0, 400, 3.0, (0.0, 1.0)),
        (1.0, 40, 3.14159265, (0.0, 1 - 1e-12, 1.0)),
        (-1.0, 2, 1000.0, (0.0, 1.0)),
    ],
    ids=["sphere-n400", "near-conjugate-segment", "hyperbolic-sinh-overflow"],
)
def test_phi0_chain_beyond_float64_segments(kappa, n, r, times):
    # each segment's Jacobian leaves float64 (1e-530, 1e-350 and sinh(1000)),
    # the chain does not: it raised ValueError from the log of 0.0 or of inf
    import mpmath as mp

    m, part = ConstantCurvature(n, kappa), Partition(times)
    f = mp.sin if kappa > 0 else mp.sinh
    exact = mp.fprod((f(mp.mpf(d)) / mp.mpf(d)) ** (-(n - 1) / mp.mpf(2)) for d in part.deltas * r)
    assert phi0_chain(m, r, part) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_phi0_chain_outside_float64_is_a_domain_error():
    with pytest.raises(DomainError, match="outside float64"):
        phi0_chain(ConstantCurvature(3, -1.0), 2000.0, Partition((0.0, 1.0)))


@pytest.mark.parametrize("N", [2.5, "4", 4.0, 1, None])
def test_uniform_partition_needs_an_integer_count(N):
    # a float or a string ended in a TypeError from np.linspace or from <
    with pytest.raises(DomainError, match="integer count of at least two segments"):
        Partition.uniform(N)
    assert Partition.uniform(np.int64(3)).times == Partition.uniform(3).times


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zeta_tail_matches_hurwitz_zeta(m):
    # Euler-Maclaurin tail against mpmath's Hurwitz zeta at 40 digits
    import mpmath as mp

    Ks = list(range(1, 70)) + [127, 128, 500, 1000, 2048, 4096, 20000]
    with mp.workdps(40):
        for K in Ks:
            ref = float(mp.zeta(2 * m, K + 1))
            assert galerkin._zeta_tail(K, m) == pytest.approx(ref, rel=2e-15, abs=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: assemble_hessian_piecewise(JacobiSystem(1, 1.0, 1.0), Partition((0.0, 1.0))),
            "need at least two segments",
        ),
        (
            lambda: evaluation_map_jacobian(
                GeodesicData(ConstantCurvature(2, 1.0), 1.0), Partition((0.0, 1.0))
            ),
            "need at least two segments",
        ),
        (
            lambda: evaluation_map_jacobian(
                GeodesicData(SyntheticPotential(2, lambda s: np.eye(1), 1.0), 1.0),
                Partition.uniform(4),
            ),
            "evaluation-map Jacobian implemented for constant curvature",
        ),
    ],
    ids=["assembly-one-segment", "evaluation-map-one-segment", "evaluation-map-synthetic"],
)
def test_input_guards_are_named_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message
