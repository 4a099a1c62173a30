"""ODE route: propagation, determinant ratios, degenerate case, zeta transfer."""

import contextlib
import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from geodet import (
    ConstantCurvature,
    DegenerateOperatorError,
    DomainError,
    GeodesicData,
    IntegrationError,
    JacobiSystem,
    NonpositiveOperatorError,
    SyntheticPotential,
    fredholm_det_deflated,
    gy_degenerate_ratio,
    gy_ratio,
    jacobi_endomorphism,
    solve_jacobi_ode,
    zeta_det_dirichlet_laplacian,
    zeta_det_jacobi,
)
from geodet import errors, gelfand_yaglom, heat
from geodet.cli import main
from geodet.gelfand_yaglom import _sample_potential

PI = np.pi
SINH1 = 1.1752011936438014  # sinh(1)


def scalar_system(c, t=1.0):
    return JacobiSystem.constant([[c]], t)


def free_system(n, t=1.0):
    return JacobiSystem.constant(np.zeros((n, n)), t)


def grid_run(sys, steps, V=None):
    """[J; J'] at every grid point of one RK4 run, shape (steps+1, 2n, n): the grid reader's sweep."""
    if V is None:
        V = _sample_potential(sys, steps)
    return gelfand_yaglom._grid_states(sys, steps, V)


def catalog_like_system(n, seed=0, t=1.3):
    """Synthetic system of V(s) = (A + B sin(2 pi s/t) + C s/t)/t^2 on [0, t].

    A, B and C are random symmetric (n-1)x(n-1) blocks of unit norm, so the
    operator stays positive; the scalar potential is called once per node.
    """
    rng = np.random.default_rng(seed)
    A, B, C = (0.5 * (X + X.T) for X in rng.standard_normal((3, n - 1, n - 1)))
    A, B, C = (X / np.linalg.norm(X, 2) for X in (A, B, C))

    def pot(s):
        u = s / t
        return (A + B * math.sin(2.0 * math.pi * u) + C * u) / (t * t)

    return jacobi_endomorphism(GeodesicData(SyntheticPotential(n, pot, t), t))


def stage_loop_rk4(V, h, Y0, Z0):
    """Reference: classical RK4 for Y'' = V Y, one stage at a time."""
    steps = (len(V) - 1) // 2
    Y = np.empty((steps + 1,) + Y0.shape)
    Z = np.empty_like(Y)
    Y[0], Z[0] = Y0, Z0
    y, z = Y0.copy(), Z0.copy()
    for m in range(steps):
        V0, Vh, V1 = V[2 * m], V[2 * m + 1], V[2 * m + 2]
        k1y = z
        k1z = V0 @ y
        k2y = z + 0.5 * h * k1z
        k2z = Vh @ (y + 0.5 * h * k1y)
        k3y = z + 0.5 * h * k2z
        k3z = Vh @ (y + 0.5 * h * k2y)
        k4y = z + h * k3z
        k4z = V1 @ (y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        Y[m + 1], Z[m + 1] = y, z
    return Y, Z


def stacked_sweep_rk4(sys, steps):
    """Reference: the blocked RK4 run with the stacked second sweep.

    Every block's increments are built, and each block's rows are the
    stacked (rows, 2n, 2n) @ (2n, n) product E_j S plus S.
    """
    n = sys.n
    block = math.isqrt(steps - 1) + 1
    E = gelfand_yaglom._transfer_increments(_sample_potential(sys, steps), np.float64(sys.t) / steps, block)
    for j in range(1, block):
        E[:, j] += E[:, j - 1] + E[:, j] @ E[:, j - 1]
    Y = np.empty((steps + 1, 2 * n, n))
    Y[0] = np.eye(2 * n, n, -n)
    for b in range(len(E)):
        S = Y[b * block]
        rows = Y[b * block + 1 : (b + 1) * block + 1]
        rows[:] = np.matmul(E[b, : len(rows)], S) + S
    return Y


def split_last_block_rk4(sys, steps, V):
    """Reference: the blocked RK4 run whose second sweep treats the last block apart.

    The loop maps every block but the last by one (block 2n, 2n) @ (2n, n)
    product; the last block's k states get a product of k 2n rows and their
    start state of their own.  ``V`` are the half-grid samples.
    """
    n = sys.n
    block = math.isqrt(steps - 1) + 1
    blocks = -(-steps // block)
    E = gelfand_yaglom._transfer_increments(V, np.float64(sys.t) / steps, block)
    for j in range(1, block):
        E[:, j] += E[:, j - 1] + E[:, j] @ E[:, j - 1]
    Y = np.empty((blocks * block + 1, 2 * n, n))
    Y[0] = np.eye(2 * n, n, -n)
    rows = Y[1:].reshape(blocks, block * 2 * n, n)
    states = Y[1:].reshape(blocks, block, 2 * n, n)
    E = E.reshape(blocks, block * 2 * n, 2 * n)
    for b in range(blocks - 1):
        S = Y[b * block]
        np.matmul(E[b], S, out=rows[b])
        Y[(b + 1) * block] += S
    states[:-1, :-1] += Y[: (blocks - 1) * block : block, None]
    k = steps - (blocks - 1) * block
    S = Y[(blocks - 1) * block]
    np.matmul(E[-1, : k * 2 * n], S, out=rows[-1, : k * 2 * n])
    states[-1, :k] += S
    return Y[: steps + 1]


def propagation_systems(n):
    """A constant, a varying and a zero-mode (antipodal) system of dimension n."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n))
    const = JacobiSystem.constant(0.5 * (X + X.T), 1.0)
    if n == 1:
        varying = JacobiSystem(1, 1.2, lambda s: 1.0 + 0.5 * math.sin(3.0 * s))
        antipodal = scalar_system(-(PI**2))
    else:
        varying = catalog_like_system(n, seed=n)
        antipodal = jacobi_endomorphism(GeodesicData(ConstantCurvature(n, 2.0), PI / math.sqrt(2.0)))
    return {"constant": const, "varying": varying, "antipodal": antipodal}


def truncated_product_oracle(shift, K=10**5):
    """prod_k (1 + shift/(pi^2 k^2)) with its analytic log tail."""
    k = np.arange(1, K + 1, dtype=float)
    log_partial = float(np.sum(np.log1p(shift / (PI**2 * k**2))))
    log_tail = 0.0
    c = shift / PI**2
    ext = np.arange(K + 1, 10 * K, dtype=float)
    for m in range(1, 5):
        sign = (-1.0) ** (m + 1) / m
        tail_sum = float(np.sum(1.0 / ext ** (2 * m))) + 1.0 / (
            (2 * m - 1) * (10.0 * K - 1.0) ** (2 * m - 1)
        )
        log_tail += sign * c**m * tail_sum
    return float(np.exp(log_partial + log_tail))


# ---------------------------------------------------------------------------
# propagation


def test_free_propagation_is_linear():
    prop = solve_jacobi_ode(free_system(2), 64)
    assert np.allclose(prop.J[-1], np.eye(2), atol=1e-13)
    assert np.allclose(prop.Jprime[-1], np.eye(2), atol=1e-13)


def test_constant_positive_potential_matches_sinh():
    prop = solve_jacobi_ode(scalar_system(1.0), 2048)
    assert abs(prop.J[-1][0, 0] - SINH1) < 1e-10
    # cross-check against the truncated eigenvalue product
    assert abs(truncated_product_oracle(1.0) - SINH1) < 1e-9


def test_zero_mode_potential_hits_zero():
    prop = solve_jacobi_ode(scalar_system(-(PI**2)), 2048)
    assert abs(prop.J[-1][0, 0]) < 1e-8
    assert prop.Jprime[-1][0, 0] == pytest.approx(-1.0, abs=1e-8)


def test_step_count_validation():
    with pytest.raises(DomainError):
        solve_jacobi_ode(scalar_system(1.0), 8)


def test_non_finite_potential_raises():
    # NaN at the symmetry check point s = 0.5: the system refuses it when built
    with pytest.raises(IntegrationError):
        sys = JacobiSystem(1, 1.0, lambda s: np.array([[0.0 if s < 0.5 else np.nan]]))
        solve_jacobi_ode(sys, 64)


def test_wronskian_conserved_along_propagation():
    pot = lambda s: np.array([[np.sin(2 * s), 0.4 * s], [0.4 * s, 1.0 - s]])
    prop = solve_jacobi_ode(JacobiSystem(2, 1.0, pot), 512)
    assert prop.wronskian_drift() < 1e-9


def test_rk4_is_fourth_order():
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[5.0 + 4.0 * np.sin(2 * PI * s)]]))
    ref = solve_jacobi_ode(sys, 16384).J[-1][0, 0]
    e1 = abs(solve_jacobi_ode(sys, 512).J[-1][0, 0] - ref)
    e2 = abs(solve_jacobi_ode(sys, 1024).J[-1][0, 0] - ref)
    assert 12.0 <= e1 / e2 <= 20.0


def test_error_estimate_tracks_actual_error():
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[5.0 + 4.0 * np.sin(2 * PI * s)]]))
    z = zeta_det_jacobi(sys, 256)
    actual = abs(z.value - zeta_det_jacobi(sys, 16384).value)
    assert z.error_estimate > 0.2 * actual


def test_interval_splitting_composition():
    # propagate [0, t] at once, or through the midpoint: the second half
    # continues from the first half's end state [J(t/2); J'(t/2)]
    pot = lambda s: np.array([[0.7 * np.cos(3 * s), 0.1], [0.1, -0.4 + s]])
    t = 1.3
    sys = JacobiSystem(2, t, pot)
    full = solve_jacobi_ode(sys, 4096)
    Y1 = grid_run(JacobiSystem(2, t / 2, pot), 2048)
    second = JacobiSystem(2, t / 2, lambda s: pot(s + t / 2))
    J, Jprime = stage_loop_rk4(_sample_potential(second, 2048), t / 2 / 2048, Y1[-1, :2], Y1[-1, 2:])
    assert np.max(np.abs(J[-1] - full.J[-1])) < 1e-9
    assert np.max(np.abs(Jprime[-1] - full.Jprime[-1])) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["constant", "varying", "antipodal"])
@pytest.mark.parametrize("steps", [8, 17, 512, 1001, 2049, 4097])
def test_transfer_matrix_propagation_matches_stage_loop(n, kind, steps):
    # the transfer-matrix form is the same RK4 scheme: J and J' on the
    # whole grid agree with a stage-by-stage loop to rounding; step counts
    # that are not squares leave a last block padded with identity steps
    sys = propagation_systems(n)[kind]
    V = _sample_potential(sys, steps)
    Y = grid_run(sys, steps)
    assert Y.shape == (steps + 1, 2 * n, n)
    Jref, Jpref = stage_loop_rk4(np.asarray(V), sys.t / steps, np.zeros((n, n)), np.eye(n))
    assert np.max(np.abs(Y[:, :n] - Jref)) <= 1e-13 * np.max(np.abs(Jref))
    assert np.max(np.abs(Y[:, n:] - Jpref)) <= 1e-13 * np.max(np.abs(Jpref))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 11])
@pytest.mark.parametrize("steps", [16, 17, 100, 1000, 1023, 1024, 4097])
def test_constant_run_matches_callable_run_to_rounding(n, steps):
    # a constant matrix takes its powers by doubling, a callable returning it
    # sweeps its steps in sequence: the same RK4 map, so every grid row
    # agrees to rounding, within 1e-14 of its largest entry (2.0e-15 at
    # most over these runs), at odd step counts, with a padded last block
    # and at square counts
    rng = np.random.default_rng(n * 10000 + steps)
    X = rng.standard_normal((n, n))
    M = X + X.T
    U = grid_run(JacobiSystem.constant(M, 1.3), steps)
    assert rows_agree_to_rounding(U, grid_run(JacobiSystem(n, 1.3, lambda s: M), steps))


def rows_agree_to_rounding(U, W):
    """Whether every grid row of U lies within 1e-14 of the largest entry of W's row."""
    return np.all(np.abs(U - W).max(axis=(1, 2)) <= 1e-14 * np.abs(W).max(axis=(1, 2)))


def exact_rows(D, steps):
    """[J; J'] at every grid point of the steps I + D from [0; I], at 40 digits: the exact powers of the float64 D."""
    import mpmath as mp

    n = D.shape[1] // 2
    with mp.workdps(40):
        D = np.array([[mp.mpf(float(x)) for x in row] for row in D], dtype=object)
        S = np.array([[mp.mpf(float(x)) for x in row] for row in np.eye(2 * n, n, -n)], dtype=object)
        rows = [S]
        for _ in range(steps):
            S = S + D.dot(S)
            rows.append(S)
        return np.array(rows, dtype=float)


@pytest.mark.parametrize(
    "n, steps, shift, scale",
    [(1, 20000, -30.0, 0.3), (1, 4097, 30.0, 0.3), (2, 4097, -60.0, 0.3), (2, 1000, -200.0, 0.3),
     (2, 2047, 0.0, 3.0), (3, 17, 0.0, 1.0), (3, 300, 0.0, 1.0), (4, 300, 0.0, 2.0)],
)
def test_constant_grid_rows_are_powers_of_the_increment(n, steps, shift, scale):
    # a constant run's grid row j is (I + D)^j [0; I] of its one float64
    # increment D, a product of O(log2 j) rounded factors: within
    # 2 (1 + log2 j)(1 + w s_j) eps of the row's largest entry, w^2 the
    # largest |eigenvalue| of V, so w s_j is the phase or growth exponent
    # the row has reached (the worst over these runs is 0.61 of the bound;
    # the step-by-step prefix it replaced reached 1.5 of it)
    X = np.random.default_rng(steps + n).standard_normal((n, n))
    sys = JacobiSystem.constant(shift * np.eye(n) + scale * (X + X.T), 1.3)
    V = _sample_potential(sys, steps)
    exact = exact_rows(gelfand_yaglom._transfer_increments(V[:3], np.float64(sys.t) / steps, 1)[0, 0], steps)
    err = np.abs(grid_run(sys, steps, V) - exact).max(axis=(1, 2))
    j = np.arange(steps + 1)
    w = math.sqrt(np.abs(np.linalg.eigvalsh(V[0])).max())
    bound = 2.0 * (1.0 + np.log2(np.maximum(j, 1))) * (1.0 + w * sys.t * j / steps) * np.finfo(float).eps
    assert np.all(err <= bound * np.abs(exact).max(axis=(1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("steps", [16, 17, 1000, 1024, 4097])
def test_one_product_per_block_matches_stacked_sweep(n, kind, steps):
    # the second sweep maps a block by one (rows 2n, 2n) @ (2n, n) product;
    # every state of a callable system's sequential sweep is bit-identical
    # to the stacked per-step products, at n = 1 (a matrix-vector kernel),
    # with a padded last block and at square counts; a constant system's
    # powers by doubling make other products of the same RK4 map, so its
    # states agree with the stacked ones to rounding (1.8e-15 of a row's
    # largest entry at most over these runs)
    rng = np.random.default_rng(100 * n + steps)
    X, A = rng.standard_normal((2, n, n))
    M, A = X + X.T, 0.5 * (A + A.T)
    if kind == "constant":
        sys, agree = JacobiSystem.constant(M, 1.3), rows_agree_to_rounding
    else:
        sys, agree = JacobiSystem(n, 1.3, lambda s: M + A * math.sin(3.0 * s)), np.array_equal
    assert agree(grid_run(sys, steps), stacked_sweep_rk4(sys, steps))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("steps", [16, 17, 100, 1000, 1024, 2047, 2048, 4096, 4097])
def test_uniform_block_sweep_matches_split_last_block(n, kind, steps):
    # the second sweep runs one loop over every block, the last one cut to
    # its steps, and one add for the rows inside the blocks; every state of
    # a callable system's sequential sweep is bit-identical to the sweep
    # that treated the last block apart, with a padded last block (17,
    # 1000, 2047, 2048, 4097 steps) and without; a constant system's block
    # starts and padded last block, taken by doubling, agree with it to
    # rounding (5.3e-15 of a row's largest entry at most over these runs)
    rng = np.random.default_rng(1000 * n + steps)
    X, A = rng.standard_normal((2, n, n))
    M, A = X + X.T, 0.5 * (A + A.T)
    if kind == "constant":
        sys, agree = JacobiSystem.constant(M, 1.3), rows_agree_to_rounding
    else:
        sys, agree = JacobiSystem(n, 1.3, lambda s: M + A * math.sin(3.0 * s)), np.array_equal
    V = _sample_potential(sys, steps)
    assert agree(grid_run(sys, steps, V), split_last_block_rk4(sys, steps, V))


def test_last_block_product_has_the_rows_of_its_steps_only():
    # at 2047 steps (blocks of 46, the last with 23 steps) a product over the
    # whole padded last block, 1012 rows instead of 506, changes one entry of
    # J'(t) of this n = 11 system in its last bit on OpenBLAS's AVX-512
    # (SkylakeX) kernel; Haswell and Zen give the same bits for both shapes.
    # The matrix is a callable's, whose run sweeps its steps in sequence
    X = np.random.default_rng(0).standard_normal((11, 11))
    sys = JacobiSystem(11, 1.3, lambda s: X + X.T)
    V = _sample_potential(sys, 2047)
    assert np.array_equal(grid_run(sys, 2047, V), split_last_block_rk4(sys, 2047, V))


def random_system(n, kind, seed):
    rng = np.random.default_rng(seed)
    X, A = rng.standard_normal((2, n, n))
    M, A = X + X.T, 0.5 * (A + A.T)
    if kind == "constant":
        return JacobiSystem.constant(M, 1.3)
    return JacobiSystem(n, 1.3, lambda s: M + A * math.sin(3.0 * s))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("steps", [16, 17, 1000, 1024, 2047, 4097])
def test_end_state_is_the_grid_last_row_bit_for_bit(n, kind, steps):
    # the end chain makes the block-end products and adds of the grid sweep,
    # with a padded last block (17, 1000, 2047, 4097 steps) and without; on
    # the AVX-512 kernel the (2n, 2n) products round otherwise from n = 9 on
    sys = random_system(n, kind, 100 * n + steps)
    assert np.array_equal(solve_jacobi_ode(sys, steps).end, grid_run(sys, steps)[-1])


@pytest.mark.parametrize("n", range(1, 6))
def test_doubling_last_is_the_last_doubling_row_bit_for_bit(n):
    # a run without a reader takes its last power and start from the
    # squarings alone; they are the batched rounds' last rows bit for bit,
    # for powers (_compose) and states (_advance), and E_j from None at
    # j + 1 is the j-th power of the batched rounds from D
    sys = random_system(n, "constant", n)
    D = gelfand_yaglom._transfer_increments(_sample_potential(sys, 3)[:3], np.float64(sys.t) / 1000, 1)[0, 0]
    F, S0 = gelfand_yaglom._doubling_last(gelfand_yaglom._compose, D, None, 33), np.eye(2 * n, n, -n)
    for count in range(1, 71):
        for step, G, X0 in ((gelfand_yaglom._compose, D, D), (gelfand_yaglom._advance, F, S0)):
            last = gelfand_yaglom._doubling_last(step, G, X0, count)
            assert np.array_equal(last, gelfand_yaglom._doubling(step, G, X0, count)[-1])
        power = gelfand_yaglom._doubling_last(gelfand_yaglom._compose, D, None, count + 1)
        assert np.array_equal(power, gelfand_yaglom._doubling(gelfand_yaglom._compose, D, D, count)[-1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("rho", [0.0, 1e-300, 1e-3, 1.0, 1e6, 709.7**2])
def test_block_starts_scale_exactly(n, rho):
    # a constant run doubles its block starts in the rows [J; J'/c], c a
    # power of two about sqrt(rho), rho = |V|_F (c = 1 at V = 0), and
    # divides them back; a power of two scales without rounding, so the
    # starts of the mapped and the unmapped sweep are the unscaled
    # doubling's bit for bit, signed zeros included, from V = 0 to starts
    # of 9.2e297 (n = 1, the largest rho)
    X = np.random.default_rng(n).standard_normal((n, n))
    U = (X + X.T) / np.linalg.norm(X + X.T)
    sys, steps = JacobiSystem.constant(rho * U, min(1.0, 709.7 / math.sqrt(rho or 1.0))), 1024
    V = _sample_potential(sys, steps)
    block, blocks, _ = gelfand_yaglom._blocking(sys, steps)
    D = gelfand_yaglom._transfer_increments(V[:3], np.float64(sys.t) / steps, 1)[0, 0]
    full = gelfand_yaglom._doubling_last(gelfand_yaglom._compose, D, None, block + 1)
    starts = gelfand_yaglom._doubling(gelfand_yaglom._advance, full, np.eye(2 * n, n, -n), blocks)
    assert np.isfinite(starts).all()
    mapped = np.array([start for group in gelfand_yaglom._sweep(sys, steps, V) for _, start in group])
    [(_, last)] = next(gelfand_yaglom._sweep(sys, steps, V, False))
    assert mapped.tobytes() == starts.tobytes() and last.tobytes() == starts[-1].tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_constant_run_near_float64_end_matches_the_callable_run(n):
    # E_block's J' rows are about w times the states they map, so the
    # block starts are doubled in [J; J'/c], c = 2^p: these runs end
    # within log w of 1.8e308 and raised IntegrationError ("at s =
    # 0.9922") where the sequential sweep of the same V returns
    w, rot = 709.7, np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    V = np.array([[w * w]]) if n == 1 else rot @ np.diag([w * w, 40.0]) @ rot.T  # coupled at n = 2
    end = solve_jacobi_ode(JacobiSystem.constant(V, 1.0), 16641).end
    sequential = solve_jacobi_ode(JacobiSystem(n, 1.0, lambda s: V), 16641).end
    assert np.abs(sequential).max() > 7e307
    assert np.abs(end - sequential).max() <= 1e-12 * np.abs(sequential).max()


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("steps", [17, 1000])
def test_grid_built_on_first_read_matches_a_grid_run(n, kind, steps):
    sys = random_system(n, kind, 10 * n + steps)
    prop, Y = solve_jacobi_ode(sys, steps), grid_run(sys, steps)
    assert prop.J.shape == prop.Jprime.shape == (steps + 1, n, n)
    assert np.array_equal(prop.J, Y[:, :n]) and np.array_equal(prop.Jprime, Y[:, n:])


def test_end_state_beyond_float64_names_the_grid_s():
    # a run whose end state is not finite raises the grid run's exact error
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(2, -1e4), 10.0))
    with pytest.raises(IntegrationError) as grid:
        grid_run(sys, 2048)
    with pytest.raises(IntegrationError) as end:
        solve_jacobi_ode(sys, 2048)
    assert str(end.value) == str(grid.value) and " at s = " in str(end.value)


@pytest.mark.parametrize("c", [4000.0, 1420.0, 850.0], ids=["first-group", "second-group", "last-group"])
def test_end_state_beyond_float64_in_any_group_names_the_grid_s(c):
    # J' = cosh(c s) leaves float64 at c s = 710.5; at 20000 steps a scalar
    # run sweeps three groups, and the run finds the grid's first row beyond
    # float64 in the group that holds it, with the grid's exact error
    sys, steps = scalar_system(c * c), 20000
    _, blocks, group = gelfand_yaglom._blocking(sys, steps)
    assert -(-blocks // group) == 3
    with pytest.raises(IntegrationError) as grid:
        grid_run(sys, steps)
    with pytest.raises(IntegrationError) as end:
        solve_jacobi_ode(sys, steps)
    assert str(end.value) == str(grid.value)
    s = float(str(end.value).split(" at s = ")[1].split()[0])
    assert s == pytest.approx(710.5 / c, abs=1e-3)


def test_end_state_beyond_float64_builds_no_grid(monkeypatch):
    # the run names the first row beyond float64 one group at a time, so it
    # needs no grid: with 500 kB of physical memory the run (453 kB with a
    # group of states) fits and the 4097-state grid (590 kB) does not, and
    # a run that built the grid for its error ended in the grid's DomainError
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, -6e5), 1.0))
    with pytest.raises(IntegrationError) as grid:
        grid_run(sys, 4096)
    monkeypatch.setattr(errors, "physical_memory", lambda: 500e3)
    with pytest.raises(IntegrationError) as end:
        solve_jacobi_ode(sys, 4096)
    assert str(end.value) == str(grid.value) and " at s = 0.9172 " in str(end.value)


def test_constant_run_traced_heap_peak():
    # a constant system's samples are one broadcast matrix, so its run
    # allocates no half-grid of points: the 524288-step run of det-gy
    # --kappa 1 --r 1 --n 3 peaked at 8 MiB for its linspace, now 0.31 MiB
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 1.0), 1.0))
    solve_jacobi_ode(sys, 2**19)
    tracemalloc.start()
    try:
        solve_jacobi_ode(sys, 2**19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_kernel_run_traced_heap_peak():
    # the Gram at a kernel is summed a group at a time in the run's one
    # sweep: zeta_det_jacobi at the S^3 antipode at 2^19 steps held the
    # 2^19 + 1 states of the grid for it, 75 MB, and peaks now at 0.4 MiB
    sys = antipodal_system()
    zeta_det_jacobi(sys, 2**19)
    tracemalloc.start()
    try:
        zeta_det_jacobi(sys, 2**19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_limit_predictions_read_no_grid(monkeypatch):
    # both heat predictions read the end state alone: with a grid reader
    # that raises they return the values they return with it
    values = (heat.nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), 1.0),
              heat.antipodal_limit_via_Sxy(3, 1.0))

    def no_grid(*args):
        raise AssertionError("a limit prediction built the Jacobi grid")

    monkeypatch.setattr(gelfand_yaglom, "_grid_states", no_grid)
    assert (heat.nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), 1.0),
            heat.antipodal_limit_via_Sxy(3, 1.0)) == values


def test_limit_prediction_traced_heap_peak():
    # a constant system's run without a reader holds the squarings of its
    # one step, a few (2n)^2 floats, and the end state: 1.6 MiB at n = 100,
    # where one block of 32 powers takes about 10 MiB, the batched starts
    # 5 MiB and the whole 1025-state grid 186 MiB
    heat.nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), 1.0)
    tracemalloc.start()
    try:
        heat.nondegenerate_limit_prediction(ConstantCurvature(100, 1.0), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_determinant_traced_heap_peak():
    # a determinant's run holds its half-grid samples, 1.05 MB at n = 4 and
    # 4096 steps, one group of increments (GROUP_BYTES) and, on the fine
    # run, one group's states for the sign test; with every block's
    # increments and the grid for the sign test the peak was 5.8 MB
    sys1, sys2 = catalog_like_system(4, seed=1), catalog_like_system(4, seed=2)
    for call in (lambda: zeta_det_jacobi(sys1, 4096), lambda: gy_ratio(sys1, sys2, 4096)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("steps", [17, 1000, 4097])
@pytest.mark.parametrize("scale", [1.0, 20.0, 60.0])
def test_grouped_sign_test_reads_the_grid_states(n, kind, steps, scale):
    # the first-failing-row reader sees one group's states at a time; it
    # finds the first grid row inside (0, t) where det J(s) <= 0, for
    # operators with conjugate points (larger scales) and without, and a
    # determinant route is nonpositive exactly where the grid shows a sign
    # change on (0, t]
    rng = np.random.default_rng(10 * n + steps)
    X, A = rng.standard_normal((2, n, n))
    M, A = scale * (X + X.T), scale * 0.5 * (A + A.T)
    if kind == "constant":
        sys = JacobiSystem.constant(M, 1.3)
    else:
        sys = JacobiSystem(n, 1.3, lambda s: M + A * math.sin(3.0 * s))
    sign = gelfand_yaglom._FirstFailure(lambda states: np.linalg.slogdet(states[:, :n])[0] > 0.0, steps)
    gelfand_yaglom.JacobiPropagation(sys, steps, None, sign)
    holds = np.linalg.slogdet(grid_run(sys, steps)[:, :n])[0] > 0.0
    assert sign.row == (None if holds[1:-1].all() else 1 + int(np.argmin(holds[1:-1])))
    if holds[1:].all():
        gelfand_yaglom._fine_det(sys, steps, "P")
    else:
        with pytest.raises(NonpositiveOperatorError):
            gelfand_yaglom._fine_det(sys, steps, "P")


@pytest.mark.parametrize("where", ["last-group", "group-boundary"])
def test_sign_test_finds_a_conjugate_point_in_any_group(where):
    # V = -c^2 has det J(s) = sin(cs)/c, negative just past s = pi/c.  At
    # 20000 steps a scalar run sweeps three groups.  A conjugate point in
    # the last group turns det J(t) negative too; one on the first group's
    # last grid point has its second, 2 pi/c, on the second group's last,
    # so det J(t) > 0 and only the states inside (0, t) change sign.  V = c^2
    # next to each is positive
    steps = 20000
    block, blocks, group = gelfand_yaglom._blocking(scalar_system(1.0), steps)
    assert -(-blocks // group) == 3
    if where == "last-group":
        first = (blocks - 1) // group * group * block  # the grid row that starts the last group
        s = (first + steps) / 2 / steps
    else:
        s = group * block / steps
    c = PI / s
    assert (math.sin(c) > 0.0) is (where == "group-boundary")
    for V, positive in ((-c * c, False), (c * c, True)):
        sys = scalar_system(V)
        sign = gelfand_yaglom._FirstFailure(lambda states: states[:, 0, 0] > 0.0, steps)
        gelfand_yaglom.JacobiPropagation(sys, steps, None, sign)
        # the first row past the conjugate point at row s steps
        assert sign.row is None if positive else abs(sign.row - s * steps) <= 1
        for route in (lambda: zeta_det_jacobi(sys, steps), lambda: gy_ratio(free_system(1), sys, steps)):
            if positive:
                route()
                continue
            with pytest.raises(NonpositiveOperatorError):
                route()


@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("n, steps, groups", [(1, 1000, 1), (1, 20000, 3), (3, 4097, 5)])
def test_readers_see_rows_1_to_steps(kind, n, steps, groups):
    # J(0) = 0 is no state of (0, t]: a reader gets the grid rows 1..steps,
    # each once and in order, one group at a time, in a run of one group
    # and of several
    sys = random_system(n, kind, n + steps)
    _, blocks, group = gelfand_yaglom._blocking(sys, steps)
    assert -(-blocks // group) == groups
    seen = []
    gelfand_yaglom.JacobiPropagation(sys, steps, None, lambda row, states: seen.append((row, states.copy())))
    rows = [row for row, _ in seen]
    assert len(seen) == groups and rows[0] == 1
    assert [row + len(states) for row, states in seen] == rows[1:] + [steps + 1]
    assert np.array_equal(np.concatenate([states for _, states in seen]), grid_run(sys, steps)[1:])


@pytest.mark.parametrize("steps", [17, 1024, 4097, 20000])
def test_constant_system_builds_one_increment(monkeypatch, steps):
    # a constant system builds the increment of one step, from 3 half-grid
    # samples; a callable one builds all of them, one group of blocks at a
    # time, each group's increments within GROUP_BYTES, and the groups'
    # samples meet end to end
    built = []
    transfer_increments = gelfand_yaglom._transfer_increments

    def recorded(V, h, block):
        D = transfer_increments(V, h, block)
        built.append((len(V), D.nbytes))
        return D

    monkeypatch.setattr(gelfand_yaglom, "_transfer_increments", recorded)
    M = np.array([[1.0, 0.2], [0.2, -0.5]])
    grid_run(JacobiSystem.constant(M, 1.3), steps)
    assert built == [(3, 128)]
    built.clear()
    grid_run(JacobiSystem(2, 1.3, lambda s: M), steps)
    assert sum(length - 1 for length, _ in built) == 2 * steps
    assert all(nbytes <= gelfand_yaglom.GROUP_BYTES for _, nbytes in built)
    _, blocks, group = gelfand_yaglom._blocking(JacobiSystem(2, 1.3, lambda s: M), steps)
    assert len(built) == -(-blocks // group) and (steps < 4000) == (len(built) == 1)


def test_blocked_product_error_against_extended_precision():
    # the same increments D_m applied to [0; I] at 30 digits: the blocked prefix
    # product is no less accurate than the per-step loop Y_{m+1} = Y_m + D_m Y_m
    # it replaced (worst relative errors 1.4e-15 and 1.3e-14 over these runs)
    import mpmath as mp

    steps = 1001
    worst = {"blocked": 0.0, "loop": 0.0}
    for n in (1, 2):
        for sys in propagation_systems(n).values():
            V = _sample_potential(sys, steps)
            D = gelfand_yaglom._transfer_increments(V, sys.t / steps, 1)[:, 0]
            loop = np.empty((steps + 1, 2 * n, n))
            loop[0] = np.eye(2 * n, n, -n)
            for m, Dm in enumerate(D):
                loop[m + 1] = loop[m] + Dm @ loop[m]
            with mp.workdps(30):
                u = mp.matrix(loop[0].tolist())
                ref = [u]
                for Dm in D:
                    u = u + mp.matrix(Dm.tolist()) * u
                    ref.append(u)
                ref = np.array([np.array(r.tolist(), dtype=float) for r in ref])
            scale = np.max(np.abs(ref))
            for name, U in (("blocked", grid_run(sys, steps, V)), ("loop", loop)):
                worst[name] = max(worst[name], np.max(np.abs(U - ref)) / scale)
    assert worst["blocked"] <= worst["loop"]
    assert worst["blocked"] < 4e-15


@pytest.mark.parametrize("steps", [2048, 2049])
def test_sample_once_error_estimate_equals_two_runs(steps):
    # the coarse half-grid is every other fine sample (odd counts resample)
    sys = catalog_like_system(3)
    n, t = sys.n, sys.t
    free = float((2.0 * t) ** n)
    fine, coarse = (
        free * float(np.linalg.det(grid_run(sys, m)[-1, :n])) / t**n for m in (steps, steps // 2)
    )
    z = zeta_det_jacobi(sys, steps)
    assert z.value == fine
    assert z.error_estimate == abs(fine - coarse) / 15.0


def antipodal_system(n=3):
    return jacobi_endomorphism(GeodesicData(ConstantCurvature(n, 1.0), PI))


def run_cli_quietly(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


CURVED = ("--kappa", "0.5", "--r", "1", "--n", "3")
ANTIPODAL = ("--kappa", "1", "--r", "3.141592653589793", "--n", "3")


def reader_mode(readers):
    """The readers of a call of a run's one sweep, gelfand_yaglom._end_state: "end" for none."""
    def kind(reader):
        if isinstance(reader, gelfand_yaglom._FirstFailure):
            return "finite" if reader.test is gelfand_yaglom._finite else "sign"
        return "gram" if isinstance(reader, gelfand_yaglom._SimpsonGram) else "grid"

    return "+".join(map(kind, readers)) or "end"


@pytest.mark.parametrize(
    "call, modes",
    [
        (lambda: run_cli_quietly("det-gy", *CURVED), ("sign", "end")),
        (lambda: run_cli_quietly("det-zeta", *CURVED), ("sign+gram", "end")),
        (lambda: run_cli_quietly("det-zeta", *ANTIPODAL), ("sign+gram", "gram")),
        (lambda: gy_ratio(free_system(3), catalog_like_system(3, t=1.0)), ("sign", "sign")),
        (lambda: gy_degenerate_ratio(antipodal_system(), free_system(3)), ("sign+gram", "sign")),
        (lambda: zeta_det_jacobi(catalog_like_system(3)), ("sign+gram", "end")),
        (lambda: zeta_det_jacobi(antipodal_system()), ("sign+gram", "gram")),
        (lambda: solve_jacobi_ode(catalog_like_system(3)), ("end",)),
        (lambda: heat.nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), 1.0), ("end",)),
        (lambda: heat.antipodal_limit_via_Sxy(3, 1.0), ("end",)),
    ],
    ids=[
        "cli-det-gy", "cli-det-zeta", "cli-det-zeta-antipodal", "gy_ratio",
        "gy_degenerate_ratio", "zeta_det_jacobi-ratio", "zeta_det_jacobi-deflated",
        "solve_jacobi_ode", "nondegenerate_limit_prediction", "antipodal_limit_via_Sxy",
    ],
)
def test_propagation_counts(monkeypatch, call, modes):
    # each determinant route runs one fine/coarse pair of the operator it
    # reports on, in one [J; J'] run each, and nothing for a free reference;
    # a ratio runs each operand once; a caller of solve_jacobi_ode, which
    # carries no estimate, gets one run.  Every run sweeps once: a fine run
    # with its sign test over (0, t) and, where a kernel is admitted, the
    # Gram; a coarse run with the Gram at a kernel, else by the end chain
    # alone
    calls = []
    end_state = gelfand_yaglom._end_state

    def counted(sys, steps, V, *readers):
        calls.append((steps, reader_mode(readers)))
        return end_state(sys, steps, V, *readers)

    monkeypatch.setattr(gelfand_yaglom, "_end_state", counted)
    call()
    assert tuple(mode for _, mode in calls) == modes, calls
    if modes[0].startswith("sign") and not modes[1].startswith("sign"):  # a fine/coarse pair
        assert [steps for steps, _ in calls] == [calls[0][0], calls[0][0] // 2]


@pytest.mark.parametrize(
    "argv", [("det-gy", *CURVED), ("det-zeta", *CURVED), ("det-zeta", *ANTIPODAL)],
    ids=["det-gy", "det-zeta", "det-zeta-antipodal"],
)
def test_cli_determinants_share_one_step_halving_path(monkeypatch, argv):
    # value and estimate of both commands come from one fine/coarse helper
    calls = []
    step_halving = gelfand_yaglom._step_halving

    def counted(*args):
        calls.append(args[2])
        return step_halving(*args)

    monkeypatch.setattr(gelfand_yaglom, "_step_halving", counted)
    assert run_cli_quietly(*argv) == 0
    assert calls == ["P2" if argv[0] == "det-gy" else "P"]


@pytest.mark.parametrize(
    "call, grids, sweeps",
    [
        (lambda: run_cli_quietly("det-gy", *CURVED), 0, 2),
        (lambda: zeta_det_jacobi(catalog_like_system(3)), 0, 2),
        (lambda: gelfand_yaglom._free_reference_ratio(catalog_like_system(3), 2048), 0, 2),
        (lambda: zeta_det_jacobi(antipodal_system()), 0, 2),
        (lambda: run_cli_quietly("det-zeta", *ANTIPODAL), 0, 2),
        (lambda: gy_ratio(free_system(3), catalog_like_system(3, t=1.0)), 0, 2),
        (lambda: gy_degenerate_ratio(antipodal_system(), free_system(3)), 0, 2),
        (lambda: heat.nondegenerate_limit_prediction(ConstantCurvature(3, 1.0), 1.0), 0, 1),
        (lambda: solve_jacobi_ode(catalog_like_system(3)).J, 1, 2),
    ],
    ids=["cli-det-gy", "zeta_det_jacobi-ratio", "free_reference_ratio", "zeta_det_jacobi-deflated",
         "cli-det-zeta-antipodal", "gy_ratio", "gy_degenerate_ratio", "nondegenerate_limit_prediction",
         "solve_jacobi_ode-J"],
)
def test_grid_counts(monkeypatch, call, grids, sweeps):
    # no determinant route builds a grid, with a kernel or without: the
    # sign test over (0, t) and the Gram ride on each run's one sweep.  Only
    # a caller that reads J sweeps once more, for the grid
    calls, swept = [], []
    grid_states, sweep = gelfand_yaglom._grid_states, gelfand_yaglom._sweep

    def counted(sys, steps, V):
        calls.append(steps)
        return grid_states(sys, steps, V)

    def counted_sweep(sys, steps, *args):
        swept.append(steps)
        return sweep(sys, steps, *args)

    monkeypatch.setattr(gelfand_yaglom, "_grid_states", counted)
    monkeypatch.setattr(gelfand_yaglom, "_sweep", counted_sweep)
    call()
    assert len(calls) == grids, calls
    assert len(swept) == sweeps, swept


@pytest.mark.parametrize(
    "call, factor",
    [
        (lambda: zeta_det_jacobi(catalog_like_system(3)), 8.0),
        (lambda: gelfand_yaglom._free_reference_ratio(catalog_like_system(3), 2048), 8.0),
        (lambda: zeta_det_jacobi(antipodal_system()), 2.0),
        (lambda: gy_degenerate_ratio(antipodal_system(), free_system(3)), 0.25),
    ],
    ids=["zeta_det_jacobi-ratio", "free_reference_ratio", "zeta_det_jacobi-deflated", "gy_degenerate_ratio"],
)
def test_determinants_read_j_at_t_from_the_end_state(monkeypatch, call, factor):
    # every run, fine or coarse, reads J(t) once, from the end chain of
    # _end_state: doubling J(t) there scales det J(t) by 2^n and a deflated
    # |det A| by 2^(n - kdim), in the value and in the step-halving estimate
    # alike; the readers, the sign test over (0, t) and the Gram, see the
    # mapped states and are unmoved
    before = call()
    ends = []
    end_state = gelfand_yaglom._end_state

    def doubled(sys, steps, V, *readers):
        S = end_state(sys, steps, V, *readers)
        ends.append(steps)
        S[: S.shape[1]] *= 2.0
        return S

    monkeypatch.setattr(gelfand_yaglom, "_end_state", doubled)
    after = call()
    if isinstance(before, float):  # two fine runs, no estimate
        assert ends == [2048, 2048]
        assert after == pytest.approx(factor * before, rel=1e-9)
        return
    assert ends == [2048, 1024]
    assert after.value == pytest.approx(factor * before.value, rel=1e-9)
    # the estimate is a difference of close values, each moved by rounding
    assert after.error_estimate == pytest.approx(factor * before.error_estimate, rel=1e-2)


HUGE_STEPS = 10**11  # arrays of terabytes: refused before any is made


@pytest.mark.parametrize(
    "call",
    [lambda: solve_jacobi_ode(catalog_like_system(2), HUGE_STEPS),
     lambda: zeta_det_jacobi(catalog_like_system(2), HUGE_STEPS)],
    ids=["solve_jacobi_ode", "zeta_det_jacobi"],
)
def test_step_count_beyond_memory_is_a_domain_error(call):
    with pytest.raises(DomainError, match=f"^{HUGE_STEPS} steps need .* GiB for the run"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: solve_jacobi_ode(scalar_system(1.0), 10**5000),
     lambda: zeta_det_jacobi(catalog_like_system(2), 10**5000)],
    ids=["solve_jacobi_ode", "zeta_det_jacobi"],
)
def test_step_count_too_long_to_print_is_named(call):
    # the guard's message named the count with str(), which Python refuses
    # beyond 4300 digits, and sized it by an int quotient beyond float64
    pattern = re.escape("an int of 16610 bits steps need 2^") + r"\d+"
    pattern += re.escape(" bytes or more for the run of [J; J'], more than the ")
    with pytest.raises(DomainError, match="^" + pattern):
        call()


def test_cli_step_count_beyond_memory_is_a_domain_error(capsys):
    # this asked numpy for 1.46 TiB and ended in a MemoryError traceback
    code = main(["det-gy", *CURVED, "--steps", str(HUGE_STEPS)])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["error"]) == (1, "DomainError")
    assert report["message"].startswith(f"{HUGE_STEPS} steps need ")


def test_free_reference_ratio_beyond_float64_power_is_its_value():
    # det J(t) = (t sin(3.1)/3.1)^5 is finite and t^5 is not, but their ratio
    # is taken as a difference of logs; this raised IntegrationError (t^n = inf)
    t = 1e62
    sys = JacobiSystem.constant(-((3.1 / t) ** 2) * np.eye(5), t)
    z = gelfand_yaglom._free_reference_ratio(sys, 2048)
    assert z.value == pytest.approx((math.sin(3.1) / 3.1) ** 5, rel=1e-10, abs=0.0)
    assert 0.0 < z.error_estimate < 1e-10


@pytest.mark.parametrize(
    "steps, kappas, radii, dims",
    [(65536, range(-4, 3), (0.5, 1.0, 1.5), range(2, 6)), (524288, (-4, -2, 2), (1.0, 1.5), (2, 5))],
    ids=["65536", "524288"],
)
def test_free_reference_ratio_at_fine_steps_matches_closed_form(steps, kappas, radii, dims):
    # det-gy's det J(1) on S^n or H^n is ((sin x or sinh x)/x)^(n-1), x^2 = |kappa| r^2,
    # and RK4's error is below 1e-20 at these step counts: a constant run's
    # powers by doubling keep it within 3e-15 (at most 2.8e-15 and 1.9e-15),
    # where a step-by-step prefix was off by up to 3.0e-14 and 5.0e-14
    import mpmath as mp

    for kappa, r, n in itertools.product(kappas, radii, dims):
        sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(n, float(kappa)), r))
        value = gelfand_yaglom._free_reference_ratio(sys, steps).value
        with mp.workdps(40):
            c = mp.mpf(sys.sample(np.zeros(1))[0, -1, -1])  # -kappa r^2 of the float64 system
            x = mp.sqrt(abs(c))
            factor = 1 if c == 0 else (mp.sinh(x) if c > 0 else mp.sin(x)) / x
            exact = float(factor ** (n - 1))
        assert abs(value - exact) <= 3e-15 * exact, (kappa, r, n)


def test_deflated_error_estimate_stays_on_route():
    # at 48 steps J(1) has a kernel but at 24 it has none (its smallest
    # singular value 2.4e-6 lies above the threshold 1e-6); the coarse value
    # keeps the deflated route instead of mixing in the ratio route's 5e-11
    sys = antipodal_system()
    z = zeta_det_jacobi(sys, 48)
    assert z.route == "deflated"
    assert zeta_det_jacobi(sys, 24).route == "gy_ratio"
    actual = abs(z.value - zeta_det_jacobi(sys, 2048).value)
    assert 0.2 * actual < z.error_estimate < 1e-7


def test_deflated_odd_steps_close_with_three_eighths_rule():
    # an odd step count closes the Simpson rule for int J^T J with the 3/8
    # rule on the last three intervals
    sys = antipodal_system()
    odd, even = zeta_det_jacobi(sys, 2049), zeta_det_jacobi(sys, 2048)
    assert odd.route == "deflated" and odd.excluded_zero_modes == 2
    # S^3 antipode: 2^3 times 1/(2 pi^2) per orthogonal direction
    exact = 8.0 / (2.0 * PI**2) ** 2
    assert abs(odd.value - even.value) < 2e-13 * even.value
    assert odd.value == pytest.approx(exact, rel=1e-12)


def test_zeta_det_traced_heap_peak():
    # the step matrices are built without per-stage temporaries: the traced
    # heap peak of a 4096-step n = 4 solve stays within 2x of the 4.7 MB
    # of the stage loop
    sys = catalog_like_system(4)
    zeta_det_jacobi(sys, 64)
    tracemalloc.start()
    try:
        zeta_det_jacobi(sys, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4.7e6


def test_gy_ratio_traced_heap_peak():
    # operand 1 is decided and read before operand 2 is propagated, so one
    # [J; J'] state array is alive at a time: the traced heap peak of a
    # 4096-step n = 4 ratio is 5.5 MiB, and 7.5 MiB with both runs held
    s1, s2 = catalog_like_system(4), catalog_like_system(4, seed=1)
    gy_ratio(s1, s2, 64)
    tracemalloc.start()
    try:
        gy_ratio(s1, s2, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


def test_overflowing_propagation_raises_named_error():
    # sinh(1000) is beyond float64: J leaves the range before s = t
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(2, -1e4), 10.0))
    with pytest.raises(IntegrationError, match="float64"):
        solve_jacobi_ode(sys, 2048)
    with pytest.raises(IntegrationError):
        zeta_det_jacobi(sys)


def test_ratio_beyond_float64_raises_named_error():
    # each det J(1) is finite; their ratio is not
    near_conjugate = jacobi_endomorphism(GeodesicData(ConstantCurvature(4, 1.0), 3.13))
    hyperbolic = jacobi_endomorphism(GeodesicData(ConstantCurvature(4, -56600.0), 1.0))
    with pytest.raises(IntegrationError, match="float64"):
        gy_ratio(jacobi_endomorphism(GeodesicData(ConstantCurvature(4, 1.0), 3.12)), hyperbolic)
    degenerate = JacobiSystem.constant(np.diag([-(PI**2), 57000.0, 57000.0, 57000.0]), 1.0)
    with pytest.raises(IntegrationError, match="float64"):
        gy_degenerate_ratio(degenerate, near_conjugate)


def test_free_scaling_overflow_is_domain_error():
    # (2t)^n = (2e70)^5 overflows; zeta_det_jacobi raised a bare OverflowError
    with pytest.raises(DomainError, match=r"\(2t\)\^n .* overflows float64"):
        zeta_det_jacobi(JacobiSystem(5, 1e70, np.zeros((5, 5))))


def test_det_j_below_float64_is_carried_as_a_log():
    # det J(s) = s^5 <= 1e-350 is 0.0 in float64 on the whole grid, although
    # J(s) = s I has no kernel; its log is finite, so the ratio is 1 (this
    # raised IntegrationError), while (2t)^5 = 3.2e-349 is no float64
    free = JacobiSystem(5, 1e-70, np.zeros((5, 5)))
    assert gy_ratio(free, free) == 1.0
    with pytest.raises(DomainError, match=r"\(2t\)\^n .* underflows float64"):
        zeta_det_jacobi(free)


# ---------------------------------------------------------------------------
# determinant ratios


def test_gy_ratio_of_identical_systems_is_one():
    sys = scalar_system(0.7)
    assert gy_ratio(sys, sys) == pytest.approx(1.0, abs=1e-14)


def test_gy_ratio_constant_shift_two_components():
    oracle = truncated_product_oracle(1.0) ** 2  # sinh(1)^2
    ratio = gy_ratio(free_system(2), JacobiSystem.constant(np.eye(2), 1.0))
    assert ratio == pytest.approx(1.3810978455418157, abs=1e-9)
    assert ratio == pytest.approx(oracle, abs=1e-8)


def test_gy_ratio_sphere_jacobian():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 1.0), PI / 2))
    ratio = gy_ratio(free_system(3), sys)
    assert ratio == pytest.approx((2.0 / PI) ** 2, abs=1e-10)


def test_gy_ratio_shape_mismatch():
    with pytest.raises(DomainError):
        gy_ratio(free_system(2), free_system(3))


@pytest.mark.parametrize(
    "route", [gy_ratio, gy_degenerate_ratio], ids=["gy_ratio", "gy_degenerate_ratio"]
)
def test_operators_share_the_interval_to_relative_precision(route):
    # the interval test was absolute (1e-14): t = 1e-20 against 3e-20 passed
    # and gy_ratio returned 3.0, and it rejected 1e20 against 1e20 (1 + 2e-15)
    with pytest.raises(DomainError, match="share fiber dimension and interval"):
        route(free_system(1, 1e-20), free_system(1, 3e-20))
    ratio = route(free_system(2, 1e20), free_system(2, 1e20 * (1.0 + 2e-15)), 64)
    assert ratio == pytest.approx(1.0, abs=1e-14)


def test_gy_ratio_rejects_degenerate_operator():
    # the antipodal S^3 system has det J(1) ~ 1e-27, positive only by rounding
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 1.0), PI))
    with pytest.raises(DegenerateOperatorError, match="det-zeta"):
        gy_ratio(free_system(3), sys)
    with pytest.raises(DegenerateOperatorError, match="P1"):
        gy_ratio(sys, free_system(3))
    # the zero-mode route still accepts it
    assert zeta_det_jacobi(sys).route == "deflated"
    # det J(1) = -5e-10 lies inside the kernel threshold: the kernel, not
    # the sign of det J(t), decides the route
    near = scalar_system(-(PI**2) * (1 + 1e-9))
    with pytest.raises(DegenerateOperatorError):
        gy_ratio(free_system(1), near)
    assert zeta_det_jacobi(near).route == "deflated"


def test_gy_ratio_accepts_near_conjugate_operator():
    # S^4 just before the conjugate point: det J(1) = (sin r / r)^3 ~ 3.3e-7
    # is below 1e-6 t^n, but J(1) has no kernel (singular values 1, 0.0069)
    r = 3.12
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(4, 1.0), r))
    ratio = gy_ratio(free_system(4), sys)
    assert ratio == pytest.approx((math.sin(r) / r) ** 3, rel=1e-9, abs=0.0)
    # the zeta route sees no zero mode either
    z = zeta_det_jacobi(sys)
    assert z.route == "gy_ratio"
    assert z.excluded_zero_modes == 0


def test_gy_degenerate_ratio_rejects_degenerate_reference():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 1.0), PI))
    with pytest.raises(DegenerateOperatorError, match="reference"):
        gy_degenerate_ratio(sys, sys)


def test_gy_ratio_rejects_nonpositive_operator():
    # V = -(1.5 pi)^2 has det J vanishing at s = 2/3
    with pytest.raises(NonpositiveOperatorError):
        gy_ratio(free_system(1), scalar_system(-((1.5 * PI) ** 2)))
    # one eigenvalue just below zero: det J(1) = -1e-7 is small, but J(1) has
    # no kernel (singular values 1e-4, 1e-3), so no route may deflate it
    sys = JacobiSystem.constant(np.diag([-(PI**2) * (1 + 2e-4), -(PI**2) * (1 - 2e-3)]), 1.0)
    with pytest.raises(NonpositiveOperatorError):
        gy_ratio(free_system(2), sys)
    with pytest.raises(NonpositiveOperatorError):
        zeta_det_jacobi(sys)
    with pytest.raises(NonpositiveOperatorError):
        gy_degenerate_ratio(sys, free_system(2))


@pytest.mark.parametrize(
    "diag", [[-4 * PI**2], [-4 * PI**2, 0.0], [-(PI**2), -4 * PI**2]], ids=["1d", "2d-flat", "2d"]
)
def test_deflated_route_rejects_indefinite_operator(diag):
    # det J changes sign at s = 1/2, before the zero mode at t = 1: the
    # operator is indefinite, and |det A| would report a positive value
    sys = JacobiSystem.constant(np.diag(diag), 1.0)
    with pytest.raises(NonpositiveOperatorError):
        zeta_det_jacobi(sys)
    with pytest.raises(NonpositiveOperatorError):
        gy_degenerate_ratio(sys, free_system(sys.n))


# ---------------------------------------------------------------------------
# degenerate ratios


def test_degenerate_scalar_value():
    ratio = gy_degenerate_ratio(scalar_system(-(PI**2)), free_system(1))
    assert ratio == pytest.approx(1.0 / (2.0 * PI**2), abs=1e-8)
    assert ratio == pytest.approx(0.0506606, abs=1e-7)


def test_degenerate_block_diagonal_factorization():
    # oracle: blocks multiply and the regular block contributes its own
    # nondegenerate factor (here 1 for the zero potential)
    mixed = JacobiSystem.constant(np.diag([0.0, -(PI**2)]), 1.0)
    ratio = gy_degenerate_ratio(mixed, free_system(2))
    scalar = gy_degenerate_ratio(scalar_system(-(PI**2)), free_system(1))
    assert ratio == pytest.approx(scalar, rel=1e-10)
    assert ratio == pytest.approx(1.0 / (2.0 * PI**2), abs=1e-8)


def test_degenerate_antipodal_direction_bookkeeping():
    # per orthogonal direction of the antipodal sphere the ratio is 1/(2 pi^2);
    # multiplying back the excluded Dirichlet eigenvalue pi^2 gives the
    # deflated Fredholm factor 1/2
    ratio = gy_degenerate_ratio(scalar_system(-(PI**2)), free_system(1))
    assert ratio * PI**2 == pytest.approx(0.5, abs=1e-8)
    sysA = jacobi_endomorphism(GeodesicData(ConstantCurvature(2, 1.0), PI))
    deflated = fredholm_det_deflated(sysA, schedule=(64, 128)).extrapolated
    assert deflated == pytest.approx(ratio * PI**2, abs=1e-4)


def test_degenerate_route_rejects_regular_operator():
    # without zero modes the degenerate ratio is the ordinary one, bit for bit
    for sys, ref in (
        (scalar_system(1.0), free_system(1)),
        (catalog_like_system(3, t=1.0), free_system(3)),
        (jacobi_endomorphism(GeodesicData(ConstantCurvature(4, 1.0), 3.12)), free_system(4)),
    ):
        assert gy_degenerate_ratio(sys, ref) == gy_ratio(ref, sys)


def test_degenerate_full_matrix_matches_displayed_formula():
    # with every direction degenerate the boundary matrix reduces to
    # det(int J^T J)/|det J'(t)|
    sys = JacobiSystem.constant(np.diag([-(PI**2), -(PI**2)]), 1.0)
    ratio = gy_degenerate_ratio(sys, free_system(2))
    assert ratio == pytest.approx((1.0 / (2.0 * PI**2)) ** 2, rel=1e-8)


def zero_mode_potential(a):
    """Scalar V on [0, 1] whose zero mode is y = sin(pi s) exp(a (1 - cos 2 pi s))."""
    return lambda s: (
        -(PI**2)
        + 8.0 * PI**2 * a * math.cos(PI * s) ** 2
        + 4.0 * PI**2 * a * math.cos(2.0 * PI * s)
        + (2.0 * PI * a * math.sin(2.0 * PI * s)) ** 2
    )


def positive_block(s):
    return np.array([[2.0 + math.sin(2.0 * PI * s), 0.3 * s], [0.3 * s, 1.0 + 0.5 * math.cos(3.0 * s)]])


def rotated_zero_mode_system(a):
    """diag(zero_mode_potential(a), positive_block) on [0, 1] under a constant rotation of R^3."""
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    v = zero_mode_potential(a)

    def pot(s):
        D = np.zeros((3, 3))
        D[0, 0], D[1:, 1:] = v(s), positive_block(s)
        M = Q @ D @ Q.T
        return 0.5 * (M + M.T)

    return JacobiSystem(3, 1.0, pot)


def simpson_weights(num_points, h):
    """Reference: composite Simpson weights of a whole grid; an odd interval count closes with the 3/8 rule."""
    m = num_points - 1
    e = m - 3 * (m % 2)  # end of the Simpson part; the 3/8 rule takes the rest
    w = np.zeros(num_points)
    w[: e + 1] = 1.0
    w[1:e:2] = 4.0
    w[2:e:2] = 2.0
    w = w * h / 3.0
    if e < m:
        w[e:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


@pytest.mark.parametrize(
    "make, steps",
    [(lambda n=n, kind=kind: random_system(n, kind, 7 * n), steps)
     for n in range(1, 9) for kind in ("constant", "callable") for steps in (16, 17, 2048, 4097)]
    + [(lambda: scalar_system(1.0), 20000), (lambda: scalar_system(1.0), 20001)],
)
def test_running_gram_matches_the_grid_sum(make, steps):
    # the Gram reader weights each group's states by their grid rows; it
    # matches the Simpson sum over the whole grid to 1e-13, with the 3/8
    # close (odd counts) in the last group or split across the last two
    # (n = 8 at 4097 steps: one-block groups, the last of 2 rows), and bit
    # for bit in a run of one group, which sums in the grid's order
    sys = make()
    n = sys.n
    gram = gelfand_yaglom._SimpsonGram(sys.t, steps)
    gelfand_yaglom.JacobiPropagation(sys, steps, None, gram)
    J = grid_run(sys, steps)[:, :n]
    ref = np.einsum("s,sji,sjk->ik", simpson_weights(steps + 1, sys.t / steps), J, J)
    assert np.max(np.abs(gram.gram - ref)) <= 1e-13 * np.max(np.abs(ref))
    _, blocks, group = gelfand_yaglom._blocking(sys, steps)
    if blocks <= group:
        assert np.array_equal(gram.gram, ref)
    if steps >= 20000:
        assert -(-blocks // group) == 3


def k_based_deflated_det(sys, steps, kdim):
    """|det A|, A = [J(t) C_perp, -K(t) G C], from a stage-loop run of the 2n x 2n identity."""
    n = sys.n
    eye = np.eye(2 * n)
    Y, _ = stage_loop_rk4(np.asarray(_sample_potential(sys, steps)), sys.t / steps, eye[:n], eye[n:])
    K, J = Y[:, :, :n], Y[:, :, n:]
    Rt = np.linalg.svd(J[-1])[2]
    w = simpson_weights(steps + 1, sys.t / steps)
    G = np.einsum("s,sji,sjk->ik", w, J, J)
    A = np.hstack((J[-1] @ Rt[: n - kdim].T, -K[-1] @ G @ Rt[n - kdim :].T))
    return abs(float(np.linalg.det(A)))


@pytest.mark.parametrize("a", [-0.3, 0.2, 0.35])
def test_deflated_route_on_varying_potential(a):
    # int y^2/(y'(0) |y'(1)|) with y'(0) = pi, y'(1) = -pi: zeta_det_jacobi is
    # e^{2a} (I_0(2a) + I_1(2a))/pi^2, within 8.4e-12 and its estimate
    import mpmath as mp

    exact = float(mp.e ** (2 * a) * (mp.besseli(0, 2 * a) + mp.besseli(1, 2 * a)) / mp.pi**2)
    z = zeta_det_jacobi(JacobiSystem(1, 1.0, zero_mode_potential(a)), 2048)
    assert (z.route, z.excluded_zero_modes) == ("deflated", 1)
    assert z.value == pytest.approx(exact, rel=2e-11)
    assert abs(z.value - exact) < 2.0 * z.error_estimate
    # rotated beside a varying positive block, the kernel lies off every
    # axis, and the value factors into the scalar and block values
    z3 = zeta_det_jacobi(rotated_zero_mode_system(a), 2048)
    block = zeta_det_jacobi(JacobiSystem(2, 1.0, positive_block), 2048)
    assert (z3.route, z3.excluded_zero_modes) == ("deflated", 1)
    assert z3.value == pytest.approx(z.value * block.value, rel=1e-13)


@pytest.mark.parametrize(
    "make, kdim",
    [
        (lambda: propagation_systems(1)["antipodal"], 1),
        (lambda: propagation_systems(3)["antipodal"], 2),
        (lambda: JacobiSystem(1, 1.0, zero_mode_potential(0.35)), 1),
        (lambda: rotated_zero_mode_system(-0.3), 1),
    ],
    ids=["constant-1", "constant-3", "varying-1", "varying-3"],
)
def test_deflated_det_matches_second_solution_formula(make, kdim):
    # |det A| read off J'(t) on the kernel equals the same matrix built from
    # the propagated second solution K(t)
    sys = make()
    gram = gelfand_yaglom._SimpsonGram(sys.t, 2048)
    run = gelfand_yaglom.JacobiPropagation(sys, 2048, None, gram)
    endpoint = gelfand_yaglom._read_endpoint(run.end, sys.t)
    assert endpoint[1] == kdim
    log_abs = gelfand_yaglom._gy_det(run.end, endpoint, gram.gram)[1]
    assert math.exp(log_abs) == pytest.approx(k_based_deflated_det(sys, 2048, kdim), rel=1e-10)


# ---------------------------------------------------------------------------
# zeta determinants


def test_zeta_laplacian_values():
    assert zeta_det_dirichlet_laplacian(1.0, 3).value == 8.0
    assert zeta_det_dirichlet_laplacian(0.5, 1).value == 1.0
    with pytest.raises(DomainError):
        zeta_det_dirichlet_laplacian(0.0, 1)
    for t in (1e308, 1e200):  # (2t)^n beyond float64
        with pytest.raises(DomainError, match="overflows"):
            zeta_det_dirichlet_laplacian(t, 2)


@pytest.mark.parametrize("t, n", [(1e-70, 5), (1e-170, 2), (1e-155, 2)])
def test_zeta_laplacian_below_normal_float64_is_a_domain_error(t, n):
    # (2t)^n is 0.0 or subnormal; this returned it as the value
    with pytest.raises(DomainError, match=r"\(2t\)\^n .* underflows float64"):
        zeta_det_dirichlet_laplacian(t, n)


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_zeta_laplacian_with_n_beyond_float64_is_a_domain_error(t):
    # the CLI ended in a raw OverflowError traceback: int too large to convert to float
    message = "fiber dimension n must lie in float64, got int beyond float64"
    with pytest.raises(DomainError) as info:
        zeta_det_dirichlet_laplacian(t, 10**400)
    assert str(info.value) == message
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["det-zeta", "--laplacian", "--t", str(t), "--n", "1" + "0" * 400])
    assert code == 1
    report = json.loads(out.getvalue())
    assert (report["error"], report["message"]) == ("DomainError", message)


def test_zeta_laplacian_matches_the_float64_power_bit_for_bit():
    # the closed form is taken in Python floats, without numpy; it gives the
    # bits of numpy's float64 power on a seeded grid, and its range errors
    rng = np.random.default_rng(38)
    cells = list(zip(10.0 ** rng.uniform(-5.0, 5.0, 3000), (10.0 ** rng.uniform(0.0, 6.0, 3000)).astype(int)))
    cells += itertools.product((0.25, 0.5, 0.5000000000000001, 1.0, 3.0, 1e-300, 1e300),
                               (1, 2, 3, 2**53 + 1, 2**62, 2**63, 2**70))
    flows = []
    for t, n in cells:
        t, n = float(t), int(n)
        with np.errstate(over="ignore"):
            expected = float(np.float64(2.0 * t) ** n)
        if 2.2250738585072014e-308 <= expected < math.inf:
            assert zeta_det_dirichlet_laplacian(t, n).value == expected
            continue
        flows.append("overflows" if expected > 1.0 else "underflows")
        with pytest.raises(DomainError) as info:
            zeta_det_dirichlet_laplacian(t, n)
        assert str(info.value) == f"(2t)^n = (2 * {t:.4g})^{n} {flows[-1]} float64"
    assert 100 < flows.count("overflows") and 100 < flows.count("underflows") and len(flows) < 0.9 * len(cells)


def test_zeta_laplacian_against_zeta_function_oracle():
    # independent derivation: -zeta'_P(0) with zeta_P(z) = n (t/pi)^(2z) zeta(2z)
    import mpmath as mp

    for t, n in ((1.0, 3), (0.5, 1), (2.0, 2)):
        f = lambda z: n * (mp.mpf(t) / mp.pi) ** (2 * z) * mp.zeta(2 * z)
        det = float(mp.e ** (-mp.diff(f, 0)))
        assert zeta_det_dirichlet_laplacian(t, n).value == pytest.approx(det, rel=1e-12)


def test_zeta_power_rule():
    # zeta_{P^m}(z) = zeta_P(mz) implies det(P^m) = det(P)^m
    import mpmath as mp

    t, n, m = 1.0, 2, 2
    f = lambda z: n * (mp.mpf(t) / mp.pi) ** (2 * m * z) * mp.zeta(2 * m * z)
    det_power = float(mp.e ** (-mp.diff(f, 0)))
    base = zeta_det_dirichlet_laplacian(t, n).value
    assert det_power == pytest.approx(base**m, rel=1e-10)


def test_zeta_jacobi_free_case():
    z = zeta_det_jacobi(free_system(2))
    assert z.value == pytest.approx(4.0, abs=1e-12)
    assert z.route == "gy_ratio"
    assert z.excluded_zero_modes == 0


def test_zeta_jacobi_sphere():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(3, 1.0), PI / 2))
    z = zeta_det_jacobi(sys)
    assert z.value == pytest.approx(8.0 * (2.0 / PI) ** 2, rel=1e-10)


def test_zeta_jacobi_constant_shift():
    # oracle: det = det_zeta(P) * Fredholm product = 2 sinh(1)
    z = zeta_det_jacobi(scalar_system(1.0))
    assert z.value == pytest.approx(2.0 * SINH1, rel=1e-10)
    assert z.value == pytest.approx(2.0 * truncated_product_oracle(1.0), rel=1e-8)


def test_zeta_jacobi_degenerate_route():
    sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(2, 1.0), PI))
    z = zeta_det_jacobi(sys)
    assert z.route == "deflated"
    assert z.excluded_zero_modes == 1
    # det_zeta(tangent) * det'_zeta(orthogonal) = 2 * 1/pi^2
    assert z.value == pytest.approx(2.0 / PI**2, rel=1e-8)


def test_zeta_jacobi_interval_scaling():
    # on [0, t] the free value is (2t)^n through the same transfer
    z = zeta_det_jacobi(free_system(2, t=1.7))
    assert z.value == pytest.approx((2.0 * 1.7) ** 2, rel=1e-12)


def test_identity_chain_full():
    # Fredholm = ODE ratio = closed form = 2^-n zeta, within 1e-5
    from geodet import exp_jacobian_closed_form, fredholm_det

    for kappa, r, n in ((1.0, 1.0, 2), (-1.0, 1.0, 3), (0.3, 0.5, 2), (-0.3, 0.1, 3)):
        sys = jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), r))
        galerkin_val = fredholm_det(sys, (64, 128, 256, 512)).extrapolated
        ode_val = gy_ratio(free_system(n), sys)
        closed = exp_jacobian_closed_form(ConstantCurvature(n, kappa), r)
        zeta_val = 2.0**-n * zeta_det_jacobi(sys).value
        for other in (ode_val, closed, zeta_val):
            assert abs(galerkin_val - other) < 1e-5


def _one_run(steps):
    return gelfand_yaglom.JacobiPropagation(JacobiSystem.constant([[1.0]], 1.0), steps)


# the step counts ended in ValueError from isqrt or in TypeError
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: zeta_det_dirichlet_laplacian(1.0, 0), "fiber dimension must be >= 1, got 0"),
        (lambda: _one_run(0), "need at least one step, got 0"),
        (lambda: _one_run(-3), "need at least one step, got -3"),
        (lambda: _one_run(1.5), "1.5 is not an integer count: need at least one step, got 1.5"),
        (lambda: _one_run("8"), "'8' is not an integer count: need at least one step, got 8"),
    ],
    ids=["free-determinant-n0", "run-steps-0", "run-steps-negative", "run-steps-float", "run-steps-string"],
)
def test_input_guards_are_named_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message
