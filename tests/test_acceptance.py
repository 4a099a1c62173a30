"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts.  Criterion 10 checks the evaluation-map Jacobian against its
derived mesh scaling: ``log ev = c2 h^2 + O(h^3)`` with
``c2 = -(n-1) kappa^2 r^4 / 144`` and ``h = 1/N`` (derived in the README,
"Evaluation-map scaling"), so the fitted slope tends to 2 and the Richardson value
of ``N^2 (ev - 1)`` reproduces ``c2``.
"""

import json
import time

import numpy as np
import pytest

import geodet
from geodet import (
    ConstantCurvature,
    GeodesicData,
    JacobiSystem,
    Partition,
    jacobi_endomorphism,
)


PI = np.pi


def _line(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


def sphere_system(kappa, r, n):
    return jacobi_endomorphism(GeodesicData(ConstantCurvature(n, kappa), r))


def free_system(n):
    return JacobiSystem.constant(np.zeros((n, n)), 1.0)


def test_c01_constant_curvature_fredholm():
    start = time.perf_counter()
    est = geodet.fredholm_det(sphere_system(1.0, PI / 2, 3), (64, 128, 256, 512))
    elapsed = time.perf_counter() - start
    target = (2.0 / PI) ** 2
    err = abs(est.extrapolated - target)
    _line(
        "c01 sphere Fredholm determinant",
        err <= 1e-6 and elapsed < 10.0,
        f"|det - (2/pi)^2| = {err:.2e}, runtime {elapsed:.2f}s",
    )


def test_c02_hyperbolic_fredholm():
    est = geodet.fredholm_det(sphere_system(-1.0, 1.0, 2), (64, 128, 256, 512))
    err = abs(est.extrapolated - np.sinh(1.0))
    _line("c02 hyperbolic Fredholm determinant", err <= 1e-6, f"|det - sinh(1)| = {err:.2e}")


def test_c03_gelfand_yaglom_identity_grid():
    start = time.perf_counter()
    worst = 0.0
    for kappa in (-1.0, -0.3, 0.3, 1.0):
        for r in (0.1, 0.5, 1.0):
            for n in (2, 3):
                sys = sphere_system(kappa, r, n)
                galerkin = geodet.fredholm_det(sys, (64, 128, 256, 512)).extrapolated
                ode = geodet.gy_ratio(free_system(n), sys, steps=1024)
                worst = max(worst, abs(galerkin - ode))
    elapsed = time.perf_counter() - start
    _line(
        "c03 ODE ratio equals Galerkin on the grid",
        worst <= 1e-5 and elapsed < 30.0,
        f"worst |diff| = {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_c04_zeta_closed_form_and_transfer_chain():
    closed_ok = geodet.zeta_det_dirichlet_laplacian(1.0, 3).value == 8.0
    worst = 0.0
    for kappa in (-1.0, -0.3, 0.3, 1.0):
        for r in (0.1, 0.5, 1.0):
            for n in (2, 3):
                sys = sphere_system(kappa, r, n)
                fredholm = geodet.fredholm_det(sys, (64, 128, 256, 512)).extrapolated
                zeta = 2.0**-n * geodet.zeta_det_jacobi(sys, steps=1024).value
                worst = max(worst, abs(fredholm - zeta))
    _line(
        "c04 zeta closed form and transfer chain",
        closed_ok and worst <= 1e-5,
        f"(2t)^n exact: {closed_ok}, worst chain |diff| = {worst:.2e}",
    )


def test_c05_trace_identity_and_bernoulli():
    worst = 0.0
    for kappa in (-1.0, -0.3, 0.3, 1.0):
        for r in (0.1, 0.5, 1.0):
            for n in (2, 3):
                val = geodet.hessian_trace(sphere_system(kappa, r, n))
                worst = max(worst, abs(val - (-(n - 1) * kappa * r * r / 6.0)))
    bern = max(
        abs(geodet.bernoulli_cosine_sum(s, 10**6) - (s * s - s + 1.0 / 6.0))
        for s in (0.1, 0.3, 0.7)
    )
    _line(
        "c05 trace identity and Bernoulli series",
        worst <= 1e-8 and bern <= 1e-6,
        f"worst trace |diff| = {worst:.2e}, worst Bernoulli |diff| = {bern:.2e}",
    )


def test_c06_antipodal_deflated_determinant():
    ok = True
    details = []
    for n in (2, 3):
        res = geodet.fredholm_det_deflated(sphere_system(1.0, PI, n), schedule=(64, 128, 256))
        err = abs(res.extrapolated - 2.0 ** (1 - n))
        ok = ok and err <= 1e-4 and res.kernel_dimension == n - 1
        details.append(f"n={n}: |det - 2^(1-n)| = {err:.2e}, kdim = {res.kernel_dimension}")
    _line("c06 antipodal deflated determinant", ok, "; ".join(details))


def test_c07_degenerate_gelfand_yaglom():
    K = 10**6
    k = np.arange(2, K + 1, dtype=float)
    oracle = float(np.exp(np.sum(np.log1p(-1.0 / k**2)) + np.log(K / (K + 1.0)))) / PI**2
    ratio = geodet.gy_degenerate_ratio(
        JacobiSystem.constant([[-(PI**2)]], 1.0), JacobiSystem.constant([[0.0]], 1.0)
    )
    err = abs(ratio - oracle)
    _line("c07 degenerate ODE ratio", err <= 1e-8, f"|ratio - oracle| = {err:.2e}")


def test_c08_degenerate_heat_coefficient():
    worst = 0.0
    for n in (2, 3, 4):
        for R in (0.5, 1.0, 2.0):
            a = geodet.antipodal_limit_via_Sxy(n, R)
            b = geodet.antipodal_sphere_limit_closed_form(n, R)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _line("c08 antipodal velocity-sphere route", worst <= 1e-8, f"worst rel diff = {worst:.2e}")


def test_c09_heat_kernel_oracle_confirmation():
    start = time.perf_counter()
    rep2 = geodet.heat_limit_validation(2, 1.0, "antipodal", t0=0.2, levels=5)
    rep3 = geodet.heat_limit_validation(3, 1.0, "nondegenerate", d=PI / 2, t0=0.2, levels=5)
    elapsed = time.perf_counter() - start
    _line(
        "c09 heat kernel oracle confirmation",
        rep2.rel_deviation <= 0.01 and rep3.rel_deviation <= 0.005 and elapsed < 60.0,
        f"S2 antipodal dev = {rep2.rel_deviation:.2e} (tol 1e-2), "
        f"S3 d=pi/2 dev = {rep3.rel_deviation:.2e} (tol 5e-3), runtime {elapsed:.1f}s",
    )


def test_c10_evaluation_map_flat_exact():
    g = GeodesicData(ConstantCurvature(2, 0.0), 1.0)
    worst = max(
        abs(geodet.evaluation_map_jacobian(g, Partition.uniform(N)) - 1.0)
        for N in (4, 8, 16, 32, 64)
    )
    _line("c10a evaluation map flat case", worst <= 1e-12, f"worst |val - 1| = {worst:.1e}")


def test_c10_evaluation_map_scaling_slope():
    # The Jacobi shapes' segment stiffness exceeds the hat stiffness by
    # v^2 delta^3 / 24 per block row (v = -kappa r^2; the first-order terms
    # cancel); traced against the hat Green's function s(1-s) this gives
    # log ev = c2 h^2 + O(h^3).  The h^3 term still bends coarse fits, so
    # the slope is fitted from N = 16 on.
    Ns = (16, 32, 64, 128, 256)
    ok = True
    details = []
    for kappa, r, n in ((1.0, PI / 2, 2), (-1.0, 1.0, 3), (0.5, 1.5, 4)):
        g = GeodesicData(ConstantCurvature(n, kappa), r)
        devs = {N: geodet.evaluation_map_jacobian(g, Partition.uniform(N)) - 1.0 for N in Ns}
        slope = float(
            np.polyfit(np.log([1.0 / N for N in Ns]), np.log([abs(devs[N]) for N in Ns]), 1)[0]
        )
        richardson = 2.0 * 128**2 * devs[128] - 64**2 * devs[64]
        c2 = -(n - 1) * kappa**2 * r**4 / 144.0
        rel = abs(richardson - c2) / abs(c2)
        ok = ok and abs(slope - 2.0) <= 0.05 and rel <= 1e-3
        details.append(
            f"kappa={kappa} n={n}: slope = {slope:.3f}, N^2(ev-1) -> {richardson:.6f} "
            f"vs c2 = {c2:.6f} (rel {rel:.1e})"
        )
    _line("c10b evaluation map mesh^2 rate", ok, "; ".join(details))


def test_c11_filtration_independence():
    ok = True
    details = []
    for kappa, r, n in ((1.0, PI / 2, 3), (-1.0, 1.0, 2), (0.3, 1.0, 2)):
        sys = sphere_system(kappa, r, n)
        fourier = geodet.fredholm_det(sys, (64, 128, 256, 512)).extrapolated
        gaps = []
        for N in (32, 64, 128, 256):
            est = geodet.fredholm_det_piecewise(sys, (N,))
            gaps.append(abs(est.levels[-1][1] * est.tail_correction - fourier))
        monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and gaps[-1] <= 1e-3 and monotone
        details.append(f"kappa={kappa}: gap(256) = {gaps[-1]:.2e}, monotone = {monotone}")
    _line("c11 filtration independence", ok, "; ".join(details))


def test_c12_property_suite():
    # Wronskian conservation
    pot = lambda s: np.array([[np.sin(2 * s), 0.4 * s], [0.4 * s, 1.0 - s]])
    drift = geodet.solve_jacobi_ode(JacobiSystem(2, 1.0, pot), 512).wronskian_drift()

    # RK4 order-4 halving factor
    sys = JacobiSystem(1, 1.0, lambda s: np.array([[5.0 + 4.0 * np.sin(2 * PI * s)]]))
    ref = geodet.solve_jacobi_ode(sys, 16384).J[-1][0, 0]
    factor = abs(geodet.solve_jacobi_ode(sys, 512).J[-1][0, 0] - ref) / abs(
        geodet.solve_jacobi_ode(sys, 1024).J[-1][0, 0] - ref
    )

    # Chapman-Kolmogorov on the circle
    spec = geodet.SphereSpectrum.for_time_range(1, 1.0, 0.15)
    t, s, theta = 0.2, 0.15, 0.9
    M = 512
    phis = np.linspace(0.0, 2 * PI, M, endpoint=False)
    conv = (
        sum(
            geodet.sphere_heat_kernel(spec, theta - phi, t)
            * geodet.sphere_heat_kernel(spec, phi, s)
            for phi in phis
        )
        * 2
        * PI
        / M
    )
    chapman_err = abs(conv - geodet.sphere_heat_kernel(spec, theta, t + s))

    # telescoping partial products
    tele_ok = True
    for K in (10, 100, 1000):
        kk = np.arange(2, K + 1, dtype=float)
        partial = float(np.exp(np.sum(np.log1p(-1.0 / kk**2))))
        tele_ok = tele_ok and abs(partial - 0.5) <= 1.0 / K

    # determinism: byte-identical reports
    from geodet.cli import build_report

    params = {"command": "det-fredholm", "kappa": 1.0, "r": 1.0, "n": 2, "modes": [32, 64]}
    bytes_equal = json.dumps(build_report(dict(params)), sort_keys=True) == json.dumps(
        build_report(dict(params)), sort_keys=True
    )

    ok = (
        drift < 1e-9
        and 12.0 <= factor <= 20.0
        and chapman_err < 1e-8
        and tele_ok
        and bytes_equal
    )
    _line(
        "c12 property suite",
        ok,
        f"wronskian drift = {drift:.1e}, RK4 factor = {factor:.1f}, "
        f"chapman |diff| = {chapman_err:.1e}, telescoping ok = {tele_ok}, "
        f"deterministic = {bytes_equal}",
    )
