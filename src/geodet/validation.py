"""Bundled validation suite exercising the identity chain end to end.

Each record compares a computed value against its expected value at a
pinned tolerance; a record passes iff |expected - computed| is at most
tolerance * max(1, |expected|).  Window checks (a fitted mesh-scaling
slope, a step-halving factor) use the same inequality with the window
center as the expected value and the tolerance spanning the window.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from . import galerkin, gelfand_yaglom as gy, geometry, heat

__all__ = ["ValidationRecord", "run_validation"]

IDENTITY_GRID_KAPPAS = (-1.0, -0.3, 0.3, 1.0)
IDENTITY_GRID_SPEEDS = (0.1, 0.5, 1.0)
IDENTITY_GRID_DIMS = (2, 3)
MODE_SCHEDULE = (64, 128, 256, 512)


@dataclass
class ValidationRecord:
    check_name: str
    expected: float
    computed: float
    tolerance: float
    passed: bool
    runtime_ms: float


def _passes(expected: float, computed: float, tol: float) -> bool:
    return bool(abs(expected - computed) <= tol * max(1.0, abs(expected)))


def _fmt(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else str(x)


def _sphere_system(kappa: float, r: float, n: int):
    return geometry.jacobi_endomorphism(
        geometry.GeodesicData(geometry.ConstantCurvature(n, kappa), r)
    )


def _free_system(n: int):
    return geometry.JacobiSystem.constant(np.zeros((n, n)), 1.0)


def _checks():
    """Yield (name, callable) pairs; each callable returns (expected, computed, tol)."""

    # --- constant-curvature Fredholm determinants (criteria 1, 2)
    def sphere_fredholm():
        est = galerkin.fredholm_det(_sphere_system(1.0, np.pi / 2, 3), MODE_SCHEDULE)
        return (2.0 / np.pi) ** 2, est.extrapolated, 1e-6

    yield "fredholm-sphere-kappa1-rhalfpi-n3", sphere_fredholm

    def hyperbolic_fredholm():
        est = galerkin.fredholm_det(_sphere_system(-1.0, 1.0, 2), MODE_SCHEDULE)
        return np.sinh(1.0), est.extrapolated, 1e-6

    yield "fredholm-hyperbolic-kappa-1-r1-n2", hyperbolic_fredholm

    # --- identity chain: Galerkin = ODE ratio = closed form (criterion 3)
    #     and the zeta transfer 2^-n det_zeta = Fredholm (criterion 4)
    def make_chain(kappa, r, n):
        def chain():
            est = galerkin.fredholm_det(_sphere_system(kappa, r, n), MODE_SCHEDULE)
            ratio = gy.gy_ratio(_free_system(n), _sphere_system(kappa, r, n), steps=1024)
            return est.extrapolated, ratio, 1e-5

        return chain

    def make_zeta_chain(kappa, r, n):
        def chain():
            est = galerkin.fredholm_det(_sphere_system(kappa, r, n), MODE_SCHEDULE)
            z = gy.zeta_det_jacobi(_sphere_system(kappa, r, n), steps=1024)
            return est.extrapolated, 2.0**-n * z.value, 1e-5

        return chain

    for kappa in IDENTITY_GRID_KAPPAS:
        for r in IDENTITY_GRID_SPEEDS:
            for n in IDENTITY_GRID_DIMS:
                tag = f"kappa{_fmt(kappa)}-r{r:.1f}-n{n}"
                yield f"identity-chain-{tag}", make_chain(kappa, r, n)
                yield f"zeta-chain-{tag}", make_zeta_chain(kappa, r, n)

    def zeta_closed():
        return 8.0, gy.zeta_det_dirichlet_laplacian(1.0, 3).value, 0.0

    yield "zeta-laplacian-closed-form", zeta_closed

    # --- trace identity and Bernoulli series (criterion 5)
    def make_trace(kappa, r, n):
        def check():
            expected = -(n - 1) * kappa * r * r / 6.0
            return expected, galerkin.hessian_trace(_sphere_system(kappa, r, n)), 1e-8

        return check

    for kappa in IDENTITY_GRID_KAPPAS:
        for r in IDENTITY_GRID_SPEEDS:
            for n in IDENTITY_GRID_DIMS:
                yield f"trace-identity-kappa{_fmt(kappa)}-r{r:.1f}-n{n}", make_trace(kappa, r, n)

    def make_bernoulli(s):
        def check():
            expected = s * s - s + 1.0 / 6.0
            return expected, galerkin.bernoulli_cosine_sum(s, 10**6), 1e-6

        return check

    for s in (0.1, 0.3, 0.7):
        yield f"bernoulli-series-s{s}", make_bernoulli(s)

    # --- degenerate antipodal sphere (criterion 6)
    def make_deflated(n):
        def check():
            res = galerkin.fredholm_det_deflated(
                _sphere_system(1.0, np.pi, n), schedule=(64, 128, 256)
            )
            return 2.0 ** (1 - n), res.extrapolated, 1e-4

        return check

    def make_kernel_dim(n):
        def check():
            res = galerkin.fredholm_det_deflated(
                _sphere_system(1.0, np.pi, n), schedule=(64, 128, 256)
            )
            return float(n - 1), float(res.kernel_dimension), 0.0

        return check

    for n in (2, 3):
        yield f"antipodal-deflated-S{n}", make_deflated(n)
        yield f"antipodal-kernel-dim-S{n}", make_kernel_dim(n)

    # --- degenerate ODE route (criterion 7), against the truncated
    #     eigenvalue-product oracle with its telescoped tail
    def degenerate_scalar():
        K = 10**6
        k = np.arange(2, K + 1, dtype=float)
        log_partial = float(np.sum(np.log1p(-1.0 / k**2)))
        log_tail = float(np.log(K / (K + 1.0)))  # prod_{k>K} (1 - 1/k^2)
        oracle = np.exp(log_partial + log_tail) / np.pi**2
        computed = gy.gy_degenerate_ratio(
            geometry.JacobiSystem.constant([[-np.pi**2]], 1.0),
            geometry.JacobiSystem.constant([[0.0]], 1.0),
        )
        return oracle, computed, 1e-8

    yield "degenerate-gy-scalar", degenerate_scalar

    # --- antipodal coefficient via the velocity sphere (criterion 8)
    def make_sxy(n, R):
        def check():
            expected = heat.antipodal_sphere_limit_closed_form(n, R)
            return expected, heat.antipodal_limit_via_Sxy(n, R), 1e-8

        return check

    for n in (2, 3, 4):
        for R in (0.5, 1.0, 2.0):
            yield f"sxy-antipodal-n{n}-R{_fmt(R)}", make_sxy(n, R)

    # --- heat kernel oracle confirmation (criterion 9)
    def antipodal_s2():
        report = heat.heat_limit_validation(2, 1.0, "antipodal")
        return 2.0 * np.pi**2, report.extrapolated_oracle, 0.01

    yield "antipodal-S2-coefficient", antipodal_s2

    def nondegenerate_s3():
        report = heat.heat_limit_validation(3, 1.0, "nondegenerate", d=np.pi / 2)
        return np.pi / 2.0, report.extrapolated_oracle, 0.005

    yield "nondegenerate-S3-halfpi", nondegenerate_s3

    # --- evaluation-map Jacobian (criterion 10)
    def eval_flat():
        g = geometry.GeodesicData(geometry.ConstantCurvature(2, 0.0), 1.3)
        val = galerkin.evaluation_map_jacobian(g, galerkin.Partition.uniform(16))
        return 1.0, val, 1e-12

    yield "eval-jacobian-flat-exact", eval_flat

    # log ev = c2 h^2 + O(h^3), c2 = -(n-1) kappa^2 r^4 / 144, h = 1/N
    def eval_scaling(kappa, r, n):
        g = geometry.GeodesicData(geometry.ConstantCurvature(n, kappa), r)
        Ns = (16, 32, 64, 128, 256)
        devs = {
            N: galerkin.evaluation_map_jacobian(g, galerkin.Partition.uniform(N)) - 1.0
            for N in Ns
        }
        logs = np.log([abs(devs[N]) for N in Ns])
        slope = float(np.polyfit(np.log([1.0 / N for N in Ns]), logs, 1)[0])
        richardson = 2.0 * 128**2 * devs[128] - 64**2 * devs[64]
        return slope, richardson

    def make_eval_slope(kappa, r, n):
        def check():
            return 2.0, eval_scaling(kappa, r, n)[0], 0.025

        return check

    def make_eval_coefficient(kappa, r, n):
        def check():
            c2 = -(n - 1) * kappa**2 * r**4 / 144.0
            # |c2| < 1, so scale the tolerance to make it 1e-3 relative
            return c2, eval_scaling(kappa, r, n)[1], 1e-3 * abs(c2)

        return check

    for kappa, r, n in ((1.0, np.pi / 2, 2), (-1.0, 1.0, 3), (0.5, 1.5, 4)):
        tag = f"kappa{_fmt(kappa)}-n{n}"
        yield f"eval-jacobian-mesh2-slope-{tag}", make_eval_slope(kappa, r, n)
        yield f"eval-jacobian-mesh2-coefficient-{tag}", make_eval_coefficient(kappa, r, n)

    # --- filtration independence (criterion 11)
    def make_filtration(kappa, r, n):
        def check():
            sys = _sphere_system(kappa, r, n)
            fourier = galerkin.fredholm_det(sys, MODE_SCHEDULE).extrapolated
            piecewise = galerkin.fredholm_det_piecewise(sys, (128, 256))
            corrected = piecewise.levels[-1][1] * piecewise.tail_correction
            return fourier, corrected, 1e-3

        return check

    def make_filtration_monotone(kappa, r, n):
        def check():
            sys = _sphere_system(kappa, r, n)
            fourier = galerkin.fredholm_det(sys, MODE_SCHEDULE).extrapolated
            gaps = []
            for N in (32, 64, 128, 256):
                est = galerkin.fredholm_det_piecewise(sys, (N,))
                gaps.append(abs(est.levels[-1][1] * est.tail_correction - fourier))
            monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
            return 1.0, float(monotone), 0.0

        return check

    for kappa, r, n in ((1.0, np.pi / 2, 3), (-1.0, 1.0, 2), (0.3, 1.0, 2)):
        tag = f"kappa{_fmt(kappa)}-n{n}"
        yield f"filtration-agreement-{tag}", make_filtration(kappa, r, n)
        yield f"filtration-monotone-{tag}", make_filtration_monotone(kappa, r, n)

    # --- property suite (criterion 12)
    def wronskian():
        sys = geometry.JacobiSystem(
            2, 1.0, lambda s: np.array([[np.sin(2 * s), 0.4 * s], [0.4 * s, 1.0 - s]])
        )
        prop = gy.solve_jacobi_ode(sys, 512)
        return 0.0, prop.wronskian_drift(), 1e-9

    yield "wronskian-conservation", wronskian

    def rk4_order():
        sys = geometry.JacobiSystem(
            1, 1.0, lambda s: np.array([[5.0 + 4.0 * np.sin(2 * np.pi * s)]])
        )
        ref = gy.solve_jacobi_ode(sys, 16384).det_final()
        e1 = abs(gy.solve_jacobi_ode(sys, 512).det_final() - ref)
        e2 = abs(gy.solve_jacobi_ode(sys, 1024).det_final() - ref)
        factor = e1 / e2
        # window [12, 20] around the order-4 halving factor 16
        return 16.0, factor, 0.25

    yield "rk4-order4-step-halving", rk4_order

    def chapman():
        spec = heat.SphereSpectrum.for_time_range(1, 1.0, 0.15)
        t, s = 0.2, 0.15
        theta = 0.9
        M = 512
        phis = np.linspace(0.0, 2.0 * np.pi, M, endpoint=False)
        vals = np.array(
            [
                heat.sphere_heat_kernel(spec, theta - phi, t)
                * heat.sphere_heat_kernel(spec, phi, s)
                for phi in phis
            ]
        )
        integral = float(np.sum(vals) * (2.0 * np.pi / M))  # R = 1 arc measure
        return heat.sphere_heat_kernel(spec, theta, t + s), integral, 1e-8

    yield "chapman-kolmogorov-circle", chapman

    def telescoping():
        K = 1000
        k = np.arange(2, K + 1, dtype=float)
        partial = float(np.exp(np.sum(np.log1p(-1.0 / k**2))))
        return 0.5, partial, 1.0 / K

    yield "telescoping-partial-product", telescoping

    def determinism():
        from .cli import build_report

        config = {
            "command": "det-fredholm",
            "kappa": 1.0,
            "r": float(np.pi / 2),
            "n": 3,
            "modes": [64, 128],
        }
        a = json.dumps(build_report(dict(config)), sort_keys=True)
        b = json.dumps(build_report(dict(config)), sort_keys=True)
        return 1.0, float(a == b), 0.0

    yield "determinism-byte-stable-report", determinism


def run_validation(name_filter: str = None):
    """Run the validation records (optionally filtered by substring).

    Returns the records sorted by check name.
    """
    records = []
    for name, fn in _checks():
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        expected, computed, tol = fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        records.append(
            ValidationRecord(
                check_name=name,
                expected=float(expected),
                computed=float(computed),
                tolerance=float(tol),
                passed=_passes(expected, computed, tol),
                runtime_ms=elapsed,
            )
        )
    records.sort(key=lambda rec: rec.check_name)
    return records
