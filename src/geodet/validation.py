"""Bundled validation suite exercising the identity chain end to end.

Each record compares a computed value against its expected value at a
pinned tolerance; a record passes iff |expected - computed| is at most
tolerance * max(1, |expected|).  Window checks (a fitted mesh-scaling
slope, a step-halving factor) use the same inequality with the window
center as the expected value and the tolerance spanning the window.
The record tables hold Python floats, so numpy loads with the first
record that reads a route or imports it itself.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass
from functools import cache, partial

import geodet  # each record reaches its route through the package, on first use

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
    return geodet.jacobi_endomorphism(
        geodet.GeodesicData(geodet.ConstantCurvature(n, kappa), r)
    )


# --- quantities several records read; _checks memoizes each for one run


def _fourier_det(kappa, r, n):
    """The tail-completed Fourier determinant at MODE_SCHEDULE."""
    return geodet.fredholm_det(_sphere_system(kappa, r, n), MODE_SCHEDULE).extrapolated


def _deflated_det(n):
    return geodet.fredholm_det_deflated(_sphere_system(1.0, math.pi, n), schedule=(64, 128, 256))


def _eval_scaling(kappa, r, n):
    """(fitted slope, Richardson c2) of log ev = c2 h^2 + O(h^3), h = 1/N."""
    import numpy as np

    g = geodet.GeodesicData(geodet.ConstantCurvature(n, kappa), r)
    Ns = (16, 32, 64, 128, 256)
    devs = {
        N: geodet.evaluation_map_jacobian(g, geodet.Partition.uniform(N)) - 1.0 for N in Ns
    }
    logs = np.log([abs(devs[N]) for N in Ns])
    slope = float(np.polyfit(np.log([1.0 / N for N in Ns]), logs, 1)[0])
    richardson = 2.0 * 128**2 * devs[128] - 64**2 * devs[64]
    return slope, richardson


def _piecewise_det(kappa, r, n, N):
    """The one-level piecewise determinant on N segments, tail-corrected."""
    return geodet.fredholm_det_piecewise(_sphere_system(kappa, r, n), (N,)).extrapolated


# --- checks; each returns (expected, computed, tolerance)


def _fourier_closed_form(fourier, kappa, r, n, expected):
    return expected, fourier(kappa, r, n), 1e-6


def _identity_chain(fourier, kappa, r, n):
    free = geodet.JacobiSystem.constant([[0.0] * n] * n, 1.0)
    ratio = geodet.gy_ratio(free, _sphere_system(kappa, r, n), steps=1024)
    return fourier(kappa, r, n), ratio, 1e-5


def _zeta_chain(fourier, kappa, r, n):
    z = geodet.zeta_det_jacobi(_sphere_system(kappa, r, n), steps=1024)
    return fourier(kappa, r, n), 2.0**-n * z.value, 1e-5


def _zeta_closed_form():
    return 8.0, geodet.zeta_det_dirichlet_laplacian(1.0, 3).value, 0.0


def _trace_identity(kappa, r, n):
    expected = -(n - 1) * kappa * r * r / 6.0
    return expected, geodet.hessian_trace(_sphere_system(kappa, r, n)), 1e-8


def _bernoulli(s):
    return s * s - s + 1.0 / 6.0, geodet.bernoulli_cosine_sum(s, 10**6), 1e-6


def _antipodal_deflated(deflated, n):
    return 2.0 ** (1 - n), deflated(n).extrapolated, 1e-4


def _antipodal_kernel_dim(deflated, n):
    return float(n - 1), float(deflated(n).kernel_dimension), 0.0


def _degenerate_scalar():
    """The degenerate ODE route against the truncated eigenvalue-product
    oracle with its telescoped tail."""
    import numpy as np

    K = 10**6
    k = np.arange(2, K + 1, dtype=float)
    log_partial = float(np.sum(np.log1p(-1.0 / k**2)))
    log_tail = float(np.log(K / (K + 1.0)))  # prod_{k>K} (1 - 1/k^2)
    oracle = np.exp(log_partial + log_tail) / np.pi**2
    computed = geodet.gy_degenerate_ratio(
        geodet.JacobiSystem.constant([[-np.pi**2]], 1.0),
        geodet.JacobiSystem.constant([[0.0]], 1.0),
    )
    return oracle, computed, 1e-8


def _sxy(n, R):
    expected = geodet.antipodal_sphere_limit_closed_form(n, R)
    return expected, geodet.antipodal_limit_via_Sxy(n, R), 1e-8


def _heat_oracle(n, case, d, expected, tol):
    return expected, geodet.heat_limit_validation(n, 1.0, case, d=d).extrapolated_oracle, tol


def _eval_flat():
    g = geodet.GeodesicData(geodet.ConstantCurvature(2, 0.0), 1.3)
    return 1.0, geodet.evaluation_map_jacobian(g, geodet.Partition.uniform(16)), 1e-12


def _eval_slope(scaling, kappa, r, n):
    return 2.0, scaling(kappa, r, n)[0], 0.025


def _eval_coefficient(scaling, kappa, r, n):
    c2 = -(n - 1) * kappa**2 * r**4 / 144.0
    # |c2| < 1, so scale the tolerance to make it 1e-3 relative
    return c2, scaling(kappa, r, n)[1], 1e-3 * abs(c2)


def _filtration_agreement(fourier, piecewise, kappa, r, n):
    return fourier(kappa, r, n), piecewise(kappa, r, n, 256), 1e-3


def _filtration_monotone(fourier, piecewise, kappa, r, n):
    gaps = [abs(piecewise(kappa, r, n, N) - fourier(kappa, r, n)) for N in (32, 64, 128, 256)]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    return 1.0, float(monotone), 0.0


def _wronskian():
    import numpy as np

    sys = geodet.JacobiSystem(
        2, 1.0, lambda s: np.array([[np.sin(2 * s), 0.4 * s], [0.4 * s, 1.0 - s]])
    )
    return 0.0, geodet.solve_jacobi_ode(sys, 512).wronskian_drift(), 1e-9


def _rk4_order():
    import numpy as np

    sys = geodet.JacobiSystem(
        1, 1.0, lambda s: np.array([[5.0 + 4.0 * np.sin(2 * np.pi * s)]])
    )
    ref = geodet.solve_jacobi_ode(sys, 16384).det_final()
    e1 = abs(geodet.solve_jacobi_ode(sys, 512).det_final() - ref)
    e2 = abs(geodet.solve_jacobi_ode(sys, 1024).det_final() - ref)
    # window [12, 20] around the order-4 halving factor 16
    return 16.0, e1 / e2, 0.25


def _chapman():
    import numpy as np

    spec = geodet.SphereSpectrum.for_time_range(1, 1.0, 0.15)
    t, s = 0.2, 0.15
    theta = 0.9
    M = 512
    phis = np.linspace(0.0, 2.0 * np.pi, M, endpoint=False)
    kernel = geodet.sphere_heat_kernel
    vals = np.array([kernel(spec, theta - phi, t) * kernel(spec, phi, s) for phi in phis])
    integral = float(np.sum(vals) * (2.0 * np.pi / M))  # R = 1 arc measure
    return kernel(spec, theta, t + s), integral, 1e-8


def _telescoping():
    import numpy as np

    K = 1000
    k = np.arange(2, K + 1, dtype=float)
    partial_product = float(np.exp(np.sum(np.log1p(-1.0 / k**2))))
    return 0.5, partial_product, 1.0 / K


def _determinism():
    from .cli import build_report

    config = {
        "command": "det-fredholm",
        "kappa": 1.0,
        "r": math.pi / 2,
        "n": 3,
        "modes": [64, 128],
    }
    a = json.dumps(build_report(dict(config)), sort_keys=True)
    b = json.dumps(build_report(dict(config)), sort_keys=True)
    return 1.0, float(a == b), 0.0


def _checks():
    """Yield the (name, check) records in suite order.

    A quantity that several records read is memoized for this call only, so
    a run computes it once, in the first selected record that reads it, and
    a filtered run computes only what its selected records read.
    """
    fourier = cache(_fourier_det)
    deflated = cache(_deflated_det)
    scaling = cache(_eval_scaling)
    piecewise = cache(_piecewise_det)

    # constant-curvature Fredholm determinants (criteria 1, 2)
    yield "fredholm-sphere-kappa1-rhalfpi-n3", partial(
        _fourier_closed_form, fourier, 1.0, math.pi / 2, 3, (2.0 / math.pi) ** 2
    )
    yield "fredholm-hyperbolic-kappa-1-r1-n2", partial(
        _fourier_closed_form, fourier, -1.0, 1.0, 2, math.sinh(1.0)
    )

    # identity chain: Galerkin = ODE ratio = closed form (criterion 3),
    # the zeta transfer 2^-n det_zeta = Fredholm (criterion 4) and the
    # trace identity (criterion 5)
    grid = list(itertools.product(IDENTITY_GRID_KAPPAS, IDENTITY_GRID_SPEEDS, IDENTITY_GRID_DIMS))
    for kappa, r, n in grid:
        tag = f"kappa{_fmt(kappa)}-r{r:.1f}-n{n}"
        yield f"identity-chain-{tag}", partial(_identity_chain, fourier, kappa, r, n)
        yield f"zeta-chain-{tag}", partial(_zeta_chain, fourier, kappa, r, n)
    yield "zeta-laplacian-closed-form", _zeta_closed_form
    for kappa, r, n in grid:
        tag = f"kappa{_fmt(kappa)}-r{r:.1f}-n{n}"
        yield f"trace-identity-{tag}", partial(_trace_identity, kappa, r, n)

    # Bernoulli series (criterion 5)
    for s in (0.1, 0.3, 0.7):
        yield f"bernoulli-series-s{s}", partial(_bernoulli, s)

    # degenerate antipodal sphere (criteria 6, 7)
    for n in (2, 3):
        yield f"antipodal-deflated-S{n}", partial(_antipodal_deflated, deflated, n)
        yield f"antipodal-kernel-dim-S{n}", partial(_antipodal_kernel_dim, deflated, n)
    yield "degenerate-gy-scalar", _degenerate_scalar

    # antipodal coefficient via the velocity sphere (criterion 8)
    for n in (2, 3, 4):
        for R in (0.5, 1.0, 2.0):
            yield f"sxy-antipodal-n{n}-R{_fmt(R)}", partial(_sxy, n, R)

    # heat kernel oracle confirmation (criterion 9)
    yield "antipodal-S2-coefficient", partial(
        _heat_oracle, 2, "antipodal", None, 2.0 * math.pi**2, 0.01
    )
    yield "nondegenerate-S3-halfpi", partial(
        _heat_oracle, 3, "nondegenerate", math.pi / 2, math.pi / 2.0, 0.005
    )

    # evaluation-map Jacobian (criterion 10):
    # log ev = c2 h^2 + O(h^3), c2 = -(n-1) kappa^2 r^4 / 144
    yield "eval-jacobian-flat-exact", _eval_flat
    for kappa, r, n in ((1.0, math.pi / 2, 2), (-1.0, 1.0, 3), (0.5, 1.5, 4)):
        tag = f"kappa{_fmt(kappa)}-n{n}"
        yield f"eval-jacobian-mesh2-slope-{tag}", partial(_eval_slope, scaling, kappa, r, n)
        yield f"eval-jacobian-mesh2-coefficient-{tag}", partial(
            _eval_coefficient, scaling, kappa, r, n
        )

    # filtration independence (criterion 11)
    for kappa, r, n in ((1.0, math.pi / 2, 3), (-1.0, 1.0, 2), (0.3, 1.0, 2)):
        tag = f"kappa{_fmt(kappa)}-n{n}"
        yield f"filtration-agreement-{tag}", partial(
            _filtration_agreement, fourier, piecewise, kappa, r, n
        )
        yield f"filtration-monotone-{tag}", partial(
            _filtration_monotone, fourier, piecewise, kappa, r, n
        )

    # property suite (criterion 12)
    yield "wronskian-conservation", _wronskian
    yield "rk4-order4-step-halving", _rk4_order
    yield "chapman-kolmogorov-circle", _chapman
    yield "telescoping-partial-product", _telescoping
    yield "determinism-byte-stable-report", _determinism


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
