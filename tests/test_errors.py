"""Counts: every dimension, step, degree and level count is an integer or a DomainError."""

import re

import numpy as np
import pytest

from geodet import (
    ConstantCurvature,
    DomainError,
    JacobiSystem,
    Partition,
    SyntheticPotential,
    antipodal_limit_via_Sxy,
    antipodal_sphere_limit_closed_form,
    gy_ratio,
    heat_limit_validation,
    solve_jacobi_ode,
    sphere_heat_kernel,
    zeta_det_dirichlet_laplacian,
    zeta_det_jacobi,
)
from geodet.heat import SphereSpectrum

_SYS = JacobiSystem(2, 1.0, np.diag([1.0, -2.0]))

# (count parameter, call with the count, a valid count)
COUNTS = [
    ("ConstantCurvature.n", lambda n: ConstantCurvature(n, 1.0).n, 3),
    ("SyntheticPotential.n", lambda n: SyntheticPotential(n, lambda s: np.eye(2), 1.0).n, 3),
    ("JacobiSystem.n", lambda n: JacobiSystem(n, 1.0, np.eye(2)).n, 2),
    ("zeta_det_dirichlet_laplacian.n", lambda n: zeta_det_dirichlet_laplacian(1.0, n).value, 2),
    ("SphereSpectrum.n", lambda n: SphereSpectrum(n, 1.0, 10).n, 2),
    ("SphereSpectrum.for_time_range.n", lambda n: SphereSpectrum.for_time_range(n, 1.0, 0.1).max_degree, 2),
    ("antipodal_sphere_limit_closed_form.n", lambda n: antipodal_sphere_limit_closed_form(n, 1.0), 2),
    ("antipodal_limit_via_Sxy.n", lambda n: antipodal_limit_via_Sxy(n, 1.0), 2),
    ("heat_limit_validation.n", lambda n: heat_limit_validation(n, 1.0, "antipodal", levels=2).predicted, 2),
    ("SphereSpectrum.max_degree", lambda L: sphere_heat_kernel(SphereSpectrum(2, 1.0, L), 0.3, 1.0), 40),
    ("heat_limit_validation.levels",
     lambda j: heat_limit_validation(2, 1.0, "antipodal", levels=j).extrapolated_oracle, 2),
    ("solve_jacobi_ode.steps", lambda m: solve_jacobi_ode(_SYS, m).det_final(), 64),
    ("zeta_det_jacobi.steps", lambda m: zeta_det_jacobi(_SYS, m).value, 64),
    ("gy_ratio.steps", lambda m: gy_ratio(_SYS, _SYS, m), 64),
    ("Partition.uniform.N", lambda N: Partition.uniform(N).N, 3),
]


@pytest.mark.parametrize("call, good", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS])
def test_counts_are_integers_or_named_domain_errors(call, good):
    # a numpy integer counts as its int, and the int is what is stored; a
    # float, even an integral one, a string or None is no count: each ends
    # in a DomainError that names it, never in a TypeError or a truncation
    value = call(good)
    from_numpy = call(np.int64(good))
    assert from_numpy == value and type(from_numpy) is type(value)
    for bad in (2.0, 2.5, "3", None):
        with pytest.raises(DomainError, match="^" + re.escape(f"{bad!r} is not an integer count: ")):
            call(bad)
