"""Determinants of Jacobi operators along geodesics, three ways.

The Hessian of the path energy at a minimizing geodesic is id + P^{-1} V
on the Dirichlet H1 space, with V the curvature term along the geodesic.
This package computes its determinant by Galerkin truncation (two
filtrations with analytic tail completion), by the Jacobi initial value
problem, and by constant-curvature closed forms, relates it to the zeta
determinant of the Jacobi operator, and validates the resulting
lowest-order short-time heat kernel limits against a spectral-sum oracle
on round spheres -- including the degenerate antipodal case.

``import geodet`` loads no route: each public name below, and each route
module, is imported on its first access through the package.  A name is
looked up in its home module on every access, so what ``geodet.X``
returns is always that module's current binding.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys((
        "ConjugatePointError",
        "DegenerateOperatorError",
        "DomainError",
        "GeodetError",
        "IllSeparatedKernelError",
        "InsufficientDegreeError",
        "IntegrationError",
        "NonpositiveOperatorError",
        "OutOfScopeError",
        "RouteDisagreementError",
        "UsageError",
    ), "errors"),
    **dict.fromkeys((
        "ConstantCurvature",
        "GeodesicData",
        "JacobiSystem",
        "SyntheticPotential",
        "exp_jacobian_closed_form",
        "jacobi_endomorphism",
    ), "geometry"),
    **dict.fromkeys((
        "DeterminantEstimate",
        "GalerkinMatrix",
        "Partition",
        "PiecewiseHessian",
        "assemble_hessian_fourier",
        "assemble_hessian_piecewise",
        "bernoulli_cosine_sum",
        "evaluation_map_jacobian",
        "fredholm_det",
        "fredholm_det_deflated",
        "fredholm_det_piecewise",
        "hessian_trace",
        "phi0_chain",
    ), "galerkin"),
    **dict.fromkeys((
        "JacobiPropagation",
        "gy_degenerate_ratio",
        "gy_ratio",
        "solve_jacobi_ode",
        "zeta_det_jacobi",
    ), "gelfand_yaglom"),
    **dict.fromkeys(("ZetaDetValue", "zeta_det_dirichlet_laplacian"), "zeta"),
    **dict.fromkeys((
        "HeatLimitReport",
        "SphereSpectrum",
        "antipodal_limit_via_Sxy",
        "antipodal_sphere_limit_closed_form",
        "euclidean_heat_kernel",
        "heat_limit_validation",
        "nondegenerate_limit_prediction",
        "sphere_heat_kernel",
    ), "heat"),
}
_SUBMODULES = ("errors", "geometry", "interval", "galerkin", "gelfand_yaglom", "heat", "zeta")

# ``from geodet import *`` binds every public name and route module
__all__ = [*_HOMES, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
