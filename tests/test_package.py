"""The package surface: each public name resolves through its home module."""

import importlib

import pytest

import geodet

# every public name the package binds, by the module that defines it
SURFACE = {
    "errors": (
        "ConjugatePointError", "DegenerateOperatorError", "DomainError", "GeodetError",
        "IllSeparatedKernelError", "InsufficientDegreeError", "IntegrationError",
        "NonpositiveOperatorError", "OutOfScopeError", "RouteDisagreementError", "UsageError",
    ),
    "geometry": (
        "ConstantCurvature", "GeodesicData", "JacobiSystem", "SyntheticPotential",
        "exp_jacobian_closed_form", "jacobi_endomorphism",
    ),
    "galerkin": (
        "DeterminantEstimate", "GalerkinMatrix", "Partition", "PiecewiseHessian",
        "assemble_hessian_fourier", "assemble_hessian_piecewise", "bernoulli_cosine_sum",
        "evaluation_map_jacobian", "fredholm_det", "fredholm_det_deflated",
        "fredholm_det_piecewise", "hessian_trace", "phi0_chain",
    ),
    "gelfand_yaglom": (
        "JacobiPropagation", "ZetaDetValue", "gy_degenerate_ratio", "gy_ratio",
        "solve_jacobi_ode", "zeta_det_dirichlet_laplacian", "zeta_det_jacobi",
    ),
    "zeta": ("ZetaDetValue", "zeta_det_dirichlet_laplacian"),
    "heat": (
        "HeatLimitReport", "SphereSpectrum", "antipodal_limit_via_Sxy",
        "antipodal_sphere_limit_closed_form", "euclidean_heat_kernel", "heat_limit_validation",
        "nondegenerate_limit_prediction", "sphere_heat_kernel",
    ),
}
SUBMODULES = ("errors", "geometry", "interval", "galerkin", "gelfand_yaglom", "heat", "zeta")


@pytest.mark.parametrize("home, name", [(home, name) for home, names in SURFACE.items() for name in names])
def test_public_name_is_its_home_binding(home, name):
    assert getattr(geodet, name) is getattr(importlib.import_module(f"geodet.{home}"), name)
    assert name in dir(geodet)


@pytest.mark.parametrize("name", SUBMODULES)
def test_route_module_is_an_attribute(name):
    assert getattr(geodet, name) is importlib.import_module(f"geodet.{name}")
    assert name in dir(geodet)


def test_version():
    assert geodet.__version__ == "0.1.0"
    assert "__version__" in dir(geodet)


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_route'"):
        geodet.no_such_route
    assert not hasattr(geodet, "no_such_route")


def test_package_returns_a_patched_home_binding(monkeypatch):
    # the package caches no copy: a patched home binding is what it returns
    from geodet import gelfand_yaglom

    original = gelfand_yaglom.gy_ratio
    assert geodet.gy_ratio is original
    monkeypatch.setattr(gelfand_yaglom, "gy_ratio", lambda *args: None)
    assert geodet.gy_ratio is gelfand_yaglom.gy_ratio is not original
    monkeypatch.undo()
    assert geodet.gy_ratio is original


def test_star_import_binds_the_surface():
    namespace = {}
    exec("from geodet import *", namespace)
    names = {name for names in SURFACE.values() for name in names}
    assert names | set(SUBMODULES) <= namespace.keys()
