"""Counts: every dimension, step, degree and level count is an integer or a DomainError."""

import ast
import re

import numpy as np
import pytest

from geodet import (
    ConstantCurvature,
    DomainError,
    GeodesicData,
    JacobiSystem,
    Partition,
    SyntheticPotential,
    antipodal_limit_via_Sxy,
    antipodal_sphere_limit_closed_form,
    bernoulli_cosine_sum,
    euclidean_heat_kernel,
    exp_jacobian_closed_form,
    fredholm_det,
    gy_ratio,
    heat_limit_validation,
    jacobi_endomorphism,
    phi0_chain,
    solve_jacobi_ode,
    sphere_heat_kernel,
    zeta_det_dirichlet_laplacian,
    zeta_det_jacobi,
)
from geodet import errors, galerkin, gelfand_yaglom, heat, zeta
from geodet.errors import OutOfScopeError, check_memory, check_positive
from geodet.heat import SphereSpectrum, richardson_extrapolate
from geodet.interval import gauss_legendre, mode_quadrature

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
    ("euclidean_heat_kernel.n", lambda n: euclidean_heat_kernel(1.0, n, 0.5), 3),
    ("richardson_extrapolate.stages", lambda m: richardson_extrapolate([1.0, 2.0, 4.0], m), 2),
    ("bernoulli_cosine_sum.K", lambda K: bernoulli_cosine_sum(0.3, K), 100),
    ("gauss_legendre.order", lambda k: len(gauss_legendre(k)[0]), 7),
    ("mode_quadrature.max_halfwaves", lambda m: len(mode_quadrature(1.0, m)[0]), 40),
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
    # below every least and too long to print: still a DomainError, whose
    # message, where it shows the count, names it by its size
    with pytest.raises(DomainError):
        call(-10**5000)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: euclidean_heat_kernel(1.0, 0, 0.5), "dimension must be >= 1, got 0"),
        (lambda: richardson_extrapolate([1.0, 2.0], -1), "need stages >= 0, got -1"),
        (lambda: bernoulli_cosine_sum(0.3, -1), "need K >= 0 terms, got -1"),
        (lambda: gauss_legendre(0), "Gauss-Legendre order must be >= 1, got 0"),
        (lambda: mode_quadrature(1.0, -1), "max_halfwaves must be >= 0, got -1"),
        (lambda: Partition.uniform(np.int64(1)), "need an integer count of at least two segments, got np.int64(1)"),
        (lambda: euclidean_heat_kernel(1.0, -10**5000, 0.5), "dimension must be >= 1, got a negative int of 16610 bits"),
        (lambda: zeta_det_dirichlet_laplacian(1.0, 10**5000),
         "fiber dimension n must lie in float64, got int beyond float64"),
        (lambda: galerkin._check_schedule([8, 10**5000, 4], "mode counts", 1),
         "schedule must be a nonempty increasing list of integer mode counts >= 1, got (8, an int of 16610 bits, 4)"),
        (lambda: galerkin._check_schedule(-10**5000, "mode counts", 1),
         "schedule must be a nonempty increasing list of integer mode counts >= 1, got a negative int of 16610 bits"),
    ],
)
def test_counts_below_their_least_are_named(call, message):
    # stages = -1 returned its input, a negative K an empty sum, order 0
    # ended in numpy's ValueError and max_halfwaves = -1 in a rule for 1; a
    # message formatted before its check ended in Python's ValueError for an
    # int of more than 4300 digits
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("module", [gelfand_yaglom, heat, zeta], ids=lambda m: m.__name__)
def test_ode_and_heat_routes_import_nothing_from_galerkin(module):
    # the Gel'fand-Yaglom and heat routes cross-check the Galerkin routes, so
    # they share no code with them: the float64 boundary lives in errors.py
    with open(module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names if not node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not {"galerkin", "geodet.galerkin"} & imported


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["int-1e400", "int-1e5000"])
def test_check_positive_names_an_int_beyond_float64_by_its_type(value):
    # 0 < value < inf holds for such an int, and one beyond 4300 digits has no str
    with pytest.raises(DomainError) as info:
        check_positive(value, "time")
    assert str(info.value) == "time must be positive and finite, got int beyond float64"


HUGE = 10**5000  # no array of this many floats can be made; a count that could be is never probed
ONE_MATRIX = re.escape("a fiber dimension of an int of 16610 bits needs 2^33222 bytes or more for one n x n matrix")


@pytest.mark.parametrize(
    "call, pattern",
    [
        (lambda: jacobi_endomorphism(GeodesicData(ConstantCurvature(HUGE, 1.0), 1.0)), ONE_MATRIX),
        (lambda: SyntheticPotential(HUGE, lambda s: np.eye(2), 1.0), ONE_MATRIX),
        (lambda: JacobiSystem(HUGE, 1.0, [[1.0]]), ONE_MATRIX),
        (lambda: Partition.uniform(HUGE),
         re.escape("an int of 16610 bits segments need 2^16612 bytes or more for the partition times")),
        (lambda: fredholm_det(JacobiSystem.constant([[1.0]], 1.0), (HUGE,)),
         re.escape("an int of 16610 bits modes need 2^16612 bytes or more for the spectrum of the finest level")),
        (lambda: fredholm_det(JacobiSystem(1, 1.0, lambda s: 1.0 + s), (HUGE,)),
         re.escape("an int of 16610 bits modes need 2^33222 bytes or more for the Galerkin matrix of fiber dimension 1")),
    ],
    ids=["jacobi_endomorphism", "SyntheticPotential", "JacobiSystem", "Partition.uniform",
         "fredholm_det.constant", "fredholm_det.varying"],
)
def test_counts_beyond_memory_are_named_domain_errors(call, pattern):
    # each ended in Python's or numpy's ValueError: a count too long to
    # print in a message, or an array no float64 buffer can hold
    with pytest.raises(DomainError, match="^" + pattern + ", more than the .* GiB of physical memory$"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: euclidean_heat_kernel(1.0, HUGE, 1.0),
     lambda: exp_jacobian_closed_form(ConstantCurvature(HUGE, 1.0), 1.0),
     lambda: phi0_chain(ConstantCurvature(HUGE, -1.0), 1.0, Partition.uniform(4))],
    ids=["euclidean_heat_kernel", "exp_jacobian_closed_form", "phi0_chain"],
)
def test_dimension_beyond_float64_is_a_domain_error(call):
    # n enters these as a float64 power and ended in Python's OverflowError
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == "dimension an int of 16610 bits lies beyond float64"


def test_huge_dimension_repr_names_it():
    assert repr(ConstantCurvature(HUGE, 1.0)) == "ConstantCurvature(n=an int of 16610 bits, kappa=1.0)"


@pytest.mark.parametrize(
    "call",
    [lambda: heat_limit_validation(HUGE, 1.0, "antipodal"), lambda: SphereSpectrum(HUGE, 1.0, 10),
     lambda: antipodal_sphere_limit_closed_form(HUGE, 1.0)],
    ids=["heat_limit_validation", "SphereSpectrum", "antipodal_sphere_limit_closed_form"],
)
def test_sphere_beyond_scope_names_a_huge_dimension(call):
    with pytest.raises(OutOfScopeError) as info:
        call()
    assert str(info.value) == "spheres above S^342 are out of scope, got S^an int of 16610 bits"


def test_check_memory_names_the_count_and_both_sizes(monkeypatch):
    monkeypatch.setattr(errors, "physical_memory", lambda: 2.0**30)
    check_memory(2**27, "{} floats need {}", 2**27)  # 1 GiB fits
    with pytest.raises(DomainError) as info:
        check_memory(3 * 2**26, "{} floats need {}", 3 * 2**26)
    assert str(info.value) == "201326592 floats need 1.5 GiB, more than the 1 GiB of physical memory"
    with pytest.raises(DomainError) as info:
        check_memory(HUGE, "{} floats need {}", HUGE)
    assert str(info.value) == (
        "an int of 16610 bits floats need 2^16612 bytes or more, more than the 1 GiB of physical memory"
    )
    monkeypatch.setattr(errors, "physical_memory", lambda: float("inf"))
    check_memory(HUGE, "{} floats need {}", HUGE)  # where the memory is not told, nothing is refused
