"""Determinants of Jacobi operators along geodesics, three ways.

The Hessian of the path energy at a minimizing geodesic is id + P^{-1} V
on the Dirichlet H1 space, with V the curvature term along the geodesic.
This package computes its determinant by Galerkin truncation (two
filtrations with analytic tail completion), by the Jacobi initial value
problem, and by constant-curvature closed forms, relates it to the zeta
determinant of the Jacobi operator, and validates the resulting
lowest-order short-time heat kernel limits against a spectral-sum oracle
on round spheres -- including the degenerate antipodal case.
"""

from .errors import (
    ConjugatePointError,
    CutLocusError,
    DegenerateOperatorError,
    DegenerateRouteError,
    DegenerateSegmentError,
    DomainError,
    GeodetError,
    IllSeparatedKernelError,
    InsufficientDegreeError,
    IntegrationError,
    NonpositiveOperatorError,
    OutOfScopeError,
    RouteDisagreementError,
    UsageError,
    WrongRouteError,
)
from .geometry import (
    ConstantCurvature,
    GeodesicData,
    JacobiSystem,
    SyntheticPotential,
    exp_jacobian_closed_form,
    jacobi_endomorphism,
    ricci_along,
    sphere_parallel_transport_check,
)
from .galerkin import (
    DeflatedDeterminant,
    DeterminantEstimate,
    GalerkinMatrix,
    Partition,
    assemble_hessian_fourier,
    assemble_hessian_piecewise,
    bernoulli_cosine_sum,
    evaluation_map_jacobian,
    fredholm_det,
    fredholm_det_deflated,
    fredholm_det_piecewise,
    hessian_trace,
    phi0_chain,
)
from .gelfand_yaglom import (
    JacobiPropagation,
    ZetaDetValue,
    gy_degenerate_ratio,
    gy_ratio,
    solve_jacobi_ode,
    zeta_det_dirichlet_laplacian,
    zeta_det_jacobi,
)
from .heat import (
    HeatLimitReport,
    SphereSpectrum,
    antipodal_limit_via_Sxy,
    antipodal_sphere_limit_closed_form,
    euclidean_heat_kernel,
    heat_limit_validation,
    nondegenerate_limit_prediction,
    sphere_heat_kernel,
)

__version__ = "0.1.0"
