"""Fredholm determinants of id + P^{-1} V by nested finite truncations.

The Hessian form of the path energy at a geodesic is id + P^{-1} V on the
Dirichlet H1 space, with V the curvature term.  Its Fredholm determinant is
the limit of ordinary determinants over any nested filtration with dense
union.  Two filtrations are implemented: spans of the first K sine modes,
and piecewise-linear fields over a partition.  Truncations are completed by
analytic tail corrections built from the explicit 1/k^2 decay of P^{-1},
which upgrades the O(1/K) raw convergence to O(1/K^3) and better.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DegenerateOperatorError,
    DegenerateSegmentError,
    CutLocusError,
    DomainError,
    IllSeparatedKernelError,
    RouteDisagreementError,
)
from .geometry import ConstantCurvature, GeodesicData, JacobiSystem, exp_jacobian_closed_form
from .interval import mode_quadrature

__all__ = [
    "Partition",
    "GalerkinMatrix",
    "DeterminantEstimate",
    "DeflatedDeterminant",
    "assemble_hessian_fourier",
    "fredholm_det",
    "fredholm_det_deflated",
    "fredholm_det_piecewise",
    "deflated_matrix_determinant",
    "hessian_trace",
    "bernoulli_cosine_sum",
    "assemble_hessian_piecewise",
    "evaluation_map_jacobian",
    "phi0_chain",
]

KERNEL_TOL = 1e-8  # eigenvalues below this, at the finest level, form the kernel
KERNEL_GAP_FACTOR = 100.0
_TAIL_ORDERS = 4  # powers of the eigenvalue decay kept in the analytic tail


@dataclass(frozen=True)
class Partition:
    """Partition 0 = tau_0 < ... < tau_N = 1 of the unit interval."""

    times: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
            raise DomainError("partition must run from 0.0 to 1.0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("partition times must be strictly increasing")

    @classmethod
    def uniform(cls, N: int) -> "Partition":
        if N < 2:
            raise DomainError("need at least two segments")
        return cls(tuple(np.linspace(0.0, 1.0, N + 1)))

    @property
    def N(self) -> int:
        return len(self.times) - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(np.asarray(self.times))

    @property
    def mesh(self) -> float:
        return float(np.max(self.deltas))


@dataclass
class GalerkinMatrix:
    """Dense symmetric truncation of the Hessian form in an orthonormal basis."""

    dimension: int
    entries: np.ndarray
    filtration: str  # "fourier" or "piecewise"
    level: int  # K (mode count) or N (segment count)
    n: int


@dataclass
class DeterminantEstimate:
    """Determinants along a filtration with tail correction and extrapolation.

    levels holds (subspace dimension, raw truncated determinant).  The
    tail_correction is the multiplicative analytic completion at the finest
    level; extrapolated is the completed value.  error_estimate bounds the
    change between the last two tail-completed level values, which is the
    sequence the extrapolation is taken from.
    """

    levels: list = field(default_factory=list)
    tail_correction: float = 1.0
    extrapolated: float = 0.0
    error_estimate: float = 0.0


@dataclass
class DeflatedDeterminant:
    """Deflated determinant estimate together with the detected kernel size."""

    estimate: DeterminantEstimate
    kernel_dimension: int


# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin coefficients of _zeta_tail
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)
_EM_DIRECT = 32  # terms k <= _EM_DIRECT are summed directly


def _zeta_tail(K: int, m: int) -> float:
    """sum_{k > K} k^(-2m), the Hurwitz zeta value zeta(2m, K + 1).

    Terms up to k = max(K, 32) are summed directly; the rest, from a = that
    bound + 1, is the Euler-Maclaurin series

        a^(1-p)/(p-1) + a^(-p)/2 + sum_j B_2j/(2j)! p(p+1)...(p+2j-2) a^(-p-2j+1)

    with p = 2m and six Bernoulli terms, whose remainder is below 1e-17
    relative for a >= 33 and m <= 4.
    """
    p = 2 * m
    N = max(K, _EM_DIRECT)
    direct = sum(float(k) ** -p for k in range(K + 1, N + 1))
    a = float(N + 1)
    tail = a ** (1 - p) / (p - 1) + 0.5 * a**-p
    rising, power = float(p), a ** (-p - 1)
    for j, coeff in enumerate(_EM_COEFFS, 1):
        tail += coeff * rising * power
        rising *= (p + 2 * j - 1) * (p + 2 * j)
        power /= a * a
    return direct + tail


def _check_schedule(schedule, what: str) -> list:
    schedule = [int(v) for v in schedule]
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError(f"schedule must be a nonempty increasing list of {what}")
    return schedule


def _tail_log_correction(c: np.ndarray, K: int) -> float:
    """log of the missing factor prod_{k>K} det(I + t^2 Vbar / (pi^2 k^2)).

    ``c`` holds the eigenvalues of t^2 Vbar / pi^2.  Exact (to the
    _TAIL_ORDERS expansion) for constant potentials; for varying potentials
    the mean matrix gives the leading 1/k^2 moment and the neglected
    oscillatory part decays one order faster.
    """
    total = 0.0
    for m in range(1, _TAIL_ORDERS + 1):
        total += ((-1) ** (m + 1) / m) * np.sum(c**m) * _zeta_tail(K, m)
    return total


def _mode_estimate(sys: JacobiSystem, schedule: list, values: list) -> DeterminantEstimate:
    """Tail-complete the truncated determinants ``values`` along a mode schedule.

    The completed finest level is the reported value.  The error estimate is
    the change between the last two completed levels, or the size of the
    tail itself for a one-level schedule.  The tail series in c/k^2 diverges
    unless (K + 1)^2 > max|c| at the finest level K, and every value must
    stay inside float64; otherwise DomainError is raised.
    """
    vbar = np.linalg.eigvalsh(sys.mean_matrix())
    c = vbar * sys.t**2 / np.pi**2
    cmax = float(np.max(np.abs(c)))
    if cmax >= (schedule[-1] + 1) ** 2:
        raise DomainError(
            f"the tail series diverges at {schedule[-1]} modes; "
            f"the finest level needs at least {int(np.sqrt(cmax))} modes"
        )
    levels = [(sys.n * K, float(value)) for K, value in zip(schedule, values)]
    with np.errstate(over="ignore"):  # values beyond float64 are reported below
        tails = [np.exp(_tail_log_correction(c, K)) for K in schedule]
        corrected = [float(value * tail) for value, tail in zip(values, tails)]
    err = abs(corrected[-1] - corrected[-2]) if len(corrected) > 1 else abs(
        corrected[-1] - levels[-1][1]
    )
    if not np.isfinite([*corrected, *values, err]).all():
        raise DomainError("a truncated or tail-completed determinant overflows float64")
    return DeterminantEstimate(
        levels=levels,
        tail_correction=float(tails[-1]),
        extrapolated=corrected[-1],
        error_estimate=err + 1e-15,
    )


def _level_eigenvalues(sys: JacobiSystem, K: int, assembled) -> np.ndarray:
    """Eigenvalues of the K-mode truncation of id + P^{-1} V.

    Constant potentials give the closed-form factors 1 + v_i t^2/(pi^2 k^2)
    of the block-diagonal matrix; otherwise ``assembled`` is the matrix at a
    level >= K and its leading nK block is diagonalized.
    """
    if sys.is_constant:
        v = np.linalg.eigvalsh(sys(0.0))
        k = np.arange(1, K + 1)
        return 1.0 + np.outer(v, sys.t**2 / (np.pi**2 * k**2)).ravel()
    return np.linalg.eigvalsh(assembled[: sys.n * K, : sys.n * K])


def _eigenvalue_product(evals: np.ndarray) -> float:
    """sign * exp(sum log|lambda|) of nonzero eigenvalues; inf beyond float64."""
    sign = float(np.prod(np.sign(evals)))
    with np.errstate(over="ignore"):
        return sign * float(np.exp(np.sum(np.log(np.abs(evals)))))


def assemble_hessian_fourier(sys: JacobiSystem, K: int) -> GalerkinMatrix:
    """Matrix of id + P^{-1} V over the first K H1-orthonormal sine modes.

    Entries are delta + (V F_ik, F_jl)_{L2} in k-major ordering, so the
    leading principal submatrices realize the nested mode filtration.
    Constant potentials use the closed-form sine product integrals (the
    matrix is block diagonal across frequencies); varying potentials are
    integrated by composite Gauss-Legendre sized for the k + l oscillation,
    one GEMM per fiber pair i <= j.
    """
    if K < 1:
        raise DomainError("mode count must be >= 1")
    n, t = sys.n, sys.t
    dim = n * K
    M = np.eye(dim)
    if sys.is_constant:
        V = sys(0.0)
        for k in range(1, K + 1):
            blk = slice((k - 1) * n, k * n)
            M[blk, blk] += V * t**2 / (np.pi**2 * k**2)
        return GalerkinMatrix(dim, M, "fourier", K, n)

    nodes, weights = mode_quadrature(t, 2 * K)
    Vq = sys.sample(nodes)  # (Q, n, n)
    amp = np.sqrt(2.0 * t) / (np.pi * np.arange(1, K + 1))
    S = np.sin(np.pi * np.outer(np.arange(1, K + 1), nodes) / t) * amp[:, None]  # (K, Q)
    # block (k, l) of fibers (i, j) is int V_ij F_k F_l = (S diag(w V_ij) S^T)_kl;
    # pairs whose samples all vanish (the tangent row of synthetic systems) are skipped
    W = np.zeros((K, n, K, n))
    for i in range(n):
        for j in range(i, n):
            wv = weights * (0.5 * (Vq[:, i, j] + Vq[:, j, i]))
            if wv.any():
                W[:, i, :, j] = W[:, j, :, i] = (S * wv) @ S.T
    M += W.reshape(dim, dim)
    return GalerkinMatrix(dim, 0.5 * (M + M.T), "fourier", K, n)


def fredholm_det(sys: JacobiSystem, schedule) -> DeterminantEstimate:
    """Fredholm determinant of id + P^{-1} V through the mode filtration.

    Computes the truncated determinant at each K in the increasing
    schedule from the level's eigenvalues, applies the analytic tail
    correction at the finest level and reports the completed value.  Raises
    DegenerateOperatorError when the finest truncation has an eigenvalue
    below KERNEL_TOL, or a coarser one an exactly zero eigenvalue; use
    :func:`fredholm_det_deflated` in that case.
    """
    schedule = _check_schedule(schedule, "mode counts")
    assembled = None if sys.is_constant else assemble_hessian_fourier(sys, schedule[-1]).entries
    spectra = [_level_eigenvalues(sys, K, assembled) for K in schedule]
    if np.min(np.abs(spectra[-1])) < KERNEL_TOL or not all(lam.all() for lam in spectra):
        raise DegenerateOperatorError(
            "truncated operator is singular; call fredholm_det_deflated"
        )
    return _mode_estimate(sys, schedule, [_eigenvalue_product(lam) for lam in spectra])


def deflated_matrix_determinant(evals: np.ndarray):
    """Determinant of a symmetric matrix, given its eigenvalues, with its numeric kernel removed.

    Eigenvalues of magnitude below KERNEL_TOL form the kernel candidate;
    a relative spectral gap of at least 100x between them and the rest is
    required.  Returns (value, kernel_dimension).
    """
    small = np.abs(evals) < KERNEL_TOL
    kdim = int(np.count_nonzero(small))
    if kdim and kdim < len(evals):
        gap = np.min(np.abs(evals[~small])) / max(np.max(np.abs(evals[small])), 1e-300)
        if gap < KERNEL_GAP_FACTOR:
            raise IllSeparatedKernelError(
                f"spectral gap {gap:.2g} below required factor {KERNEL_GAP_FACTOR}"
            )
    return _eigenvalue_product(evals[~small]), kdim


def fredholm_det_deflated(sys: JacobiSystem, schedule=(64, 128, 256)) -> DeflatedDeterminant:
    """Fredholm determinant restricted to the complement of the numeric kernel.

    The nullspace of each truncation is detected from its eigenvalues
    (magnitude below KERNEL_TOL, guarded by a 100x spectral gap); the
    reported kernel dimension comes from the finest level.  The analytic
    tail correction applies unchanged since all tail modes are regular.
    """
    schedule = _check_schedule(schedule, "mode counts")
    assembled = None if sys.is_constant else assemble_hessian_fourier(sys, schedule[-1]).entries
    results = [
        deflated_matrix_determinant(_level_eigenvalues(sys, K, assembled)) for K in schedule
    ]
    estimate = _mode_estimate(sys, schedule, [value for value, _ in results])
    return DeflatedDeterminant(estimate, results[-1][1])


def _trace_exact(sys: JacobiSystem) -> float:
    """Tr P^{-1} V = int_0^t tr V(s) s(t-s)/t ds, closed form for constant V."""
    t = sys.t
    if sys.is_constant:
        return float(np.trace(sys(0.0))) * t * t / 6.0
    x, w = leggauss(96)
    s = 0.5 * t * (x + 1.0)
    vals = np.trace(sys.sample(s), axis1=1, axis2=2)
    return float(np.sum(w * vals * s * (t - s) / t) * 0.5 * t)


def hessian_trace(sys: JacobiSystem, modes: int = 20000) -> float:
    """Trace of the Hessian form minus the identity, checked two ways.

    Route (a) sums the diagonal matrix elements over the first ``modes``
    sine modes and completes the sum with the analytic 1/k^2 tail.  Route
    (b) integrates the potential trace against s(t-s)/t, which is the
    Ricci-integral form (for a constant-curvature geodesic it equals
    -(n-1) kappa r^2 / 6).  Both must agree to 1e-8; otherwise
    RouteDisagreementError is raised.
    """
    t = sys.t
    if sys.is_constant:
        k = np.arange(1, modes + 1)
        trv = float(np.trace(sys(0.0)))
        partial = trv * t * t / np.pi**2 * float(np.sum(1.0 / k**2))
        tail = trv * t * t / np.pi**2 * _zeta_tail(modes, 1)
    else:
        # (V F_k, F_k) summed over fibers = (2t/pi^2 k^2) int tr V sin^2(pi k s/t).
        # Beyond the explicitly summed modes only the mean of tr V survives at
        # 1/k^2 (the oscillatory remainder decays like 1/k^4), so the sum is
        # cut where the quadrature still resolves every retained frequency.
        k_explicit = min(modes, 512)
        grid_nodes, grid_w = mode_quadrature(t, 2 * k_explicit)
        trv_nodes = np.trace(sys.sample(grid_nodes), axis1=1, axis2=2)
        ks = np.arange(1, k_explicit + 1)
        sin2 = np.sin(np.pi * np.outer(ks, grid_nodes) / t) ** 2
        per_k = (2.0 * t / (np.pi**2 * ks**2)) * (sin2 @ (grid_w * trv_nodes))
        partial = float(np.sum(per_k))
        mean_trv = float(np.sum(grid_w * trv_nodes)) / t
        tail = mean_trv * t * t / np.pi**2 * _zeta_tail(k_explicit, 1)
    route_a = partial + tail
    route_b = _trace_exact(sys)
    if not abs(route_a - route_b) < 1e-8 * max(1.0, abs(route_b)):
        raise RouteDisagreementError(f"trace routes disagree: {route_a} vs {route_b}")
    return route_a


def bernoulli_cosine_sum(s: float, K: int) -> float:
    """Partial sum sum_{k<=K} cos(2 pi k s)/(pi^2 k^2).

    Converges to s^2 - s + 1/6 on [0, 1] (the quadratic Bernoulli
    polynomial), which is what makes the trace integrand s(1-s).
    """
    k = np.arange(1, K + 1, dtype=float)
    return float(np.sum(np.cos(2.0 * np.pi * k * s) / (np.pi**2 * k**2)))


# ---------------------------------------------------------------------------
# piecewise-linear (hat field) filtration
#
# Over the interior hats of a partition the Hessian form is D + B: D the H1
# Gram of the hats (tridiagonal, blocks a_j I and c_j I) and B the L2 pairing
# against the potential (block tridiagonal with n x n blocks).  The
# determinant det(D + B)/det(D) is a block LDL^T recurrence -- the discrete
# Jacobi equation along the piecewise geodesic -- and tr(D^{-1} B) needs only
# the nodal Green's function of D, so a level costs O(N n^3).


def _hat_stiffness(deltas: np.ndarray):
    """Scalar diagonal a_j and off-diagonal c_j of the hat stiffness D.

    a_j = 1/delta_j + 1/delta_{j+1} and c_j = -1/delta_{j+1}; D is a_j I and
    c_j I in blocks.
    """
    inv = 1.0 / deltas
    return inv[:-1] + inv[1:], -inv[1:-1]


def _hat_blocks(sys: JacobiSystem, nodes: np.ndarray, quad_order: int = 8):
    """Diagonal (N-1, n, n) and off-diagonal (N-2, n, n) blocks of B.

    ``nodes`` are the partition times on [0, t]; off-diagonal block j couples
    interior nodes j and j + 1.  Constant potentials use the closed-form hat
    mass blocks, varying ones a Gauss-Legendre rule of ``quad_order`` nodes
    per segment with the potential sampled once per node.
    """
    deltas = np.diff(nodes)
    if sys.is_constant:
        V = sys(0.0)
        diag = ((deltas[:-1] + deltas[1:]) / 3.0)[:, None, None] * V
        return diag, (deltas[1:-1] / 6.0)[:, None, None] * V
    x, w = leggauss(quad_order)
    a, b, h = nodes[:-1, None], nodes[1:, None], deltas[:, None]
    sq = 0.5 * (b + a) + 0.5 * h * x  # (N, quad_order)
    wq = 0.5 * h * w
    up = (sq - a) / h  # hat rising on the segment (its right node)
    down = (b - sq) / h  # hat falling (its left node)
    Vq = sys.sample(sq.ravel()).reshape(sq.shape + (sys.n, sys.n))

    def moment(f):
        return np.einsum("sq,sqij->sij", wq * f, Vq)

    return moment(up * up)[:-1] + moment(down * down)[1:], moment(down * up)[1:-1]


def _block_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix from diagonal blocks and upper off-diagonal blocks."""
    m, n = diag.shape[:2]
    out = np.zeros((m, n, m, n))
    j = np.arange(m)
    out[j, :, j, :] = diag
    out[j[:-1], :, j[1:], :] = off
    out[j[1:], :, j[:-1], :] = off.transpose(0, 2, 1)
    return out.reshape(m * n, m * n)


def _hat_slogdet(a, c, diag: np.ndarray, off: np.ndarray):
    """(sign, log|det|) of det(D + B)/det(D) by the block LDL^T recurrence.

    The pivots of D + B are S_0 = A_0 and S_j = A_j - C_{j-1}^T S_{j-1}^{-1}
    C_{j-1}, with A_j = a_j I + B_jj and C_j = c_j I + B_{j,j+1}; those of D
    are the scalars d_j = a_j - c_{j-1}^2 / d_{j-1}, and the ratio is the
    product of det(S_j / d_j).  S_j and d_j are O(1/mesh) while their
    difference E_j = S_j - d_j I is O(mesh), so the recurrence carries E_j:
    with rho = c_{j-1}/d_{j-1}, R = (I + E_{j-1}/d_{j-1})^{-1} and
    Z = R B_{j-1,j},

        E_j = B_jj + rho^2 R E_{j-1} - rho (Z + Z^T) - B_{j-1,j}^T Z / d_{j-1},

    which never subtracts two large numbers.
    """
    n = diag.shape[1]
    eye = np.eye(n)
    scaled = np.empty_like(diag)
    E, d = diag[0], a[0]
    scaled[0] = eye + E / d
    for j in range(1, len(a)):
        rho = c[j - 1] / d
        try:
            Y = np.linalg.solve(scaled[j - 1], np.concatenate((E, off[j - 1]), axis=1))
        except np.linalg.LinAlgError:
            raise DegenerateOperatorError("piecewise truncation is singular") from None
        RE, Z = Y[:, :n], Y[:, n:]
        E = diag[j] + rho * rho * RE - rho * (Z + Z.T) - off[j - 1].T @ Z / d
        d = a[j] - rho * c[j - 1]
        scaled[j] = eye + E / d
    signs, logdets = np.linalg.slogdet(scaled)
    if not np.all(signs):
        raise DegenerateOperatorError("piecewise truncation is singular")
    return float(np.prod(signs)), float(np.sum(logdets))


def _hat_trace(nodes: np.ndarray, diag: np.ndarray, off: np.ndarray) -> float:
    """tr(D^{-1} B) from the nodal Green's function of the hat stiffness.

    D^{-1} = G (x) I with G_jk = s_min (t - s_max)/t at the interior nodes,
    exact for hats; B is block tridiagonal, so only the diagonal and first
    off-diagonal of G enter.
    """
    s, t = nodes[1:-1], nodes[-1]
    g_diag = s * (t - s) / t
    g_off = s[:-1] * (t - s[1:]) / t
    return float(
        np.sum(g_diag * np.trace(diag, axis1=1, axis2=2))
        + 2.0 * np.sum(g_off * np.trace(off, axis1=1, axis2=2))
    )


def assemble_hessian_piecewise(sys: JacobiSystem, partition: Partition) -> GalerkinMatrix:
    """Hessian form over interior piecewise-linear fields, H1-orthonormalized.

    Node-major ordering: index (j-1)*n + i for node j = 1..N-1, fiber i.
    The raw hat basis has H1 Gram D with det D = prod delta_j^{-n}; the
    returned matrix is L^{-1} (D + B) L^{-T} with D = L L^T, i.e. the form
    expressed in an H1-orthonormal basis of the hat space.  Zero potential
    gives the identity exactly.
    """
    if partition.N < 2:
        raise DomainError("need at least two segments")
    nodes = np.asarray(partition.times) * sys.t
    diag, off = _hat_blocks(sys, nodes)
    dim = sys.n * (partition.N - 1)
    if not (diag.any() or off.any()):
        return GalerkinMatrix(dim, np.eye(dim), "piecewise", partition.N, sys.n)
    eye = np.eye(sys.n)
    a, c = _hat_stiffness(np.diff(nodes))
    L = np.linalg.cholesky(_block_tridiagonal(a[:, None, None] * eye, c[:, None, None] * eye))
    tmp = np.linalg.solve(L, _block_tridiagonal(diag, off))
    M = np.eye(dim) + np.linalg.solve(L, tmp.T).T
    return GalerkinMatrix(dim, 0.5 * (M + M.T), "piecewise", partition.N, sys.n)


def fredholm_det_piecewise(sys: JacobiSystem, schedule) -> DeterminantEstimate:
    """Fredholm determinant through the piecewise-linear filtration.

    ``schedule`` lists segment counts N (uniform partitions).  Each level's
    raw determinant det(D + B)/det(D) is completed by the trace-defect
    factor exp(Tr_exact - Tr_discrete), which removes the first-order error
    of the hat space (both the unresolved tail and the per-mode stiffness
    bias), leaving O(mesh^2); the extrapolated value applies one mesh^2
    Richardson step when the schedule doubles.  An exactly singular
    truncation raises DegenerateOperatorError.
    """
    schedule = _check_schedule(schedule, "segment counts")
    tr_exact = _trace_exact(sys)
    levels = []
    corrected = []
    tail = 1.0
    for N in schedule:
        nodes = np.asarray(Partition.uniform(N).times) * sys.t
        diag, off = _hat_blocks(sys, nodes)
        a, c = _hat_stiffness(np.diff(nodes))
        sign, logdet = _hat_slogdet(a, c, diag, off)
        raw = float(sign * np.exp(logdet))
        levels.append((sys.n * (N - 1), raw))
        tail = float(np.exp(tr_exact - _hat_trace(nodes, diag, off)))
        corrected.append(raw * tail)
    if len(corrected) > 1 and schedule[-1] == 2 * schedule[-2]:
        extrapolated = corrected[-1] + (corrected[-1] - corrected[-2]) / 3.0
    else:
        extrapolated = corrected[-1]
    err = abs(corrected[-1] - corrected[-2]) if len(corrected) > 1 else 0.0
    return DeterminantEstimate(
        levels=levels,
        tail_correction=tail,
        extrapolated=extrapolated,
        error_estimate=err + 1e-15,
    )


# ---------------------------------------------------------------------------
# evaluation-map Jacobian and short-segment factor chain


def _segment_stiffness(v: float, delta: float):
    """H1 stiffness entries of the two Jacobi shape functions on a segment.

    The shapes solve X'' = v X with endpoint data (1,0) and (0,1); returns
    (diagonal, off-diagonal) of the 2x2 form int X' Y'.  v = 0 reduces to
    the hat stiffness (1/delta, -1/delta).
    """
    if v == 0.0:
        return 1.0 / delta, -1.0 / delta
    if v < 0.0:
        w = np.sqrt(-v)
        x = w * delta
        if x >= np.pi:
            raise DegenerateSegmentError(
                f"segment of phase {x:.3f} >= pi has conjugate endpoints"
            )
        sw, cw = np.sin(x), np.cos(x)
        s_dd = w * w * (delta / 2.0 + np.sin(2.0 * x) / (4.0 * w)) / sw**2
        s_od = -w * w * (delta * cw / 2.0 + sw / (2.0 * w)) / sw**2
        return s_dd, s_od
    m = np.sqrt(v)
    x = m * delta
    if x > 350.0:
        # the entries are (m/2)(x csch^2 x + coth x) and -(m/2) csch x (x coth x + 1);
        # sinh(2x) overflows past x = 354.9, and here coth x = 1, csch x = 2 e^{-x}
        return 0.5 * m, -m * (x + 1.0) * np.exp(-x)
    sh, ch = np.sinh(x), np.cosh(x)
    s_dd = m * m * (delta / 2.0 + np.sinh(2.0 * x) / (4.0 * m)) / sh**2
    s_od = -m * m * (delta * ch / 2.0 + sh / (2.0 * m)) / sh**2
    return s_dd, s_od


def _tridiag_logdet(main: np.ndarray, off: np.ndarray) -> float:
    """log|det| of a symmetric tridiagonal matrix by scaled continuants."""
    logscale = 0.0
    dprev, d = 1.0, main[0]
    for j in range(1, len(main)):
        dnew = main[j] * d - off[j - 1] ** 2 * dprev
        dprev, d = d, dnew
        m = abs(d)
        if m > 1e120 or (0.0 < m < 1e-120):
            logscale += np.log(m)
            dprev /= m
            d /= m
    if d == 0.0:
        raise DegenerateSegmentError("singular Jacobi interpolation Gram")
    return float(np.log(abs(d)) + logscale)


def evaluation_map_jacobian(g: GeodesicData, partition: Partition) -> float:
    """|det d ev_tau| prod_j delta_j^{-n/2} for a constant-curvature geodesic.

    The inverse of the node-evaluation differential sends node vectors to
    the piecewise Jacobi field interpolating them, so |det d ev_tau| is the
    inverse square root of the H1 Gram of those interpolants.  The Gram is
    assembled per fiber direction from closed-form segment stiffness
    blocks (trigonometric for kappa > 0, hyperbolic for kappa < 0); the
    flat case collapses to the hat Gram whose determinant exactly cancels
    the normalization.
    """
    m = g.manifold
    if not isinstance(m, ConstantCurvature):
        raise DomainError("evaluation-map Jacobian implemented for constant curvature")
    if partition.N < 2:
        raise DomainError("need at least two segments")
    deltas = partition.deltas
    if m.kappa > 0:
        conj = np.pi / np.sqrt(m.kappa)
        if np.max(deltas) * g.speed >= conj:
            raise DegenerateSegmentError("a segment reaches the conjugate distance")
    v_fiber = -m.kappa * g.speed**2
    if not np.isfinite(v_fiber):
        raise DomainError(f"kappa r^2 overflows float64 (kappa = {m.kappa:g}, r = {g.speed:g})")
    log_gram = 0.0
    for v, count in ((0.0, 1), (v_fiber, m.n - 1)):
        if count == 0:
            continue
        pairs = [_segment_stiffness(v, d) for d in deltas]
        sd = np.array([p[0] for p in pairs])
        so = np.array([p[1] for p in pairs])
        main = sd[:-1] + sd[1:]
        off = so[1:-1]
        log_gram += count * _tridiag_logdet(main, off)
    logval = -0.5 * (log_gram + m.n * float(np.sum(np.log(deltas))))
    return float(np.exp(logval))


def phi0_chain(m: ConstantCurvature, r: float, partition: Partition) -> float:
    """Product of the leading short-segment heat factors along the chain.

    Each segment of a minimizing geodesic of speed r contributes
    J(segment distance)^{-1/2}; segments must stay inside the injectivity
    radius (guaranteed by the conjugate-distance precondition), so the
    cutoff factor is identically 1.
    """
    if not isinstance(m, ConstantCurvature):
        raise DomainError("closed-form chain requires constant curvature")
    if r < 0:
        raise DomainError("speed must be >= 0")
    total = 1.0
    for d in partition.deltas * r:
        if m.kappa > 0 and d >= np.pi / np.sqrt(m.kappa):
            raise CutLocusError(f"segment distance {d:.4f} reaches the cut locus")
        total *= exp_jacobian_closed_form(m, d) ** (-0.5)
    return float(total)
