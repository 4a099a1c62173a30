"""Fredholm determinants of id + P^{-1} V by nested finite truncations.

The Hessian form of the path energy at a geodesic is id + P^{-1} V on the
Dirichlet H1 space, with V the curvature term.  Its Fredholm determinant is
the limit of ordinary determinants over any nested filtration with dense
union.  Two filtrations are implemented: spans of the first K sine modes,
and piecewise-linear fields over a partition.  Truncations are completed by
analytic tail corrections built from the explicit 1/k^2 decay of P^{-1},
which upgrades the O(1/K) raw convergence to O(1/K^3) and better.
"""

import math
from dataclasses import dataclass, field
from math import factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyval

from .errors import (
    ConjugatePointError,
    DegenerateOperatorError,
    DomainError,
    IllSeparatedKernelError,
    RouteDisagreementError,
)
from .errors import check_count, check_memory, check_real, normal_exp, printable, signed_exp
from .geometry import ConstantCurvature, GeodesicData, JacobiSystem, _log_exp_jacobian
from .interval import composite_gauss, mode_cosine_moments, mode_quadrature

__all__ = [
    "Partition",
    "GalerkinMatrix",
    "PiecewiseHessian",
    "DeterminantEstimate",
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

KERNEL_TOL = 1e-8  # eigenvalues below this form a level's kernel
KERNEL_GAP_FACTOR = 100.0
_TAIL_ORDERS = 4  # powers of the eigenvalue decay kept in the analytic tail
# largest phase sqrt(-lambda_min(V)) delta a segment of the finest piecewise
# level may span: hats cannot follow faster oscillation, and at 0.62 rad the
# last two levels of V = -1e5 on [0, 1] agreed by accident
PIECEWISE_PHASE_BOUND = 0.35
# Gauss-Legendre nodes per segment of the finest piecewise level: a varying
# potential's only samples, which every level whose N divides it reads
_HAT_NODES = 4


@dataclass(frozen=True)
class Partition:
    """Partition 0 = tau_0 < ... < tau_N = 1 of the unit interval."""

    times: tuple

    def __post_init__(self):
        # any number passes here, NaN and inf included, for the checks below
        message = "partition times must be numbers, got {}"
        ts = tuple(
            t if type(t) is float else float(check_real(t, lambda v: math.isnan(v) or True, message))
            for t in self.times
        )
        object.__setattr__(self, "times", ts)
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
            raise DomainError("partition must run from 0.0 to 1.0")
        if any(not b > a for a, b in zip(ts, ts[1:])):  # NaN-safe
            raise DomainError("partition times must be strictly increasing")

    @classmethod
    def uniform(cls, N: int) -> "Partition":
        count = check_count(N, 2, "need an integer count of at least two segments, got {!r}")
        check_memory(count + 1, "{} segments need {} for the partition times", count)
        return cls(tuple(np.linspace(0.0, 1.0, count + 1).tolist()))

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
    """Dense symmetric truncation of the Hessian form over the first K sine modes.

    :func:`assemble_hessian_fourier` builds it.  ``coupled`` lists the
    fibers whose row or column of V is nonzero at some node; every other
    fiber is a block of the identity, so only ``block`` (Kw, Kw), the
    k-major matrix on the w coupled fibers, is stored.  ``mean`` is the
    average of V over [0, t] on the rule, and ``samples`` (Q, n, n) holds V
    at the rule's nodes.
    """

    dimension: int
    block: np.ndarray
    mean: np.ndarray
    coupled: np.ndarray
    samples: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The whole (nK, nK) matrix in k-major ordering: ``block`` embedded in the identity."""
        M = np.eye(self.dimension)
        width = len(self.coupled)
        if width:
            K = len(self.block) // width
            keep = (self.dimension // K * np.arange(K)[:, None] + self.coupled).ravel()
            M[np.ix_(keep, keep)] = self.block
        return M


@dataclass
class PiecewiseHessian:
    """One level of the hat filtration: the Hessian form D + B in n x n blocks.

    ``diag`` (N-1, n, n) and ``off`` (N-2, n, n) are the diagonal and upper
    off-diagonal blocks of B, off block j coupling interior nodes j and
    j + 1; ``a`` and ``c`` are the scalars of the hat stiffness D; and
    ``samples`` (N, m, n, n) holds V at the m quadrature nodes of each segment.
    """

    dimension: int
    diag: np.ndarray
    off: np.ndarray
    a: np.ndarray
    c: np.ndarray
    samples: np.ndarray
    green_trace: float
    bump_trace: float


@dataclass
class DeterminantEstimate:
    """Determinant along a filtration, tail-completed and extrapolated.

    levels holds (subspace dimension, raw truncated determinant).  The
    tail_correction is the multiplicative analytic completion at the finest
    level; extrapolated is the reported value and error_estimate its
    uncertainty (both built by ``_estimate``).  kernel_dimension counts the
    eigenvalues the deflated route removed at the finest level.
    """

    levels: list = field(default_factory=list)
    tail_correction: float = 1.0
    extrapolated: float = 0.0
    error_estimate: float = 0.0
    kernel_dimension: int = 0


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


def _check_schedule(schedule, what: str, least: int) -> list:
    """The schedule as a list; DomainError unless it increases and holds integers >= least."""
    try:
        entries = tuple(schedule)
    except TypeError:  # a bare count or None is no list
        entries = None
    got = schedule if entries is None else entries
    message = f"schedule must be a nonempty increasing list of integer {what} >= {least}, got {{!r}}"
    counts = [check_count(v, least, message, got) for v in entries or ()]
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])):
        raise DomainError(message.format(printable(got)))
    return counts


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


def _estimate(levels, richardson: bool = False, kernel_dimension: int = 0) -> DeterminantEstimate:
    """The DeterminantEstimate of a filtration's levels; every route builds it here.

    ``levels`` holds (subspace dimension, (sign, log|det|) of the truncated
    determinant, log of its tail completion) for each level, coarsest first,
    and both logs leave through ``signed_exp``.  The reported value is the
    finest completed level, plus one mesh^2 Richardson step when
    ``richardson`` is set (a doubling piecewise schedule).  The error
    estimate is the change between the last two completed levels, or the
    size of the completion for a one-level schedule.  A value beyond float64
    raises DomainError.
    """
    dims, dets, log_tails = zip(*levels)
    raws = [signed_exp(*det) for det in dets]
    tails = [signed_exp(1.0, log_tail) for log_tail in log_tails]
    completed = [raw * tail for raw, tail in zip(raws, tails)]
    extrapolated = completed[-1]
    if len(completed) > 1:
        err = abs(completed[-1] - completed[-2])
        if richardson:
            extrapolated += (completed[-1] - completed[-2]) / 3.0
    else:
        err = abs(completed[-1] - raws[-1])
    if not all(map(math.isfinite, [*completed, *raws, extrapolated, err])):
        raise DomainError("a truncated or tail-completed determinant overflows float64")
    return DeterminantEstimate(
        levels=list(zip(dims, raws)),
        tail_correction=tails[-1],
        extrapolated=extrapolated,
        error_estimate=err + 1e-15,
        kernel_dimension=kernel_dimension,
    )


def assemble_hessian_fourier(sys: JacobiSystem, K: int) -> GalerkinMatrix:
    """Matrix of id + P^{-1} V over the first K H1-orthonormal sine modes.

    Entries are delta + (V F_ik, F_jl)_{L2} in k-major ordering, so the
    leading principal submatrices realize the nested mode filtration.  With
    F_k = a_k sin(pi k s/t), a_k = sqrt(2t)/(pi k), the product-to-sum
    identity makes block (k, l) of fibers (i, j) Toeplitz minus Hankel,
    a_k a_l [C_ij(|k - l|) - C_ij(k + l)]/2, from the half-wave moments
    C_ij(m) = int V_ij cos(pi m s/t), m = 0..2K.  One pass samples V on a
    composite Gauss-Legendre rule sized for the k + l oscillation, and one
    FFT gives every moment of the coupled fiber pairs i <= j; for a constant
    potential that reproduces the block-diagonal I + V t^2/(pi^2 k^2).
    Only the (Kw, Kw) block of the w coupled fibers is filled; the whole
    matrix is never made unless ``entries`` is read.  A K that is not an
    integer >= 1, or whose (nK)^2 entries exceed the physical memory,
    raises DomainError.
    """
    K = _check_schedule((K,), "mode counts", 1)[0]
    n, t = sys.n, sys.t
    dim = n * K
    message = f"{{}} modes need {{}} for the Galerkin matrix of fiber dimension {n}"
    check_memory(dim * dim, message, K)
    nodes, weights = mode_quadrature(t, 2 * K)
    Vq = sys.sample(nodes)  # (Q, n, n)
    # a fiber whose row and column of V vanish at every node (the tangent
    # fiber of synthetic systems) is a block of the identity
    nonzero = Vq.any(axis=0)
    coupled = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    width = len(coupled)
    a, b = np.triu_indices(width)  # pairs a <= b of coupled fibers
    i, j = coupled[a], coupled[b]
    C = mode_cosine_moments(weights * (0.5 * (Vq[:, i, j] + Vq[:, j, i])).T, np.arange(2 * K + 1))
    # C(|k - l|) and C(k + l) as K x K windows onto each pair's moments
    folded = np.concatenate([C[:, K - 1 : 0 : -1], C[:, :K]], 1)  # C(|m|), m = 1-K..K-1
    toeplitz = sliding_window_view(folded, K, 1)[:, ::-1]
    hankel = sliding_window_view(C[:, 2:], K, 1)
    amp = np.sqrt(2.0 * t) / (np.pi * np.arange(1, K + 1))
    W = np.zeros((K, width, K, width))
    W[:, a, :, b] = W[:, b, :, a] = 0.5 * np.outer(amp, amp) * (toeplitz - hankel)
    block = W.reshape(K * width, K * width)
    block.flat[:: K * width + 1] += 1.0
    mean = np.zeros((n, n))
    mean[i, j] = mean[j, i] = C[:, 0] / t
    return GalerkinMatrix(dim, block, mean, coupled, Vq)


def _fourier_levels(sys: JacobiSystem, schedule):
    """The mode filtration's levels for ``_estimate`` and each level's kernel dimension.

    A constant V is diagonalized once: its eigenvalues v give the tail's
    c = v t^2/pi^2 and each level's factors 1 + v t^2/(pi^2 k^2).  A varying V
    is assembled once, at the finest level, the tail reads its mean matrix,
    and the levels are the leading Kw rows of its coupled block
    (an uncoupled fiber's eigenvalues 1 add 0 to log|det| and never
    decide the kernel test).  When ``_positivity_bound`` of the samples
    exceeds KERNEL_GAP_FACTOR KERNEL_TOL, one Cholesky factor L of the
    finest block gives every level: the block is k-major, so a level's
    log det is 2 sum log L_ii over its leading rows, and interlacing keeps
    every level's eigenvalues above the bound, so no level has a kernel.
    Otherwise each level's block is diagonalized and read by
    ``deflated_matrix_determinant``.  A tail series in c/k^2 that diverges,
    (K + 1)^2 <= max|c| at the finest K, raises DomainError before any
    level is factored, as does a finest level whose n K spectrum (constant V)
    or (n K)^2 entries exceed the physical memory.
    """
    schedule = _check_schedule(schedule, "mode counts", 1)
    n, t = sys.n, sys.t
    if sys.is_constant:
        finest = schedule[-1]
        check_memory(n * finest, "{} modes need {} for the spectrum of the finest level", finest)
        v = np.linalg.eigvalsh(sys(0.0))
        spectrum = lambda K: 1.0 + np.outer(v, t**2 / (np.pi**2 * np.arange(1, K + 1) ** 2)).ravel()
    else:
        G = assemble_hessian_fourier(sys, schedule[-1])
        v = np.linalg.eigvalsh(G.mean)
        block, width = G.block, len(G.coupled)
        spectrum = lambda K: np.linalg.eigvalsh(block[: K * width, : K * width])
    c = v * t**2 / np.pi**2
    cmax = float(np.max(np.abs(c)))
    if cmax >= (schedule[-1] + 1) ** 2:
        raise DomainError(
            f"the tail series diverges at {schedule[-1]} modes; "
            f"the finest level needs at least {int(np.sqrt(cmax))} modes"
        )
    level = lambda K: deflated_matrix_determinant(spectrum(K))
    if not sys.is_constant and _positivity_bound(G.samples, t) > KERNEL_GAP_FACTOR * KERNEL_TOL:
        try:
            logs = 2.0 * np.log(np.diagonal(np.linalg.cholesky(block)))
            level = lambda K: ((1.0, float(np.sum(logs[: K * width]))), 0)
        except np.linalg.LinAlgError:  # rounding beat the bound: diagonalize instead
            pass
    dets, kdims = zip(*(level(K) for K in schedule))
    levels = [(n * K, det, _tail_log_correction(c, K)) for K, det in zip(schedule, dets)]
    return levels, kdims


def _positivity_bound(samples: np.ndarray, t: float) -> float:
    """A lower bound of the eigenvalues of every mode truncation assembled from ``samples``.

    On the span of sine modes on [0, t], ||u||_L2^2 <= (t/pi)^2 ||u||_H1^2,
    and the assembled form pairs V only at the rule's nodes, where
    mu = min(0, the Gershgorin bound of the symmetric part of each sample)
    bounds it below; so id + P^{-1} V >= 1 + mu t^2/pi^2.
    """
    mu = float(np.min(_gershgorin_lower(0.5 * samples + 0.5 * samples.transpose(0, 2, 1))))
    return 1.0 + min(mu, 0.0) * t**2 / np.pi**2


def fredholm_det(sys: JacobiSystem, schedule) -> DeterminantEstimate:
    """Fredholm determinant of id + P^{-1} V through the mode filtration.

    The estimate of :func:`fredholm_det_deflated`, field for field, when no
    level of the increasing schedule has a kernel: each level's determinant
    from its eigenvalues, completed by the analytic tail correction.  A level
    that route deflates raises DegenerateOperatorError; small eigenvalues
    without its 100x spectral gap raise IllSeparatedKernelError,
    deliberately, as no route has a value there.
    """
    levels, kdims = _fourier_levels(sys, schedule)
    if any(kdims):
        raise DegenerateOperatorError(
            "truncated operator is singular; call fredholm_det_deflated"
        )
    return _estimate(levels)


def deflated_matrix_determinant(evals: np.ndarray):
    """Determinant of a symmetric matrix, given its eigenvalues, with its numeric kernel removed.

    Eigenvalues of magnitude below KERNEL_TOL form the kernel candidate;
    a relative spectral gap of at least 100x between them and the rest is
    required.  Returns ((sign, log|det|) of the other eigenvalues' product,
    kernel_dimension).
    """
    small = np.abs(evals) < KERNEL_TOL
    kdim = int(np.count_nonzero(small))
    if kdim and kdim < len(evals):
        gap = np.min(np.abs(evals[~small])) / max(np.max(np.abs(evals[small])), 1e-300)
        if gap < KERNEL_GAP_FACTOR:
            raise IllSeparatedKernelError(
                f"spectral gap {gap:.2g} below required factor {KERNEL_GAP_FACTOR}"
            )
    kept = evals[~small]
    return (float(np.prod(np.sign(kept))), float(np.sum(np.log(np.abs(kept))))), kdim


def fredholm_det_deflated(sys: JacobiSystem, schedule=(64, 128, 256)) -> DeterminantEstimate:
    """Fredholm determinant restricted to the complement of the numeric kernel.

    The nullspace of each truncation is detected from its eigenvalues
    (magnitude below KERNEL_TOL, guarded by a 100x spectral gap); the
    reported kernel_dimension comes from the finest level.  The analytic
    tail correction applies unchanged since all tail modes are regular.
    """
    levels, kdims = _fourier_levels(sys, schedule)
    return _estimate(levels, kernel_dimension=kdims[-1])


def hessian_trace(sys: JacobiSystem) -> float:
    """Trace of the Hessian form minus the identity, checked two ways.

    Route (a) sums the diagonal matrix elements over the first 512 sine
    modes and completes the sum with the analytic 1/k^2 and 1/k^4 tails.
    Route (b) integrates the potential trace against s(t-s)/t on the
    samples route (a) takes, which is the Ricci-integral form (for a
    constant-curvature geodesic it equals -(n-1) kappa r^2 / 6).  Both must
    agree to 1e-8; otherwise RouteDisagreementError is raised.
    """
    t, K = sys.t, 512
    # (V F_k, F_k) summed over fibers = (t/pi^2 k^2)(int tr V - c_k), with
    # c_k = int tr V cos(2 pi k s/t).  Beyond the explicitly summed modes the
    # first term gives the 1/k^2 tail; the second, the oscillatory remainder,
    # decays like t^3 [tr V']_0^t / (4 pi^4 k^4), so its tail is the last
    # summed remainder times k^4 zeta(4, k + 1).  The sum is cut where the
    # quadrature still resolves every retained frequency.
    nodes, weights = mode_quadrature(t, 2 * K)
    fw = weights * np.einsum("qii->q", sys.sample(nodes))
    integral = float(np.sum(fw))
    c = mode_cosine_moments(fw, np.arange(2, 2 * K + 1, 2))
    scale = t / (np.pi * np.arange(1, K + 1)) ** 2
    route_a = float(np.sum(scale * (integral - c))) + integral * t / np.pi**2 * _zeta_tail(K, 1)
    route_a -= float(scale[-1] * c[-1]) * K**4 * _zeta_tail(K, 2)
    route_b = float(np.sum(fw * nodes * ((t - nodes) / t)))
    if not abs(route_a - route_b) < 1e-8 * max(1.0, abs(route_b)):
        raise RouteDisagreementError(f"trace routes disagree: {route_a} vs {route_b}")
    return route_a


_BERNOULLI_CHUNK = 2**15  # terms of bernoulli_cosine_sum computed per pass


def bernoulli_cosine_sum(s: float, K: int) -> float:
    """Partial sum sum_{k<=K} cos(2 pi k s)/(pi^2 k^2).

    Converges to s^2 - s + 1/6 on [0, 1] (the quadratic Bernoulli
    polynomial), which is what makes the trace integrand s(1-s).  A
    non-finite s or a K that is no count >= 0 is a DomainError.

    It holds one K-term array, filled 2^15 terms at a time: 8 MB at
    K = 10^6, where the whole-array temporaries of the one-expression form
    np.sum(np.cos(2 pi k s) / (pi^2 k^2)) take 23 MB.  Each term is that
    form's expression and one np.sum adds them pairwise alike, so the
    result is bit-identical to it.
    """
    K = check_count(K, 0, "need K >= 0 terms, got {}")
    check_real(s, math.isfinite, "s must be finite, got {}")
    terms = np.empty(K)
    for lo in range(0, K, _BERNOULLI_CHUNK):
        k = np.arange(lo + 1, min(lo + _BERNOULLI_CHUNK, K) + 1, dtype=float)
        terms[lo : lo + len(k)] = np.cos(2.0 * np.pi * k * s) / (np.pi**2 * k**2)
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# piecewise-linear (hat field) filtration
#
# Over the interior hats of a partition the Hessian form is D + B: D the H1
# Gram of the hats (tridiagonal, blocks a_j I and c_j I) and B the L2 pairing
# against the potential (block tridiagonal with n x n blocks).  The
# determinant det(D + B)/det(D) -- of the discrete Jacobi equation along the
# piecewise geodesic -- comes from block cyclic reduction in ceil(log2 N)
# batched stages, and tr(D^{-1} B) needs only the nodal Green's function of
# D, so a level costs O(N n^3).


def _hat_stiffness(deltas: np.ndarray):
    """Scalar diagonal a_j and off-diagonal c_j of the hat stiffness D.

    a_j = 1/delta_j + 1/delta_{j+1} and c_j = -1/delta_{j+1}; D is a_j I and
    c_j I in blocks.
    """
    inv = 1.0 / deltas
    return inv[:-1] + inv[1:], -inv[1:-1]


def _gershgorin_lower(V: np.ndarray) -> np.ndarray:
    """The Gershgorin lower bound min_i (V_ii - sum_{j != i} |V_ij|) of each matrix of the stack ``V``."""
    diag = np.diagonal(V, axis1=1, axis2=2)
    return np.min(diag + np.abs(diag) - np.sum(np.abs(V), axis=2), axis=1)


def _check_resolution(Vq: np.ndarray, t: float, N: int) -> None:
    """DomainError unless each of N segments on [0, t] spans at most
    PIECEWISE_PHASE_BOUND of the phase sqrt(-lambda_min(V)) at the samples ``Vq``.

    A Gershgorin lower bound of lambda_min screens the samples, so only
    those that may break the bound are diagonalized.
    """
    V = Vq.reshape((-1,) + Vq.shape[-2:])
    limit = -((PIECEWISE_PHASE_BOUND * N / t) ** 2)
    suspects = V[_gershgorin_lower(V) < limit]
    if not suspects.size:
        return
    lam = float(np.min(np.linalg.eigvalsh(suspects)))
    if lam < limit:
        phase = np.sqrt(-lam) * t
        raise DomainError(
            f"the piecewise mesh does not resolve the potential: {phase / N:.3g} rad per "
            f"segment at N = {N} exceeds {PIECEWISE_PHASE_BOUND}; the finest level needs "
            f"at least {int(np.ceil(phase / PIECEWISE_PHASE_BOUND))} segments"
        )


def _hat_slogdet(a, c, diag: np.ndarray, off: np.ndarray):
    """(sign, log|det|) of det(D + B)/det(D) by block cyclic reduction.

    D + B has diagonal blocks A_j = a_j I + P_j and upper off-diagonal
    blocks C_j = c_j I + Q_j (P = ``diag``, Q = ``off``), D the same with
    P = Q = 0.  Each stage eliminates every odd-indexed node o at once: the
    pivots S_o = I + P_o/a_o give det(A_o)/a_o^n, and the Schur complement
    on the even nodes is again of this form, with the scalar hat stiffness
    reduced alongside,

        a'_k = a_{2k} - c_{2k}^2/a_{2k+1} - c_{2k-1}^2/a_{2k-1},
        c'_k = -c_{2k} c_{2k+1}/a_{2k+1},

    and only the O(mesh) blocks P and Q carried.  With R = S_o^-1,
    R - I = -R P_o/a_o, so an odd node o with left coupling C_L = C_{o-1}
    and right coupling C_U = C_o updates its even neighbours as

        P_{o-1} -= (c_L^2 (R - I) + c_L (Z + Z^T) + Q_L Z)/a_o,       Z = R Q_L^T
        P_{o+1} -= (c_U^2 (R - I) + c_U (Y + Y^T) + Q_U^T Y)/a_o,     Y = R Q_U
        Q'       = -(c_L c_U (R - I) + c_L Y + c_U Z^T + Q_L Y)/a_o,

    which never subtracts two O(1/mesh) numbers.  Forming S_o rounds the
    diagonal of P_o/a_o, far below 1 on fine meshes, to the spacing of 1;
    each pivot's log det adds back the first-order effect of the dropped
    bits.  The ceil(log2 N) stages cost O(N n^3) in all.  An exactly
    singular pivot raises DegenerateOperatorError.  Both discrete Jacobi
    determinants use it: ``fredholm_det_piecewise`` for each level, and
    ``evaluation_map_jacobian`` with 1 x 1 blocks B = C.
    """
    n = diag.shape[1]
    eye = np.eye(n)
    P, Q = diag, off
    sign, logdet = 1.0, 0.0

    def eliminate(Po, ao, rhs):
        """Add log det S to the total for S = I + Po/ao; return S^-1 rhs, whose
        first n columns must be Po."""
        nonlocal sign, logdet
        X = Po / ao[:, None, None]
        S = eye + X
        signs, logs = np.linalg.slogdet(S)
        if not np.all(signs):
            raise DegenerateOperatorError("piecewise truncation is singular")
        Y = np.linalg.solve(S, rhs)
        # S holds the diagonal of X only to the spacing of 1; the dropped bits
        # d change log det S by tr(S^-1 d), with diag S^-1 = 1 - diag(Y)/ao
        dropped = np.diagonal(X, axis1=1, axis2=2) - (np.diagonal(S, axis1=1, axis2=2) - 1.0)
        r = 1.0 - np.diagonal(Y[:, :, :n], axis1=1, axis2=2) / ao[:, None]
        sign *= float(np.prod(signs))
        logdet += float(np.sum(logs) + np.sum(r * dropped))
        return Y

    while len(a) > 1:
        ao, cL, cU = a[1::2], c[0::2], c[1::2]  # odd nodes and their left/right couplings
        h, hu = len(ao), len(cU)  # the first hu odd nodes have a right neighbour
        QL, QU = Q[0::2], Q[1::2]
        rhs = np.zeros((h, n, 3 * n))
        rhs[:, :, :n] = P[1::2]
        rhs[:, :, n : 2 * n] = QL.transpose(0, 2, 1)
        rhs[:hu, :, 2 * n :] = QU
        sol = eliminate(P[1::2], ao, rhs)
        w = (1.0 / ao)[:, None, None]
        RmI = -sol[:, :, :n] * w
        Z, Y = sol[:, :, n : 2 * n], sol[:hu, :, 2 * n :]
        l, u = cL[:, None, None], cU[:, None, None]
        Pe, ae = P[0::2].copy(), a[0::2].copy()
        Pe[:h] -= w * (l * l * RmI + l * (Z + Z.transpose(0, 2, 1)) + QL @ Z)
        Pe[1 : hu + 1] -= w[:hu] * (
            u * u * RmI[:hu] + u * (Y + Y.transpose(0, 2, 1)) + QU.transpose(0, 2, 1) @ Y
        )
        ae[:h] -= cL * cL / ao
        ae[1 : hu + 1] -= cU * cU / ao[:hu]
        l, w = l[:hu], w[:hu]
        Q = -w * (l * u * RmI[:hu] + l * Y + u * Z[:hu].transpose(0, 2, 1) + QL[:hu] @ Y)
        c = -cL[:hu] * cU / ao[:hu]
        a, P = ae, Pe
    eliminate(P, a, P)
    return sign, logdet


def _hat_rule(sys: JacobiSystem, nodes: np.ndarray):
    """The _HAT_NODES-point Gauss-Legendre rule on each segment of ``nodes`` and V
    there: (points, weights) of shape (N, _HAT_NODES) and samples (N, _HAT_NODES, n, n)."""
    sq, wq = composite_gauss(nodes, _HAT_NODES)
    return sq, wq, sys.sample(sq.ravel()).reshape(sq.shape + (sys.n, sys.n))


def assemble_hessian_piecewise(sys: JacobiSystem, partition: Partition, rule=None) -> PiecewiseHessian:
    """The Hessian form over the interior hats of ``partition``, scaled to [0, t].

    A _HAT_NODES-point Gauss-Legendre rule per segment samples the
    potential once per node, and the blocks of B and both trace integrals
    come from those samples.  The 4-point rule is exact for hat moments of
    a V of degree <= 5 on a segment, and its O(mesh^8) error sits far below
    the O(mesh^4) error of the Richardson-extrapolated filtration.  A
    ``rule`` (points, weights, samples) of shapes (N, m), (N, m) and
    (N, m, n, n), m nodes on each of the N segments on [0, t], replaces that
    rule and its samples: ``fredholm_det_piecewise`` passes the finest
    level's, m = _HAT_NODES N_finest/N, which integrates the hat moments of
    a segment on its subsegments.  The traces are green_trace = int tr V
    s(t-s)/t and bump_trace = int tr V h u(1-u), u the position of s in its
    segment of length h; their difference is tr(D^{-1} B): with D^{-1} =
    G (x) I, G_jk = s_min (t - s_max)/t, sum_jk G_jk phi_j phi_k = s(t-s)/t
    - h u(1-u), and no product reaches t^2.  Fewer than two segments, or a
    rule of another segment count, raise DomainError.
    """
    if partition.N < 2:
        raise DomainError("need at least two segments")
    nodes = np.asarray(partition.times) * sys.t
    sq, wq, Vq = _hat_rule(sys, nodes) if rule is None else rule
    if len(sq) != partition.N:
        raise DomainError(f"the rule covers {len(sq)} segments, the partition {partition.N}")
    deltas = np.diff(nodes)
    t, lo, hi, h = nodes[-1], nodes[:-1, None], nodes[1:, None], deltas[:, None]
    up = (sq - lo) / h  # hat rising on the segment (its right node)
    down = (hi - sq) / h  # hat falling (its left node)

    def moment(f):
        return np.einsum("sq,sqij->sij", wq * f, Vq)

    fw = wq * np.trace(Vq, axis1=2, axis2=3)
    return PiecewiseHessian(
        sys.n * (partition.N - 1),
        moment(up * up)[:-1] + moment(down * down)[1:],
        moment(down * up)[1:-1],
        *_hat_stiffness(deltas),
        Vq,
        float(np.sum(fw * sq * ((t - sq) / t))),
        float(np.sum(fw * h * up * (1.0 - up))),
    )


def fredholm_det_piecewise(sys: JacobiSystem, schedule) -> DeterminantEstimate:
    """Fredholm determinant through the piecewise-linear filtration.

    ``schedule`` lists segment counts N (uniform partitions), and one call
    of :func:`assemble_hessian_piecewise` builds each level, coarsest first.
    Its raw determinant det(D + B)/det(D), from block cyclic reduction of
    the hat blocks in O(N n^3), is completed by the trace-defect factor
    exp(Tr_exact - Tr_discrete), which removes the first-order error of the
    hat space (both the unresolved tail and the per-mode stiffness bias),
    leaving O(mesh^2); the extrapolated value applies one mesh^2 Richardson
    step when the schedule doubles.  The potential is sampled once, on the
    finest level's rule, and every level whose N divides the finest reads
    those samples as a composite rule of _HAT_NODES N_finest/N nodes per
    segment; a level that does not divide it samples its own rule.
    Tr_discrete = tr(D^{-1} B) comes from each level's rule, Tr_exact =
    int tr V(s) s(t-s)/t from the finest, so a doubling schedule samples
    the potential at _HAT_NODES N_finest points and nowhere else.  An
    exactly singular truncation raises DegenerateOperatorError, and so does
    a value within its error estimate of zero whose last two raw
    determinants share a sign and fall at least as fast as the mesh (a
    k-dimensional kernel makes them fall like mesh^(2k)); a finest level
    whose segments span more than PIECEWISE_PHASE_BOUND rad of the phase
    sqrt(-lambda_min(V)) raises DomainError naming the segment count needed.
    """
    schedule = _check_schedule(schedule, "segment counts", 2)
    finest = schedule[-1]
    partitions = [Partition.uniform(N) for N in schedule]
    shared = _hat_rule(sys, np.asarray(partitions[-1].times) * sys.t)
    levels = []
    for N, partition in zip(schedule, partitions):
        rule = tuple(x.reshape((N, -1) + x.shape[2:]) for x in shared) if finest % N == 0 else None
        H = assemble_hessian_piecewise(sys, partition, rule=rule)
        if N == finest:
            _check_resolution(H.samples, sys.t, N)
        levels.append((H.dimension, _hat_slogdet(H.a, H.c, H.diag, H.off), H))
    # H is now the finest level, whose rule gives Tr_exact
    levels = [(dim, det, H.green_trace - h.green_trace + h.bump_trace) for dim, det, h in levels]
    est = _estimate(levels, richardson=len(schedule) > 1 and schedule[-1] == 2 * schedule[-2])
    if len(schedule) > 1 and abs(est.extrapolated) <= est.error_estimate:
        # a k-dimensional kernel makes the raw determinant fall like mesh^(2k);
        # a coarse mesh alone leaves no such trend
        (sign_c, log_c), (sign_f, log_f) = levels[-2][1], levels[-1][1]
        if sign_c == sign_f and log_c - log_f >= math.log(finest / schedule[-2]):
            raise DegenerateOperatorError(
                f"the piecewise determinant {est.extrapolated:.3g} is within its error estimate "
                f"{est.error_estimate:.3g} of zero and its levels fall toward zero; "
                "call fredholm_det_deflated"
            )
    return est


# ---------------------------------------------------------------------------
# evaluation-map Jacobian and short-segment factor chain

# Taylor coefficients in z of sigma^2 = sinh^2(x)/x^2 (x^2 = z) and, from
# z^2 on, of the numerators of p and q in _shape_stiffness_defects
_SERIES_K = range(14)
_SIGMA2 = [2 ** (2 * k + 1) / factorial(2 * k + 2) for k in _SERIES_K]
_P_NUM = [4**k * (2 * k - 2) / factorial(2 * k + 2) for k in _SERIES_K[2:]]
_Q_NUM = [4 * (4**k - (k + 1) ** 2) / factorial(2 * k + 2) for k in _SERIES_K[2:]]


def _shape_stiffness_defects(z: np.ndarray):
    """(p, q) = (delta s_dd - 1, delta s_od + 1) of the Jacobi shapes at z = v delta^2.

    The shapes solve X'' = v X on a segment of length delta with endpoint
    data (1, 0) and (0, 1); s_dd and s_od are their diagonal and
    off-diagonal H1 stiffness, so p/delta and q/delta are what they add to
    the hat stiffness (1/delta, -1/delta).  With x^2 = z,

        p = (1 + sinh(2x)/(2x) - 2 sigma^2)/(2 sigma^2),
        q = (2 sigma^2 - cosh x - sinh(x)/x)/(2 sigma^2),

    evaluated without cancellation: by power series for |z| <= 1 (the z^0
    and z^1 terms of both numerators cancel exactly), by the sin form for
    z < -1, and for z > 1 by the csch/coth form with
    csch x = 2 e^-x/(1 - e^-2x), which cannot overflow.
    """
    p, q = np.empty_like(z), np.empty_like(z)
    series, neg, pos = np.abs(z) <= 1.0, z < -1.0, z > 1.0
    zs = z[series]
    two_sigma2 = 2.0 * polyval(zs, _SIGMA2)
    p[series] = zs * zs * polyval(zs, _P_NUM) / two_sigma2
    q[series] = zs * zs * polyval(zs, _Q_NUM) / two_sigma2
    x = np.sqrt(-z[neg])
    sin, cot = np.sin(x), 1.0 / np.tan(x)
    p[neg] = 0.5 * x * (x / (sin * sin) + cot) - 1.0
    q[neg] = 1.0 - 0.5 * x * (x * cot + 1.0) / sin
    x = np.sqrt(z[pos])
    den = -np.expm1(-2.0 * x)
    csch, coth = 2.0 * np.exp(-x) / den, (2.0 - den) / den
    p[pos] = 0.5 * x * (x * csch * csch + coth) - 1.0
    q[pos] = 1.0 - 0.5 * x * csch * (x * coth + 1.0)
    return p, q


def evaluation_map_jacobian(g: GeodesicData, partition: Partition) -> float:
    """|det d ev_tau| prod_j delta_j^{-n/2} for a constant-curvature geodesic.

    The inverse of the node-evaluation differential sends node vectors to
    the piecewise Jacobi field interpolating them, so |det d ev_tau| is the
    inverse square root of the H1 Gram of those interpolants.  Along the
    tangent the Gram is the hat stiffness D, with det D = 1/prod delta_j on
    [0, 1]; along each of the n - 1 curved directions it is D + C, with C
    the segment-by-segment defect of ``_shape_stiffness_defects``.  So the
    value is det(I + D^-1 C)^{-(n-1)/2}, whose log comes from
    ``_hat_slogdet`` on 1 x 1 blocks -- the block cyclic reduction
    ``fredholm_det_piecewise`` uses for its levels.  Flat space, or n = 1,
    gives exactly 1; a value outside the normal float64 range is a DomainError.
    """
    m = g.manifold
    if not isinstance(m, ConstantCurvature):
        raise DomainError("evaluation-map Jacobian implemented for constant curvature")
    if partition.N < 2:
        raise DomainError("need at least two segments")
    deltas = partition.deltas
    if np.max(deltas) * g.speed >= m.conjugate_distance:
        raise ConjugatePointError("a segment reaches the conjugate distance")
    p, q = _shape_stiffness_defects(-(m.kappa * g.speed * g.speed) * deltas * deltas)
    p, q = p / deltas, q / deltas
    a, c = _hat_stiffness(deltas)
    diag, off = p[:-1] + p[1:], q[1:-1]
    _, logdet = _hat_slogdet(a, c, diag[:, None, None], off[:, None, None])
    return normal_exp(-0.5 * (m.n - 1) * logdet, f"evaluation-map Jacobian of speed {g.speed:.4g} on {m}")


def phi0_chain(m: ConstantCurvature, r: float, partition: Partition) -> float:
    """Product of the leading short-segment heat factors along the chain.

    Each segment of a minimizing geodesic of speed r contributes
    J(segment distance)^{-1/2}; segments must stay inside the injectivity
    radius (guaranteed by the conjugate-distance precondition), so the
    cutoff factor is identically 1.  The Jacobians are summed as logs, so
    only the product must lie in float64 (DomainError).  A segment that
    reaches pi/sqrt(kappa) raises ConjugatePointError.
    """
    log_chain = -0.5 * sum(_log_exp_jacobian(m, d) for d in partition.deltas * r)
    return normal_exp(log_chain, f"phi0 chain of speed {r:.4g} on {m}")
