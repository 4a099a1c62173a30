"""Determinants through the matrix Jacobi initial value problem.

Solving J'' = V J with J(0) = 0, J'(0) = id turns infinite-dimensional
determinant ratios into boundary data of an ODE: for positive operators
P_i = -d^2/ds^2 + V_i on [0, t],

    det_zeta(P_2) / det_zeta(P_1) = det J_2(t) / det J_1(t),

and the free operator has the closed form det_zeta(-d^2/ds^2) = (2t)^n
(:mod:`geodet.zeta`).
When the operator has zero modes, det J(t) vanishes and the ratio is
replaced by a boundary expression in J(t), J'(t) and int J^T J on the
kernel of J(t); every run carries J and J' alone.
"""

import math

import numpy as np

from .errors import (
    DegenerateOperatorError,
    DomainError,
    IntegrationError,
    NonpositiveOperatorError,
)
from .errors import check_count, check_memory, signed_exp
from .geometry import JacobiSystem
from .zeta import ZetaDetValue, zeta_det_dirichlet_laplacian

__all__ = [
    "JacobiPropagation",
    "ZetaDetValue",
    "solve_jacobi_ode",
    "gy_ratio",
    "gy_degenerate_ratio",
    "zeta_det_dirichlet_laplacian",
    "zeta_det_jacobi",
]

# singular values of J(t) below DEGENERACY_REL_TOL t span its kernel (the
# zero modes); every route decides degeneracy by this one test
DEGENERACY_REL_TOL = 1e-6
DEFAULT_STEPS = 2048
# the increments of one group of consecutive blocks, all that a run holds of
# its products at once (one block at least): 256 KiB
GROUP_BYTES = 2**18


class JacobiPropagation:
    """The fundamental solution (J, J') of J'' = V J from one RK4 run at ``steps``.

    ``steps`` is an integer >= 1 (DomainError naming it otherwise); the
    public routes ask for at least 16, and their step-halving estimates run
    here at ``steps // 2``.

    Every run is built here, from the half-grid samples ``V`` of
    :func:`_sample_potential`, taken unless given, once the bytes it holds
    (the samples, one group's increments and one group's states) are found
    to fit the physical memory (else DomainError).  ``end`` is [J(t); J'(t)],
    shape (2n, n), of the run's one sweep (:func:`_end_state`), which feeds
    its states to ``readers``; beyond float64 it raises the grid's
    IntegrationError, its row sought by one more sweep.  ``J`` and
    ``Jprime``, shape (steps+1, n, n), are swept from the samples when
    first read (:func:`_grid_states`), which drops them.  A callable
    system's run sweeps its steps in sequence; a constant system's takes
    the powers of its one step and its block starts by doubling
    (:func:`_doubling`, :func:`_sweep`), within 2.8e-15 of the closed form
    at 65536 steps where the sequential sweep was 3.0e-14 off.
    """

    def __init__(self, sys: JacobiSystem, steps: int, V=None, *readers):
        steps = check_count(steps, 1, "need at least one step, got {}")
        n = sys.n
        block, _, group = _blocking(sys, steps)
        # a constant run holds none of its 2*steps+1 points, but counting
        # them keeps the bytes in step with the time: 10**11 steps, whose
        # blocks alone fit, are a DomainError here, not an hours-long sweep
        floats = (2 * steps + 1) * (1 if sys.is_constant else 1 + n * n)
        floats += group * block * 6 * n * n
        check_memory(floats, "{} steps need {} for the run of [J; J']", steps)
        if V is None:
            V = _sample_potential(sys, steps)
        self._sys, self._steps, self._V, self._grid = sys, steps, V, None
        self.end = _end_state(sys, steps, V, *readers)
        if not np.isfinite(self.end).all():
            search = _FirstFailure(_finite, steps)
            _end_state(sys, steps, V, search)  # s = t if no grid row before it left float64
            raise _beyond_float64(sys, steps, search.row or steps)

    def _states(self) -> np.ndarray:
        if self._grid is None:
            self._grid, self._V = _grid_states(self._sys, self._steps, self._V), None
        return self._grid

    @property
    def J(self) -> np.ndarray:
        return self._states()[:, : self.end.shape[1]]

    @property
    def Jprime(self) -> np.ndarray:
        return self._states()[:, self.end.shape[1] :]

    def det_final(self) -> float:
        return signed_exp(*map(float, np.linalg.slogdet(self.end[: self.end.shape[1]])))

    def wronskian_drift(self) -> float:
        """max_s ||J'^T J - J^T J'||; zero for symmetric potentials."""
        W = np.einsum("sji,sjk->sik", self.Jprime, self.J)  # J'^T J; J^T J' is its transpose
        return float(np.max(np.abs(W - W.swapaxes(1, 2))))


def _sample_potential(sys: JacobiSystem, steps: int) -> np.ndarray:
    """V at the 2*steps+1 half-grid points needed by the RK4 stages; a constant V makes no grid."""
    count = 2 * steps + 1  # a constant V is one broadcast matrix, whatever the points
    return sys.sample(np.broadcast_to(0.0, count) if sys.is_constant else np.linspace(0.0, sys.t, count))


def _transfer_increments(V: np.ndarray, h: float, block: int) -> np.ndarray:
    """RK4 step increments D_m with (y, z)_{m+1} = (I + D_m) (y, z)_m for y'' = V y.

    ``V`` holds the half-grid samples of the steps; with a = V(s_m),
    b = V(s_m + h/2) and c = V(s_m + h), one classical RK4 step of the
    first-order system (y, z)' = [[0, I], [V, 0]] (y, z) has the transfer
    matrix I + D_m with

        D_yy = h^2/6 (a + 2b) + h^4/24 ba     D_yz = h I + h^3/6 b
        D_zy = h/6 (a + 4b + c) + h^3/12 (ba + cb)
        D_zz = h^2/6 (2b + c) + h^4/24 cb,

    built for all these steps at once, each quadrant in one reused buffer,
    and returned in blocks of ``block`` steps, shape (blocks, block, 2n,
    2n); the last block is padded with zero increments (identity steps),
    whose states are never mapped.  The identity is kept out: rounding
    I + O(h^2) would drop the low bits of the increment in the same
    direction at every step of a smooth potential, an error that grows
    linearly with the step count.
    """
    a, b, c = V[0:-1:2], V[1::2], V[2::2]
    steps, n = b.shape[0], b.shape[1]
    ba, cb = b @ a, c @ b
    D = np.zeros((-(-steps // block) * block, 2 * n, 2 * n))
    q, tmp = np.empty_like(b), np.empty_like(b)  # each quadrant is made in q, then copied in
    for quadrant, end, cross in ((D[:steps, :n, :n], a, ba), (D[:steps, n:, n:], c, cb)):
        np.multiply(b, 2.0, out=q)  # h^2/6 (end + 2b) + h^4/24 cross
        q += end
        q *= h * h / 6.0
        q += np.multiply(cross, h**4 / 24.0, out=tmp)
        quadrant[...] = q
    np.multiply(b, h**3 / 6.0, out=q)
    q += h * np.eye(n)
    D[:steps, :n, n:] = q
    np.multiply(b, 4.0, out=q)
    q += a
    q += c
    q *= h / 6.0
    ba += cb
    ba *= h**3 / 12.0
    q += ba
    D[:steps, n:, :n] = q
    return D.reshape(-1, block, 2 * n, 2 * n)


def _prefix_products(E: np.ndarray) -> np.ndarray:
    """The block-local prefix products of the increments ``E``, made in place.

    E_j = (I + D_j) (I + E_{j-1}) - I = D_j + E_{j-1} + D_j E_{j-1}, the
    identity kept out, for all blocks of ``E``, shape (blocks, block, 2n,
    2n), at once.
    """
    tmp = np.empty((len(E),) + E.shape[2:])
    by_step = list(E.swapaxes(0, 1))  # E_j of all blocks, for each j
    for prev, cur in zip(by_step, by_step[1:]):
        np.matmul(cur, prev, out=tmp)
        tmp += prev
        cur += tmp
    return E


def _advance(F: np.ndarray, X: np.ndarray, out=None) -> np.ndarray:
    """(I + F) X = X + F X, into ``out``: one step of the states ``X``, which may be a stack."""
    out = np.matmul(F, X, out=out)
    out += X
    return out


def _compose(A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    """(I + A)(I + B) - I = A + (B + A B), the identity kept out, into ``out``; ``B`` may be a stack."""
    out = _advance(A, B, out)
    out += A
    return out


def _doubling(step, F: np.ndarray, X0: np.ndarray, count: int) -> np.ndarray:
    """X_b, I + F applied b times to ``X0`` by ``step``, for b = 0..count-1, by doubling.

    ``step`` is :func:`_advance` for states, X_b = (I + F)^b X0, or
    :func:`_compose` for powers, X_b = (I + F)^b (I + X0) - I.  Round
    m = 1, 2, 4, ... makes X_{m+b} = step(F_m, X_b) for b < min(m, count - m)
    in one batched product, F_m = (I + F)^m - I squared between rounds:
    ceil(log2 count) rounds, and each X_b is a product of at most 2 log2 b
    rounded factors, where a step-by-step chain takes b.
    """
    X = np.empty((count,) + X0.shape)
    X[0], m = X0, 1
    while m < count:
        size = min(m, count - m)
        step(F, X[:size], X[m : m + size])
        m *= 2
        F = _compose(F, F) if m < count else F
    return X


def _doubling_last(step, F: np.ndarray, X0, count: int) -> np.ndarray:
    """X_{count-1} of :func:`_doubling` alone, bit for bit, from the squarings F_m.

    The batched rounds make X_b = step(F_m, X_{b-m}), m the highest power
    of two up to b, so X_b applies F_m for the set bits m of b, lowest
    first: here the same products and adds, holding only the current
    squaring.  ``X0`` None takes the first of them as it is: for powers,
    ``_doubling_last(_compose, D, None, j + 1)`` is E_j = (I + D)^j - I as
    ``_doubling(_compose, D, D, j)[j - 1]`` makes it, in fewer products.
    """
    X, b = X0, count - 1
    while b:
        if b & 1:
            X = F if X is None else step(F, X)
        b >>= 1
        F = _compose(F, F) if b else F
    return X


def _blocking(sys: JacobiSystem, steps: int):
    """(block, blocks, group) of a run: steps per block, blocks, blocks per group."""
    block = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps)): 64 at 4096 steps
    blocks = -(-steps // block)
    return block, blocks, min(blocks, max(1, GROUP_BYTES // (32 * block * sys.n * sys.n)))


def _sweep(sys: JacobiSystem, steps: int, V: np.ndarray, mapped: bool = True):
    """The blocks of one RK4 run at ``steps``, yielded one group at a time.

    The product of the step matrices I + D_m is a two-level blocked prefix
    product over blocks of about sqrt(steps) steps.  Each group comes as a
    list of its blocks' (E, S): E the block-local prefix products
    E_j = (I + D_k)...(I + D_1) - I of its k steps, shape (k, 2n, 2n), and
    S the block's start state, or None where it is the state the block
    before ends in.  A group holds as many consecutive blocks as keep a
    callable system's increments within GROUP_BYTES (one at least).

    A callable system sweeps its steps in sequence: each group's increments
    are built from the half-grid samples ``V`` of :func:`_sample_potential`
    and turned into prefix products step by step (:func:`_prefix_products`),
    and only the first block has a start, [0; I].  A constant system builds
    one increment D, from the first 3 samples, and takes every block's
    E_j = (I + D)^j - I and the starts S_b = (I + E_block)^b [0; I] by
    doubling (:func:`_doubling`), each in about log2 sqrt(steps) batched
    rounds.  Unless ``mapped`` it yields its last block alone, as its last
    product E_k and start, all an end state needs, from the squarings
    alone (:func:`_doubling_last`).  The starts are doubled in the rows
    [J; J'/c], c = 2^(e // 2) of rho = |V|_F = m 2^e (c = 1 at V = 0):
    E_block's J' rows, up to sqrt(rho) times the states they map, would
    overflow first near float64's end, and a power of two scales without
    rounding while no entry falls below float64's normal range.  The
    consumer (:func:`_end_state`) holds the errstate; overflow, and h^4 =
    inf, are reported by its callers.
    """
    block, blocks, group = _blocking(sys, steps)
    h = np.float64(sys.t) / steps
    S0 = np.eye(2 * sys.n, sys.n, -sys.n)
    cut = lambda b, E: E[: min(block, steps - b * block)]  # the block's own steps
    if sys.is_constant:
        D = _transfer_increments(V[:3], h, 1)[0, 0]
        if mapped:
            E = _doubling(_compose, D, D, block)
            full = E[-1]
        else:  # E_block, and E_k of the last block's k steps where k < block
            full = _doubling_last(_compose, D, None, block + 1)
            k = steps - (blocks - 1) * block
            E = (full if k == block else _doubling_last(_compose, D, None, k + 1))[None]
        double = _doubling if mapped else _doubling_last
        rho = math.sqrt(float(np.vdot(V[0], V[0])))  # |V|_F, at least V's largest |eigenvalue|
        w = np.repeat([1.0, 2.0 ** -(math.frexp(rho)[1] // 2)], sys.n)[:, None]  # rows [J; J'/c]
        starts = double(_advance, w * full / w.T, w * S0, blocks) / w
        if not mapped:
            yield [(E, starts)]
            return
        for b in range(0, blocks, group):
            yield [(cut(c, E), starts[c]) for c in range(b, min(b + group, blocks))]
        return
    for b in range(0, blocks, group):
        g = min(group, blocks - b)
        samples = V[2 * b * block : 2 * min((b + g) * block, steps) + 1]  # ends shared with the neighbours
        E = _prefix_products(_transfer_increments(samples, h, block))
        yield [(cut(c, Eb), None if c else S0) for c, Eb in enumerate(E, b)]


def _finite(states: np.ndarray) -> np.ndarray:
    """Whether each of the ``states`` lies in the float64 range."""
    return np.isfinite(states).all(axis=(1, 2))


class _FirstFailure:
    """Reader of ``row``, the first grid row 1..steps-1 of (0, t) whose state fails ``test``, else None; it stops the mapping there."""

    def __init__(self, test, steps: int):
        self.test, self.steps, self.row = test, steps, None

    def __call__(self, row: int, states: np.ndarray) -> bool:
        holds = self.test(states[: self.steps - row])
        if not holds.all():
            self.row = row + int(np.argmin(holds))
        return self.row is not None


class _SimpsonGram:
    """Reader of ``gram``, G = int_0^t J^T J ds, by composite Simpson on rows 1..steps (J(0) = 0) and 3/8 at an odd count."""

    def __init__(self, t: float, steps: int):
        self.t, self.steps, self.gram = t, steps, 0.0

    def __call__(self, row: int, states: np.ndarray) -> None:
        m, h = self.steps, self.t / self.steps
        e = m - 3 * (m % 2)  # end of the Simpson part; the 3/8 rule takes the rest
        r = np.arange(row, row + len(states))
        w = np.where(r == e, 1.0, np.where(r < e, 2.0 + 2.0 * (r % 2), 0.0)) * h / 3.0
        if e < m:
            w[r >= e] += np.array([1.0, 3.0, 3.0, 1.0])[r[r >= e] - e] * (3.0 * h / 8.0)
        J = states[:, : states.shape[2]]
        self.gram = self.gram + np.einsum("s,sji,sjk->ik", w, J, J)  # a one-group run: the grid's sum


def _beyond_float64(sys: JacobiSystem, steps: int, row: int) -> IntegrationError:
    """The error of the run at ``steps`` whose first grid row beyond float64 is ``row``."""
    s = sys.t * row / steps
    return IntegrationError(f"J or J' left the float64 range at s = {s:.4g} of t = {sys.t:.4g}")


def _end_state(sys: JacobiSystem, steps: int, V: np.ndarray, *readers) -> np.ndarray:
    """[J(t); J'(t)] of the run at ``steps``, shape (2n, n); its states go to ``readers``.

    The one sweep of a run (:func:`_sweep`).  Each block's start S is the
    one the sweep gives, else the end of the block before, E_k S + S of
    its last product (:func:`_advance`), the chain of a callable system's
    run; the end state is E_k S + S of the last block, one (2n, 2n) @
    (2n, n) product: the grid's last row bit for bit for n <= 8 on
    OpenBLAS's Haswell, Zen and SkylakeX kernels (README).  While a
    reader is attached, it maps each block's k states S + E_j S into one
    group's rows, by one (k 2n, 2n) @ (2n, n) product and one add from
    the block's given start, else from the last state mapped, as the
    grid's states, and calls ``reader(row, states)`` with each group's
    states, ``row`` the grid row of the first: rows 1..steps, the states
    of (0, t], each once and in order.  A reader that returns true stops
    the mapping.
    """
    block, _, group = _blocking(sys, steps)
    n, row = sys.n, 0
    if readers:  # rows[0] holds the state before the group
        rows = np.empty((group * block + 1, 2 * n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the callers
        for blocks in _sweep(sys, steps, V, bool(readers)):
            first = row  # the grid row of rows[0]
            for E, start in blocks:
                S = _advance(last, S) if start is None else start
                if readers:
                    j = row - first
                    if start is not None:
                        rows[j] = start
                    out = rows[j + 1 : j + 1 + len(E)]
                    np.matmul(E.reshape(-1, 2 * n), rows[j], out=out.reshape(-1, n))
                    out += rows[j]
                last, row = E[-1], row + len(E)
            if readers:
                if any(reader(first + 1, rows[1 : row - first + 1]) for reader in readers):
                    readers = ()
                rows[0] = rows[row - first]
        return _advance(last, S)


def _grid_states(sys: JacobiSystem, steps: int, V: np.ndarray) -> np.ndarray:
    """[J; J'] at every grid point of the run at ``steps``, shape (steps+1, 2n, n).

    Row 0 is [0; I], and a reader of the run's sweep (:func:`_end_state`)
    copies each group's states into rows 1..steps.  Its bytes are compared
    with the physical memory before it is made (DomainError); J or J'
    beyond float64 raises IntegrationError.
    """
    n = sys.n
    check_memory((steps + 1) * 2 * n * n, "{} steps need {} for the grid of [J; J']", steps)
    Y = np.empty((steps + 1, 2 * n, n))
    Y[0] = np.eye(2 * n, n, -n)
    _end_state(sys, steps, V, lambda row, states: np.copyto(Y[row : row + len(states)], states))
    if not np.isfinite(Y).all():
        raise _beyond_float64(sys, steps, int(np.argmin(_finite(Y))))
    return Y


def solve_jacobi_ode(sys: JacobiSystem, steps: int = DEFAULT_STEPS) -> JacobiPropagation:
    """Propagate J'' = V J, J(0) = 0, J'(0) = id with fixed-step RK4.

    One run at ``steps``: one sweep for its end state, a second for the grid
    when ``J`` or ``Jprime`` is read (:class:`JacobiPropagation`).  The
    step-halving error estimates live on the determinant routes
    (:class:`ZetaDetValue`).
    """
    return JacobiPropagation(sys, check_count(steps, 16, "need at least 16 steps"))


def _read_endpoint(end: np.ndarray, t: float, kdim: int = None):
    """(sig, kdim, C, log|det(W^T J'(t) C)|), the kernel split of the end state ``end``.

    ``end`` is [J(t); J'(t)], shape (2n, n).  sig are the singular values
    of J(t), descending; C and W, its last kdim right and left singular
    vectors, span ker J(t) and the complement of its range.  Unless given
    (a coarse run keeps the fine run's route), kdim counts the singular
    values below DEGENERACY_REL_TOL t.  A small det J(t) alone is no zero
    mode: near a conjugate point of S^4 (n = 4, r = 3.12) det J(1) = 3.3e-7
    is a product of three singular values 0.0069, each computed to full
    relative accuracy.  With no kernel C is None, the log 0.0, and a given
    kdim = 0 takes no SVD (sig None).
    """
    n = end.shape[1]
    sig = None
    if kdim is None:
        sig = np.linalg.svd(end[:n], compute_uv=False)
        kdim = int(np.count_nonzero(sig < DEGENERACY_REL_TOL * t))
    if not kdim:
        return sig, 0, None, 0.0
    L, sig, Rt = np.linalg.svd(end[:n])
    W, C = L[:, -kdim:], Rt[-kdim:].T
    return sig, kdim, C, float(np.linalg.slogdet(W.T @ end[n:] @ C)[1])


def _gy_det(end: np.ndarray, endpoint, gram):
    """(sign, log|det|) of det J(t) of the end state ``end``, or with a kernel of |det A|.

    ``end`` is [J(t); J'(t)] of a run and ``gram`` its Simpson Gram
    G = int_0^t J^T J ds (:class:`_SimpsonGram`), read only at a kernel.
    A has columns J(t) d_b on the complement of ker J(t) and -K(t) G c_a on
    the kernel, K the second fundamental solution (K(0) = id, K'(0) = 0),
    which no run propagates; |det A| over det J_1(t) of a positive
    reference operator is det'_zeta(P)/det_zeta(P_1).  With C and W of the
    run's ``endpoint`` (:func:`_read_endpoint`) and J(t) C = 0, the
    Wronskians J^T J' - J'^T J = 0 and J'^T K - J^T K' = id of a symmetric
    V give

        J(t)^T J'(t) C = J'(t)^T J(t) C = 0, so J'(t) C = W W^T J'(t) C,
        C^T = C^T (J'^T K - J^T K')(t) = (W^T J'(t) C)^T W^T K(t),

    so W^T K(t) = (W^T J'(t) C)^{-T} C^T, and in the singular bases, A is
    block triangular: |det A| = prod sig_perp det(C^T G C)/|det(W^T J'(t) C)|,
    or det G/|det J'(t)| when the kernel fills every direction.
    """
    sig, kdim, C, log_wjc = endpoint
    n = end.shape[1]
    if not kdim:
        return tuple(map(float, np.linalg.slogdet(end[:n])))
    log_abs = np.sum(np.log(sig[: n - kdim])) + np.linalg.slogdet(C.T @ gram @ C)[1]
    return 1.0, float(log_abs - log_wjc)


def _exp_det(scale: float, sign: float, log_abs: float, name: str) -> float:
    """scale * sign * exp(log_abs), the one exit of a GY determinant named ``name``.

    The value must be finite and nonzero (IntegrationError).  ``scale``
    multiplies after the exponential, so at t = 1 a value is the
    sign * exp(log) numpy's det returns for the same LU.
    """
    value = scale * signed_exp(sign, log_abs)
    if value == 0.0 or not math.isfinite(value):
        raise IntegrationError(f"{name} = {value} left the float64 range")
    return value


def _fine_det(sys: JacobiSystem, steps: int, label: str, ratio: bool = False):
    """((sign, log|det|) of det J(t) or |det A|, kernel dim, V samples) at ``steps``.

    Every GY route decides by the kernel of :func:`_read_endpoint`.  det J
    must be positive on (0, t), tested by a reader of the run's one sweep,
    and at t too when J(t) has no kernel, read off the end state; at a
    kernel the sign of det J(t) is rounding noise.  The signs come from
    ``slogdet``, so a det J(s) beyond float64 keeps its sign.  The sweep
    sums the Gram too, except for a ``ratio`` operand, one side of
    det J_2(t)/det J_1(t), which admits no kernel (DegenerateOperatorError).
    The run dies with the call, so callers hold one at a time.
    """
    steps = check_count(steps, 16, "need at least 16 steps")
    sign = _FirstFailure(lambda states: np.linalg.slogdet(states[:, : sys.n])[0] > 0.0, steps)
    gram = _SimpsonGram(sys.t, steps)
    run = JacobiPropagation(sys, steps, None, sign, *(() if ratio else (gram,)))
    endpoint = _read_endpoint(run.end, sys.t)
    sig, kdim = endpoint[:2]
    if sign.row is None and ratio and kdim:
        raise DegenerateOperatorError(
            f"{label}: J(t) has the singular value {sig[-1]:.3g}, below the kernel "
            f"threshold {DEGENERACY_REL_TOL * sys.t:.3g}; the operator has zero "
            "modes (use gy_degenerate_ratio, or det-zeta on the command line)"
        )
    if sign.row is not None or (det := _gy_det(run.end, endpoint, gram.gram))[0] <= 0.0:
        raise NonpositiveOperatorError(
            f"{label}: det J changes sign on (0, t]; operator not positive"
        )
    return det, kdim, run._V


def _step_halving(sys: JacobiSystem, steps: int, label: str, ratio: bool, scale, name):
    """(value, kernel dim, estimate) of the determinant ``scale * det / t^n`` named ``name``.

    det is the GY determinant of the run at ``steps``; det and t^n divide
    as logs, so neither needs to lie in float64 on its own; the estimate is
    |value - coarse|/15, coarse the same expression at steps // 2 on the
    route the fine run chose, which sums the Gram only at a kernel.  For
    even step counts the coarse half-grid is every other fine sample
    (``np.linspace`` grids nest exactly), so the potential is sampled once.
    The value must be finite and nonzero, the estimate finite
    (IntegrationError).
    """
    (sign, log_abs), kdim, V = _fine_det(sys, steps, label, ratio)
    log_tn = sys.n * math.log(sys.t)
    value = _exp_det(scale, sign, log_abs - log_tn, name)
    gram = _SimpsonGram(sys.t, steps // 2)
    run = JacobiPropagation(sys, steps // 2, V[::2] if steps % 2 == 0 else None, *((gram,) if kdim else ()))
    sign, log_abs = _gy_det(run.end, _read_endpoint(run.end, sys.t, kdim), gram.gram)
    estimate = abs(value - scale * signed_exp(sign, log_abs - log_tn)) / 15.0
    if not math.isfinite(estimate):
        raise IntegrationError(f"error estimate of {name} = {estimate} left the float64 range")
    return value, kdim, estimate


def _check_shared(sys1: JacobiSystem, sys2: JacobiSystem) -> None:
    """DomainError unless both operators share fiber dimension and interval (1e-14 relative)."""
    if sys1.n != sys2.n or abs(sys1.t - sys2.t) > 1e-14 * max(sys1.t, sys2.t):
        raise DomainError("operators must share fiber dimension and interval")


def gy_ratio(sys1: JacobiSystem, sys2: JacobiSystem, steps: int = DEFAULT_STEPS) -> float:
    """det_zeta(P_2)/det_zeta(P_1) = det J_2(t)/det J_1(t), both positive.

    Raises DegenerateOperatorError when either operator has zero modes,
    i.e. J(t) has a singular value below DEGENERACY_REL_TOL t, and
    IntegrationError when the ratio, a difference of logs, leaves float64.
    """
    _check_shared(sys1, sys2)
    sign1, log1 = _fine_det(sys1, steps, "P1", ratio=True)[0]
    sign2, log2 = _fine_det(sys2, steps, "P2", ratio=True)[0]
    return _exp_det(1.0, sign1 * sign2, log2 - log1, "det J_2(t)/det J_1(t)")


def _free_reference_ratio(sys: JacobiSystem, steps: int) -> ZetaDetValue:
    """gy_ratio(free, sys) and its step-halving estimate, free = -d^2/ds^2 on [0, t].

    The free det J(t) = t^n is exact, so only sys is propagated.
    """
    value, _, estimate = _step_halving(sys, steps, "P2", True, 1.0, "det J(t)/t^n")
    return ZetaDetValue(value, "gy_ratio", 0, estimate)


def gy_degenerate_ratio(
    sys_deg: JacobiSystem, sys_ref: JacobiSystem, steps: int = DEFAULT_STEPS
) -> float:
    """det'_zeta(P_deg)/det_zeta(P_ref) for an operator with zero modes.

    P_deg has zero modes where a singular value of J(t) lies below
    DEGENERACY_REL_TOL t, and det J must be positive on (0, t); P_ref must
    be positive.  Without zero modes the value is det_zeta(P_deg)/
    det_zeta(P_ref), equal to gy_ratio(sys_ref, sys_deg).
    On the kernel directions the boundary data is replaced by the
    quadrature of J^T J over the propagation grid (composite Simpson);
    regular directions keep their J(t) columns, so block-diagonal
    systems factor as expected.  The scalar second derivative at a
    simple zero mode carries the absolute-value convention: the ratio
    of two nonnegative operators is reported positive.
    """
    _check_shared(sys_deg, sys_ref)
    sign_a, log_a = _fine_det(sys_deg, steps, "P")[0]
    sign1, log1 = _fine_det(sys_ref, steps, "reference", ratio=True)[0]
    return _exp_det(1.0, sign_a * sign1, log_a - log1, "det'_zeta(P_deg)/det_zeta(P_ref)")


def zeta_det_jacobi(sys: JacobiSystem, steps: int = DEFAULT_STEPS) -> ZetaDetValue:
    """Zeta determinant of -d^2/ds^2 + V via the multiplicative transfer.

    det_zeta(P + V) = det_zeta(P) det(P^{-1}(P + V)) = (2t)^n det J(t)/t^n.
    Operators with zero modes return det'_zeta instead, with the kernel
    dimension recorded in excluded_zero_modes.  The error estimate compares
    the value with the same route at steps // 2.  A (2t)^n outside the
    normal float64 range raises DomainError, as in
    :func:`zeta_det_dirichlet_laplacian`.
    """
    free = zeta_det_dirichlet_laplacian(sys.t, sys.n).value
    value, kdim, estimate = _step_halving(sys, steps, "P", False, free, "det_zeta")
    return ZetaDetValue(value, "deflated" if kdim else "gy_ratio", kdim, estimate)
