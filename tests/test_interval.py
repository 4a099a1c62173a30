"""Gauss-Legendre rules, their panel mapping and the quadrature of sine modes."""

import pathlib

import numpy as np
import pytest

from geodet import DomainError, interval
from geodet.interval import composite_gauss, gauss_legendre, mode_cosine_moments, mode_quadrature

PI = np.pi


def test_inverse_eigenvalue_sum_converges_to_hilbert_schmidt_norm():
    # sum_k n/lambda_k = n (b-a)^2/6; partial sums reach it within 1e-6 at K=1e6
    K = 10**6
    k = np.arange(1, K + 1, dtype=float)
    for n, (a, b) in ((1, (0.0, 1.0)), (2, (0.0, 1.0))):
        partial = n * (b - a) ** 2 / PI**2 * float(np.sum(1.0 / k**2))
        assert abs(partial - n * (b - a) ** 2 / 6.0) < 1e-6


def test_h1_norm_of_h1_mode_is_one_by_quadrature():
    # independent oracle: quadrature of <F', F'> with the cosine derivative
    L = 1.0
    nodes, weights = mode_quadrature(L, 2 * 8)
    for k in (1, 3, 8):
        amp = np.sqrt(2.0 * L) / (PI * k)
        deriv = amp * (PI * k / L) * np.cos(PI * k * nodes / L)
        norm2 = float(np.sum(weights * deriv**2))
        assert abs(norm2 - 1.0) < 1e-10


@pytest.mark.parametrize("which", ["L2", "H1"])
def test_gram_matrix_orthonormal(which):
    L = 1.0
    kmax = 32
    nodes, weights = mode_quadrature(L, 2 * kmax)
    ks = np.arange(1, kmax + 1)
    if which == "L2":
        profiles = np.sqrt(2.0 / L) * np.sin(PI * ks[:, None] * nodes[None, :] / L)
    else:
        # H1 pairing integrates the derivatives
        amps = np.sqrt(2.0 * L) / (PI * ks)
        profiles = amps[:, None] * (PI * ks[:, None] / L) * np.cos(
            PI * ks[:, None] * nodes[None, :] / L
        )
    gram = profiles @ (weights[:, None] * profiles.T)
    err = np.abs(gram - np.eye(kmax))
    assert err.max() < 1e-10


@pytest.mark.parametrize("order", [8, 16, 64, 96])
def test_gauss_legendre_is_built_once_and_read_only(order):
    x, w = gauss_legendre(order)
    again = gauss_legendre(order)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert len(x) == len(w) == order


def test_gauss_legendre_checks_its_order_on_cache_misses_only(monkeypatch):
    # 16.0 is a key of its own, checked and refused, not served the rule of 16
    gauss_legendre.cache_clear()
    checked = []
    monkeypatch.setattr(interval, "check_count", lambda order, *args: checked.append(order) or order)
    for _ in range(3):
        gauss_legendre(16)
        gauss_legendre(23)
    assert checked == [16, 23]
    monkeypatch.undo()
    with pytest.raises(DomainError, match="^16.0 is not an integer count"):
        gauss_legendre(16.0)


@pytest.mark.parametrize("t", [-1.0, 0.0, np.nan, np.inf, None, "1.0"])
def test_mode_quadrature_interval_length_is_positive_and_finite(t):
    # t = -1 gave nodes on [-1, 0] and nan gave nan nodes
    with pytest.raises(DomainError, match=r"^interval length must be positive and finite, got "):
        mode_quadrature(t, 4)


@pytest.mark.parametrize("order", [2, 8, 16])
def test_composite_gauss_exact_on_nonuniform_partition(order):
    # degree 2 order - 1 is the highest the rule integrates exactly
    edges = np.array([0.0, 0.05, 0.3, 0.31, 0.8, 1.7])
    nodes, weights = composite_gauss(edges, order)
    assert nodes.shape == weights.shape == (len(edges) - 1, order)
    coeffs = np.linspace(-1.0, 1.0, 2 * order)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(edges[-1]) - poly.integ()(edges[0])
    assert abs(np.sum(weights * poly(nodes)) - exact) < 1e-14 * max(1.0, abs(exact))
    # every node lies inside its own panel
    assert np.all((nodes > edges[:-1, None]) & (nodes < edges[1:, None]))


@pytest.mark.parametrize("t, halfwaves", [(1.0, 16), (0.37, 64), (2.5, 1024)])
def test_mode_quadrature_is_composite_gauss_on_uniform_panels(t, halfwaves):
    order = interval._PANEL_ORDER
    nodes, weights = mode_quadrature(t, halfwaves)
    panels = len(nodes) // order
    ref_nodes, ref_weights = composite_gauss(np.linspace(0.0, t, panels + 1), order)
    assert np.array_equal(nodes, ref_nodes.ravel())
    assert np.array_equal(weights, ref_weights.ravel())


@pytest.mark.parametrize("K, panels", [(8, 2), (64, 7), (128, 14), (256, 28), (512, 56)])
def test_mode_quadrature_panel_counts(K, panels):
    # K modes need 2K half-waves: P = ceil(2 pi K/58), at least 2; every FFT
    # length 2P of the moments is 7-smooth, where 16 rad panels had P = 101 at K = 256
    nodes, weights = mode_quadrature(1.0, 2 * K)
    assert len(nodes) == len(weights) == panels * interval._PANEL_ORDER


def _reference_weights(order, x):
    """The weights of the ``order``-point rule in 40 digits, at the roots refined from ``x``."""
    import mpmath as mp

    def legendre(r):  # P_n(r) and P_n'(r)
        p0, p1 = mp.mpf(1), r
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * r * p1 - (k - 1) * p0) / k
        return p1, order * (p0 - r * p1) / (1 - r * r)

    weights = []
    with mp.workdps(40):
        for start in x:
            r = mp.mpf(float(start))
            for _ in range(3):  # Newton steps from a float64 root
                p, dp = legendre(r)
                r -= p / dp
            dp = legendre(r)[1]
            weights.append(2 / ((1 - r * r) * dp * dp))
    return weights


@pytest.mark.parametrize("order, bound", [(4, 5e-15), (16, 5e-15), (32, 1e-14), (64, 2e-13)])
def test_gauss_legendre_weights_match_a_40_digit_reference(order, bound):
    # weights recomputed from the Legendre recurrence are 5.0e-16, 2.1e-15,
    # 5.2e-15 and 9.2e-14 off; numpy's leggauss weights, 7.0e-15, 5.8e-14 and
    # 1.3e-12 off at 16, 32 and 64, fail the same bounds
    x, w = gauss_legendre(order)
    ref = _reference_weights(order, x)

    def error(weights):
        return max(float(abs((float(v) - r) / r)) for v, r in zip(weights, ref))

    assert error(w) <= bound
    if order > 4:
        assert error(np.polynomial.legendre.leggauss(order)[1]) > bound
    assert np.array_equal(w, w[::-1])
    assert np.sum(w) == 2.0  # the orders geodet's rules use sum to 2 exactly


@pytest.mark.parametrize(
    "t, halfwaves, M", [(1.0, 16, 8), (0.37, 64, 80), (2.5, 1024, 1024), (1e-70, 16, 200)]
)
def test_mode_cosine_moments_match_direct_sums(t, halfwaves, M):
    # the zero-padded FFT over uniform panels against the cosines taken node
    # by node, for a stack of three integrands; every index m = 0..M, odd ones too,
    # and M at or beyond twice the panel count exercises the aliasing m mod 2P
    nodes, weights = mode_quadrature(t, halfwaves)
    u = nodes / t
    fw = weights * np.stack([1.0 + np.sin(3.0 * u) + u**2, np.cos(7.0 * u), u * (1.0 - u)])
    m = np.arange(M + 1)
    direct = fw @ np.cos(PI * np.outer(m, u)).T
    moments = mode_cosine_moments(fw, m)
    assert moments.shape == (3, M + 1)
    scale = np.sum(np.abs(fw), axis=1, keepdims=True)
    assert np.all(np.abs(moments - direct) < 1e-13 * scale)
    single = mode_cosine_moments(fw[1], m)  # one integrand, without a stack axis
    assert single.shape == (M + 1,) and np.all(np.abs(single - direct[1]) < 1e-13 * scale[1])
    assert mode_cosine_moments(fw[:0], m).shape == (0, M + 1)
    # a subset of the indices, in any order, reads the same bits as the full range
    assert np.array_equal(mode_cosine_moments(fw, m[::-2]), moments[:, ::-2])


def uncached_cosine_moments(fw, m):
    """mode_cosine_moments with its phase table formed on every call."""
    panels = fw.shape[-1] // 32
    F = np.fft.fft(fw.reshape(fw.shape[:-1] + (panels, 32)), n=2 * panels, axis=-2)[..., m % (2 * panels), :]
    phase = PI * np.outer(m, (gauss_legendre(32)[0] + 1.0) / (2.0 * panels))
    return np.sum(F.real * np.cos(phase) + F.imag * np.sin(phase), axis=-1)


@pytest.mark.parametrize("K", [8, 64, 128, 512])
@pytest.mark.parametrize("indices", ["fourier", "hessian-trace"])
def test_cached_phase_table_keeps_the_moments_bit_for_bit(K, indices):
    # the cos/sin table depends on the panel count and the indices alone; the
    # moments read from the cache equal the formula formed afresh, bit for
    # bit, on a second call too, for fredholm_det's m = 0..2K and
    # hessian_trace's even m = 2..2K, and the shared table is read-only
    nodes, weights = mode_quadrature(1.3, 2 * K)
    u = nodes / 1.3
    fw = weights * np.stack([np.exp(u) * np.sin(5.0 * u), 1.0 + u**3, np.cos(11.0 * u)])
    m = np.arange(2 * K + 1) if indices == "fourier" else np.arange(2, 2 * K + 1, 2)
    expected = uncached_cosine_moments(fw, m)
    assert np.array_equal(mode_cosine_moments(fw, m), expected)
    assert np.array_equal(mode_cosine_moments(fw, m), expected)
    cos, sin = interval._phase_table(len(nodes) // 32, m.astype(np.float64).tobytes())
    assert not cos.flags.writeable and not sin.flags.writeable


def _rule_errors(phase):
    """Largest errors of the float64 rule on cos(w x) and x sin(w x) over [-1, 1], 0 < w <= phase/2.

    The sums run in mpmath on the rule's float64 nodes and weights, so the
    rule's own rounding counts and that of a platform's cos does not.
    """
    import mpmath as mp

    x, w = gauss_legendre(interval._PANEL_ORDER)
    with mp.workdps(40):
        X, W = [mp.mpf(float(v)) for v in x], [mp.mpf(float(v)) for v in w]
        cos_err = sin_err = 0.0
        for om in np.linspace(0.0, phase / 2.0, 161)[1:]:
            om = mp.mpf(float(om))
            rule_cos = mp.fsum(wi * mp.cos(om * xi) for wi, xi in zip(W, X))
            rule_sin = mp.fsum(wi * xi * mp.sin(om * xi) for wi, xi in zip(W, X))
            exact_cos = 2 * mp.sin(om) / om
            exact_sin = 2 * (mp.sin(om) / om**2 - mp.cos(om) / om)
            cos_err = max(cos_err, float(abs(rule_cos - exact_cos)))
            sin_err = max(sin_err, float(abs(rule_sin - exact_sin)))
    return cos_err, sin_err


def test_panel_phase_keeps_the_rule_at_machine_precision():
    # the bound is 1e-15 per unit length of [-1, 1]; the 32-point rule's error
    # is 7.1e-16 at 58 rad and 2.3e-15 at 60, while with numpy's leggauss
    # weights it is 2.4e-15 at every phase, so those weights would fail the bound
    bound = 2 * 1e-15
    assert max(_rule_errors(interval._MAX_PHASE_PER_PANEL)) <= bound
    assert max(_rule_errors(interval._MAX_PHASE_PER_PANEL + 2)) > bound  # and a wider panel fails it


@pytest.mark.parametrize(
    "halfwaves, count",
    [(10**13, "10000000000000"), (10**400, "1" + "0" * 400), (10**5000, "an int of 16610 bits")],
    ids=["1e13", "1e400", "1e5000"],
)
def test_mode_quadrature_beyond_memory_is_a_domain_error(halfwaves, count):
    # 10**13 ended in numpy's MemoryError, 10**400 in an OverflowError of pi h
    with pytest.raises(DomainError, match=f"^{count} half-waves need .* for the rule's nodes and weights, more than"):
        mode_quadrature(1.0, halfwaves)


@pytest.mark.parametrize("order, count", [(10**7, "10000000"), (10**400, "1" + "0" * 400)], ids=["1e7", "1e400"])
def test_gauss_legendre_beyond_memory_is_a_domain_error(order, count):
    # 10**5 ended in numpy's MemoryError on a 74.5 GiB companion matrix, 10**400 in an OverflowError
    with pytest.raises(DomainError, match=f"^Gauss-Legendre order {count} needs .* for its companion matrix, more than"):
        gauss_legendre(order)


@pytest.mark.parametrize("length", [17, 8, 0, 3 * interval._PANEL_ORDER + 1])
def test_mode_cosine_moments_need_whole_panels(length):
    # a length that is no whole number of panels ended in numpy's "cannot reshape"
    with pytest.raises(DomainError, match=f"^{length} nodes are no whole number of {interval._PANEL_ORDER}-point panels$"):
        mode_cosine_moments(np.ones((2, length)), np.arange(3))


@pytest.mark.parametrize(
    "m, shown", [([1.5], "1.5"), (np.array([2.0, 3.0]), "2.0"), ([], "an empty float64 array")]
)
def test_mode_cosine_moments_need_integer_indices(m, shown):
    # a float index ended in numpy's IndexError
    fw = mode_quadrature(1.0, 16)[1]
    with pytest.raises(DomainError, match=f"^cosine-moment indices must form an integer array, got {shown}$"):
        mode_cosine_moments(fw, m)


def test_only_interval_builds_gauss_legendre_rules():
    # one module owns the rules; the tests' own leggauss calls are independent references
    src = pathlib.Path(interval.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "leggauss" in p.read_text())
    assert users == ["interval.py"]
