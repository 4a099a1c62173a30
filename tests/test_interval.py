"""Quadrature of Dirichlet sine modes on an interval."""

import numpy as np
import pytest

from geodet.interval import mode_quadrature

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
