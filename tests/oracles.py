"""Independent slow-path oracles used to validate the fast implementations.

Everything here recomputes quantities from first principles (explicit
matrices, dense solves, direct enumeration) and deliberately avoids the
code paths under test.
"""

import math
from functools import lru_cache

import numpy as np

from graphgp.invariance import pair_histogram
from graphgp.kernels import KernelSpec, LaplacianVariant, kernel_profile, spectral_coefficients
from graphgp.kravchuk import KravchukTable, build_table


def hypercube_laplacian(d: int, variant: LaplacianVariant) -> np.ndarray:
    """Explicit 2^d x 2^d Laplacian of the bit-flip adjacency graph."""
    size = 1 << d
    A = np.zeros((size, size))
    for v in range(size):
        for t in range(d):
            A[v, v ^ (1 << t)] = 1.0
    if variant is LaplacianVariant.PLAIN:
        return d * np.eye(size) - A
    return np.eye(size) - A / d


@lru_cache(maxsize=8)
def _eigensystem(d: int, variant: LaplacianVariant):
    return np.linalg.eigh(hypercube_laplacian(d, variant))


def dense_spectral_profile(spec: KernelSpec, d: int) -> np.ndarray:
    """k(m) for m = 0..d from a full numerical eigendecomposition.

    Builds the explicit Laplacian, eigendecomposes it, pushes the spectral
    density through, and normalizes so k(0) = variance. Groups the resulting
    row values by Hamming weight and checks they collapse to a function of
    distance before returning the per-distance profile.
    """
    assert spec.truncation is None, "oracle does not model truncation"
    lam, vec = _eigensystem(d, spec.laplacian)
    log_phi = np.asarray(spec.family.log_phi(np.clip(lam, 0.0, None)), dtype=float)
    phi = np.exp(log_phi - log_phi.max())  # shift cancels in the normalization
    row0 = vec @ (phi * vec[0])
    profile = np.empty(d + 1)
    weights = np.array([int(v).bit_count() for v in range(1 << d)])
    for m in range(d + 1):
        vals = row0[weights == m]
        assert vals.max() - vals.min() <= 1e-9 * abs(row0[0]), "row is not distance-collapsed"
        profile[m] = vals.mean()
    return spec.variance * profile / profile[0]


def dense_gp_posterior(K, Ks, Kss_diag, y, noise):
    """Posterior mean and pointwise variance by a direct dense solve."""
    A = K + noise * np.eye(K.shape[0])
    solve = np.linalg.solve(A, np.eye(K.shape[0]))
    mean = Ks @ solve @ y
    var = Kss_diag - np.einsum("ij,jk,ik->i", Ks, solve, Ks)
    return mean, var


def dense_log_marginal_likelihood(K, y, noise):
    A = K + noise * np.eye(K.shape[0])
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.solve(A, y) - 0.5 * logdet - 0.5 * len(y) * np.log(2 * np.pi))


def log_sign_evaluate(spec: KernelSpec, table: KravchukTable, m: int) -> float:
    """Kernel value at distance m, summing c_j * G'(d, j, m) in sign + log form.

    Terms carry signs from G', so the summation tracks signs explicitly and
    shifts by the largest log magnitude. At m = 0 every G' equals one and
    the value is exactly sigma^2 by normalization.
    """
    d = table.d
    assert 0 <= m <= d
    if m == 0:
        return spec.variance
    coeffs = spectral_coefficients(spec, d)
    g = table.values[:, m]
    live = np.isfinite(coeffs.log_weights) & (g != 0.0)
    if not live.any():
        return 0.0
    log_terms = coeffs.log_weights[live] + np.log(np.abs(g[live]))
    signs = np.sign(g[live])
    shift = log_terms.max()
    acc = float(np.sum(signs * np.exp(log_terms - shift)))
    return spec.variance * acc * math.exp(shift)


def log_sign_profile(spec: KernelSpec, d: int) -> np.ndarray:
    table = build_table(d)
    return np.array([log_sign_evaluate(spec, table, m) for m in range(d + 1)])


def exact_gram_by_pairs(spec: KernelSpec, H, xs, ys=None) -> np.ndarray:
    """Exact projected Gram, one cached pair histogram per entry."""
    profile = kernel_profile(spec, xs[0].space.d)
    order = H.order()
    ys = xs if ys is None else ys
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = float(pair_histogram(H, x, y) @ profile) / order
    return out
