"""Independent slow-path oracles used to validate the fast implementations.

Everything here recomputes quantities from first principles (explicit
matrices, dense solves, direct enumeration) and deliberately avoids the
code paths under test.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from graphgp import gp
from graphgp.kernels import KernelSpec, LaplacianVariant, kernel_profile, level_log_weights
from graphgp.invariance import Counts
from graphgp.kravchuk import KravchukTable, build_table
from graphgp.spaces import GraphCode, GraphSpace, NodePermutation


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


def dense_lml_and_gradient(K, dKs, y, noise):
    """Log marginal likelihood and its gradient by dense solves with K + noise I.

    One entry per Gram derivative in ``dKs``, then the log-noise entry (its
    derivative is noise I): 0.5 (a^T dK a - tr((K + noise I)^-1 dK)) with
    a = (K + noise I)^-1 y.
    """
    n = K.shape[0]
    A = K + noise * np.eye(n)
    a = np.linalg.solve(A, y)
    grad = [0.5 * (a @ dK @ a - np.trace(np.linalg.solve(A, dK))) for dK in [*dKs, noise * np.eye(n)]]
    return dense_log_marginal_likelihood(K, y, noise), np.array(grad)


def dense_posterior_sample(K_joint, Ks, z, noise, n_samples, seed):
    """``gp.posterior_sample``'s draws on the normalized scale, its update by a dense solve.

    Repeats the sampler's random stream: prior draws from the Cholesky
    factor of the joint Gram (training codes first; no jitter), then the
    noise draws. Returns ``(prior draws at the test codes, update)``, where
    the update is (z - f(x) - eps) (K + noise I)^-1 K(x, test).
    """
    n = len(z)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_samples, K_joint.shape[0])) @ np.linalg.cholesky(K_joint).T
    eps = rng.standard_normal((n_samples, n)) * math.sqrt(noise)
    resid = z[None, :] - draws[:, :n] - eps
    A = K_joint[:n, :n] + noise * np.eye(n)
    return draws[:, n:], resid @ np.linalg.solve(A, Ks.T)


def lml_gradient(
    kernel,
    xs: Sequence[GraphCode],
    ys: Sequence[float],
    noise: float,
    rel_step: float = 1e-6,
    normalize_y: bool = False,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Central-difference gradient of the log marginal likelihood in the tuner's log parameters."""
    xs = tuple(xs)
    names, theta0, _, rebuild = gp._theta_layout(kernel, noise, xs[0].space.d)

    def value(theta):
        k2, n2 = rebuild(theta)
        return gp.log_marginal_likelihood(gp.fit(k2, xs, ys, n2, normalize_y=normalize_y))

    grad = np.empty(len(theta0))
    for i in range(len(theta0)):
        h = rel_step * max(1.0, abs(theta0[i]))
        up = theta0.copy()
        dn = theta0.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (value(up) - value(dn)) / (2.0 * h)
    return names, grad


class _BudgetSpent(Exception):
    pass


def scipy_box_minimize(objective, x0, budget=200):
    """scipy's L-BFGS-B on ``objective`` (value, gradient) in the box +-10, as the tuner runs its search.

    A hard cap of ``budget`` evaluations (at least one), the evaluation at x0
    included, and the best point seen is kept. scipy is imported here, so
    only the tests that compare with it load it. Returns
    ``(x, value, evaluations)`` for the best point seen.
    """
    from scipy.optimize import minimize

    x0 = np.array(x0, dtype=float)
    cap = max(budget, 1)
    state = {"x": x0, "f": np.inf, "evals": 0, "last": None}

    def counted(x):
        last = state["last"]
        if last is not None and np.array_equal(x, last[0]):
            return last[1], last[2].copy()  # L-BFGS-B starts by evaluating x0 again
        if state["evals"] >= cap:
            raise _BudgetSpent
        state["evals"] += 1
        x = np.array(x, dtype=float)
        f, g = objective(x)
        if f < state["f"]:
            state["f"], state["x"] = f, x
        state["last"] = (x, f, g)
        return f, g

    counted(x0)
    try:
        minimize(counted, x0, method="L-BFGS-B", jac=True, bounds=[(-10.0, 10.0)] * len(x0))
    except _BudgetSpent:
        pass
    return state["x"], state["f"], state["evals"]


def scipy_lbfgsb(kernel, xs, ys, noise=0.1, budget=200, normalize_y=False):
    """``gp.optimize_hyperparameters``' search run by scipy's L-BFGS-B instead.

    The same objective (minus the tuner's ``_tuning_objective``, built once,
    in its log parameters, a failed evaluation scoring 1e12 with a zero
    gradient), box
    and evaluation cap, through :func:`scipy_box_minimize`. Returns
    ``(theta, lml, evaluations)``: the best log parameters seen, their log
    marginal likelihood and the evaluation count.
    """
    xs = tuple(xs)
    ys = np.array(ys, dtype=float)
    names, theta0, unpack, _ = gp._theta_layout(kernel, noise, xs[0].space.d)
    lml_and_gradient = gp._tuning_objective(kernel, names, xs, ys, normalize_y)

    def objective(theta):
        try:
            lml, grad = lml_and_gradient(*unpack(theta))
        except np.linalg.LinAlgError:
            return 1e12, np.zeros_like(theta)
        if np.isfinite(lml) and np.isfinite(grad).all():
            return -lml, -grad
        return 1e12, np.zeros_like(theta)

    theta, f, evaluations = scipy_box_minimize(objective, theta0, budget)
    return theta, -f, evaluations


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
    log_w = level_log_weights(spec, d)
    g = table.values[:, m]
    live = np.isfinite(log_w) & (g != 0.0)
    if not live.any():
        return 0.0
    log_terms = log_w[live] + np.log(np.abs(g[live]))
    signs = np.sign(g[live])
    shift = log_terms.max()
    acc = float(np.sum(signs * np.exp(log_terms - shift)))
    return spec.variance * acc * math.exp(shift)


def log_sign_profile(spec: KernelSpec, d: int) -> np.ndarray:
    table = build_table(d)
    return np.array([log_sign_evaluate(spec, table, m) for m in range(d + 1)])


def permute_bits(x: GraphCode, slot_perm: Sequence[int]) -> GraphCode:
    """x with each set bit s moved to slot ``slot_perm[s]``, one set bit at a time."""
    bits, out = x.bits, 0
    while bits:
        s = (bits & -bits).bit_length() - 1
        out |= 1 << int(slot_perm[s])  # int(): a numpy shift drops bits at slots past 62
        bits &= bits - 1
    return GraphCode(x.space, out)


@lru_cache(maxsize=4096)
def _relabelled_slots(sigma: NodePermutation, space: GraphSpace) -> tuple[int, ...]:
    """The slot each slot's node pair (i, j) moves to under sigma, found by searching space.slots
    for (sigma(i), sigma(j)), or for (sigma(j), sigma(i)) in an undirected space."""
    where = {pair: s for s, pair in enumerate(space.slots)}
    return tuple(where.get((sigma(i), sigma(j)), where.get((sigma(j), sigma(i)))) for i, j in space.slots)


def relabel(sigma: NodePermutation, x: GraphCode) -> GraphCode:
    """x with its nodes relabelled by sigma: edge (i, j) becomes (sigma(i), sigma(j))."""
    assert sigma.n == x.space.n
    return permute_bits(x, _relabelled_slots(sigma, x.space))


def project_sample_by_mean(draws, eval_codes, targets, perms) -> np.ndarray:
    """Column t: the mean over perms, summed in their order, of the draws' column at
    relabel(sigma, targets[t]), the last column of that code in ``eval_codes``; one target and
    one permutation at a time."""
    column = {c.bits: i for i, c in enumerate(eval_codes)}
    out = np.empty((draws.shape[0], len(targets)))
    for t, x in enumerate(targets):
        out[:, t] = np.mean([draws[:, column[relabel(s, x).bits]] for s in perms], axis=0)
    return out


def group_counts_by_enumeration(H, xs, ys, top: int) -> np.ndarray:
    """C[i, j, m]: the share of all |H| images sigma(x_i), enumerated one by one, at distance m from y_j."""
    elements = list(H.elements())
    out = np.zeros((len(xs), len(ys), top))
    for i, x in enumerate(xs):
        images = [relabel(s, x).bits for s in elements]
        for j, y in enumerate(ys):
            out[i, j] = np.bincount([(a ^ int(y.bits)).bit_count() for a in images], minlength=top) / len(elements)
    return out


def orbit_labels_by_enumeration(H, space) -> np.ndarray:
    """Each code's least image relabel(s, x).bits over all of H.elements(), indexed by code."""
    elements = list(H.elements())
    return np.array([min(relabel(s, x).bits for s in elements) for x in space.all_codes()])


def projection_by_enumeration(H, space, values) -> np.ndarray:
    """out(x) = the mean of values[s(x)] over all of H.elements(), one element at a time."""
    elements = list(H.elements())
    sums = [sum(values[relabel(s, x).bits] for s in elements) for x in space.all_codes()]
    return np.array(sums) / len(elements)


def sample_counts_by_enumeration(sample, xs, ys, top: int) -> np.ndarray:
    """C[i, j, m]: the share of the |S| x |S| pairs (s_a(x_i), s_b(y_j)), enumerated one by one, at distance m."""
    out = np.zeros((len(xs), len(ys), top))
    for i, x in enumerate(xs):
        images_x = [relabel(s, x).bits for s in sample]
        for j, y in enumerate(ys):
            images_y = [relabel(s, y).bits for s in sample]
            dists = [(a ^ b).bit_count() for a in images_x for b in images_y]
            out[i, j] = np.bincount(dists, minlength=top) / len(sample) ** 2
    return out


def dense_counts(counts: Counts, top: int) -> np.ndarray:
    """The dense (*shape, top) tensor of the package's (pair, distance, share) count triples; a
    (pair, distance) entry given twice, which assignment would hide, is refused. Square counts
    hold each unordered pair once, at i <= j, with the diagonal halved: their i < j entries are
    copied to (j, i) and their diagonal doubled."""
    keys = counts.pair * top + counts.dist
    assert len(np.unique(keys)) == len(keys), "a (pair, distance) entry occurs twice"
    out = np.zeros(math.prod(counts.shape) * top)
    out[keys] = counts.share
    out = out.reshape(*counts.shape, top)
    if counts.square:
        rows, cols = np.divmod(counts.pair, counts.shape[1])
        assert (rows <= cols).all(), "a square pair is stored below the diagonal"
        out += out.transpose(1, 0, 2)
    return out


def count_triples(dense: np.ndarray) -> Counts:
    """The package's count triples of a dense (..., top) tensor: its nonzeros, by entry and then distance."""
    *entry, dist = np.nonzero(dense)
    return Counts(np.ravel_multi_index(entry, dense.shape[:-1]), dist, dense[(*entry, dist)], dense.shape[:-1])


def orbit_by_closure(H, x) -> set[GraphCode]:
    """x's orbit under H: the closure of {x} under each block's adjacent transpositions, which
    generate the block's symmetric group, found breadth first one relabel at a time."""
    swaps = []
    for block in H.blocks:
        for a, b in zip(block, block[1:]):
            mapping = list(range(H.n))
            mapping[a], mapping[b] = b, a
            swaps.append(NodePermutation(tuple(mapping)))
    seen, queue = {x}, deque([x])
    while queue:
        code = queue.popleft()
        for s in swaps:
            image = relabel(s, code)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def exact_gram_by_pairs(spec: KernelSpec, H, xs, ys=None) -> np.ndarray:
    """Exact projected Gram from the counts over all |H| images of each x."""
    d = xs[0].space.d
    return group_counts_by_enumeration(H, xs, xs if ys is None else ys, d + 1) @ kernel_profile(spec, d)


def sampled_gram_by_pairs(spec: KernelSpec, sample, xs, ys=None) -> np.ndarray:
    """Monte Carlo projected Gram, the mean of k over one S x S block of images per entry."""
    profile = kernel_profile(spec, xs[0].space.d)
    ys = xs if ys is None else ys

    def images(x):
        return [relabel(s, x).bits for s in sample]

    images_x, images_y = [images(x) for x in xs], [images(y) for y in ys]
    out = np.empty((len(xs), len(ys)))
    for i, a in enumerate(images_x):
        for j, b in enumerate(images_y):
            dist = np.array([[(u ^ v).bit_count() for v in b] for u in a])
            out[i, j] = float(profile[dist].mean())
    return out


# -- Kravchuk oracles ----------------------------------------------------------

#: Enumeration guard for the subset-sum oracle: C(d, j) subsets get visited.
BRUTE_FORCE_MAX_DIM = 20


@dataclass(frozen=True)
class SubsetIndex:
    """A subset T of edge-slot indices {0..d-1}, kept sorted and duplicate-free."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.members) != sorted(set(self.members)):
            raise ValueError(f"subset members must be sorted and unique: {self.members}")
        if self.members and self.members[0] < 0:
            raise ValueError("subset members must be nonnegative")

    @classmethod
    def of(cls, members: Iterable[int]) -> "SubsetIndex":
        return cls(tuple(sorted(set(int(m) for m in members))))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        value = 0
        for m in self.members:
            value |= 1 << m
        return value


def walsh(T: SubsetIndex | Iterable[int], x: GraphCode) -> int:
    """Parity character (-1)^(number of set bits of x inside T); +1 or -1."""
    if not isinstance(T, SubsetIndex):
        T = SubsetIndex.of(T)
    if T.members and T.members[-1] >= x.space.d:
        raise ValueError(f"subset index {T.members[-1]} out of range for d={x.space.d}")
    return -1 if (x.bits & T.mask).bit_count() & 1 else 1


def raw_sign_log(table: KravchukTable, j: int, m: int) -> tuple[int, float]:
    """Unnormalized G(d, j, m) from a table as (sign, log|G|); sign 0 means the value is 0."""
    g = table.value(j, m)
    if g == 0.0:
        return 0, -math.inf
    sign = 1 if g > 0 else -1
    return sign, math.log(abs(g)) + float(table.log_binom[j])


def kravchuk_closed_form(d: int, j: int, m: int) -> int:
    """Exact integer G(d, j, m) via the alternating binomial sum.

    G(d, j, m) = sum over l of (-1)^l C(m, l) C(d-m, j-l), l ranging from
    max(0, m+j-d) to min(j, m). Serves as an independent oracle for the DP
    tables; evaluated in exact integer arithmetic.
    """
    if not (0 <= j <= d and 0 <= m <= d):
        raise ValueError(f"indices (j={j}, m={m}) out of range for d={d}")
    total = 0
    for ell in range(max(0, m + j - d), min(j, m) + 1):
        term = math.comb(m, ell) * math.comb(d - m, j - ell)
        total += -term if ell & 1 else term
    return total


def _walsh_subset_sum(d: int, j: int, z: int) -> int:
    if d > BRUTE_FORCE_MAX_DIM:
        raise ValueError(
            f"d={d} exceeds the enumeration limit {BRUTE_FORCE_MAX_DIM} "
            f"(C(d, j) subsets would be visited)"
        )
    if not (0 <= j <= d):
        raise ValueError(f"level j={j} out of range for d={d}")
    total = 0
    for combo in itertools.combinations(range(d), j):
        mask = 0
        for t in combo:
            mask |= 1 << t
        total += -1 if (z & mask).bit_count() & 1 else 1
    return total


def brute_force_level_sum(x: GraphCode, y: GraphCode, j: int) -> int:
    """Sum of w_T(x) w_T(y) over every size-j subset T, by direct enumeration.

    Must equal G(d, j, hamming(x, y)). Exponential in d; refused above
    ``BRUTE_FORCE_MAX_DIM``.
    """
    if x.space != y.space:
        raise ValueError("codes live in different spaces")
    return _walsh_subset_sum(x.space.d, j, x.bits ^ y.bits)


def brute_force_level_sum_at(d: int, j: int, m: int, z: int | None = None) -> int:
    """Enumeration oracle at Hamming distance m in a bare d-bit space.

    Uses the difference pattern with the m lowest bits set unless an
    explicit ``z`` of weight m is supplied.
    """
    if not (0 <= m <= d):
        raise ValueError(f"distance m={m} out of range for d={d}")
    if z is None:
        z = (1 << m) - 1
    elif z.bit_count() != m or z >> d:
        raise ValueError(f"difference pattern {z:#x} does not have weight {m} within {d} bits")
    return _walsh_subset_sum(d, j, z)
