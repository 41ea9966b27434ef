"""Exact Gaussian-process regression and sampling on graph spaces.

Models are conjugate GP regressors: given training codes x with targets y
observed under i.i.d. Gaussian noise, the posterior mean and covariance are

    m(.)  = K(., x) (K(x, x) + noise I)^-1 y
    k(., .') = k(., .') - K(., x) (K(x, x) + noise I)^-1 K(x, .')

computed through the Cholesky factor L of K + noise I (escalating jitter if
needed) and its inverse, formed once per fit: every solve is a product with
L^-1, in numpy alone; scipy serves only the tuner's optimizer.
Hyperparameters are tuned by maximizing the log marginal likelihood over
log-scale parameters with its analytic gradient
0.5 tr((alpha alpha^T - (K + noise I)^-1) dK/dtheta), where each dK/dtheta
comes from the same distance counts as K, contracted with the derivative
of the kernel profile. Prior samples come either from a dense factor, from
explicit Walsh features (exact law up to the chosen level), or from
random-anchor features that scale to high levels; posterior samples are
prior samples transformed by the usual pathwise update. Averaging sampled
functions over a permutation group gives draws from the group-averaged
(projected) process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .kernels import (
    Heat,
    KernelSpec,
    LinearKernel,
    Matern,
    kernel_profile,
    profile_derivatives,
    spectral_coefficients,
)
from .kravchuk import build_table
from .spaces import GraphCode, NodePermutation, apply_permutation, bit_matrix, pairwise_hamming

NOISE_FLOOR = 1e-8
_JITTER_FACTOR = 1e-8
_JITTER_GROWTH = 10.0
_JITTER_RETRIES = 3


def _cholesky_with_jitter(K: np.ndarray, noise_var: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky of K + noise_var I, adding jitter relative to K's largest diagonal if needed."""
    eye = np.eye(K.shape[0])
    scale = max(float(np.abs(np.diag(K)).max()), 1e-12)
    jitters = [0.0] + [_JITTER_FACTOR * scale * _JITTER_GROWTH**k for k in range(_JITTER_RETRIES)]
    for jit in jitters:
        try:
            return np.linalg.cholesky(K + (noise_var + jit) * eye), jit
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        f"covariance matrix is not positive definite even after jitter {jitters[-1]:.3e}"
    )


@dataclass(frozen=True, eq=False)
class GPModel:
    """A fitted conjugate GP regressor; immutable, its arrays read-only.

    ``chol`` is the lower Cholesky factor L of K + (noise + jitter) I and ``chol_inv`` its inverse.
    """

    kernel: object
    train_x: tuple[GraphCode, ...]
    train_y: np.ndarray
    noise: float
    y_mean: float
    y_std: float
    chol: np.ndarray
    chol_inv: np.ndarray
    alpha: np.ndarray
    jitter: float

    def __post_init__(self):
        for array in (self.train_y, self.chol, self.chol_inv, self.alpha):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.train_x)

    def normalized_targets(self) -> np.ndarray:
        return (self.train_y - self.y_mean) / self.y_std


def fit(kernel, xs: Sequence[GraphCode], ys: Sequence[float], noise: float, normalize_y: bool = False) -> GPModel:
    """Fit the conjugate model: factor K + noise I and cache the solve against y.

    ``noise`` is the observation noise variance (floored at 1e-8). With
    ``normalize_y`` the targets are centered and scaled before fitting and
    every prediction is mapped back to the original scale.
    """
    xs, ys = _training_data(xs, ys)
    return _condition(kernel, xs, ys, kernel.gram(xs), noise, normalize_y)


def _training_data(xs: Sequence[GraphCode], ys: Sequence[float]) -> tuple[tuple[GraphCode, ...], np.ndarray]:
    """Checked training data, targets copied: as many codes as targets, at least one, all in one space."""
    xs = tuple(xs)
    ys = np.array(ys, dtype=float)
    if len(xs) == 0 or len(xs) != len(ys):
        raise ValueError(f"need equally many codes and targets, got {len(xs)} and {len(ys)}")
    space = xs[0].space
    for x in xs[1:]:
        if x.space != space:
            raise ValueError("training codes live in different spaces")
    return xs, ys


def _condition(
    kernel, xs: tuple[GraphCode, ...], ys: np.ndarray, K: np.ndarray, noise: float, normalize_y: bool
) -> GPModel:
    """The model given the training Gram K: factor K + noise I (with jitter), invert L, solve against y.

    Shared by ``fit`` and the tuner's objective, so their likelihoods are bit-equal.
    """
    noise_eff = max(float(noise), NOISE_FLOOR)
    if normalize_y:
        y_mean = float(ys.mean())
        y_std = float(ys.std())
        if y_std <= 0:
            raise ValueError("targets are constant; cannot normalize")
    else:
        y_mean, y_std = 0.0, 1.0
    z = (ys - y_mean) / y_std
    L, jitter = _cholesky_with_jitter(K, noise_eff)
    L_inv = np.linalg.inv(L)
    alpha = L_inv.T @ (L_inv @ z)
    return GPModel(kernel, xs, ys, noise_eff, y_mean, y_std, L, L_inv, alpha, jitter)


def prior_moments(kernel, xs: Sequence[GraphCode]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and pointwise variance before conditioning on any data: (0, k(x, x))."""
    xs = tuple(xs)
    return np.zeros(len(xs)), kernel.diag(xs)


def predict(model: GPModel, xs: Sequence[GraphCode], full_cov: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and (co)variance at new codes, on the original scale.

    Returns ``(mean, var)`` with pointwise variances clipped at zero, or
    ``(mean, cov)`` when ``full_cov`` is set.
    """
    xs = tuple(xs)
    if xs and xs[0].space != model.train_x[0].space:
        raise ValueError("prediction codes live in a different space than the training codes")
    Ks = model.kernel.gram(xs, model.train_x)
    mean = Ks @ model.alpha * model.y_std + model.y_mean
    V = model.chol_inv @ Ks.T
    if full_cov:
        Kss = model.kernel.gram(xs)
        cov = (Kss - V.T @ V) * model.y_std**2
        return mean, cov
    var = model.kernel.diag(xs) - np.sum(V**2, axis=0)
    return mean, np.clip(var, 0.0, None) * model.y_std**2


def log_marginal_likelihood(model: GPModel) -> float:
    """Log evidence of the (normalized-scale) targets under the fitted model."""
    z = model.normalized_targets()
    return float(
        -0.5 * z @ model.alpha
        - np.sum(np.log(np.diag(model.chol)))
        - 0.5 * model.n * math.log(2.0 * math.pi)
    )


# -- hyperparameter optimization --------------------------------------------


@dataclass
class OptimizationResult:
    """Outcome of :func:`optimize_hyperparameters`.

    ``failed`` counts the evaluations scored as a wall because the
    covariance could not be factored or the likelihood or its gradient was
    not finite. ``at_bound`` names the tuned parameters whose returned log
    value lies within 1e-6 of the search box's edge (+-10 in log space),
    where the search could not follow the likelihood any further.
    """

    kernel: object
    noise: float
    objective: float
    evaluations: int
    names: tuple[str, ...]
    failed: int
    at_bound: tuple[str, ...]


_LOG_BOUND = 10.0
_AT_BOUND_TOL = 1e-6


def _theta_layout(kernel, noise: float, d: int):
    """(names, theta0, rebuild) for log-space tuning of a kernel + noise; noise comes last."""
    log = math.log
    if isinstance(kernel, LinearKernel):
        names = ("variance", "noise")
        theta0 = np.array([log(kernel.variance), log(noise)])

        def rebuild(theta):
            return kernel.with_variance(math.exp(theta[0])), math.exp(theta[1])

        return names, theta0, rebuild
    spec = kernel.spec
    fam = spec.family
    if isinstance(fam, Heat):
        names = ("kappa", "variance", "noise")
        theta0 = np.array([log(fam.kappa), log(spec.variance), log(noise)])

        def rebuild(theta):
            new = KernelSpec(Heat(math.exp(theta[0])), math.exp(theta[1]), spec.laplacian, spec.truncation)
            return kernel.with_spec(new), math.exp(theta[2])

        return names, theta0, rebuild
    if isinstance(fam, Matern):
        nu_base = fam.nu - d / 2
        if nu_base <= 0:
            raise ValueError(
                f"Matern tuning parameterizes nu = d/2 + nu_base; nu={fam.nu} "
                f"gives nu_base={nu_base} <= 0 for d={d}"
            )
        names = ("kappa", "variance", "nu_base", "noise")
        theta0 = np.array([log(fam.kappa), log(spec.variance), log(nu_base), log(noise)])

        def rebuild(theta):
            new = KernelSpec(
                Matern(nu=d / 2 + math.exp(theta[2]), kappa=math.exp(theta[0])),
                math.exp(theta[1]),
                spec.laplacian,
                spec.truncation,
            )
            return kernel.with_spec(new), math.exp(theta[3])

        return names, theta0, rebuild
    raise ValueError(f"cannot tune hyperparameters of family {type(fam).__name__}")


def _gram_derivatives(kernel, xs: tuple[GraphCode, ...], names: tuple[str, ...]) -> tuple[np.ndarray, list]:
    """The training Gram K and dK/dtheta for every kernel parameter in ``names`` (noise excluded).

    dK/dlog(variance) is K itself; the spectral parameters' derivatives come
    with K from one stack of profiles, so from one build of the counts.
    """
    if isinstance(kernel, LinearKernel):
        K = kernel.gram(xs)
        return K, [K]
    d = xs[0].space.d
    derivs = profile_derivatives(kernel.spec, d)
    grams = kernel.square_grams(xs, np.stack([kernel_profile(kernel.spec, d), *derivs.values()]))
    by_name = dict(zip(derivs, grams[1:]), variance=grams[0])
    return grams[0], [by_name[name] for name in names[:-1]]


def _lml_and_gradient(
    kernel, xs: tuple[GraphCode, ...], ys: np.ndarray, noise: float, normalize_y: bool
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its analytic gradient in the tuner's log parameters.

    The gradient is 0.5 tr(W dK/dtheta) with W = alpha alpha^T - (K + noise I)^-1
    (Rasmussen & Williams 2006, eq. 5.9), in the order of
    :class:`OptimizationResult` ``names``; for log noise dK/dtheta = noise I.
    """
    names, _, _ = _theta_layout(kernel, noise, xs[0].space.d)
    K, dKs = _gram_derivatives(kernel, xs, names)
    model = _condition(kernel, xs, ys, K, noise, normalize_y)
    W = np.outer(model.alpha, model.alpha) - model.chol_inv.T @ model.chol_inv
    grad = [np.vdot(W, dK) for dK in dKs] + [model.noise * np.trace(W)]
    return log_marginal_likelihood(model), 0.5 * np.array(grad)


class _BudgetSpent(Exception):
    """Raised by the tuner's objective when a further evaluation would exceed the budget."""


def optimize_hyperparameters(
    kernel,
    xs: Sequence[GraphCode],
    ys: Sequence[float],
    noise: float = 0.1,
    budget: int = 200,
    normalize_y: bool = False,
) -> OptimizationResult:
    """Maximize the log marginal likelihood over log-scale parameters.

    Runs a quasi-Newton line search (L-BFGS-B) fed by the analytic gradient
    of the log marginal likelihood. ``budget`` is a hard cap on objective
    evaluations, the initial one included (at least one is always made):
    the search stops at the cap, even inside a line search. Deterministic
    given the initial kernel and budget; the best parameters seen are
    returned, so the final objective never falls below the initial one. A
    zero budget returns the initial parameters unchanged. An evaluation
    whose covariance cannot be factored, or whose likelihood or gradient is
    not finite, scores as a wall and is counted in ``failed``; any other
    error propagates.
    """
    xs, ys = _training_data(xs, ys)
    names, theta0, rebuild = _theta_layout(kernel, noise, xs[0].space.d)
    for name, value in zip(names, theta0):
        if not np.isfinite(value):
            raise ValueError(f"initial value of parameter {name!r} is not finite in log space")

    cap = max(budget, 1)
    state = {"best_theta": theta0.copy(), "best_f": np.inf, "evals": 0, "failed": 0, "last": None}

    def objective(theta):
        last = state["last"]
        if last is not None and np.array_equal(theta, last[0]):
            return last[1], last[2].copy()  # L-BFGS-B starts by evaluating theta0 again
        if state["evals"] >= cap:
            raise _BudgetSpent
        state["evals"] += 1
        theta = np.array(theta, dtype=float)
        k2, n2 = rebuild(theta)
        try:
            lml, grad = _lml_and_gradient(k2, xs, ys, n2, normalize_y)
        except np.linalg.LinAlgError:
            lml, grad = np.nan, None
        if np.isfinite(lml) and np.isfinite(grad).all():
            f, g = -lml, -grad
            if f < state["best_f"]:
                state["best_f"], state["best_theta"] = f, theta
        else:
            state["failed"] += 1
            f, g = 1e12, np.zeros_like(theta)
        state["last"] = (theta, f, g)
        return f, g

    f0, _ = objective(theta0)
    if f0 >= 1e12:
        raise ValueError(
            "objective is not finite at the initial parameters "
            f"({', '.join(f'{n}={math.exp(v):.4g}' for n, v in zip(names, theta0))})"
        )
    from scipy.optimize import minimize  # graphgp's only scipy import, about 0.6 s

    try:
        minimize(objective, theta0, method="L-BFGS-B", jac=True, bounds=[(-_LOG_BOUND, _LOG_BOUND)] * len(theta0))
    except _BudgetSpent:
        pass
    best_theta = state["best_theta"]
    best_kernel, best_noise = rebuild(best_theta)
    return OptimizationResult(
        kernel=best_kernel,
        noise=best_noise,
        objective=-state["best_f"],
        evaluations=state["evals"],
        names=names,
        failed=state["failed"],
        at_bound=tuple(n for n, v in zip(names, best_theta) if abs(abs(v) - _LOG_BOUND) <= _AT_BOUND_TOL),
    )


# -- sampling ----------------------------------------------------------------


def sample_prior_exact(kernel, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, len(xs)) i.i.d. zero-mean draws with covariance K(xs, xs)."""
    xs = tuple(xs)
    if n_samples == 0:
        return np.zeros((0, len(xs)))
    L, _ = _cholesky_with_jitter(kernel.gram(xs), 0.0)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, len(xs))) @ L.T


def _level_amplitudes(spec: KernelSpec, d: int) -> np.ndarray:
    """Per-level subset variance a_j with k = sum_j a_j G(d,j,.); zeros beyond truncation."""
    coeffs = spectral_coefficients(spec, d)
    log_binom = build_table(d).log_binom
    out = np.zeros(d + 1)
    live = np.isfinite(coeffs.log_weights)
    out[live] = spec.variance * np.exp(coeffs.log_weights[live] - log_binom[live])
    return out


class TruncatedWalshSampler:
    """Prior sampler from explicit Walsh features up to a level cap.

    With ``level_cap`` equal to d the draws follow the exact prior law; with
    a smaller cap they follow the correspondingly truncated kernel. The
    feature count is the number of index subsets up to the cap and is
    refused above ``feature_budget``.
    """

    def __init__(self, spec: KernelSpec, space, level_cap: int | None = None, feature_budget: int = 1 << 20):
        d = space.d
        J = level_cap
        if J is None:
            J = d if spec.truncation is None else min(spec.truncation, d)
        if not (0 <= J <= d):
            raise ValueError(f"level cap {J} out of range for d={d}")
        sizes = [math.comb(d, j) for j in range(J + 1)]
        count = sum(sizes)
        if count > feature_budget:
            raise ValueError(
                f"feature count {count} (levels 0..{J} in dimension {d}) exceeds the budget {feature_budget}"
            )
        self.spec = replace(spec, truncation=J)
        self.space = space
        self.level_cap = J
        # one 0/1 row per index subset T, levels 0..J in order
        self._subsets = np.zeros((count, d), dtype=np.uint8)
        subsets = (combo for j in range(J + 1) for combo in itertools.combinations(range(d), j))
        for f, combo in enumerate(subsets):
            self._subsets[f, list(combo)] = 1
        self._sqrt_amp = np.repeat(np.sqrt(_level_amplitudes(self.spec, d)[: J + 1]), sizes)

    @property
    def n_features(self) -> int:
        return self._subsets.shape[0]

    def feature_matrix(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """(n_features, len(xs)) matrix of weighted Walsh values (-1)^|x within T|."""
        bits = bit_matrix(xs).reshape(len(xs), self.space.d).astype(np.uint8)  # (0, 0) if empty
        parity = (self._subsets @ bits.T) & 1  # uint8 sums wrap modulo 256, keeping their parity
        return self._sqrt_amp[:, None] * (1.0 - 2.0 * parity)

    def draw(self, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
        W = self.feature_matrix(xs)
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n_samples, self.n_features)) @ W


class RandomPhaseSampler:
    """Prior sampler from level sums against random anchor codes.

    Features are G(d, j, |x XOR u_l|) for anchors u_l drawn uniformly once
    at construction, weighted by sqrt(a_j / L). All d levels stay affordable
    because the feature count is (d+1) * L rather than 2^d. Draws are
    zero-mean; their covariance equals :meth:`analytic_gram` exactly and
    approaches the target kernel as L grows.
    """

    def __init__(self, spec: KernelSpec, space, num_anchors: int, seed: int, level_cap: int | None = None):
        if num_anchors < 1:
            raise ValueError(f"need at least one anchor, got {num_anchors}")
        d = space.d
        J = level_cap
        if J is None:
            J = d if spec.truncation is None else min(spec.truncation, d)
        self.spec = replace(spec, truncation=J)
        self.space = space
        self.level_cap = J
        self.num_anchors = num_anchors
        rng = np.random.default_rng(seed)
        self.anchors = tuple(space.random_code(rng) for _ in range(num_anchors))
        amps = _level_amplitudes(self.spec, d)
        self._coef = np.repeat(np.sqrt(amps[: J + 1] / num_anchors), num_anchors)
        table = build_table(d)
        self._raw_levels = table.values[: J + 1, :] * np.exp(table.log_binom[: J + 1, None])

    @property
    def n_features(self) -> int:
        return (self.level_cap + 1) * self.num_anchors

    def feature_matrix(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """(n_features, len(xs)) weighted level-sum features; rows ordered (j, l)."""
        M = pairwise_hamming(list(xs), list(self.anchors))  # (P, L)
        feats = self._raw_levels[:, M]  # (J+1, P, L)
        feats = np.moveaxis(feats, 2, 1).reshape(self.n_features, len(xs))
        return self._coef[:, None] * feats

    def draw(self, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
        W = self.feature_matrix(xs)
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n_samples, self.n_features)) @ W

    def analytic_gram(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Exact covariance of this sampler's draws, given its fixed anchors."""
        W = self.feature_matrix(xs)
        return W.T @ W


def posterior_sample(model: GPModel, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
    """Posterior draws by transforming joint prior draws with the data update.

    Each draw evaluates a prior sample f jointly on training and test codes
    and returns f(test) + K(test, x) (K + noise I)^-1 (y - f(x) - eps) with a
    fresh noise draw eps, which reproduces the exact posterior moments.
    """
    xs = tuple(xs)
    if n_samples == 0:
        return np.zeros((0, len(xs)))
    joint = tuple(model.train_x) + xs
    L, _ = _cholesky_with_jitter(model.kernel.gram(joint), 0.0)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_samples, len(joint))) @ L.T
    n = model.n
    f_train, f_test = draws[:, :n], draws[:, n:]
    eps = rng.standard_normal((n_samples, n)) * math.sqrt(model.noise)
    resid = model.normalized_targets()[None, :] - f_train - eps
    Ks = model.kernel.gram(xs, model.train_x)  # (n*, n)
    update = (resid @ model.chol_inv.T) @ (model.chol_inv @ Ks.T)
    return (f_test + update) * model.y_std + model.y_mean


def project_sample(
    draws: np.ndarray,
    eval_codes: Sequence[GraphCode],
    targets: Sequence[GraphCode],
    perms: Sequence[NodePermutation],
) -> np.ndarray:
    """Average sampled function values over permuted inputs.

    ``draws`` has one column per code in ``eval_codes``; the result has one
    column per target x holding the mean of f(sigma(x)) over ``perms``. Every
    permuted input must be present in ``eval_codes``; missing ones are
    reported.
    """
    if len(perms) == 0:
        raise ValueError("need at least one permutation to average over")
    index = {c.bits: i for i, c in enumerate(eval_codes)}
    columns = np.empty((len(targets), len(perms)), dtype=np.int64)
    missing: list[GraphCode] = []
    for t, x in enumerate(targets):
        for p, sigma in enumerate(perms):
            img = apply_permutation(sigma, x)
            col = index.get(img.bits)
            if col is None:
                missing.append(img)
            else:
                columns[t, p] = col
    if missing:
        shown = ", ".join(str(sorted(m.edges())) for m in missing[:5])
        raise ValueError(
            f"{len(missing)} permuted inputs are not covered by the sample; "
            f"first missing edge lists: {shown}"
        )
    out = np.empty((draws.shape[0], len(targets)))
    for t in range(len(targets)):
        out[:, t] = draws[:, columns[t]].mean(axis=1)
    return out
