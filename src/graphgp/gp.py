"""Exact Gaussian-process regression and sampling on graph spaces.

Models are conjugate GP regressors: given training codes x with targets y
observed under i.i.d. Gaussian noise, the posterior mean and covariance are

    m(.)  = K(., x) (K(x, x) + noise I)^-1 y
    k(., .') = k(., .') - K(., x) (K(x, x) + noise I)^-1 K(x, .')

computed through the Cholesky factor L of K + noise I (escalating jitter if
needed) and its inverse, formed once per fit by 2 x 2 blocks: every solve is
a product with L^-1, in numpy alone. Hyperparameters are tuned by maximizing
the log marginal likelihood over log-scale parameters with an in-package port of
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995; v3.0, Morales & Nocedal 2011) with a
More-Thuente line search (More & Thuente 1994) in a box of +-10 around the
origin of log space, fed by the analytic gradient 0.5 tr(W dK/dtheta),
W = alpha alpha^T - (K + noise I)^-1. No dK/dtheta is built: it is K's
distance counts at the profile's derivative q, so the trace is q @ g, with g
the counts contracted once with W. Prior samples come either from a dense
factor, from explicit Walsh features (exact law up to the chosen level), or
from random-anchor features that scale to high levels; posterior samples are
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
    level_amplitudes,
    profile_derivatives,
    truncation_level,
)
from .kravchuk import build_table
from .spaces import (
    GraphCode,
    NodePermutation,
    bit_matrix,
    common_space,
    decode_words,
    image_sources,
    pairwise_hamming,
    permuted_words,
)

NOISE_FLOOR = 1e-8
_JITTER_FACTOR = 1e-8
_JITTER_GROWTH = 10.0
_JITTER_RETRIES = 3


def _cholesky_with_jitter(K: np.ndarray, noise_var: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky of K + noise_var I, adding jitter relative to K's largest diagonal if needed.

    The shifts go onto the diagonal of one copy of K, which is left as it is; the ladder of
    jitters, and K's largest diagonal that scales it, are worked out only if a factor fails.
    """
    diag, shifted = K.diagonal(), K.copy()
    for k in range(-1, _JITTER_RETRIES):
        jit = 0.0 if k < 0 else _JITTER_FACTOR * max(float(np.abs(diag).max(initial=0.0)), 1e-12) * _JITTER_GROWTH**k
        np.fill_diagonal(shifted, diag + (noise_var + jit))
        try:
            return np.linalg.cholesky(shifted), jit
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(f"covariance matrix is not positive definite even after jitter {jit:.3e}")


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
    noise = max(float(noise), NOISE_FLOOR)
    y_mean, y_std, z = _normalized(ys, normalize_y)
    L, jitter, L_inv, alpha = _factor(kernel.gram(xs), noise, z)
    return GPModel(kernel, xs, ys, noise, y_mean, y_std, L, L_inv, alpha, jitter)


def _training_data(xs: Sequence[GraphCode], ys: Sequence[float]) -> tuple[tuple[GraphCode, ...], np.ndarray]:
    """Checked training data, targets copied: as many codes as targets, at least one."""
    xs = tuple(xs)
    ys = np.array(ys, dtype=float)
    if len(xs) == 0 or len(xs) != len(ys):
        raise ValueError(f"need equally many codes and targets, got {len(xs)} and {len(ys)}")
    return xs, ys


def _normalized(ys: np.ndarray, normalize_y: bool) -> tuple[float, float, np.ndarray]:
    """(y_mean, y_std, z): the targets' centre and scale, 0 and 1 unless ``normalize_y``, and (ys - y_mean) / y_std."""
    if normalize_y:
        y_mean = float(ys.mean())
        y_std = float(ys.std())
        if y_std <= 0:
            raise ValueError("targets are constant; cannot normalize")
    else:
        y_mean, y_std = 0.0, 1.0
    return y_mean, y_std, (ys - y_mean) / y_std


def _factor(K: np.ndarray, noise: float, z: np.ndarray) -> tuple:
    """(L, jitter, L^-1, alpha): factor K + noise I (with jitter), invert L, solve against z.

    Shared by ``fit`` and the tuner's objective, so their likelihoods are bit-equal.
    """
    L, jitter = _cholesky_with_jitter(K, noise)
    L_inv = _lower_inverse(L)
    return L, jitter, L_inv, L_inv.T @ (L_inv @ z)


#: Rows up to which :func:`_lower_inverse` hands a block to ``np.linalg.inv`` whole.
_INVERSE_LEAF = 32


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular L, by 2 x 2 blocks: [[A, 0], [B, C]]^-1 is
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]], the diagonal blocks' inverses found the same way, down to
    ``_INVERSE_LEAF`` rows; two half-size products replace a general LU on the whole."""
    n = len(L)
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (L[h:, :h] @ out[:h, :h]))
    return out


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
    return _log_evidence(model.normalized_targets(), model.alpha, model.chol, 0.5 * model.n * math.log(2.0 * math.pi))


def _log_evidence(z: np.ndarray, alpha: np.ndarray, L: np.ndarray, const: float) -> float:
    """-z^T alpha / 2 - log det L - const, const being n log(2 pi) / 2; shared with the tuner's objective."""
    return float(-0.5 * z @ alpha - np.log(L.diagonal()).sum() - const)


# -- hyperparameter optimization --------------------------------------------


@dataclass
class OptimizationResult:
    """Outcome of :func:`optimize_hyperparameters`.

    ``failed`` counts the evaluations scored as a wall because the
    covariance could not be factored or the likelihood or its gradient was
    not finite. ``at_bound`` names the tuned parameters whose returned log
    value lies within 1e-6 of the search box's edge (+-10 in log space),
    where the search could not follow the likelihood any further.
    ``stopped`` says how the search ended: ``"gradient"`` (projected
    gradient within tolerance), ``"reduction"`` (relative decrease of the
    objective within tolerance), ``"budget"`` (a further evaluation would
    exceed the budget) or ``"line_search"`` (no acceptable step, even after
    dropping the curvature memory).
    """

    kernel: object
    noise: float
    objective: float
    evaluations: int
    names: tuple[str, ...]
    failed: int
    at_bound: tuple[str, ...]
    stopped: str


_LOG_BOUND = 10.0
_AT_BOUND_TOL = 1e-6
_WALL = 1e12  # objective value of an evaluation that failed

# L-BFGS-B with scipy's defaults: corrections kept, projected-gradient
# tolerance, relative-reduction tolerance (factr = 1e7)
_MEMORY = 10
_PGTOL = 1e-5
_EPS = float(np.finfo(float).eps)
_REL_REDUCTION = 1e7 * _EPS
# More-Thuente line search: sufficient decrease, curvature, bracket width, trial steps per search
_LS_FTOL, _LS_GTOL, _LS_XTOL, _LS_STEPS = 1e-3, 0.9, 0.1, 20


def _theta_layout(kernel, noise: float, d: int):
    """(names, theta0, unpack, rebuild) for log-space tuning of a kernel + noise; noise comes last.

    ``unpack(theta)`` gives (params, noise), params being the kernel's spec
    (its variance for the linear kernel); ``rebuild(theta)`` gives (kernel, noise).
    """
    exp, log = math.exp, math.log
    if isinstance(kernel, LinearKernel):
        names, theta0 = ("variance", "noise"), [log(kernel.variance), log(noise)]
        with_params = kernel.with_variance

        def params(theta):
            return exp(theta[0])

    else:
        spec, with_params = kernel.spec, kernel.with_spec
        fam = spec.family
        if isinstance(fam, Heat):
            names, theta0 = ("kappa", "variance", "noise"), [log(fam.kappa), log(spec.variance), log(noise)]

            def params(theta):
                return KernelSpec(Heat(exp(theta[0])), exp(theta[1]), spec.laplacian, spec.truncation)

        elif isinstance(fam, Matern):
            nu_base = fam.nu - d / 2
            if nu_base <= 0:
                raise ValueError(
                    f"Matern tuning parameterizes nu = d/2 + nu_base; nu={fam.nu} "
                    f"gives nu_base={nu_base} <= 0 for d={d}"
                )
            names = ("kappa", "variance", "nu_base", "noise")
            theta0 = [log(fam.kappa), log(spec.variance), log(nu_base), log(noise)]

            def params(theta):
                family = Matern(nu=d / 2 + exp(theta[2]), kappa=exp(theta[0]))
                return KernelSpec(family, exp(theta[1]), spec.laplacian, spec.truncation)

        else:
            raise ValueError(f"cannot tune hyperparameters of family {type(fam).__name__}")

    def unpack(theta):
        return params(theta), exp(theta[-1])

    def rebuild(theta):
        return with_params(params(theta)), exp(theta[-1])

    return names, np.array(theta0), unpack, rebuild


def _tuning_objective(kernel, names: tuple[str, ...], xs: tuple[GraphCode, ...], ys: np.ndarray, normalize_y: bool):
    """The tuner's objective, built once per run: (params, noise) -> (log marginal likelihood, gradient).

    ``params`` and ``noise`` are what :func:`_theta_layout`'s ``unpack``
    gives. The gradient is 0.5 tr(W dK/dtheta) with
    W = alpha alpha^T - (K + noise I)^-1 (Rasmussen & Williams 2006,
    eq. 5.9), in the order of ``names``; for log noise dK/dtheta = noise I.
    No dK/dtheta is built: it is K's counts at the profile's derivative q,
    so the trace is q @ g, with g the counts' pullback of W. Every q comes
    with the profile from one :func:`profile_derivatives` call (q is the
    profile itself for log variance); the linear kernel's profile is its
    variance, its one q is 1 and its g is <W, K>.
    """
    _, _, z = _normalized(ys, normalize_y)
    n = len(xs)
    const = 0.5 * n * math.log(2.0 * math.pi)
    gram_at = kernel.tuning_counts(xs)
    d = xs[0].space.d

    def spectrum(params):
        if isinstance(kernel, LinearKernel):
            return params, [np.ones(1)]
        derivs = profile_derivatives(params, d)
        return derivs["variance"], [derivs[name] for name in names[:-1]]

    def lml_and_gradient(params, noise: float) -> tuple[float, np.ndarray]:
        profile, rates = spectrum(params)
        K, pullback = gram_at(profile)
        noise = max(noise, NOISE_FLOOR)
        L, _, L_inv, alpha = _factor(K, noise, z)
        W = alpha[:, None] * alpha - L_inv.T @ L_inv
        g = pullback(W)
        grad = [q @ g for q in rates] + [noise * W.trace()]
        return _log_evidence(z, alpha, L, const), 0.5 * np.array(grad)

    return lml_and_gradient


def optimize_hyperparameters(
    kernel,
    xs: Sequence[GraphCode],
    ys: Sequence[float],
    noise: float = 0.1,
    budget: int = 200,
    normalize_y: bool = False,
) -> OptimizationResult:
    """Maximize the log marginal likelihood over log-scale parameters.

    Runs L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995, with the subspace step of
    v3.0, Morales & Nocedal 2011) in the box +-10 around the origin of log
    space, fed by the analytic gradient of the log marginal likelihood.
    ``budget`` is a hard cap on objective evaluations, the initial one
    included (at least one is always made): the search stops at the cap,
    even inside a line search. Deterministic given the initial kernel and
    budget; the best parameters seen are returned, so the final objective
    never falls below the initial one. A zero budget returns the initial
    parameters unchanged. An evaluation whose covariance cannot be factored,
    or whose likelihood or gradient is not finite, scores as a wall and is
    counted in ``failed``; any other error propagates.

    The objective is built once per run: the normalized targets and the
    kernel's distance counts (the isotropic kernel's Hamming matrix, the
    exact kernel's cached (pair, distance, share) triples, or the linear
    kernel's bit Gram) are fixed at entry, so an evaluation only maps theta
    to a spec and noise, computes the profile and its rates, and contracts,
    factors, inverts and pulls back. A Monte Carlo kernel's counts are the
    exception: the package caches no sample triples, so each evaluation
    bins them again, from the codes' distinct images and words fetched at
    entry.
    """
    xs, ys = _training_data(xs, ys)
    names, theta0, unpack, rebuild = _theta_layout(kernel, noise, xs[0].space.d)
    for name, value in zip(names, theta0):
        if not np.isfinite(value):
            raise ValueError(f"initial value of parameter {name!r} is not finite in log space")
    lml_and_gradient = _tuning_objective(kernel, names, xs, ys, normalize_y)

    state = {"best_theta": theta0, "best_f": math.inf, "evals": 0, "failed": 0}

    def objective(theta: list) -> tuple[float, list]:
        state["evals"] += 1
        try:
            lml, grad = lml_and_gradient(*unpack(theta))
        except np.linalg.LinAlgError:
            lml, grad = math.nan, np.zeros(0)
        grad = grad.tolist()
        if math.isfinite(lml) and all(map(math.isfinite, grad)):
            if -lml < state["best_f"]:
                state["best_f"], state["best_theta"] = -lml, theta
            return -lml, [-v for v in grad]
        state["failed"] += 1
        return _WALL, [0.0] * len(theta)

    f, g = objective(theta0)
    if f >= _WALL:
        raise ValueError(
            "objective is not finite at the initial parameters "
            f"({', '.join(f'{n}={math.exp(v):.4g}' for n, v in zip(names, theta0))})"
        )
    stopped = _lbfgsb(objective, theta0.tolist(), f, g, max(budget, 1) - 1)
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
        stopped=stopped,
    )


def _lbfgsb(objective, x: list, f: float, g: list, budget: int) -> str:
    """Minimize ``objective`` (a list x to its value and gradient list) over the box +-_LOG_BOUND by L-BFGS-B.

    A dense port of L-BFGS-B v3.0 with scipy's defaults, for the handful of
    variables the tuner has: B = theta I - R holds theta = y^T y / s^T y and
    the last ``_MEMORY`` curvature pairs (s, y) in compact form (Byrd,
    Nocedal & Schnabel 1994); pairs with s^T y <= eps (-g^T s) are skipped.
    Each iteration finds the generalized Cauchy point by scanning the
    breakpoints of the projected steepest-descent path, minimizes the model
    over the variables it leaves free (projecting the step, or backtracking
    to the box if the projection points uphill), and searches along the
    result with More-Thuente. A failed line search drops the memory once.
    Vectors are Python lists: at this size numpy's per-call cost exceeds
    the arithmetic. Starts from x with f, g = objective(x) known, calls
    ``objective`` at most ``budget`` more times and returns why it stopped
    (see :class:`OptimizationResult` ``stopped``).
    """
    inside = [min(max(v, -_LOG_BOUND), _LOG_BOUND) for v in x]
    if inside != x:  # the search starts from the start's projection onto the box
        if budget == 0:
            return "budget"
        x, (f, g), budget = inside, objective(inside), budget - 1
    n = len(x)
    P = np.empty((0, n))  # the curvature pairs' y rows then their s rows, oldest first
    theta = 1.0
    first = True
    if _projected_gradient_norm(x, g) <= _PGTOL:
        return "gradient"
    while True:
        try:
            R = _memory_correction(P, theta) if len(P) else [[0.0] * n for _ in range(n)]
            z, free = _cauchy_point(x, g, theta, R)
            if len(P) and any(free):
                z = _subspace_point(x, g, z, free, theta, R)
        except np.linalg.LinAlgError:
            P, theta = P[:0], 1.0
            continue
        d = [zi - xi for zi, xi in zip(z, x)]
        gd0 = _dot(g, d)
        outcome, used = "failed", 0
        if gd0 < 0:
            stpmax = 1.0 if first else _max_step(x, d)
            outcome, used, stp, x1, f1, g1 = _line_search(objective, x, f, d, z, gd0, stpmax, budget)
        budget -= used
        if outcome == "budget":
            return "budget"
        if outcome == "failed":
            if not len(P):
                return "line_search"
            P, theta = P[:0], 1.0
            continue
        first = False
        if _projected_gradient_norm(x1, g1) <= _PGTOL:
            return "gradient"
        if f - f1 <= _REL_REDUCTION * max(abs(f), abs(f1), 1.0):
            return "reduction"
        sy = (_dot(g1, d) - gd0) * stp
        if sy > _EPS * -gd0 * stp:
            y = [b - a for a, b in zip(g, g1)]
            c = len(P) // 2
            old = c - _MEMORY + 1 if c >= _MEMORY else 0  # pairs that drop out
            P = np.concatenate((P[old:c], [y], P[c + old :], [[stp * di for di in d]]))
            theta = _dot(y, y) / sy
        x, f, g = x1, f1, g1


def _dot(u: list, v: list) -> float:
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _projected_gradient_norm(x: list, g: list) -> float:
    """Infinity norm of the gradient projected onto the box."""
    norm = 0.0
    for xi, gi in zip(x, g):
        pg = abs(max(xi - _LOG_BOUND, gi) if gi < 0 else min(xi + _LOG_BOUND, gi))
        if pg > norm:
            norm = pg
    return norm


def _middle_mask(c: int) -> np.ndarray:
    upper = np.triu(np.ones((c, c)), 1)
    return np.block([[np.zeros((c, c)), upper], [upper.T, np.ones((c, c))]])


_MIDDLE_MASKS = [_middle_mask(c) for c in range(_MEMORY + 1)]


def _memory_correction(P: np.ndarray, theta: float) -> list:
    """R in the L-BFGS matrix B = theta I - R, as nested lists, from P = [Y; S] (one pair per row, oldest first).

    R = W M^-1 W^T with W = [Y^T, theta S^T] and M = [[-D, L^T], [L, theta S S^T]],
    D and L the diagonal and strictly lower part of S Y^T (Byrd, Nocedal &
    Schnabel 1994). Scaling W's second block by 1 / theta gives
    R = P^T K^-1 P with K = [[-D, L^T / theta], [L / theta, S S^T / theta]],
    whose entries all come from the one product P P^T.
    """
    c = len(P) // 2
    G = P @ P.T
    K = G * _MIDDLE_MASKS[c]
    K /= theta
    K.flat[: c * (2 * c + 1) : 2 * c + 1] = -G.diagonal(c)  # the diagonal of the leading c x c block
    return (P.T @ np.linalg.solve(K, P)).tolist()


def _cauchy_point(x: list, g: list, theta: float, R: list) -> tuple[list, list]:
    """The generalized Cauchy point and which variables it leaves free.

    The first local minimizer of the model g^T z + z^T B z / 2 along the
    projected path x - t g, found segment by segment between the
    breakpoints where variables reach the box; the model's slope f1 and
    curvature f2 are carried from segment to segment as in L-BFGS-B's
    ``cauchy``, whose cancellations they would otherwise round differently.
    """
    n = len(x)
    free, d, breaks = [True] * n, [0.0] * n, []
    f1 = 0.0
    for i, (xi, gi) in enumerate(zip(x, g)):
        if xi <= -_LOG_BOUND and gi >= 0 or xi >= _LOG_BOUND and gi <= 0:
            free[i] = False
        elif gi != 0:
            d[i] = -gi
            f1 -= gi * gi
            breaks.append(((xi + _LOG_BOUND) / gi if gi > 0 else (xi - _LOG_BOUND) / gi, i))
    xcp = list(x)
    if not breaks:
        return xcp, free
    breaks.sort()
    f2 = f2_org = -theta * f1 - _dot(d, [_dot(row, d) for row in R])
    dtm = -f1 / f2
    tsum = t_prev = 0.0
    z = [0.0] * n  # displacement along the path so far
    for k, (t, i) in enumerate(breaks, 1):
        dt = t - t_prev
        if dtm < dt:
            break
        tsum += dt
        di = d[i]
        xcp[i] = _LOG_BOUND if di > 0 else -_LOG_BOUND
        free[i] = False
        if k == n:  # every variable reached the box
            return xcp, free
        z = [zj + dt * dj for zj, dj in zip(z, d)]
        wmp = _dot(R[i], d)
        d[i] = 0.0
        f1 = f1 + dt * f2 + di * di - theta * di * (xcp[i] - x[i]) + di * _dot(R[i], z)
        f2 = f2 - theta * di * di + (2.0 * di * wmp - di * di * R[i][i])
        f2 = max(_EPS * f2_org, f2)
        dtm = -f1 / f2 if k < len(breaks) else 0.0
        t_prev = t
    tsum += max(dtm, 0.0)
    return [xi + tsum * di for xi, di in zip(xcp, d)], free


def _subspace_point(x: list, g: list, xcp: list, free: list, theta: float, R: list) -> list:
    """Minimize the model over the free variables from the Cauchy point, kept in the box.

    The Newton step on the free variables is projected onto the box; if the
    projection clips it and makes the direction from x point uphill, the
    step is instead shortened to the box edge (L-BFGS-B v3.0).
    """
    idx = [i for i, fr in enumerate(free) if fr]
    step = [a - b for a, b in zip(xcp, x)]
    A, r = [], []
    for k, i in enumerate(idx):
        row = R[i]
        A.append([-row[j] for j in idx])
        A[k][k] += theta
        r.append(-theta * step[i] - g[i] + _dot(row, step))
    du = _solve_positive(A, r)
    z = list(xcp)
    clipped = False
    for i, u in zip(idx, du):
        v = xcp[i] + u
        if v <= -_LOG_BOUND or v >= _LOG_BOUND:
            v, clipped = min(max(v, -_LOG_BOUND), _LOG_BOUND), True
        z[i] = v
    if not clipped or _dot([a - b for a, b in zip(z, x)], g) <= 0:
        return z
    alpha, hit = 1.0, None
    for j, (i, u) in enumerate(zip(idx, du)):
        if u != 0:
            room = (_LOG_BOUND if u > 0 else -_LOG_BOUND) - xcp[i]
            reach = room / u if room * u > 0 else 0.0
            if reach < alpha:
                alpha, hit = reach, j
    z = list(xcp)
    if hit is not None:
        z[idx[hit]] = _LOG_BOUND if du[hit] > 0 else -_LOG_BOUND
        du[hit] = 0.0
    for i, u in zip(idx, du):
        z[i] += alpha * u
    return z


def _solve_positive(A: list, b: list) -> list:
    """Solve A u = b in place for a small positive definite A, by elimination without pivoting."""
    k = len(b)
    for j in range(k):
        pivot, row_j = A[j][j], A[j]
        if pivot <= 0:
            raise np.linalg.LinAlgError("subspace matrix is not positive definite")
        for i in range(j + 1, k):
            row = A[i]
            m = row[j] / pivot
            for c in range(j + 1, k):
                row[c] -= m * row_j[c]
            b[i] -= m * b[j]
    for i in reversed(range(k)):
        row = A[i]
        v = b[i]
        for c in range(i + 1, k):
            v -= row[c] * b[c]
        b[i] = v / row[i]
    return b


def _max_step(x: list, d: list) -> float:
    """Largest step along d that stays in the box (capped at 1e10)."""
    stpmax = 1e10
    for xi, di in zip(x, d):
        if di != 0:
            room = (_LOG_BOUND if di > 0 else -_LOG_BOUND) - xi
            stpmax = min(stpmax, room / di) if room * di > 0 else 0.0
    return stpmax


def _line_search(objective, x, f, d, z, gd0, stpmax, budget):
    """More-Thuente search along d from x, trying the full step to z = x + d first.

    Returns (outcome, evaluations, stp, x, f, g): outcome "ok" with the
    accepted point, "failed" after ``_LS_STEPS`` trials or "budget" when a
    trial would exceed ``budget`` evaluations. A trial at the point just
    evaluated reuses its value.
    """
    search = _MoreThuente(f, gd0, stpmax)
    stp, used, xt = 1.0, 0, None
    for _ in range(_LS_STEPS):
        trial = z if stp == 1.0 else [xi + stp * di for xi, di in zip(x, d)]
        if trial != xt:
            if used == budget:
                return "budget", used, stp, None, None, None
            xt = trial
            ft, gt = objective(xt)
            used += 1
        step = search.next_step(stp, ft, _dot(gt, d))
        if step is None:
            return "ok", used, stp, xt, ft, gt
        stp = step
    return "failed", used, stp, None, None, None


class _MoreThuente:
    """One More-Thuente line search (MINPACK-2 ``dcsrch``, More & Thuente 1994) from step 1.

    ``next_step`` takes phi(stp) and phi'(stp) for phi(t) = f(x + t d) and
    returns the next trial step, or None when stp satisfies the strong Wolfe
    conditions or no better step can be told apart (a warning exit, which
    also accepts stp).
    """

    def __init__(self, f0: float, g0: float, stpmax: float):
        self.finit, self.ginit, self.gtest = f0, g0, _LS_FTOL * g0
        self.stpmax = stpmax
        self.brackt, self.stage1 = False, True
        self.width, self.width1 = stpmax, 2.0 * stpmax
        self.stx = self.sty = 0.0
        self.fx = self.fy = f0
        self.gx = self.gy = g0
        self.stmin, self.stmax = 0.0, 5.0

    def next_step(self, stp: float, f: float, g: float) -> float | None:
        ftest = self.finit + stp * self.gtest
        if self.stage1 and f <= ftest and g >= 0:
            self.stage1 = False
        if (
            self.brackt and (stp <= self.stmin or stp >= self.stmax)
            or self.brackt and self.stmax - self.stmin <= _LS_XTOL * self.stmax
            or stp == self.stpmax and f <= ftest and g <= self.gtest
            or stp == 0.0 and (f > ftest or g >= self.gtest)
            or f <= ftest and abs(g) <= _LS_GTOL * -self.ginit
        ):
            return None
        if self.stage1 and self.fx >= f > ftest:
            # the modified function psi(t) = phi(t) - phi(0) - ftol t phi'(0) keeps the search in stage 1
            gt = self.gtest
            stx, fx, gx, sty, fy, gy, stp, self.brackt = _dcstep(
                self.stx, self.fx - self.stx * gt, self.gx - gt, self.sty, self.fy - self.sty * gt,
                self.gy - gt, stp, f - stp * gt, g - gt, self.brackt, self.stmin, self.stmax,
            )
            fx, gx, fy, gy = fx + stx * gt, gx + gt, fy + sty * gt, gy + gt
        else:
            stx, fx, gx, sty, fy, gy, stp, self.brackt = _dcstep(
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp, f, g,
                self.brackt, self.stmin, self.stmax,
            )
        self.stx, self.fx, self.gx, self.sty, self.fy, self.gy = stx, fx, gx, sty, fy, gy
        if self.brackt:
            if abs(sty - stx) >= 0.66 * self.width1:
                stp = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin, self.stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), self.stpmax)
        if self.brackt and (stp <= self.stmin or stp >= self.stmax or self.stmax - self.stmin <= _LS_XTOL * self.stmax):
            stp = stx
        return stp


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """Safeguarded cubic/quadratic step of MINPACK-2 ``dcstep``; updates the bracket [stx, sty].

    Computed in IEEE arithmetic, as MINPACK is: a zero division gives inf or
    nan rather than raising.
    """
    stx, fx, dx, sty, fy, dy, stp, fp, dp = map(np.float64, (stx, fx, dx, sty, fy, dy, stp, fp, dp))
    with np.errstate(all="ignore"):
        opposite = dx != 0 and dp * (dx / abs(dx)) < 0
        if fp > fx:
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp < stx:
                gamma = -gamma
            r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
            stpc = stx + r * (stp - stx)
            stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
            stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
            brackt = True
        elif opposite:
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp > stx:
                gamma = -gamma
            r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
            stpc = stp + r * (stx - stp)
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
            if stp > stx:
                gamma = -gamma
            r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
            if r < 0 and gamma != 0:
                stpc = stp + r * (stx - stp)
            else:
                stpc = stpmax if stp > stx else stpmin
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                bound = stp + 0.66 * (sty - stp)
                stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = min(max(stpf, stpmin), stpmax)
        elif brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
            stpf = stp + r * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
        if fp > fx:
            sty, fy, dy = stp, fp, dp
        else:
            if opposite:
                sty, fy, dy = stx, fx, dx
            stx, fx, dx = stp, fp, dp
    return float(stx), float(fx), float(dx), float(sty), float(fy), float(dy), float(stpf), brackt


# -- sampling ----------------------------------------------------------------


#: Most Walsh features a :class:`TruncatedWalshSampler` builds: index subsets up to its level cap.
FEATURE_BUDGET = 1 << 20


def _draw(factor: np.ndarray, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """(n_samples, factor columns) zero-mean draws z @ factor, z standard normal from rng, so of
    covariance factor.T @ factor: np.zeros((n_samples, 0)) for a factor of no rows or columns."""
    return rng.standard_normal((n_samples, factor.shape[0])) @ factor


def sample_prior_exact(kernel, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, len(xs)) i.i.d. zero-mean draws with covariance K(xs, xs)."""
    L, _ = _cholesky_with_jitter(kernel.gram(tuple(xs)), 0.0)
    return _draw(L.T, n_samples, np.random.default_rng(seed))


def _level_cap(spec: KernelSpec, d: int, level_cap: int | None) -> int:
    """A sampler's highest Walsh level: ``level_cap``, else the spec's truncation level."""
    J = truncation_level(spec, d) if level_cap is None else level_cap
    if not (0 <= J <= d):
        raise ValueError(f"level cap {J} out of range for d={d}")
    return J


class TruncatedWalshSampler:
    """Prior sampler from explicit Walsh features up to a level cap.

    With ``level_cap`` equal to d the draws follow the exact prior law; with
    a smaller cap they follow the correspondingly truncated kernel. The
    feature count is the number of index subsets up to the cap and is
    refused above ``FEATURE_BUDGET``.
    """

    def __init__(self, spec: KernelSpec, space, level_cap: int | None = None):
        d = space.d
        J = _level_cap(spec, d, level_cap)
        sizes = [math.comb(d, j) for j in range(J + 1)]
        count = sum(sizes)
        if count > FEATURE_BUDGET:
            raise ValueError(
                f"feature count {count} (levels 0..{J} in dimension {d}) exceeds the budget {FEATURE_BUDGET}"
            )
        self.spec = replace(spec, truncation=J)
        self.space = space
        self.level_cap = J
        # one 0/1 row per index subset T, levels 0..J in order, subsets of a level in combinations order
        self._subsets = np.zeros((count, d), dtype=np.uint8)
        for j, start, size in zip(range(J + 1), np.cumsum([0] + sizes), sizes):
            slots = itertools.chain.from_iterable(itertools.combinations(range(d), j))
            self._subsets[np.arange(start, start + size).repeat(j), np.fromiter(slots, np.intp, j * size)] = 1
        self._sqrt_amp = np.repeat(np.sqrt(level_amplitudes(self.spec, d)[: J + 1]), sizes)

    @property
    def n_features(self) -> int:
        return self._subsets.shape[0]

    def feature_matrix(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """(n_features, len(xs)) matrix of weighted Walsh values (-1)^|x within T|."""
        bits = bit_matrix(xs, self.space).astype(np.uint8)
        parity = (self._subsets @ bits.T) & 1  # uint8 sums wrap modulo 256, keeping their parity
        return self._sqrt_amp[:, None] * (1.0 - 2.0 * parity)

    def draw(self, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
        return _draw(self.feature_matrix(xs), n_samples, np.random.default_rng(seed))


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
        J = _level_cap(spec, d, level_cap)
        self.spec = replace(spec, truncation=J)
        self.space = space
        self.level_cap = J
        self.num_anchors = num_anchors
        rng = np.random.default_rng(seed)
        self.anchors = tuple(space.random_code(rng) for _ in range(num_anchors))
        amps = level_amplitudes(self.spec, d)
        self._coef = np.repeat(np.sqrt(amps[: J + 1] / num_anchors), num_anchors)
        table = build_table(d)
        self._raw_levels = table.values[: J + 1, :] * np.exp(table.log_binom[: J + 1, None])

    @property
    def n_features(self) -> int:
        return (self.level_cap + 1) * self.num_anchors

    def feature_matrix(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """(n_features, len(xs)) weighted level-sum features; rows ordered (j, l)."""
        M = pairwise_hamming(list(xs), list(self.anchors), self.space)  # (P, L)
        feats = self._raw_levels[:, M]  # (J+1, P, L)
        feats = np.moveaxis(feats, 2, 1).reshape(self.n_features, len(xs))
        return self._coef[:, None] * feats

    def draw(self, xs: Sequence[GraphCode], n_samples: int, seed: int) -> np.ndarray:
        return _draw(self.feature_matrix(xs), n_samples, np.random.default_rng(seed))

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
    joint = tuple(model.train_x) + xs
    K = model.kernel.gram(joint)
    L, _ = _cholesky_with_jitter(K, 0.0)
    rng = np.random.default_rng(seed)
    draws = _draw(L.T, n_samples, rng)  # noise eps comes next from the same stream
    n = model.n
    f_train, f_test = draws[:, :n], draws[:, n:]
    eps = rng.standard_normal((n_samples, n)) * math.sqrt(model.noise)
    resid = model.normalized_targets()[None, :] - f_train - eps
    Ks = K[n:, :n]  # the test-by-training block, K(xs, train_x)
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
    column per target x holding the mean of f(sigma(x)) over ``perms``, summed
    in their order. Every permuted input must be present in ``eval_codes`` (a
    code listed twice reads its last column); missing ones are reported. All
    codes must live in one space. Each target's images are one gather of its
    bits, looked up once each; the mean is one gather of len(targets) rows per
    permutation, len(perms) * len(targets) * len(draws) additions. Its extra
    memory is one transposed copy of ``draws``, whose rows the gathers read
    whole, one accumulator the size of the result and one column index per
    image.
    """
    if len(perms) == 0:
        raise ValueError("need at least one permutation to average over")
    space = common_space(itertools.chain(eval_codes, targets))
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != len(eval_codes):
        raise ValueError(f"draws of shape {draws.shape} need one column per eval code ({len(eval_codes)})")
    if len(targets) == 0:
        return np.empty((len(draws), 0))
    sources = image_sources([sigma.mapping for sigma in perms], space)
    index = {c.bits: i for i, c in enumerate(eval_codes)}
    images = (bits for x in targets for bits in decode_words(permuted_words(x, sources)))
    columns = np.fromiter((index.get(bits, -1) for bits in images), np.intp, len(targets) * len(perms))
    missing = np.flatnonzero(columns < 0)  # in (target, permutation) order
    if len(missing):
        first = (permuted_words(targets[r // len(perms)], sources[r % len(perms)][None]) for r in missing[:5])
        shown = ", ".join(str(sorted(GraphCode(space, decode_words(w)[0]).edges())) for w in first)
        raise ValueError(
            f"{len(missing)} permuted inputs are not covered by the sample; "
            f"first missing edge lists: {shown}"
        )
    columns = columns.reshape(len(targets), len(perms))
    rows = draws.T.copy()
    total = rows[columns[:, 0]]
    for p in range(1, len(perms)):
        total += rows[columns[:, p]]
    total /= len(perms)
    return total.T.copy()
