"""Output checks computed apart from the program.

The reference values here come from first principles: group averages by
relabelling edge lists under every node map of the group, the heat kernel
in closed form, and dense linear algebra. Each check returns a short
failure message, or ``None`` when the output passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Relative tolerance for Gram entries against the brute-force group average.
GRAM_RTOL = 1e-12
#: Tolerance for predictions and evidences against a dense solve, relative
#: to the scale of the quantity (prior variance, target spread, |LML|).
SOLVE_RTOL = 1e-8


def _slot_index(n: int) -> np.ndarray:
    """Symmetric (n, n) map from an unordered node pair to its edge slot."""
    tri = np.full((n, n), -1, dtype=np.int64)
    slot = 0
    for i in range(n):
        for j in range(i + 1, n):
            tri[i, j] = tri[j, i] = slot
            slot += 1
    return tri


def orbit_images(edges: list[tuple[int, int]], group: np.ndarray) -> np.ndarray:
    """(|H|, d) 0/1 edge-slot vectors of the graph relabelled by every node map."""
    n = group.shape[1]
    tri = _slot_index(n)
    out = np.zeros((group.shape[0], n * (n - 1) // 2), dtype=np.int8)
    if edges:
        e = np.array(edges, dtype=np.int64)
        cols = tri[group[:, e[:, 0]], group[:, e[:, 1]]]
        out[np.arange(group.shape[0])[:, None], cols] = 1
    return out


def distance_histograms(xs: list, ys: list, group: np.ndarray) -> np.ndarray:
    """(len(xs), len(ys), d+1) counts over the group of |sigma(x) XOR y|."""
    n = group.shape[1]
    d = n * (n - 1) // 2
    ident = np.arange(n)[None, :]
    y_vecs = np.concatenate([orbit_images(y, ident) for y in ys]) if ys else np.zeros((0, d), np.int8)
    out = np.zeros((len(xs), len(ys), d + 1))
    for i, x in enumerate(xs):
        imgs = orbit_images(x, group)
        dist = (imgs[:, None, :] != y_vecs[None, :, :]).sum(axis=2)  # (|H|, len(ys))
        for j in range(len(ys)):
            out[i, j] = np.bincount(dist[:, j], minlength=d + 1)
    return out


def self_histograms(xs: list, group: np.ndarray) -> np.ndarray:
    """(len(xs), d+1) counts over the group of |sigma(x) XOR x|: the prior variance's histogram."""
    return np.stack([distance_histograms([x], [x], group)[0, 0] for x in xs])


def heat_profile(kappa: float, variance: float, d: int) -> np.ndarray:
    """Heat kernel under the symmetric Laplacian: variance * tanh(kappa^2 / 2d)^m."""
    return variance * math.tanh(kappa**2 / (2.0 * d)) ** np.arange(d + 1)


def gram_from_histograms(hist: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Group-averaged kernel: each histogram row sums to the group order."""
    return (hist @ profile) / hist.sum(axis=2)


def check_gram_entries(program: np.ndarray, reference: np.ndarray, label: str) -> str | None:
    """Entries agree to GRAM_RTOL relative."""
    err = np.abs(program - reference) / np.abs(reference)
    worst = float(err.max())
    if not worst <= GRAM_RTOL:
        return f"{label}: Gram entry off by {worst:.3e} relative (tolerance {GRAM_RTOL:g})"
    return None


def check_symmetric_psd(K: np.ndarray, label: str) -> str | None:
    if not np.array_equal(K, K.T):
        return f"{label}: Gram matrix is not symmetric (max gap {float(np.abs(K - K.T).max()):.3e})"
    low = float(np.linalg.eigvalsh(K).min())
    if low < -1e-10 * float(np.trace(K)):
        return f"{label}: Gram matrix has eigenvalue {low:.3e} < 0"
    return None


def normalized(ys: np.ndarray) -> np.ndarray:
    return (ys - ys.mean()) / ys.std()


def dense_lml(K: np.ndarray, z: np.ndarray, noise: float) -> float:
    """Log evidence of z under N(0, K + noise I), by slogdet and a dense solve."""
    A = K + max(noise, 1e-8) * np.eye(len(z))
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0:
        return -math.inf
    return float(-0.5 * z @ np.linalg.solve(A, z) - 0.5 * logdet - 0.5 * len(z) * math.log(2 * math.pi))


def check_tuned_not_worse(start_lml: float, tuned_lml: float, label: str) -> str | None:
    """The tuner promises never to return parameters worse than its start."""
    if not tuned_lml >= start_lml - SOLVE_RTOL * max(1.0, abs(start_lml)):
        return f"{label}: tuned LML {tuned_lml:.6f} is below the starting LML {start_lml:.6f}"
    return None


def check_beats_naive(rmse: float, y_train: np.ndarray, y_test: np.ndarray, label: str) -> str | None:
    """A tuned model must predict held-out targets better than the training mean does."""
    naive = float(np.sqrt(np.mean((y_test - y_train.mean()) ** 2)))
    if not rmse < naive:
        return f"{label}: held-out RMSE {rmse:.6f} is not below the training mean's {naive:.6f}"
    return None


def check_close(program: float, reference: float, scale: float, label: str) -> str | None:
    if not abs(program - reference) <= SOLVE_RTOL * scale:
        return f"{label}: {program!r} differs from the dense value {reference!r}"
    return None


def dense_posterior(K: np.ndarray, Ks: np.ndarray, prior_var: np.ndarray, z: np.ndarray, noise: float):
    """Posterior mean and pointwise variance on the normalized scale."""
    A = K + noise * np.eye(K.shape[0])
    mean = Ks @ np.linalg.solve(A, z)
    var = prior_var - np.einsum("ij,ji->i", Ks, np.linalg.solve(A, Ks.T))
    return mean, var


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["index", "mean", "variance"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    return body[:, 1], body[:, 2]


def check_predictions(
    mean: np.ndarray,
    var: np.ndarray,
    rows: np.ndarray,
    ref_mean: np.ndarray,
    ref_var: np.ndarray,
    prior_var: np.ndarray,
    y_std: float,
    label: str,
) -> str | None:
    """Every variance lies in [0, its prior variance]; ``rows`` match the dense solve."""
    bad = np.flatnonzero((var < 0) | (var > prior_var * (1 + SOLVE_RTOL)))
    if bad.size:
        i = bad[0]
        return f"{label}: variance {var[i]!r} at row {i} outside [0, {prior_var[i]!r}]"
    gap_m = float(np.abs(mean[rows] - ref_mean).max())
    if not gap_m <= SOLVE_RTOL * y_std:
        return f"{label}: means differ from the dense solve by {gap_m:.3e}"
    gap_v = float(np.abs(var[rows] - ref_var).max())
    if not gap_v <= SOLVE_RTOL * float(prior_var.max()):
        return f"{label}: variances differ from the dense solve by {gap_v:.3e}"
    return None


def check_manifest(out_path: Path, argv: list[str], label: str) -> str | None:
    """The output exists and its manifest records the exact argument vector."""
    manifest = Path(str(out_path) + ".manifest.json")
    if not out_path.is_file() or not manifest.is_file():
        return f"{label}: missing {out_path.name} or its manifest"
    recorded = json.loads(manifest.read_text()).get("argv")
    if recorded != argv:
        return f"{label}: manifest argv {recorded} != {argv}"
    return None
