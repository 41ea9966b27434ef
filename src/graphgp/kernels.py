"""Isotropic covariance kernels on graph spaces.

Every kernel here is a spectral filter on the d-dimensional hypercube graph
whose vertices are the graph codes: k(x, y) depends only on the Hamming
distance m = |x XOR y| and can be written as

    k(x, y) = sigma^2 * sum_j c_j * G'(d, j, m)

where G' are the normalized level sums from :mod:`graphgp.kravchuk`, the
c_j are nonnegative and sum to one, and c_j is proportional to
Phi(lambda_j) * C(d, j) for a nonnegative spectral density Phi evaluated at
the hypercube Laplacian eigenvalue of level j. The normalizer is computed
with a max-shifted log-sum-exp so very peaked or very flat spectra stay
finite, and it guarantees k(x, x) = sigma^2.

The whole kernel is its profile, the d + 1 values k(0..d), which is one
vector-matrix product of the c_j with the table of G'. Every Gram matrix in
the package is distance counts contracted with that profile: here each
pair contributes the single count at its Hamming distance, so the Gram is
the profile indexed by a Hamming matrix, which is cached for the code lists
it was built from; :mod:`graphgp.invariance` averages the counts over a
permutation group. A Gram's derivative in a spectral parameter is the same
counts contracted with the profile's derivative q (:func:`profile_derivatives`),
so it is never built: tr(W dK) is q @ g, where g is the counts contracted
once with W. A kernel's ``tuning_gram`` returns the square Gram and this
pullback W -> g from one build of the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .kravchuk import KravchukTable, build_table
from .spaces import GraphCode, GraphSpace, bit_matrix, pairwise_hamming


class LaplacianVariant(Enum):
    """Which hypercube Laplacian supplies the eigenvalues lambda_j.

    All three give the same kernel class, only the eigenvalue scale differs:
    2j for the plain Laplacian, 2j/d for the random-walk and symmetric
    normalized ones.
    """

    PLAIN = "plain"
    RANDOM_WALK = "rw"
    SYMMETRIC = "sym"


@dataclass(frozen=True)
class Matern:
    """Matérn spectral density Phi(lam) = (2 nu / kappa^2 + lam)^(-nu)."""

    nu: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    def log_phi(self, lam: np.ndarray) -> np.ndarray:
        return -self.nu * np.log(2.0 * self.nu / self.kappa**2 + lam)


@dataclass(frozen=True)
class Heat:
    """Heat (diffusion / squared-exponential) density Phi(lam) = exp(-kappa^2 lam / 2)."""

    kappa: float

    def __post_init__(self) -> None:
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    def log_phi(self, lam: np.ndarray) -> np.ndarray:
        return -0.5 * self.kappa**2 * lam


@dataclass(frozen=True)
class CustomPhi:
    """Arbitrary nonnegative spectral density, given as a callable of lambda."""

    phi: Callable[[float], float]

    def log_phi(self, lam: np.ndarray) -> np.ndarray:
        values = np.array([float(self.phi(float(v))) for v in np.atleast_1d(lam)])
        if (values < 0).any():
            bad = float(values[values < 0][0])
            raise ValueError(f"spectral density must be nonnegative, got {bad}")
        with np.errstate(divide="ignore"):
            return np.log(values)


Family = Matern | Heat | CustomPhi


@dataclass(frozen=True)
class KernelSpec:
    """A kernel: spectral family, variance, Laplacian variant, truncation level.

    ``truncation`` keeps only levels j <= J; ``None`` means exact (J = d).
    """

    family: Family
    variance: float = 1.0
    laplacian: LaplacianVariant = LaplacianVariant.SYMMETRIC
    truncation: int | None = None

    def __post_init__(self) -> None:
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if self.truncation is not None and self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")

    def with_variance(self, variance: float) -> "KernelSpec":
        return replace(self, variance=variance)


def matern_spec(
    d: int,
    nu_base: float = 2.5,
    kappa: float = 1.0,
    variance: float = 1.0,
    laplacian: LaplacianVariant = LaplacianVariant.SYMMETRIC,
    truncation: int | None = None,
) -> KernelSpec:
    """Matérn spec with the dimension-adapted smoothness nu = d/2 + nu_base.

    Plain half-integer nu decays too fast as d grows; offsetting by d/2
    keeps the kernel profile usable across dimensions.
    """
    return KernelSpec(Matern(nu=d / 2 + nu_base, kappa=kappa), variance, laplacian, truncation)


def eigenvalue_levels(variant: LaplacianVariant, d: int) -> np.ndarray:
    """Eigenvalue lambda_j of the chosen hypercube Laplacian for levels j = 0..d."""
    j = np.arange(d + 1, dtype=float)
    if variant is LaplacianVariant.PLAIN:
        return 2.0 * j
    return 2.0 * j / d


class CoefficientVector:
    """Per-level kernel coefficients in log form.

    ``log_weights[j]`` is log c_j where c_j = Phi(lambda_j) C(d, j) / C and
    the normalizer C makes the c_j sum to one; levels beyond the truncation
    are -inf.
    """

    def __init__(self, d: int, log_weights: np.ndarray, levels: np.ndarray):
        self.d = d
        log_weights = np.asarray(log_weights, dtype=float)
        log_weights.setflags(write=False)
        self.log_weights = log_weights
        levels = np.asarray(levels, dtype=float)
        levels.setflags(write=False)
        self.levels = levels

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def _log_level_masses(spec: KernelSpec, d: int) -> tuple[np.ndarray, np.ndarray]:
    """log(Phi(lambda_j) * C(d, j)) per level, truncated; plus the levels."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    J = d if spec.truncation is None else min(spec.truncation, d)
    lam = eigenvalue_levels(spec.laplacian, d)
    log_phi = np.asarray(spec.family.log_phi(lam), dtype=float)
    log_raw = log_phi + build_table(d).log_binom
    log_raw[J + 1 :] = -np.inf
    return log_raw, lam


def log_normalizer(spec: KernelSpec, d: int) -> float:
    """log of C = sum over retained levels of Phi(lambda_j) * C(d, j).

    Computed with a max-shifted log-sum-exp; dividing the raw level masses
    by C is what pins k(x, x) to sigma^2.
    """
    return _log_sum_exp(_log_level_masses(spec, d)[0])


def _log_sum_exp(log_raw: np.ndarray) -> float:
    finite = np.isfinite(log_raw)
    if not finite.any():
        raise ValueError("degenerate kernel: the spectral density vanishes on every retained level")
    shift = log_raw[finite].max()
    return float(shift + math.log(np.exp(log_raw[finite] - shift).sum()))


@lru_cache(maxsize=512)
def spectral_coefficients(spec: KernelSpec, d: int) -> CoefficientVector:
    """Normalized per-level coefficients of the kernel on a d-bit space."""
    log_raw, lam = _log_level_masses(spec, d)
    return CoefficientVector(d, log_raw - _log_sum_exp(log_raw), lam)


def kernel_profile(spec: KernelSpec, d: int) -> np.ndarray:
    """Vector of kernel values at every distance m = 0..d.

    One product of the level weights with the level-sum table,
    k(m) = sigma^2 * sum_j c_j G'(d, j, m), with k(0) pinned to sigma^2 (the
    normalization gives it up to rounding). Every |G'| <= 1 and the c_j sum
    to one, so however the signed terms cancel, each value is within a few
    (d + 1) rounding units of sigma^2 of the exact sum.
    """
    profile = spec.variance * (spectral_coefficients(spec, d).weights() @ build_table(d).values)
    profile[0] = spec.variance
    return profile


def profile_derivatives(spec: KernelSpec, d: int) -> dict[str, np.ndarray]:
    """Derivatives of :func:`kernel_profile` in log kappa and, for Matérn, in log nu_base.

    nu_base is nu - d/2, the tuner's Matérn parameter. A level weight moves
    as dc_j = c_j (r_j - sum_k c_k r_k) with r_j = d log Phi(lambda_j), so
    truncated levels (c_j = 0) contribute nothing. Entry 0 is 0 because k(0)
    is pinned to sigma^2.
    """
    fam = spec.family
    coeffs = spectral_coefficients(spec, d)
    lam = coeffs.levels
    if isinstance(fam, Heat):
        rates = {"kappa": -(fam.kappa**2) * lam}
    elif isinstance(fam, Matern):
        shift = 2.0 * fam.nu / fam.kappa**2
        rates = {
            "kappa": 2.0 * fam.nu * shift / (shift + lam),
            "nu_base": (fam.nu - d / 2) * (-np.log(shift + lam) - shift / (shift + lam)),
        }
    else:
        raise ValueError(f"no parameter derivatives for family {type(fam).__name__}")
    w = coeffs.weights()
    values = build_table(d).values
    out = {}
    for name, r in rates.items():
        deriv = spec.variance * ((w * (r - w @ r)) @ values)
        deriv[0] = 0.0
        out[name] = deriv
    return out


def evaluate(spec: KernelSpec, table: KravchukTable, m: int) -> float:
    """Kernel value at Hamming distance m: one entry of :func:`kernel_profile`."""
    if not (0 <= m <= table.d):
        raise ValueError(f"distance m={m} out of range for d={table.d}")
    return float(kernel_profile(spec, table.d)[m])


def heat_closed_form(kappa: float, sigma2: float, m: int) -> float:
    """Closed-form heat kernel value sigma^2 * tanh(kappa^2 / 2)^m.

    Matches the spectral Heat family with the plain Laplacian (eigenvalues
    2j); under the normalized variants the same formula holds with kappa^2
    replaced by kappa^2 / d.
    """
    if not (kappa > 0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    if m < 0:
        raise ValueError(f"distance must be >= 0, got {m}")
    return sigma2 * math.tanh(kappa**2 / 2.0) ** m


#: Hamming matrices kept for reuse, keyed by the code lists they came from;
#: one tuning run needs two (training square, test-by-training cross).
HAMMING_CACHE_SIZE = 8


@lru_cache(maxsize=HAMMING_CACHE_SIZE)
def _hamming_matrix(xs: tuple[GraphCode, ...], ys: tuple[GraphCode, ...] | None) -> np.ndarray:
    out = pairwise_hamming(xs, ys)
    out.setflags(write=False)
    return out


def gram(
    spec: KernelSpec, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None
) -> np.ndarray:
    """Gram matrix of kernel values at pairwise Hamming distances."""
    if len(xs) == 0:
        return np.zeros((0, 0 if ys is None else len(ys)))
    return kernel_profile(spec, xs[0].space.d)[_hamming_matrix(tuple(xs), None if ys is None else tuple(ys))]


class IsotropicKernel:
    """A kernel spec bound to a space; the Gram-matrix provider used by GP code."""

    def __init__(self, spec: KernelSpec, space: GraphSpace):
        self.spec = spec
        self.space = space

    def gram(self, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None) -> np.ndarray:
        return gram(self.spec, xs, ys)

    def tuning_gram(self, xs: Sequence[GraphCode], profile: np.ndarray) -> tuple[np.ndarray, Callable]:
        """The square Gram of nonempty xs at a (d + 1) profile, and its pullback W -> g: the
        Hamming-distance counts weighted by W, so g @ q == <W, Gram at q> for symmetric W."""
        D = _hamming_matrix(tuple(xs), None)
        return profile[D], lambda W: np.bincount(D.ravel(), weights=W.ravel(), minlength=len(profile))

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances k(x, x), without the square Gram."""
        return np.full(len(xs), self.spec.variance)

    def profile(self) -> np.ndarray:
        return kernel_profile(self.spec, self.space.d)

    def with_spec(self, spec: KernelSpec) -> "IsotropicKernel":
        return IsotropicKernel(spec, self.space)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IsotropicKernel({self.spec!r}, {self.space.kind.value}_{self.space.n})"


class LinearKernel:
    """Baseline linear kernel on raw bit vectors: k(x, y) = sigma^2 (<x, y> + 1)."""

    def __init__(self, variance: float = 1.0):
        if not (variance > 0 and math.isfinite(variance)):
            raise ValueError(f"variance must be positive and finite, got {variance}")
        self.variance = variance

    def gram(self, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None) -> np.ndarray:
        if len(xs) == 0 or (ys is not None and len(ys) == 0):
            return np.zeros((len(xs), len(xs) if ys is None else len(ys)))
        bx = bit_matrix(xs)
        by = bx if ys is None else bit_matrix(ys)
        return self.variance * (bx @ by.T + 1.0)

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances sigma^2 (|x| + 1), without the square Gram."""
        return self.variance * (np.array([x.weight for x in xs], dtype=float) + 1.0)

    def with_variance(self, variance: float) -> "LinearKernel":
        return LinearKernel(variance)


# -- JSON kernel-spec format ----------------------------------------------

_VARIANT_BY_CODE = {v.value: v for v in LaplacianVariant}


def spec_to_json(spec: KernelSpec) -> dict:
    if isinstance(spec.family, Matern):
        fam = {"family": "matern", "nu": spec.family.nu, "kappa": spec.family.kappa}
    elif isinstance(spec.family, Heat):
        fam = {"family": "heat", "kappa": spec.family.kappa}
    else:
        raise ValueError("custom spectral densities have no JSON form")
    fam["variance"] = spec.variance
    fam["laplacian"] = spec.laplacian.value
    if spec.truncation is not None:
        fam["truncation"] = spec.truncation
    return fam


def spec_from_json(obj: dict, d: int | None = None) -> KernelSpec:
    """Parse a kernel spec. Matérn accepts either "nu" or "nu_base" (needs d)."""
    family_name = obj.get("family")
    kappa = float(obj.get("kappa", 1.0))
    if family_name == "heat":
        family: Family = Heat(kappa=kappa)
    elif family_name == "matern":
        if "nu" in obj:
            nu = float(obj["nu"])
        elif "nu_base" in obj:
            if d is None:
                raise ValueError('"nu_base" requires the space dimension to resolve nu = d/2 + nu_base')
            nu = d / 2 + float(obj["nu_base"])
        else:
            raise ValueError('matern spec needs "nu" or "nu_base"')
        family = Matern(nu=nu, kappa=kappa)
    else:
        raise ValueError(f"unknown kernel family {family_name!r}; expected heat or matern")
    variant = _VARIANT_BY_CODE.get(obj.get("laplacian", "sym"))
    if variant is None:
        raise ValueError(f"unknown laplacian variant {obj.get('laplacian')!r}")
    truncation = obj.get("truncation")
    return KernelSpec(
        family=family,
        variance=float(obj.get("variance", 1.0)),
        laplacian=variant,
        truncation=None if truncation is None else int(truncation),
    )

