"""Isotropic covariance kernels on graph spaces.

Every kernel here is a spectral filter on the d-dimensional hypercube graph
whose vertices are the graph codes: k(x, y) depends only on the Hamming
distance m = |x XOR y| and can be written as

    k(x, y) = sigma^2 * sum_j c_j * G'(d, j, m)

where G' are the normalized level sums from :mod:`graphgp.kravchuk`, the
c_j are nonnegative and sum to one, and c_j is proportional to
Phi(lambda_j) * C(d, j) for a nonnegative spectral density Phi evaluated at
the hypercube Laplacian eigenvalue of level j. This module is the one place
that spectrum is worked out, as two read-only (d + 1) arrays:
:func:`level_log_weights` holds log c_j (normalized with a max-shifted
log-sum-exp so very peaked or very flat spectra stay finite, which pins
k(x, x) = sigma^2), and :func:`level_amplitudes` the per-subset variances
a_j = sigma^2 c_j / C(d, j) that Walsh features and the quotient kernel use.

The whole kernel is its profile, the d + 1 values k(0..d), which is one
vector-matrix product of the c_j with the table of G'. Every Gram matrix in
the package is distance counts contracted with that profile: here each
pair contributes the single count at its Hamming distance, so the Gram is
the profile indexed by a Hamming matrix, built afresh for each Gram;
:mod:`graphgp.invariance` averages the counts over a permutation group. A
Gram's derivative in a spectral parameter is the same counts contracted
with the profile's derivative q (:func:`profile_derivatives`), so it is
never built: tr(W dK) is q @ g, where g is the counts contracted
once with W. A kernel's ``tuning_counts`` fetches a training set's square
counts once per tuning run and returns a function that, at each
evaluation's profile, gives the square Gram and this pullback W -> g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .kravchuk import KravchukTable, build_table
from .spaces import GraphCode, GraphSpace, bit_matrix, common_space, pairwise_hamming


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


def truncation_level(spec: KernelSpec, d: int) -> int:
    """The highest level J the spec keeps on a d-bit space: its truncation, at most d."""
    return d if spec.truncation is None else min(spec.truncation, d)


@lru_cache(maxsize=512)
def level_log_weights(spec: KernelSpec, d: int) -> np.ndarray:
    """Read-only log c_j for levels j = 0..d, the c_j summing to one.

    c_j = Phi(lambda_j) C(d, j) / C, with the normalizer C taken as a
    max-shifted log-sum-exp over the retained levels; dividing by C is what
    pins k(x, x) to sigma^2. Entries are -inf beyond the truncation and
    wherever Phi vanishes.
    """
    log_binom = build_table(d).log_binom
    log_raw = np.asarray(spec.family.log_phi(eigenvalue_levels(spec.laplacian, d)), dtype=float) + log_binom
    log_raw[truncation_level(spec, d) + 1 :] = -np.inf
    finite = np.isfinite(log_raw)
    if not finite.any():
        raise ValueError("degenerate kernel: the spectral density vanishes on every retained level")
    shift = log_raw[finite].max()
    out = log_raw - float(shift + math.log(np.exp(log_raw[finite] - shift).sum()))
    out.setflags(write=False)
    return out


def level_amplitudes(spec: KernelSpec, d: int) -> np.ndarray:
    """Per-subset variance a_j = sigma^2 c_j / C(d, j) for levels j = 0..d, 0 where c_j = 0.

    k = sum_j a_j G(d, j, .) with the raw level sums G, so a_j is the
    variance of each level-j Walsh feature.
    """
    log_c = level_log_weights(spec, d)
    out = np.zeros(d + 1)
    live = np.isfinite(log_c)
    out[live] = spec.variance * np.exp(log_c[live] - build_table(d).log_binom[live])
    return out


def kernel_profile(spec: KernelSpec, d: int) -> np.ndarray:
    """Vector of kernel values at every distance m = 0..d.

    One product of the level weights with the level-sum table,
    k(m) = sigma^2 * sum_j c_j G'(d, j, m), with k(0) pinned to sigma^2 (the
    normalization gives it up to rounding). Every |G'| <= 1 and the c_j sum
    to one, so however the signed terms cancel, each value is within a few
    (d + 1) rounding units of sigma^2 of the exact sum.
    """
    return _profile(spec.variance, np.exp(level_log_weights(spec, d)), build_table(d).values)


def _profile(variance: float, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    profile = variance * (weights @ values)
    profile[0] = variance
    return profile


def profile_derivatives(spec: KernelSpec, d: int) -> dict[str, np.ndarray]:
    """Derivatives of :func:`kernel_profile` in log variance, log kappa and, for Matérn, log nu_base.

    The one in log variance is the profile itself, so a tuning evaluation
    takes its Gram's profile and every rate from this one pass over the
    level weights. nu_base is nu - d/2, the tuner's Matérn parameter. A
    level weight moves as dc_j = c_j (r_j - sum_k c_k r_k) with
    r_j = d log Phi(lambda_j), so truncated levels (c_j = 0) contribute
    nothing. The other derivatives' entry 0 is 0 because k(0) is pinned to
    sigma^2.
    """
    fam = spec.family
    lam = eigenvalue_levels(spec.laplacian, d)
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
    w = np.exp(level_log_weights(spec, d))
    values = build_table(d).values
    out = {"variance": _profile(spec.variance, w, values)}
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


def gram(
    spec: KernelSpec, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None
) -> np.ndarray:
    """Gram matrix of kernel values at pairwise Hamming distances, in the first code's space."""
    if len(xs) == 0:
        return np.zeros((0, 0 if ys is None else len(ys)))
    return IsotropicKernel(spec, xs[0].space).gram(xs, ys)


class IsotropicKernel:
    """A kernel spec bound to a space; the Gram-matrix provider used by GP code."""

    def __init__(self, spec: KernelSpec, space: GraphSpace):
        self.spec = spec
        self.space = space

    def gram(self, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None) -> np.ndarray:
        return self.profile()[pairwise_hamming(xs, ys, self.space)]

    def tuning_counts(self, xs: Sequence[GraphCode]) -> Callable:
        """Once per tuning run, the Hamming matrix of nonempty xs, as a function of a (d + 1)
        profile that gives the square Gram and its pullback W -> g: the Hamming-distance counts
        weighted by W, so g @ q == <W, Gram at q> for symmetric W."""
        D = pairwise_hamming(xs, None, self.space)
        flat, size = D.ravel(), self.space.d + 1
        return lambda profile: (profile[D], lambda W: np.bincount(flat, weights=W.ravel(), minlength=size))

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances k(x, x), without the square Gram."""
        common_space(xs, self.space)
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
        space = common_space(xs if ys is None else itertools.chain(xs, ys))
        bx = bit_matrix(xs, space)
        by = bx if ys is None else bit_matrix(ys, space)
        return self.variance * (bx @ by.T + 1.0)

    def tuning_counts(self, xs: Sequence[GraphCode]) -> Callable:
        """Once per tuning run, the bit Gram B = <x, y> + 1 of nonempty xs, as a function of a
        variance that gives the square Gram variance * B and its pullback W -> [<W, Gram>]."""
        bx = bit_matrix(xs)
        B = bx @ bx.T + 1.0

        def at(variance: float) -> tuple[np.ndarray, Callable]:
            K = variance * B
            return K, lambda W: np.array([np.vdot(W, K)])

        return at

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances sigma^2 (|x| + 1), without the square Gram."""
        common_space(xs)
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

