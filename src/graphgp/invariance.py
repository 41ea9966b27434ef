"""Node-permutation subgroups, orbits, group-averaged kernels, quotient graphs.

A subgroup H of node permutations (restricted here to products of full
symmetric groups acting on disjoint node blocks) partitions a graph space
into orbits. Averaging an isotropic kernel over H gives the kernel of the
orbit-constant ("projected") process:

    k_H(x, y) = (1/|H|^2) sum over (s1, s2) in H x H of k(s1(x), s2(y))

which, because k is isotropic, collapses to a single average over H. A Monte
Carlo estimator keeps the double average over one shared sample S of H
instead; it handles larger groups and is positive semidefinite by
construction; ``ProjectedKernel`` evaluates it at one representative code
per orbit, so it is constant on orbits too, whatever the sample. Both are
the kernel profile k(0..d) contracted with distance counts C[i, j, m]: the
share of image pairs (a, b) with |a XOR b| = m, a running over the |H| orbit
images of x_i and b = y_j (exact), or a and b over the |S| sample images of
x_i and y_j (Monte Carlo). One builder makes them all, by one vectorized
XOR/popcount of each x's images against all the ys; a code's images come
from one gather of its bits through the (|H|, d) or (|S|, d)
slot-permutation array, one code at a time.
The counts do not depend on the kernel; the exact ones are cached per
(H, xs, ys), so every objective evaluation of a tuning run costs one
product of the tensor with the profile and its derivatives. Exact
evaluation requires enumerating H; deciding whether two graphs share an
orbit reduces to three such kernel values, so no shortcut exists in general
(for H the full symmetric group this is exactly graph-isomorphism testing).

The same orbits, viewed as vertices of a weighted quotient graph, carry the
spectral kernel directly: the group-averaged kernel equals the quotient
graph's kernel scaled by sqrt(orbit sizes), provided the symmetric
normalized Laplacian and the full-space normalizer are used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .kernels import (
    CustomPhi,
    KernelSpec,
    LaplacianVariant,
    kernel_profile,
    log_normalizer,
    spectral_coefficients,
)
from .spaces import (
    GraphCode,
    GraphSpace,
    NodePermutation,
    code_words,
    edge_permutation,
    permute_slots,
    permuted_words,
    slot_permutations,
    word_distances,
)

#: Refuse to enumerate permutation groups larger than this.
ENUMERATION_CAP = 5_000_000

#: Refuse to enumerate graph spaces with more than 2^QUOTIENT_MAX_DIM codes.
QUOTIENT_MAX_DIM = 16

#: Distance-count tensors kept for reuse; a tuning run needs two (training
#: square, test-by-training cross), shared by every restart and projected
#: kernel on the same split.
COUNT_CACHE_SIZE = 8

#: Slot-permutation arrays of enumerated groups kept for reuse, one per
#: (group, space); the benchmark's (|H|, d) = (1296, 66) array holds 0.7 MB.
SLOT_PERMS_CACHE_SIZE = 4

#: Orbit-image matrices kept for reuse, one per (group, code), of
#: |H| * ceil(d/64) * 8 bytes each: 512 is about 10.6 MB at |H| = 1296,
#: d = 66, and covers the 256 codes a 64-train, 192-point prediction touches.
ORBIT_IMAGE_CACHE_SIZE = 512

#: Largest residual group :func:`orbit_representative` enumerates; its
#: (order, d) gather index holds about 21 MB at 8! and d = 66 while it is used.
REPRESENTATIVE_CAP = 40_320

#: Orbit representatives kept for reuse, one code per (group, code).
REPRESENTATIVE_CACHE_SIZE = 65_536


class GroupTooLargeError(ValueError):
    """Raised when an exact computation would need to enumerate too large a group."""


def _require_enumerable(H: PermSubgroup, cap: int = ENUMERATION_CAP) -> None:
    if H.order() > cap:
        raise GroupTooLargeError(
            f"group order {H.order()} exceeds the enumeration cap {cap}; exact computation "
            f"over equivalence classes scales with the group order (deciding orbit "
            f"equivalence this way is as hard as the underlying matching problem) - "
            f"use the Monte Carlo estimator instead"
        )


@dataclass(frozen=True)
class PermSubgroup:
    """Product of full symmetric groups on disjoint node blocks.

    ``blocks`` must partition {0..n-1}; the group consists of all node
    permutations that map each block onto itself.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", canon)
        flat = sorted(i for b in self.blocks for i in b)
        if flat != list(range(self.n)):
            raise ValueError(f"blocks {self.blocks} do not partition 0..{self.n - 1}")

    @classmethod
    def full(cls, n: int) -> "PermSubgroup":
        """The whole symmetric group on n nodes (orbit relation = isomorphism)."""
        return cls(n, (tuple(range(n)),))

    @classmethod
    def trivial(cls, n: int) -> "PermSubgroup":
        return cls(n, tuple((i,) for i in range(n)))

    @classmethod
    def from_string(cls, text: str, n: int) -> "PermSubgroup":
        """Parse a block list like ``"0,1,2|3"``."""
        blocks = tuple(
            tuple(int(v) for v in part.split(",") if v.strip() != "")
            for part in text.split("|")
            if part.strip() != ""
        )
        return cls(n, blocks)

    def order(self) -> int:
        out = 1
        for b in self.blocks:
            out *= math.factorial(len(b))
        return out

    def generators(self) -> tuple[NodePermutation, ...]:
        """Star transpositions within each block; they generate the group."""
        gens = []
        for block in self.blocks:
            for other in block[1:]:
                mapping = list(range(self.n))
                mapping[block[0]], mapping[other] = mapping[other], mapping[block[0]]
                gens.append(NodePermutation(tuple(mapping)))
        return tuple(gens)

    def elements(self) -> Iterator[NodePermutation]:
        """Every element, as independent arrangements of each block."""
        per_block = [list(itertools.permutations(b)) for b in self.blocks]
        for combo in itertools.product(*per_block):
            mapping = [0] * self.n
            for block, arranged in zip(self.blocks, combo):
                for src, dst in zip(block, arranged):
                    mapping[src] = dst
            yield NodePermutation(tuple(mapping))

    def random_element(self, rng: np.random.Generator) -> NodePermutation:
        """Uniform draw: an independent unbiased shuffle of each block."""
        mapping = list(range(self.n))
        for block in self.blocks:
            order = rng.permutation(len(block))
            for i, src in enumerate(block):
                mapping[src] = block[order[i]]
        return NodePermutation(tuple(mapping))


def draw_sample(
    H: PermSubgroup, size: int, seed: int | np.random.Generator
) -> tuple[NodePermutation, ...]:
    """An i.i.d. uniform sample of group elements (with replacement)."""
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return tuple(H.random_element(rng) for _ in range(size))


# -- permuted-code machinery ------------------------------------------------


def _image_sources(perms: Iterable[NodePermutation], space: GraphSpace) -> np.ndarray:
    """(k, d) gather index of the images sigma(x), one row per sigma: the slot
    permutations of the inverse node maps (see ``permuted_words``)."""
    return slot_permutations(np.argsort([sigma.mapping for sigma in perms], axis=1), space)


@lru_cache(maxsize=SLOT_PERMS_CACHE_SIZE)
def _slot_perms(H: PermSubgroup, space: GraphSpace) -> np.ndarray:
    """(|H|, d) gather index of the orbit images, built from H's node maps."""
    _require_enumerable(H)
    perms = _image_sources(H.elements(), space)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=ORBIT_IMAGE_CACHE_SIZE)
def _orbit_image_words(H: PermSubgroup, x: GraphCode) -> np.ndarray:
    """(|H|, ceil(d/64)) uint64 matrix of sigma(x) over all sigma in H."""
    words = permuted_words(x, _slot_perms(H, x.space))
    words.setflags(write=False)
    return words


def _sample_image_words(sample: Sequence[NodePermutation], xs: Sequence[GraphCode]) -> np.ndarray:
    """(len(xs), |S|, ceil(d/64)) uint64 array of s(x) over the sample S, one code at a time."""
    if len(sample) == 0:
        raise ValueError("sample must contain at least one permutation")
    sources = _image_sources(sample, xs[0].space)
    return np.stack([permuted_words(x, sources) for x in xs])


@lru_cache(maxsize=200_000)
def pair_histogram(H: PermSubgroup, x: GraphCode, y: GraphCode) -> np.ndarray:
    """Counts, over sigma in H, of the Hamming distance between sigma(x) and y.

    The histogram is symmetric in (x, y) and is what a single exact
    group-averaged kernel value reduces to; Gram matrices take the same
    counts for all pairs at once from the count tensor instead.
    """
    if x.space != y.space:
        raise ValueError("codes live in different spaces")
    if y.bits < x.bits:
        x, y = y, x
    dists = word_distances(_orbit_image_words(H, x), code_words([y]))[:, 0]
    hist = np.bincount(dists, minlength=x.space.d + 1).astype(float)
    hist.setflags(write=False)
    return hist


# -- orbits -----------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    """An equivalence class of graphs under a node-permutation subgroup."""

    canonical: GraphCode
    size: int
    members: tuple[GraphCode, ...] | None = None


def _orbit_bits(H: PermSubgroup, space: GraphSpace, start_bits: int) -> set[int]:
    gen_perms = [edge_permutation(g, space) for g in H.generators()]
    seen = {start_bits}
    frontier = [start_bits]
    while frontier:
        nxt = []
        for b in frontier:
            for perm in gen_perms:
                nb = permute_slots(b, perm)
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return seen


def enumerate_orbit(
    H: PermSubgroup,
    x: GraphCode,
    cap: int = ENUMERATION_CAP,
    keep_members: bool = True,
) -> OrbitClass:
    """The orbit of a graph under H, with its lexicographically minimal member."""
    _require_enumerable(H, cap)
    space = x.space
    orbit = _orbit_bits(H, space, x.bits)
    members = None
    if keep_members:
        members = tuple(GraphCode(space, b) for b in sorted(orbit))
    return OrbitClass(canonical=GraphCode(space, min(orbit)), size=len(orbit), members=members)


def _refined_colors(H: PermSubgroup, x: GraphCode) -> list[int]:
    """Node colours of x by colour refinement, starting from H's blocks.

    A colour is named by its rank among the sorted signatures (colour, loop
    bit, out- and in-neighbour colours), so relabelling x by an element of H
    carries every node's colour along with the node.
    """
    n = x.space.n
    loops, outs, ins = [0] * n, [[] for _ in range(n)], [[] for _ in range(n)]
    for i, j in x.edges():
        if i == j:
            loops[i] = 1
            continue
        outs[i].append(j)
        ins[j].append(i)
        if not x.space.kind.directed:
            outs[j].append(i)
            ins[i].append(j)
    colors = [0] * n
    for k, block in enumerate(H.blocks):
        for v in block:
            colors[v] = k
    classes = len(set(colors))
    while True:  # each pass splits a class or ends: at most n passes
        signatures = [
            (colors[v], loops[v], tuple(sorted(colors[u] for u in outs[v])), tuple(sorted(colors[u] for u in ins[v])))
            for v in range(n)
        ]
        names = {s: rank for rank, s in enumerate(sorted(set(signatures)))}
        colors = [names[s] for s in signatures]
        if len(names) == classes:
            return colors
        classes = len(names)


@lru_cache(maxsize=REPRESENTATIVE_CACHE_SIZE)
def orbit_representative(H: PermSubgroup, x: GraphCode) -> GraphCode:
    """A member of x's orbit under H that the whole orbit shares.

    Colour refinement orders each block's nodes by colour (ties in node
    order); two members of one orbit, so ordered, differ by a permutation
    within colour classes, and the least code over those permutations is
    the representative. Above ``REPRESENTATIVE_CAP`` such permutations the
    ordered code itself is returned: still in the orbit, but no longer
    shared by all of it.
    """
    if H.n != x.space.n:
        raise ValueError(f"subgroup on {H.n} nodes does not act on n={x.space.n}")
    colors = _refined_colors(H, x)
    order = np.zeros(H.n, dtype=np.intp)  # node v moves to order[v]
    classes = []
    for block in H.blocks:
        ranked = sorted(block, key=lambda v: (colors[v], v))
        order[ranked] = block
        for _color, run in itertools.groupby(enumerate(ranked), key=lambda kv: colors[kv[1]]):
            classes.append(tuple(block[k] for k, _v in run))
    residual = PermSubgroup(H.n, tuple(classes))
    if residual.order() > REPRESENTATIVE_CAP:
        residual = PermSubgroup.trivial(H.n)
    maps = np.array([r.mapping for r in residual.elements()], dtype=np.intp)[:, order]
    words = permuted_words(x, slot_permutations(np.argsort(maps, axis=1), x.space))
    least = words[np.lexsort(words.T)[0]]  # the last word is the most significant key
    return GraphCode(x.space, sum(int(w) << 64 * k for k, w in enumerate(least)))


# -- exact and Monte Carlo group-averaged kernels ---------------------------


def invariant_kernel_exact(spec: KernelSpec, H: PermSubgroup, x: GraphCode, y: GraphCode) -> float:
    """Exact group-averaged kernel value.

    The double average over H x H equals the single average
    (1/|H|) sum over sigma of k(sigma(x), y) because k is isotropic and the
    sum runs over the full group.
    """
    hist = pair_histogram(H, x, y)
    profile = kernel_profile(spec, x.space.d)
    return float(hist @ profile) / H.order()


def _distance_top(xs: Sequence[GraphCode], ys: Sequence[GraphCode]) -> int:
    """Length of the distance axis: |a XOR b| <= |x| + |y| for images a of x and b of y.

    Raises if the codes do not all live in one space.
    """
    space = xs[0].space
    for c in itertools.chain(xs, ys):
        if c.space != space:
            raise ValueError("codes live in different spaces")
    return min(space.d, max(x.weight for x in xs) + max(y.weight for y in ys)) + 1


def _distance_counts(
    images_x: Sequence[np.ndarray], images_y: np.ndarray, top: int, upper: bool = False
) -> np.ndarray:
    """C[i, j, m]: the share of image pairs (a, b) in images_x[i] x images_y[j] with |a XOR b| = m.

    Each entry is a word matrix with one row per image; every code on a side
    has the same number of images, so ``images_y`` is one (len, images, words)
    array. ``upper`` (square builds) fills j >= i only.
    """
    rows = images_y.shape[1]
    targets = images_y.reshape(-1, images_y.shape[2])
    out = np.zeros((len(images_x), len(images_y), top))
    for i, a in enumerate(images_x):
        first = i if upper else 0
        n = len(images_y) - first
        dist = word_distances(a, targets[first * rows :]) + np.repeat(top * np.arange(n), rows)
        out[i, first:] = np.bincount(dist.ravel(), minlength=n * top).reshape(n, top)
    out /= images_x[0].shape[0] * rows
    return out


@lru_cache(maxsize=COUNT_CACHE_SIZE)
def _group_counts(
    H: PermSubgroup, xs: tuple[GraphCode, ...], ys: tuple[GraphCode, ...] | None
) -> np.ndarray:
    """Counts over H: the |H| orbit images of each x against y itself; ys=None means xs.

    Keyed by the codes themselves, so a hit returns counts built from the
    same codes (and spaces) as a call that passed the space check.
    """
    targets = xs if ys is None else ys
    top = _distance_top(xs, targets)
    out = _distance_counts(
        [_orbit_image_words(H, x) for x in xs], code_words(targets)[:, None], top, upper=ys is None
    )
    out.setflags(write=False)
    return out


def _sample_counts(
    sample: Sequence[NodePermutation], xs: tuple[GraphCode, ...], ys: tuple[GraphCode, ...] | None
) -> np.ndarray:
    """Counts over S x S: the |S| sample images of each x against those of each y; ys=None means xs."""
    top = _distance_top(xs, xs if ys is None else ys)
    images_x = _sample_image_words(sample, xs)
    images_y = images_x if ys is None else _sample_image_words(sample, ys)
    return _distance_counts(images_x, images_y, top, upper=ys is None)


def _contract(
    profiles: np.ndarray, counts: Callable, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None
) -> np.ndarray:
    """(k, len(xs), len(ys)) Grams from one build of counts(xs, ys), one per row of a
    (k, d + 1) profile stack; square Grams are exactly symmetric. Needs nonempty code lists."""
    c = counts(tuple(xs), None if ys is None else tuple(ys))
    out = np.stack([c @ profile[: c.shape[2]] for profile in profiles])  # each row as a lone Gram would be
    if ys is None:
        out += np.swapaxes(np.triu(out, 1), 1, 2)  # square counts leave the lower triangle at 0.0
    return out


def _gram(
    spec: KernelSpec, counts: Callable, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None
) -> np.ndarray:
    """One Gram: the kernel profile's row of :func:`_contract`."""
    if len(xs) == 0 or (ys is not None and len(ys) == 0):
        return np.zeros((len(xs), len(xs) if ys is None else len(ys)))
    return _contract(kernel_profile(spec, xs[0].space.d)[None], counts, xs, ys)[0]


def invariant_gram_exact(
    spec: KernelSpec,
    H: PermSubgroup,
    xs: Sequence[GraphCode],
    ys: Sequence[GraphCode] | None = None,
) -> np.ndarray:
    """Exact projected Gram matrix: the cached distance counts over H times the kernel profile."""
    return _gram(spec, partial(_group_counts, H), xs, ys)


def invariant_gram_sampled(
    spec: KernelSpec,
    sample: Sequence[NodePermutation],
    xs: Sequence[GraphCode],
    ys: Sequence[GraphCode] | None = None,
) -> np.ndarray:
    """Gram matrix of the sampled estimator: distance counts over S x S times the kernel profile.

    One shared S keeps it positive semidefinite.
    """
    return _gram(spec, partial(_sample_counts, sample), xs, ys)


def invariant_kernel_sampled(
    spec: KernelSpec, sample: Sequence[NodePermutation], x: GraphCode, y: GraphCode
) -> float:
    """Double average over one fixed sample S applied to both arguments.

    With S = the whole group (each element once) this equals the exact
    group-averaged kernel; with an i.i.d. sample it is the positive
    semidefinite Monte Carlo estimator. The cheaper one-sided average
    (1/|S|) sum over sigma of k(sigma(x), y) is unbiased too but need not be
    symmetric, let alone positive semidefinite, for a partial sample - so
    this symmetric form is the only one shipped.
    """
    return float(invariant_gram_sampled(spec, sample, [x], [y])[0, 0])


# -- quotient graphs ---------------------------------------------------------


class QuotientGraph:
    """Weighted graph on the orbits of a graph space under a subgroup.

    ``weights[i, j]`` counts ordered adjacent code pairs (one bit flip apart)
    with the first code in class i and the second in class j; row sums equal
    class size times d.
    """

    def __init__(
        self,
        space: GraphSpace,
        subgroup: PermSubgroup,
        classes: tuple[OrbitClass, ...],
        weights: np.ndarray,
        class_of: np.ndarray,
    ):
        self.space = space
        self.subgroup = subgroup
        self.classes = classes
        weights = np.asarray(weights, dtype=float)
        weights.setflags(write=False)
        self.weights = weights
        class_of = np.asarray(class_of)
        class_of.setflags(write=False)
        self.class_of = class_of
        self._kernel_cache: dict[KernelSpec, np.ndarray] = {}

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, x: GraphCode) -> int:
        if x.space != self.space:
            raise ValueError("code belongs to a different space")
        return int(self.class_of[x.bits])

    def sizes(self) -> np.ndarray:
        return np.array([c.size for c in self.classes], dtype=float)


def build_quotient(H: PermSubgroup, space: GraphSpace, max_dim: int = QUOTIENT_MAX_DIM) -> QuotientGraph:
    """Enumerate all orbits and the inter-class edge counts of the hypercube."""
    d = space.d
    if d > max_dim:
        raise ValueError(
            f"space has 2^{d} codes, above the enumeration limit 2^{max_dim}; "
            f"quotient construction requires visiting every code"
        )
    if H.n != space.n:
        raise ValueError(f"subgroup on {H.n} nodes does not act on n={space.n}")
    size = 1 << d
    class_of = np.full(size, -1, dtype=np.int64)
    classes: list[OrbitClass] = []
    for v in range(size):
        if class_of[v] >= 0:
            continue
        orbit = _orbit_bits(H, space, v)
        idx = len(classes)
        for b in orbit:
            class_of[b] = idx
        classes.append(OrbitClass(canonical=GraphCode(space, min(orbit)), size=len(orbit)))
    h = len(classes)
    weights = np.zeros((h, h))
    codes = np.arange(size, dtype=np.int64)
    for t in range(d):
        np.add.at(weights, (class_of[codes], class_of[codes ^ (1 << t)]), 1.0)
    return QuotientGraph(space, H, tuple(classes), weights, class_of)


def quotient_kernel_matrix(spec: KernelSpec, quotient: QuotientGraph) -> np.ndarray:
    """Group-averaged kernel values between all class pairs, via the quotient.

    Eigendecomposes the quotient's symmetric normalized Laplacian, applies
    the spectral density of ``spec`` with the normalizer computed on the
    full space (so the values agree with the exact double average), and
    rescales by sqrt(class size) on each side: a class-constant eigenfunction
    that has unit norm over all 2^d codes takes the value
    g(class) / sqrt(|class|) on each member, so the per-class spectral sum
    relates to the kernel of the averaged process through exactly that
    factor.
    """
    if spec.laplacian is not LaplacianVariant.SYMMETRIC:
        raise ValueError(
            "quotient evaluation is only valid for the symmetric normalized Laplacian"
        )
    cached = quotient._kernel_cache.get(spec)
    if cached is not None:
        return cached
    d = quotient.space.d
    sizes = quotient.sizes()
    inv_sqrt_deg = 1.0 / np.sqrt(sizes * d)
    lap = np.eye(quotient.num_classes) - inv_sqrt_deg[:, None] * quotient.weights * inv_sqrt_deg[None, :]
    mu, vec = np.linalg.eigh(lap)

    J = d if spec.truncation is None else min(spec.truncation, d)
    level = np.rint(mu * d / 2.0).astype(int)
    on_lattice = (np.abs(mu * d / 2.0 - level) <= 1e-6) & (level >= 0) & (level <= d)
    lam = np.where(on_lattice, 2.0 * np.clip(level, 0, d) / d, np.clip(mu, 0.0, None))
    log_phi = np.asarray(spec.family.log_phi(lam), dtype=float)
    retained = np.where(on_lattice, level <= J, lam <= 2.0 * J / d + 1e-12)

    log_scale = math.log(spec.variance) + d * math.log(2.0) - log_normalizer(spec, d)
    with np.errstate(over="raise"):
        phi_eff = np.where(retained & np.isfinite(log_phi), np.exp(log_phi + log_scale), 0.0)
    k_classes = (vec * phi_eff) @ vec.T
    psi = np.sqrt(sizes)
    out = k_classes / (psi[:, None] * psi[None, :])
    out.setflags(write=False)
    quotient._kernel_cache[spec] = out
    return out


def quotient_kernel(spec: KernelSpec, quotient: QuotientGraph, i: int, j: int) -> float:
    """Group-averaged kernel between class i and class j, computed on the quotient."""
    h = quotient.num_classes
    if not (0 <= i < h and 0 <= j < h):
        raise ValueError(f"class indices ({i}, {j}) out of range for {h} classes")
    return float(quotient_kernel_matrix(spec, quotient)[i, j])


# -- orbit-equivalence decision via kernel values ----------------------------


def _require_strictly_positive(spec: KernelSpec, d: int) -> None:
    if spec.truncation is not None and spec.truncation < d:
        raise ValueError(
            "orbit-equivalence testing needs a spectral density that is strictly "
            "positive on every level; truncation discards levels above "
            f"{spec.truncation}"
        )
    if isinstance(spec.family, CustomPhi):
        coeffs = spectral_coefficients(spec, d)
        if not np.isfinite(coeffs.log_weights).all():
            raise ValueError(
                "orbit-equivalence testing needs a strictly positive spectral "
                "density; this one vanishes on some level"
            )


def orbit_equivalence_test(
    spec: KernelSpec,
    H: PermSubgroup,
    x: GraphCode,
    y: GraphCode,
    tol: float = 1e-9,
) -> bool:
    """Decide x ~ y under H from three exact group-averaged kernel values.

    For a strictly positive spectral density, k_H(x, y) equals the mean of
    k_H(x, x) and k_H(y, y) exactly when x and y share an orbit.
    """
    _require_strictly_positive(spec, x.space.d)
    kxy = invariant_kernel_exact(spec, H, x, y)
    kxx = invariant_kernel_exact(spec, H, x, x)
    kyy = invariant_kernel_exact(spec, H, y, y)
    return abs(kxy - 0.5 * (kxx + kyy)) <= tol * spec.variance


# -- averaging arbitrary functions -------------------------------------------


def _all_code_images(sources: np.ndarray, d: int) -> list[np.ndarray]:
    """Index arrays mapping every code to its image, one per row of a gather index."""
    codes = np.arange(1 << d, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(d)[None, :]) & 1
    weights = np.int64(1) << np.arange(d, dtype=np.int64)
    return [bits[:, src] @ weights for src in sources]


def project_function(
    H: PermSubgroup,
    space: GraphSpace,
    values: np.ndarray,
    sample_size: int | None = None,
    seed: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> np.ndarray:
    """Average a function over the group: out(x) = mean over sigma of f(sigma(x)).

    ``values`` holds f over all 2^d codes, indexed by code integer. The exact
    average is constant on orbits and idempotent; passing ``sample_size``
    averages over an i.i.d. sample of H instead (for groups above the cap).
    """
    d = space.d
    if d > QUOTIENT_MAX_DIM:
        raise ValueError(f"space has 2^{d} codes, above the enumeration limit 2^{QUOTIENT_MAX_DIM}")
    values = np.asarray(values, dtype=float)
    if values.shape[0] != (1 << d):
        raise ValueError(f"expected one value per code (2^{d}), got {values.shape[0]}")
    if sample_size is None:
        _require_enumerable(H, cap)
        images = _all_code_images(_image_sources(H.elements(), space), d)
    else:
        if seed is None:
            raise ValueError("sample-based averaging requires a seed")
        images = _all_code_images(_image_sources(draw_sample(H, sample_size, seed), space), d)
    acc = np.zeros_like(values)
    for img in images:
        acc += values[img]
    return acc / len(images)


class ProjectedKernel:
    """Group-averaged kernel bound to a space: exact, or Monte Carlo with a fixed sample.

    Grams and diagonals of both flavours come from the shared distance-count
    builder: over the whole group when ``sample`` is None, else over
    ``sample`` x ``sample``. The Monte Carlo flavour evaluates the sampled
    estimator at :func:`orbit_representative` of each code, so its values,
    like the exact ones, do not change when a graph is relabelled by H. An
    exact kernel over a group larger than ``ENUMERATION_CAP`` is refused at
    construction (``GroupTooLargeError``).
    """

    def __init__(
        self,
        spec: KernelSpec,
        subgroup: PermSubgroup,
        space: GraphSpace,
        sample: tuple[NodePermutation, ...] | None = None,
    ):
        if subgroup.n != space.n:
            raise ValueError(f"subgroup on {subgroup.n} nodes does not act on n={space.n}")
        if sample is None:
            _require_enumerable(subgroup)
        self.spec = spec
        self.subgroup = subgroup
        self.space = space
        self.sample = sample

    @classmethod
    def monte_carlo(
        cls,
        spec: KernelSpec,
        subgroup: PermSubgroup,
        space: GraphSpace,
        sample_size: int,
        seed: int,
    ) -> "ProjectedKernel":
        return cls(spec, subgroup, space, sample=draw_sample(subgroup, sample_size, seed))

    def gram(self, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None) -> np.ndarray:
        if self.sample is None:
            return invariant_gram_exact(self.spec, self.subgroup, xs, ys)
        return invariant_gram_sampled(
            self.spec, self.sample, self._representatives(xs), None if ys is None else self._representatives(ys)
        )

    def square_grams(self, xs: Sequence[GraphCode], profiles: np.ndarray) -> np.ndarray:
        """(k, n, n) square Grams of nonempty xs, one per row of a (k, d + 1) profile stack.

        All k come from one count build, so a Monte Carlo kernel builds its
        uncached counts once for a Gram and its derivatives.
        """
        if self.sample is None:
            counts = partial(_group_counts, self.subgroup)
        else:
            counts, xs = partial(_sample_counts, self.sample), self._representatives(xs)
        return _contract(profiles, counts, xs, None)

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances k_H(x, x): each point's own counts, without the square Gram."""
        if len(xs) == 0:
            return np.zeros(0)
        top = _distance_top(xs, xs)
        if self.sample is None:
            sides = zip((_orbit_image_words(self.subgroup, x) for x in xs), code_words(xs)[:, None, None])
        else:
            images = _sample_image_words(self.sample, self._representatives(xs))
            sides = zip(images, images[:, None])
        counts = np.stack([_distance_counts([a], b, top)[0, 0] for a, b in sides])
        return counts @ kernel_profile(self.spec, self.space.d)[:top]

    def _representatives(self, xs: Sequence[GraphCode]) -> list[GraphCode]:
        return [orbit_representative(self.subgroup, x) for x in xs]

    def with_spec(self, spec: KernelSpec) -> "ProjectedKernel":
        return ProjectedKernel(spec, self.subgroup, self.space, sample=self.sample)
