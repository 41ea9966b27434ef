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
per orbit, so it is constant on orbits too, whatever the sample. As
|s_a(x) XOR s_b(y)| = |s_b^-1 s_a(x) XOR y|, it is a single average too, over
the multiset S^-1 S of the |S|^2 node maps s_b^-1 s_a. Both are the kernel
profile k(0..d) contracted with distance counts C[i, j, m]: the share of the
node maps t, of H or of S^-1 S, with |t(x_i) XOR y_j| = m. Each x keeps its
distinct images with integer multiplicities (|Stab(x)| each over H), so the
shares, integer sums over an integer total, equal those over all node maps
bit for bit. One builder makes them all, by one vectorized XOR/popcount of
each x's images against all the ys. A code's images over H grow along H's
stabilizer chain (below), so exact cost follows the size of its orbit, not
|H|; only a sample's images come from one gather of its bits through the
(|S|^2, d) slot-permutation array. The counts do not depend on the kernel;
the exact ones are cached per (H, xs, ys) and a tuning run fetches them
once, so each of its objective evaluations costs one product of the tensor
with the profile and one with the gradient's weight matrix. Exact
evaluation visits whole orbits: a chain step that would gather more than
``ENUMERATION_CAP`` image rows is refused, whatever |H|. Deciding whether two
graphs share an orbit reduces to three such kernel values, so no shortcut
exists in general (for H the full symmetric group this is exactly
graph-isomorphism testing).

The same orbits, viewed as vertices of a weighted quotient graph, carry the
spectral kernel directly: the group-averaged kernel equals the quotient
graph's kernel scaled by sqrt(orbit sizes), provided the symmetric
normalized Laplacian and the full-space normalizer are used.

Nothing enumerates H one element at a time. Grams, quotients, function
projection, orbit enumeration and orbit representatives walk a stabilizer
chain instead: sum over blocks of b(b-1)/2 transposition gathers rather
than |H|.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .kernels import (
    KernelSpec,
    LaplacianVariant,
    kernel_profile,
    level_amplitudes,
    level_log_weights,
)
from .spaces import (
    GraphCode,
    GraphSpace,
    NodePermutation,
    _pack_words,
    _unpack_words,
    code_words,
    common_space,
    decode_words,
    image_sources,
    permuted_words,
    slot_permutations,
    word_distances,
)

#: Image rows one gather may produce: a chain step's orbit rows times the step's rows, or a
#: sample's |S|^2 node maps s_b^-1 s_a. Refusing a dense U11 code under S11 takes 0.1 s and a
#: 46 MB tracemalloc peak at this cap, against 1.4 s and 464 MB at 5,000,000 rows (2-vCPU host).
ENUMERATION_CAP = 2**21

#: Refuse to enumerate graph spaces with more than 2^QUOTIENT_MAX_DIM codes.
QUOTIENT_MAX_DIM = 16

#: Distance-count tensors kept for reuse; a tuning run needs two (training
#: square, test-by-training cross), shared by every restart and projected
#: kernel on the same split.
COUNT_CACHE_SIZE = 8

#: Slot-permutation arrays kept for reuse: a sample's S^-1 S gather index, one
#: per (sample, space), of (|S|^2, d) entries (135 KB at |S| = 16 and 0.5 MB at
#: |S| = 32 for d = 66); and a group's stabilizer chain, one per (H, space), of
#: sum over blocks of b(b+1)/2 - 1 rows of d entries (11 KB at |H| = 1296).
SLOT_PERMS_CACHE_SIZE = 4

#: Distinct-image matrices kept for reuse, one per (source, code), of one
#: ceil(d/64) * 8-byte row plus an 8-byte multiplicity per distinct image.
#: Over H: at most |H| rows (16 MB for 512 codes at |H| = 1296, d = 66), 241
#: on average over the benchmark molecules (about 3 MB for 512 codes). Over a
#: sample's S^-1 S: at most min(|S|^2, |orbit|) rows, about 100 on average
#: at |S| = 16 and 195 at |S| = 32 on the benchmark molecules. 512 covers the
#: 256 codes a 64-train, 192-point prediction touches.
ORBIT_IMAGE_CACHE_SIZE = 512

#: Class-by-class kernel matrices a quotient keeps, least recently used first
#: out; each is num_classes^2 float64 values (195 KB for the 156 classes of U6
#: under S6).
QUOTIENT_KERNEL_CACHE_SIZE = 16

#: Orbit representatives kept for reuse, one code per (group, code).
REPRESENTATIVE_CACHE_SIZE = 65_536

#: Single-pair distance histograms kept for reuse, (d + 1) float64 values each: 2.2 MB at d = 66.
PAIR_HISTOGRAM_CACHE_SIZE = 4_096


class GroupTooLargeError(ValueError):
    """Raised when a gather would produce more than ``ENUMERATION_CAP`` image rows: an orbit
    step too large to grow exactly, or a sample too large for its |S|^2 node maps."""


def _require_acts_on(H: PermSubgroup, space: GraphSpace) -> None:
    """Refuse a subgroup on another node count than the space's; cheap, so check before drawing."""
    if H.n != space.n:
        raise ValueError(f"subgroup on {H.n} nodes does not act on n={space.n}")


def _require_sample_size(size: int) -> None:
    """Refuse a sample whose |S|^2 node maps s_b^-1 s_a exceed the cap; cheap, so check before drawing."""
    if size**2 > ENUMERATION_CAP:
        raise GroupTooLargeError(
            f"a sample of {size} gives {size**2} node maps s_b^-1 s_a, above the "
            f"enumeration cap {ENUMERATION_CAP}; draw at most {math.isqrt(ENUMERATION_CAP)} elements"
        )


def _checked_sample(sample: Sequence[NodePermutation]) -> tuple[NodePermutation, ...]:
    """The sample as a tuple; refused if empty, or if its |S|^2 node maps s_b^-1 s_a exceed the cap."""
    if len(sample) == 0:
        raise ValueError("sample must contain at least one permutation")
    _require_sample_size(len(sample))
    return tuple(sample)


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

#: Where a kernel's node maps come from: a group's elements, or a sample S's pairs S^-1 S.
Source = PermSubgroup | tuple[NodePermutation, ...]


@lru_cache(maxsize=SLOT_PERMS_CACHE_SIZE)
def _slot_perms(sample: tuple[NodePermutation, ...], space: GraphSpace) -> np.ndarray:
    """(|S|^2, d) gather index of the images under the node maps s_b^-1 s_a over the
    ordered pairs (a, b) of a sample S."""
    maps = np.array([s.mapping for s in sample], dtype=np.intp)
    # entry [b, a] of the inverses taken at the maps is s_b^-1 s_a: row (a, b) after the swap
    perms = image_sources(np.argsort(maps, axis=1)[:, maps].swapaxes(0, 1).reshape(-1, maps.shape[1]), space)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=ORBIT_IMAGE_CACHE_SIZE)
def _distinct_images(source: Source, x: GraphCode) -> tuple[np.ndarray, np.ndarray]:
    """The distinct images t(x) over a source's node maps t, sorted, as a (k, ceil(d/64))
    uint64 word matrix, and how many node maps give each: (words, multiplicities). Over H, x's
    orbit grown along H's chain, |Stab(x)| = |H| / |orbit| each; over S^-1 S, one gather."""
    if isinstance(source, PermSubgroup):
        words = _orbit_words(source, code_words([x]), x.space)
        mult = np.full(len(words), source.order() // len(words))
    else:
        words, mult = _distinct_rows(permuted_words(x, _slot_perms(source, x.space)))
    words.setflags(write=False)
    mult.setflags(write=False)
    return words, mult


def _distinct_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a word matrix, sorted with the last word as the most significant key
    (row 0 is the least code), and how many times each occurs."""
    words = words[np.lexsort(words.T)]
    first = np.flatnonzero(np.r_[True, (words[1:] != words[:-1]).any(axis=1)])
    return words[first], np.diff(np.r_[first, len(words)])


@lru_cache(maxsize=PAIR_HISTOGRAM_CACHE_SIZE)
def pair_histogram(H: PermSubgroup, x: GraphCode, y: GraphCode) -> np.ndarray:
    """Counts, over sigma in H, of the Hamming distance between sigma(x) and y.

    The histogram is symmetric in (x, y); it is |H| times the counts that a
    single exact group-averaged kernel value contracts with the profile
    (:func:`invariant_kernel_exact` builds those as a 1x1 Gram). Nothing in
    the package reads it; it stays cached for outside readers of its
    ``cache_info()``.
    """
    if y.bits < x.bits:
        x, y = y, x
    hist = _bins(_distinct_images(H, x), code_words([y], x.space), x.space.d + 1)[0]
    hist.setflags(write=False)
    return hist


# -- orbits -----------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    """An equivalence class of graphs under a node-permutation subgroup."""

    canonical: GraphCode
    size: int
    members: tuple[GraphCode, ...] | None = None


@lru_cache(maxsize=SLOT_PERMS_CACHE_SIZE)
def _chain(H: PermSubgroup, space: GraphSpace) -> tuple[np.ndarray, ...]:
    """H's stabilizer chain: per step k of a block b, the (k + 1, d) slot permutations of {id} and
    (b_j b_k), j < k. Each element of H is one product of one row per step, so a minimum, sum or
    orbit over H runs step by step; the rows, of involutions, are gather indices too."""
    _require_acts_on(H, space)
    steps = []
    for block in H.blocks:
        for k in range(1, len(block)):
            maps = np.tile(np.arange(H.n), (k + 1, 1))
            for j in range(k):
                maps[j + 1, [block[j], block[k]]] = block[k], block[j]
            steps.append(slot_permutations(maps, space))
            steps[-1].setflags(write=False)
    return tuple(steps)


def _orbit_words(H: PermSubgroup, words: np.ndarray, space: GraphSpace) -> np.ndarray:
    """The distinct images under H of a (1, ceil(d/64)) word row, sorted (the last word is the
    most significant key): grown along H's chain, duplicates dropped after each step. A step
    that would gather more than ``ENUMERATION_CAP`` image rows is refused before it runs."""
    for step in _chain(H, space):
        if len(words) * len(step) > ENUMERATION_CAP:
            raise GroupTooLargeError(
                f"growing an orbit under a group of order {H.order()} would gather "
                f"{len(words) * len(step)} image rows in one step, above the enumeration cap "
                f"{ENUMERATION_CAP}; exact computation over equivalence classes scales with the "
                f"orbit size (deciding orbit equivalence this way is as hard as the underlying "
                f"matching problem) - use the Monte Carlo estimator instead, which meets this "
                f"only where colour refinement leaves an orbit this large (as for regular graphs)"
            )
        words, _ = _distinct_rows(_pack_words(_unpack_words(words, space.d)[:, step].reshape(-1, space.d)))
    return words


def _fold(steps: Sequence[np.ndarray], values: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """values(x) <- combine over the rows t of a step of values(t(x)), step after step, for
    every code x at once (``values`` holds one entry per code, indexed by code integer), each
    row as it is gathered: a step of many rows (a sample) holds two gathered arrays, not all."""
    d = len(values).bit_length() - 1
    bits = (np.arange(len(values), dtype=np.int64)[:, None] >> np.arange(d)) & 1
    weights = np.int64(1) << np.arange(d, dtype=np.int64)
    for step in steps:
        # bit s of t(x) is bit src_s of x, so t(x)'s index is bits @ w with w[src_s] = 2^s
        values = reduce(combine, (values[bits @ w] for w in weights[np.argsort(step, axis=1)]))
    return values


def enumerate_orbit(H: PermSubgroup, x: GraphCode, keep_members: bool = True) -> OrbitClass:
    """The orbit of a graph under H, grown along H's chain, with its lexicographically minimal
    member; ``GroupTooLargeError`` if a chain step would gather more than ``ENUMERATION_CAP`` rows."""
    space = x.space
    bits = decode_words(_orbit_words(H, code_words([x]), space))
    members = tuple(GraphCode(space, b) for b in bits) if keep_members else None
    return OrbitClass(canonical=GraphCode(space, bits[0]), size=len(bits), members=members)


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
    the representative: the first row of the ordered code's orbit under them,
    grown along their chain under ``ENUMERATION_CAP`` like any orbit. So it is
    shared by the whole orbit, or refused with ``GroupTooLargeError``.
    """
    _require_acts_on(H, x.space)
    colors = _refined_colors(H, x)
    order = np.zeros(H.n, dtype=np.intp)  # node v moves to order[v]
    classes = []
    for block in H.blocks:
        ranked = sorted(block, key=lambda v: (colors[v], v))
        order[ranked] = block
        for _color, run in itertools.groupby(enumerate(ranked), key=lambda kv: colors[kv[1]]):
            classes.append(tuple(block[k] for k, _v in run))
    residual = PermSubgroup(H.n, tuple(classes))
    ordered = permuted_words(x, image_sources(order[None], x.space))
    return GraphCode(x.space, decode_words(_orbit_words(residual, ordered, x.space)[:1])[0])


# -- exact and Monte Carlo group-averaged kernels ---------------------------


def invariant_kernel_exact(spec: KernelSpec, H: PermSubgroup, x: GraphCode, y: GraphCode) -> float:
    """Exact group-averaged kernel value: the 1x1 Gram of uncached counts over H.

    The double average over H x H equals the single average
    (1/|H|) sum over sigma of k(sigma(x), y) because k is isotropic and the
    sum runs over the full group.
    """
    return float(_gram(spec, partial(_counts, H), [x], [y])[0, 0])


def _distance_top(xs: Sequence[GraphCode], ys: Sequence[GraphCode]) -> int:
    """Length of the distance axis: |a XOR b| <= |x| + |y| for images a of x and b of y."""
    return min(xs[0].space.d, max(x.weight for x in xs) + max(y.weight for y in ys)) + 1


def _bins(images: tuple[np.ndarray, np.ndarray], targets: np.ndarray, top: int) -> np.ndarray:
    """(len(targets), top) histograms: how many node maps, by multiplicity, take x to distance m
    of each target, from one :func:`_distinct_images` pair of x and one word row per target."""
    words, mult = images
    n = len(targets)
    dist = word_distances(words, targets) + top * np.arange(n)
    return np.bincount(dist.ravel(), weights=np.repeat(mult, n), minlength=n * top).reshape(n, top)


def _distance_counts(
    images: Sequence[tuple[np.ndarray, np.ndarray]], targets: np.ndarray, top: int, square: bool
) -> np.ndarray:
    """C[i, j, m]: the share of x_i's images, by multiplicity, at distance m from target j.

    ``images`` holds one :func:`_distinct_images` pair per x and ``targets``
    one word row per y; each share is an integer sum over an integer total,
    rounded once. A ``square`` build (targets = the xs) bins j >= i only and
    copies row i into column i: the shares are symmetric in (i, j) bit for
    bit, so the tensor is too.
    """
    out = np.zeros((len(images), len(targets), top))
    for i, (words, mult) in enumerate(images):
        first = i if square else 0
        out[i, first:] = _bins((words, mult), targets[first:], top) / mult.sum()
        if square:
            out[i + 1 :, i] = out[i, i + 1 :]
    return out


def _counts(source: Source, xs: tuple[GraphCode, ...], ys: tuple[GraphCode, ...] | None) -> np.ndarray:
    """Counts over a source's node maps: the images of each x against y itself; ys=None means xs."""
    targets = xs if ys is None else ys
    words = code_words(targets, common_space(xs))  # both lists checked before any image is built
    top = _distance_top(xs, targets)
    out = _distance_counts([_distinct_images(source, x) for x in xs], words, top, square=ys is None)
    out.setflags(write=False)
    return out


#: The exact kernel's counts, cached per (H, xs, ys): keyed by the codes themselves, so a hit
#: returns counts built from the same codes (and spaces) as a call that passed the space check.
_group_counts = lru_cache(maxsize=COUNT_CACHE_SIZE)(_counts)


def _contract_counts(c: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """sum over m of c[..., m] profile[m], one fresh sum per entry: equal count rows give equal
    values wherever they lie, so a symmetric c gives an exactly symmetric Gram and own counts its
    diagonal bit for bit (a BLAS matrix-vector product rounds a block's tail rows apart)."""
    return np.einsum("...m,m->...", c, profile[: c.shape[-1]])


def _square_tuning(c: np.ndarray, size: int) -> Callable:
    """A function of a profile that gives the square Gram of square counts c and its pullback
    W -> g, of ``size`` entries: W's weights times the counts, so g @ q == <W, Gram at q> for
    every profile q."""
    rows = c.reshape(-1, c.shape[2])

    def pullback(W: np.ndarray) -> np.ndarray:
        g = np.zeros(size)
        g[: c.shape[2]] = W.ravel() @ rows
        return g

    return lambda profile: (_contract_counts(c, profile), pullback)


def _gram(
    spec: KernelSpec, counts: Callable, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None
) -> np.ndarray:
    """One Gram: the kernel profile contracted with one build of counts(xs, ys)."""
    if len(xs) == 0 or (ys is not None and len(ys) == 0):
        return np.zeros((len(xs), len(xs) if ys is None else len(ys)))
    c = counts(tuple(xs), None if ys is None else tuple(ys))
    return _contract_counts(c, kernel_profile(spec, xs[0].space.d))


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
    """Gram matrix of the sampled estimator: distance counts over S^-1 S times the kernel profile.

    One shared S keeps it positive semidefinite. The counts are not cached.
    """
    return _gram(spec, partial(_counts, _checked_sample(sample)), xs, ys)


def invariant_kernel_sampled(
    spec: KernelSpec, sample: Sequence[NodePermutation], x: GraphCode, y: GraphCode
) -> float:
    """Double average over one fixed sample S applied to both arguments.

    With S = the whole group (each element once) this equals the exact
    group-averaged kernel; with an i.i.d. sample it is a positive
    semidefinite Monte Carlo estimator, biased toward the unprojected kernel
    with weight 1/|S|: the |S| pairs a = b give k(x, y), so it is k(x, y)/|S|
    plus (1 - 1/|S|) times the unbiased mean of k(s_a x, s_b y) over ordered
    pairs a != b. The cheaper one-sided average (1/|S|) sum over sigma of
    k(sigma(x), y) is unbiased but need not be symmetric, let alone positive
    semidefinite, for a partial sample - so this symmetric form is the only
    one shipped.
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
        self._kernel_cache: OrderedDict[KernelSpec, np.ndarray] = OrderedDict()

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, x: GraphCode) -> int:
        common_space((x,), self.space)
        return int(self.class_of[x.bits])

    def sizes(self) -> np.ndarray:
        return np.array([c.size for c in self.classes], dtype=float)


def _require_small_space(space: GraphSpace) -> None:
    """Refuse a space of more than 2^QUOTIENT_MAX_DIM codes: quotients and projections visit every code."""
    if space.d > QUOTIENT_MAX_DIM:
        raise ValueError(
            f"space has 2^{space.d} codes, above the enumeration limit 2^{QUOTIENT_MAX_DIM}; "
            f"quotient construction and function projection visit every code"
        )


def build_quotient(H: PermSubgroup, space: GraphSpace) -> QuotientGraph:
    """Enumerate all orbits and the inter-class edge counts of the hypercube."""
    _require_small_space(space)
    d = space.d
    codes = np.arange(1 << d, dtype=np.int64)
    least = _fold(_chain(H, space), codes, np.minimum)  # each code's orbit minimum
    canonical, class_of, sizes = np.unique(least, return_inverse=True, return_counts=True)
    classes = tuple(OrbitClass(GraphCode(space, int(c)), int(n)) for c, n in zip(canonical, sizes))
    # one count per (class of x, class of x with one bit flipped), over every code x and bit; unit
    # weights count straight into float64, with no integer copy of the num_classes^2 matrix
    pairs = (class_of[:, None] * len(classes) + class_of[codes[:, None] ^ (1 << np.arange(d))]).ravel()
    weights = np.bincount(pairs, np.ones(len(pairs)), len(classes) ** 2).reshape(len(classes), len(classes))
    return QuotientGraph(space, H, classes, weights, class_of)


def quotient_kernel_matrix(spec: KernelSpec, quotient: QuotientGraph) -> np.ndarray:
    """Group-averaged kernel values between all class pairs, via the quotient.

    Eigendecomposes the quotient's symmetric normalized Laplacian, whose
    eigenvalues are hypercube levels 2j/d (anything else is refused as an
    inconsistent quotient). An eigenvector at level j carries 2^d a_j, with
    a_j = sigma^2 Phi(lambda_j) / C the spec's per-subset amplitude
    (:func:`~graphgp.kernels.level_amplitudes`, normalized on the full space
    so the values agree with the exact double average). The result is
    rescaled by sqrt(class size) on each side: a class-constant
    eigenfunction that has unit norm over all 2^d codes takes the value
    g(class) / sqrt(|class|) on each member, so the per-class spectral sum
    relates to the kernel of the averaged process through exactly that
    factor.
    """
    if spec.laplacian is not LaplacianVariant.SYMMETRIC:
        raise ValueError(
            "quotient evaluation is only valid for the symmetric normalized Laplacian"
        )
    cache = quotient._kernel_cache
    if spec in cache:
        cache.move_to_end(spec)
        return cache[spec]
    d = quotient.space.d
    sizes = quotient.sizes()
    inv_sqrt_deg = 1.0 / np.sqrt(sizes * d)
    lap = np.eye(quotient.num_classes) - inv_sqrt_deg[:, None] * quotient.weights * inv_sqrt_deg[None, :]
    mu, vec = np.linalg.eigh(lap)

    half_mu = mu * d / 2.0
    level = np.rint(half_mu).astype(int)
    if np.abs(half_mu - level).max() > 1e-6 or level.min() < 0 or level.max() > d:
        raise ValueError(
            f"quotient Laplacian eigenvalues in [{mu.min():.6g}, {mu.max():.6g}] are not all hypercube levels 2j/d"
        )
    phi_eff = 2**d * level_amplitudes(spec, d)[level]
    k_classes = (vec * phi_eff) @ vec.T
    psi = np.sqrt(sizes)
    out = k_classes / (psi[:, None] * psi[None, :])
    out.setflags(write=False)
    cache[spec] = out
    if len(cache) > QUOTIENT_KERNEL_CACHE_SIZE:
        cache.popitem(last=False)
    return out


def quotient_kernel(spec: KernelSpec, quotient: QuotientGraph, i: int, j: int) -> float:
    """Group-averaged kernel between class i and class j, computed on the quotient."""
    h = quotient.num_classes
    if not (0 <= i < h and 0 <= j < h):
        raise ValueError(f"class indices ({i}, {j}) out of range for {h} classes")
    return float(quotient_kernel_matrix(spec, quotient)[i, j])


# -- orbit-equivalence decision via kernel values ----------------------------


def _require_strictly_positive(spec: KernelSpec, d: int) -> None:
    """Refuse a spec that puts zero weight on any level 2j/d, truncated or where Phi vanishes.

    Only when every level amplitude is positive do equal group-averaged
    kernel values imply a shared orbit.
    """
    dead = np.flatnonzero(np.isneginf(level_log_weights(spec, d)))
    if dead.size:
        raise ValueError(
            "orbit-equivalence testing needs a spectral density that is strictly "
            f"positive on every level; levels {dead.tolist()} have zero weight"
        )


def orbit_equivalence_test(
    spec: KernelSpec,
    H: PermSubgroup,
    x: GraphCode,
    y: GraphCode,
    tol: float = 1e-9,
) -> bool:
    """Decide x ~ y under H from three exact group-averaged kernel values: one 2x2 Gram.

    For a strictly positive spectral density, k_H(x, y) equals the mean of
    k_H(x, x) and k_H(y, y) exactly when x and y share an orbit.
    """
    _require_strictly_positive(spec, x.space.d)
    K = _gram(spec, partial(_counts, H), [x, y], None)
    return abs(K[0, 1] - 0.5 * (K[0, 0] + K[1, 1])) <= tol * spec.variance


# -- averaging arbitrary functions -------------------------------------------


def project_function(
    H: PermSubgroup,
    space: GraphSpace,
    values: np.ndarray,
    sample_size: int | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Average a function over the group: out(x) = mean over sigma of f(sigma(x)).

    ``values`` holds f over all 2^d codes, indexed by code integer. The exact
    average is constant on orbits and idempotent, and sums along H's chain: it
    matches the per-element average within 1e-13 * max|values|. Passing
    ``sample_size`` averages over an i.i.d. sample of H instead.
    """
    _require_small_space(space)
    _require_acts_on(H, space)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != (1 << space.d):
        raise ValueError(f"expected one value per code (2^{space.d}), got {values.shape[0]}")
    if sample_size is None:
        return _fold(_chain(H, space), values, np.add) / H.order()
    if seed is None:
        raise ValueError("sample-based averaging requires a seed")
    maps = [sigma.mapping for sigma in draw_sample(H, sample_size, seed)]
    return _fold([image_sources(maps, space)], values, np.add) / sample_size


class ProjectedKernel:
    """Group-averaged kernel bound to a space: exact, or Monte Carlo with a fixed sample.

    Grams and diagonals of both flavours come from one distance-count
    builder, over the whole group when ``sample`` is None, else over the
    multiset S^-1 S; only the exact counts are cached. The tuner never
    builds a Gram's derivatives: it contracts the same counts once with its
    weight matrix (:meth:`tuning_counts`), fetching exact counts once per
    tuning run and building Monte Carlo ones at each evaluation, as
    :meth:`gram` does. The Monte Carlo flavour evaluates the sampled
    estimator at :func:`orbit_representative` of each code, so
    its values, like the exact ones, do not change when a graph is
    relabelled by H; it is biased toward the unprojected kernel with weight
    1/|S| (see :func:`invariant_kernel_sampled`). ``GroupTooLargeError``
    refuses |S|^2 above ``ENUMERATION_CAP`` at construction, and a code
    whose orbit (for Monte Carlo, its representative's search) needs a
    chain step of more image rows than that when the code is first met;
    |H| itself is never capped.
    """

    def __init__(
        self,
        spec: KernelSpec,
        subgroup: PermSubgroup,
        space: GraphSpace,
        sample: tuple[NodePermutation, ...] | None = None,
    ):
        _require_acts_on(subgroup, space)
        if sample is None:
            self._source, self._counts = subgroup, partial(_group_counts, subgroup)
        else:
            sample = _checked_sample(sample)
            self._source, self._counts = sample, partial(_counts, sample)
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
        _require_sample_size(sample_size)
        return cls(spec, subgroup, space, sample=draw_sample(subgroup, sample_size, seed))

    def gram(self, xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None) -> np.ndarray:
        xs, ys = self._points(xs), None if ys is None else self._points(ys)
        if self.sample is None:
            return invariant_gram_exact(self.spec, self.subgroup, xs, ys)
        return invariant_gram_sampled(self.spec, self.sample, xs, ys)

    def tuning_counts(self, xs: Sequence[GraphCode]) -> Callable:
        """Once per tuning run, a function of a (d + 1) profile that gives the square Gram of
        nonempty xs and its pullback W -> g (see :func:`_square_tuning`). The exact counts are
        fetched here, once; a Monte Carlo kernel's are not cached, so each call builds them."""
        points, size = tuple(self._points(xs)), self.space.d + 1
        if self.sample is None:
            return _square_tuning(self._counts(points, None), size)
        return lambda profile: _square_tuning(self._counts(points, None), size)(profile)

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances k_H(x, x): each point's own counts, built uncached, without the square Gram."""
        if len(xs) == 0:
            return np.zeros(0)
        xs = self._points(xs)
        top = _distance_top(xs, xs)
        sides = zip((_distinct_images(self._source, x) for x in xs), code_words(xs)[:, None])
        counts = np.stack([_bins(images, target, top)[0] / images[1].sum() for images, target in sides])
        return _contract_counts(counts, kernel_profile(self.spec, self.space.d))

    def _points(self, xs: Sequence[GraphCode]) -> Sequence[GraphCode]:
        """The codes, all in the kernel's space, that counts are built at (for Monte Carlo, their representatives)."""
        common_space(xs, self.space)
        if self.sample is None:
            return xs
        return [orbit_representative(self.subgroup, x) for x in xs]

    def with_spec(self, spec: KernelSpec) -> "ProjectedKernel":
        return ProjectedKernel(spec, self.subgroup, self.space, sample=self.sample)
