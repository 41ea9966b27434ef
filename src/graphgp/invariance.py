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
node maps t, of H or of S^-1 S, with |t(x_i) XOR y_j| = m. Each such count
is an integer over an integer total, so the builder may take it from any
images that give the same integers. Over H it splits H into two halves,
H = H_A x H_B, its blocks in two sets of orders as close as possible (H_B
trivial for one block): as |s_a s_b(x) XOR y| = |s_b(x) XOR s_a^-1(y)|, it
bins x's distinct H_B images (|Stab_B(x)| node maps each) against y's
distinct H_A images (|Stab_A(y)| each), half-orbits of at most |H_B| and
|H_A| rows instead of x's whole orbit. Over a sample it bins x's distinct
S^-1 S images, with their multiplicities, against y itself. One builder
makes them all, one x at a time, by one vectorized XOR/popcount of its
row-side images against the column-side images of all the ys (a square
build bins each pair once, from its cheaper side). Only 3-6% of C is
nonzero on molecules, so the builder keeps just those entries, as (pair,
distance, share) triples with pair = i * len(ys) + j (:class:`Counts`; a
square build keeps each unordered pair once, at i <= j), and never
allocates the dense tensor. Half-orbits grow along their half's
stabilizer chain (below), for every code a build needs in one batched walk,
so exact cost follows half-orbit sizes, not |H|; a sample's images come
from one gather of each code's bits through the (|S|^2, d)
slot-permutation array. The counts do not depend on the kernel. Images
per (source, code) and exact counts per (H, (xs, ys)) sit in two
least-recently-used caches of one class (:class:`ByteCache`), each bounded
by ``CACHE_BYTES``. A tuning run fetches its exact counts once, so each of
its objective evaluations costs two weighted bincounts over the triples: the
Gram, by pair, of share * profile[distance], and the pullback of the
gradient's weight matrix W, by distance, of share * W[pair]. Exact
evaluation visits whole half-orbits: a chain step of one code that would
gather more than ``ENUMERATION_CAP`` image rows is refused, whatever |H|;
a build where some pair of codes would bin more image pairs than that
from their half-orbits bins the xs' whole orbits against the ys instead
(a code dense in both halves is then refused as its orbit grows).
Deciding whether two graphs share an orbit reduces to three such kernel
values, so no shortcut exists in general (for H the full symmetric group
this is exactly graph-isomorphism testing).

The same orbits, viewed as vertices of a weighted quotient graph, carry the
spectral kernel directly: the group-averaged kernel equals the quotient
graph's kernel scaled by sqrt(orbit sizes), provided the symmetric
normalized Laplacian and the full-space normalizer are used.

Nothing enumerates H one element at a time. Grams, quotients, orbit
enumeration and orbit representatives walk a stabilizer chain instead: sum
over blocks of b(b-1)/2 transposition gathers rather than |H|.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Sequence

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

#: Image rows one gather may produce for one code: a chain step's orbit rows times the step's rows,
#: or a sample's |S|^2 node maps s_b^-1 s_a; and image pairs a build bins for one pair of codes from
#: half-orbits, a row-side one times a column-side one, before it bins whole orbits instead.
#: Refusing a dense U11 code under S11 takes 0.1 s and a 22 MB tracemalloc peak at this cap
#: (2-vCPU host).
ENUMERATION_CAP = 2**21

#: Image rows one chain step may gather over several codes at once; a larger batch is split
#: between codes, so a batched walk peaks no higher than its largest code alone would. Also the
#: image rows a step holds as bits at a time (d bytes each) while gathering: the rest as words.
ORBIT_BATCH_ROWS = 2**16

#: Refuse to enumerate graph spaces with more than 2^QUOTIENT_MAX_DIM codes.
QUOTIENT_MAX_DIM = 16

#: Slot-permutation arrays kept for reuse: a sample's S^-1 S gather index, one
#: per (sample, space), of (|S|^2, d) entries (135 KB at |S| = 16 and 0.5 MB at
#: |S| = 32 for d = 66); and a group's stabilizer chain, one per (H, space), of
#: sum over blocks of b(b+1)/2 - 1 rows of d entries (11 KB at |H| = 1296). Also
#: the samples kept interned.
SLOT_PERMS_CACHE_SIZE = 4

#: Bytes each of the two caches whose entries grow with the number of codes may hold, least
#: recently used out first: distinct images per (source, code) and exact counts per (H, (xs, ys)).
#: Over H an image entry is one half-orbit, at most |H_A| or |H_B| rows (36 at |H| = 1296); over
#: a sample's S^-1 S, at most min(|S|^2, |orbit|) rows. A count entry holds 24 bytes per nonzero
#: (an 8-byte pair index, distance and share): the square counts of 800 demo-05 molecules under
#: |H| = 1296, each unordered pair once, take 19.6 MB, and a tuning run's cross counts about 10 MB
#: more, so both fit.
CACHE_BYTES = 64 << 20

#: Charged to every cached entry besides its arrays' bytes, for the Python objects around it: its
#: key, the value and the ordered-dict node (under tracemalloc, about 320 bytes an image entry
#: over 300 U12 codes, and 540 a count entry, whose value holds three arrays).
ENTRY_BYTES = 1024

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
    """The sample as a tuple, interned; refused if empty, or if its |S|^2 node maps s_b^-1 s_a
    exceed the cap."""
    if len(sample) == 0:
        raise ValueError("sample must contain at least one permutation")
    _require_sample_size(len(sample))
    return _interned(tuple(sample))


@lru_cache(maxsize=SLOT_PERMS_CACHE_SIZE)
def _interned(sample: tuple[NodePermutation, ...]) -> tuple[NodePermutation, ...]:
    """The first of equal samples met, so that cache keys holding a sample match by identity
    rather than comparing its permutations one by one."""
    return sample


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


#: One code's distinct images: a (k, ceil(d/64)) uint64 word matrix, sorted, and how many node maps
#: give each image, as one float over a group (where they are all |Stab(x)|) or as a float64 array
#: over a sample, the dtype of the weights ``np.bincount`` takes without a cast.
Images = tuple[np.ndarray, float | np.ndarray]


class CacheInfo(NamedTuple):
    """``functools.lru_cache``'s counters (``maxsize`` None: the budget is in bytes), plus bytes."""

    hits: int
    misses: int
    maxsize: None
    currsize: int
    bytes: int
    maxbytes: int


class ByteCache:
    """Values per (source, key), least recently used out past a byte budget.

    ``cache(source, key)`` gives one key's value; :meth:`many` gives those of
    many keys, growing all the keys it does not hold in one call of
    ``grow(source, keys)`` (for images over a group, one walk of its chain),
    and stores nothing when that call refuses. Each entry counts its arrays'
    bytes plus ``ENTRY_BYTES``; one larger than the whole budget is returned
    uncached.
    """

    def __init__(self, grow: Callable[[Source, list], list]):
        self.grow = grow
        self.maxbytes = CACHE_BYTES
        self.cache_clear()

    def cache_clear(self) -> None:
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._bytes = self._hits = self._misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, None, len(self._entries), self._bytes, self.maxbytes)

    def __call__(self, source: Source, key):
        return self.many(source, (key,))[0]

    def many(self, source: Source, keys: Sequence) -> list:
        """The value of each key, in order; each key not held is a miss, grown once."""
        entries, found = self._entries, {}
        for key in keys:
            entry = entries.get((source, key))
            if entry is not None:
                # the held key stays: no new key tuple, no dict churn (samples are interned, so the
                # second key comparison is by identity)
                entries.move_to_end((source, key))
                found[key] = entry[0]
        missing = [key for key in dict.fromkeys(keys) if key not in found]
        self._hits += len(keys) - len(missing)
        self._misses += len(missing)
        for key, value in zip(missing, self.grow(source, missing)):
            found[key] = value
            size = ENTRY_BYTES + sum(part.nbytes for part in value if isinstance(part, np.ndarray))
            if size <= self.maxbytes:
                entries[source, key] = value, size
                self._bytes += size
                while self._bytes > self.maxbytes:
                    self._bytes -= entries.popitem(last=False)[1][1]
        return [found[key] for key in keys]


def _grown_images(source: Source, xs: Sequence[GraphCode]) -> list[Images]:
    """The distinct images of each code under a source's node maps, read-only: over a group, its
    orbit, all codes grown in one chain walk, |H| / |orbit| node maps each; over S^-1 S, one
    gather per code."""
    if not xs:
        return []
    space = xs[0].space
    if isinstance(source, PermSubgroup):
        images, sizes = _orbit_words(source, code_words(xs, space), space)
        order = source.order()
        # each its own buffer, so the cache's bytes are the bytes it holds
        out = [(words.copy(), float(order // len(words))) for words in np.split(images, np.cumsum(sizes)[:-1])]
    else:
        out = [_distinct_rows(permuted_words(x, _slot_perms(source, space)))[:2] for x in xs]
        out = [(words, mult.astype(float)) for words, mult in out]
    for words, mult in out:
        words.setflags(write=False)
        if isinstance(mult, np.ndarray):
            mult.setflags(write=False)
    return out


#: The distinct images of codes, cached: ``_distinct_images(source, x)``, or ``.many(source, xs)``.
_distinct_images = ByteCache(_grown_images)


def _distinct_rows(words: np.ndarray, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The distinct rows of a word matrix, of each id's rows apart when ``ids`` are given, sorted
    by id and then with the last word as the most significant key (row 0 is the least code), how
    many times each occurs, and their ids."""
    sort = np.lexsort((*words.T,) if ids is None else (*words.T, ids))
    words = words[sort]
    new = np.ones(len(words), dtype=bool)
    (words[1:] != words[:-1]).any(axis=1, out=new[1:])
    if ids is not None:
        ids = ids[sort]
        new[1:] |= ids[1:] != ids[:-1]
    first = new.nonzero()[0]
    return words[first], np.diff(first, append=len(words)), None if ids is None else ids[first]


@lru_cache(maxsize=PAIR_HISTOGRAM_CACHE_SIZE)
def pair_histogram(H: PermSubgroup, x: GraphCode, y: GraphCode) -> np.ndarray:
    """Counts, over sigma in H, of the Hamming distance between sigma(x) and y.

    The histogram is symmetric in (x, y); it is |H| times the counts that a
    single exact group-averaged kernel value contracts with the profile
    (:func:`invariant_kernel_exact` builds those as a 1x1 Gram). Nothing in
    the package reads it; it stays cached for outside readers of its
    ``cache_info()``. It bins the whole orbit of one code against the other.
    """
    if y.bits < x.bits:
        x, y = y, x
    words, mult = _distinct_images(H, x)
    hist = _bins((words, mult), code_words([y], x.space), 0, x.space.d + 1) * mult
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
    (b_j b_k), j < k. Each element of H is one product of one row per step, so a minimum or an
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


@lru_cache(maxsize=SLOT_PERMS_CACHE_SIZE)
def _halves(H: PermSubgroup) -> tuple[PermSubgroup, PermSubgroup]:
    """H = H_A x H_B: H's blocks in two sets whose orders are as close as possible, H_A the one
    of larger order (H_B is trivial when H has one block), each a subgroup on all of H's nodes."""
    moving = [block for block in H.blocks if len(block) > 1]
    reach = {1: ()}  # order of a set of blocks -> the first set found with it
    for k, block in enumerate(moving):
        for order, chosen in list(reach.items()):
            reach.setdefault(order * math.factorial(len(block)), (*chosen, k))
    total = H.order()
    order = min(reach, key=lambda o: max(o, total // o))
    chosen = [[block for k, block in enumerate(moving) if (k in reach[order]) == side] for side in (True, False)]
    if order * order < total:
        chosen.reverse()

    def on(blocks):
        fixed = set(range(H.n)).difference(*blocks)
        return PermSubgroup(H.n, (*blocks, *((v,) for v in sorted(fixed))))

    return on(chosen[0]), on(chosen[1])


def _gathered(words: np.ndarray, step: np.ndarray, d: int) -> np.ndarray:
    """The images of each row of a word matrix under each row of a chain step, row r's at
    r * len(step) onward, unpacked to bits ``ORBIT_BATCH_ROWS`` images at a time: a step holds
    its images as words and one chunk of them as bits (d bytes a row), not all of them."""
    out = np.empty((len(words) * len(step), words.shape[1]), dtype=np.uint64)
    per = max(1, ORBIT_BATCH_ROWS // len(step))
    for r in range(0, len(words), per):
        bits = _unpack_words(words[r : r + per], d)[:, step].reshape(-1, d)
        out[r * len(step) : r * len(step) + len(bits)] = _pack_words(bits)
    return out


def _orbit_words(H: PermSubgroup, words: np.ndarray, space: GraphSpace) -> tuple[np.ndarray, np.ndarray]:
    """The distinct images under H of each row of a (k, ceil(d/64)) word matrix, grown along H's
    chain in one walk for all rows, duplicates dropped after each step: (images, sizes), the images
    of row 0 first, each row's sorted (the last word is the most significant key), and how many
    each row has. A step over several rows' images that would gather more than
    ``ORBIT_BATCH_ROWS`` rows is split between them; a step of one row's images that would gather
    more than ``ENUMERATION_CAP`` is refused before it runs."""
    steps, done, rows = _chain(H, space), [], len(words)
    todo = [(np.arange(rows), words, 0)]  # (row ids, their images so far, next step), lowest ids last
    while todo:
        ids, words, first = todo.pop()
        for k in range(first, len(steps)):
            gather, single = len(words) * len(steps[k]), ids[0] == ids[-1]
            if gather > ORBIT_BATCH_ROWS and not single:
                bounds = np.flatnonzero(ids[1:] != ids[:-1]) + 1
                cut = bounds[np.abs(bounds - len(ids) // 2).argmin()]
                todo += [(ids[cut:], words[cut:], k), (ids[:cut], words[:cut], k)]
                break
            if gather > ENUMERATION_CAP:
                raise GroupTooLargeError(
                    f"growing an orbit under a group of order {H.order()} would gather "
                    f"{gather} image rows in one step, above the enumeration cap "
                    f"{ENUMERATION_CAP}; exact computation over equivalence classes scales with the "
                    f"orbit size (deciding orbit equivalence this way is as hard as the underlying "
                    f"matching problem) - use the Monte Carlo estimator instead, which meets this "
                    f"only where colour refinement leaves an orbit this large (as for regular graphs)"
                )
            gathered = _gathered(words, steps[k], space.d)
            if single:  # one row's images need no id key
                words = _distinct_rows(gathered)[0]
                ids = np.full(len(words), ids[0])
            else:
                words, _, ids = _distinct_rows(gathered, ids.repeat(len(steps[k])))
        else:
            done.append((ids, words))
    ids = np.concatenate([ids for ids, _ in done])
    return np.concatenate([words for _, words in done]), np.bincount(ids, minlength=rows)


def enumerate_orbit(H: PermSubgroup, x: GraphCode) -> OrbitClass:
    """The orbit of a graph under H, grown along H's chain, with its lexicographically minimal
    member; ``GroupTooLargeError`` if a chain step would gather more than ``ENUMERATION_CAP`` rows."""
    space = x.space
    bits = decode_words(_orbit_words(H, code_words([x]), space)[0])
    members = tuple(GraphCode(space, b) for b in bits)
    return OrbitClass(canonical=members[0], size=len(bits), members=members)


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
    return GraphCode(x.space, decode_words(_orbit_words(residual, ordered, x.space)[0][:1])[0])


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


def _bins(images: Images, targets: np.ndarray, keys: np.ndarray | int, size: int) -> np.ndarray:
    """Histogram of ``size`` entries of one code's images against target word rows: entry
    keys[t] + m counts the image and target t at distance m. A sample's images count by their
    multiplicities; a group's share one, so they count once each, and the caller scales."""
    words, mult = images
    keys = (word_distances(words, targets) + keys).ravel()  # int64 in one add for array keys
    if np.ndim(mult) == 0:
        return np.bincount(keys, minlength=size)
    return np.bincount(keys, weights=mult.repeat(len(targets)), minlength=size)


class Counts(NamedTuple):
    """Distance counts as CSR-style triples: entry k adds ``share[k]`` of the node maps at
    distance ``dist[k]`` to the flat entry ``pair[k]`` (i * columns + j) of a ``shape`` Gram.
    Each (pair, dist) occurs once, and a pair's triples run by distance. ``square`` counts (of
    codes against themselves) hold each unordered pair once, at i <= j, with the diagonal's
    shares halved: the Gram is the triples' contraction plus its transpose."""

    pair: np.ndarray
    dist: np.ndarray
    share: np.ndarray
    shape: tuple[int, ...]
    square: bool = False


def _shares(counts: np.ndarray, rows: Sequence[Images], columns: Sequence[Images], i, j) -> np.ndarray:
    """Counts of row i's images against column j's as shares of all node maps: over H, scaled by
    |Stab_B(x_i)| |Stab_A(y_j)| first (integers, exact), then divided by |H_B| |H_A|; over a
    sample, counted by multiplicity already, divided by |S|^2."""
    (words, mult), (targets, scale) = rows[0], columns[0]
    if np.ndim(mult):
        return counts / (mult.sum() * scale * len(targets))
    counts = counts * (np.array([mult for _, mult in rows])[i] * np.array([mult for _, mult in columns])[j])
    return counts / (mult * len(words) * scale * len(targets))


def _distance_counts(rows: Sequence[Images], columns: Sequence[Images], top: int, square: bool) -> Counts:
    """C[i, j, m], the share of the node maps that take x_i to distance m of y_j, as the triples
    of its nonzeros, built row by row from x_i's row-side images against y_j's column-side
    images (:func:`_sides`).

    Each share is an integer count over an integer total, rounded once. A
    ``square`` build (columns = the xs' own) bins each pair {i, j} once, from
    its cheaper side: codes run in a stable order by row-side over
    column-side image counts D / E, and each row bins against the columns of
    the codes from itself onward, so pair {i, j} costs min(D_i E_j, D_j E_i)
    image pairs (for a sample, E = 1: from the code with fewer images). H and
    S^-1 S are both closed under inverses, so either side gives the same
    integer histogram, and so the cross build's shares in the same order.
    It keeps that one run per unordered pair, at i * n + j with i <= j, the
    diagonal's shares halved (:class:`Counts`).
    """
    n, m = len(rows), len(columns)
    D, E = np.array([len(words) for words, _ in rows]), np.array([len(words) for words, _ in columns])
    if square:
        order = np.argsort(D / E, kind="stable")
        E = E[order]
    else:
        order = np.arange(n)
    targets = np.concatenate([columns[j][0] for j in (order if square else range(m))])
    keys = np.repeat(np.arange(0, m * top, top), E)  # target row -> its column's first entry
    start = np.cumsum(E) - E
    found, sums = [], []
    for k, i in enumerate(order):
        first = k if square else 0
        hist = _bins(rows[i], targets[start[first] :], keys[start[first] :] - first * top, (m - first) * top)
        nonzero = (hist != 0).nonzero()[0]  # a mask's nonzero is several times faster than a float array's
        found.append(nonzero)
        sums.append(hist[nonzero])
    at = np.repeat(np.arange(n), [len(k) for k in found])
    cols, dist = np.divmod(np.concatenate(found), top)
    if square:
        at, cols = order[at], order[at + cols]
    share = _shares(np.concatenate(sums), rows, columns, at, cols)
    if not square:
        return Counts(at * m + cols, dist, share, (n, m))
    share[at == cols] *= 0.5  # exact: the contraction adds the diagonal to itself
    return Counts(np.minimum(at, cols) * m + np.maximum(at, cols), dist, share, (n, m), square=True)


def _own_counts(rows: Sequence[Images], columns: Sequence[Images], top: int) -> Counts:
    """Each x's counts against itself, C[i, i, m], as triples with pair = i: row i's images
    against column i's, both x_i's own."""
    hist = np.concatenate([_bins(r, c[0], 0, top) for r, c in zip(rows, columns)])
    nonzero = np.flatnonzero(hist)
    pair, dist = np.divmod(nonzero, top)
    return Counts(pair, dist, _shares(hist[nonzero], rows, columns, pair, pair), (len(rows),))


def _sides(source: Source, xs: Sequence[GraphCode], ys: Sequence[GraphCode], words: np.ndarray) -> tuple[list, list]:
    """The row-side images of the xs and the column-side images of the ys (``words``: the ys' word
    rows). Over H = H_A x H_B (:func:`_halves`), the xs' H_B half-orbits and the ys' H_A
    half-orbits, as |s_a s_b(x) XOR y| = |s_b(x) XOR s_a^-1(y)|: one chain walk per half grows
    those of every code not cached. Where some pair of those would bin more than
    ``ENUMERATION_CAP`` image pairs (a code dense in both halves, or one whose stabilizer couples
    them), the halves are (trivial, H) instead: the xs' whole orbits against the ys themselves, a
    pair's work one orbit, grown under the cap. Over a sample, the xs' S^-1 S images and the ys
    themselves."""
    if isinstance(source, PermSubgroup):
        A, B = _halves(source)
        rows, columns = _distinct_images.many(B, xs), _distinct_images.many(A, ys)
        if max(len(r[0]) for r in rows) * max(len(c[0]) for c in columns) <= ENUMERATION_CAP:
            return rows, columns
    return _distinct_images.many(source, xs), [(row[None], 1.0) for row in words]


def _counts(source: Source, xs: tuple[GraphCode, ...], ys: tuple[GraphCode, ...] | None) -> Counts:
    """Counts over a source's node maps of the xs against the ys; ys=None means xs."""
    targets = xs if ys is None else ys
    words = code_words(targets, common_space(xs))  # both lists checked before any image is built
    top = _distance_top(xs, targets)
    out = _distance_counts(*_sides(source, xs, targets, words), top, square=ys is None)
    for part in (out.pair, out.dist, out.share):
        part.setflags(write=False)
    return out


#: The exact kernel's counts, cached per (H, (xs, ys)): keyed by the codes themselves, so a hit
#: returns counts built from the same codes (and spaces) as a call that passed the space check.
_group_counts = ByteCache(lambda H, keys: [_counts(H, *key) for key in keys])


def _contract_counts(c: Counts, profile: np.ndarray) -> np.ndarray:
    """sum over m of C[..., m] profile[m]: each entry sums its own triples in their order, so
    equal triples give equal values wherever they lie. Square counts add their transpose, which
    puts each pair's one sum on both sides (x + 0 is x) and doubles the halved diagonal: an
    exactly symmetric Gram, equal to the cross build's and, on its diagonal, own counts' bit for
    bit."""
    weights = profile[c.dist]
    weights *= c.share
    out = np.bincount(c.pair, weights, minlength=math.prod(c.shape)).reshape(c.shape)
    if c.square:
        out += out.T
    return out


def _square_tuning(c: Counts, size: int) -> Callable:
    """A function of a profile that gives the Gram of square counts c and its pullback W -> g,
    of ``size`` entries: twice W at each stored pair (the halved diagonal then counts W's once)
    times the shares, so g @ q == <W, Gram at q> for every profile q and symmetric W, as the
    tuner's is. For such W this is W + W^T at the stored pairs, without forming it."""

    def pullback(W: np.ndarray) -> np.ndarray:
        weights = W.ravel()[c.pair]
        weights *= c.share
        return 2 * np.bincount(c.dist, weights, minlength=size)

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
    return _gram(spec, lambda xs, ys: _group_counts(H, (xs, ys)), xs, ys)


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

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, x: GraphCode) -> int:
        common_space((x,), self.space)
        return int(self.class_of[x.bits])

    def sizes(self) -> np.ndarray:
        return np.array([c.size for c in self.classes], dtype=float)


def build_quotient(H: PermSubgroup, space: GraphSpace) -> QuotientGraph:
    """Enumerate all orbits and the inter-class edge counts of the hypercube."""
    d = space.d
    if d > QUOTIENT_MAX_DIM:
        raise ValueError(
            f"space has 2^{d} codes, above the enumeration limit 2^{QUOTIENT_MAX_DIM}; "
            f"quotient construction visits every code"
        )
    codes = np.arange(1 << d, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(d)) & 1
    weights = np.int64(1) << np.arange(d, dtype=np.int64)
    least = codes  # each code's orbit minimum once the last chain step is folded in
    for step in _chain(H, space):
        # bit s of t(x) is bit src_s of x, so t(x)'s index is bits @ w with w[src_s] = 2^s
        least = np.minimum.reduce([least[bits @ w] for w in weights[np.argsort(step, axis=1)]])
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
    return k_classes / (psi[:, None] * psi[None, :])


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


class ProjectedKernel:
    """Group-averaged kernel bound to a space: exact, or Monte Carlo with a fixed sample.

    Grams and diagonals of both flavours come from one distance-count
    builder, as (pair, distance, share) triples of their nonzeros
    (:class:`Counts`); a square Gram's hold each unordered pair once, and a
    diagonal's own counts are triples with pair = i.
    When ``sample`` is None the builder bins each code's half-orbit under
    H_B against each other code's half-orbit under H_A (H = H_A x H_B), so
    no code's whole orbit is grown; else each code's images over the
    multiset S^-1 S against the other codes. A build grows the half-orbits
    it lacks in one chain walk per half, and keeps them in the byte-bounded
    image cache. Only the exact counts are cached, in a second cache of the
    same budget. The tuner never builds a Gram's derivatives: it contracts
    the same triples once with its weight matrix (:meth:`tuning_counts`),
    fetching exact counts once per tuning run. Monte Carlo counts are built
    again at each evaluation, but from images, target words and a distance
    axis fetched once per run, so an evaluation hashes no sample. The Monte Carlo flavour evaluates the
    sampled estimator at :func:`orbit_representative` of each code, so its
    values, like the exact ones, do not change when a graph is relabelled by
    H; it is biased toward the unprojected kernel with weight 1/|S| (see
    :func:`invariant_kernel_sampled`). ``GroupTooLargeError`` refuses |S|^2
    above ``ENUMERATION_CAP`` at construction, and a code whose half-orbit,
    or whole orbit where half-orbits would pair more images than that (for
    Monte Carlo, its representative's search), needs a chain step of more
    image rows than that, when the code is first met. |H| itself is never
    capped.
    """

    def __init__(
        self,
        spec: KernelSpec,
        subgroup: PermSubgroup,
        space: GraphSpace,
        sample: tuple[NodePermutation, ...] | None = None,
    ):
        _require_acts_on(subgroup, space)
        if sample is not None:
            sample = _checked_sample(sample)
        self._source = subgroup if sample is None else sample
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
        fetched here, once. A Monte Carlo kernel's are not cached: its images, target words and
        distance axis are fetched here, once, and each call runs only :func:`_distance_counts`."""
        points, size = tuple(self._points(xs)), self.space.d + 1
        if self.sample is None:
            return _square_tuning(_group_counts(self.subgroup, (points, None)), size)
        rows, columns = _sides(self._source, points, points, code_words(points))
        top = _distance_top(points, points)
        return lambda profile: _square_tuning(_distance_counts(rows, columns, top, square=True), size)(profile)

    def diag(self, xs: Sequence[GraphCode]) -> np.ndarray:
        """Prior variances k_H(x, x): each point's own counts, built uncached, without the square Gram."""
        if len(xs) == 0:
            return np.zeros(0)
        xs = self._points(xs)
        own = _own_counts(*_sides(self._source, xs, xs, code_words(xs)), _distance_top(xs, xs))
        return _contract_counts(own, kernel_profile(self.spec, self.space.d))

    def _points(self, xs: Sequence[GraphCode]) -> Sequence[GraphCode]:
        """The codes, all in the kernel's space, that counts are built at (for Monte Carlo, their representatives)."""
        common_space(xs, self.space)
        if self.sample is None:
            return xs
        return [orbit_representative(self.subgroup, x) for x in xs]

    def with_spec(self, spec: KernelSpec) -> "ProjectedKernel":
        return ProjectedKernel(spec, self.subgroup, self.space, sample=self.sample)
