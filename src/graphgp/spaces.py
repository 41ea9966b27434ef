"""Finite spaces of unweighted graphs encoded as bit vectors.

A graph on ``n`` labeled nodes (directed or undirected, with or without
self-loops) is stored as a ``d``-bit code: one bit per admissible node pair
("edge slot"), slots ordered lexicographically over node pairs. Codes form
the group Z_2^d under bitwise XOR, and the number of differing bits between
two codes is the Hamming distance that every kernel in this package is a
function of.

Bulk paths see code lists as (count, ceil(d/64)) uint64 word matrices, slot
s at bit s % 64 of word s // 64, and k node relabelings as one (k, d) gather
index; a code's k images are one gather of its bits (:func:`permuted_words`).
:func:`image_sources` is the one function that turns node maps into that
index, so every relabelling goes through it. :func:`code_words` encodes codes
as words and :func:`decode_words` turns word rows back into code integers, so
only this module knows the word layout.
It also owns the one check that codes share a space, :func:`common_space`,
made wherever codes become words; callers bound to a space pass it.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Largest node count accepted by default (d up to 256 for directed+loops).
DEFAULT_MAX_NODES = 16

#: Slot permutations :func:`edge_permutation` keeps, one d-tuple per (node
#: permutation, space), about 0.6 KB at d = 66. Nothing in the package
#: relabels through them (:func:`image_sources` does); the cache stays for the
#: function's export and for the benchmark tracer, which reads its
#: ``cache_info()``.
EDGE_PERMUTATION_CACHE_SIZE = 2048


class GraphSpaceKind(Enum):
    """The four families of unweighted graph sets on n labeled nodes."""

    UNDIRECTED = "U"
    UNDIRECTED_LOOPS = "UL"
    DIRECTED = "D"
    DIRECTED_LOOPS = "DL"

    @property
    def directed(self) -> bool:
        return self in (GraphSpaceKind.DIRECTED, GraphSpaceKind.DIRECTED_LOOPS)

    @property
    def loops(self) -> bool:
        return self in (GraphSpaceKind.UNDIRECTED_LOOPS, GraphSpaceKind.DIRECTED_LOOPS)


def dimension(kind: GraphSpaceKind, n: int) -> int:
    """Number of edge slots ``d`` for graphs of the given kind on ``n`` nodes.

    n(n-1)/2 undirected, n(n+1)/2 undirected with loops, n(n-1) directed,
    n^2 directed with loops.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if kind is GraphSpaceKind.UNDIRECTED:
        return n * (n - 1) // 2
    if kind is GraphSpaceKind.UNDIRECTED_LOOPS:
        return n * (n + 1) // 2
    if kind is GraphSpaceKind.DIRECTED:
        return n * (n - 1)
    return n * n


@lru_cache(maxsize=64)  # every kind up to the default 16 nodes
def _slot_table(kind: GraphSpaceKind, n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Slot index -> node pair, as a tuple and a (d, 2) array, and the (n, n)
    node pair -> slot array (-1 where no slot; both orders of an undirected
    pair name its slot); one shared table per (kind, n)."""
    if kind is GraphSpaceKind.UNDIRECTED:
        slots = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    elif kind is GraphSpaceKind.UNDIRECTED_LOOPS:
        slots = tuple((i, j) for i in range(n) for j in range(i, n))
    elif kind is GraphSpaceKind.DIRECTED:
        slots = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    else:
        slots = tuple((i, j) for i in range(n) for j in range(n))
    pairs = np.array(slots, dtype=np.intp).reshape(-1, 2)
    index = np.full((n, n), -1, dtype=np.intp)
    index[pairs[:, 0], pairs[:, 1]] = np.arange(len(slots))
    if not kind.directed:
        index[pairs[:, 1], pairs[:, 0]] = np.arange(len(slots))
    pairs.setflags(write=False)
    index.setflags(write=False)
    return slots, pairs, index


@dataclass(frozen=True)
class GraphSpace:
    """One of the four graph sets, with its edge-slot indexing.

    Two spaces compare equal iff they have the same kind and node count;
    the slot table is derived deterministically from those and shared by
    every space of that kind and size.
    """

    kind: GraphSpaceKind
    n: int
    max_nodes: int = field(default=DEFAULT_MAX_NODES, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        if self.n > self.max_nodes:
            raise ValueError(
                f"node count {self.n} exceeds the configured maximum "
                f"{self.max_nodes}; pass max_nodes explicitly to raise it"
            )

    @cached_property
    def d(self) -> int:
        """Edge-slot count (code length in bits)."""
        return dimension(self.kind, self.n)

    @cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """Slot index -> node pair, lexicographic over pairs."""
        return _slot_table(self.kind, self.n)[0]

    @cached_property
    def _slot_index(self) -> np.ndarray:
        return _slot_table(self.kind, self.n)[2]

    def canonical_pair(self, i: int, j: int) -> tuple[int, int]:
        """Validate a node pair and put it in slot-table form."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"node pair ({i}, {j}) out of range for n={self.n}")
        if i == j and not self.kind.loops:
            raise ValueError(f"self-loop ({i}, {j}) not allowed in {self.kind.value}_{self.n}")
        if not self.kind.directed and j < i:
            i, j = j, i
        return (i, j)

    def slot_of(self, i: int, j: int) -> int:
        """Slot index of the (canonicalized) node pair."""
        return int(self._slot_index[self.canonical_pair(i, j)])

    def pair_of(self, slot: int) -> tuple[int, int]:
        if not (0 <= slot < self.d):
            raise ValueError(f"slot {slot} out of range for d={self.d}")
        return self.slots[slot]

    # -- code constructors ------------------------------------------------

    def code_from_int(self, bits: int) -> "GraphCode":
        return GraphCode(self, bits)

    def code_from_bits(self, bits: Iterable[int]) -> "GraphCode":
        value = 0
        count = 0
        for s, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
            value |= b << s
            count += 1
        if count != self.d:
            raise ValueError(f"expected {self.d} bits, got {count}")
        return GraphCode(self, value)

    def code_from_edges(self, edges: Iterable[Sequence[int]]) -> "GraphCode":
        """Build a code from node pairs; duplicate edges are rejected."""
        value = 0
        for edge in edges:
            i, j = edge
            s = self.slot_of(int(i), int(j))
            if value >> s & 1:
                raise ValueError(f"duplicate edge ({i}, {j})")
            value |= 1 << s
        return GraphCode(self, value)

    def empty_code(self) -> "GraphCode":
        return GraphCode(self, 0)

    def random_code(self, rng: np.random.Generator) -> "GraphCode":
        bits = 0
        for word_start in range(0, self.d, 32):
            width = min(32, self.d - word_start)
            bits |= int(rng.integers(0, 1 << width)) << word_start
        return GraphCode(self, bits)

    def all_codes(self) -> Iterator["GraphCode"]:
        """All 2^d codes; refuse to enumerate absurdly large spaces."""
        if self.d > 24:
            raise ValueError(f"refusing to enumerate 2^{self.d} graphs")
        for v in range(1 << self.d):
            yield GraphCode(self, v)


class _Slotted:
    """Copy and pickle support for a frozen dataclass that lists its ``__slots__`` in its body.

    ``dataclass(slots=True)`` would write both, but on Python 3.10 and 3.11 the class it rebuilds
    raises TypeError instead of FrozenInstanceError when a name that is not a field is assigned.
    """

    __slots__ = ()

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GraphCode(_Slotted):
    """A graph as a d-bit vector, element of Z_2^d under XOR."""

    __slots__ = ("space", "bits")
    space: GraphSpace
    bits: int

    def __post_init__(self) -> None:
        if not (0 <= self.bits < (1 << self.space.d)):
            raise ValueError(f"bits out of range for d={self.space.d}")

    def __hash__(self) -> int:
        # equal codes have equal bits; hashing the bits alone keeps the
        # code-keyed caches cheap
        return hash(self.bits)

    def __xor__(self, other: "GraphCode") -> "GraphCode":
        return GraphCode(common_space((self, other)), self.bits ^ other.bits)

    @property
    def weight(self) -> int:
        """Number of set bits (edge count)."""
        return self.bits.bit_count()

    def bit(self, slot: int) -> int:
        if not (0 <= slot < self.space.d):
            raise ValueError(f"slot {slot} out of range for d={self.space.d}")
        return self.bits >> slot & 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.space.slots[s] for s in range(self.space.d) if self.bits >> s & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.space.kind.value
        return f"GraphCode({kind}_{self.space.n}, {self.bits:#x})"


def common_space(codes: Iterable[GraphCode], space: GraphSpace | None = None) -> GraphSpace | None:
    """The space every code lives in: ``space`` if given, else the first code's (None for neither).

    A code from any other space raises ValueError naming both spaces.
    """
    for x in codes:
        if space is None:
            space = x.space
        elif x.space is not space and x.space != space:
            raise ValueError(
                f"codes live in different spaces: {space.kind.value}_{space.n} vs {x.space.kind.value}_{x.space.n}"
            )
    return space


def hamming(x: GraphCode, y: GraphCode) -> int:
    """Hamming distance |x XOR y|: the number of differing edge slots."""
    return (x ^ y).weight


@dataclass(frozen=True)
class NodePermutation(_Slotted):
    """A permutation of the node labels {0..n-1}."""

    __slots__ = ("mapping", "_hash")
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"not a permutation of 0..{len(self.mapping) - 1}: {self.mapping}")
        # taken once: a cache keyed on a sample hashes all of its permutations at each lookup
        object.__setattr__(self, "_hash", hash(self.mapping))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, n: int) -> "NodePermutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, node: int) -> int:
        return self.mapping[node]

    def compose(self, other: "NodePermutation") -> "NodePermutation":
        """(self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return NodePermutation(tuple(self.mapping[other.mapping[i]] for i in range(self.n)))

    def inverse(self) -> "NodePermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return NodePermutation(tuple(inv))


def slot_permutations(node_maps: np.ndarray, space: GraphSpace) -> np.ndarray:
    """(k, d) slot permutations induced by k node maps, one per row.

    Each row of ``node_maps`` is a permutation of the n nodes; relabeling
    nodes by row r moves the bit in slot ``s`` to slot ``out[r, s]``.
    """
    maps = np.asarray(node_maps, dtype=np.intp)
    if maps.ndim != 2 or maps.shape[1] != space.n:
        raise ValueError(f"node maps of shape {maps.shape} do not act on n={space.n}")
    _, pairs, index = _slot_table(space.kind, space.n)
    return index[maps[:, pairs[:, 0]], maps[:, pairs[:, 1]]]


@lru_cache(maxsize=EDGE_PERMUTATION_CACHE_SIZE)
def edge_permutation(sigma: NodePermutation, space: GraphSpace) -> tuple[int, ...]:
    """Slot permutation induced by a node permutation.

    Returns ``perm`` such that relabeling nodes by ``sigma`` moves the bit in
    slot ``s`` to slot ``perm[s]``.
    """
    if sigma.n != space.n:
        raise ValueError(f"permutation of {sigma.n} nodes does not act on n={space.n}")
    perm = tuple(slot_permutations([sigma.mapping], space)[0].tolist())
    if sorted(perm) != list(range(space.d)):
        raise AssertionError("induced slot map is not a bijection")
    return perm


def image_sources(node_maps: np.ndarray, space: GraphSpace) -> np.ndarray:
    """(k, d) gather index of the images sigma(x) under k forward node maps, one per row, for
    :func:`permuted_words`: bit t of sigma(x) is bit sigma^-1(t) of x, so row r is the slot
    permutation of the inverse of map r."""
    maps = np.asarray(node_maps, dtype=np.intp)
    if maps.ndim != 2 or maps.shape[1] != space.n:
        raise ValueError(f"permutation of {maps.shape[-1]} nodes does not act on n={space.n}")
    return slot_permutations(np.argsort(maps, axis=1), space)


# -- bulk bit utilities ---------------------------------------------------

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_bitwise_count = getattr(np, "bitwise_count", None)  # numpy >= 2.0


def _popcount(a: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array, as uint8."""
    if _bitwise_count is not None:
        return _bitwise_count(a)
    a = a - ((a >> np.uint64(1)) & _M1)
    a = (a & _M2) + ((a >> np.uint64(2)) & _M2)
    a = (a + (a >> np.uint64(4))) & _M4
    return ((a * _H01) >> np.uint64(56)).astype(np.uint8)


def _word_count(d: int) -> int:
    return (d + 63) // 64 or 1


def code_words(xs: Sequence[GraphCode], space: GraphSpace | None = None) -> np.ndarray:
    """(len(xs), ceil(d/64)) uint64 word matrix of codes all in ``space`` if given, else in one
    space (:func:`common_space`)."""
    space = common_space(xs, space)
    n_words = 1 if space is None else _word_count(space.d)
    # int(): codes built from numpy integers carry numpy bits
    raw = b"".join(int(x.bits).to_bytes(8 * n_words, "little") for x in xs)
    return np.frombuffer(raw, dtype="<u8").reshape(len(xs), n_words).astype(np.uint64)


def decode_words(words: np.ndarray) -> list[int]:
    """The code integers of a (k, ceil(d/64)) uint64 word matrix, row by row: the inverse of :func:`code_words`."""
    raw, width = words.astype("<u8", copy=False).tobytes(), 8 * words.shape[1]
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """(k, ceil(d/64)) uint64 word matrix of a (k, d) 0/1 integer matrix."""
    # rows padded to whole words first: packbits is several times faster on them
    padded = np.zeros((bits.shape[0], 64 * _word_count(bits.shape[1])), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def _unpack_words(words: np.ndarray, d: int) -> np.ndarray:
    """(k, d) uint8 0/1 matrix of a (k, ceil(d/64)) word matrix."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=d, bitorder="little")


def permuted_words(x: GraphCode, sources: np.ndarray) -> np.ndarray:
    """Word matrix of k images of x: image r holds in slot t the bit x holds in
    slot ``sources[r, t]`` (:func:`image_sources` gives the sources of sigma(x))."""
    return _pack_words(_unpack_words(code_words([x]), x.space.d)[0][sources])


def word_distances(words: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(len(words), len(targets)) Hamming distances between two word matrices, in the narrowest
    unsigned dtype that holds 64 bits per word: uint8 up to 3 words, uint16 up to 1,023."""
    n_words = words.shape[1]
    dtype = np.uint8 if n_words <= 3 else np.uint16 if n_words <= 1023 else np.uint32
    acc = _popcount(words[:, 0, None] ^ targets[None, :, 0]).astype(dtype, copy=False)
    for w in range(1, n_words):
        acc += _popcount(words[:, w, None] ^ targets[None, :, w])
    return acc


def pairwise_hamming(
    xs: Sequence[GraphCode], ys: Sequence[GraphCode] | None = None, space: GraphSpace | None = None
) -> np.ndarray:
    """Matrix of Hamming distances between two code lists (ys=None means xs), all in ``space``
    if given, else in one space."""
    space = common_space(xs if ys is None else itertools.chain(xs, ys), space)
    words = code_words(xs, space)
    return word_distances(words, words if ys is None else code_words(ys, space)).astype(np.int64)


def bit_matrix(xs: Sequence[GraphCode], space: GraphSpace | None = None) -> np.ndarray:
    """(len(xs), d) 0/1 float matrix of the bits of codes all in ``space`` if given, else in one
    space; (0, 0) for no codes and no space."""
    space = common_space(xs, space)
    return _unpack_words(code_words(xs, space), 0 if space is None else space.d).astype(float)


# -- JSON graph format ----------------------------------------------------

_KIND_BY_CODE = {k.value: k for k in GraphSpaceKind}


def space_from_json(obj: dict, max_nodes: int = DEFAULT_MAX_NODES) -> GraphSpace:
    """Parse ``{"kind": "U"|"UL"|"D"|"DL", "n": <int>}``."""
    try:
        kind = _KIND_BY_CODE[obj["kind"]]
    except KeyError:
        raise ValueError(f"unknown graph kind {obj.get('kind')!r}; expected one of U, UL, D, DL")
    if "n" not in obj:
        raise ValueError('graph space needs a node count "n"')
    return GraphSpace(kind, int(obj["n"]), max_nodes=max_nodes)


def graph_from_json(obj: dict, max_nodes: int = DEFAULT_MAX_NODES) -> GraphCode:
    """Parse ``{"kind": ..., "n": ..., "edges": [[i, j], ...]}``.

    Undirected edge pairs may appear in either order and are canonicalized;
    duplicates (after canonicalization) and disallowed self-loops are
    rejected.
    """
    space = space_from_json(obj, max_nodes=max_nodes)
    return space.code_from_edges(obj.get("edges", []))


def graph_to_json(x: GraphCode) -> dict:
    return {
        "kind": x.space.kind.value,
        "n": x.space.n,
        "edges": [list(e) for e in x.edges()],
    }

