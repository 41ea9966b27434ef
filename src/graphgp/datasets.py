"""Molecule-to-graph encodings, dataset files, splits, and metrics.

Molecules arrive as JSON lines, one per molecule:

    {"id": ..., "atoms": ["C", "O", ...], "bonds": [[0, 1], ...], "target": ...}

Hydrogens are dropped and bond multiplicity collapses to a single unweighted
edge, so a molecule becomes an undirected graph on its heavy atoms. Two
encodings to a fixed-size graph space are supported: sequential (atoms fill
nodes 0, 1, 2, ... in file order) and type-aligned (each element owns a
reserved block of node slots, which makes within-type node permutations the
natural symmetry group of the encoding).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import gp
from .invariance import PermSubgroup
from .spaces import GraphCode, GraphSpace, GraphSpaceKind, common_space, graph_from_json, graph_to_json

HYDROGEN = "H"


@dataclass(frozen=True)
class Molecule:
    """Atoms, bonds between atom indices, and a scalar regression target."""

    atoms: tuple[str, ...]
    bonds: tuple[tuple[int, int], ...]
    target: float
    mol_id: str | None = None

    def __post_init__(self) -> None:
        seen = set()
        for i, j in self.bonds:
            if not (0 <= i < len(self.atoms) and 0 <= j < len(self.atoms)):
                raise ValueError(f"bond ({i}, {j}) out of range for {len(self.atoms)} atoms")
            if i == j:
                raise ValueError(f"bond ({i}, {j}) connects an atom to itself")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate bond {key}")
            seen.add(key)

    def heavy(self) -> "Molecule":
        """Drop hydrogens (and their bonds), reindexing the remaining atoms."""
        keep = [i for i, a in enumerate(self.atoms) if a != HYDROGEN]
        remap = {old: new for new, old in enumerate(keep)}
        bonds = tuple(
            (remap[i], remap[j]) for i, j in self.bonds if i in remap and j in remap
        )
        return Molecule(tuple(self.atoms[i] for i in keep), bonds, self.target, self.mol_id)


def molecule_from_json(obj: dict) -> Molecule:
    bonds = tuple((int(i), int(j)) for i, j in obj.get("bonds", []))
    return Molecule(
        atoms=tuple(str(a) for a in obj["atoms"]),
        bonds=bonds,
        target=float(obj["target"]),
        mol_id=str(obj["id"]) if "id" in obj else None,
    )


def molecule_to_json(mol: Molecule) -> dict:
    out = {"atoms": list(mol.atoms), "bonds": [list(b) for b in mol.bonds], "target": mol.target}
    if mol.mol_id is not None:
        out["id"] = mol.mol_id
    return out


def read_json_lines(path: str | Path, parse: Callable[[dict], object]) -> list:
    """``parse`` of each nonblank line's JSON object, in order; any fault, a missing key included,
    is a ValueError that starts with ``path:line``."""
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{line_no}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return out


def load_molecules(path: str | Path) -> list[Molecule]:
    return read_json_lines(path, molecule_from_json)


def save_molecules(path: str | Path, mols: Iterable[Molecule]) -> None:
    with open(path, "w") as fh:
        for mol in mols:
            fh.write(json.dumps(molecule_to_json(mol)) + "\n")


# -- encodings ---------------------------------------------------------------


@dataclass(frozen=True)
class SequentialLayout:
    """Atoms map to nodes 0, 1, 2, ... in file order; spare nodes stay isolated."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"layout needs at least one node, got n={self.n}")


@dataclass(frozen=True)
class TypeAlignedLayout:
    """Each element owns a fixed, ordered block of node slots.

    ``type_slots`` is an ordered mapping element -> slot count; blocks are
    laid out in that order, so e.g. ("C", 3), ("O", 2) gives carbon nodes
    {0, 1, 2} and oxygen nodes {3, 4}.
    """

    type_slots: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.type_slots:
            raise ValueError("layout needs at least one element block")
        seen = set()
        for elem, count in self.type_slots:
            if count < 1:
                raise ValueError(f"element {elem!r} has a non-positive slot count {count}")
            if elem in seen:
                raise ValueError(f"element {elem!r} appears twice")
            seen.add(elem)

    @property
    def n(self) -> int:
        return sum(count for _, count in self.type_slots)

    def block_ranges(self) -> dict[str, range]:
        out = {}
        start = 0
        for elem, count in self.type_slots:
            out[elem] = range(start, start + count)
            start += count
        return out

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self.block_ranges().values())


Layout = SequentialLayout | TypeAlignedLayout


def layout_from_json(obj: dict) -> Layout:
    if "type_slots" in obj:
        return TypeAlignedLayout(tuple((str(k), int(v)) for k, v in obj["type_slots"].items()))
    if "n" in obj:
        return SequentialLayout(int(obj["n"]))
    raise ValueError('layout JSON needs "type_slots" (aligned) or "n" (sequential)')


def layout_to_json(layout: Layout) -> dict:
    if isinstance(layout, TypeAlignedLayout):
        return {"type_slots": {k: v for k, v in layout.type_slots}}
    return {"n": layout.n}


def infer_sequential_layout(mols: Sequence[Molecule]) -> SequentialLayout:
    """Smallest sequential layout fitting every molecule's heavy-atom count."""
    if not mols:
        raise ValueError("cannot infer a layout from an empty dataset")
    return SequentialLayout(max(len(m.heavy().atoms) for m in mols))


def encoding_space(layout: Layout, kind: GraphSpaceKind = GraphSpaceKind.UNDIRECTED) -> GraphSpace:
    """The space a layout encodes into: one shared instance per (kind, node count), so codes share its cached tables."""
    return _shared_space(kind, layout.n)


@lru_cache(maxsize=64)
def _shared_space(kind: GraphSpaceKind, n: int) -> GraphSpace:
    return GraphSpace(kind, n)


def encode(mol: Molecule, layout: Layout, kind: GraphSpaceKind = GraphSpaceKind.UNDIRECTED) -> GraphCode:
    """Encode a molecule's heavy-atom graph into the layout's graph space.

    Sequential layouts place atoms on the first nodes in file order;
    type-aligned layouts fill each element's slot block in file order.
    Capacity overruns are rejected with the molecule and element named.
    """
    heavy = mol.heavy()
    space = encoding_space(layout, kind)
    who = heavy.mol_id or "<unnamed>"
    if isinstance(layout, SequentialLayout):
        if len(heavy.atoms) > layout.n:
            raise ValueError(
                f"molecule {who}: {len(heavy.atoms)} heavy atoms exceed the {layout.n}-node layout"
            )
        assignment = list(range(len(heavy.atoms)))
    else:
        ranges = layout.block_ranges()
        cursor = {elem: r.start for elem, r in ranges.items()}
        assignment = []
        for atom in heavy.atoms:
            if atom not in ranges:
                raise ValueError(f"molecule {who}: element {atom!r} has no slot block in the layout")
            pos = cursor[atom]
            if pos >= ranges[atom].stop:
                raise ValueError(
                    f"molecule {who}: more than {len(ranges[atom])} atoms of element {atom!r}"
                )
            assignment.append(pos)
            cursor[atom] = pos + 1
    edges = sorted({tuple(sorted((assignment[i], assignment[j]))) for i, j in heavy.bonds})
    return space.code_from_edges(edges)


def subgroup_from_layout(layout: Layout) -> PermSubgroup:
    """Within-type node permutations of a type-aligned layout."""
    if not isinstance(layout, TypeAlignedLayout):
        raise ValueError("only type-aligned layouts define canonical node blocks")
    return PermSubgroup(layout.n, layout.blocks())


def filter_small(
    mols: Sequence[Molecule], allowed_types: Iterable[str], max_per_type: int
) -> list[Molecule]:
    """Keep molecules whose heavy-atom type counts fit the per-type cap."""
    allowed = set(allowed_types)
    kept = []
    for mol in mols:
        heavy = mol.heavy()
        counts: dict[str, int] = {}
        for atom in heavy.atoms:
            counts[atom] = counts.get(atom, 0) + 1
        if all(a in allowed and c <= max_per_type for a, c in counts.items()):
            kept.append(mol)
    return kept


# -- splits and metrics -------------------------------------------------------


def train_test_split(size: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, covering index split; train gets round(ratio * size) items."""
    if size < 2:
        raise ValueError(f"need at least two examples to split, got {size}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(size)
    n_train = min(max(int(round(ratio * size)), 1), size - 1)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def rmse(pred: Sequence[float], true: Sequence[float]) -> float:
    """Root mean squared error, on whatever scale the inputs carry."""
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError(f"need equally many nonzero predictions and targets, got {pred.shape} and {true.shape}")
    return float(np.sqrt(np.mean((pred - true) ** 2)))


def predictive_log_likelihood(model: gp.GPModel, xs: Sequence[GraphCode], ys: Sequence[float]) -> float:
    """Summed log density of held-out targets under the pointwise predictive.

    Each point contributes log N(y; posterior mean, posterior variance +
    noise variance), on the original target scale.
    """
    ys = np.asarray(ys, dtype=float)
    if len(xs) == 0 or len(xs) != len(ys):
        raise ValueError(f"need equally many codes and targets, got {len(xs)} and {len(ys)}")
    mean, var = gp.predict(model, xs)
    return log_likelihood_of_prediction(model, mean, var, ys)


def log_likelihood_of_prediction(
    model: gp.GPModel, mean: np.ndarray, var: np.ndarray, ys: Sequence[float]
) -> float:
    """:func:`predictive_log_likelihood` from a ``gp.predict(model, xs)`` already made."""
    total_var = var + model.noise * model.y_std**2
    ys = np.asarray(ys, dtype=float)
    return float(np.sum(-0.5 * (np.log(2.0 * math.pi * total_var) + (ys - mean) ** 2 / total_var)))


# -- encoded-code files --------------------------------------------------------


def write_codes(
    path: str | Path,
    codes: Sequence[GraphCode],
    targets: Sequence[float],
    ids: Sequence[str | None] | None = None,
) -> None:
    """One JSON line per example: the graph (kind, n, edges), target, optional id."""
    if len(codes) != len(targets):
        raise ValueError("need equally many codes and targets")
    with open(path, "w") as fh:
        for i, (code, target) in enumerate(zip(codes, targets)):
            obj = dict(graph_to_json(code), target=float(target))
            if ids is not None and ids[i] is not None:
                obj["id"] = ids[i]
            fh.write(json.dumps(obj) + "\n")


def read_codes(path: str | Path) -> tuple[list[GraphCode], np.ndarray, list[str | None]]:
    """The codes, targets and ids of a :func:`write_codes` file; a code from another space than the
    first line's is refused with its line."""
    codes: list[GraphCode] = []

    def parse(obj: dict) -> tuple[float, str | None]:
        codes.append(graph_from_json(obj))
        common_space(codes[-1:], codes[0].space)
        return float(obj["target"]), obj.get("id")

    rows = read_json_lines(path, parse)
    return codes, np.array([t for t, _ in rows], dtype=float), [i for _, i in rows]
