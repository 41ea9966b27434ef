"""Workload inputs: synthetic molecules and their graph encodings.

The molecule generator is the one of ``demos/05_molecule_experiment.py``:
up to three atoms of each of C, N, O and Cl, a random spanning chain plus a
few extra bonds, and a target of ``-1.5 * bonds + 0.8 * oxygens + noise``.
Each workload draws a fixed pool from it (``pool_seed``); the benchmark
seed then relabels same-element atoms inside every molecule. That changes
the edge lists the program reads but not the molecules, so models that
respect the within-element symmetry give the same answer for every seed.

Everything here is plain Python and numpy; the encodings below are the
benchmark's own and serve as the reference for the output checks.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

ELEMENTS = ("C", "N", "O", "Cl")
SLOTS_PER_ELEMENT = 3
N_NODES = SLOTS_PER_ELEMENT * len(ELEMENTS)
ALIGNED_LAYOUT = {"type_slots": {e: SLOTS_PER_ELEMENT for e in ELEMENTS}}
#: Node blocks of the aligned layout, in the CLI's ``--projected`` syntax.
BLOCKS = "|".join(
    ",".join(str(k * SLOTS_PER_ELEMENT + i) for i in range(SLOTS_PER_ELEMENT))
    for k in range(len(ELEMENTS))
)


def _random_molecule(rng: np.random.Generator, i: int) -> dict:
    counts = {e: int(rng.integers(0, 4)) for e in ELEMENTS}
    if sum(counts.values()) < 2:
        counts["C"] = 2
    atoms = [e for e in ELEMENTS for _ in range(counts[e])]
    n = len(atoms)
    order = rng.permutation(n)
    bonds = {tuple(sorted((int(order[k]), int(order[k + 1])))) for k in range(n - 1)}
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            bonds.add(tuple(sorted((int(a), int(b)))))
    target = -1.5 * len(bonds) + 0.8 * counts["O"] + float(rng.normal(0, 0.3))
    return {"id": f"mol{i}", "atoms": atoms, "bonds": sorted(bonds), "target": target}


def molecule_pool(pool_seed: int, count: int) -> list[dict]:
    """``count`` molecules from the demo-05 generator seeded with ``pool_seed``."""
    rng = np.random.default_rng(pool_seed)
    return [_random_molecule(rng, i) for i in range(count)]


def relabel_within_elements(mols: list[dict], seed: int) -> list[dict]:
    """Shuffle the indices of same-element atoms in every molecule."""
    rng = np.random.default_rng(seed)
    out = []
    for mol in mols:
        atoms = mol["atoms"]
        perm = np.arange(len(atoms))
        for element in ELEMENTS:
            idx = np.array([i for i, a in enumerate(atoms) if a == element], dtype=int)
            perm[idx] = idx[rng.permutation(len(idx))]
        bonds = sorted(tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in mol["bonds"])
        out.append(dict(mol, bonds=bonds))
    return out


def write_molecules(path: Path, mols: list[dict]) -> None:
    with open(path, "w") as fh:
        for mol in mols:
            fh.write(json.dumps(mol) + "\n")


def aligned_edges(mol: dict) -> list[tuple[int, int]]:
    """Edges of the molecule under the type-aligned layout (element blocks in ELEMENTS order)."""
    next_slot = {e: k * SLOTS_PER_ELEMENT for k, e in enumerate(ELEMENTS)}
    node = []
    for atom in mol["atoms"]:
        node.append(next_slot[atom])
        next_slot[atom] += 1
    return sorted({tuple(sorted((node[i], node[j]))) for i, j in mol["bonds"]})


def group_maps(blocks: list[tuple[int, ...]]) -> np.ndarray:
    """Every node map of the product of symmetric groups on consecutive ``blocks``.

    Returned as an (order, n) array whose row maps node i to row[i].
    """
    maps = [
        [node for block in arranged for node in block]
        for arranged in itertools.product(*(itertools.permutations(b) for b in blocks))
    ]
    return np.array(maps, dtype=np.int64)


def aligned_group() -> np.ndarray:
    """The within-element permutation group of the aligned layout (order 6^4 = 1296)."""
    return group_maps([
        tuple(range(k * SLOTS_PER_ELEMENT, (k + 1) * SLOTS_PER_ELEMENT)) for k in range(len(ELEMENTS))
    ])
