"""Synthetic molecule datasets for pipeline tests.

Three generators: graphs with targets drawn from a known prior (so a GP
with the right kernel family must beat the constant baseline), a small
mixed-element set shaped like the hydration-energy files the experiment
pipeline ingests, and the draw of ``demos/05_molecule_experiment.py``.
"""

import numpy as np

from graphgp.datasets import Molecule
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec, LaplacianVariant
from graphgp.spaces import GraphSpace, GraphSpaceKind


def molecules_from_prior(
    n_mols=50, n_nodes=5, seed=0, kappa=1.0, variance=4.0, noise=0.05
):
    """Distinct random graphs with single-element atoms; targets from a heat GP."""
    rng = np.random.default_rng(seed)
    space = GraphSpace(GraphSpaceKind.UNDIRECTED, n_nodes)
    codes = {}
    while len(codes) < n_mols:
        c = space.random_code(rng)
        codes[c.bits] = c
    codes = list(codes.values())
    kernel = IsotropicKernel(KernelSpec(Heat(kappa), variance, LaplacianVariant.PLAIN), space)
    K = kernel.gram(codes)
    L = np.linalg.cholesky(K + 1e-10 * np.eye(n_mols))
    targets = L @ rng.standard_normal(n_mols) + np.sqrt(noise) * rng.standard_normal(n_mols)
    mols = []
    for i, code in enumerate(codes):
        mols.append(
            Molecule(
                atoms=tuple("C" * n_nodes),
                bonds=code.edges(),
                target=float(targets[i]),
                mol_id=f"g{i}",
            )
        )
    return mols


def molecules_mixed_elements(n_mols=30, seed=0):
    """Small molecules over C/N/O/Cl with at most three atoms per element.

    Atoms are listed in a random order, the way real files arrive, so
    encodings that depend on file order see alignment noise while
    group-averaged kernels do not. The target depends only on the labeled
    structure (bond count, oxygen content), never on the listing order.
    """
    rng = np.random.default_rng(seed)
    elements = ("C", "N", "O", "Cl")
    mols = []
    for i in range(n_mols):
        counts = {e: int(rng.integers(0, 4)) for e in elements}
        total = sum(counts.values())
        if total < 2:
            counts["C"] = 2
            total = sum(counts.values())
        grouped = [e for e in elements for _ in range(counts[e])]
        atoms = tuple(grouped[k] for k in rng.permutation(total))
        # random connected-ish bond set: a spanning path plus extras
        order = rng.permutation(total)
        bonds = {tuple(sorted((int(order[k]), int(order[k + 1])))) for k in range(total - 1)}
        for _ in range(int(rng.integers(0, total))):
            a, b = rng.integers(0, total, size=2)
            if a != b:
                bonds.add(tuple(sorted((int(a), int(b)))))
        target = -1.5 * len(bonds) + 0.8 * counts["O"] + float(rng.normal(0, 0.3))
        mols.append(Molecule(atoms, tuple(sorted(bonds)), target, mol_id=f"mix{i}"))
    return mols


def molecules_like_demo05(n_mols=40, seed=42):
    """The molecules of ``demos/05_molecule_experiment.py``: its first ``n_mols`` draws.

    Atoms are listed grouped by element; the bonds run over a random node
    order. Same generator, same draw order, so the default arguments give
    the demo's 40 molecules before its size filter.
    """
    rng = np.random.default_rng(seed)
    elements = ("C", "N", "O", "Cl")
    mols = []
    for i in range(n_mols):
        counts = {e: int(rng.integers(0, 4)) for e in elements}
        if sum(counts.values()) < 2:
            counts["C"] = 2
        atoms = tuple(e for e in elements for _ in range(counts[e]))
        n = len(atoms)
        order = rng.permutation(n)
        bonds = {tuple(sorted((int(order[k]), int(order[k + 1])))) for k in range(n - 1)}
        for _ in range(int(rng.integers(0, n))):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                bonds.add(tuple(sorted((int(a), int(b)))))
        target = -1.5 * len(bonds) + 0.8 * counts["O"] + float(rng.normal(0, 0.3))
        mols.append(Molecule(atoms, tuple(sorted(bonds)), target, mol_id=f"mol{i}"))
    return mols
