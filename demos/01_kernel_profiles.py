"""Kernel profiles on graph spaces.

Every isotropic kernel on a space of graphs is a function of the Hamming
distance between edge sets. This script builds heat and Matérn kernels on
the space of directed graphs with loops on 6 nodes (36 edge slots, 2^36
graphs) and prints how each decays with distance, plus the per-level
spectral components that make up the heat kernel. Evaluation is O(d) per
distance thanks to the precomputed level-sum tables, even though a naive
spectral sum would have 2^36 terms.
"""

from pathlib import Path

import numpy as np

from graphgp import (
    GraphSpaceKind,
    GraphSpace,
    Heat,
    KernelSpec,
    LaplacianVariant,
    heat_closed_form,
    kernel_profile,
    level_log_weights,
    matern_spec,
)
from graphgp.cli import main as graphgp_main

space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 6)
d = space.d
print(f"space: directed graphs with loops on {space.n} nodes, d = {d} edge slots")

heat = KernelSpec(Heat(kappa=2.0), variance=1.0, laplacian=LaplacianVariant.PLAIN)
matern_narrow = matern_spec(d, nu_base=0.5, kappa=2.0)
matern_smooth = matern_spec(d, nu_base=2.5, kappa=2.0)

profiles = {
    "heat k=2": kernel_profile(heat, d),
    "matern nu=d/2+0.5": kernel_profile(matern_narrow, d),
    "matern nu=d/2+2.5": kernel_profile(matern_smooth, d),
}

print(f"\n{'m':>3} " + " ".join(f"{name:>20}" for name in profiles))
for m in range(0, d + 1, 4):
    row = " ".join(f"{profiles[name][m]:20.6f}" for name in profiles)
    print(f"{m:>3} {row}")

# the heat kernel has a closed form: sigma^2 * tanh(kappa^2 / 2)^m
worst = max(
    abs(profiles["heat k=2"][m] - heat_closed_form(2.0, 1.0, m)) for m in range(d + 1)
)
print(f"\nheat profile vs closed form tanh(k^2/2)^m: max |diff| = {worst:.2e}")

# where the prior variance lives across frequency levels
weights = np.exp(level_log_weights(heat, d))
print("\nheat spectrum: share of variance per level (first 8 levels)")
for j in range(8):
    bar = "#" * int(60 * weights[j])
    print(f"  level {j:2d}: {weights[j]:.4f} {bar}")

# the same curves through the command-line interface, with an SVG chart
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
graphgp_main(
    [
        "kernel", "profile",
        "--spec", '{"family": "heat", "kappa": 2.0, "laplacian": "plain"}',
        "--d", str(d),
        "--out", str(out / "heat_profile.csv"),
        "--svg", str(out / "heat_profile.svg"),
    ]
)
print(f"\nwrote {out / 'heat_profile.csv'} and {out / 'heat_profile.svg'}")
