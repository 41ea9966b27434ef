"""Library refusals that no other test reaches: each bad input raises ValueError with its message."""

import math

import numpy as np
import pytest

from graphgp import datasets, gp
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec, LinearKernel, Matern, spec_from_json
from graphgp.spaces import GraphSpace, GraphSpaceKind, slot_permutations

U4 = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
XS = [U4.code_from_int(v) for v in (0, 5, 12, 63)]
HEAT = IsotropicKernel(KernelSpec(Heat(1.0)), U4)

REFUSALS = {
    "fit_normalizes_constant_targets": (
        lambda: gp.fit(HEAT, XS, [2.0] * 4, 0.1, normalize_y=True),
        "^targets are constant; cannot normalize$",
    ),
    "optimize_from_a_non_finite_log_parameter": (
        lambda: gp.optimize_hyperparameters(HEAT, XS, [0.0, 1.0, 2.0, 3.0], noise=math.inf),
        "^initial value of parameter 'noise' is not finite in log space$",
    ),
    "optimize_from_a_non_finite_objective": (
        lambda: gp.optimize_hyperparameters(HEAT, XS, [0.0, 1.0, math.nan, 3.0], noise=0.1),
        "^objective is not finite at the initial parameters",
    ),
    "matern_zero_kappa": (lambda: Matern(nu=2.5, kappa=0.0), "^kappa must be positive and finite, got 0.0$"),
    "negative_truncation": (lambda: KernelSpec(Heat(1.0), truncation=-1), "^truncation must be >= 0, got -1$"),
    "linear_zero_variance": (lambda: LinearKernel(variance=0.0), "^variance must be positive and finite, got 0.0$"),
    "matern_json_without_nu": (
        lambda: spec_from_json({"family": "matern", "kappa": 1.0}, d=6),
        '^matern spec needs "nu" or "nu_base"$',
    ),
    "json_unknown_laplacian": (
        lambda: spec_from_json({"family": "heat", "laplacian": "bogus"}),
        "^unknown laplacian variant 'bogus'$",
    ),
    "sequential_layout_without_nodes": (
        lambda: datasets.SequentialLayout(0),
        "^layout needs at least one node, got n=0$",
    ),
    "aligned_layout_without_blocks": (
        lambda: datasets.TypeAlignedLayout(()),
        "^layout needs at least one element block$",
    ),
    "write_codes_unequal_lengths": (
        lambda: datasets.write_codes("unwritten.jsonl", XS, [1.0]),
        "^need equally many codes and targets$",
    ),
    "predictive_log_likelihood_unequal_lengths": (
        lambda: datasets.predictive_log_likelihood(gp.fit(HEAT, XS, [0.0, 1.0, 2.0, 3.0], 0.1), XS[:2], [1.0]),
        "^need equally many codes and targets, got 2 and 1$",
    ),
    "canonical_pair_out_of_range": (lambda: U4.canonical_pair(0, 4), r"^node pair \(0, 4\) out of range for n=4$"),
    "bit_out_of_range": (lambda: XS[1].bit(6), "^slot 6 out of range for d=6$"),
    "all_codes_above_d_24": (
        lambda: next(GraphSpace(GraphSpaceKind.UNDIRECTED, 8).all_codes()),
        r"^refusing to enumerate 2\^28 graphs$",
    ),
    "slot_permutations_wrong_node_count": (
        lambda: slot_permutations(np.array([[1, 0, 2]]), U4),
        r"^node maps of shape \(1, 3\) do not act on n=4$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a refused write_codes must not leave its file behind
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
    assert not (tmp_path / "unwritten.jsonl").exists()

