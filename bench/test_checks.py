"""Each output check passes the program's output and rejects a deliberately wrong one.

Run with ``python3 -m pytest bench/test_checks.py`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from graphgp import (  # noqa: E402
    Heat,
    KernelSpec,
    NodePermutation,
    PermSubgroup,
    ProjectedKernel,
    datasets,
    gp,
    heat_closed_form,
)

D = 66


@pytest.fixture(scope="module")
def molecules():
    mols = inputs.relabel_within_elements(inputs.molecule_pool(42, 10), seed=3)
    layout = datasets.layout_from_json(inputs.ALIGNED_LAYOUT)
    codes = [datasets.encode(datasets.molecule_from_json(m), layout) for m in mols]
    return mols, codes, datasets.subgroup_from_layout(layout)


def test_relabelling_keeps_molecules_and_moves_edges():
    pool = inputs.molecule_pool(42, 40)
    relabelled = inputs.relabel_within_elements(pool, seed=5)
    assert [m["atoms"] for m in relabelled] == [m["atoms"] for m in pool]
    assert [len(m["bonds"]) for m in relabelled] == [len(m["bonds"]) for m in pool]
    assert any(a["bonds"] != b["bonds"] for a, b in zip(relabelled, pool))


def test_aligned_encoding_matches_the_program(molecules):
    mols, codes, _H = molecules
    assert [tuple(inputs.aligned_edges(m)) for m in mols] == [c.edges() for c in codes]


def test_trivial_group_histogram_is_the_hamming_distance(molecules):
    mols, _codes, _H = molecules
    edges = [set(inputs.aligned_edges(m)) for m in mols[:4]]
    hist = checks.distance_histograms([sorted(e) for e in edges], [sorted(e) for e in edges],
                                      np.arange(inputs.N_NODES)[None, :])
    for i in range(4):
        for j in range(4):
            assert np.flatnonzero(hist[i, j]).tolist() == [len(edges[i] ^ edges[j])]


def test_heat_profile_is_the_closed_form():
    profile = checks.heat_profile(3.0, 1.7, D)
    ref = [heat_closed_form(3.0 / math.sqrt(D), 1.7, m) for m in range(D + 1)]
    assert np.allclose(profile, ref, rtol=1e-14, atol=0)


def test_exact_gram_check(molecules):
    mols, codes, H = molecules
    edges = [inputs.aligned_edges(m) for m in mols]
    ref = checks.gram_from_histograms(
        checks.distance_histograms(edges, edges, inputs.aligned_group()), checks.heat_profile(8.0, 1.7, D)
    )
    K = ProjectedKernel(KernelSpec(Heat(8.0), 1.7), H, codes[0].space).gram(codes)
    assert checks.check_gram_entries(K, ref, "exact") is None
    wrong = K.copy()
    wrong[2, 5] *= 1 + 1e-6
    assert checks.check_gram_entries(wrong, ref, "exact") is not None


def test_monte_carlo_checks(molecules):
    mols, codes, H = molecules
    spec = KernelSpec(Heat(8.0), 1.7)
    K = ProjectedKernel.monte_carlo(spec, H, codes[0].space, 8, seed=1).gram(codes)
    assert checks.check_symmetric_psd(K, "mc") is None
    asym = K.copy()
    asym[0, 1] += 1e-9
    assert checks.check_symmetric_psd(asym, "mc") is not None
    assert checks.check_symmetric_psd(K - 2 * np.eye(len(K)) * K.max(), "mc") is not None

    blocks = [(0, 1, 2), (3, 4, 5)] + [(i,) for i in range(6, inputs.N_NODES)]
    small = inputs.group_maps(blocks)
    sample = tuple(NodePermutation(tuple(int(v) for v in row)) for row in small)
    full = ProjectedKernel(spec, PermSubgroup(inputs.N_NODES, tuple(blocks)), codes[0].space, sample=sample)
    edges = [inputs.aligned_edges(m) for m in mols]
    ref = checks.gram_from_histograms(checks.distance_histograms(edges, edges, small), checks.heat_profile(8.0, 1.7, D))
    G = full.gram(codes)
    assert checks.check_gram_entries(G, ref, "full sample") is None
    G[1, 1] *= 1 + 1e-6
    assert checks.check_gram_entries(G, ref, "full sample") is not None


def test_tuned_lml_check():
    assert checks.check_tuned_not_worse(-10.0, -9.0, "opt") is None
    assert checks.check_tuned_not_worse(-10.0, -10.0, "opt") is None
    assert checks.check_tuned_not_worse(-10.0, -10.001, "opt") is not None


def test_naive_predictor_check():
    y_train, y_test = np.array([1.0, 2.0, 3.0]), np.array([0.0, 4.0])
    naive = 2.0  # the training mean 2 misses both held-out targets by 2
    assert checks.check_beats_naive(naive - 1e-6, y_train, y_test, "model") is None
    assert checks.check_beats_naive(naive, y_train, y_test, "model") is not None


def test_dense_lml_matches_the_program(molecules):
    _mols, codes, H = molecules
    kernel = ProjectedKernel(KernelSpec(Heat(8.0), 1.7), H, codes[0].space)
    ys = np.linspace(-1.0, 2.0, len(codes))
    model = gp.fit(kernel, codes, ys, 0.1, normalize_y=True)
    ref = checks.dense_lml(kernel.gram(codes), checks.normalized(ys), 0.1)
    lml = gp.log_marginal_likelihood(model)
    assert checks.check_close(lml, ref, max(1.0, abs(ref)), "lml") is None
    assert checks.check_close(lml + 1e-6, ref, max(1.0, abs(ref)), "lml") is not None


def test_prediction_check(molecules):
    mols, codes, H = molecules
    spec = KernelSpec(Heat(8.0), 1.7)
    train, test = codes[:6], codes[6:]
    ys = np.linspace(-1.0, 2.0, 6)
    model = gp.fit(ProjectedKernel(spec, H, codes[0].space), train, ys, 0.1, normalize_y=True)
    mean, var = gp.predict(model, test)

    edges = [inputs.aligned_edges(m) for m in mols]
    group = inputs.aligned_group()
    profile = checks.heat_profile(8.0, 1.7, D)
    K = checks.gram_from_histograms(checks.distance_histograms(edges[:6], edges[:6], group), profile)
    Ks = checks.gram_from_histograms(checks.distance_histograms(edges[6:], edges[:6], group), profile)
    prior = checks.gram_from_histograms(checks.self_histograms(edges[6:], group)[:, None, :], profile)[:, 0]
    ref_mean, ref_var = checks.dense_posterior(K, Ks, prior, checks.normalized(ys), 0.1)
    y_mean, y_std = ys.mean(), ys.std()
    rows = np.arange(len(test))
    args = (rows, ref_mean * y_std + y_mean, ref_var * y_std**2, prior * y_std**2, y_std, "predict")
    assert checks.check_predictions(mean, var, *args) is None
    flipped = var.copy()
    flipped[1] = -flipped[1]
    assert checks.check_predictions(mean, flipped, *args) is not None
    above = var.copy()
    above[0] = 1.01 * prior[0] * y_std**2
    assert checks.check_predictions(mean, above, *args) is not None
    shifted = mean.copy()
    shifted[2] += 1e-6 * y_std
    assert checks.check_predictions(shifted, var, *args) is not None


def test_manifest_check(tmp_path):
    out = tmp_path / "model.json"
    out.write_text("{}")
    argv = ["fit", "--out", str(out)]
    assert checks.check_manifest(out, argv, "fit") is not None  # no manifest yet
    Path(str(out) + ".manifest.json").write_text(json.dumps({"argv": argv}))
    assert checks.check_manifest(out, argv, "fit") is None
    assert checks.check_manifest(out, argv + ["--optimize"], "fit") is not None


def test_predictions_csv_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("index,mean,variance\n0,1.5,0.25\n1,-2.0,0.5\n")
    mean, var = checks.read_predictions(path)
    assert mean.tolist() == [1.5, -2.0] and var.tolist() == [0.25, 0.5]
