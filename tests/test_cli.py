import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from synthetic import molecules_from_prior, molecules_like_demo05, molecules_mixed_elements

from graphgp import datasets, gp, invariance
from graphgp.cli import EXPERIMENT_METHODS, SAMPLE_MATRIX_CAP, load_model, main, named_seed, run_experiment
from graphgp.invariance import (
    ENUMERATION_CAP,
    GroupTooLargeError,
    PermSubgroup,
    ProjectedKernel,
    draw_sample,
    invariant_gram_exact,
    invariant_kernel_exact,
    invariant_kernel_sampled,
    orbit_representative,
    pair_histogram,
)
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec, LaplacianVariant, LinearKernel, evaluate
from graphgp.kravchuk import build_table
from graphgp.spaces import GraphSpace, GraphSpaceKind, graph_to_json

HEAT_PLAIN = '{"family": "heat", "kappa": 1.0, "laplacian": "plain"}'
U4_SPACE = '{"kind": "U", "n": 4}'
SRC = Path(__file__).resolve().parents[1] / "src"


def dense_u11_codes(count):
    """G(11, 1/2) graphs: with no symmetry to speak of, each has 11! images under S_11."""
    rng, space = np.random.default_rng(0), GraphSpace(GraphSpaceKind.UNDIRECTED, 11)
    return [space.code_from_int(int(rng.integers(1 << space.d))) for _ in range(count)]


#: (rmse, log_lik) of the one-split, budget-20 demo-05 experiment on 24 molecules.
STORED_SMALL_EXPERIMENT = {
    "heat_projected": (6.942089532252536, -25.662326932500562),
    "linear": (6.570748804003655, -19.05981393014238),
}

#: Relative tolerance for those stored numbers: loose enough for BLAS
#: rounding differences between machines, far tighter than any change of
#: optimum or of the optimizer's path would give.
STORED_EXPERIMENT_RTOL = 1e-6


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestKernelCommands:
    def test_eval_prints_library_value(self, capsys):
        assert main(["kernel", "eval", "--spec", HEAT_PLAIN, "--d", "6", "--m", "2"]) == 0
        out = capsys.readouterr().out.strip()
        spec = KernelSpec(Heat(1.0), laplacian=LaplacianVariant.PLAIN)
        assert float(out) == evaluate(spec, build_table(6), 2)

    def test_profile_csv_matches_closed_form(self, tmp_path):
        out = tmp_path / "profile.csv"
        svg = tmp_path / "profile.svg"
        code = main(
            ["kernel", "profile", "--spec", HEAT_PLAIN, "--d", "8", "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0][:2] == ["m", "k"]
        assert len(rows) == 10
        for row in rows[1:]:
            m = int(row[0])
            assert float(row[1]) == pytest.approx(math.tanh(0.5) ** m, rel=1e-10)
            # per-level components sum back to the kernel value
            assert sum(float(v) for v in row[2:]) == pytest.approx(float(row[1]), abs=1e-12)
        assert svg.exists() and svg.read_text().startswith("<svg")
        assert (tmp_path / "profile.csv.manifest.json").exists()

    def test_profile_flat_when_truncated_to_level_zero(self, tmp_path):
        out = tmp_path / "flat.csv"
        spec = '{"family": "heat", "kappa": 1.0, "truncation": 0}'
        assert main(["kernel", "profile", "--spec", spec, "--d", "6", "--out", str(out)]) == 0
        rows = read_csv(out)
        ks = [float(r[1]) for r in rows[1:]]
        assert ks == pytest.approx([1.0] * 7, abs=1e-12)

    def test_profile_d36_is_fast(self, tmp_path):
        start = time.monotonic()
        out = tmp_path / "d36.csv"
        assert main(["kernel", "profile", "--spec", HEAT_PLAIN, "--d", "36", "--out", str(out)]) == 0
        assert time.monotonic() - start < 1.0
        assert len(read_csv(out)) == 38

    def test_invariant_exact_matches_library(self, capsys):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        x = space.code_from_edges([[0, 1], [1, 2]])
        y = space.code_from_edges([[0, 3]])
        args = [
            "kernel", "invariant", "--space", U4_SPACE, "--blocks", "0,1,2,3",
            "--spec", HEAT_PLAIN,
            "--x", json.dumps(graph_to_json(x)), "--y", json.dumps(graph_to_json(y)),
            "--mode", "exact",
        ]
        assert main(args) == 0
        got = float(capsys.readouterr().out.strip())
        spec = KernelSpec(Heat(1.0), laplacian=LaplacianVariant.PLAIN)
        assert got == pytest.approx(
            invariant_kernel_exact(spec, PermSubgroup.full(4), x, y), rel=1e-12
        )

    def test_invariant_mc_deterministic(self, capsys):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        x = space.code_from_edges([[0, 1]])
        y = space.code_from_edges([[2, 3]])
        args = [
            "kernel", "invariant", "--space", U4_SPACE, "--blocks", "0,1,2,3",
            "--spec", HEAT_PLAIN,
            "--x", json.dumps(graph_to_json(x)), "--y", json.dumps(graph_to_json(y)),
            "--mode", "mc", "--samples", "6", "--seed", "3",
        ]
        assert main(args) == 0
        first = float(capsys.readouterr().out.strip())
        assert main(args) == 0
        second = float(capsys.readouterr().out.strip())
        assert first == second
        spec = KernelSpec(Heat(1.0), laplacian=LaplacianVariant.PLAIN)
        # one orbit: the sampled estimator is evaluated at the shared representative
        rep = orbit_representative(PermSubgroup.full(4), x)
        assert rep == orbit_representative(PermSubgroup.full(4), y)
        assert first == invariant_kernel_sampled(spec, draw_sample(PermSubgroup.full(4), 6, 3), rep, rep)

    def test_oversized_mc_sample_refused_before_drawing(self, capsys, monkeypatch):
        def refuse(self, rng):
            raise AssertionError("drew a sample that the |S|^2 cap refuses")

        monkeypatch.setattr(PermSubgroup, "random_element", refuse)
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        with pytest.raises(GroupTooLargeError):
            ProjectedKernel.monte_carlo(KernelSpec(Heat(1.0)), PermSubgroup.full(4), space, 100_000, 0)
        x = json.dumps(graph_to_json(space.empty_code()))
        args = [
            "kernel", "invariant", "--space", U4_SPACE, "--blocks", "0,1,2,3", "--spec", HEAT_PLAIN,
            "--x", x, "--y", x, "--mode", "mc", "--samples", "100000",
        ]
        assert main(args) == 2
        assert "enumeration cap" in capsys.readouterr().err

    def test_exact_orbit_above_the_cap_refused_in_bounded_memory(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated the group's elements")

        monkeypatch.setattr(PermSubgroup, "elements", refuse)
        space, H = GraphSpace(GraphSpaceKind.UNDIRECTED, 11), PermSubgroup.full(11)
        assert H.order() > ENUMERATION_CAP
        x, y = dense_u11_codes(2)
        spec = KernelSpec(Heat(1.0))
        args = [
            "kernel", "invariant", "--space", '{"kind": "U", "n": 11}', "--blocks", ",".join(map(str, range(11))),
            "--spec", HEAT_PLAIN, "--x", json.dumps(graph_to_json(x)), "--y", json.dumps(graph_to_json(y)),
            "--mode", "exact",
        ]
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLargeError, match="enumeration cap"):
                invariant_gram_exact(spec, H, [x, y])
            with pytest.raises(GroupTooLargeError, match="enumeration cap"):
                invariant_kernel_exact(spec, H, x, y)
            with pytest.raises(GroupTooLargeError, match="enumeration cap"):
                pair_histogram(H, x, y)
            assert main(args) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "enumeration cap" in capsys.readouterr().err
        assert peak < 64e6  # about 46 MB, the last gather under the cap; 464 MB at a 5,000,000-row cap


class TestTableDump:
    def test_matches_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "dump", "--d", "5", "--out", str(out)]) == 0
        rows = read_csv(out)
        table = build_table(5)
        assert len(rows) == 7
        for j, row in enumerate(rows[1:]):
            assert int(row[0]) == j
            assert [float(v) for v in row[1:]] == pytest.approx(table.values[j].tolist())


class TestQuotientBuild:
    def test_eleven_classes_for_full_group(self, tmp_path):
        out = tmp_path / "quotient.json"
        code = main(
            ["quotient", "build", "--space", U4_SPACE, "--blocks", "0,1,2,3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["num_classes"] == 11
        assert payload["group_order"] == 24
        W = np.array(payload["weights"])
        assert np.allclose(W, W.T)
        sizes = np.array([c["size"] for c in payload["classes"]])
        assert np.allclose(W.sum(axis=1), sizes * 6)

    def test_stdout_mode(self, capsys):
        assert main(["quotient", "build", "--space", '{"kind": "U", "n": 3}', "--blocks", "0,1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_classes"] == 4


class TestDataCommands:
    def test_encode_and_split(self, tmp_path):
        mols_path = tmp_path / "mols.jsonl"
        datasets.save_molecules(mols_path, molecules_mixed_elements(12, seed=1))
        codes_path = tmp_path / "codes.jsonl"
        layout = json.dumps({"type_slots": {"C": 3, "N": 3, "O": 3, "Cl": 3}})
        assert main(["data", "encode", "--layout", layout, "--in", str(mols_path), "--out", str(codes_path)]) == 0
        codes, targets, ids = datasets.read_codes(codes_path)
        assert len(codes) == 12
        assert codes[0].space.n == 12

        split_path = tmp_path / "split.json"
        assert main(["data", "split", "--in", str(codes_path), "--ratio", "0.75", "--seed", "5", "--out", str(split_path)]) == 0
        split = json.loads(split_path.read_text())
        assert sorted(split["train"] + split["test"]) == list(range(12))
        assert len(split["train"]) == 9


class TestFitPredict:
    def _write_dataset(self, tmp_path, n=15):
        mols = molecules_from_prior(n_mols=n, n_nodes=4, seed=2)
        layout = datasets.SequentialLayout(4)
        codes = [datasets.encode(m, layout) for m in mols]
        path = tmp_path / "codes.jsonl"
        datasets.write_codes(path, codes, [m.target for m in mols], [m.mol_id for m in mols])
        return path, codes, [m.target for m in mols]

    def test_fit_then_predict_round_trip(self, tmp_path):
        data_path, codes, targets = self._write_dataset(tmp_path)
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--dataset", str(data_path), "--kernel", HEAT_PLAIN,
            "--noise", "0.1", "--out", str(model_path),
        ]) == 0
        payload = json.loads(model_path.read_text())
        assert payload["normalize_y"] is True
        assert len(payload["train"]) == 15

        model = load_model(model_path)
        space = codes[0].space
        kernel = IsotropicKernel(KernelSpec(Heat(1.0), laplacian=LaplacianVariant.PLAIN), space)
        direct = gp.fit(kernel, codes, targets, 0.1, normalize_y=True)
        points_path = tmp_path / "points.jsonl"
        stars = [space.code_from_int(v) for v in (0, 3, 21)]
        points_path.write_text("\n".join(json.dumps(graph_to_json(s)) for s in stars) + "\n")
        out_csv = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--points", str(points_path), "--out", str(out_csv)]) == 0
        rows = read_csv(out_csv)
        mean, var = gp.predict(direct, stars)
        for i, row in enumerate(rows[1:]):
            assert float(row[1]) == pytest.approx(mean[i], rel=1e-10)
            assert float(row[2]) == pytest.approx(var[i], rel=1e-8, abs=1e-12)

    def test_fit_with_optimization_does_not_hurt_likelihood(self, tmp_path):
        data_path, _codes, _targets = self._write_dataset(tmp_path)
        plain = tmp_path / "plain.json"
        tuned = tmp_path / "tuned.json"
        base = ["fit", "--dataset", str(data_path), "--kernel", HEAT_PLAIN, "--noise", "0.5"]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--optimize", "--budget", "40", "--out", str(tuned)]) == 0
        lml_plain = json.loads(plain.read_text())["log_marginal_likelihood"]
        lml_tuned = json.loads(tuned.read_text())["log_marginal_likelihood"]
        assert lml_tuned >= lml_plain - 1e-9

    def test_tuning_writes_no_optimizer_diagnostics(self, tmp_path):
        # how the optimizer stopped is for traces only: the model file and its
        # manifest keep the keys of an untuned fit
        data_path, _codes, _targets = self._write_dataset(tmp_path)
        base = ["fit", "--dataset", str(data_path), "--kernel", HEAT_PLAIN, "--noise", "0.5"]
        assert main(base + ["--out", str(tmp_path / "plain.json")]) == 0
        assert main(base + ["--optimize", "--budget", "40", "--out", str(tmp_path / "tuned.json")]) == 0
        for suffix in (".json", ".json.manifest.json"):
            plain = json.loads((tmp_path / f"plain{suffix}").read_text())
            tuned_text = (tmp_path / f"tuned{suffix}").read_text()
            assert json.loads(tuned_text).keys() == plain.keys()
            assert "stopped" not in tuned_text

    def test_fit_projected_model(self, tmp_path):
        data_path, codes, targets = self._write_dataset(tmp_path, n=10)
        model_path = tmp_path / "proj.json"
        assert main([
            "fit", "--dataset", str(data_path), "--kernel", HEAT_PLAIN,
            "--projected", "0,1,2,3", "--out", str(model_path),
        ]) == 0
        model = load_model(model_path)
        from graphgp.invariance import ProjectedKernel

        assert isinstance(model.kernel, ProjectedKernel)

    def test_fit_refuses_group_above_enumeration_cap(self, tmp_path, capsys, monkeypatch):
        H = PermSubgroup.full(11)
        assert H.order() == 39_916_800 > ENUMERATION_CAP
        data_path = tmp_path / "codes.jsonl"
        codes = dense_u11_codes(2)
        datasets.write_codes(data_path, codes, [0.5, 1.5])

        def enumerate_nothing(self):
            raise AssertionError("the group was enumerated")

        monkeypatch.setattr(PermSubgroup, "elements", enumerate_nothing)
        code = main([
            "fit", "--dataset", str(data_path), "--kernel", HEAT_PLAIN,
            "--projected", ",".join(str(i) for i in range(11)), "--out", str(tmp_path / "model.json"),
        ])
        assert code == 2
        assert "Monte Carlo" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestSampleCommand:
    def test_exact_mode_shapes(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert main([
            "sample", "--space", '{"kind": "U", "n": 3}', "--spec", HEAT_PLAIN,
            "--mode", "exact", "--n", "7", "--seed", "1", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert len(rows) == 8  # header + 7 draws
        assert len(rows[0]) == 8  # whole 2^3 space

    @pytest.mark.parametrize("mode", ["walsh", "phase"])
    def test_feature_modes_run(self, tmp_path, mode):
        out = tmp_path / f"{mode}.csv"
        assert main([
            "sample", "--space", U4_SPACE, "--spec", HEAT_PLAIN,
            "--mode", mode, "--n", "3", "--seed", "2", "--out", str(out),
        ]) == 0
        assert len(read_csv(out)) == 4

    @pytest.mark.parametrize("mode", ["exact", "walsh"])
    def test_whole_space_too_large_to_hold_refused_before_enumerating(self, tmp_path, capsys, monkeypatch, mode):
        def refuse(self):
            raise AssertionError("enumerated the space")

        monkeypatch.setattr(GraphSpace, "all_codes", refuse)
        out = tmp_path / f"{mode}.csv"
        argv = ["sample", "--space", '{"kind": "U", "n": 6}', "--spec", HEAT_PLAIN, "--mode", mode, "--out", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        # the Gram, or at the default level cap d = 15 all 2^15 features, of 2^15 codes
        matrix = {"exact": "Gram", "walsh": "Walsh feature matrix"}[mode]
        cap = f"{SAMPLE_MATRIX_CAP // 2**20} MiB cap"
        assert f"32768 x 32768 float64 {matrix} (8.0 GiB), above the {cap}" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 16e6  # 0.3 MB in exact mode, 1.0 MB in walsh mode

    @pytest.mark.parametrize("mode", ["exact", "walsh", "phase"])
    def test_whole_u5_space_still_drawn(self, tmp_path, mode):
        out = tmp_path / f"{mode}.csv"
        assert main([
            "sample", "--space", '{"kind": "U", "n": 5}', "--spec", HEAT_PLAIN,
            "--mode", mode, "--n", "2", "--seed", "1", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert len(rows[0]) == 1024

    @pytest.mark.parametrize("mode", ["walsh", "phase"])
    def test_level_cap_above_d_is_a_validation_error(self, tmp_path, capsys, mode):
        out = tmp_path / f"{mode}.csv"
        assert main([
            "sample", "--space", U4_SPACE, "--spec", HEAT_PLAIN, "--mode", mode,
            "--level-cap", "7", "--n", "3", "--seed", "2", "--out", str(out),
        ]) == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        assert main(["kernel", "eval", "--spec", "{not json", "--d", "4", "--m", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_runtime_error_is_1(self, tmp_path, capsys):
        assert main([
            "data", "encode", "--layout", '{"n": 4}',
            "--in", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "x.jsonl"),
        ]) == 1
        assert "failure" in capsys.readouterr().err

    def test_usage_error_is_2(self, capsys):
        assert main(["kernel", "eval", "--d", "4"]) == 2
        capsys.readouterr()

    def test_unknown_method_rejected(self, tmp_path, capsys):
        mols_path = tmp_path / "m.jsonl"
        datasets.save_molecules(mols_path, molecules_from_prior(6, 4, seed=3))
        config = {"dataset": str(mols_path), "methods": ["bogus"], "n_splits": 1}
        assert main(["experiment", "--config", json.dumps(config)]) == 2
        assert "unknown methods" in capsys.readouterr().err


class TestGraphFileErrors:
    """A fault in a graph file or a space is a validation error (exit 2) naming the file and line."""

    BAD_LINES = {
        "missing_n": ('{"kind": "U", "edges": []}', 'graph space needs a node count "n"'),
        "bad_json": ('{"kind": "U", "n": 4', "Expecting"),
        "not_an_object": ("[0, 1]", "list indices must be integers"),
        "bad_edge": ('{"kind": "U", "n": 4, "edges": [1]}', "cannot unpack"),
    }

    def _points(self, tmp_path, bad):
        # the bad graph sits on line 3, after a good one and a blank line
        path = tmp_path / "points.jsonl"
        path.write_text(json.dumps({"kind": "U", "n": 4, "edges": [[0, 1]]}) + "\n\n" + bad + "\n")
        return path

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    @pytest.mark.parametrize("command", ["predict", "sample"])
    def test_bad_points_line_named(self, tmp_path, capsys, command, case):
        bad, message = self.BAD_LINES[case]
        points, out = self._points(tmp_path, bad), tmp_path / "out.csv"
        if command == "predict":
            data = tmp_path / "codes.jsonl"
            space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
            datasets.write_codes(data, [space.code_from_int(v) for v in (1, 6, 40)], [0.0, 1.0, 2.0])
            model = tmp_path / "model.json"
            assert main(["fit", "--dataset", str(data), "--kernel", HEAT_PLAIN, "--out", str(model)]) == 0
            argv = ["predict", "--model", str(model), "--points", str(points), "--out", str(out)]
        else:
            argv = ["sample", "--space", U4_SPACE, "--spec", HEAT_PLAIN, "--points", str(points), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {points}:3: " in err and message in err
        assert not out.exists()

    def test_space_without_node_count(self, tmp_path, capsys):
        argv = ["sample", "--space", '{"kind": "U"}', "--spec", HEAT_PLAIN, "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert 'graph space needs a node count "n"' in capsys.readouterr().err

    def test_codes_file_names_the_line_of_another_space(self, tmp_path, capsys):
        path = tmp_path / "codes.jsonl"
        lines = [{"kind": "U", "n": 4, "edges": [], "target": float(t)} for t in range(3)]
        lines[2]["n"] = 5
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        argv = ["data", "split", "--in", str(path), "--seed", "0", "--out", str(tmp_path / "split.json")]
        assert main(argv) == 2
        assert f"{path}:3: codes live in different spaces: U_4 vs U_5" in capsys.readouterr().err

    def test_invariant_graph_outside_the_declared_space(self, capsys):
        x = json.dumps({"kind": "U", "n": 4, "edges": [[0, 1]]})
        y = json.dumps({"kind": "D", "n": 4, "edges": [[0, 1]]})
        argv = ["kernel", "invariant", "--space", U4_SPACE, "--blocks", "0,1,2,3", "--spec", HEAT_PLAIN]
        assert main(argv + ["--x", x, "--y", y]) == 2
        assert "codes live in different spaces: U_4 vs D_4" in capsys.readouterr().err


class TestManifests:
    def test_replaying_manifest_reproduces_output_bytes(self, tmp_path):
        out = tmp_path / "profile.csv"
        args = ["kernel", "profile", "--spec", HEAT_PLAIN, "--d", "10", "--out", str(out)]
        assert main(args) == 0
        original = out.read_bytes()
        manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
        out.unlink()
        assert main(manifest["argv"]) == 0
        assert out.read_bytes() == original


class TestExperiment:
    def test_report_structure_and_determinism(self, tmp_path):
        mols_path = tmp_path / "mols.jsonl"
        datasets.save_molecules(mols_path, molecules_from_prior(20, 4, seed=4))
        config = {
            "dataset": str(mols_path),
            "methods": ["naive", "linear", "heat_arbitrary"],
            "n_splits": 2,
            "budget": 10,
            "seed": 1,
            "out_dir": str(tmp_path / "run1"),
        }
        assert main(["experiment", "--config", json.dumps(config)]) == 0
        report = json.loads((tmp_path / "run1" / "report.json").read_text())
        assert len(report["splits"]) == 2
        for method in config["methods"]:
            assert "rmse_mean" in report["summary"][method]
        assert report["summary"]["naive"]["log_lik_mean"] is None
        assert report["summary"]["linear"]["log_lik_mean"] is not None

        config["out_dir"] = str(tmp_path / "run2")
        assert main(["experiment", "--config", json.dumps(config)]) == 0
        a = json.loads((tmp_path / "run1" / "report.json").read_text())
        b = json.loads((tmp_path / "run2" / "report.json").read_text())
        assert a["splits"] == b["splits"]

    def test_each_model_predicted_once(self, tmp_path, monkeypatch):
        mols_path = tmp_path / "mols.jsonl"
        datasets.save_molecules(mols_path, molecules_from_prior(16, 4, seed=2))
        config = {"dataset": str(mols_path), "methods": ["naive", "linear", "heat_arbitrary"],
                  "n_splits": 2, "budget": 5, "restart_multipliers": [1.0], "seed": 3}
        predicted = []
        original = gp.predict

        def counted(model, xs, full_cov=False):
            predicted.append(len(xs))
            return original(model, xs, full_cov)

        monkeypatch.setattr(gp, "predict", counted)
        report = run_experiment(config)
        assert len(predicted) == 2 * 2  # two GP methods, two splits
        assert all(s["methods"]["linear"]["log_lik"] is not None for s in report["splits"])

    def test_all_method_rows_on_mixed_dataset(self, tmp_path):
        mols_path = tmp_path / "mixed.jsonl"
        mols = datasets.filter_small(molecules_mixed_elements(40, seed=5), {"C", "N", "O", "Cl"}, 3)
        assert len(mols) >= 20
        datasets.save_molecules(mols_path, mols)
        config = {
            "dataset": str(mols_path),
            "aligned_layout": {"type_slots": {"C": 3, "N": 3, "O": 3, "Cl": 3}},
            "methods": list(EXPERIMENT_METHODS),
            "n_splits": 2,
            "budget": 6,
            "seed": 0,
            "out_dir": str(tmp_path / "full"),
        }
        assert main(["experiment", "--config", json.dumps(config)]) == 0
        report = json.loads((tmp_path / "full" / "report.json").read_text())
        for method in EXPERIMENT_METHODS:
            entry = report["summary"][method]
            assert "rmse_mean" in entry and "rmse_std" in entry
            assert "log_lik_mean" in entry and "log_lik_std" in entry
            if method != "naive":
                assert np.isfinite(entry["log_lik_mean"])

    def test_small_demo05_experiment_reproduces_stored_numbers(self, tmp_path, monkeypatch):
        mols_path = tmp_path / "mols.jsonl"
        datasets.save_molecules(mols_path, molecules_like_demo05(24))
        config = {
            "dataset": str(mols_path),
            "aligned_layout": {"type_slots": {"C": 3, "N": 3, "O": 3, "Cl": 3}},
            "methods": ["heat_projected", "linear"],
            "n_splits": 1,
            "budget": 20,
            "seed": 0,
        }
        results = []
        original = gp.optimize_hyperparameters

        def recorded(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gp, "optimize_hyperparameters", recorded)
        summary = run_experiment(config)["summary"]
        assert len(results) == 3 + 1  # three kappa restarts, one linear start
        assert all(1 <= r.evaluations <= config["budget"] for r in results)
        for method, (rmse, log_lik) in STORED_SMALL_EXPERIMENT.items():
            assert summary[method]["rmse_mean"] == pytest.approx(rmse, rel=STORED_EXPERIMENT_RTOL)
            assert summary[method]["log_lik_mean"] == pytest.approx(log_lik, rel=STORED_EXPERIMENT_RTOL)

    def test_methods_planned_once_and_tuned_split_by_split(self, tmp_path, monkeypatch):
        mols_path = tmp_path / "mols.jsonl"
        datasets.save_molecules(mols_path, molecules_like_demo05(16))
        config = {
            "dataset": str(mols_path),
            "aligned_layout": {"type_slots": {"C": 3, "N": 3, "O": 3, "Cl": 3}},
            "methods": ["heat_projected", "naive", "linear", "matern_projected"],
            "restart_multipliers": [0.5, 2.0],
            "mc_samples": 4,
            "n_splits": 2,
            "budget": 2,
            "seed": 0,
        }
        draws, calls = [], []
        original_draw, original_tune = invariance.draw_sample, gp.optimize_hyperparameters

        def counted_draw(*args):
            draws.append(original_draw(*args))
            return draws[-1]

        def recorded(kernel, *args, **kwargs):
            calls.append(kernel)
            return original_tune(kernel, *args, **kwargs)

        monkeypatch.setattr(invariance, "draw_sample", counted_draw)
        monkeypatch.setattr(gp, "optimize_hyperparameters", recorded)
        run_experiment(config)
        assert len(draws) == 2  # one Monte Carlo sample per projected method, not per split
        kappa = math.sqrt(66)
        order = [
            None if isinstance(k, LinearKernel) else (type(k.spec.family).__name__, k.spec.family.kappa / kappa)
            for k in calls
        ]
        per_split = [("Heat", 0.5), ("Heat", 2.0), None, ("Matern", 0.5), ("Matern", 2.0)]
        assert order == per_split * 2  # split, then method, then restart
        assert [k.sample for k in calls[:2] + calls[5:7]] == [draws[0]] * 4
        assert [k.sample for k in calls[3:5] + calls[8:10]] == [draws[1]] * 4

    def test_sequential_codes_only_for_methods_that_read_them(self, tmp_path, monkeypatch):
        mols_path = tmp_path / "mols.jsonl"
        datasets.save_molecules(mols_path, molecules_like_demo05(12))
        config = {
            "dataset": str(mols_path),
            "aligned_layout": {"type_slots": {"C": 3, "N": 3, "O": 3, "Cl": 3}},
            "methods": ["naive", "heat_projected"],
            "restart_multipliers": [1.0],
            "n_splits": 1,
            "budget": 2,
            "seed": 0,
        }
        layouts = []
        original = datasets.encode

        def counted(mol, layout):
            layouts.append(type(layout).__name__)
            return original(mol, layout)

        monkeypatch.setattr(datasets, "encode", counted)
        projected_only = run_experiment(config)
        assert layouts == ["TypeAlignedLayout"] * 12  # one aligned code per molecule, no sequential ones
        layouts.clear()
        with_linear = run_experiment(dict(config, methods=["naive", "heat_projected", "linear"]))
        assert sorted(layouts) == ["SequentialLayout"] * 12 + ["TypeAlignedLayout"] * 12
        for split, split_with_linear in zip(projected_only["splits"], with_linear["splits"]):
            for method in config["methods"]:
                assert split["methods"][method] == split_with_linear["methods"][method]

    def test_aligned_method_requires_layout(self, tmp_path, capsys):
        mols_path = tmp_path / "m.jsonl"
        datasets.save_molecules(mols_path, molecules_from_prior(8, 4, seed=6))
        config = {"dataset": str(mols_path), "methods": ["heat_aligned"], "n_splits": 1}
        assert main(["experiment", "--config", json.dumps(config)]) == 2

    def test_tuned_method_requires_a_restart(self, tmp_path, capsys):
        mols_path = tmp_path / "m.jsonl"
        datasets.save_molecules(mols_path, molecules_from_prior(8, 4, seed=6))
        config = {"dataset": str(mols_path), "methods": ["linear", "heat_arbitrary"], "restart_multipliers": [],
                  "n_splits": 1, "budget": 2, "out_dir": str(tmp_path / "out")}
        assert main(["experiment", "--config", json.dumps(config)]) == 2
        assert "method 'heat_arbitrary' needs at least one restart multiplier" in capsys.readouterr().err
        config["methods"] = ["linear"]  # the linear kernel starts once, whatever the multipliers
        assert main(["experiment", "--config", json.dumps(config)]) == 0


class TestNamedSeed:
    def test_stable_and_distinct(self):
        assert named_seed(0, "split-0") == named_seed(0, "split-0")
        assert named_seed(0, "split-0") != named_seed(0, "split-1")
        assert named_seed(0, "split-0") != named_seed(1, "split-0")


#: Run in a fresh interpreter with a scratch directory as its argument:
#: importing the CLI, fitting, predicting, posterior sampling and the
#: ``fit`` and ``predict`` commands, tuning and ``fit --optimize`` must not
#: load any scipy module.
IMPORT_GUARD = """
import json, sys
from pathlib import Path
import graphgp.cli
from graphgp import datasets, gp
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec
from graphgp.spaces import GraphSpace, GraphSpaceKind, graph_to_json

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
xs = [space.code_from_int(b) for b in range(0, 64, 5)]
ys = [float(b % 3) for b in range(len(xs))]
kernel = IsotropicKernel(KernelSpec(Heat(1.0)), space)
model = gp.fit(kernel, xs, ys, 0.1, normalize_y=True)
gp.predict(model, xs[:4])
gp.posterior_sample(model, xs[:4], 2, seed=0)
tmp = Path(sys.argv[1])
datasets.write_codes(tmp / "codes.jsonl", xs, ys)
(tmp / "points.jsonl").write_text("".join(json.dumps(graph_to_json(x)) + "\\n" for x in xs[:4]))
args = ["fit", "--dataset", str(tmp / "codes.jsonl"), "--kernel", '{"family": "heat"}', "--out", str(tmp / "model.json")]
assert graphgp.cli.main(args) == 0
args = ["predict", "--model", str(tmp / "model.json"), "--points", str(tmp / "points.jsonl"), "--out", str(tmp / "p.csv")]
assert graphgp.cli.main(args) == 0
assert not scipy_modules(), f"graphgp loaded {scipy_modules()} without tuning"
result = gp.optimize_hyperparameters(kernel, xs, ys, budget=10)
assert result.evaluations > 1
assert not scipy_modules(), f"tuning loaded {scipy_modules()}"
args = ["fit", "--dataset", str(tmp / "codes.jsonl"), "--kernel", '{"family": "heat"}', "--optimize",
        "--budget", "10", "--out", str(tmp / "tuned.json")]
assert graphgp.cli.main(args) == 0
assert not scipy_modules(), f"fit --optimize loaded {scipy_modules()}"
"""


def test_graphgp_loads_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
