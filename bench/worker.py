"""One benchmark process: set up a workload, time whole rounds, check outputs.

Started by ``run.py`` with graphgp's ``src`` on PYTHONPATH and one BLAS
thread. Writes a JSON result to ``<out>/result.json``; with
``--setup-only`` it stops once set-up is done and records when that was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

D = inputs.N_NODES * (inputs.N_NODES - 1) // 2


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class TuneWorkload:
    """``run_experiment`` on a molecule file, as ``graphgp experiment`` runs it.

    One round is one call; its models are the tuned, refitted and evaluated
    (split, method) pairs other than the untuned ``naive`` baseline.
    """

    def __init__(self, seed: int, workdir: Path, pool_seed: int, pool_size: int, relabel: bool, config: dict):
        self.seed = seed
        self.workdir = workdir
        self.pool_seed = pool_seed
        self.pool_size = pool_size
        self.relabel = relabel
        self.config = config
        self.reports: list[dict] = []
        self.calls: list[tuple] = []

    @property
    def models_per_round(self) -> int:
        gp_methods = [m for m in self.config["methods"] if m != "naive"]
        return len(gp_methods) * self.config["n_splits"]

    def setup(self) -> None:
        from graphgp import cli, datasets, gp

        self.cli, self.gp = cli, gp
        mols = inputs.molecule_pool(self.pool_seed, self.pool_size)
        if self.relabel:
            mols = inputs.relabel_within_elements(mols, self.seed)
        self.mols = mols
        path = self.workdir / "molecules.jsonl"
        inputs.write_molecules(path, mols)
        self.config = dict(self.config, dataset=str(path))
        layout = datasets.layout_from_json(inputs.ALIGNED_LAYOUT)
        self.codes = [datasets.encode(datasets.molecule_from_json(m), layout) for m in mols]
        self.group = datasets.subgroup_from_layout(layout)
        self.warm_up()
        self._record_optimizer_calls()

    def warm_up(self) -> None:
        """Work paid once per process that the workload puts into set-up."""

    def _record_optimizer_calls(self) -> None:
        original = self.gp.optimize_hyperparameters

        def recorded(kernel, xs, ys, noise=0.1, budget=200, normalize_y=False):
            result = original(kernel, xs, ys, noise=noise, budget=budget, normalize_y=normalize_y)
            self.calls.append((kernel, tuple(xs), np.asarray(ys, dtype=float), noise, result))
            return result

        self.gp.optimize_hyperparameters = recorded

    def round(self) -> None:
        self.reports.append(self.cli.run_experiment(self.config))

    def _delivered(self) -> list[tuple[dict, dict, list]]:
        """(split, its method entry, optimizer calls) for every delivered model of round 1."""
        restarts = len(self.config.get("restart_multipliers", (0.5, 1.0, 2.0)))
        calls = iter(self.calls)
        out = []
        for split in self.reports[0]["splits"]:
            for method in self.config["methods"]:
                if method == "naive":
                    continue
                starts = 1 if method == "linear" else restarts
                out.append((split, split["methods"][method], [next(calls) for _ in range(starts)]))
        return out

    def quality(self) -> dict:
        delivered = self._delivered()
        rmse = [entry["rmse"] for _split, entry, _calls in delivered]
        points = sum(split["test_size"] for split, _entry, _calls in delivered)
        log_lik = sum(entry["log_lik"] for _split, entry, _calls in delivered)
        per_point = [max(c[4].objective for c in calls) / len(calls[0][1]) for _s, _e, calls in delivered]
        return {
            "heldout_rmse": float(np.mean(rmse)),
            "heldout_density": math.exp(log_lik / points),
            "evidence_per_point": math.exp(float(np.mean(per_point))),
        }

    def check(self) -> list[str]:
        failures = []
        if any(r != self.reports[0] for r in self.reports[1:]):
            failures.append("rounds on identical inputs gave different reports")
        failures += self.check_gram()
        failures += self.check_beats_naive()
        for i, (kernel, xs, ys, noise, result) in enumerate(self.calls[: len(self.calls) // len(self.reports)]):
            z = checks.normalized(ys)
            start = checks.dense_lml(kernel.gram(xs), z, noise)
            tuned = checks.dense_lml(result.kernel.gram(xs), z, result.noise)
            failures.append(checks.check_tuned_not_worse(start, tuned, f"optimizer run {i}"))
        return [f for f in failures if f]

    def check_gram(self) -> list[str]:
        return []

    def check_beats_naive(self) -> list[str]:
        """Every projected model of round 1 predicts better than the training mean."""
        from graphgp import ProjectedKernel

        failures = []
        for _split, entry, calls in self._delivered():
            kernel, y_train = calls[0][0], calls[0][2]
            if not isinstance(kernel, ProjectedKernel):
                continue
            y_test = [m["target"] for m in self.mols]  # the pool minus the training targets
            for y in y_train:
                y_test.remove(float(y))
            failures.append(checks.check_beats_naive(entry["rmse"], y_train, np.array(y_test), "projected model"))
        return failures

    def _sample(self, count: int) -> list[int]:
        rng = np.random.default_rng(self.seed)
        return sorted(rng.choice(len(self.mols), size=count, replace=False).tolist())


class TuneExact(TuneWorkload):
    """The demo-05 experiment: six methods, exact projected kernels, |H| = 1296."""

    def warm_up(self) -> None:
        from graphgp import Heat, KernelSpec, ProjectedKernel

        # the cross form visits every ordered pair, as the shuffled train and
        # test Grams of a round do; the square form would fill only i <= j
        spec = KernelSpec(Heat(math.sqrt(D)))
        ProjectedKernel(spec, self.group, self.codes[0].space).gram(self.codes, self.codes)

    def check_gram(self) -> list[str]:
        from graphgp import Heat, KernelSpec, ProjectedKernel

        pick = self._sample(12)
        edges = [inputs.aligned_edges(self.mols[i]) for i in pick]
        hist = checks.distance_histograms(edges, edges, inputs.aligned_group())
        failures = []
        # starting kernels of the tuner (kappa = sqrt(d) and its x2 restart),
        # where every entry is far above the spectral sum's rounding floor
        for kappa in (math.sqrt(D), 2 * math.sqrt(D)):
            spec = KernelSpec(Heat(kappa), variance=1.7)
            K = ProjectedKernel(spec, self.group, self.codes[0].space).gram([self.codes[i] for i in pick])
            ref = checks.gram_from_histograms(hist, checks.heat_profile(kappa, 1.7, D))
            failures.append(checks.check_gram_entries(K, ref, f"exact projected Gram, kappa={kappa:.3f}"))
        return failures


class TuneMC(TuneWorkload):
    """Shared-sample Monte Carlo projected kernel, tuned on ~100 graphs."""

    def check_gram(self) -> list[str]:
        from graphgp import Heat, KernelSpec, NodePermutation, PermSubgroup, ProjectedKernel

        space = self.codes[0].space
        spec = KernelSpec(Heat(math.sqrt(D)), variance=1.7)
        pick = self._sample(24)
        sample_size = int(self.config["mc_samples"])
        mc = ProjectedKernel.monte_carlo(spec, self.group, space, sample_size, self.cli.named_seed(0, "mc-kernel"))
        failures = [checks.check_symmetric_psd(mc.gram([self.codes[i] for i in pick]), "Monte Carlo Gram")]
        # a sample holding every element of a small group once equals the exact average
        blocks = [(0, 1, 2), (3, 4, 5)] + [(i,) for i in range(6, inputs.N_NODES)]
        small = inputs.group_maps(blocks)
        sample = tuple(NodePermutation(tuple(int(v) for v in row)) for row in small)
        full = ProjectedKernel(spec, PermSubgroup(inputs.N_NODES, tuple(blocks)), space, sample=sample)
        edges = [inputs.aligned_edges(self.mols[i]) for i in pick[:12]]
        hist = checks.distance_histograms(edges, edges, small)
        ref = checks.gram_from_histograms(hist, checks.heat_profile(math.sqrt(D), 1.7, D))
        K = full.gram([self.codes[i] for i in pick[:12]])
        failures.append(checks.check_gram_entries(K, ref, f"Monte Carlo Gram over all {len(sample)} elements"))
        return failures


class FitPredictCLI:
    """``graphgp fit --optimize`` then ``graphgp predict``, each in a fresh process."""

    models_per_round = 1
    pool_seed, n_train, n_test = 44, 64, 192
    #: the repository README's ``fit`` example kernel
    kernel = '{"family":"heat","kappa":8}'

    def __init__(self, seed: int, workdir: Path, trace: bool):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.rounds: list[dict] = []

    def setup(self) -> None:
        from graphgp import datasets

        mols = inputs.relabel_within_elements(
            inputs.molecule_pool(self.pool_seed, self.n_train + self.n_test), self.seed
        )
        self.mols = mols
        layout = datasets.layout_from_json(inputs.ALIGNED_LAYOUT)
        codes = [datasets.encode(datasets.molecule_from_json(m), layout) for m in mols]
        targets = [m["target"] for m in mols]
        self.train, self.test = self.workdir / "train.jsonl", self.workdir / "test.jsonl"
        datasets.write_codes(self.train, codes[: self.n_train], targets[: self.n_train])
        datasets.write_codes(self.test, codes[self.n_train :], targets[self.n_train :])

    def _command(self, argv: list[str], trace_file: Path) -> int:
        env = dict(os.environ)
        if self.trace:
            env["BENCH_TRACE_FILE"] = str(trace_file)
        return subprocess.run([sys.executable, str(HERE / "cli_child.py"), *argv], env=env).returncode

    def round(self) -> None:
        k = len(self.rounds)
        model, preds = self.workdir / f"model-{k}.json", self.workdir / f"predictions-{k}.csv"
        fit = ["fit", "--dataset", str(self.train), "--kernel", self.kernel, "--optimize",
               "--projected", inputs.BLOCKS, "--out", str(model)]
        predict = ["predict", "--model", str(model), "--points", str(self.test), "--out", str(preds)]
        codes = [self._command(fit, self.workdir / f"trace-fit-{k}.json")]
        if codes[0] == 0:
            codes.append(self._command(predict, self.workdir / f"trace-predict-{k}.json"))
        self.rounds.append({"argv": [fit, predict], "outputs": [model, preds], "codes": codes})
        if codes != [0, 0]:
            raise RuntimeError(f"CLI exit codes {codes}")

    def trace_files(self) -> list[Path]:
        return sorted(self.workdir.glob("trace-*.json"))

    def _model(self) -> dict:
        return json.loads(self.rounds[0]["outputs"][0].read_text())

    def _targets(self):
        y = np.array([m["target"] for m in self.mols])
        return y[: self.n_train], y[self.n_train :]

    def quality(self) -> dict:
        model = self._model()
        mean, var = checks.read_predictions(self.rounds[0]["outputs"][1])
        _y_train, y_test = self._targets()
        total = var + model["noise"] * model["normalization"]["std"] ** 2
        log_density = -0.5 * (np.log(2 * math.pi * total) + (y_test - mean) ** 2 / total)
        return {
            "heldout_rmse": float(np.sqrt(np.mean((mean - y_test) ** 2))),
            "heldout_density": math.exp(float(log_density.mean())),
            "evidence_per_point": math.exp(model["log_marginal_likelihood"] / self.n_train),
        }

    def check(self) -> list[str]:
        failures = []
        for r in self.rounds:
            for argv, out in zip(r["argv"], r["outputs"]):
                failures.append(checks.check_manifest(out, argv, f"graphgp {argv[0]}"))
        first = [p.read_bytes() for p in self.rounds[0]["outputs"]]
        if any([p.read_bytes() for p in r["outputs"]] != first for r in self.rounds[1:]):
            failures.append("rounds on identical inputs wrote different model or prediction files")
        failures += self.check_model()
        return [f for f in failures if f]

    def check_model(self) -> list[str]:
        model = self._model()
        kernel = model["kernel"]
        if kernel["family"] != "heat" or kernel["laplacian"] != "sym":
            return [f"unexpected tuned kernel {kernel}"]
        y_train, y_test = self._targets()
        z = checks.normalized(y_train)
        y_mean, y_std = float(y_train.mean()), float(y_train.std())
        edges = [inputs.aligned_edges(m) for m in self.mols]
        train_edges = edges[: self.n_train]
        rng = np.random.default_rng(self.seed)
        rows = np.sort(rng.choice(self.n_test, size=16, replace=False))
        group = inputs.aligned_group()
        hist_train = checks.distance_histograms(train_edges, train_edges, group)
        hist_test = checks.distance_histograms([edges[self.n_train + i] for i in rows], train_edges, group)

        failures = [
            checks.check_close(model["normalization"]["mean"], y_mean, y_std, "target mean"),
            checks.check_close(model["normalization"]["std"], y_std, y_std, "target spread"),
        ]
        start = checks.dense_lml(checks.gram_from_histograms(hist_train, checks.heat_profile(8.0, 1.0, D)), z, 0.1)
        profile = checks.heat_profile(kernel["kappa"], kernel["variance"], D)
        K = checks.gram_from_histograms(hist_train, profile)
        tuned = checks.dense_lml(K, z, model["noise"])
        lml = model["log_marginal_likelihood"]
        failures.append(checks.check_close(lml, tuned, max(1.0, abs(tuned)), "fitted LML"))
        failures.append(checks.check_tuned_not_worse(start, tuned, "graphgp fit --optimize"))

        mean, var = checks.read_predictions(self.rounds[0]["outputs"][1])
        hist_self = checks.self_histograms(edges[self.n_train :], group)
        prior = checks.gram_from_histograms(hist_self[:, None, :], profile)[:, 0]
        ref_mean, ref_var = checks.dense_posterior(
            K, checks.gram_from_histograms(hist_test, profile), prior[rows], z, model["noise"]
        )
        failures.append(checks.check_predictions(
            mean, var, rows, ref_mean * y_std + y_mean, ref_var * y_std**2, prior * y_std**2, y_std, "graphgp predict"
        ))
        return failures


def make_workload(name: str, seed: int, workdir: Path, trace: bool):
    methods = ["naive", "linear", "heat_arbitrary", "heat_aligned", "heat_projected", "matern_projected"]
    if name == "tune_exact":
        # the demo-05 draw itself (generator seed 42, 40 molecules) and its
        # configuration, one split per round
        config = {"aligned_layout": inputs.ALIGNED_LAYOUT, "methods": methods,
                  "n_splits": 1, "budget": 150, "seed": 0}
        return TuneExact(seed, workdir, 42, 40, False, config)
    if name == "tune_mc":
        # one start, at demo-05's x2 restart: with budget 20 its x0.5 and x1
        # starts end near-diagonal, predicting the training mean, and all
        # three would leave one ~25 s round per run
        config = {"aligned_layout": inputs.ALIGNED_LAYOUT, "methods": ["heat_projected"],
                  "mc_samples": 16, "restart_multipliers": [2.0], "n_splits": 1, "budget": 20, "seed": 0}
        return TuneMC(seed, workdir, 43, 120, True, config)
    if name == "fit_predict_cli":
        return FitPredictCLI(seed, workdir, trace)
    raise ValueError(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        start = time.perf_counter()
        import graphgp.cli  # noqa: F401

        tracer = tracing.Tracer()
        workload = make_workload(args.workload, args.seed, out, True)
        if isinstance(workload, TuneWorkload):  # the CLI processes time their own import
            tracer.record("cli.import", start, time.perf_counter())
        tracer.install()
    else:
        workload = make_workload(args.workload, args.seed, out, False)
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        (out / "setup.json").write_text(json.dumps({"ready": ready}))
        return 0

    # whole rounds until the next one would end past the window; the traced
    # run covers set-up and exactly one round
    round_s, failed, error = [], 0, None
    while True:
        begin = time.perf_counter()
        try:
            workload.round()
        except Exception as exc:  # noqa: BLE001 - counted and reported, not swallowed
            failed += workload.models_per_round
            error = f"{type(exc).__name__}: {exc}"
            break
        round_s.append(time.perf_counter() - begin)
        spent = time.monotonic() - ready
        if args.trace or spent + statistics.median(round_s) > args.seconds:
            break
    if tracer is not None:  # per-layer figures cover set-up and the round, not the checks below
        summaries = [tracer.summary()]
        tracer.write_spans(out / "spans-worker.json")
    result = {
        "ready": ready,
        "round_s": round_s,
        "models_per_round": workload.models_per_round,
        "attempted": (len(round_s) + (1 if error else 0)) * workload.models_per_round,
        "failed": failed,
        "error": error,
        "peak_rss_mb": peak_rss_mb(),
    }
    if round_s:
        result["failures"] = workload.check()
        result["quality"] = workload.quality()
    if tracer is not None:
        if isinstance(workload, FitPredictCLI):
            summaries += [json.loads(p.read_text()) for p in workload.trace_files()]
        result["layers"] = tracing.layer_metrics(summaries, round_s[0] if round_s else 0.0)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
