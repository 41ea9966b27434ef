"""Command-line entry point.

Subcommands::

    graphgp kernel eval      --spec <json> --d <d> --m <m>
    graphgp kernel profile   --spec <json> --d <d> --out <csv> [--svg <svg>]
    graphgp kernel invariant --space <json> --blocks "0,1,2|3" --spec <json>
                             --x <graph json> --y <graph json>
                             --mode exact|mc [--samples N] [--seed S]
    graphgp table dump       --d <d> --out <csv>
    graphgp quotient build   --space <json> --blocks "0,1,2|3" [--out <json>]
    graphgp data encode      --layout <json> --in mols.jsonl --out codes.jsonl
    graphgp data split       --in codes.jsonl --ratio 0.8 --seed S --out <json>
    graphgp fit              --dataset codes.jsonl --kernel <json> --out model.json
    graphgp predict          --model model.json --points graphs.jsonl --out <csv>
    graphgp sample           --space <json> --spec <json> --mode exact|walsh|phase ...
    graphgp experiment       --config config.json

JSON-valued options accept either an inline JSON string or ``@path`` to read
a file. Every command that writes files also writes a ``*.manifest.json``
recording the exact argument vector, seeds, and package versions, so a run
can be reproduced bit-for-bit by replaying the recorded argv. Exit codes:
0 on success, 2 on validation errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import zlib
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, datasets, gp
from .invariance import PermSubgroup, ProjectedKernel, build_quotient
from .kernels import (
    Heat,
    IsotropicKernel,
    KernelSpec,
    LinearKernel,
    evaluate,
    kernel_profile,
    level_log_weights,
    matern_spec,
    spec_from_json,
    spec_to_json,
)
from .kravchuk import build_table
from .spaces import GraphCode, graph_from_json, graph_to_json, space_from_json

#: Bytes of the dense matrix ``graphgp sample`` may build in exact mode (the float64 Gram of its
#: points) or walsh mode (the float64 feature matrix). Peaks run about 5 and 2.1 times that matrix
#: (tracemalloc, whole D4 space: 672 and 286 MB for a 128 MiB matrix), so about 1.3 GB at the cap.
SAMPLE_MATRIX_CAP = 2**28


def named_seed(root: int, name: str) -> int:
    """Deterministic substream seed derived from a root seed and a label."""
    return int(np.random.SeedSequence([int(root), zlib.crc32(name.encode())]).generate_state(1)[0])


def _json_arg(value: str) -> dict:
    if value.startswith("@"):
        value = Path(value[1:]).read_text()
    obj = json.loads(value)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _write_manifest(out_path: Path, argv: list[str], seeds: dict | None = None) -> None:
    manifest = {
        "command": "graphgp",
        "argv": list(argv),
        "versions": {"graphgp": __version__, "numpy": np.__version__},
    }
    if seeds:
        manifest["seeds"] = seeds
    path = out_path.with_name(out_path.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_svg(path: Path, x: list[float], series: dict[str, list[float]], title: str) -> None:
    """Minimal multi-line chart; no plotting dependency."""
    width, height, pad = 640, 400, 48
    xs = np.asarray(x, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = (float(xs.min()), float(xs.max())) if len(xs) > 1 else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return pad + (v - x_lo) / (x_hi - x_lo or 1.0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#333"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{x_lo:g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{x_hi:g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{y_lo:.3g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{y_hi:.3g}</text>',
    ]
    for idx, (label, values) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        points = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in zip(xs, values))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * idx + 10}" font-size="10" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# -- kernel ------------------------------------------------------------------


def _cmd_kernel_eval(args) -> int:
    spec = spec_from_json(_json_arg(args.spec), d=args.d)
    table = build_table(args.d)
    print(evaluate(spec, table, args.m))
    return 0


def _cmd_kernel_profile(args) -> int:
    d = args.d
    spec = spec_from_json(_json_arg(args.spec), d=d)
    table = build_table(d)
    profile = kernel_profile(spec, d)
    weights = np.exp(level_log_weights(spec, d))
    components = spec.variance * weights[:, None] * table.values  # (level j, distance m)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "k"] + [f"component_{j}" for j in range(d + 1)])
        for m in range(d + 1):
            writer.writerow(
                [m, repr(float(profile[m]))] + [repr(float(components[j, m])) for j in range(d + 1)]
            )
    _write_manifest(out, args.argv)
    if args.svg:
        x = list(range(d + 1))
        series = {"k": profile.tolist()}
        for j in range(min(d, 4) + 1):
            series[f"level {j}"] = components[j].tolist()
        _write_svg(Path(args.svg), x, series, f"kernel profile (d={d})")
    return 0


def _cmd_kernel_invariant(args) -> int:
    space = space_from_json(_json_arg(args.space))
    spec = spec_from_json(_json_arg(args.spec), d=space.d)
    H = PermSubgroup.from_string(args.blocks, space.n)
    x = graph_from_json(_json_arg(args.x))
    y = graph_from_json(_json_arg(args.y))
    if x.space != space or y.space != space:
        raise ValueError("graphs do not belong to the declared space")
    # a Monte Carlo kernel refuses |S| before drawing
    kernel = _build_model_kernel(spec, space, H, args.samples if args.mode == "mc" else None, args.seed)
    print(float(kernel.gram([x], [y])[0, 0]))
    return 0


# -- table ---------------------------------------------------------------------


def _cmd_table_dump(args) -> int:
    table = build_table(args.d)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j\\m"] + list(range(args.d + 1)))
        for j in range(args.d + 1):
            writer.writerow([j] + [repr(float(v)) for v in table.values[j]])
    _write_manifest(out, args.argv)
    return 0


# -- quotient -------------------------------------------------------------------


def _cmd_quotient_build(args) -> int:
    space = space_from_json(_json_arg(args.space))
    H = PermSubgroup.from_string(args.blocks, space.n)
    quotient = build_quotient(H, space)
    payload = {
        "space": {"kind": space.kind.value, "n": space.n, "d": space.d},
        "blocks": [list(b) for b in H.blocks],
        "group_order": H.order(),
        "num_classes": quotient.num_classes,
        "classes": [
            {"canonical_edges": [list(e) for e in c.canonical.edges()], "size": c.size}
            for c in quotient.classes
        ],
        "weights": quotient.weights.tolist(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        _write_manifest(out, args.argv)
    else:
        sys.stdout.write(text)
    return 0


# -- data -----------------------------------------------------------------------


def _cmd_data_encode(args) -> int:
    layout = datasets.layout_from_json(_json_arg(args.layout))
    mols = datasets.load_molecules(args.infile)
    codes = [datasets.encode(m, layout) for m in mols]
    out = Path(args.out)
    datasets.write_codes(out, codes, [m.target for m in mols], [m.mol_id for m in mols])
    _write_manifest(out, args.argv)
    return 0


def _cmd_data_split(args) -> int:
    codes, _targets, _ids = datasets.read_codes(args.infile)
    train, test = datasets.train_test_split(len(codes), args.ratio, args.seed)
    payload = {
        "seed": args.seed,
        "ratio": args.ratio,
        "size": len(codes),
        "train": train.tolist(),
        "test": test.tolist(),
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _write_manifest(out, args.argv, seeds={"split": args.seed})
    return 0


# -- fit / predict ---------------------------------------------------------------


def _build_model_kernel(spec, space, H: PermSubgroup | None, mc_samples, mc_seed):
    """The isotropic kernel when H is None, else H's projected kernel: Monte Carlo with
    ``mc_samples`` elements drawn from ``mc_seed``, or exact when ``mc_samples`` is None."""
    if H is None:
        return IsotropicKernel(spec, space)
    if mc_samples is not None:
        return ProjectedKernel.monte_carlo(spec, H, space, mc_samples, mc_seed)
    return ProjectedKernel(spec, H, space)


def _cmd_fit(args) -> int:
    codes, targets, _ids = datasets.read_codes(args.dataset)
    if not codes:
        raise ValueError(f"dataset {args.dataset} is empty")
    space = codes[0].space
    spec = spec_from_json(_json_arg(args.kernel), d=space.d)
    H = None if args.projected is None else PermSubgroup.from_string(args.projected, space.n)
    kernel = _build_model_kernel(spec, space, H, args.mc_samples, args.mc_seed)
    noise = args.noise
    if args.optimize:
        result = gp.optimize_hyperparameters(
            kernel, codes, targets, noise=noise, budget=args.budget, normalize_y=args.normalize
        )
        kernel, noise = result.kernel, result.noise
    model = gp.fit(kernel, codes, targets, noise, normalize_y=args.normalize)
    payload = {
        "kernel": spec_to_json(kernel.spec),
        "space": {"kind": space.kind.value, "n": space.n},
        "noise": model.noise,
        "normalize_y": args.normalize,
        "normalization": {"mean": model.y_mean, "std": model.y_std},
        "log_marginal_likelihood": gp.log_marginal_likelihood(model),
        "train": [
            dict(graph_to_json(c), target=float(t)) for c, t in zip(model.train_x, model.train_y)
        ],
    }
    if args.projected is not None:
        payload["projected"] = {
            "blocks": args.projected,
            "mc_samples": args.mc_samples,
            "mc_seed": args.mc_seed,
        }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _write_manifest(out, args.argv, seeds={"mc": args.mc_seed} if args.mc_samples else None)
    return 0


def load_model(path: str | Path) -> gp.GPModel:
    """Rebuild a fitted model from its JSON serialization (refits the factor)."""
    obj = json.loads(Path(path).read_text())
    space = space_from_json(obj["space"])
    spec = spec_from_json(obj["kernel"], d=space.d)
    projected = obj.get("projected") or {}
    H = PermSubgroup.from_string(projected["blocks"], space.n) if projected else None
    kernel = _build_model_kernel(spec, space, H, projected.get("mc_samples"), projected.get("mc_seed") or 0)
    codes = [graph_from_json(entry) for entry in obj["train"]]
    targets = [entry["target"] for entry in obj["train"]]
    return gp.fit(kernel, codes, targets, obj["noise"], normalize_y=obj.get("normalize_y", False))


def _read_graphs(path: str) -> list[GraphCode]:
    """The graphs of a JSONL file, one per nonblank line."""
    with open(path) as fh:
        return [graph_from_json(json.loads(line)) for line in fh if line.strip()]


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    points = _read_graphs(args.points)
    mean, var = gp.predict(model, points)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mean", "variance"])
        for i in range(len(points)):
            writer.writerow([i, repr(float(mean[i])), repr(float(var[i]))])
    _write_manifest(out, args.argv)
    return 0


# -- sample ----------------------------------------------------------------------


def _require_sample_matrix(rows: int, columns: int, name: str) -> None:
    """Refuse a dense float64 sampling matrix of more than ``SAMPLE_MATRIX_CAP`` bytes."""
    size = 8 * rows * columns
    if size > SAMPLE_MATRIX_CAP:
        raise ValueError(
            f"sampling would build a {rows} x {columns} float64 {name} ({size / 2**30:.1f} GiB), above the "
            f"{SAMPLE_MATRIX_CAP // 2**20} MiB cap; pass --points with fewer graphs, lower --level-cap "
            f"in walsh mode, or use --mode phase"
        )


def _cmd_sample(args) -> int:
    space = space_from_json(_json_arg(args.space))
    spec = spec_from_json(_json_arg(args.spec), d=space.d)
    points = _read_graphs(args.points) if args.points else None
    count = len(points) if points is not None else 1 << space.d
    if args.mode == "exact":
        _require_sample_matrix(count, count, "Gram")
        draw = partial(gp.sample_prior_exact, IsotropicKernel(spec, space))
    elif args.mode == "walsh":
        sampler = gp.TruncatedWalshSampler(spec, space, level_cap=args.level_cap)
        _require_sample_matrix(sampler.n_features, count, "Walsh feature matrix")
        draw = sampler.draw
    else:
        draw = gp.RandomPhaseSampler(
            spec, space, num_anchors=args.anchors, seed=named_seed(args.seed, "anchors"),
            level_cap=args.level_cap,
        ).draw
    if points is None:
        points = list(space.all_codes())
    draws = draw(points, args.n, args.seed)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([json.dumps(graph_to_json(p)["edges"]) for p in points])
        for row in draws:
            writer.writerow([repr(float(v)) for v in row])
    _write_manifest(out, args.argv, seeds={"draws": args.seed})
    return 0


# -- experiment --------------------------------------------------------------------

EXPERIMENT_METHODS = (
    "naive",
    "linear",
    "heat_arbitrary",
    "matern_arbitrary",
    "heat_aligned",
    "matern_aligned",
    "heat_projected",
    "matern_projected",
)


def _method_kernel(method: str, config: dict, seq_space, aligned_space, aligned_layout, root_seed):
    nu_base = float(config.get("nu_base_init", 2.5))
    family, encoding = method.split("_", 1)
    space = seq_space if encoding == "arbitrary" else aligned_space
    if space is None:
        raise ValueError(f"method {method!r} needs an aligned layout in the config")
    # under the normalized Laplacian (eigenvalues 2j/d), kappa = sqrt(d) is
    # unit diffusion time; a fixed default like 1.0 would start the search at
    # an almost diagonal kernel for larger spaces
    kappa = float(config.get("kappa_init", math.sqrt(space.d)))
    if family == "heat":
        spec = KernelSpec(Heat(kappa))
    else:
        spec = matern_spec(space.d, nu_base=nu_base, kappa=kappa)
    H = datasets.subgroup_from_layout(aligned_layout) if encoding == "projected" else None
    mc_samples = config.get("mc_samples")
    return _build_model_kernel(
        spec, space, H, None if mc_samples is None else int(mc_samples), named_seed(root_seed, "mc-kernel")
    )


def run_experiment(config: dict) -> dict:
    """Evaluate baselines and GP variants over seeded train/test splits.

    Returns the report dict; see ``_cmd_experiment`` for the file layout.
    """
    mols = datasets.load_molecules(config["dataset"])
    if len(mols) < 4:
        raise ValueError(f"dataset has only {len(mols)} molecules")
    methods = list(config.get("methods", EXPERIMENT_METHODS))
    unknown = [m for m in methods if m not in EXPERIMENT_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {list(EXPERIMENT_METHODS)}")
    root_seed = int(config.get("seed", 0))
    n_splits = int(config.get("n_splits", 10))
    ratio = float(config.get("ratio", 0.8))
    budget = int(config.get("budget", 200))
    noise_init = float(config.get("noise_init", 0.1))
    # the marginal likelihood over (kappa, variance, noise) is multimodal for
    # group-averaged kernels; a few octave-spaced kappa starts, best one wins
    restarts = [float(v) for v in config.get("restart_multipliers", (0.5, 1.0, 2.0))]

    seq_layout = (
        datasets.SequentialLayout(int(config["sequential_n"]))
        if "sequential_n" in config
        else datasets.infer_sequential_layout(mols)
    )
    seq_codes = [datasets.encode(m, seq_layout) for m in mols]
    seq_space = seq_codes[0].space

    aligned_layout = None
    aligned_codes = None
    aligned_space = None
    if "aligned_layout" in config:
        aligned_layout = datasets.layout_from_json(config["aligned_layout"])
        aligned_codes = [datasets.encode(m, aligned_layout) for m in mols]
        aligned_space = aligned_codes[0].space

    targets = np.array([m.target for m in mols])
    splits = []
    for split_idx in range(n_splits):
        split_seed = named_seed(root_seed, f"split-{split_idx}")
        train_idx, test_idx = datasets.train_test_split(len(mols), ratio, split_seed)
        y_train, y_test = targets[train_idx], targets[test_idx]
        entry = {"seed": split_seed, "train_size": len(train_idx), "test_size": len(test_idx), "methods": {}}
        for method in methods:
            if method == "naive":
                pred = np.full(len(test_idx), float(y_train.mean()))
                entry["methods"][method] = {
                    "rmse": datasets.rmse(pred, y_test),
                    "log_lik": None,
                }
                continue
            if method == "linear":
                kernel = LinearKernel()
                codes = seq_codes
                starts = [kernel]
            else:
                kernel = _method_kernel(
                    method, config, seq_space, aligned_space, aligned_layout, root_seed
                )
                codes = seq_codes if method.endswith("arbitrary") else aligned_codes
                base = kernel.spec
                starts = [
                    kernel.with_spec(
                        replace(base, family=replace(base.family, kappa=base.family.kappa * mult))
                    )
                    for mult in restarts
                ]
            x_train = [codes[i] for i in train_idx]
            x_test = [codes[i] for i in test_idx]
            result = None
            for start in starts:
                candidate = gp.optimize_hyperparameters(
                    start, x_train, y_train, noise=noise_init, budget=budget, normalize_y=True
                )
                if result is None or candidate.objective > result.objective:
                    result = candidate
            model = gp.fit(result.kernel, x_train, y_train, result.noise, normalize_y=True)
            mean, var = gp.predict(model, x_test)
            entry["methods"][method] = {
                "rmse": datasets.rmse(mean, y_test),
                "log_lik": datasets.log_likelihood_of_prediction(model, mean, var, y_test),
            }
        splits.append(entry)

    summary = {}
    for method in methods:
        rmses = np.array([s["methods"][method]["rmse"] for s in splits])
        logliks = [s["methods"][method]["log_lik"] for s in splits]
        summary[method] = {
            "rmse_mean": float(rmses.mean()),
            "rmse_std": float(rmses.std()),
            "log_lik_mean": None if logliks[0] is None else float(np.mean(logliks)),
            "log_lik_std": None if logliks[0] is None else float(np.std(logliks)),
        }
    return {
        "config": {k: v for k, v in config.items() if k != "out_dir"},
        "target_std": float(targets.std()),
        "splits": splits,
        "summary": summary,
    }


def _cmd_experiment(args) -> int:
    config = _json_arg(args.config)
    report = run_experiment(config)
    out_dir = Path(config.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "report.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, args.argv, seeds={"root": int(config.get("seed", 0))})
    return 0


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphgp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="kernel evaluation")
    ksub = kernel.add_subparsers(dest="subcommand", required=True)
    k_eval = ksub.add_parser("eval", help="kernel value at one Hamming distance")
    k_eval.add_argument("--spec", required=True)
    k_eval.add_argument("--d", type=int, required=True)
    k_eval.add_argument("--m", type=int, required=True)
    k_eval.set_defaults(func=_cmd_kernel_eval)
    k_prof = ksub.add_parser("profile", help="kernel and per-level components vs distance")
    k_prof.add_argument("--spec", required=True)
    k_prof.add_argument("--d", type=int, required=True)
    k_prof.add_argument("--out", required=True)
    k_prof.add_argument("--svg")
    k_prof.set_defaults(func=_cmd_kernel_profile)
    k_inv = ksub.add_parser("invariant", help="group-averaged kernel between two graphs")
    k_inv.add_argument("--space", required=True)
    k_inv.add_argument("--blocks", required=True)
    k_inv.add_argument("--spec", required=True)
    k_inv.add_argument("--x", required=True)
    k_inv.add_argument("--y", required=True)
    k_inv.add_argument("--mode", choices=["exact", "mc"], default="exact")
    k_inv.add_argument("--samples", type=int, default=16)
    k_inv.add_argument("--seed", type=int, default=0)
    k_inv.set_defaults(func=_cmd_kernel_invariant)

    table = sub.add_parser("table", help="level-sum tables")
    tsub = table.add_subparsers(dest="subcommand", required=True)
    t_dump = tsub.add_parser("dump", help="dump the normalized table as CSV")
    t_dump.add_argument("--d", type=int, required=True)
    t_dump.add_argument("--out", required=True)
    t_dump.set_defaults(func=_cmd_table_dump)

    quotient = sub.add_parser("quotient", help="quotient graphs")
    qsub = quotient.add_subparsers(dest="subcommand", required=True)
    q_build = qsub.add_parser("build", help="enumerate orbits and inter-class weights")
    q_build.add_argument("--space", required=True)
    q_build.add_argument("--blocks", required=True)
    q_build.add_argument("--out")
    q_build.set_defaults(func=_cmd_quotient_build)

    data = sub.add_parser("data", help="dataset tools")
    dsub = data.add_subparsers(dest="subcommand", required=True)
    d_enc = dsub.add_parser("encode", help="encode molecules into graph codes")
    d_enc.add_argument("--layout", required=True)
    d_enc.add_argument("--in", dest="infile", required=True)
    d_enc.add_argument("--out", required=True)
    d_enc.set_defaults(func=_cmd_data_encode)
    d_split = dsub.add_parser("split", help="seeded train/test index split")
    d_split.add_argument("--in", dest="infile", required=True)
    d_split.add_argument("--ratio", type=float, default=0.8)
    d_split.add_argument("--seed", type=int, required=True)
    d_split.add_argument("--out", required=True)
    d_split.set_defaults(func=_cmd_data_split)

    fit = sub.add_parser("fit", help="fit a GP to an encoded dataset")
    fit.add_argument("--dataset", required=True)
    fit.add_argument("--kernel", required=True)
    fit.add_argument("--noise", type=float, default=0.1)
    fit.add_argument("--optimize", action="store_true")
    fit.add_argument("--budget", type=int, default=200)
    fit.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    fit.add_argument("--projected", help='subgroup blocks like "0,1,2|3" for a projected kernel')
    fit.add_argument("--mc-samples", type=int)
    fit.add_argument("--mc-seed", type=int, default=0)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="posterior mean/variance at new graphs")
    predict.add_argument("--model", required=True)
    predict.add_argument("--points", required=True)
    predict.add_argument("--out", required=True)
    predict.set_defaults(func=_cmd_predict)

    sample = sub.add_parser("sample", help="draw prior samples")
    sample.add_argument("--space", required=True)
    sample.add_argument("--spec", required=True)
    sample.add_argument("--mode", choices=["exact", "walsh", "phase"], default="exact")
    sample.add_argument("--points", help="JSONL of graphs; defaults to the whole space")
    sample.add_argument("--n", type=int, default=1)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--level-cap", type=int, default=None)
    sample.add_argument("--anchors", type=int, default=16)
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=_cmd_sample)

    experiment = sub.add_parser("experiment", help="multi-split benchmark over encodings")
    experiment.add_argument("--config", required=True)
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = list(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
