"""graphgp benchmark: one workload, one run, one JSON line.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload tune_exact --seed 0 --seconds 36 --trace 0

Workloads: ``tune_exact``, ``tune_mc``, ``fit_predict_cli`` (see
``bench/README.md``). Each run gets its own process tree, graphgp from the
checkout's ``src``, and one BLAS thread. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs set-up plus one round under the
per-layer wrappers and reports the per-layer metrics. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Per-run files go to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tune_exact", "tune_mc", "fit_predict_cli")
#: Set-ups per untraced run (set-up-only processes plus the measuring one); setup_s is their median.
SETUP_REPEATS = 3
#: Every process of a run must have ended by then (seconds after start).
DEADLINE_S = 170.0


def _worker(args, out: Path, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker process to its end; return (start time, its JSON record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker passed the {DEADLINE_S:.0f} s deadline") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return start, json.loads((out / ("setup.json" if setup_only else "result.json")).read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "graphgp" / "__init__.py").is_file():
        print(f"error: no graphgp sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    runs = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )

    try:
        setups = []
        for k in range(0 if args.trace else SETUP_REPEATS - 1):
            start, record = _worker(args, runs / f"setup-{k}", env, deadline, setup_only=True)
            setups.append(record["ready"] - start)
        start, result = _worker(args, runs / "run", env, deadline, setup_only=False)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["ready"] - start)
    print("set-up times (s): " + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
    print("round times (s): " + " ".join(f"{s:.4f}" for s in result["round_s"]), file=sys.stderr)

    for failure in result.get("failures", []):
        print(f"check failed: {failure}", file=sys.stderr)
    if result["error"]:
        print(f"operation failed: {result['error']}", file=sys.stderr)
    correct = bool(result["round_s"]) and not result.get("failures")
    if args.trace:
        metrics = result.get("layers", {})
    elif result["round_s"]:
        q = result["quality"]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "models_per_s": (result["models_per_round"] * len(result["round_s"]) / sum(result["round_s"]), "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "heldout_rmse": (q["heldout_rmse"], "target"),
            "heldout_density": (q["heldout_density"], "density"),
            "evidence_per_point": (q["evidence_per_point"], "density"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
