"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/spread.py --seeds 0-9

Runs ``bench/run.py`` once per seed and workload, one run after another
with the workloads interleaved, so that each sees the same stretch of host
load. The run length is BENCHMARK.json's ``run_seconds``. Prints each
run's result line and the runs' standard error on standard error, then per
workload and metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the interquartile range as a share of
the median, plus the failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]

    results = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            results[workload].append(json.loads(line))
            print(f"seed {seed} {workload}: {line}", file=sys.stderr, flush=True)

    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:20s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  iqr/median {spread:7.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
