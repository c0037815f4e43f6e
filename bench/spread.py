"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload all --seeds 1-10 [--seconds 20]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for each metric the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median.  The table is also written, with every run's values,
to ``.bench_out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("mc-honest", "mc-attacked", "mc-short", "threshold")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    table = {}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(done.stdout[-3000:], file=sys.stderr)
                return 1
            runs.append({k: m["value"] for k, m in result["metrics"].items()})
        summary = {}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[metric] = {"median": med, "iqr_share": (q3 - q1) / med,
                               "values": values}
            print(f"{name:12s} {metric:12s} median {med:12.6g}  "
                  f"IQR/median {(q3 - q1) / med:.4f}", flush=True)
        table[name] = summary
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "spread.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "seeds": args.seeds,
                   "workloads": table}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
