"""Self-checks of the benchmark harness itself.

    python3 bench/selfcheck.py [--seed 1] [--seconds 3]

For every workload:

* determinism: two untraced runs with one seed see identical op inputs and
  identical outputs (SimReport counts, CSV and JSON bytes) on their leading
  ops; a run with the next seed sees different inputs;
* exact counts: two traced runs with one seed give identical call counts
  per op and identical distinct/useful ratios.

Then it prints the call counts of one traced pair-source threshold row
(chi 0.1, eta_A 0.8, one eta_B), the per-row baseline the per-layer
numbers are read against.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("mc-honest", "mc-attacked", "mc-short", "threshold")
EXACT_UNITS = ("count", "ratio", "B")
TIMING_RATIOS = ("trace.slowdown",)


def _run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
    return json.loads(lines[-1]), detail


def check_workload(workload: str, seed: int, seconds: float) -> list[str]:
    problems = []
    (_, a), (_, b) = (_run(workload, seed, seconds, 0) for _ in range(2))
    _, other = _run(workload, seed + 1, seconds, 0)
    if a["input_digest"] != b["input_digest"]:
        problems.append("same seed, different inputs")
    if a["output_digest"] != b["output_digest"]:
        problems.append("same seed, different outputs on the leading ops")
    if a["input_digest"] == other["input_digest"]:
        problems.append("different seeds, identical inputs")
    (ta, _), (tb, _) = (_run(workload, seed, seconds, 1) for _ in range(2))
    for name, m in ta["metrics"].items():
        if m["unit"] in EXACT_UNITS and name not in TIMING_RATIOS:
            if m["value"] != tb["metrics"][name]["value"]:
                problems.append(f"{name}: {m['value']} then "
                                f"{tb['metrics'][name]['value']}")
    return problems


def pdc_row_counts() -> dict[str, int]:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc, _, err = workloads._run_cli(
            ["threshold", "--source", "pdc", "--chi", "0.1",
             "--eta-alice", "0.8", "--eta-bob", "1.0"])
    finally:
        tracer.uninstall()
    if rc != 0:
        raise RuntimeError(f"pair-source threshold row failed: {err}")
    counts: dict[str, int] = {}
    for span in tracer.spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return dict(sorted(counts.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=3.0)
    args = p.parse_args(argv)
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(workload, args.seed, args.seconds)
        print(f"{workload:12s} {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print(f"    {line}")
        failed = failed or bool(problems)
    print("calls in one pair-source threshold row (chi 0.1, eta_A 0.8):")
    for name, n in pdc_row_counts().items():
        print(f"    {name:40s} {n}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
