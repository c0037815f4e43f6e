"""Run every input of a benchmark workload seed through the workload's own
``run`` and ``check``.

The benchmark (``bench/run.py``) times a cycle of a workload's inputs and
stops after a fixed time.  This scan runs each of the ``n_inputs +
n_warmup`` inputs once, in index order, in one process, with no timing:

    python3 tests/scan_workloads.py --workload threshold --seed 1
    python3 tests/scan_workloads.py --workload all --seed 1,2,3

It prints each failed check, then one line per workload and seed: the op
count, the failure count and a sha256 over every op's ``output_bytes`` in
index order, each prefixed by its length.  Two trees that print the same
line gave the same output bytes op by op.  The exit code is 1 if any check
failed.  The name does not match ``test_*.py``, so pytest does not collect
it; it reads ``bench/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as the benchmark runs


def scan(workload) -> tuple[int, int, str]:
    """(ops, failed checks, output digest) of every input of ``workload``."""
    digest, failed = hashlib.sha256(), 0
    total = workload.n_inputs + workload.n_warmup
    for i in range(total):
        op = workload.op(i)
        try:
            output = workload.run(op)
            problem = workload.check(op, output)
        except Exception as exc:  # a raising op is a failure, as in the benchmark
            output, problem = None, f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            print(f"{workload.name} seed {workload.seed} op {i}: {problem}", flush=True)
        data = b"" if output is None else workload.output_bytes(output)
        digest.update(len(data).to_bytes(8, "little") + data)
    return total, failed, digest.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name of bench/workloads.py, or all")
    p.add_argument("--seed", required=True, help="one seed or a comma-separated list")
    args = p.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    any_failed = False
    for seed in (int(s) for s in args.seed.split(",")):
        for name in names:
            ops, failed, hexdigest = scan(workloads.WORKLOADS[name](seed))
            print(f"{name} seed {seed}: {ops} ops, {failed} failed, "
                  f"output sha256 {hexdigest}", flush=True)
            any_failed |= failed > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
