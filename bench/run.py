"""fockqkd benchmark: Monte Carlo pulse throughput, threshold-sweep latency,
and a per-module traced breakdown.

Run from the repository root:

    python3 bench/run.py --workload mc-honest --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process drives the library in a closed loop: the next op starts only
after the previous one has returned and been checked.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here, before numpy is imported

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

# One BLAS/OpenMP thread: the benchmark process runs no extra threads.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("mc-honest", "mc-attacked", "mc-short", "threshold")
SETUP_PROBES = 7  # set-ups in fresh processes; setup_s is their median
# Reference-kernel times on the reference host (ReferenceKernel): the dict
# and linear-algebra part, and the array-streaming part.
CAL_REF_MS = 2.4
STREAM_REF_MS = 4.3
CAL_PERIOD_S = 0.25  # reference-kernel sampling period in the timed loop
DIGEST_OPS = 3  # leading timed ops whose output bytes enter the digest


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    """Import fockqkd from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fockqkd", "__init__.py")):
        sys.exit(f"error: no fockqkd package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import fockqkd

    if not os.path.abspath(fockqkd.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported fockqkd from {fockqkd.__file__}, not {SRC}")
    import workloads

    return workloads


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ[v] for v in THREAD_ENV},
        "threads_live": len(os.listdir("/proc/self/task"))
        if os.path.isdir("/proc/self/task") else None,
    }


class ReferenceKernel:
    """Fixed work that uses no fockqkd code, timed to follow the host's speed.

    The host is a shared VM whose speed drifts by up to 2x within seconds.
    Every op's latency is multiplied by the kernel's reference time over its
    latest time, giving time on a reference host on which the kernel takes
    its reference time.  A change to fockqkd cannot move the kernel.  The
    kernel resembles the work it scales: tuple-keyed dict updates and math as in
    the Fock algebra, then small dense linear algebra as in the Gram and
    POVM analysis; with ``stream`` also passes over 8 MB arrays, as in the
    pulse loop of the long Monte Carlo runs.
    """

    def __init__(self, stream: bool):
        import numpy as np

        self.np = np
        self.g = np.eye(4) + np.arange(16.0).reshape(4, 4) / 160
        self.g = self.g + self.g.T
        self.a = np.linspace(0.0, 1.0, 1 << 20) if stream else None
        self.b = np.empty_like(self.a) if stream else None
        self.ref_ms = CAL_REF_MS + (STREAM_REF_MS if stream else 0.0)

    def _work(self) -> float:
        np = self.np
        acc: dict = {}
        for n in range(200):
            for k in range(8):
                key = (n % 7, k, n % 3, k % 2)
                acc[key] = acc.get(key, 0.0) + math.comb(k + 3, 2) * math.sqrt(n + 1.0) * 0.5**k
        total = float(len(acc))
        for _ in range(40):
            total += float(np.linalg.eigvalsh(self.g)[0])
            total += float(np.linalg.svd(self.g[:3], compute_uv=False)[0])
        if self.a is not None:
            for _ in range(3):
                np.multiply(self.a, 1.0001, out=self.b)
                np.add(self.b, self.a, out=self.b)
            total += float(self.b[-1])
        return total

    def ms(self) -> float:
        """Median of 3 timings, garbage collection off so that the kernel's
        cost does not depend on the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t_a = time.perf_counter()
                self._work()
                times.append(time.perf_counter() - t_a)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times) * 1e3

    def scale(self) -> float:
        """Factor from time measured now to reference-host time."""
        return self.ref_ms / self.ms()


def setup_seconds(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes run one after another.

    These stay wall-clock: scaling them by the reference kernel, sampled
    here around each probe, widened their spread instead of narrowing it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def _run_op(wl, op):
    """Run one op; returns (output, error message or None)."""
    try:
        output = wl.run(op)
    except Exception as exc:  # a raising op counts as failed; the loop goes on
        return None, f"{type(exc).__name__}: {exc}"
    return output, None


def _checked(wl, op, output, error):
    if error is not None:
        return error
    try:
        return wl.check(op, output)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def measure(wl, seconds: float, kernel: ReferenceKernel) -> dict:
    """Untimed warm-up ops, then a closed loop over fresh inputs for
    ``seconds`` of wall time.  Each op is timed alone.  Its output check,
    and a reference-kernel sample every CAL_PERIOD_S, run between ops,
    outside the timing.
    """
    failures = []
    for op in wl.warmup_ops():
        problem = _checked(wl, op, *_run_op(wl, op))
        if problem:
            failures.append(f"warm-up op {op.index}: {problem}")
    latencies, scales, pulses = [], [], 0
    digest = hashlib.sha256()
    clock = time.perf_counter
    start = clock()
    sampled_at = start - CAL_PERIOD_S
    i = 0
    while clock() - start < seconds:
        if clock() - sampled_at >= CAL_PERIOD_S:
            scale, sampled_at = kernel.scale(), clock()
        scales.append(scale)
        op = wl.timed_op(i)
        t_a = clock()
        output, error = _run_op(wl, op)
        t_b = clock()
        latencies.append(t_b - t_a)
        pulses += op.n_pulses
        problem = _checked(wl, op, output, error)
        if problem:
            failures.append(f"op {i}: {problem}")
        if i < DIGEST_OPS and output is not None:
            digest.update(wl.output_bytes(output))
        i += 1
    return {
        "latencies": latencies,
        "scales": scales,
        "failures": failures,
        "pulses": pulses,
        "output_digest": digest.hexdigest(),
    }


def _timing(latencies_s, pulses: int) -> dict:
    lat_ms = [x * 1e3 for x in latencies_s]
    busy = sum(latencies_s)
    out = {
        "ops_per_s": len(lat_ms) / busy,
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": _percentile(lat_ms, 90),
    }
    if pulses:
        out["pulses_per_s"] = pulses / busy
    return out


def run_timed(args, wl) -> tuple[dict, dict, list[str]]:
    setup = setup_seconds(args)
    res = measure(wl, args.seconds, ReferenceKernel(stream=wl.streams_memory))
    n = len(res["latencies"])
    attempted = n + wl.n_warmup
    ref_lat = [x * s for x, s in zip(res["latencies"], res["scales"])]
    ref = _timing(ref_lat, res["pulses"])
    raw = _timing(res["latencies"], res["pulses"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ref["ops_per_s"], "1/s"),
        "op_ms.p50": (ref["op_ms.p50"], "ms"),
        "op_ms.p90": (ref["op_ms.p90"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "attempted": attempted,
        "failed": len(res["failures"]),
        "failed_fraction": len(res["failures"]) / attempted,
        "ops": n,
        "beyond_p90": sum(1 for x in ref_lat if x * 1e3 > ref["op_ms.p90"]),
        "host_scale_median": statistics.median(res["scales"]),
        "raw": raw,
        "setup_samples_s": setup,
        "input_digest": wl.input_digest(),
        "output_digest": res["output_digest"],
    }
    if "pulses_per_s" in ref:
        detail["pulses_per_s"] = ref["pulses_per_s"]
    return metrics, detail, res["failures"]


def run_traced(args, wl) -> tuple[dict, dict, list[str]]:
    """One untraced and one traced pass over the same first ``trace_ops``
    ops (warm), so call counts repeat exactly and the two passes give the
    tracing overhead.  Times are scaled to the reference host like the timed
    run's."""
    import tracing

    from fockqkd import attack

    ops = [wl.timed_op(i) for i in range(wl.trace_ops)]
    kernel = ReferenceKernel(stream=wl.streams_memory)
    for op in wl.warmup_ops():
        _run_op(wl, op)  # its outputs are checked in the timed runs

    def one_pass(tracer=None):
        outputs, busy, scales = [], 0.0, {}
        for op in ops:
            scales[op.index] = kernel.scale()
            if tracer is not None:
                tracer.op = op.index
            t_a = time.perf_counter()
            output, error = _run_op(wl, op)
            busy += (time.perf_counter() - t_a) * scales[op.index]
            outputs.append((output, error))
        return outputs, busy, scales

    _, untraced_busy, _ = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs, traced_busy, traced_scales = one_pass(tracer)
    finally:
        tracer.uninstall()
    failures = [f"op {op.index}: {p}" for op, (out, err) in zip(ops, outputs)
                if (p := _checked(wl, op, out, err))]

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.jsonl")
    tracer.write(span_file)

    # Per-run Monte Carlo set-up: an n_pulses=1 call on each op's config,
    # timed from outside with tracing off.
    setup_ms = []
    for op in ops:
        setting = wl.mc_setting(op)
        if setting is not None:
            config, strategy = setting
            one = type(config)(config.source, config.channel, 1, config.seed,
                               config.bob_detector_efficiency)
            scale = kernel.scale()
            t_a = time.perf_counter()
            attack.run_protocol_monte_carlo(one, strategy)
            setup_ms.append((time.perf_counter() - t_a) * 1e3 * scale)
    metrics = tracing.layer_metrics(tracer, traced_scales)
    metrics["attack.mc.setup_ms"] = (
        statistics.median(setup_ms) if setup_ms else 0.0, "ms")
    metrics["attack.mc.draw_bytes_per_pulse"] = (
        8 * attack.DRAWS_PER_PULSE if wl.monte_carlo else 0, "B")
    n = len(ops)
    metrics["trace.untraced_ops_per_s"] = (n / untraced_busy, "1/s")
    metrics["trace.ops_per_s"] = (n / traced_busy, "1/s")
    metrics["trace.slowdown"] = (traced_busy / untraced_busy, "ratio")
    detail = {
        "attempted": n,
        "failed": len(failures),
        "failed_fraction": len(failures) / n,
        "ops": n,
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(span_file, ROOT),
    }
    return metrics, detail, failures


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    wl_mod = _import_package()
    wl = wl_mod.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter() - T0))
        return 0
    if args.trace:
        metrics, detail, failures = run_traced(args, wl)
    else:
        metrics, detail, failures = run_timed(args, wl)
    detail["machine"] = machine_record()
    detail["why"] = wl.why

    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, one caller")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {_fmt(value):>14s} {unit}")
    if "pulses_per_s" in detail:
        print(f"{'pulses_per_s':44s} {_fmt(detail['pulses_per_s']):>14s} 1/s")
    print(f"{'failed_fraction':44s} {_fmt(detail['failed_fraction']):>14s} "
          f"({detail['failed']} of {detail['attempted']} ops)")
    if not args.trace:
        print(f"# times at reference-host speed (median host scale "
              f"{detail['host_scale_median']:.4g}); raw wall-clock: "
              + "  ".join(f"{k} {_fmt(v)}" for k, v in detail["raw"].items()))
        print(f"# op_ms over {detail['ops']} ops; {detail['beyond_p90']} beyond p90")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process (peak_rss_mb is per process), then
    one table of every metric."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
        row = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if "pulses_per_s" in detail:
            row["pulses_per_s"] = (detail["pulses_per_s"], "1/s")
        row["failed_fraction"] = (detail["failed_fraction"], "")
        rows.append((name, row))
    print("\n# summary  seed %d  seconds %g  trace %d" % (args.seed, args.seconds, args.trace))
    for name, row in rows:
        for metric, (value, unit) in row.items():
            print(f"{name:12s} {metric:44s} {_fmt(value):>14s} {unit}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
