"""Spans around the public functions of the five fockqkd modules, recorded
from the benchmark's side without editing the package.

The modules bind each other's functions at import (``from fockqkd.fock
import rotate_modes``), so a function is wrapped by rebinding the name in
every fockqkd module namespace that holds it, not only where it is defined.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

import fockqkd  # noqa: F401  (loads every fockqkd module into sys.modules)

# module -> public functions that get a span.  eve_conclusive_rate and
# multiphoton_stats are not reported on their own; their spans keep their
# work out of the callers' self time (cli.main self time is then parsing,
# glue and formatting).
TRACED = {
    "fock": ("rotate_modes", "project_counts", "inner_product"),
    "sources": ("alice_measure", "pdc_modified_singlet", "signal_states"),
    "discrimination": ("gram", "usd_povm_equal"),
    "attack": (
        "bob_photon_distribution",
        "signal_ensemble",
        "eve_conclusive_rate",
        "multiphoton_stats",
        "critical_transmission",
        "run_protocol_monte_carlo",
    ),
    "cli": ("main",),
}


class Tracer:
    """Records (name, start, end, parent, op) spans in memory.

    Single-threaded: a stack of open spans gives each new span its parent.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, info]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        bind = inspect.signature(fn).bind
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0, 0, parent, tracer.op, None]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            if name == "sources.alice_measure":
                a = bind(*args, **kwargs).arguments
                span[5] = (a["params"], a["basis"])
            elif name == "attack.run_protocol_monte_carlo":
                span[5] = bind(*args, **kwargs).arguments["config"].n_pulses
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "discrimination.usd_povm_equal":
                    span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if name == "discrimination.usd_povm_equal":
                span[5] = "ok"
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"fockqkd.{mod_name}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fockqkd" and not mod_name.startswith("fockqkd."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}))
                fh.write("\n")

    def per_op(self, scales: dict[int, float]) -> dict[int, dict[str, dict]]:
        """op -> name -> {calls, total_ns, self_ns, infos}, times multiplied
        by the op's factor in ``scales``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest and one thread runs, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        ops: dict[int, dict[str, dict]] = {}
        for sid, (name, start, end, parent, op, info) in enumerate(self.spans):
            rec = ops.setdefault(op, {}).setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0, "infos": []})
            scale = scales[op]
            rec["calls"] += 1
            rec["self_ns"] += (end - start - child_ns[sid]) * scale
            if parent < 0 or self.spans[parent][0] != name:
                rec["total_ns"] += (end - start) * scale
            rec["infos"].append(info)
        return ops


def _median_over_calling_ops(ops, name, value) -> float:
    """Median over the ops that call ``name`` at least once; 0 if none do."""
    vals = [value(recs[name]) for recs in ops.values() if name in recs]
    return float(statistics.median(vals)) if vals else 0.0


def _ratio(ops, name, hit) -> float:
    """Pooled ratio over the traced ops; 0 when ``name`` is never called."""
    num = den = 0
    for recs in ops.values():
        if name in recs:
            num += hit(recs[name])
            den += recs[name]["calls"]
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scales: dict[int, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each the median per op over the ops that reach
    the layer (ratios are pooled over the traced ops).  Each op's times are
    multiplied by its host-speed factor in ``scales``."""
    ops = tracer.per_op(scales)
    calls = lambda r: r["calls"]
    self_ms = lambda r: r["self_ns"] / 1e6
    total_ms = lambda r: r["total_ns"] / 1e6

    def med(name, fn):
        return _median_over_calling_ops(ops, name, fn)

    def ns_per_pulse(r):
        return r["self_ns"] / sum(r["infos"])

    return {
        "fock.rotate_modes.calls": (med("fock.rotate_modes", calls), "count"),
        "fock.rotate_modes.self_ms": (med("fock.rotate_modes", self_ms), "ms"),
        "fock.project_counts.calls": (med("fock.project_counts", calls), "count"),
        "fock.project_counts.self_ms": (med("fock.project_counts", self_ms), "ms"),
        "fock.inner_product.calls": (med("fock.inner_product", calls), "count"),
        "sources.alice_measure.calls": (med("sources.alice_measure", calls), "count"),
        "sources.alice_measure.total_ms": (med("sources.alice_measure", total_ms), "ms"),
        "sources.alice_measure.distinct_ratio": (
            _ratio(ops, "sources.alice_measure", lambda r: len(set(r["infos"]))),
            "ratio"),
        "sources.pdc_modified_singlet.calls": (
            med("sources.pdc_modified_singlet", calls), "count"),
        "sources.signal_states.calls": (med("sources.signal_states", calls), "count"),
        "sources.signal_states.total_ms": (med("sources.signal_states", total_ms), "ms"),
        "discrimination.gram.calls": (med("discrimination.gram", calls), "count"),
        "discrimination.gram.self_ms": (med("discrimination.gram", self_ms), "ms"),
        "discrimination.usd_povm_equal.calls": (
            med("discrimination.usd_povm_equal", calls), "count"),
        "discrimination.usd_povm_equal.total_ms": (
            med("discrimination.usd_povm_equal", total_ms), "ms"),
        "discrimination.usd_povm_equal.useful_ratio": (
            _ratio(ops, "discrimination.usd_povm_equal",
                   lambda r: r["infos"].count("ok")), "ratio"),
        "attack.critical_transmission.total_ms": (
            med("attack.critical_transmission", total_ms), "ms"),
        "attack.signal_ensemble.calls": (med("attack.signal_ensemble", calls), "count"),
        "attack.bob_photon_distribution.calls": (
            med("attack.bob_photon_distribution", calls), "count"),
        "attack.run_protocol_monte_carlo.self_ms": (
            med("attack.run_protocol_monte_carlo", self_ms), "ms"),
        "attack.mc.ns_per_pulse": (
            med("attack.run_protocol_monte_carlo", ns_per_pulse), "ns"),
        "cli.main.self_ms": (med("cli.main", self_ms), "ms"),
    }
