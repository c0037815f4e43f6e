"""Command-line front end.

Four subcommands cover the library's surface:

* ``states``    — dump the signal-state catalog, Gram matrix and rank;
* ``usd``       — the unambiguous-discrimination measurement report;
* ``threshold`` — loss-threshold sweep over parameter grids (CSV/JSONL);
* ``simulate``  — a Monte Carlo protocol run serialized as JSON.

All subcommands accept ``--config FILE`` pointing at a single JSON
object; explicitly passed flags override config fields.  Exit codes:
0 success, 1 computational failure, 2 usage or config error.  Sweep rows
are emitted in grid order; all output is byte-deterministic for
identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Any, Sequence

import numpy as np

from fockqkd.attack import (
    ATTACK_CONCLUSIVE,
    ATTACK_NONE,
    AttackStrategy,
    ChannelModel,
    ProtocolConfig,
    SourceModel,
    analyze,
    critical_transmission,
    eve_conclusive_rate,
    multiphoton_stats,
    run_protocol_monte_carlo,
    signal_ensemble,
)
from fockqkd.discrimination import (
    ConsistencyError,
    NotDiscriminable,
    StateEnsemble,
    gram,
    numerical_rank,
    reciprocal_states,
    usd_povm_equal,
)
from fockqkd.fock import FockError, FockVector
from fockqkd.sources import BASES, ParameterError, SourceParams

THRESHOLD_COLUMNS = (
    "source",
    "amplitude",
    "order",
    "eta_alice",
    "eta_bob",
    "p1",
    "p_multi_cond",
    "conclusive_rate",
    "t_star",
    "fatal_loss_percent",
    "fatal_loss_db",
)

_DEFAULTS: dict[str, Any] = {
    "source": "wcp",
    "alpha": 0.3,
    "chi": 0.1,
    "order": 2,
    "eta_alice": 1.0,
    "eta_bob": 1.0,
    "transmission": 1.0,
    "loss_db": None,
    "pulses": 100_000,
    "seed": 1,
    "attack": ATTACK_NONE,
    "format": "csv",
    "out": None,
    "toy": False,
}


# Rules shared by each flag and the config field of the same name.
_CHOICES: dict[str, tuple] = {
    "source": ("wcp", "pdc"),
    "order": (1, 2),
    "format": ("csv", "jsonl"),
    "attack": (ATTACK_NONE, ATTACK_CONCLUSIVE),
}
_INTEGERS = ("order", "pulses", "seed")
# Fields read as a number or a grid of numbers; JSON true/false are not
# numbers here, although Python's float() would take them as 1 and 0.
_NUMBERS = ("alpha", "chi", "eta_alice", "eta_bob", "transmission", "loss_db")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


# ------------------------------------------------------------ parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockqkd",
        description="Signal-state catalogs, unambiguous discrimination, "
        "loss thresholds, and Monte Carlo protocol runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--source", choices=_CHOICES["source"])
        p.add_argument(
            "--alpha", help="weak-pulse amplitude(s), comma-separated for sweeps"
        )
        p.add_argument(
            "--chi", help="pair-source coupling(s), comma-separated for sweeps"
        )
        p.add_argument("--order", type=int, choices=_CHOICES["order"])
        p.add_argument("--eta-alice", dest="eta_alice", help="sender detector efficiency")
        p.add_argument("--eta-bob", dest="eta_bob", help="receiver detector efficiency")
        loss = p.add_mutually_exclusive_group()
        loss.add_argument("--transmission", help="channel transmission in [0, 1]")
        loss.add_argument("--loss-db", dest="loss_db", help="channel loss in dB")
        p.add_argument("--pulses", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=_CHOICES["format"])

    for name, doc in (
        ("states", "dump the four signal states, Gram matrix, and rank"),
        ("usd", "report the unambiguous-discrimination measurement"),
        ("threshold", "sweep loss thresholds over parameter grids"),
        ("simulate", "run the Monte Carlo protocol and emit a JSON report"),
    ):
        p = sub.add_parser(name, help=doc)
        add_shared(p)
        if name == "usd":
            p.add_argument(
                "--toy",
                action="store_true",
                default=None,
                help="use the built-in two-state ensemble with overlap 1/sqrt(2)",
            )
        if name == "simulate":
            p.add_argument("--attack", choices=_CHOICES["attack"])
    return parser


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must contain a single JSON object")
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise UsageError(f"unknown config fields: {', '.join(unknown)}")
    for key, value in data.items():
        if key in _INTEGERS:
            try:  # the conversion the flag applies to its text
                value = data[key] = int(str(value))
            except ValueError:
                raise UsageError(f"config field {key}: {value!r} is not an integer") from None
        if key in _CHOICES and value not in _CHOICES[key]:
            raise UsageError(f"config field {key}: {value!r} is not one of {_CHOICES[key]}")
        items = value if isinstance(value, list) else [value]
        if key in _NUMBERS and any(isinstance(x, bool) for x in items):
            raise UsageError(f"config field {key}: {value!r} is not a number")
        if key == "out" and not isinstance(value, str):
            raise UsageError(f"config field out: {value!r} is not a string")
        if key == "toy" and not isinstance(value, bool):
            raise UsageError(f"config field toy: {value!r} is not true or false")
    if "transmission" in data and "loss_db" in data:
        raise UsageError("config fields transmission and loss_db exclude each other")
    return data


def _resolve_settings(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overlaid by the config file, overlaid by explicit flags.

    Channel loss is one setting given as either ``transmission`` or
    ``loss_db``, so an explicit flag for one replaces a config value of
    the other.  ``config_fields`` holds the keys the config file set.
    """
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    settings = {**_DEFAULTS, **config}
    if getattr(args, "transmission", None) is not None:
        settings["loss_db"] = None
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings["config_fields"] = {k for k in config if getattr(args, k, None) is None}
    if settings["loss_db"] is not None:
        settings["transmission"] = ChannelModel.from_loss_db(
            _parse_scalar(settings, "loss_db")
        ).transmission
    return settings


def _setting_name(settings: dict[str, Any], key: str) -> str:
    """The config field or the flag that setting ``key`` came from."""
    in_config = key in settings["config_fields"]
    return f"config field {key}" if in_config else "--" + key.replace("_", "-")


def _parse_grid(settings: dict[str, Any], key: str, single: bool = False) -> list[float]:
    """The numbers in setting ``key``; with ``single``, exactly one."""
    value = settings[key]
    name = _setting_name(settings, key)
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [s for s in str(value).split(",") if s.strip()]
    try:
        grid = [float(x) for x in items]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{name}: expected numbers, got {value!r}") from exc
    if not grid:
        raise UsageError(f"{name}: empty grid")
    if single and len(grid) != 1:
        raise UsageError(f"{name}: expected a single value, got {len(grid)}")
    return grid


def _parse_scalar(settings: dict[str, Any], key: str) -> float:
    return _parse_grid(settings, key, single=True)[0]


def _source_from_settings(settings: dict[str, Any]) -> SourceParams:
    kind = settings["source"]
    amplitude = _parse_scalar(settings, "alpha" if kind == "wcp" else "chi")
    try:
        return SourceParams(
            kind=kind,
            amplitude=amplitude,
            expansion_order=settings["order"],
            alice_detector_efficiency=_parse_scalar(settings, "eta_alice"),
        )
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _format_number(x: float) -> str:
    return f"{x:.12g}"


# --------------------------------------------------------- subcommands


def _cmd_states(settings: dict[str, Any], stream) -> int:
    """One block per state of the analysed ensemble, then its Gram matrix."""
    model = analyze(_source_from_settings(settings))
    states = model.ensemble.states
    for label, p, state in zip(model.labels, model.emission_probability, states):
        print(f"# state {BASES[label >> 1]}{label & 1}", file=stream)
        print(f"# emission_probability {_format_number(p)}", file=stream)
        for line in state.dump_lines():
            print(line, file=stream)
    g = gram(model.ensemble)
    print("# gram matrix (real part; max |imag| %.3g)" % np.abs(g.imag).max(),
          file=stream)
    for row in g.real:
        print("  ".join(_format_number(x) for x in row), file=stream)
    print(f"# numerical rank: {numerical_rank(g)}", file=stream)
    return 0


def _toy_ensemble() -> StateEnsemble:
    s = 1.0 / math.sqrt(2.0)
    a = FockVector.from_terms(1, {(0,): 1.0})
    b = FockVector.from_terms(1, {(0,): s, (1,): s})
    return StateEnsemble([a, b])


def _cmd_usd(settings: dict[str, Any], stream) -> int:
    if settings.get("toy"):
        ensemble = _toy_ensemble()
    else:
        ensemble = signal_ensemble(_source_from_settings(settings))
    try:
        povm = usd_povm_equal(ensemble)
    except NotDiscriminable:
        rank = numerical_rank(gram(ensemble))
        print(f"not discriminable (rank {rank})", file=stream)
        return 0
    q = float(povm.conclusive_probabilities[0])
    print(f"conclusive_probability_q {_format_number(q)}", file=stream)
    for i, recip in enumerate(reciprocal_states(ensemble)):
        print(
            f"reciprocal_norm[{i}] {_format_number(math.sqrt(recip.norm_sq()))}",
            file=stream,
        )
    print(
        "certificate_min_inconclusive_eigenvalue "
        f"{_format_number(povm.min_inconclusive_eigenvalue)}",
        file=stream,
    )
    print("positivity certificate: holds", file=stream)
    return 0


def _threshold_row(model: SourceModel, eta_b: float) -> dict[str, Any]:
    params = model.source
    stats = multiphoton_stats(model)
    rate = eve_conclusive_rate(model)
    t_star = critical_transmission(model, eta_b=eta_b)
    row: dict[str, Any] = {
        "source": params.kind,
        "amplitude": params.amplitude,
        "order": params.expansion_order,
        "eta_alice": params.alice_detector_efficiency,
        "eta_bob": eta_b,
        "p1": stats.p1,
        "p_multi_cond": stats.p_multi_conditional,
        "conclusive_rate": rate,
    }
    if t_star is None:
        row.update(t_star=None, fatal_loss_percent=None, fatal_loss_db=None)
    else:
        row.update(
            t_star=t_star,
            fatal_loss_percent=100.0 * (1.0 - t_star),
            fatal_loss_db=-10.0 * math.log10(t_star),
        )
    return row


def _cmd_threshold(settings: dict[str, Any], stream) -> int:
    kind = settings["source"]
    amp_key = "alpha" if kind == "wcp" else "chi"
    amplitudes = _parse_grid(settings, amp_key)
    etas_a = _parse_grid(settings, "eta_alice")
    etas_b = _parse_grid(settings, "eta_bob")
    if not all(0.0 < eta_b <= 1.0 for eta_b in etas_b):
        name = _setting_name(settings, "eta_bob")
        raise UsageError(f"{name}: every value must lie in (0, 1]")

    failures = (ParameterError, FockError, ConsistencyError)
    rows: list[dict[str, Any] | Exception] = []
    for amplitude in amplitudes:
        for eta_a in etas_a:
            # one analysis serves every eta_bob of the grid point
            try:
                model = analyze(SourceParams(kind, amplitude, settings["order"], eta_a))
            except failures as exc:
                rows.extend([exc] * len(etas_b))
                continue
            for eta_b in etas_b:
                try:
                    rows.append(_threshold_row(model, eta_b))
                except failures as exc:
                    rows.append(exc)

    fmt = settings["format"]
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(THRESHOLD_COLUMNS)
        for row in rows:
            if isinstance(row, Exception):
                writer.writerow(["error"] * len(THRESHOLD_COLUMNS))
                continue
            writer.writerow(
                "none" if row[c] is None
                else (row[c] if isinstance(row[c], (str, int)) else _format_number(row[c]))
                for c in THRESHOLD_COLUMNS
            )
    else:
        for row in rows:
            if isinstance(row, Exception):
                print(json.dumps({"error": str(row)}, sort_keys=True), file=stream)
                continue
            print(json.dumps(row, sort_keys=True), file=stream)
    if all(isinstance(row, Exception) for row in rows):
        print("error: every grid point failed", file=sys.stderr)
        # a grid of nothing but bad input is a usage error, as it is for
        # the single-point subcommands
        return 2 if all(isinstance(row, ParameterError) for row in rows) else 1
    return 0


def _cmd_simulate(settings: dict[str, Any], stream) -> int:
    params = _source_from_settings(settings)
    transmission = _parse_scalar(settings, "transmission")
    try:
        channel = ChannelModel(transmission)
        config = ProtocolConfig(
            source=params,
            channel=channel,
            n_pulses=settings["pulses"],
            seed=settings["seed"],
            bob_detector_efficiency=_parse_scalar(settings, "eta_bob"),
        )
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    report = run_protocol_monte_carlo(config, AttackStrategy(settings["attack"]))
    echo = {
        "source": params.kind,
        ("alpha" if params.kind == "wcp" else "chi"): params.amplitude,
        "order": params.expansion_order,
        "eta_alice": params.alice_detector_efficiency,
        "eta_bob": config.bob_detector_efficiency,
        "transmission": channel.transmission,
        "pulses": config.n_pulses,
        "seed": config.seed,
        "attack": settings["attack"],
    }
    doc = {"config": echo, "report": asdict(report)}
    stream.write(json.dumps(doc, sort_keys=True, indent=2))
    stream.write("\n")
    return 0


# --------------------------------------------------------------- main


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _resolve_settings(args)
        handler = {
            "states": _cmd_states,
            "usd": _cmd_usd,
            "threshold": _cmd_threshold,
            "simulate": _cmd_simulate,
        }[args.command]
        if settings["out"]:
            try:
                fh = open(settings["out"], "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise UsageError(f"cannot write {settings['out']}: {exc.strerror}") from exc
            with fh:
                return handler(settings, fh)
        code = handler(settings, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early; devnull keeps the flush at exit silent
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FockError, ConsistencyError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
