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
import sys
from typing import Any, Sequence

import numpy as np

from fockqkd.attack import (
    ATTACK_CONCLUSIVE,
    ATTACK_NONE,
    CONCLUSIVE_ATTACK,
    NO_ATTACK,
    ChannelModel,
    ProtocolConfig,
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
from fockqkd.sources import ParameterError, SourceParams, signal_states

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
        p.add_argument("--source", choices=("wcp", "pdc"))
        p.add_argument(
            "--alpha", help="weak-pulse amplitude(s), comma-separated for sweeps"
        )
        p.add_argument(
            "--chi", help="pair-source coupling(s), comma-separated for sweeps"
        )
        p.add_argument("--order", type=int, choices=(1, 2))
        p.add_argument("--eta-alice", dest="eta_alice", help="sender detector efficiency")
        p.add_argument("--eta-bob", dest="eta_bob", help="receiver detector efficiency")
        loss = p.add_mutually_exclusive_group()
        loss.add_argument("--transmission", help="channel transmission in [0, 1]")
        loss.add_argument("--loss-db", dest="loss_db", help="channel loss in dB")
        p.add_argument("--pulses", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"))

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
            p.add_argument("--attack", choices=(ATTACK_NONE, ATTACK_CONCLUSIVE))
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
    return data


def _resolve_settings(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_load_config(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "loss_db", None) is not None:
        settings["transmission"] = ChannelModel.from_loss_db(
            _parse_scalar(args.loss_db, "loss-db")
        ).transmission
    return settings


def _parse_grid(value: Any, name: str) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [s for s in str(value).split(",") if s.strip()]
    try:
        grid = [float(x) for x in items]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--{name}: expected numbers, got {value!r}") from exc
    if not grid:
        raise UsageError(f"--{name}: empty grid")
    return grid


def _parse_scalar(value: Any, name: str) -> float:
    grid = _parse_grid(value, name)
    if len(grid) != 1:
        raise UsageError(f"--{name}: expected a single value, got {len(grid)}")
    return grid[0]


def _source_from_settings(
    settings: dict[str, Any], amplitude: float | None = None
) -> SourceParams:
    kind = settings["source"]
    if amplitude is None:
        key = "alpha" if kind == "wcp" else "chi"
        amplitude = _parse_scalar(settings[key], key)
    try:
        return SourceParams(
            kind=kind,
            amplitude=amplitude,
            expansion_order=int(settings["order"]),
            alice_detector_efficiency=_parse_scalar(
                settings["eta_alice"], "eta-alice"
            ),
        )
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _format_number(x: float) -> str:
    return f"{x:.12g}"


# --------------------------------------------------------- subcommands


def _cmd_states(settings: dict[str, Any], stream) -> int:
    params = _source_from_settings(settings)
    catalog = signal_states(params)
    for mq in catalog:
        print(f"# state {mq.basis}{mq.bit}", file=stream)
        print(
            f"# emission_probability {_format_number(mq.emission_probability)}",
            file=stream,
        )
        for line in mq.state.dump_lines():
            print(line, file=stream)
    g = gram(StateEnsemble([mq.state for mq in catalog]))
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


def _threshold_row(kind: str, amplitude: float, order: int,
                   eta_a: float, eta_b: float) -> dict[str, Any]:
    params = SourceParams(
        kind=kind,
        amplitude=amplitude,
        expansion_order=order,
        alice_detector_efficiency=eta_a,
    )
    stats = multiphoton_stats(params)
    rate = eve_conclusive_rate(params)
    t_star = critical_transmission(params, eta_b=eta_b)
    row: dict[str, Any] = {
        "source": kind,
        "amplitude": amplitude,
        "order": order,
        "eta_alice": eta_a,
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
    amplitudes = _parse_grid(settings[amp_key], amp_key)
    etas_a = _parse_grid(settings["eta_alice"], "eta-alice")
    etas_b = _parse_grid(settings["eta_bob"], "eta-bob")
    if not all(0.0 < eta_b <= 1.0 for eta_b in etas_b):
        raise UsageError("--eta-bob: every value must lie in (0, 1]")
    order = int(settings["order"])

    rows: list[dict[str, Any] | Exception] = []
    for amplitude in amplitudes:
        for eta_a in etas_a:
            for eta_b in etas_b:
                try:
                    rows.append(_threshold_row(kind, amplitude, order, eta_a, eta_b))
                except (ParameterError, FockError, ConsistencyError) as exc:
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
    transmission = _parse_scalar(settings["transmission"], "transmission")
    try:
        channel = ChannelModel(transmission)
        config = ProtocolConfig(
            source=params,
            channel=channel,
            n_pulses=int(settings["pulses"]),
            seed=int(settings["seed"]),
            bob_detector_efficiency=_parse_scalar(settings["eta_bob"], "eta-bob"),
        )
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    attack = CONCLUSIVE_ATTACK if settings["attack"] == ATTACK_CONCLUSIVE else NO_ATTACK
    report = run_protocol_monte_carlo(config, attack)
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
    doc = {
        "config": echo,
        "report": {
            "pulses_sent": report.pulses_sent,
            "alice_accepted": report.alice_accepted,
            "bob_detections": report.bob_detections,
            "detection_yield": report.detection_yield,
            "unconditioned_yield": report.unconditioned_yield,
            "sifted_bits": report.sifted_bits,
            "sifted_errors": report.sifted_errors,
            "qber": report.qber,
            "double_clicks": report.double_clicks,
            "eve_conclusive_count": report.eve_conclusive_count,
            "eve_known_fraction_of_sifted": report.eve_known_fraction_of_sifted,
            "attack_kind": report.attack_kind,
            "attack_unavailable": report.attack_unavailable,
        },
    }
    stream.write(json.dumps(doc, sort_keys=True, indent=2))
    stream.write("\n")
    return 0


# --------------------------------------------------------------- main


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
        handler = {
            "states": _cmd_states,
            "usd": _cmd_usd,
            "threshold": _cmd_threshold,
            "simulate": _cmd_simulate,
        }[args.command]
        if settings["out"]:
            with open(settings["out"], "w", encoding="utf-8", newline="") as fh:
                return handler(settings, fh)
        return handler(settings, sys.stdout)
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
