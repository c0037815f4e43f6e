"""Command-line front end.

Four subcommands cover the library's surface:

* ``states``    — dump the analysed ensemble, its Gram matrix and rank;
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
import io
import json
import math
import os
import sys
from dataclasses import asdict
from functools import lru_cache
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
    span_dimension,
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


# One row per setting, given as the flag --key-name or the config field
# key_name: (default, rule, flag help, the one subcommand with the flag or
# None for all).  A rule is a tuple of choices, int, float (a number or a
# grid of numbers, parsed where a command uses it), str or bool.
_SETTINGS: dict[str, tuple] = {
    "source": ("wcp", ("wcp", "pdc"), None, None),
    "alpha": (0.3, float, "weak-pulse amplitude(s), comma-separated for sweeps", None),
    "chi": (0.1, float, "pair-source coupling(s), comma-separated for sweeps", None),
    "order": (2, (1, 2), None, None),
    "eta_alice": (1.0, float, "sender detector efficiency", None),
    "eta_bob": (1.0, float, "receiver detector efficiency", None),
    "transmission": (1.0, float, "channel transmission in [0, 1]", None),
    "loss_db": (None, float, "channel loss in dB", None),
    "pulses": (100_000, int, None, None),
    "seed": (1, int, None, None),
    "out": (None, str, "output file (default: stdout)", None),
    "format": ("csv", ("csv", "jsonl"), None, None),
    "toy": (False, bool, "use the built-in two-state ensemble with overlap 1/sqrt(2)",
            "usd"),
    "attack": (ATTACK_NONE, (ATTACK_NONE, ATTACK_CONCLUSIVE), None, "simulate"),
}
# Channel loss is one setting given either way.
_LOSS = ("transmission", "loss_db")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


# ------------------------------------------------------------ parsing


def _add_flag(p: argparse.ArgumentParser, key: str) -> None:
    _, rule, doc, _ = _SETTINGS[key]
    flag = "--" + key.replace("_", "-")
    if rule is bool:
        p.add_argument(flag, action="store_true", default=None, help=doc)
    elif isinstance(rule, tuple):
        p.add_argument(flag, type=type(rule[0]), choices=rule, help=doc)
    else:  # numbers stay text until a command parses the ones it uses
        p.add_argument(flag, type=int if rule is int else None, help=doc)


@lru_cache(maxsize=1)  # parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockqkd",
        description="Signal-state catalogs, unambiguous discrimination, "
        "loss thresholds, and Monte Carlo protocol runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    loss = shared.add_mutually_exclusive_group()
    for key, (_, _, _, command) in _SETTINGS.items():
        if command is None:
            _add_flag(loss if key in _LOSS else shared, key)
    for name, doc in (
        ("states", "dump the analysed ensemble, its Gram matrix and rank"),
        ("usd", "report the unambiguous-discrimination measurement"),
        ("threshold", "sweep loss thresholds over parameter grids"),
        ("simulate", "run the Monte Carlo protocol and emit a JSON report"),
    ):
        p = sub.add_parser(name, help=doc, description=doc, parents=[shared])
        for key, (_, _, _, command) in _SETTINGS.items():
            if command == name:
                _add_flag(p, key)
    return parser


def _check_field(key: str, value: Any) -> Any:
    """A config value checked by its setting's rule, as the flag's parser
    would; integers are converted as the flag converts its text."""
    rule = _SETTINGS[key][1]
    kind = type(rule[0]) if isinstance(rule, tuple) else rule
    if kind is int:
        try:
            value = int(str(value))
        except ValueError:
            raise UsageError(f"config field {key}: {value!r} is not an integer") from None
    if isinstance(rule, tuple) and value not in rule:
        raise UsageError(f"config field {key}: {value!r} is not one of {rule}")
    # JSON true/false are not numbers here, although float() takes them
    items = value if isinstance(value, list) else [value]
    if kind is float and any(isinstance(x, bool) for x in items):
        raise UsageError(f"config field {key}: {value!r} is not a number")
    if kind is str and not isinstance(value, str):
        raise UsageError(f"config field {key}: {value!r} is not a string")
    if kind is bool and not isinstance(value, bool):
        raise UsageError(f"config field {key}: {value!r} is not true or false")
    return value


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must contain a single JSON object")
    unknown = sorted(set(data) - set(_SETTINGS))
    if unknown:
        raise UsageError(f"unknown config fields: {', '.join(unknown)}")
    data = {key: _check_field(key, value) for key, value in data.items()}
    if all(key in data for key in _LOSS):
        raise UsageError("config fields transmission and loss_db exclude each other")
    return data


def _resolve_settings(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overlaid by the config file, overlaid by explicit flags.

    Channel loss is one setting given as either ``transmission`` or
    ``loss_db``, so an explicit flag for one replaces a config value of
    the other.  ``config_fields`` holds the keys the config file set.
    """
    config = _load_config(args.config) if args.config else {}
    settings = {key: row[0] for key, row in _SETTINGS.items()} | config
    if args.transmission is not None:
        settings["loss_db"] = None
    for key in _SETTINGS:
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
    eta_a = _parse_scalar(settings, "eta_alice")
    return SourceParams(kind, amplitude, settings["order"], eta_a)


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
    print(f"# numerical rank: {span_dimension(model.ensemble)}", file=stream)
    return 0


def _toy_ensemble() -> StateEnsemble:
    s = 1.0 / math.sqrt(2.0)
    a = FockVector.from_terms(1, {(0,): 1.0})
    b = FockVector.from_terms(1, {(0,): s, (1,): s})
    return StateEnsemble([a, b])


def _cmd_usd(settings: dict[str, Any], stream) -> int:
    if settings["toy"]:
        ensemble = _toy_ensemble()
    else:
        ensemble = signal_ensemble(_source_from_settings(settings))
    try:
        povm = usd_povm_equal(ensemble)
    except NotDiscriminable as exc:
        print(f"not discriminable (rank {exc.span_dim})", file=stream)
        return 0
    q = float(povm.conclusive_probabilities[0])
    print(f"conclusive_probability_q {_format_number(q)}", file=stream)
    for i, norm in enumerate(povm.reciprocal_norms):
        print(f"reciprocal_norm[{i}] {_format_number(norm)}", file=stream)
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
            fatal_loss_db=-10.0 * math.log10(t_star) + 0.0,  # t* = 1: 0, not -0
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
    channel = ChannelModel(_parse_scalar(settings, "transmission"))
    config = ProtocolConfig(
        source=params,
        channel=channel,
        n_pulses=settings["pulses"],
        seed=settings["seed"],
        bob_detector_efficiency=_parse_scalar(settings, "eta_bob"),
    )
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


def _write(text: str, path: str | None) -> None:
    """A command's whole output, to ``path`` or else to standard output."""
    try:
        if path:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed pipe or full disk shows here, not at exit
    except BrokenPipeError:
        raise
    except OSError as exc:
        where = path or "standard output"
        raise UsageError(f"cannot write {where}: {exc.strerror}") from exc


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
        # a run that fails writes nothing, so --out keeps what it held
        buffer = io.StringIO()
        code = handler(settings, buffer)
        _write(buffer.getvalue(), settings["out"])
        return code
    except BrokenPipeError:
        # the reader stopped early; devnull keeps the flush at exit silent
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FockError, ConsistencyError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
