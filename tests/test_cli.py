"""End-to-end tests of the command-line front end."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fockqkd.discrimination as discrimination_mod
import fockqkd.fock as fock_mod
import fockqkd.sources as sources_mod
from fockqkd import cli
from fockqkd.attack import eve_conclusive_rate, multiphoton_stats
from fockqkd.discrimination import PSD_TOL, ConsistencyError
from fockqkd.sources import SourceParams

from sender_table import sender_table

HEADER = (
    "source,amplitude,order,eta_alice,eta_bob,p1,p_multi_cond,"
    "conclusive_rate,t_star,fatal_loss_percent,fatal_loss_db"
)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------- states


@pytest.mark.parametrize("flags, rank", [
    (["--source", "pdc", "--chi", "0.1"], 2),
    (["--source", "wcp", "--alpha", "0.3", "--order", "1"], 3),
    # independent at order 2, however weak the pulse
    (["--source", "wcp", "--alpha", "0.003"], 4),
    (["--source", "wcp", "--alpha", "0.01"], 4),
], ids=["pdc-chi0.1", "wcp-alpha0.3-order1", "wcp-alpha0.003", "wcp-alpha0.01"])
def test_states_prints_the_rank_usd_uses(capsys, flags, rank):
    rc, out, _ = run_cli(["states"] + flags, capsys)
    assert rc == 0
    assert f"# numerical rank: {rank}" in out
    n_states = out.count("# state ")
    # usd refuses a dependent ensemble naming its span dimension, and tells
    # an independent one apart: one reciprocal state per dimension
    rc, out, _ = run_cli(["usd"] + flags, capsys)
    assert rc == 0
    if rank < n_states:
        assert out == f"not discriminable (rank {rank})\n"
    else:
        assert len(re.findall(r"^reciprocal_norm\[\d+\] ", out, re.M)) == rank


def test_states_help_names_the_analysed_ensemble(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["states", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "dump the analysed ensemble, its Gram matrix and rank" in out


@pytest.mark.parametrize("command", [[], ["states"], ["usd"], ["threshold"], ["simulate"]])
def test_help_renders_with_its_description(capsys, command):
    # argparse %-formats help strings only when it renders them
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--help"])
    assert exc.value.code == 0
    sub = parser._subparsers._group_actions[0].choices
    description = sub[command[0]].description if command else parser.description
    out = " ".join(capsys.readouterr().out.split())
    assert description in out


def test_each_subcommand_offers_the_table_flags():
    parser = cli._build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert set(subparsers) == {"states", "usd", "threshold", "simulate"}
    for name, sub in subparsers.items():
        flags = {f for f in sub._option_string_actions if f.startswith("--")}
        expected = {"--help", "--config"} | {
            "--" + key.replace("_", "-")
            for key, setting in cli._SETTINGS.items()
            if setting[3] in (None, name)
        }
        assert flags == expected, name
        # the shared flags come from one parent, built once
        assert sub._option_string_actions["--alpha"] is (
            subparsers["states"]._option_string_actions["--alpha"]
        )


def test_states_zero_amplitude_is_usage_error(capsys):
    rc, _, err = run_cli(["states", "--source", "wcp", "--alpha", "0"], capsys)
    assert rc == 2
    assert "amplitude" in err


def test_states_dump_format(capsys):
    rc, out, _ = run_cli(["states", "--source", "wcp", "--alpha", "0.3"], capsys)
    assert rc == 0
    line_re = re.compile(r"^\d+(,\d+)*\t[^\t]+\t[^\t]+$")
    blocks = out.count("# state ")
    assert blocks == 4
    data_lines = [ln for ln in out.splitlines() if line_re.match(ln)]
    assert data_lines
    # patterns are lex-sorted within each state block
    first_block = []
    for ln in out.splitlines()[2:]:
        if ln.startswith("#"):
            break
        first_block.append(tuple(int(n) for n in ln.split("\t")[0].split(",")))
    assert first_block == sorted(first_block)


def test_states_prints_the_analysed_ensemble(capsys):
    # with sender inefficiency the ensemble holds every accepted branch,
    # the same states that ``usd`` analyses
    flags = ["--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8"]
    rc, out, _ = run_cli(["states"] + flags, capsys)
    assert rc == 0
    params = SourceParams(kind="pdc", amplitude=0.1, alice_detector_efficiency=0.8)
    accepted = [e for e in sender_table(params) if e.index >= 0]
    heads = re.findall(r"^# state (\S+)$", out, re.M)
    assert heads == [e.basis + str(e.label & 1) for e in accepted]
    assert len(heads) == 28
    emission = [float(x) for x in re.findall(r"^# emission_probability (\S+)$", out, re.M)]
    assert emission == pytest.approx([e.weight for e in accepted], rel=1e-11)
    assert "# numerical rank: 8" in out
    rc, out, _ = run_cli(["usd"] + flags, capsys)
    assert "not discriminable (rank 8)" in out


# ----------------------------------------------------------------- usd


def test_usd_wcp_reports_q_and_certificate(capsys):
    rc, out, _ = run_cli(["usd", "--source", "wcp", "--alpha", "0.3"], capsys)
    assert rc == 0
    q = float(out.split("conclusive_probability_q ")[1].split()[0])
    expected = eve_conclusive_rate(SourceParams(kind="wcp", amplitude=0.3))
    assert q == pytest.approx(expected, rel=1e-9)
    assert "positivity certificate: holds" in out


def test_usd_pdc_not_discriminable(capsys):
    rc, out, _ = run_cli(["usd", "--source", "pdc", "--chi", "0.1"], capsys)
    assert rc == 0
    assert "not discriminable (rank 2)" in out


def test_usd_toy_two_state_value(capsys):
    rc, out, _ = run_cli(["usd", "--toy"], capsys)
    assert rc == 0
    q = float(out.split("conclusive_probability_q ")[1].split()[0])
    assert abs(q - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-6
    # overlap 1/sqrt(2): <psi~|psi~> = 1/(1 - 1/2) = 2
    lines = out.splitlines()
    assert "reciprocal_norm[0] 1.41421356237" in lines
    assert "reciprocal_norm[1] 1.41421356237" in lines


# ----------------------------------------------------------- threshold


def test_threshold_header_and_fatal_loss_trend(capsys):
    rc, out, _ = run_cli(
        ["threshold", "--source", "wcp", "--alpha", "0.316,0.1,0.0316"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 4
    db = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert db[0] < db[1] < db[2]  # smaller alpha -> more loss needed


def test_threshold_row_matches_library(capsys):
    # at eta_B 1e-3 the conclusive rate beats the honest yield at t = 1,
    # so t* saturates at 1 and the fatal loss is 0 dB, printed without a sign
    for eta_b in ("1", "1e-3"):
        args = ["threshold", "--source", "wcp", "--alpha", "0.3", "--eta-bob", eta_b]
        rc, out, _ = run_cli(args, capsys)
        assert rc == 0
        row = dict(zip(HEADER.split(","), out.strip().splitlines()[1].split(",")))
        src = SourceParams(kind="wcp", amplitude=0.3)
        stats = multiphoton_stats(src)
        assert float(row["p1"]) == pytest.approx(stats.p1, rel=1e-9)
        assert float(row["p_multi_cond"]) == pytest.approx(
            stats.p_multi_conditional, rel=1e-9
        )
        assert float(row["conclusive_rate"]) == pytest.approx(
            eve_conclusive_rate(src), rel=1e-9
        )
        t_star = float(row["t_star"])
        assert float(row["fatal_loss_percent"]) == pytest.approx(
            100 * (1 - t_star), rel=1e-9
        )
        assert float(row["fatal_loss_db"]) == pytest.approx(
            -10 * math.log10(t_star), rel=1e-9
        )
        rc, out, _ = run_cli(args + ["--format", "jsonl"], capsys)
        assert rc == 0
        db = json.loads(out)["fatal_loss_db"]
        assert math.copysign(1.0, db) == 1.0
    assert t_star == 1.0
    assert (row["fatal_loss_percent"], row["fatal_loss_db"]) == ("0", "0")


def test_threshold_pdc_rows_have_no_threshold(capsys):
    rc, out, _ = run_cli(["threshold", "--source", "pdc", "--chi", "0.05,0.1"], capsys)
    assert rc == 0
    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        assert fields[-3] == "none"  # t_star
        assert fields[-2] == "none"
        assert fields[-1] == "none"


def test_threshold_jsonl_uses_null(capsys):
    rc, out, _ = run_cli(
        ["threshold", "--source", "pdc", "--chi", "0.1", "--format", "jsonl"], capsys
    )
    assert rc == 0
    row = json.loads(out.strip())
    assert row["t_star"] is None
    assert row["conclusive_rate"] == 0.0


def test_threshold_empty_grid_is_usage_error(capsys):
    rc, _, err = run_cli(["threshold", "--source", "wcp", "--alpha", ""], capsys)
    assert rc == 2
    assert "empty grid" in err


def test_threshold_grid_is_cross_product(capsys):
    rc, out, _ = run_cli(
        [
            "threshold",
            "--source", "wcp",
            "--alpha", "0.2,0.3",
            "--eta-bob", "1.0,0.5",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 4
    combos = [(ln.split(",")[1], ln.split(",")[4]) for ln in lines]
    assert combos == [("0.2", "1"), ("0.2", "0.5"), ("0.3", "1"), ("0.3", "0.5")]


@pytest.mark.parametrize("eta_bob", ["0", "-0.5", "1.5", "nan"])
def test_threshold_bad_eta_bob_is_usage_error(capsys, eta_bob):
    rc, out, err = run_cli(
        ["threshold", "--source", "wcp", "--alpha", "0.3", "--eta-bob", eta_bob],
        capsys,
    )
    assert rc == 2
    assert out == ""
    assert "--eta-bob" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "-1"],
        ["--alpha", "nan"],
        ["--source", "pdc", "--eta-alice", "0"],
    ],
    ids=["alpha-negative", "alpha-nan", "pdc-eta-alice-zero"],
)
def test_threshold_grid_of_bad_input_is_usage_error(capsys, argv):
    rc, out, err = run_cli(["threshold"] + argv, capsys)
    assert rc == 2
    assert out.strip().splitlines()[1:] == [",".join(["error"] * 11)]
    assert "every grid point failed" in err


def test_threshold_mixed_grid_keeps_error_rows(capsys):
    rc, out, _ = run_cli(["threshold", "--alpha", "0.3,-1", "--format", "jsonl"], capsys)
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["amplitude"] == 0.3
    assert set(rows[1]) == {"error"}


def test_threshold_grid_of_failed_computations_exits_1(capsys, monkeypatch):
    def fail(*_):
        raise ConsistencyError("forced")

    monkeypatch.setattr(cli, "_threshold_row", fail)
    rc, _, err = run_cli(["threshold", "--alpha", "0.2,0.3"], capsys)
    assert rc == 1
    assert "every grid point failed" in err


def count_calls(monkeypatch, source_module, *names):
    """Count calls of the ``source_module`` functions ``names``, rebinding
    each in every fockqkd module that imported it."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.startswith("fockqkd.")]
    for name in names:
        fn = getattr(source_module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_threshold_analyses_each_pair_source_once(capsys, monkeypatch):
    counts = count_calls(monkeypatch, sources_mod, "alice_measure", "pdc_modified_singlet")
    rc, out, _ = run_cli(
        ["threshold", "--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8",
         "--eta-bob", "1,0.8,0.5"],
        capsys,
    )
    assert rc == 0
    assert len(out.strip().splitlines()) == 4
    # one sender measurement per basis on one pair state serves all three rows
    assert counts == {"alice_measure": 2, "pdc_modified_singlet": 1}


def count_spectral_calls(monkeypatch):
    """Count ``ambient_matrix`` and the ``svd`` and ``eigvalsh`` calls."""
    counts = count_calls(monkeypatch, discrimination_mod, "ambient_matrix")
    for name in ("svd", "eigvalsh"):
        counts[name] = 0

        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_usd_refusal_prints_the_rank_it_measured(capsys, monkeypatch):
    counts = count_spectral_calls(monkeypatch)
    rc, out, _ = run_cli(
        ["usd", "--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8"], capsys
    )
    assert rc == 0
    assert out == "not discriminable (rank 8)\n"
    # the refusal's own SVD supplies the printed rank; no second Gram analysis
    assert counts == {"ambient_matrix": 1, "svd": 1, "eigvalsh": 0}


def test_states_takes_one_gram_check_and_one_rank_svd(capsys, monkeypatch):
    counts = count_spectral_calls(monkeypatch)
    rc, out, _ = run_cli(
        ["states", "--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8"], capsys
    )
    assert rc == 0
    assert "# numerical rank: 8" in out
    # gram() checks positivity with one eigvalsh; the rank is the SVD rule
    assert counts == {"ambient_matrix": 2, "svd": 1, "eigvalsh": 1}


# ------------------------------------------------------------ simulate


def test_attacked_pair_source_simulate_measures_once(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch, sources_mod, "alice_measure")
    fock_counts = count_calls(
        monkeypatch, fock_mod, "project_counts", "inner_product", "rotate_modes"
    )
    rc = simulate_to(
        tmp_path / "r.json",
        ["--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8", "--pulses", "2000",
         "--attack", "intercept_resend_conclusive"],
    )
    assert rc == 0
    assert json.loads((tmp_path / "r.json").read_text())["report"]["attack_unavailable"]
    assert counts == {"alice_measure": 2}
    # heralding groups amplitudes in one pass and the Gram is one product;
    # the only rotations are the two heralding ones (one per basis): the
    # detection tables take the cached rotation matrix, not a rotation per
    # ambient pattern
    assert fock_counts == {"project_counts": 0, "inner_product": 0, "rotate_modes": 2}


def test_attacked_simulate_runs_of_one_source_measure_once(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch, discrimination_mod, "usd_povm_equal")
    for seed in (1, 2):
        path = tmp_path / f"{seed}.json"
        rc = simulate_to(
            path,
            ["--source", "wcp", "--alpha", "0.3", "--transmission", "0.003",
             "--pulses", "2000", "--seed", str(seed),
             "--attack", "intercept_resend_conclusive"],
        )
        assert rc == 0
        assert not json.loads(path.read_text())["report"]["attack_unavailable"]
    # the second run reads the first run's measurement from the cache
    assert counts == {"usd_povm_equal": 1}


def simulate_to(path, extra):
    argv = ["simulate", "--out", str(path)] + extra
    return cli.main(argv)


def test_simulate_round_trip_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    rc = simulate_to(
        first,
        ["--source", "wcp", "--alpha", "0.3", "--transmission", "0.5",
         "--pulses", "20000", "--seed", "42"],
    )
    assert rc == 0
    doc = json.loads(first.read_text())
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(doc["config"]))
    rc = simulate_to(second, ["--config", str(echo)])
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_flags_override_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"source": "wcp", "alpha": 0.3, "transmission": 0.5,
             "pulses": 5000, "seed": 1}
        )
    )
    base = tmp_path / "base.json"
    override = tmp_path / "override.json"
    assert simulate_to(base, ["--config", str(config)]) == 0
    assert simulate_to(override, ["--config", str(config), "--seed", "2"]) == 0
    assert json.loads(base.read_text())["config"]["seed"] == 1
    assert json.loads(override.read_text())["config"]["seed"] == 2
    assert base.read_bytes() != override.read_bytes()


def test_simulate_loss_db_matches_transmission(tmp_path):
    by_t = tmp_path / "t.json"
    by_db = tmp_path / "db.json"
    common = ["--source", "wcp", "--alpha", "0.3", "--pulses", "5000", "--seed", "3"]
    assert simulate_to(by_t, common + ["--transmission", "0.1"]) == 0
    assert simulate_to(by_db, common + ["--loss-db", "10"]) == 0
    t_doc = json.loads(by_t.read_text())
    db_doc = json.loads(by_db.read_text())
    assert db_doc["config"]["transmission"] == pytest.approx(0.1, rel=1e-12)
    assert db_doc["report"] == t_doc["report"]


def test_config_loss_db_matches_the_flag(tmp_path, capsys):
    common = ["--source", "wcp", "--alpha", "0.3", "--pulses", "5000", "--seed", "3"]
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert simulate_to(by_flag, common + ["--loss-db", "10"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss_db": 10}))
    assert simulate_to(by_config, common + ["--config", str(cfg)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    # an explicit flag for either field replaces the config's other field
    override = tmp_path / "override.json"
    assert simulate_to(override, common + ["--config", str(cfg), "--transmission", "0.5"]) == 0
    assert json.loads(override.read_text())["config"]["transmission"] == 0.5
    cfg.write_text(json.dumps({"transmission": 0.5}))
    assert simulate_to(override, common + ["--config", str(cfg), "--loss-db", "10"]) == 0
    assert override.read_bytes() == by_flag.read_bytes()
    # both in one config are exclusive, as the two flags are
    cfg.write_text(json.dumps({"transmission": 0.5, "loss_db": 10}))
    rc, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: config fields transmission and loss_db")


def test_simulate_attacked_reports_full_knowledge(tmp_path):
    out = tmp_path / "atk.json"
    rc = simulate_to(
        out,
        ["--source", "wcp", "--alpha", "0.31622776601683794",
         "--transmission", "0.003", "--pulses", "200000", "--seed", "9",
         "--attack", "intercept_resend_conclusive"],
    )
    assert rc == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["qber"] <= 0.001
    assert rep["eve_known_fraction_of_sifted"] == 1.0
    assert rep["attack_kind"] == "intercept_resend_conclusive"


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(["simulate", "--config", str(tmp_path / "nope.json")], capsys)
    assert rc == 2
    assert "config" in err


def test_config_file_holding_an_array_exits_2(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps([{"alpha": 0.3}]))
    rc, out, err = run_cli(["states", "--config", str(bad)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: config file must contain a single JSON object\n"


def test_pair_source_without_accepted_branches_exits_2(capsys):
    # at chi 1e-16 every pair term falls below EPS_AMP: only vacuum remains
    rc, out, err = run_cli(["threshold", "--source", "pdc", "--chi", "1e-16",
                            "--format", "jsonl"], capsys)
    assert (rc, err) == (2, "error: every grid point failed\n")
    assert json.loads(out) == {"error": "pair source has no accepted branches"}
    rc, out, err = run_cli(["simulate", "--source", "pdc", "--chi", "1e-16"], capsys)
    assert (rc, out, err) == (2, "", "error: pair source has no accepted branches\n")


@pytest.mark.parametrize("error", [fock_mod.FockError, ConsistencyError])
def test_failed_computation_exits_1(capsys, monkeypatch, error):
    def fail(*_):
        raise error("forced")

    monkeypatch.setattr(cli, "analyze", fail)
    rc, out, err = run_cli(["states"], capsys)
    assert (rc, out, err) == (1, "", "computation failed: forced\n")


def test_simulate_unknown_config_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"voltage": 9000}))
    rc, _, err = run_cli(["simulate", "--config", str(bad)], capsys)
    assert rc == 2
    assert "voltage" in err


@pytest.mark.parametrize(
    "command, field",
    [
        ("threshold", {"order": "abc"}),
        ("simulate", {"pulses": None}),
        ("simulate", {"pulses": "1e3"}),
        ("simulate", {"seed": 1.7}),
        ("threshold", {"format": "xml"}),
        ("simulate", {"attack": "foo"}),
        ("usd", {"out": True}),
        ("usd", {"out": 5}),
        ("usd", {"toy": "no"}),
        ("simulate", {"transmission": True}),
        ("simulate", {"eta_bob": True}),
        ("threshold", {"alpha": [0.1, False]}),
        ("threshold", {"alpha": "abc"}),
        ("states", {"eta_alice": [0.5, 0.8]}),
        ("simulate", {"loss_db": "ten"}),
        ("threshold", {"eta_bob": [0.5, 2]}),
    ],
    ids=["order-abc", "pulses-null", "pulses-1e3", "seed-1.7", "format-xml", "attack-foo",
         "out-true", "out-5", "toy-no", "transmission-true", "eta_bob-true",
         "alpha-grid-false", "alpha-abc", "eta_alice-grid-for-states", "loss_db-ten",
         "eta_bob-out-of-range"],
)
def test_config_values_get_the_flag_checks(tmp_path, capsys, command, field):
    # each of these crashed with a traceback or ran with a silently
    # replaced value; the same value as a flag is rejected by the parser
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(field))
    rc, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert rc == 2
    assert out == ""
    (key,) = field
    assert err.startswith(f"error: config field {key}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["threshold", "--alpha", "abc"], "error: --alpha: expected numbers"),
        (["states", "--eta-alice", "0.5,0.8"], "error: --eta-alice: expected a single value"),
        (["simulate", "--loss-db", "ten"], "error: --loss-db: expected numbers"),
    ],
    ids=["alpha-abc", "eta-alice-grid-for-states", "loss-db-ten"],
)
def test_flag_values_keep_the_flag_name(tmp_path, capsys, argv, message):
    # a flag overrides a valid config value and its error names the flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "eta_alice": 1.0, "loss_db": 1.0}))
    for extra in ([], ["--config", str(cfg)]):
        rc, out, err = run_cli(argv + extra, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(message)


def test_config_integers_accept_what_the_flag_accepts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulses": "2000", "seed": 3, "order": 1}))
    rc, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert rc == 0
    echo = json.loads(out)["config"]
    assert (echo["pulses"], echo["seed"], echo["order"]) == (2000, 3, 1)


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(["threshold", "--out", str(target)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--alpha", "abc"],
        ["simulate", "--pulses", "0"],
        ["threshold", "--eta-bob", "2"],
    ],
    ids=["alpha-abc", "pulses-0", "eta-bob-2"],
)
def test_failed_run_leaves_out_file_as_it_was(tmp_path, capsys, argv):
    target = tmp_path / "r.json"
    target.write_text("precious\n")
    rc, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    assert target.read_text() == "precious\n"


def test_simulate_rejects_pulse_counts_beyond_int64(capsys):
    rc, out, err = run_cli(["simulate", "--pulses", str(2**63)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: n_pulses must be an integer in [1, 2**63)\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_errors_are_usage_errors(capsys):
    rc, out, err = run_cli(["threshold", "--out", "/dev/full"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fockqkd.cli", "usd", "--toy"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{", '{"alpha": 0.3}'.encode("utf-16")], ids=["bad-bytes", "utf-16"]
)
def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    rc, out, err = run_cli(["usd", "--config", str(cfg)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: config file is not valid JSON: ")


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import fockqkd
from fockqkd import cli
runs = [
    ["states"],
    ["usd"],
    ["threshold", "--source", "wcp"],
    ["threshold", "--source", "pdc"],
    ["simulate", "--pulses", "1000"],
    ["simulate", "--pulses", "1000", "--attack", "intercept_resend_conclusive"],
]
sys.stderr.write(repr([cli.main(argv) for argv in runs]))
"""


def test_every_subcommand_runs_without_scipy():
    # numpy is the one runtime dependency; scipy is for the tests only
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stderr) == (0, "[0, 0, 0, 0, 0, 0]")


_PARSER_REUSE_RUNS = [
    ["threshold", "--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8"],
    ["threshold", "--help"],
]


def test_cached_parser_gives_fresh_process_bytes(capsys, monkeypatch):
    # the parser is built once per process; a failed parse must leave it
    # as a new one would be, and help is laid out when it is printed
    monkeypatch.setenv("COLUMNS", "100")
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in _PARSER_REUSE_RUNS:
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "fockqkd.cli"] + argv,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path, COLUMNS="100"),
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fockqkd.cli", "usd", "--toy"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "conclusive_probability_q" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--alpha", "0.1,0.2,0.3,0.4,0.5", "--eta-bob", "1,0.9,0.8,0.7"],
        ["usd", "--toy"],
    ],
    ids=["threshold-grid", "usd-toy"],
)
def test_closed_stdout_pipe_exits_0_silently(argv):
    # the reader closes its end before the program writes: that is not a
    # failed computation, and nothing may reach stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fockqkd.cli"] + argv,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


# --------------------------------------------------------- output bytes

_CONCLUSIVE = ["--attack", "intercept_resend_conclusive"]
_THRESHOLD_WCP = ["threshold", "--source", "wcp", "--alpha", "0.316,0.1,0.0316",
                  "--eta-bob", "1,0.8,0.5"]
_THRESHOLD_PDC = ["threshold", "--source", "pdc", "--chi", "0.05,0.1,0.2",
                  "--eta-alice", "1,0.8,0.5", "--eta-bob", "1,0.5"]
_PINNED_OUTPUT = [
    (["usd", "--source", "wcp", "--alpha", "0.3", "--order", "1"], 0,
     "5a6f45800a68427d96ab22e02f121be44af12e1ffc662e1f7b64ac7a5d2fc7dd"),
    (["usd", "--source", "wcp", "--alpha", "0.3"], 0,
     "66d9936f5ac2f8dea33ec1f66cb3feffdd76a9124e82cbb4527e197e9a592bf4"),
    (["usd", "--source", "pdc", "--chi", "0.1"], 0,
     "5c83ff090dadd77d25be1114c06dd2f0f1441cb670e5e8dcd6c32a68f313aff5"),
    (["usd", "--source", "pdc", "--chi", "0.1", "--eta-alice", "0.8"], 0,
     "24259b02aac3277fd00b352ad8d5bf76128e6c4f7739cbed3f16d3c339971ec6"),
    (["usd", "--source", "pdc", "--chi", "0.1", "--eta-alice", "0.5"], 0,
     "24259b02aac3277fd00b352ad8d5bf76128e6c4f7739cbed3f16d3c339971ec6"),
    (_THRESHOLD_WCP + ["--order", "1"], 0,
     "0a717b9b52607d6c0c1bc2ad6299afe9988543bd316fc1fd1a41fd2a11535c8c"),
    (_THRESHOLD_WCP, 0,
     "f7130c7468f25cb6c7d789e1292d43d933018ea9d2841551873120c13e3283e0"),
    (_THRESHOLD_PDC, 0,
     "7affcf5fc8f079572728094e6ce6fdd2aff3b74a4e577dadcadd6e759d77e4ff"),
    (["threshold", "--source", "pdc", "--chi", "0.1,0.2", "--eta-alice", "0"], 2,
     "527145c16e0ae4f687070628efe6b6ee0cb55523509373d487e29f7284a0dc16"),
    (["simulate", "--source", "wcp", "--alpha", "0.3", "--transmission", "0.5",
      "--pulses", "100000", "--seed", "3"], 0,
     "56a1cd3696c847937c7f740bc7fb9f67de90fd05b4ef8a97ce6c48f44fd5ae8c"),
    (["simulate", "--source", "wcp", "--alpha", "0.3", "--transmission", "3e-3",
      "--pulses", "200000", "--seed", "2"] + _CONCLUSIVE, 0,
     "51d901bf72e04a66aacbfc79c2569470ad73400ff2739e495b0dd0280367078a"),
    (["simulate", "--source", "wcp", "--alpha", "0.3", "--order", "1",
      "--transmission", "3e-3", "--eta-bob", "0.7", "--pulses", str(2**63 - 1),
      "--seed", "4"] + _CONCLUSIVE, 0,
     "7dded180d0319f46ffffe0d2cf7ccfb1466930cf21bc8993465c24e83b04e6b6"),
    (["simulate", "--source", "pdc", "--chi", "0.3", "--eta-alice", "0.8",
      "--transmission", "0.5", "--pulses", str(2**63 - 1), "--seed", "6"], 0,
     "263e56f549ee24181ea2eccac6464ce593c99d9207d302342f80c89e5fa8e370"),
    (["simulate", "--source", "pdc", "--chi", "0.3", "--transmission", "0.5",
      "--pulses", "100000", "--seed", "7"] + _CONCLUSIVE, 0,
     "60220cae0e71c8f092e876fc6ca735d4ef5d8a64d3baff7acf718711c626c9a8"),
]


@pytest.mark.parametrize(
    "argv, code, digest", _PINNED_OUTPUT,
    ids=[f"{i:02d}-{argv[0]}" for i, (argv, _, _) in enumerate(_PINNED_OUTPUT)],
)
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    """The sha256 of stdout and the exit code of ``usd``, ``threshold`` and
    seeded ``simulate`` commands, so a refactor shows any change in the
    hashed output.

    Only output that the platform's BLAS does not move is hashed.  The
    ``usd`` certificate is rounding noise around zero, so its line is left
    out and its value checked against ``PSD_TOL``; JSONL's full-precision
    floats are checked against the CSV rows below; ``states`` is left out:
    its 17-digit amplitudes pin the platform's complex ``abs``.  The
    ``simulate`` digests pin the numpy release, as ``_FROZEN_RUNS`` in
    ``tests/test_attack.py`` does: the counts come from numpy's samplers.
    """
    rc, out, _ = run_cli(argv, capsys)
    kept = []
    for line in out.splitlines(keepends=True):
        if line.startswith("certificate_min_inconclusive_eigenvalue "):
            assert abs(float(line.split()[1])) <= PSD_TOL
        else:
            kept.append(line)
    assert (rc, hashlib.sha256("".join(kept).encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("argv", [_THRESHOLD_WCP, _THRESHOLD_PDC], ids=["wcp", "pdc"])
def test_threshold_jsonl_rows_are_the_pinned_csv_rows(capsys, argv):
    # each JSONL value, written as the CSV writes it, is the CSV field
    _, table, _ = run_cli(argv, capsys)
    rc, out, _ = run_cli(argv + ["--format", "jsonl"], capsys)
    assert rc == 0
    header, *rows = table.splitlines()
    fields = [
        ["none" if row[c] is None
         else str(row[c]) if isinstance(row[c], (str, int)) else cli._format_number(row[c])
         for c in header.split(",")]
        for row in map(json.loads, out.splitlines())
    ]
    assert fields == [row.split(",") for row in rows]
