"""End-to-end tests of the command-line front end."""

from __future__ import annotations

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
from fockqkd.attack import analyze, eve_conclusive_rate, multiphoton_stats
from fockqkd.discrimination import ConsistencyError
from fockqkd.sources import SourceParams

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
    model = analyze(SourceParams(kind="pdc", amplitude=0.1, alice_detector_efficiency=0.8))
    heads = re.findall(r"^# state (\S+)$", out, re.M)
    assert heads == ["+x"[label >> 1] + str(label & 1) for label in model.labels]
    assert len(heads) == 28
    emission = [float(x) for x in re.findall(r"^# emission_probability (\S+)$", out, re.M)]
    branch_weights = [
        w for weights, index in model.heralding for w, i in zip(weights, index) if i >= 0
    ]
    assert emission == pytest.approx(branch_weights, rel=1e-11)
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
