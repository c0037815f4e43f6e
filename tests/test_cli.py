"""End-to-end tests of the command-line front end."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import pytest

from fockqkd import cli
from fockqkd.attack import eve_conclusive_rate, multiphoton_stats
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


def test_states_pdc_reports_rank_two(capsys):
    rc, out, _ = run_cli(["states", "--source", "pdc", "--chi", "0.1"], capsys)
    assert rc == 0
    assert "# numerical rank: 2" in out


def test_states_wcp_order_one_reports_rank_three(capsys):
    rc, out, _ = run_cli(
        ["states", "--source", "wcp", "--alpha", "0.3", "--order", "1"], capsys
    )
    assert rc == 0
    assert "# numerical rank: 3" in out


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
    rc, out, _ = run_cli(["threshold", "--source", "wcp", "--alpha", "0.3"], capsys)
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


# ------------------------------------------------------------ simulate


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fockqkd.cli", "usd", "--toy"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "conclusive_probability_q" in proc.stdout
