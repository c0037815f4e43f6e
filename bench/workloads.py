"""The four benchmark workloads: seeded inputs, one operation per input,
and the check every operation's output must pass.

An operation ("op") is one ``run_protocol_monte_carlo`` call or one
in-process ``fockqkd.cli.main([...])`` invocation with stdout captured in
memory.  Inputs are drawn from the workload seed only; the library receives
nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from fockqkd import attack, cli
from fockqkd.attack import (
    CONCLUSIVE_ATTACK,
    NO_ATTACK,
    ChannelModel,
    ProtocolConfig,
    eve_conclusive_rate,
    honest_yield,
)
from fockqkd.sources import SourceParams

# The threshold CSV header, written out here rather than imported so that a
# change to the program's columns shows up as a failed check.
THRESHOLD_HEADER = [
    "source", "amplitude", "order", "eta_alice", "eta_bob", "p1",
    "p_multi_cond", "conclusive_rate", "t_star", "fatal_loss_percent",
    "fatal_loss_db",
]
THRESHOLD_ETA_BOB = (1.0, 0.8, 0.5)
# critical_transmission documents brentq with an absolute xtol of 1e-6.
T_STAR_XTOL = 1e-6
N_SIGMA = 5.0

LONG_PULSES = 2_000_000
SHORT_PULSES = 20_000
WCP_ALPHA = math.sqrt(0.1)  # mean photon number 0.1
HONEST_T = 0.5
ATTACKED_T = 3.0e-3  # below t* ~ 6.519e-3 at mean photon number 0.1


@dataclass(frozen=True)
class Op:
    """One operation's inputs, as the library or the CLI receives them."""

    index: int
    argv: tuple[str, ...] | None = None  # CLI ops
    config: ProtocolConfig | None = None  # direct Monte Carlo ops
    attack: bool = False

    @property
    def n_pulses(self) -> int:
        if self.config is not None:
            return self.config.n_pulses
        if self.argv is not None and self.argv[0] == "simulate":
            return int(_flag(self.argv, "--pulses"))
        return 0


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _num(x: float) -> str:
    return repr(float(x))


def _yield_ok(hits: int, n: int, p: float) -> bool:
    """Binomial count within N_SIGMA standard deviations of n*p.

    One count of slack is added: with few trials and p near 0 or 1 the
    standard deviation falls below one count, where a normal-approximation
    test would reject ordinary outcomes.
    """
    if n == 0:
        return True
    return abs(hits - n * p) <= N_SIGMA * math.sqrt(n * p * (1.0 - p)) + 1.0


def check_report(report: dict, source: SourceParams, t: float, eta_b: float,
                 attacked: bool) -> str | None:
    """Check one Monte Carlo report (the ``SimReport`` fields) against the
    analytic expectations.  Returns a failure message, or None."""
    n = report["alice_accepted"]
    # honest_yield is the probability of any click; the report's
    # detection_yield drops double clicks, so they are added back here.
    clicks = report["bob_detections"] + report["double_clicks"]
    attack_live = attacked and not report["attack_unavailable"]
    if attacked and source.kind == "pdc" and not report["attack_unavailable"]:
        return "pair source: conclusive attack not reported unavailable"
    if attack_live:
        expected = eve_conclusive_rate(source) * eta_b
        if report["qber"] != 0.0:
            return f"attacked qber {report['qber']} != 0"
        if report["sifted_bits"] > 0 and report["eve_known_fraction_of_sifted"] != 1.0:
            return "attacked run: eve does not know every sifted bit"
    else:
        expected = honest_yield(source, ChannelModel(t), eta_b)
    if not _yield_ok(clicks, n, expected):
        return f"yield {clicks}/{n} not within {N_SIGMA} sigma of {expected:.6g}"
    return None


def _report_fields(report) -> dict:
    return {k: getattr(report, k) for k in report.__dataclass_fields__}


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """Base: ``inputs`` holds seeded arrays; ``op(i)`` builds the i-th op."""

    name = ""
    why = ""
    n_inputs = 0  # distinct timed inputs; a longer run would cycle them
    n_warmup = 1  # extra inputs run untimed before measuring
    trace_ops = 0  # ops in the traced pass (fixed, so counts repeat)
    monte_carlo = False
    streams_memory = False  # ops stream large arrays (see run.ReferenceKernel)

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make_inputs(np.random.default_rng(seed))

    def make_inputs(self, rng) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.inputs):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.inputs[key]).tobytes())
        return h.hexdigest()

    def op(self, i: int) -> Op:
        """Timed op i; indices from ``n_inputs`` on are the warm-up ops."""
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return [self.op(self.n_inputs + k) for k in range(self.n_warmup)]

    def timed_op(self, i: int) -> Op:
        return self.op(i % self.n_inputs)

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        raise NotImplementedError

    def output_bytes(self, output) -> bytes:
        raise NotImplementedError

    def mc_setting(self, op: Op) -> tuple[ProtocolConfig, object] | None:
        """The (config, attack) an op hands the Monte Carlo, if any."""
        return None


class _LongMonteCarlo(Workload):
    transmission = 0.0
    attacked = False
    n_inputs = 512
    trace_ops = 3
    monte_carlo = True
    streams_memory = True

    def make_inputs(self, rng):
        total = self.n_inputs + self.n_warmup
        return {"philox_seed": rng.integers(0, 2**63, size=total, dtype=np.uint64)}

    def op(self, i):
        config = ProtocolConfig(
            source=SourceParams(kind="wcp", amplitude=WCP_ALPHA),
            channel=ChannelModel(self.transmission),
            n_pulses=LONG_PULSES,
            seed=int(self.inputs["philox_seed"][i]),
        )
        return Op(index=i, config=config, attack=self.attacked)

    def run(self, op):
        # looked up on the module at call time, so a traced run sees it
        return attack.run_protocol_monte_carlo(*self.mc_setting(op))

    def check(self, op, output):
        c = op.config
        return check_report(_report_fields(output), c.source,
                            c.channel.transmission,
                            c.bob_detector_efficiency, op.attack)

    def output_bytes(self, output):
        return repr(sorted(_report_fields(output).items())).encode()

    def mc_setting(self, op):
        return op.config, (CONCLUSIVE_ATTACK if op.attack else NO_ATTACK)


class McHonest(_LongMonteCarlo):
    name = "mc-honest"
    why = ("long honest wcp runs at t=0.5: Philox draws, the mask sampler "
           "and the tally dominate; where sampler and draw-layout changes show")
    transmission = HONEST_T


class McAttacked(_LongMonteCarlo):
    name = "mc-attacked"
    why = ("long attacked wcp runs at t=3e-3: Eve's conclusive draw decides "
           "most pulses, so a sampler-only gain must leave it flat")
    transmission = ATTACKED_T
    attacked = True


class McShort(Workload):
    name = "mc-short"
    why = ("hundreds of 20k-pulse pdc simulate calls via the CLI: per-run "
           "heralding, detection tables and the Gram refusal dominate")
    n_inputs = 16384
    n_warmup = 4
    trace_ops = 16
    monte_carlo = True

    def make_inputs(self, rng):
        total = self.n_inputs + self.n_warmup
        return {
            "chi": rng.uniform(0.05, 0.15, size=total),
            "transmission": rng.uniform(0.05, 1.0, size=total),
            "philox_seed": rng.integers(0, 2**63, size=total, dtype=np.uint64),
        }

    def op(self, i):
        # attack alternates op by op, eta_A every two ops: each block of
        # four ops covers all four combinations
        attacked = i % 2 == 1
        eta_a = 1.0 if (i // 2) % 2 == 0 else 0.8
        argv = (
            "simulate", "--source", "pdc",
            "--chi", _num(self.inputs["chi"][i]),
            "--eta-alice", _num(eta_a),
            "--transmission", _num(self.inputs["transmission"][i]),
            "--pulses", str(SHORT_PULSES),
            "--seed", str(int(self.inputs["philox_seed"][i])),
            "--attack", cli.ATTACK_CONCLUSIVE if attacked else cli.ATTACK_NONE,
        )
        return Op(index=i, argv=argv, attack=attacked)

    def _source(self, op):
        return SourceParams(
            kind="pdc",
            amplitude=float(_flag(op.argv, "--chi")),
            alice_detector_efficiency=float(_flag(op.argv, "--eta-alice")),
        )

    def run(self, op):
        return _run_cli(op.argv)

    def check(self, op, output):
        rc, out, err = output
        if rc != 0:
            return f"exit code {rc}: {err.strip()}"
        try:
            report = json.loads(out)["report"]
        except (ValueError, KeyError) as exc:
            return f"unparseable simulate output: {exc}"
        return check_report(report, self._source(op),
                            float(_flag(op.argv, "--transmission")), 1.0,
                            op.attack)

    def output_bytes(self, output):
        return repr(output[:2]).encode()

    def mc_setting(self, op):
        config = ProtocolConfig(
            source=self._source(op),
            channel=ChannelModel(float(_flag(op.argv, "--transmission"))),
            n_pulses=op.n_pulses,
            seed=int(_flag(op.argv, "--seed")),
        )
        return config, (CONCLUSIVE_ATTACK if op.attack else NO_ATTACK)


class Threshold(Workload):
    name = "threshold"
    why = ("threshold sweeps, 2 wcp per pdc, 3 eta_B each: p50 tracks the wcp "
           "analytic path, p90 the pdc heralding; no pulse loop")
    n_inputs = 32768
    n_warmup = 6
    trace_ops = 24

    def make_inputs(self, rng):
        total = self.n_inputs + self.n_warmup
        return {
            "alpha_sq": rng.uniform(0.005, 0.2, size=total),
            "chi": rng.uniform(0.01, 0.2, size=total),
        }

    def op(self, i):
        etas_b = ",".join(_num(e) for e in THRESHOLD_ETA_BOB)
        if i % 3 != 2:
            amp = math.sqrt(self.inputs["alpha_sq"][i])
            argv = ("threshold", "--source", "wcp", "--alpha", _num(amp),
                    "--eta-bob", etas_b)
        else:
            eta_a = 1.0 if (i // 3) % 2 == 0 else 0.8
            argv = ("threshold", "--source", "pdc",
                    "--chi", _num(self.inputs["chi"][i]),
                    "--eta-alice", _num(eta_a), "--eta-bob", etas_b)
        return Op(index=i, argv=argv)

    def run(self, op):
        return _run_cli(op.argv)

    def check(self, op, output):
        rc, out, err = output
        if rc != 0:
            return f"exit code {rc}: {err.strip()}"
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != THRESHOLD_HEADER:
            return "threshold header differs from the fixed columns"
        rows = [dict(zip(THRESHOLD_HEADER, r)) for r in rows[1:]]
        if len(rows) != len(THRESHOLD_ETA_BOB):
            return f"{len(rows)} rows for {len(THRESHOLD_ETA_BOB)} grid points"
        for row in rows:
            if any(v == "error" or "nan" in v for v in row.values()):
                return f"error or nan cell in row {row}"
            if row["source"] == "pdc":
                if float(row["conclusive_rate"]) != 0.0 or row["t_star"] != "none":
                    return f"pair-source row not immune: {row}"
                continue
            problem = _check_t_star(row)
            if problem:
                return problem
        return None

    def output_bytes(self, output):
        return repr(output[:2]).encode()


def _check_t_star(row: dict) -> str | None:
    """The root of honest_yield(t) = conclusive_rate lies within the
    documented xtol of the reported t*.

    honest_yield rises with t, so a sign change of honest_yield - rate
    across [t* - xtol, t* + xtol] certifies the root inside that interval,
    which is what a bisection run to the same tolerance establishes.
    """
    if row["t_star"] == "none":
        return f"wcp row without t_star: {row}"
    t_star = float(row["t_star"])
    rate = float(row["conclusive_rate"])
    source = SourceParams(kind="wcp", amplitude=float(row["amplitude"]))
    eta_b = float(row["eta_bob"])
    lo = max(0.0, t_star - T_STAR_XTOL)
    hi = min(1.0, t_star + T_STAR_XTOL)
    if not (honest_yield(source, ChannelModel(lo), eta_b) <= rate
            <= honest_yield(source, ChannelModel(hi), eta_b)):
        return f"t_star {t_star} not within {T_STAR_XTOL} of the root (rate {rate})"
    return None


WORKLOADS = {w.name: w for w in (McHonest, McAttacked, McShort, Threshold)}
