"""Tests for the protocol simulation and attack analytics.

Monte Carlo checks use fixed seeds, so they are deterministic; the
statistical tolerances (4 standard errors) were sized against the
analytic values before freezing the seeds.  Every count field of a
report is also checked against its exact expectation, built from the
analysis record and the detection tables (5 standard errors plus one).
"""

from __future__ import annotations

import decimal
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockqkd.attack as attack_mod
from fockqkd.attack import (
    ATTACK_CONCLUSIVE,
    ATTACK_NONE,
    CONCLUSIVE_ATTACK,
    NO_ATTACK,
    AttackStrategy,
    ChannelModel,
    PhotonStats,
    ProtocolConfig,
    SimReport,
    analyze,
    bob_photon_distribution,
    critical_transmission,
    eve_conclusive_rate,
    honest_yield,
    multiphoton_stats,
    photon_stats_from_distribution,
    run_protocol_monte_carlo,
    signal_ensemble,
    yield_from_distribution,
)
from fockqkd.discrimination import ConsistencyError, usd_povm_equal
from fockqkd.fock import binomial_thinning, rotate_modes
from fockqkd.sources import (
    BASES,
    MEASUREMENT_ANGLE,
    ParameterError,
    SourceParams,
    ideal_signal_states,
)

ALPHA_SQ_01 = math.sqrt(0.1)


def wcp(alpha=ALPHA_SQ_01, order=2):
    return SourceParams(kind="wcp", amplitude=alpha, expansion_order=order)


def pdc(chi=0.1, order=2, eta=1.0):
    return SourceParams(
        kind="pdc", amplitude=chi, expansion_order=order, alice_detector_efficiency=eta
    )


# ----------------------------------------------------------- channel


def test_channel_loss_db_roundtrip():
    ch = ChannelModel(0.1)
    assert ch.loss_db == pytest.approx(10.0, abs=1e-12)
    back = ChannelModel.from_loss_db(10.0)
    assert back.transmission == pytest.approx(0.1, rel=1e-12)
    assert ChannelModel(1.0).loss_db == 0.0
    assert math.isinf(ChannelModel(0.0).loss_db)
    assert ChannelModel.from_loss_db(math.inf).transmission == 0.0


def test_channel_validation():
    with pytest.raises(ParameterError):
        ChannelModel(-0.1)
    with pytest.raises(ParameterError):
        ChannelModel(1.5)
    with pytest.raises(ParameterError):
        ChannelModel.from_loss_db(-1.0)


def test_attack_strategy_validation():
    assert NO_ATTACK.kind == ATTACK_NONE
    assert CONCLUSIVE_ATTACK.kind == ATTACK_CONCLUSIVE
    with pytest.raises(ParameterError):
        AttackStrategy("photon_number_splitting")


def test_protocol_config_validation():
    ch = ChannelModel(0.5)
    with pytest.raises(ParameterError):
        ProtocolConfig(source=wcp(), channel=ch, n_pulses=0, seed=1)
    with pytest.raises(ParameterError):
        ProtocolConfig(source=wcp(), channel=ch, n_pulses=10, seed=-1)
    with pytest.raises(ParameterError):
        ProtocolConfig(
            source=wcp(), channel=ch, n_pulses=10, seed=1, bob_detector_efficiency=0.0
        )


# ------------------------------------------------------------ yields


def test_yield_single_photon_is_transmission():
    assert yield_from_distribution([0.0, 1.0], 0.5) == pytest.approx(0.5, abs=1e-15)
    assert yield_from_distribution([0.0, 1.0], 0.3, eta_b=0.5) == pytest.approx(
        0.15, abs=1e-15
    )


@pytest.mark.parametrize("transmission, eta_b, fault", [
    (0.5, -0.5, "eta_b"),
    (0.5, 0.0, "eta_b"),
    (0.5, 1.5, "eta_b"),
    (0.5, math.nan, "eta_b"),
    (1.5, 1.0, "transmission"),
    (-0.2, 1.0, "transmission"),
    (math.nan, 1.0, "transmission"),
])
def test_yields_reject_impossible_efficiencies_and_transmissions(
    transmission, eta_b, fault
):
    dist = bob_photon_distribution(wcp(0.3))
    with pytest.raises(ParameterError, match=fault):
        yield_from_distribution(dist, transmission, eta_b)
    if fault == "eta_b":  # a ChannelModel rejects a bad transmission itself
        with pytest.raises(ParameterError, match=fault):
            honest_yield(wcp(0.3), ChannelModel(transmission), eta_b)


def test_wcp_honest_yield_is_one_minus_vacuum():
    source = wcp(0.3)
    dist = bob_photon_distribution(source)
    y = honest_yield(source, ChannelModel(1.0))
    assert y == pytest.approx(1.0 - dist[0], rel=1e-12)
    # the vacuum weight tracks 1 - alpha^2 up to the truncation order
    assert abs(y - 0.3**2) < 0.3**4


def test_pdc_honest_yield_no_vacuum_at_unit_transmission():
    source = pdc(1e-3)
    assert honest_yield(source, ChannelModel(1.0)) == pytest.approx(1.0, abs=1e-12)
    y = honest_yield(source, ChannelModel(0.25))
    # single-photon dominated: y ~ t with an O(chi^2) three-photon boost
    assert y == pytest.approx(0.25, rel=1e-5)
    assert y > 0.25


def test_wcp_yield_monotone_in_transmission():
    source = wcp()
    ys = [honest_yield(source, ChannelModel(t)) for t in np.linspace(0, 1, 8)]
    assert ys[0] == 0.0
    assert all(b > a for a, b in zip(ys, ys[1:]))


# ------------------------------------------------------- photon stats


def test_wcp_multiphoton_stats():
    alpha = 0.3
    st = multiphoton_stats(wcp(alpha))
    assert st.p0 == pytest.approx(0.906517903734811, rel=1e-12)
    assert abs(st.p0 - (1 - alpha**2)) < alpha**4
    # coherent-state ratios survive normalization
    assert st.p_multi / st.p1 == pytest.approx(alpha**2 / 2, rel=1e-12)
    assert st.p1 / st.p0 == pytest.approx(alpha**2 / (1 - alpha**2 / 2) ** 2, rel=1e-12)
    assert st.conditional_defined
    assert st.accepted is None


def test_pdc_multiphoton_stats():
    chi = 1e-3
    st = multiphoton_stats(pdc(chi))
    # multi-pair emission given any emission: chi^2/(1+chi^2)
    assert st.p_multi_conditional == pytest.approx(chi**2 / (1 + chi**2), rel=1e-12)
    assert st.p_multi_conditional == pytest.approx(1e-6, rel=0.2)
    assert st.accepted is not None
    assert st.accepted.p0 == 0.0
    assert st.accepted.p1 == pytest.approx(1.0, abs=1e-5)
    # heralded receiver arm holds 1 or 3 photons; never exactly 2
    dist = bob_photon_distribution(pdc(0.1))
    assert dist[2] == pytest.approx(0.0, abs=1e-15)
    assert dist[3] > 0


def test_vacuum_distribution_convention():
    st = photon_stats_from_distribution([1.0])
    assert st == PhotonStats(1.0, 0.0, 0.0, 0.0, conditional_defined=False)


# -------------------------------------------------- conclusive rate


def test_eve_rate_wcp_frozen_values():
    assert eve_conclusive_rate(wcp()) == pytest.approx(7.115440403364e-04, rel=1e-9)
    assert eve_conclusive_rate(wcp(0.3)) == pytest.approx(5.783835361421e-04, rel=1e-9)


def test_eve_rate_matches_povm_average():
    ens = signal_ensemble(wcp(0.3))
    povm = usd_povm_equal(ens)
    expected = float(np.dot(ens.priors, povm.conclusive_probabilities))
    assert eve_conclusive_rate(wcp(0.3)) == pytest.approx(expected, rel=1e-12)


def test_eve_rate_relative_to_single_photon_counts():
    # conclusive probability relative to the one-photon rate scales as
    # alpha^2 with a small constant
    for alpha in (0.2, 0.3):
        rate = eve_conclusive_rate(wcp(alpha))
        p1 = float(bob_photon_distribution(wcp(alpha))[1])
        assert 0.05 < (rate / p1) / alpha**2 < 0.09


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_eve_rate_pdc_is_zero(eta):
    assert eve_conclusive_rate(pdc(0.1, eta=eta)) == 0.0


def test_eve_rate_ideal_states_is_zero():
    assert eve_conclusive_rate(analyze(ideal_signal_states())) == 0.0


def test_signal_ensemble_priors():
    ens = signal_ensemble(wcp())
    assert len(ens) == 4
    assert np.allclose(ens.priors, 0.25)
    ens_pdc = signal_ensemble(pdc(0.1))
    assert len(ens_pdc) == 4
    assert sum(ens_pdc.priors) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------- one analysis record


@pytest.mark.parametrize(
    "source",
    [wcp(order=1), wcp(order=2), pdc(0.1, eta=1.0), pdc(0.1, eta=0.8)],
    ids=["wcp-1", "wcp-2", "pdc-eta1", "pdc-eta0.8"],
)
def test_analysis_record_gives_the_same_numbers(source):
    model = analyze(source)
    assert analyze(model) is model
    assert np.array_equal(bob_photon_distribution(source), bob_photon_distribution(model))
    channel = ChannelModel(0.3)
    assert honest_yield(source, channel, 0.7) == honest_yield(model, channel, 0.7)
    assert multiphoton_stats(source) == multiphoton_stats(model)
    assert signal_ensemble(source) == signal_ensemble(model)
    assert eve_conclusive_rate(source) == eve_conclusive_rate(model)
    for eta_b in (1.0, 0.6):
        assert critical_transmission(source, eta_b) == critical_transmission(model, eta_b)


def test_analysis_record_arrays_are_read_only():
    model = analyze(pdc(0.1, eta=0.8))
    assert len(model.heralding) == 2
    for arr in (model.labels, model.emission_probability, model.photon_distribution,
                model.emitted, *model.heralding[0]):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_analysis_of_the_ideal_catalog():
    model = analyze(ideal_signal_states())
    assert model.source is None
    assert list(model.labels) == [0, 1, 2, 3]
    assert model.heralding == ()
    assert list(model.emission_probability) == [1.0] * 4
    assert model.ensemble.priors == (0.25,) * 4
    # four single-photon states in a two-dimensional span
    assert model.conclusive is None
    stats = multiphoton_stats(model)
    assert (stats.p0, stats.p1, stats.p_multi) == (0.0, 1.0, 0.0)


def test_analysis_rejects_a_three_state_catalog():
    with pytest.raises(ParameterError):
        analyze(ideal_signal_states()[:3])


def test_protocol_config_reuses_a_pair_source_model(monkeypatch):
    calls = []
    measure = attack_mod.alice_measure
    monkeypatch.setattr(
        attack_mod, "alice_measure", lambda *args: calls.append(args) or measure(*args)
    )
    source = pdc(0.3, eta=0.8)
    model = analyze(source)
    attacks = (NO_ATTACK, CONCLUSIVE_ATTACK)
    by_model = [run(model, 0.5, 20_000, seed=12, attack=a) for a in attacks]
    # one sender measurement per basis, made by analyze; the runs add none
    assert len(calls) == 2
    assert by_model == [run(source, 0.5, 20_000, seed=12, attack=a) for a in attacks]


# ---------------------------------------------- critical transmission


def test_critical_transmission_frozen_value():
    t_star = critical_transmission(wcp())
    assert t_star == pytest.approx(6.519120e-03, abs=2e-6)
    fatal_loss = 1.0 - t_star
    assert fatal_loss == pytest.approx(0.993481, abs=2e-6)
    # the solver sits on the yield-matching root
    rate = eve_conclusive_rate(wcp())
    assert abs(honest_yield(wcp(), ChannelModel(t_star)) - rate) < 1e-7


@pytest.mark.parametrize("alpha_sq", [0.1, 0.01, 0.001])
def test_critical_transmission_relative_tolerance(alpha_sq):
    # the root must be as precise relative to t* when t* is small
    source = wcp(math.sqrt(alpha_sq))
    t_star = critical_transmission(source)
    rate = eve_conclusive_rate(source)
    assert honest_yield(source, ChannelModel(t_star)) == pytest.approx(
        rate, rel=1e-9
    )
    below = honest_yield(source, ChannelModel(t_star * (1 - 1e-9))) - rate
    above = honest_yield(source, ChannelModel(t_star * (1 + 1e-9))) - rate
    assert below < 0.0 < above


def test_critical_transmission_single_photon_regime():
    # when the yield is single-photon dominated, t* ~ rate/(p1 eta_B)
    source = wcp(0.1)
    for eta_b in (1.0, 0.5):
        rate = eve_conclusive_rate(source)
        p1 = float(bob_photon_distribution(source)[1])
        t_star = critical_transmission(source, eta_b=eta_b)
        approx = rate / (p1 * eta_b)
        assert t_star == pytest.approx(approx, rel=2e-2)
        assert t_star < approx  # multiphoton terms help the honest yield


def test_critical_transmission_monotone_in_amplitude():
    ts = [critical_transmission(wcp(a)) for a in (0.1, 0.2, 0.3)]
    assert ts[0] < ts[1] < ts[2]


def test_critical_transmission_pdc_has_no_threshold():
    assert critical_transmission(pdc(0.1)) is None
    assert critical_transmission(pdc(0.05, eta=0.7)) is None


@pytest.mark.parametrize("eta_b", [0.0, -0.5, 1.5, math.nan])
def test_critical_transmission_rejects_bad_eta_b(eta_b):
    for source in (wcp(), pdc(0.1)):
        with pytest.raises(ParameterError):
            critical_transmission(source, eta_b=eta_b)


def test_critical_transmission_saturates_at_one():
    # a detector bad enough that even lossless honest yield drops below
    # the conclusive rate
    assert critical_transmission(wcp(), eta_b=1e-3) == 1.0


def _reference_t_star(distribution, rate, eta_b):
    """Root of sum_n p_n (1 - (1 - t eta_b)^n) = rate in 60-digit decimal.

    The same float distribution and rate as the solver sees, bisected on
    [0, 1] to 1e-30 relative.  At 60 digits the cancellation in
    1 - (1 - s)^n costs a handful of digits, not the answer.  Stdlib only,
    so it shares no code with the package.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        probs = [decimal.Decimal(p) for p in distribution]
        target, eta = decimal.Decimal(rate), decimal.Decimal(eta_b)

        def honest(t):
            return sum(p * (1 - (1 - t * eta) ** n) for n, p in enumerate(probs))

        lo, hi = decimal.Decimal(0), decimal.Decimal(1)
        while hi - lo > hi * decimal.Decimal("1e-30"):
            mid = (lo + hi) / 2
            if honest(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize("eta_b", [1.0, 0.5])
@pytest.mark.parametrize("alpha_sq", [1e-5, 1e-4, 1e-3, 0.1])
def test_critical_transmission_matches_60_digit_reference(alpha_sq, eta_b):
    # at t* ~ 7e-7 the yield's 1 - (1 - s)^n must not cancel
    model = analyze(wcp(math.sqrt(alpha_sq)))
    ref = _reference_t_star(
        model.photon_distribution.tolist(), eve_conclusive_rate(model), eta_b
    )
    assert critical_transmission(model, eta_b) == pytest.approx(ref, rel=1e-12, abs=0)


def test_critical_transmission_gives_up_after_100_steps(monkeypatch):
    # a yield 1000 times flatter than the slope Newton's method assumes: the
    # steps stay near 7e-5 and never meet the stopping rule
    exact = attack_mod.yield_from_distribution
    monkeypatch.setattr(
        attack_mod, "yield_from_distribution", lambda *args: 1e-3 * exact(*args)
    )
    with pytest.raises(ConsistencyError, match="100 steps"):
        critical_transmission(wcp(math.sqrt(1e-3)))


# ------------------------------------------------------- Monte Carlo


def run(source, t, n, seed, attack=NO_ATTACK, eta_b=1.0, catalog=None):
    config = ProtocolConfig(
        source=source if catalog is None else analyze(catalog),
        channel=ChannelModel(t),
        n_pulses=n,
        seed=seed,
        bob_detector_efficiency=eta_b,
    )
    return run_protocol_monte_carlo(config, attack)


def test_mc_ideal_single_photon_loss_statistics():
    rep = run(wcp(), 0.1, 10**5, seed=2024, catalog=ideal_signal_states())
    sigma = math.sqrt(0.1 * 0.9 / 10**5)
    assert abs(rep.detection_yield - 0.1) < 4 * sigma
    assert rep.qber == 0.0
    assert rep.double_clicks == 0
    assert rep.alice_accepted == rep.pulses_sent


@pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
@pytest.mark.parametrize(
    "source", [wcp(), wcp(0.3), pdc(0.1)], ids=["wcp-weak", "wcp-strong", "pdc"]
)
def test_mc_honest_yield_matches_analytic(source, t):
    rep = run(source, t, 10**5, seed=777)
    expected = honest_yield(source, ChannelModel(t))
    sigma = math.sqrt(expected * (1 - expected) / max(rep.alice_accepted, 1))
    assert abs(rep.detection_yield - expected) < 4 * sigma
    assert rep.eve_conclusive_count == 0
    assert rep.eve_known_fraction_of_sifted == 0.0
    assert not rep.attack_unavailable


def test_mc_wcp_honest_qber_is_zero():
    rep = run(wcp(0.3), 0.8, 10**5, seed=5)
    assert rep.sifted_bits > 0
    assert rep.qber == 0.0


def test_mc_pdc_honest_small_qber_and_conditioning():
    rep = run(pdc(0.1), 0.5, 10**6, seed=7)
    # conditioned on heralding, the receiver sees nearly ideal photons
    assert rep.qber < 0.01
    acceptance = rep.alice_accepted / rep.pulses_sent
    assert acceptance == pytest.approx(0.005, rel=0.1)
    assert rep.unconditioned_yield == pytest.approx(
        rep.detection_yield * acceptance, rel=1e-9
    )


def test_mc_attacked_at_half_threshold():
    source = wcp()
    t_star = critical_transmission(source)
    rep = run(source, 0.5 * t_star, 10**6, seed=99, attack=CONCLUSIVE_ATTACK)
    assert rep.qber <= 0.001
    assert rep.detection_yield >= honest_yield(source, ChannelModel(0.5 * t_star))
    assert rep.eve_known_fraction_of_sifted == 1.0
    rate = eve_conclusive_rate(source)
    sigma = math.sqrt(rate * (1 - rate) / 10**6)
    assert abs(rep.eve_conclusive_count / 10**6 - rate) < 4 * sigma
    assert rep.attack_kind == ATTACK_CONCLUSIVE
    assert not rep.attack_unavailable


def test_mc_attacked_pdc_reports_immunity():
    rep_attacked = run(pdc(0.1), 0.5, 10**5, seed=31, attack=CONCLUSIVE_ATTACK)
    rep_honest = run(pdc(0.1), 0.5, 10**5, seed=31)
    assert rep_attacked.attack_unavailable
    assert rep_attacked.eve_conclusive_count == 0
    assert rep_attacked.eve_known_fraction_of_sifted == 0.0
    # with the attack unavailable the run falls back to honest dynamics,
    # and the per-pulse stream layout makes it bitwise identical
    assert rep_attacked.detection_yield == rep_honest.detection_yield
    assert rep_attacked.sifted_bits == rep_honest.sifted_bits


def test_mc_attack_on_ideal_catalog_unavailable():
    rep = run(
        wcp(), 0.5, 10**4, seed=8, attack=CONCLUSIVE_ATTACK,
        catalog=ideal_signal_states(),
    )
    assert rep.attack_unavailable
    assert rep.eve_conclusive_count == 0


def test_mc_reports_bitwise_reproducible():
    a = run(wcp(0.3), 0.4, 10**4, seed=123)
    b = run(wcp(0.3), 0.4, 10**4, seed=123)
    assert a == b
    c = run(wcp(0.3), 0.4, 10**4, seed=124)
    assert c != a


def test_mc_chunking_invariance(monkeypatch):
    cfg_kwargs = dict(source=wcp(0.3), t=0.4, n=2500, seed=11)
    base = run(**cfg_kwargs)
    monkeypatch.setattr(attack_mod, "_CHUNK", 1000)
    chunked = run(**cfg_kwargs)
    assert chunked == base


# Complete reports recorded once and frozen: the draw layout promises that a
# (seed, pulse index) pair always sees the same stream positions, so any
# rewrite of the pulse loop must reproduce these exactly.  They were last
# recorded when the layout went from seven draws per pulse to five, after
# the new stream passed the exact-expectation tests below.  Each row is
# (source, transmission, n_pulses, seed, attack, eta_b, catalog, chunk,
# report fields in SimReport order).
_FROZEN_RUNS = [
    (wcp(0.3), 0.9, 30_000, 1, NO_ATTACK, 1.0, None, None,
     (30000, 30000, 2488, 0.08293333333333333, 0.08293333333333333, 1271, 0,
      0.0, 33, 0, 0.0, ATTACK_NONE, False)),
    (wcp(0.3), 3e-3, 200_000, 2, CONCLUSIVE_ATTACK, 1.0, None, None,
     (200000, 200000, 112, 0.00056, 0.00056, 51, 0, 0.0, 0, 112, 1.0,
      ATTACK_CONCLUSIVE, False)),
    (wcp(0.3), 0.5, 30_000, 3, NO_ATTACK, 0.7, None, None,
     (30000, 30000, 964, 0.03213333333333333, 0.03213333333333333, 491, 0,
      0.0, 7, 0, 0.0, ATTACK_NONE, False)),
    (wcp(0.3), 3e-3, 200_000, 4, CONCLUSIVE_ATTACK, 0.7, None, None,
     (200000, 200000, 82, 0.00041, 0.00041, 40, 0, 0.0, 0, 124, 1.0,
      ATTACK_CONCLUSIVE, False)),
    (pdc(0.3), 0.5, 100_000, 5, NO_ATTACK, 1.0, None, None,
     (100000, 4613, 2368, 0.5133318881422068, 0.02368, 1197, 12,
      0.010025062656641603, 61, 0, 0.0, ATTACK_NONE, False)),
    (pdc(0.3, eta=0.8), 0.5, 100_000, 6, NO_ATTACK, 1.0, None, None,
     (100000, 4542, 1961, 0.43174812857771905, 0.01961, 986, 17,
      0.017241379310344827, 44, 0, 0.0, ATTACK_NONE, False)),
    (pdc(0.3), 0.5, 100_000, 7, CONCLUSIVE_ATTACK, 1.0, None, None,
     (100000, 4732, 2378, 0.5025359256128487, 0.02378, 1203, 13,
      0.010806317539484621, 46, 0, 0.0, ATTACK_CONCLUSIVE, True)),
    (pdc(0.3, eta=0.8), 0.5, 100_000, 8, CONCLUSIVE_ATTACK, 0.9, None, None,
     (100000, 4688, 1839, 0.392278156996587, 0.01839, 922, 16,
      0.01735357917570499, 44, 0, 0.0, ATTACK_CONCLUSIVE, True)),
    (wcp(), 0.4, 30_000, 9, CONCLUSIVE_ATTACK, 1.0, ideal_signal_states(), None,
     (30000, 30000, 11803, 0.39343333333333336, 0.39343333333333336, 5969, 0,
      0.0, 0, 0, 0.0, ATTACK_CONCLUSIVE, True)),
    (wcp(0.9), 0.2, 4321, 10, CONCLUSIVE_ATTACK, 1.0, None, 1000,
     (4321, 4321, 118, 0.027308493404304558, 0.027308493404304558, 52, 0,
      0.0, 0, 118, 1.0, ATTACK_CONCLUSIVE, False)),
    (pdc(0.3, eta=0.8), 0.7, 4321, 11, NO_ATTACK, 1.0, None, 1000,
     (4321, 199, 128, 0.6432160804020101, 0.02962277250636427, 64, 1, 0.015625,
      0, 0, 0.0, ATTACK_NONE, False)),
]


def test_mc_reports_frozen_stream(monkeypatch):
    mismatches = []
    for i, (source, t, n, seed, attack, eta_b, catalog, chunk, fields) in (
        enumerate(_FROZEN_RUNS)
    ):
        monkeypatch.setattr(attack_mod, "_CHUNK", chunk or attack_mod._CHUNK)
        rep = run(source, t, n, seed, attack=attack, eta_b=eta_b, catalog=catalog)
        monkeypatch.undo()
        if rep != SimReport(*fields):
            mismatches.append((i, rep))
    assert mismatches == []


def test_mc_eta_b_scales_yield():
    rep_full = run(wcp(), 0.5, 10**5, seed=44)
    rep_half = run(wcp(), 0.5, 10**5, seed=44, eta_b=0.5)
    expected_half = honest_yield(wcp(), ChannelModel(0.5), eta_b=0.5)
    sigma = math.sqrt(expected_half / 10**5)
    assert abs(rep_half.detection_yield - expected_half) < 4 * sigma
    assert rep_half.detection_yield < rep_full.detection_yield


# ------------------------------------------ exact expectation of a run

_COUNT_FIELDS = ("alice_accepted", "bob_detections", "sifted_bits", "sifted_errors",
                 "double_clicks", "eve_conclusive_count")


def _expected_counts(model, t, n, attack, eta_b):
    """Exact expected value of each SimReport count field over n pulses.

    Built from the analysis record and the detection tables, never from the
    sampler's tally: every keyed-CDF entry is expected n·P(table)·p(entry)
    times, and each entry is sorted into the fields by its detected
    pattern, the sender's label and the receiver's basis.  Every field
    counts at most one event per pulse, so each is binomial over n.
    """
    # probability per pulse sent of each ensemble state: the sender's basis
    # (1/2), then her bit (1/2) or her heralding branch, normalised per basis
    if model.heralding:
        p_state = np.zeros(len(model.labels))
        for weights, index in model.heralding:
            for w, i in zip(weights / weights.sum(), index):
                if i >= 0:
                    p_state[i] += 0.5 * w
    else:
        p_state = np.full(4, 0.25)
    conclusive = model.conclusive if attack.kind == ATTACK_CONCLUSIVE else None
    if conclusive is None:
        states, survival = model.ensemble.states, t * eta_b
        p_sent, label_of = p_state, model.labels
        eve = 0.0
    else:
        # only conclusive pulses go on, as the ideal state of their label
        states, survival = [mq.state for mq in ideal_signal_states()], eta_b
        p_sent = np.bincount(model.labels, p_state * conclusive, minlength=4)
        label_of = np.arange(4)
        eve = n * float(p_sent.sum())
    patterns, table, cum = attack_mod._detection_tables(states, survival)
    starts = np.flatnonzero(np.r_[True, table[1:] != table[:-1]])
    p_entry = np.diff(cum, prepend=0.0)
    p_entry[starts] = cum[starts]
    expected = dict.fromkeys(_COUNT_FIELDS, 0.0)
    expected["alice_accepted"] = n * float(p_state.sum())
    expected["eve_conclusive_count"] = eve
    for (clicks_v, clicks_h), k, p in zip(patterns, table, p_entry):
        e = n * p_sent[k // 2] * 0.5 * p  # the receiver's basis: 1/2
        label = label_of[k // 2]
        if clicks_v and clicks_h:
            expected["double_clicks"] += e
        elif clicks_v or clicks_h:
            expected["bob_detections"] += e
            if label >> 1 == k % 2:  # sender's basis == receiver's basis
                expected["sifted_bits"] += e
                # a lone V click reads bit 0, a lone H click bit 1
                if int(clicks_h > 0) != label & 1:
                    expected["sifted_errors"] += e
    return expected


def _assert_report_matches_expectation(rep, model, t, n, attack, eta_b):
    expected = _expected_counts(model, t, n, attack, eta_b)
    for field, mean in expected.items():
        count, p = getattr(rep, field), mean / n
        if p == 0.0:
            assert count == 0, field
        else:
            sigma = math.sqrt(n * p * max(1.0 - p, 0.0))
            assert abs(count - mean) <= 5 * sigma + 1, (field, count, mean)
    # the remaining fields follow from the counts and the attack
    unavailable = attack.kind == ATTACK_CONCLUSIVE and model.conclusive is None
    acc, det, sifted = rep.alice_accepted, rep.bob_detections, rep.sifted_bits
    assert rep.pulses_sent == n
    assert rep.detection_yield == (det / acc if acc else 0.0)
    assert rep.unconditioned_yield == det / n
    assert rep.qber == (rep.sifted_errors / sifted if sifted else 0.0)
    attacked = attack.kind == ATTACK_CONCLUSIVE and not unavailable
    assert rep.eve_known_fraction_of_sifted == (1.0 if attacked and sifted else 0.0)
    assert (rep.attack_kind, rep.attack_unavailable) == (attack.kind, unavailable)


_ORACLE_SOURCES = {
    "wcp-0.3-1": lambda: wcp(0.3, order=1),
    "wcp-0.3-2": lambda: wcp(0.3),
    "wcp-a0.1-1": lambda: wcp(order=1),
    "wcp-a0.1-2": lambda: wcp(),
    "pdc-0.1-eta1": lambda: pdc(0.1),
    "pdc-0.1-eta0.8": lambda: pdc(0.1, eta=0.8),
    "pdc-0.3-eta1": lambda: pdc(0.3),
    "pdc-0.3-eta0.8": lambda: pdc(0.3, eta=0.8),
    "ideal": ideal_signal_states,
}


@functools.cache
def _oracle_model(name):
    return analyze(_ORACLE_SOURCES[name]())


@pytest.mark.parametrize("eta_b", [1.0, 0.7])
@pytest.mark.parametrize("t", [3e-3, 0.5, 0.9])
@pytest.mark.parametrize("attack", [NO_ATTACK, CONCLUSIVE_ATTACK], ids=["honest", "attacked"])
@pytest.mark.parametrize("name", list(_ORACLE_SOURCES))
def test_mc_counts_match_their_exact_expectation(name, attack, t, eta_b):
    model = _oracle_model(name)
    n = 200_000
    seed = 1000 + 100 * list(_ORACLE_SOURCES).index(name) + int(1000 * t) + int(10 * eta_b)
    rep = run(model, t, n, seed, attack=attack, eta_b=eta_b)
    _assert_report_matches_expectation(rep, model, t, n, attack, eta_b)


def test_mc_counts_match_their_exact_expectation_in_small_chunks(monkeypatch):
    monkeypatch.setattr(attack_mod, "_CHUNK", 1000)
    for name, attack in [("pdc-0.3-eta0.8", NO_ATTACK), ("wcp-0.3-2", CONCLUSIVE_ATTACK)]:
        model = _oracle_model(name)
        rep = run(model, 0.5, 25_000, seed=17, attack=attack, eta_b=0.7)
        _assert_report_matches_expectation(rep, model, 0.5, 25_000, attack, 0.7)


@pytest.mark.parametrize("eta_b", [1.0, 0.7])
@pytest.mark.parametrize("t", [3e-3, 0.5, 0.9])
@pytest.mark.parametrize("name", list(_ORACLE_SOURCES))
def test_expected_counts_agree_with_the_analytic_yields(name, t, eta_b):
    model = _oracle_model(name)
    honest = _expected_counts(model, t, 1, NO_ATTACK, eta_b)
    clicks = honest["bob_detections"] + honest["double_clicks"]
    assert clicks / honest["alice_accepted"] == pytest.approx(
        honest_yield(model, ChannelModel(t), eta_b), rel=1e-12
    )
    attacked = _expected_counts(model, t, 1, CONCLUSIVE_ATTACK, eta_b)
    if model.conclusive is None:  # the attack is unavailable: honest dynamics
        assert attacked == honest
        return
    clicks = attacked["bob_detections"] + attacked["double_clicks"]
    assert clicks == pytest.approx(eve_conclusive_rate(model) * eta_b, rel=1e-12)


# ------------------------------------------------- exact CDF lookup

_GRID = 2.0**-53  # Generator.random returns multiples of this

_cum_entry = st.one_of(
    st.integers(0, 2**53).map(lambda i: i * _GRID),  # on the draw grid
    st.floats(0.0, 1.0),
    st.sampled_from([5e-324, 1e-300, 1e-300 + 1e-316, 2.0**-1022, 1.0 - _GRID]),
)
# a cumulative sum may end a rounding step off 1; the lookup treats the last
# entry as exactly 1, which is what clamping the per-table search does
def _as_cdf(entries_and_last):
    entries, last = entries_and_last
    return np.array(sorted(min(x, last) for x in entries) + [last])


def _keyed_cdf(cdfs):
    """The keyed search array over a list of per-table CDFs."""
    sizes = [len(cum) for cum in cdfs]
    return attack_mod._keyed_cdf(np.concatenate(cdfs), np.repeat(np.arange(len(cdfs)), sizes))


_cdf = st.tuples(
    st.lists(_cum_entry, max_size=6),
    st.sampled_from([1.0, 1.0 - _GRID, 1.0 + 2 * _GRID]),
).map(_as_cdf)


@settings(max_examples=300, deadline=None)
@given(cdfs=st.lists(_cdf, min_size=1, max_size=5), seed=st.integers(0, 2**32))
def test_keyed_cdf_lookup_matches_per_table_search(cdfs, seed):
    # duplicate one table's first entry to get repeated cum values
    cdfs[0] = np.concatenate([cdfs[0][:1], cdfs[0]])
    icdf = _keyed_cdf(cdfs)
    offsets = np.cumsum([0] + [len(c) for c in cdfs])
    for k, cum in enumerate(cdfs):
        # boundary draws: 0, the largest draw, and the grid points on
        # either side of every entry (the entry itself when on the grid)
        edges = np.concatenate([np.floor(cum / _GRID), np.ceil(cum / _GRID)]) * _GRID
        draws = np.concatenate([
            [0.0, 1.0 - _GRID],
            edges[edges < 1.0],
            np.random.Generator(np.random.Philox(key=seed)).random(64),
        ])
        got = attack_mod._lookup(icdf, draws, np.full(len(draws), k)) - offsets[k]
        want = np.minimum(np.searchsorted(cum, draws, "right"), len(cum) - 1)
        np.testing.assert_array_equal(got, want)


def test_keyed_cdf_table_limit():
    one = np.array([1.0])
    with pytest.raises(ParameterError):
        _keyed_cdf([one] * 1024)
    icdf = _keyed_cdf([one] * 1023)
    assert np.all(np.diff(icdf) > 0)
    draws = np.array([0.0, 1.0 - _GRID])
    assert list(attack_mod._lookup(icdf, draws, np.array([1022, 1022]))) == [1022] * 2


@pytest.mark.parametrize("key", [0, 1, 2**32, 2**64 - 1])
def test_philox_draws_lie_on_the_exact_grid(key):
    # the exact lookup relies on every draw being a multiple of 2**-53
    u = np.random.Generator(np.random.Philox(key=key)).random(100_000)
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))
    assert u.min() >= 0.0 and u.max() < 1.0


def test_sim_report_rejects_inconsistent_counts():
    with pytest.raises(ParameterError):
        SimReport(
            pulses_sent=10,
            alice_accepted=11,  # more accepted than sent
            bob_detections=1,
            detection_yield=0.1,
            unconditioned_yield=0.1,
            sifted_bits=0,
            sifted_errors=0,
            qber=0.0,
            double_clicks=0,
            eve_conclusive_count=0,
            eve_known_fraction_of_sifted=0.0,
            attack_kind=ATTACK_NONE,
            attack_unavailable=False,
        )


# ------------------------------------------- batched detection tables


def _reference_table(state, basis, survival):
    """One table the per-state way: rotate the state, then thin each
    rotated pattern's counts."""
    rotated = rotate_modes(state, 0, 1, MEASUREMENT_ANGLE[basis])
    nsq = rotated.norm_sq()
    acc = {}
    for counts, amp in rotated.items():
        w = abs(amp) ** 2 / nsq
        for key, prob in binomial_thinning(counts, survival):
            acc[key] = acc.get(key, 0.0) + w * prob
    patterns = sorted(acc)
    return patterns, np.cumsum([acc[p] for p in patterns])


_SENT = {
    "wcp-1": lambda: analyze(wcp(order=1)).ensemble.states,
    "wcp-2": lambda: analyze(wcp()).ensemble.states,
    "pdc-eta1": lambda: analyze(pdc()).ensemble.states,
    "pdc-eta0.8": lambda: analyze(pdc(eta=0.8)).ensemble.states,
    "pdc-eta0.5": lambda: analyze(pdc(eta=0.5)).ensemble.states,
    # the resend states are the ideal catalog's kets
    "ideal-and-resend": lambda: [mq.state for mq in ideal_signal_states()],
}


@pytest.mark.parametrize("survival", [0.0, 1e-3, 0.37, 1.0])
@pytest.mark.parametrize("sent", list(_SENT))
def test_batched_tables_match_the_per_state_reference(sent, survival):
    states = _SENT[sent]()
    patterns, table, cum = attack_mod._detection_tables(states, survival)
    assert list(np.unique(table)) == list(range(2 * len(states)))
    assert np.all(np.diff(table) >= 0)
    for i, state in enumerate(states):
        for b, basis in enumerate(BASES):
            want_patterns, want_cum = _reference_table(state, basis, survival)
            rows = table == 2 * i + b
            assert [tuple(p) for p in patterns[rows]] == want_patterns
            np.testing.assert_allclose(cum[rows], want_cum, rtol=0, atol=1e-15)
