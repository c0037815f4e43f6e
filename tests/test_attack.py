"""Tests for the protocol simulation and attack analytics.

Monte Carlo checks use fixed seeds, so they are deterministic; the
statistical tolerances (4 standard errors) were sized against the
analytic values before freezing the seeds.
"""

from __future__ import annotations

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
from fockqkd.discrimination import StateEnsemble, usd_povm_equal
from fockqkd.sources import ParameterError, SourceParams, ideal_signal_states

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
        ChannelModel(0.5, loss_db=5.0)  # should be ~3.0103
    ChannelModel(0.5, loss_db=10.0 * math.log10(2.0))  # consistent: fine
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
    ens = StateEnsemble([mq.state for mq in ideal_signal_states()])
    assert eve_conclusive_rate(wcp(), ensemble=ens) == 0.0


def test_signal_ensemble_priors():
    ens = signal_ensemble(wcp())
    assert len(ens) == 4
    assert np.allclose(ens.priors, 0.25)
    ens_pdc = signal_ensemble(pdc(0.1))
    assert len(ens_pdc) == 4
    assert sum(ens_pdc.priors) == pytest.approx(1.0, abs=1e-12)


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


# ------------------------------------------------------- Monte Carlo


def run(source, t, n, seed, attack=NO_ATTACK, eta_b=1.0, catalog=None):
    config = ProtocolConfig(
        source=source,
        channel=ChannelModel(t),
        n_pulses=n,
        seed=seed,
        bob_detector_efficiency=eta_b,
    )
    return run_protocol_monte_carlo(config, attack, signal_catalog=catalog)


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
# rewrite of the pulse loop must reproduce these exactly.  Each row is
# (source, transmission, n_pulses, seed, attack, eta_b, catalog, chunk,
# report fields in SimReport order).
_FROZEN_RUNS = [
    (wcp(0.3), 0.9, 30_000, 1, NO_ATTACK, 1.0, None, None,
     (30000, 30000, 2523, 0.0841, 0.0841, 1268, 0, 0.0, 23, 0, 0.0,
      ATTACK_NONE, False)),
    (wcp(0.3), 3e-3, 200_000, 2, CONCLUSIVE_ATTACK, 1.0, None, None,
     (200000, 200000, 120, 0.0006, 0.0006, 73, 0, 0.0, 0, 120, 1.0,
      ATTACK_CONCLUSIVE, False)),
    (wcp(0.3), 0.5, 30_000, 3, NO_ATTACK, 0.7, None, None,
     (30000, 30000, 1032, 0.0344, 0.0344, 518, 0, 0.0, 3, 0, 0.0,
      ATTACK_NONE, False)),
    (wcp(0.3), 3e-3, 200_000, 4, CONCLUSIVE_ATTACK, 0.7, None, None,
     (200000, 200000, 104, 0.00052, 0.00052, 59, 0, 0.0, 0, 144, 1.0,
      ATTACK_CONCLUSIVE, False)),
    (pdc(0.3), 0.5, 100_000, 5, NO_ATTACK, 1.0, None, None,
     (100000, 4748, 2359, 0.4968407750631845, 0.02359, 1179, 11,
      0.009329940627650551, 54, 0, 0.0, ATTACK_NONE, False)),
    (pdc(0.3, eta=0.8), 0.5, 100_000, 6, NO_ATTACK, 1.0, None, None,
     (100000, 4542, 1995, 0.4392338177014531, 0.01995, 1027, 15,
      0.014605647517039922, 52, 0, 0.0, ATTACK_NONE, False)),
    (pdc(0.3), 0.5, 100_000, 7, CONCLUSIVE_ATTACK, 1.0, None, None,
     (100000, 4685, 2372, 0.5062966915688367, 0.02372, 1203, 9,
      0.007481296758104738, 45, 0, 0.0, ATTACK_CONCLUSIVE, True)),
    (pdc(0.3, eta=0.8), 0.5, 100_000, 8, CONCLUSIVE_ATTACK, 0.9, None, None,
     (100000, 4551, 1758, 0.3862887277521424, 0.01758, 899, 14,
      0.01557285873192436, 43, 0, 0.0, ATTACK_CONCLUSIVE, True)),
    (wcp(), 0.4, 30_000, 9, CONCLUSIVE_ATTACK, 1.0, ideal_signal_states(), None,
     (30000, 30000, 11783, 0.39276666666666665, 0.39276666666666665, 5972, 0,
      0.0, 0, 0, 0.0, ATTACK_CONCLUSIVE, True)),
    (wcp(0.9), 0.2, 4321, 10, CONCLUSIVE_ATTACK, 1.0, None, 1000,
     (4321, 4321, 112, 0.025919925943068734, 0.025919925943068734, 60, 0,
      0.0, 0, 112, 1.0, ATTACK_CONCLUSIVE, False)),
    (pdc(0.3, eta=0.8), 0.7, 4321, 11, NO_ATTACK, 1.0, None, 1000,
     (4321, 204, 133, 0.6519607843137255, 0.03077991205739412, 65, 0, 0.0, 2,
      0, 0.0, ATTACK_NONE, False)),
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


_cdf = st.tuples(
    st.lists(_cum_entry, max_size=6),
    st.sampled_from([1.0, 1.0 - _GRID, 1.0 + 2 * _GRID]),
).map(_as_cdf)


@settings(max_examples=300, deadline=None)
@given(cdfs=st.lists(_cdf, min_size=1, max_size=5), seed=st.integers(0, 2**32))
def test_keyed_cdf_lookup_matches_per_table_search(cdfs, seed):
    # duplicate one table's first entry to get repeated cum values
    cdfs[0] = np.concatenate([cdfs[0][:1], cdfs[0]])
    icdf = attack_mod._keyed_cdf(cdfs)
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
        attack_mod._keyed_cdf([one] * 1024)
    icdf = attack_mod._keyed_cdf([one] * 1023)
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
