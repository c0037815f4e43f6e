"""Protocol simulation over a lossy channel, honest and attacked.

The attacked scenario is the conclusive-measurement intercept-resend
strategy: the eavesdropper applies the unambiguous-discrimination
measurement to every pulse right at the sender's output, re-prepares
the ideal single-photon state of the identified label near the
receiver when the outcome is conclusive, and forwards vacuum
otherwise, hiding inside the channel's loss budget.  The analytic side
computes honest detection yields, photon-number statistics, the
per-pulse conclusive rate, and the critical transmission below which
the attack reproduces the honest yield with zero induced error.

Randomness: a counter-based generator (Philox) keyed by the
configuration seed, consuming a fixed block of draws per pulse, so any
pulse's sub-stream is a pure function of (seed, pulse index) and
results are bitwise reproducible regardless of chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from fockqkd.discrimination import NotDiscriminable, StateEnsemble, usd_povm_equal
from fockqkd.fock import FockVector, rotate_modes
from fockqkd.sources import (
    BASES,
    MEASUREMENT_ANGLE,
    ModifiedQubit,
    ParameterError,
    SourceParams,
    alice_measure,
    ideal_bb84_state,
    pdc_accepted_branches,
    pdc_modified_singlet,
    signal_states,
)

ATTACK_NONE = "none"
ATTACK_CONCLUSIVE = "intercept_resend_conclusive"

# Fixed per-pulse random layout (doubles drawn from one Philox stream):
# 0: sender basis, 1: sender bit / measurement-outcome draw, 2: eavesdropper
# conclusive draw, 3: receiver basis, 4: detected-pattern draw, 5-6 reserved
# for finer channel models.  Every pulse consumes all seven positions
# whether or not a column is used, which pins pulse p to stream positions
# [7p, 7p+7) for any strategy.
DRAWS_PER_PULSE = 7
_CHUNK = 1 << 20


@dataclass(frozen=True)
class ChannelModel:
    """Pure-loss channel: each photon survives with probability ``transmission``."""

    transmission: float
    loss_db: float | None = None

    def __post_init__(self) -> None:
        t = self.transmission
        if not 0.0 <= t <= 1.0:
            raise ParameterError("transmission must lie in [0, 1]")
        db = math.inf if t == 0.0 else 10.0 * math.log10(1.0 / t)
        if self.loss_db is None:
            object.__setattr__(self, "loss_db", db)
        elif not math.isclose(self.loss_db, db, rel_tol=0.0, abs_tol=1e-9):
            raise ParameterError(
                f"loss_db={self.loss_db} inconsistent with transmission={t}"
            )

    @classmethod
    def from_loss_db(cls, loss_db: float) -> "ChannelModel":
        if loss_db < 0:
            raise ParameterError("loss_db must be non-negative")
        t = 0.0 if math.isinf(loss_db) else 10.0 ** (-loss_db / 10.0)
        return cls(transmission=t)


@dataclass(frozen=True)
class AttackStrategy:
    kind: str = ATTACK_NONE

    def __post_init__(self) -> None:
        if self.kind not in (ATTACK_NONE, ATTACK_CONCLUSIVE):
            raise ParameterError(f"unknown attack kind {self.kind!r}")


NO_ATTACK = AttackStrategy(ATTACK_NONE)
CONCLUSIVE_ATTACK = AttackStrategy(ATTACK_CONCLUSIVE)


@dataclass(frozen=True)
class ProtocolConfig:
    source: SourceParams
    channel: ChannelModel
    n_pulses: int
    seed: int
    bob_detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.bob_detector_efficiency <= 1.0:
            raise ParameterError("bob_detector_efficiency must lie in (0, 1]")
        if self.n_pulses < 1:
            raise ParameterError("n_pulses must be positive")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimReport:
    """Bookkeeping of one simulated run.

    ``detection_yield`` is detections per *accepted* pulse (for the pair
    source, conditioned on the sender's heralding); the per-emitted-pulse
    rate is ``unconditioned_yield``.  Double-click pulses are discarded
    (counted as no detection) and tallied separately.
    """

    pulses_sent: int
    alice_accepted: int
    bob_detections: int
    detection_yield: float
    unconditioned_yield: float
    sifted_bits: int
    sifted_errors: int
    qber: float
    double_clicks: int
    eve_conclusive_count: int
    eve_known_fraction_of_sifted: float
    attack_kind: str
    attack_unavailable: bool

    def __post_init__(self) -> None:
        ok = (
            0 <= self.bob_detections <= self.alice_accepted <= self.pulses_sent
            and 0 <= self.sifted_bits <= self.bob_detections
            and 0 <= self.sifted_errors <= self.sifted_bits
            and 0.0 <= self.detection_yield <= 1.0
            and 0.0 <= self.qber <= 1.0
            and 0.0 <= self.eve_known_fraction_of_sifted <= 1.0
        )
        if not ok:
            raise ParameterError("inconsistent simulation counts")


# ----------------------------------------------------- analytic yields


def _total_photon_distribution(state: FockVector) -> np.ndarray:
    probs = np.zeros(state.n_max + 1)
    for pattern, amp in state.items():
        probs[sum(pattern)] += abs(amp) ** 2
    return probs / probs.sum()


def bob_photon_distribution(source: SourceParams) -> np.ndarray:
    """Photon-number distribution of the receiver-bound state.

    For the pair source this is conditioned on the sender accepting,
    averaged over bases and branches with their heralding weights.
    """
    if source.kind == "wcp":
        from fockqkd.sources import wcp_state

        return _total_photon_distribution(wcp_state(source, "+", 0).state)
    acc: np.ndarray | None = None
    total_w = 0.0
    for basis in BASES:
        for _, ws in pdc_accepted_branches(source, basis):
            dist = _total_photon_distribution(ws.state)
            if acc is None:
                acc = np.zeros_like(dist)
            n = min(len(acc), len(dist))
            acc[:n] += ws.weight * dist[:n]
            total_w += ws.weight
    if acc is None or total_w == 0.0:
        raise ParameterError("pair source has no accepted branches")
    return acc / total_w


def yield_from_distribution(
    distribution, transmission: float, eta_b: float = 1.0
) -> float:
    """Probability that at least one photon survives to a detector."""
    s = transmission * eta_b
    return float(
        sum(p * (1.0 - (1.0 - s) ** n) for n, p in enumerate(distribution))
    )


def honest_yield(
    source: SourceParams, channel: ChannelModel, eta_b: float = 1.0
) -> float:
    """Expected per-accepted-pulse detection probability without attack."""
    return yield_from_distribution(
        bob_photon_distribution(source), channel.transmission, eta_b
    )


# ------------------------------------------------ photon-number stats


@dataclass(frozen=True)
class PhotonStats:
    """(p0, p1, p_multi) with the multi-emission probability conditioned
    on non-vacuum; ``conditional_defined`` is False when the source never
    emits (conditional reported as 0 by convention).  For the pair
    source the top-level numbers count emitted *pairs* and ``accepted``
    carries the receiver-arm photon statistics after heralding."""

    p0: float
    p1: float
    p_multi: float
    p_multi_conditional: float
    conditional_defined: bool = True
    accepted: "PhotonStats | None" = None


def photon_stats_from_distribution(distribution) -> PhotonStats:
    d = np.asarray(distribution, dtype=float)
    d = d / d.sum()
    p0 = float(d[0]) if len(d) > 0 else 1.0
    p1 = float(d[1]) if len(d) > 1 else 0.0
    p_multi = float(d[2:].sum()) if len(d) > 2 else 0.0
    emitting = p1 + p_multi
    if emitting > 0.0:
        return PhotonStats(p0, p1, p_multi, p_multi / emitting)
    return PhotonStats(p0, p1, p_multi, 0.0, conditional_defined=False)


def multiphoton_stats(source: SourceParams) -> PhotonStats:
    """Emission statistics of the source.

    Weak pulse: photon-number distribution of the emitted state.  Pair
    source: pair-number distribution of the raw two-arm emission, with
    the heralded receiver-arm statistics attached as ``accepted``.
    """
    if source.kind == "wcp":
        return photon_stats_from_distribution(bob_photon_distribution(source))
    raw = _total_photon_distribution(pdc_modified_singlet(source))
    pairs = raw[::2]  # photons always come in pairs: 2n photons = n pairs
    odd = float(raw[1::2].sum())
    if odd > 1e-14:
        raise ParameterError("pair-source state has odd-photon amplitudes")
    primary = photon_stats_from_distribution(pairs)
    accepted = photon_stats_from_distribution(bob_photon_distribution(source))
    return PhotonStats(
        primary.p0,
        primary.p1,
        primary.p_multi,
        primary.p_multi_conditional,
        primary.conditional_defined,
        accepted=accepted,
    )


# ------------------------------------------------------ attack analytics


def signal_ensemble(source: SourceParams) -> StateEnsemble:
    """The pure states the eavesdropper must tell apart, with priors.

    Weak pulse: the four signal states, equal priors.  Pair source: every
    accepted heralding branch of both bases, weighted by its probability
    (with perfect sender detectors these are the four heralded states;
    inefficiency adds misread branches, including coinciding states
    carrying different bits — which only worsens discriminability).
    """
    if source.kind == "wcp":
        return StateEnsemble([mq.state for mq in signal_states(source)])
    states, weights = [], []
    for basis in BASES:
        for _, ws in pdc_accepted_branches(source, basis):
            states.append(ws.state)
            weights.append(ws.weight)
    w = np.asarray(weights)
    return StateEnsemble(states, w / w.sum())


def eve_conclusive_rate(
    source: SourceParams, ensemble: StateEnsemble | None = None
) -> float:
    """Per-pulse probability of a conclusive identification.

    Uses the equal-probability unambiguous measurement averaged over the
    priors.  A linearly dependent catalog admits no such measurement, so
    the rate is 0 — the immune case.
    """
    if ensemble is None:
        ensemble = signal_ensemble(source)
    try:
        povm = usd_povm_equal(ensemble)
    except NotDiscriminable:
        return 0.0
    return float(
        np.dot(np.asarray(ensemble.priors), povm.conclusive_probabilities)
    )


def critical_transmission(
    source: SourceParams, eta_b: float = 1.0
) -> float | None:
    """Largest channel transmission at which the attack stays hidden.

    Solves honest_yield(t) = conclusive rate with Brent's method to a
    relative tolerance of 1e-12 (the absolute tolerance is set far below
    any t*, so it never decides convergence): below t* the eavesdropper
    meets or beats the honest detection yield with zero induced error.
    Returns None when the conclusive rate is 0 (no threshold: the
    protocol is immune to this attack).  ``eta_b`` must lie in (0, 1].
    """
    if not 0.0 < eta_b <= 1.0:
        raise ParameterError("eta_b must lie in (0, 1]")
    rate = eve_conclusive_rate(source)
    if rate <= 0.0:
        return None
    dist = bob_photon_distribution(source)
    if rate >= yield_from_distribution(dist, 1.0, eta_b):
        return 1.0
    t_star = brentq(
        lambda t: yield_from_distribution(dist, t, eta_b) - rate,
        0.0,
        1.0,
        xtol=1e-300,
        rtol=1e-12,
    )
    return float(t_star)


# ------------------------------------------------------- Monte Carlo


def _detected_distribution(state: FockVector, bob_basis: str, survival: float):
    """Detected-count distribution after rotation, loss, and detection.

    Loss and detector efficiency commute with the polarization rotation
    (both act photon-wise and isotropically), so they are merged into a
    single per-photon survival probability applied to the true counts.
    Returns (patterns array (m, 2), cumulative probabilities (m,)).
    """
    rotated = rotate_modes(state, 0, 1, MEASUREMENT_ANGLE[bob_basis])
    nsq = rotated.norm_sq()
    acc: dict[tuple[int, int], float] = {}
    for (tv, th), amp in rotated.items():
        w = abs(amp) ** 2 / nsq
        for dv in range(tv + 1):
            pv = math.comb(tv, dv) * survival**dv * (1 - survival) ** (tv - dv)
            if pv == 0.0:
                continue
            for dh in range(th + 1):
                ph = (
                    math.comb(th, dh)
                    * survival**dh
                    * (1 - survival) ** (th - dh)
                )
                if ph == 0.0:
                    continue
                key = (dv, dh)
                acc[key] = acc.get(key, 0.0) + w * pv * ph
    patterns = np.array(sorted(acc), dtype=np.int64)
    probs = np.array([acc[tuple(p)] for p in patterns])
    cum = np.cumsum(probs)
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ParameterError("detected-count probabilities do not sum to 1")
    cum[-1] = 1.0
    return patterns, cum


# Generator.random returns multiples of 2**-53, so u * 2**53 is an exact
# integer and cum <= u holds exactly when ceil(cum * 2**53) <= u * 2**53.
# Table k is offset by k << 53; its last entry, (k + 1) << 53, lies above
# every draw keyed k and so bounds the search to that table.  The offsets
# must stay inside int64, which caps the number of tables.
_DRAW_BITS = 53
_MAX_TABLES = 1 << (63 - _DRAW_BITS)


def _keyed_cdf(cdfs) -> np.ndarray:
    """One sorted int64 search array over the CDFs ``cdfs[k]``, keyed by k.

    Each CDF's last entry is taken as exactly 1 (a cumulative sum may end
    a rounding step off), as clamping a per-table search would do.
    """
    if len(cdfs) >= _MAX_TABLES:
        raise ParameterError(f"at most {_MAX_TABLES - 1} sampling tables")
    parts = []
    for k, cum in enumerate(cdfs):
        cum = np.minimum(cum, 1.0)
        cum[-1] = 1.0
        parts.append(np.ceil(cum * 2.0**_DRAW_BITS).astype(np.int64) + (k << _DRAW_BITS))
    return np.concatenate(parts)


def _lookup(icdf: np.ndarray, draws: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position in ``icdf`` of each draw's categorical outcome in table ``keys``.

    Equals the table's offset plus searchsorted(cum, u, "right") on its CDF.
    """
    q = (draws * 2.0**_DRAW_BITS).astype(np.int64)
    q += keys.astype(np.int64) << _DRAW_BITS
    return np.searchsorted(icdf, q, side="right")


def run_protocol_monte_carlo(
    config: ProtocolConfig,
    attack: AttackStrategy = NO_ATTACK,
    signal_catalog: list[ModifiedQubit] | None = None,
) -> SimReport:
    """Simulate the full protocol pulse by pulse.

    ``signal_catalog`` optionally replaces the source's four-state
    catalog with explicit states (e.g. the ideal single-photon catalog)
    while keeping the always-accepted prepare-and-send flow; the pair
    source instead samples the sender's heralding measurement per pulse
    and skips unaccepted pulses.

    Every categorical draw is one exact lookup in a keyed CDF, and the
    lookup position alone fixes the pulse's outcome, so the tally is a
    count per CDF entry.
    """
    source = config.source
    eta_b = config.bob_detector_efficiency
    pdc_flow = signal_catalog is None and source.kind == "pdc"

    # --- sender: the receiver-bound state of each table, and its label
    if pdc_flow:
        singlet = pdc_modified_singlet(source)
        herald_cdfs, herald_table, states, table_label = [], [], [], []
        for a, basis in enumerate(BASES):
            outcomes = alice_measure(singlet, basis, source)
            w = np.array([o.bob_state.weight for o in outcomes])
            herald_cdfs.append(np.cumsum(w / w.sum()))
            for o in outcomes:
                herald_table.append(len(states) if o.accepted else -1)
                if o.accepted:
                    states.append(o.bob_state.state)
                    table_label.append(2 * a + o.bit)
        herald_icdf = _keyed_cdf(herald_cdfs)
        herald_table = np.array(herald_table)  # -1: not accepted
        table_label = np.array(table_label)
    else:
        catalog = (
            signal_catalog if signal_catalog is not None else signal_states(source)
        )
        if len(catalog) != 4:
            raise ParameterError("signal catalog must hold the four states")
        states = [mq.state for mq in catalog]
        table_label = np.arange(4)  # label = 2 * basis + bit

    # --- eavesdropper setup ------------------------------------------
    attack_requested = attack.kind == ATTACK_CONCLUSIVE
    conclusive_probs = None
    if attack_requested:
        ensemble = signal_ensemble(source) if pdc_flow else StateEnsemble(states)
        try:
            conclusive_probs = usd_povm_equal(ensemble).conclusive_probabilities
        except NotDiscriminable:
            pass
    attack_unavailable = attack_requested and conclusive_probs is None

    # --- detection tables, keyed 2 * table + receiver basis ----------
    if conclusive_probs is None:
        tables_label = table_label
        tables = [
            _detected_distribution(s, b, config.channel.transmission * eta_b)
            for s in states
            for b in BASES
        ]
    else:
        # the eavesdropper resends the ideal state of the label she
        # identified, right at the receiver: one table per label
        tables_label = np.arange(4)
        tables = [
            _detected_distribution(ideal_bb84_state(basis, bit), b, eta_b)
            for basis in BASES
            for bit in (0, 1)
            for b in BASES
        ]
    icdf = _keyed_cdf([cum for _, cum in tables])
    # outcome of each entry: detection class (0 none, 1 V only, 2 H only,
    # 3 double), whether the bases match, and the sender's bit
    cls = np.concatenate([(p[:, 0] > 0) + 2 * (p[:, 1] > 0) for p, _ in tables])
    key = np.repeat(np.arange(len(tables)), [len(p) for p, _ in tables])
    entry_label = tables_label[key // 2]
    match = (entry_label >> 1) == (key & 1)
    bit = (entry_label & 1) == 1

    # --- pulse loop, chunked -----------------------------------------
    gen = np.random.Generator(np.random.Philox(key=config.seed))
    counts = np.zeros(len(icdf), dtype=np.int64)
    accepted_n = 0
    eve_conclusive = 0
    n_left = config.n_pulses
    while n_left > 0:
        m = min(n_left, _CHUNK)
        n_left -= m
        u = gen.random((m, DRAWS_PER_PULSE))
        basis_a = u[:, 0] >= 0.5  # False: "+", True: "x"
        if pdc_flow:
            table = herald_table[_lookup(herald_icdf, u[:, 1], basis_a)]
            accepted = table >= 0
            u, table = u[accepted], table[accepted]
        else:
            table = 2 * basis_a + (u[:, 1] >= 0.5)
        accepted_n += len(table)
        if conclusive_probs is not None:
            # the measurement is applied to every accepted pulse; with
            # zero cross-talk a conclusive outcome always carries the
            # true label, and only those pulses reach the receiver
            conclusive = u[:, 2] < conclusive_probs[table]
            u, table = u[conclusive], table_label[table[conclusive]]
            eve_conclusive += len(table)
        j = _lookup(icdf, u[:, 4], 2 * table + (u[:, 3] >= 0.5))
        counts += np.bincount(j, minlength=len(icdf))

    single = (cls == 1) | (cls == 2)
    sift = single & match
    detections = int(counts[single].sum())
    sifted = int(counts[sift].sum())
    errors = int(counts[sift & ((cls == 2) != bit)].sum())
    n = config.n_pulses
    return SimReport(
        pulses_sent=n,
        alice_accepted=accepted_n,
        bob_detections=detections,
        detection_yield=detections / accepted_n if accepted_n else 0.0,
        unconditioned_yield=detections / n,
        sifted_bits=sifted,
        sifted_errors=errors,
        qber=errors / sifted if sifted else 0.0,
        double_clicks=int(counts[cls == 3].sum()),
        eve_conclusive_count=eve_conclusive,
        eve_known_fraction_of_sifted=(
            1.0 if sifted and conclusive_probs is not None else 0.0
        ),
        attack_kind=attack.kind,
        attack_unavailable=attack_unavailable,
    )
