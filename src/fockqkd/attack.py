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

Every source enters through :func:`fockqkd.sources.analyze`, also
importable from here, as one :class:`SourceModel` that the analytics and
the Monte Carlo share: the weak pulse, the pair source, or a four-state
catalog such as the ideal single-photon one the eavesdropper resends.

Randomness: a run samples its report's counts, not its pulses.  Pulses
are independent, so the counts per detection table and detected pattern
are multinomial; they are drawn in three fixed stages (see
:func:`run_protocol_monte_carlo`) from one counter-based generator
(Philox) keyed by the configuration seed.  Reports are bitwise
reproducible for a fixed numpy version, and honest and attacked runs of
one seed share the first stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from fockqkd.discrimination import ConsistencyError, StateEnsemble
from fockqkd.fock import (_CACHED, EPS_AMP, _frozen, pattern_index, rotation_matrix,
                          thinning_matrix)
from fockqkd.sources import (
    BASES,
    MEASUREMENT_ANGLE,
    PDC,
    ParameterError,
    SourceModel,
    SourceParams,
    analyze,
    ideal_signal_states,
)

ATTACK_NONE = "none"
ATTACK_CONCLUSIVE = "intercept_resend_conclusive"

# The count sampler draws no words per pulse; bench/run.py still reads the name.
DRAWS_PER_PULSE = 0


@dataclass(frozen=True)
class ChannelModel:
    """Pure-loss channel: each photon survives with probability ``transmission``."""

    transmission: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmission <= 1.0:
            raise ParameterError("transmission must lie in [0, 1]")

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
    source: SourceParams | SourceModel
    channel: ChannelModel
    n_pulses: int
    seed: int
    bob_detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.bob_detector_efficiency <= 1.0:
            raise ParameterError("bob_detector_efficiency must lie in (0, 1]")
        # int64 counts would truncate a float; a float or bool seed keys an int one
        n, seed, integer = self.n_pulses, self.seed, (int, np.integer)
        if not (isinstance(n, integer) and type(n) is not bool and 1 <= n < 2**63):
            raise ParameterError("n_pulses must be an integer in [1, 2**63)")
        if not (isinstance(seed, integer) and type(seed) is not bool):
            raise ParameterError("seed must be an integer")
        if not 0 <= seed < 2**64:
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
            and 0 <= self.double_clicks <= self.alice_accepted - self.bob_detections
            and 0 <= self.eve_conclusive_count <= self.alice_accepted
            and 0 <= self.sifted_bits <= self.bob_detections
            and 0 <= self.sifted_errors <= self.sifted_bits
            and 0.0 <= self.detection_yield <= 1.0
            and 0.0 <= self.unconditioned_yield <= 1.0
            and 0.0 <= self.qber <= 1.0
            and 0.0 <= self.eve_known_fraction_of_sifted <= 1.0
        )
        if not ok:
            raise ParameterError("inconsistent simulation counts")


# ----------------------------------------------------- analytic yields


def bob_photon_distribution(source: SourceParams | SourceModel) -> np.ndarray:
    """Photon-number distribution of the receiver-bound state.

    For the pair source this is conditioned on the sender accepting,
    averaged over bases and branches with their heralding weights.
    """
    return analyze(source).photon_distribution


def yield_from_distribution(
    distribution, transmission: float, eta_b: float = 1.0
) -> float:
    """Probability that at least one photon survives to a detector, for
    0 <= ``transmission`` <= 1 and 0 < ``eta_b`` <= 1 (else ParameterError)."""
    if not 0.0 <= transmission <= 1.0:
        raise ParameterError("transmission must lie in [0, 1]")
    if not 0.0 < eta_b <= 1.0:
        raise ParameterError("eta_b must lie in (0, 1]")
    s = transmission * eta_b
    total = reach = 0.0  # s * reach = 1 - (1 - s)^n as a sum of positive terms
    for p in distribution:
        total, reach = total + p * reach, 1.0 + (1.0 - s) * reach
    return float(s * total)


def honest_yield(
    source: SourceParams | SourceModel, channel: ChannelModel, eta_b: float = 1.0
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


def multiphoton_stats(source: SourceParams | SourceModel) -> PhotonStats:
    """Emission statistics of the source.

    Without heralding (weak pulse, explicit catalog): photon-number
    distribution of the emitted state.  Pair source: pair-number
    distribution of the raw two-arm emission, with the heralded
    receiver-arm statistics attached as ``accepted``.
    """
    model = analyze(source)
    if model.source is None or model.source.kind != PDC:
        return photon_stats_from_distribution(model.photon_distribution)
    raw = model.emitted
    if float(raw[1::2].sum()) > 1e-14:
        raise ParameterError("pair-source state has odd-photon amplitudes")
    # photons always come in pairs: 2n photons = n pairs
    primary = photon_stats_from_distribution(raw[::2])
    return replace(
        primary, accepted=photon_stats_from_distribution(model.photon_distribution)
    )


# ------------------------------------------------------ attack analytics


def signal_ensemble(source: SourceParams | SourceModel) -> StateEnsemble:
    """The pure states the eavesdropper must tell apart, with priors
    (see :func:`analyze`)."""
    return analyze(source).ensemble


def eve_conclusive_rate(source: SourceParams | SourceModel) -> float:
    """Per-pulse probability of a conclusive identification.

    Uses the equal-probability unambiguous measurement averaged over the
    priors; the measurement is :attr:`SourceModel.conclusive`, made once per
    ensemble in a process and then read from its cache.  A linearly
    dependent catalog admits no such measurement, so
    the rate is 0, reported as immune.  For the pair source below perfect
    sender detectors that says only that the heralded branches (28 states
    in 8 dimensions at eta_A = 0.8) are dependent, not that no
    measurement learns the (basis, bit) label.
    """
    model = analyze(source)
    if model.conclusive is None:
        return 0.0
    return float(np.dot(np.asarray(model.ensemble.priors), model.conclusive))


def critical_transmission(
    source: SourceParams | SourceModel, eta_b: float = 1.0
) -> float | None:
    """Largest channel transmission at which the attack stays hidden.

    Solves honest_yield(t) = conclusive rate by Newton's method from t = 0
    to a step of at most 1e-12·t (ConsistencyError after 100 steps); the
    yield is increasing and concave in t, so every iterate is at or below
    t*.  Below t* the attack meets or beats the honest yield, error-free.
    Returns None when the conclusive rate is 0: no threshold, reported as
    immune (what that shows is in :func:`eve_conclusive_rate`).  ``eta_b``
    must lie in (0, 1].

    ``eta_b`` enters the honest side only: the eavesdropper's resends
    count as detected with certainty.  :func:`run_protocol_monte_carlo`
    applies ``eta_b`` to her resends as well, so below 1 its attacked
    yield is ``eta_b`` times the rate and the attack shows below this t*.
    """
    model = analyze(source)
    dist = model.photon_distribution.tolist()
    full_yield = yield_from_distribution(dist, 1.0, eta_b)  # rejects a bad eta_b
    rate = eve_conclusive_rate(model)
    if rate <= 0.0:
        return None
    if rate >= full_yield:
        return 1.0
    t = 0.0
    for _ in range(100):
        slope = sum(n * p * (1.0 - t * eta_b) ** (n - 1) for n, p in enumerate(dist) if n)
        step = (rate - yield_from_distribution(dist, t, eta_b)) / (eta_b * slope)
        t += step
        if step <= 1e-12 * t:
            return t
    raise ConsistencyError("Newton's method did not reach t* in 100 steps")


# ------------------------------------------------------- Monte Carlo


@cache
def _both_bases_rotation() -> np.ndarray:
    """The cached rotation matrices of ``BASES``, stacked, read-only."""
    turns = [(math.cos(t), math.sin(t)) for t in map(MEASUREMENT_ANGLE.get, BASES)]
    return _frozen(np.concatenate([rotation_matrix(c, s) for c, s in turns]))


def _detection_tables(a: np.ndarray, survival: float) -> np.ndarray:
    """The (2·len(a), patterns) matrix of detected-pattern probabilities of
    the amplitude rows ``a`` (an ensemble's ``matrix``), patterns in the
    lexicographic order of ``pattern_index(2)[0]``; row 2·i + b is sent
    state i in receiver basis ``BASES[b]``.

    The amplitudes are the cached real rotations R of both bases times the
    (re, im) columns of Aᵀ, as ``fock._turn`` applies R, those below
    ``EPS_AMP`` dropped as a Fock vector drops them.  Loss and detector
    efficiency commute with the rotation (both act photon-wise and
    isotropically): the probabilities are |A·Rᵀ|² times the thinning matrix.
    """
    turned = (_both_bases_rotation() @ np.ascontiguousarray(a.T).view(float)).view(complex)
    amps = turned.T.reshape(2 * len(a), -1)  # row 2·i + b
    amps[np.abs(amps) < EPS_AMP] = 0.0
    w = np.abs(amps) ** 2
    w /= w.sum(axis=1, keepdims=True)
    probs = w @ thinning_matrix(2, survival)
    if (np.abs(probs.sum(axis=1) - 1.0) > 1e-9).any():
        raise ParameterError("detected-count probabilities do not sum to 1")
    return probs


def _sampling_tables(model: SourceModel, survival: float):
    """Stage 3's multinomial probabilities for ``model``'s states, their
    :func:`_detection_tables` and a zero column, and each table's last possible
    pattern, which takes over what numpy's multinomial leaves to the last
    category (about n·2**-53 pulses), so no impossible pattern occurs."""
    probs = _detection_tables(model.ensemble.matrix, survival)
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    return np.concatenate((probs, np.zeros((len(probs), 1))), axis=1), last


@cache
def _click_kinds() -> np.ndarray:
    """Read-only (patterns, 3) indicator of a lone V click, a lone H click
    and both, per detected pattern in the order of :func:`_detection_tables`."""
    v, h = (pattern_index(2)[2] > 0).T
    return _frozen(np.array([v & ~h, h & ~v, v & h], dtype=np.int64).T)


@cache
def _resend_model() -> SourceModel:
    """The ideal catalog the eavesdropper resends from, analysed on first use."""
    return analyze(ideal_signal_states())


@lru_cache(maxsize=_CACHED)
def _resend_tables(eta_b: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_sampling_tables` of the eavesdropper's resends, read-only."""
    return tuple(map(_frozen, _sampling_tables(_resend_model(), eta_b)))


def run_protocol_monte_carlo(
    config: ProtocolConfig, attack: AttackStrategy = NO_ATTACK
) -> SimReport:
    """Simulate the full protocol by sampling the report's counts.

    The source is analysed once (see :func:`analyze`; an explicit catalog
    enters as ``analyze(catalog)``); its record's send probabilities say
    which state a pulse carries, if the sender accepts it at all.

    Pulses are independent, so the number of pulses in each detection
    table (sent state, receiver basis) and each detected pattern is
    multinomial, and every report field is a sum of those counts.  They
    are drawn in three stages from one Philox generator keyed by the
    seed, so the cost does not grow with the number of pulses:

    1. one multinomial over the sent tables, the last category the pulses
       the sender does not accept; honest and attacked runs of one seed
       share this draw;
    2. attacked runs only: the eavesdropper's conclusive count per table,
       binomial with the state's conclusive probability, regrouped by
       label into the tables of her resends;
    3. one multinomial per table over its detected patterns, all tables
       in one draw; the resends' tables are cached per ``eta_b``.
    """
    eta_b = config.bob_detector_efficiency
    attack_requested = attack.kind == ATTACK_CONCLUSIVE
    model = analyze(config.source)
    conclusive_probs = model.conclusive if attack_requested else None
    attack_unavailable = attack_requested and conclusive_probs is None
    rng = np.random.Generator(np.random.Philox(key=config.seed))

    # stage 1: pulses per sent table (receiver's basis 1/2 each), the last
    # category the pulses the sender does not accept
    p_table = np.zeros(2 * len(model.send_probability) + 1)
    p_table[:-1:2] = p_table[1:-1:2] = model.send_probability / 2
    n_table = rng.multinomial(config.n_pulses, p_table)[:-1]
    accepted_n = int(n_table.sum())

    received, eve_conclusive = model, 0
    if conclusive_probs is not None:
        # stage 2: the measurement is applied to every accepted pulse; with
        # zero cross-talk a conclusive outcome always carries the true
        # label, and the eavesdropper resends the ideal state of that label
        # right at the receiver: one table per (label, receiver basis),
        # the ideal catalog's state i having label i
        conclusive = rng.binomial(n_table, np.repeat(conclusive_probs, 2))
        eve_conclusive = int(conclusive.sum())
        sent = np.arange(len(n_table))
        n_table = np.zeros(8, dtype=np.int64)
        np.add.at(n_table, 2 * model.labels[sent // 2] + sent % 2, conclusive)
        received, (p_pattern, last) = _resend_model(), _resend_tables(eta_b)
    else:
        p_pattern, last = _sampling_tables(model, config.channel.transmission * eta_b)
    counts = rng.multinomial(n_table, p_pattern)  # stage 3
    row = np.arange(len(counts))
    counts[row, last] += counts[:, -1]  # the rounding remainder (see _sampling_tables)

    # a lone V click reads bit 0, a lone H click bit 1; a pulse is sifted
    # when the receiver's basis is the sender's
    v_only, h_only, both = (counts[:, :-1] @ _click_kinds()).T
    label = received.labels[row // 2]
    match = (label >> 1) == row % 2
    detections = int(v_only.sum() + h_only.sum())
    sifted = int(v_only[match].sum() + h_only[match].sum())
    errors = int(np.where(label & 1, v_only, h_only)[match].sum())
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
        double_clicks=int(both.sum()),
        eve_conclusive_count=eve_conclusive,
        eve_known_fraction_of_sifted=(
            1.0 if sifted and conclusive_probs is not None else 0.0
        ),
        attack_kind=attack.kind,
        attack_unavailable=attack_unavailable,
    )
