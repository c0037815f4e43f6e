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

Every source enters through :func:`analyze`, which builds one
:class:`SourceModel` for the analytics and the Monte Carlo to share: the
weak pulse, the pair source, and an explicit four-state catalog such as
the ideal single-photon one the realistic sources are judged against.

Randomness: a counter-based generator (Philox) keyed by the
configuration seed, consuming a fixed block of draws per pulse, so any
pulse's sub-stream is a pure function of (seed, pulse index) and
results are bitwise reproducible regardless of chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from fockqkd.discrimination import (
    ConsistencyError,
    NotDiscriminable,
    StateEnsemble,
    usd_povm_equal,
)
from fockqkd.fock import EPS_AMP, N_MAX, pattern_index, rotation_matrix, thinning_matrix
from fockqkd.sources import (
    BASES,
    MEASUREMENT_ANGLE,
    SENDER_BIT_FOR_DETECTED,
    ModifiedQubit,
    ParameterError,
    SourceParams,
    alice_measure,
    ideal_signal_states,
    pdc_modified_singlet,
    signal_states,
)

ATTACK_NONE = "none"
ATTACK_CONCLUSIVE = "intercept_resend_conclusive"

# Fixed per-pulse random layout (doubles drawn from one Philox stream):
# 0: sender basis, 1: sender bit or heralding outcome, 2: eavesdropper's
# conclusive draw, 3: receiver basis, 4: detected pattern.  Every pulse
# consumes all five whether or not a column is read, which pins pulse p to
# stream positions [5p, 5p+5): honest and attacked runs with one seed
# share every column.
DRAWS_PER_PULSE = 5
_CHUNK = 1 << 20


@dataclass(frozen=True)
class ChannelModel:
    """Pure-loss channel: each photon survives with probability ``transmission``."""

    transmission: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmission <= 1.0:
            raise ParameterError("transmission must lie in [0, 1]")

    @property
    def loss_db(self) -> float:
        t = self.transmission
        return math.inf if t == 0.0 else 10.0 * math.log10(1.0 / t)

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


# ---------------------------------------------------- source analysis


def _total_photon_distribution(states) -> np.ndarray:
    """Row i: the photon-number distribution of ``states[i]``."""
    a = np.array([s.array for s in states])
    bins = np.arange(len(a))[:, None] * (N_MAX + 1)  # one bincount, row by row
    bins = bins + pattern_index(states[0].mode_count)[2].sum(axis=1)
    probs = np.bincount(bins.ravel(), (np.abs(a) ** 2).ravel(), len(a) * (N_MAX + 1))
    probs = probs.reshape(len(a), N_MAX + 1)
    return probs / probs.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class SourceModel:
    """What the analytics and the Monte Carlo need from a source (see
    :func:`analyze`).  ``source`` is None for an explicit catalog.
    Ensemble state i has label 2·basis + bit ``labels[i]`` and is emitted
    with ``emission_probability[i]`` (its heralding branch weight, else 1).
    ``heralding`` holds, per sender basis, the weight of every nonzero
    (true, detected) entry of the sender's measurement table in row-major
    order and its ensemble index (-1: not accepted); it is empty when every
    pulse is sent as prepared.  ``photon_distribution`` is that of the
    receiver-bound state (for the pair source, given acceptance),
    ``emitted`` that of the whole emitted state.  The arrays are read-only.
    """

    source: SourceParams | None
    ensemble: StateEnsemble
    labels: np.ndarray
    emission_probability: np.ndarray
    heralding: tuple[tuple[np.ndarray, np.ndarray], ...]
    photon_distribution: np.ndarray
    emitted: np.ndarray

    def __post_init__(self) -> None:
        arrays = [self.labels, self.emission_probability, self.photon_distribution]
        for arr in arrays + [self.emitted, *(a for pair in self.heralding for a in pair)]:
            arr.setflags(write=False)

    @cached_property
    def conclusive(self) -> np.ndarray | None:
        """Per-state conclusive probabilities of the equal-probability USD,
        or None when the ensemble admits no unambiguous measurement;
        computed on first use."""
        try:
            return usd_povm_equal(self.ensemble).conclusive_probabilities
        except NotDiscriminable:
            return None


def analyze(source: SourceParams | SourceModel | list[ModifiedQubit]) -> SourceModel:
    """Analyse a source once; a :class:`SourceModel` is returned unchanged.

    Weak pulse, or an explicit four-state catalog in the order (+0, +1,
    x0, x1) such as :func:`~fockqkd.sources.ideal_signal_states`: the four
    states with equal priors, every pulse sent as prepared.  The four
    share one photon-number distribution (polarization does not change
    photon number), read from the first.  Pair source: the nonzero entries
    of each basis's :func:`~fockqkd.sources.alice_measure` table, in
    row-major order, are its heralding branches; the one acceptance rule,
    ``SENDER_BIT_FOR_DETECTED`` as an array lookup on the detected pattern,
    puts every accepted branch in the ensemble with its probability as
    prior (with perfect sender detectors these are the four heralded
    states; inefficiency adds misread branches, which only worsens
    discriminability).
    """
    if isinstance(source, SourceModel):
        return source
    params = source if isinstance(source, SourceParams) else None
    if params is None or params.kind == "wcp":
        catalog = source if params is None else signal_states(params)
        if len(catalog) != 4:
            raise ParameterError("signal catalog must hold the four states")
        states = [mq.state for mq in catalog]
        dist = _total_photon_distribution(states[:1])[0]
        ensemble = StateEnsemble(states)
        return SourceModel(params, ensemble, np.arange(4), np.ones(4), (), dist, dist)
    singlet = pdc_modified_singlet(source)
    detected = pattern_index(2)[0]
    bit_of = np.array([SENDER_BIT_FOR_DETECTED.get(p, -1) for p in detected])
    states, labels, heralding = [], [], []
    for a, basis in enumerate(BASES):
        _, units, joint = alice_measure(singlet, basis, source)
        true, k = np.nonzero(joint)
        bit = bit_of[k]
        accepted = bit >= 0
        index = np.where(accepted, len(states) + np.cumsum(accepted) - 1, -1)
        heralding.append((joint[true, k], index))
        states += [units[i] for i in true[accepted]]
        labels.append(2 * a + bit[accepted])
    w = np.concatenate([branch_w[index >= 0] for branch_w, index in heralding])
    total_w = sum(w.tolist())
    if total_w == 0.0:
        raise ParameterError("pair source has no accepted branches")
    dist = (w[:, None] * _total_photon_distribution(states)).sum(axis=0)
    ensemble = StateEnsemble(states, w / w.sum())
    return SourceModel(source, ensemble, np.concatenate(labels), w, tuple(heralding),
                       dist / total_w, _total_photon_distribution([singlet])[0])


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
    if not model.heralding:
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
    priors.  A linearly dependent catalog admits no such measurement, so
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


def _detection_tables(states, survival: float):
    """Detected patterns (m, 2), table numbers (m,) and cumulative
    probabilities (m,) of every nonzero entry of every detection table, in
    table order and lexicographic within a table; table 2·i + b is sent
    state i in receiver basis ``BASES[b]``.

    The amplitudes are one product of the states' stacked amplitude arrays
    A with the cached rotation matrices R of both bases, rotated amplitudes
    below ``EPS_AMP`` dropped as a Fock vector drops them.  Loss and
    detector efficiency commute with the rotation (both act photon-wise and
    isotropically): the probabilities are |A·Rᵀ|² times the cached
    thinning matrix.
    """
    angles = [MEASUREMENT_ANGLE[b] for b in BASES]
    r = np.concatenate([rotation_matrix(math.cos(t), math.sin(t)) for t in angles])
    _, _, detected = pattern_index(2)
    a = np.array([s.array for s in states])
    amps = (a @ r.T).reshape(-1, len(detected))  # row 2·i + b
    amps[np.abs(amps) < EPS_AMP] = 0.0
    w = np.abs(amps) ** 2
    w /= w.sum(axis=1, keepdims=True)
    probs = w @ thinning_matrix(2, survival)
    cum = np.cumsum(probs, axis=1)
    if np.any(np.abs(cum[:, -1] - 1.0) > 1e-9):
        raise ParameterError("detected-count probabilities do not sum to 1")
    table, entry = np.nonzero(probs)
    return detected[entry], table, cum[table, entry]


# Generator.random returns multiples of 2**-53, so u * 2**53 is an exact
# integer and cum <= u holds exactly when ceil(cum * 2**53) <= u * 2**53.
# Table k is offset by k << 53; its last entry, (k + 1) << 53, lies above
# every draw keyed k and so bounds the search to that table.  The offsets
# must stay inside int64, which caps the number of tables.
_DRAW_BITS = 53
_MAX_TABLES = 1 << (63 - _DRAW_BITS)


def _keyed_cdf(cum: np.ndarray, key: np.ndarray) -> np.ndarray:
    """One sorted int64 search array over cumulative probabilities ``cum``
    of the contiguous tables ``key`` (numbered 0, 1, ... in order).

    Each table's last entry is taken as exactly 1 (a cumulative sum may end
    a rounding step off), as clamping a per-table search would do.
    """
    key = np.asarray(key, dtype=np.int64)
    if key[-1] >= _MAX_TABLES - 1:
        raise ParameterError(f"at most {_MAX_TABLES - 1} sampling tables")
    cum = np.minimum(cum, 1.0)
    cum[np.append(key[1:] != key[:-1], True)] = 1.0
    return np.ceil(cum * 2.0**_DRAW_BITS).astype(np.int64) + (key << _DRAW_BITS)


def _lookup(icdf: np.ndarray, draws: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position in ``icdf`` of each draw's categorical outcome in table ``keys``.

    Equals the table's offset plus searchsorted(cum, u, "right") on its CDF.
    """
    q = (draws * 2.0**_DRAW_BITS).astype(np.int64)
    q += keys.astype(np.int64) << _DRAW_BITS
    return np.searchsorted(icdf, q, side="right")


def run_protocol_monte_carlo(
    config: ProtocolConfig, attack: AttackStrategy = NO_ATTACK
) -> SimReport:
    """Simulate the full protocol pulse by pulse.

    The source is analysed once (see :func:`analyze`; an explicit catalog
    enters as ``analyze(catalog)``).  A source without heralding sends
    every pulse as prepared; the pair source samples the sender's
    heralding measurement per pulse and skips unaccepted pulses.

    Every categorical draw is one exact lookup in a keyed CDF, and the
    lookup position alone fixes the pulse's outcome, so the tally is a
    count per CDF entry.
    """
    eta_b = config.bob_detector_efficiency
    attack_requested = attack.kind == ATTACK_CONCLUSIVE
    model = analyze(config.source)
    labels, heralding = model.labels, model.heralding
    conclusive_probs = model.conclusive if attack_requested else None
    attack_unavailable = attack_requested and conclusive_probs is None

    # --- detection tables, keyed 2 * table + receiver basis ----------
    if conclusive_probs is None:
        sent, survival = model.ensemble.states, config.channel.transmission * eta_b
        tables_label = labels
    else:
        # the eavesdropper resends the ideal state of the label she
        # identified, right at the receiver: one table per label
        sent = [mq.state for mq in ideal_signal_states()]
        survival, tables_label = eta_b, np.arange(4)
    patterns, key, cum = _detection_tables(sent, survival)
    icdf = _keyed_cdf(cum, key)
    # outcome of each entry: detection class (0 none, 1 V only, 2 H only,
    # 3 double), whether the bases match, and the sender's bit
    cls = (patterns[:, 0] > 0) + 2 * (patterns[:, 1] > 0)
    entry_label = tables_label[key // 2]
    match = (entry_label >> 1) == (key & 1)
    bit = (entry_label & 1) == 1

    # --- pulse loop, chunked -----------------------------------------
    if heralding:
        herald_key = np.repeat(np.arange(len(heralding)), [len(w) for w, _ in heralding])
        herald_cum = np.concatenate([np.cumsum(w / w.sum()) for w, _ in heralding])
        herald_icdf = _keyed_cdf(herald_cum, herald_key)
        herald_table = np.concatenate([index for _, index in heralding])
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
        if heralding:
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
            u, table = u[conclusive], labels[table[conclusive]]
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
