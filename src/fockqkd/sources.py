"""Signal-state catalogs for the two realistic photon sources.

Two source families are modeled, each replacing an ideal BB84 qubit with
the multiphoton state the hardware actually emits:

* ``wcp`` — a weak coherent pulse of amplitude ``alpha`` polarized along
  the basis/bit direction, expanded to first or second order in
  ``alpha`` (six Fock levels at second order);
* ``pdc`` — a downconversion pair source of amplitude ``chi`` whose
  two-arm emission is expanded to second order in ``chi``; the sender
  measures one arm and the receiver-bound state is the projected
  remainder.

:func:`analyze` turns a source or a four-state catalog into the one
:class:`SourceModel` that :mod:`fockqkd.attack` reads; it alone applies
the pair source's acceptance rule, ``SENDER_BIT_FOR_DETECTED``.

Mode conventions follow :mod:`fockqkd.fock`: receiver-side states are
``(V, H)``; two-arm states are ``(sender-V, sender-H, receiver-V,
receiver-H)``.  Bit wiring is fixed so that bit 0 in the rectilinear
basis corresponds to a vertically polarized receiver photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from fockqkd.discrimination import NotDiscriminable, StateEnsemble, usd_povm_equal
from fockqkd.fock import (
    _CACHED,
    FockVector,
    N_MAX,
    Pattern,
    _clean,
    _frozen,
    count_branches,
    normalize_rows,
    pattern_index,
    rotate_modes,
    thinning_matrix,
)

SQ2 = math.sqrt(2.0)

BASES = ("+", "x")
WCP, PDC = "wcp", "pdc"

# Rotation angle applied to the measured/analyzed modes for the diagonal
# basis.  The sign is the one that maps the diagonal single-photon kets
# onto the counting modes (|V>+|H> -> |V>), locked by regression tests.
MEASUREMENT_ANGLE = {"+": 0.0, "x": -math.pi / 4}

# Polarization unit vectors (V, H components) used to *generate* states.
_POLARIZATION = {
    ("+", 0): (1.0, 0.0),
    ("+", 1): (0.0, 1.0),
    ("x", 0): (1 / SQ2, 1 / SQ2),
    ("x", 1): (1 / SQ2, -1 / SQ2),
}
_LABEL = {key: i for i, key in enumerate(_POLARIZATION)}  # 2·basis + bit

# Sender-side detector wiring: the two arms of a pair source are
# anticorrelated, so detecting the H-polarized (rotated) photon heralds
# bit 0 at the receiver, and V heralds bit 1.
SENDER_BIT_FOR_DETECTED = {(0, 1): 0, (1, 0): 1}


class ParameterError(ValueError):
    """A source parameter is outside its allowed range."""


@dataclass(frozen=True)
class SourceParams:
    """Parameters of a signal source.

    Attributes:
        kind: ``"wcp"`` or ``"pdc"``.
        amplitude: the small expansion parameter (pulse amplitude for
            ``wcp``, pair amplitude for ``pdc``); must lie in (0, 1).
        expansion_order: 1 or 2, the highest retained power of the
            amplitude in the emitted kets.
        alice_detector_efficiency: per-photon detection probability of
            the sender's detectors (pair source only), in (0, 1].
    """

    kind: str
    amplitude: float
    expansion_order: int = 2
    alice_detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (WCP, PDC):
            raise ParameterError(f"unknown source kind {self.kind!r}")
        if not 0.0 < self.amplitude < 1.0:
            raise ParameterError("amplitude must lie strictly inside (0, 1)")
        order = self.expansion_order  # no bool or float: True and 2.0 equal 1 and 2
        integer = isinstance(order, (int, np.integer)) and type(order) is not bool
        if not (integer and order in (1, 2)):
            raise ParameterError("expansion_order must be the integer 1 or 2")
        if not 0.0 < self.alice_detector_efficiency <= 1.0:
            raise ParameterError("detector efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class ModifiedQubit:
    """A labeled receiver-bound signal state, sent on every pulse."""

    basis: str
    bit: int
    state: FockVector


def _check_basis_bit(basis: str, bit: int) -> None:
    if basis not in BASES:
        raise ParameterError(f"basis must be one of {BASES}, got {basis!r}")
    if bit not in (0, 1):
        raise ParameterError(f"bit must be 0 or 1, got {bit!r}")


def ideal_bb84_state(basis: str, bit: int) -> FockVector:
    """The ideal single-photon BB84 ket for (basis, bit)."""
    _check_basis_bit(basis, bit)
    return FockVector.from_terms(2, _n_photon_polarized(1, *_POLARIZATION[(basis, bit)]))


def _n_photon_polarized(n: int, uv: float, uh: float) -> dict[Pattern, float]:
    """Amplitudes of |n photons polarized along (uv, uh)> in the V/H basis."""
    terms = {}
    for k in range(n + 1):
        amp = math.sqrt(math.comb(n, k)) * uv**k * uh ** (n - k)
        if amp != 0.0:
            terms[(k, n - k)] = amp
    return terms


@lru_cache(maxsize=_CACHED)
def _polarized_ladder(terms: int) -> np.ndarray:
    """Read-only (terms, labels × patterns) matrix: row n holds, label after
    label in ``_POLARIZATION`` order, the two-mode amplitudes of n photons
    polarized as that (basis, bit), so ladder coefficients times it are the
    four kets side by side."""
    kets = [FockVector(2, _n_photon_polarized(n, *_POLARIZATION[label])).array.real
            for n in range(terms) for label in _POLARIZATION]
    return _frozen(np.reshape(kets, (terms, -1)))


def wcp_state(params: SourceParams, basis: str, bit: int) -> ModifiedQubit:
    """The weak-coherent-pulse signal state for (basis, bit): the row of
    :func:`signal_states` for that label."""
    _check_basis_bit(basis, bit)
    return signal_states(params)[_LABEL[(basis, bit)]]


def pdc_modified_singlet(params: SourceParams) -> FockVector:
    """Two-arm emission of the pair source, expanded to second order.

    The state is returned un-normalized, exactly as expanded: the
    deliberate O(amplitude^2) truncation leaves a squared norm of
    1 + (5/4) chi^4.  At ``expansion_order`` 1 the second-order bracket
    is dropped and only the vacuum and single-pair terms remain.
    """
    if params.kind != PDC:
        raise ParameterError("pdc_modified_singlet requires a pdc source")
    chi, order = params.amplitude, params.expansion_order
    coeffs = [1.0 - chi**2 / 2.0, chi / 2.0, chi**2 / 4.0][: order + 1]
    # one nonzero term per entry, as in signal_states
    return FockVector._of(4, _clean(coeffs @ _pair_brackets()[: order + 1] + 0j))


@lru_cache(maxsize=_CACHED)
def _pair_brackets() -> np.ndarray:
    """Read-only rows that :func:`pdc_modified_singlet` scales: the vacuum,
    the single-pair bracket (the two photons of a pair split across the
    arms, antisymmetric, or bunch into one arm) and the second-order one."""
    return _frozen(np.array([FockVector(4, bracket).array.real for bracket in (
        {(0, 0, 0, 0): 1.0},
        {(0, 1, 1, 0): +1.0, (1, 1, 0, 0): +1.0, (0, 0, 1, 1): -1.0, (1, 0, 0, 1): -1.0},
        {(0, 2, 2, 0): +1.0, (2, 2, 0, 0): +1.0, (0, 0, 2, 2): +1.0, (2, 0, 0, 2): +1.0,
         (1, 1, 1, 1): -2.0, (1, 0, 1, 2): +SQ2, (0, 1, 2, 1): -SQ2, (1, 2, 1, 0): +SQ2,
         (2, 1, 0, 1): -SQ2},
    )]))


def alice_measure(singlet: FockVector, basis: str, params: SourceParams):
    """The sender's measurement of the two-arm state as a table ``(true,
    states, joint)``.

    The sender's modes are turned by the cached rotation matrix (angle 0
    for the rectilinear basis, -pi/4 for the diagonal one) and counted by
    :func:`~fockqkd.fock.count_branches`: ``true[i]`` is the position of a
    true count pattern in the two-mode index, row ``states[i]`` the
    receiver's unit amplitudes after it, and ``joint[i, k]`` its weight
    times the cached thinning matrix entry (true[i], k) of the detector
    efficiency, the probability that the detectors then register pattern k
    (no dark counts).  ``joint`` sums to 1; :func:`analyze` decides which
    detected patterns herald a bit.
    """
    if singlet.mode_count != 4:
        raise ParameterError("sender measurement expects a 4-mode state")
    if basis not in BASES:
        raise ParameterError(f"basis must be one of {BASES}")
    rotated = rotate_modes(singlet, 0, 1, MEASUREMENT_ANGLE[basis])
    true, states, weights = count_branches(rotated, (0, 1))
    thinning = thinning_matrix(2, params.alice_detector_efficiency)
    return true, states, weights[:, None] * thinning[true]


def signal_states(params: SourceParams) -> list[ModifiedQubit]:
    """The weak pulse's four signal states in fixed order (+0, +1, x0, x1),
    normalized in one pass, row by row.

    Each ket keeps the truncated expansion in the pulse amplitude: vacuum
    coefficient 1 - alpha^2/2, one-photon coefficient alpha, and (at order
    2) two-photon coefficient alpha^2/sqrt(2), all in the pulse's
    polarization mode.  The pair source's heralded ensemble comes from
    :func:`analyze`, which runs the sender measurement.
    """
    if params.kind != WCP:
        raise ParameterError("wcp_state requires a wcp source")
    alpha = params.amplitude
    coeffs = [1.0 - alpha**2 / 2.0, alpha, alpha**2 / SQ2][: params.expansion_order + 1]
    # each entry has one nonzero term, so it is c * a as an entry-wise loop gives it
    rows = np.array(coeffs) @ _polarized_ladder(len(coeffs))
    units, _ = normalize_rows(rows.reshape(len(_POLARIZATION), -1))
    return [ModifiedQubit(b, bit, FockVector._of(2, u))
            for (b, bit), u in zip(_POLARIZATION, units)]


def ideal_signal_states() -> list[ModifiedQubit]:
    """The four ideal single-photon signal states (diagnostic catalog)."""
    return [ModifiedQubit(b, bit, ideal_bb84_state(b, bit)) for b, bit in _POLARIZATION]


# ---------------------------------------------------- source analysis


def _total_photon_distribution(a: np.ndarray, mode_count: int) -> np.ndarray:
    """Row i: the photon-number distribution of amplitude row ``a[i]``."""
    bins = np.arange(len(a))[:, None] * (N_MAX + 1)  # one bincount, row by row
    bins = bins + pattern_index(mode_count)[2].sum(axis=1)
    probs = np.bincount(bins.ravel(), (np.abs(a) ** 2).ravel(), len(a) * (N_MAX + 1))
    probs = probs.reshape(len(a), N_MAX + 1)
    return probs / probs.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class SourceModel:
    """What the analytics and the Monte Carlo need from a source (see
    :func:`analyze`); ``source`` is None for an explicit catalog.  Ensemble
    state i has label 2·basis + bit ``labels[i]``, is emitted with
    ``emission_probability[i]`` (its heralding branch weight, else 1) and
    sent on a pulse with ``send_probability[i]`` (the sender's basis 1/2,
    then her bit 1/2 or her branch, normalised per basis).
    ``photon_distribution`` is that of the receiver-bound state (for the
    pair source, given acceptance), ``emitted`` that of the whole emitted
    state.  The arrays are read-only.
    """

    source: SourceParams | None
    ensemble: StateEnsemble
    labels: np.ndarray
    emission_probability: np.ndarray
    send_probability: np.ndarray
    photon_distribution: np.ndarray
    emitted: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.labels, self.emission_probability, self.send_probability,
                    self.photon_distribution, self.emitted):
            arr.setflags(write=False)

    @cached_property
    def conclusive(self) -> np.ndarray | None:
        """Read-only per-state conclusive probabilities of the
        equal-probability USD, or None when the ensemble admits no
        unambiguous measurement.  Read on first use from a process-wide
        cache of the ``_CACHED`` (16) most recently used ensembles, keyed by
        content (mode count, amplitude bytes, priors), so each ensemble is
        measured once per process."""
        e = self.ensemble
        key = _Content((e.mode_count, e.matrix.tobytes(), e.priors))
        key.ensemble = e
        return _conclusive(key)


class _Content(tuple):
    """Key of the USD cache: an ensemble's mode count, amplitude bytes and
    priors.  The ensemble rides along as ``ensemble``, outside the key."""


@lru_cache(maxsize=_CACHED)
def _conclusive(key: _Content) -> np.ndarray | None:
    """What :attr:`SourceModel.conclusive` reads; a ConsistencyError of the
    measurement propagates and is not cached."""
    try:
        return _frozen(usd_povm_equal(key.ensemble).conclusive_probabilities)
    except NotDiscriminable:
        return None


def analyze(source: SourceParams | SourceModel | list[ModifiedQubit]) -> SourceModel:
    """Analyse a source once; a :class:`SourceModel` is returned unchanged.

    Weak pulse, or an explicit catalog such as :func:`ideal_signal_states`
    holding each (basis, bit) exactly once in any order: the four states
    with equal priors, labelled from their entries, every pulse sent as
    prepared.  The four must share one photon-number distribution to
    1e-12 (polarization does not change photon number; else
    ParameterError), read from the first.
    Pair source: the nonzero entries of each basis's :func:`alice_measure`
    table, in row-major order, are its heralding branches; the one
    acceptance rule, ``SENDER_BIT_FOR_DETECTED`` as an array lookup on the
    detected pattern, puts every accepted branch in the ensemble with its
    probability as prior (with perfect sender detectors these are the
    four heralded states; inefficiency adds misread branches, which only
    worsens discriminability).
    """
    if isinstance(source, SourceModel):
        return source
    params = source if isinstance(source, SourceParams) else None
    if params is None or params.kind == WCP:
        catalog = source if params is None else signal_states(params)
        labels = np.array([_LABEL.get((mq.basis, mq.bit), -1) for mq in catalog])
        if sorted(labels.tolist()) != [0, 1, 2, 3]:
            raise ParameterError("signal catalog must hold each (basis, bit) once")
        ensemble = StateEnsemble([mq.state for mq in catalog])
        dist = _total_photon_distribution(ensemble.matrix, ensemble.mode_count)
        if np.abs(dist - dist[0]).max() > 1e-12:
            raise ParameterError("catalog states differ in photon-number distribution")
        return SourceModel(params, ensemble, labels, np.ones(4), np.full(4, 0.25),
                           dist[0], dist[0])
    singlet = pdc_modified_singlet(source)
    bit_of = np.array([SENDER_BIT_FOR_DETECTED.get(p, -1) for p in pattern_index(2)[0]])
    states, labels, branch_w, send = [], [], [], []
    for a, basis in enumerate(BASES):
        _, units, joint = alice_measure(singlet, basis, source)
        true, k = np.nonzero(joint)
        weights, bit = joint[true, k], bit_of[k]
        accepted = bit >= 0
        branch_w.append(weights[accepted])
        send.append(0.5 * weights[accepted] / weights.sum())
        states.append(units[true[accepted]])
        labels.append(2 * a + bit[accepted])
    w = np.concatenate(branch_w)
    total_w = sum(w.tolist())
    if total_w == 0.0:
        raise ParameterError("pair source has no accepted branches")
    ensemble = StateEnsemble.from_matrix(2, np.concatenate(states), w / w.sum())
    dist = (w[:, None] * _total_photon_distribution(ensemble.matrix, 2)).sum(axis=0)
    return SourceModel(source, ensemble, np.concatenate(labels), w, np.concatenate(send),
                       dist / total_w,
                       _total_photon_distribution(singlet.array[None], 4)[0])

