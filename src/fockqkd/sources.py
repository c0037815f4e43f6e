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

Mode conventions follow :mod:`fockqkd.fock`: receiver-side states are
``(V, H)``; two-arm states are ``(sender-V, sender-H, receiver-V,
receiver-H)``.  Bit wiring is fixed so that bit 0 in the rectilinear
basis corresponds to a vertically polarized receiver photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fockqkd.fock import (
    FockVector,
    N_MAX,
    Pattern,
    WeightedState,
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
        if self.expansion_order not in (1, 2):
            raise ParameterError("expansion_order must be 1 or 2")
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


def wcp_state(
    params: SourceParams, basis: str, bit: int, exact_coherent: bool = False
) -> ModifiedQubit:
    """The weak-coherent-pulse signal state for (basis, bit).

    By default the ket keeps the truncated expansion in the pulse
    amplitude: vacuum coefficient 1 - alpha^2/2, one-photon coefficient
    alpha, and (at order 2) two-photon coefficient alpha^2/sqrt(2), all
    in the pulse's polarization mode.  With ``exact_coherent`` the full
    Poissonian amplitude ladder up to ``N_MAX`` photons is kept
    instead — a sensitivity diagnostic, not the default model.
    """
    return _wcp_states(params, [(basis, bit)], exact_coherent)[0]


def _wcp_states(params, labels, exact_coherent=False) -> list[ModifiedQubit]:
    """:func:`wcp_state` of each (basis, bit) in ``labels``, normalized in
    one pass."""
    if params.kind != WCP:
        raise ParameterError("wcp_state requires a wcp source")
    for basis, bit in labels:
        _check_basis_bit(basis, bit)
    alpha = params.amplitude
    if exact_coherent:
        coeffs = [
            math.exp(-(alpha**2) / 2.0) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(N_MAX + 1)
        ]
    else:
        coeffs = [1.0 - alpha**2 / 2.0, alpha]
        if params.expansion_order == 2:
            coeffs.append(alpha**2 / SQ2)
    position = pattern_index(2)[1]
    rows = np.zeros((len(labels), len(position)), dtype=complex)
    for row, label in zip(rows, labels):
        for n, c in enumerate(coeffs):
            for pattern, a in _n_photon_polarized(n, *_POLARIZATION[label]).items():
                row[position[pattern]] = c * a
    units = normalize_rows(2, rows)
    return [ModifiedQubit(b, bit, u) for (b, bit), (u, _) in zip(labels, units)]


def pdc_modified_singlet(params: SourceParams) -> FockVector:
    """Two-arm emission of the pair source, expanded to second order.

    The state is returned un-normalized, exactly as expanded: the
    deliberate O(amplitude^2) truncation leaves a squared norm of
    1 + (5/4) chi^4.  At ``expansion_order`` 1 the second-order bracket
    is dropped and only the vacuum and single-pair terms remain.
    """
    if params.kind != PDC:
        raise ParameterError("pdc_modified_singlet requires a pdc source")
    chi = params.amplitude
    half = chi / 2.0
    quarter = chi**2 / 4.0
    terms: dict[Pattern, float] = {(0, 0, 0, 0): 1.0 - chi**2 / 2.0}
    # single-pair bracket: the two photons of a pair split across the
    # arms (antisymmetric combination) or bunch into one arm
    for pattern, sign in {
        (0, 1, 1, 0): +1.0,
        (1, 1, 0, 0): +1.0,
        (0, 0, 1, 1): -1.0,
        (1, 0, 0, 1): -1.0,
    }.items():
        terms[pattern] = sign * half
    if params.expansion_order == 2:
        for pattern, factor in {
            (0, 2, 2, 0): +1.0,
            (2, 2, 0, 0): +1.0,
            (0, 0, 2, 2): +1.0,
            (2, 0, 0, 2): +1.0,
            (1, 1, 1, 1): -2.0,
            (1, 0, 1, 2): +SQ2,
            (0, 1, 2, 1): -SQ2,
            (1, 2, 1, 0): +SQ2,
            (2, 1, 0, 1): -SQ2,
        }.items():
            terms[pattern] = factor * quarter
    return FockVector.from_terms(4, terms)


def alice_measure(singlet: FockVector, basis: str, params: SourceParams):
    """The sender's measurement of the two-arm state as a table ``(true,
    states, joint)``.

    The sender's modes are turned by the cached rotation matrix (angle 0
    for the rectilinear basis, -pi/4 for the diagonal one) and counted by
    :func:`~fockqkd.fock.count_branches`: ``true[i]`` is the position of a
    true count pattern in the two-mode index, ``states[i]`` the receiver's
    unit state after it, and ``joint[i, k]`` its weight times the cached
    thinning matrix entry (true[i], k) of the detector efficiency, the
    probability that the detectors then register pattern k (no dark
    counts).  ``joint`` sums to 1; :func:`fockqkd.attack.analyze` decides
    which detected patterns herald a bit.
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
    """The weak pulse's four signal states in fixed order (+0, +1, x0, x1).

    The pair source's heralded ensemble comes from
    :func:`fockqkd.attack.analyze`, which runs the sender measurement.
    """
    return _wcp_states(params, [(basis, bit) for basis in BASES for bit in (0, 1)])


def ideal_signal_states() -> list[ModifiedQubit]:
    """The four ideal single-photon signal states (diagnostic catalog)."""
    return [
        ModifiedQubit(basis, bit, ideal_bb84_state(basis, bit))
        for basis in BASES
        for bit in (0, 1)
    ]


def pdc_accepted_branches(
    params: SourceParams, basis: str
) -> list[tuple[int, WeightedState]]:
    """(bit, weighted state) of each accepted entry of one basis's
    :func:`alice_measure` table, in row-major order.

    With perfect sender detectors this is exactly the two heralded
    states; with efficiency below 1 extra branches appear (a multiphoton
    arrival read as a single click), which is what breaks the two-
    dimensional structure of the heralded catalog.
    """
    _, states, joint = alice_measure(pdc_modified_singlet(params), basis, params)
    detected = pattern_index(2)[0]
    return [
        (SENDER_BIT_FOR_DETECTED[detected[k]], WeightedState(states[i], float(joint[i, k])))
        for i, k in zip(*np.nonzero(joint))
        if detected[k] in SENDER_BIT_FOR_DETECTED
    ]
