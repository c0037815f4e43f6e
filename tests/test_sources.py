"""Tests for the signal-state catalogs.

The reference expansions used here were derived by hand (and
cross-checked with a dense linear-algebra oracle for the rotations):
second-order kets for the weak coherent pulse and for the pair source,
including the heralded receiver states and the rotated intermediate
amplitudes of the diagonal-basis analysis.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fockqkd.attack import analyze
from fockqkd.fock import FockVector, inner_product, normalize, pattern_index, rotate_modes
from fockqkd.sources import (
    BASES,
    ModifiedQubit,
    ParameterError,
    SourceParams,
    alice_measure,
    ideal_bb84_state,
    pdc_accepted_branches,
    pdc_modified_singlet,
    signal_states,
    wcp_state,
)

SQ2 = math.sqrt(2.0)


def wcp_params(alpha, order=2):
    return SourceParams(kind="wcp", amplitude=alpha, expansion_order=order)


def pdc_params(chi, order=2, eta=1.0):
    return SourceParams(
        kind="pdc", amplitude=chi, expansion_order=order, alice_detector_efficiency=eta
    )


def expected_wcp_terms(alpha, basis, bit):
    """Hand-expanded second-order pulse ket, un-normalized."""
    c0 = 1.0 - alpha**2 / 2.0
    c2 = SQ2 * alpha**2 / 2.0
    if basis == "+":
        one = {(1, 0): alpha} if bit == 0 else {(0, 1): alpha}
        two = {(2, 0): c2} if bit == 0 else {(0, 2): c2}
        return {(0, 0): c0, **one, **two}
    s = 1.0 if bit == 0 else -1.0
    return {
        (0, 0): c0,
        (1, 0): alpha / SQ2,
        (0, 1): s * alpha / SQ2,
        (2, 0): c2 / 2.0,
        (1, 1): s * c2 / SQ2,
        (0, 2): c2 / 2.0,
    }


def expected_singlet_terms(chi, order=2):
    """Hand-expanded pair-source emission, un-normalized."""
    terms = {
        (0, 0, 0, 0): 1.0 - chi**2 / 2.0,
        (0, 1, 1, 0): chi / 2.0,
        (1, 1, 0, 0): chi / 2.0,
        (0, 0, 1, 1): -chi / 2.0,
        (1, 0, 0, 1): -chi / 2.0,
    }
    if order == 2:
        q = chi**2 / 4.0
        terms.update(
            {
                (0, 2, 2, 0): q,
                (2, 2, 0, 0): q,
                (0, 0, 2, 2): q,
                (2, 0, 0, 2): q,
                (1, 1, 1, 1): -2.0 * q,
                (1, 0, 1, 2): SQ2 * q,
                (0, 1, 2, 1): -SQ2 * q,
                (1, 2, 1, 0): SQ2 * q,
                (2, 1, 0, 1): -SQ2 * q,
            }
        )
    return terms


def expected_heralded_terms(chi, basis, bit):
    """Hand-expanded heralded receiver kets, un-normalized."""
    a, b = chi / 2.0, chi**2 / (2.0 * SQ2)
    if basis == "+":
        if bit == 0:
            return {(1, 0): a, (2, 1): -b}
        return {(0, 1): -a, (1, 2): b}
    c, d = chi / (2.0 * SQ2), chi**2 / 4.0
    if bit == 0:
        return {(1, 0): c, (0, 1): c, (1, 2): -d, (2, 1): -d}
    return {(1, 0): c, (0, 1): -c, (1, 2): d, (2, 1): -d}


def assert_same_terms(vec, terms, atol=1e-15):
    got = {p: a for p, a in vec.items()}
    assert set(got) == set(terms)
    for p, a in terms.items():
        assert got[p] == pytest.approx(a, abs=atol)


# ---------------------------------------------------------------- wcp


@pytest.mark.parametrize("basis", ["+", "x"])
@pytest.mark.parametrize("bit", [0, 1])
def test_wcp_matches_reference_expansion(basis, bit):
    for alpha in (0.3, math.sqrt(0.1)):
        ref = FockVector.from_terms(2, expected_wcp_terms(alpha, basis, bit))
        ref_unit, _ = normalize(ref)
        mq = wcp_state(wcp_params(alpha), basis, bit)
        diff = mq.state - ref_unit
        assert diff.norm() < 1e-14


def test_wcp_amplitude_example():
    # alpha = 0.3: un-normalized coefficients 0.955, 0.3, 0.0636...
    terms = expected_wcp_terms(0.3, "+", 0)
    assert terms[(0, 0)] == pytest.approx(0.955, abs=1e-12)
    assert terms[(1, 0)] == 0.3
    assert terms[(2, 0)] == pytest.approx(0.06364, abs=5e-6)
    # and the produced state preserves the coefficient ratios
    st = wcp_state(wcp_params(0.3), "+", 0).state
    assert st.amplitude((1, 0)) / st.amplitude((0, 0)) == pytest.approx(
        0.3 / 0.955, rel=1e-12
    )
    assert st.amplitude((2, 0)) / st.amplitude((0, 0)) == pytest.approx(
        terms[(2, 0)] / 0.955, rel=1e-12
    )


def test_wcp_first_order_keeps_vacuum_term_drops_two_photons():
    alpha = 0.3
    st = wcp_state(wcp_params(alpha, order=1), "x", 1).state
    n = math.sqrt((1 - alpha**2 / 2) ** 2 + alpha**2)
    assert st.amplitude((0, 0)) == pytest.approx((1 - alpha**2 / 2) / n, rel=1e-12)
    assert st.amplitude((1, 0)) == pytest.approx(alpha / SQ2 / n, rel=1e-12)
    assert st.amplitude((0, 1)) == pytest.approx(-alpha / SQ2 / n, rel=1e-12)
    for p in ((2, 0), (1, 1), (0, 2)):
        assert st.amplitude(p) == 0.0


def test_wcp_exact_coherent_ladder():
    alpha = 0.3
    st = wcp_state(wcp_params(alpha), "+", 0, exact_coherent=True).state
    base = st.amplitude((0, 0))
    for n in range(1, 5):
        ratio = st.amplitude((n, 0)) / base
        assert ratio == pytest.approx(alpha**n / math.sqrt(math.factorial(n)), rel=1e-12)
    mean = st.mean_photon(0) + st.mean_photon(1)
    assert mean == pytest.approx(alpha**2, abs=1e-8)


def test_wcp_catalog_is_rank_four():
    states = signal_states(wcp_params(math.sqrt(0.1)))
    patterns = sorted({p for mq in states for p, _ in mq.state.items()})
    m = np.array(
        [[mq.state.amplitude(p) for p in patterns] for mq in states], dtype=complex
    )
    assert np.linalg.matrix_rank(m, tol=1e-10) == 4


@pytest.mark.parametrize("bit", [0, 1])
def test_wcp_diagonal_states_rotate_onto_rectilinear(bit):
    # analyzing a diagonal state in the rotated frame puts every photon in
    # the one counting mode wired to its bit — the honest channel has zero
    # intrinsic error.  Amplitudes match the rectilinear ket up to
    # per-photon-number signs, so the count distributions agree exactly.
    p = wcp_params(math.sqrt(0.1))
    rot = rotate_modes(wcp_state(p, "x", bit).state, 0, 1, -math.pi / 4)
    rect = wcp_state(p, "+", bit).state
    wrong_mode = 1 - bit
    for pattern, _ in rot.items():
        assert pattern[wrong_mode] == 0
    for pattern, amp in rect.items():
        assert abs(rot.amplitude(pattern)) == pytest.approx(abs(amp), rel=1e-12)


def test_wcp_mean_photon_number():
    alpha = math.sqrt(0.1)
    st = wcp_state(wcp_params(alpha), "+", 0).state
    nsq = (1 - alpha**2 / 2) ** 2 + alpha**2 + alpha**4 / 2
    expected = (alpha**2 + alpha**4) / nsq
    assert st.mean_photon(0) + st.mean_photon(1) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- pdc


@pytest.mark.parametrize("chi", [0.01, 0.1])
def test_pdc_singlet_matches_reference_expansion(chi):
    v = pdc_modified_singlet(pdc_params(chi))
    assert_same_terms(v, expected_singlet_terms(chi), atol=1e-15)
    assert v.norm_sq() == pytest.approx(1.0 + 1.25 * chi**4, rel=1e-12)


def test_pdc_singlet_first_order():
    chi = 0.1
    v = pdc_modified_singlet(pdc_params(chi, order=1))
    assert_same_terms(v, expected_singlet_terms(chi, order=1), atol=1e-15)
    assert len(list(v.items())) == 5


def test_pdc_rotated_intermediate_amplitudes():
    # diagonal-basis analysis: rotating the sender modes produces these
    # single-sender-photon and chi^2 cross amplitudes
    chi = 0.1
    rot = rotate_modes(pdc_modified_singlet(pdc_params(chi)), 0, 1, -math.pi / 4)
    c1 = chi / (2 * SQ2)
    c2 = chi**2 / 4.0
    expected = {
        (0, 1, 1, 0): +c1,
        (1, 0, 1, 0): +c1,
        (1, 0, 0, 1): -c1,
        (0, 1, 0, 1): +c1,
        (1, 0, 1, 2): +c2,
        (0, 1, 1, 2): -c2,
        (0, 1, 2, 1): -c2,
        (1, 0, 2, 1): -c2,
    }
    for pattern, amp in expected.items():
        assert rot.amplitude(pattern) == pytest.approx(amp, abs=1e-15)


@pytest.mark.parametrize("basis", ["+", "x"])
def test_pdc_heralded_states_and_weights(basis):
    chi = 0.1
    params = pdc_params(chi)
    singlet = pdc_modified_singlet(params)
    nsq = singlet.norm_sq()
    branches = pdc_accepted_branches(params, basis)
    assert sorted(bit for bit, _ in branches) == [0, 1]
    weight_expected = (chi**2 / 4 + chi**4 / 8) / (1 + 1.25 * chi**4)
    for bit, ws in branches:
        assert ws.weight == pytest.approx(weight_expected, rel=1e-12)
        # scale the unit branch state back to the un-normalized expansion
        scale = math.sqrt(ws.weight * nsq)
        ref = FockVector.from_terms(2, expected_heralded_terms(chi, basis, bit))
        ref_unit, ref_nsq = normalize(ref)
        assert math.sqrt(ref_nsq) == pytest.approx(scale, rel=1e-12)
        diff = ws.state - ref_unit
        assert diff.norm() < 1e-12


def test_pdc_heralded_span_is_two_dimensional():
    chi = 0.1
    kets = {
        (basis, bit): FockVector.from_terms(2, expected_heralded_terms(chi, basis, bit))
        for basis in ("+", "x")
        for bit in (0, 1)
    }
    # the diagonal kets are exact linear combinations of the rectilinear ones
    d0 = kets[("x", 0)] - (1 / SQ2) * (kets[("+", 0)] - kets[("+", 1)])
    d1 = kets[("x", 1)] - (1 / SQ2) * (kets[("+", 0)] + kets[("+", 1)])
    assert d0.norm() < 1e-15
    assert d1.norm() < 1e-15
    patterns = sorted({p for v in kets.values() for p, _ in v.items()})
    m = np.array(
        [[v.amplitude(p) for p in patterns] for v in kets.values()], dtype=complex
    )
    assert np.linalg.matrix_rank(m, tol=1e-12) == 2


def test_pdc_qubit_emission_probability():
    chi = 0.1
    for _, ws in pdc_accepted_branches(pdc_params(chi), "+"):
        # leading-order reading of the exact branch weight: chi^2/4
        assert ws.weight == pytest.approx(chi**2 / 4, rel=2e-2)


@pytest.mark.parametrize("basis", ["+", "x"])
@pytest.mark.parametrize("bit", [0, 1])
def test_pdc_qubit_first_order_is_ideal(basis, bit):
    # equality up to the stored global phase: canonical phase fixing can
    # flip the overall sign relative to the textbook ket
    state = dict(pdc_accepted_branches(pdc_params(0.1, order=1), basis))[bit].state
    overlap = inner_product(state, ideal_bb84_state(basis, bit))
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_signal_states_is_the_weak_pulse_catalog():
    # the pair source's heralded ensemble comes from attack.analyze
    with pytest.raises(ParameterError):
        signal_states(pdc_params(0.1))


# ------------------------------------------------------- alice_measure


def _sender_table(params, basis):
    """alice_measure's table, each nonzero entry's (true, detected) count
    patterns in row-major order, and analyze's heralding of that basis."""
    true, states, joint = alice_measure(pdc_modified_singlet(params), basis, params)
    pats = pattern_index(2)[0]
    i, k = np.nonzero(joint)
    entries = [(pats[true[r]], pats[c]) for r, c in zip(i, k)]
    weights, index = analyze(params).heralding[BASES.index(basis)]
    assert weights.tolist() == joint[i, k].tolist()
    return states, joint, entries, index


@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("basis", ["+", "x"])
def test_alice_measure_probabilities_sum_to_one(eta, basis):
    params = pdc_params(0.1, eta=eta)
    states, joint, entries, index = _sender_table(params, basis)
    assert joint.shape == (len(states), len(pattern_index(2)[0]))
    assert joint.sum() == pytest.approx(1.0, abs=1e-10)
    model = analyze(params)
    for (true_counts, detected), n in zip(entries, index):
        if eta == 1.0:
            assert detected == true_counts
        assert (n >= 0) == (detected in ((1, 0), (0, 1)))
        if n >= 0:
            assert model.labels[n] == 2 * BASES.index(basis) + (detected == (1, 0))


def test_alice_measure_inefficiency_creates_misread_branches():
    params = pdc_params(0.1, eta=0.5)
    _, _, entries, index = _sender_table(params, "+")
    misread = [
        true_counts for (true_counts, detected), n in zip(entries, index)
        if n >= 0 and true_counts != detected
    ]
    assert misread  # e.g. two photons at the sender, one seen
    assert (1, 1) in misread
    # vacuum can be *detected* but never accepted
    vacuum = [n for (_, detected), n in zip(entries, index) if detected == (0, 0)]
    assert vacuum and all(n == -1 for n in vacuum)


def test_alice_measure_first_order_acceptance_probability():
    chi = 0.01
    params = pdc_params(chi, order=1)
    _, joint, entries, index = _sender_table(params, "+")
    weights = joint[np.nonzero(joint)]
    accepted = sum(w for w, n in zip(weights, index) if n >= 0)
    assert accepted == pytest.approx((chi**2 / 2) / (1 + chi**4 / 4), rel=1e-12)
    assert accepted == pytest.approx(chi**2 / 2, rel=1e-7)


# ------------------------------------------------------------ misc


def test_ideal_bb84_states():
    z0 = ideal_bb84_state("+", 0)
    z1 = ideal_bb84_state("+", 1)
    x0 = ideal_bb84_state("x", 0)
    x1 = ideal_bb84_state("x", 1)
    for v in (z0, z1, x0, x1):
        assert v.norm() == pytest.approx(1.0, abs=1e-15)
    assert inner_product(z0, z1) == 0.0
    assert abs(inner_product(x0, x1)) < 1e-15
    assert inner_product(z0, x0) == pytest.approx(1 / SQ2, rel=1e-15)


def test_signal_states_order_and_types():
    states = signal_states(wcp_params(0.3))
    assert [(mq.basis, mq.bit) for mq in states] == [
        ("+", 0), ("+", 1), ("x", 0), ("x", 1)
    ]
    assert all(isinstance(mq, ModifiedQubit) for mq in states)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        SourceParams(kind="laser", amplitude=0.1)
    with pytest.raises(ParameterError):
        SourceParams(kind="wcp", amplitude=0.0)
    with pytest.raises(ParameterError):
        SourceParams(kind="wcp", amplitude=1.0)
    with pytest.raises(ParameterError):
        SourceParams(kind="wcp", amplitude=0.1, expansion_order=3)
    with pytest.raises(ParameterError):
        SourceParams(kind="pdc", amplitude=0.1, alice_detector_efficiency=0.0)
    with pytest.raises(ParameterError):
        wcp_state(wcp_params(0.3), "z", 0)
    with pytest.raises(ParameterError):
        wcp_state(wcp_params(0.3), "+", 2)
    with pytest.raises(ParameterError):
        pdc_modified_singlet(wcp_params(0.3))
    with pytest.raises(ParameterError):
        wcp_state(pdc_params(0.1), "+", 0)
