"""Tests for the signal-state catalogs.

The reference expansions used here were derived by hand (and
cross-checked with a dense linear-algebra oracle for the rotations):
second-order kets for the weak coherent pulse and for the pair source,
including the heralded receiver states and the rotated intermediate
amplitudes of the diagonal-basis analysis.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fockqkd.sources
from fockqkd.attack import analyze, critical_transmission, eve_conclusive_rate
from fockqkd.discrimination import (
    ConsistencyError,
    NotDiscriminable,
    StateEnsemble,
    usd_povm_equal,
)
from fockqkd.fock import (
    _CACHED,
    FockVector,
    inner_product,
    normalize,
    normalize_rows,
    pattern_index,
    rotate_modes,
)
from fockqkd.sources import (
    BASES,
    ModifiedQubit,
    ParameterError,
    SourceParams,
    alice_measure,
    ideal_bb84_state,
    ideal_signal_states,
    pdc_modified_singlet,
    signal_states,
    wcp_state,
)

from fock_oracle import mean_photon
from sender_table import pdc_accepted_branches, sender_table

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


def entry_by_entry_kets(coeffs, labels):
    """Un-normalized kets of ``labels``, each amplitude c * a filled in one
    entry at a time from the n-photon polarized amplitudes."""
    position = pattern_index(2)[1]
    rows = np.zeros((len(labels), len(position)), dtype=complex)
    for row, label in zip(rows, labels):
        for n, c in enumerate(coeffs):
            for pattern, a in fockqkd.sources._n_photon_polarized(
                n, *fockqkd.sources._POLARIZATION[label]
            ).items():
                row[position[pattern]] = c * a
    return [unit.tobytes() for unit in normalize_rows(rows)[0]]


@pytest.mark.parametrize("alpha", [1e-160, 1e-9, 0.01, 0.3162, 0.9, 0.999999])
def test_wcp_kets_are_the_entry_by_entry_expansion_bit_for_bit(alpha):
    labels = [(basis, bit) for basis in BASES for bit in (0, 1)]
    for order in (1, 2):
        coeffs = [1.0 - alpha**2 / 2.0, alpha, alpha**2 / SQ2][: order + 1]
        kets = [mq.state.array.tobytes() for mq in signal_states(wcp_params(alpha, order))]
        assert kets == entry_by_entry_kets(coeffs, labels)
        for label in labels:
            ket = wcp_state(wcp_params(alpha, order), *label).state
            assert [ket.array.tobytes()] == entry_by_entry_kets(coeffs, [label])


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
    assert mean_photon(st, 0) + mean_photon(st, 1) == pytest.approx(expected, rel=1e-12)


def test_untruncated_pulse_fatal_loss_closed_form():
    # The README's fatal loss without the truncation, from numpy alone: the
    # coherent states polarized along u_i overlap as exp(-mu (1 - u_i.u_j)),
    # the equal-probability USD identifies each with probability lambda_min
    # of that Gram matrix, and the any-click yield 1 - exp(-mu t) meets it at
    # t*.  The Poisson ladder cut at N_MAX = 6 photons gives a t* within
    # 2.1e-8 relative of this one.
    mu = 0.1
    u = np.array([[1.0, 0.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2], [1 / SQ2, -1 / SQ2]])
    rate = np.linalg.eigvalsh(np.exp(-mu * (1.0 - u @ u.T)))[0]
    t_star = -math.log1p(-rate) / mu
    assert t_star == pytest.approx(7.2654599e-3, rel=1e-8)
    fatal = f"{100 * (1 - t_star):.3f}%"
    assert fatal == "99.273%"
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    assert f"fatal loss of {fatal}" in " ".join(readme.read_text(encoding="utf-8").split())


# ---------------------------------------------------------------- pdc


@pytest.mark.parametrize("chi", [0.01, 0.1])
def test_pdc_singlet_matches_reference_expansion(chi):
    v = pdc_modified_singlet(pdc_params(chi))
    assert_same_terms(v, expected_singlet_terms(chi), atol=1e-15)
    assert v.norm_sq() == pytest.approx(1.0 + 1.25 * chi**4, rel=1e-12)


@pytest.mark.parametrize("chi", [1e-9, 0.01, 0.1, 0.3, 0.999999])
@pytest.mark.parametrize("order", [1, 2])
def test_pdc_singlet_is_the_term_by_term_expansion_bit_for_bit(chi, order):
    # each hand-expanded amplitude is one product, as each bracket entry is
    want = FockVector(4, expected_singlet_terms(chi, order=order))
    assert pdc_modified_singlet(pdc_params(chi, order=order)).array.tobytes() == (
        want.array.tobytes())


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


def _reference_branches(params, basis):
    """The accepted entries of the sender's table: (bit, state, weight) in
    row-major order."""
    return [(e.label & 1, e.state, e.weight) for e in sender_table(params)
            if e.basis == basis and e.index >= 0]


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("eta", [1.0, 0.8, 0.5])
@pytest.mark.parametrize("chi", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("order", [1, 2])
def test_accepted_branches_are_the_sender_table_entries(order, chi, eta, basis):
    params = pdc_params(chi, order=order, eta=eta)
    got = [(bit, ws.state.array.tobytes(), ws.weight.hex())
           for bit, ws in pdc_accepted_branches(params, basis)]
    want = [(bit, state.tobytes(), weight.hex())
            for bit, state, weight in _reference_branches(params, basis)]
    assert got == want
    assert all(type(bit) is int for bit, _ in pdc_accepted_branches(params, basis))


def test_accepted_branches_need_a_pair_source_and_a_basis():
    with pytest.raises(ParameterError):
        pdc_accepted_branches(wcp_params(0.3), "+")
    with pytest.raises(ParameterError):
        pdc_accepted_branches(pdc_params(0.1), "z")


# the package's own __init__ would import fockqkd.attack first
_IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("fockqkd")
package.__path__ = [sys.argv[1]]
sys.modules["fockqkd"] = package
importlib.import_module("fockqkd." + sys.argv[2])
"""


@pytest.mark.parametrize("module", ["fock", "discrimination", "sources", "attack", "cli"])
def test_each_module_imports_first_on_its_own(module):
    package_dir = os.path.dirname(os.path.abspath(fockqkd.sources.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FIRST, package_dir, module],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_signal_states_is_the_weak_pulse_catalog():
    # the pair source's heralded ensemble comes from attack.analyze
    with pytest.raises(ParameterError):
        signal_states(pdc_params(0.1))


# ------------------------------------------------------- alice_measure


@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("basis", ["+", "x"])
def test_alice_measure_probabilities_sum_to_one(eta, basis):
    params = pdc_params(0.1, eta=eta)
    _, states, joint = alice_measure(pdc_modified_singlet(params), basis, params)
    assert joint.shape == (len(states), len(pattern_index(2)[0]))
    assert joint.sum() == pytest.approx(1.0, abs=1e-10)
    model = analyze(params)
    for e in sender_table(params):
        if e.basis != basis:
            continue
        if eta == 1.0:
            assert e.detected == e.true
        assert (e.index >= 0) == (e.detected in ((1, 0), (0, 1)))
        if e.index >= 0:
            assert model.labels[e.index] == 2 * BASES.index(basis) + (e.detected == (1, 0))


def test_alice_measure_inefficiency_creates_misread_branches():
    table = [e for e in sender_table(pdc_params(0.1, eta=0.5)) if e.basis == "+"]
    misread = [e.true for e in table if e.index >= 0 and e.true != e.detected]
    assert misread  # e.g. two photons at the sender, one seen
    assert (1, 1) in misread
    # vacuum can be *detected* but never accepted
    vacuum = [e.index for e in table if e.detected == (0, 0)]
    assert vacuum and all(n == -1 for n in vacuum)


def test_alice_measure_first_order_acceptance_probability():
    chi = 0.01
    table = sender_table(pdc_params(chi, order=1))
    accepted = sum(e.weight for e in table if e.basis == "+" and e.index >= 0)
    assert accepted == pytest.approx((chi**2 / 2) / (1 + chi**4 / 4), rel=1e-12)
    assert accepted == pytest.approx(chi**2 / 2, rel=1e-7)


def test_alice_measure_needs_two_arms_and_a_basis():
    params = pdc_params(0.1)
    with pytest.raises(ParameterError, match="4-mode state"):
        alice_measure(ideal_bb84_state("+", 0), "+", params)
    with pytest.raises(ParameterError, match="basis must be one of"):
        alice_measure(pdc_modified_singlet(params), "z", params)


def test_pair_source_analysis_wraps_no_branch_in_a_fock_vector(monkeypatch):
    params = pdc_params(0.1, eta=0.8)
    analyze(params)  # the cached kernels build their own vectors on first use
    built = []  # the mode count of each vector made
    wrap, init = FockVector._of, FockVector.__init__

    def counted_init(self, mode_count, amps):
        built.append(mode_count)
        init(self, mode_count, amps)

    monkeypatch.setattr(FockVector, "__init__", counted_init)
    monkeypatch.setattr(FockVector, "_of", classmethod(
        lambda cls, mode_count, array: built.append(mode_count) or wrap(mode_count, array)))
    model = analyze(params)
    # the singlet and its turn in each basis; the 28 branches are matrix rows
    assert built == [4, 4, 4]
    assert len(model.ensemble) == 28


# ------------------------------------------------------------ USD cache

_MEASURED_SOURCES = (
    [wcp_params(alpha, order) for alpha in (0.01, 0.316, 0.9) for order in (1, 2)]
    + [pdc_params(chi, eta=eta) for chi in (0.1, 0.3) for eta in (1.0, 0.8)]
    + [None]  # the ideal catalog
)


def count_measurements(monkeypatch):
    """The ensembles that the cache hands to ``usd_povm_equal``, in order."""
    measured, real = [], fockqkd.sources.usd_povm_equal
    monkeypatch.setattr(fockqkd.sources, "usd_povm_equal",
                        lambda ensemble: measured.append(ensemble) or real(ensemble))
    return measured


def _source_id(source):
    if source is None:
        return "ideal"
    return (f"{source.kind}-{source.amplitude}-order{source.expansion_order}"
            f"-eta{source.alice_detector_efficiency}")


@pytest.mark.parametrize("source", _MEASURED_SOURCES, ids=_source_id)
def test_cached_conclusive_is_the_direct_measurement_byte_for_byte(source):
    model = analyze(ideal_signal_states() if source is None else source)
    try:
        direct = usd_povm_equal(model.ensemble).conclusive_probabilities
    except NotDiscriminable:
        direct = None
    cached = model.conclusive
    if direct is None:
        assert cached is None
    else:
        assert cached.dtype == direct.dtype and cached.shape == direct.shape
        assert cached.tobytes() == direct.tobytes()
    # a second analysis of the same source reads the same entry
    again = analyze(ideal_signal_states() if source is None else source)
    assert again is not model and again.conclusive is cached


def test_one_measurement_per_ensemble(monkeypatch):
    measured = count_measurements(monkeypatch)
    for _ in range(5):
        assert analyze(wcp_params(0.316)).conclusive is not None
    assert len(measured) == 1
    # the rate and t* of the same source read that one measurement
    eve_conclusive_rate(wcp_params(0.316))
    critical_transmission(wcp_params(0.316), 0.5)
    for _ in range(5):
        analyze(wcp_params(0.316)).conclusive
        analyze(pdc_params(0.1, eta=0.8)).conclusive
    assert len(measured) == 2


def test_priors_are_part_of_the_cache_key(monkeypatch):
    measured = count_measurements(monkeypatch)
    model = analyze(wcp_params(0.316))
    ens = model.ensemble
    skewed = StateEnsemble.from_matrix(ens.mode_count, ens.matrix, (0.4, 0.1, 0.25, 0.25))
    other = dataclasses.replace(model, ensemble=skewed)
    assert model.conclusive is not None and other.conclusive is not None
    # the equal-probability rates do not read the priors, so only the
    # count shows that the same matrix with other priors is another entry
    assert [m.priors for m in measured] == [ens.priors, skewed.priors]
    assert fockqkd.sources._conclusive.cache_info().currsize == 2


def test_cached_conclusive_is_read_only():
    probs = analyze(wcp_params(0.316)).conclusive
    with pytest.raises(ValueError):
        probs[0] = 0.0
    assert analyze(wcp_params(0.316)).conclusive[0] == probs[0]


def test_a_failed_certificate_is_not_cached(monkeypatch):
    real, failures = fockqkd.sources.usd_povm_equal, [ConsistencyError("forced")]

    def fail_once(ensemble):
        if failures:
            raise failures.pop()
        return real(ensemble)

    monkeypatch.setattr(fockqkd.sources, "usd_povm_equal", fail_once)
    with pytest.raises(ConsistencyError, match="forced"):
        analyze(wcp_params(0.316)).conclusive
    model = analyze(wcp_params(0.316))
    direct = real(model.ensemble).conclusive_probabilities
    assert model.conclusive.tobytes() == direct.tobytes()


def test_the_cache_keeps_the_most_recent_ensembles(monkeypatch):
    measured = count_measurements(monkeypatch)
    sources = [wcp_params(0.1 + 0.01 * k) for k in range(_CACHED + 1)]
    for source in sources:
        analyze(source).conclusive
    assert len(measured) == _CACHED + 1 == 17
    analyze(sources[1]).conclusive  # still held
    assert len(measured) == 17
    analyze(sources[0]).conclusive  # the least recently used, evicted
    assert len(measured) == 18
    assert measured[-1] == analyze(sources[0]).ensemble


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
    # True and 2.0 compare equal to 1 and 2 but are not orders
    for order in (True, False, 2.0, 1.0, "2", None, 0, -1):
        with pytest.raises(ParameterError, match="expansion_order"):
            SourceParams(kind="wcp", amplitude=0.1, expansion_order=order)
    assert SourceParams(kind="wcp", amplitude=0.1, expansion_order=np.int64(1))
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
