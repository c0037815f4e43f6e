"""Tests for unambiguous state discrimination.

Independent oracles used here:

* Gram entries for the pulse catalog rebuilt from the hand-expanded
  ket coefficients (no inner_product call);
* ranks cross-checked by a determinant-of-minors computation;
* the two-state measurement cross-checked by brute-force grid search
  over the zero-error family at resolution 1e-4, against the symbolic
  optimum q = 1 - |s|;
* the reciprocal-state norm for two states against the symbolic 2x2
  inverse, 1/(1 - s^2);
* the reciprocal norms against the weighted route: weight on state i
  alone makes E_i = |psi~_i><psi~_i| / <psi~_i|psi~_i>;
* the weak-pulse conclusive rate against lambda_min of the closed-form
  Gram matrix, bisected in 60-digit decimal arithmetic.
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockqkd import discrimination
from fockqkd.attack import analyze, eve_conclusive_rate
from fockqkd.fock import DimensionMismatch, FockVector
from fockqkd.discrimination import (
    PSD_TOL,
    ConsistencyError,
    NotDiscriminable,
    StateEnsemble,
    UsdPovm,
    gram,
    numerical_rank,
    usd_povm_equal,
    usd_povm_weighted,
)
from fockqkd.sources import SourceParams, ideal_bb84_state, signal_states

SQ2 = math.sqrt(2.0)


def wcp_ensemble(alpha, order=2):
    params = SourceParams(kind="wcp", amplitude=alpha, expansion_order=order)
    return StateEnsemble([mq.state for mq in signal_states(params)])


def pdc_ensemble(chi, eta=1.0):
    params = SourceParams(kind="pdc", amplitude=chi, alice_detector_efficiency=eta)
    return analyze(params).ensemble


def test_ensemble_matrix_is_its_stacked_states_read_only():
    # built by the constructor, and by from_matrix in analyze
    for ens in (wcp_ensemble(0.3), pdc_ensemble(0.1, eta=0.8)):
        stacked = np.array([s.array for s in ens.states])
        assert ens.matrix.shape == stacked.shape
        assert ens.matrix.tobytes() == stacked.tobytes()
        with pytest.raises(ValueError):
            ens.matrix[0, 0] = 0.0
    # equality reads the states and priors alone, whichever entry point
    # built the ensemble
    assert wcp_ensemble(0.3) == wcp_ensemble(0.3) != wcp_ensemble(0.2)
    states, priors = wcp_ensemble(0.3).states, (0.1, 0.2, 0.3, 0.4)
    rows = np.array([v.array for v in states])
    by_matrix = StateEnsemble.from_matrix(2, rows, priors)
    assert StateEnsemble(states, priors) == by_matrix != StateEnsemble.from_matrix(2, rows)
    assert (by_matrix.mode_count, by_matrix.priors, len(by_matrix)) == (2, priors, 4)
    assert by_matrix.states == states
    assert by_matrix.states is by_matrix.states  # built once, on first use
    rows[0] = 0.0  # the ensemble holds a copy
    assert by_matrix.states[0] == states[0]


def two_states_with_overlap(s):
    """Unit pair with real overlap s, in the single-photon span."""
    psi0 = FockVector.from_terms(2, {(1, 0): 1.0})
    psi1 = FockVector.from_terms(2, {(1, 0): s, (0, 1): math.sqrt(1 - s * s)})
    return StateEnsemble([psi0, psi1])


def rank_by_minors(g, tol=1e-8):
    """Largest k with some k x k principal minor above tol (oracle)."""
    n = g.shape[0]
    scale = float(np.max(np.abs(g)))
    for k in range(n, 0, -1):
        for rows in itertools.combinations(range(n), k):
            sub = g[np.ix_(rows, rows)]
            if abs(np.linalg.det(sub)) > tol * scale**k:
                return k
    return 0


# ------------------------------------------------------------- gram


def test_gram_ideal_bb84():
    states = [ideal_bb84_state(b, i) for b in ("+", "x") for i in (0, 1)]
    g = gram(StateEnsemble(states))
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    assert abs(g[0, 1]) < 1e-15 and abs(g[2, 3]) < 1e-15
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        assert abs(g[i, j]) == pytest.approx(1 / SQ2, abs=1e-12)
    assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_gram_single_state():
    g = gram(StateEnsemble([ideal_bb84_state("+", 0)]))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_gram_wcp_frozen_entries():
    # overlaps recomputed from the hand-expanded coefficients:
    # same-basis pairs share only the vacuum term; cross-basis pairs
    # overlap in every photon-number sector
    alpha = math.sqrt(0.1)
    c0 = 1 - alpha**2 / 2
    c2 = SQ2 * alpha**2 / 2
    nsq = c0**2 + alpha**2 + c2**2
    same = c0**2 / nsq
    cross = (c0**2 + alpha**2 / SQ2 + c2 * c2 / 2) / nsq
    anti = (c0**2 - alpha**2 / SQ2 + c2 * c2 / 2) / nsq
    g = gram(wcp_ensemble(alpha)).real
    assert g[0, 1] == pytest.approx(same, abs=1e-12)
    assert g[2, 3] == pytest.approx(same, abs=1e-12)
    for i, j in ((0, 2), (0, 3), (1, 2)):
        assert g[i, j] == pytest.approx(cross, abs=1e-12)
    assert g[1, 3] == pytest.approx(anti, abs=1e-12)
    # five-digit regression values
    assert same == pytest.approx(0.89578, abs=1e-5)
    assert cross == pytest.approx(0.96845, abs=1e-5)
    assert anti == pytest.approx(0.82808, abs=1e-5)


def test_gram_rejects_non_unit_states():
    v = FockVector.from_terms(2, {(1, 0): 0.5})
    with pytest.raises(ValueError, match="unit norm"):
        StateEnsemble([v])
    with pytest.raises(ValueError, match="unit norm"):
        StateEnsemble.from_matrix(2, [v.array])


@pytest.mark.parametrize("count, priors, reason", [
    (0, None, "at least one state"),
    (2, (1.0,), "one prior per state"),
    (2, (1.5, -0.5), "non-negative"),
    (2, (0.5, 0.4), "sum to 1"),
])
def test_ensemble_rejects_bad_states_and_priors(count, priors, reason):
    states = [ideal_bb84_state("+", 0), ideal_bb84_state("x", 0)][:count]
    with pytest.raises(ValueError, match=reason):
        StateEnsemble(states, priors)
    with pytest.raises(ValueError, match=reason):
        StateEnsemble.from_matrix(2, [v.array for v in states], priors)


def test_ensemble_is_unhashable():
    for source in (SourceParams("wcp", 0.3), SourceParams("pdc", 0.1)):
        with pytest.raises(TypeError, match="unhashable type: 'StateEnsemble'"):
            hash(analyze(source).ensemble)


def test_gram_rejects_mixed_mode_counts():
    two, four = ideal_bb84_state("+", 0), FockVector(4, {(1, 0, 0, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        StateEnsemble([two, four])
    # rows of four modes read over the two-mode index, a ragged pair, a vector
    for mode_count, rows in ((2, [four.array]), (2, [two.array, four.array]),
                             (2, two.array), (4, [two.array])):
        with pytest.raises(DimensionMismatch):
            StateEnsemble.from_matrix(mode_count, rows)


# ------------------------------------------------------------- rank


def test_rank_wcp_order2_is_four():
    g = gram(wcp_ensemble(0.3))
    assert numerical_rank(g) == 4
    assert rank_by_minors(np.asarray(g)) == 4


def test_rank_wcp_order1_is_three():
    g = gram(wcp_ensemble(0.3, order=1))
    assert numerical_rank(g) == 3
    assert rank_by_minors(np.asarray(g)) == 3


@pytest.mark.parametrize("chi", [0.01, 0.1, 0.3])
def test_rank_pdc_is_two(chi):
    g = gram(pdc_ensemble(chi))
    assert numerical_rank(g) == 2
    assert rank_by_minors(np.asarray(g)) == 2


# ------------------------------------------------- reciprocal states


def test_reciprocal_of_orthonormal_is_identity():
    ens = StateEnsemble([ideal_bb84_state("+", 0), ideal_bb84_state("+", 1)])
    assert np.allclose(usd_povm_equal(ens).reciprocal_norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("s", [0.3, 1 / SQ2, 0.9])
def test_reciprocal_two_state_norm(s):
    # symbolic 2x2 inverse: <psi~|psi~> = 1/(1 - s^2)
    norms = usd_povm_equal(two_states_with_overlap(s)).reciprocal_norms
    assert np.allclose(norms**2, 1 / (1 - s * s), rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.3, math.sqrt(0.1)])
def test_reciprocal_duality(alpha):
    # all weight on state i: E_i = c |psi~_i><psi~_i| with the PSD boundary
    # at c = 1/<psi~_i|psi~_i>, so by duality state i is identified with
    # probability 1/<psi~_i|psi~_i> and every other state never
    ens = wcp_ensemble(alpha)
    norms = usd_povm_equal(ens).reciprocal_norms
    for i in range(len(ens)):
        weights = np.eye(len(ens))[i]
        probs = usd_povm_weighted(ens, weights=weights).conclusive_probabilities
        expect = weights / norms[i] ** 2
        assert np.allclose(probs, expect, rtol=1e-7, atol=1e-12)


# ------------------------------------------------------ equal-q POVM


def grid_search_two_state_q(s, step=1e-4):
    """Brute-force oracle: largest feasible common conclusive probability.

    Zero-error measurements on two pure states must build their
    conclusive elements from the reciprocal-state projectors, so the
    family is parameterized by the common scale alone; feasibility is
    positivity of the inconclusive element.
    """
    c = math.sqrt(1 - s * s)
    psi = [np.array([1.0, 0.0]), np.array([s, c])]
    tilde = [np.array([1.0, -s / c]), np.array([0.0, 1 / c])]
    for t, p in zip(tilde, psi):
        assert abs(t @ p - 1) < 1e-12
    best = 0.0
    for q in np.arange(0.0, 1.0 + step, step):
        e_inc = np.eye(2)
        for t in tilde:
            e_inc = e_inc - q * np.outer(t, t)
        if np.linalg.eigvalsh(e_inc)[0] >= -1e-10:
            best = q
    return best


@pytest.mark.parametrize("s", [0.2, 1 / SQ2, 0.9])
def test_equal_q_two_states_matches_grid_and_formula(s):
    povm = usd_povm_equal(two_states_with_overlap(s))
    q = povm.conclusive_probabilities[0]
    assert q == pytest.approx(1 - s, abs=1e-12)
    assert q == pytest.approx(grid_search_two_state_q(s), abs=1.5e-4)


def test_equal_q_orthogonal_states():
    ens = StateEnsemble([ideal_bb84_state("+", 0), ideal_bb84_state("+", 1)])
    povm = usd_povm_equal(ens)
    assert np.allclose(povm.conclusive_probabilities, 1.0, atol=1e-12)


def check_povm_invariants(povm: UsdPovm, tol_cross=1e-10, tol_psd=1e-10):
    dim = povm.inconclusive_element.shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for e in povm.conclusive_elements:
        assert np.linalg.eigvalsh(e)[0] >= -1e-10
        total += e
    total += povm.inconclusive_element
    assert np.max(np.abs(total - np.eye(dim))) < 1e-12
    assert np.linalg.eigvalsh(povm.inconclusive_element)[0] >= -tol_psd
    # zero cross-talk, on the span coordinates of the ensemble itself
    from fockqkd.discrimination import ambient_matrix

    a = ambient_matrix(povm.ensemble)
    coords = a @ povm.span_basis.conj().T
    for i, e in enumerate(povm.conclusive_elements):
        for j, c in enumerate(coords):
            p = float(np.real(c.conj() @ e @ c))
            if i != j:
                assert p <= tol_cross


def test_equal_q_wcp_invariants_and_value():
    povm = usd_povm_equal(wcp_ensemble(math.sqrt(0.1)))
    check_povm_invariants(povm)
    assert np.allclose(
        povm.conclusive_probabilities, povm.conclusive_probabilities[0], atol=1e-12
    )
    assert povm.conclusive_probabilities[0] == pytest.approx(
        7.115440403364e-04, rel=1e-9
    )
    assert -1e-10 <= povm.min_inconclusive_eigenvalue <= 1e-6
    # the optimum equals the smallest Gram eigenvalue
    g = gram(povm.ensemble)
    assert povm.conclusive_probabilities[0] == pytest.approx(
        float(np.linalg.eigvalsh(g)[0]), rel=1e-12
    )


def test_equal_q_alpha_fourth_power_law():
    alphas = [0.3, 0.1, 0.03, 0.01]
    qs = []
    for a in alphas:
        povm = usd_povm_equal(wcp_ensemble(a))
        qs.append(float(povm.conclusive_probabilities.mean()))
    slope = np.polyfit(np.log(alphas), np.log(qs), 1)[0]
    assert abs(slope - 4.0) < 0.2
    assert slope == pytest.approx(3.9933, abs=2e-3)
    assert qs[0] == pytest.approx(5.783835361421e-04, rel=1e-9)
    assert qs[-1] / alphas[-1] ** 4 == pytest.approx(0.07322, abs=2e-4)


def test_equal_q_pdc_raises():
    with pytest.raises(NotDiscriminable):
        usd_povm_equal(pdc_ensemble(0.1))


def test_q_monotone_in_overlap():
    qs = [
        usd_povm_equal(two_states_with_overlap(s)).conclusive_probabilities[0]
        for s in np.linspace(0.05, 0.95, 10)
    ]
    assert all(a > b for a, b in zip(qs, qs[1:]))


# ------------------------------------------------------ weighted POVM


def test_weighted_equal_weights_agrees_with_eigenvalue_route():
    ens = wcp_ensemble(math.sqrt(0.1))
    q_eig = usd_povm_equal(ens).conclusive_probabilities[0]
    povm = usd_povm_weighted(ens)
    assert np.allclose(povm.conclusive_probabilities, q_eig, rtol=1e-12, atol=0)
    check_povm_invariants(povm)


def test_weighted_unequal_trades_probability():
    ens = wcp_ensemble(math.sqrt(0.1))
    povm = usd_povm_weighted(ens, weights=[0.0, 1.0, 0.0, 1.0])
    probs = povm.conclusive_probabilities
    assert probs[0] == pytest.approx(0.0, abs=1e-12)
    assert probs[2] == pytest.approx(0.0, abs=1e-12)
    assert probs[1] == pytest.approx(probs[3], rel=1e-8)
    # concentrating on two states beats the equal split on average
    avg = float((probs * np.array(ens.priors)).sum())
    assert avg == pytest.approx(2.28625e-3, rel=1e-4)
    assert avg > usd_povm_equal(ens).conclusive_probabilities[0]
    assert abs(povm.min_inconclusive_eigenvalue) < 1e-6


def test_weighted_rejects_bad_weights():
    ens = two_states_with_overlap(0.5)
    with pytest.raises(ValueError):
        usd_povm_weighted(ens, weights=[0.0, 0.0])
    with pytest.raises(ValueError):
        usd_povm_weighted(ens, weights=[-1.0, 1.0])
    with pytest.raises(ValueError):
        usd_povm_weighted(ens, weights=[math.nan, 1.0])
    with pytest.raises(ValueError):
        usd_povm_weighted(ens, weights=[math.inf, 1.0])


# ------------------------------------------- precision against 60 digits


def _reference_q(alpha):
    """lambda_min of the order-2 weak-pulse Gram matrix in 60-digit decimal.

    G is the closed form of the README (c0 = 1 - alpha^2/2, overlaps
    (c0^2 + alpha^2 cos + alpha^4 cos^2 / 2) / N).  By Sylvester's law of
    inertia the number of negative pivots of LDL^T(G - lam I) is the
    number of eigenvalues below lam; bisection on lam then converges to
    the smallest one.  Stdlib only, so it shares no code with numpy.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a2 = decimal.Decimal(alpha) ** 2
        c0 = 1 - a2 / 2
        norm = c0 * c0 + a2 + a2 * a2 / 2
        h = 1 / decimal.Decimal(2).sqrt()
        pol = [(1, 0), (0, 1), (h, h), (h, -h)]
        g = [
            [(c0 * c0 + a2 * c + a2 * a2 * c * c / 2) / norm
             for c in (u[0] * v[0] + u[1] * v[1] for v in pol)]
            for u in pol
        ]

        def below(lam):
            n = len(g)
            l_ = [[decimal.Decimal(0)] * n for _ in range(n)]
            d = []
            for i in range(n):
                for j in range(i):
                    l_[i][j] = (
                        g[i][j] - sum(l_[i][m] * l_[j][m] * d[m] for m in range(j))
                    ) / d[j]
                d.append(g[i][i] - lam - sum(l_[i][m] ** 2 * d[m] for m in range(i)))
            return sum(1 for x in d if x < 0)

        lo, hi = decimal.Decimal(0), decimal.Decimal(1)
        while hi - lo > hi * decimal.Decimal("1e-20"):
            mid = (lo + hi) / 2
            if below(mid) >= 1:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


REFERENCE_Q = {
    0.003: 5.931076290005e-12,
    0.01: 7.322174168182e-10,
    0.03: 5.929945197233e-08,
    0.1: 7.306185091214e-06,
    math.sqrt(0.1): 7.115440403364e-04,
}


@pytest.mark.parametrize("alpha", sorted(REFERENCE_Q))
def test_equal_q_matches_60_digit_reference(alpha):
    ref = _reference_q(alpha)
    assert ref == pytest.approx(REFERENCE_Q[alpha], rel=1e-12, abs=0)
    params = SourceParams(kind="wcp", amplitude=alpha)
    assert eve_conclusive_rate(params) == pytest.approx(ref, rel=1e-10, abs=0)
    povm = usd_povm_equal(wcp_ensemble(alpha))
    q = povm.conclusive_probabilities[0]
    assert np.allclose(povm.conclusive_probabilities, q, rtol=1e-12, atol=0)
    assert abs(povm.min_inconclusive_eigenvalue) <= 1e-12


@pytest.mark.parametrize("factor", [0.995, 1.0001])
def test_certificate_refuses_a_scaled_q(monkeypatch, factor):
    # q off its optimum by 0.5% or 0.01% moves the inconclusive element's
    # minimum eigenvalue to 5e-3 or -1e-4, far outside PSD_TOL, even at a
    # small amplitude where the Gram matrix is badly conditioned
    assemble = discrimination._assemble_povm

    def scaled(ensemble, basis, coords, recip, scales):
        return assemble(ensemble, basis, coords, recip, np.asarray(scales) * factor)

    monkeypatch.setattr(discrimination, "_assemble_povm", scaled)
    with pytest.raises(ConsistencyError, match="not at the PSD boundary"):
        usd_povm_equal(wcp_ensemble(0.003))


def _assembled(monkeypatch, build):
    """The measurement ``build()`` returns and the arguments it handed
    ``_assemble_povm``."""
    seen = []
    assemble = discrimination._assemble_povm

    def spy(*args):
        seen.append(args)
        return assemble(*args)

    monkeypatch.setattr(discrimination, "_assemble_povm", spy)
    povm = build()
    assert len(seen) == 1
    return povm, seen[0]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("alpha", [0.003, 0.1, math.sqrt(0.1), 0.6])
@pytest.mark.parametrize("weighted", [False, True])
def test_povm_assembly_is_bit_for_bit_the_outer_products(
    monkeypatch, alpha, order, weighted
):
    # order 1's four states span 3 dimensions, so three of them are taken
    ensemble = StateEnsemble(wcp_ensemble(alpha, order).states[: 2 + order])
    if weighted:
        weights = np.linspace(1.0, 3.0, len(ensemble))
        povm, args = _assembled(monkeypatch, lambda: usd_povm_weighted(ensemble, weights))
    else:
        povm, args = _assembled(monkeypatch, lambda: usd_povm_equal(ensemble))
    _, basis, coords, recip, scales = args
    assert povm.span_basis is basis
    want = [float(s) * np.outer(r, r.conj()) for s, r in zip(scales, recip)]
    assert len(povm.conclusive_elements) == len(want) == len(ensemble)
    for got, expected in zip(povm.conclusive_elements, want):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    inconclusive = np.eye(coords.shape[1]) - sum(want)
    assert povm.inconclusive_element.tobytes() == inconclusive.tobytes()
    probs = [float(np.real(c.conj() @ e @ c)) for c, e in zip(coords, want)]
    assert povm.conclusive_probabilities.tobytes() == np.array(probs).tobytes()


# ---------------------------------------------- random complex ensembles

# the first eight two-mode patterns, a span large enough for k <= 5 states
_PATTERNS = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2)]


def _random_ensemble(k, extra, seed):
    """k random complex unit states on the first min(k + extra, 8) patterns."""
    m = min(k + extra, len(_PATTERNS))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return StateEnsemble(
        FockVector.from_terms(2, dict(zip(_PATTERNS, row))) for row in rows
    )


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 5),
    extra=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_equal_povm_on_random_complex_ensembles(k, extra, seed):
    povm = usd_povm_equal(_random_ensemble(k, extra, seed))
    check_povm_invariants(povm)
    q = povm.conclusive_probabilities[0]
    assert q > 0
    assert np.allclose(povm.conclusive_probabilities, q, rtol=1e-9, atol=1e-12)


_WEIGHT = st.sampled_from([0.0, 5e-324, 1e300]) | st.floats(0.0, 1e300)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 5),
    extra=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_weighted_povm_is_positive_for_any_weights(k, extra, seed, data):
    # subnormal and huge weights alike: only their ratios may matter
    weights = data.draw(st.lists(_WEIGHT, min_size=k, max_size=k).filter(any))
    povm = usd_povm_weighted(_random_ensemble(k, extra, seed), weights)
    check_povm_invariants(povm)
    assert abs(povm.min_inconclusive_eigenvalue) <= PSD_TOL


# ----------------------------------------------------- one spectrum


def count_spectral_calls(monkeypatch, build):
    """svd, eigvalsh, inv and ambient_matrix calls made by ``build()``."""
    counts = {"svd": 0, "eigvalsh": 0, "inv": 0, "ambient_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "eigvalsh", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(
        discrimination,
        "ambient_matrix",
        counted("ambient_matrix", discrimination.ambient_matrix),
    )
    build()
    return counts


def test_equal_povm_takes_one_gram_spectrum(monkeypatch):
    # one SVD for the dual frame, one eigvalsh for the inconclusive certificate
    ens = wcp_ensemble(0.3)
    counts = count_spectral_calls(monkeypatch, lambda: usd_povm_equal(ens))
    assert counts == {"svd": 1, "eigvalsh": 1, "inv": 0, "ambient_matrix": 1}


def test_refusal_takes_one_gram_spectrum(monkeypatch):
    ens = pdc_ensemble(0.1, eta=0.8)

    def refuse():
        with pytest.raises(NotDiscriminable, match="spans only 8 dimensions"):
            usd_povm_equal(ens)

    counts = count_spectral_calls(monkeypatch, refuse)
    assert counts == {"svd": 1, "eigvalsh": 0, "inv": 0, "ambient_matrix": 1}
