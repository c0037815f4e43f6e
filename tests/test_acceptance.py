"""Acceptance gate: one test per headline capability of the package.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming its check
(visible with ``pytest -s``, or in the captured-output section of a
failure report).  Tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fockqkd.attack import (
    CONCLUSIVE_ATTACK,
    ChannelModel,
    ProtocolConfig,
    critical_transmission,
    eve_conclusive_rate,
    honest_yield,
    multiphoton_stats,
    run_protocol_monte_carlo,
    signal_ensemble,
)
from fockqkd.discrimination import (
    StateEnsemble,
    gram,
    numerical_rank,
    usd_povm_equal,
)
from fockqkd.fock import (
    FockVector,
    all_count_outcomes,
    apply_loss,
    inner_product,
    normalize,
    rotate_modes,
)
from fockqkd.sources import SourceParams, pdc_modified_singlet

from sender_table import pdc_accepted_branches

SQ2 = math.sqrt(2.0)
ALPHA_SQ_01 = math.sqrt(0.1)


@contextmanager
def report(label: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    else:
        print(f"[PASS] {label}")


def wcp(alpha: float, order: int = 2) -> SourceParams:
    return SourceParams(kind="wcp", amplitude=alpha, expansion_order=order)


def pdc(chi: float) -> SourceParams:
    return SourceParams(kind="pdc", amplitude=chi)


# ------------------------------------------------- reference displays
# Hand-transcribed second-order expansions used as the regression
# targets; mode order is (sender_V, sender_H, receiver_V, receiver_H)
# and, for heralded states, (receiver_V, receiver_H).


def singlet_reference(chi: float) -> dict[tuple[int, ...], float]:
    c1 = chi / 2.0
    c2 = chi * chi / 4.0
    return {
        (0, 0, 0, 0): 1.0 - chi * chi / 2.0,
        (0, 1, 1, 0): c1,
        (1, 1, 0, 0): c1,
        (0, 0, 1, 1): -c1,
        (1, 0, 0, 1): -c1,
        (0, 2, 2, 0): c2,
        (2, 2, 0, 0): c2,
        (0, 0, 2, 2): c2,
        (2, 0, 0, 2): c2,
        (1, 1, 1, 1): -2.0 * c2,
        (1, 0, 1, 2): SQ2 * c2,
        (0, 1, 2, 1): -SQ2 * c2,
        (1, 2, 1, 0): SQ2 * c2,
        (2, 1, 0, 1): -SQ2 * c2,
    }


def heralded_reference(chi: float) -> dict[tuple[str, int], dict]:
    a = chi / 2.0
    b = chi / (2.0 * SQ2)
    c = chi * chi / (2.0 * SQ2)
    d = chi * chi / 4.0
    return {
        ("+", 0): {(1, 0): a, (2, 1): -c},
        ("+", 1): {(0, 1): -a, (1, 2): c},
        ("x", 0): {(1, 0): b, (0, 1): b, (1, 2): -d, (2, 1): -d},
        ("x", 1): {(1, 0): b, (0, 1): -b, (1, 2): d, (2, 1): -d},
    }


def rotated_intermediate_reference(chi: float) -> dict[tuple[int, ...], float]:
    b = chi / (2.0 * SQ2)
    d = chi * chi / 4.0
    return {
        (0, 1, 1, 0): b,
        (1, 0, 1, 0): b,
        (1, 0, 0, 1): -b,
        (0, 1, 0, 1): b,
        (1, 0, 1, 2): d,
        (0, 1, 1, 2): -d,
        (0, 1, 2, 1): -d,
        (1, 0, 2, 1): -d,
    }


def reference_ket(terms: dict) -> FockVector:
    n_modes = len(next(iter(terms)))
    return FockVector.from_terms(n_modes, terms)


def mode_mean(v: FockVector, mode: int) -> float:
    total = v.norm_sq()
    return sum(abs(a) ** 2 * p[mode] for p, a in v.items()) / total


# ---------------------------------------------------------- criteria


def test_acceptance_01_pair_source_expansion():
    with report("pair-source second-order expansion and norm"):
        for chi in (0.01, 0.1):
            state = pdc_modified_singlet(pdc(chi))
            ref = singlet_reference(chi)
            got = dict(state.items())
            assert set(got) == set(ref)
            for pattern, coeff in ref.items():
                assert abs(got[pattern] - coeff) <= 1e-15 * max(1.0, abs(coeff))
            assert abs(state.norm_sq() - (1.0 + 1.25 * chi**4)) <= 1e-12


def test_acceptance_02_heralded_state_projections():
    with report("heralded-state projection regression (both bases)"):
        for chi in (0.01, 0.1):
            params = pdc(chi)
            singlet_nsq = pdc_modified_singlet(params).norm_sq()
            refs = heralded_reference(chi)
            for basis in ("+", "x"):
                branches = dict(pdc_accepted_branches(params, basis))
                for bit in (0, 1):
                    ref = reference_ket(refs[basis, bit])
                    got = branches[bit]
                    # reconstruct the unnormalized ket; stored states
                    # carry a canonical global phase, so align signs on
                    # the leading amplitude before comparing
                    scale = math.sqrt(got.weight * singlet_nsq)
                    lead = min(ref.items())[0]
                    sign = 1.0 if (
                        (got.state.amplitude(lead) * ref.amplitude(lead)).real > 0
                    ) else -1.0
                    rebuilt = (sign * scale) * got.state
                    for pattern, coeff in ref.items():
                        assert abs(rebuilt.amplitude(pattern) - coeff) <= 1e-12
                    assert abs(rebuilt.norm_sq() - ref.norm_sq()) <= 1e-12
            # the diagonal-basis rotation intermediate
            rotated = rotate_modes(pdc_modified_singlet(params), 0, 1, -math.pi / 4)
            for pattern, coeff in rotated_intermediate_reference(chi).items():
                assert abs(rotated.amplitude(pattern) - coeff) <= 1e-12


def test_acceptance_03_pair_source_linear_dependence_immunity():
    with report("pair-source two-dimensional span and attack immunity"):
        for chi in (1e-3, 0.05, 0.2):
            refs = heralded_reference(chi)
            k0p = reference_ket(refs["+", 0])
            k1p = reference_ket(refs["+", 1])
            k0x = reference_ket(refs["x", 0])
            k1x = reference_ket(refs["x", 1])
            assert (k0x - (1.0 / SQ2) * (k0p - k1p)).norm() <= 1e-12
            assert (k1x - (1.0 / SQ2) * (k0p + k1p)).norm() <= 1e-12
            units = [normalize(k)[0] for k in (k0p, k1p, k0x, k1x)]
            assert numerical_rank(gram(StateEnsemble(units))) == 2
            assert numerical_rank(gram(signal_ensemble(pdc(chi)))) == 2
            assert eve_conclusive_rate(pdc(chi)) == 0.0
            assert critical_transmission(pdc(chi)) is None


def test_acceptance_04_weak_pulse_catalog_rank():
    with report("weak-pulse catalog rank by expansion order"):
        for alpha in (0.1, 0.3):
            g1 = gram(signal_ensemble(wcp(alpha, order=1)))
            g2 = gram(signal_ensemble(wcp(alpha, order=2)))
            assert numerical_rank(g1, tol=1e-8) == 3
            assert numerical_rank(g2, tol=1e-8) == 4


def _random_two_state_ensemble(rng) -> tuple[StateEnsemble, float]:
    phi = rng.uniform(0.1, 1.5)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    # a random pure state pair with overlap cos(phi), expressed in a
    # randomly rotated one-mode two-level span
    a = FockVector.from_terms(1, {(0,): math.cos(psi), (1,): math.sin(psi)})
    b_raw = {
        (0,): math.cos(phi) * math.cos(psi)
        - math.sin(phi) * math.sin(psi) * np.exp(1j * theta),
        (1,): math.cos(phi) * math.sin(psi)
        + math.sin(phi) * math.cos(psi) * np.exp(1j * theta),
    }
    b = FockVector.from_terms(1, b_raw)
    b = (1.0 / b.norm()) * b
    overlap = abs(inner_product(a, b))
    return StateEnsemble([a, b]), overlap


def _grid_search_two_state_q(ensemble: StateEnsemble, step: float = 2e-5) -> float:
    # brute force: largest q on the grid keeping the inconclusive
    # element positive semidefinite, built from scratch (QR coordinates
    # rather than the library's SVD route)
    from fockqkd.discrimination import ambient_matrix

    raw = ambient_matrix(ensemble)
    q_basis, _ = np.linalg.qr(raw.T.conj())
    coords = raw @ q_basis.conj()
    g = coords @ coords.conj().T
    recip = np.linalg.inv(g).T @ coords
    s_mat = sum(np.outer(r, r.conj()) for r in recip)
    qs = np.arange(0.0, 1.0 + step, step)
    stack = np.eye(2)[None, :, :] - qs[:, None, None] * s_mat[None, :, :]
    feasible = np.linalg.eigvalsh(stack)[:, 0] >= -1e-12
    return float(qs[feasible][-1])


def test_acceptance_05_two_state_usd_oracle():
    with report("two-state discrimination against overlap formula and grid"):
        rng = np.random.default_rng(20240822)
        for _ in range(20):
            ensemble, overlap = _random_two_state_ensemble(rng)
            povm = usd_povm_equal(ensemble)
            q = float(povm.conclusive_probabilities[0])
            assert abs(q - (1.0 - overlap)) <= 1e-4
            assert abs(q - _grid_search_two_state_q(ensemble)) <= 1e-4
            assert povm.min_inconclusive_eigenvalue >= -1e-10
            for element in povm.conclusive_elements:
                assert np.linalg.eigvalsh(element)[0] >= -1e-10
            assert np.linalg.eigvalsh(povm.inconclusive_element)[0] >= -1e-10


def test_acceptance_06_conclusive_rate_power_law():
    with report("conclusive-rate quartic power law in the amplitude"):
        alphas = np.array([0.01, 0.03, 0.1, 0.3])
        rates = np.array([eve_conclusive_rate(wcp(a)) for a in alphas])
        slope = np.polyfit(np.log(alphas), np.log(rates), 1)[0]
        assert abs(slope - 4.0) <= 0.2


def _closed_form_critical_transmission(alpha_sq: float) -> float:
    """t* of the order-2 weak pulse from numpy alone.

    Signal state c0|0> + alpha|1_u> + (alpha^2/sqrt2)|2_u> with
    c0 = 1 - alpha^2/2, normalised by N = c0^2 + alpha^2 + alpha^4/2, in
    the polarizations u = V, H, (V+H)/sqrt2, (V-H)/sqrt2.  Overlaps are
    G_ij = (c0^2 + alpha^2 cos + alpha^4 cos^2 / 2) / N with cos = u_i.u_j;
    the equal-probability USD succeeds with lambda_min(G) on every label.
    The honest yield p1 t + p2 (1 - (1 - t)^2) meets it at the smaller
    root of p2 t^2 - (p1 + 2 p2) t + lambda = 0.
    """
    c0 = 1.0 - alpha_sq / 2.0
    norm = c0**2 + alpha_sq + alpha_sq**2 / 2.0
    u = np.array([[1.0, 0.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2], [1 / SQ2, -1 / SQ2]])
    cos = u @ u.T
    g = (c0**2 + alpha_sq * cos + 0.5 * alpha_sq**2 * cos**2) / norm
    lam = np.linalg.eigvalsh(g)[0]
    p1 = alpha_sq / norm
    p2 = 0.5 * alpha_sq**2 / norm
    b = p1 + 2.0 * p2
    return 2.0 * lam / (b + math.sqrt(b * b - 4.0 * p2 * lam))


def test_acceptance_07_fatal_loss_band():
    with report("fatal loss at mean photon number 0.1: high, and the closed form"):
        t_star = critical_transmission(wcp(ALPHA_SQ_01))
        t_closed = _closed_form_critical_transmission(0.1)
        fatal = 1.0 - t_star
        print(
            f"[INFO] computed fatal channel loss at mean photon number 0.1: "
            f"{100 * fatal:.4f}% (critical transmission {t_star:.9e}; "
            f"closed form {t_closed:.9e})"
        )
        assert 0.0 < t_star < 1.0
        assert fatal >= 0.85
        assert abs(t_star - t_closed) <= 1e-9 * t_closed


def test_acceptance_08_source_statistics():
    with report("vacuum fraction and conditional multiphoton statistics"):
        alpha = 0.3
        stats = multiphoton_stats(wcp(alpha))
        assert abs(stats.p0 - (1.0 - alpha**2)) <= alpha**4
        chi = 1e-3
        pdc_stats = multiphoton_stats(pdc(chi))
        assert pdc_stats.p_multi_conditional == pytest.approx(1e-6, rel=0.20)


def test_acceptance_09_monte_carlo_consistency():
    with report("Monte Carlo agreement with analytics, honest and attacked"):
        start = time.monotonic()
        n = 10**6

        def run(source, t, seed, attack=None):
            config = ProtocolConfig(
                source=source, channel=ChannelModel(t), n_pulses=n, seed=seed
            )
            if attack is None:
                return run_protocol_monte_carlo(config)
            return run_protocol_monte_carlo(config, attack)

        for source, t, seed in (
            (wcp(ALPHA_SQ_01), 0.5, 12345),
            (pdc(0.1), 0.5, 7),
        ):
            rep = run(source, t, seed)
            expected = honest_yield(source, ChannelModel(t))
            sigma = math.sqrt(expected * (1 - expected) / rep.alice_accepted)
            assert abs(rep.detection_yield - expected) <= 4 * sigma

        source = wcp(ALPHA_SQ_01)
        t_attack = 0.5 * critical_transmission(source)
        rep = run(source, t_attack, 99, attack=CONCLUSIVE_ATTACK)
        assert rep.qber <= 0.001
        assert rep.detection_yield >= honest_yield(source, ChannelModel(t_attack))
        assert rep.eve_known_fraction_of_sifted == 1.0
        elapsed = time.monotonic() - start
        print(f"[INFO] Monte Carlo consistency runs took {elapsed:.1f} s")
        assert elapsed < 300.0


def _random_state(rng) -> FockVector:
    n_modes = int(rng.integers(2, 4))
    n_terms = int(rng.integers(2, 7))
    per_mode = 6 // n_modes  # keeps every pattern under the photon bound
    terms = {}
    for _ in range(n_terms):
        pattern = tuple(int(c) for c in rng.integers(0, per_mode + 1, size=n_modes))
        terms[pattern] = complex(rng.normal(), rng.normal())
    v = FockVector.from_terms(n_modes, terms)
    return (1.0 / v.norm()) * v


def test_acceptance_10_fock_algebra_properties():
    with report("rotation, projection, and loss invariants on random states"):
        rng = np.random.default_rng(61550)
        for _ in range(120):
            v = _random_state(rng)
            theta = rng.uniform(-math.pi, math.pi)
            rotated = rotate_modes(v, 0, 1, theta)
            assert abs(rotated.norm_sq() - 1.0) <= 1e-12
            back = rotate_modes(rotated, 0, 1, -theta)
            assert (back - v).norm() <= 1e-12

            outcomes = all_count_outcomes(v, (0,))
            assert abs(sum(w.weight for _, w in outcomes) - 1.0) <= 1e-12

            t = rng.uniform(0.05, 0.95)
            branches = apply_loss(v, 0, t)
            assert abs(sum(b.weight for b in branches) - 1.0) <= 1e-12
            lost_mean = sum(
                b.weight * mode_mean(b.state, 0) for b in branches if b.weight > 0
            )
            assert abs(lost_mean - t * mode_mean(v, 0)) <= 1e-10
