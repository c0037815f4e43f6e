"""Unambiguous discrimination of linearly independent signal states.

Given an ensemble of unit-norm Fock vectors, this module builds the
measurement that identifies a state with certainty when it fires: each
conclusive element is proportional to the projector onto the reciprocal
(dual-basis) state, so it can never fire on any other ensemble member.
The price is a large inconclusive probability; the equal-probability
family maximizes the common conclusive probability, which equals the
smallest eigenvalue of the overlap (Gram) matrix.

A linearly dependent ensemble admits no such measurement at all — that
case raises :class:`NotDiscriminable`, and it is precisely what makes
one of the modeled sources immune to the conclusive-measurement attack.

All spectral work happens in an orthonormal basis of the ensemble's
span, never in the full Fock space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fockqkd.fock import DimensionMismatch, FockVector, Pattern

RANK_TOL = 1e-8
PSD_TOL = 1e-10
# Relative eigenvalue threshold below which an ensemble is treated as
# genuinely linearly dependent.  Deliberately far below RANK_TOL: the
# structural rank (default tolerance above) separates physical
# second-order effects from noise, while discriminability only fails at
# true singularity — the smallest useful conclusive probabilities sit
# well below RANK_TOL times the largest eigenvalue.
SINGULAR_TOL = 1e-12


class NotDiscriminable(ValueError):
    """The ensemble is linearly dependent: no unambiguous measurement exists."""


class ConsistencyError(RuntimeError):
    """An internal numerical consistency check failed."""


@dataclass(frozen=True)
class StateEnsemble:
    """A discrimination problem instance: unit states with prior weights."""

    states: tuple[FockVector, ...]
    priors: tuple[float, ...]

    def __init__(self, states, priors=None):
        states = tuple(states)
        if not states:
            raise ValueError("ensemble must contain at least one state")
        modes = states[0].mode_count
        for s in states:
            if s.mode_count != modes:
                raise DimensionMismatch("ensemble states must share mode_count")
            if abs(s.norm() - 1.0) > 1e-10:
                raise ValueError("ensemble states must have unit norm")
        if priors is None:
            priors = (1.0 / len(states),) * len(states)
        priors = tuple(float(p) for p in priors)
        if len(priors) != len(states):
            raise ValueError("need one prior per state")
        if any(p < 0 for p in priors):
            raise ValueError("priors must be non-negative")
        if abs(sum(priors) - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class UsdPovm:
    """An unambiguous-discrimination measurement on an ensemble's span.

    ``conclusive_elements[i]`` and ``inconclusive_element`` are Hermitian
    matrices in the orthonormal ``span_basis`` (a tuple of ambient
    patterns paired with the basis coefficient matrix).  The certificate
    ``min_inconclusive_eigenvalue`` sits at the PSD boundary when the
    measurement is optimal within its family.
    """

    ensemble: StateEnsemble
    patterns: tuple[Pattern, ...]
    span_basis: np.ndarray  # (span_dim, len(patterns)) orthonormal rows
    conclusive_elements: tuple[np.ndarray, ...]
    inconclusive_element: np.ndarray
    conclusive_probabilities: np.ndarray
    min_inconclusive_eigenvalue: float


def ambient_matrix(states) -> tuple[tuple[Pattern, ...], np.ndarray]:
    """Stack states into rows over the sorted union of their patterns."""
    patterns = sorted({p for s in states for p, _ in s.items()})
    index = {p: k for k, p in enumerate(patterns)}
    a = np.zeros((len(states), len(patterns)), dtype=complex)
    for i, s in enumerate(states):
        for p, amp in s.items():
            a[i, index[p]] = amp
    return tuple(patterns), a


def gram(ensemble: StateEnsemble) -> np.ndarray:
    """Overlap matrix G_ij = <psi_i|psi_j> of the ensemble states."""
    _, a = ambient_matrix(ensemble.states)
    g = a.conj() @ a.T
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise ConsistencyError("gram matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(g)) < -PSD_TOL:
        raise ConsistencyError("gram matrix is not positive semidefinite")
    return g


def numerical_rank(g: np.ndarray, tol: float = RANK_TOL) -> int:
    """Eigenvalues above ``tol`` times the largest one."""
    eigs = np.linalg.eigvalsh(g)
    top = eigs[-1]
    if top <= 0:
        return 0
    return int(np.sum(eigs > tol * top))


def _require_full_rank(ensemble: StateEnsemble) -> np.ndarray:
    g = gram(ensemble)
    r = numerical_rank(g, tol=SINGULAR_TOL)
    if r < len(ensemble):
        raise NotDiscriminable(
            f"ensemble spans only {r} dimensions for {len(ensemble)} states; "
            "unambiguous discrimination requires linear independence"
        )
    return g


def reciprocal_states(ensemble: StateEnsemble) -> list[FockVector]:
    """Dual-basis vectors: <psi~_i|psi_j> = delta_ij.

    Built as |psi~_i> = sum_j (G^-1)_ji |psi_j>.  Requires a full-rank
    ensemble; the linearly dependent case raises NotDiscriminable.
    """
    g = _require_full_rank(ensemble)
    ginv = np.linalg.inv(g)
    out = []
    for i in range(len(ensemble)):
        acc = None
        for j, s in enumerate(ensemble.states):
            term = complex(ginv[j, i]) * s
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _span_coordinates(ensemble: StateEnsemble, g: np.ndarray):
    """Orthonormal span basis, each state's coordinates in it, and the
    reciprocal-state dyads |psi~_i><psi~_i| in that basis."""
    patterns, a = ambient_matrix(ensemble.states)
    _, svals, vh = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(svals > SINGULAR_TOL * svals[0]))
    basis = vh[:r]
    coords = a @ basis.conj().T  # (k, r): coords[i, m] = <b_m|psi_i>
    recip = np.linalg.inv(g).T @ coords  # rows: reciprocal-state coords
    return patterns, basis, coords, [np.outer(r_i, r_i.conj()) for r_i in recip]


def _assemble_povm(ensemble, patterns, basis, coords, elements) -> UsdPovm:
    """The measurement with these conclusive elements and the inconclusive rest."""
    inconclusive = np.eye(coords.shape[1], dtype=complex) - sum(elements)
    probs = np.array(
        [float(np.real(c.conj() @ e @ c)) for c, e in zip(coords, elements)]
    )
    return UsdPovm(
        ensemble=ensemble,
        patterns=patterns,
        span_basis=basis,
        conclusive_elements=elements,
        inconclusive_element=inconclusive,
        conclusive_probabilities=probs,
        min_inconclusive_eigenvalue=float(np.linalg.eigvalsh(inconclusive)[0]),
    )


def usd_povm_equal(ensemble: StateEnsemble) -> UsdPovm:
    """The maximal equal-conclusive-probability unambiguous measurement.

    Each conclusive element is E_i = q |psi~_i><psi~_i| with the single
    scale q chosen so every state is identified with the same
    probability <psi_i|E_i|psi_i> = q; the largest q keeping the
    inconclusive element positive semidefinite is the smallest
    eigenvalue of the Gram matrix.  The returned measurement carries the
    boundary certificate: the inconclusive element's minimum eigenvalue
    is zero to numerical precision.
    """
    g = _require_full_rank(ensemble)
    eigs = np.linalg.eigvalsh(g)
    q = float(eigs[0])
    patterns, basis, coords, dyads = _span_coordinates(ensemble, g)
    if coords.shape[1] != len(ensemble):
        raise NotDiscriminable("span dimension disagrees with Gram rank")
    elements = tuple(q * d for d in dyads)
    povm = _assemble_povm(ensemble, patterns, basis, coords, elements)
    lam = povm.min_inconclusive_eigenvalue
    # boundary-tightness certificate; the achievable resolution degrades
    # with the conditioning of the Gram inversion
    cond = float(eigs[-1] / eigs[0])
    slack = 50 * np.finfo(float).eps * cond
    if not -max(PSD_TOL, slack) <= lam <= max(1e-6, slack):
        raise ConsistencyError(
            f"inconclusive element not at the PSD boundary (min eig {lam:.3e})"
        )
    return povm


def usd_povm_weighted(ensemble: StateEnsemble, weights=None) -> UsdPovm:
    """Unambiguous measurement with per-state conclusive weights.

    Conclusive elements are E_i = c * w_i * |psi~_i><psi~_i|; the common
    scale c is pushed to the positive-semidefiniteness boundary of the
    inconclusive element by bisection (feasibility checked through the
    minimum eigenvalue, tolerance 1e-8).  With equal weights this is
    an independent route to the equal-probability optimum; unequal
    weights trade conclusive probability between states.
    """
    g = _require_full_rank(ensemble)
    k = len(ensemble)
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k,) or np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be non-negative with at least one positive")
    patterns, basis, coords, dyads = _span_coordinates(ensemble, g)
    weighted_sum = sum(wi * d for wi, d in zip(w, dyads))
    eye = np.eye(coords.shape[1], dtype=complex)

    def feasible(c: float) -> bool:
        return float(np.linalg.eigvalsh(eye - c * weighted_sum)[0]) >= -1e-8

    lo, hi = 0.0, 1.0
    while feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            raise ConsistencyError("bisection failed to bracket the PSD boundary")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    elements = tuple(lo * wi * d for wi, d in zip(w, dyads))
    return _assemble_povm(ensemble, patterns, basis, coords, elements)


def _outcome_probabilities(povm: UsdPovm, state: FockVector) -> np.ndarray:
    index = {p: k for k, p in enumerate(povm.patterns)}
    amb = np.zeros(len(povm.patterns), dtype=complex)
    for p, amp in state.items():
        k = index.get(p)
        if k is not None:  # amplitude outside the span is always inconclusive
            amb[k] = amp
    coords = povm.span_basis.conj() @ amb
    probs = np.array(
        [float(np.real(coords.conj() @ e @ coords)) for e in povm.conclusive_elements]
    )
    total = state.norm_sq()
    p_inconclusive = total - probs.sum()
    probs = np.append(probs, p_inconclusive)
    if np.any(probs < -PSD_TOL) or abs(probs.sum() - 1.0) > 1e-8:
        raise ConsistencyError(
            "outcome probabilities are not a distribution; "
            "the input state must be unit norm"
        )
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def simulate_usd(
    povm: UsdPovm,
    state: FockVector,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Sample measurement outcomes on ``state`` with Born probabilities.

    Returns the conclusive outcome index, or None when inconclusive.
    With ``size`` an array of that many outcomes is drawn instead, with
    inconclusive encoded as -1.
    """
    probs = _outcome_probabilities(povm, state)
    k = len(probs) - 1
    if size is None:
        draw = int(rng.choice(k + 1, p=probs))
        return None if draw == k else draw
    draws = rng.choice(k + 1, size=size, p=probs)
    return np.where(draws == k, -1, draws)
