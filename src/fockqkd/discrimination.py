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

A measurement comes from one SVD of the states stacked as rows of a
matrix A, never from the Gram matrix G = conj(A)·Aᵀ, whose forming would
square A's condition number: q is the smallest singular value squared.
A weighted measurement's scale is 1/lambda_max of its weighted sum of
reciprocal-state projectors, again one eigenvalue and no search.
All spectral work happens in an orthonormal basis of the ensemble's
span, never in the full Fock space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fockqkd.fock import DimensionMismatch, FockVector, Pattern

PSD_TOL = 1e-10
# The one rank rule, of the USD refusal and of ``states``: a Gram eigenvalue
# (a squared singular value) counts if above SINGULAR_TOL times the largest.
SINGULAR_TOL = 1e-12


class NotDiscriminable(ValueError):
    """The ensemble is linearly dependent: no unambiguous measurement
    exists.  ``span_dim`` is the span dimension the refusal measured."""

    def __init__(self, message: str, span_dim: int):
        super().__init__(message)
        self.span_dim = span_dim


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
    matrices in the orthonormal ``span_basis`` (rows over the sorted union
    of the states' patterns).  ``reciprocal_norms[i]`` is the norm of the
    reciprocal state |psi~_i>, sqrt((G^-1)_ii).  The certificate
    ``min_inconclusive_eigenvalue`` sits at the PSD boundary when the
    measurement is optimal within its family.
    """

    ensemble: StateEnsemble
    span_basis: np.ndarray  # (span_dim, patterns) orthonormal rows
    conclusive_elements: tuple[np.ndarray, ...]
    inconclusive_element: np.ndarray
    conclusive_probabilities: np.ndarray
    reciprocal_norms: np.ndarray
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
    """Overlap matrix G_ij = <psi_i|psi_j> of the ensemble states, checked
    Hermitian and positive semidefinite."""
    _, a = ambient_matrix(ensemble.states)
    g = a.conj() @ a.T
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise ConsistencyError("gram matrix is not Hermitian")
    if np.linalg.eigvalsh(g)[0] < -PSD_TOL:
        raise ConsistencyError("gram matrix is not positive semidefinite")
    return g


def _rank(eigs: np.ndarray, tol: float) -> int:
    """Eigenvalues above ``tol`` times the largest; 0 if none is positive."""
    return int(np.sum(eigs > tol * max(np.max(eigs), 0.0)))


def numerical_rank(g: np.ndarray, tol: float = SINGULAR_TOL) -> int:
    """Eigenvalues of the Gram matrix ``g`` above ``tol`` times the largest."""
    return _rank(np.linalg.eigvalsh(g), tol)


def span_dimension(ensemble: StateEnsemble) -> int:
    """Span dimension by the USD refusal's rule, from the same SVD of the
    ambient matrix (see :func:`_dual_frame`)."""
    _, a = ambient_matrix(ensemble.states)
    return _rank(np.linalg.svd(a, full_matrices=False)[1] ** 2, SINGULAR_TOL)


def _dual_frame(ensemble: StateEnsemble):
    """From the SVD A = U·S·Vᴴ of the ambient matrix: the singular values S
    (descending; the Gram eigenvalues are S²), the span basis Vᴴ, the
    states' coordinates U·S in it and the reciprocal states' U/S, with
    <psi~_i|psi_j> = delta_ij.  A linearly dependent ensemble raises
    NotDiscriminable."""
    _, a = ambient_matrix(ensemble.states)
    u, svals, vh = np.linalg.svd(a, full_matrices=False)
    r = _rank(svals**2, SINGULAR_TOL)
    if r < len(ensemble):
        raise NotDiscriminable(
            f"ensemble spans only {r} dimensions for {len(ensemble)} states; "
            "unambiguous discrimination requires linear independence",
            span_dim=r,
        )
    return svals, vh, u * svals, u / svals


def _assemble_povm(ensemble, basis, coords, recip, scales) -> UsdPovm:
    """Conclusive elements scale_i |psi~_i><psi~_i| and the inconclusive rest."""
    elements = tuple(s * np.outer(r, r.conj()) for s, r in zip(scales, recip))
    inconclusive = np.eye(coords.shape[1], dtype=complex) - sum(elements)
    probs = np.array(
        [float(np.real(c.conj() @ e @ c)) for c, e in zip(coords, elements)]
    )
    return UsdPovm(
        ensemble=ensemble,
        span_basis=basis,
        conclusive_elements=elements,
        inconclusive_element=inconclusive,
        conclusive_probabilities=probs,
        reciprocal_norms=np.linalg.norm(recip, axis=1),
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
    is zero within ``PSD_TOL``.
    """
    svals, basis, coords, recip = _dual_frame(ensemble)
    q = float(svals[-1] ** 2)
    povm = _assemble_povm(ensemble, basis, coords, recip, [q] * len(ensemble))
    lam = povm.min_inconclusive_eigenvalue
    if abs(lam) > PSD_TOL:  # boundary-tightness certificate
        raise ConsistencyError(
            f"inconclusive element not at the PSD boundary (min eig {lam:.3e})"
        )
    return povm


def usd_povm_weighted(ensemble: StateEnsemble, weights=None) -> UsdPovm:
    """Unambiguous measurement with per-state conclusive weights.

    Conclusive elements are E_i = c * w_i * |psi~_i><psi~_i|.  The
    weighted sum W = sum_i w_i |psi~_i><psi~_i| is positive semidefinite,
    so the inconclusive element I - c*W stays so up to c = 1/lambda_max(W),
    the scale used.  With equal weights this is an independent route to
    the equal-probability optimum; unequal weights trade conclusive
    probability between states.
    """
    _, basis, coords, recip = _dual_frame(ensemble)
    k = len(ensemble)
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k,) or not np.all((w >= 0) & (w < np.inf)) or not np.any(w > 0):
        raise ValueError("weights must be finite, non-negative, one of them positive")
    w = w / w.max()  # the measurement does not depend on their scale
    weighted_sum = sum(wi * np.outer(r, r.conj()) for wi, r in zip(w, recip))
    scale = 1.0 / np.linalg.eigvalsh(weighted_sum)[-1]
    return _assemble_povm(ensemble, basis, coords, recip, scale * w)
