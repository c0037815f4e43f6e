"""Claims of the source paper, checked on the analysed sources.

(b) The heralded pair source does not reveal the basis.  The receiver's
state averaged over the heralded states of one basis,
rho_b = sum over basis-b states of 2 * send_probability * |psi><psi|, is the
same operator for both bases, to first and second order in the pair
amplitude and at any sender detector efficiency: the two arms of a pair
are anticorrelated in every basis, so the sender's choice of basis leaves
the receiver's reduced state alone.  The weak pulse carries its basis in
its polarization, and its two averages differ.

Each rho_b here has the trace of the acceptance probability (below 1 for
the pair source, which heralds nothing on vacuum), the same in both bases;
it is divided by that trace, so the bound is relative to the state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fockqkd.attack import analyze
from fockqkd.sources import SourceParams

BASIS_TOL = 1e-14  # every pair-source case below reads at most 1e-15


def basis_average(model, basis):
    """rho_b of the analysed source ``model`` for basis index ``basis``."""
    sent = model.labels // 2 == basis
    rows, weights = model.ensemble.matrix[sent], 2 * model.send_probability[sent]
    return (rows.T * weights) @ rows.conj()


def basis_averages(source):
    model = analyze(source)
    rho_plus, rho_cross = basis_average(model, 0), basis_average(model, 1)
    accepted = np.trace(rho_plus).real
    assert accepted > 0
    assert np.trace(rho_cross).real == pytest.approx(accepted, rel=1e-14)
    return rho_plus / accepted, rho_cross / accepted


def trace_norm(hermitian):
    return float(np.abs(np.linalg.eigvalsh(hermitian)).sum())


@pytest.mark.parametrize("eta", [1.0, 0.8, 0.5])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("chi", [0.01, 0.1, 0.3, 0.6])
def test_claim_b_pair_source_hides_the_basis(chi, order, eta):
    source = SourceParams(kind="pdc", amplitude=chi, expansion_order=order,
                          alice_detector_efficiency=eta)
    rho_plus, rho_cross = basis_averages(source)
    assert trace_norm(rho_plus - rho_cross) <= BASIS_TOL


@pytest.mark.parametrize("order", [1, 2])
def test_claim_b_weak_pulse_shows_the_basis(order):
    source = SourceParams(kind="wcp", amplitude=math.sqrt(0.1), expansion_order=order)
    rho_plus, rho_cross = basis_averages(source)
    # both one-photon blocks are maximally mixed; a fixed-phase pulse shows
    # its basis in the coherences between its vacuum and photon terms
    spectral = float(np.abs(np.linalg.eigvalsh(rho_plus - rho_cross)).max())
    assert spectral == pytest.approx(0.1622, abs=1e-4)
    assert trace_norm(rho_plus - rho_cross) > 1e12 * BASIS_TOL
