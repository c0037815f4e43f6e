"""Walk through the signal-state catalogs of both sources.

A weak coherent pulse truncated at second order keeps a vacuum, a
one-photon, and a two-photon component; the two-photon piece is what
makes the four BB84 states linearly independent.  A downconversion pair
source heralded by the sender's detectors produces states that stay
confined to a genuine two-level span no matter the coupling strength.
"""

from __future__ import annotations

import numpy as np

from fockqkd.attack import analyze
from fockqkd.discrimination import gram, numerical_rank
from fockqkd.sources import BASES, SourceParams, pdc_modified_singlet


def show_catalog(label: str, params: SourceParams) -> None:
    print(f"=== {label} ===")
    model = analyze(params)
    for lab, p, state in zip(model.labels, model.emission_probability,
                             model.ensemble.states):
        print(f"state {BASES[lab >> 1]}{lab & 1}  (emission probability "
              f"{p:.6g})")
        for line in state.dump_lines():
            print("   ", line.replace("\t", "  "))
    g = gram(model.ensemble)
    print("Gram matrix:")
    print(np.array2string(g.real, precision=6, suppress_small=True))
    print(f"numerical rank: {numerical_rank(g)}")
    print()


wcp = SourceParams(kind="wcp", amplitude=0.3)
show_catalog("weak coherent pulse, alpha = 0.3, second order", wcp)

wcp1 = SourceParams(kind="wcp", amplitude=0.3, expansion_order=1)
show_catalog("weak coherent pulse, alpha = 0.3, first order", wcp1)

pdc = SourceParams(kind="pdc", amplitude=0.1)
singlet = pdc_modified_singlet(pdc)
print("=== raw pair-source emission, chi = 0.1 (unnormalized) ===")
for line in singlet.dump_lines():
    print("   ", line.replace("\t", "  "))
print(f"squared norm: {singlet.norm_sq():.12f}"
      f"  (analytic 1 + 1.25 chi^4 = {1 + 1.25 * 0.1**4:.12f})")
print()

show_catalog("heralded pair source, chi = 0.1", pdc)
print("The pair-source rank is 2: the diagonal-basis states are exact "
      "linear combinations of the rectilinear ones, at every order in chi.")
