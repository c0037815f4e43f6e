"""Reference computations of Fock-space quantities, written out term by
term from a vector's nonzero amplitudes and never from the package's cached
kernels: the oracles that the kernel tests compare against.
"""

from __future__ import annotations

import math
from itertools import product

from fockqkd.fock import FockError, Pattern


def binomial_thinning(counts: Pattern, keep: float) -> list[tuple[Pattern, float]]:
    """Surviving counts when each photon of ``counts`` is kept independently
    with probability ``keep`` (loss, detector efficiency): mode m keeps d
    photons with probability C(n_m, d) keep^d (1-keep)^(n_m-d).  Returns
    (pattern, probability) pairs in lexicographic order without the
    zero-probability patterns, so ``keep=1`` gives ``[(counts, 1.0)]``."""
    if not 0.0 <= keep <= 1.0:
        raise FockError(f"survival probability {keep} outside [0, 1]")
    per_mode = [
        [math.comb(n, d) * keep**d * (1 - keep) ** (n - d) for d in range(n + 1)]
        for n in counts
    ]
    out = []
    for pattern in product(*(range(n + 1) for n in counts)):
        prob = math.prod(probs[d] for probs, d in zip(per_mode, pattern))
        if prob != 0.0:
            out.append((pattern, prob))
    return out


def mean_photon(v, mode: int) -> float:
    """Expectation of the photon number in one mode of ``v`` (un-normalized:
    divide by the squared norm for a state that is not unit norm)."""
    return sum(abs(amp) ** 2 * pattern[mode] for pattern, amp in v.items())
