"""The pair source's sender table, an oracle for the analysis record.

Built from ``alice_measure`` and ``SENDER_BIT_FOR_DETECTED`` directly, never
from ``analyze``: the tests that check the record read the weights, the
acceptance and the ensemble order of its branches from here.
:func:`pdc_accepted_branches` is the other side, the record's branches of
one basis read back from ``analyze``.
"""

from __future__ import annotations

from typing import NamedTuple

from fockqkd.fock import WeightedState, pattern_index
from fockqkd.sources import (
    BASES,
    PDC,
    SENDER_BIT_FOR_DETECTED,
    ParameterError,
    SourceParams,
    alice_measure,
    analyze,
    pdc_modified_singlet,
)


class Entry(NamedTuple):
    basis: str
    true: tuple[int, int]  # the sender's count pattern
    detected: tuple[int, int]  # the pattern her detectors report
    weight: float  # the joint table's entry
    state: object  # the receiver's heralded unit amplitude row
    label: int  # 2·basis + sender bit; -1: not accepted
    send: float  # probability per pulse sent; 0: not accepted
    index: int  # position in analyze's ensemble; -1: not accepted


def sender_table(params) -> list[Entry]:
    """Every nonzero entry of ``alice_measure``'s joint table, basis by basis
    in row-major order.  The accepted entries, in this order, are the
    ensemble; each is sent with probability 1/2 (the basis) times its weight
    normalised over the nonzero entries of its basis."""
    singlet, patterns = pdc_modified_singlet(params), pattern_index(2)[0]
    table = []
    for a, basis in enumerate(BASES):
        true, states, joint = alice_measure(singlet, basis, params)
        rows, cols = joint.nonzero()
        total = joint[rows, cols].sum()
        for r, c in zip(rows, cols):
            t, d, w = patterns[true[r]], patterns[c], float(joint[r, c])
            if d in SENDER_BIT_FOR_DETECTED:
                label, send = 2 * a + SENDER_BIT_FOR_DETECTED[d], 0.5 * w / total
                index = sum(e.index >= 0 for e in table)
            else:
                label, send, index = -1, 0.0, -1
            table.append(Entry(basis, t, d, w, states[r], label, send, index))
    return table


def pdc_accepted_branches(
    params: SourceParams, basis: str
) -> list[tuple[int, WeightedState]]:
    """(bit, weighted state) of each of one basis's branches in
    ``analyze``'s ensemble, in ``alice_measure``'s row-major order.

    With perfect sender detectors this is exactly the two heralded
    states; with efficiency below 1 extra branches appear (a multiphoton
    arrival read as a single click), which is what breaks the two-
    dimensional structure of the heralded catalog.
    """
    if params.kind != PDC or basis not in BASES:
        raise ParameterError(f"need a pdc source and a basis of {BASES}")
    model = analyze(params)
    rows = zip(model.labels, model.emission_probability, model.ensemble.states)
    return [(int(label & 1), WeightedState(state, float(weight)))
            for label, weight, state in rows if label >> 1 == BASES.index(basis)]
