"""Truncated-Fock-space simulation and security analysis for BB84-style
quantum key distribution with realistic photon sources.

The package is organized as a small library on numpy alone:

* :mod:`fockqkd.fock` — sparse multimode Fock-state algebra (rotations,
  projective counting, photon loss);
* :mod:`fockqkd.sources` — signal-state catalogs for weak-coherent-pulse
  and downconversion-pair sources;
* :mod:`fockqkd.discrimination` — Gram/rank analysis and the
  unambiguous-discrimination POVM;
* :mod:`fockqkd.attack` — yields, the conclusive-measurement
  intercept-resend attack, loss thresholds, and Monte Carlo protocol runs;
* :mod:`fockqkd.cli` — the ``fockqkd`` command-line front end.
"""

from fockqkd.attack import (
    CONCLUSIVE_ATTACK,
    NO_ATTACK,
    AttackStrategy,
    ChannelModel,
    ProtocolConfig,
    SimReport,
    critical_transmission,
    eve_conclusive_rate,
    honest_yield,
    multiphoton_stats,
    run_protocol_monte_carlo,
    signal_ensemble,
)
from fockqkd.discrimination import (
    NotDiscriminable,
    StateEnsemble,
    UsdPovm,
    gram,
    numerical_rank,
    usd_povm_equal,
    usd_povm_weighted,
)
from fockqkd.fock import (
    FockVector,
    WeightedState,
    apply_loss,
    inner_product,
    normalize,
    project_counts,
    rotate_modes,
)
from fockqkd.sources import (
    ParameterError,
    SourceParams,
    ideal_signal_states,
    pdc_modified_singlet,
    signal_states,
    wcp_state,
)

__version__ = "0.1.0"

__all__ = [
    "AttackStrategy",
    "ChannelModel",
    "CONCLUSIVE_ATTACK",
    "FockVector",
    "NO_ATTACK",
    "NotDiscriminable",
    "ParameterError",
    "ProtocolConfig",
    "SimReport",
    "SourceParams",
    "StateEnsemble",
    "UsdPovm",
    "WeightedState",
    "apply_loss",
    "critical_transmission",
    "eve_conclusive_rate",
    "gram",
    "honest_yield",
    "ideal_signal_states",
    "inner_product",
    "multiphoton_stats",
    "normalize",
    "numerical_rank",
    "pdc_modified_singlet",
    "project_counts",
    "rotate_modes",
    "run_protocol_monte_carlo",
    "signal_ensemble",
    "signal_states",
    "usd_povm_equal",
    "usd_povm_weighted",
    "wcp_state",
    "__version__",
]
