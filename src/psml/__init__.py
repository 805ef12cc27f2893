"""Precision, recall, and sensitivity of conjunctive-predicate
monitors in partially synchronous distributed systems.

The package pairs a closed-form accuracy model (:mod:`psml.analytic`)
with a seeded discrete-event simulator (:mod:`psml.simkernel`), the
detection monitors the model describes (:mod:`psml.monitors`), and an
experiment harness that confronts one with the other
(:mod:`psml.metrics`).  :mod:`psml.cli` exposes all of it as the
``psml`` command.
"""

from .analytic import (
    EpsInterval,
    admissible_eps_mon,
    hlc_min_len_half_recall,
    hlc_recall,
    inflection_points,
    is_hypersensitive,
    phase_transition,
    phi_interval,
    phi_point,
    pma_fpr_estimate,
    precision,
    recall,
    uncertainty_ratio,
)
from .metrics import (
    PRESETS,
    FprResult,
    clustered_ztest,
    config_with,
    default_warmup,
    fpr_experiment,
    fpr_row,
    hlc_recall_curve,
    partial_fractions,
    pr_diagram,
    sweep,
)
from .monitors import (
    cut_length,
    detect_async,
    detect_partialsync,
    detect_quasi,
)
from .simkernel import (
    HNMA,
    PMA,
    PMAJ,
    FixedLength,
    GeometricLength,
    Independent,
    MessageRecord,
    PredicateInterval,
    SimConfig,
    Trace,
    generate,
)

__version__ = "0.1.0"
