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
from .cli import main as cli_main, render_csv
from .clocks import HLCTimestamp, Ordering, VectorClock
from .metrics import (
    PRESETS,
    FprResult,
    MetricsRow,
    PrResult,
    clustered_ztest,
    config_with,
    default_warmup,
    fpr_experiment,
    fpr_row,
    hlc_recall_curve,
    partial_predicate_experiment,
    pr_diagram,
    pr_experiment,
    sweep,
)
from .monitors import (
    Cut,
    cut_length,
    detect_async,
    detect_partialsync,
    detect_quasi,
    is_eps_consistent,
    is_hb_consistent,
)
from .simkernel import (
    HNMA,
    PMA,
    PMAJ,
    FixedLength,
    GeometricLength,
    Independent,
    MessageRecord,
    PointLength,
    PredicateInterval,
    SimConfig,
    Trace,
    generate,
)

__version__ = "0.1.0"
