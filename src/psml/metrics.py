"""Experiment harness over the simulator and the monitors.

Runs traces, classifies the cuts the monitors report, and turns the
counts into the quantities the closed forms predict: false positive
rate of the asynchronous monitor, precision and recall of the
partially synchronous monitor, detection ratios of the quasi
synchronous monitor, and their sweeps over parameter grids.

Counting conventions shared by every experiment here:

* warmup: ``fpr_experiment`` (so also ``fpr_row`` and ``sweep``) and
  simulated ``pr_diagram`` discard cuts whose earliest candidate
  starts before the warmup tick (default 5% of the horizon), so their
  estimates are taken from the stationary part of the run;
  ``partial_fractions`` and ``hlc_recall_curve`` count every cut, and
  their commands take no ``--warmup``;
* rows that carry a cut count (``fpr_experiment`` and simulated
  ``pr_diagram`` rows) are flagged low-confidence under 30 counted
  cuts; closed forms, ``partial_fractions`` and ``hlc_recall_curve``
  carry no count and get no such flag;
* every estimate is a ratio of counts through one rule,
  :func:`psml.analytic._ratio`, the one the closed-form precision and
  recall use: a zero denominator gives NaN plus a flag, never a silent
  zero;
* replicated experiments derive their seeds as ``config.seed + i``,
  so a base config pins the whole replicate set.

False positive rate follows the asynchronous-monitor convention:
``fpr = 1 - y_f / y`` where ``y`` counts the cuts the asynchronous
monitor reports and ``y_f`` counts those that are also eps-consistent
for the checked window.  One count rule, :func:`_counted_lengths`, gives
the sorted lengths of the counted cuts, so ``y_f``, every window count
of simulated ``pr_diagram`` and ``partial_fractions``' quasi (length 0)
and ``eps_app``-window counts are bisections of that list.  The engine
measures each cut as it yields it (``detect_async``'s ``lengths``), so
no counted cut is re-read here.

The experiment entries ``fpr_experiment``, ``_pr_counts`` (simulated
``pr_diagram``), ``partial_fractions`` and ``hlc_recall_curve`` run
whole with the cyclic garbage collector paused
(:func:`psml.simkernel._collector_paused`), so no collection runs
between their generate and detect calls either.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .analytic import _ratio, hlc_recall, precision, recall
from .monitors import (
    detect_async,
    detect_partialsync,
    detect_quasi,
    is_eps_consistent,  # unused here; bench/tracing.py patches this name
)
from .simkernel import (
    FixedLength,
    GeometricLength,
    SimConfig,
    Trace,
    _collector_paused,
    generate,
)

__all__ = [
    "FLAG_NO_CUTS",
    "FLAG_LOW_CONFIDENCE",
    "FLAG_UNDEFINED",
    "row_flags",
    "FprResult",
    "default_warmup",
    "config_with",
    "config_columns",
    "fpr_experiment",
    "fpr_row",
    "sweep",
    "pr_diagram",
    "partial_fractions",
    "hlc_recall_curve",
    "clustered_ztest",
    "PRESETS",
]

FLAG_NO_CUTS = "no-cuts"
FLAG_LOW_CONFIDENCE = "low-confidence"
FLAG_UNDEFINED = "undefined"

_LOW_CONFIDENCE_Y = 30


def default_warmup(config: SimConfig) -> int:
    """Warmup cutoff in ticks: the first 5% of the horizon."""
    return config.horizon // 20


def _resolve_warmup(config: SimConfig, warmup: int | None) -> int:
    if warmup is None:
        return default_warmup(config)
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    return warmup


def _counted_lengths(trace: Trace, warmup: int, procs: Iterable[int] | None = None) -> list[int]:
    """The lengths of the asynchronous monitor's cuts over ``procs`` (all
    by default) whose earliest candidate starts at or after ``warmup``,
    sorted, so the cuts that fit a window are counted by one
    ``bisect_right``.  The engine's heads only advance, so a cut's
    minimum start never falls along the enumeration: these cuts are a
    suffix of it, found by one bisection.  The engine measures every cut
    as it yields it."""
    lengths: list[int] = []
    cuts = detect_async(trace, procs, lengths=lengths)
    del lengths[: bisect_left(cuts, warmup, key=lambda cut: min(c.start for c in cut))]
    lengths.sort()
    return lengths


def config_with(base: SimConfig, **overrides: Any) -> SimConfig:
    """A copy of ``base`` with field overrides.

    Besides the SimConfig field names, accepts ``ell`` (fixed interval
    length, 1 meaning point predicates) and ``geom_p`` (geometric
    length parameter) as shorthands for the interval spec.
    """
    overrides = dict(overrides)
    if "ell" in overrides and "geom_p" in overrides:
        raise ValueError("give either ell or geom_p, not both")
    if "ell" in overrides:
        ell = overrides.pop("ell")
        if not math.isfinite(ell) or ell != int(ell) or ell < 1:
            raise ValueError("ell must be a positive integer")
        overrides["interval"] = FixedLength(int(ell))
    elif "geom_p" in overrides:
        overrides["interval"] = GeometricLength(overrides.pop("geom_p"))
    return dataclasses.replace(base, **overrides)


def config_columns(cfg: SimConfig) -> dict[str, Any]:
    """The output columns of a config, ``n`` through ``seed``: the
    inverse of :func:`config_with`, with the interval spec as its
    ``ell`` and ``geom_p`` shorthands, exactly one of them None."""
    geometric = isinstance(cfg.interval, GeometricLength)
    return {
        "n": cfg.n,
        "eps_app": cfg.epsilon_app,
        "delta": cfg.delta,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "ell": None if geometric else cfg.interval.length,
        "geom_p": cfg.interval.p if geometric else None,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# single-trace experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FprResult:
    """Asynchronous-monitor count ``y``, the eps-consistent part
    ``y_f``, and ``fpr = 1 - y_f/y`` for one trace; :meth:`as_dict`
    is its output row.  ``trace`` holds the classified trace, or None
    in a sweep, which keeps no traces; it is not a column."""

    config: SimConfig
    eps_check: float
    warmup: int
    y: int
    y_f: int
    fpr: float
    flags: tuple[str, ...]
    trace: Trace | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict[str, Any]:
        return {
            **config_columns(self.config),
            "warmup": self.warmup,
            "eps_check": self.eps_check,
            "y": self.y,
            "y_f": self.y_f,
            "fpr": self.fpr,
            "flags": self.flags,
        }


def row_flags(count: int | None, *estimates: float) -> tuple[str, ...]:
    """A row's flags: no-cuts and low-confidence from its cut count
    (None for a row that carries none, such as a closed form),
    undefined when any estimate is NaN."""
    flags = []
    if count == 0:
        flags.append(FLAG_NO_CUTS)
    if count is not None and count < _LOW_CONFIDENCE_Y:
        flags.append(FLAG_LOW_CONFIDENCE)
    if any(math.isnan(e) for e in estimates):
        flags.append(FLAG_UNDEFINED)
    return tuple(flags)


@_collector_paused
def fpr_experiment(
    config: SimConfig, eps_check: float, warmup: int | None = None
) -> FprResult:
    """Generate one trace, enumerate with the asynchronous monitor,
    and classify each counted cut via eps-consistency at ``eps_check``.

    The monitor reports only pairwise-concurrent cuts, so a cut is
    eps-consistent exactly when its length fits ``eps_check``
    (:func:`_counted_lengths`)."""
    if not eps_check >= 0:
        raise ValueError("eps_check must be non-negative")
    warmup = _resolve_warmup(config, warmup)
    trace = generate(config)
    lengths = _counted_lengths(trace, warmup)
    y = len(lengths)
    y_f = bisect_right(lengths, eps_check)
    fpr = 1.0 - _ratio(y_f, y)
    return FprResult(config, eps_check, warmup, y, y_f, fpr, row_flags(y, fpr), trace)


def fpr_row(
    config: SimConfig, eps_check: float | None = None, warmup: int | None = None
) -> FprResult:
    """:func:`fpr_experiment` with ``eps_check`` defaulting to the
    config's own application window."""
    check = config.epsilon_app if eps_check is None else eps_check
    return fpr_experiment(config, check, warmup)


@_collector_paused
def _pr_counts(
    config: SimConfig, eps_mon_values: Sequence[float], warmup: int | None
) -> list[tuple[int, int, int]]:
    """Partially-synchronous-monitor counts at every window in
    ``eps_mon_values``, from one trace and one enumeration: per window,
    ``(detected, true_set, hits)``, the cuts the monitor reports at
    ``eps_mon``, the eps_app-consistent ground truth and their
    intersection.

    The engine's trajectory does not depend on the window, and a
    window's cuts are the concurrent cuts no longer than it, so the
    lengths the asynchronous monitor counts (:func:`_counted_lengths`,
    warmup applied as in :func:`fpr_experiment`) give every count.
    """
    if not all(eps_mon >= 0 for eps_mon in eps_mon_values):
        raise ValueError("eps_mon must be non-negative")
    warmup = _resolve_warmup(config, warmup)
    eps_app = config.epsilon_app
    lengths = _counted_lengths(generate(config), warmup)
    true_set = bisect_right(lengths, eps_app)
    return [
        (bisect_right(lengths, eps_mon), true_set, bisect_right(lengths, min(eps_mon, eps_app)))
        for eps_mon in eps_mon_values
    ]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _sweep_row(args: tuple) -> FprResult:
    base, overrides, seed, warmup = args
    res = fpr_row(config_with(base, seed=seed, **overrides), warmup=warmup)
    return dataclasses.replace(res, trace=None)


def sweep(
    base: SimConfig,
    grid: Mapping[str, Sequence[Any]],
    seeds: Sequence[int],
    warmup: int | None = None,
    jobs: int = 1,
) -> list[FprResult]:
    """FPR experiments over the Cartesian product of ``grid`` values
    times ``seeds``, one row each, in grid order with seeds innermost;
    each row classifies its cuts at its own ``epsilon_app``.

    Grid keys are SimConfig field names plus the ``ell``/``geom_p``
    shorthands.  Rows are independent; ``jobs`` > 1 computes them in
    worker processes without changing the output order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not grid:
        raise ValueError("sweep grid is empty")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    keys = list(grid)
    for key, values in grid.items():
        if not values:
            raise ValueError(f"empty grid axis {key!r}")
    specs = [
        (base, dict(zip(keys, combo)), seed, warmup)
        for combo in itertools.product(*(grid[k] for k in keys))
        for seed in seeds
    ]
    if jobs > 1:
        # fork starts every worker up front, so no more than there are rows
        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            return list(pool.map(_sweep_row, specs))
    return [_sweep_row(s) for s in specs]


def _replicas(config: SimConfig, replicates: int) -> list[SimConfig]:
    """The replicate set of ``config``: seeds ``config.seed + i``."""
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    return [config_with(config, seed=config.seed + i) for i in range(replicates)]


def _mean_defined(values: list[float]) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return _ratio(sum(kept), len(kept))


def pr_diagram(
    base: SimConfig,
    eps_mon_values: Sequence[int],
    eps_apps: Sequence[int],
    mode: str = "analytic",
    replicates: int = 5,
    warmup: int | None = None,
) -> list[dict[str, Any]]:
    """Precision/recall over an (eps_mon, eps_app) grid.

    ``analytic`` evaluates the closed forms; ``simulated`` averages the
    per-run estimates ``hits / detected`` and ``hits / true_set`` over
    ``replicates`` seeded runs per cell, NaN runs left out, each run's
    trace generated and enumerated once for every eps_mon (see
    :func:`_pr_counts`).  Rows come out in eps_app-major order.
    """
    if mode not in ("analytic", "simulated"):
        raise ValueError("mode must be 'analytic' or 'simulated'")
    replicas = _replicas(base, replicates)
    ell = config_columns(base)["ell"]
    if ell is None:
        raise ValueError("pr_diagram needs a fixed interval length")
    # every eps_app is checked before the first trace is generated
    grid = [[config_with(rep, epsilon_app=eps_app) for rep in replicas] for eps_app in eps_apps]
    rows = []
    for eps_app, reps in zip(eps_apps, grid):
        if mode == "simulated":
            runs = [_pr_counts(rep, eps_mon_values, warmup) for rep in reps]
        for j, eps_mon in enumerate(eps_mon_values):
            if mode == "analytic":
                prec = precision(eps_mon, eps_app, base.n, base.beta, ell)
                rec = recall(eps_mon, eps_app, base.n, base.beta, ell)
                count = None
            else:
                counts = [run[j] for run in runs]
                prec = _mean_defined([_ratio(h, d) for d, _, h in counts])
                rec = _mean_defined([_ratio(h, t) for _, t, h in counts])
                count = sum(max(d, t) for d, t, _ in counts)
            rows.append(
                {
                    "eps_mon": eps_mon,
                    "eps_app": eps_app,
                    "precision": prec,
                    "recall": rec,
                    "flags": row_flags(count, prec, rec),
                }
            )
    return rows


@_collector_paused
def partial_fractions(
    config: SimConfig, p_values: Sequence[int], replicates: int = 5
) -> list[float]:
    """Per p: the mean over seeds of the quasi-to-partially-synchronous
    detection ratio for p-of-n conjunctions, NaN when no replicate has
    a nonzero denominator.  Each replicate's trace serves every p."""
    if not all(isinstance(p, numbers.Integral) and 1 <= p <= config.n for p in p_values):
        raise ValueError("p must be an integer in 1..n")
    ratios: list[list[float]] = [[] for _ in p_values]
    for rep in _replicas(config, replicates):
        trace = generate(rep)
        for runs, p in zip(ratios, p_values):
            lengths = _counted_lengths(trace, 0, range(p))
            runs.append(_ratio(bisect_right(lengths, 0), bisect_right(lengths, config.epsilon_app)))
    return [_mean_defined(runs) for runs in ratios]


@_collector_paused
def hlc_recall_curve(
    config: SimConfig, ell_values: Sequence[int], replicates: int = 5
) -> list[tuple[int, float, float]]:
    """Per interval length: simulated quasi/partialsync detection
    ratio next to the closed-form recall of the quasi monitor: the
    zero-window count over the ``eps_app``-window count.

    Counts are pooled across replicates before taking the ratio; the
    per-trace counts are small for short intervals and per-trace
    ratios would be quantization noise.
    """
    replicas = _replicas(config, replicates)
    # every ell is checked before the first trace is generated
    grid = [[config_with(rep, ell=ell) for rep in replicas] for ell in ell_values]
    rows = []
    for ell, reps in zip(ell_values, grid):
        num = denom = 0
        for rep in reps:
            trace = generate(rep)
            denom += len(detect_partialsync(trace, config.epsilon_app))
            num += len(detect_quasi(trace))
        sim = _ratio(num, denom)
        rows.append((ell, sim, hlc_recall(config.epsilon_app, config.n, config.beta, ell)))
    return rows


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def clustered_ztest(
    counts1: Sequence[tuple[int, int]], counts2: Sequence[tuple[int, int]]
) -> tuple[float, float, float]:
    """(difference, z, p) for two pooled proportions estimated from
    per-trace (successes, trials) replicates.

    Cuts within one trace overlap in all but one candidate, so their
    classifications are strongly correlated and the binomial standard
    error is far too small.  Treating each trace as the sampling unit,
    the ratio estimator's variance follows from the per-trace
    residuals, which is valid under clustering.
    """

    def stat(counts: Sequence[tuple[int, int]]) -> tuple[float, float]:
        if len(counts) < 2:
            raise ValueError("need at least two replicates per arm")
        ks = np.array([c[0] for c in counts], dtype=float)
        ns = np.array([c[1] for c in counts], dtype=float)
        total = ns.sum()
        if total == 0:
            raise ValueError("arm has no trials")
        p = float(ks.sum() / total)
        resid = ks - p * ns
        var = float(resid.var(ddof=1)) * len(counts)
        return p, math.sqrt(var) / total

    p1, se1 = stat(counts1)
    p2, se2 = stat(counts2)
    diff = float(p1 - p2)
    se = math.hypot(se1, se2)
    if se == 0.0:
        # no spread in either arm: a difference is certain, none is no evidence
        return (diff, math.copysign(math.inf, diff), 0.0) if diff else (diff, 0.0, 1.0)
    z = diff / se
    return diff, z, math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# presets: the experiment parameterizations used by the bundled studies
# ---------------------------------------------------------------------------

# Traffic for the reference experiments: sparse messaging and a large
# delivery delay keep causal pruning from biasing cut statistics while
# still exercising clock propagation.
_REFERENCE_TRAFFIC = {"alpha": 0.001, "delta": 100}

PRESETS: dict[str, dict[str, Any]] = {
    # FPR of the asynchronous monitor vs eps for three predicate rates
    "fig-fpr-n20": {
        "kind": "sweep",
        "base": {"n": 20, "horizon": 100_000, "ell": 1, **_REFERENCE_TRAFFIC},
        "grid": {"beta": [0.01, 0.03, 0.05], "epsilon_app": [50, 100, 150, 200, 250]},
        "seeds": list(range(10)),
    },
    # four traffic regimes whose FPR should be statistically equal
    "fig-ad-independence": {
        "kind": "sweep",
        "base": {"n": 20, "beta": 0.10, "epsilon_app": 80, "horizon": 1000},
        "grid": {"alpha": [0.05, 0.1], "delta": [10, 100]},
        "seeds": list(range(20)),
        "warmup": 50,
    },
    # precision/recall of the partially synchronous monitor on a grid
    "fig-pr-diagram": {
        "kind": "prdiagram",
        "base": {"n": 20, "beta": 0.05, "ell": 1, "horizon": 15_000, **_REFERENCE_TRAFFIC},
        "eps_mon": [60, 80, 100, 120, 140],
        "eps_app": [60, 80, 100, 120, 140],
        "replicates": 10,
    },
    # p-of-n conjunctions: quasi vs partially synchronous detection
    "table-partial": {
        "kind": "partial",
        "base": {
            "n": 5,
            "epsilon_app": 10,
            "beta": 0.01,
            "ell": 46,
            "horizon": 100_000,
            **_REFERENCE_TRAFFIC,
        },
        "p": [2, 3, 4, 5],
        "replicates": 10,
    },
    # recall of the quasi monitor as interval length grows
    "fig-hlc": {
        "kind": "hlc",
        "base": {
            "n": 3,
            "epsilon_app": 10,
            "beta": 0.005,
            "horizon": 300_000,
            **_REFERENCE_TRAFFIC,
        },
        "ell": [20, 25, 30, 35, 40],
        "replicates": 20,
    },
}
