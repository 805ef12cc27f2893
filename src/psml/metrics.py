"""Experiment harness over the simulator and the monitors.

Runs traces, classifies the cuts the monitors report, and turns the
counts into the quantities the closed forms predict: false positive
rate of the asynchronous monitor, precision and recall of the
partially synchronous monitor, detection ratios of the quasi
synchronous monitor, and their sweeps over parameter grids.

Counting conventions shared by every experiment here:

* warmup: cuts whose earliest candidate starts before the warmup
  tick (default 5% of the horizon) are discarded, so estimates are
  taken from the stationary part of the run;
* every estimate carries its sample count, and rows with fewer than
  30 counted cuts are flagged low-confidence;
* undefined estimates (zero denominator) are NaN plus a flag, never
  a silent zero;
* replicated experiments derive their seeds as ``config.seed + i``,
  so a base config pins the whole replicate set.

False positive rate follows the asynchronous-monitor convention:
``fpr = 1 - y_f / y`` where ``y`` counts the cuts the asynchronous
monitor reports and ``y_f`` counts those that are also eps-consistent
for the checked window.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .analytic import hlc_recall, precision, recall
from .monitors import (
    Cut,
    cut_length,
    detect_async,
    detect_partialsync,
    detect_quasi,
    is_eps_consistent,  # unused here; bench/tracing.py patches this name
)
from .simkernel import (
    FixedLength,
    GeometricLength,
    IntervalSpec,
    PointLength,
    SimConfig,
    Trace,
    generate,
)

__all__ = [
    "FLAG_NO_CUTS",
    "FLAG_LOW_CONFIDENCE",
    "FLAG_UNDEFINED",
    "FprResult",
    "PrResult",
    "MetricsRow",
    "default_warmup",
    "config_with",
    "interval_params",
    "fpr_experiment",
    "pr_experiment",
    "sweep",
    "pr_diagram",
    "partial_predicate_experiment",
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


def _past_warmup(cut: Cut, warmup: int) -> bool:
    return min(c.start for c in cut.candidates) >= warmup


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
        if ell != int(ell) or ell < 1:
            raise ValueError("ell must be a positive integer")
        ell = int(ell)
        overrides["interval"] = PointLength() if ell == 1 else FixedLength(ell)
    elif "geom_p" in overrides:
        overrides["interval"] = GeometricLength(overrides.pop("geom_p"))
    cfg = dataclasses.replace(base, **overrides)
    cfg.validate()
    return cfg


def interval_params(spec: IntervalSpec) -> tuple[int | None, float | None]:
    """The ``(ell, geom_p)`` shorthands of an interval spec, the inverse
    of :func:`config_with`'s mapping; exactly one of the pair is None."""
    if isinstance(spec, GeometricLength):
        return None, spec.p
    if isinstance(spec, FixedLength):
        return spec.length, None
    return 1, None


# ---------------------------------------------------------------------------
# single-trace experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FprResult:
    """Asynchronous-monitor count ``y``, the eps-consistent part
    ``y_f``, and ``fpr = 1 - y_f/y`` for one trace, which ``trace``
    holds."""

    config: SimConfig
    eps_check: float
    warmup: int
    y: int
    y_f: int
    fpr: float
    flags: tuple[str, ...]
    trace: Trace = field(repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class PrResult:
    """Partially-synchronous-monitor counts for one trace: cuts the
    monitor reports at ``eps_mon``, the eps_app-consistent ground
    truth, and their intersection."""

    config: SimConfig
    eps_mon: float
    warmup: int
    detected: int
    true_set: int
    hits: int
    precision_est: float
    recall_est: float
    flags: tuple[str, ...]


def _count_flags(y: int) -> list[str]:
    flags = []
    if y == 0:
        flags.append(FLAG_NO_CUTS)
    if y < _LOW_CONFIDENCE_Y:
        flags.append(FLAG_LOW_CONFIDENCE)
    return flags


def fpr_experiment(
    config: SimConfig, eps_check: float, warmup: int | None = None
) -> FprResult:
    """Generate one trace, enumerate with the asynchronous monitor,
    and classify each counted cut via eps-consistency at ``eps_check``.

    The monitor reports only pairwise-concurrent cuts, so a cut is
    eps-consistent exactly when its length fits ``eps_check``."""
    if not eps_check >= 0:
        raise ValueError("eps_check must be non-negative")
    warmup = _resolve_warmup(config, warmup)
    trace = generate(config)
    y = y_f = 0
    for cut in detect_async(trace):
        if not _past_warmup(cut, warmup):
            continue
        y += 1
        y_f += cut_length(cut) <= eps_check
    flags = _count_flags(y)
    fpr = 1.0 - y_f / y if y else float("nan")
    if y == 0:
        flags.append(FLAG_UNDEFINED)
    return FprResult(config, eps_check, warmup, y, y_f, fpr, tuple(flags), trace)


def pr_experiment(
    config: SimConfig, eps_mon: float, warmup: int | None = None
) -> PrResult:
    """Precision/recall counts of the partially synchronous monitor.

    Enumerates once at ``max(eps_mon, eps_app)``; that run reports a
    superset of both the monitor's cuts and the ground truth, and the
    head-advancement trajectory does not depend on the acceptance
    window, so classifying its cuts by length recovers both counts
    exactly.
    """
    if not eps_mon >= 0:
        raise ValueError("eps_mon must be non-negative")
    warmup = _resolve_warmup(config, warmup)
    eps_sup = max(eps_mon, config.epsilon_app)
    trace = generate(config)
    detected = true_set = hits = 0
    for cut in detect_partialsync(trace, eps_sup):
        if not _past_warmup(cut, warmup):
            continue
        length = cut_length(cut)
        got = length <= eps_mon
        real = length <= config.epsilon_app
        detected += got
        true_set += real
        hits += got and real
    flags = _count_flags(max(detected, true_set))
    prec = hits / detected if detected else float("nan")
    rec = hits / true_set if true_set else float("nan")
    if not detected or not true_set:
        flags.append(FLAG_UNDEFINED)
    return PrResult(
        config, eps_mon, warmup, detected, true_set, hits, prec, rec, tuple(flags)
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MetricsRow:
    """One flat sweep record: the full parameter point plus the
    FPR-experiment results for one seed."""

    n: int
    eps_app: int
    delta: int
    alpha: float
    beta: float
    ell: int | None
    geom_p: float | None
    horizon: int
    seed: int
    warmup: int
    eps_check: float
    y: int
    y_f: int
    fpr: float
    flags: tuple[str, ...]
    # the classified trace: not a column, and sweeps drop it
    trace: Trace | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict[str, Any]:
        fields = dataclasses.fields(self)
        return {f.name: getattr(self, f.name) for f in fields if f.name != "trace"}


def fpr_row(
    config: SimConfig, eps_check: float | None = None, warmup: int | None = None
) -> MetricsRow:
    """One FPR experiment flattened to a sweep-style record.

    ``eps_check`` defaults to the config's own application window.
    """
    check = config.epsilon_app if eps_check is None else eps_check
    res = fpr_experiment(config, check, warmup)
    ell, geom_p = interval_params(config.interval)
    return MetricsRow(
        n=config.n,
        eps_app=config.epsilon_app,
        delta=config.delta,
        alpha=config.alpha,
        beta=config.beta,
        ell=ell,
        geom_p=geom_p,
        horizon=config.horizon,
        seed=config.seed,
        warmup=res.warmup,
        eps_check=res.eps_check,
        y=res.y,
        y_f=res.y_f,
        fpr=res.fpr,
        flags=res.flags,
        trace=res.trace,
    )


def _sweep_row(args: tuple) -> MetricsRow:
    base, overrides, seed, eps_check, warmup = args
    row = fpr_row(config_with(base, seed=seed, **overrides), eps_check, warmup)
    return dataclasses.replace(row, trace=None)


def sweep(
    base: SimConfig,
    grid: Mapping[str, Sequence[Any]],
    seeds: Sequence[int],
    eps_check: float | None = None,
    warmup: int | None = None,
    jobs: int = 1,
) -> list[MetricsRow]:
    """FPR experiments over the Cartesian product of ``grid`` values
    times ``seeds``, one row each, in grid order with seeds innermost.

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
        (base, dict(zip(keys, combo)), seed, eps_check, warmup)
        for combo in itertools.product(*(grid[k] for k in keys))
        for seed in seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_row, specs))
    return [_sweep_row(s) for s in specs]


def _replicas(config: SimConfig, replicates: int) -> list[SimConfig]:
    """The replicate set of ``config``: seeds ``config.seed + i``."""
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    return [config_with(config, seed=config.seed + i) for i in range(replicates)]


def _mean_defined(values: list[float]) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return sum(kept) / len(kept) if kept else float("nan")


def pr_diagram(
    base: SimConfig,
    eps_mon_values: Sequence[int],
    eps_apps: Sequence[int],
    mode: str = "analytic",
    replicates: int = 5,
    warmup: int | None = None,
) -> list[dict[str, Any]]:
    """Precision/recall over an (eps_mon, eps_app) grid.

    ``analytic`` evaluates the closed forms; ``simulated`` averages
    ``pr_experiment`` estimates over ``replicates`` seeded runs per
    cell.  Rows come out in eps_app-major order.
    """
    if mode not in ("analytic", "simulated"):
        raise ValueError("mode must be 'analytic' or 'simulated'")
    replicas = _replicas(base, replicates)
    ell, _ = interval_params(base.interval)
    if ell is None:
        raise ValueError("pr_diagram needs a fixed interval length")
    rows = []
    for eps_app in eps_apps:
        for eps_mon in eps_mon_values:
            flags: list[str] = []
            if mode == "analytic":
                prec = precision(eps_mon, eps_app, base.n, base.beta, ell)
                rec = recall(eps_mon, eps_app, base.n, base.beta, ell)
            else:
                results = [
                    pr_experiment(config_with(rep, epsilon_app=eps_app), eps_mon, warmup)
                    for rep in replicas
                ]
                prec = _mean_defined([r.precision_est for r in results])
                rec = _mean_defined([r.recall_est for r in results])
                ys = sum(max(r.detected, r.true_set) for r in results)
                flags = _count_flags(ys)
                if math.isnan(prec) or math.isnan(rec):
                    flags.append(FLAG_UNDEFINED)
            rows.append(
                {
                    "eps_mon": eps_mon,
                    "eps_app": eps_app,
                    "precision": prec,
                    "recall": rec,
                    "flags": tuple(flags),
                }
            )
    return rows


def partial_predicate_experiment(
    config: SimConfig, p: int, replicates: int = 5
) -> float:
    """Mean over seeds of the quasi-to-partially-synchronous detection
    ratio for p-of-n conjunctions; NaN when no replicate has a nonzero
    denominator."""
    if not 1 <= p <= config.n:
        raise ValueError("p must be in 1..n")
    ratios = []
    for rep in _replicas(config, replicates):
        trace = generate(rep)
        denom = len(detect_partialsync(trace, config.epsilon_app, range(p)))
        if denom == 0:
            continue
        ratios.append(len(detect_quasi(trace, range(p))) / denom)
    return sum(ratios) / len(ratios) if ratios else float("nan")


def hlc_recall_curve(
    config: SimConfig, ell_values: Sequence[int], replicates: int = 5
) -> list[tuple[int, float, float]]:
    """Per interval length: simulated quasi/partialsync detection
    ratio next to the closed-form recall of the quasi monitor.

    Counts are pooled across replicates before taking the ratio; the
    per-trace counts are small for short intervals and per-trace
    ratios would be quantization noise.
    """
    replicas = _replicas(config, replicates)
    rows = []
    for ell in ell_values:
        num = denom = 0
        for rep in replicas:
            trace = generate(config_with(rep, ell=ell))
            denom += len(detect_partialsync(trace, config.epsilon_app))
            num += len(detect_quasi(trace))
        sim = num / denom if denom else float("nan")
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
        return diff, 0.0, 1.0
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
