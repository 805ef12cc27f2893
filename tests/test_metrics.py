"""Experiment harness: counting conventions, sweeps, serialization."""

import gc
import json
import math

import pytest

from psml import metrics
from psml.metrics import (
    _pr_counts,
    FLAG_LOW_CONFIDENCE,
    FLAG_NO_CUTS,
    FLAG_UNDEFINED,
    PRESETS,
    clustered_ztest,
    config_with,
    default_warmup,
    fpr_experiment,
    fpr_row,
    hlc_recall_curve,
    partial_fractions,
    partial_predicate_experiment,
    pr_diagram,
    sweep,
)
from psml.analytic import hlc_recall, precision, recall
from psml.cli import _render_rows, render_csv
from psml.monitors import (
    cut_length,
    detect_async,
    detect_partialsync,
    detect_quasi,
    is_eps_consistent,
)
from psml.simkernel import PMAJ, FixedLength, GeometricLength, SimConfig, generate

from helpers import past_warmup


CFG = SimConfig(n=3, epsilon_app=5, delta=10, alpha=0.05, beta=0.15, horizon=600, seed=31)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_with_shorthands():
    assert config_with(CFG, ell=1).interval == FixedLength(1)
    assert config_with(CFG, ell=2.0).interval == FixedLength(2)
    assert config_with(CFG, ell=6).interval == FixedLength(6)
    assert config_with(CFG, geom_p=0.3).interval == GeometricLength(0.3)
    assert config_with(CFG, seed=9).seed == 9
    assert config_with(CFG).beta == CFG.beta
    with pytest.raises(ValueError):
        config_with(CFG, ell=3, geom_p=0.5)
    for ell in (0, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            config_with(CFG, ell=ell)
    with pytest.raises(TypeError):
        config_with(CFG, bogus=1)


def test_default_warmup_is_five_percent():
    assert default_warmup(CFG) == 30
    assert default_warmup(config_with(CFG, horizon=100_000)) == 5000


# ---------------------------------------------------------------------------
# single-trace experiments
# ---------------------------------------------------------------------------


def test_fpr_experiment_counts_match_direct_enumeration():
    res = fpr_experiment(CFG, eps_check=5)
    warm = default_warmup(CFG)
    trace = generate(CFG)
    assert res.trace == trace
    cuts = [c for c in detect_async(trace) if past_warmup(c, warm)]
    assert res.warmup == warm
    assert res.y == len(cuts)
    assert res.y_f == sum(is_eps_consistent(c, 5) for c in cuts)
    assert res.fpr == pytest.approx(1 - res.y_f / res.y)
    assert res.config == CFG


def test_fpr_experiment_flags_sparse_counts():
    tiny = config_with(CFG, horizon=40, beta=0.05, seed=2)
    res = fpr_experiment(tiny, eps_check=5)
    if res.y == 0:
        assert FLAG_NO_CUTS in res.flags
        assert FLAG_UNDEFINED in res.flags
        assert math.isnan(res.fpr)
    else:
        assert res.y < 30
        assert FLAG_LOW_CONFIDENCE in res.flags


def test_fpr_experiment_rejects_bad_window():
    with pytest.raises(ValueError):
        fpr_experiment(CFG, eps_check=-1)


def test_pr_experiment_matches_two_direct_runs():
    """One trace's counts (``_pr_counts``) against two direct runs, and
    the one-replicate ``pr_diagram`` cell against their ratios."""
    eps_mon = 9
    detected, true_set, hits_n = _pr_counts(CFG, [eps_mon], None)[0]
    (row,) = pr_diagram(CFG, [eps_mon], [CFG.epsilon_app], mode="simulated", replicates=1)
    warm = default_warmup(CFG)
    trace = generate(CFG)
    got = [c for c in detect_partialsync(trace, eps_mon) if past_warmup(c, warm)]
    real = [c for c in detect_partialsync(trace, CFG.epsilon_app) if past_warmup(c, warm)]
    hits = [c for c in got if cut_length(c) <= CFG.epsilon_app]
    assert detected == len(got)
    assert true_set == len(real)
    assert hits_n == len(hits)
    assert row["precision"] == pytest.approx(len(hits) / len(got))
    assert row["recall"] == pytest.approx(len(hits) / len(real))


def test_pr_experiment_symmetric_window_is_exact():
    (row,) = pr_diagram(CFG, [CFG.epsilon_app], [CFG.epsilon_app], mode="simulated", replicates=1)
    assert row["precision"] == 1.0
    assert row["recall"] == 1.0
    detected, true_set, hits = _pr_counts(CFG, [CFG.epsilon_app], None)[0]
    assert detected == true_set == hits


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_fpr_row_flattens_experiment():
    row = fpr_row(CFG)
    res = fpr_experiment(CFG, CFG.epsilon_app)
    assert (row.y, row.y_f, row.fpr) == (res.y, res.y_f, res.fpr)
    # the trace rides along for the caller but is not a column
    cols = row.as_dict()
    assert row.trace == res.trace and "trace" not in cols
    assert list(cols) == [
        "n", "eps_app", "delta", "alpha", "beta", "ell", "geom_p", "horizon", "seed",
        "warmup", "eps_check", "y", "y_f", "fpr", "flags",
    ]
    assert cols["eps_check"] == CFG.epsilon_app
    assert cols["ell"] == 1 and cols["geom_p"] is None
    gcols = fpr_row(config_with(CFG, geom_p=0.5)).as_dict()
    assert gcols["ell"] is None and gcols["geom_p"] == 0.5


def test_sweep_rows_in_grid_order_with_seeds_innermost():
    rows = sweep(CFG, {"beta": [0.1, 0.2], "epsilon_app": [3, 6]}, seeds=[0, 1])
    assert len(rows) == 8
    key = [(r.config.beta, r.config.epsilon_app, r.config.seed) for r in rows]
    assert key == [
        (0.1, 3, 0),
        (0.1, 3, 1),
        (0.1, 6, 0),
        (0.1, 6, 1),
        (0.2, 3, 0),
        (0.2, 3, 1),
        (0.2, 6, 0),
        (0.2, 6, 1),
    ]
    # eps_check follows the per-row application window by default
    assert [r.eps_check for r in rows] == [3, 3, 6, 6, 3, 3, 6, 6]
    # sweeps keep no traces
    assert all(r.trace is None for r in rows)


def test_sweep_parallel_rows_identical():
    grid = {"beta": [0.1, 0.2]}
    assert sweep(CFG, grid, [0, 1], jobs=2) == sweep(CFG, grid, [0, 1], jobs=1)


def test_sweep_pool_has_no_more_workers_than_rows(monkeypatch):
    """Fork starts every worker of a pool up front, so the pool is capped
    at the number of rows; this fake pool runs the rows in process."""
    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(metrics, "ProcessPoolExecutor", Pool)
    grid = {"beta": [0.1, 0.2]}
    assert sweep(CFG, grid, [0, 1], jobs=64) == sweep(CFG, grid, [0, 1], jobs=1)
    assert sweep(CFG, grid, [0, 1, 2], jobs=3) == sweep(CFG, grid, [0, 1, 2], jobs=1)
    assert made == [4, 3]


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(CFG, {}, [0])
    with pytest.raises(ValueError):
        sweep(CFG, {"beta": [0.1]}, [])
    with pytest.raises(ValueError):
        sweep(CFG, {"beta": []}, [0])


def test_sweep_is_repeatable():
    grid = {"beta": [0.1, 0.2]}
    assert sweep(CFG, grid, [0, 1]) == sweep(CFG, grid, [0, 1])


# ---------------------------------------------------------------------------
# derived experiments
# ---------------------------------------------------------------------------


def test_pr_diagram_analytic_matches_closed_forms():
    rows = pr_diagram(config_with(CFG, ell=1), [3, 6], [3, 6], mode="analytic")
    assert [(r["eps_mon"], r["eps_app"]) for r in rows] == [
        (3, 3),
        (6, 3),
        (3, 6),
        (6, 6),
    ]
    for row in rows:
        assert row["precision"] == precision(row["eps_mon"], row["eps_app"], CFG.n, CFG.beta, 1)
        assert row["recall"] == recall(row["eps_mon"], row["eps_app"], CFG.n, CFG.beta, 1)
        assert row["flags"] == ()
    # phi underflows to 0 at this beta: the NaN precision cells are flagged
    tiny = config_with(CFG, n=100, beta=1e-9, ell=1)
    rows = pr_diagram(tiny, [1, 2], [0, 1], mode="analytic")
    assert sum(math.isnan(r["precision"]) for r in rows) == 3
    for row in rows:
        assert row["flags"] == ((FLAG_UNDEFINED,) if math.isnan(row["precision"]) else ())


def test_pr_diagram_simulated_shape():
    rows = pr_diagram(config_with(CFG, ell=2), [3, 6], [3], mode="simulated", replicates=2)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["precision"] <= 1.0
        assert 0.0 <= row["recall"] <= 1.0
    # the monitor window equal to the system window is exact
    exact = [r for r in rows if r["eps_mon"] == 3]
    assert exact[0]["recall"] == 1.0


def _nan_as_none(rows):
    return [
        {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
        for row in rows
    ]


@pytest.mark.parametrize(
    "overrides, warmup",
    [
        ({"ell": 1, "horizon": 500}, None),
        ({"ell": 3, "horizon": 500}, 0),
        # sparse enough for no-cuts, low-confidence and undefined cells
        ({"ell": 1, "beta": 0.03, "horizon": 300}, None),
    ],
)
def test_pr_diagram_equals_independent_pr_experiments(overrides, warmup):
    """One trace per (eps_app, replicate) gives every cell exactly what
    independent per-cell runs, each enumerating at its own width, give;
    the grid holds eps_mon = 0 and a window wider than every cut."""
    base = config_with(CFG, **overrides)
    eps_mons, eps_apps, reps = [0, 2, 5, 9, 10_000], [2, 5], 3
    rows = pr_diagram(base, eps_mons, eps_apps, mode="simulated", replicates=reps, warmup=warmup)
    expected = []
    for eps_app in eps_apps:
        for eps_mon in eps_mons:
            results = [
                _pr_counts(config_with(base, seed=base.seed + i, epsilon_app=eps_app), [eps_mon], warmup)[0]
                for i in range(reps)
            ]
            precs = [hits / detected for detected, _, hits in results if detected]
            recs = [hits / true_set for _, true_set, hits in results if true_set]
            prec = sum(precs) / len(precs) if precs else float("nan")
            rec = sum(recs) / len(recs) if recs else float("nan")
            ys = sum(max(detected, true_set) for detected, true_set, _ in results)
            flags = [FLAG_NO_CUTS] if ys == 0 else []
            flags += [FLAG_LOW_CONFIDENCE] if ys < 30 else []
            flags += [FLAG_UNDEFINED] if math.isnan(prec) or math.isnan(rec) else []
            expected.append(
                {"eps_mon": eps_mon, "eps_app": eps_app, "precision": prec, "recall": rec,
                 "flags": tuple(flags)}
            )
    assert _nan_as_none(rows) == _nan_as_none(expected)
    # a window wider than every cut misses no true cut
    widest = [r["recall"] for r in rows if r["eps_mon"] == 10_000]
    assert all(math.isnan(rec) or rec == 1.0 for rec in widest)


def test_pr_diagram_generates_each_trace_once(monkeypatch):
    from psml import metrics

    made = []
    real = metrics.generate

    def counted(config):
        made.append((config.epsilon_app, config.seed))
        return real(config)

    monkeypatch.setattr(metrics, "generate", counted)
    pr_diagram(config_with(CFG, horizon=300), [0, 3, 6], [3, 6], mode="simulated", replicates=2)
    assert made == [(3, 31), (3, 32), (6, 31), (6, 32)]


def test_partial_fractions_equal_direct_enumeration():
    cfg = config_with(CFG, n=4, ell=5, beta=0.1, horizon=800)
    fractions = partial_fractions(cfg, [1, 2, 3, 4], replicates=3)
    for p, frac in zip([1, 2, 3, 4], fractions):
        ratios = []
        for i in range(3):
            trace = generate(config_with(cfg, seed=cfg.seed + i))
            denom = len(detect_partialsync(trace, cfg.epsilon_app, range(p)))
            if denom:
                ratios.append(len(detect_quasi(trace, range(p))) / denom)
        assert ratios  # a zero denominator everywhere would test nothing
        assert frac == sum(ratios) / len(ratios)
        assert partial_predicate_experiment(cfg, p, replicates=3) == frac


def test_pr_diagram_rejects_bad_mode_and_interval():
    with pytest.raises(ValueError):
        pr_diagram(CFG, [3], [3], mode="wrong")
    with pytest.raises(ValueError):
        pr_diagram(config_with(CFG, geom_p=0.5), [3], [3])


def test_partial_predicate_experiment_bounds():
    cfg = config_with(CFG, n=4, ell=8, beta=0.05, horizon=2000)
    value = partial_predicate_experiment(cfg, p=2, replicates=2)
    assert 0.0 <= value <= 1.5  # a ratio of counts, near or below 1
    with pytest.raises(ValueError):
        partial_predicate_experiment(cfg, p=0)
    with pytest.raises(ValueError):
        partial_predicate_experiment(cfg, p=9)
    with pytest.raises(ValueError):
        partial_fractions(cfg, [2, 2.5])


def test_hlc_recall_curve_pools_counts():
    from psml.monitors import detect_partialsync as dps, detect_quasi as dq

    cfg = config_with(CFG, n=3, beta=0.05, horizon=2500)
    rows = hlc_recall_curve(cfg, [4, 9], replicates=2)
    assert [r[0] for r in rows] == [4, 9]
    for ell, sim, closed in rows:
        assert closed == hlc_recall(cfg.epsilon_app, cfg.n, cfg.beta, ell)
        num = denom = 0
        for i in range(2):
            t = generate(config_with(cfg, ell=ell, seed=cfg.seed + i))
            num += len(dq(t))
            denom += len(dps(t, cfg.epsilon_app))
        assert sim == pytest.approx(num / denom)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_clustered_ztest_identical_arms():
    counts = [(10, 100), (20, 150), (12, 110)]
    diff, z, p = clustered_ztest(counts, counts)
    assert diff == 0.0 and z == 0.0 and p == 1.0


def test_clustered_ztest_detects_separated_arms():
    arm1 = [(90, 100), (88, 100), (91, 100), (89, 100)]
    arm2 = [(10, 100), (12, 100), (9, 100), (11, 100)]
    diff, z, p = clustered_ztest(arm1, arm2)
    assert diff == pytest.approx(0.79, abs=1e-9)
    assert z > 10
    assert p < 1e-6


def test_clustered_ztest_validation():
    with pytest.raises(ValueError):
        clustered_ztest([(1, 10)], [(1, 10), (2, 10)])
    with pytest.raises(ValueError):
        clustered_ztest([(0, 0), (0, 0)], [(1, 10), (2, 10)])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_render_csv_formatting():
    rows = [
        {"a": 1, "b": 0.123456789, "c": float("nan"), "d": ("x", "y"), "e": None},
    ]
    text = render_csv(rows, ["a", "b", "c", "d", "e"])
    lines = text.splitlines()
    assert lines[0] == "a,b,c,d,e"
    assert lines[1] == "1,0.123457,,x;y,"


def test_render_structured_nan_becomes_null():
    rows = [{"x": float("nan"), "y": (1, 2)}]
    data = json.loads(_render_rows("structured", rows, ["x", "y"], {"beta": float("nan")}))
    assert data == {"config": {"beta": None}, "rows": [{"x": None, "y": [1, 2]}]}


def test_presets_shape():
    assert set(PRESETS) == {
        "fig-fpr-n20",
        "fig-ad-independence",
        "fig-pr-diagram",
        "table-partial",
        "fig-hlc",
    }
    kinds = {spec["kind"] for spec in PRESETS.values()}
    assert kinds == {"sweep", "prdiagram", "partial", "hlc"}
    for spec in PRESETS.values():
        assert "base" in spec


def test_experiment_path_leaves_no_reference_cycles():
    """Generation, the three monitors and an FPR experiment free what
    they allocate by reference counting alone: with the cycle collector
    off, a collection afterwards finds nothing."""
    cfg = SimConfig(n=20, epsilon_app=50, beta=0.1, alpha=0.05, delta=10,
                    correlation=PMAJ(), horizon=3_000, seed=7)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace = generate(cfg)
        assert detect_async(trace)
        detect_partialsync(trace, cfg.epsilon_app, range(0, cfg.n, 2))
        detect_quasi(trace)
        fpr_experiment(cfg, cfg.epsilon_app)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
