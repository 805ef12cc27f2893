"""The benchmark wraps psml names from outside (bench/tracing.py); a
rename or deletion there must fail here, not in a traced benchmark run."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_traced_calls_wrap_and_restore(tracing):
    from psml import metrics
    from psml.simkernel import SimConfig

    real = metrics.fpr_experiment
    rec = tracing.Recorder()
    cfg = SimConfig(n=3, epsilon_app=4, beta=0.2, horizon=200, seed=1)
    with tracing.traced_calls(rec):
        res = metrics.fpr_experiment(cfg, 4)
    assert metrics.fpr_experiment is real
    assert rec.counts["metrics.y"] == res.y
    assert len(rec.traces) == 1


def test_capture_traces_keeps_generated_traces(tracing):
    from psml import metrics
    from psml.simkernel import SimConfig

    traces = []
    cfg = SimConfig(n=3, epsilon_app=4, beta=0.2, horizon=200, seed=1)
    with tracing.capture_traces(traces):
        metrics.fpr_experiment(cfg, 4)
    assert [t.config for t in traces] == [cfg]


def test_cli_runs_record_every_span_the_worker_reads(tracing, tmp_path):
    """The per-layer metrics read these spans; a psml call routed around
    a traced name would zero its metric without failing a run."""
    from psml import cli

    rec = tracing.Recorder()
    common = ["--eps-app", "5", "--beta", "0.2", "--horizon", "300", "--seed", "1"]
    with tracing.traced_calls(rec):
        assert cli.main(["simulate", "--n", "3", *common, "--out", str(tmp_path / "s")]) == 0
        assert cli.main(
            ["hlc-curve", "--n", "3", *common, "--ell", "4", "--replicates", "1",
             "--out", str(tmp_path / "h")]
        ) == 0
    recorded = {name for name, *_ in rec.spans}
    assert recorded >= {
        "metrics.fpr_row",
        "metrics.fpr_experiment",
        "metrics.hlc_recall_curve",
        "simkernel.generate",
        "simkernel.predicate_intervals",
        "monitors.candidate_queues",
        "monitors.detect_async",
        "monitors.detect_partialsync",
        "monitors.detect_quasi",
    }


def test_library_fpr_experiment_counts_through_the_traced_detector(tracing):
    """A library ``fpr_experiment`` (the dense-corr path) must take its
    count from the traced ``detect_async``: a count routed around that
    name would leave the monitors' spans and counts at 0."""
    from psml import metrics
    from psml.simkernel import PMAJ, SimConfig

    rec = tracing.Recorder()
    cfg = SimConfig(n=4, epsilon_app=5, beta=0.2, alpha=0.05, delta=10,
                    correlation=PMAJ(), horizon=300, seed=1)
    with tracing.traced_calls(rec):
        res = metrics.fpr_experiment(cfg, 5)
    names = [name for name, *_ in rec.spans]
    detect = names.index("monitors.detect_async")
    assert names[rec.spans[detect][3]] == "metrics.fpr_experiment"
    assert res.y > 0
    assert rec.counts["metrics.y"] == res.y
    assert rec.counts["monitors.cuts"] >= rec.counts["metrics.y"]
