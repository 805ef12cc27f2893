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
