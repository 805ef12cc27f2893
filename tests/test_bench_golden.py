"""The benchmark's recorded output digests (bench/golden.json) reproduce
in process: each workload, run at the golden seed and at every recorded
horizon, checks to its digest with no broken invariant.  The digests are
read from bench/, so a re-recorded digest is picked up here as it is."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
CASES = [(name, int(h)) for name, by_horizon in GOLDEN.items() if name != "seed" for h in by_horizon]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


@pytest.mark.parametrize("name, horizon", CASES, ids=[f"{n}-h{h}" for n, h in CASES])
def test_workload_reproduces_golden_digest(bench, name, horizon, tmp_path):
    tracing, workloads = bench
    wl = workloads.WORKLOADS[name]
    traces = []
    with tracing.capture_traces(traces):
        output = wl.run(GOLDEN["seed"], horizon, str(tmp_path))
    check = wl.check(output, traces)
    assert check.violations == []
    assert check.digest == GOLDEN[name][str(horizon)]
    assert list(tmp_path.iterdir()) == []  # the workload removed its output file
