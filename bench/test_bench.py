"""The benchmark's own test: its smoke mode, and the compare verdicts.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from compare import verdict  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def test_smoke_mode():
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert lines[-1] == "smoke ok"
    for workload in WORKLOADS:
        for name, unit in {**END_TO_END, **PER_LAYER}.items():
            assert any(ln.startswith(f"{workload} {name} = ") and ln.endswith(f" {unit}")
                       for ln in lines), (workload, name)


def test_verdict_pair_rule():
    base = [10.0 + 0.1 * i for i in range(10)]
    faster = [v - 2.0 for v in base]
    assert verdict(base, faster, "lower").startswith("better")
    assert verdict(faster, base, "lower").startswith("worse")
    assert verdict(base, faster, "higher").startswith("worse")
    # one lost pair in ten still meets nine tenths
    mixed = faster[:9] + [base[9] + 1.0]
    assert verdict(base, mixed, "lower").startswith("better")
    # a gap inside the base's own spread is not a verdict
    assert verdict(base, [v - 0.2 for v in base], "lower").startswith("unresolved")
    # fewer than ten pairs never is
    assert verdict(base[:9], faster[:9], "lower").startswith("unresolved")
