"""One benchmark process: imports psml from this checkout, says ``ready``,
runs its workload, checks the output and prints one JSON line.

Started by run.py, never by hand.  Modes:

- ``probe``: import only; run.py times start-up from it.
- ``timed``: one experiment with no tracing, then its checks.
- ``traced``: one experiment with spans around the public psml calls,
  then placement once more under ``tracemalloc`` for its peak heap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import psml  # noqa: E402  (start-up time is measured up to here)

print("ready", flush=True)

import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy  # noqa: E402

from psml import simkernel  # noqa: E402
from tracing import Recorder, capture_traces, layer_times, traced_calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reference_s() -> float:
    """Seconds this process takes for a fixed loop that shares no code with
    psml but does the same kind of work: small numpy draws, list scans and
    heap pushes.  Run next to an experiment, it measures how fast the CPU
    is at that moment, which on a shared host can change by half within
    a minute."""
    rng = numpy.random.default_rng(0)
    heap: list[tuple[int, int]] = []
    start = perf_counter()
    for i in range(40_000):
        coins = rng.random(8)
        picked = [p for p in range(8) if coins[p] < 0.5]
        heapq.heappush(heap, (i + len(picked), i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - start


def _experiment(wl, seed: int, horizon: int, out_dir: str) -> dict:
    """One experiment with no tracing, between two runs of the reference
    loop; checked after the clock stops."""
    traces: list = []
    ref_before = _reference_s()
    with capture_traces(traces):
        start, cpu_start = perf_counter(), process_time()
        output = wl.run(seed, horizon, out_dir)
        wall, cpu = perf_counter() - start, process_time() - cpu_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref = (ref_before + _reference_s()) / 2
    check = wl.check(output, traces)
    return {"horizon": horizon, "wall_s": wall, "cpu_s": cpu, "ref_s": ref, "rss_mb": rss_mb,
            "digest": check.digest, "violations": check.violations, "model": check.model}


def _traced_experiment(wl, seed: int, horizon: int, out_dir: str, rec: Recorder) -> tuple[dict, object]:
    with traced_calls(rec):
        start = perf_counter()
        output = rec.span("bench.experiment", wl.run)(seed, horizon, out_dir)
        wall = perf_counter() - start
        check = rec.span("bench.check", wl.check)(output, rec.traces)
    record = {"horizon": horizon, "wall_s": wall, "digest": check.digest,
              "violations": check.violations, "model": check.model}
    return record, output


def _placement_peak_mb(config: simkernel.SimConfig) -> float:
    """Peak heap of predicate placement, the only call run under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        simkernel.predicate_intervals(config)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _retained_bytes(root: object) -> int:
    """Bytes of every object reachable from ``root`` through containers
    and slots, each object counted once (``sys.getsizeof``)."""
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        else:
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, slot) for slot in getattr(cls, "__slots__", ())
                             if hasattr(obj, slot))
    return total


def _layers(rec: Recorder, output: object) -> dict[str, float]:
    t = layer_times(rec.spans)
    c = rec.counts
    get = lambda name: t.get(name, 0.0)  # noqa: E731
    detect = ("monitors.detect_async", "monitors.detect_partialsync", "monitors.detect_quasi")
    events = c["simkernel.intervals"] + 2 * c["simkernel.messages"]
    fpr_ran = "metrics.fpr_experiment" in t
    return {
        "simkernel.placement_s": get("simkernel.predicate_intervals"),
        "simkernel.generate_s": get("simkernel.generate"),
        "simkernel.sched_stamp_s": get("simkernel.generate") - get("simkernel.predicate_intervals"),
        "simkernel.process_ticks": c["simkernel.process_ticks"],
        "simkernel.intervals": c["simkernel.intervals"],
        "simkernel.messages": c["simkernel.messages"],
        "simkernel.events": events,
        "simkernel.events_per_tick": events / max(c["simkernel.process_ticks"], 1),
        "monitors.queues_s": get("monitors.candidate_queues"),
        "monitors.detect_async_s": get(detect[0]),
        "monitors.detect_partialsync_s": get(detect[1]),
        "monitors.detect_quasi_s": get(detect[2]),
        "monitors.detect_s": sum(get(name) for name in detect),
        "monitors.classify_s": get("monitors.is_eps_consistent"),
        "monitors.hb_check_s": get("monitors.is_hb_consistent"),
        "monitors.self_s": get("monitors.self"),
        "monitors.candidates": c["monitors.candidates"],
        "monitors.cuts": c["monitors.cuts"],
        "monitors.cuts_per_candidate": c["monitors.cuts"] / max(c["monitors.candidates"], 1),
        "monitors.hb_checked": c["monitors.hb_checked"],
        "metrics.experiment_s": get("metrics.total"),
        "metrics.self_s": get("metrics.self"),
        "metrics.y": c["metrics.y"],
        "metrics.y_f": c["metrics.y_f"],
        "metrics.warmup_discarded": c["monitors.detect_async.cuts"] - c["metrics.y"] if fpr_ran else 0,
        "cli.main_s": get("cli.main"),
        "cli.self_s": get("cli.self"),
        "cli.output_bytes": len(output) if isinstance(output, bytes) else 0,
        "simkernel.trace_bytes_per_event": sum(map(_retained_bytes, rec.traces)) / max(events, 1),
        "analytic.eval_s": get("analytic.total"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--horizon", type=int)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    if Path(psml.__file__).resolve().parent != SRC / "psml":
        raise SystemExit(f"imported psml from {psml.__file__}, not from {SRC}")
    if args.mode == "probe":
        print("{}")
        return 0
    wl = WORKLOADS[args.workload]
    horizon = args.horizon or wl.horizon
    meta = {"python": sys.version.split()[0], "numpy": numpy.__version__}

    if args.mode == "timed":
        record = _experiment(wl, args.seed, horizon, args.out_dir)
        print(json.dumps({"experiments": [record], "meta": meta}))
        return 0

    rec = Recorder()
    record, output = _traced_experiment(wl, args.seed, horizon, args.out_dir, rec)
    layers = _layers(rec, output)
    layers["simkernel.placement_peak_mb"] = _placement_peak_mb(rec.traces[0].config)
    print(json.dumps({"experiments": [record], "layers": layers, "spans": rec.spans, "meta": meta}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
