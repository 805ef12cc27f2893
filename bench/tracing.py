"""In-memory spans around the public psml calls, and the per-layer
metrics derived from them.

A span is (name, start, end, parent index); run.py adds the run id.
Its name is ``<layer>.<function>``, the layer being the psml module the
function belongs to (``bench`` for the benchmark's own calls).  The
recorder wraps module attributes, so a call made from inside psml
(``metrics.fpr_experiment`` calling ``generate``) is seen exactly where
psml looks the name up.  Nothing inside psml changes.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Any, Callable

from psml import analytic, cli, metrics, monitors, simkernel


class Recorder:
    """Spans, counts and generated traces of one traced experiment."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self.traces: list[simkernel.Trace] = []
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if on_return is not None:
                on_return(args, result)
            return result

        return traced


class Patches:
    """Replaces module attributes and restores them on exit."""

    def __init__(self, replacements: list[tuple[Any, str, Callable]]):
        self.replacements = replacements
        self.saved: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> Patches:
        for module, attr, fn in self.replacements:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, fn)
        return self

    def __exit__(self, *exc: Any) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()


def capture_traces(traces: list[simkernel.Trace]) -> Patches:
    """Keeps every Trace the experiment generates, for the output checks.
    It adds one Python call per trace and records no time."""
    real = metrics.generate

    def keep(config: simkernel.SimConfig, **kwargs: Any) -> simkernel.Trace:
        tr = real(config, **kwargs)
        traces.append(tr)
        return tr

    return Patches([(metrics, "generate", keep)])


def traced_calls(rec: Recorder) -> Patches:
    """Spans and counts at every layer boundary the workloads cross."""
    c = rec.counts

    def on_trace(args: tuple, tr: simkernel.Trace) -> None:
        rec.traces.append(tr)
        c["simkernel.process_ticks"] += sum(tr.final_clocks)
        c["simkernel.intervals"] += sum(len(ivs) for ivs in tr.intervals)
        c["simkernel.messages"] += len(tr.messages)

    def on_queues(args: tuple, queues: list) -> None:
        c["monitors.candidates"] += sum(len(q) for q in queues)

    def on_cuts(name: str) -> Callable:
        def count(args: tuple, cuts: list) -> None:
            c["monitors.cuts"] += len(cuts)
            c[name + ".cuts"] += len(cuts)

        return count

    def on_hb(args: tuple, ok: bool) -> None:
        # is_eps_consistent reaches the happens-before check only for
        # cuts whose length fits the window
        c["monitors.hb_checked"] += 1

    def on_fpr(args: tuple, res: metrics.FprResult) -> None:
        c["metrics.y"] += res.y
        c["metrics.y_f"] += res.y_f

    def wrap(module: Any, attr: str, name: str, on_return: Callable | None = None):
        return (module, attr, rec.span(name, getattr(module, attr), on_return))

    return Patches([
        wrap(cli, "main", "cli.main"),
        wrap(cli, "fpr_row", "metrics.fpr_row"),
        wrap(cli, "hlc_recall_curve", "metrics.hlc_recall_curve"),
        wrap(metrics, "fpr_experiment", "metrics.fpr_experiment", on_fpr),
        wrap(metrics, "generate", "simkernel.generate", on_trace),
        wrap(simkernel, "predicate_intervals", "simkernel.predicate_intervals"),
        wrap(metrics, "detect_async", "monitors.detect_async", on_cuts("monitors.detect_async")),
        wrap(metrics, "detect_partialsync", "monitors.detect_partialsync", on_cuts("monitors.detect_partialsync")),
        wrap(metrics, "detect_quasi", "monitors.detect_quasi", on_cuts("monitors.detect_quasi")),
        wrap(monitors, "candidate_queues", "monitors.candidate_queues", on_queues),
        wrap(metrics, "is_eps_consistent", "monitors.is_eps_consistent"),
        wrap(monitors, "is_hb_consistent", "monitors.is_hb_consistent", on_hb),
        wrap(metrics, "hlc_recall", "analytic.hlc_recall"),
        wrap(analytic, "phi_point", "analytic.phi_point"),
    ])


def layer_times(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer times from one run's spans.

    ``<span name>`` is the summed duration of that call; ``<layer>.total``
    sums the outermost spans of the layer (a layer nested in itself is
    counted once); ``<layer>.self`` is the layer's time minus the time
    of the spans its calls caused in other layers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter[str] = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        out[name] += dur
        out[layer + ".self"] += dur - child_time[i]
        if parent < 0 or not spans[parent][0].startswith(layer + "."):
            out[layer + ".total"] += dur
    return dict(out)
