"""Shared reference implementations and fixtures for the test suite.

The detection reference here deliberately avoids every shortcut the
production monitor takes: it compares full vector clocks instead of
owner components, keeps no incremental work queue, and re-scans all
head pairs from scratch after any advance.  Slow and obviously
correct.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Callable, Sequence

import numpy as np

from psml import simkernel
from psml.clocks import Ordering
from psml.monitors import Candidate, Cut
from psml.simkernel import (
    FixedLength,
    GeometricLength,
    PointLength,
    SimConfig,
    Trace,
    step_schedule,
)


# ---------------------------------------------------------------------------
# reference detection
# ---------------------------------------------------------------------------


def trace_queues(trace: Trace, procs: Sequence[int] | None = None) -> list[list[Candidate]]:
    """Candidate queues built directly from the trace records."""
    chosen = list(procs) if procs is not None else list(range(trace.config.n))
    return [
        [
            Candidate(iv.proc, iv.start, iv.end, iv.vc_start, iv.hlc_start)
            for iv in trace.intervals[p]
        ]
        for p in chosen
    ]


def _disjoint(a: Candidate, b: Candidate) -> bool:
    return a.end < b.start or b.end < a.start


def brute_detect(
    queues: list[list[Candidate]],
    accept: Callable[[list[Candidate]], bool],
) -> list[Cut]:
    """Naive queue-based enumeration with full vector-clock compares.

    Repeatedly: discard any head that happened before another head
    (full componentwise comparison); once heads are pairwise
    concurrent, record the cut if accepted and not a slide of the
    previously counted cut; then advance the earliest-ending head,
    ties to the lowest process index.
    """
    if any(not q for q in queues):
        return []
    m = len(queues)
    heads = [0] * m
    out: list[Cut] = []
    last: Cut | None = None
    while True:
        # settle: throw away heads ordered before some other head
        changed = True
        while changed:
            changed = False
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    rel = queues[i][heads[i]].vc.compare(queues[j][heads[j]].vc)
                    if rel is Ordering.BEFORE:
                        heads[i] += 1
                        if heads[i] >= len(queues[i]):
                            return out
                        changed = True
                        break
                if changed:
                    break
        cands = [queues[i][heads[i]] for i in range(m)]
        if accept(cands):
            cut = Cut(tuple(cands))
            if last is None or any(
                _disjoint(a, b) for a, b in zip(cands, last.candidates)
            ):
                out.append(cut)
                last = cut
        k = min(range(m), key=lambda i: cands[i].end)
        heads[k] += 1
        if heads[k] >= len(queues[k]):
            return out


def brute_async(trace: Trace, procs: Sequence[int] | None = None) -> list[Cut]:
    return brute_detect(trace_queues(trace, procs), lambda cands: True)


def brute_partialsync(
    trace: Trace, eps_mon: float, procs: Sequence[int] | None = None
) -> list[Cut]:
    def accept(cands: list[Candidate]) -> bool:
        return max(c.start for c in cands) - min(c.end for c in cands) <= eps_mon

    return brute_detect(trace_queues(trace, procs), accept)


def brute_quasi(trace: Trace, procs: Sequence[int] | None = None) -> list[Cut]:
    def accept(cands: list[Candidate]) -> bool:
        lo = max(c.hlc.l for c in cands)
        hi = min(c.hlc.l + (c.end - c.start) for c in cands)
        return lo <= hi

    return brute_detect(trace_queues(trace, procs), accept)


# ---------------------------------------------------------------------------
# reference schedule
# ---------------------------------------------------------------------------


def replay_schedule(
    config: SimConfig,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], tuple[int, ...]]:
    """The scheduler run of ``generate(config)``, replayed on its own
    stream: one (clocks before the step, advancing processes) pair per
    step, and the clocks when the run ends."""
    rng = simkernel._stream(config.seed, simkernel._S_SCHED)
    clocks = [0] * config.n
    steps = []
    while min(clocks) < config.horizon:
        advancing = step_schedule(
            clocks, config.epsilon_app, config.advance_prob, config.horizon, rng
        )
        steps.append((tuple(clocks), tuple(advancing)))
        for p in advancing:
            clocks[p] += 1
    return steps, tuple(clocks)


# ---------------------------------------------------------------------------
# randomized small configurations
# ---------------------------------------------------------------------------


def random_small_config(index: int) -> SimConfig:
    """A deterministic pseudo-random small-trace configuration."""
    rng = np.random.default_rng(10_000 + index)
    interval_choices = [
        PointLength(),
        FixedLength(int(rng.integers(2, 6))),
        GeometricLength(float(rng.uniform(0.25, 0.8))),
    ]
    return SimConfig(
        n=int(rng.integers(2, 5)),
        epsilon_app=int(rng.integers(0, 11)),
        delta=int(rng.integers(0, 31)),
        alpha=float(rng.choice([0.0, 0.02, 0.1, 0.3])),
        beta=float(rng.uniform(0.05, 0.5)),
        interval=interval_choices[int(rng.integers(0, 3))],
        horizon=int(rng.integers(30, 201)),
        seed=index,
        advance_prob=float(rng.choice([0.3, 0.5, 1.0])),
    )


# ---------------------------------------------------------------------------
# hand-rolled causal executions for clock oracles
# ---------------------------------------------------------------------------


class TinyExecution:
    """A random message-passing run with an explicit happened-before
    relation, independent of the simulator.

    Events are identified by dense integers.  ``hb[a][b]`` is the
    transitive closure over program order and send->receive edges.
    """

    def __init__(self, n: int, steps: int, seed: int):
        from psml.clocks import HLCTimestamp, VectorClock

        rng = np.random.default_rng(seed)
        self.n = n
        self.vcs: list[VectorClock] = []
        self.hlcs: list[HLCTimestamp] = []
        self.pts: list[int] = []
        self.procs: list[int] = []
        edges: list[tuple[int, int]] = []

        cur_vc = [VectorClock.zero(n, p) for p in range(n)]
        cur_hlc = [HLCTimestamp.zero() for _ in range(n)]
        clock = [0] * n
        last_event: list[int | None] = [None] * n
        unread: list[tuple[int, int]] = []  # (event id, sender)

        for _ in range(steps):
            p = int(rng.integers(0, n))
            clock[p] += int(rng.integers(1, 4))
            kind = rng.random()
            readable = [(e, s) for e, s in unread if s != p]
            if kind < 0.4 and readable:
                e_src, _ = readable[int(rng.integers(0, len(readable)))]
                unread.remove((e_src, self.procs[e_src]))
                cur_vc[p] = cur_vc[p].receive(self.vcs[e_src])
                cur_hlc[p] = cur_hlc[p].receive(self.hlcs[e_src], clock[p])
                extra = [e_src]
            else:
                cur_vc[p] = cur_vc[p].local_event()
                cur_hlc[p] = cur_hlc[p].advance(clock[p])
                extra = []
            eid = len(self.vcs)
            self.vcs.append(cur_vc[p])
            self.hlcs.append(cur_hlc[p])
            self.pts.append(clock[p])
            self.procs.append(p)
            if last_event[p] is not None:
                edges.append((last_event[p], eid))
            for src in extra:
                edges.append((src, eid))
            last_event[p] = eid
            if kind >= 0.8:
                unread.append((eid, p))

        m = len(self.vcs)
        hb = np.zeros((m, m), dtype=bool)
        for a, b in edges:
            hb[a, b] = True
        for k in range(m):
            hb |= hb[:, k : k + 1] & hb[k : k + 1, :]
        self.hb = hb


# ---------------------------------------------------------------------------
# CLI runner
# ---------------------------------------------------------------------------


def run_cli(
    args: Sequence[str], env_extra: dict[str, str] | None = None
) -> tuple[int, str, str]:
    """Run the command line in a subprocess; (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env.pop("PSML_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "psml", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr
