"""Conjunctive-predicate detection monitors.

A monitor consumes one queue of candidate intervals per monitored
process (a process's predicate-true intervals, each stamped with the
vector clock and hybrid logical clock of its truthification) and
enumerates cuts: one candidate per process, pairwise causally
concurrent.  Three acceptance disciplines share one enumeration
engine:

* asynchronous: accept every concurrent cut;
* partially synchronous: accept only cuts whose length fits a window
  ``eps_mon``;
* quasi-synchronous: accept only cuts whose intervals share a common
  tick, decided from the scalar hybrid-logical-clock stamps alone.

The engine is the queue-based weak-conjunctive-predicate algorithm:
while some head candidate happens-before another head, the preceding
one can join no concurrent cut with the rest and is discarded; once
heads are pairwise concurrent the cut is recorded and the head with
the smallest interval end moves on (ties to the lowest process
index).  A newly recorded cut is counted only if some process's head
interval is disjoint in time from that process's candidate in the
previously counted cut, so sliding a cut by one interior event does
not inflate counts.

Inside the engine, happens-before between two candidate stamps is
decided from the owner components alone: the start event of candidate
``i`` precedes that of ``j`` exactly when ``j``'s stamp has learned
``i``'s owner count (``vc_j[proc_i] >= vc_i[proc_i]``).  This is
equivalent to the full componentwise comparison for stamps drawn from
one execution and takes constant time per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .clocks import HLCTimestamp, VectorClock
from .simkernel import Trace

__all__ = [
    "Candidate",
    "Cut",
    "cut_length",
    "is_hb_consistent",
    "is_eps_consistent",
    "candidate_queues",
    "detect_async",
    "detect_partialsync",
    "detect_quasi",
]


@dataclass(frozen=True, slots=True)
class Candidate:
    """One predicate-true interval [start, end] of process ``proc``,
    stamped at its truthification event."""

    proc: int
    start: int
    end: int
    vc: VectorClock
    hlc: HLCTimestamp

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("candidate interval must have end >= start")


@dataclass(frozen=True, slots=True)
class Cut:
    """One candidate per monitored process, in ascending process order."""

    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        procs = [c.proc for c in self.candidates]
        if len(set(procs)) != len(procs):
            raise ValueError("cut has duplicate process indices")


def cut_length(cut: Cut) -> int:
    """max(max_i start_i - min_i end_i, 0): the smallest window the cut
    fits in; 0 when the intervals share a common tick."""
    starts = max(c.start for c in cut.candidates)
    ends = min(c.end for c in cut.candidates)
    return max(starts - ends, 0)


def is_hb_consistent(cut: Cut) -> bool:
    """True iff all candidate stamp pairs compare as concurrent."""
    # componentwise dominance in one shot; dominated-or-equal in either
    # direction means the pair is not concurrent
    stamps = np.array([c.vc.entries for c in cut.candidates])
    le = (stamps[:, None, :] <= stamps[None, :, :]).all(axis=-1)
    np.fill_diagonal(le, False)
    return not le.any()


def is_eps_consistent(cut: Cut, eps: float) -> bool:
    """hb-consistent and fitting in a window of width ``eps``."""
    return cut_length(cut) <= eps and is_hb_consistent(cut)


# ---------------------------------------------------------------------------
# the shared enumeration engine
# ---------------------------------------------------------------------------


def candidate_queues(trace: Trace, procs: Iterable[int] | None = None) -> list[list[Candidate]]:
    """Per-process candidate queues for the monitored set (default all)."""
    n = trace.config.n
    chosen = sorted(set(procs)) if procs is not None else list(range(n))
    if not chosen:
        raise ValueError("monitored set is empty")
    if chosen[0] < 0 or chosen[-1] >= n:
        raise ValueError("monitored process out of range")
    return [
        [Candidate(iv.proc, iv.start, iv.end, iv.vc_start, iv.hlc_start) for iv in trace.intervals[p]]
        for p in chosen
    ]


def _disjoint(a: Candidate, b: Candidate) -> bool:
    return a.end < b.start or b.end < a.start


def _detect(
    queues: list[list[Candidate]],
    accept: Callable[[list[Candidate]], bool],
) -> list[Cut]:
    m = len(queues)
    heads = [0] * m
    if any(not q for q in queues):
        return []

    def exhausted(i: int) -> bool:
        heads[i] += 1
        return heads[i] >= len(queues[i])

    cuts: list[Cut] = []
    last_counted: Cut | None = None
    # indices whose head changed and must be rechecked against the rest
    todo = list(range(m))
    queued = [True] * m

    while True:
        while todo:
            i = todo.pop()
            queued[i] = False
            rescan = True
            while rescan:
                rescan = False
                ci = queues[i][heads[i]]
                own_i = ci.vc.entries[ci.proc]
                for j in range(m):
                    if j == i:
                        continue
                    cj = queues[j][heads[j]]
                    if cj.vc.entries[ci.proc] >= own_i:
                        # head_i happened before head_j: no cut can use it
                        if exhausted(i):
                            return cuts
                        rescan = True
                        break
                    if ci.vc.entries[cj.proc] >= cj.vc.entries[cj.proc]:
                        if exhausted(j):
                            return cuts
                        if not queued[j]:
                            todo.append(j)
                            queued[j] = True

        cands = [queues[i][heads[i]] for i in range(m)]
        if accept(cands):
            cut = Cut(tuple(cands))
            if last_counted is None or any(
                _disjoint(a, b) for a, b in zip(cands, last_counted.candidates)
            ):
                cuts.append(cut)
                last_counted = cut
        # advance the earliest-ending head; ties fall to the lowest index
        k = min(range(m), key=lambda i: cands[i].end)
        if exhausted(k):
            return cuts
        todo.append(k)
        queued[k] = True


def detect_async(trace: Trace, procs: Iterable[int] | None = None) -> list[Cut]:
    """All distinct pairwise-concurrent cuts, in emission order."""
    return _detect(candidate_queues(trace, procs), lambda cands: True)


def detect_partialsync(
    trace: Trace, eps_mon: float, procs: Iterable[int] | None = None
) -> list[Cut]:
    """Concurrent cuts fitting a monitoring window of width ``eps_mon``.

    Cuts wider than the window are skipped by advancing the
    earliest-ending head, the same move made after a recorded cut, so
    the enumeration trajectory matches detect_async's and the output
    is exactly its length-filtered subsequence.
    """
    if not eps_mon >= 0:
        raise ValueError("eps_mon must be non-negative")
    if math.isinf(eps_mon):
        return detect_async(trace, procs)

    def accept(cands: list[Candidate]) -> bool:
        return max(c.start for c in cands) - min(c.end for c in cands) <= eps_mon

    return _detect(candidate_queues(trace, procs), accept)


def detect_quasi(trace: Trace, procs: Iterable[int] | None = None) -> list[Cut]:
    """Concurrent cuts whose intervals share a common tick.

    Decided from scalar clocks: candidate ``c`` covers the logical
    window [hlc.l, hlc.l + (end - start)], and a cut is accepted when
    some single value falls in every window (max of lows <= min of
    highs).  In a trace whose hybrid clocks ride the physical clock
    this coincides with max(start) <= min(end), so every accepted cut
    has length zero.
    """

    def accept(cands: list[Candidate]) -> bool:
        lo = max(c.hlc.l for c in cands)
        hi = min(c.hlc.l + (c.end - c.start) for c in cands)
        return lo <= hi

    return _detect(candidate_queues(trace, procs), accept)

