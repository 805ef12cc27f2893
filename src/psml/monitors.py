"""Conjunctive-predicate detection monitors.

A monitor consumes one queue of candidate intervals per monitored
process and enumerates cuts: one candidate per process, pairwise
causally concurrent.  The candidates are the trace's own
:class:`~psml.simkernel.PredicateInterval` records, read in place: a
process's predicate-true intervals, stamped with the vector clock
(``vc_start``) and hybrid logical clock (``hlc_start``) of their
truthification.  Three acceptance disciplines share one enumeration
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
index).  Heads only advance and one process's intervals are disjoint,
so every recorded cut differs from the one recorded before it in some
process's interval: no cut is a slide of the previous one.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from .simkernel import PredicateInterval, Trace

__all__ = [
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
class Cut:
    """One candidate per monitored process, in ascending process order."""

    candidates: tuple[PredicateInterval, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("cut needs at least one candidate")
        if len({c.proc for c in self.candidates}) != len(self.candidates):
            raise ValueError("cut has duplicate process indices")


def _length(cands: Sequence[PredicateInterval]) -> int:
    """max(max_i start_i - min_i end_i, 0): the smallest window the
    candidates fit in; 0 when the intervals share a common tick."""
    return max(max(c.start for c in cands) - min(c.end for c in cands), 0)


def cut_length(cut: Cut) -> int:
    """The smallest window the cut fits in; 0 when its intervals share
    a common tick."""
    return _length(cut.candidates)


def is_hb_consistent(cut: Cut) -> bool:
    """True iff all candidate stamp pairs compare as concurrent."""
    # componentwise dominance in one shot; dominated-or-equal in either
    # direction means the pair is not concurrent
    stamps = np.array([c.vc_start.entries for c in cut.candidates])
    le = (stamps[:, None, :] <= stamps[None, :, :]).all(axis=-1)
    np.fill_diagonal(le, False)
    return not le.any()


def is_eps_consistent(cut: Cut, eps: float) -> bool:
    """hb-consistent and fitting in a window of width ``eps``."""
    return cut_length(cut) <= eps and is_hb_consistent(cut)


# ---------------------------------------------------------------------------
# the shared enumeration engine
# ---------------------------------------------------------------------------


def candidate_queues(
    trace: Trace, procs: Iterable[int] | None = None
) -> list[list[PredicateInterval]]:
    """Per-process candidate queues for the monitored set (default all):
    the trace's own interval records, in ascending process order."""
    n = trace.config.n
    chosen = sorted(set(procs)) if procs is not None else list(range(n))
    if not chosen:
        raise ValueError("monitored set is empty")
    if chosen[0] < 0 or chosen[-1] >= n:
        raise ValueError("monitored process out of range")
    return [list(trace.intervals[p]) for p in chosen]


def _detect(
    queues: list[list[PredicateInterval]],
    accept: Callable[[list[PredicateInterval]], bool],
) -> list[Cut]:
    if any(not q for q in queues):
        return []
    m = len(queues)
    pos = [0] * m
    heads = [q[0] for q in queues]
    procs = [c.proc for c in heads]
    ends = [c.end for c in heads]
    stamps = [c.vc_start.entries for c in heads]
    owns = [s[p] for s, p in zip(stamps, procs)]

    def advance(i: int) -> bool:
        """Move head ``i`` on; False once its queue is exhausted."""
        pos[i] += 1
        if pos[i] == len(queues[i]):
            return False
        c = heads[i] = queues[i][pos[i]]
        ends[i] = c.end
        s = stamps[i] = c.vc_start.entries
        owns[i] = s[procs[i]]
        return True

    cuts: list[Cut] = []
    # indices whose head changed and must be rechecked against the rest
    todo = list(range(m))
    while True:
        while todo:
            i = todo.pop()
            # head_i happened before any other head that learned its
            # owner count: no cut can use it
            p_i = procs[i]
            learned = [s[p_i] for s in stamps]
            learned[i] = -1  # its own stamp does not count
            top = max(learned)
            while owns[i] <= top:
                if not advance(i):
                    return cuts
            # heads whose owner count head_i learned happened before it:
            # they go, and are rechecked
            s_i = stamps[i]
            for j, (p, own) in enumerate(zip(procs, owns)):
                if s_i[p] >= own and j != i:
                    if not advance(j):
                        return cuts
                    if j not in todo:
                        todo.append(j)
        if accept(heads):
            cuts.append(Cut(tuple(heads)))
        # advance the earliest-ending head; ties fall to the lowest index
        k = ends.index(min(ends))
        if not advance(k):
            return cuts
        todo.append(k)


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
    return _detect(candidate_queues(trace, procs), lambda cands: _length(cands) <= eps_mon)


def detect_quasi(trace: Trace, procs: Iterable[int] | None = None) -> list[Cut]:
    """Concurrent cuts whose intervals share a common tick.

    Decided from scalar clocks: candidate ``c`` covers the logical
    window [hlc.l, hlc.l + (end - start)], and a cut is accepted when
    some single value falls in every window (max of lows <= min of
    highs).  In a trace whose hybrid clocks ride the physical clock
    this coincides with max(start) <= min(end), so every accepted cut
    has length zero.
    """

    def accept(cands: list[PredicateInterval]) -> bool:
        lo = max(c.hlc_start.l for c in cands)
        hi = min(c.hlc_start.l + (c.end - c.start) for c in cands)
        return lo <= hi

    return _detect(candidate_queues(trace, procs), accept)

