"""Conjunctive-predicate detection monitors.

A monitor consumes one queue of candidate intervals per monitored
process and enumerates cuts.  A cut is a tuple of the trace's own
:class:`~psml.simkernel.PredicateInterval` records, read in place,
one per monitored process in ascending process order and pairwise
causally concurrent: each is a process's predicate-true interval,
stamped with the vector clock (``vc_start``) and hybrid logical clock
(``hlc_start``) of its truthification.  One engine enumerates the
concurrent cuts and the three monitors filter what it yields:

* asynchronous: keep every concurrent cut;
* partially synchronous: keep only cuts whose length fits a window
  ``eps_mon``;
* quasi-synchronous: keep only cuts whose intervals share a common
  tick, decided from the scalar hybrid-logical-clock stamps alone.

The engine is the queue-based weak-conjunctive-predicate algorithm:
while some head candidate happens-before another head, the preceding
one can join no concurrent cut with the rest and is discarded; once
heads are pairwise concurrent the cut is yielded and the head with
the smallest interval end moves on (ties to the lowest process
index).  Heads only advance and one process's intervals are disjoint,
so every yielded cut differs from the one yielded before it in some
process's interval: no cut is a slide of the previous one.  The
engine never sees a monitor's rule, so every monitor's cuts are a
subsequence of the asynchronous monitor's, in the same order.

Inside the engine, happens-before between two candidate stamps is
decided from the owner components alone: the start event of candidate
``i`` precedes that of ``j`` exactly when ``j``'s stamp has learned
``i``'s owner count (``vc_j[proc_i] >= vc_i[proc_i]``).  This is
equivalent to the full componentwise comparison for stamps drawn from
one execution and takes constant time per pair.

After a yielded cut the engine tests the moved head against the rest
only if it learned something: if the sum of its stamp's foreign
entries (all but its owner's) did not grow, the heads are still
pairwise concurrent and the next cut is yielded at once.  Proof: no
other head knew the old head, and the new one starts later on the
same process, so none knows it; and foreign entries only grow along a
process, so an equal sum means every foreign entry is unchanged: the
new head knows what the old one knew, no other head.  Summing all ``n``
entries is conservative when only some processes are monitored.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, ge, itemgetter
from typing import Iterable, Iterator, Sequence

from .simkernel import PredicateInterval, Trace

__all__ = [
    "cut_length",
    "is_hb_consistent",
    "is_eps_consistent",
    "candidate_queues",
    "detect_async",
    "detect_partialsync",
    "detect_quasi",
]


_START = attrgetter("start")
_END = attrgetter("end")


def cut_length(cut: Sequence[PredicateInterval]) -> int:
    """max(max_i start_i - min_i end_i, 0): the smallest window the
    cut's intervals fit in; 0 when they share a common tick."""
    return max(max(map(_START, cut)) - min(map(_END, cut)), 0)


def is_hb_consistent(cut: Sequence[PredicateInterval]) -> bool:
    """True iff all candidate stamp pairs compare as concurrent."""
    # dominated-or-equal in either direction means the pair is not
    # concurrent
    stamps = [c.vc_start for c in cut]
    return not any(
        all(x <= y for x, y in zip(a, b)) for a, b in itertools.permutations(stamps, 2)
    )


def is_eps_consistent(cut: Sequence[PredicateInterval], eps: float) -> bool:
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
) -> Iterator[tuple[PredicateInterval, ...]]:
    """Yield the heads of every pairwise-concurrent cut, in order."""
    if any(not q for q in queues):
        return
    m = len(queues)
    pos = [0] * m
    heads = [q[0] for q in queues]
    procs = [c.proc for c in heads]
    ends = [c.end for c in heads]
    stamps = [c.vc_start for c in heads]
    owns = [s[p] for s, p in zip(stamps, procs)]
    # each head's foreign entries, summed: what it has learned of others
    foreign = [sum(s) - own for s, own in zip(stamps, owns)]

    def advance(i: int) -> bool:
        """Move head ``i`` on; False once its queue is exhausted."""
        pos[i] += 1
        if pos[i] == len(queues[i]):
            return False
        c = heads[i] = queues[i][pos[i]]
        ends[i] = c.end
        s = stamps[i] = c.vc_start
        own = owns[i] = s[procs[i]]
        foreign[i] = sum(s) - own
        return True

    # the prune loop runs for the first cut, for a moved head that learned
    # something and for heads it prunes.  Each head meets its own owner
    # count, so a count above 1 below means another head is involved;
    # the counts run in C and end most checks.  Head j's owner count is
    # read against stamp entry procs[j].
    full = procs == list(range(len(stamps[0])))

    # indices whose head changed and must be rechecked against the rest
    todo = list(range(m))
    while True:
        while todo:
            i = todo.pop()
            # head_i happened before any other head that learned its
            # owner count: no cut can use it
            p_i = procs[i]
            if sum(map(ge, map(itemgetter(p_i), stamps), itertools.repeat(owns[i]))) > 1:
                learned = [s[p_i] for s in stamps]
                learned[i] = -1  # its own stamp does not count
                top = max(learned)
                while owns[i] <= top:
                    if not advance(i):
                        return
            # heads whose owner count head_i learned happened before it:
            # they go, and are rechecked
            s_i = stamps[i]
            if sum(map(ge, s_i if full else map(s_i.__getitem__, procs), owns)) > 1:
                for j, (p, own) in enumerate(zip(procs, owns)):
                    if s_i[p] >= own and j != i:
                        if not advance(j):
                            return
                        if j not in todo:
                            todo.append(j)
        yield tuple(heads)
        # advance the earliest-ending head; ties fall to the lowest index.
        # The new head is rechecked only if it learned something (see the
        # module docstring).
        k = ends.index(min(ends))
        known = foreign[k]
        if not advance(k):
            return
        if foreign[k] != known:
            todo.append(k)


def detect_async(
    trace: Trace, procs: Iterable[int] | None = None
) -> list[tuple[PredicateInterval, ...]]:
    """All distinct pairwise-concurrent cuts, in emission order."""
    return list(_detect(candidate_queues(trace, procs)))


def detect_partialsync(
    trace: Trace, eps_mon: float, procs: Iterable[int] | None = None
) -> list[tuple[PredicateInterval, ...]]:
    """Concurrent cuts fitting a monitoring window of width ``eps_mon``:
    exactly detect_async's length-filtered subsequence."""
    if not eps_mon >= 0:
        raise ValueError("eps_mon must be non-negative")
    return [h for h in _detect(candidate_queues(trace, procs)) if cut_length(h) <= eps_mon]


def _shares_tick(cands: Sequence[PredicateInterval]) -> bool:
    """Some logical value falls in every candidate's window
    [l, l + (end - start)], l being ``hlc_start[0]``: max of lows <=
    min of highs."""
    lo = max(c.hlc_start[0] for c in cands)
    hi = min(c.hlc_start[0] + (c.end - c.start) for c in cands)
    return lo <= hi


def detect_quasi(
    trace: Trace, procs: Iterable[int] | None = None
) -> list[tuple[PredicateInterval, ...]]:
    """Concurrent cuts whose intervals share a common tick, decided
    from scalar clocks alone (:func:`_shares_tick`).  In a trace whose
    hybrid clocks ride the physical clock this coincides with
    max(start) <= min(end), so every kept cut has length zero.
    """
    return [h for h in _detect(candidate_queues(trace, procs)) if _shares_tick(h)]
