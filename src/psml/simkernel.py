"""Seeded generator of partially synchronous executions.

The system model: ``n`` processes hold integer clocks starting at 0.
Generation proceeds in scheduler steps; in each step every process
advances its clock by one with probability one half unless it
sits at the drift cap (its clock equals the minimum clock plus
``epsilon_app``), so the clock spread never exceeds ``epsilon_app``.
If no process advances, the first minimum-clock process is forced
forward.  At ``epsilon_app`` 0 the cap is the minimum itself, so every
step is forced and the clocks move in lockstep, one process at a time
in ascending order.  A run ends when every clock reaches ``horizon``.

On each clock advance a process, in this order: receives any message
whose delivery point has arrived, opens a predicate interval if the
truth model fires at the new clock value, and sends a message to a
uniformly random other process with probability ``alpha``.  Messages
are delivered at the receiver's first tick with clock at least
``send_pt + delta``; with drift a receiver may already be past that
value, in which case delivery lands on its next tick.  Messages still
undelivered when the receiver stops are dropped.

Every receive, interval start, and send is a causal event: it ticks
the process's vector clock and hybrid logical clock, and the stamps
are recorded in the trace.  An interval's end stamp is a snapshot of
the process's vector clock after its final tick (ends are not events).

Work is paid per event, not per advance: an advance below the
process's watch tick only moves the clock, and the scheduler coins come
in blocks of steps, one ``(steps, n)`` draw giving the same values as
one draw per step.  The watch is the smaller of two heads: that of the
process's local-work plan (its interval starts, interval ends and send
ticks, merged into one ascending list before the schedule runs) and
that of its inbox.  Point predicates are placed straight from their
per-tick decisions.
Events never change a clock, so the schedule is kept apart from them:
:func:`_event_state` owns the plans, inboxes, stamps and the trace, and
one of three schedule drivers, each giving the same steps, calls its
event body; :func:`_schedule_path` holds the rule that picks one.

Randomness is split into independent per-process streams keyed by
purpose, and every decision is indexed by clock value rather than by
scheduler step.  Predicate placement therefore depends only on
(seed, beta, interval, correlation), never on scheduling, and adding
processes does not perturb the streams of existing ones.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .clocks import HLC, VC, hlc_merge, hlc_tick, vc_merge, vc_tick

__all__ = [
    "GeometricLength",
    "FixedLength",
    "Independent",
    "PMA",
    "HNMA",
    "PMAJ",
    "SimConfig",
    "PredicateInterval",
    "MessageRecord",
    "Trace",
    "truthify",
    "predicate_intervals",
    "generate",
    "trace_records",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GeometricLength:
    """Lengths drawn geometrically: P(k) = (1-p)**(k-1) * p for k >= 1."""

    p: float


@dataclass(frozen=True, slots=True)
class FixedLength:
    """Every interval lasts exactly ``length`` ticks; ``FixedLength(1)``
    gives point predicates."""

    length: int


IntervalSpec = GeometricLength | FixedLength


@dataclass(frozen=True, slots=True)
class Independent:
    """Each process truthifies independently at rate beta."""


@dataclass(frozen=True, slots=True)
class PMA:
    """Partial majority adoption.

    The first ``group1`` processes truthify independently; each
    remaining process adopts the majority truth value of that group
    with probability ``p_dep`` and otherwise draws independently.
    """

    group1: int
    p_dep: float = 0.5


@dataclass(frozen=True, slots=True)
class HNMA:
    """Half-follow-the-minority.

    The first n//2 processes truthify independently; each remaining
    process adopts the MINORITY truth value of that group with
    probability 0.5 and otherwise draws independently.
    """


@dataclass(frozen=True, slots=True)
class PMAJ:
    """Prefix-majority chain.

    Process 0 truthifies independently; every process j adopts the
    majority truth value of processes 0..j-1 with probability 0.5 and
    otherwise draws independently.
    """


CorrelationSpec = Independent | PMA | HNMA | PMAJ


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full description of one execution; two equal configs generate
    bit-identical traces."""

    n: int
    epsilon_app: int
    delta: int = 100
    alpha: float = 0.01
    beta: float = 0.01
    interval: IntervalSpec = FixedLength(1)
    horizon: int = 100_000
    correlation: CorrelationSpec = Independent()
    seed: int = 0

    def validate(self) -> None:
        for name in ("n", "epsilon_app", "delta", "horizon", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.epsilon_app < 0:
            raise ValueError("epsilon_app must be non-negative")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        iv = self.interval
        if isinstance(iv, GeometricLength):
            if not 0.0 < iv.p <= 1.0:
                raise ValueError("geometric length parameter must be in (0, 1]")
        elif isinstance(iv, FixedLength):
            if not isinstance(iv.length, numbers.Integral) or iv.length < 1:
                raise ValueError("fixed interval length must be an integer of at least 1")
        else:
            raise ValueError(f"unknown interval spec: {iv!r}")
        corr = self.correlation
        if isinstance(corr, PMA):
            if not isinstance(corr.group1, numbers.Integral) or not 1 <= corr.group1 < self.n:
                raise ValueError("PMA group1 must be an integer with 1 <= group1 < n")
            if not 0.0 <= corr.p_dep <= 1.0:
                raise ValueError("p_dep must be in [0, 1]")
        elif not isinstance(corr, (Independent, HNMA, PMAJ)):
            raise ValueError(f"unknown correlation spec: {corr!r}")


# ---------------------------------------------------------------------------
# trace records: named tuples, so immutable and hashable; a copy with a
# field changed is ``record._replace(...)``, a dict ``record._asdict()``
# ---------------------------------------------------------------------------


class PredicateInterval(NamedTuple):
    """One maximal span [start, end] of local-predicate truth.

    ``vc_start``/``hlc_start`` stamp the truthification event;
    ``vc_end`` snapshots the process's vector clock after the tick at
    ``end``.  Point predicates have end == start.
    """

    proc: int
    start: int
    end: int
    vc_start: VC
    vc_end: VC
    hlc_start: HLC


class MessageRecord(NamedTuple):
    """A delivered message with the clock stamps of both endpoints."""

    sender: int
    send_pt: int
    receiver: int
    receive_pt: int
    vc_send: VC
    hlc_send: HLC
    vc_receive: VC
    hlc_receive: HLC


@dataclass(frozen=True, slots=True)
class Trace:
    """A complete generated execution.

    ``intervals[p]`` lists process p's predicate intervals in time
    order; ``messages`` lists delivered messages in send order;
    ``final_clocks`` holds every process's clock when the run ends.
    """

    config: SimConfig
    intervals: tuple[tuple[PredicateInterval, ...], ...]
    messages: tuple[MessageRecord, ...]
    final_clocks: tuple[int, ...]


# ---------------------------------------------------------------------------
# randomness: per-purpose, per-process streams indexed by clock value
# ---------------------------------------------------------------------------

_S_PRED = 0  # predicate truth coins
_S_LEN = 1  # interval length draws
_S_SEND = 2  # send coins
_S_RECV = 3  # receiver choices
_S_DEP = 4  # correlation dependence coins
_S_SCHED = 5  # scheduler advance coins


def _stream(seed: int, purpose: int, proc: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, proc)))


def _length_iter(config: SimConfig, proc: int) -> Iterator[int]:
    iv = config.interval
    if isinstance(iv, FixedLength):
        return itertools.repeat(iv.length)
    rng = _stream(config.seed, _S_LEN, proc)

    def draw() -> Iterator[int]:
        while True:
            for k in rng.geometric(iv.p, size=256):
                yield int(k)

    return draw()


# ---------------------------------------------------------------------------
# predicate truthification
# ---------------------------------------------------------------------------


def truthify(decisions: np.ndarray, lengths: Iterator[int], horizon: int) -> list[tuple[int, int]]:
    """Turn per-tick truth decisions into disjoint intervals.

    A decision at tick v opens an interval [v, v + k - 1] with k drawn
    from ``lengths``; decisions falling inside an open interval are
    ignored (no re-truthification), and eligibility resumes the tick
    after the interval closes.  Ends are clamped to the horizon.
    """
    out: list[tuple[int, int]] = []
    next_free = 1
    for v in np.flatnonzero(decisions):
        if v < next_free:
            continue
        end = min(int(v) + next(lengths) - 1, horizon)
        out.append((int(v), end))
        next_free = end + 1
    return out


def _point_intervals(decisions: np.ndarray) -> list[tuple[int, int]]:
    """``truthify(decisions, itertools.repeat(1), horizon)`` for point
    predicates: every true decision after tick 0 is its own interval,
    so no decision is swallowed and none needs clamping."""
    ticks = (np.flatnonzero(decisions[1:]) + 1).tolist()
    return list(zip(ticks, ticks))


def predicate_intervals(config: SimConfig) -> list[list[tuple[int, int]]]:
    """Interval placement for every process, independent of scheduling.

    Processes settle in index order, each from its own truth coins.  The
    first ``lead`` keep them; at each tick a later process (a follower)
    takes, with probability ``p_dep``, the strict majority (under HNMA
    the strict minority) of the predicate COVERAGE of the first
    ``min(p, group)`` processes instead, ties read as false.  Coverage
    counts ticks inside an interval, not only its opening tick.

    ===========  ========  ===================  =========
    model        lead      group                p_dep
    ===========  ========  ===================  =========
    Independent  n         none                 -
    PMA          group1    the first group1     ``p_dep``
    HNMA         n // 2    the first n // 2     0.5
    PMAJ         1         every earlier one    0.5
    ===========  ========  ===================  =========

    Point predicates (``FixedLength(1)``) are placed straight from their
    decisions (:func:`_point_intervals`), every other length through
    :func:`truthify`.
    """
    config.validate()
    n, horizon, seed = config.n, config.horizon, config.seed
    match config.correlation:
        case PMA(group1=lead, p_dep=p_dep):
            group = lead
        case HNMA():
            lead = group = n // 2
            p_dep = 0.5
        case PMAJ():
            lead, group, p_dep = 1, n - 1, 0.5
        case _:  # Independent; validate() rejects every other spec
            lead, group, p_dep = n, 0, 0.0
    minority = isinstance(config.correlation, HNMA)
    point = config.interval == FixedLength(1)
    cov_sum = np.zeros(horizon + 1, dtype=np.int32)  # over the group settled so far
    intervals = []
    for p in range(n):
        # a decision at tick 0 is never read: truthify starts at tick 1
        dec = _stream(seed, _S_PRED, p).random(horizon + 1) < config.beta
        if p >= lead:
            size = min(p, group)
            followed = 2 * cov_sum < size if minority else 2 * cov_sum > size
            dec = np.where(_stream(seed, _S_DEP, p).random(horizon + 1) < p_dep, followed, dec)
        if point:
            intervals.append(_point_intervals(dec))
            if p < group:  # a point interval covers its own tick
                cov_sum[1:] += dec[1:]
            continue
        intervals.append(truthify(dec, _length_iter(config, p), horizon))
        if p < group:  # the intervals are disjoint: +1 at each start, -1 past each end
            spans = np.array(intervals[p], dtype=np.int64).reshape(-1, 2)
            edges = np.zeros(horizon + 2, dtype=np.int32)
            edges[spans[:, 0]] += 1
            edges[spans[:, 1] + 1] -= 1
            cov_sum += edges[:-1].cumsum(dtype=np.int32)
    return intervals


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

# scheduler steps per coin draw; a (B, n) draw equals B successive draws of n.
# The reflection kernel solves one block of steps at a time.
_SCHED_BLOCK = 512
# largest offset table, in (state, coin row) entries, that generate builds
_TABLE_ENTRIES = 1 << 17
# A schedule driver runs the scheduler to the horizon and returns the final
# clocks.  It sees only the watch ticks and events(p, v), which it calls at
# each advance of p to v >= watch[p], in (step, process) order, and which
# returns the receiver of the send it made, if any.
_Events = Callable[[int, int], int | None]


def _schedule_path(n: int, eps: int, horizon: int) -> str:
    """The path ``generate`` runs the schedule on; all three give the
    same steps.

    * ``"table"`` (:func:`_run_table`), when ``0 < eps < horizon`` and
      the offset table has at most ``_TABLE_ENTRIES`` entries,
      ``(eps+1)**n - eps**n`` offset states times ``2**n`` coin rows (n=3
      at eps 10 has 2,648).  Below the horizon tail a step depends only
      on the clocks' offsets from the minimum and the coin row, so the
      table memoises it; the step loop runs the tail from the same block.
    * ``"kernel"``, the reflection kernel (:func:`_run_kernel`), when
      ``n >= 10`` and ``eps >= 10``.  It restarts its block at every
      forced step, which takes all ``n`` coins lost, so it runs where
      fewer than one is expected per block (``2**n > _SCHED_BLOCK``) and
      where its caps rarely bind: on the schedule alone at n in {10, 20,
      50} (2 CPUs) it overtakes the loop between eps 6 and 8, 1.8-2.8x
      faster at eps 10 and 0.06-0.12x at eps 2.
    * ``"loop"``, the step loop (:func:`_run_loop`), for the rest.
    """
    if 0 < eps < horizon and ((eps + 1) ** n - eps ** n) << n <= _TABLE_ENTRIES:
        return "table"
    return "kernel" if eps >= 10 and 1 << n > _SCHED_BLOCK else "loop"


def _transition(offsets: tuple[int, ...], row: int, eps: int) -> tuple[tuple[int, ...], int, int]:
    """One scheduler step below the horizon tail, on clock offsets.

    ``offsets[p]`` is p's clock minus the minimum clock, in 0..eps, and
    bit p of ``row`` is p's advance coin.  Returns the offsets after the
    step, the rise of the minimum clock and the bitmask of the processes
    that moved: the coin winners below the drift cap or, if there are
    none, the first process at offset 0.
    """
    moved = 0
    for p, o in enumerate(offsets):
        if row >> p & 1 and o < eps:
            moved |= 1 << p
    if not moved:
        moved = 1 << offsets.index(0)
    after = [o + (moved >> p & 1) for p, o in enumerate(offsets)]
    rise = min(after)
    return tuple(o - rise for o in after), rise, moved


def _reflected_schedule(
    clocks: list[int], eps: int, horizon: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, int]]:
    """The scheduler run from ``clocks`` to the horizon, one coin block at
    a time, as segments ``(rows, forced)``.

    ``rows[:, 0]`` holds the clocks before the segment and ``rows[:, s]``
    the clocks after its step s, in which every coin winner below the
    drift cap moved.  ``forced`` is the process that the step after the
    last row moves because no coin winner could, or -1 if the segment
    ends at the block end or the run end.

    Within a block, step s caps every clock at ``b(s) = min(lo(s-1) +
    eps, horizon)``, with ``lo(s-1)`` the minimum clock before the step.
    No clock is above its next cap, so a clock is the capped cumulative
    sum ``C(s) = min(C(s-1) + coin(s), b(s))`` of its coins, in closed
    form ``S + min(c0, cummin(b - S))`` with ``S`` the coin count.  ``b``
    depends on ``C``, so it is iterated from the uncapped clocks; each
    pass fixes at least one more row and the sequence only falls, so it
    stops at the schedule.  The first row in which no clock moves is a
    forced step; the block goes on from the row after it.

    Needs ``eps >= 1``: at eps 0 the iteration does not stop, so it
    raises ``ValueError`` there before any coin is drawn.
    """
    if eps < 1:
        raise ValueError("the reflection kernel needs epsilon_app >= 1")
    n, c0 = len(clocks), np.array(clocks, dtype=np.int64)
    while c0.min() < horizon:
        coins = np.zeros((n, _SCHED_BLOCK + 1), dtype=np.int64)  # column 0: no step
        coins[:, 1:] = (rng.random((_SCHED_BLOCK, n)) < 0.5).T
        while coins.shape[1] > 1:
            ups = coins.cumsum(axis=1)
            cap = np.full(coins.shape[1], horizon)
            rows = np.minimum(c0[:, None] + ups, horizon)  # the clocks under that cap
            while True:
                lo = rows.min(axis=0)
                below = np.minimum(lo[:-1] + eps, horizon)
                if (below == cap[1:]).all():
                    break
                cap[1:] = below
                rows = ups + np.minimum(c0[:, None], np.minimum.accumulate(cap - ups, axis=1))
            # s: the first forced step, where the clock total does not rise;
            # the run ends at the first row whose minimum is the horizon
            total = rows.sum(axis=0)
            stall = np.flatnonzero(total[1:] == total[:-1])
            s = int(stall[0]) + 1 if stall.size else len(lo)
            if lo[-1] == horizon and (end := int(np.searchsorted(lo, horizon))) < s:
                yield rows[:, : end + 1], -1
                return
            if s == len(lo):
                yield rows, -1
                c0 = rows[:, -1]
                break
            c0 = rows[:, s - 1].copy()
            forced = int(np.argmin(c0))
            yield rows[:, :s], forced
            c0[forced] += 1
            if c0.min() == horizon:
                return
            coins = coins[:, s:]
            coins[:, 0] = 0


def _event_state(config: SimConfig) -> tuple[_Events, list[int], Callable[[list[int]], Trace]]:
    """The causal side of :func:`generate`: ``(events, watch, finish)``.

    Placement comes first (:func:`predicate_intervals`; point predicates
    are placed straight from their decisions).  Each process's local
    work is then merged once, in numpy, into one ascending plan of the
    ticks that hold an interval start, a send or an interval end, each
    tick marked with which of the three it holds; the interval lists
    are not kept.  ``watch[p]``, the first clock value at which p has
    causal work, is the smaller of its plan head and the delivery
    threshold of its inbox head.  ``events(p, v)`` takes the due
    messages, then, only if the tick is the plan head, runs the start,
    send and end the plan marks there, in that order, and recomputes the
    watch; a send lowers the receiver's watch to ``send_pt + delta``.

    Each send appends an empty slot to a list indexed by its send seq,
    and the delivery fills it with the message's record, so the
    delivered messages come out in send order with no sort.  A message
    still in flight when its receiver stops is dropped: its slot stays
    empty and is left out of the trace.  ``finish(clocks)`` is the
    trace, given the final clocks.
    """
    config.validate()
    n, horizon, delta = map(int, (config.n, config.horizon, config.delta))
    never = horizon + 1  # sentinel tick past every plan

    # p's local-work plan: the ascending ticks work[p] at which p opens an
    # interval (bit 1 of kinds[p]), sends (bit 2) or closes its interval
    # (bit 4), with a sentinel at the end.  A send's receiver is send_to[p]
    # in send order.
    work: list[memoryview] = []
    kinds: list[bytes] = []
    send_to: list[list[int]] = []
    for p, plan in enumerate(predicate_intervals(config)):
        coins = _stream(config.seed, _S_SEND, p).random(horizon + 1) < config.alpha
        coins[0] = False
        ticks = np.flatnonzero(coins)
        raw = _stream(config.seed, _S_RECV, p).integers(0, n - 1, size=ticks.size)
        send_to.append([int(r) + 1 if r >= p else int(r) for r in raw])
        spans = np.fromiter(itertools.chain.from_iterable(plan), np.int64, 2 * len(plan))
        # sorted and deduplicated without np.unique, whose first call
        # imports numpy.ma (over 1 MB of resident memory at n=3)
        at = np.sort(np.concatenate((spans, ticks, [never])))
        at = at[np.diff(at, prepend=-1) > 0]
        kind = np.zeros(at.size, dtype=np.uint8)
        for bit, marks in ((1, spans[0::2]), (2, ticks), (4, spans[1::2])):
            kind[np.searchsorted(at, marks)] |= bit
        work.append(memoryview(at))
        kinds.append(kind.tobytes())

    vcs: list[VC] = [(0,) * n] * n
    hlcs: list[HLC] = [(0, 0)] * n
    # in flight: per-receiver heap of (delivery threshold, send seq, sender,
    # send_pt, vc_send, hlc_send)
    pending: list[list[tuple]] = [[] for _ in range(n)]
    open_iv: list[tuple[int, VC, HLC] | None] = [None] * n  # start and its stamps
    wptr = [0] * n
    sptr = [0] * n
    done: list[list[PredicateInterval]] = [[] for _ in range(n)]
    sent: list[MessageRecord | None] = []  # by send seq; None until delivered

    def events(p: int, v: int) -> int | None:
        inbox = pending[p]
        while inbox and inbox[0][0] <= v:
            _, mseq, sender, send_pt, vc_s, hlc_s = heapq.heappop(inbox)
            vcs[p] = vc_merge(vcs[p], vc_s, p)
            hlcs[p] = hlc_merge(hlcs[p], hlc_s, v)
            sent[mseq] = MessageRecord(sender, send_pt, p, v, vc_s, hlc_s, vcs[p], hlcs[p])

        q = None
        k = wptr[p]
        w = work[p][k]
        if w == v:
            kind = kinds[p][k]
            if kind & 1:
                vcs[p] = vc_tick(vcs[p], p)
                hlcs[p] = hlc_tick(hlcs[p], v)
                open_iv[p] = (v, vcs[p], hlcs[p])

            if kind & 2:
                sp = sptr[p]
                sptr[p] = sp + 1
                vcs[p] = vc_tick(vcs[p], p)
                hlcs[p] = hlc_tick(hlcs[p], v)
                q = send_to[p][sp]
                heapq.heappush(pending[q], (v + delta, len(sent), p, v, vcs[p], hlcs[p]))
                sent.append(None)
                # a receiver already past the threshold takes the message on
                # its next advance, which with delta = 0 may come later in
                # this step
                if v + delta < watch[q]:
                    watch[q] = v + delta

            if kind & 4:
                start, vc_start, hlc_start = open_iv[p]
                done[p].append(PredicateInterval(p, start, v, vc_start, vcs[p], hlc_start))
                open_iv[p] = None

            wptr[p] = k = k + 1
            w = work[p][k]
        if inbox and inbox[0][0] < w:
            w = inbox[0][0]
        watch[p] = w
        return q

    def finish(clocks: list[int]) -> Trace:
        # point intervals that open and close on the same tick are finalized
        # in the event body because the end check runs after the start check
        assert all(iv is None for iv in open_iv)
        messages = tuple(m for m in sent if m is not None)
        return Trace(config, tuple(tuple(ivs) for ivs in done), messages, tuple(clocks))

    watch = [at[0] for at in work]
    return events, watch, finish


def _run_table(events: _Events, watch: list[int], eps: int, horizon: int, rng: np.random.Generator) -> list[int]:
    """The offset-table driver, for ``0 < eps < horizon``.  While ``lo +
    eps < horizon`` a step depends only on the clock offsets from the
    minimum ``lo`` and the coin row.  Table entry ``state << n | row``,
    filled when first used, is ``(next state << n, rise of lo, movers in
    ascending order, their largest offset after the step)``; the movers
    are walked only when one may have reached ``min(watch)``.  The
    horizon tail runs on in :func:`_run_loop` from the same coin block.
    """
    n = len(watch)
    width, weights = 1 << n, 1 << np.arange(n)
    bits = [[p for p in range(n) if m >> p & 1] for m in range(width)]  # mask -> processes
    offs = [(0,) * n]  # state -> offsets, numbered in order of appearance
    states = {offs[0]: 0}
    table: list[tuple[int, int, list[int], int] | None] = [None] * width

    def fill(k: int, row: int) -> tuple[int, int, list[int], int]:
        after, rise, moved = _transition(offs[k >> n], row, eps)
        if after not in states:
            states[after] = len(offs)
            offs.append(after)
            table.extend([None] * width)
        movers = bits[moved]
        table[k] = (states[after] << n, rise, movers, max(after[p] for p in movers))
        return table[k]

    lo = base = 0  # base: the current state << n
    stop, low = horizon - eps, min(watch)
    while lo < stop:
        block = rng.random((_SCHED_BLOCK, n)) < 0.5
        for r, row in enumerate((block @ weights).tolist(), 1):
            base, rise, movers, reach = table[base | row] or fill(base | row, row)
            lo += rise
            # no mover's clock is past lo + reach, and watches change only
            # in events, so low is min(watch) and a step below it has no
            # event
            if lo + reach >= low:
                o = offs[base >> n]
                for p in movers:  # ascending, as in the step loop
                    if lo + o[p] >= watch[p]:
                        events(p, lo + o[p])
                low = min(watch)
            if lo >= stop:
                break
    return _run_loop(events, watch, eps, horizon, rng, [lo + o for o in offs[base >> n]], block[r:].tolist())


def _run_kernel(events: _Events, watch: list[int], eps: int, horizon: int, rng: np.random.Generator) -> list[int]:
    """The reflection-kernel driver (:func:`_reflected_schedule`), for
    ``eps >= 1``."""
    clocks = [0] * len(watch)
    for seg, forced in _reflected_schedule(clocks, eps, horizon, rng):
        if (steps := seg.shape[1] - 1) > 0:
            # p's k-th advance in the segment is flat[offs[p] + k - 1],
            # as p * steps + its step, and takes p's clock to
            # c0[p] + k = index - base[p].  An event runs at the advance
            # that reaches the watch, in (step, process) order, from a
            # heap of (step, p, index) whose live entry for p is at[p]:
            # the top entry is read, and replaced by p's next one after
            # its event (or dropped if stale).
            flat = memoryview(np.flatnonzero(seg[:, 1:] != seg[:, :-1]))
            c0, ups = seg[:, 0], seg[:, -1] - seg[:, 0]
            offs = [0, *itertools.accumulate(ups.tolist())]
            base = (np.cumsum(ups) - ups - c0 - 1).tolist()
            at, due = offs[1:], []
            for p in np.flatnonzero(seg[:, -1] >= watch).tolist():
                i = base[p] + watch[p]
                if i < offs[p]:
                    i = offs[p]
                if i < at[p]:
                    at[p] = i
                    due.append((flat[i] - p * steps, p, i))
            heapq.heapify(due)
            while due:
                s, p, i = due[0]
                if at[p] != i:
                    heapq.heappop(due)
                    continue
                q = events(p, i - base[p])
                i = base[p] + watch[p]
                if i < offs[p + 1]:
                    at[p] = i
                    heapq.heapreplace(due, (flat[i] - p * steps, p, i))
                else:
                    at[p] = offs[p + 1]
                    heapq.heappop(due)
                if q is not None:
                    # q takes the message at its first advance that reaches
                    # the new watch and comes after p's: in step s if q > p
                    i = bisect_left(flat, q * steps + s + (q < p), offs[q], offs[q + 1])
                    if i < base[q] + watch[q]:
                        i = base[q] + watch[q]
                    if i < at[q]:
                        at[q] = i
                        heapq.heappush(due, (flat[i] - q * steps, q, i))
            clocks = seg[:, -1].tolist()
        if forced >= 0:
            v = clocks[forced] = clocks[forced] + 1
            if v >= watch[forced]:
                events(forced, v)
    return clocks


def _run_loop(events: _Events, watch: list[int], eps: int, horizon: int, rng: np.random.Generator,
              clocks: list[int] | None = None, rows: Sequence[Sequence[bool]] = ()) -> list[int]:
    """The per-process step loop, from ``clocks`` (zeros if None) on,
    reading the coin rows in ``rows`` before it draws more."""
    n = len(watch)
    clocks = [0] * n if clocks is None else clocks
    r, procs = 0, range(n)
    while (lo := min(clocks)) < horizon:
        if r == len(rows):
            # at eps 0 every step is forced, so no coin is ever read
            rows = ([()] * _SCHED_BLOCK if eps == 0 else
                    (rng.random((_SCHED_BLOCK, n)) < 0.5).tolist())
            r = 0
        # a won coin advances a process below the drift cap and the
        # horizon; p's clock is still its value from the start of the step
        chosen, lim = itertools.compress(procs, rows[r]), min(lo + eps, horizon)
        r += 1
        moved = False
        for p in chosen:
            v = clocks[p]
            if v < lim:
                moved = True
                v += 1
                clocks[p] = v
                if v >= watch[p]:
                    events(p, v)
        if not moved:
            # forced progress: the first process at the minimum clock
            p = clocks.index(lo)
            v = clocks[p] = lo + 1
            if v >= watch[p]:
                events(p, v)
    return clocks


_DRIVERS = {"table": _run_table, "kernel": _run_kernel, "loop": _run_loop}


def generate(config: SimConfig) -> Trace:
    """Generate a complete trace; a pure function of ``config``.

    Equal configs give equal traces.  The schedule is drawn from its
    own stream, one row of ``n`` advance coins per step and
    ``_SCHED_BLOCK`` rows per draw, so it depends only on (seed, n,
    epsilon_app, horizon).  :func:`_event_state` owns the events and
    the trace; the schedule runs on the driver :func:`_schedule_path`
    picks, which sees only the event body and the watch ticks.
    """
    events, watch, finish = _event_state(config)
    # as Python ints: a numpy integer would overflow the table-size test
    eps, horizon = int(config.epsilon_app), int(config.horizon)
    run = _DRIVERS[_schedule_path(len(watch), eps, horizon)]
    return finish(run(events, watch, eps, horizon, _stream(config.seed, _S_SCHED)))


# ---------------------------------------------------------------------------
# line-record export
# ---------------------------------------------------------------------------


def _fmt(stamp: tuple[int, ...]) -> str:
    return ",".join(map(str, stamp))


def trace_records(trace: Trace) -> Iterator[str]:
    """Flat key-value line records: intervals (by process), then messages
    (in send order).  Stamps are those of the opening/send event."""
    for ivs in trace.intervals:
        for iv in ivs:
            yield (
                f"kind=interval proc={iv.proc} start={iv.start} end={iv.end} "
                f"vc={_fmt(iv.vc_start)} hlc={_fmt(iv.hlc_start)}"
            )
    for m in trace.messages:
        yield (
            f"kind=message sender={m.sender} send_pt={m.send_pt} "
            f"receiver={m.receiver} receive_pt={m.receive_pt} "
            f"vc={_fmt(m.vc_send)} hlc={_fmt(m.hlc_send)}"
        )

