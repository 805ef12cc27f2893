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
the process's vector clock and hybrid logical clock.  The trace records
the stamps of starts and sends; a receive shows in the receiver's later
stamps.

Work is paid per message event, not per advance: an advance below the
process's watch tick only moves the clock, and the scheduler coins come
in blocks of steps, one ``(steps, n)`` draw giving the same values as
one draw per step.  The watch is the smaller of two heads: the
process's next send tick and its inbox head.  Interval starts and ends
run no code of their own.  Between two message events a process's
stamps move by the local-event rules alone, which have a closed form,
so its starts are stamped at its next send or receive (and the rest
when the run ends).  Point predicates are placed straight from their
per-tick decisions.  Events never change a clock, so the schedule is
kept apart from them: :func:`_event_state` owns the plans, inboxes,
stamps and the trace, and one of three drivers calls its event body;
:func:`_schedule_path` holds the rule that picks one.

Where ``delta >= max(epsilon_app, 1)`` no schedule reaches the trace.
Take the step in which p sends at tick v: the minimum clock before it
is at most ``v - 1``, a coin move stays at or below the minimum plus
``epsilon_app`` and a forced move lifts a minimum clock by one, so after
the step every clock is at most ``v - 1 + max(epsilon_app, 1) < v +
delta``.  So every message is received at exactly ``send_pt + delta``,
and every stamp is a function of the placement, the send plan and
``delta``; the schedule only orders the events of different processes,
which no stamp reads.  There the schedule-free driver runs the events
in (tick, process) order and draws no coin, and the trace lists its
messages in ``(send_pt, sender)`` order.  Elsewhere the reflection
kernel or the step loop runs the schedule, both giving the same steps;
only the step loop meets the horizon, the kernel runs the coin blocks
clear of it and hands it the rest of the run.

Randomness is split into independent per-process streams keyed by
purpose, and every decision is indexed by clock value rather than by
scheduler step.  Predicate placement therefore depends only on
(seed, beta, interval, correlation), never on scheduling, and adding
processes does not perturb the streams of existing ones.

CPython's cyclic garbage collector untracks only exact tuples, so every
``PredicateInterval``, ``MessageRecord`` and cut tuple stays tracked, and
each automatic collection walks the whole trace again.  The experiment
paths create no reference cycles: what they allocate is freed by
reference counting alone.  So :func:`generate`, the three monitors'
``detect_*`` and the experiment entries in :mod:`psml.metrics` run with
the collector paused (:func:`_collector_paused`).  The pause is safe
only under that precondition, which the tests check by running every
paused path with the collector off and asserting that a collection
afterwards finds nothing.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, TypeVar

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


_F = TypeVar("_F", bound=Callable)


def _collector_paused(fn: _F) -> _F:
    """Run ``fn`` with the cyclic garbage collector off, restoring it
    afterwards, also when ``fn`` raises.  A collector that is already
    off is left alone, so nested paused calls and callers that turned
    it off keep their state.  Only for paths that create no reference
    cycles (see the module docstring)."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
    bit-identical traces.  An invalid field raises ``ValueError`` where
    the config is built, so every config in hand is valid."""

    n: int
    epsilon_app: int
    delta: int = 100
    alpha: float = 0.01
    beta: float = 0.01
    interval: IntervalSpec = FixedLength(1)
    horizon: int = 100_000
    correlation: CorrelationSpec = Independent()
    seed: int = 0

    def __post_init__(self) -> None:
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
    """One maximal span [start, end] of local-predicate truth on
    process ``proc``; point predicates have end == start.

    ``vc_start``/``hlc_start`` stamp the truthification event; the
    monitors read ``vc_start``, and ``hlc_start`` is kept for the export
    and the scalar-clock proof.  Ends are not events and carry no stamp.
    """

    proc: int
    start: int
    end: int
    vc_start: VC
    hlc_start: HLC


class MessageRecord(NamedTuple):
    """A delivered message: its endpoints' processes and ticks, and the
    stamps of its send event.  The receive merges them into the
    receiver's clocks, so it shows in the receiver's later stamps."""

    sender: int
    send_pt: int
    receiver: int
    receive_pt: int
    vc_send: VC
    hlc_send: HLC


@dataclass(frozen=True, slots=True)
class Trace:
    """A complete generated execution.

    ``intervals[p]`` lists process p's predicate intervals in time
    order; ``messages`` lists delivered messages in send order, which is
    ``(send_pt, sender)`` order where ``delta >= max(epsilon_app, 1)``
    and scheduler-step order elsewhere; ``final_clocks`` holds every
    process's clock when the run ends.
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


def truthify(decisions: np.ndarray, lengths: Iterator[int], horizon: int) -> np.ndarray:
    """Turn per-tick truth decisions into disjoint intervals, a ``(k, 2)``
    int64 array of ``[start, end]`` rows in time order.

    A decision at tick v opens an interval [v, v + k - 1] with k drawn
    from ``lengths``; decisions falling inside an open interval are
    ignored (no re-truthification), and eligibility resumes the tick
    after the interval closes.  Ends are clamped to the horizon.
    """
    out: list[int] = []
    next_free = 1
    for v in np.flatnonzero(decisions).tolist():
        if v < next_free:
            continue
        end = min(v + next(lengths) - 1, horizon)
        out += (v, end)
        next_free = end + 1
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _point_intervals(decisions: np.ndarray) -> np.ndarray:
    """``truthify(decisions, itertools.repeat(1), horizon)`` for point
    predicates: every true decision after tick 0 is its own interval,
    so no decision is swallowed and none needs clamping."""
    return np.repeat(np.flatnonzero(decisions[1:]) + 1, 2).reshape(-1, 2)


def predicate_intervals(config: SimConfig) -> list[np.ndarray]:
    """Interval placement for every process, independent of scheduling:
    one ``(k, 2)`` int64 array of ``[start, end]`` rows per process.

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
    n, horizon, seed = config.n, config.horizon, config.seed
    match config.correlation:
        case PMA(group1=lead, p_dep=p_dep):
            group = lead
        case HNMA():
            lead = group = n // 2
            p_dep = 0.5
        case PMAJ():
            lead, group, p_dep = 1, n - 1, 0.5
        case _:  # Independent; a SimConfig holds no other spec
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
        spans = _point_intervals(dec) if point else truthify(dec, _length_iter(config, p), horizon)
        intervals.append(spans)
        if p < group:  # the intervals are disjoint: +1 at each start, -1 past each end
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
# A driver runs the events to the horizon and returns the final clocks.  It
# sees only the watch ticks and events(p, v), which it calls at each advance
# of p to v >= watch[p] (in (step, process) order on the schedule drivers,
# in (tick, process) order on the free one), and which returns the receiver
# of the send it made, if any.
_Events = Callable[[int, int], int | None]


def _coin_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """The next ``_SCHED_BLOCK`` rows of ``n`` scheduler coins, True for a
    won coin: ``rng.random((_SCHED_BLOCK, n)) < 0.5``, read as the top
    bit of the raw words that ``random`` turns into doubles."""
    return rng.bit_generator.random_raw((_SCHED_BLOCK, n)) < 1 << 63


def _schedule_path(n: int, eps: int, delta: int, horizon: int) -> str:
    """The driver ``generate`` runs the events on.

    * ``"free"``, the schedule-free driver (:func:`_run_free`), when
      ``delta >= max(eps, 1)``: there no schedule reaches the trace (see
      the module docstring), so none is run.
    * ``"kernel"``, the reflection kernel (:func:`_run_kernel`), when
      ``n >= 10``, ``eps >= 10`` and a whole coin block is clear of the
      horizon, ``horizon > eps + _SCHED_BLOCK``.  It restarts its block
      at every forced step, which takes all ``n`` coins lost, so it runs
      where fewer than one is expected per block (``2**n >
      _SCHED_BLOCK``) and where its caps rarely bind: on the schedule
      alone at n in {10, 20, 50}, H=20,000 (2 CPUs) it overtakes the loop
      between eps 6 and 7 at n=10 and below eps 6 at n=20 and 50, and is
      1.8-3.2x faster at eps 10 and 0.05-0.11x at eps 2.
    * ``"loop"``, the step loop (:func:`_run_loop`), for the rest.

    The kernel and the loop give the same steps.
    """
    if delta >= max(eps, 1):
        return "free"
    return "kernel" if eps >= 10 and 1 << n > _SCHED_BLOCK and horizon > eps + _SCHED_BLOCK else "loop"


def _reflected_schedule(n: int, eps: int, horizon: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The scheduler run of ``n`` processes from zero clocks, one coin
    block at a time, as segments of clock rows.

    ``rows[:, 0]`` holds the clocks before the segment and ``rows[:, s]``
    the clocks after its step s, in which every coin winner below the
    drift cap moved, or, at the segment's last step, the first process at
    the minimum clock if no coin winner could (forced progress).  Every
    segment has at least one step.  The run stops before the first block
    that could reach the horizon: ``lo`` rises by at most one a step and
    no clock is more than ``eps`` above it, so a block that starts with
    ``lo + _SCHED_BLOCK + eps < horizon`` never meets it.

    Within a block, step s caps every clock at ``b(s) = lo(s-1) + eps``,
    with ``lo(s-1)`` the minimum clock before the step.
    No clock is above its next cap, so a clock is the capped cumulative
    sum ``C(s) = min(C(s-1) + coin(s), b(s))`` of its coins, in closed
    form ``S + min(c0, cummin(b - S))`` with ``S`` the coin count.  ``b``
    depends on ``C``, so it is iterated from the uncapped clocks; each
    pass fixes at least one more row and the sequence only falls, so it
    stops at the schedule.  A pass recomputes only the processes whose
    clocks pass the new ``b`` somewhere (all of them where most do): a
    clock never above a falling ``b`` keeps its value.  The first row in
    which no clock moves is a forced step: its column is overwritten with
    the forced move, and the block goes on from it, the coin counts
    rebased there.  Clocks are int32 while ``2 * horizon`` fits, so no
    ``lo + eps`` overflows.

    Needs ``eps >= 1``: at eps 0 the iteration does not stop, so it
    raises ``ValueError`` there before any coin is drawn.
    """
    if eps < 1:
        raise ValueError("the reflection kernel needs epsilon_app >= 1")
    dtype = np.promote_types(np.min_scalar_type(-2 * horizon), np.int32)  # holds every lo + eps
    c0 = np.zeros(n, dtype=dtype)
    while c0.min() + _SCHED_BLOCK + eps < horizon:
        ups = np.zeros((n, _SCHED_BLOCK + 1), dtype=dtype)  # coin counts; column 0: no step
        # cast first: a cumsum that casts as it goes took three times as long
        np.cumsum(_coin_rows(rng, n).T.astype(dtype), axis=1, out=ups[:, 1:])
        while ups.shape[1] > 1:
            cap = np.full(ups.shape[1], horizon, dtype=dtype)  # above every clock
            rows = c0[:, None] + ups  # the clocks under that cap
            while (cap[1:] > (lo := rows.min(axis=0))[:-1] + eps).any():
                cap[1:] = lo[:-1] + eps
                hit = np.flatnonzero((rows > cap).any(axis=1))
                hit = slice(None) if 2 * hit.size > n else hit  # most rows: no gather
                rows[hit] = ups[hit] + np.minimum(c0[hit, None], np.minimum.accumulate(cap - ups[hit], axis=1))
            # s: the first forced step, where the clock total does not rise
            total = rows.sum(axis=0)
            stall = np.flatnonzero(total[1:] == total[:-1])
            s = int(stall[0]) + 1 if stall.size else len(lo)
            if s == len(lo):
                yield rows
                c0 = rows[:, -1]
                break
            # the next pass rebuilds rows from ups[:, s:] rebased at the
            # stalled column, so nothing reads it after it holds the forced move
            c0 = rows[:, s - 1].copy()
            c0[c0.argmin()] += 1
            rows[:, s] = c0
            yield rows[:, : s + 1]
            ups = ups[:, s:] - ups[:, s:s + 1]


def _event_state(config: SimConfig) -> tuple[_Events, list[int], Callable[[list[int]], Trace]]:
    """The causal side of :func:`generate`: ``(events, watch, finish)``.

    Placement comes first (:func:`predicate_intervals`).  Each process's
    plan is then its ascending send ticks, closed by a sentinel past the
    horizon, and the start and end columns of its placement.
    ``watch[p]``, the first clock value at which p has a message event,
    is the smaller of its next send tick and the delivery threshold of
    its inbox head.  ``events(p, v)`` runs only at message events: it
    stamps p's interval starts due before the event, takes the due
    messages, then, if v is p's send tick, stamps a start at v and sends,
    and recomputes the watch; a send lowers the receiver's watch to
    ``send_pt + delta``.

    The starts need no event of their own because their stamps have a
    closed form.  Between two message events of p, p's vector stamp
    changes only in its own entry, which is p's event count: no message
    knows more of p than p itself.  After local events at rising ticks
    ``s_1 < ... < s_j`` from ``(l, c)``, p's HLC is ``(s_j, 0)`` if ``s_j
    > l``, else ``(l, c + j)``.  So the starts are stamped, and their
    intervals recorded, at p's next message event, in the body's order
    at one tick (receive, start, send): the starts below v before a
    receive at v, a start at v before a send at v.  ``finish`` stamps
    what remains.

    Each send appends an empty slot to a list indexed by its send seq,
    and the delivery fills it with the message's record, so the
    delivered messages come out in send order with no sort.  A message
    still in flight when its receiver stops is dropped: its slot stays
    empty and is left out of the trace.  ``finish(clocks)`` is the
    trace, given the final clocks.
    """
    placement = predicate_intervals(config)
    n, horizon, delta = map(int, (config.n, config.horizon, config.delta))
    never = horizon + 1  # sentinel tick past every plan

    # p's plan: its ascending send ticks sends[p], their receivers
    # send_to[p] in send order, and its interval starts[p] and ends[p]
    sends: list[memoryview] = []
    send_to: list[list[int]] = []
    starts: list[memoryview] = []
    ends: list[memoryview] = []
    for p, spans in enumerate(placement):
        coins = _stream(config.seed, _S_SEND, p).random(horizon + 1) < config.alpha
        coins[0] = False
        ticks = np.flatnonzero(coins)
        raw = _stream(config.seed, _S_RECV, p).integers(0, n - 1, size=ticks.size)
        send_to.append((raw + (raw >= p)).tolist())  # any process but p
        sends.append(memoryview(np.append(ticks, never)))
        starts.append(memoryview(spans[:, 0]))
        ends.append(memoryview(spans[:, 1]))

    vcs: list[VC] = [(0,) * n] * n
    hlcs: list[HLC] = [(0, 0)] * n
    # in flight: per-receiver heap of (delivery threshold, send seq, sender,
    # send_pt, vc_send, hlc_send)
    pending: list[list[tuple]] = [[] for _ in range(n)]
    iptr = [0] * n  # the next start to stamp
    sptr = [0] * n
    done: list[list[PredicateInterval]] = [[] for _ in range(n)]
    sent: list[MessageRecord | None] = []  # by send seq; None until delivered
    record = tuple.__new__  # a record built without the named tuple's Python __new__

    def settle(p: int, bound: int) -> None:
        """Stamp p's starts below ``bound`` and record their intervals."""
        k, at = iptr[p], starts[p]
        last = len(at)
        if k == last or at[k] >= bound:
            return
        ivs, e, (l, c), to = done[p], list(vcs[p]), hlcs[p], ends[p]
        while k < last and (s := at[k]) < bound:
            e[p] += 1
            vc = tuple(e)
            if s > l:
                l, c = s, 0
            else:
                c += 1
            hlc = (l, c)
            end = to[k]
            if end == s:  # a point interval's record holds one int for both
                end = s
            ivs.append(record(PredicateInterval, (p, s, end, vc, hlc)))
            k += 1
        iptr[p] = k
        vcs[p], hlcs[p] = vc, hlc

    def events(p: int, v: int) -> int | None:
        settle(p, v)
        inbox = pending[p]
        while inbox and inbox[0][0] <= v:
            _, mseq, sender, send_pt, vc_s, hlc_s = heapq.heappop(inbox)
            vcs[p] = vc_merge(vcs[p], vc_s, p)
            hlcs[p] = hlc_merge(hlcs[p], hlc_s, v)
            sent[mseq] = record(MessageRecord, (sender, send_pt, p, v, vc_s, hlc_s))

        q = None
        k = sptr[p]
        w = sends[p][k]
        if w == v:
            settle(p, v + 1)
            vcs[p] = vc_tick(vcs[p], p)
            hlcs[p] = hlc_tick(hlcs[p], v)
            q = send_to[p][k]
            heapq.heappush(pending[q], (v + delta, len(sent), p, v, vcs[p], hlcs[p]))
            sent.append(None)
            # a receiver already past the threshold takes the message on
            # its next advance, which with delta = 0 may come later in
            # this step
            if v + delta < watch[q]:
                watch[q] = v + delta
            sptr[p] = k = k + 1
            w = sends[p][k]
        if inbox and inbox[0][0] < w:
            w = inbox[0][0]
        watch[p] = w
        return q

    def finish(clocks: list[int]) -> Trace:
        for p in range(n):  # every interval ends by the horizon
            settle(p, never)
        messages = tuple(m for m in sent if m is not None)
        return Trace(config, tuple(tuple(ivs) for ivs in done), messages, tuple(clocks))

    watch = [at[0] for at in sends]
    return events, watch, finish


def _run_kernel(events: _Events, watch: list[int], eps: int, horizon: int, rng: np.random.Generator) -> list[int]:
    """The reflection-kernel driver (:func:`_reflected_schedule`), for
    ``eps >= 1``.  It runs the coin blocks clear of the horizon, and
    :func:`_run_loop` the rest of the run from the last segment's clocks.

    p's k-th advance in a segment of ``steps`` steps is ``flat[offs[p] +
    k - 1]``, as ``p * steps`` plus its step, and takes p's clock to
    ``c0[p] + k = index - base[p]``.  An event runs at the advance that
    reaches the watch, in (step, process) order, from a heap of ``(step,
    p, index)`` whose live entry for p is ``at[p]``: the top entry is
    read, and replaced by p's next one after its event (or dropped if
    stale).  A forced step is a segment's last step, so it runs here too.
    """
    seg = np.zeros((len(watch), 1), dtype=np.int64)  # zero clocks, if no block runs
    for seg in _reflected_schedule(len(watch), eps, horizon, rng):
        steps = seg.shape[1] - 1
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
    return _run_loop(events, watch, eps, horizon, rng, seg[:, -1].tolist())


def _run_loop(events: _Events, watch: list[int], eps: int, horizon: int, rng: np.random.Generator,
              clocks: list[int] | None = None) -> list[int]:
    """The per-process step loop, from ``clocks`` (zeros if None) to the
    horizon: the one driver that meets it."""
    n = len(watch)
    clocks = [0] * n if clocks is None else clocks
    r, rows, procs = 0, (), range(n)
    while (lo := min(clocks)) < horizon:
        if r == len(rows):
            # at eps 0 every step is forced, so no coin is ever read
            rows = [()] * _SCHED_BLOCK if eps == 0 else _coin_rows(rng, n).tolist()
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


def _run_free(events: _Events, watch: list[int], eps: int, horizon: int, rng: np.random.Generator) -> list[int]:
    """The schedule-free driver, where ``delta >= max(eps, 1)``: each
    message is received at exactly ``send_pt + delta`` whatever the
    schedule (module docstring), so it runs the events in (tick,
    process) order, from a heap of ``(watch[p], p)`` whose stale entries
    are dropped, and reads neither ``eps`` nor ``rng``.  Every clock ends
    at the horizon."""
    due = [(w, p) for p, w in enumerate(watch)]
    heapq.heapify(due)
    while due[0][0] <= horizon:
        v, p = due[0]
        if watch[p] != v:
            heapq.heappop(due)
            continue
        q = events(p, v)
        heapq.heapreplace(due, (watch[p], p))
        if q is not None:  # the send set q's watch to v + delta
            heapq.heappush(due, (watch[q], q))
    return [horizon] * len(watch)


_DRIVERS = {"free": _run_free, "kernel": _run_kernel, "loop": _run_loop}


@_collector_paused
def generate(config: SimConfig) -> Trace:
    """Generate a complete trace; a pure function of ``config``.

    Equal configs give equal traces.  The schedule, where one runs, is
    drawn from its own stream, one row of ``n`` advance coins per step and
    ``_SCHED_BLOCK`` rows per draw, so it depends only on (seed, n,
    epsilon_app, horizon).  :func:`_event_state` owns the events and
    the trace; they run on the driver :func:`_schedule_path` picks,
    which sees only the event body and the watch ticks.
    """
    events, watch, finish = _event_state(config)
    # as Python ints: the drivers' final clocks become the trace's, and the
    # free driver's are the horizon itself
    eps, horizon = int(config.epsilon_app), int(config.horizon)
    run = _DRIVERS[_schedule_path(len(watch), eps, config.delta, horizon)]
    return finish(run(events, watch, eps, horizon, _stream(config.seed, _S_SCHED)))


# ---------------------------------------------------------------------------
# line-record export
# ---------------------------------------------------------------------------


def _fmt(stamp: tuple[int, ...]) -> str:
    return ",".join(map(str, stamp))


def trace_records(trace: Trace) -> Iterator[str]:
    """Flat key-value line records: intervals (by process), then messages
    (in send order: ``(send_pt, sender)`` where ``delta >=
    max(epsilon_app, 1)``, scheduler-step order elsewhere).  A line holds
    every field of its record, so the records can be read back from it:
    ``vc`` and ``hlc`` are the interval's start stamps or the message's
    send stamps."""
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

