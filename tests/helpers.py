"""Shared reference implementations and fixtures for the test suite.

The detection reference here deliberately avoids every shortcut the
production monitor takes: it compares full vector clocks instead of
owner components, keeps no incremental work queue, and re-scans all
head pairs from scratch after any advance.  Slow and obviously
correct.  ``stepwise_detect`` sits between the two: the production
engine as it was before it skipped the prune test on merge steps that
learned nothing, for mid-size traces the full reference cannot reach.
The generator reference likewise runs the full event body
on every process advance, draws the scheduler coins one step at a
time and stamps receives with its own copy of the merge rule.
"""

from __future__ import annotations

import heapq
import itertools
import os
import subprocess
import sys
from enum import Enum
from operator import ge, itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
from hypothesis import strategies as st

import psml
from psml import simkernel
from psml.clocks import HLC, VC, hlc_merge, hlc_tick, vc_tick
from psml.monitors import cut_length
from psml.simkernel import (
    HNMA,
    PMA,
    PMAJ,
    FixedLength,
    GeometricLength,
    Independent,
    MessageRecord,
    PredicateInterval,
    SimConfig,
    Trace,
)


# ---------------------------------------------------------------------------
# reference detection
# ---------------------------------------------------------------------------


def trace_queues(
    trace: Trace, procs: Sequence[int] | None = None
) -> list[list[PredicateInterval]]:
    """Candidate queues read directly from the trace records."""
    chosen = list(procs) if procs is not None else list(range(trace.config.n))
    return [list(trace.intervals[p]) for p in chosen]


class Ordering(Enum):
    """Outcome of comparing two vector clock stamps."""

    BEFORE = "before"
    AFTER = "after"
    CONCURRENT = "concurrent"
    EQUAL = "equal"


def compare(a: VC, b: VC) -> Ordering:
    """Classify stamp ``a`` against ``b`` by full componentwise
    comparison: BEFORE / AFTER for strict causal order, EQUAL for
    identical entries, CONCURRENT when each side knows something the
    other does not."""
    if len(a) != len(b):
        raise ValueError("vector clock dimension mismatch")
    le = ge = True
    for x, y in zip(a, b):
        if x < y:
            ge = False
        elif x > y:
            le = False
    if le and ge:
        return Ordering.EQUAL
    if le:
        return Ordering.BEFORE
    if ge:
        return Ordering.AFTER
    return Ordering.CONCURRENT


def past_warmup(cut: Sequence[PredicateInterval], warmup: int) -> bool:
    """The per-cut warmup rule: the cut's earliest candidate starts at
    or after ``warmup``."""
    return min(c.start for c in cut) >= warmup


def _disjoint(a: PredicateInterval, b: PredicateInterval) -> bool:
    return a.end < b.start or b.end < a.start


def brute_detect(
    queues: list[list[PredicateInterval]],
    accept: Callable[[Sequence[PredicateInterval]], bool],
) -> list[tuple[PredicateInterval, ...]]:
    """Naive queue-based enumeration with full vector-clock compares.

    Repeatedly: discard any head that happened before another head
    (full componentwise comparison); once heads are pairwise
    concurrent, record the cut if accepted and not a slide of the
    previously counted cut; then advance the earliest-ending head,
    ties to the lowest process index.  The production engine drops the
    slide rule, which can never fire; keeping it here lets the
    engine-equals-reference tests prove that.
    """
    if any(not q for q in queues):
        return []
    m = len(queues)
    heads = [0] * m
    out: list[tuple[PredicateInterval, ...]] = []
    last: tuple[PredicateInterval, ...] | None = None
    while True:
        # settle: throw away heads ordered before some other head
        changed = True
        while changed:
            changed = False
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    rel = compare(queues[i][heads[i]].vc_start, queues[j][heads[j]].vc_start)
                    if rel is Ordering.BEFORE:
                        heads[i] += 1
                        if heads[i] >= len(queues[i]):
                            return out
                        changed = True
                        break
                if changed:
                    break
        cands = tuple(queues[i][heads[i]] for i in range(m))
        if accept(cands):
            if last is None or any(_disjoint(a, b) for a, b in zip(cands, last)):
                out.append(cands)
                last = cands
        k = min(range(m), key=lambda i: cands[i].end)
        heads[k] += 1
        if heads[k] >= len(queues[k]):
            return out


def stepwise_detect(
    queues: list[list[PredicateInterval]],
) -> Iterator[tuple[PredicateInterval, ...]]:
    """The production engine without its learned-nothing shortcut: after
    every yielded cut the moved head re-enters the prune loop.  Same
    owner-count tests as ``monitors._detect``, so it reaches traces far
    beyond ``brute_detect``'s; the fast path must yield its cuts, in
    its order."""
    if any(not q for q in queues):
        return
    m = len(queues)
    pos = [0] * m
    heads = [q[0] for q in queues]
    procs = [c.proc for c in heads]
    ends = [c.end for c in heads]
    stamps = [c.vc_start for c in heads]
    owns = [s[p] for s, p in zip(stamps, procs)]

    def advance(i: int) -> bool:
        """Move head ``i`` on; False once its queue is exhausted."""
        pos[i] += 1
        if pos[i] == len(queues[i]):
            return False
        c = heads[i] = queues[i][pos[i]]
        ends[i] = c.end
        s = stamps[i] = c.vc_start
        owns[i] = s[procs[i]]
        return True

    # each head meets its own owner count, so a count above 1 below means
    # another head is involved; the counts run in C and most checks end
    # there.  Head j's owner count is read against stamp entry procs[j].
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
        # advance the earliest-ending head; ties fall to the lowest index
        k = ends.index(min(ends))
        if not advance(k):
            return
        todo.append(k)


def brute_async(
    trace: Trace, procs: Sequence[int] | None = None
) -> list[tuple[PredicateInterval, ...]]:
    return brute_detect(trace_queues(trace, procs), lambda cands: True)


def brute_partialsync(
    trace: Trace, eps_mon: float, procs: Sequence[int] | None = None
) -> list[tuple[PredicateInterval, ...]]:
    def accept(cands: Sequence[PredicateInterval]) -> bool:
        return max(c.start for c in cands) - min(c.end for c in cands) <= eps_mon

    return brute_detect(trace_queues(trace, procs), accept)


def shares_tick(cands: Sequence[PredicateInterval]) -> bool:
    """The quasi-synchronous rule on scalar hybrid clocks alone: some
    logical value falls in every candidate's window [l, l + (end -
    start)], l being ``hlc_start[0]``: max of lows <= min of highs."""
    lo = max(c.hlc_start[0] for c in cands)
    hi = min(c.hlc_start[0] + (c.end - c.start) for c in cands)
    return lo <= hi


def brute_quasi(
    trace: Trace, procs: Sequence[int] | None = None
) -> list[tuple[PredicateInterval, ...]]:
    return brute_detect(trace_queues(trace, procs), shares_tick)


def reference_counted_lengths(trace: Trace, warmup: int) -> list[int]:
    """The experiments' count rule by the slow path: the sorted
    ``cut_length`` of every reference cut past the warmup."""
    return sorted(cut_length(c) for c in brute_async(trace) if past_warmup(c, warmup))


# ---------------------------------------------------------------------------
# reference schedule and generator
# ---------------------------------------------------------------------------


def reference_vc_merge(vc: VC, msg: VC, owner: int) -> VC:
    """The receive stamp by the plain rule: the componentwise max of
    the two stamps, then a tick of the owner entry."""
    assert len(vc) == len(msg)
    return vc_tick(tuple(map(max, vc, msg)), owner)


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
        advancing = reference_step_schedule(clocks, config.epsilon_app, config.horizon, rng)
        steps.append((tuple(clocks), tuple(advancing)))
        for p in advancing:
            clocks[p] += 1
    return steps, tuple(clocks)


def reference_step_schedule(
    clocks: list[int],
    epsilon_app: int,
    horizon: int,
    rng: np.random.Generator,
) -> list[int]:
    """One scheduler step: the (ascending) list of advancing processes.

    Each unfinished process is selected with probability one half
    unless blocked at the drift cap (clock equal to min + epsilon_app).
    An empty selection falls back to the minimum-clock unfinished
    process so the run always makes progress.
    With epsilon_app == 0 every step advances all unfinished processes
    (lockstep is the only schedule that keeps spread at zero).

    Always consumes exactly one uniform draw per process.
    """
    coins = rng.random(len(clocks))
    live = [p for p, c in enumerate(clocks) if c < horizon]
    if epsilon_app == 0:
        return live
    cap = min(clocks) + epsilon_app
    picked = [p for p in live if clocks[p] < cap and coins[p] < 0.5]
    if picked:
        return picked
    lo = min(clocks[p] for p in live)
    return [next(p for p in live if clocks[p] == lo)]


def pairs(spans: np.ndarray) -> list[tuple[int, int]]:
    """A placement's ``[start, end]`` rows as ``(start, end)`` tuples."""
    return [(a, b) for a, b in spans.tolist()]


def reference_predicate_intervals(config: SimConfig) -> list[np.ndarray]:
    """The placement ``simkernel.predicate_intervals`` must equal.

    From the same streams, but by the models' plain rule: a follower's
    dependence coin makes it read, tick by tick, how many processes of
    its group have that tick inside one of their intervals, and take
    the strict majority (HNMA: the strict minority).  Every length, 1
    included, goes through ``truthify``.
    """
    n, horizon, seed = config.n, config.horizon, config.seed
    corr = config.correlation
    # (first follower, its group as a function of p, p_dep)
    if isinstance(corr, PMA):
        lead, group, p_dep = corr.group1, lambda p: corr.group1, corr.p_dep
    elif isinstance(corr, HNMA):
        lead, group, p_dep = n // 2, lambda p: n // 2, 0.5
    elif isinstance(corr, PMAJ):
        lead, group, p_dep = 1, lambda p: p, 0.5
    else:
        lead, group, p_dep = n, None, 0.0
    covered: list[set[int]] = []  # per process, every tick inside an interval
    plans = []
    for p in range(n):
        dec = simkernel._stream(seed, simkernel._S_PRED, p).random(horizon + 1) < config.beta
        if p >= lead:
            dep = simkernel._stream(seed, simkernel._S_DEP, p).random(horizon + 1) < p_dep
            size = group(p)
            for v in range(horizon + 1):
                if dep[v]:
                    count = sum(v in ticks for ticks in covered[:size])
                    dec[v] = 2 * count < size if isinstance(corr, HNMA) else 2 * count > size
        plans.append(simkernel.truthify(dec, simkernel._length_iter(config, p), horizon))
        covered.append({v for a, b in pairs(plans[p]) for v in range(a, b + 1)})
    return plans


def reference_send_plan(config: SimConfig) -> tuple[list[list[int]], list[list[int]]]:
    """Every process's send ticks and their receivers, in send order,
    straight from the send and receiver streams."""
    n, horizon = config.n, config.horizon
    send_ticks: list[list[int]] = []
    send_to: list[list[int]] = []
    stream = simkernel._stream
    for p in range(n):
        coins = stream(config.seed, simkernel._S_SEND, p).random(horizon + 1) < config.alpha
        coins[0] = False
        ticks = np.flatnonzero(coins)
        raw = stream(config.seed, simkernel._S_RECV, p).integers(0, n - 1, size=ticks.size)
        send_ticks.append([int(t) for t in ticks])
        send_to.append([int(r) + 1 if r >= p else int(r) for r in raw])
    return send_ticks, send_to


def reference_generate(config: SimConfig) -> Trace:
    """The per-advance generator ``simkernel.generate`` must equal.

    Every process advance runs the whole event body (receive, start,
    send), and every step draws its coins with one
    ``rng.random(n)`` call through :func:`reference_step_schedule`.
    """
    n, horizon, delta = config.n, config.horizon, config.delta

    plans = simkernel.predicate_intervals(config)
    send_ticks, send_to = reference_send_plan(config)
    sched_rng = simkernel._stream(config.seed, simkernel._S_SCHED)

    clocks = [0] * n
    vcs: list[VC] = [(0,) * n] * n
    hlcs: list[HLC] = [(0, 0)] * n
    # in flight: per-receiver heap of (delivery threshold, send seq, sender,
    # send_pt, vc_send, hlc_send)
    pending: list[list[tuple[int, int, int, int, VC, HLC]]] = [[] for _ in range(n)]
    iptr = [0] * n
    sptr = [0] * n
    done: list[list[PredicateInterval]] = [[] for _ in range(n)]
    delivered: list[tuple[int, MessageRecord]] = []
    seq = 0

    while min(clocks) < horizon:
        advancing = reference_step_schedule(clocks, config.epsilon_app, horizon, sched_rng)
        for p in advancing:
            v = clocks[p] + 1
            clocks[p] = v

            inbox = pending[p]
            while inbox and inbox[0][0] <= v:
                _, mseq, sender, send_pt, vc_s, hlc_s = heapq.heappop(inbox)
                vcs[p] = reference_vc_merge(vcs[p], vc_s, p)
                hlcs[p] = hlc_merge(hlcs[p], hlc_s, v)
                delivered.append((mseq, MessageRecord(sender, send_pt, p, v, vc_s, hlc_s)))

            plan = plans[p]
            k = iptr[p]
            if k < len(plan) and plan[k][0] == v:
                iptr[p] = k + 1
                vcs[p] = vc_tick(vcs[p], p)
                hlcs[p] = hlc_tick(hlcs[p], v)
                done[p].append(PredicateInterval(p, plan[k][0], plan[k][1], vcs[p], hlcs[p]))

            sp = sptr[p]
            if sp < len(send_ticks[p]) and send_ticks[p][sp] == v:
                sptr[p] = sp + 1
                vcs[p] = vc_tick(vcs[p], p)
                hlcs[p] = hlc_tick(hlcs[p], v)
                heapq.heappush(pending[send_to[p][sp]], (v + delta, seq, p, v, vcs[p], hlcs[p]))
                seq += 1

    delivered.sort(key=lambda t: t[0])
    return Trace(
        config=config,
        intervals=tuple(tuple(ivs) for ivs in done),
        messages=tuple(m for _, m in delivered),
        final_clocks=tuple(clocks),
    )


# ---------------------------------------------------------------------------
# randomized small configurations
# ---------------------------------------------------------------------------

# the edge configurations every optimised path is checked over: lockstep
# (eps_app=0), same-step delivery (delta=0), a message on every tick
# (alpha=1), n=2, horizon=1, every interval spec and every correlation
# model
EDGE_CONFIGS = st.builds(
    SimConfig,
    n=st.integers(2, 5),
    epsilon_app=st.sampled_from([0, 1, 2, 5, 20]),
    delta=st.sampled_from([0, 1, 3, 10]),
    alpha=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    beta=st.sampled_from([0.05, 0.3, 1.0]),
    interval=st.one_of(
        st.just(FixedLength(1)),
        st.builds(FixedLength, st.integers(1, 6)),
        st.builds(GeometricLength, st.sampled_from([0.2, 0.6, 1.0])),
    ),
    horizon=st.sampled_from([1, 2, 17, 90]),
    correlation=st.one_of(
        st.just(Independent()),
        st.just(HNMA()),
        st.just(PMAJ()),
        st.builds(PMA, st.just(1), st.sampled_from([0.0, 0.5, 1.0])),
    ),
    seed=st.integers(0, 1_000),
)


def random_small_config(index: int) -> SimConfig:
    """A deterministic pseudo-random small-trace configuration."""
    rng = np.random.default_rng(10_000 + index)
    interval_choices = [
        FixedLength(1),
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
        rng = np.random.default_rng(seed)
        self.n = n
        self.vcs: list[VC] = []
        self.hlcs: list[HLC] = []
        self.pts: list[int] = []
        self.procs: list[int] = []
        edges: list[tuple[int, int]] = []

        cur_vc: list[VC] = [(0,) * n] * n
        cur_hlc: list[HLC] = [(0, 0)] * n
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
                cur_vc[p] = reference_vc_merge(cur_vc[p], self.vcs[e_src], p)
                cur_hlc[p] = hlc_merge(cur_hlc[p], self.hlcs[e_src], clock[p])
                extra = [e_src]
            else:
                cur_vc[p] = vc_tick(cur_vc[p], p)
                cur_hlc[p] = hlc_tick(cur_hlc[p], clock[p])
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
    # the child imports the psml this process imported, from a checkout too
    src = str(Path(psml.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
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
