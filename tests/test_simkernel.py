"""Trace generator: determinism, synchrony invariants, and the
schedule-independence of predicate placement."""

import dataclasses
import hashlib
import inspect
import itertools
import sys
import tracemalloc
import types
from bisect import bisect_left
from typing import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psml import simkernel
from psml.metrics import PRESETS
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
    generate,
    predicate_intervals,
    trace_records,
    truthify,
)

from helpers import (
    EDGE_CONFIGS,
    pairs,
    reference_generate,
    reference_predicate_intervals,
    reference_send_plan,
    reference_step_schedule,
    replay_schedule,
)


BASE = SimConfig(n=4, epsilon_app=5, delta=8, alpha=0.1, beta=0.1, horizon=300, seed=1)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1},
        {"epsilon_app": -1},
        {"delta": -2},
        {"alpha": 1.5},
        {"beta": 0.0},
        {"horizon": 0},
        {"seed": -1},
        {"epsilon_app": 2.5},
        {"interval": FixedLength(0)},
        {"interval": GeometricLength(0.0)},
        {"correlation": PMA(group1=4)},
        {"correlation": PMA(group1=2, p_dep=1.2)},
        {"interval": "point"},
        {"correlation": "pma"},
        # counts must be integers, numpy integers included
        {"n": 4.0},
        {"delta": 2.5},
        {"horizon": 50.5},
        {"seed": 1.5},
        {"interval": FixedLength(2.5)},
        {"correlation": PMA(group1=1.5)},
    ],
)
def test_validate_rejects(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**{"n": 4, "epsilon_app": 5, **kwargs})


def test_numpy_integer_counts_are_accepted():
    """A config of numpy integers generates the trace of the same config
    in Python ints, on every path, and its final clocks are Python ints
    (``==`` alone would not tell: ``np.int64(300) == 300``)."""
    for n, eps, delta, horizon, path in ((3, 10, 4, 300, "loop"), (5, 10, 4, 300, "loop"),
                                         (20, 50, 4, 300, "loop"), (20, 50, 4, 700, "kernel"),
                                         (3, 10, 100, 300, "free")):
        assert simkernel._schedule_path(n, eps, delta, horizon) == path
        plain = SimConfig(n=n, epsilon_app=eps, delta=delta, alpha=0.1, beta=0.1,
                          interval=FixedLength(2), horizon=horizon, correlation=PMA(1), seed=3)
        wide = SimConfig(n=np.int64(n), epsilon_app=np.int64(eps), delta=np.int64(delta), alpha=0.1,
                         beta=0.1, interval=FixedLength(np.int64(2)), horizon=np.int64(horizon),
                         correlation=PMA(np.int64(1)), seed=np.int64(3))
        trace = generate(wide)
        assert trace == generate(plain)
        assert all(type(c) is int for c in trace.final_clocks), (path, trace.final_clocks)


# ---------------------------------------------------------------------------
# truthification
# ---------------------------------------------------------------------------


def test_truthify_blocks_decisions_inside_open_intervals():
    decisions = np.zeros(13, dtype=bool)
    decisions[[2, 5, 6, 9]] = True
    out = pairs(truthify(decisions, itertools.repeat(3), horizon=12))
    # the decision at 6 falls inside [5, 7] and must be swallowed
    assert out == [(2, 4), (5, 7), (9, 11)]


def test_truthify_clamps_to_horizon():
    decisions = np.zeros(11, dtype=bool)
    decisions[9] = True
    assert pairs(truthify(decisions, itertools.repeat(5), horizon=10)) == [(9, 10)]


def test_truthify_back_to_back_intervals_stay_disjoint():
    decisions = np.ones(8, dtype=bool)
    out = pairs(truthify(decisions, itertools.repeat(2), horizon=7))
    assert out == [(1, 2), (3, 4), (5, 6), (7, 7)]
    for (a, b), (c, d) in zip(out, out[1:]):
        assert c > b


def _decision_cases() -> list[np.ndarray]:
    """Decision arrays over ticks 0..horizon: the edge cases, then random
    ones at low, middling and high rates."""
    cases = [np.ones(40, dtype=bool), np.zeros(40, dtype=bool)]
    for ticks in ([0], [39], [0, 39], [0, 1, 38, 39]):
        dec = np.zeros(40, dtype=bool)
        dec[ticks] = True
        cases.append(dec)
    # horizon 1: ticks 0 and 1
    cases += [np.array(bits, dtype=bool) for bits in itertools.product((False, True), repeat=2)]
    rng = np.random.default_rng(21)
    for size, rate in itertools.product((2, 3, 17, 1_000), (0.01, 0.3, 0.9)):
        cases.append(rng.random(size) < rate)
    return cases


def test_point_placement_equals_truthify():
    """Point predicates are placed from their decisions without walking
    them; ``truthify`` at length 1 is the reference rule."""
    for dec in _decision_cases():
        got = simkernel._point_intervals(dec)
        assert pairs(got) == pairs(truthify(dec, itertools.repeat(1), len(dec) - 1)), dec
        assert got.dtype == np.int64 and got.shape == (len(got), 2)


def test_records_are_immutable_hashable_field_ordered_tuples():
    """The record contract: fields in a fixed order, no assignment, and
    usable as set and dict keys, with equal records hashing equal."""
    assert PredicateInterval._fields == ("proc", "start", "end", "vc_start", "hlc_start")
    assert MessageRecord._fields == ("sender", "send_pt", "receiver", "receive_pt", "vc_send", "hlc_send")
    trace = generate(BASE)
    records = [iv for ivs in trace.intervals for iv in ivs] + list(trace.messages)
    assert trace.messages and len(records) > len(trace.messages)
    for rec in (trace.intervals[0][0], trace.messages[0]):
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, 0)
        assert rec._replace() == rec and hash(rec._replace()) == hash(rec)
        assert tuple(rec._asdict().values()) == tuple(rec)
    assert len(set(records)) == len(records)
    index = {rec: k for k, rec in enumerate(records)}
    assert all(index[rec] == k for k, rec in enumerate(records))


def _point_decisions(cfg: SimConfig) -> np.ndarray:
    """Per-tick truth decisions, read off the interval starts: under
    point lengths every decision opens its own interval."""
    assert cfg.interval == FixedLength(1)
    dec = np.zeros((cfg.n, cfg.horizon + 1), dtype=bool)
    for p, plan in enumerate(predicate_intervals(cfg)):
        dec[p, [a for a, _ in plan]] = True
    return dec


def test_predicate_rate_matches_beta():
    cfg = SimConfig(n=2, epsilon_app=5, beta=0.2, horizon=20_000, seed=3)
    dec = _point_decisions(cfg)
    # per-tick coins: binomial check at 4 standard errors
    rate = dec[:, 1:].mean()
    se = (0.2 * 0.8 / dec[:, 1:].size) ** 0.5
    assert abs(rate - 0.2) < 4 * se


def test_fixed_interval_lengths():
    cfg = SimConfig(
        n=2, epsilon_app=5, beta=0.05, interval=FixedLength(7), horizon=5000, seed=2
    )
    plans = predicate_intervals(cfg)
    lengths = [b - a + 1 for plan in plans for a, b in plan if b < cfg.horizon]
    assert lengths and set(lengths) == {7}


def test_geometric_interval_mean_length():
    cfg = SimConfig(
        n=2,
        epsilon_app=5,
        beta=0.02,
        interval=GeometricLength(0.25),
        horizon=200_000,
        seed=4,
    )
    plans = predicate_intervals(cfg)
    lengths = [b - a + 1 for plan in plans for a, b in plan if b < cfg.horizon]
    mean = sum(lengths) / len(lengths)
    # geometric mean 1/p = 4, sd/mean modest; generous 3-sigma band
    se = (1 - 0.25) ** 0.5 / 0.25 / len(lengths) ** 0.5
    assert abs(mean - 4.0) < 3 * se


# ---------------------------------------------------------------------------
# correlation models
# ---------------------------------------------------------------------------


def test_pma_zero_dependence_is_independent():
    kw = dict(n=6, epsilon_app=5, beta=0.1, horizon=2000, seed=5)
    ind = predicate_intervals(SimConfig(**kw, correlation=Independent()))
    pma = predicate_intervals(SimConfig(**kw, correlation=PMA(group1=3, p_dep=0.0)))
    assert list(map(pairs, ind)) == list(map(pairs, pma))


def test_pma_full_dependence_copies_majority_coverage():
    cfg = SimConfig(
        n=5,
        epsilon_app=5,
        beta=0.2,
        horizon=3000,
        seed=6,
        correlation=PMA(group1=3, p_dep=1.0),
        interval=FixedLength(2),
    )
    plans = predicate_intervals(cfg)
    cov = np.zeros(cfg.horizon + 1, dtype=np.int32)
    for plan in plans[:3]:
        for a, b in plan:
            cov[a : b + 1] += 1
    majority = 2 * cov > 3
    for p in (3, 4):
        assert pairs(plans[p]) == pairs(truthify(majority, itertools.repeat(2), cfg.horizon))


def test_pma_group_untouched_by_followers():
    kw = dict(n=6, epsilon_app=5, beta=0.1, horizon=2000, seed=7)
    ind = predicate_intervals(SimConfig(**kw, correlation=Independent()))
    pma = predicate_intervals(SimConfig(**kw, correlation=PMA(group1=3, p_dep=0.7)))
    assert list(map(pairs, ind[:3])) == list(map(pairs, pma[:3]))


def test_pmaj_leader_matches_independent():
    kw = dict(n=4, epsilon_app=5, beta=0.1, horizon=2000, seed=8)
    ind = predicate_intervals(SimConfig(**kw, correlation=Independent()))
    pmaj = predicate_intervals(SimConfig(**kw, correlation=PMAJ()))
    assert pairs(ind[0]) == pairs(pmaj[0])


def test_hnma_followers_lean_toward_minority():
    cfg = SimConfig(
        n=10, epsilon_app=5, beta=0.3, horizon=20_000, seed=9, correlation=HNMA()
    )
    dec = _point_decisions(cfg)
    plans = predicate_intervals(cfg)
    cov = np.zeros(cfg.horizon + 1, dtype=np.int32)
    for plan in plans[:5]:
        for a, b in plan:
            cov[a : b + 1] += 1
    minority = 2 * cov < 5
    # followers mix the minority signal (p=0.5) with fresh beta coins,
    # so their agreement with it must exceed an independent process's
    follower_agree = (dec[5, 1:] == minority[1:]).mean()
    independent_agree = (dec[0, 1:] == minority[1:]).mean()
    assert follower_agree > independent_agree + 0.1


def _assert_placement_is_reference(cfg: SimConfig) -> None:
    got, expect = predicate_intervals(cfg), reference_predicate_intervals(cfg)
    assert all(spans.dtype == np.int64 and spans.shape == (len(spans), 2) for spans in got)
    assert list(map(pairs, got)) == list(map(pairs, expect))


@settings(max_examples=200, deadline=None)
@given(EDGE_CONFIGS)
def test_placement_equals_reference_placement(cfg):
    """One coverage rule for every length, and the point path, agree
    with coverage counted tick by tick and ``truthify`` at every length."""
    _assert_placement_is_reference(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(n=20, epsilon_app=200, delta=100, alpha=0.001, beta=0.01, horizon=5_000, seed=1),
        SimConfig(n=3, epsilon_app=10, beta=0.005, interval=FixedLength(30), horizon=30_000, seed=1),
        SimConfig(n=20, epsilon_app=50, delta=10, alpha=0.05, beta=0.1, horizon=2_000,
                  correlation=PMAJ(), seed=1),
        SimConfig(n=10, epsilon_app=10, beta=0.05, horizon=2_000, correlation=HNMA(), seed=1),
    ],
    ids=["sparse-ref", "few-long", "dense-corr", "hnma"],
)
def test_workload_placement_equals_reference_placement(cfg):
    _assert_placement_is_reference(cfg)


def test_placement_memory_follows_the_interval_count():
    """Placement holds its intervals in arrays, not one Python object
    per interval: its traced peak stays within about 24 bytes per
    interval plus 16 per tick (one process's coins and the coverage)."""
    cfg = SimConfig(n=50, epsilon_app=10, beta=0.01, horizon=40_000, correlation=HNMA(), seed=1)
    tracemalloc.start()
    try:
        plans = predicate_intervals(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = sum(map(len, plans))
    assert count == 516_036
    assert peak < 24 * count + 16 * cfg.horizon, peak


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


def test_step_schedule_lockstep_at_zero_spread():
    rng = np.random.default_rng(0)
    assert reference_step_schedule([3, 3, 3], 0, 10, rng) == [0, 1, 2]
    assert reference_step_schedule([10, 3, 3], 0, 10, rng) == [1, 2]


def test_step_schedule_always_progresses():
    rng = np.random.default_rng(0)
    for _ in range(200):
        picked = reference_step_schedule([4, 2, 7], 5, 10, rng)
        assert picked
        assert all(p in (0, 1, 2) for p in picked)


def test_step_schedule_respects_drift_cap():
    rng = np.random.default_rng(1)
    clocks = [5, 0, 3]
    for _ in range(500):
        picked = reference_step_schedule(clocks, 5, 100, rng)
        assert 0 not in picked or clocks[0] < min(clocks) + 5


def test_generated_spread_never_exceeds_epsilon():
    kw = dict(n=3, epsilon_app=4, delta=5, alpha=0.2, beta=0.1, horizon=120, seed=11)
    edges = ({"epsilon_app": 0}, {"epsilon_app": 1}, {}, {"delta": 0}, {"alpha": 1.0},
             {"n": 2}, {"horizon": 1},
             {"delta": 0, "alpha": 1.0, "epsilon_app": 0, "beta": 1.0},
             {"n": 6, "correlation": PMA(2), "interval": FixedLength(3)},
             {"n": 5, "correlation": PMAJ(), "interval": GeometricLength(0.4)},
             {"n": 20, "epsilon_app": 12, "horizon": 400})
    for overrides in edges:
        cfg = SimConfig(**{**kw, **overrides})
        steps, final = replay_schedule(cfg)
        trace = generate(cfg)
        assert trace == _reference_as_generated(cfg), overrides
        assert final == trace.final_clocks == (cfg.horizon,) * cfg.n
        # spread holds before every step and after the last one
        for clocks in [clocks for clocks, _ in steps] + [final]:
            assert max(clocks) - min(clocks) <= cfg.epsilon_app
        assert all(advancing for _, advancing in steps)


def test_lockstep_schedule_at_epsilon_zero():
    cfg = SimConfig(n=3, epsilon_app=0, delta=5, alpha=0.2, beta=0.1, horizon=60, seed=12)
    steps, final = replay_schedule(cfg)
    assert final == generate(cfg).final_clocks
    for clocks, advancing in steps:
        assert len(set(clocks)) == 1
        assert list(advancing) == [0, 1, 2]


def test_block_coin_draws_equal_per_step_draws():
    """A (B, n) coin draw yields the rows of B successive n-draws, so the
    generator's block draws replay the per-step schedule exactly."""
    n, block = 3, simkernel._SCHED_BLOCK
    blocked = simkernel._stream(7, simkernel._S_SCHED)
    stepped = simkernel._stream(7, simkernel._S_SCHED)
    rows = np.vstack([blocked.random((block, n)), blocked.random((block, n))])
    # the second block continues the stream where the first one stopped
    for row in rows:
        assert (row == stepped.random(n)).all()


@pytest.mark.parametrize("n", [1, 3, 20])
def test_coin_rows_equal_generator_coins(n):
    """The drivers' scheduler coins, read from the raw words, equal the
    ``Generator.random(...) < 0.5`` coins of the same stream, block after
    block, for several stream keys."""
    block = simkernel._SCHED_BLOCK
    for seed, purpose, proc in [(0, simkernel._S_SCHED, 0), (7, simkernel._S_SCHED, 0),
                                (11, simkernel._S_SCHED, 3), (5, simkernel._S_PRED, 2)]:
        raw = simkernel._stream(seed, purpose, proc)
        drawn = simkernel._stream(seed, purpose, proc)
        for _ in range(3):
            assert np.array_equal(simkernel._coin_rows(raw, n), drawn.random((block, n)) < 0.5)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(EDGE_CONFIGS)
def test_generate_equals_reference_generator(cfg):
    """``generate`` and every driver whose domain holds the config, picked
    or not, give the reference trace (:func:`_assert_every_driver_gives`)."""
    expect = reference_generate(cfg)
    assert generate(cfg) == _as_generated(cfg, expect)
    _assert_every_driver_gives(cfg, expect)


def test_schedule_path_serves_each_workload():
    """The path each preset and benchmark shape runs on, at every
    eps_app and delta its grid lists: no schedule where ``delta >=
    eps_app``, the reflection kernel elsewhere."""
    hlc, partial = PRESETS["fig-hlc"]["base"], PRESETS["table-partial"]["base"]
    fpr, ad, pr = PRESETS["fig-fpr-n20"], PRESETS["fig-ad-independence"], PRESETS["fig-pr-diagram"]
    cells = [  # (n, eps_app, delta, horizon, path)
        (3, hlc["epsilon_app"], hlc["delta"], hlc["horizon"], "free"),
        (3, 10, 100, 300_000, "free"),  # few-long
        (5, partial["epsilon_app"], partial["delta"], partial["horizon"], "free"),
        *[(20, eps, 100, fpr["base"]["horizon"], "free" if eps <= 100 else "kernel")
          for eps in fpr["grid"]["epsilon_app"]],
        *[(20, ad["base"]["epsilon_app"], delta, ad["base"]["horizon"], "free" if delta == 100 else "kernel")
          for delta in ad["grid"]["delta"]],
        *[(20, eps, 100, pr["base"]["horizon"], "free" if eps <= 100 else "kernel") for eps in pr["eps_app"]],
        (20, 200, 100, 100_000, "kernel"),  # sparse-ref
        (20, 50, 10, 20_000, "kernel"),  # dense-corr
    ]
    for n, eps, delta, horizon, path in cells:
        assert simkernel._schedule_path(n, eps, delta, horizon) == path, (n, eps, delta, horizon)


def _kernel_run(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The reflection kernel's run from zero clocks, one row per step:
    the clocks before the step and the processes it moves."""
    rng = simkernel._stream(cfg.seed, simkernel._S_SCHED)
    before, moved = [], []
    for seg in simkernel._reflected_schedule(cfg.n, cfg.epsilon_app, cfg.horizon, rng):
        before.append(seg[:, :-1].T)
        moved.append((seg[:, 1:] != seg[:, :-1]).T)
    return np.vstack(before), np.vstack(moved)


# a cut of the grid n in {2, 4, 20, 50}, eps in {1, 3, 50, 200}, horizon in
# {eps + _SCHED_BLOCK + 300, 2500}, seeds 0 and 7.  The full grid is slow:
# at eps 1 the caps bind on most steps, so a block takes about as many
# passes as it has rows (the switch rule never picks the kernel there).
# Kept: horizon eps + _SCHED_BLOCK + 300 (one to three blocks before the
# kernel stops) at both seeds for eps >= 3 and at seed 0 for eps 1 and
# n <= 20, and several blocks at horizon 2500 where the rule picks it.
_KERNEL_GRID = [
    (n, eps, eps + simkernel._SCHED_BLOCK + 300 if short else 2_500, seed)
    for n, eps, short, seed in itertools.product((2, 4, 20, 50), (1, 3, 50, 200), (True, False), (0, 7))
    if (short and (eps > 1 or (seed == 0 and n <= 20)))
    or (not short and seed == 0 and n >= 20 and eps >= 50)
]


def _assert_kernel_is_reference(cfg: SimConfig) -> np.ndarray:
    """The kernel alone, whatever the rule that picks it: every step it
    runs equals the reference scheduler's in clocks, movers and forced
    flag, and it stops at the first coin block that could reach the
    horizon, after at least one whole block.  Returns, per step it ran and
    process, whether the process won its coin at the drift cap."""
    block, eps, horizon = simkernel._SCHED_BLOCK, cfg.epsilon_app, cfg.horizon
    steps, _ = replay_schedule(cfg)
    clocks = np.array([c for c, _ in steps])
    moved = np.zeros(clocks.shape, dtype=bool)
    for s, (_, advancing) in enumerate(steps):
        moved[s, list(advancing)] = True
    # a step is forced when no coin winner is below the cap, and then
    # it moves a process that lost its coin
    coins = simkernel._stream(cfg.seed, simkernel._S_SCHED).random(clocks.shape) < 0.5
    cap = np.minimum(clocks.min(axis=1) + eps, horizon)[:, None]
    forced = ~(coins & (clocks < cap)).any(axis=1)
    got, got_moved = _kernel_run(cfg)
    ran = len(got)
    clear = clocks[::block].min(axis=1) + block + eps < horizon  # per block start
    assert ran == block * int(clear.argmin()) > 0, cfg
    assert np.array_equal(got, clocks[:ran]), cfg
    assert np.array_equal(got_moved, moved[:ran]), cfg
    assert np.array_equal((got_moved & ~coins[:ran]).any(axis=1), forced[:ran]), cfg
    assert np.array_equal(got[-1] + got_moved[-1], clocks[ran]), cfg
    return (coins & (clocks == cap))[:ran]


@pytest.mark.parametrize("n", [2, 4, 20, 50])
def test_reflection_kernel_matches_reference_schedule(n):
    """Every ``_KERNEL_GRID`` cell at ``n``: :func:`_assert_kernel_is_reference`."""
    for _, eps, horizon, seed in (g for g in _KERNEL_GRID if g[0] == n):
        _assert_kernel_is_reference(SimConfig(n=n, epsilon_app=eps, horizon=horizon, seed=seed))


# the two ends of the kernel's cap pass, which recomputes only the processes
# that pass the cap: none do in any block (a spread of eps_app 600 is not
# reached in 4,000 ticks), and nearly all do in every block (n=10 at eps_app
# 10, the edge of the kernel's path, where the pass takes whole rows)
@pytest.mark.parametrize("cfg, fewest, mean", [
    (SimConfig(n=20, epsilon_app=600, horizon=4_000, seed=3), 0.0, 0.0),
    (SimConfig(n=10, epsilon_app=10, delta=1, horizon=6_000, seed=1), 0.7, 0.9),
    (SimConfig(n=10, epsilon_app=10, delta=1, horizon=6_000, seed=2), 0.7, 0.9),
], ids=["n20-eps600-no-cap", "n10-eps10-caps-1", "n10-eps10-caps-2"])
def test_reflection_kernel_matches_reference_at_both_ends_of_the_cap_pass(cfg, fewest, mean):
    """On the kernel's path, every step equals the reference; the share of
    processes that win a coin at the cap in a block is at least
    ``fewest`` in every block and ``mean`` on average (0 in the first
    cell, where no cap binds)."""
    assert simkernel._schedule_path(cfg.n, cfg.epsilon_app, cfg.delta, cfg.horizon) == "kernel"
    capped = _assert_kernel_is_reference(cfg)
    block = simkernel._SCHED_BLOCK
    share = [capped[i:i + block].any(axis=0).mean() for i in range(0, len(capped), block)]
    assert len(share) >= 5 and min(share) >= fewest and np.mean(share) >= mean, share
    if fewest == 0.0:
        assert not capped.any()


# a kernel-path case in which a process receives on the tick of one of its
# interval ends or sends: its event body runs the inbox and its local-work
# plan at one advance
_COINCIDING = SimConfig(n=20, epsilon_app=50, delta=5, alpha=0.1, beta=0.1,
                        interval=GeometricLength(0.3), horizon=3_000, correlation=PMAJ(), seed=16)


@pytest.mark.parametrize(
    "cfg, path",
    [
        # the few-long shape, which runs no schedule
        (SimConfig(n=3, epsilon_app=10, delta=100, alpha=0.001, beta=0.005,
                   interval=FixedLength(30), horizon=20_000, seed=3), "free"),
        # a message on every tick, delivered in the step it is due
        (SimConfig(n=3, epsilon_app=4, delta=0, alpha=1.0, beta=0.2,
                   interval=FixedLength(3), horizon=2_000, seed=4), "loop"),
        (SimConfig(n=3, epsilon_app=4, delta=0, alpha=1.0, beta=0.2,
                   horizon=2_000, seed=5), "loop"),
        (SimConfig(n=2, epsilon_app=200, delta=7, alpha=0.05, beta=0.02,
                   interval=GeometricLength(0.1), horizon=8_000, seed=6), "loop"),
        # runs with no whole coin block clear of the horizon: the step loop
        (SimConfig(n=3, epsilon_app=10, delta=1, alpha=0.3, beta=0.3, horizon=10, seed=7), "loop"),
        (SimConfig(n=3, epsilon_app=10, delta=1, alpha=0.3, beta=0.3, horizon=11, seed=7), "loop"),
        (SimConfig(n=4, epsilon_app=6, delta=0, alpha=0.5, beta=0.3, horizon=7, seed=8), "loop"),
        # eps_app 0: every step is forced, so the processes move one at a
        # time; messages due in the step they are sent
        (SimConfig(n=20, epsilon_app=0, delta=0, alpha=0.1, beta=0.05,
                   interval=FixedLength(3), horizon=2_000, seed=9), "loop"),
        # reflection kernel: a message on every tick, taken in the step it is
        # sent by receivers above and below the sender
        (SimConfig(n=20, epsilon_app=12, delta=0, alpha=1.0, beta=0.05, horizon=800, seed=10), "kernel"),
        (SimConfig(n=50, epsilon_app=10, delta=0, alpha=1.0, beta=0.05, horizon=200, seed=11), "loop"),
        (SimConfig(n=50, epsilon_app=10, delta=0, alpha=1.0, beta=0.05, horizon=700, seed=11), "kernel"),
        # the smallest n the kernel runs at: 6 forced steps in its three
        # blocks, each with a send due at once
        (SimConfig(n=10, epsilon_app=10, delta=0, alpha=1.0, beta=0.05, horizon=1_000, seed=18), "kernel"),
        (SimConfig(n=20, epsilon_app=30, delta=1, alpha=0.3, beta=0.3, horizon=30, seed=12), "loop"),
        (SimConfig(n=50, epsilon_app=40, delta=0, alpha=0.3, beta=0.3, horizon=25, seed=13), "loop"),
        (_COINCIDING, "kernel"),
        (SimConfig(n=50, epsilon_app=15, delta=3, alpha=0.05, beta=0.1, interval=GeometricLength(0.5),
                   horizon=600, correlation=PMAJ(), seed=17), "kernel"),
    ],
    ids=["few-long-20k", "dense-fixed3", "dense-drift", "n2-eps200",
         "horizon-eps", "horizon-eps+1", "n4-horizon-eps+1", "n20-eps0",
         "n20-delta0-alpha1", "n50-delta0-alpha1", "n50-delta0-alpha1-h700", "n10-delta0-alpha1",
         "n20-horizon-eps", "n50-horizon-eps", "n20-pmaj-geom", "n50-pmaj-geom"],
)
def test_generate_equals_reference_at_long_horizons(cfg, path):
    assert simkernel._schedule_path(cfg.n, cfg.epsilon_app, cfg.delta, cfg.horizon) == path
    trace = generate(cfg)
    assert trace == _reference_as_generated(cfg)
    if cfg is _COINCIDING:
        received = {(m.receiver, m.receive_pt) for m in trace.messages}
        assert received & {(iv.proc, iv.end) for ivs in trace.intervals for iv in ivs}
        assert received & {(m.sender, m.send_pt) for m in trace.messages}


# configs for every driver; _schedule_path picks the loop for the first two,
# the kernel for the third and the free driver for the last two
_DRIVER_CONFIGS = [
    SimConfig(n=3, epsilon_app=10, delta=0, alpha=1.0, beta=0.2, interval=GeometricLength(0.3),
              horizon=1_500, seed=21),
    SimConfig(n=5, epsilon_app=10, delta=0, alpha=1.0, beta=0.2, interval=FixedLength(4),
              horizon=800, correlation=PMAJ(), seed=22),
    SimConfig(n=20, epsilon_app=50, delta=3, alpha=0.1, beta=0.1, interval=GeometricLength(0.4),
              horizon=1_500, correlation=HNMA(), seed=23),
    SimConfig(n=2, epsilon_app=1, delta=0, alpha=1.0, beta=1.0, interval=GeometricLength(0.5),
              horizon=400, seed=24),
    SimConfig(n=4, epsilon_app=6, delta=1, alpha=0.5, beta=0.3, interval=GeometricLength(0.2),
              horizon=7, correlation=PMA(2, 0.7), seed=25),
    SimConfig(n=3, epsilon_app=2, delta=0, alpha=1.0, beta=0.3, horizon=1, seed=26),
    SimConfig(n=4, epsilon_app=0, delta=0, alpha=1.0, beta=0.3, interval=FixedLength(2),
              horizon=300, seed=27),
    # the free driver at the edge of its domain: delta == eps_app, and
    # eps_app 0 with delta 1
    SimConfig(n=3, epsilon_app=4, delta=4, alpha=1.0, beta=0.3, interval=FixedLength(3),
              horizon=300, seed=28),
    SimConfig(n=4, epsilon_app=0, delta=1, alpha=1.0, beta=0.3, interval=GeometricLength(0.5),
              horizon=200, correlation=PMAJ(), seed=29),
]


# the cells above with eps_app >= 1 and no whole coin block clear of the
# horizon, moved past eps_app + _SCHED_BLOCK, where the kernel runs a block
# on them
_DRIVER_PAST_CELLS = [dataclasses.replace(c, horizon=c.epsilon_app + simkernel._SCHED_BLOCK + c.horizon)
                      for c in _DRIVER_CONFIGS if 1 <= c.epsilon_app and c.horizon <= c.epsilon_app + simkernel._SCHED_BLOCK]


def _driver_domain(path: str, cfg: SimConfig) -> bool:
    """Where a driver runs: the free driver exactly where ``delta >=
    max(eps_app, 1)``, the kernel at eps_app >= 1, the loop anywhere."""
    eps = cfg.epsilon_app
    return {"free": cfg.delta >= max(eps, 1), "kernel": eps >= 1, "loop": True}[path]


def _as_generated(cfg: SimConfig, trace: simkernel.Trace) -> simkernel.Trace:
    """A schedule driver's ``trace`` as ``generate`` lists it: where the
    free driver runs, its messages in ``(send_pt, sender)`` order, the
    order in which that driver sends them (unique: a process sends at most
    once per tick); elsewhere as it is.  Intervals and final clocks are
    never touched."""
    if not _driver_domain("free", cfg):
        return trace
    return dataclasses.replace(trace, messages=tuple(sorted(trace.messages, key=lambda m: (m.send_pt, m.sender))))


def _reference_as_generated(cfg: SimConfig) -> simkernel.Trace:
    """The trace ``generate(cfg)`` must equal: the reference's, messages
    ordered by :func:`_as_generated`."""
    return _as_generated(cfg, reference_generate(cfg))


@pytest.mark.parametrize("cfg", _DRIVER_CONFIGS, ids=[f"n{c.n}-eps{c.epsilon_app}-h{c.horizon}" for c in _DRIVER_CONFIGS])
def test_every_driver_matches_reference_in_its_domain(cfg):
    """Every driver, on each config in its domain, whichever one
    ``_schedule_path`` picks there, drives the event state to the
    reference trace."""
    _assert_every_driver_gives(cfg, reference_generate(cfg))


@pytest.mark.parametrize("cfg", _DRIVER_CONFIGS, ids=[f"n{c.n}-eps{c.epsilon_app}-h{c.horizon}" for c in _DRIVER_CONFIGS])
def test_trace_records_hold_python_ints(cfg):
    """Placement is numpy, the records are not: every field is an
    ``int`` or a tuple of ``int``s, never a numpy scalar."""
    trace = generate(cfg)
    records = [iv for ivs in trace.intervals for iv in ivs] + list(trace.messages)
    assert records
    for rec in records:
        for field in rec:
            values = field if isinstance(field, tuple) else (field,)
            assert all(type(v) is int for v in values), rec


def _driver_runs(cfg: SimConfig, sched_seed: int | None = None) -> dict[str, tuple[simkernel.Trace, list]]:
    """Per driver in whose domain ``cfg`` lies: the trace it drives a
    fresh event state to, and its ``(p, v, receiver)`` event calls.  The
    schedule is drawn from seed ``sched_seed``'s stream, by default the
    config's own."""
    runs = {}
    for path, driver in simkernel._DRIVERS.items():
        if _driver_domain(path, cfg):
            events, watch, finish = simkernel._event_state(cfg)
            calls = []

            def recorded(p: int, v: int) -> int | None:
                q = events(p, v)
                calls.append((p, v, q))
                return q

            rng = simkernel._stream(cfg.seed if sched_seed is None else sched_seed, simkernel._S_SCHED)
            runs[path] = finish(driver(recorded, watch, cfg.epsilon_app, cfg.horizon, rng)), calls
    return runs


def _assert_every_driver_gives(cfg: SimConfig, expect: simkernel.Trace) -> None:
    """Each schedule driver in whose domain ``cfg`` lies takes a fresh
    event state to the reference trace ``expect``, calling ``events``
    with the same ``(p, v)`` sequence, and getting the same receivers, as
    the step loop.  The free driver makes the same calls in (tick,
    process) order and gives ``expect`` with its messages in that order
    (:func:`_as_generated`)."""
    runs = _driver_runs(cfg)
    loop_calls = runs["loop"][1]
    for path, (trace, calls) in runs.items():
        if path == "free":
            assert trace == _as_generated(cfg, expect), path
            assert calls == sorted(loop_calls, key=lambda call: call[1::-1]), path
        else:
            assert trace == expect, path
            assert calls == loop_calls, path


def _hand_offs(monkeypatch) -> list[list[int]]:
    """Wrap ``simkernel._run_loop`` so that each call the kernel makes to
    it appends the clocks it is handed to the returned list; ``_DRIVERS``
    keeps the unwrapped loop, so the loop driver run on its own appends
    nothing."""
    entries, loop = [], simkernel._run_loop

    def handed(events, watch, eps, horizon, rng, clocks=None):
        entries.append(list(clocks))
        return loop(events, watch, eps, horizon, rng, clocks)

    monkeypatch.setattr(simkernel, "_run_loop", handed)
    return entries


def _assert_handed_at_a_block_boundary(cfg: SimConfig, clocks: list[int]) -> int:
    """``clocks`` are the reference's clocks before step ``m *
    _SCHED_BLOCK``, ``m >= 1`` the first coin block that could reach the
    horizon: ``lo + _SCHED_BLOCK + eps >= horizon`` at its start, ``lo``
    the minimum clock.  The clock sum rises at every step, so this pins
    the step at which the kernel handed over.  Returns ``m``, the blocks
    the kernel ran."""
    block = simkernel._SCHED_BLOCK
    starts = [c for c, _ in replay_schedule(cfg)[0][::block]]
    m = next(i for i, c in enumerate(starts) if min(c) + block + cfg.epsilon_app >= cfg.horizon)
    assert m >= 1 and list(starts[m]) == clocks, (cfg, m, clocks)
    return m


# delta=0, alpha=1 cells at the first horizons past eps_app + _SCHED_BLOCK,
# where the kernel runs one whole block, and 1,000 ticks past it, where it
# runs several: n=2 and n=3 (off the kernel's path), n=20 at eps 12, and at
# eps 1 (whose caps bind on most rows) only the first
_HAND_OFF_CELLS = [
    SimConfig(n=n, epsilon_app=eps, delta=0, alpha=1.0, beta=0.2, interval=FixedLength(3),
              horizon=eps + simkernel._SCHED_BLOCK + past, seed=30 + i)
    for n, eps, pasts in [(2, 3, (1, 2, 3, 1_000)), (3, 10, (1, 2, 3, 1_000)), (20, 12, (1, 2, 3)), (20, 1, (1,))]
    for i, past in enumerate(pasts)
]


def test_fast_drivers_hand_the_run_to_the_loop_at_a_block_boundary(monkeypatch):
    """The kernel calls the step loop exactly once, at the first coin
    block boundary from which a block could reach the horizon and after
    at least one whole block; every driver gives the reference on each
    cell, and on the driver cells moved past a block."""
    entries = _hand_offs(monkeypatch)
    for cfg in _HAND_OFF_CELLS + _DRIVER_PAST_CELLS:
        assert _driver_domain("kernel", cfg), cfg
        entries.clear()
        _assert_every_driver_gives(cfg, reference_generate(cfg))
        assert len(entries) == 1, cfg
        _assert_handed_at_a_block_boundary(cfg, entries[0])


def test_schedule_path_leaves_runs_with_no_clear_block_to_the_loop():
    """The kernel runs only whole coin blocks clear of the horizon, so
    where the other rules allow it, the rule picks the loop exactly when
    ``horizon <= eps_app + _SCHED_BLOCK``."""
    block = simkernel._SCHED_BLOCK
    for n, eps, delta in [(20, 12, 0), (20, 12, 11), (50, 200, 100)]:
        for horizon in (1, eps, eps + block - 1, eps + block):
            assert simkernel._schedule_path(n, eps, delta, horizon) == "loop", (n, eps, horizon)
        for horizon in (eps + block + 1, eps + block + 2, 10 * (eps + block)):
            assert simkernel._schedule_path(n, eps, delta, horizon) == "kernel", (n, eps, horizon)


def test_schedule_path_frees_exactly_where_delta_covers_the_spread():
    """The free driver is picked exactly where ``delta >= max(eps_app,
    1)``, at every n and horizon, ``delta == eps_app`` and eps_app 0 with
    delta 1 included; elsewhere a schedule driver is."""
    for n, eps, horizon in itertools.product((2, 3, 10, 20), (0, 1, 2, 10, 200), (1, 600, 10**6)):
        for delta in sorted({0, 1, max(eps - 1, 0), eps, eps + 1, 100}):
            path = simkernel._schedule_path(n, eps, delta, horizon)
            assert (path == "free") == (delta >= max(eps, 1)), (n, eps, delta, horizon, path)


# sparse cells: many interval starts and ends, few messages
_SPARSE_CELLS = [
    SimConfig(n=3, epsilon_app=10, delta=100, alpha=0.001, beta=0.01, interval=FixedLength(30),
              horizon=20_000, seed=1),
    SimConfig(n=20, epsilon_app=200, delta=100, alpha=0.001, beta=0.01, horizon=10_000, seed=1),
]


@pytest.mark.parametrize("cfg", _SPARSE_CELLS, ids=["n3-fixed30", "n20-reference"])
def test_event_body_runs_only_at_message_events(cfg):
    """Interval starts and ends run no event body of their own: on every
    driver in its domain the body runs at most once per send and once
    per (receiver, receive tick), far fewer times than there are
    intervals, and the trace is unchanged (messages ordered as
    :func:`_as_generated` says)."""
    expect = generate(cfg)
    sends = sum(map(len, reference_send_plan(cfg)[0]))
    receives = len({(m.receiver, m.receive_pt) for m in expect.messages})
    assert sum(map(len, expect.intervals)) > 2 * (sends + receives)
    for path, driver in simkernel._DRIVERS.items():
        if not _driver_domain(path, cfg):
            continue
        events, watch, finish = simkernel._event_state(cfg)
        calls = 0

        def counted(p: int, v: int) -> int | None:
            nonlocal calls
            calls += 1
            return events(p, v)

        rng = simkernel._stream(cfg.seed, simkernel._S_SCHED)
        assert _as_generated(cfg, finish(driver(counted, watch, cfg.epsilon_app, cfg.horizon, rng))) == expect, path
        assert calls <= sends + receives, (path, calls, sends, receives)


# long intervals that hold several receives, with sends on start and end
# ticks: EDGE_CONFIGS stops at length 6 and horizon 90
_LONG_CELLS = [
    SimConfig(n=n, epsilon_app=4, delta=delta, alpha=alpha, beta=0.1, interval=interval,
              horizon=300 if n == 3 else 120, seed=40 + i)
    for i, (n, delta, alpha, interval) in enumerate(itertools.product(
        (3, 20), (0, 1), (0.3, 1.0), (FixedLength(30), GeometricLength(0.05))))
]
# the same shapes past eps_app + _SCHED_BLOCK: the kernel (off its path at
# n=3) runs one whole block before the step loop takes the run over
_LONG_PAST_CELLS = [dataclasses.replace(c, horizon=c.epsilon_app + simkernel._SCHED_BLOCK + c.horizon)
                    for c in _LONG_CELLS]


@pytest.mark.parametrize("cfg", _LONG_CELLS + _LONG_PAST_CELLS, ids=[
    f"n{c.n}-delta{c.delta}-alpha{c.alpha}-{type(c.interval).__name__}{suffix}"
    for cells, suffix in [(_LONG_CELLS, ""), (_LONG_PAST_CELLS, "-past-block")] for c in cells])
def test_long_intervals_crossed_by_messages(cfg):
    """Long intervals hold several receives, and some start or end on a
    send tick, so the closed-form stamping carries a process's stamps
    across receives inside an interval and orders a start before a send
    at one tick.  Every driver matches the reference on such cells."""
    expect = reference_generate(cfg)
    received = [[m.receive_pt for m in expect.messages if m.receiver == p] for p in range(cfg.n)]
    sent = [set(ticks) for ticks in reference_send_plan(cfg)[0]]
    ivs = [iv for row in expect.intervals for iv in row]
    assert max(sum(iv.start < t <= iv.end for t in received[iv.proc]) for iv in ivs) >= 2
    assert any(iv.start in sent[iv.proc] for iv in ivs)
    assert any(iv.end in sent[iv.proc] and iv.end > iv.start for iv in ivs)
    _assert_every_driver_gives(cfg, expect)


def _assert_hlc_rides_the_tick(trace: simkernel.Trace) -> None:
    """Every hybrid stamp's ``l`` is its event's own tick: the premise
    under which the quasi monitor is the length-0 filter."""
    assert all(iv.hlc_start[0] == iv.start for ivs in trace.intervals for iv in ivs)
    assert all(m.hlc_send[0] == m.send_pt for m in trace.messages)


@settings(max_examples=200, deadline=None)
@given(EDGE_CONFIGS)
def test_hlc_l_is_the_event_tick_on_edge_configs(cfg):
    """No message arrives before its send tick, so along every process
    ``l`` never runs ahead of the physical clock, on every driver."""
    for trace, _ in _driver_runs(cfg).values():
        _assert_hlc_rides_the_tick(trace)


@pytest.mark.parametrize("cfg", _DRIVER_CONFIGS + _LONG_CELLS, ids=[
    f"n{c.n}-eps{c.epsilon_app}-delta{c.delta}-alpha{c.alpha}-h{c.horizon}-s{c.seed}"
    for c in _DRIVER_CONFIGS + _LONG_CELLS])
def test_hlc_l_is_the_event_tick_on_driver_and_long_cells(cfg):
    for trace, _ in _driver_runs(cfg).values():
        _assert_hlc_rides_the_tick(trace)


# EDGE_CONFIGS at eps_app >= 1 and horizons past eps_app + _SCHED_BLOCK, so
# that the kernel runs at least one whole block and hands the run to the
# step loop
LONG_EDGE_CONFIGS = EDGE_CONFIGS.filter(lambda c: c.epsilon_app >= 1).flatmap(
    lambda c: st.sampled_from([1, 2, 3, 300]).map(
        lambda d: dataclasses.replace(c, horizon=c.epsilon_app + simkernel._SCHED_BLOCK + d)))


@settings(max_examples=15, deadline=None)
@given(LONG_EDGE_CONFIGS)
def test_fast_drivers_equal_reference_on_long_edge_configs(cfg):
    """The edge configurations reach only the step loop at their own
    horizons; at these every driver in whose domain a config lies gives
    the reference trace, in whose stamps ``l`` is the event tick."""
    expect = reference_generate(cfg)
    _assert_every_driver_gives(cfg, expect)
    _assert_hlc_rides_the_tick(expect)


# EDGE_CONFIGS moved into the free driver's domain, delta = max(eps_app, 1)
# + d, at their own horizons or past eps_app + _SCHED_BLOCK, where the
# kernel runs at least one whole block
FREE_EDGE_CONFIGS = st.tuples(EDGE_CONFIGS, st.sampled_from([0, 1, 7]), st.booleans()).map(
    lambda t: dataclasses.replace(
        t[0], delta=max(t[0].epsilon_app, 1) + t[1],
        horizon=t[0].horizon + (t[0].epsilon_app + simkernel._SCHED_BLOCK if t[2] else 0)))


@settings(max_examples=50, deadline=None)
@given(FREE_EDGE_CONFIGS, st.integers(1, 1_000))
@example(SimConfig(n=2, epsilon_app=0, delta=1, alpha=1.0, beta=0.3, horizon=1, seed=0), 1)
@example(SimConfig(n=2, epsilon_app=0, delta=1, alpha=1.0, beta=1.0, horizon=40, seed=3), 5)
@example(SimConfig(n=3, epsilon_app=5, delta=5, alpha=1.0, beta=0.3, interval=FixedLength(3),
                   horizon=5 + simkernel._SCHED_BLOCK + 60, correlation=PMAJ(), seed=4), 9)
def test_schedule_does_not_reach_the_trace_where_delta_covers_the_spread(cfg, shift):
    """Where ``delta >= max(eps_app, 1)`` the schedule does not reach the
    trace: ``generate`` lists the messages in ``(send_pt, sender)`` order,
    each received at exactly ``send_pt + delta``, and every driver, the
    loop and the kernel (at eps_app >= 1) run on another seed's scheduler
    stream, gives the same intervals, final clocks and message set."""
    trace = generate(cfg)
    keys = [(m.send_pt, m.sender) for m in trace.messages]
    assert keys == sorted(set(keys))
    assert all(m.receive_pt == m.send_pt + cfg.delta for m in trace.messages)
    runs = _driver_runs(cfg, sched_seed=cfg.seed + shift)
    assert set(runs) == ({"free", "loop", "kernel"} if cfg.epsilon_app else {"free", "loop"})
    for path, (other, _) in runs.items():
        assert other.intervals == trace.intervals, path
        assert other.final_clocks == trace.final_clocks, path
        assert set(other.messages) == set(trace.messages), path


def test_random_streams_are_pinned():
    """The first draws of every ``Generator`` method psml reads, under
    ``_stream`` for a few (seed, purpose, proc) keys.  The golden digests
    and pinned traces rest on these values; a numpy release that moves a
    stream fails here by name."""
    stream = simkernel._stream
    assert stream(0, simkernel._S_PRED, 0).random(4).tolist() == [
        0.5651317655614634, 0.935433136976671, 0.47987454708253907, 0.7708334969532483]
    assert stream(1, simkernel._S_SEND, 7).random(4).tolist() == [
        0.4691480040268251, 0.9574742434703987, 0.34498936185156437, 0.41594595853247207]
    assert stream(11, simkernel._S_SCHED, 0).random(4).tolist() == [
        0.0038445840118889185, 0.8784218469072975, 0.9129229403427805, 0.8565641088018796]
    assert stream(9, simkernel._S_DEP, 4).random(3).tolist() == [
        0.3602238431665059, 0.3726067272494079, 0.5846833833581081]
    assert stream(1, simkernel._S_RECV, 7).integers(0, 19, size=6).tolist() == [13, 5, 13, 15, 15, 1]
    assert stream(5, simkernel._S_RECV, 0).integers(0, 2, size=6).tolist() == [1, 1, 1, 0, 0, 0]
    # numpy draws geometric lengths by one method below p = 1/3, another above
    assert stream(0, simkernel._S_LEN, 0).geometric(0.05, size=6).tolist() == [5, 7, 47, 1, 88, 14]
    assert stream(3, simkernel._S_LEN, 2).geometric(0.4, size=8).tolist() == [2, 2, 1, 1, 1, 1, 1, 1]


def test_driver_configs_reach_paths_the_rule_does_not_pick():
    """The kernel and the loop also run where the rule picks another
    driver; the free driver runs exactly where it is picked."""
    picked = [simkernel._schedule_path(c.n, c.epsilon_app, c.delta, c.horizon) for c in _DRIVER_CONFIGS]
    assert picked[:3] == ["loop", "loop", "kernel"] and picked[-2:] == ["free", "free"]
    for path in ("kernel", "loop"):
        assert any(p != path and _driver_domain(path, c) for p, c in zip(picked, _DRIVER_CONFIGS)), path
    assert [p == "free" for p in picked] == [_driver_domain("free", c) for c in _DRIVER_CONFIGS]


def test_reflection_kernel_rejects_eps_zero_before_drawing():
    """At eps_app 0 the kernel's fixed point would not stop; it refuses
    the config and leaves the schedule stream untouched."""
    cfg = SimConfig(n=3, epsilon_app=0, beta=0.3, horizon=200, seed=5)
    events, watch, _ = simkernel._event_state(cfg)
    rng = simkernel._stream(cfg.seed, simkernel._S_SCHED)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="epsilon_app >= 1"):
        simkernel._run_kernel(events, watch, 0, cfg.horizon, rng)
    assert rng.bit_generator.state == state
    assert simkernel._schedule_path(cfg.n, 0, 0, cfg.horizon) == "loop"


def _nested_codes(code: types.CodeType) -> Iterator[types.CodeType]:
    """``code`` and every code object defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested_codes(const)


def _generate_lines(cfg: SimConfig, drivers: tuple[str, ...] = tuple(simkernel._DRIVERS)) -> int:
    """Lines run in the frames of ``generate`` and of the named schedule
    drivers, and of the comprehensions nested in them; not in the event
    bodies, the coin draws, ``_reflected_schedule`` or the collector
    pause around ``generate``."""
    funcs = (inspect.unwrap(simkernel.generate), *(simkernel._DRIVERS[d] for d in drivers))
    codes = {c for f in funcs for c in _nested_codes(f.__code__)}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        generate(cfg)
    finally:
        sys.settrace(previous)
    return count


def test_reflection_kernel_pays_per_event_not_per_advance(monkeypatch):
    """At n=20 the kernel runs Python per segment and per event body: a
    run with almost no events executes far fewer lines of ``generate``
    and the kernel than it takes scheduler steps, and events add a few
    lines each.  The step loop, which runs the last blocks, is entered
    once, at the block boundary, and is not counted."""
    shape = dict(n=20, epsilon_app=200, delta=100, horizon=20_000, seed=3)
    quiet_cfg = SimConfig(**shape, alpha=0.0, beta=1e-12)
    busy_cfg = SimConfig(**shape, alpha=0.001, beta=0.005)
    assert simkernel._schedule_path(20, 200, shape["delta"], shape["horizon"]) == "kernel"
    quiet, busy = _generate_lines(quiet_cfg, ("kernel",)), _generate_lines(busy_cfg, ("kernel",))
    # every step moves a clock by at most one, so there are at least
    # horizon steps
    assert quiet < shape["horizon"] / 10, quiet
    trace = generate(busy_cfg)
    events = sum(map(len, trace.intervals)) + len(trace.messages)
    assert events > 1_000
    assert busy - quiet < 20 * events, (busy, quiet, events)
    entries = _hand_offs(monkeypatch)
    assert generate(busy_cfg) == trace
    assert len(entries) == 1
    _assert_handed_at_a_block_boundary(busy_cfg, entries[0])


def test_generate_is_deterministic():
    a = generate(BASE)
    b = generate(BASE)
    assert a == b
    c = generate(SimConfig(**{**_cfg_dict(BASE), "seed": 2}))
    assert c != a


def _cfg_dict(cfg: SimConfig) -> dict:
    return {
        "n": cfg.n,
        "epsilon_app": cfg.epsilon_app,
        "delta": cfg.delta,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "interval": cfg.interval,
        "horizon": cfg.horizon,
        "correlation": cfg.correlation,
        "seed": cfg.seed,
    }


def test_messages_respect_delivery_rule():
    """A message crosses processes and waits at least ``delta``, and the
    receiver's first record stamped at or after the receive knows the
    send: its vector stamp dominates ``vc_send`` and its HLC is larger
    than ``hlc_send``.  That record is the receiver's next interval
    start or send, in the body order receive, start, send."""
    trace = generate(BASE)
    assert trace.messages
    # every process's stamped records as (tick, body order, vc, hlc)
    stamped = [[(iv.start, 0, iv.vc_start, iv.hlc_start) for iv in ivs] for ivs in trace.intervals]
    for m in trace.messages:
        stamped[m.sender].append((m.send_pt, 1, m.vc_send, m.hlc_send))
    for rows in stamped:
        rows.sort()
    known = 0
    for m in trace.messages:
        assert m.sender != m.receiver
        assert m.receive_pt >= m.send_pt + BASE.delta
        rows = stamped[m.receiver]
        i = bisect_left(rows, (m.receive_pt,))
        if i < len(rows):
            _, _, vc, hlc = rows[i]
            assert all(r >= s for r, s in zip(vc, m.vc_send))
            assert hlc > m.hlc_send
            known += 1
    assert known > 0.9 * len(trace.messages), (known, len(trace.messages))


@pytest.mark.parametrize("delta", [0, 6, 10])
@pytest.mark.parametrize("n", [3, 20])
def test_messages_dropped_at_the_horizon(n, delta):
    """Every tick sends (alpha=1), so some sends fall within ``delta`` of
    the horizon or go to a receiver that has already stopped.  Those are
    dropped; the delivered rest come out in send order.  At ``delta``
    10, eps_app 10, no schedule runs: a message is dropped exactly when
    ``send_pt + delta > horizon``, and received at ``send_pt + delta``."""
    cfg = SimConfig(n=n, epsilon_app=10, delta=delta, alpha=1.0, beta=0.1,
                    horizon=10 + simkernel._SCHED_BLOCK + 120, seed=5)
    # the kernel (n=20) for one whole block, then the step loop
    path = "free" if delta == 10 else "loop" if n == 3 else "kernel"
    assert simkernel._schedule_path(n, 10, delta, cfg.horizon) == path
    trace = generate(cfg)
    assert trace == _reference_as_generated(cfg)
    assert 0 < len(trace.messages) < n * cfg.horizon  # one send per process tick
    assert all(m.receive_pt <= cfg.horizon for m in trace.messages)
    if path == "free":
        planned = {(p, t) for p, ticks in enumerate(reference_send_plan(cfg)[0]) for t in ticks}
        assert {(m.sender, m.send_pt) for m in trace.messages} == {
            (p, t) for p, t in planned if t + delta <= cfg.horizon}
        assert all(m.receive_pt == m.send_pt + delta for m in trace.messages)
    # send order: no listed message's send happened before an earlier one's.
    # Message j's send precedes message i's iff i's stamp learned j's count
    # at j's sender.
    vcs = np.array([m.vc_send for m in trace.messages])
    senders = np.array([m.sender for m in trace.messages])
    own = vcs[np.arange(len(vcs)), senders]
    before = np.maximum.accumulate(vcs, axis=0)[:-1]  # row j: the most the first j + 1 knew
    assert (before[np.arange(len(vcs) - 1), senders[1:]] < own[1:]).all()


def test_alpha_zero_means_no_messages():
    cfg = SimConfig(n=3, epsilon_app=5, alpha=0.0, beta=0.1, horizon=200, seed=13)
    assert generate(cfg).messages == ()


def test_interval_stamps_are_causal_events():
    trace = generate(BASE)
    for plan in trace.intervals:
        for prev, cur in zip(plan, plan[1:]):
            assert prev.end < cur.start
            # later interval's start stamp dominates the earlier one's
            assert cur.vc_start[cur.proc] > prev.vc_start[prev.proc]
        for iv in plan:
            assert iv.start <= iv.end


def test_placement_ignores_traffic_and_scheduling():
    """Interval placement must depend only on seed, beta, interval,
    correlation, n, and horizon."""
    kw = dict(n=4, epsilon_app=5, beta=0.1, horizon=500, seed=14)
    reference = list(map(pairs, predicate_intervals(SimConfig(**kw))))
    for overrides in (
        {"delta": 0},
        {"delta": 40},
        {"alpha": 0.0},
        {"alpha": 0.9},
        {"epsilon_app": 0},
    ):
        assert list(map(pairs, predicate_intervals(SimConfig(**{**kw, **overrides})))) == reference
    # and the generated trace carries exactly the planned intervals
    trace = generate(SimConfig(**kw, alpha=0.5, delta=3))
    got = [[(iv.start, iv.end) for iv in plan] for plan in trace.intervals]
    assert got == reference


def test_growing_the_system_keeps_existing_streams():
    small = predicate_intervals(SimConfig(n=3, epsilon_app=5, beta=0.1, horizon=400, seed=15))
    large = predicate_intervals(SimConfig(n=5, epsilon_app=5, beta=0.1, horizon=400, seed=15))
    assert list(map(pairs, large[:3])) == list(map(pairs, small))


def _read_record(line: str) -> PredicateInterval | MessageRecord:
    """A ``trace_records`` line read back into its record.  Every field
    is passed by name, so a field the line lacks or a key the record
    lacks raises ``TypeError``."""
    fields = dict(part.split("=", 1) for part in line.split())
    kind = fields.pop("kind")
    vc = tuple(map(int, fields.pop("vc").split(",")))
    hlc = tuple(map(int, fields.pop("hlc").split(",")))
    ints = {key: int(value) for key, value in fields.items()}
    if kind == "interval":
        return PredicateInterval(**ints, vc_start=vc, hlc_start=hlc)
    assert kind == "message", kind
    return MessageRecord(**ints, vc_send=vc, hlc_send=hlc)


def _assert_export_round_trips(trace, lines: list[str]) -> None:
    """The export is lossless: its lines read back into exactly the
    trace's records, intervals by process, then messages in send order."""
    records = [iv for ivs in trace.intervals for iv in ivs] + list(trace.messages)
    assert [_read_record(line) for line in lines] == records


def test_write_trace_round_trip_fields():
    trace = generate(SimConfig(n=3, epsilon_app=4, delta=6, alpha=0.2, beta=0.15, horizon=80, seed=16))
    lines = list(trace_records(trace))
    n_intervals = sum(len(p) for p in trace.intervals)
    kinds = [line.split()[0] for line in lines]
    assert kinds.count("kind=interval") == n_intervals
    assert kinds.count("kind=message") == len(trace.messages)
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split())
        assert fields["kind"] in ("interval", "message")
        if fields["kind"] == "interval":
            assert int(fields["end"]) >= int(fields["start"])
    _assert_export_round_trips(trace, lines)


# sha256 of the trace_records export, taken from the generator before its
# stamps became tuples; the export reads back into every record
_PINNED_TRACES = [
    (
        SimConfig(n=5, epsilon_app=10, delta=5, alpha=0.2, beta=0.05, horizon=2000,
                  correlation=PMAJ(), seed=3),
        "710c6eef5ef04c6a1f85dca1ca4f8c1ab0ac2adfa5d02cdd5c6f16feb6a03d1d",
    ),
    (
        SimConfig(n=4, epsilon_app=3, delta=0, alpha=0.3, beta=0.05, horizon=1500, seed=7),
        "a0257871079285aca33b376b7d6ad473ad020371ffa6cc1b4aaeccdd0ec58f92",
    ),
    (
        SimConfig(n=3, epsilon_app=8, delta=4, alpha=0.1, beta=0.02,
                  interval=GeometricLength(0.2), horizon=3000, seed=11),
        "23668487f6b4b8ce944c62e9d2c8974ad74c5c4c517a24511e71b3f1a7f9a79f",
    ),
    (
        SimConfig(n=5, epsilon_app=6, delta=3, alpha=0.2, beta=0.08, interval=FixedLength(3),
                  horizon=2000, correlation=PMA(2, 0.7), seed=5),
        "dd4e03d556e2a65714290ac5d2b12505abd2cac3778da33df5b7112d5bce9813",
    ),
    (
        SimConfig(n=6, epsilon_app=5, delta=2, alpha=0.15, beta=0.1, horizon=2000,
                  correlation=HNMA(), seed=9),
        "e538e4070996757271c045c4cc3b70e1be74699ca55e5913283d0de13bf79a2f",
    ),
    # taken from the per-process step loop, before n=20 ran the kernel
    (
        SimConfig(n=20, epsilon_app=30, delta=3, alpha=0.05, beta=0.03,
                  interval=FixedLength(2), horizon=1500, seed=17),
        "b3880c296f5a15ca08e0b5400bdd0c347fef5b8a0cffcc9a4da7ef48f5c0bb46",
    ),
]


@pytest.mark.parametrize("cfg, records_sha", _PINNED_TRACES, ids=["pmaj", "delta0", "geom", "pma", "hnma", "n20"])
def test_trace_bytes_are_pinned(cfg, records_sha):
    trace = generate(cfg)
    lines = list(trace_records(trace))
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == records_sha
    _assert_export_round_trips(trace, lines)
