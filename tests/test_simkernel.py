"""Trace generator: determinism, synchrony invariants, and the
schedule-independence of predicate placement."""

import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings

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

from helpers import EDGE_CONFIGS, reference_generate, reference_step_schedule, replay_schedule


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
    cfg = SimConfig(**{"n": 4, "epsilon_app": 5, **kwargs})
    with pytest.raises(ValueError):
        cfg.validate()


def test_numpy_integer_counts_are_accepted():
    """A config of numpy integers generates the trace of the same config
    in Python ints, on every schedule path."""
    for n, eps in ((3, 10), (5, 10), (20, 50)):
        plain = SimConfig(n=n, epsilon_app=eps, delta=4, alpha=0.1, beta=0.1,
                          interval=FixedLength(2), horizon=300, correlation=PMA(1), seed=3)
        wide = SimConfig(n=np.int64(n), epsilon_app=np.int64(eps), delta=np.int64(4), alpha=0.1,
                         beta=0.1, interval=FixedLength(np.int64(2)), horizon=np.int64(300),
                         correlation=PMA(np.int64(1)), seed=np.int64(3))
        assert generate(wide) == generate(plain)


# ---------------------------------------------------------------------------
# truthification
# ---------------------------------------------------------------------------


def test_truthify_blocks_decisions_inside_open_intervals():
    decisions = np.zeros(13, dtype=bool)
    decisions[[2, 5, 6, 9]] = True
    out = truthify(decisions, itertools.repeat(3), horizon=12)
    # the decision at 6 falls inside [5, 7] and must be swallowed
    assert out == [(2, 4), (5, 7), (9, 11)]


def test_truthify_clamps_to_horizon():
    decisions = np.zeros(11, dtype=bool)
    decisions[9] = True
    assert truthify(decisions, itertools.repeat(5), horizon=10) == [(9, 10)]


def test_truthify_back_to_back_intervals_stay_disjoint():
    decisions = np.ones(8, dtype=bool)
    out = truthify(decisions, itertools.repeat(2), horizon=7)
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
        assert got == truthify(dec, itertools.repeat(1), len(dec) - 1), dec
        assert all(type(v) is int for iv in got for v in iv)


def test_records_are_immutable_hashable_field_ordered_tuples():
    """The record contract: fields in a fixed order, no assignment, and
    usable as set and dict keys, with equal records hashing equal."""
    assert PredicateInterval._fields == ("proc", "start", "end", "vc_start", "vc_end", "hlc_start")
    assert MessageRecord._fields == ("sender", "send_pt", "receiver", "receive_pt",
                                     "vc_send", "hlc_send", "vc_receive", "hlc_receive")
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
    assert ind == pma


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
        assert plans[p] == truthify(majority, itertools.repeat(2), cfg.horizon)


def test_pma_group_untouched_by_followers():
    kw = dict(n=6, epsilon_app=5, beta=0.1, horizon=2000, seed=7)
    ind = predicate_intervals(SimConfig(**kw, correlation=Independent()))
    pma = predicate_intervals(SimConfig(**kw, correlation=PMA(group1=3, p_dep=0.7)))
    assert ind[:3] == pma[:3]


def test_pmaj_leader_matches_independent():
    kw = dict(n=4, epsilon_app=5, beta=0.1, horizon=2000, seed=8)
    ind = predicate_intervals(SimConfig(**kw, correlation=Independent()))
    pmaj = predicate_intervals(SimConfig(**kw, correlation=PMAJ()))
    assert ind[0] == pmaj[0]


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
        assert trace == reference_generate(cfg), overrides
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


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(EDGE_CONFIGS)
def test_generate_equals_reference_generator(cfg):
    assert generate(cfg) == reference_generate(cfg)


class _Coins:
    """A scheduler stream whose next n draws are a fixed row: 0.0 for a
    won coin, 1.0 for a lost one."""

    def __init__(self, won: list[bool]):
        self.row = np.array([0.0 if w else 1.0 for w in won])

    def random(self, n: int) -> np.ndarray:
        assert n == len(self.row)
        return self.row


@pytest.mark.parametrize("n, eps", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_table_transition_matches_reference_step(n, eps):
    """Every offset state and every coin row: the step the offset table
    memoises moves the processes the reference scheduler moves."""
    horizon = 1000  # far from every clock, as in the table's region
    states = [s for s in itertools.product(range(eps + 1), repeat=n) if min(s) == 0]
    assert len(states) == (eps + 1) ** n - eps ** n
    for offsets in states:
        for row in range(1 << n):
            won = [bool(row >> p & 1) for p in range(n)]
            after, rise, moved = simkernel._transition(offsets, row, eps)
            for lo in (0, 37):
                clocks = [lo + o for o in offsets]
                expect = reference_step_schedule(clocks, eps, horizon, _Coins(won))
                assert [p for p in range(n) if moved >> p & 1] == expect, (offsets, row)
            stepped = [o + (p in expect) for p, o in enumerate(offsets)]
            assert rise == min(stepped)
            assert after == tuple(o - rise for o in stepped)
            assert max(after) <= eps


def test_schedule_path_serves_each_workload():
    """The path each preset and benchmark shape runs its schedule on, at
    every eps_app its grid lists."""
    hlc, partial = PRESETS["fig-hlc"]["base"], PRESETS["table-partial"]["base"]
    fpr, ad, pr = PRESETS["fig-fpr-n20"], PRESETS["fig-ad-independence"]["base"], PRESETS["fig-pr-diagram"]
    cells = [
        (hlc, [hlc["epsilon_app"]], "table"),
        ({"n": 3, "horizon": 300_000}, [10], "table"),  # few-long
        (partial, [partial["epsilon_app"]], "loop"),
        (fpr["base"], fpr["grid"]["epsilon_app"], "kernel"),
        (ad, [ad["epsilon_app"]], "kernel"),
        (pr["base"], pr["eps_app"], "kernel"),
        ({"n": 20, "horizon": 100_000}, [200], "kernel"),  # sparse-ref
        ({"n": 20, "horizon": 20_000}, [50], "kernel"),  # dense-corr
    ]
    for base, eps_values, path in cells:
        for eps in eps_values:
            assert simkernel._schedule_path(base["n"], eps, base["horizon"]) == path, (base, eps)


def _kernel_run(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reflection kernel's run from zero clocks, one row per step:
    the clocks before the step, the processes it moves and whether it
    was forced."""
    rng = simkernel._stream(cfg.seed, simkernel._S_SCHED)
    before, moved, forced = [], [], []
    for seg, p in simkernel._reflected_schedule([0] * cfg.n, cfg.epsilon_app, cfg.horizon, rng):
        before.append(seg[:, :-1].T)
        moved.append((seg[:, 1:] != seg[:, :-1]).T)
        forced.append(np.zeros(seg.shape[1] - 1, dtype=bool))
        if p >= 0:
            before.append(seg[:, -1:].T)
            moved.append(np.arange(cfg.n)[None, :] == p)
            forced.append(np.ones(1, dtype=bool))
    return np.vstack(before), np.vstack(moved), np.concatenate(forced)


# a cut of the grid n in {2, 4, 20, 50}, eps in {1, 3, 50, 200}, horizon in
# {300, 2500}, seeds 0 and 7, which passed in full when the kernel was
# written.  The full grid is slow: at eps 1 the caps bind on most steps, so
# a block takes about as many passes as it has rows (5 s a config at n=50,
# horizon 2500; the switch rule never picks the kernel there).  Kept:
# horizon 300 (about one coin block, mostly horizon tail) at both seeds for
# eps >= 3 and at seed 0 for eps 1 and n <= 20, and several blocks at
# horizon 2500 where the rule picks it.
_KERNEL_GRID = [
    (n, eps, horizon, seed)
    for n, eps, horizon, seed in itertools.product((2, 4, 20, 50), (1, 3, 50, 200), (300, 2_500), (0, 7))
    if (horizon == 300 and (eps > 1 or (seed == 0 and n <= 20)))
    or (horizon == 2_500 and seed == 0 and n >= 20 and eps >= 50)
]


@pytest.mark.parametrize("n", [2, 4, 20, 50])
def test_reflection_kernel_matches_reference_schedule(n):
    """The kernel alone, whatever the rule that picks it: every step's
    clocks, movers and forced flag equal the reference scheduler's."""
    for _, eps, horizon, seed in (g for g in _KERNEL_GRID if g[0] == n):
        cfg = SimConfig(n=n, epsilon_app=eps, horizon=horizon, seed=seed)
        steps, final = replay_schedule(cfg)
        clocks = np.array([c for c, _ in steps])
        moved = np.zeros(clocks.shape, dtype=bool)
        for s, (_, advancing) in enumerate(steps):
            moved[s, list(advancing)] = True
        # a step is forced when no coin winner is below the cap
        coins = simkernel._stream(seed, simkernel._S_SCHED).random(clocks.shape) < 0.5
        cap = np.minimum(clocks.min(axis=1) + eps, horizon)[:, None]
        forced = ~(coins & (clocks < cap)).any(axis=1)
        got = _kernel_run(cfg)
        assert np.array_equal(got[0], clocks), cfg
        assert np.array_equal(got[1], moved), cfg
        assert np.array_equal(got[2], forced), cfg
        assert tuple(got[0][-1] + got[1][-1]) == final


# a kernel-path case in which a process receives on the tick of one of its
# interval ends or sends: its event body runs the inbox and its local-work
# plan at one advance
_COINCIDING = SimConfig(n=20, epsilon_app=50, delta=5, alpha=0.1, beta=0.1,
                        interval=GeometricLength(0.3), horizon=3_000, correlation=PMAJ(), seed=16)


@pytest.mark.parametrize(
    "cfg",
    [
        # the few-long shape, where every table entry is used many times
        SimConfig(n=3, epsilon_app=10, delta=100, alpha=0.001, beta=0.005,
                  interval=FixedLength(30), horizon=20_000, seed=3),
        # a message on every tick, delivered in the step it is due
        SimConfig(n=3, epsilon_app=4, delta=0, alpha=1.0, beta=0.2,
                  interval=FixedLength(3), horizon=2_000, seed=4),
        SimConfig(n=3, epsilon_app=4, delta=0, alpha=1.0, beta=0.2,
                  horizon=2_000, seed=5),
        SimConfig(n=2, epsilon_app=200, delta=7, alpha=0.05, beta=0.02,
                  interval=GeometricLength(0.1), horizon=8_000, seed=6),
        # the run is all horizon tail, or leaves the table after one tick
        SimConfig(n=3, epsilon_app=10, delta=1, alpha=0.3, beta=0.3, horizon=10, seed=7),
        SimConfig(n=3, epsilon_app=10, delta=1, alpha=0.3, beta=0.3, horizon=11, seed=7),
        SimConfig(n=4, epsilon_app=6, delta=0, alpha=0.5, beta=0.3, horizon=7, seed=8),
        # eps_app 0: every step is forced, so the processes move one at a
        # time; messages due in the step they are sent
        SimConfig(n=20, epsilon_app=0, delta=0, alpha=0.1, beta=0.05,
                  interval=FixedLength(3), horizon=2_000, seed=9),
        # reflection kernel: a message on every tick, taken in the step it is
        # sent by receivers above and below the sender
        SimConfig(n=20, epsilon_app=12, delta=0, alpha=1.0, beta=0.05, horizon=800, seed=10),
        SimConfig(n=50, epsilon_app=10, delta=0, alpha=1.0, beta=0.05, horizon=200, seed=11),
        # all horizon tail
        SimConfig(n=20, epsilon_app=30, delta=1, alpha=0.3, beta=0.3, horizon=30, seed=12),
        SimConfig(n=50, epsilon_app=40, delta=0, alpha=0.3, beta=0.3, horizon=25, seed=13),
        _COINCIDING,
        SimConfig(n=50, epsilon_app=15, delta=3, alpha=0.05, beta=0.1, interval=GeometricLength(0.5),
                  horizon=600, correlation=PMAJ(), seed=17),
    ],
    ids=["few-long-20k", "dense-fixed3", "dense-drift", "n2-eps200",
         "horizon-eps", "horizon-eps+1", "n4-horizon-eps+1", "n20-eps0",
         "n20-delta0-alpha1", "n50-delta0-alpha1", "n20-horizon-eps", "n50-horizon-eps",
         "n20-pmaj-geom", "n50-pmaj-geom"],
)
def test_generate_equals_reference_at_long_horizons(cfg):
    if cfg.n >= 20 and cfg.epsilon_app:  # these cases are there for the kernel
        assert simkernel._schedule_path(cfg.n, cfg.epsilon_app, cfg.horizon) == "kernel"
    trace = generate(cfg)
    assert trace == reference_generate(cfg)
    if cfg is _COINCIDING:
        received = {(m.receiver, m.receive_pt) for m in trace.messages}
        assert received & {(iv.proc, iv.end) for ivs in trace.intervals for iv in ivs}
        assert received & {(m.sender, m.send_pt) for m in trace.messages}


# configs for every schedule driver; _schedule_path picks the table for
# the first, the loop for the second and the kernel for the third
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
]


def _driver_domain(path: str, cfg: SimConfig) -> bool:
    """Where a driver runs: the table needs 0 < eps_app < horizon and
    one 2**n-entry row per offset state, the kernel eps_app >= 1."""
    eps = cfg.epsilon_app
    return {"table": cfg.n <= 5 and 0 < eps < cfg.horizon, "kernel": eps >= 1, "loop": True}[path]


@pytest.mark.parametrize("cfg", _DRIVER_CONFIGS, ids=[f"n{c.n}-eps{c.epsilon_app}-h{c.horizon}" for c in _DRIVER_CONFIGS])
def test_every_driver_matches_reference_in_its_domain(cfg):
    """Every schedule driver, on each config in its domain, whichever one
    ``_schedule_path`` picks there, drives the event state to the
    reference trace."""
    expect = reference_generate(cfg)
    for path, driver in simkernel._DRIVERS.items():
        if _driver_domain(path, cfg):
            events, watch, finish = simkernel._event_state(cfg)
            rng = simkernel._stream(cfg.seed, simkernel._S_SCHED)
            assert finish(driver(events, watch, cfg.epsilon_app, cfg.horizon, rng)) == expect, path


def test_driver_configs_reach_paths_the_rule_does_not_pick():
    picked = [simkernel._schedule_path(c.n, c.epsilon_app, c.horizon) for c in _DRIVER_CONFIGS]
    assert picked[:3] == ["table", "loop", "kernel"]
    for path in simkernel._DRIVERS:
        assert any(p != path and _driver_domain(path, c) for p, c in zip(picked, _DRIVER_CONFIGS)), path


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
    assert simkernel._schedule_path(cfg.n, 0, cfg.horizon) == "loop"


def _generate_lines(cfg: SimConfig) -> int:
    """Lines ``generate`` and its schedule drivers run in their own frames
    (not in the event bodies)."""
    codes = {f.__code__ for f in (simkernel.generate, *simkernel._DRIVERS.values())}
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


def test_table_path_walks_movers_only_near_a_watch():
    """Events cost Python per process only at steps that can reach a
    watch tick: a sparse-event run executes about as many lines of the
    step loop as the same schedule with no events at all."""
    shape = dict(n=3, epsilon_app=10, delta=100, interval=FixedLength(30),
                 horizon=20_000, seed=3)
    quiet = _generate_lines(SimConfig(**shape, alpha=0.0, beta=1e-12))
    busy = _generate_lines(SimConfig(**shape, alpha=0.001, beta=0.005))
    assert busy < 1.25 * quiet, (busy, quiet)


def test_reflection_kernel_pays_per_event_not_per_advance():
    """At n=20 the kernel runs Python per segment and per event body: a
    run with almost no events executes far fewer lines of ``generate``
    than it takes scheduler steps, and events add a few lines each."""
    shape = dict(n=20, epsilon_app=200, delta=100, horizon=20_000, seed=3)
    quiet_cfg = SimConfig(**shape, alpha=0.0, beta=1e-12)
    busy_cfg = SimConfig(**shape, alpha=0.001, beta=0.005)
    assert simkernel._schedule_path(20, 200, shape["horizon"]) == "kernel"
    quiet, busy = _generate_lines(quiet_cfg), _generate_lines(busy_cfg)
    # every step moves a clock by at most one, so there are at least
    # horizon steps
    assert quiet < shape["horizon"] / 10, quiet
    trace = generate(busy_cfg)
    events = sum(map(len, trace.intervals)) + len(trace.messages)
    assert events > 1_000
    assert busy - quiet < 20 * events, (busy, quiet, events)


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
    trace = generate(BASE)
    assert trace.messages
    for m in trace.messages:
        assert m.sender != m.receiver
        assert m.receive_pt >= m.send_pt + BASE.delta
        # the receive stamp knows the send stamp
        assert all(r >= s for r, s in zip(m.vc_receive, m.vc_send))
        assert m.hlc_receive > m.hlc_send


@pytest.mark.parametrize("delta", [0, 6])
@pytest.mark.parametrize("n", [3, 20])
def test_messages_dropped_at_the_horizon(n, delta):
    """Every tick sends (alpha=1), so some sends fall within ``delta`` of
    the horizon or go to a receiver that has already stopped.  Those are
    dropped; the delivered rest come out in send order."""
    cfg = SimConfig(n=n, epsilon_app=10, delta=delta, alpha=1.0, beta=0.1, horizon=120, seed=5)
    # n=3: the offset table, then the step loop for the horizon tail
    assert simkernel._schedule_path(n, 10, cfg.horizon) == ("table" if n == 3 else "kernel")
    trace = generate(cfg)
    assert trace == reference_generate(cfg)
    assert 0 < len(trace.messages) < n * cfg.horizon  # one send per process tick
    assert all(m.receive_pt <= cfg.horizon for m in trace.messages)
    # send order: no listed message's send happened before an earlier one's.
    # Message j's send precedes message i's iff i's stamp learned j's count
    # at j's sender.
    vcs = np.array([m.vc_send for m in trace.messages])
    senders = np.array([m.sender for m in trace.messages])
    own = vcs[np.arange(len(vcs)), senders]
    assert not np.triu(vcs[:, senders] >= own, 1).any()


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
            # end snapshot incorporates everything the start knew
            assert all(e >= s for e, s in zip(iv.vc_end, iv.vc_start))


def test_placement_ignores_traffic_and_scheduling():
    """Interval placement must depend only on seed, beta, interval,
    correlation, n, and horizon."""
    kw = dict(n=4, epsilon_app=5, beta=0.1, horizon=500, seed=14)
    reference = predicate_intervals(SimConfig(**kw))
    for overrides in (
        {"delta": 0},
        {"delta": 40},
        {"alpha": 0.0},
        {"alpha": 0.9},
        {"epsilon_app": 0},
    ):
        assert predicate_intervals(SimConfig(**{**kw, **overrides})) == reference
    # and the generated trace carries exactly the planned intervals
    trace = generate(SimConfig(**kw, alpha=0.5, delta=3))
    got = [[(iv.start, iv.end) for iv in plan] for plan in trace.intervals]
    assert got == reference


def test_growing_the_system_keeps_existing_streams():
    small = predicate_intervals(SimConfig(n=3, epsilon_app=5, beta=0.1, horizon=400, seed=15))
    large = predicate_intervals(SimConfig(n=5, epsilon_app=5, beta=0.1, horizon=400, seed=15))
    assert large[:3] == small


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


# sha256 of the trace_records export, and of every record's fields with
# stamps as tuples (the export leaves out vc_end and the receive stamps);
# both taken from the generator before its stamps became tuples
_PINNED_TRACES = [
    (
        SimConfig(n=5, epsilon_app=10, delta=5, alpha=0.2, beta=0.05, horizon=2000,
                  correlation=PMAJ(), seed=3),
        "710c6eef5ef04c6a1f85dca1ca4f8c1ab0ac2adfa5d02cdd5c6f16feb6a03d1d",
        "8e7c6feac51d47ce4999ae94aed04d6c79d2fd4c9d70ffd72ff092ec83b71549",
    ),
    (
        SimConfig(n=4, epsilon_app=3, delta=0, alpha=0.3, beta=0.05, horizon=1500, seed=7),
        "a0257871079285aca33b376b7d6ad473ad020371ffa6cc1b4aaeccdd0ec58f92",
        "a7a8a527c851dc81d46f77bc7e948aa362b92ea249f60dc90b5ffd6a1aaa5ee9",
    ),
    (
        SimConfig(n=3, epsilon_app=8, delta=4, alpha=0.1, beta=0.02,
                  interval=GeometricLength(0.2), horizon=3000, seed=11),
        "23668487f6b4b8ce944c62e9d2c8974ad74c5c4c517a24511e71b3f1a7f9a79f",
        "a822c3d71d3f3483206cf40aa870aa309bc671fee0040aaa2f1bc90abb0839af",
    ),
    (
        SimConfig(n=5, epsilon_app=6, delta=3, alpha=0.2, beta=0.08, interval=FixedLength(3),
                  horizon=2000, correlation=PMA(2, 0.7), seed=5),
        "dd4e03d556e2a65714290ac5d2b12505abd2cac3778da33df5b7112d5bce9813",
        "688520311ab344d5e25673c20e0bb27c5ee9e871c7ed182c0a12cc2e441ba851",
    ),
    (
        SimConfig(n=6, epsilon_app=5, delta=2, alpha=0.15, beta=0.1, horizon=2000,
                  correlation=HNMA(), seed=9),
        "e538e4070996757271c045c4cc3b70e1be74699ca55e5913283d0de13bf79a2f",
        "3e95a71f178a84e77cb1bd9be851f52a36c66d3d8161aa92d2b731478a20d05f",
    ),
    # taken from the per-process step loop, before n=20 ran the kernel
    (
        SimConfig(n=20, epsilon_app=30, delta=3, alpha=0.05, beta=0.03,
                  interval=FixedLength(2), horizon=1500, seed=17),
        "b3880c296f5a15ca08e0b5400bdd0c347fef5b8a0cffcc9a4da7ef48f5c0bb46",
        "0219df8cfcba91a2d8435691f118857356ba08092150422fe0eaaa355cfd3206",
    ),
]


@pytest.mark.parametrize("cfg, records_sha, stamps_sha", _PINNED_TRACES, ids=["pmaj", "delta0", "geom", "pma", "hnma", "n20"])
def test_trace_bytes_are_pinned(cfg, records_sha, stamps_sha):
    trace = generate(cfg)
    text = "".join(line + "\n" for line in trace_records(trace))
    assert hashlib.sha256(text.encode()).hexdigest() == records_sha
    fields = [
        (iv.proc, iv.start, iv.end, iv.vc_start, iv.vc_end, iv.hlc_start)
        for ivs in trace.intervals
        for iv in ivs
    ] + [
        (m.sender, m.send_pt, m.receiver, m.receive_pt, m.vc_send, m.hlc_send, m.vc_receive, m.hlc_receive)
        for m in trace.messages
    ]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == stamps_sha
