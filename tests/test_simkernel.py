"""Trace generator: determinism, synchrony invariants, and the
schedule-independence of predicate placement."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from psml import simkernel
from psml.simkernel import (
    HNMA,
    PMA,
    PMAJ,
    FixedLength,
    GeometricLength,
    Independent,
    PointLength,
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
        {"advance_prob": 0.0},
        {"interval": FixedLength(0)},
        {"interval": GeometricLength(0.0)},
        {"correlation": PMA(group1=4)},
        {"correlation": PMA(group1=2, p_dep=1.2)},
    ],
)
def test_validate_rejects(kwargs):
    cfg = SimConfig(**{"n": 4, "epsilon_app": 5, **kwargs})
    with pytest.raises(ValueError):
        cfg.validate()


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


def _point_decisions(cfg: SimConfig) -> np.ndarray:
    """Per-tick truth decisions, read off the interval starts: under
    point lengths every decision opens its own interval."""
    assert cfg.interval == PointLength()
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
    assert reference_step_schedule([3, 3, 3], 0, 0.5, 10, rng) == [0, 1, 2]
    assert reference_step_schedule([10, 3, 3], 0, 0.5, 10, rng) == [1, 2]


def test_step_schedule_always_progresses():
    rng = np.random.default_rng(0)
    for _ in range(200):
        picked = reference_step_schedule([4, 2, 7], 5, 0.5, 10, rng)
        assert picked
        assert all(p in (0, 1, 2) for p in picked)


def test_step_schedule_respects_drift_cap():
    rng = np.random.default_rng(1)
    clocks = [5, 0, 3]
    for _ in range(500):
        picked = reference_step_schedule(clocks, 5, 0.9, 100, rng)
        assert 0 not in picked or clocks[0] < min(clocks) + 5


def test_generated_spread_never_exceeds_epsilon():
    kw = dict(n=3, epsilon_app=4, delta=5, alpha=0.2, beta=0.1, horizon=120, seed=11)
    edges = ({"epsilon_app": 0}, {"epsilon_app": 1}, {}, {"delta": 0}, {"alpha": 1.0},
             {"n": 2}, {"horizon": 1}, {"advance_prob": 1.0},
             {"delta": 0, "alpha": 1.0, "epsilon_app": 0, "beta": 1.0},
             {"n": 6, "correlation": PMA(2), "interval": FixedLength(3)},
             {"n": 5, "correlation": PMAJ(), "interval": GeometricLength(0.4)})
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
        "advance_prob": cfg.advance_prob,
    }


def test_messages_respect_delivery_rule():
    trace = generate(BASE)
    assert trace.messages
    for m in trace.messages:
        assert m.sender != m.receiver
        assert m.receive_pt >= m.send_pt + BASE.delta
        # the receive stamp knows the send stamp
        assert all(
            r >= s for r, s in zip(m.vc_receive.entries, m.vc_send.entries)
        )
        assert m.hlc_receive > m.hlc_send


def test_alpha_zero_means_no_messages():
    cfg = SimConfig(n=3, epsilon_app=5, alpha=0.0, beta=0.1, horizon=200, seed=13)
    assert generate(cfg).messages == ()


def test_interval_stamps_are_causal_events():
    trace = generate(BASE)
    for plan in trace.intervals:
        for prev, cur in zip(plan, plan[1:]):
            assert prev.end < cur.start
            # later interval's start stamp dominates the earlier one's
            assert cur.vc_start.entries[cur.proc] > prev.vc_start.entries[prev.proc]
        for iv in plan:
            assert iv.start <= iv.end
            # end snapshot incorporates everything the start knew
            assert all(
                e >= s for e, s in zip(iv.vc_end.entries, iv.vc_start.entries)
            )


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
        {"advance_prob": 0.2},
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
