"""Detection monitors against the naive full-compare reference."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from psml.clocks import HLCTimestamp, Ordering, VectorClock
from psml.metrics import default_warmup, fpr_experiment, pr_experiment
from psml.monitors import (
    Cut,
    candidate_queues,
    cut_length,
    detect_async,
    detect_partialsync,
    detect_quasi,
    is_eps_consistent,
    is_hb_consistent,
)
from psml.simkernel import PredicateInterval, SimConfig, generate

from helpers import (
    EDGE_CONFIGS,
    brute_async,
    brute_partialsync,
    brute_quasi,
    random_small_config,
)


def _cand(proc, start, end, entries):
    vc = VectorClock(tuple(entries), proc)
    return PredicateInterval(proc, start, end, vc, vc, HLCTimestamp(start, 0))


# ---------------------------------------------------------------------------
# cut primitives
# ---------------------------------------------------------------------------


def test_cut_length_cases():
    a = _cand(0, 5, 7, (1, 0))
    b = _cand(1, 9, 12, (0, 1))
    assert cut_length(Cut((a, b))) == 2  # gap between end 7 and start 9
    c = _cand(1, 6, 6, (0, 1))
    assert cut_length(Cut((a, c))) == 0  # overlap clamps to zero
    assert cut_length(Cut((a,))) == 0


def test_cut_rejects_duplicate_processes():
    a = _cand(0, 1, 1, (1, 0))
    b = _cand(0, 3, 3, (2, 0))
    with pytest.raises(ValueError):
        Cut((a, b))


def test_cut_rejects_empty_candidates():
    with pytest.raises(ValueError, match="at least one candidate"):
        Cut(())


def test_is_eps_consistent_boundary():
    a = _cand(0, 0, 0, (1, 0))
    b = _cand(1, 4, 4, (0, 1))
    cut = Cut((a, b))
    assert cut_length(cut) == 4
    assert is_eps_consistent(cut, 4)
    assert not is_eps_consistent(cut, 3.999)


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
@settings(max_examples=200)
def test_hb_consistency_vector_path_matches_pairwise(tuples):
    """The batched stamp comparison must agree with pairwise compare()
    on cuts of every size."""
    cands = tuple(_cand(i, i, i, entries) for i, entries in enumerate(tuples))
    cut = Cut(cands)
    expected = all(
        cands[i].vc_start.compare(cands[j].vc_start) is Ordering.CONCURRENT
        for i in range(len(cands))
        for j in range(i + 1, len(cands))
    )
    assert is_hb_consistent(cut) == expected


# ---------------------------------------------------------------------------
# queue construction
# ---------------------------------------------------------------------------


def test_candidate_queues_subset_and_errors():
    trace = generate(SimConfig(n=4, epsilon_app=5, beta=0.2, horizon=100, seed=21))
    full = candidate_queues(trace)
    assert len(full) == 4
    # the trace's own interval records, not copies
    assert full == [list(ivs) for ivs in trace.intervals]
    assert all(a is b for q, ivs in zip(full, trace.intervals) for a, b in zip(q, ivs))
    sub = candidate_queues(trace, [2, 0])
    assert [q[0].proc for q in sub if q] == [0, 2]  # sorted process order
    with pytest.raises(ValueError):
        candidate_queues(trace, [])
    with pytest.raises(ValueError):
        candidate_queues(trace, [4])


# ---------------------------------------------------------------------------
# the engine against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(40))
def test_async_monitor_matches_reference(index):
    cfg = random_small_config(index)
    trace = generate(cfg)
    assert detect_async(trace) == brute_async(trace)


@pytest.mark.parametrize("index", range(40, 60))
def test_partialsync_monitor_matches_reference(index):
    cfg = random_small_config(index)
    trace = generate(cfg)
    for eps in (0, cfg.epsilon_app, cfg.epsilon_app + 3):
        assert detect_partialsync(trace, eps) == brute_partialsync(trace, eps)


@pytest.mark.parametrize("index", range(60, 80))
def test_quasi_monitor_matches_reference(index):
    cfg = random_small_config(index)
    trace = generate(cfg)
    assert detect_quasi(trace) == brute_quasi(trace)


@pytest.mark.parametrize("index", range(80, 100))
def test_partialsync_is_length_filtered_async(index):
    """Window acceptance must not disturb the enumeration trajectory."""
    cfg = random_small_config(index)
    trace = generate(cfg)
    full = detect_async(trace)
    for eps in (0, 2, cfg.epsilon_app, math.inf):
        filtered = [c for c in full if cut_length(c) <= eps]
        assert detect_partialsync(trace, eps) == filtered


@pytest.mark.parametrize("index", range(100, 115))
def test_quasi_is_overlap_filtered_async_without_messages(index):
    """With no messages the scalar clocks equal the physical clocks, so
    quasi acceptance reduces to a shared tick."""
    cfg = random_small_config(index)
    cfg = SimConfig(
        n=cfg.n,
        epsilon_app=cfg.epsilon_app,
        delta=cfg.delta,
        alpha=0.0,
        beta=cfg.beta,
        interval=cfg.interval,
        horizon=cfg.horizon,
        seed=cfg.seed,
        advance_prob=cfg.advance_prob,
    )
    trace = generate(cfg)
    full = detect_async(trace)
    overlap = [c for c in full if cut_length(c) == 0]
    assert detect_quasi(trace) == overlap


def test_quasi_cuts_all_have_zero_length_without_messages():
    cfg = SimConfig(n=3, epsilon_app=4, alpha=0.0, beta=0.3, horizon=400, seed=22)
    trace = generate(cfg)
    cuts = detect_quasi(trace)
    assert cuts
    assert all(cut_length(c) == 0 for c in cuts)


def test_monitors_on_empty_queue():
    # a predicate that never fires on some process yields no cuts
    cfg = SimConfig(n=2, epsilon_app=5, beta=0.01, horizon=30, seed=4)
    trace = generate(cfg)
    if all(trace.intervals):
        pytest.skip("seed produced candidates everywhere")
    assert detect_async(trace) == []


def test_partialsync_rejects_bad_window():
    trace = generate(SimConfig(n=2, epsilon_app=5, beta=0.2, horizon=50, seed=3))
    with pytest.raises(ValueError):
        detect_partialsync(trace, -1)
    with pytest.raises(ValueError):
        detect_partialsync(trace, float("nan"))


# ---------------------------------------------------------------------------
# edge configurations: monitors and experiment counts against the references
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(EDGE_CONFIGS, st.integers(0, 6))
def test_monitors_and_counts_match_references_on_edge_configs(cfg, eps_mon):
    res = fpr_experiment(cfg, cfg.epsilon_app)
    trace = res.trace
    assert detect_async(trace) == brute_async(trace)
    for eps in (0, cfg.epsilon_app, math.inf):
        assert detect_partialsync(trace, eps) == brute_partialsync(trace, eps)
    assert detect_quasi(trace) == brute_quasi(trace)

    warm = default_warmup(cfg)

    def past(cuts):
        return [c for c in cuts if min(cand.start for cand in c.candidates) >= warm]

    # fpr counts against the full happens-before check of the reference cuts
    counted = past(brute_async(trace))
    assert res.y == len(counted)
    assert res.y_f == sum(is_eps_consistent(c, cfg.epsilon_app) for c in counted)

    # precision/recall counts against two reference runs classified by length
    pr = pr_experiment(cfg, eps_mon)
    got = past(brute_partialsync(trace, eps_mon))
    real = past(brute_partialsync(trace, cfg.epsilon_app))
    assert pr.detected == len(got)
    assert pr.true_set == len(real)
    assert pr.hits == sum(cut_length(c) <= cfg.epsilon_app for c in got)
