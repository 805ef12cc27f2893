"""Detection monitors against the naive full-compare reference."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from psml import monitors
from psml.metrics import _counted_lengths, _pr_counts, default_warmup, fpr_experiment
from psml.monitors import (
    candidate_queues,
    cut_length,
    detect_async,
    detect_partialsync,
    detect_quasi,
    is_eps_consistent,
    is_hb_consistent,
)
from psml.simkernel import (
    HNMA,
    PMAJ,
    FixedLength,
    GeometricLength,
    Independent,
    PredicateInterval,
    SimConfig,
    generate,
)

from helpers import (
    EDGE_CONFIGS,
    Ordering,
    brute_async,
    brute_partialsync,
    brute_quasi,
    compare,
    past_warmup,
    random_small_config,
    reference_counted_lengths,
    shares_tick,
    stepwise_detect,
)


def _cand(proc, start, end, entries):
    return PredicateInterval(proc, start, end, tuple(entries), (start, 0))


# ---------------------------------------------------------------------------
# cut primitives
# ---------------------------------------------------------------------------


def test_cut_length_cases():
    a = _cand(0, 5, 7, (1, 0))
    b = _cand(1, 9, 12, (0, 1))
    assert cut_length((a, b)) == 2  # gap between end 7 and start 9
    c = _cand(1, 6, 6, (0, 1))
    assert cut_length((a, c)) == 0  # overlap clamps to zero
    assert cut_length((a,)) == 0


def test_is_eps_consistent_boundary():
    a = _cand(0, 0, 0, (1, 0))
    b = _cand(1, 4, 4, (0, 1))
    cut = (a, b)
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
    """The all-pairs stamp comparison must agree with pairwise compare()
    on cuts of every size."""
    cands = tuple(_cand(i, i, i, entries) for i, entries in enumerate(tuples))
    expected = all(
        compare(cands[i].vc_start, cands[j].vc_start) is Ordering.CONCURRENT
        for i in range(len(cands))
        for j in range(i + 1, len(cands))
    )
    assert is_hb_consistent(cands) == expected


# ---------------------------------------------------------------------------
# queue construction
# ---------------------------------------------------------------------------


def test_candidate_queues_subset_and_errors():
    trace = generate(SimConfig(n=4, epsilon_app=5, beta=0.2, horizon=100, seed=21))
    full = candidate_queues(trace)
    assert len(full) == 4
    # the trace's own interval records, not copies
    assert full == list(trace.intervals)
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
    quasi acceptance reduces to a shared tick; with the config's own
    traffic it still does, because no message arrives before its send
    tick."""
    base = random_small_config(index)
    for cfg in (dataclasses.replace(base, alpha=0.0), base):
        trace = generate(cfg)
        full = detect_async(trace)
        overlap = [c for c in full if cut_length(c) == 0]
        assert detect_quasi(trace) == overlap
        assert [c for c in full if shares_tick(c)] == overlap


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


def test_windowed_monitors_hold_one_engine_length_at_a_time(monkeypatch):
    """The window filter takes each length off as its cut comes, so the
    engine's length list never holds more than the current cut's."""
    engine, held = monitors._detect, []

    def recording(queues, lengths=None):
        for cut in engine(queues, lengths):
            held.append(len(lengths))
            yield cut

    monkeypatch.setattr(monitors, "_detect", recording)
    trace = generate(SimConfig(n=4, epsilon_app=10, beta=0.2, horizon=2_000, seed=3))
    for detect in (lambda: detect_partialsync(trace, 5), lambda: detect_quasi(trace)):
        held.clear()
        assert detect()
        assert len(held) > 1 and max(held) == 1


def test_partialsync_rejects_bad_window():
    trace = generate(SimConfig(n=2, epsilon_app=5, beta=0.2, horizon=50, seed=3))
    with pytest.raises(ValueError):
        detect_partialsync(trace, -1)
    with pytest.raises(ValueError):
        detect_partialsync(trace, float("nan"))


# mid-size traces for the learned-nothing shortcut: no messages (no merge
# step after the first cut learns anything), reference and dense traffic,
# and a message every tick with same-step delivery (nearly every step does;
# denser predicates keep its concurrent cuts in the thousands)
_TRAFFIC = [(0.0, 10, 0.1), (0.001, 100, 0.1), (0.05, 10, 0.1), (1.0, 0, 0.5)]
_STEPWISE_CONFIGS = [
    SimConfig(n=n, epsilon_app=eps, alpha=alpha, delta=delta, beta=beta,
              interval=interval, correlation=corr, horizon=horizon, seed=seed)
    for seed, ((n, eps, horizon, interval), (alpha, delta, beta), corr) in enumerate(
        itertools.product(
            [(8, 20, 4_000, GeometricLength(0.3)), (20, 40, 2_000, FixedLength(1))],
            _TRAFFIC,
            [Independent(), PMAJ(), HNMA()],
        )
    )
]


def _learned_steps(cuts):
    """Successive cuts in which a changed head's foreign stamp entries
    grew: the merge steps that must re-enter the prune test."""
    return sum(
        any(a is not b and sum(b.vc_start) - b.vc_start[b.proc] > sum(a.vc_start) - a.vc_start[a.proc]
            for a, b in zip(prev, cut))
        for prev, cut in zip(cuts, cuts[1:])
    )


@pytest.mark.parametrize(
    "cfg", _STEPWISE_CONFIGS,
    ids=[f"n{c.n}-a{c.alpha}-{type(c.correlation).__name__}" for c in _STEPWISE_CONFIGS],
)
def test_monitors_match_stepwise_engine_on_mid_size_traces(cfg):
    """Skipping the prune test on merge steps whose new head learned
    nothing changes no cut and no order, on the full process set and on
    a subset; and where prunes fire, the engine's running-maximum length
    rule measures every cut as cut_length does."""
    trace = generate(cfg)
    for procs in (None, range(1, cfg.n, 3)):
        slow = list(stepwise_detect(candidate_queues(trace, procs)))
        lengths = []
        assert detect_async(trace, procs, lengths=lengths) == slow
        assert lengths == [cut_length(c) for c in slow]
        for eps in (0, cfg.epsilon_app):
            assert detect_partialsync(trace, eps, procs) == [c for c in slow if cut_length(c) <= eps]
        assert detect_quasi(trace, procs) == [c for c in slow if shares_tick(c)]
    cuts = detect_async(trace)
    assert len(cuts) > 100
    learned = _learned_steps(cuts)
    if cfg.alpha == 0:
        assert learned == 0
    elif cfg.alpha == 1:
        assert learned > len(cuts) // 2


# ---------------------------------------------------------------------------
# edge configurations: monitors and experiment counts against the references
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(EDGE_CONFIGS, st.integers(0, 6), st.data())
def test_monitors_and_counts_match_references_on_edge_configs(cfg, eps_mon, data):
    trace = generate(cfg)
    # every process, then a non-empty subset: the path of p-of-n conjunctions
    subset = data.draw(st.lists(st.integers(0, cfg.n - 1), min_size=1, unique=True).map(sorted))
    for procs in (None, subset):
        lengths = []
        cuts = detect_async(trace, procs, lengths=lengths)
        assert cuts == brute_async(trace, procs)
        assert lengths == [cut_length(c) for c in cuts]
        for eps in (0, cfg.epsilon_app, math.inf):
            kept = detect_partialsync(trace, eps, procs)
            assert kept == brute_partialsync(trace, eps, procs)
            assert kept == [c for c in cuts if cut_length(c) <= eps]
        quasi = detect_quasi(trace, procs)
        assert quasi == brute_quasi(trace, procs)
        assert quasi == [c for c in cuts if cut_length(c) == 0]

    # the experiments skip the warmup prefix by bisection: at the default
    # and at every edge of the horizon their counts equal the per-cut rule
    every = brute_async(trace)
    windowed = brute_partialsync(trace, eps_mon)
    consistent = brute_partialsync(trace, cfg.epsilon_app)
    h = cfg.horizon
    for warmup in (None, 0, 1, h // 2, h, h + 1):
        warm = default_warmup(cfg) if warmup is None else warmup
        assert _counted_lengths(trace, warm) == reference_counted_lengths(trace, warm)

        # fpr counts against the full happens-before check of the reference cuts
        res = fpr_experiment(cfg, cfg.epsilon_app, warmup)
        counted = [c for c in every if past_warmup(c, warm)]
        assert res.y == len(counted)
        assert res.y_f == sum(is_eps_consistent(c, cfg.epsilon_app) for c in counted)

        # precision/recall counts against two reference runs classified by length
        detected, true_set, hits = _pr_counts(cfg, [eps_mon], warmup)[0]
        got = [c for c in windowed if past_warmup(c, warm)]
        real = [c for c in consistent if past_warmup(c, warm)]
        assert detected == len(got)
        assert true_set == len(real)
        assert hits == sum(cut_length(c) <= cfg.epsilon_app for c in got)


@given(EDGE_CONFIGS, st.integers(0, 6))
def test_earliest_start_never_falls_along_the_enumeration(cfg, eps_mon):
    """The invariant the warmup bisection rests on: heads only advance,
    so a cut's minimum start is nondecreasing in emission order."""
    trace = generate(cfg)
    for cuts in (detect_async(trace), detect_partialsync(trace, eps_mon)):
        firsts = [min(c.start for c in cut) for cut in cuts]
        assert firsts == sorted(firsts)
