"""Clock semantics against brute-force causal closures."""

import pytest
from hypothesis import given, strategies as st

from psml.clocks import hlc_merge, hlc_tick, vc_merge, vc_tick

from helpers import Ordering, TinyExecution, compare, reference_vc_merge


# ---------------------------------------------------------------------------
# vector clocks
# ---------------------------------------------------------------------------


def test_vc_zero_and_local_event():
    vc = (0, 0, 0)
    bumped = vc_tick(vc, 1)
    assert bumped == (0, 1, 0)
    # immutability: the original stamp is untouched
    assert vc == (0, 0, 0)


def test_vc_merge_takes_max_and_ticks():
    merged = vc_merge((2, 0, 1), (1, 3, 0), 0)
    assert merged == (3, 3, 1)


def test_vc_compare_small_cases():
    a, b, c = (1, 0), (1, 1), (0, 1)
    assert compare(a, b) is Ordering.BEFORE
    assert compare(b, a) is Ordering.AFTER
    assert compare(a, c) is Ordering.CONCURRENT
    assert compare(a, (1, 0)) is Ordering.EQUAL


def test_vc_validation():
    """Stamps of different dimension are refused, not truncated."""
    with pytest.raises(ValueError):
        vc_merge((1, 0), (1, 0, 0), 0)
    with pytest.raises(ValueError):
        vc_merge((1, 0, 0), (1, 0), 0)
    with pytest.raises(ValueError):
        compare((1, 0), (1, 0, 0))


@st.composite
def _merge_pairs(draw):
    """A stamp and a message stamp of one dimension in 1..30, the message
    equal to, dominated by, dominating or mixed with the stamp; entries
    reach past 256, beyond CPython's cached small ints."""
    dim = draw(st.integers(1, 30))
    vc = draw(st.lists(st.integers(0, 5_000), min_size=dim, max_size=dim))
    shifts = st.lists(st.integers(0, 600), min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(["equal", "below", "above", "mixed"]))
    if kind == "equal":
        msg = list(vc)
    elif kind == "below":
        msg = [max(x - d, 0) for x, d in zip(vc, draw(shifts))]
    elif kind == "above":
        msg = [x + d for x, d in zip(vc, draw(shifts))]
    else:
        msg = draw(st.lists(st.integers(0, 5_000), min_size=dim, max_size=dim))
    return tuple(vc), tuple(msg)


@given(_merge_pairs())
def test_vc_merge_matches_reference_rule(pair):
    vc, msg = pair
    for owner in range(len(vc)):
        merged = vc_merge(vc, msg, owner)
        assert type(merged) is tuple
        assert merged == reference_vc_merge(vc, msg, owner)
        assert vc_merge(msg, vc, owner) == merged  # the max is symmetric


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=2)
)
def test_vc_compare_antisymmetry(pair):
    a, b = pair
    flipped = {
        Ordering.BEFORE: Ordering.AFTER,
        Ordering.AFTER: Ordering.BEFORE,
        Ordering.CONCURRENT: Ordering.CONCURRENT,
        Ordering.EQUAL: Ordering.EQUAL,
    }
    assert compare(b, a) is flipped[compare(a, b)]
    assert (compare(a, b) is Ordering.EQUAL) == (a == b)


@pytest.mark.parametrize("seed", range(25))
def test_vc_matches_happened_before_closure(seed):
    """compare() must agree with the transitive closure of a random run."""
    run = TinyExecution(n=3, steps=40, seed=seed)
    m = len(run.vcs)
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            rel = compare(run.vcs[a], run.vcs[b])
            if run.hb[a, b]:
                assert rel is Ordering.BEFORE, (a, b)
            elif run.hb[b, a]:
                assert rel is Ordering.AFTER, (a, b)
            else:
                assert rel is Ordering.CONCURRENT, (a, b)


# ---------------------------------------------------------------------------
# hybrid logical clocks
# ---------------------------------------------------------------------------


def test_hlc_advance_cases():
    ts = (5, 2)
    assert hlc_tick(ts, 5) == (5, 3)  # same l: counter bumps
    assert hlc_tick(ts, 3) == (5, 3)  # stale pt: same thing
    assert hlc_tick(ts, 9) == (9, 0)  # fresh l: counter resets


def test_hlc_merge_three_way_split():
    ts = (5, 2)
    assert hlc_merge(ts, (5, 7), 4) == (5, 8)
    assert hlc_merge(ts, (3, 9), 5) == (5, 3)
    assert hlc_merge(ts, (8, 1), 6) == (8, 2)
    assert hlc_merge(ts, (3, 9), 12) == (12, 0)


@pytest.mark.parametrize("seed", range(15))
def test_hlc_causally_sound_and_rides_physical_clock(seed):
    """hb implies strictly smaller stamp; l never lags the local clock."""
    run = TinyExecution(n=3, steps=40, seed=seed)
    m = len(run.vcs)
    for e in range(m):
        assert run.hlcs[e][0] >= run.pts[e]
    for a in range(m):
        for b in range(m):
            if run.hb[a, b]:
                assert run.hlcs[a] < run.hlcs[b]
