"""Clock semantics against brute-force causal closures."""

import pytest
from hypothesis import given, strategies as st

from psml.clocks import HLCTimestamp, VectorClock

from helpers import Ordering, TinyExecution, compare


# ---------------------------------------------------------------------------
# vector clocks
# ---------------------------------------------------------------------------


def test_vc_zero_and_local_event():
    vc = VectorClock.zero(3, 1)
    assert vc.entries == (0, 0, 0)
    bumped = vc.local_event()
    assert bumped.entries == (0, 1, 0)
    assert bumped.owner == 1
    # immutability: the original stamp is untouched
    assert vc.entries == (0, 0, 0)


def test_vc_receive_merges_and_ticks():
    a = VectorClock((2, 0, 1), 0)
    b = VectorClock((1, 3, 0), 1)
    merged = a.receive(b)
    assert merged.entries == (3, 3, 1)
    assert merged.owner == 0


def test_vc_compare_small_cases():
    a = VectorClock((1, 0), 0)
    b = VectorClock((1, 1), 1)
    c = VectorClock((0, 1), 1)
    assert compare(a, b) is Ordering.BEFORE
    assert compare(b, a) is Ordering.AFTER
    assert compare(a, c) is Ordering.CONCURRENT
    assert compare(a, VectorClock((1, 0), 1)) is Ordering.EQUAL


def test_vc_validation():
    with pytest.raises(ValueError):
        VectorClock((), 0)
    with pytest.raises(ValueError):
        VectorClock((1, 2), 2)
    with pytest.raises(ValueError):
        VectorClock((-1, 0), 0)
    with pytest.raises(ValueError):
        compare(VectorClock((1, 0), 0), VectorClock((1, 0, 0), 0))


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=2)
)
def test_vc_compare_antisymmetry(pair):
    a = VectorClock(pair[0], 0)
    b = VectorClock(pair[1], 1)
    flipped = {
        Ordering.BEFORE: Ordering.AFTER,
        Ordering.AFTER: Ordering.BEFORE,
        Ordering.CONCURRENT: Ordering.CONCURRENT,
        Ordering.EQUAL: Ordering.EQUAL,
    }
    assert compare(b, a) is flipped[compare(a, b)]
    assert (compare(a, b) is Ordering.EQUAL) == (a.entries == b.entries)


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
    ts = HLCTimestamp(5, 2)
    assert ts.advance(5) == HLCTimestamp(5, 3)  # same l: counter bumps
    assert ts.advance(3) == HLCTimestamp(5, 3)  # stale pt: same thing
    assert ts.advance(9) == HLCTimestamp(9, 0)  # fresh l: counter resets


def test_hlc_receive_three_way_split():
    ts = HLCTimestamp(5, 2)
    assert ts.receive(HLCTimestamp(5, 7), 4) == HLCTimestamp(5, 8)
    assert ts.receive(HLCTimestamp(3, 9), 5) == HLCTimestamp(5, 3)
    assert ts.receive(HLCTimestamp(8, 1), 6) == HLCTimestamp(8, 2)
    assert ts.receive(HLCTimestamp(3, 9), 12) == HLCTimestamp(12, 0)


def test_hlc_ordering_is_lexicographic():
    assert HLCTimestamp(3, 9) < HLCTimestamp(4, 0)
    assert HLCTimestamp(4, 1) < HLCTimestamp(4, 2)


def test_hlc_validation():
    with pytest.raises(ValueError):
        HLCTimestamp(-1, 0)
    with pytest.raises(ValueError):
        HLCTimestamp(0, -1)


@pytest.mark.parametrize("seed", range(15))
def test_hlc_causally_sound_and_rides_physical_clock(seed):
    """hb implies strictly smaller stamp; l never lags the local clock."""
    run = TinyExecution(n=3, steps=40, seed=seed)
    m = len(run.vcs)
    for e in range(m):
        assert run.hlcs[e].l >= run.pts[e]
    for a in range(m):
        for b in range(m):
            if run.hb[a, b]:
                assert run.hlcs[a] < run.hlcs[b]
