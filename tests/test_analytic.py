"""Closed-form model: shape properties, round-trips, and domains."""

import math

import pytest
from hypothesis import given, strategies as st

from psml.analytic import (
    EpsInterval,
    admissible_eps_mon,
    hlc_min_len_half_recall,
    hlc_recall,
    inflection_points,
    is_hypersensitive,
    phase_transition,
    phi_interval,
    phi_point,
    pma_fpr_estimate,
    precision,
    recall,
    uncertainty_ratio,
)


# ---------------------------------------------------------------------------
# detection probability
# ---------------------------------------------------------------------------


def test_phi_point_edges():
    assert phi_point(0, 5, 0.3) == 0.0
    assert phi_point(math.inf, 5, 0.3) == 1.0
    assert phi_point(1e9, 5, 0.3) == pytest.approx(1.0)
    # beta = 1: every tick is true, one tick of slack suffices
    assert phi_point(1, 4, 1.0) == 1.0


def test_phi_point_reference_value():
    # the 93.5% false-positive regime: wide window, rare predicates
    assert phi_point(200, 20, 0.01) == pytest.approx(0.06502, abs=5e-5)


def test_phi_point_monotone():
    grid = [1, 5, 20, 100, 500]
    vals = [phi_point(e, 10, 0.05) for e in grid]
    assert vals == sorted(vals)
    assert phi_point(50, 5, 0.05) > phi_point(50, 10, 0.05)
    assert phi_point(50, 10, 0.10) > phi_point(50, 10, 0.05)


def test_phi_interval_reduces_to_point():
    for eps in (0, 3, 40):
        assert phi_interval(eps, 7, 0.02, 1) == phi_point(eps, 7, 0.02)


def test_phi_interval_is_shifted_point():
    # ell - 1 extra ticks of slack per process
    assert phi_interval(10, 4, 0.1, 6) == pytest.approx(
        phi_point(15, 4, 0.1), rel=1e-12
    )


def test_phi_tiny_beta_stability():
    # must not collapse to 0 or 1 through cancellation
    v = phi_point(1e5, 3, 1e-6)
    assert 0.0 < v < 1.0
    assert v == pytest.approx((-math.expm1(1e5 * math.log1p(-1e-6))) ** 2, rel=1e-12)
    # the naive 1 - (1-beta)**eps form loses every digit here
    w = phi_point(1e-3, 2, 1e-9)
    assert w == pytest.approx(1e-12, rel=1e-6)


def test_phi_domain_errors():
    with pytest.raises(ValueError):
        phi_point(10, 1, 0.1)
    with pytest.raises(ValueError):
        phi_point(10, 5, 0.0)
    with pytest.raises(ValueError):
        phi_point(-1, 5, 0.1)
    with pytest.raises(ValueError):
        phi_interval(10, 5, 0.1, 0.5)


# ---------------------------------------------------------------------------
# inflection points and the uncertainty ratio
# ---------------------------------------------------------------------------


_INFLECTION_POINTS = {
    (5, 0.01): (54.254409708952785, 221.6158460371612),
    (20, 0.01): (199.5887943430404, 386.3496304192775),
    (20, 0.05): (39.10714723423668, 75.70080239440286),
    (50, 0.002): (1467.8201693362132, 2420.1070099039507),
}


@pytest.mark.parametrize("n,beta", _INFLECTION_POINTS)
def test_inflection_points_are_third_derivative_zeros(n, beta):
    """Differentiating phi = (1-u)^(n-1) with u = (1-beta)^eps three
    times gives phi''' proportional to (n-1)^2 u^2 - (3n-4) u + 1, so
    the returned points must be roots of that quadratic; the values
    are pinned to the bit."""
    p1, p2 = inflection_points(n, beta)
    assert (p1, p2) == _INFLECTION_POINTS[n, beta]
    assert 0 < p1 < p2
    for point in (p1, p2):
        u = (1 - beta) ** point
        residual = (n - 1) ** 2 * u * u - (3 * n - 4) * u + 1
        assert residual == pytest.approx(0.0, abs=1e-9)


def test_inflection_points_collapse_at_n2():
    assert inflection_points(2, 0.5) == (0.0, 0.0)
    assert inflection_points(2, 0.01) == (0.0, 0.0)


def test_uncertainty_ratio_beta_free():
    values = {uncertainty_ratio(100, b) for b in (0.001, 0.05, 0.5, 0.999)}
    assert len(values) == 1  # bit-identical, not merely close


def test_uncertainty_ratio_reference_value():
    assert uncertainty_ratio(100, 0.01) == pytest.approx(0.5267, abs=5e-4)
    assert uncertainty_ratio(100, 0.01) == 0.5267158273109112
    assert uncertainty_ratio(5, 0.01) == 3.0847526906295193


def test_uncertainty_ratio_shrinks_with_n():
    r = [uncertainty_ratio(n, 0.01) for n in (10, 100, 10_000, 10**6)]
    assert r == sorted(r, reverse=True)


def test_uncertainty_ratio_domain():
    with pytest.raises(ValueError):
        uncertainty_ratio(2, 0.1)
    assert math.isinf(uncertainty_ratio(3, 0.1))


# ---------------------------------------------------------------------------
# precision / recall and window tuning
# ---------------------------------------------------------------------------


def test_precision_recall_saturation():
    assert precision(50, 80, 10, 0.05) == 1.0
    assert recall(80, 50, 10, 0.05) == 1.0
    assert precision(80, 80, 10, 0.05) == 1.0
    assert recall(80, 80, 10, 0.05) == 1.0


@pytest.mark.parametrize(
    "n,beta,ell,message",
    [
        (0, 2, 0, "n must be"),
        (2, 0, 1, "beta must be"),
        (2, 1.5, 1, "beta must be"),
        (2, 0.1, 0, "ell must be"),
    ],
)
def test_precision_recall_check_the_model_before_saturating(n, beta, ell, message):
    for eps_mon, eps_app in ((0, 9), (9, 9), (9, 0)):
        with pytest.raises(ValueError, match=message):
            precision(eps_mon, eps_app, n, beta, ell)
        with pytest.raises(ValueError, match=message):
            recall(eps_mon, eps_app, n, beta, ell)


_eps_values = st.integers(0, 500).map(float) | st.floats(1e-3, 500)


@given(
    _eps_values,
    _eps_values,
    st.integers(2, 30),
    st.floats(0.001, 0.9),
    st.floats(1, 20),
)
def test_precision_recall_duality(eps_a, eps_b, n, beta, ell):
    """Swapping the two windows swaps the two metrics."""
    p = precision(eps_a, eps_b, n, beta, ell)
    r = recall(eps_b, eps_a, n, beta, ell)
    assert p == pytest.approx(r, rel=1e-12)
    assert 0.0 <= p <= 1.0


def test_precision_decreases_as_monitor_window_grows():
    vals = [precision(eps, 50, 10, 0.05) for eps in (50, 80, 120, 200)]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] == 1.0


def test_admissible_interval_round_trip():
    grid = [
        (5, 0.05, 1, 100, 0.9),
        (10, 0.01, 1, 300, 0.95),
        (3, 0.10, 4, 40, 0.8),
        (20, 0.02, 2, 400, 0.99),
    ]
    for n, beta, ell, eps_app, eta in grid:
        iv = admissible_eps_mon(eps_app, n, beta, ell, eta)
        assert not iv.empty
        assert iv.lo <= eps_app <= iv.hi
        if iv.lo > 0:
            assert recall(iv.lo, eps_app, n, beta, ell) == pytest.approx(eta, abs=1e-9)
        if not iv.unbounded_hi:
            assert precision(iv.hi, eps_app, n, beta, ell) == pytest.approx(
                eta, abs=1e-9
            )


def test_admissible_interval_degenerates_at_eta_one():
    iv = admissible_eps_mon(70, 5, 0.05, 1, 1.0)
    assert (iv.lo, iv.hi) == (70.0, 70.0)
    assert not iv.empty


@given(
    st.integers(0, 10**12),
    st.integers(2, 500),
    st.floats(1e-9, 0.98),
    st.integers(1, 10_000),
    st.one_of(
        st.floats(1e-6, 1.0),
        # targets within rounding of 1, where s = eta**(1/(n-1)) rounds to 1
        st.integers(1, 10**6).map(lambda k: 1.0 - k * 1e-16),
    ),
)
def test_admissible_interval_always_holds_eps_app(eps_app, n, beta, ell, eta):
    """At eps_mon = eps_app precision and recall are both 1, so the
    interval holds eps_app whatever the rounding, and is never empty."""
    iv = admissible_eps_mon(eps_app, n, beta, ell, eta)
    assert type(iv.lo) is float and type(iv.hi) is float
    assert iv.lo <= eps_app <= iv.hi
    assert not iv.empty


def test_admissible_interval_unbounded_for_saturated_window():
    # with the window this wide the precision constraint never binds
    iv = admissible_eps_mon(5000, 5, 0.05, 1, 0.9)
    assert iv.unbounded_hi
    assert math.isinf(iv.hi)


def test_eps_interval_is_plain_data():
    iv = EpsInterval(1.0, 2.0)
    assert (iv.lo, iv.hi, iv.empty, iv.unbounded_hi) == (1.0, 2.0, False, False)


def test_phase_transition_matches_hypersensitivity():
    n, beta, ell, eta = 10, 0.02, 1, 0.95
    threshold = phase_transition(n, beta, ell, eta)
    assert threshold > 0
    assert is_hypersensitive(threshold, n, beta, ell, eta)
    assert not is_hypersensitive(threshold * 1.01 + 1, n, beta, ell, eta)


def test_phase_transition_grows_with_eta():
    ts = [phase_transition(10, 0.02, 1, eta) for eta in (0.5, 0.9, 0.99, 0.9999)]
    assert ts == sorted(ts)


def test_tuning_domain_errors():
    with pytest.raises(ValueError):
        admissible_eps_mon(10, 5, 0.05, 1, 0.0)
    with pytest.raises(ValueError):
        admissible_eps_mon(10, 5, 0.05, 1, 1.5)
    with pytest.raises(ValueError):
        admissible_eps_mon(10, 5, 1.0, 1, 0.9)  # beta = 1 has no log base
    for eta in (0.0, 1.0):  # the threshold needs a target strictly inside (0, 1)
        with pytest.raises(ValueError, match="eta must be in"):
            phase_transition(10, 0.02, 1, eta)


# ---------------------------------------------------------------------------
# scalar-clock recall
# ---------------------------------------------------------------------------


def test_hlc_recall_edges():
    assert hlc_recall(0, 5, 0.1, 3) == 1.0
    vals = [hlc_recall(eps, 5, 0.1, 3) for eps in (0, 2, 10, 50)]
    assert vals == sorted(vals, reverse=True)
    longer = [hlc_recall(10, 5, 0.1, ell) for ell in (1, 3, 10, 50)]
    assert longer == sorted(longer)


def test_hlc_min_len_round_trip():
    for eps_app, n, beta in [(10, 3, 0.01), (10, 5, 0.01), (25, 4, 0.05)]:
        ell = hlc_min_len_half_recall(eps_app, n, beta)
        assert hlc_recall(eps_app, n, beta, ell) == pytest.approx(0.5, abs=1e-9)
    assert hlc_min_len_half_recall(0, 3, 0.01) == 0.0


def test_hlc_reference_values():
    assert hlc_min_len_half_recall(10, 3, 0.01) == pytest.approx(20.67, abs=0.01)
    assert hlc_min_len_half_recall(10, 5, 0.01) == pytest.approx(40.7, abs=0.1)


# ---------------------------------------------------------------------------
# correlated-predicate estimate
# ---------------------------------------------------------------------------


def test_pma_fpr_estimate_shape():
    assert pma_fpr_estimate(0, 10, 0.1, 0.5) == 1.0
    vals = [pma_fpr_estimate(eps, 10, 0.1, 0.5) for eps in (10, 50, 200, 1000)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        pma_fpr_estimate(10, 0, 0.1, 0.5)
    with pytest.raises(ValueError, match="p_ind must be in"):
        pma_fpr_estimate(10, 10, 0.1, 1.5)
