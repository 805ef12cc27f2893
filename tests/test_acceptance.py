"""End-to-end validation suite.

Each test checks one headline claim about the library at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers
(visible with ``pytest -s``; with ``-v`` the test outcome itself is the
verdict line). Simulation-backed checks pin every seed, so the measured
values are exactly reproducible.

The whole file takes under a minute (about 50 s on a 2-CPU machine with
Python 3.11 and numpy 2.4); the interval-recall curve, the correlated
FPR and the async FPR reference cells take most of it.
"""

import json
import math
import time

import numpy as np
import pytest

from psml.analytic import (
    admissible_eps_mon,
    hlc_min_len_half_recall,
    hlc_recall,
    phi_point,
    pma_fpr_estimate,
    precision,
    recall,
    uncertainty_ratio,
)
from psml.metrics import (
    clustered_ztest,
    config_with,
    fpr_experiment,
    hlc_recall_curve,
    partial_fractions,
    pr_diagram,
)
from psml.monitors import detect_async, detect_partialsync, detect_quasi
from psml.simkernel import HNMA, PMA, PMAJ, FixedLength, SimConfig, generate

from helpers import brute_async, brute_partialsync, brute_quasi, random_small_config, run_cli


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# reference traffic for the drift experiments: sparse messages, long
# delay, so cut statistics are governed by the clock spread alone
_TRAFFIC = {"delta": 100, "alpha": 0.001}


def test_phi_matches_monte_carlo_oracle():
    """phi_point equals the max-of-geometric-draws probability, 3 SE."""
    samples = 1_000_000
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for beta in (0.01, 0.05, 0.3):
        running = np.zeros(samples)
        cols = 0
        for n in (2, 5, 20, 50):
            while cols < n - 1:
                draw = rng.geometric(beta, samples)
                running = np.maximum(running, draw, out=running)
                cols += 1
            for eps in (1, 10, 100, 1000):
                model = phi_point(eps, n, beta)
                estimate = float(np.mean(running <= eps))
                budget = 3 * math.sqrt(model * (1 - model) / samples) + 1e-9
                dev = abs(model - estimate)
                worst = max(worst, dev - budget)
                assert dev <= budget, (n, beta, eps, model, estimate)
    elapsed = time.monotonic() - start
    _verdict(
        "oracle",
        worst <= 0 and elapsed < 60,
        f"48 cells within 3 SE (worst slack {-worst:.2e}), {elapsed:.1f}s < 60s",
    )


def test_async_fpr_reference_cells():
    """Asynchronous-monitor FPR at a 200-tick drift bound, four cells."""
    base = SimConfig(n=20, epsilon_app=200, beta=0.01, horizon=100_000, seed=0, **_TRAFFIC)
    cells = [
        # (n, beta, target, tolerance); None = one-sided upper bound
        (20, 0.01, 0.935, 0.05),
        (5, 0.01, 0.437, 0.05),
        (20, 0.03, 0.047, 0.04),
        (20, 0.05, 0.02, None),
    ]
    report = []
    ok = True
    for n, beta, target, tol in cells:
        y = y_f = 0
        for seed in range(5):
            res = fpr_experiment(
                config_with(base, n=n, beta=beta, seed=seed), eps_check=200
            )
            y += res.y
            y_f += res.y_f
        fpr = 1 - y_f / y
        good = fpr <= target if tol is None else abs(fpr - target) <= tol
        ok = ok and good
        bound = f"<= {target}" if tol is None else f"{target} +/- {tol}"
        report.append(f"(n={n}, beta={beta}): {fpr:.4f} vs {bound}")
    _verdict("fpr-cells", ok, "; ".join(report))


def test_fpr_invariant_to_traffic_parameters():
    """Message rate and delay leave the FPR unchanged (gap test + z-test)."""
    base = SimConfig(
        n=20, epsilon_app=80, delta=10, alpha=0.05, beta=0.10, horizon=1000, seed=0
    )
    cells = {}
    arms = {}
    for alpha in (0.05, 0.1):
        for delta in (10, 100):
            counts = []
            y = y_f = 0
            for seed in range(20):
                res = fpr_experiment(
                    config_with(base, alpha=alpha, delta=delta, seed=seed),
                    eps_check=80,
                    warmup=50,
                )
                counts.append((res.y - res.y_f, res.y))
                y += res.y
                y_f += res.y_f
            cells[(alpha, delta)] = 1 - y_f / y
            arms[(alpha, delta)] = counts
    keys = sorted(cells)
    worst_gap = 0.0
    min_p = 1.0
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            worst_gap = max(worst_gap, abs(cells[a] - cells[b]))
            _, _, p_value = clustered_ztest(arms[a], arms[b])
            min_p = min(min_p, p_value)
    _verdict(
        "traffic-independence",
        worst_gap < 0.03 and min_p > 0.01,
        f"max pairwise gap {worst_gap:.4f} < 0.03, min z-test p {min_p:.3f} > 0.01",
    )


def test_uncertainty_ratio_constant_in_beta():
    """The inflection-band ratio at n=100 is 0.52 and beta-free."""
    ratios = [uncertainty_ratio(100, beta) for beta in (0.001, 0.05, 0.5)]
    spread = max(ratios) - min(ratios)
    ok = all(abs(r - 0.52) <= 0.01 for r in ratios) and spread <= 1e-9
    _verdict(
        "uncertainty-ratio",
        ok,
        f"ratios {[f'{r:.6f}' for r in ratios]}, spread {spread:.1e} <= 1e-9",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the ratio decays like 1/ln(n): measured 0.1498 at n=10^6, and"
    " reaching 0.01 needs n beyond e^240; the claimed bound is unattainable",
)
def test_uncertainty_ratio_vanishes_at_million_processes():
    value = uncertainty_ratio(10**6, 0.01)
    _verdict(
        "uncertainty-ratio-limit",
        value < 0.01,
        f"uncertainty_ratio(1e6, 0.01) = {value:.5f}, require < 0.01",
    )


def test_window_bound_round_trip():
    """Accuracy at the admissible window's endpoints equals the target.

    A lower endpoint of exactly 0 means the algebraic bound fell below
    the window domain and was clamped; recall there can only exceed the
    target, so those cells get the one-sided check.
    """
    checked = 0
    clamped = 0
    worst = 0.0
    for n in (3, 10, 50):
        for beta in (0.01, 0.1, 0.4):
            for ell in (1, 5):
                for eps_app in (5.0, 50.0, 500.0):
                    for eta in (0.5, 0.9, 0.99):
                        iv = admissible_eps_mon(eps_app, n, beta, ell, eta)
                        assert not iv.empty
                        low_recall = recall(iv.lo, eps_app, n, beta, ell)
                        if iv.lo == 0.0:
                            assert low_recall >= eta - 1e-12
                            clamped += 1
                        else:
                            worst = max(worst, abs(low_recall - eta))
                            checked += 1
                        if not iv.unbounded_hi:
                            worst = max(
                                worst,
                                abs(precision(iv.hi, eps_app, n, beta, ell) - eta),
                            )
                            checked += 1
    _verdict(
        "round-trip",
        worst <= 1e-9 and checked > 200,
        f"{checked} exact endpoint evaluations, worst |value - eta| = "
        f"{worst:.2e} <= 1e-9 ({clamped} domain-clamped lower ends checked one-sided)",
    )


def test_simulated_pr_matches_model():
    """Simulated precision/recall vs the closed forms on a 5x5 grid."""
    windows = [60, 80, 100, 120, 140]
    base = SimConfig(
        n=20, epsilon_app=60, beta=0.05, horizon=15_000, seed=0, **_TRAFFIC
    )
    rows = pr_diagram(base, windows, windows, mode="simulated", replicates=3)
    worst = 0.0
    for row in rows:
        p_model = precision(row["eps_mon"], row["eps_app"], 20, 0.05, 1)
        r_model = recall(row["eps_mon"], row["eps_app"], 20, 0.05, 1)
        worst = max(
            worst, abs(row["precision"] - p_model), abs(row["recall"] - r_model)
        )
    _verdict(
        "pr-grid",
        worst <= 0.05,
        f"25 cells x (precision, recall), worst deviation {worst:.4f} <= 0.05",
    )


def test_accuracy_band_width_monotone():
    """Width of the 95%-accuracy window band never shrinks as drift grows."""
    violations = 0
    checked = 0
    for n, beta in ((20, 0.01), (10, 0.05), (50, 0.1), (5, 0.3)):
        for ell in (1, 4):
            previous = -math.inf
            for eps_app in range(0, 801, 5):
                iv = admissible_eps_mon(eps_app, n, beta, ell, 0.95)
                width = math.inf if iv.unbounded_hi else iv.hi - iv.lo
                if width < previous - 1e-9:
                    violations += 1
                previous = width
                checked += 1
    _verdict(
        "band-monotone",
        violations == 0,
        f"{checked} grid points over 8 (n, beta, ell) series, {violations} violations",
    )


def test_interval_recall_curve_and_half_recall_length():
    """Scalar-timestamp detection recall vs the closed form, plus the
    interval length at which recall crosses one half."""
    cfg = SimConfig(
        n=3, epsilon_app=10, beta=0.005, horizon=300_000, seed=0, **_TRAFFIC
    )
    ells = [20, 25, 30, 35, 40]
    curve = hlc_recall_curve(cfg, ells, replicates=20)
    worst = max(abs(sim - closed) for _, sim, closed in curve)

    crossing = None
    for (l1, s1, _), (l2, s2, _) in zip(curve, curve[1:]):
        if (s1 - 0.5) * (s2 - 0.5) <= 0:
            crossing = l1 + (s1 - 0.5) * (l2 - l1) / (s1 - s2)
            break
    min_len = hlc_min_len_half_recall(10, 3, 0.005)
    ok = (
        worst <= 0.05
        and crossing is not None
        and abs(crossing - min_len) <= 0.2 * min_len
        and min_len >= 20
        and 1.5 * 10 <= min_len <= 2.5 * 10
    )
    _verdict(
        "interval-recall",
        ok,
        f"worst curve deviation {worst:.4f} <= 0.05; 0.5-crossing at "
        f"{float('nan') if crossing is None else crossing:.2f} vs predicted "
        f"{min_len:.2f} (+/- 20%), prediction >= 20 and within [1.5, 2.5] x drift",
    )


def test_prefix_majority_fraction_table():
    """Relaxing the conjunction to p of n processes: detection fractions."""
    cfg = SimConfig(
        n=5,
        epsilon_app=10,
        beta=0.01,
        interval=FixedLength(46),
        horizon=100_000,
        seed=0,
        **_TRAFFIC,
    )
    targets = {2: 0.79, 3: 0.68, 4: 0.60, 5: 0.42}
    fractions = dict(zip(targets, partial_fractions(cfg, list(targets), replicates=10)))
    deviations = {p: abs(fractions[p] - targets[p]) for p in targets}
    ordered = [fractions[p] for p in sorted(fractions)]
    ok = max(deviations.values()) <= 0.08 and all(
        a >= b for a, b in zip(ordered, ordered[1:])
    )
    detail = "; ".join(
        f"p={p}: {fractions[p]:.3f} vs {targets[p]} +/- 0.08" for p in sorted(targets)
    )
    _verdict("partial-table", ok, detail + "; monotone non-increasing")


def test_correlated_fpr_vs_effective_model():
    """Correlated local predicates: FPR tracks the effective-parameter model."""
    families = [
        ("majority-adoption", PMA(10, 0.5), [40, 60, 80, 100],
         lambda eps: pma_fpr_estimate(eps, 10, 0.1, 0.5)),
        ("minority-follow", HNMA(), [30, 40, 60],
         lambda eps: 1 - phi_point(eps, 10, 0.1)),
        ("prefix-majority", PMAJ(), [50, 60, 80, 100],
         lambda eps: 1 - phi_point(eps, 5, 0.05)),
    ]
    report = []
    ok = True
    for name, corr, eps_values, model in families:
        worst = 0.0
        for eps in eps_values:
            y = y_f = 0
            for seed in range(3):
                res = fpr_experiment(
                    SimConfig(
                        n=20,
                        epsilon_app=eps,
                        beta=0.1,
                        horizon=20_000,
                        seed=seed,
                        correlation=corr,
                        **_TRAFFIC,
                    ),
                    eps_check=eps,
                )
                y += res.y
                y_f += res.y_f
            worst = max(worst, abs((1 - y_f / y) - model(eps)))
        ok = ok and worst <= 0.10
        report.append(f"{name}: worst {worst:.4f} <= 0.10")
    _verdict("correlated-fpr", ok, "; ".join(report))


def test_engine_matches_brute_force_enumeration():
    """The queue engine equals naive enumeration on 200 random traces."""
    start = time.monotonic()
    for index in range(200):
        cfg = random_small_config(index)
        trace = generate(cfg)
        assert detect_async(trace) == brute_async(trace), index
        for eps in (0, cfg.epsilon_app):
            assert detect_partialsync(trace, eps) == brute_partialsync(trace, eps), index
        assert detect_quasi(trace) == brute_quasi(trace), index
    elapsed = time.monotonic() - start
    _verdict(
        "engine-oracle",
        elapsed < 120,
        f"200 traces x 4 monitor runs all equal, {elapsed:.1f}s < 120s",
    )


_CLI_COMMANDS = [
    ["analytic", "phi", "--eps", "200", "--n", "20", "--beta", "0.01"],
    ["analytic", "phi", "--eps", "50", "--n", "5", "--beta", "0.05", "--ell", "4"],
    ["analytic", "inflection", "--n", "20", "--beta", "0.01"],
    ["analytic", "pr", "--eps-mon", "80", "--eps-app", "100", "--n", "20", "--beta", "0.01"],
    ["analytic", "bound", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "0.9"],
    ["analytic", "phase", "--n", "20", "--beta", "0.01", "--eta", "0.9"],
    ["analytic", "hlc-recall", "--eps-app", "10", "--n", "3", "--beta", "0.005", "--ell", "25"],
    ["analytic", "hlc-minlen", "--eps-app", "10", "--n", "3", "--beta", "0.005"],
    ["analytic", "pma-est", "--eps", "60", "--g2", "10", "--beta", "0.1", "--p-ind", "0.5"],
    ["tune", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "0.95"],
    ["simulate", "--n", "4", "--eps-app", "8", "--delta", "10", "--alpha", "0.05",
     "--beta", "0.2", "--horizon", "400", "--seed", "5"],
    ["simulate", "--n", "4", "--eps-app", "8", "--delta", "10", "--alpha", "0.05",
     "--beta", "0.2", "--horizon", "400", "--seed", "5", "--format", "structured"],
    ["sweep", "--preset", "fig-fpr-n20", "--horizon", "300", "--replicates", "2",
     "--beta", "0.3", "--eps-app", "10", "--seed", "3"],
    ["prdiagram", "--n", "10", "--beta", "0.1", "--eps-mon", "20,40", "--eps-app", "20",
     "--mode", "simulated", "--replicates", "2", "--horizon", "500"],
    ["prdiagram", "--eps-mon", "60,80", "--eps-app", "60", "--n", "20",
     "--beta", "0.05", "--mode", "analytic"],
    ["partial", "--n", "4", "--eps-app", "5", "--beta", "0.1", "--ell", "6",
     "--p", "2,3", "--horizon", "400", "--replicates", "2", "--seed", "1"],
    ["hlc-curve", "--n", "3", "--eps-app", "5", "--beta", "0.1", "--ell", "4,8",
     "--horizon", "600", "--replicates", "2"],
]


def test_cli_byte_deterministic():
    """Every command form repeats byte-identically for a fixed seed."""
    for args in _CLI_COMMANDS:
        code1, out1, err1 = run_cli(args)
        code2, out2, err2 = run_cli(args)
        assert code1 == 0, (args, err1)
        assert code2 == 0, (args, err2)
        assert out1 == out2, args
        assert out1, args
    _verdict(
        "cli-determinism",
        True,
        f"{len(_CLI_COMMANDS)} command forms, two runs each, byte-identical",
    )
