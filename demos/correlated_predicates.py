"""When local predicates are not independent.

The baseline model assumes each process truthifies on its own coin.
Real deployments correlate: half the fleet follows a leader group,
cascades follow prefixes. The simulator ships three such families, and
an effective-parameter trick keeps the closed form useful: replace
(n, beta) with the effective count of independent coins.

Run:  python demos/correlated_predicates.py  (a few seconds)
"""

from psml import PMA, SimConfig, config_with, fpr_experiment, phi_point, pma_fpr_estimate

N = 20
BETA = 0.1
BASE = SimConfig(
    n=N,
    epsilon_app=60,
    delta=100,
    alpha=0.001,
    beta=BETA,
    horizon=6_000,
    seed=0,
    correlation=PMA(10, 0.5),
)

print("Majority adoption: 10 processes flip independent coins, the other")
print("10 copy that group's majority half the time. Effectively ~10")
print("independent coins at half the rate for the follower side.")
print()
print(f"{'eps':>5}  {'measured fpr':>12}  {'effective model':>15}  {'naive model':>12}")
for eps in (40, 60, 80, 100):
    y = y_f = 0
    for seed in range(2):
        res = fpr_experiment(
            config_with(BASE, epsilon_app=eps, seed=seed), eps_check=eps
        )
        y += res.y
        y_f += res.y_f
    measured = 1 - y_f / y
    effective = pma_fpr_estimate(eps, 10, BETA, 0.5)
    naive = 1 - phi_point(eps, N, BETA)
    print(f"{eps:>5}  {measured:>12.3f}  {effective:>15.3f}  {naive:>12.3f}")

print()
print("The naive independent-coins model badly underestimates the false")
print("positive rate here; the effective-parameter estimate stays close.")
print("HNMA (minority-following) and PMAJ (prefix-majority chains) ship")
print("too -- see the correlated-fpr acceptance test for their effective")
print("parameters.")
