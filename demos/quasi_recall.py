"""Scalar-timestamp detection: perfect precision, partial recall.

The quasi-synchronous monitor only reports cuts whose predicate
intervals share a common instant, which a hybrid logical clock can
certify with a single scalar per event. It never false-alarms, but it
misses short intervals. This script sweeps interval length and
compares the measured recall with the closed form, including the
length needed for 50% recall.

Run:  python demos/quasi_recall.py  (a few seconds)
"""

from psml import SimConfig, hlc_min_len_half_recall, hlc_recall_curve

CFG = SimConfig(
    n=3,
    epsilon_app=10,
    delta=100,
    alpha=0.001,
    beta=0.01,
    horizon=40_000,
    seed=0,
)

print("n = 3, clock drift bound 10 ticks, beta = 0.01")
print()
print(f"{'interval len':>12}  {'measured recall':>15}  {'closed form':>12}")
for ell, sim, closed in hlc_recall_curve(CFG, [5, 10, 20, 30, 40], replicates=4):
    print(f"{ell:>12}  {sim:>15.3f}  {closed:>12.3f}")

need = hlc_min_len_half_recall(CFG.epsilon_app, CFG.n, CFG.beta)
print()
print(f"Length for 50% recall (closed form): {need:.1f} ticks,")
print(f"about twice the drift bound ({2 * CFG.epsilon_app}). Predicates that")
print("stay true for shorter than that are mostly invisible to a")
print("scalar-clock monitor, which is the price of its zero false")
print("positive rate.")
