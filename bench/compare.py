"""Compare two sets of benchmark results, end-to-end metric by metric.

Usage:

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files run.py writes (``--results``);
the ``--trace 0`` results are compared.  For every workload and every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over its runs, the ratio change/base with its base, and a
verdict by the pair rule: runs are paired by seed (then by start time),
and the change is ``better`` only when it wins at least nine tenths of
at least ten pairs, ties counting for neither, and the medians differ
by more than the base's own spread (its interquartile distance);
``worse`` is the mirror image; anything else is ``unresolved``.  A
median worse than the base by more than the metric's bound is flagged.
It also reports failed experiments per side and any seed whose output
digest differs between the two sets.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict[str, list[dict]]:
    """trace-0 results of one set, per workload, in (seed, start) order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        if rep.get("trace") == 0:
            runs[rep["workload"]].append(rep)
    for reps in runs.values():
        reps.sort(key=lambda r: (r["seed"], r["meta"]["started"]))
    return runs


def verdict(base: list[float], change: list[float], better: str) -> str:
    pairs = list(zip(base, change))
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)} pairs < {MIN_PAIRS})"
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) > 0 for b, c in pairs)
    q1, med_b, q3 = quartiles(base)
    gap = abs(quartiles(change)[1] - med_b)
    if gap <= q3 - q1:
        return f"unresolved (median gap {gap:.4g} <= base spread {q3 - q1:.4g})"
    if wins >= WIN_SHARE * len(pairs):
        return f"better ({wins}/{len(pairs)} pairs)"
    if losses >= WIN_SHARE * len(pairs):
        return f"worse ({losses}/{len(pairs)} pairs)"
    return f"unresolved (wins {wins}, losses {losses} of {len(pairs)})"


def digests(reps: list[dict]) -> dict[tuple[int, int], set[str]]:
    """Output digests by (seed, horizon)."""
    out: dict[tuple[int, int], set[str]] = defaultdict(set)
    for rep in reps:
        for e in rep["experiments"]:
            if "digest" in e:
                out[e["seed"], e["horizon"]].add(e["digest"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]
    if all(m["name"] != "wall_s" for m in spec):
        # raw seconds swing with the host's speed; compared without a bound
        spec.append({"name": "wall_s", "unit": "s", "better": "lower", "bound": None})
    base, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) & set(change)):
        a, b = base[workload], change[workload]
        print(f"== {workload}: base {len(a)} runs, change {len(b)} runs")
        for m in spec:
            name = m["name"]
            if any(name not in r["metrics"] for r in a + b):
                print(f"{name}: missing from some results")
                continue
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1]
            worse_by = (ratio - 1) if m["better"] == "lower" else (1 - ratio)
            bound = m["bound"]
            flag = f"  WORSE THAN BOUND {bound}" if bound is not None and worse_by > bound else ""
            print(f"{name} [{m['unit']}]: base {qa[1]:.6g} ({qa[0]:.6g}..{qa[2]:.6g})"
                  f"  change {qb[1]:.6g} ({qb[0]:.6g}..{qb[2]:.6g})"
                  f"  change/base = {ratio:.4f} (base {qa[1]:.6g})"
                  f"  {verdict(va, vb, m['better'])}{flag}")
        fa = sum(r["failed"] for r in a), sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b), sum(r["attempted"] for r in b)
        print(f"failed experiments: base {fa[0]}/{fa[1]}, change {fb[0]}/{fb[1]}")
        da, db = digests(a), digests(b)
        shared = set(da) & set(db)
        differ = sorted(k for k in shared if len(da[k] | db[k]) > 1)
        print("output digests: " + (f"DIFFER for (seed, horizon) {differ}" if differ else
                                    f"identical on {len(shared)} shared (seed, horizon) pairs"))
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads in only one set: {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
