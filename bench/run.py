"""psml benchmark: one experiment workload per run, timed from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sparse-ref --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

A run is a closed loop with one client: it starts one worker process at
a time (bench/worker.py), each running one experiment of the workload
on the inputs ``--seed`` selects, until ``--seconds`` of measuring are
used up.  No threads, no parallel jobs.

Every run first runs the workload at the default seed and the smoke
horizon and compares its output digest with bench/golden.json; when
``--seed`` is the default seed, every full-size experiment is compared
with the recorded full-size digest too.  Every experiment's output is
checked (see workloads.py).  A failed experiment is a non-zero exit, a
digest that differs from the golden one or from the run's first one for
the same seed, or a broken invariant.  To record new digests after a
change that means to alter the output, run
``python3 bench/worker.py --mode timed --workload W --seed 0 [--horizon H]``
and copy the ``digest`` it prints.

``--trace 0`` reports the end-to-end metrics: wall time per experiment
(median and quartiles); ``wall_ref``, the median over experiments of
the wall time divided by the time of a fixed reference loop run in the
same process just before and after (see worker.py), which cancels the
host's changes of speed; peak RSS of the worker process; start-up time
(interpreter start plus ``import psml``, median of several starts); and
the failure ratio.  ``--trace 1`` alternates untraced workers with
traced ones and reports the per-layer metrics derived from spans around
the public psml calls (medians over the traced workers), plus the
tracing overhead: traced minus untraced median wall time.  The last
line of standard output is one JSON object with the metrics
BENCHMARK.json lists for that mode; every metric is printed above it as
``<workload> <name> = <value> <unit>``, and the whole run, with its
metadata, is written to ``--results`` as one JSON file (the spans of a
traced run next to it).

``--smoke`` runs every workload at a tiny horizon in both modes and
asserts that every metric is printed with its unit, that self times
are non-negative and that a corrupted digest counts as a failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DEFAULT_SEED = 0  # the seed golden.json records

# horizon of each workload in smoke mode: a fraction of a second per experiment
SMOKE_HORIZON = {"sparse-ref": 2_000, "few-long": 9_000, "dense-corr": 1_000}
WORKLOADS = tuple(SMOKE_HORIZON)

SETUP_PROBES = 5
BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "wall_s_q1": "s",
    "wall_s_q3": "s",
    "wall_ref": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "fail_ratio": "ratio",
}
PER_LAYER = {
    "simkernel.placement_s": "s",
    "simkernel.placement_peak_mb": "MB",
    "simkernel.generate_s": "s",
    "simkernel.sched_stamp_s": "s",
    "simkernel.trace_bytes_per_event": "B",
    "simkernel.process_ticks": "count",
    "simkernel.intervals": "count",
    "simkernel.messages": "count",
    "simkernel.events": "count",
    "simkernel.events_per_tick": "ratio",
    "monitors.queues_s": "s",
    "monitors.detect_async_s": "s",
    "monitors.detect_partialsync_s": "s",
    "monitors.detect_quasi_s": "s",
    "monitors.detect_s": "s",
    "monitors.classify_s": "s",
    "monitors.hb_check_s": "s",
    "monitors.self_s": "s",
    "monitors.candidates": "count",
    "monitors.cuts": "count",
    "monitors.cuts_per_candidate": "ratio",
    "monitors.hb_checked": "count",
    "metrics.experiment_s": "s",
    "metrics.self_s": "s",
    "metrics.y": "count",
    "metrics.y_f": "count",
    "metrics.warmup_discarded": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "analytic.eval_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.overhead_s": "s",
}
SELF_TIMES = ("simkernel.sched_stamp_s", "monitors.self_s", "metrics.self_s", "cli.self_s")


class RunError(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spawn(args: list[str], deadline: float) -> tuple[float, dict | None, str]:
    """Start a worker; return (start-up seconds, its JSON result, error).

    Start-up runs from the spawn to the worker's ``ready`` line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = time.perf_counter()
    # unbuffered, so reading the ready line cannot swallow the result line
    # that communicate() reads from the pipe afterwards
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 0.0, None, "worker timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode(errors="replace").strip().splitlines()
    if first != b"ready\n" or proc.returncode != 0 or not lines:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return setup, None, f"worker exit {proc.returncode}: {' | '.join(tail)}"
    try:
        return setup, json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return setup, None, f"worker printed no result: {lines[-1][:200]}"


def _failures(experiments: list[dict], golden: dict[str, str]) -> list[str]:
    """Why each failed experiment failed, one entry per failed experiment.

    ``golden`` maps a horizon to the recorded digest of the default seed."""
    out = []
    first: dict[tuple[int, int], str] = {}
    for e in experiments:
        why = list(e.get("violations", []))
        if "error" in e:
            why.append(e["error"])
        else:
            key = e["seed"], e["horizon"]
            if first.setdefault(key, e["digest"]) != e["digest"]:
                why.append(f"seed {key[0]} gave two digests")
            expected = golden.get(str(e["horizon"])) if e["seed"] == DEFAULT_SEED else None
            if expected is not None and e["digest"] != expected:
                why.append(f"digest {e['digest'][:12]} != golden {expected[:12]}")
        if why:
            out.append("; ".join(why))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            horizon: int | None, out_dir: Path) -> dict:
    """One run of the benchmark; returns the experiments and metrics.

    ``horizon`` None keeps the workload's own horizon."""
    deadline = time.monotonic() + BUDGET_S
    setups: list[float] = []
    experiments: list[dict] = []
    meta: dict = {}

    def worker(mode: str, s: int, h: int | None) -> dict | None:
        args = ["--mode", mode, "--workload", workload, "--seed", str(s), "--out-dir", str(out_dir)]
        setup, result, error = _spawn(args + (["--horizon", str(h)] if h else []), deadline)
        if setup:
            setups.append(setup)
        if result is None:
            experiments.append({"error": error, "seed": s, "horizon": h})
        else:
            experiments.extend(dict(e, seed=s) for e in result["experiments"])
            meta.update(result["meta"])
        return result

    # the golden check at the smoke horizon, in every run; it also warms
    # the file cache before any timing
    worker("timed", DEFAULT_SEED, SMOKE_HORIZON[workload])
    for _ in range(SETUP_PROBES):
        setup, _, error = _spawn(["--mode", "probe"], deadline)
        if error:
            raise RunError(error)
        setups.append(setup)

    # timed experiments, alternating with traced ones when tracing; a
    # failed experiment is counted and the loop goes on
    walls: list[float] = []
    refs: list[float] = []
    rss: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    spans: list[list] = []
    durations: list[float] = []
    start = time.monotonic()
    for k in itertools.count():
        mode = "traced" if trace and k % 2 else "timed"
        now = time.monotonic()
        if k >= 1 + trace and now - start + statistics.median(durations) > seconds:
            break
        if now + 2 * max(durations, default=0.0) > deadline:
            break
        result = worker(mode, seed, horizon)
        durations.append(time.monotonic() - now)
        if result is None:
            continue
        record = result["experiments"][0]
        if mode == "timed":
            walls.append(record["wall_s"])
            refs.append(record["wall_s"] / record["ref_s"])
            rss.append(record["rss_mb"])
        else:
            traced_walls.append(record["wall_s"])
            layer_runs.append(result["layers"])
            spans += [[*span, len(layer_runs) - 1] for span in result["spans"]]
    if not walls or (trace and not layer_runs):
        raise RunError(f"no {'traced ' if walls else ''}experiment succeeded: "
                       + experiments[-1].get("error", ""))
    q1, q2, q3 = quartiles(walls)
    metrics = {"wall_s": q2, "wall_s_q1": q1, "wall_s_q3": q3, "wall_ref": statistics.median(refs),
               "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setups),
               "wall_samples": len(walls)}
    if trace:
        metrics.update({k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]})
        metrics["tracing.untraced_wall_s"] = q2
        metrics["tracing.traced_wall_s"] = statistics.median(traced_walls)
        metrics["tracing.overhead_s"] = metrics["tracing.traced_wall_s"] - q2
    return {"experiments": experiments, "metrics": metrics, "meta": meta, "spans": spans}


def _golden(workload: str) -> dict[str, str]:
    """Recorded output digests of the default seed, by horizon."""
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _contract(trace: bool) -> dict[str, str]:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "psml").glob("*.py")))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def report(workload: str, seed: int, trace: bool, run: dict, golden: dict[str, str]) -> dict:
    failures = _failures(run["experiments"], golden)
    attempted = len(run["experiments"])
    metrics = dict(run["metrics"], fail_ratio=len(failures) / attempted)
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "experiments": run["experiments"]}


def print_metrics(rep: dict) -> list[str]:
    units = {**END_TO_END, **PER_LAYER}
    names = PER_LAYER if rep["trace"] else END_TO_END
    lines = [f"{rep['workload']} {name} = {rep['metrics'][name]:.6g} {units[name]}"
             for name in names]
    lines.append(f"{rep['workload']} attempted = {rep['attempted']} failed = {rep['failed']}")
    lines += [f"{rep['workload']} FAILED: {why}" for why in rep["failures"]]
    print("\n".join(lines), flush=True)
    return lines


def _main_run(args: argparse.Namespace) -> int:
    out_dir = Path(args.results).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    started = time.time()
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), None, out_dir)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    rep = report(args.workload, args.seed, bool(args.trace), run,
                 _golden(args.workload))
    print_metrics(rep)
    rep["meta"] = {
        "git_sha": _git_sha(), **run["meta"], "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "src_psml_lines": _src_lines(), "started": started, "seconds": args.seconds,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if run["spans"]:
        rep["spans"] = f"{stem}.spans.jsonl"  # [name, start, end, parent, run id] per line
        with open(out_dir / rep["spans"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in run["spans"])
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1)
    contract = _contract(bool(args.trace))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": rep["metrics"][k], "unit": u} for k, u in contract.items()},
    }))
    return 0


def smoke(out_dir: Path) -> int:
    """Every workload at a tiny horizon, both modes; exit 1 on any problem."""
    problems = []
    for trace in (False, True):
        units = PER_LAYER if trace else END_TO_END
        for c_name, c_unit in _contract(trace).items():
            if units.get(c_name) != c_unit:
                problems.append(f"BENCHMARK.json: {c_name} [{c_unit}] is not a metric of this mode")
    for workload in WORKLOADS:
        for trace in (False, True):
            run = measure(workload, 1, 0.0, trace, SMOKE_HORIZON[workload], out_dir)
            golden = _golden(workload)
            rep = report(workload, 1, trace, run, golden)
            lines = print_metrics(rep)
            for name, unit in (PER_LAYER if trace else END_TO_END).items():
                if not any(ln.startswith(f"{workload} {name} = ") and ln.endswith(f" {unit}")
                           for ln in lines):
                    problems.append(f"{workload}: {name} not printed with unit {unit}")
            if rep["failed"]:
                problems.append(f"{workload}: {rep['failed']} failed experiments")
            if trace:
                for name in SELF_TIMES:
                    if rep["metrics"][name] < 0:
                        problems.append(f"{workload}: negative self time {name}")
            smoke_key = str(SMOKE_HORIZON[workload])
            corrupt = dict(golden, **{smoke_key: golden[smoke_key][::-1]})
            if len(_failures(run["experiments"], corrupt)) != 1:
                problems.append(f"{workload}: a corrupted golden digest was not one failure")
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke " + ("ok" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(BENCH / "results"),
                    help="directory for result files (default bench/results)")
    ap.add_argument("--smoke", action="store_true", help="tiny-horizon self test")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "psml" / "__init__.py").is_file():
        print(f"bench: no psml source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        out_dir = Path(args.results).resolve() / "smoke"
        out_dir.mkdir(parents=True, exist_ok=True)
        return smoke(out_dir)
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return _main_run(args)


if __name__ == "__main__":
    sys.exit(main())
