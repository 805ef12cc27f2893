"""The three benchmark workloads: how to run each one, and how to check it.

Each workload is one experiment of the psml lab.  ``run`` performs the
experiment as a user would, through ``psml.cli.main`` or the library
API, and returns its output.  ``check`` turns that output and the
traces the experiment generated into a digest, a list of broken
invariants, and the closed-form value the output is compared with.

Calls into psml go through module attributes (``cli.main``,
``metrics.fpr_experiment``, ``analytic.phi_point``) so that the traced
run can wrap them.  This module imports psml, so only the worker loads it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from psml import analytic, cli, metrics, simkernel


@dataclass(frozen=True)
class Check:
    digest: str
    violations: list[str]
    model: dict[str, float]


def _trace_violations(traces: list[simkernel.Trace]) -> list[str]:
    bad = []
    if not traces:
        bad.append("no trace was generated")
    for tr in traces:
        cfg = tr.config
        if any(c != cfg.horizon for c in tr.final_clocks):
            bad.append(f"final clocks {tr.final_clocks} != horizon {cfg.horizon}")
        late = sum(m.receive_pt < m.send_pt + cfg.delta for m in tr.messages)
        if late:
            bad.append(f"{late} messages delivered before send_pt + delta")
    return bad


def _csv_row(text: str) -> dict[str, str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split(","), lines[1].split(",")))


class _CliWorkload:
    """A ``psml`` command run in-process; its output is the bytes it writes."""

    def __init__(self, name: str, argv: list[str], horizon: int):
        self.name = name
        self.argv = argv
        self.horizon = horizon

    def run(self, seed: int, horizon: int, out_dir: str) -> bytes:
        out = os.path.join(out_dir, f"{self.name}-{os.getpid()}.out")
        argv = self.argv + ["--horizon", str(horizon), "--seed", str(seed), "--out", out]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"psml exited with code {code}")
        with open(out, "rb") as fh:
            data = fh.read()
        os.unlink(out)
        return data


class SparseRef(_CliWorkload):
    def check(self, output: bytes, traces: list[simkernel.Trace]) -> Check:
        bad = _trace_violations(traces)
        row = _csv_row(output.decode())
        if int(row["y_f"]) > int(row["y"]):
            bad.append(f"y_f {row['y_f']} > y {row['y']}")
        phi = analytic.phi_point(float(row["eps_check"]), int(row["n"]), float(row["beta"]))
        return Check(hashlib.sha256(output).hexdigest(), bad, {"fpr_model": 1.0 - phi})


class FewLong(_CliWorkload):
    def check(self, output: bytes, traces: list[simkernel.Trace]) -> Check:
        bad = _trace_violations(traces)
        row = _csv_row(output.decode())
        # quasi cuts are a subset of the partially synchronous ones
        if row["recall_sim"] and not 0.0 <= float(row["recall_sim"]) <= 1.0:
            bad.append(f"recall_sim {row['recall_sim']} outside [0, 1]")
        model = {"recall_model": float(row["recall_analytic"])}
        return Check(hashlib.sha256(output).hexdigest(), bad, model)


class DenseCorr:
    """``fpr_experiment`` under prefix-majority correlation.  The CLI
    cannot select a correlation model, so this calls the library."""

    name = "dense-corr"
    horizon = 20_000
    eps_check = 50.0

    def run(self, seed: int, horizon: int, out_dir: str) -> metrics.FprResult:
        cfg = simkernel.SimConfig(
            n=20, epsilon_app=50, beta=0.1, alpha=0.05, delta=10,
            correlation=simkernel.PMAJ(), horizon=horizon, seed=seed,
        )
        return metrics.fpr_experiment(cfg, eps_check=self.eps_check)

    def check(self, output: metrics.FprResult, traces: list[simkernel.Trace]) -> Check:
        bad = _trace_violations(traces)
        if output.y_f > output.y:
            bad.append(f"y_f {output.y_f} > y {output.y}")
        h = hashlib.sha256()
        fields = (output.eps_check, output.warmup, output.y, output.y_f, output.fpr, output.flags)
        h.update(repr(fields).encode() + b"\n")
        for tr in traces:
            for line in simkernel.trace_records(tr):
                h.update(line.encode() + b"\n")
        # the independent-predicate model, which correlation departs from
        phi = analytic.phi_point(self.eps_check, output.config.n, output.config.beta)
        return Check(h.hexdigest(), bad, {"fpr_independent_model": 1.0 - phi})


_REF_CELL = ["--n", "20", "--eps-app", "200", "--beta", "0.01", "--alpha", "0.001", "--delta", "100"]

WORKLOADS = {
    "sparse-ref": SparseRef("sparse-ref", ["simulate", *_REF_CELL], 100_000),
    "few-long": FewLong("few-long", ["hlc-curve", "--ell", "30", "--replicates", "1"], 300_000),
    "dense-corr": DenseCorr(),
}
