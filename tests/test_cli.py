"""Command-line interface: exit codes, precedence, reproducibility."""

import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import psml
from psml import simkernel
from psml.analytic import (
    admissible_eps_mon,
    hlc_min_len_half_recall,
    phi_point,
    uncertainty_ratio,
)
from psml.metrics import PRESETS

from helpers import run_cli


SIM_FAST = [
    "simulate",
    "--n", "3",
    "--eps-app", "5",
    "--delta", "10",
    "--alpha", "0.05",
    "--beta", "0.2",
    "--horizon", "400",
    "--seed", "7",
]


def test_importing_the_package_leaves_the_command_line_unloaded():
    """``import psml`` loads the library, not ``psml.cli`` and ``argparse``."""
    src = str(Path(psml.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, psml; print(sorted({'psml.cli', 'argparse'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_ok_run_exits_zero():
    code, out, err = run_cli(SIM_FAST)
    assert code == 0, err
    assert "fpr" in out


def test_invalid_parameter_exits_two():
    code, _, err = run_cli(["simulate", "--n", "1", "--eps-app", "5"])
    assert code == 2
    assert "invalid parameters" in err
    code, _, err = run_cli(["analytic", "hlc-minlen", "--eps-app", "5", "--n", "2", "--beta", "1"])
    assert code == 2
    assert err == "psml: invalid parameters: beta must be in (0, 1)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["prdiagram", "--mode", "simulated", "--replicates", "-1"],
        ["hlc-curve", "--replicates", "0"],
        ["partial", "--replicates", "0"],
        ["sweep", "--preset", "fig-ad-independence", "--jobs", "-3"],
        ["simulate", "--n", "3", "--eps-app", "5", "--ell", "5", "--interval-geom", "0.3"],
        ["simulate", "--n", "3", "--eps-app", "5", "--ell", "5", "--config", "GEOM_CFG"],
        # saturated windows do not hide an invalid model
        ["analytic", "pr", "--eps-mon", "5", "--eps-app", "5", "--n", "1", "--beta", "5", "--ell", "0"],
    ],
)
def test_nonpositive_counts_and_mixed_intervals_exit_two(argv, tmp_path):
    cfg = tmp_path / "geom.cfg"
    cfg.write_text("geom_p = 0.3\n")
    code, _, err = run_cli([str(cfg) if a == "GEOM_CFG" else a for a in argv])
    assert code == 2
    assert "invalid parameters" in err


def test_missing_required_exits_two():
    # --eps is no alias: it is an ambiguous prefix of --eps-app and
    # --eps-check, so argparse names both and exits 2
    for argv in (["simulate", "--n", "3"], ["simulate", "--n", "3", "--eps", "5"]):
        code, _, err = run_cli(argv)
        assert code == 2
        assert "eps-app" in err or "eps_app" in err


def test_bad_config_file_exits_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta 0.5\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--n", "3", "--eps-app", "5"])
    assert code == 2
    assert "invalid parameters" in err


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("betta = 0.5\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--n", "3", "--eps-app", "5"])
    assert code == 2
    assert "betta" in err


@pytest.mark.parametrize(
    "argv, setting, experiment",
    [
        (["simulate", "--n", "3", "--eps-app", "5"], "format = yaml", "fpr_row"),
        (["prdiagram"], "mode = yaml", "pr_diagram"),
    ],
)
def test_config_file_choice_exits_two_before_running(
    argv, setting, experiment, tmp_path, monkeypatch, capsys
):
    from psml import cli

    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")  # main would exit 3

    monkeypatch.setattr(cli, experiment, never)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert setting.split()[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, setting",
    [
        (["prdiagram"], "eps_mon = 80"),
        (["hlc-curve", "--horizon", "300", "--replicates", "1"], "ell = 30"),
        (["simulate", "--n", "3", "--eps-app", "5", "--horizon", "300"], "g2 = 3"),
    ],
)
def test_config_key_without_flag_exits_two(argv, setting, tmp_path, capsys):
    """A file key is accepted only where the command has that flag; a
    key the command would never read is named, not silently ignored."""
    from psml import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert setting.split()[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["out", "config"])
def test_config_file_cannot_set_out_or_config(key, tmp_path, capsys):
    """Where settings come from and where output goes are flag-only: a
    file that sets either is refused, not silently ignored."""
    from psml import cli

    target = tmp_path / "target.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {target}\n")
    argv = ["analytic", "phi", "--eps", "200", "--n", "20", "--beta", "0.01"]
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""
    assert not target.exists()


def test_config_file_list_setting_matches_flag(tmp_path, capsys):
    from psml import cli

    argv = ["partial", "--n", "4", "--eps-app", "5", "--beta", "0.1", "--ell", "6",
            "--horizon", "300", "--replicates", "1"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2,3\n")
    assert cli.main([*argv, "--p", "2,3"]) == 0
    by_flag = capsys.readouterr().out
    assert cli.main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == by_flag
    assert "# p_values = (2, 3)" in by_flag


def test_unknown_preset_exits_two():
    code, _, err = run_cli(["sweep", "--preset", "fig-nope"])
    assert code == 2
    assert "fig-nope" in err


def test_partial_p_out_of_range_exits_two():
    code, _, err = run_cli(
        ["partial", "--n", "4", "--eps-app", "5", "--p", "9", "--horizon", "200"]
    )
    assert code == 2


def test_unwritable_out_exits_three(tmp_path, monkeypatch, capsys):
    from psml import cli

    target = tmp_path / "taken"
    run = cli.fpr_row

    def taken_during_the_run(*args, **kwargs):
        target.mkdir()  # the rename onto a directory fails after the run
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "fpr_row", taken_during_the_run)
    assert cli.main(SIM_FAST + ["--out", str(target)]) == 3
    assert "runtime failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [target]  # no temp residue


@pytest.mark.parametrize(
    "outputs",
    [
        [("--out", "missing/out.csv")],
        [("--trace-out", "missing/out.csv")],
        [("--out", "")],
        [("--trace-out", "")],
        [("--out", ".")],
        [("--trace-out", ".")],
        [("--out", "same.txt"), ("--trace-out", "same.txt")],
    ],
    ids=["--out", "--trace-out", "--out-empty", "--trace-out-empty", "--out-directory",
         "--trace-out-directory", "--out-is-trace-out"],
)
def test_output_in_missing_directory_exits_two_before_running(
    outputs, tmp_path, monkeypatch, capsys
):
    """A path that can never be written (in a missing directory, empty,
    an existing directory, or both outputs at one file) is refused, and
    named, before the experiment runs."""
    from psml import cli

    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")  # main would exit 3

    monkeypatch.setattr(cli, "fpr_row", never)
    monkeypatch.chdir(tmp_path)
    argv = [arg for flag, name in outputs for arg in (flag, str(tmp_path / name) if name else "")]
    assert cli.main(SIM_FAST + argv) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and argv[-1] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["partial", "--p", "2,9"],
        ["prdiagram", "--mode", "simulated", "--eps-mon", "60,-1"],
        ["prdiagram", "--mode", "simulated", "--eps-app", "60,-1"],
        ["hlc-curve", "--ell", "20,0"],
    ],
)
def test_invalid_list_entry_exits_two_before_running(argv, tmp_path, monkeypatch, capsys):
    """Every entry of a list setting is checked before the first trace
    is generated, not when the loop reaches it."""
    from psml import cli, metrics

    def never(*args, **kwargs):
        raise AssertionError("a trace was generated")  # main would exit 3

    monkeypatch.setattr(metrics, "generate", never)
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# settings precedence
# ---------------------------------------------------------------------------


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 0.5\nseed = 3\n")
    args = [a for a in SIM_FAST if a not in ("--beta", "0.2", "--seed", "7")]
    code, out, _ = run_cli(args + ["--config", str(cfg), "--beta", "0.2"])
    assert code == 0
    assert "# beta = 0.2" in out  # flag beats the file
    assert "# seed = 3" in out  # file beats the default


def test_config_file_beats_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 25\n")
    args = [a for a in SIM_FAST if a not in ("--delta", "10")]
    code, out, _ = run_cli(args + ["--config", str(cfg)])
    assert code == 0
    assert "# delta = 25" in out


def test_seed_env_fallback():
    args = [a for a in SIM_FAST if a not in ("--seed", "7")]
    code, out, _ = run_cli(args, env_extra={"PSML_SEED": "41"})
    assert code == 0
    assert "# seed = 41" in out
    # flag wins over the environment
    code, out, _ = run_cli(args + ["--seed", "8"], env_extra={"PSML_SEED": "41"})
    assert "# seed = 8" in out
    # config file wins over the environment too
    code, out, _ = run_cli(args, env_extra={"PSML_SEED": "banana"})
    assert code == 2


def test_seed_defaults_to_zero():
    args = [a for a in SIM_FAST if a not in ("--seed", "7")]
    code, out, _ = run_cli(args)
    assert code == 0
    assert "# seed = 0" in out


# ---------------------------------------------------------------------------
# reproducibility and output handling
# ---------------------------------------------------------------------------


def test_simulate_byte_identical():
    _, first, _ = run_cli(SIM_FAST)
    _, second, _ = run_cli(SIM_FAST)
    assert first == second


@pytest.mark.parametrize("fmt, echoed", [
    ([], "# jobs = {}\n"),
    (["--format", "structured"], '"jobs": {},'),
], ids=["csv", "structured"])
def test_sweep_output_does_not_depend_on_jobs(fmt, echoed):
    """A preset sweep prints the same bytes at one job and at three but
    for the echoed ``jobs``.  Its rows run the reflection kernel and hand
    the run to the step loop before the horizon."""
    base = PRESETS["fig-ad-independence"]["base"]
    assert simkernel._schedule_path(base["n"], base["epsilon_app"], base["horizon"]) == "kernel"
    argv = ["sweep", "--preset", "fig-ad-independence", "--replicates", "1", *fmt]
    code_one, one, err_one = run_cli([*argv, "--jobs", "1"])
    code_three, three, err_three = run_cli([*argv, "--jobs", "3"])
    assert code_one == code_three == 0, err_one + err_three
    assert one.count(echoed.format(1)) == 1
    assert three == one.replace(echoed.format(1), echoed.format(3))


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(SIM_FAST + ["--out", str(target)])
    assert code == 0
    assert out == ""
    _, streamed, _ = run_cli(SIM_FAST)
    assert target.read_text() == streamed
    assert list(tmp_path.iterdir()) == [target]  # no temp residue


@pytest.mark.parametrize("flag", ["--out", "--trace-out"])
@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_written_file_gets_the_mode_open_would_leave(flag, umask, tmp_path, capsys):
    """A new file gets 0o666 less the umask, a replaced file keeps its
    permission bits, as with a plain ``open(path, "w")``."""
    from psml import cli

    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.write_text("old\n")
    kept.chmod(0o640)
    saved = os.umask(umask)
    try:
        for target in (fresh, kept):
            assert cli.main(SIM_FAST + [flag, str(target)]) == 0
    finally:
        os.umask(saved)
    capsys.readouterr()
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_bytes() == fresh.read_bytes()
    assert sorted(tmp_path.iterdir()) == [fresh, kept]  # no temp residue


def test_trace_export_matches_library(tmp_path):
    from psml.simkernel import SimConfig, generate, trace_records

    target = tmp_path / "trace.txt"
    code, _, err = run_cli(SIM_FAST + ["--trace-out", str(target)])
    assert code == 0, err
    trace = generate(
        SimConfig(n=3, epsilon_app=5, delta=10, alpha=0.05, beta=0.2, horizon=400, seed=7)
    )
    assert target.read_text() == "".join(line + "\n" for line in trace_records(trace))


def test_trace_out_generates_once(tmp_path, monkeypatch):
    """The export is the trace the experiment classified, not a rerun;
    every generation places predicates exactly once."""
    from psml import cli, simkernel

    placed = []
    real = simkernel.predicate_intervals

    def counted(config):
        placed.append(config)
        return real(config)

    monkeypatch.setattr(simkernel, "predicate_intervals", counted)
    trace_out = ["--trace-out", str(tmp_path / "trace.txt")]
    assert cli.main(SIM_FAST + trace_out + ["--out", str(tmp_path / "row")]) == 0
    assert len(placed) == 1


def test_structured_output_parses():
    code, out, _ = run_cli(SIM_FAST + ["--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["beta"] == 0.2
    assert len(doc["rows"]) == 1
    assert set(doc["rows"][0]) >= {"y", "y_f", "fpr"}


def test_csv_echo_lines_are_comments():
    _, out, _ = run_cli(SIM_FAST)
    lines = out.splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert lines[0].startswith("# ")
    assert body[0].split(",")[0] == "n"
    assert len(body) == 2


# ---------------------------------------------------------------------------
# analytic commands
# ---------------------------------------------------------------------------


def test_analytic_phi_matches_library():
    code, out, _ = run_cli(
        ["analytic", "phi", "--eps", "200", "--n", "20", "--beta", "0.01"]
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(phi_point(200, 20, 0.01), rel=1e-12)


def test_analytic_inflection_reports_ratio():
    code, out, _ = run_cli(["analytic", "inflection", "--n", "100", "--beta", "0.3"])
    assert code == 0
    value = dict(l.split(" = ") for l in out.strip().splitlines())
    assert float(value["uncertainty_ratio"]) == pytest.approx(
        uncertainty_ratio(100, 0.3), rel=1e-12
    )
    # at n=2 both points sit at zero and the ratio line is dropped
    code, out, _ = run_cli(["analytic", "inflection", "--n", "2", "--beta", "0.5"])
    value = dict(l.split(" = ") for l in out.strip().splitlines())
    assert value == {"eps_p1": "0.0", "eps_p2": "0.0"}


def test_analytic_bound_matches_library():
    code, out, _ = run_cli(
        ["analytic", "bound", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "0.95"]
    )
    assert code == 0
    value = dict(l.split(" = ") for l in out.strip().splitlines())
    interval = admissible_eps_mon(100, 20, 0.01, 1, 0.95)
    assert float(value["lo"]) == pytest.approx(interval.lo, rel=1e-12)
    assert float(value["hi"]) == pytest.approx(interval.hi, rel=1e-12)
    assert value["empty"] == "no"
    assert value["unbounded_hi"] == "no"


def test_analytic_hlc_minlen():
    code, out, _ = run_cli(
        ["analytic", "hlc-minlen", "--eps", "10", "--n", "3", "--beta", "0.005"]
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(
        hlc_min_len_half_recall(10, 3, 0.005), rel=1e-12
    )


def test_tune_reports_window_bounds():
    code, out, _ = run_cli(
        ["tune", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "0.95"]
    )
    assert code == 0
    keys = dict(
        l.split(" = ") for l in out.strip().splitlines() if " = " in l
    )
    assert keys["eps_app"] == "100"
    assert "phase_transition" in keys
    assert keys["hypersensitive"] in ("yes", "no")
    lo, hi = json.loads(keys["admissible"])
    assert lo <= 100 <= hi


def test_tune_point_interval_at_eta_one():
    code, out, _ = run_cli(
        ["tune", "--eps-app", "50", "--n", "10", "--beta", "0.05", "--eta", "1.0"]
    )
    assert code == 0
    keys = dict(l.split(" = ") for l in out.strip().splitlines() if " = " in l)
    assert json.loads(keys["admissible"]) == [50, 50]
    assert "phase_transition" not in keys


# targets within rounding of 1: the interval used to come out empty or
# raise, though it always holds eps_app
_ROUNDED_ETA = {
    "tune-eps0": (
        ["tune", "--eps-app", "0", "--n", "100", "--beta", "5.06766562885366e-07",
         "--ell", "30", "--eta", "0.9999999999"],
        "admissible",
    ),
    "bound-eps0": (
        ["analytic", "bound", "--eps-app", "0", "--n", "100", "--beta", "5.06766562885366e-07",
         "--ell", "30", "--eta", "0.9999999999"],
        "hi",
    ),
    "bound-s-rounds-to-1": (
        ["analytic", "bound", "--eps-app", "1000000000", "--n", "100",
         "--beta", "3.310532441484666e-05", "--ell", "3", "--eta", "0.9999999999999999"],
        "hi",
    ),
}


@pytest.mark.parametrize("name", _ROUNDED_ETA)
def test_interval_holds_eps_app_at_targets_near_one(name):
    argv, key = _ROUNDED_ETA[name]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    keys = dict(l.split(" = ") for l in out.strip().splitlines())
    eps_app = float(argv[argv.index("--eps-app") + 1])
    if key == "admissible":
        lo, hi = json.loads(keys["admissible"])
    else:
        lo, hi = float(keys["lo"]), float(keys["hi"])
        assert keys["empty"] == "no"
    assert lo <= eps_app <= hi


# stdout at the commit before the analytic forms became one table
_ANALYTIC_BYTES = {
    "phi": (
        ["analytic", "phi", "--eps", "200", "--n", "20", "--beta", "0.01"],
        "0.06501800089828214\n",
    ),
    "phi-ell": (
        ["analytic", "phi", "--eps", "50", "--n", "5", "--beta", "0.05", "--ell", "4"],
        "0.7611004934437124\n",
    ),
    "inflection": (
        ["analytic", "inflection", "--n", "20", "--beta", "0.01"],
        "eps_p1 = 199.5887943430404\neps_p2 = 386.3496304192775\n"
        "uncertainty_ratio = 0.9357280637471288\n",
    ),
    "inflection-n2": (
        ["analytic", "inflection", "--n", "2", "--beta", "0.5"],
        "eps_p1 = 0.0\neps_p2 = 0.0\n",
    ),
    "pr": (
        ["analytic", "pr", "--eps-mon", "80", "--eps-app", "100", "--n", "20", "--beta", "0.01"],
        "precision = 1.0\nrecall = 0.07323044894418654\n",
    ),
    "bound": (
        ["analytic", "bound", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "0.9"],
        "lo = 99.05154612628347\nhi = 100.96293255115418\nempty = no\nunbounded_hi = no\n",
    ),
    "bound-eta1": (
        ["analytic", "bound", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "1"],
        "lo = 100.0\nhi = 100.0\nempty = no\nunbounded_hi = no\n",
    ),
    "bound-unbounded": (
        ["analytic", "bound", "--eps-app", "2000", "--n", "20", "--beta", "0.01", "--eta", "0.9"],
        "lo = 517.1545917434179\nhi = inf\nempty = no\nunbounded_hi = yes\n",
    ),
    "phase": (
        ["analytic", "phase", "--n", "20", "--beta", "0.01", "--eta", "0.9"],
        "516.6028733518684\n",
    ),
    "hlc-recall-ell": (
        ["analytic", "hlc-recall", "--eps-app", "10", "--n", "3", "--beta", "0.005", "--ell", "25"],
        "0.5357568561379626\n",
    ),
    "hlc-recall": (
        ["analytic", "hlc-recall", "--eps-app", "10", "--n", "3", "--beta", "0.005"],
        "0.0086870977032869\n",
    ),
    "hlc-minlen": (
        ["analytic", "hlc-minlen", "--eps-app", "10", "--n", "3", "--beta", "0.005"],
        "22.25791547490924\n",
    ),
    "pma-est": (
        ["analytic", "pma-est", "--eps", "60", "--g2", "10", "--beta", "0.1", "--p-ind", "0.5"],
        "0.37602672975161255\n",
    ),
    "tune": (
        ["tune", "--eps-app", "100", "--n", "20", "--beta", "0.01", "--eta", "0.95"],
        "eps_app = 100\nn = 20\nbeta = 0.01\nell = 1\neta = 0.95\n"
        "phase_transition = 588.3668155170542\nhypersensitive = yes\n"
        "admissible = [99.53647199893906, 100.46695938524951]\n",
    ),
    "tune-eta1": (
        ["tune", "--eps-app", "50", "--n", "10", "--beta", "0.05", "--eta", "1.0"],
        "eps_app = 50\nn = 10\nbeta = 0.05\nell = 1\neta = 1.0\nadmissible = [50.0, 50.0]\n",
    ),
    "tune-unbounded": (
        ["tune", "--eps-app", "10", "--n", "20", "--beta", "0.5", "--eta", "0.5"],
        "eps_app = 10\nn = 20\nbeta = 0.5\nell = 1\neta = 0.5\n"
        "phase_transition = 4.750298094664899\nhypersensitive = no\n"
        "admissible = [4.765500438170741, inf)\n",
    ),
}


@pytest.mark.parametrize("name", _ANALYTIC_BYTES)
def test_analytic_output_bytes(name, capsys):
    from psml import cli

    argv, expected = _ANALYTIC_BYTES[name]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


# stdout of small data-command runs at the commit before each distinct
# trace was generated and enumerated once
_DATA_BYTES = {
    "simulate-csv": (
        [
            "simulate", "--n", "3", "--eps-app", "5", "--delta", "10", "--alpha", "0.05",
            "--beta", "0.2", "--horizon", "400", "--seed", "7",
        ],
        (
            "# n = 3\n# eps_app = 5\n# delta = 10\n# alpha = 0.05\n# beta = 0.2\n"
            "# ell = 1\n# geom_p = \n# horizon = 400\n# seed = 7\n"
            "# command = simulate\n# eps_check = 5.0\n# warmup = 20\n"
            "n,eps_app,delta,alpha,beta,ell,geom_p,horizon,seed,warmup,eps_check,y,y_f,fpr,flags\n"
            "3,5,10,0.05,0.2,1,,400,7,20,5,214,113,0.471963,\n"
        ),
    ),
    "simulate-structured": (
        [
            "simulate", "--n", "3", "--eps-app", "5", "--delta", "10", "--alpha", "0.05",
            "--beta", "0.2", "--horizon", "400", "--seed", "7", "--format", "structured",
        ],
        (
            '{\n  "config": {\n    "n": 3,\n    "eps_app": 5,\n'
            '    "delta": 10,\n    "alpha": 0.05,\n    "beta": 0.2,\n'
            '    "ell": 1,\n    "geom_p": null,\n    "horizon": 400,\n'
            '    "seed": 7,\n    "command": "simulate",\n'
            '    "eps_check": 5.0,\n    "warmup": 20\n  },\n  "rows": [\n'
            '    {\n      "n": 3,\n      "eps_app": 5,\n      "delta": 10,\n'
            '      "alpha": 0.05,\n      "beta": 0.2,\n      "ell": 1,\n'
            '      "geom_p": null,\n      "horizon": 400,\n      "seed": 7,\n'
            '      "warmup": 20,\n      "eps_check": 5.0,\n      "y": 214,\n'
            '      "y_f": 113,\n      "fpr": 0.4719626168224299,\n'
            '      "flags": []\n    }\n  ]\n}\n'
        ),
    ),
    "sweep": (
        [
            "sweep", "--preset", "fig-ad-independence", "--replicates", "1", "--horizon",
            "300",
        ],
        (
            "# n = 20\n# eps_app = 80\n# delta = 10\n# alpha = 0.05\n# beta = 0.1\n"
            "# ell = 1\n# geom_p = \n# horizon = 300\n# seed = 0\n"
            "# command = sweep\n# preset = fig-ad-independence\n# seeds = (0,)\n"
            "# warmup = 50\n# jobs = 1\n# grid_alpha = (0.05, 0.1)\n"
            "# grid_delta = (10, 100)\n"
            "n,eps_app,delta,alpha,beta,ell,geom_p,horizon,seed,warmup,eps_check,y,y_f,fpr,flags\n"
            "20,80,10,0.05,0.1,1,,300,0,50,80,292,292,0,\n"
            "20,80,100,0.05,0.1,1,,300,0,50,80,379,379,0,\n"
            "20,80,10,0.1,0.1,1,,300,0,50,80,214,214,0,\n"
            "20,80,100,0.1,0.1,1,,300,0,50,80,379,379,0,\n"
        ),
    ),
    "prdiagram": (
        [
            "prdiagram", "--mode", "simulated", "--n", "4", "--beta", "0.1", "--ell", "2",
            "--eps-mon", "0,3,8,400", "--eps-app", "3,6", "--horizon", "600", "--replicates",
            "2", "--seed", "3",
        ],
        (
            "# n = 4\n# eps_app = 3\n# delta = 100\n# alpha = 0.001\n# beta = 0.1\n"
            "# ell = 2\n# geom_p = \n# horizon = 600\n# seed = 3\n"
            "# command = prdiagram\n# mode = simulated\n# replicates = 2\n"
            "# eps_mon_values = (0, 3, 8, 400)\n# eps_app_values = (3, 6)\n"
            "eps_mon,eps_app,precision,recall,flags\n"
            "0,3,,0,low-confidence;undefined\n3,3,1,1,low-confidence\n"
            "8,3,0.194479,1,\n400,3,0.0537865,1,\n0,6,,0,undefined\n"
            "3,6,1,0.277778,\n8,6,0.700993,1,\n400,6,0.194633,1,\n"
        ),
    ),
    "partial": (
        [
            "partial", "--n", "4", "--eps-app", "5", "--beta", "0.1", "--ell", "6", "--p",
            "1,2,3,4", "--horizon", "800", "--replicates", "2", "--seed", "2",
        ],
        (
            "# n = 4\n# eps_app = 5\n# delta = 100\n# alpha = 0.001\n# beta = 0.1\n"
            "# ell = 6\n# geom_p = \n# horizon = 800\n# seed = 2\n"
            "# command = partial\n# replicates = 2\n# p_values = (1, 2, 3, 4)\n"
            "p,fraction,flags\n1,1,\n2,0.615479,\n3,0.335047,\n4,0.245,\n"
        ),
    ),
    "hlc-curve": (
        [
            "hlc-curve", "--n", "3", "--eps-app", "5", "--beta", "0.1", "--ell", "4,8",
            "--horizon", "800", "--replicates", "2", "--seed", "1",
        ],
        (
            "# n = 3\n# eps_app = 5\n# delta = 100\n# alpha = 0.001\n# beta = 0.1\n"
            "# ell = 1\n# geom_p = \n# horizon = 800\n# seed = 1\n"
            "# command = hlc-curve\n# replicates = 2\n# ell_values = (4, 8)\n"
            "ell,recall_sim,recall_analytic,flags\n4,0.218045,0.315166,\n"
            "8,0.449275,0.583146,\n"
        ),
    ),
}


@pytest.mark.parametrize("name", _DATA_BYTES)
def test_data_output_bytes(name, capsys):
    from psml import cli

    argv, expected = _DATA_BYTES[name]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_partial_generates_each_replicate_once(monkeypatch, capsys):
    """One trace per replicate serves every p."""
    from psml import cli, metrics

    made = []
    real = metrics.generate

    def counted(config):
        made.append(config.seed)
        return real(config)

    monkeypatch.setattr(metrics, "generate", counted)
    assert cli.main(_DATA_BYTES["partial"][0]) == 0
    assert capsys.readouterr().out == _DATA_BYTES["partial"][1]
    assert made == [2, 3]


_SIM_FLAGS = "--n --eps-app --delta --alpha --beta --ell --horizon --seed"


_HELP_OPTIONS = [
    ("", "", ("analytic", "tune", "simulate", "sweep", "prdiagram", "partial", "hlc-curve")),
    ("analytic", "", ()),
    ("analytic phi", "--eps --n --beta --ell --config --out", ()),
    ("analytic inflection", "--n --beta --config --out", ()),
    ("analytic pr", "--eps-mon --eps-app --n --beta --ell --config --out", ()),
    ("analytic bound", "--eps-app --n --beta --ell --eta --config --out", ()),
    ("analytic phase", "--n --beta --ell --eta --config --out", ()),
    ("analytic hlc-recall", "--eps-app --n --beta --ell --config --out", ()),
    ("analytic hlc-minlen", "--eps-app --n --beta --config --out", ()),
    ("analytic pma-est", "--eps --g2 --beta --p-ind --config --out", ()),
    ("tune", "--eps-app --n --beta --ell --eta --config --out", ()),
    ("simulate", f"{_SIM_FLAGS} --eps-check --interval-geom --warmup --trace-out "
     "--config --out --format", ("(ticks)", "probability")),
    ("sweep", f"{_SIM_FLAGS} --preset --interval-geom --replicates --warmup --jobs "
     "--config --out --format", ()),
    ("prdiagram", f"{_SIM_FLAGS} --preset --mode --eps-mon --replicates --warmup "
     "--config --out --format", ()),
    ("partial", f"{_SIM_FLAGS} --preset --p --interval-geom --replicates "
     "--config --out --format", ()),
    ("hlc-curve", f"{_SIM_FLAGS} --preset --replicates --config --out --format", ()),
]


@pytest.mark.parametrize(
    "command, options, words", _HELP_OPTIONS, ids=[c or "psml" for c, _, _ in _HELP_OPTIONS]
)
def test_help_states_units(command, options, words, capsys):
    """Each help lists exactly the options the command took before its
    parser was built from a table, and states units where it did."""
    from psml import cli

    with pytest.raises(SystemExit) as done:
        cli.main([*command.split(), "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z0-9-]*", out)) == {"--help", *options.split()}
    for word in words:
        assert word in out


# ---------------------------------------------------------------------------
# the remaining subcommands run end to end
# ---------------------------------------------------------------------------


_PRESET_COMMAND = {"sweep": "sweep", "prdiagram": "prdiagram", "partial": "partial", "hlc": "hlc-curve"}


@pytest.mark.parametrize("name", list(PRESETS))
def test_every_preset_runs_through_its_command(name, capsys):
    """Each preset's kind routes it to a command that accepts it."""
    from psml import cli

    command = _PRESET_COMMAND[PRESETS[name]["kind"]]
    mode = ["--mode", "simulated"] if command == "prdiagram" else []
    argv = [command, "--preset", name, "--horizon", "400", "--replicates", "1", *mode]
    assert cli.main(argv) == 0
    assert f"# command = {command}\n" in capsys.readouterr().out


def test_sweep_preset_with_overrides():
    args = [
        "sweep",
        "--preset", "fig-fpr-n20",
        "--horizon", "300",
        "--replicates", "2",
        "--beta", "0.3",
        "--eps-app", "10",
    ]
    code, out, err = run_cli(args)
    assert code == 0, err
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0].split(",")[0] == "n"
    # pinning both grid axes by flag leaves one cell, two seeds
    assert len(body) == 1 + 2


def test_prdiagram_analytic_mode():
    code, out, err = run_cli(
        [
            "prdiagram",
            "--n", "20",
            "--beta", "0.05",
            "--eps-mon", "60,80",
            "--eps-app", "60",
            "--mode", "analytic",
        ]
    )
    assert code == 0, err
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(body) == 3
    assert body[0].split(",")[:2] == ["eps_mon", "eps_app"]


def test_partial_command_prints_fraction():
    code, out, err = run_cli(
        [
            "partial",
            "--n", "4",
            "--eps-app", "5",
            "--beta", "0.1",
            "--ell", "6",
            "--p", "2",
            "--horizon", "500",
            "--replicates", "2",
        ]
    )
    assert code == 0, err
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0].split(",") == ["p", "fraction", "flags"]
    value = float(body[1].split(",")[1])
    assert 0.0 <= value <= 1.5


def test_hlc_curve_command():
    code, out, err = run_cli(
        [
            "hlc-curve",
            "--n", "3",
            "--eps-app", "5",
            "--beta", "0.1",
            "--ell", "4,8",
            "--horizon", "800",
            "--replicates", "2",
        ]
    )
    assert code == 0, err
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0].split(",") == ["ell", "recall_sim", "recall_analytic", "flags"]
    assert len(body) == 3


def test_readme_command_lines_parse():
    """Every ``psml ...`` line of README's "Command line" block parses
    with the command line's own parser, and nothing runs: a renamed flag
    or preset fails here instead of in the docs."""
    from psml import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("psml ")]
    assert lines
    for _, *argv in lines:
        assert cli.build_parser().parse_args(argv).command == argv[0]
