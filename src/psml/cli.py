"""Command line front end: closed forms, window tuning, and trace
experiments.

Commands fall into two families.  The analytic family (``analytic``,
``tune``) evaluates closed forms and prints ``name = value`` lines or a
bare number.  The data family (``simulate``, ``sweep``, ``prdiagram``,
``partial``, ``hlc-curve``) runs seeded experiments and emits rows as
CSV (default) or a structured JSON document via ``--format``; both
forms carry the full effective configuration, as ``# key = value``
header lines in CSV and as a ``config`` object in JSON.  Each family
is one table: ``_FORMS`` maps a form to its settings and closed form
(``_TUNE`` is ``tune``'s entry of that kind), ``_DATA`` maps a data
command to its preset kind, settings, list flags and run function, and
one handler per table does the rest.

Settings resolve as flag > config file (``--config``, flat
``key = value`` lines) > built-in default; the ``PSML_SEED``
environment variable supplies the seed when neither flag nor file
does.  ``--out`` writes through a temporary file and renames, so an
interrupted run never leaves a partial file.  Exit codes: 0 success,
2 invalid parameters or config, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Any, Callable, Iterable, Mapping, Sequence

from .analytic import (
    admissible_eps_mon,
    hlc_min_len_half_recall,
    hlc_recall,
    inflection_points,
    is_hypersensitive,
    phase_transition,
    phi_interval,
    pma_fpr_estimate,
    precision,
    recall,
    uncertainty_ratio,
)
from .metrics import (
    PRESETS,
    config_columns,
    config_with,
    default_warmup,
    fpr_row,
    hlc_recall_curve,
    partial_fractions,
    pr_diagram,
    row_flags,
    sweep,
)
from .simkernel import SimConfig, trace_records


# ---------------------------------------------------------------------------
# settings resolution
# ---------------------------------------------------------------------------


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' comments and blanks ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def number(text: str) -> float:
    """A float that is not NaN; argparse errors name it by this name."""
    value = float(text)
    if math.isnan(value):
        raise ValueError("nan is not a valid setting")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# Every setting a flag or a config file can give: the key is the flag's
# dest and the config-file key, the entry its flag spelling and the
# add_argument keywords; the type and the choices check both paths.
_FLAG_SPECS: dict[str, tuple[str, dict[str, Any]]] = {
    "n": ("--n", {"type": int, "help": "number of processes (count)"}),
    "eps": ("--eps", {"type": number, "help": "clock window (ticks)"}),
    "eps_app": ("--eps-app", {"type": int, "help": "application clock window (ticks)"}),
    "eps_mon": ("--eps-mon", {"type": number, "help": "monitor clock window (ticks)"}),
    "eps_check": (
        "--eps-check",
        {"type": number, "help": "window classifying cuts (ticks, default: eps-app)"},
    ),
    "delta": ("--delta", {"type": int, "help": "message delivery delay (ticks)"}),
    "alpha": ("--alpha", {"type": float, "help": "per-tick message probability (0..1)"}),
    "beta": ("--beta", {"type": float, "help": "per-tick predicate probability (0..1)"}),
    "ell": ("--ell", {"type": int, "help": "fixed predicate interval length (ticks)"}),
    "geom_p": (
        "--interval-geom",
        {"type": float, "metavar": "P", "help": "geometric interval length parameter (probability 0..1)"},
    ),
    "horizon": ("--horizon", {"type": int, "help": "trace length (ticks)"}),
    "seed": ("--seed", {"type": int, "help": "base RNG seed (integer, default: $PSML_SEED or 0)"}),
    "replicates": ("--replicates", {"type": int, "help": "seeded repetitions (count)"}),
    "warmup": ("--warmup", {"type": int, "help": "discarded trace prefix (ticks, default: horizon/20)"}),
    "eta": ("--eta", {"type": float, "help": "accuracy target (probability in (0, 1])"}),
    "g2": ("--g2", {"type": int, "help": "follower group size (count)"}),
    "p_ind": ("--p-ind", {"type": float, "help": "independent-firing probability (0..1)"}),
    "p": (
        "--p",
        {"type": _int_list, "metavar": "LIST", "help": "comma-separated conjunct counts p (each in 1..n)"},
    ),
    "jobs": ("--jobs", {"type": int, "help": "worker processes (count, default 1)"}),
    "mode": ("--mode", {"choices": ("analytic", "simulated")}),
    "config": ("--config", {"help": "flat key = value settings file"}),
    "out": ("--out", {"help": "write output to this file atomically"}),
    "trace_out": (
        "--trace-out",
        {"metavar": "FILE", "help": "also write the generated trace as line records to FILE"},
    ),
    "format": ("--format", {"choices": ("csv", "structured"), "help": "output format (default csv)"}),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flag, kwargs = _FLAG_SPECS[name]
        parser.add_argument(flag, dest=name, default=None, **kwargs)


def _from_file(key: str, text: str) -> Any:
    kwargs = _FLAG_SPECS[key][1]
    value = kwargs.get("type", str)(text)
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{key} must be one of {', '.join(choices)}")
    return value


class _Settings:
    """Flag > file > default lookup for one parsed invocation; file
    values are converted and checked once, on entry."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        text = _parse_config_file(args.config) if args.config else {}
        # a file may set what this command has a flag for, nothing else;
        # where to read settings from and where to write are flag-only
        allowed = set(vars(args)) & set(_FLAG_SPECS) - {"config", "out", "trace_out"}
        unknown = set(text) - allowed
        if unknown:
            raise ValueError(
                f"config file keys not settable from a file in this command: "
                f"{', '.join(sorted(unknown))}"
            )
        self.file = {key: _from_file(key, value) for key, value in text.items()}

    def get(self, key: str, default: Any = None) -> Any:
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        return self.file.get(key, default)

    def given(self, key: str) -> bool:
        return getattr(self.args, key, None) is not None or key in self.file

    def require(self, key: str, default: Any = None) -> Any:
        value = self.get(key, default)
        if value is None:
            raise ValueError(f"missing required parameter {_FLAG_SPECS[key][0]}")
        return value

    def seed(self) -> int:
        if self.given("seed"):
            return self.get("seed")
        env = os.environ.get("PSML_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise ValueError(f"PSML_SEED must be an integer, got {env!r}") from exc
        return 0


def _build_sim(settings: _Settings, defaults: Mapping[str, Any] | None = None) -> SimConfig:
    """Materialize a SimConfig from preset defaults plus flag/file values."""
    merged: dict[str, Any] = dict(defaults or {})
    given = {
        key: settings.get(key)
        for key in ("n", "eps_app", "delta", "alpha", "beta", "ell", "geom_p", "horizon")
        if settings.given(key)
    }
    # an explicit interval choice replaces the preset's, never joins it
    if "ell" in given or "geom_p" in given:
        merged.pop("ell", None)
        merged.pop("geom_p", None)
    merged.update(given)
    if "eps_app" in merged:
        merged["epsilon_app"] = merged.pop("eps_app")
    if "n" not in merged:
        raise ValueError("missing required parameter --n")
    if "epsilon_app" not in merged:
        raise ValueError("missing required parameter --eps-app")
    base = SimConfig(n=merged.pop("n"), epsilon_app=merged.pop("epsilon_app"))
    return config_with(base, seed=settings.seed(), **merged)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        # scalar results print at full precision; tables round (_cell)
        return repr(value)
    return str(value)


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.6g}"
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    return str(value)


def render_csv(rows: Iterable[Mapping[str, Any]], columns: Sequence[str]) -> str:
    """Rows as CSV text: fixed column order, floats at 6 significant
    digits, undefined values as empty cells beside their flag column."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, tuple):
        return list(value)
    return value


def _render_rows(
    fmt: str,
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str],
    config: Mapping[str, Any],
) -> str:
    if fmt == "structured":
        payload = {
            "config": {k: _json_safe(v) for k, v in config.items()},
            "rows": [
                {k: _json_safe(row.get(k)) for k in columns} for row in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    header = "".join(f"# {k} = {_fmt(v)}\n" for k, v in config.items())
    return header + render_csv(rows, columns)


def _deliver(text: str, out: str | None) -> None:
    """Print, or atomically replace ``out`` (write temp file, rename)."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".psml-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# analytic commands
# ---------------------------------------------------------------------------


def _inflection(n: int, beta: float) -> list[tuple[str, Any]]:
    p1, p2 = inflection_points(n, beta)
    pairs: list[tuple[str, Any]] = [("eps_p1", p1), ("eps_p2", p2)]
    if n > 2:
        # both points collapse to 0 at n = 2, so the ratio is undefined
        pairs.append(("uncertainty_ratio", uncertainty_ratio(n, beta)))
    return pairs


def _bound(*args: Any) -> list[tuple[str, Any]]:
    interval = admissible_eps_mon(*args)
    return [(f.name, getattr(interval, f.name)) for f in dataclasses.fields(interval)]


# form -> (help, settings in call order, closed form).  A form returning
# (name, value) pairs prints one line per pair, any other a bare value;
# ell defaults to 1, where phi_interval is phi_point bit for bit.
_FORMS: dict[str, tuple[str, tuple[str, ...], Callable[..., Any]]] = {
    "phi": ("detection-window consistency probability", ("eps", "n", "beta", "ell"), phi_interval),
    "inflection": ("transition-band endpoints", ("n", "beta"), _inflection),
    "pr": (
        "precision and recall of a monitor window",
        ("eps_mon", "eps_app", "n", "beta", "ell"),
        lambda *a: [("precision", precision(*a)), ("recall", recall(*a))],
    ),
    "bound": ("admissible monitor-window interval", ("eps_app", "n", "beta", "ell", "eta"), _bound),
    "phase": ("hypersensitivity threshold on eps-app", ("n", "beta", "ell", "eta"), phase_transition),
    "hlc-recall": ("scalar-clock monitor recall", ("eps_app", "n", "beta", "ell"), hlc_recall),
    "hlc-minlen": ("interval length for recall 1/2", ("eps_app", "n", "beta"), hlc_min_len_half_recall),
    "pma-est": (
        "false-positive estimate under correlation",
        ("eps", "g2", "beta", "p_ind"),
        pma_fpr_estimate,
    ),
}


def _tune(eps_app: int, n: int, beta: float, ell: float, eta: float) -> list[tuple[str, Any]]:
    interval = admissible_eps_mon(eps_app, n, beta, ell, eta)
    pairs: list[tuple[str, Any]] = [("eps_app", eps_app), ("n", n), ("beta", beta), ("ell", ell), ("eta", eta)]
    if eta < 1.0:
        # the threshold is only defined for targets strictly below 1; at
        # eta = 1 the interval below is the single point eps_app anyway
        pairs += [
            ("phase_transition", phase_transition(n, beta, ell, eta)),
            ("hypersensitive", is_hypersensitive(eps_app, n, beta, ell, eta)),
        ]
    if interval.empty:
        # no window satisfies both targets; offer the one-sided picks
        pairs += [
            ("admissible", "empty"),
            ("recall_first_eps_mon", interval.lo),
            ("recall_first_precision", precision(interval.lo, eps_app, n, beta, ell)),
            ("precision_first_eps_mon", interval.hi),
            ("precision_first_recall", recall(interval.hi, eps_app, n, beta, ell)),
        ]
    else:
        hi = "inf" if interval.unbounded_hi else _fmt(interval.hi)
        closer = ")" if interval.unbounded_hi else "]"
        pairs.append(("admissible", f"[{_fmt(interval.lo)}, {hi}{closer}"))
    return pairs


# the tune command's settings in call order and its (name, value) pairs
_TUNE = (("eps_app", "n", "beta", "ell", "eta"), _tune)


def _cmd_analytic(args: argparse.Namespace) -> int:
    s = _Settings(args)
    names, form = args.closed_form
    value = form(*(s.get(k, 1) if k == "ell" else s.require(k) for k in names))
    text = "".join(f"{k} = {_fmt(v)}\n" for k, v in value) if isinstance(value, list) else _fmt(value) + "\n"
    _deliver(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------


# what a data command's run gives _cmd_data: (config, rows, columns,
# echo extras)
_Result = tuple[SimConfig, list[dict[str, Any]], list[str], dict[str, Any]]


def _simulate(s: _Settings, spec: None) -> _Result:
    cfg = _build_sim(s)
    eps_check = s.get("eps_check", float(cfg.epsilon_app))
    row = fpr_row(cfg, eps_check, s.get("warmup"))
    if s.args.trace_out is not None:
        _deliver("".join(line + "\n" for line in trace_records(row.trace)), s.args.trace_out)
    rows = [row.as_dict()]
    return cfg, rows, list(rows[0]), {"eps_check": eps_check, "warmup": row.warmup}


def _sweep(s: _Settings, spec: Mapping[str, Any]) -> _Result:
    defaults = dict(spec["base"])
    grid: dict[str, list[Any]] = {}
    for axis, values in spec["grid"].items():
        # axes swept by the grid override per row, so the base value is
        # only a placeholder; an explicit flag pins the axis instead
        defaults.setdefault(axis, values[0])
        key = "eps_app" if axis == "epsilon_app" else axis
        grid[axis] = [s.get(key)] if s.given(key) else list(values)
    base = _build_sim(s, defaults)
    seed0 = s.seed()
    offsets = range(s.get("replicates")) if s.given("replicates") else spec["seeds"]
    seeds = [seed0 + i for i in offsets]
    warmup = s.get("warmup", spec.get("warmup"))
    jobs = s.get("jobs", 1)
    rows = [r.as_dict() for r in sweep(base, grid, seeds, warmup=warmup, jobs=jobs)]
    echo = {
        "preset": s.args.preset,
        "seeds": tuple(seeds),
        "warmup": warmup if warmup is not None else default_warmup(base),
        "jobs": jobs,
        **{f"grid_{axis}": tuple(values) for axis, values in grid.items()},
    }
    return base, rows, list(rows[0]), echo


def _prdiagram(s: _Settings, spec: Mapping[str, Any]) -> _Result:
    eps_mon_values = s.args.eps_mon_list or spec["eps_mon"]
    eps_apps = s.args.eps_app_list or spec["eps_app"]
    base = _build_sim(s, {"epsilon_app": eps_apps[0], **spec["base"]})
    mode = s.get("mode", "analytic")
    replicates = s.get("replicates", spec["replicates"])
    rows = pr_diagram(base, eps_mon_values, eps_apps, mode, replicates, s.get("warmup"))
    echo = {
        "mode": mode,
        "replicates": replicates,
        "eps_mon_values": tuple(eps_mon_values),
        "eps_app_values": tuple(eps_apps),
    }
    return base, rows, ["eps_mon", "eps_app", "precision", "recall", "flags"], echo


def _partial(s: _Settings, spec: Mapping[str, Any]) -> _Result:
    base = _build_sim(s, spec["base"])
    p_values = s.get("p", spec["p"])
    replicates = s.get("replicates", spec["replicates"])
    fractions = partial_fractions(base, p_values, replicates)
    rows = [{"p": p, "fraction": f, "flags": row_flags(None, f)} for p, f in zip(p_values, fractions)]
    echo = {"replicates": replicates, "p_values": tuple(p_values)}
    return base, rows, ["p", "fraction", "flags"], echo


def _hlc_curve(s: _Settings, spec: Mapping[str, Any]) -> _Result:
    base = _build_sim(s, spec["base"])
    ell_values = s.args.ell_list or spec["ell"]
    replicates = s.get("replicates", spec["replicates"])
    rows = [
        {"ell": ell, "recall_sim": sim, "recall_analytic": closed, "flags": row_flags(None, sim)}
        for ell, sim, closed in hlc_recall_curve(base, ell_values, replicates)
    ]
    echo = {"replicates": replicates, "ell_values": tuple(ell_values)}
    return base, rows, ["ell", "recall_sim", "recall_analytic", "flags"], echo


def _list_flag(flag: str, what: str) -> tuple[str, dict[str, Any]]:
    """A flag-only comma-separated list, stored as ``<name>_list``."""
    dest = flag[2:].replace("-", "_") + "_list"
    return flag, {"type": _int_list, "dest": dest, "metavar": "LIST", "help": f"comma-separated {what}"}


_IO = ("config", "out", "format")

# command -> (preset kind, help, default preset, settings, list flags,
# run).  _cmd_data resolves the preset, calls the run, then echoes,
# renders and delivers what it returns.  Runs name the experiments
# through this module's globals at call time, so a patched module
# attribute is the one that runs.
_DATA: dict[str, tuple[Any, ...]] = {
    "simulate": (None, "one seeded false-positive experiment", None,
                 ("n", "eps_app", "eps_check", "delta", "alpha", "beta", "ell", "geom_p",
                  "horizon", "seed", "warmup", *_IO, "trace_out"),
                 (), _simulate),
    "sweep": ("sweep", "preset-driven false-positive sweeps", None,
              ("n", "eps_app", "delta", "alpha", "beta", "ell", "geom_p", "horizon", "seed",
               "replicates", "warmup", "jobs", *_IO),
              (), _sweep),
    "prdiagram": ("prdiagram", "precision/recall over a window grid", "fig-pr-diagram",
                  ("mode", "n", "delta", "alpha", "beta", "ell", "horizon", "seed", "replicates",
                   "warmup", *_IO),
                  (_list_flag("--eps-mon", "monitor windows (ticks)"),
                   _list_flag("--eps-app", "application windows (ticks)")), _prdiagram),
    "partial": ("partial", "p-of-n detection fractions, quasi vs partial sync", "table-partial",
                ("p", "n", "eps_app", "delta", "alpha", "beta", "ell", "geom_p", "horizon", "seed",
                 "replicates", *_IO),
                (), _partial),
    "hlc-curve": ("hlc", "quasi-monitor recall vs interval length", "fig-hlc",
                  ("n", "eps_app", "delta", "alpha", "beta", "horizon", "seed", "replicates", *_IO),
                  (_list_flag("--ell", "interval lengths (ticks)"),), _hlc_curve),
}


def _presets(kind: str) -> list[str]:
    return [name for name, spec in PRESETS.items() if spec["kind"] == kind]


def _cmd_data(args: argparse.Namespace) -> int:
    s = _Settings(args)
    kind, _, default, _, _, run = _DATA[args.command]
    name = getattr(args, "preset", None) or default
    if kind is not None and name is None:
        raise ValueError(f"{args.command} requires --preset ({' or '.join(_presets(kind))})")
    cfg, rows, columns, extras = run(s, PRESETS[name] if name else None)
    echo = {**config_columns(cfg), "command": args.command, **extras}
    _deliver(_render_rows(s.get("format", "csv"), rows, columns, echo), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psml",
        description="Accuracy laboratory for conjunctive-predicate monitors "
        "under partial synchrony.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    analytic = sub.add_parser(
        "analytic", help="evaluate closed forms", description="Closed-form values."
    )
    asub = analytic.add_subparsers(dest="form", required=True, metavar="form")

    for name, (help_, names, fn) in _FORMS.items():
        form = asub.add_parser(name, help=help_)
        _add_flags(form, *names, "config", "out")
        form.set_defaults(func=_cmd_analytic, closed_form=(names, fn))

    tune = sub.add_parser(
        "tune",
        help="pick a monitor window for an accuracy target",
        description="Report the admissible window interval, the "
        "hypersensitivity verdict, and one-sided fallbacks when no window "
        "meets both targets.",
    )
    _add_flags(tune, *_TUNE[0], "config", "out")
    tune.set_defaults(func=_cmd_analytic, closed_form=_TUNE)

    for command, (kind, help_, _, names, lists, _) in _DATA.items():
        cmd = sub.add_parser(command, help=help_)
        if kind is not None:
            cmd.add_argument("--preset", choices=_presets(kind))
        for flag, kwargs in lists:
            cmd.add_argument(flag, **kwargs)
        _add_flags(cmd, *names)
        cmd.set_defaults(func=_cmd_data)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for out in (getattr(args, "out", None), getattr(args, "trace_out", None)):
            if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
                raise ValueError(f"no directory to write {out} in")
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"psml: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"psml: runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
