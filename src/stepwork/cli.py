"""Command-line front end: runs pipelines and writes machine-readable tables.

Subcommands
-----------
run-center   work distributions + free-energy profile for the trap-center pull
run-spring   the same for the spring-constant pull
sweep        endpoint free energy versus a, n_max, or dlambda (CSV + line fit)
pathways     transition scan and pathway-class decomposition of the free energy

Exit codes: 0 success, 1 numerical failure, 2 configuration or I/O error.
Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import export
from .errors import GridTooLarge, GridTooNarrow, MassLeak, NonFiniteResult, WorkerLost
from .free_energy import free_energy_profile, ground_state_closed_form_center
from .pathways import (DEFAULT_EPS_REL, DEFAULT_TOL, TransitionRecord, decompose_free_energy,
                       overlap_measure)
from .protocol import build_center_schedule, build_spring_schedule, default_temperature_sweep
from .workdist import fluctuation_density, run_work_recursion

_CENTER_DEFAULTS = {"protocol": "center", "lambda_s": 1.0, "dlambda": None, "s": 11,
                    "a": 1.0, "n_max": 10, "x_points": None, "w_points": None, "out": "."}
_SPRING_DEFAULTS = {"protocol": "spring", "omega_ratio": 1.3, "s": 11, "a": 0.1,
                    "n_max": 100, "x_points": None, "w_points": None, "out": "."}
# the pathway scan reads no work grid, and sweep evaluates closed forms on
# no grid: pathways takes no w_points, and sweep no grid keys
_PATHWAY_DEFAULTS = {"protocol": "center", "lambda_s": 1.0, "s": 3, "a": 1.0,
                     "n_max": 3, "x_points": None, "tol": DEFAULT_TOL, "eps": DEFAULT_EPS_REL,
                     "out": "."}
_SWEEP_DEFAULTS = {**_CENTER_DEFAULTS, "omega_ratio": 1.3, "sweep_param": "a",
                   "sweep_values": None}
del _SWEEP_DEFAULTS["x_points"], _SWEEP_DEFAULTS["w_points"]


class _ConfigError(Exception):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _ConfigError("config file must hold a JSON object")
    return cfg


def _number_list(text):
    return [float(v) for v in text.split(",")]


def _file_value_ok(value, flag_type, choices=None):
    """Whether a config-file value has the JSON type of what its flag parses
    to and, where the flag has choices, is one of them."""
    if isinstance(value, bool):
        return False
    if flag_type is _number_list:
        return isinstance(value, list) and all(_file_value_ok(v, float) for v in value)
    return (isinstance(value, {int: int, float: (int, float)}.get(flag_type, str))
            and (choices is None or value in choices))


def _resolve(args):
    """defaults < config file < command-line flags."""
    defaults = args.defaults
    cfg = dict(defaults)
    if args.config:
        file_cfg = _load_config(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise _ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if not _file_value_ok(value, args.flags[key].type, args.flags[key].choices):
                raise _ConfigError(f"config key {key!r} cannot take the value {json.dumps(value)}")
        cfg.update(file_cfg)
        # only sweep has a --protocol flag; every other command fixes its protocol
        if not hasattr(args, "protocol") and cfg["protocol"] != defaults["protocol"]:
            raise _ConfigError(f"{args.command} runs the {defaults['protocol']} protocol, "
                               f"not {cfg['protocol']}")
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _ensure_outdir(out):
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise PermissionError(str(exc)) from exc
    if not os.access(out, os.W_OK):
        raise PermissionError(f"{out} is not writable")
    return out


def _schedule_from(cfg):
    """The pull schedule a resolved run, sweep-point or pathways config asks for."""
    grids = {"x_points": cfg.get("x_points"), "w_points": cfg.get("w_points")}
    if cfg["protocol"] == "spring":
        return build_spring_schedule(cfg["omega_ratio"], cfg["s"], cfg["a"], cfg["n_max"],
                                     **grids)
    lambda_s = cfg["lambda_s"]
    if cfg.get("dlambda") is not None:
        lambda_s = cfg["dlambda"] * (cfg["s"] - 1)
    return build_center_schedule(lambda_s, cfg["s"], cfg["a"], cfg["n_max"], **grids)


def cmd_run(args, cfg):
    out = _ensure_outdir(cfg["out"])
    schedule = _schedule_from(cfg)
    profile = free_energy_profile(schedule)
    # the recursion runs only for the distributions written out
    ledger = run_work_recursion(schedule)
    meta = {k: v for k, v in cfg.items() if v is not None}
    meta.update(increment=schedule.increment, x_points_resolved=schedule.x_grid.points,
                w_points_resolved=schedule.w_grid.points)
    header, rows = export.profile_rows(profile)
    export.write_csv(os.path.join(out, "profile.csv"), header, rows, meta)
    paths = [os.path.join(out, f"workdist_step_{i}.csv") for i in range(2, schedule.s + 1)]
    export.write_densities(paths, ledger.distributions, meta)
    print(f"{args.command}: s={schedule.s} a={schedule.a} "
          f"n_max={schedule.n_max} dF={export.format_number(profile.endpoint)}")
    return 0


def _sweep_point(cfg, param, value):
    """One sweep evaluation: the endpoint profile and its oracle."""
    point = dict(cfg)
    if param == "a":
        point["a"] = float(value)
    elif param == "nmax":
        point["n_max"] = int(value)
    elif param == "dlambda":
        point.update(s=round(cfg["lambda_s"] / value) + 1, dlambda=float(value))
    schedule = _schedule_from(point)
    # the profile first: it refuses a non-finite target before the oracle reads it
    profile = free_energy_profile(schedule)
    if point["protocol"] == "center" and schedule.n_max == 0:
        oracle = ground_state_closed_form_center(schedule.a, schedule.increment, schedule.s)
    else:
        oracle = profile.targets[-1]
    mean_w = float(profile.mean_work[-1])
    std_w = float(profile.std_work[-1])
    return (float(value), profile.endpoint, mean_w, std_w, float(oracle))


def _check_sweep_value(param, value, lambda_s):
    if param == "nmax" and not value.is_integer():
        raise _ConfigError(f"nmax sweep values must be integers, not {value}")
    if param == "dlambda":
        if not (math.isfinite(value) and value > 0.0):
            raise _ConfigError(f"dlambda sweep values must be finite and positive, not {value}")
        n_steps = lambda_s / value
        if not (math.isfinite(n_steps) and n_steps > 0.5 and abs(n_steps - round(n_steps)) <= 1e-9):
            raise _ConfigError(f"dlambda {value} does not divide lambda_s = {lambda_s} "
                               "into a positive whole number of steps")


def cmd_sweep(args, cfg):
    param = cfg["sweep_param"]
    if param == "dlambda" and cfg["protocol"] != "center":
        raise _ConfigError("the dlambda sweep applies to the center protocol")
    if not cfg["sweep_values"]:
        if param != "a":
            raise _ConfigError("sweep needs a non-empty --values list")
        cfg["sweep_values"] = default_temperature_sweep()
    values = [float(v) for v in cfg["sweep_values"]]
    for value in values:
        _check_sweep_value(param, value, cfg["lambda_s"])
    if param == "dlambda" and len(set(values)) < 2:
        raise _ConfigError("a dlambda sweep fits a line and needs two distinct values")
    out = _ensure_outdir(cfg["out"])
    rows = [_sweep_point(cfg, param, v) for v in values]

    comments = [{k: v for k, v in cfg.items() if v is not None}]
    if param == "dlambda":
        slope, intercept = np.polyfit([r[0] for r in rows], [r[1] for r in rows], 1)
        fit = (f"slope={export.format_number(float(slope))} "
               f"intercept={export.format_number(float(intercept))}")
        comments.append("fit: " + fit)
        print("sweep fit: " + fit)
    path = os.path.join(out, "sweep.csv")
    export.write_csv(path, [param, "delta_F", "mean_W", "std_W", "oracle"], rows, comments)
    print(f"sweep: wrote {len(rows)} points to {path}")
    return 0


def cmd_pathways(args, cfg):
    out = _ensure_outdir(cfg["out"])
    schedule = _schedule_from(cfg)
    tol, eps = float(cfg["tol"]), float(cfg["eps"])

    # everything is computed before anything is written, so a failure leaves no output
    decomp = decompose_free_energy(schedule, tol=tol, eps_rel=eps)
    # each density once; with s = 2 there is no pair to overlap, and no density
    # (nor its boundary check) is built
    densities = [fluctuation_density(schedule.spectrum(i), schedule.a, schedule.x_grid)
                 for i in range(1, schedule.s)] if schedule.s > 2 else []
    overlaps = []
    for i, (f_prev, f_next) in enumerate(zip(densities, densities[1:]), start=1):
        dx, mass = overlap_measure(f_prev, f_next)
        overlaps.append({"steps": [i, i + 1], "dx": dx, "mass": mass})

    header = [*TransitionRecord._fields[:-1], "class"]
    rows = [(*r[:-1], r.label.value) for r in decomp.records]
    meta = {k: v for k, v in cfg.items() if v is not None}
    export.write_csv(os.path.join(out, "transitions.csv"), header, rows, meta)
    payload = {
        "config": meta,
        "delta_F": decomp.delta_f,
        "contributions": decomp.contributions,
        "counts": decomp.counts,
        "reconstruction_error": decomp.reconstruction_error,
        "overlaps": overlaps,
    }
    export.write_json(os.path.join(out, "decomposition.json"), payload)
    print(f"pathways: {len(decomp.records)} optimal transitions, "
          f"reconstruction error {export.format_number(decomp.reconstruction_error)}")
    return 0


def _add_common(parser, defaults):
    # a grid flag for each grid key of the command's defaults
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--s", type=int, help="number of pulling steps")
    parser.add_argument("--a", type=float, help="reduced temperature")
    parser.add_argument("--nmax", type=int, dest="n_max", help="eigenbasis truncation")
    for dest, grid in (("x_points", "position"), ("w_points", "work")):
        if dest in defaults:
            parser.add_argument(f"--{dest[0]}-points", type=int, dest=dest,
                                help=f"override {grid}-grid point count")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors (unknown flags, missing or
    malformed values, no subcommand) are configuration errors like any other."""

    def error(self, message):
        raise _ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="stepwork",
        description="Free-energy changes from step-wise pulling work distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-center", help="trap-center pulling run")
    _add_common(p, _CENTER_DEFAULTS)
    p.add_argument("--dlambda", type=float, help="pull increment (sets lambda_s = dlambda*(s-1))")
    p.add_argument("--lambda-s", type=float, dest="lambda_s", help="total pull distance")
    p.set_defaults(func=cmd_run, defaults=_CENTER_DEFAULTS)

    p = sub.add_parser("run-spring", help="spring-constant pulling run")
    _add_common(p, _SPRING_DEFAULTS)
    p.add_argument("--omega-ratio", type=float, dest="omega_ratio",
                   help="final over initial frequency")
    p.set_defaults(func=cmd_run, defaults=_SPRING_DEFAULTS)

    p = sub.add_parser("sweep", help="endpoint free energy versus one parameter")
    _add_common(p, _SWEEP_DEFAULTS)
    p.add_argument("--protocol", choices=["center", "spring"])
    p.add_argument("--param", choices=["a", "nmax", "dlambda"], dest="sweep_param")
    p.add_argument("--values", type=_number_list, dest="sweep_values",
                   help="comma-separated sweep values")
    p.add_argument("--omega-ratio", type=float, dest="omega_ratio")
    p.set_defaults(func=cmd_sweep, defaults=_SWEEP_DEFAULTS)

    p = sub.add_parser("pathways", help="transition scan and pathway decomposition")
    _add_common(p, _PATHWAY_DEFAULTS)
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.add_argument("--tol", type=float, help="residual tolerance (log-ratio units)")
    p.add_argument("--eps", type=float, help="relative density floor")
    p.set_defaults(func=cmd_pathways, defaults=_PATHWAY_DEFAULTS)

    # a config key is checked against its flag on any command, since sweep
    # takes lambda_s and dlambda from a file but has no flag for them
    parser.set_defaults(flags={action.dest: action for p in sub.choices.values()
                               for action in p._actions})
    return parser


# the error contract: each failure's "error: <token>: detail" token and exit
# code, for the first class in this order that the exception is an instance of
_FAILURES = ((_ConfigError, "config", 2), (PermissionError, "output-unwritable", 2),
             (GridTooLarge, "grid-too-large", 2), (MassLeak, "mass-leak", 1),
             (NonFiniteResult, "non-finite", 1), (GridTooNarrow, "grid-too-narrow", 1),
             (WorkerLost, "worker-lost", 1),
             (ValueError, "config", 2), (OSError, "config", 2))


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _resolve(args))
    except tuple(cls for cls, _, _ in _FAILURES) as exc:
        token, code = next((t, c) for cls, t, c in _FAILURES if isinstance(exc, cls))
        print(f"error: {token}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
