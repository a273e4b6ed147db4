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
import contextlib
import math
import os
import re
import sys
from itertools import pairwise, starmap

import numpy as np

from . import export, protocol
from .errors import GridTooLarge, GridTooNarrow, MassLeak, NonFiniteResult
from .free_energy import free_energy_profile
from .pathways import (DEFAULT_TOL, TransitionRecord, _check_tol, decompose_free_energy,
                       overlap_measure)
from .protocol import build_center_schedule, build_spring_schedule, default_temperature_sweep
from .workdist import fluctuation_density, run_work_recursion

_CENTER_DEFAULTS = {"protocol": "center", "lambda_s": 1.0, "s": 11, "a": 1.0, "n_max": 10,
                    "x_points": None, "w_points": None, "out": "."}
_SPRING_DEFAULTS = {"protocol": "spring", "omega_ratio": 1.3, "s": 11, "a": 0.1,
                    "n_max": 100, "x_points": None, "w_points": None, "out": "."}
# the pathway scan reads no work grid, and sweep evaluates closed forms on
# no grid: pathways takes no w_points, and sweep no grid keys
_PATHWAY_DEFAULTS = {"protocol": "center", "lambda_s": 1.0, "s": 3, "a": 1.0,
                     "n_max": 3, "x_points": None, "tol": DEFAULT_TOL, "out": "."}
_SWEEP_DEFAULTS = {**_CENTER_DEFAULTS, "omega_ratio": 1.3, "sweep_param": "a",
                   "sweep_values": None}
del _SWEEP_DEFAULTS["x_points"], _SWEEP_DEFAULTS["w_points"]


def _number_list(text):
    return [float(v) for v in text.split(",")]


def _resolve(args):
    """defaults < command-line flags; a key left unset is dropped.
    The keys that a flag sets are left in ``args.explicit``."""
    args.explicit = {key for key in args.defaults if getattr(args, key, None) is not None}
    cfg = args.defaults | {key: getattr(args, key) for key in args.explicit}
    return {k: v for k, v in cfg.items() if v is not None}


@contextlib.contextmanager
def _outputs(out, names):
    """Make ``out`` and yield the path of each named file in it.  If the block
    raises, those files and then the directories made here, deepest first, are
    removed, so an ``out`` that existed stays; a path it cannot remove is left."""
    made, parent = [], os.path.abspath(out)
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    paths = [os.path.join(out, name) for name in names]
    try:
        os.makedirs(out, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise PermissionError(f"{out} is not writable")
        yield paths
    except BaseException:
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _schedule_from(cfg):
    """The pull schedule a resolved run, sweep-point or pathways config asks for."""
    grids = {"x_points": cfg.get("x_points"), "w_points": cfg.get("w_points")}
    if cfg["protocol"] == "spring":
        return build_spring_schedule(cfg["omega_ratio"], cfg["s"], cfg["a"], cfg["n_max"],
                                     **grids)
    return build_center_schedule(cfg["lambda_s"], cfg["s"], cfg["a"], cfg["n_max"], **grids)


def cmd_run(args, cfg):
    schedule = _schedule_from(cfg)
    profile = free_energy_profile(schedule)
    # charged here; each distribution is built in _outputs, as it is written out
    ledger = run_work_recursion(schedule)
    meta = dict(cfg, increment=schedule.increment, x_points_resolved=schedule.x_grid.points,
                w_points_resolved=schedule.w_grid.points)
    header, rows = export.profile_rows(profile)
    names = [f"workdist_step_{i}.csv" for i in range(2, schedule.s + 1)]
    with _outputs(cfg["out"], ["profile.csv", *names]) as (path, *paths):
        # a longer earlier run's distributions past step s would outlive this run's profile
        for name in os.listdir(cfg["out"]):
            step = re.fullmatch(r"workdist_step_([1-9][0-9]*)\.csv", name)
            if step and int(step[1]) > schedule.s:
                os.remove(os.path.join(cfg["out"], name))
        export.write_csv(path, header, rows, meta)
        export.write_densities(paths, ledger, meta)
    print(f"{args.command}: s={schedule.s} a={schedule.a} "
          f"n_max={schedule.n_max} dF={profile.endpoint:.12g}")
    return 0


def _sweep_point(cfg, param, value):
    """The config of one sweep point; a value the sweep cannot take is refused."""
    point = dict(cfg)
    if param == "a":
        point["a"] = value
    elif param == "nmax":
        if not value.is_integer():
            raise ValueError(f"nmax sweep values must be integers, not {value}")
        point["n_max"] = int(value)
    elif param == "dlambda":
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"dlambda sweep values must be finite and positive, not {value}")
        n_steps = cfg["lambda_s"] / value
        if not (math.isfinite(n_steps) and n_steps > 0.5 and abs(n_steps - round(n_steps)) <= 1e-9):
            raise ValueError(f"dlambda {value} does not divide lambda_s = {cfg['lambda_s']} "
                             "into a positive whole number of steps")
        steps = round(n_steps)
        point.update(s=steps + 1, lambda_s=value * steps)
    return point


def cmd_sweep(args, cfg):
    param = cfg["sweep_param"]
    if param == "dlambda" and cfg["protocol"] != "center":
        raise ValueError("the dlambda sweep applies to the center protocol")
    # each point sets its swept key (a dlambda point its s), and neither
    # protocol reads the other's pull
    unread = {{"a": "a", "nmax": "n_max", "dlambda": "s"}[param],
              {"center": "omega_ratio", "spring": "lambda_s"}[cfg["protocol"]]}
    ignored = sorted(unread & args.explicit)
    if ignored:
        raise ValueError(f"a {cfg['protocol']} sweep over {param} ignores "
                         f"{', '.join(ignored)}; leave it unset")
    cfg = {k: v for k, v in cfg.items() if k not in unread}
    if param == "a" and "sweep_values" not in cfg:
        cfg["sweep_values"] = default_temperature_sweep()
    if not cfg.get("sweep_values"):
        raise ValueError("sweep needs a non-empty --values list")
    values = [float(v) for v in cfg["sweep_values"]]
    points = [_sweep_point(cfg, param, v) for v in values]
    if param == "dlambda" and len(set(values)) < 2:
        raise ValueError("a dlambda sweep fits a line and needs two distinct values")
    rows = []
    for value, point in zip(values, points):
        profile = free_energy_profile(_schedule_from(point))
        rows.append((value, profile.endpoint, float(profile.mean_work[-1]),
                     float(profile.std_work[-1]), float(profile.targets[-1])))

    comments = [cfg]
    if param == "dlambda":
        slope, intercept = np.polyfit([r[0] for r in rows], [r[1] for r in rows], 1)
        fit = f"slope={slope:.12g} intercept={intercept:.12g}"
        comments.append("fit: " + fit)
        print("sweep fit: " + fit)
    with _outputs(cfg["out"], ["sweep.csv"]) as (path,):
        export.write_csv(path, [param, "delta_F", "mean_W", "std_W", "oracle"], rows, comments)
    print(f"sweep: wrote {len(rows)} points to {path}")
    return 0


def cmd_pathways(args, cfg):
    schedule = _schedule_from(cfg)
    tol = float(cfg["tol"])
    _check_tol(tol)
    # the overlap densities are charged, built, read two at a time and dropped
    # before the split, which builds none of them, so they are never held next
    # to its tables or records.  Building them checks that the x grid holds
    # each step's density, at s = 2 too, where there is no pair to overlap
    protocol.check_grid_budget("the grids", schedule.density_values)
    densities = (fluctuation_density(schedule.spectrum(i), schedule.a, schedule.x_grid)
                 for i in range(1, schedule.s))
    overlaps = [{"steps": [i, i + 1], "dx": dx, "mass": mass} for i, (dx, mass)
                in enumerate(starmap(overlap_measure, pairwise(densities)), start=1)]

    # each transition's records are appended as they are scanned
    rows = 0
    with _outputs(cfg["out"], ["transitions.csv", "decomposition.json"]) as (path, json_path):
        export.write_csv(path, TransitionRecord._fields, (), cfg)
        with open(path, "ab") as fh:
            def write(records):
                nonlocal rows
                fh.write(export.format_rows(records).body)
                rows += len(records)

            decomp = decompose_free_energy(schedule, tol=tol, on_records=write)
        export.write_json(json_path, {
            "config": cfg,
            "delta_F": decomp.delta_f,
            "contributions": decomp.contributions,
            "counts": decomp.counts,
            "reconstruction_error": decomp.reconstruction_error,
            "overlaps": overlaps,
        })
    print(f"pathways: {rows} optimal transitions, "
          f"reconstruction error {decomp.reconstruction_error:.12g}")
    return 0


def _add_common(parser, defaults):
    # a grid flag for each grid key of the command's defaults
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
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="stepwork",
        description="Free-energy changes from step-wise pulling work distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-center", help="trap-center pulling run")
    _add_common(p, _CENTER_DEFAULTS)
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
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.add_argument("--omega-ratio", type=float, dest="omega_ratio")
    p.set_defaults(func=cmd_sweep, defaults=_SWEEP_DEFAULTS)

    p = sub.add_parser("pathways", help="transition scan and pathway decomposition")
    _add_common(p, _PATHWAY_DEFAULTS)
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.add_argument("--tol", type=float, help="residual tolerance (log-ratio units)")
    p.set_defaults(func=cmd_pathways, defaults=_PATHWAY_DEFAULTS)
    return parser


# the error contract: each failure's "error: <token>: detail" token and exit
# code: bad input raises ValueError, and an output that cannot be written OSError
_FAILURES = ((ValueError, "config", 2), (OSError, "output-unwritable", 2),
             (GridTooLarge, "grid-too-large", 2), (MassLeak, "mass-leak", 1),
             (NonFiniteResult, "non-finite", 1), (GridTooNarrow, "grid-too-narrow", 1))


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
