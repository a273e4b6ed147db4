"""Property-based input gate: every input gives a right answer or one error line.

``cli.main`` runs in process over bounded configurations (s <= 6,
n_max <= 12) whose float flags also take nan, +-inf, +-0, negatives and
the float64 extremes, passed as ``--flag=value`` or as separate tokens.
The grid budget is lowered to 1e6 values, so no accepted configuration
allocates more than about that; larger work is only ever refused by the
size estimates.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from stepwork import cli, protocol

BUDGET = 10**6
_EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, -1e300]
_EDGE_INT = [-1, 0, 1, 2, 3]
_ERROR_LINE = re.compile(r"error: [a-z-]+: \S")


@st.composite
def _argv(draw):
    """A valid configuration with some flags swapped for edge values or dropped."""
    command = draw(st.sampled_from(["run-center", "run-spring", "pathways"]))
    flags = {"s": draw(st.integers(2 if command == "run-spring" else 1, 6)),
             "nmax": draw(st.integers(0, 12)), "a": draw(st.floats(1e-3, 64.0))}
    if command == "run-spring":
        flags["omega-ratio"] = draw(st.floats(1.0, 4.0))
    else:
        flags["lambda-s"] = draw(st.floats(-20.0, 20.0))
    if command == "pathways":
        flags["tol"] = draw(st.floats(0.0, 1.0))
        flags["eps"] = draw(st.floats(0.0, 1e-6))
    flags["x-points"] = None
    if command != "pathways":  # the pathway scan takes no work grid
        flags["w-points"] = None
    for name, value in flags.items():
        change = draw(st.sampled_from(["keep"] * 4 + ["default", "edge"]))
        if change == "default":
            flags[name] = None
        elif change == "edge":
            flags[name] = draw(st.sampled_from(_EDGE if isinstance(value, float) else _EDGE_INT))
    # "--flag=value", or the value as a token of its own, which argparse reads
    # as an option when it starts with "-" and is no plain number ("-inf")
    joined = draw(st.booleans())
    argv = [command]
    for name, value in flags.items():
        if value is not None:
            argv += [f"--{name}={value!r}"] if joined else [f"--{name}", repr(value)]
    return argv


def _run(argv, out):
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        mp.setattr(protocol, "GRID_BUDGET", BUDGET)
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
    return code, err.getvalue(), [str(w.message) for w in caught]


def _profile(out):
    """The config and the rows of a run's profile.csv."""
    lines = (out / "profile.csv").read_text().splitlines()
    config = json.loads(lines[0][len("# config: "):])
    return config, np.array([[float(v) for v in line.split(",")] for line in lines[2:]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["run-spring", "--a=1e300"])
@example(argv=["run-center", "--a=1e300"])
@example(argv=["run-center", "--s=2", "--lambda-s=1e-300"])
@example(argv=["run-center", "--s=2", "--lambda-s=5e-324"])
@example(argv=["pathways", "--s=1"])
@example(argv=["run-center", "--a=1e-300", "--s=6", "--nmax=12"])
@example(argv=["pathways", "--s=3", "--nmax=0", "--a=4.0", "--lambda-s=16.0"])
@example(argv=["run-center", "--a", "-inf"])
@example(argv=["run-spring", "--s", "3", "--a", "-1e+300"])
@example(argv=["pathways", "--lambda-s", "-2.0", "--s", "2"])
@example(argv=["run-center", "--nmax=100000000"])
@example(argv=["run-spring", "--s=100000000", "--nmax=0"])
@example(argv=["run-center", "--lambda-s=0.0"])
@example(argv=["run-spring", "--omega-ratio=1.0"])
@example(argv=["run-center", "--lambda-s=20.0", "--s=2", "--x-points=3"])
@example(argv=["run-spring", "--x-points=3"])
@example(argv=["run-spring", "--w-points=3"])
def test_every_input_gives_an_answer_or_one_error_line(argv, oracles):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err, caught = _run(argv, out)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2)
        assert not caught, caught
        assert "Traceback" not in err
        if code != 0:
            assert len(err.splitlines()) == 1 and _ERROR_LINE.match(err), err
            assert not out.exists() or not list(out.iterdir())
            return
        assert err == ""
        if argv[0] == "pathways":
            payload = json.loads((out / "decomposition.json").read_text())
            assert payload["reconstruction_error"] <= 1e-12
            return
        cfg, profile = _profile(out)
        # every distribution integrates to 1 under the trapezoid rule over its own
        # rows, and its mean and std meet the closed-form profile's; a no-work
        # spike (std_W = 0) must meet them exactly
        bound = 1e-9 if argv[0] == "run-center" else 1e-3
        for path in out.glob("workdist_step_*.csv"):
            w, rho = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2).T
            mass = np.trapezoid(rho, w)
            assert abs(mass - 1.0) <= oracles.RHO_MASS_TOL, (path.name, mass)
            mean = np.trapezoid(w * rho, w) / mass
            std = math.sqrt(np.trapezoid((w - mean) ** 2 * rho, w) / mass)
            mean_w, std_w = profile[int(path.stem.rsplit("_", 1)[1]) - 1, 4:6]
            assert abs(mean - mean_w) <= bound * std_w, (path.name, mean, mean_w, std_w)
            assert abs(std - std_w) <= bound * std_w, (path.name, std, std_w)
        delta_f = list(profile[:, 2])
        s, a, n_max = cfg["s"], cfg["a"], cfg["n_max"]
        if argv[0] == "run-center":
            exact = [0.0] if s == 1 else oracles.center_exact_profile(cfg["lambda_s"], s, a,
                                                                      n_max)
        elif n_max == 0 or math.exp(-a) < 1e-16:  # first excited weight exp(-a0 omega_1)
            exact = [oracles.spring_ground_state_df(a, cfg["omega_ratio"], s)]
            delta_f = delta_f[-1:]
        else:
            return
        assert delta_f == pytest.approx(exact, rel=1e-9, abs=1e-9)
