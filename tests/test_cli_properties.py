"""Property-based input gate: every input gives a right answer or one error line.

``cli.main`` runs in process over bounded configurations (s <= 6,
n_max <= 12) whose float flags also take nan, +-inf, +-0, negatives and
the float64 extremes, passed as ``--flag=value`` or as separate tokens.
The grid budget is lowered to 1e6 values, so no accepted configuration
allocates more than about that; larger work is only ever refused by the
size estimates.  An admitted run's traced peak is held to its largest
charge to the budget, with one usable CPU so that its export, formatted in
process, is traced too.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, event, example, given, settings
from hypothesis import strategies as st
from reference import (
    center_exact_profile,
    center_gaussian_profile,
    center_truncation_share,
    format_number,
    spring_gaussian_profile,
    spring_quadrature_profile,
)

from stepwork import cli, pathways, protocol, workdist

BUDGET = 10**6
_EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1e308, -1e300]
_EDGE_INT = [-1, 0, 1, 2, 3, 10**400]
_ERROR_LINE = re.compile(r"error: [a-z-]+: \S")
# traced bytes of an admitted run that no charge covers
_UNCHARGED_BYTES = 64 * 1024


@st.composite
def _argv(draw):
    """A valid configuration with some flags swapped for edge values or dropped."""
    command = draw(st.sampled_from(["run-center", "run-spring", "pathways"]))
    # the center oracle keeps its digits at any a; below a = 1e-3, E_n - 1 of
    # the spring quadrature falls under its last digit
    a = (math.exp(draw(st.floats(math.log(1e-12), math.log(64.0)))) if command == "run-center"
         else draw(st.floats(1e-3, 64.0)))
    flags = {"s": draw(st.integers(2 if command == "run-spring" else 1, 6)),
             "nmax": draw(st.integers(0, 12)), "a": a}
    if command == "run-spring":
        flags["omega-ratio"] = draw(st.floats(1.0, 4.0))
    else:
        flags["lambda-s"] = draw(st.floats(-20.0, 20.0))
    if command == "pathways":
        flags["tol"] = draw(st.floats(0.0, 1.0))
    flags["x-points"] = draw(st.one_of(st.none(), st.integers(4, 400)))
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
    """main()'s exit code, stderr, warnings, traced peak in bytes, and the
    largest value it charged to the budget."""
    err, charges, check = io.StringIO(), [], protocol.check_grid_budget

    def charge(what, values, *remedy):
        charges.append(values)
        check(what, values, *remedy)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        mp.setattr(protocol, "GRID_BUDGET", BUDGET)
        for module in (protocol, workdist, pathways):
            mp.setattr(module, "check_grid_budget", charge)
        warnings.simplefilter("always")
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, err.getvalue(), [str(w.message) for w in caught], peak, max(charges, default=0)


def _profile(out):
    """The config and the rows of a run's profile.csv."""
    lines = (out / "profile.csv").read_text().splitlines()
    config = json.loads(lines[0][len("# config: "):])
    return config, np.array([[float(v) for v in line.split(",")] for line in lines[2:]])


# no explain phase: after a first failure it traces each later example, and
# its tracer's allocations would land in _run's tracemalloc window
@settings(max_examples=150, deadline=None, derandomize=True,
          phases=[p for p in Phase if p is not Phase.explain])
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
# once admitted at a charge of 956,107 values, while its export, charged
# nothing, traced about 8 times that
@example(argv=["run-spring", "--s=2", "--w-points=600000"])
# once admitted, it pulled to 0.2 while its config echoed lambda_s = 1
@example(argv=["run-center", "--s=3", "--dlambda=0.1"])
# once admitted with total 181.55 against 90.73: at s = 2 nothing checked
# that the 3-node x grid held the step density
@example(argv=["pathways", "--s=2", "--nmax=0", "--a=0.001",
               "--lambda-s=-13.474100690675169", "--x-points=2"])
# once admitted on x grids that held the density's mass only to 4.8e-8 and
# 2.3e-6, inside a tolerance of 1e-4: the std of rho_2 was 8.4e-7 off, and
# the spring means 1.5e-5 std_W
@example(argv=["run-center", "--s=5", "--nmax=0", "--a=1.0", "--lambda-s=3.0",
               "--x-points=2"])
@example(argv=["run-spring", "--s=3", "--x-points=17"])
# once warned of an overflow: a huge a overflowed the Boltzmann exponents, and
# at n = 0 the product -inf * 0 made the ground weight NaN, refused as config
@example(argv=["run-spring", "--a=1e307"])
@example(argv=["run-spring", "--a=1e308", "--s=3", "--nmax=12"])
@example(argv=["pathways", "--a=9e307", "--lambda-s=0.0", "--s=2", "--nmax=0"])
# once admitted: a pull that does no work built no density, so nothing checked
# that two x points could hold one
@example(argv=["run-center", "--lambda-s=0", "--s=3", "--x-points=2"])
# the states past n_max carry 7.0e-13 of the tilted weight, under the 1e-12
# that holds the profile to its n_max -> infinity limit, though
# e^{-2a(n_max+1)} alone is 7.8e-20
@example(argv=["run-center", "--a=2.0", "--s=3", "--lambda-s=5.0", "--nmax=10"])
def test_every_input_gives_an_answer_or_one_error_line(argv, oracles):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err, caught, peak, charged = _run(argv, out)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2)
        assert not caught, caught
        assert "Traceback" not in err
        if code != 0:
            assert len(err.splitlines()) == 1 and _ERROR_LINE.match(err), err
            assert not out.exists()
            return
        assert err == ""
        # an admitted run holds no more than it is charged, but for argparse,
        # the config and small arrays (traced at most 38 KB over 1.1 times the charge)
        assert peak <= 1.1 * 8 * charged + _UNCHARGED_BYTES, (peak, charged)
        if argv[0] == "pathways":
            payload = json.loads((out / "decomposition.json").read_text())
            assert payload["reconstruction_error"] <= 1e-12
            return
        cfg, profile = _profile(out)
        if argv[0] == "run-center":
            # the pull ends at the lambda_s it echoes (s = 1 does no work and stays at 0)
            end = 0.0 if cfg["s"] == 1 else float(format_number(cfg["lambda_s"]))
            assert profile[-1, 1] == end, (profile[-1, 1], cfg)
        # every distribution integrates to 1 under the trapezoid rule over its own
        # rows, and its mean and std meet the closed-form profile's; a no-work
        # spike (std_W = 0) must meet them exactly.  The spring deposit splits
        # each image between its two nodes, which keeps every mean and adds
        # d (1 - d) h^2 <= h^2 / 4 of variance a step, d the image's fraction
        # of its cell
        for path in out.glob("workdist_step_*.csv"):
            w, rho = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2).T
            mass = np.trapezoid(rho, w)
            assert abs(mass - 1.0) <= oracles.RHO_MASS_TOL, (path.name, mass)
            mean = np.trapezoid(w * rho, w) / mass
            std = math.sqrt(np.trapezoid((w - mean) ** 2 * rho, w) / mass)
            step = int(path.stem.rsplit("_", 1)[1])
            mean_w, std_w = profile[step - 1, 4:6]
            assert abs(mean - mean_w) <= 1e-9 * std_w, (path.name, mean, mean_w, std_w)
            if argv[0] == "run-center":
                assert abs(std - std_w) <= 1e-9 * std_w, (path.name, std, std_w)
                continue
            deposit = (step - 1) * (w[1] - w[0]) ** 2 / 4 if std_w else 0.0
            var_w = std_w * std_w
            excess = std * std - var_w
            assert -1e-9 * var_w <= excess <= deposit + 1e-9 * var_w, (path.name, excess, deposit)
        delta_f = list(profile[:, 2])
        s, a, n_max = cfg["s"], cfg["a"], cfg["n_max"]
        # where the states past n_max carry no weight, the profile sits on its
        # n_max -> infinity limit.  The center share counts the pull's tilt; the
        # spring share is at most e^{-a(n_max+1)} sqrt(1 + a delta/2) / (1 - e^{-a})
        limit = None
        if argv[0] == "run-center":
            if s > 1 and center_truncation_share(a, cfg["lambda_s"] / (s - 1), n_max) <= 1e-12:
                limit = center_gaussian_profile(cfg["lambda_s"], s, a)[0]
        else:
            delta = (cfg["omega_ratio"] ** 2 - 1.0) / (s - 1)
            bound = math.exp(-a * (n_max + 1)) * math.sqrt(1.0 + 0.5 * a * delta)
            if bound <= -1e-12 * math.expm1(-a):
                limit = spring_gaussian_profile(cfg["omega_ratio"], s, a)
        if limit is not None:
            event(f"{argv[0]} held to the Gaussian limit")
            assert delta_f == pytest.approx(limit, rel=1e-9, abs=1e-9)
        if argv[0] == "run-center":
            exact = [0.0] if s == 1 else center_exact_profile(cfg["lambda_s"], s, a, n_max)
        elif n_max == 0 or math.exp(-a) < 1e-16:  # first excited weight exp(-a0 omega_1)
            exact = [oracles.spring_ground_state_df(a, cfg["omega_ratio"], s)]
            delta_f = delta_f[-1:]
        elif a >= 1e-3:  # below it E_n - 1 is under the quadrature's last digit
            exact = spring_quadrature_profile(cfg["omega_ratio"], s, a, n_max)
        else:
            return
        assert delta_f == pytest.approx(exact, rel=1e-9, abs=1e-9)
