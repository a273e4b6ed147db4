"""Closed-form free energies and output checks for the benchmark workloads.

Nothing here imports stepwork: every oracle is derived from the physics, not
from the grid pipeline, so a pipeline defect cannot hide in its own check.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# |integral rho dW - 1| allowed for every exported work distribution
RHO_MASS_TOL = 1e-9
# the CSVs carry 12 significant digits and the checked |dF| stay below 10, so
# residuals under this are print rounding and read as this
PRINT_RESOLUTION = 1e-12


def center_exact_profile(lambda_s, s, a, n_max):
    """Exact dF(1, i), i = 1..s, of the truncated center pull (hbar*omega/2 units).

    The steps are independent, so -beta dF(1, i) sums ln E[exp(-beta dW_j)]
    over j < i.  With k = beta*dlambda and the state n weighted by
    w_n ~ exp(-2 a n), each expectation is
    exp(-k (lambda_j + dlambda) / 2) * sum_n w_n exp(k^2/4) L_n(-k^2/2).
    """
    dlam = lambda_s / (s - 1)
    k = a * dlam
    x = -0.5 * k * k
    laguerre = [1.0, 1.0 - x]
    for n in range(1, n_max):
        laguerre.append(((2 * n + 1 - x) * laguerre[n] - n * laguerre[n - 1]) / (n + 1))
    weights = [math.exp(-2.0 * a * n) for n in range(n_max + 1)]
    log_mix = math.log(sum(w * l for w, l in zip(weights, laguerre)) / sum(weights))
    out = [0.0]
    for j in range(1, s):
        lam = lambda_s * ((j - 1) / (s - 1))
        out.append(out[-1] + (0.5 * k * (lam + dlam) - 0.25 * k * k - log_mix) / a)
    return out


def spring_ground_state_df(a0, omega_ratio, s):
    """Exact dF of the ground-state spring pull: (1/(2 a0)) sum_i ln(1 + a0 delta/(2 omega_i)).

    It is the oracle for any n_max once the first excited Boltzmann weight
    exp(-a0 omega_1) is below double precision.
    """
    delta = (omega_ratio * omega_ratio - 1.0) / (s - 1)
    return sum(math.log1p(0.5 * a0 * delta / math.sqrt(1.0 + delta * (i - 1)))
               for i in range(1, s)) / (2.0 * a0)


def _read_rows(path):
    """Data rows, as strings, of a stepwork CSV after its '# config:' and header lines."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[2:]


class Report:
    """Check failures, oracle residuals and the dF values read from one output directory."""

    def __init__(self):
        self.problems = []
        self.residuals = []
        self.delta_f = []

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def oracle(self, label, value, exact, tol):
        err = abs(value - exact)
        self.residuals.append(err)
        self.require(err <= tol, f"{label}: dF {value!r} is {err:.3e} from oracle {exact!r}")

    def jensen(self, label, delta_f, mean_w):
        # both columns carry 12 significant digits
        slack = 1e-11 * max(1.0, abs(mean_w))
        self.require(delta_f <= mean_w + slack, f"{label}: Jensen dF <= <W> fails "
                     f"({delta_f!r} > {mean_w!r})")

    @property
    def ok(self):
        return not self.problems

    @property
    def df_abs_err(self):
        return max(self.residuals + [PRINT_RESOLUTION])


def check_run_center(out, stdout, p):
    """profile.csv against the exact profile; every workdist CSV normalized."""
    rep = Report()
    s = p["s"]
    expected = {"profile.csv"} | {f"workdist_step_{i}.csv" for i in range(2, s + 1)}
    present = set(os.listdir(out))
    if not rep.require(expected <= present, f"missing outputs {sorted(expected - present)}"):
        return rep
    rows = _read_rows(os.path.join(out, "profile.csv"))
    exact = center_exact_profile(p["lambda_s"], s, p["a"], p["n_max"])
    rep.require(len(rows) == s, f"profile.csv has {len(rows)} rows, expected {s}")
    for row in rows[1:]:
        step, delta_f, mean_w = int(row[0]), float(row[2]), float(row[4])
        rep.oracle(f"step {step}", delta_f, exact[step - 1], p["df_tol"])
        rep.jensen(f"step {step}", delta_f, mean_w)
        rep.delta_f.append(delta_f)
    rep.require(stdout.rstrip().endswith(f"dF={rows[-1][2]}"),
                "printed dF differs from profile.csv")
    for i in range(2, s + 1):
        data = np.loadtxt(os.path.join(out, f"workdist_step_{i}.csv"),
                          delimiter=",", skiprows=2, ndmin=2)
        mass = float(np.trapezoid(data[:, 1], data[:, 0]))
        rep.require(abs(mass - 1.0) <= RHO_MASS_TOL,
                    f"workdist_step_{i}.csv integrates to {mass!r}")
    return rep


def check_sweep(out, stdout, p):
    """sweep.csv: one row per value, Jensen everywhere, the oracle where one exists."""
    rep = Report()
    path = os.path.join(out, "sweep.csv")
    if not rep.require(os.path.exists(path), "missing outputs ['sweep.csv']"):
        return rep
    rows = [[float(v) for v in row] for row in _read_rows(path)]
    rep.require([r[0] for r in rows] == p["values"], "sweep.csv values differ from the request")
    for a, delta_f, mean_w, _std, _target in rows:
        label = f"a={a!r}"
        rep.jensen(label, delta_f, mean_w)
        rep.delta_f.append(delta_f)
        if p["protocol"] == "center":
            exact = center_exact_profile(p["lambda_s"], p["s"], a, p["n_max"])[-1]
        elif math.exp(-a) < 1e-16:  # first excited weight exp(-a0 omega_1), omega_1 = 1
            exact = spring_ground_state_df(a, p["omega_ratio"], p["s"])
        else:
            continue
        rep.oracle(label, delta_f, exact, p["df_tol"])
    rep.require(rep.residuals != [], "no sweep point has an oracle")
    return rep


def check_pathways(out, stdout, p):
    """decomposition.json total against the exact profile; the classes recombine."""
    rep = Report()
    expected = {"decomposition.json", "transitions.csv"}
    present = set(os.listdir(out))
    if not rep.require(expected <= present, f"missing outputs {sorted(expected - present)}"):
        return rep
    with open(os.path.join(out, "decomposition.json")) as fh:
        decomp = json.load(fh)
    total = decomp["delta_F"]["total"]
    exact = center_exact_profile(p["lambda_s"], p["s"], p["a"], p["n_max"])[-1]
    rep.oracle("pathway total", total, exact, p["df_tol"])
    rep.delta_f.append(total)
    rep.require(decomp["reconstruction_error"] <= 1e-12,
                f"classes recombine with error {decomp['reconstruction_error']!r}")
    n_records = len(_read_rows(os.path.join(out, "transitions.csv")))
    rep.require(f"pathways: {n_records} optimal transitions" in stdout,
                f"transitions.csv holds {n_records} records, stdout says otherwise")
    return rep
