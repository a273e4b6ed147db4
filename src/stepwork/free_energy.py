"""Free-energy changes from work distributions, and the center ground-state closed form.

All center-protocol energies are in hbar*omega/2, all spring-protocol
energies in hbar*omega_0, and in both cases the reduced temperature of the
schedule acts as the inverse temperature beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult
from .protocol import PullSchedule
from .spectra import _logsumexp
from .workdist import GriddedDensity, _trapezoid_masses

__all__ = ["FreeEnergyProfile", "exponential_average", "free_energy_profile",
           "ground_state_closed_form_center"]


def exponential_average(rho: GriddedDensity, beta):
    """Free-energy change -ln(<exp(-beta W)>)/beta of one work distribution.

    The trapezoid sum runs as a log-sum-exp, so exp(-beta W) cannot underflow
    or overflow at any temperature.
    """
    mask = rho.values > 0.0
    if beta <= 0.0 or not mask.any():
        raise ValueError("need a positive inverse temperature and a density that is not all zero")
    with np.errstate(divide="ignore"):  # underflowing products are harmless here
        logs = np.log(_trapezoid_masses(rho)[mask]) - beta * rho.grid.nodes()[mask]
    # 0 - x, not -x: all the mass at W = 0 gives +0, as in the profile
    return float((0.0 - _logsumexp(logs)) / beta)


@dataclass(frozen=True)
class FreeEnergyProfile:
    """Per-step free-energy changes with analytic targets and diagnostics.

    Arrays are indexed by pulling step i = 1..s; entries at i = 1 are zero by
    convention.  ``f_ref`` holds F(control_i) - dF(1, i), the reference free
    energy the exponential average is measured against.
    """

    schedule: PullSchedule
    delta_f: np.ndarray
    targets: np.ndarray
    mean_work: np.ndarray
    std_work: np.ndarray
    f_ref: np.ndarray

    @property
    def endpoint(self):
        return float(self.delta_f[-1])


# an overflow or the NaN it breeds is reported once, at the end, not warned about
@np.errstate(all="ignore")
def free_energy_profile(schedule: PullSchedule):
    """dF(1, i), <W> and std W for every step, summed over independent steps.

    rho_i is the convolution of the increment densities g_1 .. g_{i-1}, so
    ln<exp(-beta W)>, the mean and the variance of W are sums of per-step
    terms.  Each term is the closed form of
    ``OscillatorSpectrum.work_expectations``; no grid is touched.  A profile
    that leaves the float64 range raises NonFiniteResult.
    """
    steps = schedule.steps
    log_avg, mean, var = (v[:-1] for v in steps.work_expectations(
        schedule.increment, schedule.a, schedule.beta))
    # 0 - x is -x for x != 0, and +0 (not -0) for a step that does no work
    delta_f = np.concatenate(([0.0], np.cumsum((0.0 - log_avg) / schedule.beta)))
    mean_w = np.concatenate(([0.0], np.cumsum(mean)))
    std_w = np.sqrt(np.concatenate(([0.0], np.cumsum(var))))
    targets = steps.target(schedule.a)
    f_ref = steps.free_energy(schedule.a) - delta_f
    if not np.isfinite([delta_f, targets, mean_w, std_w, f_ref]).all():
        raise NonFiniteResult(f"the free-energy profile at a={schedule.a}, increment="
                              f"{schedule.increment} leaves the float64 range")
    return FreeEnergyProfile(schedule, delta_f, targets, mean_w, std_w, f_ref)


def ground_state_closed_form_center(a, dlambda, s):
    """Exact dF = dlambda^2 (s-1)(s-a)/4 for the ground-state-only center pull."""
    if s < 1:
        raise ValueError("need at least one step")
    return dlambda * dlambda * (s - 1) * (s - a) / 4.0
