"""Free-energy changes from work distributions, plus every closed-form oracle.

All center-protocol energies are in hbar*omega/2, all spring-protocol
energies in hbar*omega_0, and in both cases the reduced temperature of the
schedule acts as the inverse temperature beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, NonPositiveAverage
from .protocol import PullSchedule
from .spectra import ProtocolKind
from .workdist import GriddedDensity

__all__ = ["FreeEnergyProfile", "exponential_average", "free_energy_profile",
           "approx_free_energy", "ground_state_closed_form_center",
           "ground_state_closed_form_spring", "spring_low_temp_limit"]


def exponential_average(rho: GriddedDensity, beta):
    """Free-energy change -ln(<exp(-beta W)>)/beta of one work distribution.

    The trapezoid sum runs as a log-sum-exp, so exp(-beta W) cannot underflow
    or overflow at any temperature.
    """
    if beta <= 0.0:
        raise ValueError("inverse temperature must be positive")
    if rho.is_point_mass:
        return rho.location
    w = rho.grid.nodes()
    weights = np.full(w.size, rho.grid.spacing)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    mask = rho.values > 0.0
    if not mask.any():
        raise NonPositiveAverage("density is identically zero")
    with np.errstate(divide="ignore"):  # underflowing products are harmless here
        logs = np.log(rho.values[mask] * weights[mask]) - beta * w[mask]
    top = logs.max()
    return float(-(top + math.log(np.sum(np.exp(logs - top)))) / beta)


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
    log_avg, mean, var = schedule.work_steps().work_expectations(
        schedule.increment, schedule.a, schedule.beta)
    delta_f = np.concatenate(([0.0], np.cumsum(-log_avg / schedule.beta)))
    mean_w = np.concatenate(([0.0], np.cumsum(mean)))
    std_w = np.sqrt(np.concatenate(([0.0], np.cumsum(var))))
    steps = [schedule.spectrum(i) for i in range(1, schedule.s + 1)]
    targets = np.array([step.target(schedule.a) for step in steps])
    f_ref = np.array([step.free_energy(schedule.a) for step in steps]) - delta_f
    if not np.isfinite([delta_f, targets, mean_w, std_w, f_ref]).all():
        raise NonFiniteResult(f"the free-energy profile at a={schedule.a}, increment="
                              f"{schedule.increment} leaves the float64 range")
    return FreeEnergyProfile(schedule, delta_f, targets, mean_w, std_w, f_ref)


def approx_free_energy(schedule: PullSchedule):
    """Gaussian-fluctuation estimate k dlambda sum_i (lambda_i - <x_i>).

    <x_i> comes from the exact mean work increment of step i,
    <dW_i> = dlambda (lambda_i + dlambda/2 - <x_i>).  Only defined for the
    center protocol, whose work increment is linear in the trap
    displacement; for many steps it approaches the thermodynamic integral and
    hence lambda_s^2/4.
    """
    if schedule.kind is not ProtocolKind.CENTER:
        raise ValueError("the Gaussian approximation applies to the center protocol")
    mean = schedule.work_steps().work_expectations(
        schedule.increment, schedule.a, schedule.beta)[1]
    return float(np.sum(mean) - (schedule.s - 1) * 0.5 * schedule.increment ** 2)


def ground_state_closed_form_center(a, dlambda, s):
    """Exact dF = dlambda^2 (s-1)(s-a)/4 for the ground-state-only center pull."""
    if s < 1:
        raise ValueError("need at least one step")
    return dlambda * dlambda * (s - 1) * (s - a) / 4.0


def ground_state_closed_form_spring(a0, delta, s):
    """Exact ground-state dF = (1/(2 a0)) sum_i ln(1 + a0 delta / (2 omega_i))."""
    if a0 <= 0.0:
        raise ValueError("reduced temperature must be positive")
    total = 0.0
    for i in range(1, s):
        radicand = 1.0 + delta * (i - 1)
        if radicand <= 0.0:
            raise ValueError(f"inverted oscillator at step {i}")
        total += math.log1p(0.5 * a0 * delta / math.sqrt(radicand))
    return total / (2.0 * a0)


def spring_low_temp_limit(omega_ratio):
    """Large-s, low-temperature limit (omega_s - omega_0)/2 in hbar*omega_0."""
    return 0.5 * (omega_ratio - 1.0)
