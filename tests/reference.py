"""Closed forms and scalar evaluations that only the tests compare against.

None of these is on a CLI path: the pipeline reads the densities of
``OscillatorSpectrum.all_densities`` and the profile of
``free_energy_profile``.  They stay independent of that pipeline so the
tests can check it against them.
"""

import math

import numpy as np

from stepwork.protocol import PullSchedule
from stepwork.spectra import ProtocolKind, _density_stack
from stepwork.workdist import (GriddedDensity, fluctuation_density, lattice_convolve,
                               pushforward_step_density)


def hermite_poly(n, y):
    """Physicists' Hermite polynomial H_n(y) by the three-term recurrence.

    Total function of n >= 0; raw values overflow near n ~ 150, use the
    normalized eigenfunctions (``prob_density``) for high orders.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * y
    for m in range(1, n):
        h, h_prev = 2.0 * y * h - 2.0 * m * h_prev, h
    return h if h.ndim else float(h)


def prob_density(spectrum, n, x):
    """|psi_n(x)|^2 of one spectrum, a float for scalar x and an array otherwise."""
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    x = np.asarray(x, dtype=float)
    dens = _density_stack(n, spectrum.omega, spectrum.center, x)[n]
    return dens if x.ndim else float(dens[0])


def normalize(density: GriddedDensity):
    """The density divided by its trapezoid integral."""
    mass = density.integral()
    if mass <= 0.0:
        raise ValueError("cannot normalize a zero density")
    return GriddedDensity(density.grid, density.values / mass)


def unclipped_recursion(schedule: PullSchedule):
    """rho_2 .. rho_s as ``run_work_recursion`` builds them, but never clipped
    to the work window: each step convolves, crops its far tails and
    renormalizes, and keeps every node the crop keeps."""
    h = schedule.w_grid.spacing
    rho, dists = None, []
    for j in range(1, schedule.s):
        f = fluctuation_density(schedule.spectrum(j), schedule.a, schedule.x_grid)
        g = pushforward_step_density(f, schedule, j)
        rho = normalize(g if rho is None else lattice_convolve(rho, g, h))
        dists.append(rho)
    return dists


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
    mean = schedule.steps.work_expectations(schedule.increment, schedule.a, schedule.beta)[1]
    return float(np.sum(mean[:-1]) - (schedule.s - 1) * 0.5 * schedule.increment ** 2)


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
