"""Closed forms and scalar evaluations that only the tests compare against.

None of these is on a CLI path: the pipeline reads the densities of
``OscillatorSpectrum.all_densities`` and the profile of
``free_energy_profile``.  They stay independent of that pipeline so the
tests can check it against them.
"""

import math

import numpy as np

from stepwork.protocol import PullSchedule
from stepwork.spectra import ProtocolKind, _density_stack, _log_recurrence, _logsumexp
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


def full_work_expectations(spectrum, increment, a, t):
    """``OscillatorSpectrum.work_expectations`` summed over every state 0..n_max:
    the loop as it ran before the sum stopped at n_eff."""
    n = np.arange(spectrum.n_max + 1.0).reshape((-1,) + (1,) * np.ndim(spectrum.control))
    omega = np.asarray(spectrum.omega, dtype=float)
    log_w = -a * spectrum.unit * omega * n
    log_z = _logsumexp(log_w)
    if spectrum.kind is ProtocolKind.CENTER:
        k = t * increment
        h = 0.5 * k * k
        laguerre = _log_recurrence(lambda m, r: (m * r + h) / (m + 1), spectrum.n_max)
        shift = spectrum.work_increment(increment, spectrum.center)
        log_e = 0.5 * h + laguerre.reshape(n.shape) - t * shift
    else:
        kappa = 0.5 * t * increment / omega
        log_e = -0.5 * np.log1p(kappa) + _log_recurrence(
            lambda m, r: (m * (1.0 - kappa) * r - kappa) / ((m + 1) * (1.0 + kappa)),
            spectrum.n_max, kappa.shape)
    p = np.exp(log_w - log_z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        near_one = np.sum(p * np.expm1(log_e), axis=0)
        near = np.abs(near_one) < 0.5
        log_avg = np.log1p(near_one)
        if not near.all():
            log_avg = np.where(near, log_avg, _logsumexp(log_w + log_e) - log_z)
    x2 = np.sum(p * (n + 0.5), axis=0) / omega
    if spectrum.kind is ProtocolKind.CENTER:
        mean = spectrum.work_increment(increment, spectrum.center)
        return tuple(np.broadcast_arrays(log_avg, mean, increment * increment * x2))
    x4 = np.sum(p * (6.0 * n * n + 6.0 * n + 3.0), axis=0) / (4.0 * omega * omega)
    c = 0.5 * increment
    return log_avg, c * x2, c * c * (x4 - x2 * x2)


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
