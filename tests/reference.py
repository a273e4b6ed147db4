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


def two_pass_density_stack(n_max, omega, center, x):
    """|psi_n(x)|^2 for n = 0..n_max in two passes: the normalized Hermite
    recurrence into a full (n_max + 1, len(x)) stack phi, then
    sqrt(omega) phi^2.  ``OscillatorSpectrum.all_densities`` squares each row
    as the recurrence makes it, with the same float operations in the same
    order, so the two agree bit for bit."""
    root = math.sqrt(omega)
    y = np.atleast_1d(root * (np.asarray(x, dtype=float) - center))
    phi = np.empty((n_max + 1, y.size))
    phi[0] = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n_max >= 1:
        phi[1] = math.sqrt(2.0) * y * phi[0]
    for n in range(1, n_max):
        phi[n + 1] = (math.sqrt(2.0 / (n + 1)) * y * phi[n]
                      - math.sqrt(n / (n + 1)) * phi[n - 1])
    return root * phi * phi


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


def center_exact_profile(lambda_s, s, a, n_max):
    """dF(1, i), i = 1..s, of the truncated center pull in closed form.

    With k = a dlambda, x = -k^2/2 and the state n weighted by
    w_n = exp(-2 a n), step j contributes (k (lambda_j + dlambda)/2 - k^2/4 -
    ln sum w_n L_n(x) / sum w_n) / a.  The mixture's log is taken as
    log1p(sum w_n D_n / sum w_n) with D_n = L_n(x) - 1 from its own
    recurrence, so it keeps its digits where the mixture is 1 + O(k^2).
    """
    dlam = lambda_s / (s - 1)
    k = a * dlam
    x = -0.5 * k * k
    excess = [0.0, -x]
    for n in range(1, n_max):
        excess.append(((2 * n + 1 - x) * excess[n] - n * excess[n - 1] - x) / (n + 1))
    weights = [math.exp(-2.0 * a * n) for n in range(n_max + 1)]
    log_mix = math.log1p(sum(w * d for w, d in zip(weights, excess)) / sum(weights))
    out = [0.0]
    for j in range(1, s):
        lam = lambda_s * ((j - 1) / (s - 1))
        out.append(out[-1] + (0.5 * k * (lam + dlam) - 0.25 * k * k - log_mix) / a)
    return out


def spring_quadrature_profile(omega_ratio, s, a0, n_max):
    """dF(1, i), i = 1..s, of the truncated spring pull by Gauss-Hermite quadrature.

    Step j < s draws x from the Boltzmann mixture, weights exp(-a0 omega_j n),
    of the states n = 0..n_max of omega_j = sqrt(1 + (j-1) delta), delta =
    (omega_ratio^2 - 1)/(s - 1), and does the work (delta/2) x^2.  With
    kappa = a0 delta / (2 omega_j) and z = sqrt(1 + kappa) sqrt(omega_j) x,
    E_n[exp(-a0 dW)] = (1 + kappa)^(-1/2) int h_n(z / sqrt(1 + kappa))^2
    exp(-z^2) dz for the normalized Hermite polynomials h_n, a polynomial of
    degree 2n against exp(-z^2), which n_max + 1 Gauss-Hermite nodes
    integrate exactly.  The mixture is a log-sum-exp over the states.
    """
    delta = (omega_ratio * omega_ratio - 1.0) / (s - 1)
    nodes, weights = np.polynomial.hermite.hermgauss(n_max + 1)
    n = np.arange(n_max + 1)
    profile = [0.0]
    for j in range(1, s):
        omega = math.sqrt(1.0 + (j - 1) * delta)
        kappa = 0.5 * a0 * delta / omega
        y = nodes / math.sqrt(1.0 + kappa)
        h = np.empty((n_max + 1, y.size))
        h[0] = math.pi ** -0.25
        prev = np.zeros_like(y)
        for m in range(n_max):
            h[m + 1] = math.sqrt(2.0 / (m + 1)) * y * h[m] - math.sqrt(m / (m + 1)) * prev
            prev = h[m]
        log_e = np.log((h * h) @ weights) - 0.5 * math.log1p(kappa)
        log_w = -a0 * omega * n
        log_mix = np.logaddexp.reduce(log_w + log_e) - np.logaddexp.reduce(log_w)
        profile.append(profile[-1] - float(log_mix) / a0)
    return profile


def center_gaussian_profile(lambda_s, s, a):
    """dF(1, i), i = 1..s, of the center pull at n_max -> infinity, and the
    running sum of its terms' magnitudes.

    The untruncated thermal state is Gaussian, with the position variance
    coth(a)/2, so step i, from lambda_i = lambda_s (i-1)/(s-1) on by
    dlambda, adds dlambda (lambda_i + dlambda)/2 - a dlambda^2 coth(a)/4.
    Each partial sum is an fsum of the terms, so it is correctly rounded.
    """
    dlam = lambda_s / (s - 1)
    spread = 0.25 * a * dlam * dlam / math.tanh(a)
    terms, profile, scale = [], [0.0], [0.0]
    for i in range(1, s):
        terms += [0.5 * dlam * (lambda_s * ((i - 1) / (s - 1)) + dlam), -spread]
        profile.append(math.fsum(terms))
        scale.append(math.fsum(map(abs, terms)))
    return profile, scale


def center_truncation_share(a, dlambda, n_max):
    """Weight of the states past n_max in a center step's tilted mixture.

    The exponential average weighs state n by q^n L_n(-h), with q = e^{-2a}
    and h = (a dlambda)^2 / 2, the same at every step.  The weights sum to
    exp(q h / (1 - q)) / (1 - q) (the Laguerre generating function), so
    r_n = q^n L_n(-h) (1 - q) exp(-q h / (1 - q)) sums to 1 and follows the
    Laguerre recurrence.  The tail past n_max is summed directly, so a
    small share keeps its relative digits; a share over 1/2 is 1 less the
    head.  q h is taken in logs, where h alone would overflow.
    """
    q, one_less_q = math.exp(-2.0 * a), -math.expm1(-2.0 * a)
    qh = (math.exp(2.0 * (math.log(a) + math.log(abs(dlambda))) - math.log(2.0) - 2.0 * a)
          if dlambda else 0.0)
    prev, r = 0.0, one_less_q * math.exp(-qh / one_less_q)
    head = []
    for n in range(n_max + 1):
        head.append(r)
        prev, r = r, (((2 * n + 1) * q + qh) * r - n * q * q * prev) / (n + 1)
    kept = math.fsum(head)
    if kept < 0.5:
        return 1.0 - kept
    tail, n = [], n_max + 1
    while not (tail and r <= 1e-17 * math.fsum(tail) and r <= tail[-1]):
        tail.append(r)
        prev, r = r, (((2 * n + 1) * q + qh) * r - n * q * q * prev) / (n + 1)
        n += 1
    return math.fsum(tail)


def spring_gaussian_profile(omega_ratio, s, a0):
    """dF(1, i), i = 1..s, of the spring pull at n_max -> infinity.

    Step i draws x from the untruncated thermal state of omega_i =
    sqrt(1 + (i-1) delta), a Gaussian of variance sigma_i^2 =
    coth(a0 omega_i/2)/(2 omega_i), and does the work (delta/2) x^2, so it
    adds ln(1 + a0 delta sigma_i^2)/(2 a0).
    """
    delta = (omega_ratio * omega_ratio - 1.0) / (s - 1)
    profile = [0.0]
    for i in range(1, s):
        omega = math.sqrt(1.0 + (i - 1) * delta)
        variance = 0.5 / (omega * math.tanh(0.5 * a0 * omega))
        profile.append(profile[-1] + math.log1p(a0 * delta * variance) / (2.0 * a0))
    return profile


def format_number(x):
    """One CSV field as the writer renders it: an int as str, a float in "%.12g"."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def percent_g12(values, sep=b"\n"):
    """Each value as b"%.12g" % value followed by ``sep``, by Python's bytes %."""
    return (b"%.12g" + sep) * len(values) % tuple(np.asarray(values, dtype=float).tolist())


def percent_body(grid, values):
    """A density's W,rho CSV body as the export wrote it with bytes %: a line
    template of the grid's nodes, its rho column filled in one %."""
    template = (b"%.12g,%%.12g\n" * grid.points) % tuple(grid.nodes().tolist())
    return template % tuple(values.tolist())


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
