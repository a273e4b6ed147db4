"""Exact eigenstructure of the two pulled harmonic oscillators.

Two pulling conventions are supported, each with its own natural units:

* trap-center pulling ("center"): hbar = m = 1 and the coupled oscillator
  frequency omega = 1 (so the bare spring constant is k = 1/2).  Lengths are
  measured in sqrt(hbar/(m*omega)).  Work and free energies are reported in
  hbar*omega/2.  The reduced temperature is a = hbar*omega / (2 kB T).
* spring-constant pulling ("spring"): hbar = m = 1 and omega_0 = 1.  Lengths
  in sqrt(hbar/(m*omega_0)), energies in hbar*omega_0, reduced temperature
  a0 = hbar*omega_0 / (kB T).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProtocolKind",
    "OscillatorSpectrum",
    "hermite_poly",
    "spring_frequency",
    "analytic_free_energy_center",
    "analytic_free_energy_spring",
    "delta_f_target_center",
    "analytic_target_spring",
]


class ProtocolKind(enum.Enum):
    """Which control parameter the pulling protocol drives."""

    CENTER = "center"
    SPRING = "spring"


def hermite_poly(n, y):
    """Physicists' Hermite polynomial H_n(y) by the three-term recurrence.

    Total function of n >= 0; raw values overflow near n ~ 150, use the
    normalized eigenfunctions (``OscillatorSpectrum.prob_density``) for high
    orders.
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


def _hermite_functions(n_max, y):
    """All normalized oscillator eigenfunctions phi_0..phi_{n_max} at y.

    phi_n(y) = H_n(y) exp(-y^2/2) / sqrt(2^n n! sqrt(pi)).  The recurrence
    works on phi_n directly, folding the 1/(2^n n!) normalization in, so it
    stays finite for any order (n up to several hundred).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty((n_max + 1, y.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * y * out[n]
            - math.sqrt(n / (n + 1)) * out[n - 1]
        )
    return out


def _density_stack(n_max, omega, center, x):
    """|psi_n(x)|^2 for n = 0..n_max of an oscillator of frequency omega
    centered on ``center``: sqrt(omega) phi_n(sqrt(omega) (x - center))^2."""
    root = math.sqrt(omega)
    phi = _hermite_functions(n_max, root * (x - center))
    return root * phi * phi


def _log_recurrence(next_step, n_max, shape=()):
    """ln y_0 .. ln y_{n_max} of a positive sequence with y_0 = 1.

    The three-term recurrence runs on relative differences:
    ``next_step(n, r)`` returns g = (y_{n+1} - y_n) / y_n from
    r = (y_n - y_{n-1}) / y_n (0 at n = 0), and the logs of 1 + g add up.
    So no value leaves the float64 range at any order, and rounding the
    coefficients cannot split the double characteristic root near g = 0,
    an error the raw form amplifies by about n^2.  ``shape`` gives one
    sequence per entry, along the trailing axes.
    """
    out = np.zeros((n_max + 1,) + shape)
    r = np.zeros(shape)
    for n in range(n_max):
        g = next_step(n, r)
        out[n + 1] = out[n] + np.log1p(g)
        r = g / (1.0 + g)
    return out


def _logsumexp(v):
    """ln sum_n exp(v_n) over the first axis."""
    top = v.max(axis=0)
    return top + np.log(np.sum(np.exp(v - top), axis=0))


@np.vectorize
def _log1mexp(x):
    """ln(1 - e^-x) for x > 0, elementwise, accurate to the last bits at any x
    (Maechler, "Accurately computing log(1 - exp(-|a|))", 2012)."""
    return math.log(-math.expm1(-x)) if x <= math.log(2.0) else math.log1p(-math.exp(-x))


# math.tanh elementwise: np.tanh differs from it in the last bit, which moves
# the spring work grids
_tanh = np.vectorize(math.tanh)


def spring_frequency(i, delta):
    """omega_i = sqrt(1 + (i-1) delta), in omega_0 units, for pulling step i >= 1."""
    radicand = 1.0 + (i - 1) * delta
    if radicand <= 0.0:
        raise ValueError(f"inverted oscillator at step {i}: 1+(i-1)*delta = {radicand}")
    return math.sqrt(radicand)


def analytic_free_energy_center(lam, a):
    """Exact free energy a^-1 ln(e^a - e^-a) + lam^2/4 in hbar*omega/2 units."""
    if a <= 0.0:
        raise ValueError("reduced temperature must be positive")
    # log(e^a - e^-a) = a + log(1 - e^{-2a}) stays finite for large and small a
    return (a + _log1mexp(2.0 * a)) / a + 0.25 * lam * lam


def delta_f_target_center(lam):
    """Exact free-energy change F(lam) - F(0) = lam^2/4 in hbar*omega/2 units."""
    return 0.25 * lam * lam


def analytic_free_energy_spring(omega_i, a0):
    """Exact free energy ln(2 sinh(a0 omega_i / 2)) / a0 in hbar*omega_0 units."""
    if a0 <= 0.0 or np.min(omega_i) <= 0.0:
        raise ValueError("reduced temperature and frequency must be positive")
    z = 0.5 * a0 * omega_i
    # log(2 sinh z) = z + log(1 - e^{-2z})
    return (z + _log1mexp(2.0 * z)) / a0


def analytic_target_spring(a0, omega_ratio):
    """Exact (1/a0) ln[sinh(a0 ratio/2)/sinh(a0/2)] in hbar*omega_0 units."""
    if a0 <= 0.0 or np.min(omega_ratio) <= 0.0:
        raise ValueError("reduced temperature and frequency ratio must be positive")
    return analytic_free_energy_spring(omega_ratio, a0) - analytic_free_energy_spring(1.0, a0)


@dataclass(frozen=True)
class OscillatorSpectrum:
    """Eigenvalues and probability densities of one pulling step.

    ``control`` is lambda_i for the center protocol and omega_i (in omega_0
    units) for the spring protocol.  It fixes the four numbers in which the
    protocols differ: the frequency ``omega``, the ``center`` the densities
    sit on, the ``offset`` added to (n + 1/2) omega, and ``unit``, the number
    of work units in one quantum of the frequency unit (2 for center, whose
    work is in hbar*omega/2; 1 for spring, whose work is in hbar*omega_0).
    Energies from ``work_energy`` are in the work unit, so beta *
    work_energy uses the reduced temperature directly as beta.

    ``control`` may also be an array with one control per step; the
    spectrum then stands for all those steps, and ``work_expectations``,
    ``thermal_variance``, ``free_energy`` and ``target`` evaluate them
    together.
    """

    kind: ProtocolKind
    control: float
    n_max: int
    omega: float = field(init=False, repr=False)
    center: float = field(init=False, repr=False)
    offset: float = field(init=False, repr=False)
    unit: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.kind is ProtocolKind.CENTER:
            derived = (1.0, 0.5 * self.control, 0.125 * self.control * self.control, 2.0)
        else:
            if np.any(np.asarray(self.control) <= 0.0):
                raise ValueError("spring frequency must be positive")
            derived = (self.control, 0.0, 0.0, 1.0)
        for name, value in zip(("omega", "center", "offset", "unit"), derived):
            object.__setattr__(self, name, value)

    def work_energy(self, n):
        """E_n in the unit work is measured in (hbar*omega/2 or hbar*omega_0)."""
        return self.unit * ((n + 0.5) * self.omega + self.offset)

    def prob_density(self, n, x):
        """|psi_n(x)|^2, a float for scalar x and an array otherwise."""
        if n < 0:
            raise ValueError("quantum number must be non-negative")
        x = np.asarray(x, dtype=float)
        dens = _density_stack(n, self.omega, self.center, x)[n]
        return dens if x.ndim else float(dens[0])

    def all_densities(self, x):
        """Array of |psi_n(x)|^2 for n = 0..n_max, shape (n_max+1, len(x))."""
        return _density_stack(self.n_max, self.omega, self.center, np.asarray(x, dtype=float))

    def boltzmann_weights(self, a):
        """exp(-beta (E_n - E_0)) for n = 0..n_max at reduced temperature a."""
        n = np.arange(self.n_max + 1)
        return np.exp(-a * self.unit * self.omega * n)

    def thermal_variance(self, a):
        """Exact untruncated thermal variance of the position at reduced temperature a:
        coth(a)/2 for center, coth(a0 omega_i/2)/(2 omega_i) for spring."""
        return 1.0 / (2.0 * self.omega * _tanh(0.5 * self.unit * a * self.omega))

    def work_increment(self, increment, x):
        """Work picked up at position x when the control steps on by ``increment``.

        Center: dlambda (lambda_i + dlambda/2 - x), affine in x, in hbar*omega/2
        units.  Spring: (delta/2) x^2 in hbar*omega_0 units.  The two stay
        separate expressions: the center one lands its images exactly on the
        commensurate work lattice.
        """
        if self.kind is ProtocolKind.CENTER:
            return increment * (self.control + 0.5 * increment - x)
        return 0.5 * increment * x * x

    def work_expectations(self, increment, a, t):
        """ln E[exp(-t dW)], E[dW] and Var[dW] of the step's work increment
        dW = ``work_increment(increment, x)``, with x drawn from the Boltzmann
        mixture of the retained states at reduced temperature a.

        Per state (Talkner, Lutz & Hanggi, PRE 75, 050102(R) (2007); Deffner
        & Lutz, PRE 77, 021128 (2008)), with y = sqrt(omega) (x - center):
        center, E_n[exp(-t dW)] = exp(-t dW(center) + k^2/4) L_n(-k^2/2) with
        k = t increment, <y^2> = n + 1/2; spring, E_n[exp(-t dW)] =
        u_n / sqrt(1 + kappa) with kappa = t increment / (2 omega), u_0 = 1,
        u_1 = 1/(1+kappa),
        u_{n+1} = ((2n+1) u_n - n (1-kappa) u_{n-1}) / ((n+1)(1+kappa)), and
        <y^4> = (6n^2 + 6n + 3)/4.  The mixture is a log-sum-exp over
        ln w_n + ln E_n, so nothing over- or underflows at any temperature,
        or, where it is close to 1, log1p of its excess over 1.
        """
        omega = np.asarray(self.omega, dtype=float)
        n = np.arange(self.n_max + 1.0).reshape((-1,) + (1,) * np.ndim(self.control))
        log_w = -a * self.unit * omega * n
        log_z = _logsumexp(log_w)
        log_e = self._log_state_expectations(increment, t)
        p = np.exp(log_w - log_z)
        # near ln<exp(-t dW)> = 0 (small t), the log-sum-exp would lose it below
        # ln z's last bit; there the mixture is 1 + sum_n p_n expm1(ln E_n)
        with np.errstate(over="ignore", invalid="ignore"):
            near_one = np.sum(p * np.expm1(log_e), axis=0)
            near = np.abs(near_one) < 0.5
            log_avg = np.log1p(near_one)
            if not near.all():
                log_avg = np.where(near, log_avg, _logsumexp(log_w + log_e) - log_z)
        x2 = np.sum(p * (n + 0.5), axis=0) / omega
        if self.kind is ProtocolKind.CENTER:
            mean = self.work_increment(increment, self.center)
            return tuple(np.broadcast_arrays(log_avg, mean, increment * increment * x2))
        x4 = np.sum(p * (6.0 * n * n + 6.0 * n + 3.0), axis=0) / (4.0 * omega * omega)
        c = 0.5 * increment
        return log_avg, c * x2, c * c * (x4 - x2 * x2)

    def _log_state_expectations(self, increment, t):
        """ln E_n[exp(-t dW)] for n = 0..n_max along the first axis."""
        if self.kind is ProtocolKind.CENTER:
            # (n+1)(L_{n+1} - L_n) = n (L_n - L_{n-1}) + h L_n for L_n(-h)
            k = t * increment  # k * k overflows to inf, where ** 2 would raise
            h = 0.5 * k * k
            laguerre = _log_recurrence(lambda m, r: (m * r + h) / (m + 1), self.n_max)
            shift = self.work_increment(increment, self.center)
            return 0.5 * h + laguerre.reshape((-1,) + (1,) * np.ndim(self.control)) - t * shift
        # (n+1)(1+kappa)(u_{n+1} - u_n) = n (1-kappa)(u_n - u_{n-1}) - kappa u_n
        kappa = 0.5 * t * increment / np.asarray(self.omega, dtype=float)
        return -0.5 * np.log1p(kappa) + _log_recurrence(
            lambda m, r: (m * (1.0 - kappa) * r - kappa) / ((m + 1) * (1.0 + kappa)),
            self.n_max, kappa.shape)

    def free_energy(self, a):
        """Exact free energy of the step's Hamiltonian in the work unit."""
        if self.kind is ProtocolKind.CENTER:
            return analytic_free_energy_center(self.control, a)
        return analytic_free_energy_spring(self.control, a)

    def target(self, a):
        """Exact free-energy change from the first step's Hamiltonian to this one."""
        if self.kind is ProtocolKind.CENTER:
            return delta_f_target_center(self.control)
        return analytic_target_spring(a, self.control)
