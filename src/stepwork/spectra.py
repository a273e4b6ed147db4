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

__all__ = ["ProtocolKind", "OscillatorSpectrum", "spring_frequency"]


class ProtocolKind(enum.Enum):
    """Which control parameter the pulling protocol drives."""

    CENTER = "center"
    SPRING = "spring"


def _density_stack(n_max, omega, center, x):
    """|psi_n(x)|^2 for n = 0..n_max of an oscillator of frequency omega
    centered on ``center``: sqrt(omega) phi_n(y)^2 with y = sqrt(omega) (x - center),
    shape (n_max + 1, len(x)).

    phi_n(y) = H_n(y) exp(-y^2/2) / sqrt(2^n n! sqrt(pi)) are the normalized
    eigenfunctions.  The recurrence works on phi_n directly, folding the
    1/(2^n n!) normalization in, so it stays finite for any order (n up to
    several hundred).  It holds two rows, phi_{n-1} and phi_n, and writes each
    squared row into the stack as it is made, so the stack is the only array
    of its size.
    """
    root = math.sqrt(omega)
    y = np.atleast_1d(root * (x - center))
    out = np.empty((n_max + 1, y.size))
    # phi_{-1} = 0: phi_1's step subtracts an exact zero, which moves no bit
    prev, phi = 0.0, math.pi ** -0.25 * np.exp(-0.5 * y * y)
    for n in range(n_max + 1):
        if n:
            prev, phi = phi, math.sqrt(2.0 / n) * y * phi - math.sqrt((n - 1) / n) * prev
        np.multiply(root * phi, phi, out=out[n])
    return out


def _log_recurrence(next_step, n_max, shape=()):
    """ln y_0 .. ln y_{n_max} of a positive sequence with y_0 = 1.

    The three-term recurrence runs on relative differences:
    ``next_step(n, r)`` returns g = (y_{n+1} - y_n) / y_n from
    r = (y_n - y_{n-1}) / y_n (0 at n = 0), and the logs of 1 + g add up.
    So no value leaves the float64 range at any order, and rounding the
    coefficients cannot split the double characteristic root near g = 0,
    an error the raw form amplifies by about n^2.  ``shape`` gives one
    sequence per entry, along the trailing axes.  It costs one Python step
    per order, so ``work_expectations`` runs it only to n_eff
    (``OscillatorSpectrum._effective_n_max``): past n_eff a state's
    Boltzmann weight and its term in the log-sum-exp, bounded through
    ln y_n (spring: y_n <= sqrt(1 + kappa); center: ln L_n(-h) <=
    2 sqrt(n h)), are exactly 0 in float64.
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


# exp(x) is exactly 0 in float64 for x < ln(2^-1075) = -745.133; a state is
# dropped from the mixture only where its terms lie a further 1 below that,
# which covers the rounding of the terms and of the bound itself
_ZERO_EXP = 745.14 + 1.0

# math.tanh elementwise: np.tanh differs from it in the last bit, which moves
# the spring work grids
_tanh = np.vectorize(math.tanh)


def spring_frequency(i, delta):
    """omega_i = sqrt(1 + (i-1) delta), in omega_0 units, for pulling step i >= 1."""
    radicand = 1.0 + (i - 1) * delta
    if radicand <= 0.0:
        raise ValueError(f"inverted oscillator at step {i}: 1+(i-1)*delta = {radicand}")
    return math.sqrt(radicand)


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

    def all_densities(self, x):
        """Array of |psi_n(x)|^2 for n = 0..n_max, shape (n_max+1, len(x))."""
        return _density_stack(self.n_max, self.omega, self.center, np.asarray(x, dtype=float))

    @np.errstate(over="ignore", invalid="ignore")  # a huge a: exp(-inf) = 0 is the weight
    def boltzmann_weights(self, a):
        """exp(-beta (E_n - E_0)) for n = 0..n_max at reduced temperature a."""
        n = np.arange(self.n_max + 1)
        weights = np.exp(-a * self.unit * self.omega * n)
        weights[0] = 1.0  # exp(0), not the NaN of -inf * 0
        return weights

    @np.errstate(over="ignore", divide="ignore")  # as a -> 0 it grows to inf
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

        Only the states 0..n_eff are summed (``_effective_n_max``, from
        E_n <= 1 for spring with kappa >= 0 and from ln(E_n / E_0) =
        ln L_n(-h) <= 2 sqrt(n h) for center): every
        later one has a weight p_n that is exactly 0 in float64 and a
        log-sum-exp term exp(ln w_n + ln E_n - top) that is exactly 0 too,
        so dropping them moves no bit of a spectrum of two or more steps,
        whose sums run state by state (numpy sums a single step's states
        pairwise, so there the last bit can move).  Nor can a dropped state
        whose own E_n overflows put 0 * inf or 0 * NaN into the sums.
        """
        n_eff = self._effective_n_max(increment, a, t)
        omega = np.asarray(self.omega, dtype=float)
        n = np.arange(n_eff + 1.0).reshape((-1,) + (1,) * np.ndim(self.control))
        log_w = -a * self.unit * omega * n
        log_z = _logsumexp(log_w)
        log_e = self._log_state_expectations(increment, t, n_eff)
        p = np.exp(log_w - log_z)
        # near ln<exp(-t dW)> = 0 (small t), the log-sum-exp would lose it below
        # ln z's last bit; there the mixture is 1 + sum_n p_n expm1(ln E_n).
        # Far from it, where log1p may see -1, the log-sum-exp is taken instead
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # formed in place, and each state-sized array dropped once read,
            # so at most four are alive at once: the peak stays within the
            # profile's budget estimate, 5 (n_eff + 9) s values
            excess = np.expm1(log_e)
            excess *= p
            near_one = np.sum(excess, axis=0)
            del excess
            near = np.abs(near_one) < 0.5
            log_avg = np.log1p(near_one)
            if not near.all():
                log_avg = np.where(near, log_avg, _logsumexp(log_w + log_e) - log_z)
        del log_w, log_e
        x2 = np.sum(p * (n + 0.5), axis=0) / omega
        if self.kind is ProtocolKind.CENTER:
            mean = self.work_increment(increment, self.center)
            return tuple(np.broadcast_arrays(log_avg, mean, increment * increment * x2))
        x4 = np.sum(p * (6.0 * n * n + 6.0 * n + 3.0), axis=0) / (4.0 * omega * omega)
        c = 0.5 * increment
        return log_avg, c * x2, c * c * (x4 - x2 * x2)

    def _effective_n_max(self, increment, a, t):
        """n_eff: the last state that can move a bit of ``work_expectations``
        at reduced temperature a and argument t; n_max where no bound holds.

        A later state n is dropped only where a unit omega_min n - ln(E_n /
        E_0) > 746.14 for it and every state after it.  Then ln w_n <
        -746.14, so p_n = exp(ln w_n - ln z) is exactly 0 (ln z >= 0), and so
        is its log-sum-exp term, as top >= ln w_0 + ln E_0.  The two bounds:
        spring with kappa >= 0 (so t dW >= 0), E_n <= 1 and E_0 =
        (1 + kappa)^(-1/2), with kappa largest at omega_min; center, ln(E_n /
        E_0) = ln L_n(-h) <= ln I_0(2 sqrt(n h)) <= 2 sqrt(n h), past the
        peak of 2 sqrt(n h) - 2 a n.  Spring with kappa < 0 (E_n grows with
        n) has no bound, and every state is summed.
        """
        # on Python floats an overflow gives inf without a warning
        a, t, increment = float(a), float(t), float(increment)
        omega_min = float(np.min(self.omega))
        rate = a * self.unit * omega_min
        if not rate > 0.0:  # weights that do not fall with n
            return self.n_max
        if self.kind is ProtocolKind.CENTER:
            # rate n - 2 sqrt(h n) > _ZERO_EXP for sqrt(n) past the positive root
            k = t * increment
            h = 0.5 * k * k
            root = (math.sqrt(h) + math.sqrt(h + rate * _ZERO_EXP)) / rate
            last = root * root
        else:
            kappa = 0.5 * t * increment / omega_min
            last = (_ZERO_EXP + 0.5 * math.log1p(kappa)) / rate if kappa >= 0.0 else math.inf
        # a NaN or an inf bound keeps every state
        return int(last) if last < self.n_max else self.n_max

    def _log_state_expectations(self, increment, t, n_eff):
        """ln E_n[exp(-t dW)] for n = 0..n_eff along the first axis."""
        if self.kind is ProtocolKind.CENTER:
            # (n+1)(L_{n+1} - L_n) = n (L_n - L_{n-1}) + h L_n for L_n(-h)
            k = t * increment  # k * k overflows to inf, where ** 2 would raise
            h = 0.5 * k * k
            laguerre = _log_recurrence(lambda m, r: (m * r + h) / (m + 1), n_eff)
            shift = self.work_increment(increment, self.center)
            return 0.5 * h + laguerre.reshape((-1,) + (1,) * np.ndim(self.control)) - t * shift
        # (n+1)(1+kappa)(u_{n+1} - u_n) = n (1-kappa)(u_n - u_{n-1}) - kappa u_n
        kappa = 0.5 * t * increment / np.asarray(self.omega, dtype=float)
        down, up = 1.0 - kappa, 1.0 + kappa
        return -0.5 * np.log1p(kappa) + _log_recurrence(
            lambda m, r: (m * down * r - kappa) / ((m + 1) * up), n_eff, kappa.shape)

    def _bare_free_energy(self, a, omega):
        """ln(2 sinh z) / a with z = beta hbar omega / 2: the free energy, in the
        work unit, of an oscillator of frequency omega with no energy offset."""
        if a <= 0.0:
            raise ValueError("reduced temperature must be positive")
        # the z of thermal_variance; for center it is a itself, bit for bit
        z = 0.5 * self.unit * a * omega
        if np.min(z) == 0.0:  # then log(1 - e^{-2z}) would take log(0)
            raise ValueError(f"the spring free energy at a={a} underflows: a omega/2 is 0")
        # log(2 sinh z) = z + log(1 - e^{-2z}) stays finite for large and small z
        return (z + _log1mexp(2.0 * z)) / a

    def free_energy(self, a):
        """Exact free energy of the step's Hamiltonian in the work unit."""
        return self._bare_free_energy(a, self.omega) + self.unit * self.offset

    def target(self, a):
        """Exact free-energy change from the first step's Hamiltonian to this one.

        Every schedule's first step has omega = 1 and no energy offset."""
        return (self._bare_free_energy(a, self.omega) - self._bare_free_energy(a, 1.0)
                + self.unit * self.offset)
