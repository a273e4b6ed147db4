"""Pull schedules, grids, and the sizing rules that keep the numerics exact.

For the center protocol the x-grid spacing is chosen commensurate with the
pull increment: h_x = dlambda / M for the smallest integer M that resolves the
densities, with the nodes half a spacing off (at (m + 1/2) h_x) when M is odd.
Every affine work-increment image then lands exactly on the shared work
lattice of spacing h_w = dlambda * h_x.  The recursion never interpolates, so
quadrature errors are limited to (sub-machine) trapezoid tail terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import GridTooLarge
from .spectra import OscillatorSpectrum, ProtocolKind, spring_frequency

__all__ = ["GridSpec", "PullSchedule", "build_center_schedule", "build_spring_schedule",
           "default_temperature_sweep"]

# margin (in total work std) kept on each side of the work window
_W_SIGMA_MARGIN = 12.0
# half-width of density grids, in per-step position std
_X_SIGMA_MARGIN = 8.0
# float64 values (8 bytes each, so 0.8 GB) a schedule's grids may ask for;
# a schedule over it is refused before any array is allocated
GRID_BUDGET = 10**8


@dataclass(frozen=True)
class GridSpec:
    """A uniform 1-D grid."""

    min: float
    max: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("a grid needs at least two points")
        if not self.max > self.min:
            raise ValueError("grid max must exceed min")

    @property
    def spacing(self):
        return (self.max - self.min) / (self.points - 1)

    def nodes(self):
        return self.min + self.spacing * np.arange(self.points)


def check_grid_budget(what, values, remedy):
    """Refuse work that would hold more than GRID_BUDGET float64 values at once."""
    if values > GRID_BUDGET:
        raise GridTooLarge(f"{what} need about {values:.3g} float64 values, over the "
                           f"budget of {GRID_BUDGET:.0e}; {remedy}")


@dataclass(frozen=True)
class PullSchedule:
    """An immutable step-wise pulling run: controls, temperature, grid request.

    ``controls`` holds lambda_1..lambda_s (center) or omega_1..omega_s in
    omega_0 units (spring).  ``increment`` is dlambda (center) or delta
    (spring).  ``a`` is the reduced temperature, which doubles as the
    inverse temperature against energies in the reporting unit.
    ``x_points``/``w_points`` request point counts (None: auto-sized).  The
    grids are sized on the first read of either.  ``check_grids`` charges
    what is built on them against the budget: a read of ``x_grid`` charges
    the densities, and the work recursion charges its distributions too;
    closed-form work reads neither grid, and the pathway scan only ``x_grid``.
    """

    kind: ProtocolKind
    s: int
    controls: tuple
    increment: float
    a: float
    n_max: int
    x_points: int | None = None
    w_points: int | None = None

    @cached_property
    def _grids(self):
        size = _center_grids if self.kind is ProtocolKind.CENTER else _spring_grids
        return size(self)

    def check_grids(self, work=False):
        """The (x, w) grids, refused if what is built on them is over the
        budget: the eigenstate stack on the x grid, plus f_j, its work image
        (about as long as f_j) and, with ``work``, rho_{j+1} for every work
        step j."""
        x_grid, w_grid = self._grids
        check_grid_budget("the grids", x_grid.points * (self.n_max + 1)
                          + (self.s - 1) * (2 * x_grid.points + work * w_grid.points),
                          "lower s, n_max, the pull or the point counts")
        return x_grid, w_grid

    x_grid = cached_property(lambda self: self.check_grids()[0])
    w_grid = property(lambda self: self._grids[1])

    @property
    def beta(self):
        """Inverse temperature in the unit work is reported in."""
        return self.a

    def spectrum(self, i):
        """Spectrum of the coupled Hamiltonian during pulling step i (1-based)."""
        if not 1 <= i <= self.s:
            raise ValueError(f"step index {i} outside 1..{self.s}")
        return OscillatorSpectrum(self.kind, self.controls[i - 1], self.n_max)

    @cached_property
    def steps(self):
        """One spectrum for the steps 1..s together: its control is the array
        of all the controls.  The work steps are its first s-1 entries."""
        return OscillatorSpectrum(self.kind, np.asarray(self.controls), self.n_max)


def default_temperature_sweep():
    """Reduced temperatures a = 2^l for l = -4..4."""
    return [2.0 ** l for l in range(-4, 5)]


def _state_extent(n_max, omega):
    # classical turning point of the top retained state plus a ground-width tail
    return math.sqrt((2 * n_max + 1) / omega) + _X_SIGMA_MARGIN / math.sqrt(2.0 * omega)


def _half_width(spectrum, a):
    """Half-width of the fluctuation density's support around its center.

    The truncated density is bounded both by the full thermal envelope and by
    the top retained state's turning point, so the tighter of the two wins.
    """
    sigma_th = math.sqrt(spectrum.thermal_variance(a))
    return min(_X_SIGMA_MARGIN * sigma_th, _state_extent(spectrum.n_max, spectrum.omega))


def _target_spacing(n_max, omega_max):
    """Grid spacing that resolves both the Gaussian width and the fastest
    density oscillation (~2 sqrt(2 n_max + 1) rad per unit length)."""
    sigma_gs = 1.0 / math.sqrt(2.0 * omega_max)
    band = 2.0 * math.sqrt(2 * n_max + 1) * math.sqrt(omega_max)
    return min(sigma_gs / 8.0, 2.0 * math.pi / (16.0 * band))


def _effective_sigma2(spectrum, a):
    """Upper bound on the truncated density's position variance, per step."""
    return np.minimum(spectrum.thermal_variance(a), (spectrum.n_max + 0.5) / spectrum.omega)


def _check_inputs(x_points, w_points, **values):
    """Reject non-finite physical inputs and grids too small to integrate on."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, points in (("x_points", x_points), ("w_points", w_points)):
        if points is not None and points < 2:
            raise ValueError(f"{name} must be at least 2, got {points}")


def _check_run(kind, a, n_max, s, increment):
    """Reject a non-positive temperature or n_max, then a schedule over the grid budget."""
    if a <= 0.0:
        raise ValueError("reduced temperature must be positive")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    # the profile sums the states 0..n_eff; omega = 1 is the lowest frequency
    # of every schedule, so this spectrum's n_eff is the profile's
    n_eff = OscillatorSpectrum(kind, 1.0, n_max)._effective_n_max(increment, a, a)
    # the controls and the profile's (n_eff+1, s) arrays: tracemalloc peaks,
    # in float64 values, are 20 to 23 per step at n_max = 0 and 3.2 to 5.1
    # per state and step from n_max = 100
    check_grid_budget("the schedule and its closed-form profile", 5 * (n_eff + 9) * s,
                      "lower s or n_max")


def _snap_grid(lo, hi, h, off=0.0):
    """The nodes m h + off that cover [lo, hi]."""
    # a spacing that underflowed to 0 asks for infinitely many nodes; the
    # quotient is taken on Python floats, which overflow to inf without a warning
    check_grid_budget("the grids", float(hi - lo) / float(h) if h > 0.0 else math.inf,
                      "raise the pull increment or lower the point counts")
    m_lo = math.floor((lo - off) / h)
    m_hi = math.ceil((hi - off) / h)
    if m_hi <= m_lo:
        m_hi = m_lo + 1
    return GridSpec(m_lo * h + off, m_hi * h + off, m_hi - m_lo + 1)


def build_center_schedule(lambda_s, s, a, n_max, x_points=None, w_points=None):
    """Schedule for pulling the trap center from 0 to lambda_s in s steps.

    Controls are lambda_i = lambda_s (i-1)/(s-1); s = 1 is the no-work
    convention.  Grids are auto-sized unless point counts are given; the
    x spacing is dlambda / M for the smallest integer M, the nodes half a
    spacing off when M is odd.
    """
    _check_inputs(x_points, w_points, lambda_s=lambda_s, a=a)
    if s <= 0:
        raise ValueError("number of pulling steps must be positive")
    dlam = 0.0 if s == 1 else lambda_s / (s - 1)
    _check_run(ProtocolKind.CENTER, a, n_max, s, dlam)
    # (i-1)/(s-1) evaluates to exactly 1.0 at i = s, so the requested
    # endpoint is reconstructed bit-for-bit
    controls = (0.0,) if s == 1 else tuple(lambda_s * ((i - 1) / (s - 1))
                                           for i in range(1, s + 1))
    return PullSchedule(ProtocolKind.CENTER, s, controls, dlam, a, n_max, x_points, w_points)


def _center_grids(schedule):
    controls, dlam, a, n_max = schedule.controls, schedule.increment, schedule.a, schedule.n_max
    # every step's density has the first one's shape, translated
    first = schedule.spectrum(1)
    sig2 = _effective_sigma2(first, a)
    half = _half_width(first, a)
    # the exponential work average tilts each density by exp(+a dlam x),
    # shifting its effective center by a dlam sigma^2; cover that too
    half += a * abs(dlam) * sig2
    centers = [0.5 * c for c in controls]
    x_lo = min(centers) - half
    x_hi = max(centers) + half
    if schedule.x_points is not None:
        h_target = (x_hi - x_lo) / (schedule.x_points - 1)
    else:
        h_target = _target_spacing(n_max, 1.0)

    if dlam == 0.0:
        n_pts = max(2, math.ceil((x_hi - x_lo) / h_target) + 1)
        # no work is done: every rho_i is the unit spike at W = 0 on these nodes
        return GridSpec(x_lo, x_hi, n_pts), GridSpec(-1.0, 1.0, 3)

    gamma = abs(dlam)  # |slope| of the work increment, k = 1 in hbar*omega/2 units
    # a window that holds every rho_i; accumulate adds left to right, as sum() does
    mu = list(accumulate(0.5 * dlam * (lam + dlam) for lam in controls[:-1]))
    var = list(accumulate(dlam * dlam * sig2 for _ in controls[:-1]))
    w_lo = min(m_i - a * v_i - _W_SIGMA_MARGIN * math.sqrt(v_i) for m_i, v_i in zip(mu, var))
    w_hi = max(m_i + _W_SIGMA_MARGIN * math.sqrt(v_i) for m_i, v_i in zip(mu, var))

    def _build(m):
        h_x = gamma / m
        # odd M puts the nodes half a spacing off, so every image stays on the lattice
        xg = _snap_grid(x_lo, x_hi, h_x, 0.5 * h_x * (m % 2))
        h_w = gamma * h_x
        return xg, _snap_grid(w_lo - 2 * h_w, w_hi + 2 * h_w, h_w)

    m = max(1, math.ceil(abs(dlam) / h_target))
    x_grid, w_grid = _build(m)
    w_points = schedule.w_points
    if w_points is not None and w_grid.points < w_points:
        m *= math.ceil((w_points - 1) / (w_grid.points - 1))
        x_grid, w_grid = _build(m)
    return x_grid, w_grid


def build_spring_schedule(omega_ratio, s, a0, n_max, x_points=None, w_points=None):
    """Schedule for stiffening the spring so omega runs from omega_0 to
    omega_ratio * omega_0 in s steps; delta = (ratio^2 - 1)/(s - 1)."""
    _check_inputs(x_points, w_points, omega_ratio=omega_ratio, a0=a0)
    if s < 2:
        raise ValueError("spring protocol needs at least two steps")
    if omega_ratio <= 0.0:
        raise ValueError("frequency ratio must be positive")
    if omega_ratio < 1.0:
        raise ValueError("spring softening (delta < 0) is not supported")
    delta = (omega_ratio * omega_ratio - 1.0) / (s - 1)
    _check_run(ProtocolKind.SPRING, a0, n_max, s, delta)
    controls = tuple(spring_frequency(i, delta) for i in range(1, s + 1))
    return PullSchedule(ProtocolKind.SPRING, s, controls, delta, a0, n_max, x_points, w_points)


def _spring_grids(schedule):
    controls, delta, a0 = schedule.controls, schedule.increment, schedule.a
    half = _half_width(schedule.spectrum(1), a0)
    if schedule.x_points is not None:
        n_pts = schedule.x_points
    else:
        h_target = _target_spacing(schedule.n_max, controls[-1])
        n_pts = max(2, 2 * math.ceil(half / h_target) + 1)
    x_grid = GridSpec(-half, half, n_pts)

    if delta == 0.0:
        return x_grid, GridSpec(-1.0, 1.0, 3)
    w_points = max(8001, schedule.w_points or 0)

    c = 0.5 * delta  # work increment is c * x^2 for every step
    # sum() adds left to right; np.sum's pairwise order would move the last bits
    sig2 = _effective_sigma2(schedule.steps, a0)[:-1]
    total_mu = c * sum(sig2.tolist())
    sigma_tot = math.sqrt(sum((3.0 * c * c * sig2 * sig2).tolist()))
    w_hi = total_mu + _W_SIGMA_MARGIN * sigma_tot + c * half * half
    return x_grid, GridSpec(0.0, w_hi, w_points)
