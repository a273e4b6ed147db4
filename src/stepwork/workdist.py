"""Fluctuation densities, work-increment pushforwards, and the work recursion.

The work distribution after i-1 increments is the i-1 fold convolution of the
per-step increment densities, because each pulling step samples its own
fluctuation density independently.  Every density lives on a shared uniform
work lattice; increments are moved onto it by a mass- and mean-conserving
two-node deposit, which for the commensurate center grids is exact (every
image point lands on a lattice node: the x spacing is dlambda / M for the
smallest integer M, the nodes half a spacing off when M is odd) and for the
quadratic spring map turns the integrable 1/sqrt(u) spike at u = 0 into
finite cell masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridTooNarrow, MassLeak
from .protocol import GridSpec, PullSchedule
from .spectra import OscillatorSpectrum

__all__ = ["GriddedDensity", "WorkLedger", "fluctuation_density", "step_work_map",
           "pushforward_step_density", "lattice_convolve", "run_work_recursion",
           "work_moments"]

# relative mass error allowed on a work distribution or a fluctuation density
MASS_TOLERANCE = 1e-4
# relative boundary mass allowed on a fluctuation-density grid
BOUNDARY_TOLERANCE = 1e-12
# lattice tails below this fraction of the peak are trimmed between steps; for
# speed: it keeps them out of the subnormal range, where BLAS products slow down
_CROP_RELATIVE = 1e-280
# deposit fractions closer than this to a node are snapped onto it
_SNAP = 1e-9
# output nodes per row of the blocked Toeplitz convolution
_BLOCK = 128
# inner dimension of each BLAS product.  OpenBLAS (0.3.31, Haswell kernels)
# sums 256 terms in the same order at every thread count, and an inner
# dimension such as 1000 or 2826 in an order that depends on it
_SLAB = 256


@dataclass(frozen=True)
class GriddedDensity:
    """A nonnegative density sampled on a uniform grid."""

    grid: GridSpec
    values: np.ndarray

    # read by bench/layertrace.py's _count_convolve, _count_recursion and _count_expavg
    is_point_mass = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.points,):
            raise ValueError("values must match the grid point count")
        if not vals.min() >= 0.0:  # also catches NaN
            raise ValueError("density values must be nonnegative numbers")
        object.__setattr__(self, "values", vals)

    def integral(self):
        return float(np.trapezoid(self.values, dx=self.grid.spacing))


@dataclass(frozen=True)
class WorkLedger:
    """Everything the recursion produced for one schedule."""

    distributions: tuple = ()      # rho_2 .. rho_s
    normalizations: tuple = ()     # Q_2 .. Q_s


def fluctuation_density(spectrum: OscillatorSpectrum, a, x_grid: GridSpec):
    """Boltzmann-weighted eigenstate density, renormalized on the grid.

    The Boltzmann weights are unnormalized, so the result is rescaled to unit
    trapezoid integral.  Each |psi_n|^2 integrates to 1, so an x grid whose
    raw integral misses the weights' sum by over MASS_TOLERANCE is too coarse
    to hold the density and is refused, as is one with mass at its boundary.
    """
    x = x_grid.nodes()
    weights = spectrum.boltzmann_weights(a)
    raw = weights @ spectrum.all_densities(x)
    peak = raw.max()
    if raw[0] > BOUNDARY_TOLERANCE * peak or raw[-1] > BOUNDARY_TOLERANCE * peak:
        raise GridTooNarrow(
            f"boundary density {max(raw[0], raw[-1]):.3e} exceeds "
            f"{BOUNDARY_TOLERANCE:.0e} of peak {peak:.3e}; widen the x grid"
        )
    mass = np.trapezoid(raw, dx=x_grid.spacing)
    if abs(mass / weights.sum() - 1.0) > MASS_TOLERANCE:
        raise GridTooNarrow(f"the x grid holds {mass / weights.sum():.6g} of the density's "
                            "mass; refine the x grid")
    return GriddedDensity(x_grid, raw / mass)


def step_work_map(schedule: PullSchedule, i, x):
    """Work increment deltaW_i(x) picked up when the control steps i -> i+1.

    See ``OscillatorSpectrum.work_increment``; the spring increment is the
    same for every step because Delta-k is constant.
    """
    if not 1 <= i <= schedule.s - 1:
        raise ValueError(f"work steps run from 1 to {schedule.s - 1}")
    out = schedule.spectrum(i).work_increment(schedule.increment, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _deposit(positions, masses, h):
    """Two-node deposit of point masses onto the lattice {j*h}.

    Each mass is split between its bracketing nodes so the total mass and the
    first moment are conserved exactly; points within _SNAP of a node are
    snapped, which makes commensurate (center) pushforwards exact.
    """
    t = positions / h
    j = np.floor(t).astype(np.int64)
    d = t - j
    hi = d > 1.0 - _SNAP
    j[hi] += 1
    d[hi] = 0.0
    d[d < _SNAP] = 0.0
    n0 = int(j.min())
    vals = np.zeros(int(j.max()) - n0 + 2)
    np.add.at(vals, j - n0, masses * (1.0 - d))
    np.add.at(vals, j - n0 + 1, masses * d)
    return n0, vals / h


def _trapezoid_masses(density: GriddedDensity):
    w = np.full(density.grid.points, density.grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return density.values * w


def _lattice_density(n0, vals, h, lo=None, hi=None):
    """Wrap raw lattice values (index offset n0) as a density: the run of
    nodes above _CROP_RELATIVE of the peak, limited to nodes lo..hi when they
    are given, with one zero pad per side."""
    first, end = (0, vals.size) if lo is None else (max(lo - n0, 0), max(hi - n0 + 1, 0))
    keep = np.flatnonzero(vals[first:end] > vals.max() * _CROP_RELATIVE)
    first, last = first + int(keep[0]), first + int(keep[-1])
    vals = np.concatenate(([0.0], vals[first:last + 1], [0.0]))
    start = n0 + first - 1
    grid = GridSpec(start * h, (start + vals.size - 1) * h, vals.size)
    return GriddedDensity(grid, vals)


def _lattice_offset(density: GriddedDensity, h):
    return int(round(density.grid.min / h))


def pushforward_step_density(f: GriddedDensity, schedule: PullSchedule, i):
    """Density of the work increment deltaW_i when x is distributed as f.

    The affine center map is an exact change of variables with
    |Jacobian| = 1/(k dlambda); the quadratic spring map folds both branches
    x = +-sqrt(u / c) and leaves an integrable 1/sqrt(u) spike whose
    lattice-cell masses stay finite.
    """
    u = step_work_map(schedule, i, f.grid.nodes())
    n0, vals = _deposit(u, _trapezoid_masses(f), schedule.w_grid.spacing)
    return _lattice_density(n0, vals, schedule.w_grid.spacing)


def _toeplitz_convolve(a, b):
    """Full linear convolution of a and b as blocked Toeplitz matrix products.

    Output node r*_BLOCK + c is window r of the zero-padded longer operand
    times column c of a Toeplitz kernel that holds the reversed shorter one,
    so each block of output nodes is one BLAS matrix product.  The inner
    dimension is zero-padded to whole _SLAB slabs and summed slab by slab, in
    an order that no BLAS thread count changes.  Every term is a plain
    product, never a transform, so a sum of nonnegative terms keeps its
    relative accuracy down to the deepest tail.
    """
    if a.size < b.size:
        a, b = b, a
    n, m = a.size, b.size
    size = n + m - 1
    rows = -(-size // _BLOCK)
    k = -(-(_BLOCK + m - 1) // _SLAB) * _SLAB
    padded = np.zeros((rows - 1) * _BLOCK + k)
    padded[m - 1:m - 1 + n] = a
    windows = sliding_window_view(padded, k)[::_BLOCK]
    taps = np.zeros(k + _BLOCK - 1)
    taps[_BLOCK - 1:_BLOCK - 1 + m] = b[::-1]
    kernel = sliding_window_view(taps, k)[::-1].T.copy()
    out = windows[:, :_SLAB] @ kernel[:_SLAB]
    for j in range(_SLAB, k, _SLAB):
        out += windows[:, j:j + _SLAB] @ kernel[j:j + _SLAB]
    return out.ravel()[:size]


def lattice_convolve(d1: GriddedDensity, d2: GriddedDensity, h):
    """Convolution of two densities living on the common lattice {j*h}.

    No renormalization; the output mass is the product of the input masses.
    Each lattice value is a direct sum of nonnegative products
    (``_toeplitz_convolve``), so it keeps its relative accuracy in tails far
    below the peak, which the cold exponential averages read, and it does
    not depend on the BLAS thread count.
    """
    n0 = _lattice_offset(d1, h) + _lattice_offset(d2, h)
    vals = _toeplitz_convolve(d1.values, d2.values) * h
    return _lattice_density(n0, vals, h)


def run_work_recursion(schedule: PullSchedule):
    """Run the recursion through rho_s, building each f_j and its pushforward
    g_j once, when step j is reached.

    rho_2 is g_1 (rho_1 is the point mass at W = 0), and rho_i is rho_{i-1}
    convolved with g_{i-1}; each is cut once to the work window's nodes,
    checked for lost mass and renormalized by Q_i.

    The grids are charged for the distributions first, so a schedule over
    the grid budget is refused before any density is built.  A pull with a
    zero increment (which includes s = 1) does no work: every rho_i is the
    unit spike at W = 0 on the work grid (-1, 0, 1), and no density is built.
    """
    w_grid = schedule.check_grids(work=True)[1]
    if schedule.increment == 0.0:
        steps = schedule.s - 1
        spike = GriddedDensity(w_grid, [0.0, 1.0 / w_grid.spacing, 0.0])
        return WorkLedger((spike,) * steps, (1.0,) * steps)
    h = w_grid.spacing
    lo, hi = int(round(w_grid.min / h)) - 1, int(round(w_grid.max / h)) + 1
    rho, dists, norms = None, [], []
    for i in range(2, schedule.s + 1):
        f = fluctuation_density(schedule.spectrum(i - 1), schedule.a, schedule.x_grid)
        g = pushforward_step_density(f, schedule, i - 1)
        rho = g if rho is None else lattice_convolve(rho, g, h)
        rho = _lattice_density(_lattice_offset(rho, h), rho.values, h, lo, hi)
        mass = rho.integral()
        if abs(mass - 1.0) > MASS_TOLERANCE:
            raise MassLeak(f"work distribution at step {i} integrates to {mass:.8f}; "
                           "the work grid is truncating real mass")
        rho = GriddedDensity(rho.grid, rho.values / mass)
        dists.append(rho)
        norms.append(1.0 / mass)
    return WorkLedger(tuple(dists), tuple(norms))


def work_moments(rho: GriddedDensity):
    """Trapezoid-quadrature (mean, standard deviation) of a work density."""
    w = rho.grid.nodes()
    h = rho.grid.spacing
    mass = np.trapezoid(rho.values, dx=h)
    mean = np.trapezoid(w * rho.values, dx=h) / mass
    var = np.trapezoid((w - mean) ** 2 * rho.values, dx=h) / mass
    return float(mean), float(math.sqrt(max(var, 0.0)))
