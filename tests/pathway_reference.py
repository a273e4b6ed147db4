"""Scalar and enumerating references for the pathway tests.

The scalar residuals evaluate one transition tuple at a time from the
spectra's own densities, so the vectorized tables of ``stepwork.pathways``
can be checked entry by entry.  The enumeration builds the work distribution
of every energy pathway by convolving per-state pushforwards, so their sum
can be checked against the recursion pipeline.  Both cost a power of the
problem size and are meant for small schedules only.  The mask step of the
decomposition's forward pass forms one float64 matrix per condition code,
so the pass's sparse step can be checked against it, and the
one-product-per-n_prev step keeps the pass's earlier form, so the sliced
step can be checked against it bit for bit.  The dense transition
tables evaluate every residual over every link, so the band search of the scan
can be checked against them code for code and bit for bit.  The
detailed-balance scan lists the links where r13 holds, with their classes and
per-state-pair density sums, read from the scan's own sparse tables.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
from reference import prob_density

from stepwork.pathways import (
    _CLASS_OF,
    DEFAULT_EPS_REL,
    PathwayClass,
    TransitionRecord,
    _density_floor,
    _positions,
    _transition_tables,
)
from stepwork.protocol import GridSpec
from stepwork.workdist import (
    GriddedDensity,
    lattice_convolve,
    pushforward_step_density,
    step_work_map,
)


class DensityFloor(Exception):
    """A log-ratio residual was requested where a density is below the floor."""


def _checked_log(value, floor, what):
    if value <= floor:
        raise DensityFloor(f"{what} = {value:.3e} at or below floor {floor:.3e}")
    return math.log(value)


def residual_12a(i, x_prev, x_next, n_prev, n_next, schedule,
                 eps_rel=DEFAULT_EPS_REL):
    """ln of the state-to-state density ratio minus beta (dE + dW).

    Zero on transitions satisfying the joint position/energy optimality
    condition.  The work difference is the step i-1 increment evaluated at
    x_prev.
    """
    sp_prev = schedule.spectrum(i - 1)
    sp_next = schedule.spectrum(i)
    d_next = prob_density(sp_next, n_next, x_next)
    d_prev = prob_density(sp_prev, n_prev, x_prev)
    log_ratio = (_checked_log(d_next, _density_floor(sp_next, eps_rel), "|psi(x_next)|^2")
                 - _checked_log(d_prev, _density_floor(sp_prev, eps_rel), "|psi(x_prev)|^2"))
    de = sp_next.work_energy(n_next) - sp_prev.work_energy(n_prev)
    dw = step_work_map(schedule, i - 1, x_prev)
    return log_ratio - schedule.beta * (de + dw)


def residual_12b(i, x_prev, x_next, n_next, schedule, eps_rel=DEFAULT_EPS_REL):
    """Same-state density ratio between the two positions minus beta dW."""
    sp_next = schedule.spectrum(i)
    floor = _density_floor(sp_next, eps_rel)
    log_ratio = (_checked_log(prob_density(sp_next, n_next, x_next), floor, "|psi(x_next)|^2")
                 - _checked_log(prob_density(sp_next, n_next, x_prev), floor, "|psi(x_prev)|^2"))
    return log_ratio - schedule.beta * step_work_map(schedule, i - 1, x_prev)


def residual_13(i, x_prev, x_next, n_prev, n_next, schedule,
                eps_rel=DEFAULT_EPS_REL):
    """Detailed-balance residual: cross-evaluated density ratio minus beta dE."""
    sp_prev = schedule.spectrum(i - 1)
    sp_next = schedule.spectrum(i)
    log_ratio = (_checked_log(prob_density(sp_next, n_next, x_prev),
                              _density_floor(sp_next, eps_rel), "|psi_next(x_prev)|^2")
                 - _checked_log(prob_density(sp_prev, n_prev, x_next),
                                _density_floor(sp_prev, eps_rel), "|psi_prev(x_next)|^2"))
    de = sp_next.work_energy(n_next) - sp_prev.work_energy(n_prev)
    return log_ratio - schedule.beta * de


def residual_quotient(i, x_prev, n_prev, n_next, schedule,
                      eps_rel=DEFAULT_EPS_REL):
    """Quotient residual: both states evaluated at x_prev.

    Equals r12a - r12b identically (the work terms cancel); evaluated
    directly so the identity can be asserted rather than assumed.
    """
    sp_prev = schedule.spectrum(i - 1)
    sp_next = schedule.spectrum(i)
    log_ratio = (_checked_log(prob_density(sp_next, n_next, x_prev),
                              _density_floor(sp_next, eps_rel), "|psi_next(x_prev)|^2")
                 - _checked_log(prob_density(sp_prev, n_prev, x_prev),
                                _density_floor(sp_prev, eps_rel), "|psi_prev(x_prev)|^2"))
    de = sp_next.work_energy(n_next) - sp_prev.work_energy(n_prev)
    return log_ratio - schedule.beta * de


def on_common_lattice(d1, d2, h):
    """Both lattice densities' values over the nodes (spacing h) that span
    them both, and the grid of those nodes."""
    n1 = round(d1.grid.min / h)
    n2 = round(d2.grid.min / h)
    lo = min(n1, n2)
    hi = max(n1 + d1.values.size, n2 + d2.values.size)
    a = np.zeros(hi - lo)
    b = np.zeros(hi - lo)
    a[n1 - lo:n1 - lo + d1.values.size] = d1.values
    b[n2 - lo:n2 - lo + d2.values.size] = d2.values
    return GridSpec(lo * h, (hi - 1) * h, hi - lo), a, b


def _state_pushforwards(schedule):
    """Pushforward of every per-state sub-density, cached as [step][n].

    Each state n at step i carries weight exp(-beta (E_n - E_0)) / Z_i with
    Z_i the same trapezoid normalization the recursion pipeline uses, so the
    sum over states reproduces the pipeline's f_i exactly.
    """
    x_grid = schedule.x_grid
    x = x_grid.nodes()
    out = []
    for i in range(1, schedule.s):
        spec = schedule.spectrum(i)
        weights = spec.boltzmann_weights(schedule.a)
        dens = spec.all_densities(x)
        z = np.trapezoid(weights @ dens, dx=x_grid.spacing)
        out.append([pushforward_step_density(GriddedDensity(x_grid, weights[n] * dens[n] / z),
                                             schedule, i)
                    for n in range(schedule.n_max + 1)])
    return out


def pathway_work_distribution(e_path, schedule, _cache=None):
    """Work distribution along one energy pathway (E_1 ... E_{s-1}).

    Sub-normalized: it integrates to the pathway's Boltzmann weight, so the
    sum over all pathways reproduces the total work distribution.
    """
    if len(e_path) != schedule.s - 1:
        raise ValueError(f"an energy pathway has s-1 = {schedule.s - 1} entries")
    if any(not 0 <= n <= schedule.n_max for n in e_path):
        raise ValueError("pathway state outside 0..n_max")
    cache = _cache if _cache is not None else _state_pushforwards(schedule)
    h = schedule.w_grid.spacing
    rho = cache[0][e_path[0]]
    for i, n in enumerate(e_path[1:], start=2):
        rho = lattice_convolve(rho, cache[i - 1][n], h)
    return rho


def total_pathway_distribution(schedule):
    """Sum of pathway distributions over all (n_max+1)^(s-1) energy pathways."""
    cache = _state_pushforwards(schedule)
    h = schedule.w_grid.spacing
    total = None
    for path in itertools.product(range(schedule.n_max + 1), repeat=schedule.s - 1):
        rho = pathway_work_distribution(path, schedule, _cache=cache)
        if total is None:
            total = rho
        else:
            grid, a, b = on_common_lattice(total, rho, h)
            total = GriddedDensity(grid, a + b)
    return total


def advance_by_masks(chain, code):
    """One transition of the decomposition's forward pass, one mask per code.

    ``chain[t, f]`` holds the weight (t = 0) and count (t = 1) sums of the
    prefixes along which exactly the conditions in f held; a link with code g
    sends set f to set f & g.  Each of the eight codes g becomes a full
    (n_prev k_prev, n_next k_next) float64 matrix.
    """
    n_states, _, p, _ = code.shape
    links = code.transpose(0, 2, 1, 3).reshape(n_states * p, -1)
    nxt = np.zeros_like(chain)
    held = np.arange(8)
    for g in range(8):
        np.add.at(nxt, (slice(None), held & g), chain @ (links == g).astype(float))
    return nxt


def advance_per_n_prev(chain, code):
    """One transition of the decomposition's forward pass, with one product of
    the summed sets and the code-0 mask per n_prev.

    The code-0 product runs over the whole (n_next, k_prev, k_next) block of an
    n_prev, cast to float64 at once; the links with a non-zero code are
    scattered with ``np.bincount`` as in ``stepwork.pathways._advance``.
    """
    n_states, _, p, _ = code.shape
    size = n_states * p
    rows_of = chain.reshape(2, 8, n_states, p)
    nxt = np.zeros((2, 8 * size))
    set0 = nxt.reshape(2, 8, n_states, p)[:, 0]
    for n_prev in range(n_states):
        block = code[n_prev]
        rows = rows_of[:, :, n_prev]
        zero = block == 0
        set0 += np.matmul(rows.sum(axis=1), zero).swapaxes(0, 1)
        n_next, k_prev, k_next = np.unravel_index(np.flatnonzero(~zero), block.shape)
        held = block[n_next, k_prev, k_next].astype(np.intp)
        column = n_next * p + k_next
        for f in np.flatnonzero(rows[1].any(axis=-1)):
            target = (f & held) * size + column
            for t in (0, 1):
                nxt[t] += np.bincount(target, weights=rows[t, f, k_prev], minlength=8 * size)
    return nxt.reshape(2, 8, size)


def dense_transition_tables(schedule, i, x, eps_rel, tol):
    """Residuals and condition codes over every link of one transition's
    (n_prev, n_next, k_prev, k_next) grid.

    A condition holds on a link where its residual is within tol and both
    densities the residual reads are above the floor; ``code`` packs which hold
    as A + 2 B + 4 DB.  r12b does not depend on n_prev and is kept as
    (n_next, k_prev, k_next).  r12a and r13 are full-size float64 tables.
    """
    sp_prev = schedule.spectrum(i - 1)
    sp_next = schedule.spectrum(i)
    beta = schedule.beta
    d_prev = sp_prev.all_densities(x)   # (S, P)
    d_next = sp_next.all_densities(x)
    ok_prev = d_prev > _density_floor(sp_prev, eps_rel)
    ok_next = d_next > _density_floor(sp_next, eps_rel)

    e_prev = sp_prev.work_energy(np.arange(schedule.n_max + 1))
    e_next = sp_next.work_energy(np.arange(schedule.n_max + 1))
    de = e_next[None, :] - e_prev[:, None]                      # (S, S)
    dw = step_work_map(schedule, i - 1, x)                      # (P,)

    # axes: n_prev, n_next, k_prev, k_next
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l_prev = np.log(d_prev)
        l_next = np.log(d_next)
        r12a = (l_next[None, :, None, :] - l_prev[:, None, :, None]
                - beta * (de[:, :, None, None] + dw[None, None, :, None]))
        r12b = (l_next[:, None, :] - l_next[:, :, None] - beta * dw[None, :, None])
        r13 = (l_next[None, :, :, None] - l_prev[:, None, None, :]
               - beta * de[:, :, None, None])

    code = np.zeros(r12a.shape, dtype=np.uint8)
    for bit, r, floors in ((0, r12a, (ok_prev[:, None, :, None], ok_next[None, :, None, :])),
                           (1, r12b, (ok_next[:, :, None], ok_next[:, None, :])),
                           (2, r13, (ok_prev[:, None, None, :], ok_next[None, :, :, None]))):
        held = (-tol <= r) & (r <= tol)
        for ok in floors:
            held &= ok
        code |= held.view(np.uint8) << bit
    return {"r12a": r12a, "r12b": r12b, "r13": r13, "code": code,
            "d_prev": d_prev, "d_next": d_next}


class PairSummary(NamedTuple):
    """Link statistics for one (n_prev, n_next) state pair.

    ``p_forward`` sums the step-i density evaluated at the links' x_prev
    values, ``p_reverse`` the step-(i-1) density at their x_next values;
    their log ratio minus beta (E_next - E_prev) is the detailed-balance
    proxy residual.
    """

    n_prev: int
    n_next: int
    count: int
    p_forward: float
    p_reverse: float
    proxy_residual: float


def pair_summaries(schedule, i, x, records):
    """One PairSummary per state pair of ``records``, which are transitions
    i-1 -> i at positions x, in (n_prev, n_next, k_prev, k_next) order; each
    pair's sums run over its records in that order."""
    sp_prev, sp_next = schedule.spectrum(i - 1), schedule.spectrum(i)
    d_prev, d_next = sp_prev.all_densities(x), sp_next.all_densities(x)
    de = (sp_next.work_energy(np.arange(schedule.n_max + 1))[None, :]
          - sp_prev.work_energy(np.arange(schedule.n_max + 1))[:, None])
    keys = np.array([(r.n_prev, r.n_next) for r in records], dtype=int).reshape(-1, 2)
    k_prev = np.searchsorted(x, [r.x_prev for r in records])
    k_next = np.searchsorted(x, [r.x_next for r in records])
    pairs = []
    for (n_prev, n_next), start, count in zip(*np.unique(keys, axis=0, return_index=True,
                                                         return_counts=True)):
        own = slice(start, start + count)
        p_fwd = float(d_next[n_next, k_prev[own]].sum())
        p_rev = float(d_prev[n_prev, k_next[own]].sum())
        proxy = (math.log(p_fwd / p_rev) - schedule.beta * de[n_prev, n_next]
                 if p_fwd > 0.0 and p_rev > 0.0 else math.nan)
        pairs.append(PairSummary(int(n_prev), int(n_next), int(count), p_fwd, p_rev, proxy))
    return tuple(pairs)


def detailed_balance_scan(schedule, i, tol, max_x_points, eps_rel=DEFAULT_EPS_REL):
    """Every link of transition i-1 -> i where DB (r13) holds, as labelled
    TransitionRecords in (n_prev, n_next, k_prev, k_next) order, with their
    state pairs' sums.

    The links and residuals come from ``_transition_tables`` at the scan's
    positions, so no float64 table over all links is built; each record's
    label is the class of its link's code.
    """
    x = _positions(schedule.x_grid, max_x_points)
    tab = _transition_tables(schedule, i, x, eps_rel, tol)
    code = tab["code"]
    hit = np.unravel_index(np.flatnonzero(code & 4), code.shape)
    n_prev, n_next, k_prev, k_next = hit
    labels = np.array(tuple(PathwayClass), dtype=object)[_CLASS_OF[code[hit]]]
    records = tuple(map(
        TransitionRecord, itertools.repeat(i), n_prev.tolist(), n_next.tolist(),
        x[k_prev].tolist(), x[k_next].tolist(),
        tab["e_prev"][n_prev].tolist(), tab["e_next"][n_next].tolist(),
        tab["r12a"](*hit).tolist(), tab["r12b"](*hit).tolist(),
        tab["r13"](*hit).tolist(), labels.tolist()))
    return records, pair_summaries(schedule, i, x, records)
