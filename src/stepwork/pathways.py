"""Optimal-transition conditions, overlap measures, and pathway decomposition.

A transition between pulling steps i-1 and i is a tuple
(x_prev, x_next, n_prev, n_next) of positions and eigenstates.  Three
log-ratio residuals quantify how far it sits from the variational
conditions; transitions satisfying both position-like and energy-like
conditions are "optimal" and obey detailed balance.  A transfer-matrix
forward pass over the pathways on p uniform positions over the x-grid's span
splits the exponential work average into stochastic / deterministic /
optimal / biased contributions that recombine to the total identically.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteResult
from .protocol import PullSchedule, check_grid_budget
from .workdist import GriddedDensity, step_work_map

__all__ = ["PathwayClass", "TransitionRecord", "PairSummary", "TransitionScan",
           "PathwayDecomposition", "find_optimal_transitions", "overlap_measure",
           "decompose_free_energy"]

# default log-ratio tolerance and relative density floor
DEFAULT_TOL = 0.05
DEFAULT_EPS_REL = 1e-12
# float64 values' worth of memory one matched transition costs by the time it
# is written: its record, its CSV row and its line (about 790 bytes measured)
RECORD_VALUES = 100


class PathwayClass(enum.Enum):
    OPTIMAL = "optimal"            # both residual conditions hold
    DETERMINISTIC = "deterministic"  # exactly one of them holds
    STOCHASTIC = "stochastic"      # neither holds, but detailed balance does
    BIASED = "biased"              # none hold


class TransitionRecord(NamedTuple):
    """One candidate transition between consecutive pulling steps."""

    step: int
    n_prev: int
    n_next: int
    x_prev: float
    x_next: float
    e_prev: float
    e_next: float
    r12a: float
    r12b: float
    r13: float
    label: PathwayClass


@dataclass(frozen=True)
class PairSummary:
    """Matched-transition statistics for one (n_prev, n_next) state pair.

    ``p_forward`` sums the step-i density evaluated at the matched x_prev
    values, ``p_reverse`` the step-(i-1) density at the matched x_next
    values; their log ratio minus beta (E_next - E_prev) is the
    detailed-balance proxy residual.
    """

    n_prev: int
    n_next: int
    count: int
    p_forward: float
    p_reverse: float
    proxy_residual: float


@dataclass(frozen=True)
class TransitionScan:
    records: tuple
    pairs: tuple


@dataclass(frozen=True)
class PathwayDecomposition:
    """Free-energy split over pathway classes, with exact reconstruction;
    ``delta_f`` holds -ln(c)/beta of each class's contribution c."""

    delta_f: dict
    contributions: dict
    counts: dict
    reconstruction_error: float


def _density_floor(spectrum, eps_rel):
    """eps_rel times the step's peak density (the ground state's maximum)."""
    return eps_rel * (math.sqrt(spectrum.omega) * math.pi ** -0.5)


def _check_tolerances(tol, eps_rel):
    for name, value in (("tol", tol), ("eps_rel", eps_rel)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _positions(x_grid, max_points):
    """At most max_points uniform positions over the x-grid's span."""
    if max_points < 1:
        raise ValueError(f"max_x_points must be at least 1, got {max_points}")
    return np.linspace(x_grid.min, x_grid.max, min(max_points, x_grid.points))


def _transition_tables(schedule, i, x, eps_rel, tol):
    """Residuals and condition codes over one transition's (n_prev, n_next, k_prev, k_next) grid.

    Both positions of a transition range over the same axis x.  A condition
    holds on a link where its residual is within tol and both densities the
    residual reads are above the floor; ``code`` packs which hold as
    A + 2 B + 4 DB.  r12b does not depend on n_prev and is kept as
    (n_next, k_prev, k_next).
    """
    # refused before any table is allocated: r12a, r13, one more full-size
    # float64 array while they are formed, then the one-byte code and pass
    # arrays; the traced peaks of the scan and the decomposition are 3.1 to
    # 3.6 full-size float64 arrays
    check_grid_budget("the transition tables",
                      5 * (schedule.n_max + 1) ** 2 * x.size ** 2,
                      "lower n_max")
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
    with np.errstate(divide="ignore", invalid="ignore"):
        l_prev = np.log(d_prev)
        l_next = np.log(d_next)
        r12a = (l_next[None, :, None, :] - l_prev[:, None, :, None]
                - beta * (de[:, :, None, None] + dw[None, None, :, None]))
        r12b = (l_next[:, None, :] - l_next[:, :, None] - beta * dw[None, :, None])
        r13 = (l_next[None, :, :, None] - l_prev[:, None, None, :]
               - beta * de[:, :, None, None])

    # which conditions hold on each link, as A + 2 B + 4 DB: a residual in
    # [-tol, tol] whose two densities are above the floor.  B is tested on its
    # own (S, P, P) table and broadcast over n_prev
    code = np.zeros(r12a.shape, dtype=np.uint8)
    for bit, r, floors in ((0, r12a, (ok_prev[:, None, :, None], ok_next[None, :, None, :])),
                           (1, r12b, (ok_next[:, :, None], ok_next[:, None, :])),
                           (2, r13, (ok_prev[:, None, None, :], ok_next[None, :, :, None]))):
        held = (-tol <= r) & (r <= tol)
        for ok in floors:
            held &= ok
        code |= held.view(np.uint8) << bit
    return {"r12a": r12a, "r12b": r12b, "r13": r13, "code": code,
            "e_prev": e_prev, "e_next": e_next, "d_prev": d_prev, "d_next": d_next}


# PathwayClass index of each code A + 2 B + 4 DB: optimal where A and B hold,
# deterministic where one of them does, stochastic where only DB does, else biased
_CLASS_OF = np.array([3, 1, 1, 0, 2, 1, 1, 0])
_LABELS = np.array(tuple(PathwayClass), dtype=object)


def find_optimal_transitions(schedule: PullSchedule, i, tol=DEFAULT_TOL,
                             eps_rel=DEFAULT_EPS_REL, max_x_points=200,
                             match="optimal", records_held=0):
    """Scan the discretized transition space at step i-1 -> i.

    Returns every (x_prev, x_next, n_prev, n_next) tuple whose matching
    residuals are within tol (``match='optimal'``: both r12a and r12b;
    ``match='detailed-balance'``: r13), with per-state-pair forward/reverse
    density sums as transition-probability proxies.  Records come in
    (n_prev, n_next, k_prev, k_next) order.  An empty record list is a valid
    outcome on coarse grids or tight tolerances.  The matches are counted,
    together with the ``records_held`` the caller keeps from earlier scans,
    against the grid budget before any record is built.
    """
    if not 2 <= i <= schedule.s:
        raise ValueError(f"transitions exist for 2 <= i <= {schedule.s}")
    if match not in ("optimal", "detailed-balance"):
        raise ValueError("match must be 'optimal' or 'detailed-balance'")
    _check_tolerances(tol, eps_rel)
    x = _positions(schedule.x_grid, max_x_points)
    tab = _transition_tables(schedule, i, x, eps_rel, tol)

    need = 3 if match == "optimal" else 4
    code = tab["code"]
    matched = (code & need) == need
    counts = np.count_nonzero(matched, axis=(2, 3))   # per (n_prev, n_next)
    check_grid_budget("the transition records",
                      RECORD_VALUES * (records_held + int(counts.sum())),
                      "lower tol or n_max")
    hit = np.unravel_index(np.flatnonzero(matched), code.shape)
    n_prev, n_next, k_prev, k_next = hit
    records = tuple(map(
        TransitionRecord, itertools.repeat(i), n_prev.tolist(), n_next.tolist(),
        x[k_prev].tolist(), x[k_next].tolist(),
        tab["e_prev"][n_prev].tolist(), tab["e_next"][n_next].tolist(),
        tab["r12a"][hit].tolist(), tab["r12b"][n_next, k_prev, k_next].tolist(),
        tab["r13"][hit].tolist(), _LABELS[_CLASS_OF[code[hit]]].tolist()))

    # a state pair's records are consecutive, and its sums run over them in order
    pairs = []
    for (p, n), count, end in zip(np.ndindex(counts.shape), counts.flat, np.cumsum(counts)):
        if count:
            p_fwd = float(tab["d_next"][n, k_prev[end - count:end]].sum())
            p_rev = float(tab["d_prev"][p, k_next[end - count:end]].sum())
            de = tab["e_next"][n] - tab["e_prev"][p]
            proxy = (math.log(p_fwd / p_rev) - schedule.beta * de
                     if p_fwd > 0.0 and p_rev > 0.0 else math.nan)
            pairs.append(PairSummary(p, n, int(count), p_fwd, p_rev, proxy))
    return TransitionScan(records, tuple(pairs))


def overlap_measure(f_prev: GriddedDensity, f_next: GriddedDensity):
    """Width and mass of the overlap region between successive densities.

    Returns (length of {x: min(f_prev, f_next) > eps}, integral of the
    pointwise minimum), with eps 1e-12 of the larger peak.
    """
    if f_prev.is_point_mass or f_next.is_point_mass:
        raise ValueError("overlap needs gridded densities")
    if f_prev.grid != f_next.grid:
        raise ValueError("densities must share a grid")
    eps = 1e-12 * max(f_prev.values.max(), f_next.values.max())
    low = np.minimum(f_prev.values, f_next.values)
    width = float(np.count_nonzero(low > eps) * f_prev.grid.spacing)
    mass = float(np.trapezoid(low, dx=f_prev.grid.spacing))
    return width, mass


# weights past the float64 range are refused once, at the end, not warned about
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def decompose_free_energy(schedule: PullSchedule, tol=DEFAULT_TOL,
                          eps_rel=DEFAULT_EPS_REL, max_x_points=50):
    """Split exp(-beta dF) over pathway classes on up to max_x_points positions.

    The positions are uniform over the x-grid's span, so each slot's
    normalized weights are an equal-weight quadrature of the step's
    exponential average, and the total matches the closed-form profile to
    rounding once the positions resolve the densities.

    Every (energy pathway, position pathway) tuple is classified by its
    transition residuals: optimal pathways satisfy both conditions at every
    transition, deterministic ones exactly one of the two, stochastic ones
    only detailed balance, and the rest are biased.  The stochastic and
    deterministic contributions each include the optimal pathways, so the
    total recombines as S + D - OP + B identically.

    Weights are products over slots and conditions ANDs over transitions, so
    one forward pass of s-2 transfer-matrix products (as in a hidden Markov
    model) carries, per slot state and per set of conditions held so far,
    disjoint prefix sums; any s is covered.  Counts run through the same
    pass in float64: exact while ((n_max+1) p)^(s-1) <= 2^53, rounded beyond.
    """
    _check_tolerances(tol, eps_rel)
    x = _positions(schedule.x_grid, max_x_points)
    beta = schedule.beta

    # per-slot discrete weights q_i[n, k] ~ Boltzmann x density x e^{-beta dW};
    # where e^{-beta dW} overflows they are formed in log space, so a density
    # that underflowed to 0 weighs 0
    slot_weight = []
    for i in range(1, schedule.s):
        spec = schedule.spectrum(i)
        q = spec.boltzmann_weights(schedule.a)[:, None] * spec.all_densities(x)
        q /= q.sum()
        log_tilt = -beta * step_work_map(schedule, i, x)[None, :]
        weight = q * np.exp(log_tilt)
        slot_weight.append(np.where(np.isfinite(weight), weight, np.exp(np.log(q) + log_tilt)))

    # chain[f] carries the (weight, count) sums of the prefixes along which
    # exactly the conditions in f (A + 2 B + 4 DB) held; at the first slot
    # every condition holds vacuously.  With s = 1 no work is done: one empty
    # pathway of weight 1, optimal by the same vacuous truth
    first = slot_weight[0].ravel() if slot_weight else np.ones(1)
    chain = np.zeros((8, 2, first.size))
    chain[7] = first, np.ones(first.size)
    held = np.arange(8)
    for i, q in enumerate(slot_weight[1:], start=2):
        code = _transition_tables(schedule, i, x, eps_rel, tol)["code"]
        code = code.transpose(0, 2, 1, 3).reshape(chain.shape[-1], -1)
        nxt = np.zeros_like(chain)
        for g in range(8):
            np.add.at(nxt, held & g, chain @ (code == g).astype(float))
        chain = nxt * np.stack([q.ravel(), np.ones(q.size)])
    by_class = np.zeros((len(PathwayClass), 2))
    np.add.at(by_class, _CLASS_OF, chain.sum(axis=-1))
    c_op, c_det, c_sto, c_bia = by_class[:, 0].tolist()
    c_total = float(by_class[:, 0].sum())
    if not 0.0 < c_total < math.inf:
        raise NonFiniteResult(f"the pathway weights sum to {c_total}; exp(-beta W) leaves "
                              "the float64 range on this grid")
    c_s, c_d = c_op + c_sto, c_op + c_det
    reconstruction = (c_s + c_d - c_op + c_bia) - c_total
    contributions = {"total": c_total, "stochastic": c_s, "deterministic": c_d,
                     "optimal": c_op, "biased": c_bia}
    return PathwayDecomposition(
        delta_f={name: float(-math.log(c) / beta) if c > 0.0 else math.inf
                 for name, c in contributions.items()},
        contributions=contributions,
        counts={cls.value: int(n) for cls, n in zip(PathwayClass, by_class[:, 1])},
        reconstruction_error=abs(reconstruction) / c_total,
    )
