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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteResult
from .protocol import PullSchedule, check_grid_budget
from .workdist import GriddedDensity, step_work_map

__all__ = ["TransitionRecord", "TransitionScan", "PathwayDecomposition",
           "find_optimal_transitions", "overlap_measure", "decompose_free_energy"]

# default log-ratio tolerance, fixed relative density floor, default position count
DEFAULT_TOL = 0.05
EPS_REL = 1e-12
DEFAULT_X_POINTS = 200
# float64 values' worth of memory one matched transition costs by the time it
# is written: its record and the copies of its CSV line (604 bytes measured)
RECORD_VALUES = 80


# the pathway classes: optimal where both residual conditions hold,
# deterministic where exactly one does, stochastic where neither does but
# detailed balance does, and biased where none hold
_CLASSES = ("optimal", "deterministic", "stochastic", "biased")


class TransitionRecord(NamedTuple):
    """One optimal transition between consecutive steps, a ``transitions.csv`` row."""

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


@dataclass(frozen=True)
class TransitionScan:
    """A transition's records, one per link where A and B hold, with its
    condition code A + 2 B + 4 DB over (n_prev, n_next, k_prev, k_next)."""

    records: tuple
    code: np.ndarray


@dataclass(frozen=True)
class PathwayDecomposition:
    """Free-energy split over pathway classes, with exact reconstruction;
    ``delta_f`` holds -ln(c)/beta of each contribution c, the total's summed by slot."""

    delta_f: dict
    contributions: dict
    counts: dict
    reconstruction_error: float


def _density_floor(spectrum):
    """EPS_REL times the step's peak density (the ground state's maximum)."""
    return EPS_REL * (math.sqrt(spectrum.omega) * math.pi ** -0.5)


def _check_tol(tol):
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _positions(x_grid, max_points):
    """Uniform positions over the x-grid's span, at most max_points and at
    most its N points, none of them inside it on a grid node or halfway
    between two.

    The grids put every step's center on such a point, and there every odd
    state's density is 0, so no condition reading it holds, even at a huge
    tol.  Position k is one of them iff 2 k (N - 1) / (p - 1) is an integer,
    so p is the largest count <= min(max_points, N) with p - 1 coprime to
    2 (N - 1).
    """
    if max_points < 1:
        raise ValueError(f"max_x_points must be at least 1, got {max_points}")
    p = min(max_points, x_grid.points)
    while p > 1 and math.gcd(p - 1, 2 * (x_grid.points - 1)) > 1:
        p -= 1
    return np.linspace(x_grid.min, x_grid.max, p)


# the rounding margin of a band search, in units of the largest magnitude that
# it and the residual it stands for read: four ulps over the five roundings
# between them, each at most half an ulp
_BAND_ULPS = 4 * np.finfo(float).eps


def _band_links(logs, ok, center, magnitude, tol):
    """Every (query, k) with ok[k] and logs[k] within tol of center[query].

    The band is widened by a rounding margin, so the links are a superset of
    those where the residual |logs[k] - center[query]| the caller evaluates is
    within tol; ``magnitude[query]`` bounds the operands that formed the
    center.  One sort of the above-floor logs and two searchsorted calls give
    each query's run of sorted values; the runs are laid out query by query.
    """
    ks = np.flatnonzero(ok)
    ks = ks[np.argsort(logs[ks])]
    ranked = logs[ks]
    width = tol + _BAND_ULPS * (tol + magnitude + np.abs(ranked).max(initial=0.0))
    lo = np.searchsorted(ranked, center - width, side="left")
    count = np.searchsorted(ranked, center + width, side="right") - lo
    query = np.repeat(np.arange(center.size), count)
    rank = np.arange(query.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    return query, ks[rank]


def _within(r, tol):
    return (-tol <= r) & (r <= tol)


# float64 values a link of one state's (n_next or n_prev) slice costs at most
# while that slice is worked on, traced with every link in play: up to 8.8 for
# a band-search candidate (its indices, rank and residual) and 10.3 for the
# forward pass over one n_prev block with every code non-zero (more only near
# p = 10, where each block's fixed arrays weigh in), rounded up with a value to spare
SLICE_VALUES = 12


def _transition_tables(schedule, i, x, tol):
    """Condition codes over one transition's (n_prev, n_next, k_prev, k_next) grid.

    Both positions of a transition range over the same axis x.  A condition
    holds on a link where its residual is within tol and both densities the
    residual reads are above the floor; ``code`` packs which hold as
    A + 2 B + 4 DB.  B (r12b) does not depend on n_prev and is tested on one
    n_next's (k_prev, k_next) block at a time.  A (r12a) holds where
    ln d_next[n_next, k_next] is near ln d_prev[n_prev, k_prev] + beta (dE + dW),
    and DB (r13) where ln d_prev[n_prev, k_next] is near
    ln d_next[n_next, k_prev] - beta dE: each is found by a band search over
    one state's sorted logs, and each candidate is decided by the residual
    itself.  So the one-byte code is the only array over all links; the rest
    is one state's slice at a time, and the three residuals are returned as
    functions of a link.
    """
    n_states, p = schedule.n_max + 1, x.size
    # refused before any table is allocated: the one-byte code, the shift
    # table and one state's slice, every link of it a candidate at worst
    check_grid_budget("the transition tables", n_states ** 2 * p ** 2 / 8 + n_states ** 2 * p
                      + SLICE_VALUES * n_states * p ** 2, "lower n_max")
    sp_prev = schedule.spectrum(i - 1)
    sp_next = schedule.spectrum(i)
    beta = schedule.beta
    d_prev = sp_prev.all_densities(x)   # (S, P)
    d_next = sp_next.all_densities(x)
    ok_prev = d_prev > _density_floor(sp_prev)
    ok_next = d_next > _density_floor(sp_next)

    e_prev = sp_prev.work_energy(np.arange(n_states))
    e_next = sp_next.work_energy(np.arange(n_states))
    de = e_next[None, :] - e_prev[:, None]                      # (S, S)
    dw = step_work_map(schedule, i - 1, x)                      # (P,)

    # an infinite log or shift fails every condition that reads it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l_prev = np.log(d_prev)
        l_next = np.log(d_next)
        shift = beta * (de[:, :, None] + dw)                    # (S, S, P)
        tilt = beta * dw                                        # (P,)

    # the residuals link by link; a below-floor density gives an infinite log,
    # and a residual reading one is returned as it comes out
    @np.errstate(invalid="ignore", over="ignore")
    def r12a(n_prev, n_next, k_prev, k_next):
        return l_next[n_next, k_next] - l_prev[n_prev, k_prev] - shift[n_prev, n_next, k_prev]

    @np.errstate(invalid="ignore", over="ignore")
    def r12b(n_prev, n_next, k_prev, k_next):
        return l_next[n_next, k_next] - l_next[n_next, k_prev] - tilt[k_prev]

    @np.errstate(invalid="ignore", over="ignore")
    def r13(n_prev, n_next, k_prev, k_next):
        return l_next[n_next, k_prev] - l_prev[n_prev, k_next] - beta * de[n_prev, n_next]

    code = np.empty((n_states, n_states, p, p), dtype=np.uint8)
    with np.errstate(invalid="ignore", over="ignore"):
        # B, per n_next, on its (k_prev, k_next) block; the same for every n_prev
        for n in range(n_states):
            r = l_next[n] - l_next[n, :, None]
            r -= tilt[:, None]
            code[:, n] = (_within(r, tol) & ok_next[n] & ok_next[n, :, None]).view(np.uint8) << 1
    links = code.reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        # A, per n_next: the band of each above-floor (n_prev, k_prev)
        q_prev, q_k = np.nonzero(ok_prev)
        base = l_prev[q_prev, q_k]
        for n in range(n_states):
            t = shift[q_prev, n, q_k]
            q, k_next = _band_links(l_next[n], ok_next[n], base + t, np.abs(base) + np.abs(t), tol)
            link = q_prev[q], n, q_k[q], k_next
            links[np.ravel_multi_index(link, code.shape)[_within(r12a(*link), tol)]] |= 1

        # DB, per n_prev: the band of each above-floor (n_next, k_prev)
        q_next, q_k = np.nonzero(ok_next)
        base = l_next[q_next, q_k]
        for n in range(n_states):
            t = beta * de[n, q_next]
            q, k_next = _band_links(l_prev[n], ok_prev[n], base - t, np.abs(base) + np.abs(t), tol)
            link = n, q_next[q], q_k[q], k_next
            links[np.ravel_multi_index(link, code.shape)[_within(r13(*link), tol)]] |= 4
    return {"code": code, "r12a": r12a, "r12b": r12b, "r13": r13,
            "e_prev": e_prev, "e_next": e_next}


# the _CLASSES index of each code A + 2 B + 4 DB
_CLASS_OF = np.array([3, 1, 1, 0, 2, 1, 1, 0])


def find_optimal_transitions(schedule: PullSchedule, i, tol=DEFAULT_TOL,
                             max_x_points=DEFAULT_X_POINTS):
    """Scan the discretized transition space at step i-1 -> i.

    Returns every (x_prev, x_next, n_prev, n_next) tuple whose residuals r12a
    and r12b are both within tol, as a TransitionRecord in (n_prev, n_next,
    k_prev, k_next) order, with the condition code of every link; the share
    of them that also obeys detailed balance is where the code reads 7.  An
    empty record list is a valid outcome on coarse grids or tight tolerances.
    The matches are counted and charged to the grid budget before any
    record is built.
    """
    if not 2 <= i <= schedule.s:
        raise ValueError(f"transitions exist for 2 <= i <= {schedule.s}")
    _check_tol(tol)
    x = _positions(schedule.x_grid, max_x_points)
    tab = _transition_tables(schedule, i, x, tol)

    code = tab["code"]
    # the links where A and B hold, counted and then picked one n_prev slice
    # at a time, so a refused scan builds no index of them
    matched = sum(np.count_nonzero((c & 3) == 3) for c in code)
    check_grid_budget("the transition records", RECORD_VALUES * matched, "lower tol or n_max")
    size = code[0].size
    picked = [np.flatnonzero((c & 3) == 3) + n * size for n, c in enumerate(code)]
    hit = np.unravel_index(np.concatenate(picked), code.shape)
    n_prev, n_next, k_prev, k_next = hit
    records = tuple(map(
        TransitionRecord, itertools.repeat(i), n_prev.tolist(), n_next.tolist(),
        x[k_prev].tolist(), x[k_next].tolist(),
        tab["e_prev"][n_prev].tolist(), tab["e_next"][n_next].tolist(),
        tab["r12a"](*hit).tolist(), tab["r12b"](*hit).tolist(),
        tab["r13"](*hit).tolist()))
    return TransitionScan(records, code)


def overlap_measure(f_prev: GriddedDensity, f_next: GriddedDensity):
    """Width and mass of the overlap region between successive densities.

    Returns (length of {x: min(f_prev, f_next) > eps}, integral of the
    pointwise minimum), with eps 1e-12 of the larger peak.
    """
    if f_prev.grid != f_next.grid:
        raise ValueError("densities must share a grid")
    eps = 1e-12 * max(f_prev.values.max(), f_next.values.max())
    low = np.minimum(f_prev.values, f_next.values)
    width = float(np.count_nonzero(low > eps) * f_prev.grid.spacing)
    mass = float(np.trapezoid(low, dx=f_prev.grid.spacing))
    return width, mass


def _advance(chain, code):
    """Carry the forward pass's sums over one transition's links.

    ``chain[t, f]`` holds, per slot state (n_prev, k_prev), the weight (t = 0)
    and count (t = 1) sums of the prefixes along which exactly the conditions
    in f held; a link with code g sends set f to set f & g.  Most links hold
    no condition and send every set to set 0: those are one product of the
    summed sets with the code-0 mask, one per (n_prev, n_next) block, so
    only a (k_prev, k_next) block is cast to float64 at a time.  The few
    links with a non-zero code are scattered, one n_prev at a time, with
    ``np.bincount``.  The code is read in its own (n_prev, n_next, k_prev,
    k_next) layout.
    """
    n_states, _, p, _ = code.shape
    size = n_states * p
    rows_of = chain.reshape(2, 8, n_states, p)
    nxt = np.zeros((2, 8 * size))
    set0 = nxt.reshape(2, 8, n_states, p)[:, 0]
    for n_prev in range(n_states):
        block = code[n_prev]              # (n_next, k_prev, k_next)
        rows = rows_of[:, :, n_prev]      # (t, f, k_prev)
        summed = rows.sum(axis=1)         # (t, k_prev)
        zero = block == 0
        for n in range(n_states):
            set0[:, n] += summed @ zero[n]
        n_next, k_prev, k_next = np.unravel_index(np.flatnonzero(~zero), block.shape)
        held = block[n_next, k_prev, k_next].astype(np.intp)
        column = n_next * p + k_next
        # only the sets some prefix reaches carry anything
        for f in np.flatnonzero(rows[1].any(axis=-1)):
            target = (f & held) * size + column
            for t in (0, 1):
                nxt[t] += np.bincount(target, weights=rows[t, f, k_prev], minlength=8 * size)
    return nxt.reshape(2, 8, size)


# weights past the float64 range are refused once, at the end, not warned about
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def decompose_free_energy(schedule: PullSchedule, tol=DEFAULT_TOL,
                          max_x_points=DEFAULT_X_POINTS, on_records=None):
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
    pass in float64: exact ints while ((n_max+1) p)^(s-1) <= 2^53, and
    beyond that rounded, so they are given as floats.

    With ``on_records``, each transition i = 2..s is scanned once at the same
    positions by ``find_optimal_transitions``, whose records go to the
    callback in step order (matches over the grid budget, at a huge tol, are
    refused with GridTooLarge); without it, only the codes of i = 2..s-1 are
    built, since code s advances nothing.  Code i advances the pass with slot
    i's weights, built then, one (n_prev, n_next) block at a time, and is
    dropped with its records, so what is held is one slot's weights, one
    transition's records, one byte per link and one state's slice.
    """
    _check_tol(tol)
    x = _positions(schedule.x_grid, max_x_points)
    beta = schedule.beta
    logs = []  # ln of each slot's sum; the total is their product

    def slot_weight(i):
        # slot i's discrete weights q_i[n, k] ~ Boltzmann x density x e^{-beta dW};
        # where e^{-beta dW} overflows they are formed in log space, so a density
        # that underflowed to 0 weighs 0
        spec = schedule.spectrum(i)
        q = spec.boltzmann_weights(schedule.a)[:, None] * spec.all_densities(x)
        q /= q.sum()
        log_tilt = -beta * step_work_map(schedule, i, x)[None, :]
        weight = q * np.exp(log_tilt)
        weight = np.where(np.isfinite(weight), weight, np.exp(np.log(q) + log_tilt))
        # near 1 (small beta dW) ln of the sum is log1p of its excess, as in the profile
        excess = float(np.sum(q * np.expm1(log_tilt)))
        logs.append(math.log1p(excess) if abs(excess) < 0.5 else np.log(weight.sum()))
        return weight.ravel()

    # chain[:, f] carries the (weight, count) sums of the prefixes along which
    # exactly the conditions in f (A + 2 B + 4 DB) held; at the first slot
    # every condition holds vacuously.  With s = 1 no work is done: one empty
    # pathway of weight 1, optimal by the same vacuous truth
    q = slot_weight(1) if schedule.s > 1 else np.ones(1)
    chain = np.zeros((2, 8, q.size))
    chain[:, 7] = q, np.ones(q.size)
    for i in range(2, schedule.s if on_records is None else schedule.s + 1):
        if on_records is None:
            code = _transition_tables(schedule, i, x, tol)["code"]
        else:
            scan = find_optimal_transitions(schedule, i, tol=tol, max_x_points=max_x_points)
            on_records(scan.records)
            code, scan = scan.code, None
        if i < schedule.s:
            q = slot_weight(i)
            chain = _advance(chain, code) * np.stack([q, np.ones(q.size)])[:, None, :]
        del code  # the next transition's tables are built without this one's
    by_class = np.zeros((len(_CLASSES), 2))
    np.add.at(by_class, _CLASS_OF, chain.sum(axis=-1).T)
    c_op, c_det, c_sto, c_bia = by_class[:, 0].tolist()
    c_total = float(by_class[:, 0].sum())
    if not 0.0 < c_total < math.inf:
        raise NonFiniteResult(f"the pathway weights sum to {c_total}; exp(-beta W) leaves "
                              "the float64 range on this grid")
    exact = ((schedule.n_max + 1) * x.size) ** (schedule.s - 1) <= 2 ** 53
    c_s, c_d = c_op + c_sto, c_op + c_det
    reconstruction = (c_s + c_d - c_op + c_bia) - c_total
    contributions = {"total": c_total, "stochastic": c_s, "deterministic": c_d,
                     "optimal": c_op, "biased": c_bia}
    return PathwayDecomposition(
        delta_f={name: float(-math.log(c) / beta) if c > 0.0 else math.inf
                 for name, c in contributions.items()} | {"total": -math.fsum(logs) / beta},
        contributions=contributions,
        counts={name: int(n) if exact else float(n)
                for name, n in zip(_CLASSES, by_class[:, 1])},
        reconstruction_error=abs(reconstruction) / c_total,
    )
