"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with `pytest -s`
or on failure) and then asserts, so the suite doubles as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest
from pathway_reference import (
    DensityFloor,
    detailed_balance_scan,
    on_common_lattice,
    residual_12a,
    residual_12b,
    residual_quotient,
    total_pathway_distribution,
)
from reference import ground_state_closed_form_spring, normalize, spring_low_temp_limit

from stepwork.cli import main
from stepwork.free_energy import (
    exponential_average,
    free_energy_profile,
    ground_state_closed_form_center,
)
from stepwork.pathways import decompose_free_energy
from stepwork.protocol import build_center_schedule, build_spring_schedule
from stepwork.workdist import run_work_recursion, work_moments


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_convergence_golden_number():
    t0 = time.time()
    prof = free_energy_profile(build_center_schedule(1.0, 11, 1.0, 7))
    elapsed = time.time() - t0
    ok = abs(prof.endpoint - 0.241136) <= 0.002 and elapsed < 5.0
    assert _report(1, ok, f"dF(n_max=7)={prof.endpoint:.6f} vs 0.241136+-0.002, "
                          f"{elapsed:.2f}s")


def test_criterion_2_target_profile():
    t0 = time.time()
    prof = free_energy_profile(build_center_schedule(1.0, 11, 1.0, 10))
    elapsed = time.time() - t0
    # 4% is the quoted truncation error on the full-pull target (0.01/0.25),
    # i.e. an absolute budget of 0.01 along the profile
    budget = 0.04 * 0.25
    worst = float(np.max(np.abs(prof.delta_f - prof.targets)))
    ok = worst <= budget and elapsed < 5.0
    assert _report(2, ok, f"max |dF_i - lambda_i^2/4| = {worst:.5f} <= {budget}, "
                          f"{elapsed:.2f}s")


def test_criterion_3_ground_state_oracle_grid():
    t0 = time.time()
    worst = 0.0
    for l in range(-4, 5):
        a = 2.0 ** l
        for s in list(range(2, 12)) + [21]:
            sch = build_center_schedule(1.0, s, a, 0)
            df = free_energy_profile(sch).endpoint
            exact = ground_state_closed_form_center(a, sch.increment, s)
            # the closed form crosses zero exactly at s = a; compare
            # absolutely there, relatively everywhere else
            worst = max(worst, abs(df - exact) / (abs(exact) if exact else 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    assert _report(3, ok, f"99-point grid worst rel err = {worst:.2e} <= 1e-5, "
                          f"{elapsed:.1f}s")


def test_criterion_4_quantum_negativity():
    prof = free_energy_profile(build_center_schedule(1.0, 11, 16.0, 10))
    ok = prof.endpoint < 0.0 and abs(prof.endpoint - (-0.125)) <= 1e-4
    assert _report(4, ok, f"dF(a=16)={prof.endpoint:.7f} vs -0.125+-1e-4")


def test_criterion_5_work_moment_constancy():
    means = []
    stds = []
    for l in range(-4, 5):
        prof = free_energy_profile(build_center_schedule(1.0, 11, 2.0 ** l, 10))
        means.append(prof.mean_work[-1])
        stds.append(prof.std_work[-1])
    mean_ok = all(abs(m - 0.274) <= 0.005 for m in means)
    std_ok = abs(stds[-1] - 0.2236) <= 0.002  # a = 2^4, the low-temperature end
    ok = mean_ok and std_ok
    assert _report(5, ok, f"<W> in [{min(means):.4f},{max(means):.4f}] vs 0.274+-0.005; "
                          f"low-T std={stds[-1]:.5f} vs 0.2236+-0.002")


def test_criterion_6_dlambda_extrapolation():
    # dF(1, s) = dlam^2 (s-1)(s - a coth a)/4 is exactly linear in dlam at fixed
    # lambda_s (also asserted in test_free_energy and the CLI dlambda sweep)
    a = 1.0
    lambda_s = 1.0
    dlams = [0.05, 0.1, 0.125, 0.2, 0.25, 0.5]
    dfs = []
    for dlam in dlams:
        s = int(round(lambda_s / dlam)) + 1
        dfs.append(free_energy_profile(build_center_schedule(lambda_s, s, a, 10)).endpoint)
    slope, intercept = np.polyfit(dlams, dfs, 1)
    residual = float(np.max(np.abs(np.polyval([slope, intercept], dlams) - dfs)))
    exact_slope = (1.0 - a / math.tanh(a)) * lambda_s / 4.0
    exact_intercept = lambda_s * lambda_s / 4.0
    slope_ok = abs(slope - exact_slope) <= 1e-6
    intercept_ok = abs(intercept - exact_intercept) <= 1e-6
    linear_ok = residual <= 1e-8
    ok = slope_ok and intercept_ok and linear_ok
    assert _report(6, ok, f"slope={slope:.9f} vs {exact_slope:.9f}+-1e-6 "
                          f"({'ok' if slope_ok else 'out'}); "
                          f"intercept={intercept:.9f} vs {exact_intercept:.9f}+-1e-6 "
                          f"({'ok' if intercept_ok else 'out'}); "
                          f"max fit residual {residual:.1e} <= 1e-8")


def test_criterion_7_spring_targets():
    a0 = 0.1
    target = (1.0 / a0) * math.log(math.sinh(0.065) / math.sinh(0.05))
    rels = []
    for s in (2, 11):
        prof = free_energy_profile(build_spring_schedule(1.3, s, a0, 100))
        rels.append(abs(prof.endpoint - target) / target)
    endpoint_ok = all(r <= 0.01 for r in rels)

    rho2 = run_work_recursion(build_spring_schedule(1.3, 2, a0, 100)).distributions[0]
    nodes = rho2.grid.nodes()
    peak_ok = abs(nodes[int(np.argmax(rho2.values))]) <= rho2.grid.spacing / 2

    sch = build_spring_schedule(1.3, 1001, 50.0, 0)
    df = free_energy_profile(sch).endpoint
    exact = ground_state_closed_form_spring(50.0, sch.increment, 1001)
    sum_ok = abs(df - exact) / exact <= 1e-3
    limit_ok = abs(df - spring_low_temp_limit(1.3)) / spring_low_temp_limit(1.3) <= 0.05

    ok = endpoint_ok and peak_ok and sum_ok and limit_ok
    assert _report(7, ok, f"endpoint rel err s=2/11: {rels[0]:.2e}/{rels[1]:.2e} <= 1%; "
                          f"rho_2 peak at W=0: {peak_ok}; low-T vs sum: "
                          f"{abs(df - exact) / exact:.2e} <= 1e-3; vs 0.15: "
                          f"{abs(df - 0.15) / 0.15:.2%} <= 5%")


def test_criterion_8_pathway_suite():
    sch = build_center_schedule(1.0, 3, 1.0, 3)

    # (i) summed energy-pathway distributions equal the recursion pipeline
    pipeline = run_work_recursion(sch).distributions[-1]
    total = normalize(total_pathway_distribution(sch))
    _, a, b = on_common_lattice(pipeline, total, sch.w_grid.spacing)
    enum_err = float(np.abs(a - b).max() / a.max())
    enum_ok = enum_err <= 1e-6

    # (ii) class contributions recombine to the total exactly
    recon_err = decompose_free_energy(sch, tol=0.05).reconstruction_error
    recon_ok = recon_err <= 1e-9

    # (iii) r12a - r12b equals the directly evaluated cross ratio
    sch4 = build_center_schedule(1.0, 4, 1.0, 3)
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        i = int(rng.integers(2, sch4.s + 1))
        n_prev = int(rng.integers(0, sch4.n_max + 1))
        n_next = int(rng.integers(0, sch4.n_max + 1))
        x_prev = float(rng.uniform(-2.0, 2.5))
        x_next = float(rng.uniform(-2.0, 2.5))
        try:
            lhs = (residual_12a(i, x_prev, x_next, n_prev, n_next, sch4)
                   - residual_12b(i, x_prev, x_next, n_next, sch4))
            rhs = residual_quotient(i, x_prev, n_prev, n_next, sch4)
        except DensityFloor:
            continue
        worst = max(worst, abs(lhs - rhs))
        checked += 1
    identity_ok = worst <= 1e-10

    # (iv) detailed-balance proxy shrinks monotonically under refinement, on
    # an 821-point grid whose rungs scan 100, 200, 400 and 800 positions
    fine = build_center_schedule(1.0, 3, 1.0, 3, x_points=801)
    ladder = ((100, 1.6), (200, 0.4), (400, 0.1), (800, 0.025))
    totals = []
    for pts, tol in ladder:
        _, pairs = detailed_balance_scan(fine, 2, tol, pts)
        totals.append(sum(abs(p.proxy_residual) for p in pairs
                          if (p.n_prev, p.n_next) in ((0, 1), (1, 0))))
    proxy_ok = all(b < a for a, b in zip(totals, totals[1:]))

    ok = enum_ok and recon_ok and identity_ok and proxy_ok
    assert _report(8, ok, f"enum-vs-recursion {enum_err:.1e} <= 1e-6; "
                          f"reconstruction {recon_err:.1e} <= 1e-9; "
                          f"identity worst {worst:.1e} <= 1e-10 on 1e4 tuples; "
                          f"proxy ladder {['%.4f' % t for t in totals]} monotone")


def test_criterion_9_foundational_properties(tmp_path):
    # normalization and the Jensen bound across both protocols
    norm_ok = True
    jensen_ok = True
    for sch in (build_center_schedule(1.0, 11, 1.0, 10),
                build_center_schedule(1.0, 11, 16.0, 10),
                build_spring_schedule(1.3, 11, 0.1, 100)):
        prof = free_energy_profile(sch)
        for rho in run_work_recursion(sch).distributions:
            norm_ok &= abs(rho.integral() - 1.0) <= 1e-6
        jensen_ok &= bool(np.all(prof.delta_f <= prof.mean_work + 1e-9))

    # s = 1 is the no-work convention: no distribution, and dF = <W> = 0, as
    # the unit spike at W = 0 of a pull that does no work gives
    ledger = run_work_recursion(build_center_schedule(1.0, 1, 1.0, 10))
    spike = run_work_recursion(build_center_schedule(0.0, 2, 1.0, 10)).distributions[-1]
    mean, std = work_moments(spike)
    s1_ok = (ledger.distributions == () and spike.values.tolist() == [0.0, 1.0, 0.0]
             and mean == 0.0 and std == 0.0 and exponential_average(spike, 1.0) == 0.0)

    # identical configuration -> byte-identical outputs
    out = tmp_path / "det"
    assert main(["run-center", "--s", "5", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run-center", "--s", "5", "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    bytes_ok = first == second

    ok = norm_ok and jensen_ok and s1_ok and bytes_ok
    assert _report(9, ok, f"normalized: {norm_ok}; Jensen dF <= <W>: {jensen_ok}; "
                          f"s=1 no-work: {s1_ok}; byte-identical reruns: {bytes_ok}")
