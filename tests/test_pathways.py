import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from pathway_reference import (
    DensityFloor,
    advance_by_masks,
    advance_per_n_prev,
    dense_transition_tables,
    detailed_balance_scan,
    on_common_lattice,
    pair_summaries,
    pathway_work_distribution,
    residual_12a,
    residual_12b,
    residual_13,
    residual_quotient,
    total_pathway_distribution,
)
from reference import normalize, prob_density

from stepwork import pathways, protocol
from stepwork.errors import GridTooLarge
from stepwork.free_energy import free_energy_profile
from stepwork.pathways import (
    DEFAULT_EPS_REL,
    DEFAULT_TOL,
    DEFAULT_X_POINTS,
    RECORD_VALUES,
    PathwayClass,
    _density_floor,
    _positions,
    _transition_tables,
    decompose_free_energy,
    find_optimal_transitions,
    overlap_measure,
)
from stepwork.protocol import build_center_schedule, build_spring_schedule
from stepwork.workdist import (
    GriddedDensity,
    fluctuation_density,
    pushforward_step_density,
    run_work_recursion,
    step_work_map,
)


@pytest.fixture(scope="module")
def center_s3():
    return build_center_schedule(1.0, 3, 1.0, 3)


class TestResiduals:
    def test_identical_states_no_work(self):
        sch = build_center_schedule(0.0, 3, 1.0, 3)  # null pull: dW = 0
        assert residual_12a(2, 0.3, 0.3, 1, 1, sch) == pytest.approx(0.0, abs=1e-13)

    def test_rigid_translation_gaussian_oracle(self, center_s3):
        # ground states translated with the trap: the density logs cancel and
        # the residual collapses to -a dlam (lambda_prev + 3 dlam/4 - u)
        sch = center_s3
        dlam = sch.increment
        for i in (2, 3):
            lam_prev = sch.controls[i - 2]
            for u in (-0.3, 0.0, 0.4):
                got = residual_12a(i, lam_prev / 2 + u, sch.controls[i - 1] / 2 + u,
                                   0, 0, sch)
                expected = -sch.beta * dlam * (lam_prev + 0.75 * dlam - u)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_12b_same_position(self, center_s3):
        # equal positions leave only the work term
        sch = center_s3
        for x in (0.05, 0.3, 0.6):
            got = residual_12b(2, x, x, 0, sch)
            assert got == pytest.approx(-sch.beta * step_work_map(sch, 1, x), rel=1e-12)
        midpoint = sch.controls[0] + sch.increment / 2
        assert residual_12b(2, midpoint, midpoint, 0, sch) == pytest.approx(0.0, abs=1e-13)

    def test_12b_floor_fires_on_excited_state_node(self, center_s3):
        # lambda_2/2 = 0.25 is an exact node of the first excited state
        with pytest.raises(DensityFloor):
            residual_12b(2, 0.25, 0.25, 1, center_s3)

    def test_13_symmetric_zero(self):
        # degenerate steps, odd state: densities at +-x coincide
        sch = build_center_schedule(0.0, 3, 1.0, 3)
        assert residual_13(2, 0.3, -0.3, 1, 1, sch) == pytest.approx(0.0, abs=1e-13)

    def test_13_equals_quotient_in_degenerate_case(self):
        # dlam = 0 and x_prev = x_next: Eq-13-style and quotient residuals agree
        sch = build_center_schedule(0.0, 3, 1.0, 3)
        r13 = residual_13(2, 0.4, 0.4, 0, 2, sch)
        quo = residual_quotient(2, 0.4, 0, 2, sch)
        r12a = residual_12a(2, 0.4, 0.4, 0, 2, sch)
        r12b = residual_12b(2, 0.4, 0.4, 2, sch)
        assert r13 == pytest.approx(quo, rel=1e-12)
        assert r13 == pytest.approx(r12a - r12b, rel=1e-12)

    def test_density_floor_raised(self, center_s3):
        with pytest.raises(DensityFloor):
            residual_12a(2, -20.0, 0.0, 0, 0, center_s3)
        with pytest.raises(DensityFloor):
            residual_13(2, 0.0, 25.0, 0, 0, center_s3)

    def test_quotient_identity_on_random_tuples(self):
        # r12a - r12b equals the directly evaluated cross-ratio expression
        sch = build_center_schedule(1.0, 4, 1.0, 3)
        rng = np.random.default_rng(7)
        n_checked = 0
        while n_checked < 10_000:
            i = int(rng.integers(2, sch.s + 1))
            n_prev = int(rng.integers(0, sch.n_max + 1))
            n_next = int(rng.integers(0, sch.n_max + 1))
            x_prev = float(rng.uniform(-2.0, 2.5))
            x_next = float(rng.uniform(-2.0, 2.5))
            try:
                lhs = (residual_12a(i, x_prev, x_next, n_prev, n_next, sch)
                       - residual_12b(i, x_prev, x_next, n_next, sch))
                rhs = residual_quotient(i, x_prev, n_prev, n_next, sch)
            except DensityFloor:
                continue
            assert abs(lhs - rhs) < 1e-10
            n_checked += 1


class TestTransitionScan:
    def test_degenerate_diagonal_is_optimal(self):
        sch = build_center_schedule(0.0, 3, 1.0, 2)
        scan = find_optimal_transitions(sch, 2, tol=1e-9, max_x_points=60)
        diag = [r for r in scan.records
                if r.n_prev == r.n_next and r.x_prev == r.x_next]
        assert diag  # the whole diagonal satisfies every condition exactly
        assert all(r.label is PathwayClass.OPTIMAL for r in scan.records)

    def test_zero_tolerance_on_coarse_grid_is_empty(self, center_s3):
        scan = find_optimal_transitions(center_s3, 2, tol=1e-15, max_x_points=50)
        assert scan.records == ()

    def test_rejects_empty_subsample(self, center_s3):
        with pytest.raises(ValueError, match="max_x_points"):
            find_optimal_transitions(center_s3, 2, max_x_points=0)

    @pytest.mark.parametrize("sch", [build_center_schedule(1.0, 3, 1.0, 3),
                                     build_center_schedule(1.0, 5, 1.0, 2),
                                     build_spring_schedule(1.3, 3, 0.5, 3)])
    @pytest.mark.parametrize("points", [10, 50, 168, 199, 200, 257, 400])
    def test_positions_miss_every_step_center(self, sch, points):
        # every odd state's density is 0 at its step's center, so a position
        # there would fail each condition that reads it at any tol
        x = _positions(sch.x_grid, points)
        assert 2 <= x.size <= points
        centers = np.array([sch.spectrum(i).center for i in range(1, sch.s + 1)])
        assert np.abs(x[:, None] - centers).min() > 1e-6 * (x[1] - x[0])

    def test_records_counted_against_budget_before_built(self, center_s3, monkeypatch):
        matched = len(find_optimal_transitions(center_s3, 2, tol=1e9, max_x_points=10).records)
        assert matched > 0
        # the tables (3,584 values at p = 8) fit either budget
        monkeypatch.setattr(protocol, "GRID_BUDGET", RECORD_VALUES * matched)
        scan = find_optimal_transitions(center_s3, 2, tol=1e9, max_x_points=10)
        assert len(scan.records) == matched
        with pytest.raises(GridTooLarge, match="transition records"):
            find_optimal_transitions(center_s3, 2, tol=1e9, max_x_points=10, records_held=1)

    def test_held_records_charged_with_the_next_tables(self, center_s3, monkeypatch):
        # a budget that holds the tables alone, and the held records with this
        # scan's matches alone, but not the held records next to the tables
        held = 2_000
        matched = len(find_optimal_transitions(center_s3, 2, max_x_points=50).records)
        monkeypatch.setattr(protocol, "GRID_BUDGET", RECORD_VALUES * (held + matched))
        assert len(find_optimal_transitions(center_s3, 2, max_x_points=50).records) == matched
        with pytest.raises(GridTooLarge, match="the transition records held and the transition "
                                               "tables need"):
            find_optimal_transitions(center_s3, 2, max_x_points=50, records_held=held)

    def test_matches_counted_before_any_is_picked(self, center_s3, monkeypatch):
        sch = center_s3
        scan = find_optimal_transitions(sch, 2, tol=1e9, max_x_points=50)
        assert (len(scan.records), scan.code.size) == (24_980, 40_000)
        monkeypatch.setattr(protocol, "GRID_BUDGET", RECORD_VALUES * len(scan.records) - 1)
        held = []

        def tables(*args):
            # traced from here: the code is built, and the picking is to come
            out = _transition_tables(*args)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(pathways, "_transition_tables", tables)
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLarge, match="transition records"):
                find_optimal_transitions(sch, 2, tol=1e9, max_x_points=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an 8-byte index of each matched link would be 5 bytes a link
        assert peak - held[0] < scan.code.size

    def test_matches_concentrate_in_overlap_region(self, center_s3):
        # density centers sit at lambda_1/2 = 0 and lambda_2/2 = 0.25; optimal
        # ground-pair transitions live where both densities are significant
        sch = center_s3
        scan = find_optimal_transitions(sch, 2, tol=0.05, max_x_points=200)
        assert scan.records
        sigma_gs = 1.0 / math.sqrt(2.0)
        ground = [r for r in scan.records if (r.n_prev, r.n_next) == (0, 0)]
        assert ground
        for r in ground:
            for x in (r.x_prev, r.x_next):
                assert abs(x - 0.0) < 3 * sigma_gs
                assert abs(x - 0.25) < 3 * sigma_gs
        # density-weighted mean of all matches sits between the two peaks
        sp1, sp2 = sch.spectrum(1), sch.spectrum(2)
        w = np.array([prob_density(sp1, r.n_prev, r.x_prev)
                      * prob_density(sp2, r.n_next, r.x_next) for r in scan.records])
        xs = np.array([0.5 * (r.x_prev + r.x_next) for r in scan.records])
        sigma_th = math.sqrt(0.5 / math.tanh(sch.a))
        assert -sigma_th < np.average(xs, weights=w) < 0.25 + sigma_th

    def test_optimal_set_detailed_balance_forms_disagree(self, center_s3):
        # On the optimal set the QUOTIENT form of detailed balance is bounded
        # by construction (|r12a - r12b| <= 2 tol), while the cross-paired
        # form r13 evaluates the states at swapped positions and does NOT
        # vanish there; the disagreement is systematic and reported as such.
        tol = 0.05
        scan = find_optimal_transitions(center_s3, 2, tol=tol, max_x_points=400)
        assert scan.records
        quotient = np.array([abs(r.r12a - r.r12b) for r in scan.records])
        cross = np.array([abs(r.r13) for r in scan.records])
        assert np.all(quotient <= 2 * tol + 1e-12)
        assert np.median(cross) > 2 * tol  # genuinely different condition

    def test_pair_summaries_report_positive_sums(self, center_s3):
        scan = find_optimal_transitions(center_s3, 2, tol=0.1, max_x_points=200)
        pairs = pair_summaries(center_s3, 2, _positions(center_s3.x_grid, 200), scan.records)
        assert pairs
        for p in pairs:
            assert p.count > 0
            assert p.p_forward > 0.0
            assert p.p_reverse > 0.0

    @pytest.mark.parametrize("match", ["optimal", "detailed-balance"])
    def test_record_order_and_pair_summaries(self, center_s3, match):
        sch, points = center_s3, 60
        x = np.linspace(sch.x_grid.min, sch.x_grid.max, points).tolist()
        for i in (2, 3):
            # the optimal links are the scan's; the detailed-balance links the reference's
            if match == "optimal":
                records = find_optimal_transitions(sch, i, tol=0.5, max_x_points=points).records
                pairs = pair_summaries(sch, i, np.array(x), records)
            else:
                records, pairs = detailed_balance_scan(sch, i, 0.5, points)
            keys = [(r.n_prev, r.n_next, x.index(r.x_prev), x.index(r.x_next))
                    for r in records]
            assert len(keys) > 100
            assert keys == sorted(set(keys))  # (n_prev, n_next, k_prev, k_next) order
            assert sum(p.count for p in pairs) == len(records)
            assert [(p.n_prev, p.n_next) for p in pairs] == sorted(
                {(r.n_prev, r.n_next) for r in records})
            sp_prev, sp_next = sch.spectrum(i - 1), sch.spectrum(i)
            for p in pairs:
                own = [r for r in records if (r.n_prev, r.n_next) == (p.n_prev, p.n_next)]
                assert p.count == len(own)
                forward = math.fsum(prob_density(sp_next, p.n_next, r.x_prev) for r in own)
                reverse = math.fsum(prob_density(sp_prev, p.n_prev, r.x_next) for r in own)
                assert p.p_forward == pytest.approx(forward, rel=1e-13, abs=0.0)
                assert p.p_reverse == pytest.approx(reverse, rel=1e-13, abs=0.0)

    def test_detailed_balance_proxy_shrinks_under_refinement(self):
        # finer grids + tighter tolerances drive ln(P->/P<-) - beta dE to zero;
        # the 821-point grid lets the rungs scan 100, 200, 400 and 800 positions
        sch = build_center_schedule(1.0, 3, 1.0, 3, x_points=801)
        ladder = ((100, 1.6), (200, 0.4), (400, 0.1), (800, 0.025))
        totals = []
        for pts, tol in ladder:
            _, pairs = detailed_balance_scan(sch, 2, tol, pts)
            tot = sum(abs(p.proxy_residual) for p in pairs
                      if (p.n_prev, p.n_next) in ((0, 1), (1, 0)))
            totals.append(tot)
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_detailed_balance_labels_match_scalar_residuals(self, center_s3):
        # a condition holds where its scalar residual is within tol; a residual
        # that raises DensityFloor does not hold
        tol = 1.6

        def holds(residual, *args):
            try:
                return abs(residual(*args)) <= tol
            except DensityFloor:
                return False

        checked = 0
        for i in (2, 3):
            records, _ = detailed_balance_scan(center_s3, i, tol, 40)
            for r in records:
                a = holds(residual_12a, i, r.x_prev, r.x_next, r.n_prev, r.n_next, center_s3)
                b = holds(residual_12b, i, r.x_prev, r.x_next, r.n_next, center_s3)
                db = holds(residual_13, i, r.x_prev, r.x_next, r.n_prev, r.n_next, center_s3)
                expected = (PathwayClass.OPTIMAL if a and b
                            else PathwayClass.DETERMINISTIC if a or b
                            else PathwayClass.STOCHASTIC if db else PathwayClass.BIASED)
                assert r.label is expected, r
                checked += 1
        assert checked > 1000


class TestDetailedBalanceIdentity:
    @pytest.mark.parametrize("sch", [build_center_schedule(1.0, 4, 1.0, 5),
                                     build_spring_schedule(1.3, 3, 0.5, 3)])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.2])
    def test_residuals_differ_by_the_previous_density_log_ratio(self, sch, tol):
        # r12a - r12b - r13 = ln d_prev[n_prev, k_next] - ln d_prev[n_prev, k_prev],
        # so where A and B hold, |r13| <= 2 tol + |that log ratio|
        x = _positions(sch.x_grid, 200)
        for i in range(2, sch.s + 1):
            tab = dense_transition_tables(sch, i, x, DEFAULT_EPS_REL, tol)
            ok_prev = tab["d_prev"] > _density_floor(sch.spectrum(i - 1), DEFAULT_EPS_REL)
            ok_next = tab["d_next"] > _density_floor(sch.spectrum(i), DEFAULT_EPS_REL)
            read = (ok_prev[:, None, :, None] & ok_prev[:, None, None, :]
                    & ok_next[None, :, :, None] & ok_next[None, :, None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                l_prev = np.log(tab["d_prev"])
                ratio = np.broadcast_to(l_prev[:, None, None, :] - l_prev[:, None, :, None],
                                        read.shape)
                terms = (tab["r12a"], np.broadcast_to(tab["r12b"], read.shape), tab["r13"], ratio)
                gap = terms[0] - terms[1] - terms[2] - terms[3]
            assert read.any()
            scale = sum(np.abs(t[read]) for t in terms)
            assert np.all(np.abs(gap[read]) <= 64 * np.finfo(float).eps * scale)
            both = (tab["code"] & 3) == 3
            assert both.any()
            assert np.all(np.abs(tab["r13"][both]) <= 2 * tol + np.abs(ratio[both]) + 1e-12)

    def test_bench_shares_read_from_the_optimal_scan(self):
        # of the A and B links (code & 3 == 3) on the bench configuration, those
        # that also hold DB read code 7; the records carry each link's r13
        sch, tol = build_center_schedule(1.0, 4, 1.0, 5), DEFAULT_TOL
        shares = {2: (18, 136, 11.48), 3: (12, 131, 13.10), 4: (5, 138, 8.33)}
        for i, (balanced, optimal, worst) in shares.items():
            scan = find_optimal_transitions(sch, i, tol=tol)
            assert np.count_nonzero(scan.code == 7) == balanced
            assert np.count_nonzero((scan.code & 3) == 3) == len(scan.records) == optimal
            r13 = np.abs([r.r13 for r in scan.records])
            assert np.count_nonzero(r13 <= tol) == balanced
            assert r13.max() == pytest.approx(worst, abs=0.005)


class TestSparseScan:
    @settings(max_examples=100, deadline=None)
    @given(spring=st.booleans(), s=st.integers(2, 4), n_max=st.integers(0, 8),
           a=st.one_of(st.floats(0.05, 20.0), st.sampled_from([1e3, 1e6])),
           eps_rel=st.sampled_from([DEFAULT_EPS_REL, 1e-300, 0.0, 1e-3]),
           tol=st.one_of(st.sampled_from([0.0, 1e9, "r12a", "r13"]), st.floats(1e-3, 5.0)),
           x_points=st.integers(5, 121), points=st.integers(1, 40), data=st.data())
    def test_codes_and_residuals_match_the_dense_tables(self, spring, s, n_max, a, eps_rel,
                                                        tol, x_points, points, data):
        sch = (build_spring_schedule(1.3, s, a, n_max, x_points=x_points) if spring
               else build_center_schedule(1.0, s, a, n_max, x_points=x_points))
        i = data.draw(st.integers(2, s))
        x = _positions(sch.x_grid, points)
        if isinstance(tol, str):
            # a tol that one link's residual attains, which puts that link on
            # the edge of its band
            r = dense_transition_tables(sch, i, x, eps_rel, 0.0)[tol]
            r = np.abs(r[np.isfinite(r)])
            tol = float(data.draw(st.sampled_from(r.tolist()))) if r.size else 0.0
        ref = dense_transition_tables(sch, i, x, eps_rel, tol)
        code = _transition_tables(sch, i, x, eps_rel, tol)["code"]
        assert code.dtype == np.uint8 and np.array_equal(code, ref["code"])
        # the optimal links are the scan's; the detailed-balance links the reference's
        scan = find_optimal_transitions(sch, i, tol=tol, eps_rel=eps_rel, max_x_points=points)
        balanced, _ = detailed_balance_scan(sch, i, tol, points, eps_rel)
        for records, need in ((scan.records, 3), (balanced, 4)):
            hit = np.nonzero((ref["code"] & need) == need)
            got = np.array([(r.n_prev, r.n_next) for r in records]).reshape(-1, 2)
            assert np.array_equal(got, np.transpose(hit[:2]))
            for name, table in (("r12a", ref["r12a"][hit]),
                                ("r12b", ref["r12b"][hit[1:]]),
                                ("r13", ref["r13"][hit])):
                values = np.array([getattr(r, name) for r in records], dtype=float)
                assert np.array_equal(values.view(np.int64), table.view(np.int64)), name

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.2])
    def test_codes_match_the_dense_tables_on_the_bench_configuration(self, tol):
        sch = build_center_schedule(1.0, 4, 1.0, 5)
        x = _positions(sch.x_grid, DEFAULT_X_POINTS)
        for i in range(2, sch.s + 1):
            ref = dense_transition_tables(sch, i, x, DEFAULT_EPS_REL, tol)["code"]
            assert np.array_equal(_transition_tables(sch, i, x, DEFAULT_EPS_REL, tol)["code"], ref)

    def test_builds_no_full_size_float64_table(self, traced_peak):
        sch = build_center_schedule(1.0, 4, 1.0, 5)
        p = _positions(sch.x_grid, DEFAULT_X_POINTS).size
        peak = traced_peak(lambda: find_optimal_transitions(sch, 2))
        assert peak < 8 * (sch.n_max + 1) ** 2 * p ** 2

    def test_scan_and_split_hold_under_two_bytes_a_link(self, traced_peak):
        # the one-byte code plus one state's slice: no full-size temporary
        sch = build_center_schedule(1.0, 4, 1.0, 5)
        p = _positions(sch.x_grid, DEFAULT_X_POINTS).size
        for run in (lambda: find_optimal_transitions(sch, 2), lambda: decompose_free_energy(sch)):
            assert traced_peak(run) < 2 * (sch.n_max + 1) ** 2 * p ** 2


class TestTableBudget:
    @pytest.mark.parametrize("sch, points, tol, refused", [
        pytest.param(build_center_schedule(1.0, 3, 1.0, 1), 200, DEFAULT_TOL,
                     "transition tables", id="sch0-200"),
        pytest.param(build_center_schedule(1.0, 3, 1.0, 5), 200, DEFAULT_TOL,
                     "transition tables", id="sch1-200"),
        pytest.param(build_spring_schedule(1.3, 3, 0.5, 3), 150, DEFAULT_TOL,
                     "transition tables", id="sch2-150"),
        # one state's slice is the whole table
        pytest.param(build_center_schedule(1.0, 3, 1.0, 0), 200, DEFAULT_TOL,
                     "transition tables", id="nmax0-200"),
        # every link is a candidate and a record: the records' budget refuses the runs
        pytest.param(build_center_schedule(1.0, 3, 1.0, 2), 60, 1e9,
                     "transition records", id="huge-tol-60"),
    ])
    def test_checked_values_cover_the_traced_peaks(self, sch, points, tol, refused,
                                                   traced_peak):
        x = _positions(sch.x_grid, points)
        runs = [(lambda: _transition_tables(sch, 2, x, DEFAULT_EPS_REL, tol), "transition tables")]
        for run in (lambda: find_optimal_transitions(sch, 2, tol=tol, max_x_points=points),
                    lambda: decompose_free_energy(sch, tol=tol, max_x_points=points)):
            runs.append((run, refused))
        for run, what in runs:
            peak = traced_peak(run)
            # a budget one float64 value below the traced peak refuses the run
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocol, "GRID_BUDGET", peak // 8 - 1)
                with pytest.raises(GridTooLarge, match=what):
                    run()


class TestOverlap:
    def test_identical_densities(self, center_s3):
        f = fluctuation_density(center_s3.spectrum(1), center_s3.a, center_s3.x_grid)
        width, mass = overlap_measure(f, f)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert width > 0

    def test_distant_gaussians_share_nothing(self):
        sch = build_center_schedule(40.0, 2, 50.0, 0, x_points=4001)
        f1 = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        f2 = fluctuation_density(sch.spectrum(2), sch.a, sch.x_grid)
        _, mass = overlap_measure(f1, f2)
        assert mass < 1e-12

    def test_equal_width_gaussian_oracle(self):
        # ground-state densities dlam/2 apart with sigma = 1/sqrt(2):
        # overlap mass is erfc(d / (2 sigma sqrt(2))) = erfc(dlam / 4)
        sch = build_center_schedule(1.0, 3, 50.0, 0)
        f1 = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        f2 = fluctuation_density(sch.spectrum(2), sch.a, sch.x_grid)
        _, mass = overlap_measure(f1, f2)
        assert mass == pytest.approx(math.erfc(sch.increment / 4.0), abs=1e-4)


class TestPathwayEnumeration:
    def test_single_step_path_is_weighted_pushforward(self):
        sch = build_center_schedule(1.0, 2, 1.0, 3)
        x = sch.x_grid.nodes()
        spec = sch.spectrum(1)
        weights = spec.boltzmann_weights(sch.a)
        z = np.trapezoid(weights @ spec.all_densities(x), dx=sch.x_grid.spacing)
        for n in range(sch.n_max + 1):
            rho = pathway_work_distribution((n,), sch)
            dens_n = spec.all_densities(x)[n] * weights[n] / z
            ref = pushforward_step_density(
                GriddedDensity(sch.x_grid, dens_n), sch, 1)
            _, a, b = on_common_lattice(rho, ref, sch.w_grid.spacing)
            assert np.allclose(a, b, atol=1e-12 * max(1.0, a.max()))

    def test_sum_over_paths_equals_recursion(self, center_s3):
        pipeline = run_work_recursion(center_s3).distributions[-1]
        total = normalize(total_pathway_distribution(center_s3))
        _, a, b = on_common_lattice(pipeline, total, center_s3.w_grid.spacing)
        assert np.abs(a - b).max() <= 1e-6 * a.max()

    def test_ground_path_dominates_at_low_temperature(self):
        sch = build_center_schedule(1.0, 3, 16.0, 3)
        ground = pathway_work_distribution((0, 0), sch)
        total = total_pathway_distribution(sch)
        assert ground.integral() / total.integral() > 0.99


class TestDecomposition:
    def test_rejects_non_finite_or_negative_tolerances(self, center_s3):
        for bad in (math.nan, math.inf, -0.1):
            for kwargs in ({"tol": bad}, {"eps_rel": bad}):
                with pytest.raises(ValueError):
                    find_optimal_transitions(center_s3, 2, **kwargs)
                with pytest.raises(ValueError):
                    decompose_free_energy(center_s3, **kwargs)

    def test_rejects_empty_subsample(self, center_s3):
        with pytest.raises(ValueError, match="max_x_points"):
            decompose_free_energy(center_s3, max_x_points=0)

    def test_reconstruction_is_exact(self, center_s3):
        d = decompose_free_energy(center_s3, tol=0.05)
        assert d.reconstruction_error < 1e-9
        # p = 198 positions on the 199-point grid: 197 is the largest p - 1
        # coprime to 2 x 198
        assert sum(d.counts.values()) == (center_s3.n_max + 1) ** 2 * 198 ** 2

    def test_optimal_pathways_are_the_scanned_matches(self, center_s3):
        # at s = 3 a pathway has one transition, so the optimal pathways are
        # exactly the scan's matches at step 2, read from the same table
        d = decompose_free_energy(center_s3)
        scans = [find_optimal_transitions(center_s3, i) for i in (2, 3)]
        assert d.counts["optimal"] == len(scans[0].records) > 0
        assert d.records == scans[0].records + scans[1].records

    def test_counts_every_pathway_at_any_s_and_n_max(self):
        for sch in (build_center_schedule(1.0, 5, 1.0, 3), build_center_schedule(1.0, 3, 1.0, 6)):
            d = decompose_free_energy(sch, max_x_points=20)
            assert sum(d.counts.values()) == ((sch.n_max + 1) * 20) ** (sch.s - 1)

    @pytest.mark.parametrize("protocol", ["center", "spring"])
    def test_total_matches_closed_form_profile(self, protocol):
        # uniform positions make each slot an equal-weight quadrature of the
        # step's exponential average, which converges exponentially in p
        for s, n_max, a in itertools.product((2, 3, 4, 6), (0, 1, 3, 5), (1 / 16, 1.0, 4.0, 16.0)):
            sch = (build_center_schedule(1.0, s, a, n_max) if protocol == "center"
                   else build_spring_schedule(1.3, s, a, n_max))
            d = decompose_free_energy(sch, max_x_points=50)
            exact = free_energy_profile(sch).endpoint
            assert d.delta_f["total"] == pytest.approx(exact, rel=0.0, abs=1e-12), (s, n_max, a)

    def test_huge_tolerance_makes_everything_optimal(self, center_s3):
        # nearly every link is matched: at the default p the two steps' 795,491
        # records count 8e7 float64 values against the budget, so this runs on
        # 50 positions
        d = decompose_free_energy(center_s3, tol=1e9, max_x_points=50)
        total = d.contributions["total"]
        for key in ("stochastic", "deterministic", "optimal"):
            assert d.contributions[key] == pytest.approx(total, rel=1e-9)
        assert d.contributions["biased"] / total < 1e-8

    def test_biased_pathways_contribute_little_at_moderate_tolerance(self, center_s3):
        d = decompose_free_energy(center_s3, tol=2.0)
        assert d.contributions["biased"] / d.contributions["total"] < 0.10

    def test_biased_share_shrinks_with_tolerance(self, center_s3):
        fractions = [decompose_free_energy(center_s3, tol=t).contributions["biased"]
                     / decompose_free_energy(center_s3, tol=t).contributions["total"]
                     for t in (0.25, 1.0, 2.0)]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_two_step_schedule_has_no_transitions(self):
        sch = build_center_schedule(1.0, 2, 1.0, 2)
        d = decompose_free_energy(sch)
        assert d.counts["optimal"] == sum(d.counts.values())
        assert d.reconstruction_error < 1e-12

    def test_spring_schedule_supported(self):
        sch = build_spring_schedule(1.3, 3, 0.5, 3)
        d = decompose_free_energy(sch, tol=0.5)
        assert d.reconstruction_error < 1e-9
        assert d.delta_f["total"] > 0


def _brute_force_decomposition(sch, tol, max_x_points):
    """Contributions and counts by classifying every pathway tuple one by one.

    Each transition condition comes from the scalar residual, a DensityFloor
    counting as a fail; the slot weights come from scalar densities.
    """
    x = _positions(sch.x_grid, max_x_points)
    states = range(sch.n_max + 1)

    def holds(residual, *args):
        try:
            return abs(residual(*args, sch)) <= tol
        except DensityFloor:
            return False

    weight = []
    for i in range(1, sch.s):
        spec = sch.spectrum(i)
        boltzmann = spec.boltzmann_weights(sch.a)
        q = np.array([[boltzmann[n] * prob_density(spec, n, xk) for xk in x] for n in states])
        q /= q.sum()
        weight.append(q * np.exp(-sch.beta * step_work_map(sch, i, x)))

    sums = dict.fromkeys(("optimal", "deterministic", "stochastic", "biased"), 0.0)
    counts = dict.fromkeys(sums, 0)
    slots = sch.s - 1
    for ns in itertools.product(states, repeat=slots):
        for ks in itertools.product(range(x.size), repeat=slots):
            a = b = db = True
            for j in range(slots - 1):
                i, xp, xn, n_p, n_n = j + 2, x[ks[j]], x[ks[j + 1]], ns[j], ns[j + 1]
                a = a and holds(residual_12a, i, xp, xn, n_p, n_n)
                b = b and holds(residual_12b, i, xp, xn, n_n)
                db = db and holds(residual_13, i, xp, xn, n_p, n_n)
            cls = ("optimal" if a and b else "deterministic" if a or b
                   else "stochastic" if db else "biased")
            sums[cls] += math.prod(weight[j][ns[j], ks[j]] for j in range(slots))
            counts[cls] += 1
    contributions = {"total": sum(sums.values()),
                     "stochastic": sums["optimal"] + sums["stochastic"],
                     "deterministic": sums["optimal"] + sums["deterministic"],
                     "optimal": sums["optimal"], "biased": sums["biased"]}
    return contributions, counts


class TestTransferMatrixDecomposition:
    @pytest.mark.parametrize("protocol, tol", [("center", 0.5), ("center", 1.0),
                                               ("center", 2.0), ("spring", 0.5),
                                               ("spring", 2.0)])
    def test_matches_brute_force_enumeration(self, protocol, tol):
        sch = (build_center_schedule(1.0, 4, 1.0, 1) if protocol == "center"
               else build_spring_schedule(1.3, 4, 0.5, 1))
        d = decompose_free_energy(sch, tol=tol, max_x_points=6)
        contributions, counts = _brute_force_decomposition(sch, tol, 6)
        assert d.counts == counts
        assert sum(counts.values()) == (2 * 6) ** 3
        for key, ref in contributions.items():
            assert d.contributions[key] == pytest.approx(ref, rel=1e-13, abs=0.0), key

    @staticmethod
    def _draw_pass_inputs(data, n_states, p):
        """A random condition code and chain for one step of the forward pass."""
        size = n_states * p
        code = data.draw(hnp.arrays(np.uint8, (n_states, n_states, p, p),
                                    elements=st.integers(0, 7)))
        chain = np.stack([
            data.draw(hnp.arrays(float, (8, size), elements=st.floats(1e-3, 1e3))),
            data.draw(hnp.arrays(np.int64, (8, size), elements=st.integers(1, 10 ** 6)))])
        # some sets reached by no prefix
        chain[:, data.draw(hnp.arrays(bool, 8))] = 0.0
        return chain, code

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n_states=st.integers(1, 3), p=st.integers(1, 9))
    def test_forward_pass_matches_the_mask_reference(self, data, n_states, p):
        chain, code = self._draw_pass_inputs(data, n_states, p)
        got = pathways._advance(chain, code)
        ref = advance_by_masks(chain, code)
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-14, atol=0.0)
        assert np.array_equal(got[1], ref[1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n_states=st.integers(1, 3), p=st.integers(1, 9))
    def test_forward_pass_matches_the_per_n_prev_form(self, data, n_states, p):
        # one code-0 product per (n_prev, n_next) block sums exactly as one per n_prev
        chain, code = self._draw_pass_inputs(data, n_states, p)
        assert np.array_equal(pathways._advance(chain, code), advance_per_n_prev(chain, code))

    def test_counts_past_2_53_are_floats(self):
        # (4 states x 20 positions)^11 = 8.6e20 pathways: float64 sums round
        d = decompose_free_energy(build_center_schedule(1.0, 12, 1.0, 3), max_x_points=20)
        assert all(isinstance(n, float) for n in d.counts.values())
        assert sum(d.counts.values()) == pytest.approx(80.0 ** 11, rel=1e-12)

    def test_counts_exact_on_bench_configuration(self):
        # (6 states x 200 positions)^3 = 1.7e9 pathways, exact in float64
        d = decompose_free_energy(build_center_schedule(1.0, 4, 1.0, 5))
        assert sum(d.counts.values()) == 1200 ** 3
        assert all(isinstance(n, int) for n in d.counts.values())
        # at the scan's resolution the optimal class is not empty
        assert d.counts["optimal"] > 0
        assert math.isfinite(d.delta_f["optimal"])
