import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from stepwork import protocol, workdist
from stepwork.errors import GridTooLarge
from stepwork.export import ROW_VALUES
from stepwork.free_energy import free_energy_profile
from stepwork.protocol import (
    GRID_BUDGET,
    GridSpec,
    build_center_schedule,
    build_spring_schedule,
    default_temperature_sweep,
)
from stepwork.spectra import ProtocolKind
from stepwork.workdist import run_work_recursion, step_work_map


class TestGridSpec:
    def test_spacing_and_nodes(self):
        g = GridSpec(-1.0, 1.0, 5)
        assert g.spacing == 0.5
        assert np.allclose(g.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 10)


@st.composite
def _center_request(draw):
    """build_center_schedule arguments: either pull direction, optional point counts."""
    lambda_s = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    return (lambda_s, draw(st.integers(2, 40)), draw(st.floats(1 / 16, 16.0)),
            draw(st.integers(0, 20)), draw(st.none() | st.integers(2, 600)),
            draw(st.none() | st.integers(2, 6000)))


def _commensurate_m(sch):
    """M = |dlambda| / h_x, checked to be an integer."""
    ratio = abs(sch.increment) / sch.x_grid.spacing
    assert ratio == pytest.approx(round(ratio), abs=1e-9)
    return round(ratio)


def _assert_images_on_lattice(sch):
    """Every step's increment image of every x node is a node of the work lattice."""
    assert sch.w_grid.spacing == pytest.approx(abs(sch.increment) * sch.x_grid.spacing, rel=1e-12)
    assert sch.w_grid.min / sch.w_grid.spacing == pytest.approx(
        round(sch.w_grid.min / sch.w_grid.spacing), abs=1e-9)
    x = sch.x_grid.nodes()
    for i in range(1, sch.s):
        index = step_work_map(sch, i, x) / sch.w_grid.spacing
        assert np.abs(index - np.round(index)).max() < 1e-9


class TestCenterSchedule:
    def test_default_protocol_controls(self):
        sch = build_center_schedule(1.0, 11, 1.0, 0)
        assert np.allclose(sch.controls, np.arange(11) / 10.0, atol=1e-15)
        assert sch.increment == pytest.approx(0.1, rel=1e-15)

    def test_two_step(self):
        sch = build_center_schedule(1.0, 2, 1.0, 10)
        assert sch.controls == (0.0, 1.0)
        assert sch.increment == 1.0

    def test_single_step_convention(self):
        sch = build_center_schedule(1.0, 1, 1.0, 0)
        assert sch.controls == (0.0,)
        assert sch.increment == 0.0

    def test_endpoint_reconstruction_exact(self):
        for lam_s in (1.0, 0.3, 2.7):
            for s in (2, 7, 11, 21):
                sch = build_center_schedule(lam_s, s, 1.0, 0)
                assert sch.controls[-1] == lam_s

    def test_commensurate_spacing(self):
        # default run-center: dlambda / h_target = 2.33, so M = 3, not the even 4
        sch = build_center_schedule(1.0, 11, 1.0, 10)
        assert _commensurate_m(sch) == 3
        assert sch.x_grid.points == 409
        _assert_images_on_lattice(sch)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(request=_center_request())
    @example(request=(1.0, 101, 1.0, 10, None, None))  # M = 1
    @example(request=(-1.0, 11, 1.0, 10, None, None))  # M = 3, pulled the other way
    @example(request=(1.0, 11, 1.0, 10, None, 4000))   # w_points refines M = 3 to 9
    @example(request=(1.0, 4, 1.0, 5, None, None))     # pathways --s 4 --nmax 5: M = 6
    def test_images_land_on_the_lattice(self, request):
        lambda_s, s, a, n_max, x_points, w_points = request
        sch = build_center_schedule(lambda_s, s, a, n_max, x_points, w_points)
        event(f"M {'odd' if _commensurate_m(sch) % 2 else 'even'}")
        _assert_images_on_lattice(sch)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_center_schedule(1.0, 0, 1.0, 0)
        with pytest.raises(ValueError):
            build_center_schedule(1.0, 11, -1.0, 0)
        with pytest.raises(ValueError):
            build_center_schedule(1.0, 11, 1.0, -2)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda_s"):
                build_center_schedule(bad, 11, 1.0, 0)
            with pytest.raises(ValueError, match="a must be finite"):
                build_center_schedule(1.0, 11, bad, 0)
        for grid in ({"x_points": 1}, {"w_points": 1}):
            with pytest.raises(ValueError, match=next(iter(grid))):
                build_center_schedule(1.0, 11, 1.0, 0, **grid)

    def test_w_points_request_refines_lattice(self):
        base = build_center_schedule(1.0, 11, 1.0, 0)
        fine = build_center_schedule(1.0, 11, 1.0, 0, w_points=2 * base.w_grid.points)
        assert fine.w_grid.points >= 2 * base.w_grid.points
        assert fine.w_grid.spacing < base.w_grid.spacing

    def test_spectrum_accessor(self):
        sch = build_center_schedule(1.0, 11, 1.0, 5)
        spec = sch.spectrum(3)
        assert spec.kind is ProtocolKind.CENTER
        assert spec.control == sch.controls[2]
        for i in (0, 12):
            with pytest.raises(ValueError):
                sch.spectrum(i)


class TestSpringSchedule:
    def test_default_stiffening_ladder(self):
        sch = build_spring_schedule(1.3, 11, 0.1, 100)
        assert sch.increment == pytest.approx(0.069, rel=1e-12)
        assert sch.controls[-1] == pytest.approx(1.3, rel=1e-14)
        assert sch.controls[0] == 1.0

    def test_delta_relation_machine_precision(self):
        for ratio, s in ((1.3, 11), (1.3, 2), (2.0, 5)):
            sch = build_spring_schedule(ratio, s, 0.1, 10)
            lhs = sch.controls[-1] ** 2 - 1.0
            rhs = sch.increment * (s - 1)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_two_step(self):
        sch = build_spring_schedule(1.3, 2, 0.1, 100)
        assert sch.increment == pytest.approx(0.69, rel=1e-12)
        assert np.allclose(sch.controls, [1.0, 1.3])

    def test_null_pull(self):
        sch = build_spring_schedule(1.0, 5, 0.1, 10)
        assert sch.increment == 0.0
        assert all(w == 1.0 for w in sch.controls)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_spring_schedule(-1.0, 11, 0.1, 10)
        with pytest.raises(ValueError):
            build_spring_schedule(0.8, 11, 0.1, 10)  # softening unsupported
        with pytest.raises(ValueError):
            build_spring_schedule(1.3, 1, 0.1, 10)
        with pytest.raises(ValueError):
            build_spring_schedule(1.3, 11, 0.0, 10)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="omega_ratio"):
                build_spring_schedule(bad, 11, 0.1, 10)
            with pytest.raises(ValueError, match="a0"):
                build_spring_schedule(1.3, 11, bad, 10)
        for grid in ({"x_points": 1}, {"w_points": 0}):
            with pytest.raises(ValueError, match=next(iter(grid))):
                build_spring_schedule(1.3, 11, 0.1, 10, **grid)

    def test_work_grid_starts_at_zero(self):
        sch = build_spring_schedule(1.3, 11, 0.1, 100)
        assert sch.w_grid.min == 0.0
        assert sch.w_grid.points == 8001

    def test_w_points_request_only_refines_lattice(self):
        base = build_spring_schedule(1.3, 3, 0.1, 100)
        assert build_spring_schedule(1.3, 3, 0.1, 100, w_points=10).w_grid == base.w_grid
        fine = build_spring_schedule(1.3, 3, 0.1, 100, w_points=16001)
        assert fine.w_grid.points == 16001 and fine.w_grid.max == base.w_grid.max


_rng = np.random.default_rng(15)
# fixed schedules, and random spring ones: on 36 of these 40, np.tanh would
# differ from math.tanh in the last bit of some step's thermal variance
_STEP_SCHEDULES = [
    build_center_schedule(1.0, 11, 1.0, 5), build_center_schedule(3.7, 31, 0.0625, 0),
    build_spring_schedule(1.3, 11, 0.1, 100), build_spring_schedule(2.5, 201, 100.0, 0),
    build_spring_schedule(1.05, 61, 0.3, 7),
    *(build_spring_schedule(r, int(s), a, 0) for r, s, a in zip(
        _rng.uniform(1.0, 3.0, 40), _rng.integers(2, 60, 40), 10.0 ** _rng.uniform(-2, 2, 40)))]


class TestStepsSpectrum:
    @pytest.mark.parametrize("sch", _STEP_SCHEDULES)
    def test_array_controls_equal_each_step(self, sch):
        # the closed forms evaluate math functions elementwise, so the one
        # spectrum over all controls gives every step's scalar values exactly
        assert sch.steps is sch.steps
        for a in (sch.a, 0.7 * sch.a, 40.0):
            together = [np.broadcast_to(f(a), (sch.s,)) for f in (
                sch.steps.target, sch.steps.free_energy, sch.steps.thermal_variance)]
            for i in range(1, sch.s + 1):
                step = sch.spectrum(i)
                assert [v[i - 1] for v in together] == [
                    step.target(a), step.free_energy(a), step.thermal_variance(a)], (i, a)


def _recursion_charge(sch):
    """The values run_work_recursion charges to the budget, read as it charges them."""
    charged = []

    def record(what, values, *remedy):
        charged.append(values)
        raise GridTooLarge(what)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workdist, "check_grid_budget", record)
        with pytest.raises(GridTooLarge):
            run_work_recursion(sch)
    return charged[0]


class TestGridBudget:
    # grids are sized, without being allocated, on the first read of a grid
    def test_over_budget_schedules_refused(self):
        # lambda_s = 1e6 in one step: a 42.3M-node x grid, about 5.6e8 values
        for sch in (build_center_schedule(1e6, 2, 1.0, 10),
                    build_spring_schedule(1.3, 3, 0.1, 0, x_points=GRID_BUDGET)):
            # the read returns the sized grid; what is built on it is over the budget
            assert sch.x_grid.points >= 4 * 10**7
            assert sch.density_values > GRID_BUDGET
            with pytest.raises(GridTooLarge):
                run_work_recursion(sch)
        # n_max = GRID_BUDGET, every state summed at a = 1e-6: refused as the
        # schedule is built, before any grid
        with pytest.raises(GridTooLarge, match="closed-form profile"):
            build_center_schedule(0.0, 2, 1e-6, GRID_BUDGET)

    @pytest.mark.parametrize("build, ratio", [(build_center_schedule, 1.0),
                                              (build_spring_schedule, 1.3)])
    def test_profile_estimate_refuses_before_the_controls(self, build, ratio, monkeypatch,
                                                          traced_peak):
        # 5 (n_max + 9) s + 2,000 values; a lowered budget keeps every schedule here small
        monkeypatch.setattr(protocol, "GRID_BUDGET", 5 * (3 + 9) * 40 + 2_000)
        assert len(build(ratio, 40, 1.0, 3).controls) == 40
        for s, n_max in ((41, 3), (40, 4), (10**5, 0)):
            def refused():
                with pytest.raises(GridTooLarge, match="closed-form profile"):
                    build(ratio, s, 1.0, n_max)
            # 10^5 controls alone would take 3.2 MB
            assert traced_peak(refused) < 10**5

    @pytest.mark.parametrize("build, ratio", [(build_center_schedule, 1.0),
                                              (build_spring_schedule, 1.3)])
    def test_profile_estimate_covers_its_measured_peak(self, build, ratio, traced_peak):
        # per step at n_max = 0, per state and step at large n_max, between, and
        # at s <= 3, where the part that grows with neither s nor n_max weighs in
        for s, n_max in ((5_000, 0), (1_000, 3), (11, 3_000), (200, 200), (2, 3_000), (3, 3_000)):
            peak = traced_peak(lambda: free_energy_profile(build(ratio, s, 1.0, n_max)))
            # a budget one float64 value below the traced peak refuses the schedule
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocol, "GRID_BUDGET", peak // 8 - 1)
                with pytest.raises(GridTooLarge, match="closed-form profile"):
                    build(ratio, s, 1.0, n_max)

    @pytest.mark.parametrize("build, ratio", [(build_center_schedule, 1.0),
                                              (build_spring_schedule, 1.3)])
    def test_profile_builds_no_spectrum_per_step(self, build, ratio, traced_peak):
        # one spectrum over all the controls: 19.6 (center) and 23.0 (spring)
        # float64 values per step, against 40.6 and 35.7 with one per step
        s = 10**5
        assert traced_peak(lambda: free_energy_profile(build(ratio, s, 1.0, 0))) < 30 * 8 * s

    def test_refused_spring_grids_build_no_spectrum_per_step(self, traced_peak):
        # the schedule and its grid sizing: 16.0 float64 values per step,
        # against 27.0 with one spectrum per step
        s = 10**5

        def refused():
            sch = build_spring_schedule(1.3, s, 1.0, 0)
            sch.x_grid  # the densities fit; the s - 1 work lattices do not
            with pytest.raises(GridTooLarge, match="the grids"):
                run_work_recursion(sch)
        assert traced_peak(refused) < 22 * 8 * s

    def test_work_grid_read_charges_nothing(self):
        # at s = 500 the densities fit and the 499 work lattices do not; at
        # n_max = 1e8 the eigenstate stacks alone take about 1e14 values.  A
        # read of either grid passes, and the recursion that builds on them is refused
        for sch in (build_center_schedule(1.0, 500, 1.0, 0),
                    build_center_schedule(1.0, 3, 1.0, 10**8),
                    build_spring_schedule(1.3, 3, 1.0, 10**8)):
            assert sch.w_grid.points > 2 and sch.x_grid.points > 2
            with pytest.raises(GridTooLarge, match="the grids"):
                run_work_recursion(sch)

    @pytest.mark.parametrize("build", [
        lambda: build_spring_schedule(1.3, 11, 0.1, 100),
        lambda: build_spring_schedule(1.3, 3, 0.1, 10, w_points=20_001),
        lambda: build_spring_schedule(1.3, 3, 0.1, 10, w_points=50_001),
        lambda: build_spring_schedule(1.3, 3, 0.1, 10, w_points=100_001),
        lambda: build_center_schedule(1.0, 3, 1.0, 10, w_points=100_001),
        lambda: build_center_schedule(20.0, 3, 1.0, 10),
        lambda: build_center_schedule(1.0, 101, 1.0, 10),
        lambda: build_spring_schedule(1.3, 61, 0.05, 200),
        lambda: build_spring_schedule(1.3, 3, 0.1, 0, x_points=1_000_000),
        lambda: build_center_schedule(1.0, 2, 1.0, 10, w_points=2_000_000),
    ], ids=["run-spring", "spring-s3-w20001", "spring-s3-w50001", "spring-s3-w100001",
            "center-s3-w100001", "center-lambda20-s3", "center-s101", "spring-s61-n200",
            "spring-s3-x1e6", "center-s2-w2e6"])
    def test_recursion_estimate_covers_its_measured_peak(self, build, traced_peak):
        # the convolution's kernel, 128 values per node of the shorter
        # operand, outweighs everything else where the work window is long;
        # one step's x-side arrays do where the x grid is long and s small
        peak = traced_peak(lambda: run_work_recursion(build()).distributions)
        # a budget one float64 value below the traced peak refuses the schedule
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "GRID_BUDGET", peak // 8 - 1)
            with pytest.raises(GridTooLarge, match="the grids"):
                run_work_recursion(build())

    def test_recursion_charges_the_rows_its_cut_can_hold(self):
        # a spring rho_2 is cut to the x grid's image, 1,286,827 nodes of the
        # 2,000,000-node work grid: charged as 1,286,833 rows, held and exported,
        # not as the 2,000,004 rows of the whole grid
        sch = build_spring_schedule(1.3, 2, 0.1, 100, w_points=2_000_000)
        rows = (_recursion_charge(sch) - sch.density_values) / (1 + ROW_VALUES)
        assert rows == 1_286_833
        (rho,) = run_work_recursion(sch).distributions
        assert rho.values.size == 1_286_827

    def test_largest_tested_schedules_fit(self):
        for sch in (build_spring_schedule(1.3, 1001, 50.0, 0),
                    build_center_schedule(1.0, 101, 1.0, 10),
                    build_spring_schedule(1.3, 61, 0.05, 200)):
            assert _recursion_charge(sch) < GRID_BUDGET / 5


class TestDefaults:
    def test_temperature_sweep(self):
        sweep = default_temperature_sweep()
        assert sweep[0] == 2.0 ** -4
        assert sweep[-1] == 2.0 ** 4
        assert len(sweep) == 9

    def test_beta_equals_reduced_temperature(self):
        sch = build_center_schedule(1.0, 11, 0.25, 0)
        assert sch.beta == 0.25
