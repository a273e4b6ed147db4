import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import normalize, unclipped_recursion

import stepwork
from stepwork import workdist
from stepwork.errors import GridTooNarrow, MassLeak
from stepwork.free_energy import (
    exponential_average,
    free_energy_profile,
    ground_state_closed_form_center,
)
from stepwork.protocol import (
    GridSpec,
    PullSchedule,
    build_center_schedule,
    build_spring_schedule,
)
from stepwork.workdist import (
    GriddedDensity,
    fluctuation_density,
    lattice_convolve,
    pushforward_step_density,
    run_work_recursion,
    step_work_map,
    work_moments,
)

LOW_TEMP = 50.0  # effectively ground-state only


def _density_moments(density):
    x = density.grid.nodes()
    h = density.grid.spacing
    mean = np.trapezoid(x * density.values, dx=h)
    var = np.trapezoid((x - mean) ** 2 * density.values, dx=h)
    return mean, var


class TestFluctuationDensity:
    def test_ground_state_limit(self):
        sch = build_center_schedule(1.0, 11, LOW_TEMP, 10)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        mean, var = _density_moments(f)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(0.5, abs=1e-9)

    def test_center_tracks_half_control(self):
        sch = build_center_schedule(1.0, 11, LOW_TEMP, 10)
        f = fluctuation_density(sch.spectrum(6), sch.a, sch.x_grid)  # lambda_6 = 0.5
        mean, _ = _density_moments(f)
        assert mean == pytest.approx(0.25, abs=1e-10)

    def test_thermal_variance_oracle(self):
        # exact thermal variance of the position is coth(a)/2
        sch = build_center_schedule(1.0, 11, 1.0, 10)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        _, var = _density_moments(f)
        assert var == pytest.approx(0.5 / math.tanh(1.0), abs=1e-6)

    def test_normalized(self):
        sch = build_center_schedule(1.0, 11, 1.0, 10)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        assert f.integral() == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_narrow(self):
        sch = build_center_schedule(1.0, 11, 1.0, 10)
        with pytest.raises(GridTooNarrow):
            fluctuation_density(sch.spectrum(1), sch.a, GridSpec(-1.0, 1.5, 101))

    @pytest.mark.parametrize("sch", [
        build_center_schedule(20.0, 2, 1.0, 10, x_points=3),  # spacing 20
        # on these the quadrature gives 2.50, 1.27 and 1.00065 of the mass
        build_spring_schedule(1.3, 3, 0.1, 100, x_points=3),
        build_spring_schedule(1.3, 3, 0.1, 100, x_points=5),
        build_spring_schedule(1.3, 3, 0.1, 100, x_points=9),
    ])
    def test_grid_too_coarse(self, sch):
        with pytest.raises(GridTooNarrow, match="refine the x grid"):
            fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)

    def test_finer_grid_holds_the_mass(self):
        # its quadrature gives 1.0000023 of the mass, inside MASS_TOLERANCE
        sch = build_spring_schedule(1.3, 3, 0.1, 100, x_points=17)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        assert f.integral() == pytest.approx(1.0, abs=1e-12)


class TestStepWorkMap:
    def test_center_midpoint_is_zero(self):
        sch = build_center_schedule(1.0, 11, 1.0, 0)
        assert step_work_map(sch, 1, 0.05) == pytest.approx(0.0, abs=1e-15)

    def test_center_origin_value(self):
        sch = build_center_schedule(1.0, 11, 1.0, 0)
        assert step_work_map(sch, 1, 0.0) == pytest.approx(0.005, rel=1e-12)

    def test_spring_quadratic(self):
        sch = build_spring_schedule(1.3, 11, 0.1, 10)
        # 0.5 * delta * x^2 with delta = 0.069
        assert step_work_map(sch, 1, 1.0) == pytest.approx(0.0345, rel=1e-12)
        assert step_work_map(sch, 5, -2.0) == pytest.approx(0.069 * 2.0, rel=1e-12)

    def test_step_range_enforced(self):
        sch = build_center_schedule(1.0, 11, 1.0, 0)
        with pytest.raises(ValueError):
            step_work_map(sch, 11, 0.0)
        with pytest.raises(ValueError):
            step_work_map(sch, 0, 0.0)


class TestPushforward:
    def test_affine_image_of_gaussian(self):
        # ground state at lambda_1 = 0 pushed through dlambda = 0.1:
        # mean (k dlam/2)(2 lam_1 + dlam) = 0.005, std = k dlam sigma_x
        sch = build_center_schedule(0.1, 2, LOW_TEMP, 0)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        g = pushforward_step_density(f, sch, 1)
        mean, std = work_moments(g)
        assert mean == pytest.approx(0.005, abs=1e-12)
        assert std == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-9)

    def test_degenerate_map_deposits_on_zero_node(self):
        sch = build_center_schedule(0.0, 5, 1.0, 0)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        g = pushforward_step_density(f, sch, 1)
        assert g.values[g.grid.nodes() != 0.0].max() == 0.0
        assert g.integral() == pytest.approx(1.0, abs=1e-12)

    def test_spring_half_line_support(self):
        sch = build_spring_schedule(1.3, 11, LOW_TEMP, 0)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        g = pushforward_step_density(f, sch, 1)
        assert g.grid.min >= -1.5 * g.grid.spacing  # nothing below the zero-pad node
        assert g.integral() == pytest.approx(1.0, abs=1e-9)

    def test_spring_spike_at_zero(self):
        # thermal single pull: the 1/sqrt(u) spike makes the W = 0 bin the peak
        sch = build_spring_schedule(1.3, 2, 0.1, 100)
        f = fluctuation_density(sch.spectrum(1), sch.a, sch.x_grid)
        g = pushforward_step_density(f, sch, 1)
        nodes = g.grid.nodes()
        assert nodes[np.argmax(g.values)] == pytest.approx(0.0, abs=g.grid.spacing / 2)
        assert g.integral() == pytest.approx(1.0, abs=1e-9)


class TestRecursion:
    def test_base_case_matches_pushforward(self):
        sch = build_center_schedule(0.1, 2, LOW_TEMP, 0)
        rho2 = run_work_recursion(sch).distributions[0]
        mean, std = work_moments(rho2)
        assert mean == pytest.approx(0.005, abs=1e-12)
        assert std == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-9)
        assert rho2.integral() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_convolution_algebra(self):
        # means add, variances add
        sch = build_center_schedule(0.2, 3, LOW_TEMP, 0)
        ledger = run_work_recursion(sch)
        m2, s2 = work_moments(ledger.distributions[0])
        m3, s3 = work_moments(ledger.distributions[1])
        g2 = pushforward_step_density(fluctuation_density(sch.spectrum(2), sch.a, sch.x_grid),
                                      sch, 2)
        gm, gs = work_moments(g2)
        assert m3 == pytest.approx(m2 + gm, abs=1e-12)
        assert s3 ** 2 == pytest.approx(s2 ** 2 + gs ** 2, abs=1e-12)

    def test_mean_additivity_against_direct_increments(self):
        sch = build_center_schedule(1.0, 11, 1.0, 10)
        ledger = run_work_recursion(sch)
        x = sch.x_grid.nodes()
        expected = 0.0
        for i in range(1, sch.s):
            f = fluctuation_density(sch.spectrum(i), sch.a, sch.x_grid)
            expected += np.trapezoid(f.values * step_work_map(sch, i, x), dx=sch.x_grid.spacing)
            mean, _ = work_moments(ledger.distributions[i - 1])
            assert mean == pytest.approx(expected, abs=1e-6)

    def test_every_distribution_normalized(self):
        for sch in (build_center_schedule(1.0, 11, 1.0, 10),
                    build_spring_schedule(1.3, 11, 0.1, 100)):
            ledger = run_work_recursion(sch)
            for rho in ledger.distributions:
                assert rho.integral() == pytest.approx(1.0, abs=1e-9)
            assert all(q > 0 for q in ledger.normalizations)

    def test_spring_distributions_vanish_below_zero(self):
        sch = build_spring_schedule(1.3, 11, 0.1, 100)
        ledger = run_work_recursion(sch)
        for rho in ledger.distributions:
            nodes = rho.grid.nodes()
            assert np.all(rho.values[nodes < -rho.grid.spacing / 2] == 0.0)

    def test_single_step_has_no_distribution(self):
        ledger = run_work_recursion(build_center_schedule(1.0, 1, 1.0, 0))
        assert ledger.distributions == () and ledger.normalizations == ()

    def test_null_pull_stays_point_mass(self):
        # W = 0 on every path: each rho_i is the unit spike on the grid (-1, 0, 1)
        ledger = run_work_recursion(build_center_schedule(0.0, 5, 1.0, 3))
        for rho in ledger.distributions:
            assert rho.grid == GridSpec(-1.0, 1.0, 3)
            assert rho.values.tolist() == [0.0, 1.0, 0.0]
            assert rho.integral() == 1.0
            assert work_moments(rho) == (0.0, 0.0)
            assert exponential_average(rho, 1.0) == 0.0

    @pytest.mark.parametrize("schedule", [build_center_schedule(1.0, 1, 1.0, 0),
                                          build_center_schedule(0.0, 5, 1.0, 3),
                                          build_spring_schedule(1.0, 4, 0.1, 3)])
    def test_no_work_pull_builds_no_density(self, schedule, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pull that does no work builds no density")

        monkeypatch.setattr(workdist, "fluctuation_density", refuse)
        monkeypatch.setattr(workdist, "lattice_convolve", refuse)
        ledger = run_work_recursion(schedule)
        assert len(ledger.distributions) == schedule.s - 1
        assert all(rho.values.tolist() == [0.0, 1.0, 0.0] for rho in ledger.distributions)
        assert ledger.normalizations == (1.0,) * (schedule.s - 1)

    def test_mass_leak_detected_on_truncated_window(self):
        sch = build_center_schedule(1.0, 11, 1.0, 0)

        class Clipped(PullSchedule):
            w_grid = GridSpec(0.0, 0.05, 101)  # in place of the sized work grid

        clipped = Clipped(*(getattr(sch, f.name) for f in dataclasses.fields(sch)))
        with pytest.raises(MassLeak):
            run_work_recursion(clipped)

    def test_ground_state_closed_form_subset(self):
        for a in (0.25, 1.0, 4.0):
            for s in (2, 6, 11):
                sch = build_center_schedule(1.0, s, a, 0)
                ledger = run_work_recursion(sch)
                df = exponential_average(ledger.distributions[-1], sch.beta)
                exact = ground_state_closed_form_center(a, sch.increment, s)
                assert df == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_work_grid_resolution_independence(self):
        base = build_center_schedule(1.0, 11, 1.0, 5)
        fine = build_center_schedule(1.0, 11, 1.0, 5, w_points=2 * base.w_grid.points)
        df_base = exponential_average(run_work_recursion(base).distributions[-1], base.beta)
        df_fine = exponential_average(run_work_recursion(fine).distributions[-1], fine.beta)
        assert abs(df_base - df_fine) < 1e-5

    def test_work_grid_resolution_independence_spring(self):
        base = build_spring_schedule(1.3, 11, 1.0, 10)
        fine = build_spring_schedule(1.3, 11, 1.0, 10, w_points=16001)
        df_base = exponential_average(run_work_recursion(base).distributions[-1], base.beta)
        df_fine = exponential_average(run_work_recursion(fine).distributions[-1], fine.beta)
        assert abs(df_base - df_fine) < 1e-5

    def test_convolution_matches_direct_kernel_integral(self):
        # the recursion kernel evaluated literally: rho_i(W) proportional to
        # integral dw rho_{i-1}(w) f_{i-1}(lam_{i-1} + dlam/2 - (W-w)/dlam),
        # with |Jacobian| 1/dlam; an independent route to the same density
        sch = build_center_schedule(1.0, 3, 1.0, 2)
        ledger = run_work_recursion(sch)
        rho2, rho3 = ledger.distributions[0], ledger.distributions[1]
        f2 = fluctuation_density(sch.spectrum(2), sch.a, sch.x_grid)
        dlam = sch.increment
        lam2 = sch.controls[1]
        w_nodes = rho2.grid.nodes()
        x_nodes = f2.grid.nodes()
        targets = rho3.grid.nodes()[::40]
        direct = np.empty(targets.size)
        for j, big_w in enumerate(targets):
            x = lam2 + dlam / 2 - (big_w - w_nodes) / dlam
            fvals = np.interp(x, x_nodes, f2.values, left=0.0, right=0.0)
            direct[j] = np.trapezoid(rho2.values * fvals, dx=rho2.grid.spacing) / dlam
        direct /= np.trapezoid(rho3.values, dx=rho3.grid.spacing)
        ref = rho3.values[::40]
        peak = rho3.values.max()
        assert np.all(np.abs(direct - ref) < 1e-3 * peak)


def _assert_relative(got, ref, rtol=1e-13):
    """Elementwise |got - ref| <= rtol |ref|: exact zeros must stay zero."""
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))


class TestWorkWindow:
    """The work window holds every rho_i, not only rho_s.

    Each rho_i's exponential average must not move when the window clip is
    left out, and for center pulls with |dlambda| <= 10 it must meet the
    closed-form dF_i.  Past that, the 1e-280 crop, not the window, keeps the
    deepest tilted tails from the lattice.
    """

    @staticmethod
    def _averages(sch, dists):
        return np.array([exponential_average(rho, sch.beta) for rho in dists])

    @pytest.mark.parametrize("lambda_s", [1.0, 10.0, 12.0, 14.0, 20.0, 100.0,
                                          -1.0, -10.0, -12.0, -14.0, -20.0, -100.0])
    def test_center_window_holds_every_distribution(self, lambda_s):
        for s in range(2, 12):
            sch = build_center_schedule(lambda_s, s, 1.0, 10)
            got = self._averages(sch, run_work_recursion(sch).distributions)
            _assert_relative(got, self._averages(sch, unclipped_recursion(sch)))
            if abs(sch.increment) <= 10.0:
                _assert_relative(got, free_energy_profile(sch).delta_f[1:], rtol=1e-12)

    @pytest.mark.parametrize("ratio", [1.3, 2.0, 4.0])
    def test_spring_window_holds_every_distribution(self, ratio):
        for s in (2, 6, 11):
            for a0 in (0.1, 1.0, 4.0):
                sch = build_spring_schedule(ratio, s, a0, 40)
                got = self._averages(sch, run_work_recursion(sch).distributions)
                _assert_relative(got, self._averages(sch, unclipped_recursion(sch)))


class TestLatticeConvolve:
    """The blocked Toeplitz kernel against the direct sum np.convolve."""

    # both orders; around the block (128) and slab (256) edges; center-s101's
    # first and largest products
    SIZES = [(1, 1), (1, 1000), (1000, 1), (3, 7), (7, 3)] + [
        pair for m in (127, 128, 129, 255, 256, 257) for pair in ((m, m), (m, 1000), (1000, m))
    ] + [(2699, 2699), (39034, 2699), (2699, 39034)]

    @pytest.mark.parametrize("n, m", SIZES)
    def test_matches_direct_sum(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        a, b = rng.random(n), rng.random(m)
        ref = np.convolve(a, b)
        _assert_relative(workdist._toeplitz_convolve(a, b), ref)
        if min(n, m) < 2:
            return
        h = 0.25
        d1 = GriddedDensity(GridSpec(-3 * h, (n - 4) * h, n), a)
        d2 = GriddedDensity(GridSpec(5 * h, (m + 4) * h, m), b)
        out = lattice_convolve(d1, d2, h)
        # one zero pad per side around the product, which starts at node 2
        assert out.grid.min == pytest.approx(h)
        assert out.values[0] == out.values[-1] == 0.0
        _assert_relative(out.values[1:-1], ref * h)

    def test_tails_keep_relative_accuracy(self):
        # Gaussians down to 4e-282 of their peaks, as the cold averages read them
        x = np.linspace(-36.0, 36.0, 2401)
        y = np.linspace(-28.8, 28.8, 1601)
        a, b = np.exp(-0.5 * x * x), np.exp(-0.5 * (y / 0.8) ** 2)
        ref = np.convolve(a, b)
        normal = ref >= 1e-300
        assert ref[normal].min() < 1e-300 * ref.max()
        got = workdist._toeplitz_convolve(a, b)
        _assert_relative(got[normal], ref[normal])
        assert np.all(np.abs(got - ref)[~normal] <= 1e-300)
        # a transform's error is absolute, about 1e-16 of the peak: it loses these tails
        fft = np.fft.irfft(np.fft.rfft(a, 4096) * np.fft.rfft(b, 4096), 4096)[:ref.size]
        assert np.max(np.abs(fft - ref)[normal] / ref[normal]) > 1.0

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        src = str(Path(stepwork.__file__).resolve().parents[1])
        bodies = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "stepwork.cli", "run-center", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            # below the "# config" line, which names the output directory
            bodies[threads] = {p.name: p.read_bytes().split(b"\n", 1)[1]
                               for p in out.glob("workdist_step_*.csv")}
        assert len(bodies["1"]) == 10
        assert bodies["1"] == bodies["2"]


class TestCharacteristicFunction:
    """Whole-shape oracle: the exact characteristic function of each W_i.

    Center step j contributes E[exp(i u dW_j)] = exp(i u dW_j(c_j) - k^2/4)
    sum_n p_n L_n(k^2/2) with k = u dlambda; spring step j contributes
    sum_n p_n u_n(kappa) / sqrt(1 + kappa) with kappa = -i u delta / (2 omega_j)
    (Talkner, Lutz & Hanggi, PRE 75, 050102(R) (2007)).  W_i sums steps
    1..i-1.  On the lattice it is sum_k rho_k h exp(i u W_k).
    """

    @staticmethod
    def _center_step_cf(spectrum, increment, a, u):
        x = 0.5 * (u * increment) ** 2
        p = spectrum.boltzmann_weights(a)
        p = p / p.sum()
        prev, laguerre = np.zeros_like(x), np.ones_like(x)
        mixture = p[0] * laguerre
        for n in range(spectrum.n_max):
            prev, laguerre = laguerre, ((2 * n + 1 - x) * laguerre - n * prev) / (n + 1)
            mixture = mixture + p[n + 1] * laguerre
        shift = spectrum.work_increment(increment, spectrum.center)
        return np.exp(1j * u * shift - 0.5 * x) * mixture

    @staticmethod
    def _spring_step_cf(spectrum, increment, a, u):
        kappa = -0.5j * u * increment / spectrum.omega
        p = spectrum.boltzmann_weights(a)
        p = p / p.sum()
        # u_0 = 1, u_1 = 1/(1+kappa),
        # u_{n+1} = ((2n+1) u_n - n (1-kappa) u_{n-1}) / ((n+1)(1+kappa))
        prev, u_n = np.zeros_like(kappa), np.ones_like(kappa)
        mixture = p[0] * u_n
        for n in range(spectrum.n_max):
            prev, u_n = u_n, ((2 * n + 1) * u_n - n * (1 - kappa) * prev) / ((n + 1) * (1 + kappa))
            mixture = mixture + p[n + 1] * u_n
        return mixture / np.sqrt(1 + kappa)

    def _gaps(self, sch, step_cf):
        """Largest gap between each rho_i's lattice and exact characteristic
        functions, over u in [0, 6 / std W_i]."""
        ledger = run_work_recursion(sch)
        gaps = []
        for i in range(2, sch.s + 1):
            rho = ledger.distributions[i - 2]
            u = np.linspace(0.0, 6.0 / work_moments(rho)[1], 101)
            exact = np.prod([step_cf(sch.spectrum(j), sch.increment, sch.a, u)
                             for j in range(1, i)], axis=0)
            lattice = np.exp(1j * np.outer(u, rho.grid.nodes())) @ (rho.values * rho.grid.spacing)
            gaps.append(np.max(np.abs(lattice - exact)))
        return np.array(gaps)

    @pytest.mark.parametrize("a", [0.0625, 1.0, 16.0], ids=["a1/16", "a1", "a16"])
    def test_every_distribution_matches_closed_form(self, a):
        # the center chain is the exact distribution, sampled at the nodes
        gaps = self._gaps(build_center_schedule(1.0, 11, a, 10), self._center_step_cf)
        assert np.all(gaps <= 1e-13)

    def test_spring_gap_is_the_second_order_deposit_error(self):
        # spring defaults (s = 11, a0 = 0.1, n_max = 100): the two-node deposit
        # smooths each increment density by O(h^2).  Measured gaps at the
        # default 8001 work points: 7.8e-5 at step 2, 9.3e-6 at step 11;
        # halving h cuts each step's gap by 3.9x to 4.1x
        coarse = build_spring_schedule(1.3, 11, 0.1, 100)
        fine = build_spring_schedule(1.3, 11, 0.1, 100, w_points=2 * coarse.w_grid.points - 1)
        gaps = self._gaps(coarse, self._spring_step_cf)
        assert np.all(gaps <= 1e-4)
        ratios = gaps / self._gaps(fine, self._spring_step_cf)
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


class TestMoments:
    def test_point_mass(self):
        spike = GriddedDensity(GridSpec(-1.0, 1.0, 3), np.array([0.0, 1.0, 0.0]))
        assert work_moments(spike) == (0.0, 0.0)

    def test_low_temperature_std(self):
        sch = build_center_schedule(1.0, 11, 16.0, 10)
        mean, std = work_moments(run_work_recursion(sch).distributions[-1])
        assert mean == pytest.approx(0.275, abs=1e-9)
        assert std == pytest.approx(0.1 * math.sqrt(5.0), abs=1e-6)


class TestGriddedDensity:
    def test_rejects_negative_values(self):
        for bad in (-0.2, math.nan):
            with pytest.raises(ValueError):
                GriddedDensity(GridSpec(0.0, 1.0, 3), np.array([0.1, bad, 0.1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GriddedDensity(GridSpec(0.0, 1.0, 3), np.array([0.1, 0.2]))

    def test_normalize(self):
        d = GriddedDensity(GridSpec(0.0, 1.0, 3), np.array([0.0, 4.0, 0.0]))
        assert normalize(d).integral() == pytest.approx(1.0, rel=1e-14)
