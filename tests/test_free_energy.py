import dataclasses
import math

import numpy as np
import pytest
from reference import (
    approx_free_energy,
    center_exact_profile,
    center_gaussian_profile,
    center_truncation_share,
    ground_state_closed_form_center,
    ground_state_closed_form_spring,
    spring_gaussian_profile,
    spring_low_temp_limit,
    spring_quadrature_profile,
)

from stepwork import cli, spectra, workdist
from stepwork.free_energy import FreeEnergyProfile, exponential_average, free_energy_profile
from stepwork.protocol import GridSpec, build_center_schedule, build_spring_schedule
from stepwork.workdist import (
    GriddedDensity,
    fluctuation_density,
    run_work_recursion,
    work_moments,
)


def _low_temp_estimate(a, dlam, s):
    """The paper's low-temperature estimate k dlambda^2 (s-1)^2 [1 - (a-1)/(s-1)]/4."""
    return dlam * dlam * (s - 1) ** 2 * (1.0 - (a - 1.0) / (s - 1)) / 4.0


class TestExponentialAverage:
    def test_point_mass_gives_zero(self):
        # the unit spike at W = 0 on the lattice a pull that does no work uses
        spike = GriddedDensity(GridSpec(-1.0, 1.0, 3), np.array([0.0, 1.0, 0.0]))
        value = exponential_average(spike, 2.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0  # +0, never -0

    def test_matches_gaussian_closed_form(self):
        # <exp(-beta W)> of N(mu, sigma^2) is exp(-beta mu + beta^2 sigma^2/2)
        mu, sigma, beta = 0.3, 0.05, 2.0
        grid = GridSpec(mu - 12 * sigma, mu + 12 * sigma, 4001)
        w = grid.nodes()
        vals = np.exp(-0.5 * ((w - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        rho = GriddedDensity(grid, vals)
        expected = mu - beta * sigma ** 2 / 2
        assert exponential_average(rho, beta) == pytest.approx(expected, rel=1e-10)

    def test_log_space_path_consistent(self):
        # a cold average: the weights exp(-beta W) span 347 decades
        grid = GridSpec(-2.0, 2.0, 8001)
        w = grid.nodes()
        sigma = 0.05
        vals = np.exp(-0.5 * (w / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        rho = GriddedDensity(grid, vals)
        beta = 200.0  # beta * W span of 800
        expected = -beta * sigma ** 2 / 2
        assert exponential_average(rho, beta) == pytest.approx(expected, rel=1e-9)

    def test_rejects_zero_density(self):
        rho = GriddedDensity(GridSpec(0.0, 1.0, 3), np.zeros(3))
        # cold and warm: neither temperature can make a zero density average
        with pytest.raises(ValueError, match="not all zero"):
            exponential_average(rho, 500.0)
        with pytest.raises(ValueError, match="not all zero"):
            exponential_average(rho, 0.5)


class TestClosedForms:
    def test_center_reference_points(self):
        assert ground_state_closed_form_center(1.0, 0.1, 11) == pytest.approx(0.25)
        assert ground_state_closed_form_center(16.0, 0.1, 11) == pytest.approx(-0.125)
        assert ground_state_closed_form_center(2.0, 0.1, 1) == 0.0

    def test_low_temp_estimate_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.uniform(0.05, 20.0)
            dlam = rng.uniform(0.01, 1.0)
            s = int(rng.integers(2, 40))
            lhs = _low_temp_estimate(a, dlam, s)
            rhs = ground_state_closed_form_center(a, dlam, s)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_low_temp_estimate_zero_crossing(self):
        assert _low_temp_estimate(7.0, 0.2, 7) == pytest.approx(0.0, abs=1e-15)
        assert ground_state_closed_form_center(7.0, 0.2, 7) == pytest.approx(0.0, abs=1e-15)

    def test_low_temp_estimate_at_unit_temperature(self):
        # a = 1 collapses to the exact target lambda_s^2 / 4
        assert _low_temp_estimate(1.0, 0.1, 11) == pytest.approx(0.25)
        assert ground_state_closed_form_center(1.0, 0.1, 11) == pytest.approx(0.25)

    def test_spring_sum_degenerate(self):
        assert ground_state_closed_form_spring(0.1, 0.0, 11) == 0.0

    def test_spring_limit(self):
        assert spring_low_temp_limit(1.3) == pytest.approx(0.15)
        df = ground_state_closed_form_spring(500.0, 0.69 / 10000, 10001)
        assert df == pytest.approx(0.15, rel=0.05)


class TestCenterProfiles:
    def test_ground_state_profile_matches_target_exactly(self):
        # at a = 1, n_max = 0 the profile is lambda_i^2/4 at every step
        sch = build_center_schedule(1.0, 11, 1.0, 0)
        prof = free_energy_profile(sch)
        assert np.allclose(prof.delta_f, prof.targets, atol=1e-9)

    def test_profile_conventions(self):
        sch = build_center_schedule(1.0, 11, 1.0, 7)
        prof = free_energy_profile(sch)
        assert prof.delta_f[0] == 0.0
        assert prof.mean_work[0] == 0.0
        assert prof.f_ref[0] == pytest.approx(math.log(2.0 * math.sinh(1.0)))

    def test_jensen_bound_every_step(self):
        for a in (0.0625, 1.0, 16.0):
            prof = free_energy_profile(build_center_schedule(1.0, 11, a, 10))
            assert np.all(prof.delta_f <= prof.mean_work + 1e-9)

    def test_convergence_in_n_max(self):
        # monotone from above, stable by n_max = 7
        values = [free_energy_profile(build_center_schedule(1.0, 11, 1.0, n)).endpoint
                  for n in range(11)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[7] - values[10]) < 1e-5
        assert values[7] == pytest.approx(0.241136, abs=2e-3)

    def test_converged_value_matches_thermal_closed_form(self):
        # full-spectrum pipelines obey dF = dlam^2 (s-1)(s - a coth a)/4
        for a in (0.5, 1.0, 2.0):
            sch = build_center_schedule(1.0, 11, a, 40)
            prof = free_energy_profile(sch)
            exact = 0.01 * 10 * (11 - a / math.tanh(a)) / 4
            assert prof.endpoint == pytest.approx(exact, rel=1e-6)

    def test_quantum_negativity_at_low_temperature(self):
        prof = free_energy_profile(build_center_schedule(1.0, 11, 16.0, 10))
        assert prof.endpoint < 0
        assert prof.endpoint == pytest.approx(-0.125, abs=1e-4)

    @pytest.mark.parametrize("build", [
        lambda a: build_center_schedule(1.0, 6, a, 12),
        lambda a: build_spring_schedule(1.3, 6, a, 12),
    ], ids=["center", "spring"])
    @pytest.mark.parametrize("a", [1e-300, 1e-9])
    def test_high_temperature_limit_is_the_mean_work(self, build, a):
        # cumulant expansion dF = <W> - (beta/2) Var W + O(beta^2): ln<exp(-beta W)>
        # is ~beta <W>, far below the last bit of ln z, and must not vanish into it
        prof = free_energy_profile(build(a))
        expected = prof.mean_work - 0.5 * a * prof.std_work ** 2
        assert prof.delta_f == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert prof.endpoint > 0.2

    def test_null_schedule_profile_is_zero(self):
        prof = free_energy_profile(build_center_schedule(0.0, 5, 1.0, 3))
        assert np.all(prof.delta_f == 0.0)

    # (lambda_s, s, a, n_max).  The bench copy takes the log of the mixture,
    # 1 + O(k^2), itself: 7.4e-11 off at a = 1e-3, s = 101, and under 2e-14
    # from a = 1/16
    @pytest.mark.parametrize("args, tol", [
        ((1.0, 11, 1e-3, 10), 1e-10), ((1.0, 101, 1e-3, 10), 1e-10),
        ((1.0, 11, 0.0625, 10), 1e-12), ((1.0, 101, 1.0, 10), 1e-12),
        ((20.0, 2, 64.0, 12), 1e-12), ((-7.0, 6, 4.0, 3), 1e-12), ((20.0, 6, 16.0, 12), 1e-12),
    ])
    def test_center_oracle_matches_the_bench_copy(self, args, tol, oracles):
        exact = center_exact_profile(*args)
        assert exact == pytest.approx(oracles.center_exact_profile(*args), rel=tol, abs=tol)

    # below a = 1e-3, where the bench copy loses its digits; worst gap 4.3e-16
    @pytest.mark.parametrize("args", [(1.0, 2, 1e-300, 3), (1.0, 6, 1e-7, 12),
                                      (1.0, 101, 1e-6, 10), (5.0, 4, 1e-12, 5),
                                      (-13.5, 3, 1e-9, 2)])
    def test_center_oracle_keeps_its_digits_at_small_a(self, args):
        prof = free_energy_profile(build_center_schedule(*args))
        assert prof.delta_f == pytest.approx(center_exact_profile(*args), rel=1e-12)


class TestApproxFreeEnergy:
    def test_ground_state_closed_sum(self):
        # <x_i> = lambda_i/2 gives dlam sum lambda_i/2 = dlam^2 (s-1)(s-2)/4
        sch = build_center_schedule(1.0, 11, 50.0, 0)
        df_app = approx_free_energy(sch)
        assert df_app == pytest.approx(0.01 * 10 * 9 / 4, abs=1e-9)

    def test_converges_toward_target_with_more_steps(self):
        errs = []
        for s in (11, 21):
            sch = build_center_schedule(1.0, s, 1.0, 10)
            errs.append(abs(approx_free_energy(sch) - 0.25))
        assert errs[1] < errs[0]

    def test_thermodynamic_integral_error_halves(self):
        # the estimate misses the target by 0.25/(s-1): doubling the step
        # count halves the error
        errs = []
        for s in (11, 21):
            sch = build_center_schedule(1.0, s, 1.0, 5)
            errs.append(abs(approx_free_energy(sch) - 0.25))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)

    def test_null_increment(self):
        sch = build_center_schedule(0.0, 5, 1.0, 0)
        assert approx_free_energy(sch) == 0.0

    def test_spring_not_supported(self):
        sch = build_spring_schedule(1.3, 5, 0.1, 5)
        with pytest.raises(ValueError):
            approx_free_energy(sch)


class TestSpringProfiles:
    def test_high_temperature_targets(self):
        target = 10.0 * math.log(math.sinh(0.065) / math.sinh(0.05))
        for s in (2, 11):
            prof = free_energy_profile(build_spring_schedule(1.3, s, 0.1, 100))
            assert prof.endpoint == pytest.approx(target, rel=0.01)

    def test_profile_tracks_per_step_targets(self):
        prof = free_energy_profile(build_spring_schedule(1.3, 11, 0.1, 100))
        assert np.allclose(prof.delta_f, prof.targets, rtol=0.01, atol=1e-6)

    def test_low_temperature_oracle(self):
        sch = build_spring_schedule(1.3, 201, 100.0, 0)
        prof = free_energy_profile(sch)
        exact = ground_state_closed_form_spring(100.0, sch.increment, 201)
        assert prof.endpoint == pytest.approx(exact, abs=1e-12)

    # (omega_ratio, s, a0, n_max): the defaults, n_max = 200, a hot near-null
    # pull, a steep pull and two cold ones; largest gaps 2e-16 to 8e-13
    @pytest.mark.parametrize("args", [(1.3, 11, 0.1, 100), (1.3, 61, 0.05, 200),
                                      (1.05, 5, 0.01, 150), (4.0, 6, 1.0, 12),
                                      (2.0, 3, 16.0, 5), (1.3, 11, 50.0, 100)])
    def test_matches_the_quadrature_oracle_at_every_n_max(self, args):
        prof = free_energy_profile(build_spring_schedule(*args))
        assert prof.delta_f == pytest.approx(spring_quadrature_profile(*args), rel=1e-11)

    def test_null_pull(self):
        prof = free_energy_profile(build_spring_schedule(1.0, 5, 0.1, 10))
        assert np.all(prof.delta_f == 0.0)


class TestGaussianLimit:
    """At n_max -> infinity each step's thermal state is Gaussian.  At these
    n_max the dropped Boltzmann share e^{-a unit omega (n_max + 1)} and the
    pull's tilt of the high states leave the profile on the limit."""

    # largest gap 2.8e-16 of the running sum of the terms' magnitudes
    @pytest.mark.parametrize("a", [2.0, 4.0, 8.0, 16.0])
    @pytest.mark.parametrize("s, lambda_s, n_max", [(11, 1.0, 10), (101, 1.0, 10),
                                                    (6, -2.0, 20)])
    def test_center_meets_the_limit(self, a, s, lambda_s, n_max):
        prof = free_energy_profile(build_center_schedule(lambda_s, s, a, n_max))
        limit, scale = center_gaussian_profile(lambda_s, s, a)
        assert np.all(np.abs(prof.delta_f - limit) <= 2e-15 * np.array(scale))

    # largest gap 7.4e-16 relative
    @pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("s, omega_ratio, n_max", [(11, 1.3, 100), (61, 1.3, 200)])
    def test_spring_meets_the_limit(self, a, s, omega_ratio, n_max):
        prof = free_energy_profile(build_spring_schedule(omega_ratio, s, a, n_max))
        limit = spring_gaussian_profile(omega_ratio, s, a)
        assert prof.delta_f == pytest.approx(limit, rel=2e-15, abs=0.0)

    # 50-digit evaluations of the tail over the generating function's total
    @pytest.mark.parametrize("a, dlambda, n_max, share", [
        (2.0, 2.5, 10, 7.00153090566e-13),  # against e^{-2a(n_max+1)} = 7.8e-20
        (2.0, 2.5, 20, 1.31818642554e-26),
        (1.0, 0.1, 10, 2.94475518722e-10),  # the run-center defaults
    ])
    def test_center_truncation_share_counts_the_tilt(self, a, dlambda, n_max, share):
        assert center_truncation_share(a, dlambda, n_max) == pytest.approx(share, rel=1e-9)

    def test_center_share_sets_the_gap_to_the_limit(self):
        # where the tilt dominates the share, each step's log-average misses
        # its limit by about the share, so the endpoint misses by (s - 1) share / a
        a, s, lambda_s, n_max = 2.0, 3, 5.0, 10
        prof = free_energy_profile(build_center_schedule(lambda_s, s, a, n_max))
        gap = prof.endpoint - center_gaussian_profile(lambda_s, s, a)[0][-1]
        share = center_truncation_share(a, lambda_s / (s - 1), n_max)
        assert gap == pytest.approx((s - 1) * share / a, rel=1e-2)


class TestReferenceFreeEnergy:
    def test_trivial_case(self):
        # F_ref = F(lambda_s) - dF at the endpoint
        sch = build_center_schedule(1.0, 11, 1.0, 0)
        prof = free_energy_profile(sch)
        f_s = math.log(2.0 * math.sinh(1.0)) + 0.25
        assert prof.f_ref[-1] + prof.endpoint == pytest.approx(f_s, abs=1e-12)

    def test_approaches_initial_free_energy_for_small_increments(self):
        # F_ref - F(lambda_1) shrinks linearly with dlambda
        gaps = []
        for s in (6, 11, 21):
            sch = build_center_schedule(1.0, s, 1.0, 10)
            prof = free_energy_profile(sch)
            f1 = math.log(2.0 * math.sinh(1.0))
            gaps.append(abs(prof.f_ref[-1] - f1))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.05)


class TestColdProfiles:
    """Far below the level spacing only the ground state is populated, and the
    ground-state closed forms are exact at every step."""

    @pytest.mark.parametrize("n_max", [0, 3])
    @pytest.mark.parametrize("a", [500.0, 600.0, 1000.0])
    def test_center(self, a, n_max, tmp_path):
        exact = [ground_state_closed_form_center(a, 0.1, i) for i in range(1, 12)]
        prof = free_energy_profile(build_center_schedule(1.0, 11, a, n_max))
        assert np.allclose(prof.delta_f, exact, rtol=0.0, atol=1e-12)
        argv = ["sweep", "--protocol", "center", "--param", "a", "--s", "11",
                "--nmax", str(n_max), "--values", str(a), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(exact[-1], abs=1e-12)

    @pytest.mark.parametrize("a0", [1000.0, 3000.0])
    def test_spring(self, a0, tmp_path):
        sch = build_spring_schedule(1.3, 201, a0, 0)
        exact = [ground_state_closed_form_spring(a0, sch.increment, i) for i in range(1, 202)]
        prof = free_energy_profile(sch)
        assert np.allclose(prof.delta_f, exact, rtol=0.0, atol=1e-12)
        argv = ["sweep", "--protocol", "spring", "--param", "a", "--s", "201", "--nmax", "0",
                "--omega-ratio", "1.3", "--values", str(a0), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(exact[-1], abs=1e-12)


# Measured gap between the lattice pushforward of the spring increment and
# the exact per-step sums (a0 = 0.1 and 100, s = 11): dF up to 1.27e-5 at
# t = 2 beta, std W up to 1.20e-5.  The two-node deposit of the 1/sqrt(u)
# spike causes it; the center lattice is exact.
SPRING_DEPOSIT_TOL = 1.5e-5


class TestPerStepProfile:
    """Each exported rho_i against the exact per-step sums of the closed forms."""

    @pytest.mark.parametrize("sch, tol", [
        (build_center_schedule(1.0, 11, 0.0625, 10), 1e-12),
        (build_center_schedule(1.0, 11, 1.0, 10), 1e-12),
        (build_center_schedule(1.0, 11, 16.0, 10), 1e-12),
        (build_spring_schedule(1.3, 11, 0.1, 100), SPRING_DEPOSIT_TOL),
        (build_spring_schedule(1.3, 11, 100.0, 100), SPRING_DEPOSIT_TOL),
        (build_center_schedule(0.0, 5, 1.0, 3), 1e-12),
    ], ids=["center-a1/16", "center-a1", "center-a16", "spring-a0.1", "spring-a100",
            "null-pull"])
    def test_matches_average_of_each_distribution(self, sch, tol):
        ledger = run_work_recursion(sch)
        steps = sch.steps
        for t in (0.5 * sch.beta, sch.beta, 2.0 * sch.beta):
            exact = np.cumsum(-steps.work_expectations(sch.increment, sch.a, t)[0] / t)
            for i in range(2, sch.s + 1):
                assert exponential_average(ledger.distributions[i - 2], t) == pytest.approx(
                    exact[i - 2], abs=tol)
        prof = free_energy_profile(sch)
        for i in range(2, sch.s + 1):
            mean, std = work_moments(ledger.distributions[i - 2])
            # the deposit conserves each cell's first moment, so the mean is exact
            assert mean == pytest.approx(prof.mean_work[i - 1], abs=1e-12)
            assert std == pytest.approx(prof.std_work[i - 1], abs=tol)

    @pytest.mark.parametrize("args", [(1.0, 101, 1.0, 10), (1.0, 11, 1.0, 10),
                                      (1.0, 11, 0.0625, 10)], ids=["s101", "defaults", "a1/16"])
    def test_odd_m_grids_match_the_profile(self, args):
        # M = 1 at s = 101 and 3 at s = 11: the x nodes sit half a spacing off
        sch = build_center_schedule(*args)
        assert round(sch.increment / sch.x_grid.spacing) % 2 == 1
        ledger = run_work_recursion(sch)
        prof = free_energy_profile(sch)
        gaps = [exponential_average(ledger.distributions[i - 2], sch.beta) - prof.delta_f[i - 1]
                for i in range(2, sch.s + 1)]
        assert np.abs(gaps).max() <= 1e-14

    def test_single_step_matches_final(self):
        # s = 1 has no distribution; its profile is that of the no-work spike
        sch = build_center_schedule(1.0, 1, 1.0, 10)
        prof = free_energy_profile(sch)
        assert run_work_recursion(sch).distributions == ()
        final = run_work_recursion(build_center_schedule(0.0, 2, 1.0, 10)).distributions[-1]
        assert prof.delta_f.tolist() == [exponential_average(final, sch.beta)]
        assert (prof.mean_work[0], prof.std_work[0]) == work_moments(final)

    def test_needs_no_convolution(self, monkeypatch, tmp_path):
        def forbid(module, name, message):
            def forbidden(*args, **kwargs):
                raise AssertionError(message)
            monkeypatch.setattr(module, name, forbidden)

        all_densities = spectra.OscillatorSpectrum.all_densities
        forbid(workdist, "lattice_convolve", "the profile convolved")
        forbid(workdist, "fluctuation_density", "the profile built a density")
        forbid(cli, "fluctuation_density", "the profile built a density")
        forbid(spectra.OscillatorSpectrum, "all_densities", "the profile built a density")
        assert free_energy_profile(build_center_schedule(1.0, 11, 1.0, 10)).endpoint > 0.0
        assert free_energy_profile(build_spring_schedule(1.3, 11, 0.1, 20)).endpoint > 0.0
        for protocol in ("center", "spring"):
            argv = ["sweep", "--protocol", protocol, "--param", "a", "--s", "5",
                    "--nmax", "5", "--values", "0.5,2", "--out", str(tmp_path / protocol)]
            assert cli.main(argv) == 0
        # each stand-in is where the recursion looks it up
        sch = build_center_schedule(1.0, 3, 1.0, 2)
        with pytest.raises(AssertionError, match="built a density"):
            run_work_recursion(sch).distributions
        monkeypatch.setattr(workdist, "fluctuation_density", fluctuation_density)
        with pytest.raises(AssertionError, match="built a density"):
            run_work_recursion(sch).distributions
        monkeypatch.setattr(spectra.OscillatorSpectrum, "all_densities", all_densities)
        with pytest.raises(AssertionError, match="convolved"):
            run_work_recursion(sch).distributions

    def test_profile_holds_no_ledger(self):
        assert "ledger" not in {f.name for f in dataclasses.fields(FreeEnergyProfile)}
