import importlib
import math
import pkgutil

import numpy as np
import pytest

import stepwork
from stepwork import spectra
from stepwork.spectra import ProtocolKind


class TestHermite:
    def test_low_orders(self):
        assert spectra.hermite_poly(0, 3.7) == 1.0
        assert spectra.hermite_poly(1, 0.5) == 1.0
        assert spectra.hermite_poly(3, 1.0) == -4.0

    def test_vectorized(self):
        y = np.linspace(-2, 2, 7)
        assert np.allclose(spectra.hermite_poly(2, y), 4 * y ** 2 - 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            spectra.hermite_poly(-1, 0.0)

    def test_node_count_matches_order(self):
        y = np.linspace(-12, 12, 20001)
        for n in (1, 3, 6, 10):
            vals = spectra.hermite_poly(n, y)
            sign_changes = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
            assert sign_changes == n


def _center(lam, n_max=0):
    return spectra.OscillatorSpectrum(ProtocolKind.CENTER, lam, n_max)


def _spring(omega, n_max=0):
    return spectra.OscillatorSpectrum(ProtocolKind.SPRING, omega, n_max)


class TestCenterSpectrum:
    def test_eigenvalues(self):
        # work units of hbar*omega/2: E_n = 2n + 1 + lambda^2/4
        assert _center(0.0).work_energy(0) == 1.0
        assert _center(0.0).work_energy(2) == 5.0
        assert _center(1.0).work_energy(0) == 1.25

    def test_eigenvalue_monotone(self):
        for lam in (0.0, 0.7):
            e = [_center(lam).work_energy(n) for n in range(30)]
            assert all(b > a for a, b in zip(e, e[1:]))

    def test_ground_state_peak(self):
        assert _center(0.0).prob_density(0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))

    def test_odd_state_node_at_center(self):
        assert _center(0.0).prob_density(1, 0.0) == 0.0

    def test_normalization_on_reference_grid(self):
        x = np.linspace(-8.0, 9.0, 4001)
        dens = _center(1.0).prob_density(5, x)
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality_all_low_orders(self):
        x = np.linspace(-10.0, 10.0, 4001)
        for n in range(21):
            dens = _center(0.0).prob_density(n, x)
            assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_translation_covariance(self):
        x = np.linspace(-5.0, 6.0, 501)
        lam = 0.8
        for n in (0, 1, 4):
            shifted = _center(lam).prob_density(n, x)
            base = _center(0.0).prob_density(n, x - 0.5 * lam)
            assert np.array_equal(shifted, base)

    def test_high_order_does_not_overflow(self):
        x = np.linspace(-25, 25, 2001)
        dens = _center(0.0).prob_density(200, x)
        assert np.isfinite(dens).all()
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-7)


class TestSpringSpectrum:
    def test_frequency_ladder(self):
        assert spectra.spring_frequency(1, 0.37) == 1.0
        assert spectra.spring_frequency(11, 0.069) == pytest.approx(1.3, abs=1e-14)
        assert spectra.spring_frequency(2, -0.5) == pytest.approx(math.sqrt(0.5))

    def test_frequency_rejects_inverted_oscillator(self):
        with pytest.raises(ValueError):
            spectra.spring_frequency(3, -0.5)

    def test_eigenvalues(self):
        assert _spring(1.0).work_energy(0) == 0.5
        assert _spring(1.0).work_energy(3) == 3.5
        assert _spring(1.3).work_energy(0) == pytest.approx(0.65)

    def test_ground_state_peak(self):
        assert _spring(1.0).prob_density(0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))

    def test_normalization(self):
        x = np.linspace(-8.0, 8.0, 4001)
        dens = _spring(1.3).prob_density(0, x)
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_variance(self):
        x = np.linspace(-8.0, 8.0, 4001)
        dens = _spring(1.3).prob_density(0, x)
        var = np.trapezoid(x * x * dens, x)
        assert var == pytest.approx(1 / 2.6, abs=1e-8)


class TestAnalyticFreeEnergies:
    def test_center_reference_value(self):
        expected = math.log(math.e - 1 / math.e)
        assert spectra.analytic_free_energy_center(0.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_center_target(self):
        assert spectra.delta_f_target_center(1.0) == 0.25
        assert spectra.delta_f_target_center(0.0) == 0.0

    def test_center_target_is_quadratic(self):
        for lam in (0.3, 1.0, 2.4):
            assert spectra.delta_f_target_center(2 * lam) == pytest.approx(
                4 * spectra.delta_f_target_center(lam), rel=1e-14)

    def test_spring_target_value(self):
        expected = 10.0 * math.log(math.sinh(0.065) / math.sinh(0.05))
        got = spectra.analytic_target_spring(0.1, 1.3)
        assert got == pytest.approx(expected, rel=1e-12)
        # near the classical limit kT ln(omega_s/omega_0) at this temperature
        assert got == pytest.approx(10.0 * math.log(1.3), abs=5e-3)

    def test_spring_target_degenerate(self):
        assert spectra.analytic_target_spring(0.7, 1.0) == 0.0

    def test_spring_target_low_temperature_limit(self):
        assert spectra.analytic_target_spring(500.0, 1.3) == pytest.approx(0.15, abs=1e-6)

    @pytest.mark.parametrize("a", [1e-300, 1e-10, 0.3, 0.4])
    def test_free_energies_keep_their_digits_as_a_vanishes(self, a):
        # both are ln(2 sinh a) / a here; ln(1 - e^{-2a}) must keep its digits
        # as e^{-2a} nears 1
        exact = math.log(2.0 * math.sinh(a)) / a
        assert spectra.analytic_free_energy_center(0.0, a) == pytest.approx(exact, rel=1e-15)
        assert spectra.analytic_free_energy_spring(2.0, a) == pytest.approx(exact, rel=1e-15)

    def test_spring_free_energy_consistent_with_target(self):
        a0 = 0.25
        diff = (spectra.analytic_free_energy_spring(1.3, a0)
                - spectra.analytic_free_energy_spring(1.0, a0))
        assert diff == pytest.approx(spectra.analytic_target_spring(a0, 1.3), rel=1e-12)


class TestThermalVariance:
    def test_center_limits(self):
        assert _center(0.0).thermal_variance(50.0) == pytest.approx(0.5)
        # classical equipartition: var -> kT / (m omega^2) = 1/(2a)
        assert _center(0.0).thermal_variance(1e-4) == pytest.approx(0.5e4, rel=1e-4)

    def test_spring_scaling(self):
        v1 = _spring(1.0).thermal_variance(80.0)
        v13 = _spring(1.3).thermal_variance(80.0)
        assert v1 == pytest.approx(0.5, rel=1e-10)
        assert v13 == pytest.approx(0.5 / 1.3, rel=1e-10)


class TestOscillatorSpectrum:
    def test_work_energy_units(self):
        # center in hbar*omega/2: 2n + 1 + lambda^2/4; spring in hbar*omega_0: (n + 1/2) omega
        for n in range(6):
            assert _center(0.0, 5).work_energy(n) == 2 * n + 1
            assert _spring(1.0, 5).work_energy(n) == n + 0.5
        assert _center(0.4, 5).work_energy(2) == pytest.approx(5.04, rel=1e-15)
        assert _spring(1.1, 5).work_energy(2) == pytest.approx(2.75, rel=1e-15)

    def test_all_densities_match_scalar(self):
        # reference: the raw Hermite recurrence, normalized in closed form,
        # sqrt(omega) H_n(y)^2 exp(-y^2) / (2^n n! sqrt(pi)), y = sqrt(omega) (x - center)
        x = np.linspace(-7.0, 7.0, 281)
        for spec, omega, center in ((_center(0.6, 20), 1.0, 0.3), (_spring(1.3, 20), 1.3, 0.0)):
            stack = spec.all_densities(x)
            y = math.sqrt(omega) * (x - center)
            for n in range(21):
                ref = (math.sqrt(omega) * spectra.hermite_poly(n, y) ** 2 * np.exp(-y * y)
                       / (2.0 ** n * math.factorial(n) * math.sqrt(math.pi)))
                assert np.allclose(stack[n], ref, rtol=1e-12, atol=1e-15)
                assert np.array_equal(spec.prob_density(n, x), stack[n])
                assert spec.prob_density(n, x[7]) == stack[n][7]

    def test_boltzmann_weights_normalized_to_ground(self):
        # exp(-beta (E_n - E_0)) in work units: 2 a n for center, a0 omega n for spring
        for kind, control, a, gap in ((ProtocolKind.CENTER, 0.0, 1.0, 2.0),
                                      (ProtocolKind.SPRING, 1.3, 0.7, 0.7 * 1.3)):
            w = spectra.OscillatorSpectrum(kind, control, 3).boltzmann_weights(a)
            assert w[0] == 1.0
            assert np.allclose(w, np.exp(-gap * np.arange(4)), rtol=1e-14)

    def test_step_methods_match_pipeline_and_oracles(self):
        from stepwork.protocol import build_center_schedule, build_spring_schedule
        from stepwork.workdist import step_work_map

        x = np.linspace(-2.0, 2.0, 9)
        center = build_center_schedule(1.0, 5, 2.0, 3)
        spring = build_spring_schedule(1.3, 5, 0.5, 3)
        for i in range(1, 5):
            spec = center.spectrum(i)
            lam, dlam = center.controls[i - 1], center.increment
            assert (spec.omega, spec.center, spec.offset, spec.unit) == (
                1.0, lam / 2, lam * lam / 8, 2.0)
            assert np.allclose(spec.work_increment(dlam, x), dlam * (lam + dlam / 2 - x),
                               rtol=1e-14, atol=1e-15)
            assert spec.free_energy(2.0) == spectra.analytic_free_energy_center(lam, 2.0)
            assert spec.target(2.0) == spectra.delta_f_target_center(lam)

            spec = spring.spectrum(i)
            omega, delta = spring.controls[i - 1], spring.increment
            assert (spec.omega, spec.center, spec.offset, spec.unit) == (omega, 0.0, 0.0, 1.0)
            assert np.allclose(spec.work_increment(delta, x), delta * x * x / 2, rtol=1e-14)
            assert spec.free_energy(0.5) == spectra.analytic_free_energy_spring(omega, 0.5)
            assert spec.target(0.5) == spectra.analytic_target_spring(0.5, omega)
        for sch in (center, spring):
            for i in range(1, 5):
                assert np.array_equal(step_work_map(sch, i, x),
                                      sch.spectrum(i).work_increment(sch.increment, x))


def _gauss_hermite_state_factors(kappa, n_max, nodes=260):
    """<n| exp(-kappa y^2) |n> for n = 0..n_max by Gauss-Hermite quadrature.

    With z = sqrt(1 + kappa) y the integrand is exp(-z^2) times a polynomial
    of degree 2 n_max in z, which the rule integrates exactly for n_max < nodes.
    """
    z, w = np.polynomial.hermite.hermgauss(nodes)
    y = z / math.sqrt(1.0 + kappa)
    # h_n = H_n / sqrt(2^n n! sqrt(pi)), orthonormal under exp(-y^2)
    h_prev, h = np.zeros_like(y), np.full_like(y, math.pi ** -0.25)
    out = []
    for n in range(n_max + 1):
        out.append(np.sum(w * h * h) / math.sqrt(1.0 + kappa))
        h_prev, h = h, math.sqrt(2.0 / (n + 1)) * y * h - math.sqrt(n / (n + 1)) * h_prev
    return np.array(out)


class TestWorkExpectations:
    def test_spring_state_factors_match_gauss_hermite(self):
        # omega = 1 and increment = 2 make kappa = t
        kappas = np.logspace(-4.0, math.log10(300.0), 15)
        spec = _spring(np.ones(kappas.size), 200)
        got = np.exp(spec._log_state_expectations(2.0, kappas))
        for j, kappa in enumerate(kappas):
            ref = _gauss_hermite_state_factors(kappa, 200)
            assert np.allclose(got[:, j], ref, rtol=0.0, atol=1e-12), kappa

    @pytest.mark.parametrize("s, a", [(51, 2.0 ** l) for l in range(-4, 5)] + [(101, 1.0)])
    def test_center_profile_matches_laguerre_oracle(self, s, a, oracles):
        from stepwork.protocol import build_center_schedule

        sch = build_center_schedule(1.0, s, a, 10)
        log_avg = sch.steps.work_expectations(sch.increment, a, a)[0][:-1]
        exact = oracles.center_exact_profile(1.0, s, a, 10)
        assert np.allclose(np.cumsum(-log_avg / a), exact[1:], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind, control", [(ProtocolKind.CENTER, 0.6),
                                               (ProtocolKind.SPRING, 1.3)])
    def test_moments_match_dense_quadrature(self, kind, control):
        # E[dW] and Var[dW] of the mixed density on a fine x grid
        spec = spectra.OscillatorSpectrum(kind, control, 20)
        x = np.linspace(-12.0, 12.0, 48001)
        a, increment = 0.3, 0.2
        f = spec.boltzmann_weights(a) @ spec.all_densities(x)
        f /= np.trapezoid(f, x)
        dw = spec.work_increment(increment, x)
        mean = np.trapezoid(dw * f, x)
        var = np.trapezoid((dw - mean) ** 2 * f, x)
        _, got_mean, got_var = spec.work_expectations(increment, a, a)
        assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert got_var == pytest.approx(var, rel=1e-12, abs=1e-15)

    def test_steps_together_match_one_at_a_time(self):
        for kind, controls in ((ProtocolKind.CENTER, [0.0, 0.25, 0.5]),
                               (ProtocolKind.SPRING, [1.0, 1.1, 1.2])):
            together = spectra.OscillatorSpectrum(kind, np.array(controls), 7)
            rows = np.array(together.work_expectations(0.25, 2.0, 3.0))
            for j, control in enumerate(controls):
                alone = spectra.OscillatorSpectrum(kind, control, 7)
                assert np.allclose(rows[:, j], alone.work_expectations(0.25, 2.0, 3.0),
                                   rtol=1e-14, atol=0.0)

    def test_no_overflow_at_any_temperature(self):
        # a cold, strongly tilted center step: exp(k^2/4) and L_200 overflow
        # float64 and the excited weights underflow, but not their logs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            log_avg, mean, var = _center(0.0, 200).work_expectations(0.1, 1000.0, 1000.0)
            assert log_avg == pytest.approx(2500.0 - 5.0, rel=1e-15)
            assert (mean, var) == (pytest.approx(0.005), pytest.approx(0.005))
            log_avg = _spring(1.0, 200).work_expectations(1e-3, 1e6, 1e6)[0]
            assert log_avg == pytest.approx(-0.5 * math.log1p(500.0), rel=1e-15)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(stepwork.__path__)])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"stepwork.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
