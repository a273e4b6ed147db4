import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from numpy.polynomial import laguerre
from reference import (full_work_expectations, hermite_poly, prob_density,
                       two_pass_density_stack)

import stepwork
from stepwork import spectra
from stepwork.spectra import ProtocolKind


class TestHermite:
    def test_low_orders(self):
        assert hermite_poly(0, 3.7) == 1.0
        assert hermite_poly(1, 0.5) == 1.0
        assert hermite_poly(3, 1.0) == -4.0

    def test_vectorized(self):
        y = np.linspace(-2, 2, 7)
        assert np.allclose(hermite_poly(2, y), 4 * y ** 2 - 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)

    def test_node_count_matches_order(self):
        y = np.linspace(-12, 12, 20001)
        for n in (1, 3, 6, 10):
            vals = hermite_poly(n, y)
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
        assert prob_density(_center(0.0), 0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))

    def test_odd_state_node_at_center(self):
        assert prob_density(_center(0.0), 1, 0.0) == 0.0

    def test_normalization_on_reference_grid(self):
        x = np.linspace(-8.0, 9.0, 4001)
        dens = prob_density(_center(1.0), 5, x)
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality_all_low_orders(self):
        x = np.linspace(-10.0, 10.0, 4001)
        for n in range(21):
            dens = prob_density(_center(0.0), n, x)
            assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_translation_covariance(self):
        x = np.linspace(-5.0, 6.0, 501)
        lam = 0.8
        for n in (0, 1, 4):
            shifted = prob_density(_center(lam), n, x)
            base = prob_density(_center(0.0), n, x - 0.5 * lam)
            assert np.array_equal(shifted, base)

    def test_high_order_does_not_overflow(self):
        x = np.linspace(-25, 25, 2001)
        dens = prob_density(_center(0.0), 200, x)
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
        assert prob_density(_spring(1.0), 0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))

    def test_normalization(self):
        x = np.linspace(-8.0, 8.0, 4001)
        dens = prob_density(_spring(1.3), 0, x)
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_variance(self):
        x = np.linspace(-8.0, 8.0, 4001)
        dens = prob_density(_spring(1.3), 0, x)
        var = np.trapezoid(x * x * dens, x)
        assert var == pytest.approx(1 / 2.6, abs=1e-8)


class TestAnalyticFreeEnergies:
    # the methods against closed forms written out here: ln(2 sinh z) / a,
    # lambda^2/4 and ln(sinh(a0 r/2) / sinh(a0/2)) / a0
    def test_center_reference_value(self):
        expected = math.log(math.e - 1 / math.e)
        assert _center(0.0).free_energy(1.0) == pytest.approx(expected, rel=1e-12)

    def test_center_target(self):
        assert _center(1.0).target(1.0) == 0.25
        assert _center(0.0).target(1.0) == 0.0

    def test_center_target_is_quadratic(self):
        for lam in (0.3, 1.0, 2.4):
            assert _center(2 * lam).target(1.0) == pytest.approx(
                4 * (0.25 * lam * lam), rel=1e-14)

    def test_spring_target_value(self):
        expected = 10.0 * math.log(math.sinh(0.065) / math.sinh(0.05))
        got = _spring(1.3).target(0.1)
        assert got == pytest.approx(expected, rel=1e-12)
        # near the classical limit kT ln(omega_s/omega_0) at this temperature
        assert got == pytest.approx(10.0 * math.log(1.3), abs=5e-3)

    def test_spring_target_degenerate(self):
        assert _spring(1.0).target(0.7) == 0.0

    def test_spring_target_low_temperature_limit(self):
        assert _spring(1.3).target(500.0) == pytest.approx(0.15, abs=1e-6)

    @pytest.mark.parametrize("a", [1e-300, 1e-10, 0.3, 0.4])
    def test_free_energies_keep_their_digits_as_a_vanishes(self, a):
        # both are ln(2 sinh a) / a here; ln(1 - e^{-2a}) must keep its digits
        # as e^{-2a} nears 1
        exact = math.log(2.0 * math.sinh(a)) / a
        assert _center(0.0).free_energy(a) == pytest.approx(exact, rel=1e-15)
        assert _spring(2.0).free_energy(a) == pytest.approx(exact, rel=1e-15)

    def test_spring_free_energy_consistent_with_target(self):
        a0 = 0.25
        exact = math.log(math.sinh(a0 * 1.3 / 2) / math.sinh(a0 / 2)) / a0
        diff = _spring(1.3).free_energy(a0) - _spring(1.0).free_energy(a0)
        assert diff == pytest.approx(exact, rel=1e-12)
        assert _spring(1.3).target(a0) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(ProtocolKind), as_array=st.booleans(),
           log_a=st.floats(math.log(1e-300), math.log(700.0)),
           controls=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
           ratios=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))
    def test_methods_match_the_closed_forms(self, kind, as_array, log_a, controls, ratios):
        a = math.exp(log_a)
        center = kind is ProtocolKind.CENTER
        controls = controls if center else ratios
        if as_array:
            spec = spectra.OscillatorSpectrum(kind, np.array(controls), 0)
            free, target = spec.free_energy(a), spec.target(a)
        else:
            free, target = zip(*((spec.free_energy(a), spec.target(a)) for spec in (
                spectra.OscillatorSpectrum(kind, c, 0) for c in controls)))
        for c, f, t in zip(controls, free, target):
            if center:
                f_exact = math.log(2.0 * math.sinh(a)) / a + 0.25 * c * c
                t_exact = 0.25 * c * c
            else:
                f_exact = math.log(2.0 * math.sinh(0.5 * a * c)) / a
                t_exact = math.log(math.sinh(0.5 * a * c) / math.sinh(0.5 * a)) / a
            bound = 1e-14 * max(1.0, abs(f_exact))
            assert abs(f - f_exact) <= bound, (c, a)
            if center and abs(c) >= 1e-150:
                assert t == t_exact, (c, a)
            else:
                assert abs(t - t_exact) <= bound, (c, a)


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
                ref = (math.sqrt(omega) * hermite_poly(n, y) ** 2 * np.exp(-y * y)
                       / (2.0 ** n * math.factorial(n) * math.sqrt(math.pi)))
                assert np.allclose(stack[n], ref, rtol=1e-12, atol=1e-15)
                assert np.array_equal(prob_density(spec, n, x), stack[n])
                assert prob_density(spec, n, x[7]) == stack[n][7]

    @settings(max_examples=40, deadline=None)
    @given(n_max=st.integers(0, 300), omega=st.floats(0.01, 100.0), center=st.floats(-10.0, 10.0),
           points=st.integers(1, 3_000), half_width=st.floats(0.1, 40.0))
    def test_stack_matches_the_two_pass_recurrence(self, n_max, omega, center, points,
                                                   half_width):
        # the stack squares each row as the recurrence makes it; a full Hermite
        # stack squared afterwards has the same bits
        x = np.linspace(center - half_width, center + half_width, points)
        assert np.array_equal(_spring(omega, n_max).all_densities(x),
                              two_pass_density_stack(n_max, omega, 0.0, x))
        assert np.array_equal(_center(2.0 * center, n_max).all_densities(x),
                              two_pass_density_stack(n_max, 1.0, center, x))
        assert np.array_equal(spectra._density_stack(n_max, omega, center, x),
                              two_pass_density_stack(n_max, omega, center, x))

    def test_stack_is_the_only_array_of_its_size(self, traced_peak):
        # two recurrence rows and their temporaries, about 6 rows, beyond the
        # stack; a full Hermite stack next to its square would double it
        x = np.linspace(-20.0, 20.0, 5_975)
        spec = _spring(1.0, 200)
        assert traced_peak(lambda: spec.all_densities(x)) <= 8 * (spec.n_max + 1 + 10) * x.size

    def test_boltzmann_weights_normalized_to_ground(self):
        # exp(-beta (E_n - E_0)) in work units: 2 a n for center, a0 omega n for spring
        for kind, control, a, gap in ((ProtocolKind.CENTER, 0.0, 1.0, 2.0),
                                      (ProtocolKind.SPRING, 1.3, 0.7, 0.7 * 1.3)):
            w = spectra.OscillatorSpectrum(kind, control, 3).boltzmann_weights(a)
            assert w[0] == 1.0
            assert np.allclose(w, np.exp(-gap * np.arange(4)), rtol=1e-14)

    @pytest.mark.parametrize("spec", [_center(0.0, 5), _spring(1.3, 5)])
    def test_boltzmann_weights_at_a_huge_a(self, spec):
        # a n unit omega overflows to inf: every excited weight is exp(-inf) = 0,
        # and the ground weight stays 1, not exp(-inf * 0) = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = spec.boltzmann_weights(1e308)
        assert w.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

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
            assert spec.free_energy(2.0) == pytest.approx(
                math.log(2.0 * math.sinh(2.0)) / 2.0 + 0.25 * lam * lam, rel=1e-14)
            assert spec.target(2.0) == 0.25 * lam * lam

            spec = spring.spectrum(i)
            omega, delta = spring.controls[i - 1], spring.increment
            assert (spec.omega, spec.center, spec.offset, spec.unit) == (omega, 0.0, 0.0, 1.0)
            assert np.allclose(spec.work_increment(delta, x), delta * x * x / 2, rtol=1e-14)
            assert spec.free_energy(0.5) == pytest.approx(
                math.log(2.0 * math.sinh(0.25 * omega)) / 0.5, rel=1e-14)
            assert spec.target(0.5) == pytest.approx(
                math.log(math.sinh(0.25 * omega) / math.sinh(0.25)) / 0.5, rel=1e-14, abs=1e-14)
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
        got = np.exp(spec._log_state_expectations(2.0, kappas, 200))
        for j, kappa in enumerate(kappas):
            ref = _gauss_hermite_state_factors(kappa, 200)
            assert np.allclose(got[:, j], ref, rtol=0.0, atol=1e-12), kappa

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(ProtocolKind), steps=st.integers(2, 4),
           log_a=st.floats(-2.0, 4.0), t_over_a=st.sampled_from([1.0, 2.0]),
           n_max=st.integers(0, 500), ratio=st.floats(0.5, 2.0),
           increment=st.floats(-2.0, 2.0))
    def test_summed_states_change_no_bit(self, kind, steps, log_a, t_over_a, n_max, ratio,
                                         increment):
        # every state past n_eff weighs exactly 0, so the cut sum equals the
        # sum over all n_max + 1 states bit for bit, wherever that is finite;
        # a spring ratio below 1 softens (kappa < 0), where every state is summed;
        # at kappa <= -1 the expectation diverges
        a, t = 10.0 ** log_a, t_over_a * 10.0 ** log_a
        if kind is ProtocolKind.SPRING:
            increment = (ratio * ratio - 1.0) / (steps - 1)
            controls = np.sqrt(1.0 + increment * np.arange(steps))
            assume(0.5 * t * increment / controls.min() > -1.0)
        else:
            controls = increment * np.arange(steps)
        spec = spectra.OscillatorSpectrum(kind, controls, n_max)
        ref = full_work_expectations(spec, increment, a, t)
        assume(all(np.isfinite(v).all() for v in ref))
        n_eff = spec._effective_n_max(increment, a, t)
        with np.errstate(over="ignore"):
            # the zero-weight fault the cut mends: a dropped state whose
            # expm1(ln E_n) overflows made the full near-one sum read 0 * inf
            dropped = spec._log_state_expectations(increment, t, n_max)[n_eff + 1:]
            assume(np.isfinite(np.expm1(dropped)).all())
        event("cut" if n_eff < n_max else "no cut")
        got = spec.work_expectations(increment, a, t)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    def test_states_run_stop_at_the_last_weighted_one(self, monkeypatch, tmp_path):
        from stepwork.cli import main

        orders = []
        recurrence = spectra._log_recurrence

        def spy(next_step, n_max, shape=()):
            orders.append(n_max)
            return recurrence(next_step, n_max, shape)

        monkeypatch.setattr(spectra, "_log_recurrence", spy)
        # the spring-sweep benchmark's coldest point, a0 = 100: 8 states, not 201
        assert main(["sweep", "--protocol", "spring", "--param", "a", "--nmax", "200",
                     "--s", "61", "--omega-ratio", "1.3", "--values", "100.0",
                     "--out", str(tmp_path / "cold")]) == 0
        assert orders and max(orders) + 1 <= 9
        orders.clear()
        # a0 = 1: about 747 states of the million asked for
        assert main(["sweep", "--protocol", "spring", "--param", "nmax", "--values", "1000000",
                     "--s", "3", "--out", str(tmp_path / "nmax")]) == 0
        assert orders and max(orders) + 1 < 800

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

    @pytest.mark.parametrize("t_over_beta", [1.0, 2.0])
    def test_quiet_outside_the_profile(self, t_over_beta):
        # the mixture sits far from 1, so log1p reads -1 and the log-sum-exp
        # branch gives the value: no warning escapes the method itself
        from stepwork.free_energy import free_energy_profile
        from stepwork.protocol import build_center_schedule

        sch = build_center_schedule(100.0, 3, 1.0, 10)
        t = t_over_beta * sch.beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_avg, mean, var = (v[:-1] for v in sch.steps.work_expectations(
                sch.increment, sch.a, t))
        prof = free_energy_profile(sch)
        assert np.cumsum(mean).tolist() == prof.mean_work[1:].tolist()
        assert np.sqrt(np.cumsum(var)).tolist() == prof.std_work[1:].tolist()
        if t == sch.beta:
            assert np.cumsum((0.0 - log_avg) / t).tolist() == prof.delta_f[1:].tolist()
        # E_n[exp(-t dW)] = exp(-t dW(center) + k^2/4) L_n(-k^2/2), k = t increment,
        # mixed over the weights exp(-2 a n)
        k = t * sch.increment
        n = np.arange(sch.n_max + 1)
        weights = np.exp(-2.0 * sch.a * n)
        mix = weights @ laguerre.lagval(-0.5 * k * k, np.eye(n.size)) / weights.sum()
        assert np.allclose(log_avg, -t * mean + 0.25 * k * k + math.log(mix), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(stepwork.__path__)])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"stepwork.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
