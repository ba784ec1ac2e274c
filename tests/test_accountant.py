"""Hockey-stick Gaussian accounting, calibration, and the convergence floor.

Oracles, defined ahead of the tests that use them:
- ``hockey_stick_quadrature``: numerical integration of max(0, p - e^eps q)
  between two unit-variance Gaussians a sensitivity apart,
- ``grid_sweep_sigma``: exhaustive bracket scan for the smallest feasible
  noise multiplier,
- scipy's normal CDF / log-CDF as the special-function reference.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats

import fedsofim.accountant as accountant_module
from fedsofim.accountant import (
    calibrate_sigma,
    compose_adaptive,
    composed_delta,
    log_normal_cdf,
    noise_floor,
    normal_cdf,
    sensitivity,
    single_round_delta,
    theoretical_floor,
)


def hockey_stick_quadrature(epsilon, delta_sens, sigma):
    """Integrate max(0, p(x) - e^eps q(x)) for N(0, s^2) vs N(sens, s^2).

    The integrand is positive exactly below the likelihood-ratio crossover
    x* = sens/2 - eps s^2 / sens, so integrating (-inf, x*] captures all of
    it without the kink hurting the quadrature.
    """
    crossover = delta_sens / 2.0 - epsilon * sigma**2 / delta_sens

    def integrand(x):
        p = stats.norm.pdf(x, loc=0.0, scale=sigma)
        q = stats.norm.pdf(x, loc=delta_sens, scale=sigma)
        return max(0.0, p - math.exp(epsilon) * q)

    value, _ = integrate.quad(integrand, -np.inf, crossover, epsabs=1e-13, limit=300)
    return value


def grid_sweep_sigma(epsilon, delta, n, T, points=10_000):
    """Smallest feasible sigma_g on a fine geometric grid over the bracket."""
    grid = np.geomspace(1e-3, 1e6, points)
    feasible = [s for s in grid if composed_delta(epsilon, float(s), n, T) <= delta]
    return float(min(feasible))


class TestNormalCdf:
    def test_matches_scipy_in_the_central_range(self):
        xs = np.linspace(-37.0, 8.0, 901)
        ours = np.array([normal_cdf(float(x)) for x in xs])
        ref = stats.norm.cdf(xs)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_complement_identity(self):
        for x in np.linspace(-8.0, 8.0, 161):
            np.testing.assert_allclose(normal_cdf(x) + normal_cdf(-x), 1.0, atol=1e-14)

    def test_log_cdf_matches_scipy_far_into_the_tail(self):
        xs = np.concatenate([np.linspace(-300.0, -8.0, 200), np.linspace(-8.0, 8.0, 100)])
        ours = np.array([log_normal_cdf(float(x)) for x in xs])
        ref = stats.norm.logcdf(xs)
        # atol covers the right tail where log(cdf) -> 0 and relative error
        # is undefined; everywhere else the rtol is binding.
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-15)

    def test_log_cdf_is_consistent_with_cdf_where_both_work(self):
        for x in np.linspace(-30.0, 5.0, 71):
            np.testing.assert_allclose(math.exp(log_normal_cdf(x)), normal_cdf(x), rtol=1e-11)


class TestSensitivity:
    def test_worked_examples(self):
        assert sensitivity(10.0, 10) == 2.0
        assert sensitivity(5.0, 1) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError, match="c_g must be positive"):
            sensitivity(0.0, 1)
        with pytest.raises(ValueError, match="d_min must be >= 1"):
            sensitivity(1.0, 0)


class TestSingleRoundDelta:
    def test_infinite_noise_limit(self):
        assert single_round_delta(1.0, 1.0, 1e6) < 1e-12

    def test_symmetric_point_with_unit_arguments(self):
        # ratio sigma/sens = 1/2 and eps = 0 puts both CDF arguments at +-1,
        # where the mass is Phi(1) - Phi(-1); 12-digit erfc reference value.
        got = single_round_delta(0.0, 2.0, 1.0)
        np.testing.assert_allclose(got, 0.6826894921370859, atol=1e-12)

    def test_unit_parameters_match_quadrature(self):
        closed = single_round_delta(1.0, 1.0, 1.0)
        oracle = hockey_stick_quadrature(1.0, 1.0, 1.0)
        assert abs(closed - oracle) <= 1e-8

    def test_random_triples_match_quadrature(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            epsilon = float(rng.uniform(0.0, 4.0))
            sens = float(rng.uniform(0.2, 3.0))
            sigma = float(rng.uniform(0.3, 3.0)) * sens
            closed = single_round_delta(epsilon, sens, sigma)
            oracle = hockey_stick_quadrature(epsilon, sens, sigma)
            assert abs(closed - oracle) <= 1e-8, (epsilon, sens, sigma)

    def test_stays_in_unit_interval_under_extreme_budgets(self):
        for epsilon in (0.0, 1.0, 50.0, 200.0, 1000.0):
            for ratio in (1e-3, 0.1, 1.0, 10.0, 1e3):
                value = single_round_delta(epsilon, 1.0, ratio)
                assert math.isfinite(value)
                assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma_release must be positive"):
            single_round_delta(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="delta_sens must be positive"):
            single_round_delta(1.0, 0.0, 1.0)
        for epsilon in (-0.5, math.nan):
            with pytest.raises(ValueError, match="epsilon must be nonnegative"):
                single_round_delta(epsilon, 1.0, 1.0)


class TestComposedDelta:
    def test_single_round_substitution_unwinds_exactly(self):
        # With power-of-two clipping radius and dataset size the sensitivity
        # and release scale cancel without rounding, so T = 1 composition
        # must equal the single-round closed form bit-for-bit.
        c_g, d_min, n, sigma_g = 8.0, 4, 5, 1.5
        composed = composed_delta(1.0, sigma_g, n, 1)
        single = single_round_delta(
            1.0, sensitivity(c_g, d_min), c_g * sigma_g / (math.sqrt(n) * d_min)
        )
        assert composed == single

    def test_single_round_substitution_for_generic_parameters(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            c_g = float(rng.uniform(0.5, 20.0))
            d_min = int(rng.integers(1, 50))
            n = int(rng.integers(1, 200))
            sigma_g = float(rng.uniform(0.5, 30.0))
            epsilon = float(rng.uniform(0.0, 5.0))
            composed = composed_delta(epsilon, sigma_g, n, 1)
            single = single_round_delta(
                epsilon, sensitivity(c_g, d_min), c_g * sigma_g / (math.sqrt(n) * d_min)
            )
            np.testing.assert_allclose(composed, single, rtol=1e-11, atol=1e-300)

    def test_unit_effective_ratio_reference_value(self):
        # sqrt(nT)/sigma_g = 1 at eps = 0 leaves Phi(1) - Phi(-1).
        got = composed_delta(0.0, 100.0, 100, 100)
        np.testing.assert_allclose(got, 0.6826894921370859, atol=1e-12)

    def test_huge_noise_limit(self):
        assert composed_delta(2.0, 1e9, 20, 70) <= 1e-12

    def test_strictly_decreasing_in_sigma(self):
        values = [composed_delta(1.0, float(s), 20, 70) for s in np.geomspace(6.0, 600.0, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_epsilon(self):
        values = [composed_delta(float(e), 40.0, 20, 70) for e in np.linspace(0.0, 6.0, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_never_increases_in_sigma_over_the_full_bracket(self):
        values = [composed_delta(1.0, float(s), 20, 70) for s in np.geomspace(1e-3, 1e6, 60)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_finite_at_tight_budget_and_tiny_noise(self):
        value = composed_delta(50.0, 0.1, 20, 70)
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma_g must be positive"):
            composed_delta(1.0, 0.0, 20, 70)
        with pytest.raises(ValueError, match="n and T must be >= 1"):
            composed_delta(1.0, 1.0, 0, 70)
        # A count is an int and not a bool: 2.5 clients or T=True would compose as a count.
        for n, T, name in ((2.5, 70, "n"), (True, 70, "n"), (20.0, 70, "n"), (20, 70.0, "T"), (20, False, "T")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                composed_delta(1.0, 1.0, n, T)


class TestCalibrateSigma:
    EPSILONS = (0.5, 1.0, 2.0, 5.0, 10.0)
    REGIMES = ((20, 70), (100, 70))

    def test_round_trip_meets_the_target(self):
        for n, T in self.REGIMES:
            for epsilon in self.EPSILONS:
                sigma = calibrate_sigma(epsilon, 1e-5, n, T)
                assert composed_delta(epsilon, sigma, n, T) <= 1e-5

    def test_result_is_minimal_to_a_tenth_of_a_percent(self):
        for n, T in self.REGIMES:
            for epsilon in self.EPSILONS:
                sigma = calibrate_sigma(epsilon, 1e-5, n, T)
                assert composed_delta(epsilon, sigma * (1.0 - 2e-3), n, T) > 1e-5

    def test_tighter_epsilon_needs_more_noise(self):
        sigmas = [calibrate_sigma(e, 1e-5, 20, 70) for e in (0.5, 1.0, 2.0)]
        assert sigmas[0] > sigmas[1] > sigmas[2]

    def test_matches_exhaustive_grid_sweep(self):
        sigma = calibrate_sigma(2.0, 1e-5, 20, 70)
        oracle = grid_sweep_sigma(2.0, 1e-5, 20, 70, points=10_000)
        # the geometric grid itself is only log(1e9)/1e4 = 0.2% fine
        assert abs(sigma - oracle) / oracle <= 3e-3
        assert composed_delta(2.0, sigma, 20, 70) <= 1e-5

    def test_unreachable_target_raises(self):
        # at eps ~ 0 the composed curve cannot fall below ~1e-6 anywhere in
        # the bracket for n = T = 1, so a 1e-12 target must be refused.
        with pytest.raises(ValueError, match="unreachable within sigma_g <= 1000000.0"):
            calibrate_sigma(1e-9, 1e-12, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"delta must lie in \(0,1\)"):
            calibrate_sigma(1.0, 0.0, 20, 70)
        with pytest.raises(ValueError, match=r"delta must lie in \(0,1\)"):
            calibrate_sigma(1.0, 1.0, 20, 70)
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            calibrate_sigma(math.nan, 1e-5, 20, 70)
        # Two and a half clients used to calibrate to 23.61.
        with pytest.raises(ValueError, match="^n must be an integer$"):
            calibrate_sigma(5.0, 1e-5, 2.5, 70)
        with pytest.raises(ValueError, match="^T must be an integer$"):
            calibrate_sigma(5.0, 1e-5, 20, True)

    def test_a_nan_or_infinite_epsilon_is_refused_before_bisecting(self, monkeypatch):
        # An infinite target used to return the bottom of the bracket.
        def refuse(*args):
            raise AssertionError("composed_delta evaluated for a non-finite target")

        monkeypatch.setattr(accountant_module, "composed_delta", refuse)
        for epsilon in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^epsilon must be nonnegative and finite$"):
                calibrate_sigma(epsilon, 1e-5, 20, 70)

    def test_composed_delta_keeps_delta_zero_at_infinite_epsilon(self):
        assert composed_delta(math.inf, 1.0, 20, 70) == 0.0


class TestComposeAdaptive:
    def test_three_identical_rounds(self):
        assert compose_adaptive([(1.0, 1e-6)] * 3) == (3.0, 3e-6)

    def test_single_round_is_the_identity(self):
        assert compose_adaptive([(0.7, 2e-8)]) == (0.7, 2e-8)

    def test_mixed_budgets_sum(self):
        eps, delta = compose_adaptive([(0.5, 1e-7), (1.5, 2e-7)])
        assert eps == 2.0
        np.testing.assert_allclose(delta, 3e-7, rtol=1e-15)

    def test_summation_is_order_robust(self):
        rng = np.random.default_rng(83)
        budgets = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1e-6))) for _ in range(500)]
        eps, delta = compose_adaptive(budgets)
        np.testing.assert_allclose(eps, math.fsum(b[0] for b in budgets), rtol=1e-15)
        np.testing.assert_allclose(delta, math.fsum(b[1] for b in budgets), rtol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty per-round budget list"):
            compose_adaptive([])


class TestNoiseFloor:
    def test_worked_example_with_equal_sizes(self):
        nu_sq, uniform = noise_floor(10.0, 2.0, 4, [10, 10, 10, 10])
        np.testing.assert_allclose(nu_sq, 0.25, rtol=1e-15)
        np.testing.assert_allclose(uniform, 0.25, rtol=1e-15)

    def test_sigma_zero_means_no_noise(self):
        assert noise_floor(10.0, 0.0, 4, [10, 10, 10, 10]) == (0.0, 0.0)

    def test_equal_sizes_collapse_to_the_simple_formula(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            m = int(rng.integers(1, 100))
            c_g = float(rng.uniform(0.1, 20.0))
            sigma_g = float(rng.uniform(0.1, 5.0))
            nu_sq, uniform = noise_floor(c_g, sigma_g, n, [m] * n)
            simple = (c_g * sigma_g) ** 2 / (n**2 * m**2)
            np.testing.assert_allclose(nu_sq, simple, rtol=1e-12)
            np.testing.assert_allclose(uniform, simple, rtol=1e-12)

    def test_mixed_sizes_match_full_precision_summation(self):
        sizes = [5, 10, 20, 40]
        c_g, sigma_g = 10.0, 2.0
        nu_sq, uniform = noise_floor(c_g, sigma_g, 4, sizes)
        oracle = (c_g * sigma_g) ** 2 / 4**3 * math.fsum(1.0 / m**2 for m in sizes)
        np.testing.assert_allclose(nu_sq, oracle, rtol=1e-14)
        bound = (c_g * sigma_g) ** 2 / (4 * min(sizes)) ** 2
        np.testing.assert_allclose(uniform, bound, rtol=1e-14)
        assert nu_sq <= uniform

    def test_validation(self):
        with pytest.raises(ValueError, match="expected 3 dataset sizes, got 2"):
            noise_floor(1.0, 1.0, 3, [5, 5])
        for sizes in ([5, 0], [-5, 10], [5, math.nan]):
            with pytest.raises(ValueError, match="every dataset size must be >= 1"):
                noise_floor(1.0, 1.0, 2, sizes)
        with pytest.raises(ValueError, match="sigma_g must be nonnegative"):
            noise_floor(1.0, math.nan, 2, [5, 5])


class TestTheoreticalFloor:
    PARAMS = dict(mu=0.05, L=5.0, eta=0.5, rho=2.0, beta=0.9, c_g=5.0,
                  nu_sq=0.0025, d=20, zeta_max=0.3, g_max=6.0, tau1=0.25, tau2=0.25)

    def test_matches_an_independent_term_by_term_evaluation(self):
        p = self.PARAMS
        gamma, floor, rate = theoretical_floor(**p)

        m_bar_sq = p["c_g"] ** 2 + (1.0 - p["beta"]) * p["d"] * p["nu_sq"]
        expected_gamma = (
            p["eta"] * p["g_max"] ** 2 * m_bar_sq / p["rho"] ** 2
            + p["eta"] * p["zeta_max"] ** 2 / (2.0 * p["tau1"] * p["rho"] ** 2)
            + p["eta"] * p["d"] * p["nu_sq"] / (2.0 * p["tau2"] * p["rho"] ** 2)
            + p["L"] * p["eta"] ** 2 * (p["c_g"] ** 2 + p["d"] * p["nu_sq"])
            / (2.0 * p["rho"] ** 2)
        )
        c_grad = 1.0 / p["rho"] - (p["tau1"] + p["tau2"]) / 2.0
        expected_rate = 1.0 - 2.0 * p["mu"] * p["eta"] * c_grad
        expected_floor = expected_gamma / (2.0 * p["mu"] * p["eta"] * c_grad)

        np.testing.assert_allclose(gamma, expected_gamma, rtol=1e-14)
        np.testing.assert_allclose(rate, expected_rate, rtol=1e-14)
        np.testing.assert_allclose(floor, expected_floor, rtol=1e-14)

    def test_degenerate_inputs_leave_only_the_curvature_term(self):
        p = dict(self.PARAMS, nu_sq=0.0, zeta_max=0.0, g_max=0.0)
        gamma, _, _ = theoretical_floor(**p)
        expected = p["L"] * p["eta"] ** 2 * p["c_g"] ** 2 / (2.0 * p["rho"] ** 2)
        np.testing.assert_allclose(gamma, expected, rtol=1e-15)

    def test_vanishing_step_size_limits(self):
        p = self.PARAMS
        limit = (
            p["g_max"] ** 2 * (p["c_g"] ** 2 + 0.1 * p["d"] * p["nu_sq"]) / p["rho"] ** 2
            + p["zeta_max"] ** 2 / (2.0 * p["tau1"] * p["rho"] ** 2)
            + p["d"] * p["nu_sq"] / (2.0 * p["tau2"] * p["rho"] ** 2)
        ) / (2.0 * p["mu"] * (1.0 / p["rho"] - (p["tau1"] + p["tau2"]) / 2.0))
        _, floor_small, rate_small = theoretical_floor(**dict(p, eta=1e-7))
        np.testing.assert_allclose(floor_small, limit, rtol=1e-5)
        assert 0.0 < rate_small < 1.0
        assert rate_small > theoretical_floor(**dict(p, eta=1e-3))[2]

    def test_contraction_condition_enforced(self):
        p = self.PARAMS
        with pytest.raises(ValueError, match="c_grad = 1/rho"):
            theoretical_floor(**dict(p, tau1=1.0, tau2=1.0))
        with pytest.raises(ValueError, match=r"contraction rate must lie in \(0,1\)"):
            theoretical_floor(**dict(p, eta=1e9))
        with pytest.raises(ValueError, match="tau1 and tau2 must be positive"):
            theoretical_floor(**dict(p, tau1=0.0))
