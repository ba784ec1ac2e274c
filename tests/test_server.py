"""Aggregation, momentum, rank-one preconditioning, and the two step rules."""

import math

import numpy as np
import pytest

from fedsofim.core import FederatedConfig, Optimizer, ServerState, validate_config
from fedsofim.oracles import dense_preconditioner
from fedsofim.server import (
    aggregate,
    fedgd_step,
    precondition_apply,
    sofim_step,
    update_momentum,
)
from fedsofim.task import make_synthetic_quadratic


def sofim_config(**overrides):
    base = dict(n=4, T=10, eta=0.5, clip_cg=5.0, sigma_g=0.0, beta=0.9, rho=0.5,
                optimizer=Optimizer.SOFIM)
    base.update(overrides)
    return validate_config(FederatedConfig(**base))


class TestAggregate:
    def test_mean_of_two_unit_vectors(self):
        got = aggregate([[1.0, 0.0], [0.0, 1.0]], 2)
        np.testing.assert_array_equal(got, [0.5, 0.5])

    def test_mean_of_identical_releases_is_the_release(self):
        v = [2.0, -3.0, 0.5]
        got = aggregate([v] * 5, 5)
        np.testing.assert_allclose(got, v, rtol=1e-15)

    def test_matches_full_precision_summation(self):
        rng = np.random.default_rng(51)
        vectors = rng.normal(size=(7, 5))
        got = aggregate(vectors, 7)
        oracle = np.array(
            [math.fsum(vectors[i][j] for i in range(7)) / 7 for j in range(5)]
        )
        np.testing.assert_allclose(got, oracle, rtol=1e-14, atol=1e-16)

    def test_bit_identical_to_numpy_mean(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 70))
            vectors = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3)
            got = aggregate(vectors, n)
            np.testing.assert_array_equal(got, np.mean(list(vectors), axis=0))

    def test_array_and_list_of_rows_give_the_same_bits(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 70))
            rows = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3)
            np.testing.assert_array_equal(aggregate(rows, n), aggregate(list(rows), n))

    def test_empty_list_rejected(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="release rows of one length"):
                aggregate([], n)

    def test_expected_count_enforced(self):
        rows = np.ones((3, 2))
        for releases, n in ((rows, 2), (list(rows), 4)):
            with pytest.raises(ValueError, match=f"expected {n} release rows"):
                aggregate(releases, n)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="release dimension mismatch"):
            aggregate([[1.0, 2.0], [1.0]], 2)

    def test_malformed_rounds_rejected(self):
        for releases, n in (
            (np.ones(3), 3),  # a 1-D input
            (np.empty((0, 2)), 0),  # an empty input
        ):
            with pytest.raises(ValueError, match="release rows of one length"):
                aggregate(releases, n)


class TestUpdateMomentum:
    def test_first_update_from_zero_buffer(self):
        got = update_momentum(np.zeros(2), np.array([1.0, 1.0]), 0.9)
        np.testing.assert_allclose(got, [0.1, 0.1], rtol=1e-15)

    def test_beta_zero_returns_the_gradient_exactly(self):
        g = np.array([0.3, -0.7, 2.0])
        got = update_momentum(np.array([5.0, 5.0, 5.0]), g, 0.0)
        np.testing.assert_array_equal(got, g)

    def test_constant_drive_converges_geometrically(self):
        g = np.array([2.0, -1.0])
        m = np.zeros(2)
        beta = 0.9
        for t in range(200):
            m = update_momentum(m, g, beta)
            closed_form = (1.0 - beta ** (t + 1)) * g
            np.testing.assert_allclose(m, closed_form, rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(m - g) <= 1e-8 * np.linalg.norm(g)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="momentum/gradient dimension mismatch"):
            update_momentum(np.zeros(2), np.zeros(3), 0.5)


class TestPreconditionApply:
    def test_zero_buffer_scales_by_inverse_rho(self):
        g = np.array([3.0, -2.0])
        np.testing.assert_array_equal(precondition_apply(np.zeros(2), g, 0.5), g / 0.5)

    def test_two_dimensional_worked_case(self):
        # m aligned with the first axis turns rho I + m m^T into
        # diag(1.5, 0.5); applying the inverse to (3, 4) gives (2, 8).
        got = precondition_apply(np.array([1.0, 0.0]), np.array([3.0, 4.0]), 0.5)
        np.testing.assert_allclose(got, [2.0, 8.0], rtol=1e-14)
        oracle = np.linalg.solve(np.diag([1.5, 0.5]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(got, oracle, rtol=1e-14)

    def test_matches_dense_inverse_on_random_inputs(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            d = int(rng.integers(1, 65))
            m = rng.normal(size=d) * rng.uniform(0.1, 3.0)
            g = rng.normal(size=d)
            rho = float(rng.uniform(0.1, 4.0))
            fast = precondition_apply(m, g, rho)
            dense = dense_preconditioner(m, rho) @ g
            err = np.linalg.norm(fast - dense) / max(np.linalg.norm(g), 1e-300)
            assert err <= 1e-10

    def test_never_materializes_a_matrix(self):
        import tracemalloc

        d = 200_000
        m = np.ones(d)
        g = np.ones(d)
        tracemalloc.start()
        tracemalloc.reset_peak()
        precondition_apply(m, g, 1.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 50 * d * 8, f"peak allocation {peak} bytes suggests a d x d product"

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            precondition_apply(np.ones(2), np.ones(2), 0.0)

    def test_parallel_and_orthogonal_scalings(self):
        m = np.array([2.0, 0.0, 0.0])
        rho = 0.7
        parallel = precondition_apply(m, m, rho)
        np.testing.assert_allclose(parallel, m / (rho + 4.0), rtol=1e-12)
        v = np.array([0.0, 1.0, -2.0])
        orthogonal = precondition_apply(m, v, rho)
        np.testing.assert_allclose(orthogonal, v / rho, rtol=1e-12)


class TestDensePreconditionerOracle:
    def test_zero_buffer_gives_identity_over_rho(self):
        got = dense_preconditioner(np.zeros(3), 0.25)
        np.testing.assert_allclose(got, np.eye(3) / 0.25, rtol=1e-14)

    def test_two_dimensional_worked_case(self):
        got = dense_preconditioner(np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(got, np.diag([2.0 / 3.0, 2.0]), rtol=1e-12)

    def test_inverse_identity_product(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            d = int(rng.integers(1, 33))
            m = rng.normal(size=d)
            rho = float(rng.uniform(0.2, 3.0))
            h = dense_preconditioner(m, rho)
            product = h @ (rho * np.eye(d) + np.outer(m, m))
            assert np.linalg.norm(product - np.eye(d)) <= 1e-10

    def test_dimension_guard(self):
        dense_preconditioner(np.zeros(256), 1.0)
        with pytest.raises(ValueError, match="guarded to d <= 256, got 257"):
            dense_preconditioner(np.zeros(257), 1.0)


class TestSofimStep:
    def test_zero_gradient_zero_buffer_is_a_fixed_point(self):
        state = ServerState.initial(np.array([1.0, -2.0]))
        config = sofim_config()
        stepped = sofim_step(state, np.zeros(2), config)
        np.testing.assert_array_equal(stepped.theta, state.theta)
        np.testing.assert_array_equal(stepped.momentum, np.zeros(2))
        assert stepped.round == 0

    def test_composition_updates_momentum_before_the_step(self):
        rng = np.random.default_rng(61)
        config = sofim_config()
        state = ServerState(theta=rng.normal(size=8), momentum=rng.normal(size=8), round=3)
        g = rng.normal(size=8)
        stepped = sofim_step(state, g, config)

        new_m = update_momentum(state.momentum, g, config.beta)
        direction = precondition_apply(new_m, g, config.rho)
        np.testing.assert_array_equal(stepped.momentum, new_m)
        np.testing.assert_array_equal(stepped.theta, state.theta - config.eta * direction)
        assert stepped.round == 4

    def test_step_direction_uses_the_new_buffer_not_the_old(self):
        config = sofim_config(beta=0.5, rho=1.0, eta=1.0)
        state = ServerState(theta=np.zeros(2), momentum=np.array([4.0, 0.0]), round=0)
        g = np.array([0.0, 4.0])
        stepped = sofim_step(state, g, config)
        new_m = np.array([2.0, 2.0])
        with_new = precondition_apply(new_m, g, 1.0)
        with_old = precondition_apply(np.array([4.0, 0.0]), g, 1.0)
        np.testing.assert_array_equal(stepped.theta, -with_new)
        assert not np.allclose(with_new, with_old)

    def test_matches_dense_oracle_composition(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            d = int(rng.integers(1, 33))
            config = sofim_config(
                eta=float(rng.uniform(0.05, 1.0)),
                beta=float(rng.uniform(0.0, 0.99)),
                rho=float(rng.uniform(0.2, 2.0)),
            )
            momentum = rng.normal(size=d)
            state = ServerState(theta=rng.normal(size=d), momentum=momentum, round=0)
            g = rng.normal(size=d)
            stepped = sofim_step(state, g, config)
            new_m = config.beta * momentum + (1.0 - config.beta) * g
            dense_dir = dense_preconditioner(new_m, config.rho) @ g
            np.testing.assert_allclose(
                stepped.theta, state.theta - config.eta * dense_dir, rtol=1e-10, atol=1e-12
            )

    def test_large_rho_with_no_memory_approaches_scaled_descent(self):
        config = sofim_config(beta=0.0, rho=1e6, eta=1.0)
        state = ServerState.initial(np.array([1.0, 2.0, 3.0]))
        g = np.array([0.4, -0.2, 0.1])
        stepped = sofim_step(state, g, config)
        explicit = state.theta - (config.eta / config.rho) * g
        np.testing.assert_allclose(stepped.theta, explicit, rtol=1e-6)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sofim_step(ServerState.initial(np.zeros(2)), np.zeros(3), sofim_config())


class TestFedgdStep:
    def test_worked_example(self):
        state = ServerState(theta=np.array([1.0, 1.0]), momentum=np.zeros(2), round=0)
        stepped = fedgd_step(state, np.array([2.0, -2.0]), eta=0.5)
        np.testing.assert_array_equal(stepped.theta, [0.0, 2.0])
        assert stepped.round == 1

    def test_zero_gradient_is_a_fixed_point(self):
        state = ServerState(theta=np.array([3.0]), momentum=np.zeros(1), round=2)
        stepped = fedgd_step(state, np.zeros(1), eta=0.1)
        np.testing.assert_array_equal(stepped.theta, state.theta)

    def test_momentum_buffer_is_untouched(self):
        state = ServerState(theta=np.zeros(3), momentum=np.array([1.0, 2.0, 3.0]), round=0)
        stepped = fedgd_step(state, np.ones(3), eta=0.2)
        np.testing.assert_array_equal(stepped.momentum, state.momentum)

    def test_descends_a_smooth_quadratic_monotonically(self):
        task, _ = make_synthetic_quadratic(6, 3, mu=0.5, L=2.0, heterogeneity=1.0, seed=71)
        eta = 0.9  # < 2/L = 1.0
        state = ServerState.initial(np.zeros(6))
        last = task.global_value(state.theta)
        for _ in range(50):
            state = fedgd_step(state, task.global_gradient(state.theta), eta)
            value = task.global_value(state.theta)
            assert value < last
            last = value

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fedgd_step(ServerState.initial(np.zeros(2)), np.zeros(4), eta=0.1)
