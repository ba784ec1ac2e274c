"""Objectives, per-example gradients, partitioning, and frozen-feature IO.

Oracles used by the derived checks, defined before any test that relies on
them: central finite differences for gradients, a dense normal-equations
solve for the quadratic minimizer, and full-precision summation for losses.
"""

import math

import numpy as np
import pytest

from fedsofim.client import clip_rows, private_release
from fedsofim.task import (
    FeatureDataset,
    QuadraticShard,
    QuadraticTask,
    SoftmaxHeadTask,
    load_frozen_features,
    make_anisotropic_features,
    make_synthetic_quadratic,
    partition_iid,
    quadratic_problems,
    save_frozen_features,
)


def finite_difference_gradient(func, theta, h=1e-5):
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (func(theta + step) - func(theta - step)) / (2.0 * h)
    return grad


def dense_theta_star(a_matrices, centers):
    """Normal-equations oracle: solve (sum A_i) theta = sum A_i c_i densely."""
    lhs = a_matrices.sum(axis=0)
    rhs = sum(a @ c for a, c in zip(a_matrices, centers))
    return np.linalg.solve(lhs, rhs)


def single_example_dataset(features, label):
    return FeatureDataset(
        features=np.asarray(features, dtype=float).reshape(1, -1),
        labels=np.asarray([label], dtype=int),
    )


class TestSoftmaxGradient:
    def test_zero_theta_gives_uniform_softmax_residual(self):
        task = SoftmaxHeadTask(num_classes=3, feature_dim=2, l2_lambda=0.0)
        x = np.array([2.0, -1.0])
        grad = task.per_example_gradients(np.zeros(task.dim), single_example_dataset(x, 1))[0]
        x_aug = np.array([2.0, -1.0, 1.0])
        expected = np.concatenate(
            [((1.0 / 3.0) - (1.0 if c == 1 else 0.0)) * x_aug for c in range(3)]
        )
        np.testing.assert_allclose(grad, expected, atol=1e-15)

    def test_regularizer_contributes_lambda_theta(self):
        task_reg = SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=0.5)
        task_plain = SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=0.0)
        rng = np.random.default_rng(3)
        theta = rng.normal(size=task_reg.dim)
        example = single_example_dataset(rng.normal(size=2), 0)
        diff = task_reg.per_example_gradients(theta, example)[0] - task_plain.per_example_gradients(
            theta, example
        )[0]
        np.testing.assert_allclose(diff, 0.5 * theta, rtol=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            classes = int(rng.integers(2, 5))
            feat = int(rng.integers(1, 6))
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=1e-4)
            assert task.dim <= 30
            theta = rng.normal(scale=0.8, size=task.dim)
            dataset = single_example_dataset(rng.normal(size=feat), int(rng.integers(classes)))

            def loss_at(point):
                return task.loss_and_accuracy(point, dataset)[0]

            grad = task.per_example_gradients(theta, dataset)[0]
            oracle = finite_difference_gradient(loss_at, theta)
            err = np.linalg.norm(grad - oracle) / max(np.linalg.norm(oracle), 1e-12)
            assert err <= 1e-5, f"trial {trial}: finite-difference mismatch {err:.2e}"

    def test_vectorized_gradients_match_per_example_loop(self):
        rng = np.random.default_rng(11)
        task = SoftmaxHeadTask(num_classes=4, feature_dim=3, l2_lambda=1e-3)
        dataset = FeatureDataset(
            features=rng.normal(size=(9, 3)), labels=rng.integers(0, 4, size=9)
        )
        theta = rng.normal(size=task.dim)
        batch = task.per_example_gradients(theta, dataset)
        singles = np.stack([
            task.per_example_gradients(theta, single_example_dataset(x, label))[0]
            for x, label in zip(dataset.features, dataset.labels)
        ])
        np.testing.assert_allclose(batch, singles, rtol=1e-13, atol=1e-15)

    def test_log_probs_keep_the_bits_of_the_reduce_formulation(self):
        # The column-chain row maximum and the stack's preallocated augmented
        # matrix must give exactly what max(axis=1) and np.hstack give, ties
        # and non-finite logits included.
        rng = np.random.default_rng(17)
        for classes in (2, 4, 10):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=5)
            features = rng.normal(size=(40, 5)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
            features[3] = features[4]
            features[5, 0] = np.inf
            theta = rng.normal(size=task.dim)
            theta[: task.feature_dim + 1] = theta[task.feature_dim + 1: 2 * (task.feature_dim + 1)]
            x_aug = np.hstack([features, np.ones((40, 1))])
            stacked = task.stack((FeatureDataset(features, np.zeros(40, dtype=np.int64)),))
            np.testing.assert_array_equal(stacked.x_aug, x_aug)
            with np.errstate(invalid="ignore"):
                logits = x_aug @ theta.reshape(classes, 6).T
                logits -= logits.max(axis=1, keepdims=True)
                expected = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                np.testing.assert_array_equal(task._log_probs(theta, x_aug)[1], expected)

    def test_theta_dimension_checked(self):
        task = SoftmaxHeadTask(num_classes=2, feature_dim=2)
        with pytest.raises(ValueError, match="theta must have dimension 6"):
            task.per_example_gradients(np.zeros(5), single_example_dataset(np.zeros(2), 0))


class TestSoftmaxLossAndAccuracy:
    def test_zero_theta_loss_is_log_num_classes(self):
        for k in (2, 3, 7):
            task = SoftmaxHeadTask(num_classes=k, feature_dim=3, l2_lambda=0.0)
            dataset = single_example_dataset([0.4, -0.2, 1.0], label=k - 1)
            loss, _ = task.loss_and_accuracy(np.zeros(task.dim), dataset)
            np.testing.assert_allclose(loss, math.log(k), rtol=1e-14)

    def test_argmax_ties_resolve_to_lowest_class(self):
        task = SoftmaxHeadTask(num_classes=3, feature_dim=2, l2_lambda=0.0)
        dataset = single_example_dataset([1.0, 1.0], label=0)
        _, acc0 = task.loss_and_accuracy(np.zeros(task.dim), dataset)
        assert acc0 == 1.0
        dataset_other = single_example_dataset([1.0, 1.0], label=2)
        _, acc2 = task.loss_and_accuracy(np.zeros(task.dim), dataset_other)
        assert acc2 == 0.0

    def test_matches_example_by_example_recomputation(self):
        rng = np.random.default_rng(13)
        task = SoftmaxHeadTask(num_classes=3, feature_dim=4, l2_lambda=1e-2)
        dataset = FeatureDataset(
            features=rng.normal(size=(17, 4)), labels=rng.integers(0, 3, size=17)
        )
        theta = rng.normal(size=task.dim)
        loss, acc = task.loss_and_accuracy(theta, dataset)

        weights = theta.reshape(3, 5)
        per_example_losses = []
        hits = 0
        for x, label in zip(dataset.features, dataset.labels):
            logits = weights @ np.append(x, 1.0)
            log_norm = math.log(math.fsum(math.exp(z) for z in logits))
            per_example_losses.append(log_norm - logits[label])
            if int(np.argmax(logits)) == label:
                hits += 1
        expected_loss = math.fsum(per_example_losses) / 17 + 0.5 * 1e-2 * float(theta @ theta)
        np.testing.assert_allclose(loss, expected_loss, rtol=1e-12)
        assert acc == hits / 17

    def test_empty_dataset_rejected(self):
        task = SoftmaxHeadTask(num_classes=2, feature_dim=2)
        empty = FeatureDataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty dataset"):
            task.loss_and_accuracy(np.zeros(task.dim), empty)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_classes must be >= 2"):
            SoftmaxHeadTask(num_classes=1, feature_dim=2)
        with pytest.raises(ValueError, match="l2_lambda must be nonnegative"):
            SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=-1.0)

    def test_non_finite_regularizer_rejected_with_every_other_problem(self):
        for l2_lambda in (math.nan, math.inf):
            with pytest.raises(ValueError, match="l2_lambda must be nonnegative and finite"):
                SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=l2_lambda)
        with pytest.raises(ValueError) as info:
            SoftmaxHeadTask(num_classes=1, feature_dim=0, l2_lambda=math.nan)
        assert str(info.value) == (
            "num_classes must be >= 2; feature_dim must be >= 1; l2_lambda must be nonnegative and finite"
        )


def stationary_theta(task, x, label):
    """theta at which one example's regularized gradient vec(r x') + lam theta
    vanishes: theta = -vec(r x')/lam, with r the residual at that theta.

    By symmetry r is p on every other class and -(k-1) p on the label, and
    the logits there are -a r with a = ||x_aug||^2 / lam, so p solves
    p = 1/(exp(a k p) + k - 1); bisection finds it to the last bit.
    """
    k, lam = task.num_classes, task.l2_lambda
    x_aug = np.append(x, 1.0)
    a = float(x_aug @ x_aug) / lam
    lo, hi = 0.0, 1.0 / k
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid > 1.0 / (math.exp(min(a * k * mid, 700.0)) + k - 1):
            hi = mid
        else:
            lo = mid
    residual = np.full(k, lo)
    residual[label] = -(k - 1) * lo
    return -np.outer(residual, x_aug).reshape(-1) / lam


def clipped_sum(task, theta, dataset, c_g):
    """The clipped sum of one shard, as a one-shard round computes it."""
    return task.clipped_sums(theta, task.stack((dataset,)), c_g)[0]


def ghost_scales(task, theta, dataset, c_g):
    """clipped_sums's per-example scales s_i."""
    x_aug, logits, residuals = task._residuals(theta, dataset)
    return task._clip_scales(theta, x_aug, logits, residuals, c_g)


class TestGhostClipping:
    """SoftmaxHeadTask.clipped_sums against the materialized oracle,
    per_example_gradients clipped by clip_rows and summed."""

    def test_scaled_rows_stay_inside_the_ball_and_match_the_materialized_sum(self):
        rng = np.random.default_rng(61)
        lambdas = (0.0, 1e-4, 0.1, 10.0)
        for case in range(2400):
            classes = 2 if case % 3 == 0 else int(rng.integers(3, 7))
            feat = int(rng.integers(1, 20))
            count = int(rng.integers(1, 40))
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=lambdas[case % 4])
            features = rng.normal(size=(count, feat)) * rng.uniform(0.1, 10.0)
            labels = rng.integers(0, classes, size=count)
            if case % 5 == 0:  # aligned rows: identical examples sharing one label
                features[:] = features[0]
                labels[:] = labels[0]
            dataset = FeatureDataset(features, labels)
            theta = rng.normal(size=task.dim) * 10.0 ** rng.uniform(-3.0, 2.0)
            c_g = 10.0 ** rng.uniform(-4.0, 1.0)

            grads = task.per_example_gradients(theta, dataset)
            scales = ghost_scales(task, theta, dataset, c_g)
            for s, g in zip(scales, grads):
                assert np.linalg.norm(s * g) <= c_g, f"case {case}"
            release = private_release(dataset, theta, c_g, 0.0, 1, None, task)
            assert np.linalg.norm(release) <= c_g, f"case {case}"

            # Entries of the sum may cancel, so the error is measured against
            # the sizes of the two factors every scaled row is made of.
            x_aug, _, residuals = task._residuals(theta, dataset)
            magnitude = np.sum(scales * (np.linalg.norm(residuals, axis=1) * np.linalg.norm(x_aug, axis=1)
                                         + task.l2_lambda * np.linalg.norm(theta)))
            with np.errstate(over="ignore"):  # c_g / tiny for a zero row
                oracle = np.add.reduce(clip_rows(grads, c_g), axis=0)
            error = np.linalg.norm(clipped_sum(task, theta, dataset, c_g) - oracle)
            assert error <= 1e-14 * magnitude, f"case {case}"

    def test_rows_whose_factors_cancel_stay_inside_the_ball(self):
        # Near a single example's stationary point the cross term cancels
        # the squares, and the factored norm is only as good as the rounding
        # of the terms it subtracts; the scales must still hold the bound.
        rng = np.random.default_rng(67)
        for case in range(600):
            classes = int(rng.integers(2, 6))
            feat = int(rng.integers(1, 20))
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=(1e-4, 0.1, 10.0)[case % 3])
            x = rng.normal(size=feat) * rng.uniform(0.1, 10.0)
            label = int(rng.integers(classes))
            count = int(rng.integers(1, 10))
            dataset = FeatureDataset(np.tile(x, (count, 1)), np.full(count, label))
            theta = stationary_theta(task, x, label) * (1.0 + rng.normal() * 10.0 ** rng.uniform(-16.0, -6.0))
            grads = task.per_example_gradients(theta, dataset)
            c_g = float(np.linalg.norm(grads[0])) * 10.0 ** rng.uniform(-2.0, 0.5)
            if c_g == 0.0:
                continue
            with np.errstate(over="ignore"):
                scales = ghost_scales(task, theta, dataset, c_g)
            for s, g in zip(scales, grads):
                assert np.linalg.norm(s * g) <= c_g, f"case {case}"

    def test_rows_inside_the_ball_are_summed_unscaled(self):
        rng = np.random.default_rng(71)
        task = SoftmaxHeadTask(num_classes=3, feature_dim=4, l2_lambda=1e-3)
        dataset = FeatureDataset(rng.normal(size=(12, 4)), rng.integers(0, 3, size=12))
        theta = rng.normal(size=task.dim)
        grads = task.per_example_gradients(theta, dataset)
        c_g = 2.0 * float(np.linalg.norm(grads, axis=1).max())
        np.testing.assert_array_equal(ghost_scales(task, theta, dataset, c_g), np.ones(12))
        np.testing.assert_allclose(clipped_sum(task, theta, dataset, c_g), grads.sum(axis=0), rtol=1e-13, atol=1e-15)

    def test_radius_must_be_positive(self):
        task = SoftmaxHeadTask(num_classes=2, feature_dim=2)
        for c_g in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_g must be positive and finite"):
                clipped_sum(task, np.zeros(task.dim), single_example_dataset([1.0, 2.0], 0), c_g)


class TestQuadraticTask:
    def test_scalar_instance_has_closed_form_minimum(self):
        task = QuadraticTask(
            a_matrices=np.array([[[0.3]]]), centers=np.array([[3.0]])
        )
        np.testing.assert_allclose(task.theta_star, [3.0])
        np.testing.assert_allclose(task.optimum_value, 0.0, atol=1e-15)
        np.testing.assert_allclose(task.mu, 0.3)
        np.testing.assert_allclose(task.L, 0.3)

    def test_minimizer_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 6))
            task, _ = make_synthetic_quadratic(d, n, mu=0.5, L=4.0, heterogeneity=1.5,
                                               seed=int(rng.integers(1000)))
            oracle = dense_theta_star(task.a_matrices, task.centers)
            np.testing.assert_allclose(task.theta_star, oracle, rtol=1e-10, atol=1e-10)

    def test_gradient_vanishes_at_shard_center(self):
        task, shards = make_synthetic_quadratic(4, 3, mu=0.2, L=2.0, heterogeneity=1.0, seed=0)
        shard = shards[0]
        grad = task.per_example_gradients(shard.center, shard)[0]
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-12)

    def test_global_gradient_matches_finite_differences(self):
        task, _ = make_synthetic_quadratic(6, 4, mu=0.3, L=3.0, heterogeneity=1.0, seed=2)
        rng = np.random.default_rng(8)
        theta = rng.normal(size=6)
        oracle = finite_difference_gradient(task.global_value, theta, h=1e-6)
        np.testing.assert_allclose(task.global_gradient(theta), oracle, rtol=1e-6, atol=1e-8)

    def test_strong_convexity_gradient_inequality(self):
        task, _ = make_synthetic_quadratic(8, 5, mu=0.4, L=4.0, heterogeneity=1.0, seed=3)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            theta = task.theta_star + rng.normal(scale=2.0, size=8)
            lhs = float(task.global_gradient(theta) @ task.global_gradient(theta))
            rhs = 2.0 * task.mu * task.gap(theta)
            assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))

    def test_stored_extremes_bound_the_mean_hessian_spectrum(self):
        task, _ = make_synthetic_quadratic(10, 4, mu=0.25, L=2.5, heterogeneity=0.5, seed=4)
        mean_a = task.a_matrices.mean(axis=0)
        eigvals = np.linalg.eigvalsh(mean_a)
        np.testing.assert_allclose(eigvals[0], task.mu, rtol=1e-12)
        np.testing.assert_allclose(eigvals[-1], task.L, rtol=1e-12)
        np.testing.assert_allclose(task.mu, 0.25, rtol=1e-12)
        np.testing.assert_allclose(task.L, 2.5, rtol=1e-12)

    def test_gap_is_zero_at_minimizer_and_positive_elsewhere(self):
        task, _ = make_synthetic_quadratic(5, 3, mu=0.5, L=2.0, heterogeneity=1.0, seed=6)
        np.testing.assert_allclose(task.gap(task.theta_star), 0.0, atol=1e-12)
        assert task.gap(task.theta_star + 0.5) > 0.0

    def test_homogeneous_centers_make_the_shared_center_optimal(self):
        task, shards = make_synthetic_quadratic(4, 5, mu=0.2, L=2.0, heterogeneity=0.0, seed=7)
        centers = np.stack([s.center for s in shards])
        np.testing.assert_allclose(centers, np.broadcast_to(centers[0], centers.shape))
        np.testing.assert_allclose(task.theta_star, centers[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(task.optimum_value, 0.0, atol=1e-12)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="mu must not exceed L"):
            make_synthetic_quadratic(4, 2, mu=2.0, L=1.0, heterogeneity=0.0, seed=0)
        with pytest.raises(ValueError, match=r"d must lie in \[1, 64\]"):
            make_synthetic_quadratic(65, 2, mu=0.5, L=1.0, heterogeneity=0.0, seed=0)
        with pytest.raises(ValueError, match="heterogeneity must be nonnegative"):
            make_synthetic_quadratic(4, 2, mu=0.5, L=1.0, heterogeneity=-1.0, seed=0)

    def test_non_finite_settings_are_named_together(self):
        assert quadratic_problems(4, math.nan, 1.0, 0.0, 10) == ["mu must be positive and finite"]
        assert quadratic_problems(4, 0.5, math.inf, math.nan, 0) == [
            "L must be finite", "heterogeneity must be nonnegative and finite", "shard_size must be >= 1",
        ]
        with pytest.raises(ValueError, match="^mu must be positive and finite; n must be >= 1$"):
            make_synthetic_quadratic(4, 0, mu=math.nan, L=1.0, heterogeneity=0.0, seed=0)

    def test_clipped_sum_is_the_sum_of_the_clipped_repetition(self):
        task, shards = make_synthetic_quadratic(d=5, n=2, mu=0.5, L=2.0, heterogeneity=1.0, seed=4, shard_size=7)
        theta = np.random.default_rng(5).normal(size=5) * 3.0
        for c_g in (0.1, 100.0):
            expected = np.add.reduce(clip_rows(task.per_example_gradients(theta, shards[0]), c_g), axis=0)
            np.testing.assert_array_equal(clipped_sum(task, theta, shards[0], c_g), expected)

    def test_per_example_gradients_are_a_read_only_repetition_of_one_row(self):
        task, shards = make_synthetic_quadratic(d=5, n=2, mu=0.5, L=2.0, heterogeneity=1.0, seed=4, shard_size=7)
        theta = np.random.default_rng(4).normal(size=5)
        rows = task.per_example_gradients(theta, shards[1])
        grad = shards[1].a_matrix @ (theta - shards[1].center)
        np.testing.assert_array_equal(rows, np.broadcast_to(grad, (7, 5)))
        assert rows.strides == (0, 8)
        assert not rows.flags.writeable

    def test_shards_report_their_size(self):
        _, shards = make_synthetic_quadratic(4, 3, mu=0.5, L=1.0, heterogeneity=0.0,
                                             seed=0, shard_size=7)
        assert all(s.size == 7 for s in shards)


class TestPartition:
    def make_dataset(self, count, dim=3):
        rng = np.random.default_rng(count)
        return FeatureDataset(
            features=rng.normal(size=(count, dim)),
            labels=rng.integers(0, 2, size=count),
        )

    def test_divisible_case_gives_equal_shards(self):
        shards = partition_iid(self.make_dataset(100), 20, seed=0)
        assert [s.size for s in shards].count(5) == 20

    def test_remainder_spreads_one_extra_example(self):
        shards = partition_iid(self.make_dataset(101), 20, seed=0)
        sizes = sorted(s.size for s in shards)
        assert sizes == [5] * 19 + [6]

    def test_partition_is_a_bijection_on_examples(self):
        dataset = self.make_dataset(47)
        shards = partition_iid(dataset, 7, seed=3)
        recombined = np.vstack([s.features for s in shards])
        original = sorted(map(tuple, dataset.features))
        assert sorted(map(tuple, recombined)) == original
        assert sum(s.size for s in shards) == 47

    def test_same_seed_reproduces_the_partition(self):
        dataset = self.make_dataset(30)
        first = partition_iid(dataset, 4, seed=9)
        second = partition_iid(dataset, 4, seed=9)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_shuffle_differently(self):
        dataset = self.make_dataset(30)
        first = partition_iid(dataset, 4, seed=1)
        second = partition_iid(dataset, 4, seed=2)
        assert any(
            not np.array_equal(a.features, b.features) for a, b in zip(first, second)
        )

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError, match="cannot partition 3 examples across 5 clients"):
            partition_iid(self.make_dataset(3), 5, seed=0)


class TestFrozenFeatureFiles:
    def test_documented_format_parses(self, tmp_path):
        path = tmp_path / "tiny.features"
        path.write_text(
            "dim=4,classes=2\n"
            "0,1.5,-2.0,0.25,3.0\n"
            "1,0.0,0.0,1.0,-1.0\n"
            "0,2.0,2.0,2.0,2.0\n",
            encoding="utf-8",
        )
        dataset, meta = load_frozen_features(path)
        assert dataset.size == 3
        assert dataset.feature_dim == 4
        assert meta["feature_dim"] == 4
        assert meta["num_classes"] == 2
        assert meta["count"] == 3
        np.testing.assert_allclose(dataset.features[0], [1.5, -2.0, 0.25, 3.0])
        np.testing.assert_array_equal(dataset.labels, [0, 1, 0])

    def test_short_row_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=4,classes=2\n0,1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 4 features, got 3"):
            load_frozen_features(path)

    def test_label_out_of_range_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n2,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 3: label 2 out of range \[0, 2\)"):
            load_frozen_features(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dims=4;classes=2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_frozen_features(path)

    def test_unparseable_value_names_the_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=2\n0,1.0,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: unparseable numeric value"):
            load_frozen_features(path)

    def test_non_finite_value_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=3\n0,nan,1.0\n1,inf,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: non-finite feature value"):
            load_frozen_features(path)
        # blank lines are skipped but still counted
        path.write_text("dim=1,classes=2\n0,1.0\n\n1,-inf\n0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: non-finite feature value"):
            load_frozen_features(path)

    def test_write_then_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        dataset = FeatureDataset(
            features=rng.normal(size=(12, 5)), labels=rng.integers(0, 3, size=12)
        )
        path = tmp_path / "round.features"
        save_frozen_features(path, dataset, num_classes=3)
        loaded, meta = load_frozen_features(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert meta["num_classes"] == 3

    def test_crlf_line_ends_parse_like_lf(self, tmp_path):
        text = "dim=2,classes=2\n0,1.0,2.0\n1,3.0,4.0\n"
        (tmp_path / "lf.features").write_bytes(text.encode())
        (tmp_path / "crlf.features").write_bytes(text.replace("\n", "\r\n").encode())
        lf, _ = load_frozen_features(tmp_path / "lf.features")
        crlf, _ = load_frozen_features(tmp_path / "crlf.features")
        np.testing.assert_array_equal(crlf.features, lf.features)
        np.testing.assert_array_equal(crlf.labels, lf.labels)

    def test_repeated_loads_share_one_read_only_parse(self, tmp_path):
        path = tmp_path / "shared.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n1,3.0,4.0\n", encoding="utf-8")
        first, meta = load_frozen_features(path)
        second, _ = load_frozen_features(path)
        assert second is first
        assert not first.features.flags.writeable
        assert not first.labels.flags.writeable
        meta["count"] = -1
        assert load_frozen_features(path)[1]["count"] == 2

    def test_edited_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "edited.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n", encoding="utf-8")
        before, _ = load_frozen_features(path)
        # same length, so only the content tells the two apart
        path.write_text("dim=2,classes=2\n1,5.0,2.0\n", encoding="utf-8")
        after, _ = load_frozen_features(path)
        np.testing.assert_array_equal(before.features, [[1.0, 2.0]])
        np.testing.assert_array_equal(after.features, [[5.0, 2.0]])
        np.testing.assert_array_equal(after.labels, [1])


class TestAnisotropicFeatures:
    def test_shapes_and_balanced_labels(self):
        dataset = make_anisotropic_features(400, 8, 4, condition=100.0, separation=1.0, seed=0)
        assert dataset.features.shape == (400, 8)
        counts = np.bincount(dataset.labels, minlength=4)
        assert counts.tolist() == [100, 100, 100, 100]

    def test_same_seed_is_deterministic(self):
        a = make_anisotropic_features(60, 4, 2, condition=50.0, separation=1.0, seed=5)
        b = make_anisotropic_features(60, 4, 2, condition=50.0, separation=1.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_feature_scales_span_the_requested_condition(self):
        dataset = make_anisotropic_features(20_000, 6, 2, condition=400.0,
                                            separation=0.0, seed=1)
        stds = dataset.features.std(axis=0)
        ratio = (stds.max() / stds.min()) ** 2
        assert 250.0 <= ratio <= 640.0, f"sample variance ratio {ratio:.1f}"

    def test_validation(self):
        with pytest.raises(ValueError, match="condition must be >= 1"):
            make_anisotropic_features(10, 2, 2, condition=0.5, separation=1.0, seed=0)
        with pytest.raises(ValueError, match="at least one example per class"):
            make_anisotropic_features(1, 2, 2, condition=10.0, separation=1.0, seed=0)
