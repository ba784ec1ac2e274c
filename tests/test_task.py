"""Objectives, per-example gradients, partitioning, and frozen-feature IO.

Oracles used by the derived checks, defined before any test that relies on
them: central finite differences for gradients, a dense normal-equations
solve for the quadratic minimizer, and full-precision summation for losses.
"""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

import fedsofim.task as task_module
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
            stacked = task.stack((dataset,))

            def loss_at(point):
                return task.loss_and_accuracy(point, stacked)[0]

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
        # The stack's transposed augmented matrix and the class-major row
        # maximum must give exactly what np.hstack and max(axis=1) give on
        # the example-major logits, ties and non-finite logits included.
        # The sum over classes adds the class rows in order where
        # sum(axis=1) adds a row pairwise from eight classes on, so its log
        # is exact below eight classes and otherwise within the two orders'
        # error bounds, 2 (K - 1) eps relative to a sum >= 1, plus each
        # log's rounding, eps log K: across the pairwise sum's eight partial
        # sums and past its split at 128.
        rng = np.random.default_rng(17)
        for classes in (*range(2, 11), 15, 16, 17, 20, 24, 130):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=5)
            features = rng.normal(size=(40, 5)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
            features[3] = features[4]
            features[5, 0] = np.inf
            theta = rng.normal(size=task.dim)
            theta[: task.feature_dim + 1] = theta[task.feature_dim + 1: 2 * (task.feature_dim + 1)]
            x_aug = np.hstack([features, np.ones((40, 1))])
            stacked = task.stack((FeatureDataset(features, np.zeros(40, dtype=np.int64)),))
            np.testing.assert_array_equal(stacked.x_t, x_aug.T)
            assert stacked.x_t.flags.c_contiguous
            with np.errstate(invalid="ignore"):
                shifted = x_aug @ theta.reshape(classes, 6).T
                shifted -= shifted.max(axis=1, keepdims=True)
                log_sums = np.log(np.exp(shifted).sum(axis=1))
                log_probs = task._log_probs(theta, stacked.x_t).T
            # The largest logit's log-probability is 0.0 - log-sum, exactly.
            actual_log_sums = -log_probs[np.arange(40), np.argmax(shifted, axis=1)]
            np.testing.assert_array_equal(log_probs, shifted - actual_log_sums[:, None],
                                          err_msg=f"{classes} classes")
            tolerance = 0.0 if classes < 8 else (2 * (classes - 1) + math.log(classes)) * np.finfo(float).eps
            np.testing.assert_allclose(actual_log_sums, log_sums, rtol=0, atol=tolerance,
                                       err_msg=f"{classes} classes")

    def test_factors_keep_the_bits_of_the_label_scatter(self):
        # The residuals must be exactly E / sum_k E with 1 subtracted at each
        # example's label, E = exp(Z - max_k Z) summed over the class rows in
        # order, non-finite examples included, and the flat label index must
        # pick those labels.
        rng = np.random.default_rng(19)
        for classes in (2, 5, 10):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=4)
            features = rng.normal(size=(30, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(30, 1))
            features[2, 1] = np.inf
            labels = rng.integers(0, classes, size=30)
            stacked = task.stack((FeatureDataset(features, labels),))
            theta = rng.normal(size=task.dim)
            with np.errstate(invalid="ignore"):
                logits, residuals = task._factors(theta, stacked)
                log_probs = task._log_probs(theta, stacked.x_t)
                expected_logits = theta.reshape(classes, 5) @ stacked.x_t
                exps = np.exp(expected_logits - expected_logits.max(axis=0))
                expected = exps / sum(exps[1:], exps[0])
            expected[labels, np.arange(30)] -= 1.0
            assert np.isnan(residuals[:, 2]).all() and np.isfinite(np.delete(residuals, 2, axis=1)).all()
            np.testing.assert_array_equal(logits, expected_logits)
            np.testing.assert_array_equal(residuals, expected)
            np.testing.assert_array_equal(log_probs.take(stacked.label_index), log_probs[labels, np.arange(30)])

    def test_residuals_match_the_log_softmax_form_and_scipy_within_two_eps(self):
        # E / sum E, exp(log-softmax) and scipy's softmax over the class axis
        # share the shifted logits and the sum over the class rows, and differ
        # only in their last roundings: the division against the log, the
        # subtraction and the exp, each within about an ulp of p <= 1 (the
        # rounded arguments add at most eps/2e each), and the one-hot's
        # subtraction, eps/4 at a label.  So each lies within 2 eps, absolute,
        # of the residuals.  Each column
        # then sums exactly (fsum) to 0 within K eps/2 from the sum's
        # recursive bound plus eps/4 from the label: within K eps.  The sum
        # is at least each E, so the label's entry p - 1 lies in [-1, 0] and
        # the others in [0, 1].
        eps = np.finfo(float).eps
        rng = np.random.default_rng(29)
        for classes in (*range(2, 11), 16, 130):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=5)
            for scale in 10.0 ** np.arange(-3, 4):
                features = rng.normal(size=(60, 5)) * scale
                labels = rng.integers(0, classes, size=60)
                stacked = task.stack((FeatureDataset(features, labels),))
                theta = rng.normal(size=task.dim)
                logits, residuals = task._factors(theta, stacked)
                onehot = np.zeros((classes, 60))
                onehot[labels, np.arange(60)] = 1.0
                for reference in (np.exp(task._log_probs(theta, stacked.x_t)), softmax(logits, axis=0)):
                    np.testing.assert_allclose(residuals, reference - onehot, rtol=0, atol=2 * eps,
                                               err_msg=f"{classes} classes, scale {scale}")
                column_sums = [math.fsum(column) for column in residuals.T]
                assert max(map(abs, column_sums)) <= classes * eps, (classes, scale)
                picked = residuals[labels, np.arange(60)]
                assert ((-1.0 <= picked) & (picked <= 0.0)).all()
                others = residuals[onehot == 0.0]
                assert ((0.0 <= others) & (others <= 1.0)).all()

    def test_theta_dimension_checked(self):
        task = SoftmaxHeadTask(num_classes=2, feature_dim=2)
        with pytest.raises(ValueError, match="theta must have dimension 6"):
            task.per_example_gradients(np.zeros(5), single_example_dataset(np.zeros(2), 0))


class TestSoftmaxLossAndAccuracy:
    def test_zero_theta_loss_is_log_num_classes(self):
        for k in (2, 3, 7):
            task = SoftmaxHeadTask(num_classes=k, feature_dim=3, l2_lambda=0.0)
            dataset = single_example_dataset([0.4, -0.2, 1.0], label=k - 1)
            loss, _ = task.loss_and_accuracy(np.zeros(task.dim), task.stack((dataset,)))
            np.testing.assert_allclose(loss, math.log(k), rtol=1e-14)

    def test_argmax_ties_resolve_to_lowest_class(self):
        task = SoftmaxHeadTask(num_classes=3, feature_dim=2, l2_lambda=0.0)
        dataset = single_example_dataset([1.0, 1.0], label=0)
        _, acc0 = task.loss_and_accuracy(np.zeros(task.dim), task.stack((dataset,)))
        assert acc0 == 1.0
        dataset_other = single_example_dataset([1.0, 1.0], label=2)
        _, acc2 = task.loss_and_accuracy(np.zeros(task.dim), task.stack((dataset_other,)))
        assert acc2 == 0.0

    def test_matches_example_by_example_recomputation(self):
        rng = np.random.default_rng(13)
        task = SoftmaxHeadTask(num_classes=3, feature_dim=4, l2_lambda=1e-2)
        dataset = FeatureDataset(
            features=rng.normal(size=(17, 4)), labels=rng.integers(0, 3, size=17)
        )
        theta = rng.normal(size=task.dim)
        loss, acc = task.loss_and_accuracy(theta, task.stack((dataset,)))

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
            task.loss_and_accuracy(np.zeros(task.dim), task.stack((empty,)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_classes must be >= 2"):
            SoftmaxHeadTask(num_classes=1, feature_dim=2)
        with pytest.raises(ValueError, match=r"l2_lambda must lie in \[0, inf\)"):
            SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=-1.0)

    def test_non_finite_regularizer_rejected_with_every_other_problem(self):
        for l2_lambda in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^l2_lambda must lie in \[0, inf\)$"):
                SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=l2_lambda)
        with pytest.raises(ValueError) as info:
            SoftmaxHeadTask(num_classes=1, feature_dim=0, l2_lambda=math.nan)
        assert str(info.value) == (
            "num_classes must be >= 2; feature_dim must be >= 1; l2_lambda must lie in [0, inf)"
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


def factors(task, theta, dataset):
    """(X, Z, R), example-major: one shard's augmented features, logits and
    R = softmax(Z) - onehot, from the stack's class-major arrays."""
    stacked = task.stack((dataset,))
    return tuple(array.T for array in (stacked.x_t, *task._factors(theta, stacked)))


def ghost_scales(task, theta, dataset, c_g):
    """clipped_sums's per-example scales s_i."""
    stacked = task.stack((dataset,))
    logits, residuals = task._factors(theta, stacked)
    return task._clip_scales(theta, stacked.sq_norms, logits, residuals, c_g)


def allocating_clipped_sums(task, theta, stacked, c_g):
    """clipped_sums as one expression per step, each into a fresh array: the
    operands and rounding order the kernel keeps while it reuses its buffers."""
    lam, classes, width = task.l2_lambda, task.num_classes, task.feature_dim + 1
    logits = theta.reshape(classes, width) @ stacked.x_t
    exps = np.exp(logits - np.maximum.reduce(logits, axis=0))
    residuals = exps / np.add.reduce(exps, axis=0) - stacked.onehot
    squares = np.einsum("km,km->m", residuals, residuals) * stacked.sq_norms
    squares += lam * lam * float(theta @ theta)
    sq_norms = np.maximum(squares + 2.0 * lam * np.einsum("km,km->m", residuals, logits), np.finfo(float).tiny)
    safety = 1.0 - 4.0 * np.finfo(float).eps * np.maximum(1.0, squares / sq_norms)
    scale = np.minimum(np.maximum(c_g / np.sqrt(sq_norms) * safety, 0.0), 1.0)
    residuals = residuals * scale
    n = len(stacked.sizes)
    sums, scale_sums = np.empty((n, classes, width)), np.empty(n)
    for first, count, size, col in stacked.runs:
        cols, shards = slice(col, col + count * size), slice(first, first + count)
        sums[shards] = np.matmul(residuals[:, cols].reshape(classes, count, size).transpose(1, 0, 2),
                                 stacked.x_t[:, cols].reshape(width, count, size).transpose(1, 2, 0))
        scale_sums[shards] = np.add.reduce(scale[cols].reshape(count, size), axis=1)
    return sums.reshape(n, task.dim) + (lam * scale_sums)[:, None] * theta, scale


class TestFeatureStack:
    """The per-run constants a stack holds: each example's ||x||^2, its
    one-hot label as a (K, M) column, and its label's flat index there."""

    def three_shards(self, task, rng):
        return tuple(FeatureDataset(rng.normal(size=(size, task.feature_dim)) * rng.uniform(0.1, 10.0),
                                    rng.integers(0, task.num_classes, size=size)) for size in (9, 12, 12))

    def assert_constants_of(self, stacked, task):
        """The constants are read-only and recompute from x_t and labels to the bit."""
        x_t, labels = stacked.x_t, stacked.labels
        count = labels.shape[0]
        assert x_t.shape == (task.feature_dim + 1, count) and x_t.flags.c_contiguous
        np.testing.assert_array_equal(stacked.sq_norms, np.einsum("ji,ji->i", x_t, x_t))
        np.testing.assert_array_equal(stacked.onehot, np.eye(task.num_classes)[:, labels])
        np.testing.assert_array_equal(stacked.label_index, labels * count + np.arange(count))
        assert stacked.onehot.dtype == np.float64
        for array in (x_t, labels, stacked.sq_norms, stacked.onehot, stacked.label_index):
            assert not array.flags.writeable

    def test_constants_are_read_only_recomputations(self):
        rng = np.random.default_rng(73)
        for classes, feat in ((2, 3), (4, 16), (10, 33)):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat)
            self.assert_constants_of(task.stack(self.three_shards(task, rng)), task)

    def test_subset_indexes_the_constants_of_the_picked_rows(self):
        rng = np.random.default_rng(79)
        for classes, feat in ((3, 5), (10, 24)):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=1e-3)
            shards = self.three_shards(task, rng)
            picks = [np.sort(rng.choice(9, size=4, replace=False)), None,
                     np.sort(rng.choice(12, size=7, replace=False))]
            cut = task.stack(shards).subset(picks)
            fresh = task.stack(tuple(
                shard if pick is None else FeatureDataset(shard.features[pick], shard.labels[pick])
                for shard, pick in zip(shards, picks)))
            self.assert_constants_of(cut, task)
            assert cut.sizes == fresh.sizes == (4, 12, 7)
            for name in ("x_t", "labels", "sq_norms", "onehot", "label_index"):
                np.testing.assert_array_equal(getattr(cut, name), getattr(fresh, name), err_msg=name)
            theta = rng.normal(size=task.dim)
            for c_g in (0.01, 1.0, 100.0):
                np.testing.assert_array_equal(task.clipped_sums(theta, cut, c_g),
                                              task.clipped_sums(theta, fresh, c_g))


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
            x_aug, _, residuals = factors(task, theta, dataset)
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

    def test_buffers_keep_the_bits_of_the_allocating_expression(self):
        # Past eight classes included, over one run of equal shards and two,
        # with rows clipped and unclipped, and a NaN theta giving NaN rows.
        rng = np.random.default_rng(89)
        clipped = unclipped = 0
        for classes, feat in ((4, 16), (10, 7)):
            for sizes in ((6, 6, 6), (9, 9, 4, 4, 4), (13,)):
                for lam in (0.0, 1e-4, 0.1):
                    task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=lam)
                    stacked = task.stack(tuple(
                        FeatureDataset(rng.normal(size=(size, feat)) * 10.0 ** rng.uniform(-1.0, 1.0),
                                       rng.integers(0, classes, size=size)) for size in sizes))
                    assert len(stacked.runs) == len(dict.fromkeys(sizes))
                    for _ in range(6):
                        theta = rng.normal(size=task.dim) * 10.0 ** rng.uniform(-2.0, 1.0)
                        c_g = 10.0 ** rng.uniform(-2.0, 2.0)
                        expected, scale = allocating_clipped_sums(task, theta, stacked, c_g)
                        sums = task.clipped_sums(theta, stacked, c_g)
                        assert sums.tobytes() == expected.tobytes(), (classes, sizes, lam)
                        clipped += int((scale < 1.0).sum())
                        unclipped += int((scale == 1.0).sum())
                    theta[1] = np.nan
                    with np.errstate(invalid="ignore"):
                        expected, _ = allocating_clipped_sums(task, theta, stacked, 1.0)
                        sums = task.clipped_sums(theta, stacked, 1.0)
                    assert np.isnan(sums).all() and sums.tobytes() == expected.tobytes()
        assert clipped > 500 and unclipped > 500

    def test_calls_return_fresh_writable_arrays_and_leave_the_stack_alone(self):
        rng = np.random.default_rng(97)
        task = SoftmaxHeadTask(num_classes=4, feature_dim=5, l2_lambda=1e-3)
        stacked = task.stack(tuple(FeatureDataset(rng.normal(size=(size, 5)), rng.integers(0, 4, size=size))
                                   for size in (7, 7, 5)))
        kept = {name: getattr(stacked, name).copy() for name in ("x_t", "onehot", "sq_norms")}
        theta = rng.normal(size=task.dim)
        first = task.clipped_sums(theta, stacked, 0.5)
        expected = first.copy()
        second = task.clipped_sums(theta, stacked, 0.5)
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        second[:] = 0.0
        np.testing.assert_array_equal(first, expected)
        for name, copy in kept.items():
            array = getattr(stacked, name)
            assert array.tobytes() == copy.tobytes() and not array.flags.writeable, name
            assert not np.shares_memory(array, first) and not np.shares_memory(array, second), name

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
        with pytest.raises(ValueError, match="^d must be >= 1 and <= 64$"):
            make_synthetic_quadratic(65, 2, mu=0.5, L=1.0, heterogeneity=0.0, seed=0)
        with pytest.raises(ValueError, match=r"heterogeneity must lie in \[0, inf\)"):
            make_synthetic_quadratic(4, 2, mu=0.5, L=1.0, heterogeneity=-1.0, seed=0)

    def test_non_finite_settings_are_named_together(self):
        assert quadratic_problems(4, math.nan, 1.0, 0.0, 10) == ["mu must lie in (0, inf)"]
        # A real mu out of its own range is still compared with L.
        assert quadratic_problems(4, math.inf, 1.0, 0.0, 10) == ["mu must lie in (0, inf)", "mu must not exceed L"]
        assert quadratic_problems(4, -1.0, -2.0, 0.0, 10) == ["mu must lie in (0, inf)", "mu must not exceed L"]
        assert quadratic_problems(4, 0.5, math.inf, math.nan, 0) == [
            "L must lie in (-inf, inf)", "heterogeneity must lie in [0, inf)", "shard_size must be >= 1",
        ]
        with pytest.raises(ValueError, match=r"^mu must lie in \(0, inf\); n must be >= 1$"):
            make_synthetic_quadratic(4, 0, mu=math.nan, L=1.0, heterogeneity=0.0, seed=0)

    def test_counts_refuse_a_bool_or_a_float(self):
        # A bool or a float count would pass the range checks and fail, or
        # be reported as a size, only later.
        for bad in (True, 3.0):
            assert quadratic_problems(bad, 0.5, 1.0, 0.0, 10) == ["d must be an integer"]
        for bad in (True, 2.5):
            assert quadratic_problems(4, 0.5, 1.0, 0.0, bad) == ["shard_size must be an integer"]
        for bad in (True, 2.0):
            with pytest.raises(ValueError, match="^n must be an integer$"):
                make_synthetic_quadratic(4, bad, mu=0.5, L=1.0, heterogeneity=0.0, seed=0)

    def test_clipped_sum_is_the_sum_of_the_clipped_repetition(self):
        # The sum is the one clipped row times the shard size m, bit for bit.
        # Summed one row at a time, the clipped repetition lands within
        # (m - 1) eps of the exact m g, and the product within eps / 2, so
        # the two agree within m eps relative.
        task, shards = make_synthetic_quadratic(d=5, n=2, mu=0.5, L=2.0, heterogeneity=1.0, seed=4, shard_size=7)
        theta = np.random.default_rng(5).normal(size=5) * 3.0
        m = shards[0].size
        for c_g in (0.1, 100.0):
            clipped = clip_rows(task.per_example_gradients(theta, shards[0]), c_g)
            actual = clipped_sum(task, theta, shards[0], c_g)
            np.testing.assert_array_equal(actual, clipped[0] * m)
            np.testing.assert_allclose(actual, np.add.reduce(clipped, axis=0), rtol=m * np.finfo(float).eps, atol=0)

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
    """partition_iid deals the indices range(count) out as n index arrays."""

    def test_divisible_case_gives_equal_shards(self):
        shards = partition_iid(100, 20, seed=0)
        assert [s.size for s in shards].count(5) == 20

    def test_remainder_spreads_one_extra_example(self):
        shards = partition_iid(101, 20, seed=0)
        assert [s.size for s in shards] == [6] + [5] * 19

    def test_partition_is_a_bijection_on_examples(self):
        shards = partition_iid(47, 7, seed=3)
        assert all(s.dtype.kind == "i" for s in shards)
        np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(47))

    def test_same_seed_reproduces_the_partition(self):
        first = partition_iid(30, 4, seed=9)
        second = partition_iid(30, 4, seed=9)
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_shuffle_differently(self):
        first = partition_iid(30, 4, seed=1)
        second = partition_iid(30, 4, seed=2)
        assert any(not np.array_equal(a, b) for a, b in zip(first, second))

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError, match="cannot partition 3 examples across 5 clients"):
            partition_iid(3, 5, seed=0)


def whole_text_oracle(data: bytes):
    """Whole-text oracle for the chunked reader: decode the file at once,
    split it with str.splitlines, and take every non-blank line after the
    header as a row.  Returns (features, labels)."""
    rows = [line.split(",") for line in data.decode("utf-8").splitlines()[1:] if line.strip()]
    return np.array([[float(v) for v in row[1:]] for row in rows]), np.array([int(row[0]) for row in rows])


def whole_text_error(data: bytes, dim: int, classes: int):
    """The error the reader's rules give a file whose header is dim=<dim>,
    classes=<classes>, found on its whole text, or None: the first bad row
    in line order, else a file without rows, else the first non-finite row."""
    rows, non_finite = 0, None
    for lineno, line in enumerate(data.decode("utf-8").splitlines()[1:], start=2):
        if not line.strip():
            continue
        if line.count(",") != dim:
            return f"line {lineno}: expected {dim} features, got {line.count(',')}"
        cells = line.split(",")
        try:
            label, values = int(cells[0]), [float(cell) for cell in cells[1:]]
        except ValueError:
            return f"line {lineno}: unparseable numeric value"
        if not 0 <= label < classes:
            return f"line {lineno}: label {label} out of range [0, {classes})"
        rows += 1
        if non_finite is None and not all(map(math.isfinite, values)):
            non_finite = lineno
    if not rows:
        return "no example rows"
    return None if non_finite is None else f"line {non_finite}: non-finite feature value"


def load_fresh(path):
    """load_frozen_features with the content's cached parse dropped, so the
    file is read and parsed again."""
    task_module._PARSED_FEATURE_FILES.clear()
    return load_frozen_features(path)


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
        dataset, num_classes = load_frozen_features(path)
        assert dataset.size == 3
        assert dataset.feature_dim == 4
        assert num_classes == 2
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

    @pytest.mark.parametrize("text, message", [
        ("dims=4;classes=2\n", "expected 'dim=<int>,classes=<int>', got 'dims=4;classes=2'"),
        ("", "empty file"),
        ("dim=x,classes=2\n", "expected 'dim=<int>,classes=<int>', got 'dim=x,classes=2'"),
        ("dim=0,classes=2\n0\n", "dim must be >= 1 and classes >= 2"),
        ("dim=3,classes=1\n0,1,2,3\n", "dim must be >= 1 and classes >= 2"),
    ], ids=["not-a-header", "empty", "non-integer-dim", "zero-dim", "one-class"])
    def test_malformed_header_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.features"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape('malformed header: ' + message)}$"):
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

    def test_errors_after_a_blank_line_name_the_file_line(self, tmp_path):
        path = tmp_path / "bad.features"
        for rows, message in (
            ("0,1.0\n", "line 5: expected 2 features, got 1"),
            ("0,1.0,oops\n", "line 5: unparseable numeric value"),
            ("2,1.0,2.0\n", r"line 5: label 2 out of range \[0, 2\)"),
        ):
            path.write_text("dim=2,classes=2\n0,1.0,2.0\n\n   \n" + rows, encoding="utf-8")
            with pytest.raises(ValueError, match=message):
                load_frozen_features(path)

    def test_errors_come_in_line_order(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=2\n0,1.0,oops\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: unparseable numeric value"):
            load_frozen_features(path)
        path.write_text("dim=2,classes=2\n0,nan,1.0\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: expected 2 features, got 1"):
            load_frozen_features(path)

    def test_header_width_alone_sizes_no_array(self, tmp_path):
        # A header naming a huge dim must fail on the row that does not
        # match it, not in allocating rows of that width.
        path = tmp_path / "bad.features"
        path.write_text("dim=1000000000000,classes=2\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 1000000000000 features, got 1"):
            load_frozen_features(path)

    def test_parsed_arrays_are_c_contiguous_and_read_only(self, tmp_path):
        # The features are the read-only [:-1].T view of one C-ordered
        # (dim+1, rows) buffer whose last row is the bias ones.
        path = tmp_path / "rows.features"
        path.write_text("dim=3,classes=3\n0,1.0,2.0,3.0\n\n2,4.0,5.0,6.0\n", encoding="utf-8")
        dataset, _ = load_frozen_features(path)
        x_t = dataset.features.base
        for array, dtype in ((x_t, np.float64), (dataset.labels, np.int64)):
            assert array.dtype == dtype
            assert array.flags.c_contiguous
            assert not array.flags.writeable
        assert not dataset.features.flags.writeable
        np.testing.assert_array_equal(x_t, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0], [1.0, 1.0]])
        assert SoftmaxHeadTask(3, 3).stack((dataset,)).x_t is x_t
        np.testing.assert_array_equal(dataset.features, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(dataset.labels, [0, 2])

    def test_write_then_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        dataset = FeatureDataset(
            features=rng.normal(size=(12, 5)), labels=rng.integers(0, 3, size=12)
        )
        path = tmp_path / "round.features"
        save_frozen_features(path, dataset, num_classes=3)
        loaded, num_classes = load_frozen_features(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert num_classes == 3

    def test_writer_refuses_what_the_reader_rejects_before_opening_the_file(self, tmp_path):
        path = tmp_path / "refused.features"
        good = FeatureDataset(np.ones((3, 2)), np.array([0, 1, 1]))
        nan_row = FeatureDataset(np.array([[1.0, np.nan], [2.0, 3.0]]), np.array([0, 1]))
        for dataset, classes, message in (
            (good, 1, "classes must be >= 2; labels must lie in [0, 1)"),
            (FeatureDataset(np.ones((3, 0)), np.array([0, 1, 1])), 2, "dim must be >= 1"),
            (FeatureDataset(np.ones((0, 2)), np.array([], dtype=np.int64)), 2, "no example rows"),
            (FeatureDataset(np.ones((2, 2)), np.array([0, 2])), 2, "labels must lie in [0, 2)"),
            (FeatureDataset(np.ones((2, 2)), np.array([-1, 0])), 2, "labels must lie in [0, 2)"),
            (nan_row, 2, "feature values must be finite"),
            (FeatureDataset(np.full((1, 2), np.inf), np.array([0])), 2, "feature values must be finite"),
        ):
            with pytest.raises(ValueError) as info:
                save_frozen_features(path, dataset, num_classes=classes)
            assert str(info.value) == message
            assert not path.exists()

    def test_writer_refuses_labels_of_a_non_integer_dtype(self, tmp_path):
        # int() would cut 0.7 and 1.9 to 0 and 1, and write True as 1.
        path = tmp_path / "refused.features"
        for labels, classes, message in (
            (np.array([0.7, 1.9]), 2, "labels must be integers, not float64"),
            (np.array([True, False]), 2, "labels must be integers, not bool"),
            (np.array([0.0, 1.0]), 1, "classes must be >= 2; labels must be integers, not float64"),
        ):
            with pytest.raises(ValueError) as info:
                save_frozen_features(path, FeatureDataset(np.ones((2, 2)), labels), num_classes=classes)
            assert str(info.value) == message
            assert not path.exists()
        save_frozen_features(path, FeatureDataset(np.ones((2, 2)), np.array([1, 0], dtype=np.uint8)), num_classes=2)
        assert path.read_text() == "dim=2,classes=2\n1,1.0,1.0\n0,1.0,1.0\n"

    def test_writer_refuses_a_class_count_that_is_not_an_integer(self, tmp_path):
        # The reader takes the header's classes with int(), so 2.5, 3.0 or
        # True would be written into a header that it rejects.
        path = tmp_path / "refused.features"
        dataset = FeatureDataset(np.ones((2, 2)), np.array([0, 1]))
        for classes in (2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3"):
            with pytest.raises(ValueError) as info:
                save_frozen_features(path, dataset, num_classes=classes)
            assert str(info.value) == "classes must be an integer"
            assert not path.exists()
        save_frozen_features(path, dataset, num_classes=np.int64(3))
        assert path.read_text() == "dim=2,classes=3\n0,1.0,1.0\n1,1.0,1.0\n"
        assert load_frozen_features(path)[1] == 3

    def test_a_loaded_dataset_writes_back_its_file(self, tmp_path):
        # The loaded features are a transposed view; the writer reads its rows.
        dataset = make_anisotropic_features(40, 7, 3, condition=10.0, separation=1.0, seed=4)
        first, second = tmp_path / "first.features", tmp_path / "second.features"
        save_frozen_features(first, dataset, num_classes=3)
        loaded, classes = load_fresh(first)
        assert not loaded.features.flags.c_contiguous
        save_frozen_features(second, loaded, num_classes=classes)
        assert second.read_bytes() == first.read_bytes()

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
        first, _ = load_frozen_features(path)
        second, _ = load_frozen_features(path)
        assert second is first
        assert not first.features.flags.writeable
        assert not first.labels.flags.writeable

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

    # A file of several 64-byte chunks: CRLF ends, blank lines, rows of
    # about 230 bytes, and an 18-byte header line, "dim=12,classes=3\r\n".
    # The chunk sizes cut inside a line, between the header's \r and \n
    # (17), exactly after its \n (18) and after that; 1 << 16 reads it whole.
    CHUNK_SIZES = (1, 7, 17, 18, 19, 64, 1 << 16)

    def chunked_file(self, tmp_path, bad_cell=None):
        rng = np.random.default_rng(8)
        rows = [[str(k % 3)] + [repr(float(v)) for v in rng.normal(size=12)] for k in range(9)]
        if bad_cell is not None:
            rows[6][4] = bad_cell
        lines = [",".join(row) for row in rows]
        text = "\r\n".join(["dim=12,classes=3"] + lines[:3] + ["", "  "] + lines[3:]) + "\r\n"
        path = tmp_path / "chunked.features"
        path.write_bytes(text.encode())
        assert path.stat().st_size > 8 * 64
        return path, text.encode()

    def test_chunked_read_gives_the_whole_text_arrays(self, tmp_path, monkeypatch):
        path, data = self.chunked_file(tmp_path)
        features, labels = whole_text_oracle(data)
        assert features.shape == (9, 12)
        for chunk_bytes in self.CHUNK_SIZES:
            monkeypatch.setattr(task_module, "_CHUNK_BYTES", chunk_bytes)
            dataset, classes = load_fresh(path)
            assert classes == 3
            assert dataset.features.tobytes() == features.tobytes()
            np.testing.assert_array_equal(dataset.labels, labels)
            assert SoftmaxHeadTask(3, 12).stack((dataset,)).x_t is dataset.features.base

    def test_chunked_read_errors_name_the_whole_text_line(self, tmp_path, monkeypatch):
        for cell, message in (("oops", "unparseable numeric value"), ("-inf", "non-finite feature value")):
            path, data = self.chunked_file(tmp_path, bad_cell=cell)
            lines = data.decode().splitlines()
            (lineno,) = [k for k, line in enumerate(lines, start=1) if cell in line.split(",")]
            assert lineno == 10  # the header, three rows, two blank lines, then rows 4-6
            for chunk_bytes in self.CHUNK_SIZES:
                monkeypatch.setattr(task_module, "_CHUNK_BYTES", chunk_bytes)
                with pytest.raises(ValueError, match=f"^line {lineno}: {message}$"):
                    load_fresh(path)

    def test_other_line_separators_number_lines_as_splitlines(self, tmp_path, monkeypatch):
        # Lone \r, \f, \x1c and \u2028 end lines as str.splitlines ends them,
        # so the file holds more rows than \n bytes.
        path = tmp_path / "separators.features"
        text = "dim=1,classes=2\r0,1.0\f1,2.0\x1c\r\n0,3.0\u20281,4.0\r0,5.0\n1,6.0"
        path.write_bytes(text.encode())
        features, labels = whole_text_oracle(text.encode())
        bad = text.replace("1,4.0", "1,oops")
        lineno = bad.splitlines().index("1,oops") + 1
        assert lineno == 6
        for chunk_bytes in (1, 2, 5, 16, 1 << 16):
            monkeypatch.setattr(task_module, "_CHUNK_BYTES", chunk_bytes)
            path.write_bytes(text.encode())
            dataset, _ = load_fresh(path)
            np.testing.assert_array_equal(dataset.features, features)
            np.testing.assert_array_equal(dataset.labels, labels)
            path.write_bytes(bad.encode())
            with pytest.raises(ValueError, match=f"^line {lineno}: unparseable numeric value$"):
                load_fresh(path)

    # The fuzz's traps: cells that numpy's C parser and int or float read
    # apart or that either refuses (\x1f it strips as whitespace, where
    # float refuses it), every str.splitlines separator, and blank lines
    # that only str.strip sees as blank.
    FUZZ_LABELS = ("1.0", "+1", " 1", "0001", "\u0661", "1_0", "1e0", "-1", "9" * 20, "", "#1")
    FUZZ_CELLS = ("1_000", "0x10", "Infinity", "1e400", "nan", "1\x002", "\u0661\u0662", "#", "1#2", " 2.5 ",
                  "\x1f1.5", "1.5\x1f", "\t3", "", "1e", "\xa04", "-0.0", "5e-324", "1e-400")
    SEPARATORS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
    BLANKS = ("", " ", "\t", "\x1f", "\u3000")

    def fuzz_text(self, rng, dim, classes):
        lines = [f"dim={dim},classes={classes}"]
        for _ in range(rng.integers(0, 9)):
            if rng.random() < 0.1:
                lines.append(str(rng.choice(self.BLANKS)))
            label = str(rng.integers(classes)) if rng.random() < 0.93 else str(rng.choice(self.FUZZ_LABELS))
            cells = [repr(float(v)) if rng.random() < 0.96 else str(rng.choice(self.FUZZ_CELLS))
                     for v in rng.normal(size=dim + int(rng.choice((-1, 1))) * (rng.random() < 0.03))]
            lines.append(",".join([label] + cells))
        ends = [str(rng.choice(self.SEPARATORS)) if rng.random() < 0.15 else "\n" for _ in lines]
        return "".join(line + end for line, end in zip(lines, ends))[:None if rng.random() < 0.8 else -1]

    def test_fuzzed_files_load_as_the_whole_text_rules_read_them(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2026)
        path = tmp_path / "fuzz.features"
        loadtxt = np.loadtxt
        reads = []

        def counted(*args, **kwargs):
            reads.append(False)
            values = loadtxt(*args, **kwargs)
            reads[-1] = True
            return values

        monkeypatch.setattr(np, "loadtxt", counted)
        outcomes = set()
        for _ in range(300):
            dim, classes = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            data = self.fuzz_text(rng, dim, classes).encode()
            path.write_bytes(data)
            monkeypatch.setattr(task_module, "_CHUNK_BYTES", int(rng.choice(list(range(1, 13)) + [1 << 16])))
            error = whole_text_error(data, dim, classes)
            outcomes.add(error.split(": ")[-1].split(" ")[0] if error else "accepted")
            if error is not None:
                with pytest.raises(ValueError) as info:
                    load_fresh(path)
                assert str(info.value) == error, data
                continue
            dataset, loaded_classes = load_fresh(path)
            features, labels = whole_text_oracle(data)
            assert loaded_classes == classes
            assert dataset.features.tobytes() == features.reshape(-1, dim).tobytes(), data
            np.testing.assert_array_equal(dataset.labels, labels)
            assert SoftmaxHeadTask(classes, dim).stack((dataset,)).x_t is dataset.features.base
        assert outcomes == {"accepted", "expected", "unparseable", "label", "non-finite", "no"}
        # numpy's parser read some chunks and refused others.
        assert True in reads and False in reads

    def test_a_load_holds_the_arrays_and_a_chunk_not_the_text(self, tmp_path):
        dataset = make_anisotropic_features(3000, 96, 4, condition=10.0, separation=1.0, seed=3)
        path = tmp_path / "big.features"
        save_frozen_features(path, dataset, num_classes=4)
        size = path.stat().st_size
        assert size > 5_000_000
        task_module._PARSED_FEATURE_FILES.clear()
        tracemalloc.start()
        try:
            loaded, _ = load_frozen_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The buffer (the matrix and its row of ones) and the labels fit in
        # matrix + 2 * labels; a byte per value and a fixed allowance cover
        # a chunk, its text, its lines and its parsed rows.
        matrix = loaded.features.nbytes
        assert peak <= matrix + loaded.features.size + 2 * loaded.labels.nbytes + (1 << 20), (peak, matrix)
        assert peak < size / 2

    def test_blank_lines_size_no_array_beyond_the_bytes(self, tmp_path):
        # A row for each line left would take 32 GB; the 0.28 MB file holds 7.
        dim = 20_000
        path = tmp_path / "blank.features"
        path.write_text(f"dim={dim},classes=2\n1," + ",".join(["0.5"] * dim) + "\n" * 200_000)
        task_module._PARSED_FEATURE_FILES.clear()
        tracemalloc.start()
        try:
            dataset, _ = load_frozen_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.features.shape == (1, dim)
        assert peak < 16 << 20

    def test_a_file_changed_between_lookup_and_parse_fails_and_is_not_cached(self, tmp_path, monkeypatch):
        path = tmp_path / "moving.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n", encoding="utf-8")
        read_lines = task_module._decoded_lines

        def rewritten_first(fh, digest):
            path.write_text("dim=2,classes=2\n1,5.0,2.0\n", encoding="utf-8")
            return read_lines(fh, digest)

        kept = list(task_module._PARSED_FEATURE_FILES)
        monkeypatch.setattr(task_module, "_decoded_lines", rewritten_first)
        with pytest.raises(ValueError) as info:
            load_frozen_features(path)
        assert str(info.value) == f"{path}: the file changed while it was read"
        assert list(task_module._PARSED_FEATURE_FILES) == kept
        monkeypatch.undo()
        dataset, _ = load_frozen_features(path)
        np.testing.assert_array_equal(dataset.features, [[5.0, 2.0]])

    def test_a_cold_load_reads_the_file_twice_and_a_cached_one_once(self, tmp_path, monkeypatch):
        # The lookup pass also counts the lines that size the buffer.
        path = tmp_path / "passes.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n1,3.0,4.0\n", encoding="utf-8")
        passes = []
        read = task_module._chunks

        def counted(fh):
            passes.append(fh)
            return read(fh)

        monkeypatch.setattr(task_module, "_chunks", counted)
        monkeypatch.setattr(task_module, "_CHUNK_BYTES", 5)
        cold, _ = load_fresh(path)
        assert len(passes) == 2
        passes.clear()
        cached, _ = load_frozen_features(path)
        assert len(passes) == 1 and cached is cold
        np.testing.assert_array_equal(cold.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_a_write_that_stops_part_way_leaves_the_old_file_or_none(self, tmp_path, monkeypatch):
        class FailsAtRow2(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, int) and index == 2:
                    raise OSError("No space left on device")
                return super().__getitem__(index)

        failing = FeatureDataset(np.ones((5, 3)).view(FailsAtRow2), np.array([0, 1, 0, 1, 0]))
        path = tmp_path / "target.features"
        with pytest.raises(OSError, match="No space left"):
            save_frozen_features(path, failing, num_classes=2)
        assert os.listdir(tmp_path) == []
        good = FeatureDataset(np.full((2, 3), 0.5), np.array([1, 0]))
        save_frozen_features(path, good, num_classes=2)
        before = path.read_bytes()
        with pytest.raises(OSError, match="No space left"):
            save_frozen_features(path, failing, num_classes=2)

        def replace_fails(src, dst):
            raise OSError("No space left on device")

        monkeypatch.setattr(os, "replace", replace_fails)
        with pytest.raises(OSError, match="No space left"):
            save_frozen_features(path, good, num_classes=2)
        assert os.listdir(tmp_path) == ["target.features"]
        assert path.read_bytes() == before


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
        with pytest.raises(ValueError, match=r"condition must lie in \[1, inf\)"):
            make_anisotropic_features(10, 2, 2, condition=0.5, separation=1.0, seed=0)
        with pytest.raises(ValueError, match="at least one example per class"):
            make_anisotropic_features(1, 2, 2, condition=10.0, separation=1.0, seed=0)

    def test_bad_settings_are_named_together(self):
        for settings, message in (
            (dict(condition=math.nan), "condition must lie in [1, inf)"),
            (dict(condition=math.inf), "condition must lie in [1, inf)"),
            (dict(separation=math.inf), "separation must lie in (-inf, inf)"),
            (dict(num_classes=1), "num_classes must be >= 2"),
            (dict(feature_dim=0), "feature_dim must be >= 1"),
            (dict(feature_dim=0, num_classes=1, condition=math.nan, separation=-math.inf),
             "feature_dim must be >= 1; num_classes must be >= 2; condition must lie in [1, inf); "
             "separation must lie in (-inf, inf)"),
        ):
            with pytest.raises(ValueError) as info:
                make_anisotropic_features(**{**dict(num_examples=50, feature_dim=3, num_classes=2,
                                                    condition=10.0, separation=1.0, seed=0), **settings})
            assert str(info.value) == message
