"""Per-example clipping and the noisy normalized client release."""

import math
import warnings

import numpy as np
import pytest

import fedsofim.client as client_module
from fedsofim.client import MAX_ULP_PASSES, clip_rows, private_release, release_round
from fedsofim.core import derive_noise_stream, derive_noise_streams
from fedsofim.task import (
    FeatureDataset,
    QuadraticShard,
    SoftmaxHeadTask,
    make_anisotropic_features,
    make_synthetic_quadratic,
    partition_iid,
)


def clip_gradient(g, c_g):
    """Scalar clip oracle: scale g onto the l2 ball of radius c_g, then nudge
    by at most MAX_ULP_PASSES rescalings until its recomputed norm is <= c_g.
    Takes its norm with np.linalg.norm of one vector, not clip_rows's row
    reduction."""
    if c_g <= 0:
        raise ValueError("c_g must be positive")
    g = np.asarray(g, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    if norm <= c_g:
        return g
    out = g * (c_g / norm)
    new_norm = float(np.linalg.norm(out))
    passes = 0
    while new_norm > c_g:
        if passes == MAX_ULP_PASSES:
            raise RuntimeError(f"clipped norm still exceeds c_g after {MAX_ULP_PASSES} rescaling passes")
        out = out * (c_g / new_norm)
        new_norm = float(np.linalg.norm(out))
        passes += 1
    return out


class StubTask:
    """Minimal task double whose per-example gradients are fixed rows.

    Lets a test choose gradient geometry exactly (e.g. antipodal max-norm
    rows) instead of reverse-engineering model parameters that produce it.
    Its stack is the tuple of shards.
    """

    def per_example_gradients(self, theta, dataset):
        return np.array(dataset.rows, dtype=float)

    def stack(self, shards):
        return StubStack(shards)

    def clipped_sums(self, theta, stacked, c_g):
        return np.stack([np.add.reduce(clip_rows(self.per_example_gradients(theta, shard), c_g), axis=0)
                         for shard in stacked.shards])


class StubStack:
    def __init__(self, shards):
        self.shards = tuple(shards)
        self.sizes = tuple(shard.size for shard in self.shards)
        self.counts = np.array(self.sizes, dtype=float)[:, None]

    def subset(self, picks):
        """The stack gathers the picked rows itself, as FeatureStack does."""
        return StubStack(shard if pick is None else StubDataset([shard.rows[i] for i in pick])
                         for shard, pick in zip(self.shards, picks))


class StubDataset:
    def __init__(self, rows):
        self.rows = [list(map(float, r)) for r in rows]
        self.size = len(self.rows)


def stub_release(rows, c_g, sigma_g=0.0, n=1, stream=None, batch_size=0):
    return private_release(
        StubDataset(rows), np.zeros(2), c_g, sigma_g, n, stream, StubTask(),
        batch_size=batch_size,
    )


class TestClipGradient:
    def test_halves_a_norm_ten_vector_to_radius_five(self):
        np.testing.assert_array_equal(clip_gradient(np.array([6.0, 8.0]), 5.0), [3.0, 4.0])

    def test_vector_inside_the_ball_is_returned_unchanged(self):
        g = np.array([1.0, 0.0])
        np.testing.assert_array_equal(clip_gradient(g, 5.0), g)

    def test_vector_exactly_on_the_boundary_is_unchanged(self):
        g = np.array([3.0, 4.0])
        np.testing.assert_array_equal(clip_gradient(g, 5.0), g)

    def test_zero_vector_maps_to_itself(self):
        np.testing.assert_array_equal(clip_gradient(np.zeros(3), 2.0), np.zeros(3))

    def test_output_norm_and_direction_over_random_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            d = int(rng.integers(1, 12))
            g = rng.normal(size=d) * rng.uniform(0.01, 50.0)
            c_g = float(rng.uniform(0.1, 10.0))
            out = clip_gradient(g, c_g)
            expected_norm = min(float(np.linalg.norm(g)), c_g)
            np.testing.assert_allclose(np.linalg.norm(out), expected_norm, rtol=1e-12)
            # out must be a nonnegative scalar multiple of g
            g_norm = np.linalg.norm(g)
            if g_norm > 0:
                cosine = float(out @ g) / (np.linalg.norm(out) * g_norm + 1e-300)
                assert cosine >= 1.0 - 1e-12

    def test_clipped_norm_never_exceeds_the_radius_even_by_one_ulp(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            d = int(rng.integers(1, 8))
            g = rng.normal(size=d)
            g *= rng.uniform(1.0, 3.0) / np.linalg.norm(g)
            c_g = float(rng.uniform(0.3, 1.2))
            assert float(np.linalg.norm(clip_gradient(g, c_g))) <= c_g

    def test_rowwise_helper_matches_scalar_path(self):
        # The two paths compute row norms through different reductions, so
        # clipped rows agree only to an ulp; rows inside the ball must come
        # back bit-identical from both.
        rng = np.random.default_rng(29)
        grads = rng.normal(size=(40, 6)) * rng.uniform(0.1, 5.0, size=(40, 1))
        c_g = 1.5
        rows = clip_rows(grads, c_g)
        singles = np.stack([clip_gradient(g, c_g) for g in grads])
        np.testing.assert_allclose(rows, singles, rtol=5e-16, atol=0.0)
        inside = np.linalg.norm(grads, axis=1) <= c_g
        assert inside.any()
        np.testing.assert_array_equal(rows[inside], grads[inside])
        assert np.all(np.linalg.norm(rows, axis=1) <= c_g)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="c_g must be positive"):
            clip_gradient(np.ones(2), 0.0)
        for c_g in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_g must be positive and finite"):
                clip_rows(np.ones((2, 2)), c_g)


def reference_clip_rows(grads, c_g):
    """clip_rows as it was before its fast paths: every row scaled (by exactly
    1.0 when inside), every row's norm rechecked.  The oracle for bit-identity."""
    grads = np.asarray(grads, dtype=np.float64)
    norms = np.linalg.norm(grads, axis=1)
    scale = np.minimum(1.0, c_g / np.maximum(norms, np.finfo(np.float64).tiny))
    out = grads * scale[:, None]
    over = np.flatnonzero(np.linalg.norm(out, axis=1) > c_g)
    while over.size:
        sub_norms = np.linalg.norm(out[over], axis=1)
        out[over] = out[over] * (c_g / sub_norms)[:, None]
        over = over[np.linalg.norm(out[over], axis=1) > c_g]
    return out


def random_stack(rng, radius_range):
    """(m, d) stack with row norms uniform over radius_range; widths span
    the short rows summed sequentially and the long ones summed pairwise."""
    m = int(rng.integers(1, 200))
    d = int(rng.integers(1, 40))
    rows = rng.normal(size=(m, d))
    rows *= (rng.uniform(*radius_range, size=m) / np.linalg.norm(rows, axis=1))[:, None]
    return rows


def assert_matches_reference(grads, c_g):
    got = clip_rows(grads, c_g)
    expected = reference_clip_rows(grads, c_g)
    np.testing.assert_array_equal(got, expected)
    # The release sums the clipped stack; its bits must match the sum over
    # the reference's contiguous output, stride-0 repetitions included.
    np.testing.assert_array_equal(np.add.reduce(got, axis=0), expected.sum(axis=0))
    return got


class TestClipRowsMatchesReference:
    def test_all_rows_inside_return_the_stack_itself(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            c_g = float(rng.uniform(0.1, 10.0))
            grads = random_stack(rng, (0.0, c_g))
            assert assert_matches_reference(grads, c_g) is grads

    def test_some_rows_outside(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            c_g = float(rng.uniform(0.1, 10.0))
            # Upper ends from just past the radius to far past it move the
            # scaled share across the whole range, both post-check branches.
            grads = random_stack(rng, (0.0, c_g * rng.uniform(1.01, 20.0)))
            out = assert_matches_reference(grads, c_g)
            assert np.all(np.linalg.norm(out, axis=1) <= c_g)

    def test_rows_exactly_on_the_boundary(self):
        assert_matches_reference(np.array([[3.0, 4.0], [6.0, 8.0], [0.3, 0.4]]), 5.0)
        rng = np.random.default_rng(107)
        for _ in range(300):
            grads = random_stack(rng, (0.5, 2.0))
            c_g = float(np.linalg.norm(grads, axis=1)[rng.integers(grads.shape[0])])
            assert_matches_reference(grads, c_g)

    def test_stride_zero_stacks(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            d = int(rng.integers(1, 40))
            row = rng.normal(size=d) * rng.uniform(0.01, 20.0)
            grads = np.broadcast_to(row, (int(rng.integers(1, 300)), d))
            c_g = float(rng.uniform(0.1, 10.0))
            out = assert_matches_reference(grads, c_g)
            assert out.shape == grads.shape

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_rows_holding_nan_or_inf(self):
        rng = np.random.default_rng(113)
        for bad in (np.nan, np.inf, -np.inf):
            for _ in range(50):
                grads = random_stack(rng, (0.0, 4.0))
                grads[rng.integers(grads.shape[0]), rng.integers(grads.shape[1])] = bad
                assert_matches_reference(grads, 2.0)
            assert_matches_reference(np.broadcast_to([bad, 1.0], (5, 2)), 2.0)

    def test_a_finite_row_whose_squares_overflow_lands_on_the_radius(self):
        # Its squared norm is inf, yet the row is finite: it is scaled onto
        # the radius, not to zero, and every other row keeps its bits.
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(clip_rows(np.array([[1e200, 0.0]]), 1.0), [[1.0, 0.0]])
            # At a radius whose square overflows, the ulp correction reads
            # the same norm: a row inside the ball keeps its bits, and one
            # past it lands on the radius, not on zero.
            np.testing.assert_array_equal(clip_rows(np.array([[1e180, 1e180]]), 1e200), [[1e180, 1e180]])
            clipped = clip_rows(np.array([[1e250, 0.0]]), 1e200)
            assert 1e200 * (1 - 1e-15) <= clipped[0, 0] <= 1e200 and clipped[0, 1] == 0.0
            rng = np.random.default_rng(127)
            for _ in range(100):
                grads = random_stack(rng, (0.0, 4.0))
                wide = rng.integers(grads.shape[0])
                grads[wide] = rng.normal(size=grads.shape[1]) * 10.0 ** rng.uniform(155.0, 307.0)
                out = clip_rows(grads, 2.0)
                rest = np.arange(grads.shape[0]) != wide
                np.testing.assert_array_equal(out[rest], reference_clip_rows(grads[rest], 2.0))
                assert 2.0 * (1 - 1e-15) <= np.linalg.norm(out, axis=1)[wide] <= 2.0
                np.testing.assert_allclose(out[wide], grads[wide] / np.linalg.norm(grads[wide] / 1e300) / 1e300 * 2.0,
                                           rtol=1e-14)
                # Radii as large as the row: one from 1e-5 of the row's norm up
                # to it clips the row onto it, one above it keeps its bits.
                norm = np.abs(grads[wide]).max() * np.linalg.norm(grads[wide] / np.abs(grads[wide]).max())
                c_g = norm * 10.0 ** -rng.uniform(0.0, 5.0)
                out = clip_rows(grads[wide:wide + 1], c_g)
                # Its norm as clip_rows reads it: from the row over its peak where the squares overflow.
                peak = np.abs(out).max()
                read = np.linalg.norm(out, axis=1)[0]
                read = read if read < math.inf else peak * np.linalg.norm(out / peak, axis=1)[0]
                assert c_g * (1 - 1e-15) <= read <= c_g
                np.testing.assert_allclose(out[0], grads[wide] * (c_g / norm), rtol=1e-14)
                roomy = grads[wide:wide + 1]
                np.testing.assert_array_equal(clip_rows(roomy, min(norm * 1.5, 1e308)), roomy)

    def test_input_is_never_modified(self):
        grads = np.array([[3.0, 4.0], [0.1, 0.2]])
        before = grads.copy()
        clip_rows(grads, 1.0)
        np.testing.assert_array_equal(grads, before)


class TestUlpCorrectionIsBounded:
    def test_scalar_path_raises_when_the_norm_never_settles(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "norm", lambda x: 2.0)
        with pytest.raises(RuntimeError, match=f"after {MAX_ULP_PASSES} rescaling passes"):
            clip_gradient(np.array([3.0, 4.0]), 1.0)

    def test_row_path_raises_when_the_norm_never_settles(self, monkeypatch):
        calls = []

        def stuck_norms(x):
            calls.append(x.shape[0])
            return np.full(x.shape[0], 2.0)

        monkeypatch.setattr(client_module, "_row_norms", stuck_norms)
        with pytest.raises(RuntimeError, match=f"after {MAX_ULP_PASSES} rescaling passes"):
            clip_rows(np.array([[3.0, 4.0], [0.0, 5.0]]), 1.0)
        # the initial norms, the first recheck, then two per rescaling pass
        assert len(calls) == 2 + 2 * MAX_ULP_PASSES


class TestPrivateReleaseNoiseless:
    def test_identical_unclipped_gradients_normalize_back_exactly(self):
        g = [0.75, -0.5]
        for m in (1, 2, 4, 8):
            release = stub_release([g] * m, c_g=5.0)
            np.testing.assert_array_equal(release, g)

    def test_odd_dataset_size_normalizes_to_float_precision(self):
        g = [0.3, 0.7]
        release = stub_release([g] * 3, c_g=5.0)
        np.testing.assert_allclose(release, g, rtol=4e-16)

    def test_single_example_is_clipped_then_normalized_by_one(self):
        release = stub_release([[0.0, 20.0]], c_g=10.0)
        np.testing.assert_array_equal(release, [0.0, 10.0])

    def test_release_is_the_mean_of_clipped_gradients(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(6, 4)) * 3.0
        c_g = 1.0
        release = private_release(
            type("D", (), {"rows": rows.tolist(), "size": 6})(), np.zeros(4),
            c_g, 0.0, 1, None, StubTask(),
        )
        oracle = np.stack([clip_gradient(r, c_g) for r in rows]).sum(axis=0) / 6
        np.testing.assert_allclose(release, oracle, rtol=1e-15)

    def test_noiseless_release_norm_never_exceeds_the_radius(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            rows = rng.normal(size=(m, 3)) * rng.uniform(0.1, 10.0)
            release = stub_release(rows.tolist(), c_g=2.0)
            assert float(np.linalg.norm(release)) <= 2.0

    def test_replace_one_neighbors_differ_by_at_most_two_cg_over_size(self):
        # Adversarial witness: two datasets identical except one record whose
        # clipped gradients are antipodal at full radius.
        c_g, m = 4.0, 5
        shared = [[0.1, 0.2]] * (m - 1)
        a = stub_release(shared + [[100.0, 0.0]], c_g=c_g)
        b = stub_release(shared + [[-100.0, 0.0]], c_g=c_g)
        diff = float(np.linalg.norm(a - b))
        np.testing.assert_allclose(diff, 2.0 * c_g / m, rtol=1e-12)

    def test_random_neighbors_never_exceed_the_sensitivity_bound(self):
        rng = np.random.default_rng(41)
        c_g = 1.5
        for _ in range(200):
            m = int(rng.integers(1, 7))
            rows = (rng.normal(size=(m, 3)) * rng.uniform(0.1, 4.0)).tolist()
            swapped = [list(r) for r in rows]
            swapped[-1] = (rng.normal(size=3) * rng.uniform(0.1, 4.0)).tolist()
            a = stub_release(rows, c_g=c_g)
            b = stub_release(swapped, c_g=c_g)
            assert np.linalg.norm(a - b) <= 2.0 * c_g / m + 1e-12

    def test_sigma_zero_never_touches_the_stream(self):
        class ExplodingStream:
            def normal(self, *a, **k):
                raise AssertionError("stream consulted in the non-private path")

            def choice(self, *a, **k):
                raise AssertionError("stream consulted in the non-private path")

        release = stub_release([[1.0, 2.0]] * 3, c_g=10.0, stream=ExplodingStream())
        np.testing.assert_allclose(release, [1.0, 2.0], rtol=4e-16)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            stub_release([], c_g=1.0)

    def test_negative_sigma_rejected(self):
        for sigma_g in (-1.0, math.nan):
            with pytest.raises(ValueError, match="sigma_g must be nonnegative"):
                stub_release([[1.0, 0.0]], c_g=1.0, sigma_g=sigma_g)

    def test_client_and_round_keywords_leave_the_release_unchanged(self):
        release = private_release(
            StubDataset([[3.0, 4.0]]), np.zeros(2), 1.0, 0.5, 2, derive_noise_stream(5, 3, 9), StubTask(),
            client_id=3, round_index=9,
        )
        expected = stub_release([[3.0, 4.0]], c_g=1.0, sigma_g=0.5, n=2, stream=derive_noise_stream(5, 3, 9))
        assert release.shape == (2,)
        np.testing.assert_array_equal(release, expected)


class TestPrivateReleaseNoise:
    def test_noise_is_one_gaussian_on_the_sum_before_normalization(self):
        # Reconstruct the exact draw from an identically seeded stream: the
        # release must equal (clipped sum + E) / |D| with a single
        # N(0, (c_g sigma_g)^2 / n) vector E.
        c_g, sigma_g, n, m = 2.0, 1.5, 4, 6
        rows = [[0.3, -0.2, 0.1]] * m
        stream = derive_noise_stream(99, 2, 5)
        release = stub_release(rows, c_g=c_g, sigma_g=sigma_g, n=n, stream=stream)

        twin = derive_noise_stream(99, 2, 5)
        noise = twin.normal(0.0, c_g * sigma_g / math.sqrt(n), size=3)
        expected = (np.array(rows).sum(axis=0) + noise) / m
        np.testing.assert_array_equal(release, expected)

    def test_same_stream_seed_reproduces_the_release(self):
        rows = [[1.0, 2.0], [3.0, -1.0]]
        a = stub_release(rows, c_g=1.0, sigma_g=2.0, n=3,
                         stream=derive_noise_stream(7, 0, 0))
        b = stub_release(rows, c_g=1.0, sigma_g=2.0, n=3,
                         stream=derive_noise_stream(7, 0, 0))
        np.testing.assert_array_equal(a, b)

    def test_per_coordinate_noise_variance_matches_the_formula(self):
        # Monte Carlo oracle: var over draws of (release - noiseless release)
        # per coordinate should be (c_g sigma_g)^2 / (n |D|^2) = 1.0 here.
        c_g, sigma_g, n, m, d = 10.0, 2.0, 4, 10, 2
        rows = [[0.05] * d] * m
        noiseless = stub_release(rows, c_g=c_g)
        draws = 100_000
        acc = np.zeros(d)
        acc_sq = np.zeros(d)
        for k in range(draws):
            stream = derive_noise_stream(1234, 0, k)
            vec = stub_release(rows, c_g=c_g, sigma_g=sigma_g, n=n, stream=stream)
            delta = vec - noiseless
            acc += delta
            acc_sq += delta * delta
        var = (acc_sq - acc * acc / draws) / (draws - 1)
        target = (c_g * sigma_g) ** 2 / (n * m**2)
        np.testing.assert_allclose(target, 1.0)
        np.testing.assert_allclose(var, target, rtol=0.03)
        # conditional mean-zero: |mean| within 5 standard errors
        stderr = math.sqrt(target / draws)
        assert np.all(np.abs(acc / draws) <= 5 * stderr)

    def test_noise_scale_depends_on_client_count(self):
        rows = [[0.0, 0.0]]
        a = stub_release(rows, c_g=1.0, sigma_g=1.0, n=1,
                         stream=derive_noise_stream(5, 0, 0))
        b = stub_release(rows, c_g=1.0, sigma_g=1.0, n=4,
                         stream=derive_noise_stream(5, 0, 0))
        np.testing.assert_allclose(a, 2.0 * b, rtol=1e-15)


class TestMiniBatchSelection:
    def test_batch_smaller_than_dataset_subsamples_deterministically(self):
        rows = [[float(i), 0.0] for i in range(10)]
        a = stub_release(rows, c_g=100.0, batch_size=4,
                         stream=derive_noise_stream(3, 0, 0))
        b = stub_release(rows, c_g=100.0, batch_size=4,
                         stream=derive_noise_stream(3, 0, 0))
        np.testing.assert_array_equal(a, b)
        # normalized by the batch count, so the mean stays in the convex hull
        assert 0.0 <= a[0] <= 9.0

    def test_batch_at_least_dataset_size_uses_every_example(self):
        rows = [[1.0, 0.0], [3.0, 0.0]]
        full = stub_release(rows, c_g=100.0)
        batched = stub_release(rows, c_g=100.0, batch_size=2)
        np.testing.assert_array_equal(full, batched)
        oversized = stub_release(rows, c_g=100.0, batch_size=5)
        np.testing.assert_array_equal(full, oversized)

    def test_quadratic_batches_keep_the_bits_of_index_then_clip(self):
        # The release clips a QuadraticShard of batch_size rows; the oracle
        # indexes the full stack's rows, clips each one, and releases
        # (clipped row * batch + noise) / batch.
        task, shards = make_synthetic_quadratic(6, 3, mu=0.5, L=2.0, heterogeneity=1.0, seed=9, shard_size=11)
        rng = np.random.default_rng(53)
        for trial in range(200):
            shard = shards[trial % 3]
            theta = rng.normal(size=6) * rng.uniform(0.1, 5.0)
            c_g, sigma_g, batch = float(rng.uniform(0.1, 5.0)), (0.0, 1.5)[trial % 2], int(rng.integers(1, 11))
            release = private_release(shard, theta, c_g, sigma_g, 3, derive_noise_stream(17, trial % 3, trial),
                                      task, batch_size=batch)
            stream = derive_noise_stream(17, trial % 3, trial)
            indices = stream.choice(shard.size, size=batch, replace=False)
            clipped = clip_rows(task.per_example_gradients(theta, shard)[np.sort(indices)], c_g)
            np.testing.assert_array_equal(clipped, np.broadcast_to(clipped[0], clipped.shape))
            expected = clipped[0] * batch
            if sigma_g:
                expected += stream.normal(0.0, c_g * sigma_g / math.sqrt(3), size=6)
            np.testing.assert_array_equal(release, expected / batch)

    def test_softmax_batches_match_the_materialized_oracle(self):
        rng = np.random.default_rng(59)
        task = SoftmaxHeadTask(num_classes=4, feature_dim=5, l2_lambda=1e-3)
        dataset = FeatureDataset(rng.normal(size=(30, 5)) * 2.0, rng.integers(0, 4, size=30))
        for trial in range(100):
            theta = rng.normal(size=task.dim)
            c_g, batch = float(rng.uniform(0.1, 3.0)), int(rng.integers(1, 30))
            release = private_release(dataset, theta, c_g, 1.0, 2, derive_noise_stream(23, 0, trial), task,
                                      batch_size=batch)
            stream = derive_noise_stream(23, 0, trial)
            indices = stream.choice(dataset.size, size=batch, replace=False)
            clipped = clip_rows(task.per_example_gradients(theta, dataset)[np.sort(indices)], c_g)
            noise = stream.normal(0.0, c_g / math.sqrt(2), size=task.dim)
            magnitude = np.linalg.norm(clipped, axis=1).sum() + np.abs(noise).max()
            np.testing.assert_allclose(release, (clipped.sum(axis=0) + noise) / batch,
                                       rtol=0, atol=1e-14 * magnitude / batch)

    def test_batch_without_stream_rejected(self):
        with pytest.raises(ValueError, match="mini-batch selection requires a stream"):
            stub_release([[1.0, 0.0]] * 3, c_g=1.0, batch_size=2, stream=None)


class TestStreamsChecked:
    """A release draws from one stream per shard, and noise needs one."""

    def quadratic_round(self):
        task, shards = make_synthetic_quadratic(4, 3, mu=0.5, L=2.0, heterogeneity=1.0, seed=8)
        return task, task.stack(shards), np.linspace(-1.0, 1.0, 4)

    def test_one_stream_for_three_shards_rejected(self):
        task, stacked, theta = self.quadratic_round()
        with pytest.raises(ValueError, match="a round's release requires one stream per shard"):
            release_round(stacked, theta, 1.0, 1.0, 3, [derive_noise_stream(5, 0, 0)], task)

    def test_two_streams_for_three_batched_shards_rejected(self):
        task, stacked, theta = self.quadratic_round()
        streams = [derive_noise_stream(5, i, 0) for i in range(2)]
        with pytest.raises(ValueError, match="a round's release requires one stream per shard"):
            release_round(stacked, theta, 1.0, 0.0, 3, streams, task, batch_size=2)

    def test_noise_without_stream_rejected(self):
        task, stacked, theta = self.quadratic_round()
        with pytest.raises(ValueError, match="noise requires a stream"):
            private_release(stacked.shards[0], theta, 1.0, 1.0, 3, None, task)


class TestReleaseOnRealTasks:
    def test_softmax_release_matches_manual_clip_sum_normalize(self):
        # The release takes its norms from the factors (ghost clipping), so
        # it agrees with the materialized clip-and-sum to rounding, not bit
        # for bit, and its scaled rows stay inside the ball.
        rng = np.random.default_rng(43)
        task = SoftmaxHeadTask(num_classes=3, feature_dim=4, l2_lambda=1e-3)
        dataset = FeatureDataset(
            features=rng.normal(size=(7, 4)), labels=rng.integers(0, 3, size=7)
        )
        theta = rng.normal(size=task.dim)
        c_g = 0.8
        release = private_release(dataset, theta, c_g, 0.0, 5, None, task)
        grads = task.per_example_gradients(theta, dataset)
        clipped = clip_rows(grads, c_g)
        assert (np.linalg.norm(grads, axis=1) > c_g).any()
        oracle = clipped.sum(axis=0) / 7
        np.testing.assert_allclose(release, oracle, rtol=1e-14, atol=1e-14 * np.abs(clipped).sum() / 7)
        assert np.linalg.norm(release) <= c_g

    def test_non_finite_radius_rejected_on_both_tasks(self):
        rng = np.random.default_rng(47)
        softmax = SoftmaxHeadTask(num_classes=3, feature_dim=4)
        dataset = FeatureDataset(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
        quadratic, shards = make_synthetic_quadratic(3, 2, mu=0.5, L=2.0, heterogeneity=1.0, seed=8)
        for task, data in ((softmax, dataset), (quadratic, shards[0])):
            theta = rng.normal(size=task.dim) * 3.0
            for c_g in (math.nan, math.inf):
                with pytest.raises(ValueError, match="c_g must be positive and finite"):
                    private_release(data, theta, c_g, 1.0, 2, derive_noise_stream(3, 0, 0), task)

    def test_quadratic_shard_release_matches_manual_path(self):
        task, shards = make_synthetic_quadratic(5, 3, mu=0.5, L=2.0, heterogeneity=1.0, seed=8)
        theta = np.linspace(-1.0, 1.0, 5)
        c_g = 0.5
        release = private_release(shards[1], theta, c_g, 0.0, 3, None, task)
        clipped = clip_rows(task.per_example_gradients(theta, shards[1]), c_g)
        np.testing.assert_array_equal(clipped, np.broadcast_to(clipped[0], clipped.shape))
        np.testing.assert_array_equal(release, clipped[0] * shards[1].size / shards[1].size)


class TestRoundRelease:
    """One call releases a whole round with the bits of one release per
    client, each from ``derive_noise_stream`` through the one-shard round."""

    SEED = 41

    def softmax_case(self, n):
        task = SoftmaxHeadTask(num_classes=4, feature_dim=6, l2_lambda=1e-3)
        data = make_anisotropic_features(1003, 6, 4, condition=1e2, separation=1.0, seed=n)
        parts = partition_iid(data.size, n, seed=n)
        return task, [FeatureDataset(data.features[rows], data.labels[rows]) for rows in parts]

    def quadratic_case(self, n):
        task, shards = make_synthetic_quadratic(5, n, mu=0.5, L=2.0, heterogeneity=1.0, seed=n)
        sizes = [3, 10, 10, 40, 5, 20, 10, 10, 7, 10, 10, 40, 1][:n]
        return task, [QuadraticShard(shard.a_matrix, shard.center, size) for shard, size in zip(shards, sizes)]

    def assert_round_matches_clients(self, task, shards, batch_sizes):
        n = len(shards)
        stacked = task.stack(tuple(shards))
        rng = np.random.default_rng(n)
        # One round of streams per (sigma_g, batch_size, scale) case.
        schedule = derive_noise_streams(self.SEED, n, 2 * len(batch_sizes) * 2)
        rounds = 0
        for sigma_g in (0.0, 0.7):
            for batch_size in batch_sizes:
                for scale in (0.1, 3.0):
                    theta = rng.normal(size=task.dim) * scale
                    c_g = float(rng.uniform(0.05, 2.0))
                    streams = next(schedule)
                    releases = release_round(stacked, theta, c_g, sigma_g, n, streams, task, batch_size)
                    assert isinstance(releases, np.ndarray) and releases.shape == (n, task.dim)
                    for i, (release, shard) in enumerate(zip(releases, shards)):
                        alone = private_release(shard, theta, c_g, sigma_g, n,
                                                derive_noise_stream(self.SEED, i, rounds), task,
                                                client_id=i, round_index=rounds, batch_size=batch_size)
                        np.testing.assert_array_equal(release, alone,
                                                      err_msg=f"client {i}, sigma {sigma_g}, batch {batch_size}")
                    rounds += 1

    @pytest.mark.parametrize("n", [7, 13])
    def test_softmax_round_matches_one_release_per_client(self, n):
        task, shards = self.softmax_case(n)
        sizes = sorted({shard.size for shard in shards})
        assert len(sizes) == 2  # array_split's two sizes
        # 0: whole shards; sizes[0]: below the larger shards only; 50: below every shard.
        self.assert_round_matches_clients(task, shards, (0, sizes[0], 50))

    @pytest.mark.parametrize("n", [7, 13])
    def test_quadratic_round_matches_one_release_per_client(self, n):
        task, shards = self.quadratic_case(n)
        self.assert_round_matches_clients(task, shards, (0, 10, 2))

    @pytest.mark.parametrize("n", [7, 13])
    def test_stacked_training_losses_match_each_shards_loss(self, n):
        task, shards = self.softmax_case(n)
        stacked = task.stack(tuple(shards))
        rng = np.random.default_rng(n)
        for scale in (0.0, 0.1, 3.0):
            theta = rng.normal(size=task.dim) * scale
            expected = [task.loss_and_accuracy(theta, task.stack((shard,)))[0] for shard in shards]
            np.testing.assert_array_equal(task._train_losses(theta, stacked), expected)
            assert task.evaluate(theta, stacked, task.stack(shards[:1]))[0] == float(np.mean(expected))


def normal_release(stacked, theta, c_g, sigma_g, n, streams, task, batch_size=0):
    """The round release with each client's noise drawn as stream.normal(0,
    s, d), numpy's own N(0, s^2 I) draw, after the same mini-batch picks:
    the bits that release_round's (n, d) noise block keeps."""
    if batch_size and batch_size < max(stacked.sizes):
        stacked = stacked.subset([None if batch_size >= size else np.sort(stream.choice(size, size=batch_size,
                                                                                       replace=False))
                                  for size, stream in zip(stacked.sizes, streams)])
    sums = task.clipped_sums(theta, stacked, c_g)
    scale = c_g * sigma_g / math.sqrt(n)
    sums += np.array([stream.normal(0.0, scale, sums.shape[1]) for stream in streams])
    return sums / stacked.counts


class TestNoiseBlock:
    """A round's noise is one (n, d) block: row i is a standard normal draw
    from stream i, in client order after the mini-batch picks, scaled once.
    It must keep every bit of stream.normal(0, s, d), and leave each stream
    in the state that draw leaves it in."""

    SIZES = (3, 5, 8)

    def softmax_case(self, rng, n, dim):
        classes, feat = {68: (4, 16), 2570: (10, 256)}[dim]
        task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=1e-3)
        shards = tuple(FeatureDataset(rng.normal(size=(size, feat)), rng.integers(0, classes, size=size))
                       for size in (self.SIZES[i % 3] for i in range(n)))
        return task, task.stack(shards)

    def quadratic_case(self, rng, n, dim):
        task, shards = make_synthetic_quadratic(dim, n, mu=0.5, L=2.0, heterogeneity=1.0, seed=int(rng.integers(99)))
        return task, task.stack(QuadraticShard(shard.a_matrix, shard.center, self.SIZES[i % 3])
                                for i, shard in enumerate(shards))

    def assert_keeps_the_normal_draw(self, task, stacked, theta, c_g, sigma_g, seed, batch_size):
        n = len(stacked.sizes)
        streams = [derive_noise_stream(seed, i, 0) for i in range(n)]
        expected_streams = [derive_noise_stream(seed, i, 0) for i in range(n)]
        releases = release_round(stacked, theta, c_g, sigma_g, n, streams, task, batch_size)
        expected = normal_release(stacked, theta, c_g, sigma_g, n, expected_streams, task, batch_size)
        assert releases.tobytes() == expected.tobytes(), (n, task.dim, sigma_g, batch_size)
        assert [s.bit_generator.state for s in streams] == [s.bit_generator.state for s in expected_streams]

    @pytest.mark.parametrize("n", [1, 3, 20])
    @pytest.mark.parametrize("dim", [1, 8, 68, 2570])
    def test_block_keeps_the_bits_and_states_of_normal(self, n, dim):
        rng = np.random.default_rng(1000 * n + dim)
        task, stacked = (self.quadratic_case if dim < 10 else self.softmax_case)(rng, n, dim)
        for case, batch_size in enumerate((0, 4, 0, 2)):
            theta = rng.normal(size=task.dim)
            # The last case's scale is subnormal, so that some products underflow.
            sigma_g = (0.7, 3.0, 1e-3, 1e-320)[case]
            self.assert_keeps_the_normal_draw(task, stacked, theta, float(rng.uniform(0.1, 2.0)), sigma_g,
                                              int(rng.integers(2**32)), batch_size)

    class NegativeZeroTask:
        """Clipped sums of -0.0, to which only a noise of -0.0 adds -0.0."""

        def clipped_sums(self, theta, stacked, c_g):
            return np.full((len(stacked.sizes), 8), -0.0)

    def test_signed_zero_noise_keeps_the_sign_of_normal(self):
        # numpy's normal is 0.0 + s z, never -0.0, and neither is the block's;
        # a subnormal scale makes many s z round to -0.0.
        stacked = StubStack([StubDataset([[0.0] * 8]) for _ in range(3)])
        for sigma_g in (1e-320, 5e-324, 1.0):
            self.assert_keeps_the_normal_draw(self.NegativeZeroTask(), stacked, np.zeros(2), 1.0, sigma_g, 61, 0)

    def test_a_finite_scale_that_overflows_a_draw_warns_of_nothing(self):
        # s = 1e308: every draw above 1.8 in magnitude overflows to inf, as
        # numpy's normal(0, s) lets it, silently.
        task, shards = make_synthetic_quadratic(64, 2, mu=0.5, L=2.0, heterogeneity=1.0, seed=3)
        stacked = task.stack(shards)
        theta = np.zeros(64)
        streams = [derive_noise_stream(67, i, 0) for i in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            releases = release_round(stacked, theta, 1e154, 1e154 * math.sqrt(2), 2, streams, task)
        assert np.isinf(releases).any() and np.isfinite(releases).any()
        self.assert_keeps_the_normal_draw(task, stacked, theta, 1e154, 1e154 * math.sqrt(2), 67, 0)
