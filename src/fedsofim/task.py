"""Optimization objectives and data handling.

Two task families are provided: a multinomial logistic head over frozen
feature vectors (convex; strongly convex once the l2 term is on), and a
synthetic strongly-convex quadratic with a closed-form minimizer used by the
theory-verification suites.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .client import clip_rows

_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


@dataclass(frozen=True)
class FeatureDataset:
    """Column-stacked examples: features (m, p) float64, labels (m,) int64."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "FeatureDataset":
        return FeatureDataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True, eq=False)
class QuadraticShard:
    """One client's share of a quadratic task.

    Every sample in the shard carries the same loss 0.5 (theta-c)' A (theta-c),
    so "per-example gradient" means A (theta - c) repeated ``size`` times; the
    shard size still matters because the release mechanism normalizes by it.
    Shards compare and hash by identity.
    """

    a_matrix: np.ndarray
    center: np.ndarray
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("shard size must be >= 1")
        if self.a_matrix.shape != (self.center.shape[0], self.center.shape[0]):
            raise ValueError("a_matrix must be square and match the center dimension")


ClientDataset = Union[FeatureDataset, QuadraticShard]


@functools.lru_cache(maxsize=256)
def _layout(sizes: tuple) -> tuple:
    """What a stack of shards of these sizes needs besides its data: each
    shard's first row; the runs of consecutive equal-sized shards as (first
    shard, shard count, shard size, first row), at most two from
    ``partition_iid``; and the sizes as a read-only (n, 1) column that the
    releases are divided by.  Keyed by the sizes alone, it holds no data."""
    starts, runs, row = [], [], 0
    for shard, size in enumerate(sizes):
        if runs and runs[-1][2] == size:
            first, count, _, start = runs[-1]
            runs[-1] = (first, count + 1, size, start)
        else:
            runs.append((shard, 1, size, row))
        starts.append(row)
        row += size
    counts = np.array(sizes, dtype=np.float64)[:, None]
    counts.flags.writeable = False
    return tuple(starts), tuple(runs), counts


class FeatureStack:
    """Every training shard of a softmax run, stacked once: the augmented
    features [x, 1] (M, p+1) and labels (M,) in shard order, and the shard
    sizes, with their ``_layout``."""

    def __init__(self, x_aug: np.ndarray, labels: np.ndarray, sizes: tuple):
        self.x_aug, self.labels, self.sizes = x_aug, labels, sizes
        self.starts, self.runs, self.counts = _layout(sizes)

    def subset(self, picks: list) -> "FeatureStack":
        """The stack with shard i cut to its rows picks[i] (all of them where
        picks[i] is None)."""
        rows = np.concatenate([np.arange(row, row + size) if pick is None else row + pick
                               for row, size, pick in zip(self.starts, self.sizes, picks)])
        sizes = tuple(size if pick is None else len(pick) for size, pick in zip(self.sizes, picks))
        return FeatureStack(self.x_aug[rows], self.labels[rows], sizes)


class QuadraticStack:
    """Every shard of a quadratic run, and their sizes with their
    ``_layout``.  A shard's samples are all alike, so there are no rows to
    stack."""

    def __init__(self, shards: tuple, sizes: tuple):
        self.shards, self.sizes = shards, sizes
        self.starts, self.runs, self.counts = _layout(sizes)

    def subset(self, picks: list) -> "QuadraticStack":
        """The stack with shard i cut to len(picks[i]) samples."""
        sizes = tuple(size if pick is None else len(pick) for size, pick in zip(self.sizes, picks))
        return QuadraticStack(self.shards, sizes)


def _as_theta(theta: np.ndarray, dim: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (dim,):
        raise ValueError(f"theta must have dimension {dim}, got {theta.shape}")
    return theta


class SoftmaxHeadTask:
    """Multinomial logistic regression over frozen features, bias included.

    Parameters are the flattened (num_classes, feature_dim + 1) matrix; the
    last column is the bias. The l2 term regularizes weights and bias
    together so the objective is l2_lambda-strongly convex in all d
    coordinates. The default l2_lambda = 1e-4 is a repo choice.
    """

    def __init__(self, num_classes: int, feature_dim: int, l2_lambda: float = 1e-4):
        problems = []
        if not num_classes >= 2:
            problems.append("num_classes must be >= 2")
        if not feature_dim >= 1:
            problems.append("feature_dim must be >= 1")
        if not 0 <= l2_lambda < math.inf:
            problems.append("l2_lambda must be nonnegative and finite")
        if problems:
            raise ValueError("; ".join(problems))
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.l2_lambda = l2_lambda

    @property
    def dim(self) -> int:
        return self.num_classes * (self.feature_dim + 1)

    def _log_probs(self, theta: np.ndarray, x_aug: np.ndarray) -> tuple:
        """(logits, log-softmax of the logits), per example."""
        weights = theta.reshape(self.num_classes, self.feature_dim + 1)
        logits = x_aug @ weights.T
        # Row maxima as a chain over the class columns: a maximum is exact,
        # so the chain gives the bits of logits.max(axis=1), while a reduce
        # over rows this short is mostly per-row loop overhead.
        row_max = logits[:, 0]
        for k in range(1, self.num_classes):
            row_max = np.maximum(row_max, logits[:, k])
        shifted = logits - row_max[:, None]
        return logits, shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def _factors(self, theta: np.ndarray, x_aug: np.ndarray, labels: np.ndarray) -> tuple:
        """(Z, R): logits and R = softmax(Z) - onehot."""
        logits, log_probs = self._log_probs(theta, x_aug)
        residuals = np.exp(log_probs)
        residuals[np.arange(labels.shape[0]), labels] -= 1.0
        return logits, residuals

    def _residuals(self, theta: np.ndarray, dataset: FeatureDataset) -> tuple:
        """(X, Z, R): augmented features, logits and R = softmax(Z) - onehot."""
        x_aug = self.stack((dataset,)).x_aug
        return (x_aug, *self._factors(theta, x_aug, dataset.labels))

    # Kept because perfbench patches it by name; it goes with the benchmark change of ROADMAP item 1.
    def per_example_gradients(self, theta: np.ndarray, dataset: FeatureDataset) -> np.ndarray:
        """All per-example gradients at theta as an (m, d) array; clipped_sums's oracle."""
        theta = _as_theta(theta, self.dim)
        x_aug, _, residuals = self._residuals(theta, dataset)
        grads = np.einsum("mk,mp->mkp", residuals, x_aug).reshape(dataset.size, self.dim)
        if self.l2_lambda:
            grads += self.l2_lambda * theta
        return grads

    def stack(self, shards) -> FeatureStack:
        """The shards' augmented features and labels in one contiguous stack:
        the one place features get their bias column.  Its bytes are those
        np.hstack([features, ones]) builds, without its dispatch."""
        sizes = tuple(shard.size for shard in shards)
        x_aug = np.empty((sum(sizes), self.feature_dim + 1))
        row = 0
        for shard in shards:
            if shard.features.shape[1] != self.feature_dim:
                raise ValueError(f"features must have dimension {self.feature_dim}")
            x_aug[row:row + shard.size, :-1] = shard.features
            row += shard.size
        x_aug[:, -1] = 1.0
        x_aug.flags.writeable = False
        labels = np.concatenate([shard.labels for shard in shards])
        labels.flags.writeable = False
        return FeatureStack(x_aug, labels, sizes)

    def clipped_sums(self, theta: np.ndarray, stacked: FeatureStack, c_g: float) -> np.ndarray:
        """Row i: the sum over shard i of the per-example gradients
        g_j = vec(r_j x_j') + l2_lambda theta, each clipped to norm c_g, from
        the factors (ghost clipping) without building them:
        vec((s R)' X) + l2_lambda theta sum(s).  One logits product serves
        every shard, and each run of equal-sized shards takes its sums from
        one batched product."""
        if not 0 < c_g < math.inf:
            raise ValueError("c_g must be positive and finite")
        theta = _as_theta(theta, self.dim)
        x_aug = stacked.x_aug
        logits, residuals = self._factors(theta, x_aug, stacked.labels)
        scale = self._clip_scales(theta, x_aug, logits, residuals, c_g)
        residuals *= scale[:, None]
        n, classes, width = len(stacked.sizes), self.num_classes, self.feature_dim + 1
        sums = np.empty((n, classes, width))
        scale_sums = np.empty(n)
        for first, count, size, row in stacked.runs:
            rows, shards = slice(row, row + count * size), slice(first, first + count)
            sums[shards] = np.matmul(residuals[rows].reshape(count, size, classes).transpose(0, 2, 1),
                                     x_aug[rows].reshape(count, size, width))
            scale_sums[shards] = np.add.reduce(scale[rows].reshape(count, size), axis=1)
        sums = sums.reshape(n, self.dim)
        sums += (self.l2_lambda * scale_sums)[:, None] * theta
        return sums

    def _clip_scales(self, theta, x_aug, logits, residuals, c_g) -> np.ndarray:
        """min(1, c_g/||g_i||), ||g_i||^2 = ||r_i||^2 ||x_i||^2 + 2 lam r_i.z_i
        + lam^2 ||theta||^2, less 4 ulps times how far the cross term cancels
        the squares, so that no scaled row leaves the ball."""
        lam = self.l2_lambda
        squares = np.einsum("ij,ij->i", residuals, residuals) * np.einsum("ij,ij->i", x_aug, x_aug)
        squares += lam * lam * float(theta @ theta)
        sq_norms = np.maximum(squares + 2.0 * lam * np.einsum("ij,ij->i", residuals, logits), _TINY)
        safety = 1.0 - 4.0 * _EPS * np.maximum(1.0, squares / sq_norms)
        # A NaN norm gives a NaN scale, as a NaN row norm does in clip_rows.
        return np.minimum(np.maximum(c_g / np.sqrt(sq_norms) * safety, 0.0), 1.0)

    def loss_and_accuracy(self, theta: np.ndarray, dataset: FeatureDataset) -> tuple:
        theta = _as_theta(theta, self.dim)
        if dataset.size == 0:
            raise ValueError("empty dataset")
        _, log_probs = self._log_probs(theta, self.stack((dataset,)).x_aug)
        nll = -log_probs[np.arange(dataset.size), dataset.labels]
        loss = float(nll.mean() + 0.5 * self.l2_lambda * float(theta @ theta))
        # np.argmax resolves ties toward the lowest class index, which is the
        # documented deterministic tie-break.
        predictions = np.argmax(log_probs, axis=1)
        accuracy = float(np.mean(predictions == dataset.labels))
        return loss, accuracy

    def _train_losses(self, theta: np.ndarray, stacked: FeatureStack) -> np.ndarray:
        """Each shard's loss_and_accuracy loss, from one pass over the stack."""
        _, log_probs = self._log_probs(theta, stacked.x_aug)
        nll = -log_probs[np.arange(stacked.labels.shape[0]), stacked.labels]
        means = np.empty(len(stacked.sizes))
        for first, count, size, row in stacked.runs:
            means[first:first + count] = np.add.reduce(nll[row:row + count * size].reshape(count, size), axis=1) / size
        return means + 0.5 * self.l2_lambda * float(theta @ theta)

    def evaluate(self, theta: np.ndarray, train: FeatureStack, test: FeatureDataset) -> tuple:
        """(train_loss, test_accuracy, None) at theta.

        Divergent iterates are reported as (inf, 0.0, None) rather than
        raising, so grid search can rank them as worst.
        """
        theta = _as_theta(theta, self.dim)
        if not np.all(np.isfinite(theta)):
            return math.inf, 0.0, None
        with np.errstate(over="ignore", invalid="ignore"):
            # The federated objective is the unweighted mean of client means.
            loss = float(np.mean(self._train_losses(theta, train)))
            _, accuracy = self.loss_and_accuracy(theta, test)
        if not math.isfinite(loss) or not math.isfinite(accuracy):
            return math.inf, 0.0, None
        return loss, accuracy, None


class QuadraticTask:
    """Synthetic strongly convex quadratic with a known minimizer.

    The global objective is the unweighted client mean
    F(theta) = (1/n) sum_i 0.5 (theta - c_i)' A_i (theta - c_i); mu and L are
    the extreme eigenvalues of the mean curvature matrix.  Classification
    accuracy has no meaning here, so evaluation reports exp(-gap) as a
    pseudo-accuracy: it lives in [0,1], equals 1 exactly at the minimizer,
    and orders configurations identically to the suboptimality gap (which
    grid selection relies on).
    """

    def __init__(self, a_matrices: np.ndarray, centers: np.ndarray):
        a_matrices = np.asarray(a_matrices, dtype=np.float64)
        centers = np.asarray(centers, dtype=np.float64)
        if a_matrices.ndim != 3 or a_matrices.shape[1] != a_matrices.shape[2]:
            raise ValueError("a_matrices must be (n, d, d)")
        if centers.shape != a_matrices.shape[:2]:
            raise ValueError("centers must be (n, d)")
        self.a_matrices = a_matrices
        self.centers = centers
        self.num_clients, self.dim = centers.shape
        mean_a = a_matrices.mean(axis=0)
        eigvals = np.linalg.eigvalsh((mean_a + mean_a.T) / 2.0)
        self.mu = float(eigvals[0])
        self.L = float(eigvals[-1])
        # Closed form from the normal equations: (sum A_i) theta* = sum A_i c_i.
        rhs = np.einsum("nij,nj->i", a_matrices, centers)
        self.theta_star = np.linalg.solve(a_matrices.sum(axis=0), rhs)
        self.optimum_value = self.global_value(self.theta_star)

    def global_value(self, theta: np.ndarray) -> float:
        diff = theta[None, :] - self.centers
        return float(0.5 * np.einsum("ni,nij,nj->", diff, self.a_matrices, diff) / self.num_clients)

    def global_gradient(self, theta: np.ndarray) -> np.ndarray:
        diff = theta[None, :] - self.centers
        return np.einsum("nij,nj->i", self.a_matrices, diff) / self.num_clients

    def gap(self, theta: np.ndarray) -> float:
        return max(0.0, self.global_value(theta) - self.optimum_value)

    # Kept because perfbench patches it by name; it goes with the benchmark change of ROADMAP item 1.
    def per_example_gradients(self, theta: np.ndarray, shard: QuadraticShard) -> np.ndarray:
        """The shard's gradient A(theta - c), which all its examples share,
        repeated as a read-only (m, d) stack; clipped_sums's oracle."""
        theta = _as_theta(theta, self.dim)
        return np.broadcast_to(shard.a_matrix @ (theta - shard.center), (shard.size, self.dim))

    def stack(self, shards) -> QuadraticStack:
        shards = tuple(shards)
        return QuadraticStack(shards, tuple([shard.size for shard in shards]))

    def clipped_sums(self, theta: np.ndarray, stacked: QuadraticStack, c_g: float) -> np.ndarray:
        """Row i: the sum over shard i of its per-example gradients, each
        clipped to norm c_g.  Each shard's one gradient is clipped once, and
        its sum runs over a stride-0 repetition of it, with the bits of a sum
        over the clipped (m, d) stack."""
        theta = _as_theta(theta, self.dim)
        rows = clip_rows(np.array([shard.a_matrix @ (theta - shard.center) for shard in stacked.shards]), c_g)
        step = rows.strides[0]
        sums = [
            # The stride-0 view np.broadcast_to returns, without its
            # dispatch, which takes several times as long as the view.
            np.add.reduce(np.ndarray((count, size, self.dim), rows.dtype, rows, first * step,
                                     (step, 0, rows.itemsize)), 1)
            for first, count, size, _ in stacked.runs
        ]
        return sums[0] if len(sums) == 1 else np.concatenate(sums)

    # Kept because perfbench patches it by name; it goes with the benchmark change of ROADMAP item 1.
    def loss_and_accuracy(self, theta: np.ndarray, shard: QuadraticShard) -> tuple:
        """Loss on one shard, plus exp(-gap)."""
        theta = np.asarray(theta, dtype=np.float64)
        loss = 0.5 * float((theta - shard.center) @ (shard.a_matrix @ (theta - shard.center)))
        return loss, math.exp(-self.gap(theta))

    def evaluate(self, theta: np.ndarray, train: QuadraticStack, test: Optional[FeatureDataset]) -> tuple:
        """(global_value, exp(-gap), gap) at theta; the shards are not needed.

        Divergent iterates are reported as (inf, 0.0, inf) rather than
        raising, so grid search can rank them as worst.
        """
        if not np.all(np.isfinite(theta)):
            return math.inf, 0.0, math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            loss = self.global_value(theta)
            gap = self.gap(theta)
        if not math.isfinite(loss):
            return math.inf, 0.0, math.inf
        return loss, math.exp(-gap), gap


Task = Union[SoftmaxHeadTask, QuadraticTask]


def partition_iid(dataset: FeatureDataset, n: int, seed: int) -> list:
    """Seeded uniform shuffle split into n shards with sizes differing by <= 1.

    When the count is not divisible by n, the earlier shards take the extra
    example.
    """
    if dataset.size < n:
        raise ValueError(f"cannot partition {dataset.size} examples across {n} clients")
    if n < 1:
        raise ValueError("n must be >= 1")
    perm = np.random.default_rng(seed).permutation(dataset.size)
    return [dataset.subset(chunk) for chunk in np.array_split(perm, n)]


# Parsed feature files keyed by a digest of their bytes.  A grid search
# resolves its binding once per run, and parsing the text dominates that,
# so each distinct file is parsed once; keying by content means an edited
# file is never served stale.
_PARSED_FEATURE_FILES: "OrderedDict[bytes, tuple]" = OrderedDict()
_PARSED_FEATURE_FILES_KEPT = 4


def load_frozen_features(path) -> tuple:
    """Read the frozen-feature text format.

    First line ``dim=<int>,classes=<int>``; each following line
    ``label,f1,...,fdim``.  Returns (FeatureDataset, metadata dict).  Loads
    of identical content share one read-only dataset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    key = hashlib.sha256(data).digest()
    if key in _PARSED_FEATURE_FILES:
        _PARSED_FEATURE_FILES.move_to_end(key)
    else:
        # Parsing peaks with the lines and their floats alive; dropping the
        # bytes and the text first keeps that peak where a plain
        # read-and-split leaves it.
        text = data.decode("utf-8")
        del data
        lines = text.splitlines()
        del text
        _PARSED_FEATURE_FILES[key] = _parse_frozen_features(lines)
        if len(_PARSED_FEATURE_FILES) > _PARSED_FEATURE_FILES_KEPT:
            _PARSED_FEATURE_FILES.popitem(last=False)
    dataset, metadata = _PARSED_FEATURE_FILES[key]
    return dataset, dict(metadata)


def _parse_frozen_features(lines: list) -> tuple:
    if not lines:
        raise ValueError("malformed header: empty file")
    header = lines[0].strip()
    parts = header.split(",")
    if len(parts) != 2 or not parts[0].startswith("dim=") or not parts[1].startswith("classes="):
        raise ValueError(f"malformed header: expected 'dim=<int>,classes=<int>', got {header!r}")
    try:
        dim = int(parts[0][len("dim="):])
        classes = int(parts[1][len("classes="):])
    except ValueError:
        raise ValueError(f"malformed header: expected 'dim=<int>,classes=<int>', got {header!r}") from None
    if dim < 1 or classes < 2:
        raise ValueError("malformed header: dim must be >= 1 and classes >= 2")

    features, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ValueError(f"line {lineno}: expected {dim} features, got {len(cells) - 1}")
        try:
            label = int(cells[0])
            row = [float(c) for c in cells[1:]]
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable numeric value") from None
        if not 0 <= label < classes:
            raise ValueError(f"line {lineno}: label {label} out of range [0, {classes})")
        labels.append(label)
        features.append(row)
    matrix = np.asarray(features, dtype=np.float64).reshape(len(labels), dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        # A nan or inf would otherwise surface later as an inf loss, which
        # reads like a diverged run rather than bad data.
        row_lines = [i for i, line in enumerate(lines[1:], start=2) if line.strip()]
        raise ValueError(f"line {row_lines[int(np.argmin(finite))]}: non-finite feature value")
    matrix.flags.writeable = False
    label_array = np.asarray(labels, dtype=np.int64)
    label_array.flags.writeable = False
    dataset = FeatureDataset(matrix, label_array)
    return dataset, {"feature_dim": dim, "num_classes": classes, "count": dataset.size}


def save_frozen_features(path, dataset: FeatureDataset, num_classes: int) -> None:
    """Write a FeatureDataset in the frozen-feature text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dataset.feature_dim},classes={num_classes}\n")
        for i in range(dataset.size):
            row = ",".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{int(dataset.labels[i])},{row}\n")


def quadratic_problems(d: int, mu: float, L: float, heterogeneity: float, shard_size: int) -> list:
    """What is wrong with these synthetic quadratic settings, one message each."""
    problems = []
    if not 1 <= d <= 64:
        problems.append("d must lie in [1, 64]")
    if not 0 < mu < math.inf:
        problems.append("mu must be positive and finite")
    if not abs(L) < math.inf:
        problems.append("L must be finite")
    elif mu > L:
        problems.append("mu must not exceed L")
    if not 0 <= heterogeneity < math.inf:
        problems.append("heterogeneity must be nonnegative and finite")
    if not shard_size >= 1:
        problems.append("shard_size must be >= 1")
    return problems


def make_synthetic_quadratic(
    d: int,
    n: int,
    mu: float,
    L: float,
    heterogeneity: float,
    seed: int,
    shard_size: int = 10,
) -> tuple:
    """Random quadratic instance whose Hessian spectrum is exactly [mu, L].

    All clients share one curvature matrix with log-spaced eigenvalues
    hitting mu and L at the endpoints; heterogeneity scales the spread of the
    client centers around a common draw (0 makes all centers equal).  Returns
    (QuadraticTask, list of QuadraticShard).
    """
    problems = quadratic_problems(d, mu, L, heterogeneity, shard_size)
    if not n >= 1:
        problems.append("n must be >= 1")
    if problems:
        raise ValueError("; ".join(problems))
    rng = np.random.default_rng(seed)
    eigvals = np.geomspace(mu, L, d)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    shared = (basis * eigvals) @ basis.T
    shared = (shared + shared.T) / 2.0
    base_center = rng.normal(size=d)
    centers = base_center[None, :] + heterogeneity * rng.normal(size=(n, d))
    a_matrices = np.repeat(shared[None, :, :], n, axis=0)
    task = QuadraticTask(a_matrices, centers)
    shards = [QuadraticShard(task.a_matrices[i], task.centers[i], shard_size) for i in range(n)]
    return task, shards


def make_anisotropic_features(
    num_examples: int,
    feature_dim: int,
    num_classes: int,
    condition: float,
    separation: float,
    seed: int,
) -> FeatureDataset:
    """Gaussian class mixture with an ill-conditioned feature covariance.

    Per-axis standard deviations are log-spaced so the covariance condition
    number equals ``condition``; class means are drawn isotropically with
    scale ``separation``, so the high-variance axes carry mostly noise while
    the classification signal is spread over every axis.
    """
    if num_examples < num_classes:
        raise ValueError("need at least one example per class")
    if condition < 1:
        raise ValueError("condition must be >= 1")
    rng = np.random.default_rng(seed)
    stds = np.geomspace(math.sqrt(condition), 1.0, feature_dim)
    means = rng.normal(size=(num_classes, feature_dim)) * separation
    labels = rng.permutation(np.arange(num_examples) % num_classes).astype(np.int64)
    noise = rng.normal(size=(num_examples, feature_dim)) * stds
    return FeatureDataset(means[labels] + noise, labels)
