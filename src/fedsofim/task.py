"""Optimization objectives and data handling.

Two task families are provided: a multinomial logistic head over frozen
feature vectors (convex; strongly convex once the l2 term is on), and a
synthetic strongly-convex quadratic with a closed-form minimizer used by the
theory-verification suites.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class Example:
    features: np.ndarray
    label: int


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

    @property
    def examples(self) -> list:
        return [Example(self.features[i], int(self.labels[i])) for i in range(self.size)]

    def subset(self, indices: np.ndarray) -> "FeatureDataset":
        return FeatureDataset(self.features[indices], self.labels[indices])

    @classmethod
    def from_examples(cls, examples: Sequence[Example]) -> "FeatureDataset":
        feats = np.asarray([np.asarray(e.features, dtype=np.float64) for e in examples])
        labels = np.asarray([e.label for e in examples], dtype=np.int64)
        return cls(feats, labels)


@dataclass(frozen=True)
class QuadraticShard:
    """One client's share of a quadratic task.

    Every sample in the shard carries the same loss 0.5 (theta-c)' A (theta-c),
    so "per-example gradient" means A (theta - c) repeated ``size`` times; the
    shard size still matters because the release mechanism normalizes by it.
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


def dataset_size(dataset: ClientDataset) -> int:
    return dataset.size


class SoftmaxHeadTask:
    """Multinomial logistic regression over frozen features, bias included.

    Parameters are the flattened (num_classes, feature_dim + 1) matrix; the
    last column is the bias. The l2 term regularizes weights and bias
    together so the objective is l2_lambda-strongly convex in all d
    coordinates. The default l2_lambda = 1e-4 is a repo choice.
    """

    def __init__(self, num_classes: int, feature_dim: int, l2_lambda: float = 1e-4):
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if l2_lambda < 0:
            raise ValueError("l2_lambda must be nonnegative")
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.l2_lambda = l2_lambda

    @property
    def dim(self) -> int:
        return self.num_classes * (self.feature_dim + 1)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta must have dimension {self.dim}, got {theta.shape}")
        return theta

    def _augment(self, features: np.ndarray) -> np.ndarray:
        if features.shape[1] != self.feature_dim:
            raise ValueError(f"features must have dimension {self.feature_dim}")
        # The bytes np.hstack([features, ones]) builds, without its dispatch.
        x_aug = np.empty((features.shape[0], self.feature_dim + 1))
        x_aug[:, :-1] = features
        x_aug[:, -1] = 1.0
        return x_aug

    def _log_probs(self, theta: np.ndarray, x_aug: np.ndarray) -> np.ndarray:
        weights = theta.reshape(self.num_classes, self.feature_dim + 1)
        logits = x_aug @ weights.T
        # Row maxima as a chain over the class columns: a maximum is exact,
        # so the chain gives the bits of logits.max(axis=1), while a reduce
        # over rows this short is mostly per-row loop overhead.
        row_max = logits[:, 0]
        for k in range(1, self.num_classes):
            row_max = np.maximum(row_max, logits[:, k])
        logits -= row_max[:, None]
        return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))

    def per_example_gradients(self, theta: np.ndarray, dataset: FeatureDataset) -> np.ndarray:
        """All per-example gradients at theta, stacked as an (m, d) array."""
        theta = self._check_theta(theta)
        x_aug = self._augment(dataset.features)
        probs = np.exp(self._log_probs(theta, x_aug))
        probs[np.arange(dataset.size), dataset.labels] -= 1.0
        grads = np.einsum("mk,mp->mkp", probs, x_aug).reshape(dataset.size, self.dim)
        if self.l2_lambda:
            grads += self.l2_lambda * theta
        return grads

    def per_example_gradient(self, theta: np.ndarray, example: Example) -> np.ndarray:
        single = FeatureDataset(
            np.asarray(example.features, dtype=np.float64)[None, :],
            np.asarray([example.label], dtype=np.int64),
        )
        return self.per_example_gradients(theta, single)[0]

    def loss_and_accuracy(self, theta: np.ndarray, dataset: FeatureDataset) -> tuple:
        theta = self._check_theta(theta)
        if dataset.size == 0:
            raise ValueError("empty dataset")
        x_aug = self._augment(dataset.features)
        log_probs = self._log_probs(theta, x_aug)
        nll = -log_probs[np.arange(dataset.size), dataset.labels]
        loss = float(nll.mean() + 0.5 * self.l2_lambda * float(theta @ theta))
        # np.argmax resolves ties toward the lowest class index, which is the
        # documented deterministic tie-break.
        predictions = np.argmax(log_probs, axis=1)
        accuracy = float(np.mean(predictions == dataset.labels))
        return loss, accuracy


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

    def per_example_gradients(self, theta: np.ndarray, shard: QuadraticShard) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta must have dimension {self.dim}, got {theta.shape}")
        grad = shard.a_matrix @ (theta - shard.center)
        # The read-only stride-0 view np.broadcast_to returns, without its
        # dispatch, which costs more than the rest of a quadratic release.
        rows = np.ndarray((shard.size, self.dim), dtype=grad.dtype, buffer=grad, strides=(0, grad.itemsize))
        rows.flags.writeable = False
        return rows

    def per_example_gradient(self, theta: np.ndarray, shard: QuadraticShard) -> np.ndarray:
        return self.per_example_gradients(theta, shard)[0].copy()

    def loss_and_accuracy(self, theta: np.ndarray, dataset) -> tuple:
        """Mean loss over one shard or a sequence of shards, plus exp(-gap)."""
        theta = np.asarray(theta, dtype=np.float64)
        shards = [dataset] if isinstance(dataset, QuadraticShard) else list(dataset)
        if not shards:
            raise ValueError("empty dataset")
        loss = float(np.mean([
            0.5 * float((theta - s.center) @ (s.a_matrix @ (theta - s.center))) for s in shards
        ]))
        return loss, math.exp(-self.gap(theta))


Task = Union[SoftmaxHeadTask, QuadraticTask]


def per_example_gradient(theta: np.ndarray, example, task: Task) -> np.ndarray:
    """Gradient of one example's loss at theta, l2 term included."""
    return task.per_example_gradient(theta, example)


def loss_and_accuracy(theta: np.ndarray, dataset, task: Task) -> tuple:
    return task.loss_and_accuracy(theta, dataset)


def partition_iid(examples, n: int, seed: int) -> list:
    """Seeded uniform shuffle split into n shards with sizes differing by <= 1.

    Accepts a FeatureDataset or a sequence of Example.  When the count is not
    divisible by n, the earlier shards take the extra example.
    """
    dataset = examples if isinstance(examples, FeatureDataset) else FeatureDataset.from_examples(examples)
    if dataset.size < n:
        raise ValueError(f"cannot partition {dataset.size} examples across {n} clients")
    if n < 1:
        raise ValueError("n must be >= 1")
    perm = np.random.default_rng(seed).permutation(dataset.size)
    return [dataset.subset(chunk) for chunk in np.array_split(perm, n)]


# Parsed feature files keyed by a digest of their text.  A grid search
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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    key = hashlib.sha256(text.encode("utf-8")).digest()
    if key in _PARSED_FEATURE_FILES:
        _PARSED_FEATURE_FILES.move_to_end(key)
    else:
        lines = text.splitlines()
        # Parsing peaks with the lines and their floats alive; dropping the
        # text first keeps that peak where a plain read-and-split leaves it.
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
    if mu > L:
        raise ValueError("mu must not exceed L")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if d < 1 or d > 64:
        raise ValueError("d must lie in [1, 64]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if heterogeneity < 0:
        raise ValueError("heterogeneity must be nonnegative")
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
