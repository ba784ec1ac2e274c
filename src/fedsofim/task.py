"""Optimization objectives and data handling.

Two task families are provided: a multinomial logistic head over frozen
feature vectors (convex; strongly convex once the l2 term is on), and a
synthetic strongly-convex quadratic with a closed-form minimizer used by the
theory-verification suites.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Union

import numpy as np

from .client import clip_rows
from .core import is_integer

_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


@dataclass(frozen=True)
class FeatureDataset:
    """Examples: features (m, p) float64, labels (m,) int64.  A loaded file's
    features are the read-only [:-1].T view of its softmax stack's x_t."""

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
    """Examples of a softmax task in shards, class-major: the augmented
    features [x, 1] transposed, x_t (p+1, M), the labels (M,) in shard order,
    and the shard sizes, with their ``_layout``.  It also holds what the
    releases read of each example: ||x_i||^2 (M,), the one-hot labels (K, M)
    and each label's flat index in a (K, M) array, labels*M + arange(M).
    Every array is read-only."""

    def __init__(self, x_t: np.ndarray, labels: np.ndarray, sizes: tuple, sq_norms: np.ndarray, classes: int):
        count = labels.shape[0]
        self.label_index = labels * count + np.arange(count)
        self.onehot = np.zeros((classes, count))
        np.put(self.onehot, self.label_index, 1.0)
        for array in (x_t, labels, sq_norms, self.onehot, self.label_index):
            array.flags.writeable = False
        self.x_t, self.labels, self.sizes, self.sq_norms = x_t, labels, sizes, sq_norms
        self.starts, self.runs, self.counts = _layout(sizes)

    def take(self, cols: np.ndarray, sizes: tuple) -> "FeatureStack":
        """The examples at cols, in that order, as shards of these sizes."""
        return FeatureStack(self.x_t.take(cols, axis=1), self.labels[cols], sizes, self.sq_norms[cols],
                            self.onehot.shape[0])

    def subset(self, picks: list) -> "FeatureStack":
        """The stack with shard i cut to its examples picks[i] (all of them
        where picks[i] is None)."""
        cols = np.concatenate([np.arange(col, col + size) if pick is None else col + pick
                               for col, size, pick in zip(self.starts, self.sizes, picks)])
        sizes = tuple(size if pick is None else len(pick) for size, pick in zip(self.sizes, picks))
        return self.take(cols, sizes)


class QuadraticStack:
    """Every shard of a quadratic run, their sizes, and the counts column of
    their ``_layout``.  A shard's samples are all alike, so there are no rows
    to stack."""

    def __init__(self, shards: tuple, sizes: tuple):
        self.shards, self.sizes = shards, sizes
        self.counts = _layout(sizes)[2]

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

    def _log_probs(self, theta: np.ndarray, x_t: np.ndarray) -> tuple:
        """(logits, log-softmax of the logits), class-major: (K, M) each.  Both
        reductions run over the class rows in order: the example-major form's
        bits below eight classes, and within a few ulps of its sum above."""
        logits = theta.reshape(self.num_classes, self.feature_dim + 1) @ x_t
        shifted = logits - np.maximum.reduce(logits, axis=0)
        shifted -= np.log(np.add.reduce(np.exp(shifted), axis=0))
        return logits, shifted

    def _factors(self, theta: np.ndarray, stacked: FeatureStack) -> tuple:
        """(Z, R), class-major: logits and R = softmax(Z) - onehot, with the
        bits of subtracting 1 at each label, since p - 0.0 = p."""
        logits, log_probs = self._log_probs(theta, stacked.x_t)
        residuals = np.exp(log_probs)
        residuals -= stacked.onehot
        return logits, residuals

    # Kept because perfbench patches it by name; it goes with the benchmark change of ROADMAP item 1.
    def per_example_gradients(self, theta: np.ndarray, dataset: FeatureDataset) -> np.ndarray:
        """All per-example gradients at theta as an (m, d) array; clipped_sums's oracle."""
        theta = _as_theta(theta, self.dim)
        stacked = self.stack((dataset,))
        _, residuals = self._factors(theta, stacked)
        grads = np.einsum("km,pm->mkp", residuals, stacked.x_t).reshape(dataset.size, self.dim)
        if self.l2_lambda:
            grads += self.l2_lambda * theta
        return grads

    def stack(self, shards) -> FeatureStack:
        """The shards' augmented features [x, 1], transposed, and labels as one
        stack, a column block per shard: the one place an example gets its bias
        row and its ||x||^2, which every gathered stack (take) keeps.  A lone
        shard whose features are the [:-1].T view of a read-only C-ordered
        float64 array with a last row of ones, as a loaded file's are, is
        wrapped, not copied."""
        if any(shard.features.shape[1] != self.feature_dim for shard in shards):
            raise ValueError(f"features must have dimension {self.feature_dim}")
        sizes = tuple(shard.size for shard in shards)
        x_t = shards[0].features.base if len(shards) == 1 else None
        if not (isinstance(x_t, np.ndarray) and x_t.dtype == np.float64 and x_t.flags.c_contiguous
                and not x_t.flags.writeable
                and x_t[:-1].T.__array_interface__ == shards[0].features.__array_interface__ and (x_t[-1] == 1).all()):
            x_t = np.empty((self.feature_dim + 1, sum(sizes)))
            np.concatenate([shard.features for shard in shards], out=x_t[:-1].T)
            x_t[-1] = 1.0
        labels = np.concatenate([shard.labels for shard in shards])
        return FeatureStack(x_t, labels, sizes, np.einsum("ji,ji->i", x_t, x_t), self.num_classes)

    def clipped_sums(self, theta: np.ndarray, stacked: FeatureStack, c_g: float) -> np.ndarray:
        """Row i: the sum over shard i of the per-example gradients
        g_j = vec(r_j x_j') + l2_lambda theta, each clipped to norm c_g, from
        the factors (ghost clipping) without building them:
        vec((R s) X') + l2_lambda theta sum(s).  One logits product serves
        every shard, and each run of equal-sized shards takes its sums from
        one batched product of its (K, size) residual blocks and its
        transposed (p+1, size) feature blocks."""
        if not 0 < c_g < math.inf:
            raise ValueError("c_g must be positive and finite")
        theta = _as_theta(theta, self.dim)
        x_t = stacked.x_t
        logits, residuals = self._factors(theta, stacked)
        scale = self._clip_scales(theta, stacked.sq_norms, logits, residuals, c_g)
        residuals *= scale
        n, classes, width = len(stacked.sizes), self.num_classes, self.feature_dim + 1
        sums = np.empty((n, classes, width))
        scale_sums = np.empty(n)
        for first, count, size, col in stacked.runs:
            cols, shards = slice(col, col + count * size), slice(first, first + count)
            sums[shards] = np.matmul(residuals[:, cols].reshape(classes, count, size).transpose(1, 0, 2),
                                     x_t[:, cols].reshape(width, count, size).transpose(1, 2, 0))
            scale_sums[shards] = np.add.reduce(scale[cols].reshape(count, size), axis=1)
        sums = sums.reshape(n, self.dim)
        sums += (self.l2_lambda * scale_sums)[:, None] * theta
        return sums

    def _clip_scales(self, theta, x_sq_norms, logits, residuals, c_g) -> np.ndarray:
        """min(1, c_g/||g_i||), ||g_i||^2 = ||r_i||^2 ||x_i||^2 + 2 lam r_i.z_i
        + lam^2 ||theta||^2, less 4 ulps times how far the cross term cancels
        the squares, so that no scaled row leaves the ball.  x_sq_norms holds
        the ||x_i||^2; the dots add the class rows in order."""
        lam = self.l2_lambda
        squares = np.einsum("km,km->m", residuals, residuals) * x_sq_norms
        squares += lam * lam * float(theta @ theta)
        sq_norms = np.maximum(squares + 2.0 * lam * np.einsum("km,km->m", residuals, logits), _TINY)
        safety = 1.0 - 4.0 * _EPS * np.maximum(1.0, squares / sq_norms)
        # A NaN norm gives a NaN scale, as a NaN row norm does in clip_rows.
        return np.minimum(np.maximum(c_g / np.sqrt(sq_norms) * safety, 0.0), 1.0)

    def loss_and_accuracy(self, theta: np.ndarray, stacked: FeatureStack) -> tuple:
        """Loss and accuracy over every example of the stack, as one dataset."""
        theta = _as_theta(theta, self.dim)
        labels = stacked.labels
        if labels.size == 0:
            raise ValueError("empty dataset")
        nll, log_probs = self._nll(theta, stacked)
        loss = float(nll.mean() + 0.5 * self.l2_lambda * float(theta @ theta))
        # np.argmax resolves ties toward the lowest class index, which is the
        # documented deterministic tie-break.
        predictions = np.argmax(log_probs, axis=0)
        accuracy = float(np.mean(predictions == labels))
        return loss, accuracy

    def _nll(self, theta: np.ndarray, stacked: FeatureStack) -> tuple:
        """(each example's negative log-likelihood (M,), the log-softmax (K, M))."""
        log_probs = self._log_probs(theta, stacked.x_t)[1]
        return -log_probs.take(stacked.label_index), log_probs

    def _train_losses(self, theta: np.ndarray, stacked: FeatureStack) -> np.ndarray:
        """Each shard's loss_and_accuracy loss, from one pass over the stack."""
        nll = self._nll(theta, stacked)[0]
        means = np.empty(len(stacked.sizes))
        for first, count, size, col in stacked.runs:
            means[first:first + count] = np.add.reduce(nll[col:col + count * size].reshape(count, size), axis=1) / size
        return means + 0.5 * self.l2_lambda * float(theta @ theta)

    def evaluate(self, theta: np.ndarray, train: FeatureStack, test: FeatureStack) -> tuple:
        """(train_loss, test_accuracy, None) at theta; train_loss, the federated objective, is the mean shard loss."""
        theta = _as_theta(theta, self.dim)
        loss = float(np.mean(self._train_losses(theta, train)))
        _, accuracy = self.loss_and_accuracy(theta, test)
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
        clipped to norm c_g, which is its one clipped gradient times its count."""
        theta = _as_theta(theta, self.dim)
        return clip_rows(np.array([s.a_matrix @ (theta - s.center) for s in stacked.shards]), c_g) * stacked.counts

    # Kept because perfbench patches it by name; it goes with the benchmark change of ROADMAP item 1.
    def loss_and_accuracy(self, theta: np.ndarray, shard: QuadraticShard) -> tuple:
        """Loss on one shard, plus exp(-gap)."""
        theta = np.asarray(theta, dtype=np.float64)
        loss = 0.5 * float((theta - shard.center) @ (shard.a_matrix @ (theta - shard.center)))
        return loss, math.exp(-self.gap(theta))

    def evaluate(self, theta: np.ndarray, train: QuadraticStack, test: None) -> tuple:
        """(F(theta), exp(-gap), gap) at theta, gap = max(0, F(theta) - F*); the shards are not needed."""
        loss = self.global_value(theta)
        gap = max(0.0, loss - self.optimum_value)
        return loss, math.exp(-gap), gap


Task = Union[SoftmaxHeadTask, QuadraticTask]


def partition_iid(count: int, n: int, seed: int) -> list:
    """Seeded uniform shuffle of range(count), split into n index arrays
    whose sizes differ by <= 1, the earlier arrays taking the extra indices."""
    if count < n:
        raise ValueError(f"cannot partition {count} examples across {n} clients")
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.array_split(np.random.default_rng(seed).permutation(count), n)


# Parsed feature files keyed by a digest of their bytes.  A grid search
# resolves its binding once per run, and parsing the text dominates that,
# so each distinct file is parsed once; keying by content means an edited
# file is never served stale.
_PARSED_FEATURE_FILES: "OrderedDict[bytes, tuple]" = OrderedDict()
_PARSED_FEATURE_FILES_KEPT = 4
# Every pass over a feature file reads it this many bytes at a time.
_CHUNK_BYTES = 1 << 16


def _chunks(fh):
    fh.seek(0)
    while chunk := fh.read(_CHUNK_BYTES):
        yield chunk


def _decoded_lines(fh, digest):
    r"""The file's lines as ``str.splitlines`` splits the whole text, a list
    per chunk, with every byte read fed to ``digest``.  Each chunk is decoded
    up to its last ``\n``: a cut just after a ``\n`` splits no UTF-8 sequence
    and no line separator (``\r\n`` ends there)."""
    pending = bytearray()
    for chunk in _chunks(fh):
        digest.update(chunk)
        pending += chunk
        cut = pending.rfind(b"\n", len(pending) - len(chunk)) + 1
        if cut:
            lines = pending[:cut].decode("utf-8").splitlines()
            del pending[:cut]
            yield lines
    yield pending.decode("utf-8").splitlines()


def load_frozen_features(path) -> tuple:
    r"""Read the frozen-feature text format.

    First line ``dim=<int>,classes=<int>``; each following line
    ``label,f1,...,fdim``.  Returns (FeatureDataset, num_classes); the width
    and row count are the dataset's.  Loads of identical content share one
    read-only dataset, whose features are the ``[:-1].T`` view of one
    C-ordered (dim+1, rows) buffer with a last row of ones.

    The file is read in chunks of ``_CHUNK_BYTES``, never whole, in two
    passes at most: a SHA-256 pass, which also counts the ``\n`` bytes that
    size the buffer, looks the content up in the parse cache (and goes with
    the cache); new content is then parsed (_read_rows).  A load holds the
    buffer, the labels and one chunk's text and rows.  A file that changes
    between the lookup and the parse raises ValueError and is not cached.
    """
    with open(path, "rb") as fh:
        lookup, chunk, newlines = hashlib.sha256(), b"", 0
        for chunk in _chunks(fh):
            lookup.update(chunk)
            newlines += chunk.count(b"\n")
        key = lookup.digest()
        if key in _PARSED_FEATURE_FILES:
            _PARSED_FEATURE_FILES.move_to_end(key)
            return _PARSED_FEATURE_FILES[key]
        digest = hashlib.sha256()
        size = os.fstat(fh.fileno()).st_size
        parsed = _parse_frozen_features(_decoded_lines(fh, digest), newlines + (not chunk.endswith(b"\n")), size)
    if digest.digest() != key:
        raise ValueError(f"{path}: the file changed while it was read")
    _PARSED_FEATURE_FILES[key] = parsed
    if len(_PARSED_FEATURE_FILES) > _PARSED_FEATURE_FILES_KEPT:
        _PARSED_FEATURE_FILES.popitem(last=False)
    return parsed


def _parse_frozen_features(chunks, most_lines: int, size: int) -> tuple:
    r"""Parse an iterator over the lines of a feature file of ``size`` bytes,
    a list of them per chunk, of which there are at most ``most_lines`` if
    ``\n`` is their only separator."""
    lines = next(chunks, [])
    if not lines:
        raise ValueError("malformed header: empty file")
    header = lines.pop(0).strip()
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

    # The buffer has a column per line left at the first row, but no more
    # than the bytes hold (a row takes 2 * dim + 1); it is copied only if
    # separators other than \n leave it short, or blank lines long.
    x_t, count, lineno, non_finite, labels = None, 0, 2, None, []
    for lines in itertools.chain([lines], chunks):
        rows = [(k, line) for k, line in enumerate(lines, start=lineno) if line.strip()]
        lineno += len(lines)
        lines.clear()  # The reader and the chain hold the list; rows alone hold its text.
        if not rows:
            continue
        values = _read_rows(rows, dim, classes, labels)
        if x_t is None:
            x_t = np.empty((dim + 1, max(min(most_lines - rows[0][0] + 1, size // (2 * dim + 1)), len(rows))))
        elif count + len(rows) > x_t.shape[1]:
            x_t = np.concatenate([x_t[:, :count], np.empty((dim + 1, max(x_t.shape[1], len(rows))))], axis=1)
        x_t[:-1, count:count + len(rows)] = values.T
        count += len(rows)
        if non_finite is None and not np.isfinite(values).all():
            # A nan or inf would otherwise surface later as an inf loss,
            # which reads like a diverged run rather than bad data.
            non_finite = rows[int(np.argmin(np.isfinite(values).all(axis=1)))][0]
        del rows  # before the next chunk is decoded
    if not count:
        raise ValueError("no example rows")
    if non_finite is not None:
        raise ValueError(f"line {non_finite}: non-finite feature value")
    if count < x_t.shape[1]:
        x_t = x_t[:, :count].copy()
    x_t[-1] = 1.0
    labels = np.array(labels, dtype=np.int64)
    # Frozen before the view is taken: freezing a buffer leaves earlier views writable.
    x_t.flags.writeable = labels.flags.writeable = False
    return FeatureDataset(x_t[:-1].T, labels), classes


def _read_rows(rows, dim: int, classes: int, labels: list) -> np.ndarray:
    """The (r, dim) values of a chunk's (lineno, line) rows, with their labels
    appended to labels: from numpy's C parser and int where the chunk is
    ASCII without \\x1f (which numpy strips and float refuses) and reads,
    else line by line with int and float, raising at the first bad line."""
    lines = [line for _, line in rows]
    if all(line.isascii() and "\x1f" not in line for line in lines):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            read = [int(line[:line.index(",")]) for line in lines]
            if values.shape[1] == dim + 1 and 0 <= min(read) and max(read) < classes:
                labels += read
                return values[:, 1:]
    values = []
    for lineno, line in rows:
        if line.count(",") != dim:
            raise ValueError(f"line {lineno}: expected {dim} features, got {line.count(',')}")
        cells = line.split(",")
        try:
            label = int(cells[0])
            values.append(list(map(float, cells[1:])))
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable numeric value") from None
        if not 0 <= label < classes:
            raise ValueError(f"line {lineno}: label {label} out of range [0, {classes})")
        labels.append(label)
    return np.array(values)


def save_frozen_features(path, dataset: FeatureDataset, num_classes: int) -> None:
    """Write a FeatureDataset in the frozen-feature text format.  What
    load_frozen_features would reject is refused before the file is opened,
    and so are labels of a dtype other than an integer one."""
    problems = []
    if dataset.size < 1:
        problems.append("no example rows")
    if dataset.feature_dim < 1:
        problems.append("dim must be >= 1")
    integral = isinstance(num_classes, (int, np.integer)) and not isinstance(num_classes, bool)
    if not (integral and num_classes >= 2):
        problems.append("classes must be >= 2" if integral else "classes must be an integer")
    if not np.issubdtype(dataset.labels.dtype, np.integer):
        problems.append(f"labels must be integers, not {dataset.labels.dtype}")
    elif integral and not np.all((dataset.labels >= 0) & (dataset.labels < num_classes)):
        problems.append(f"labels must lie in [0, {num_classes})")
    if not np.isfinite(dataset.features).all():
        problems.append("feature values must be finite")
    if problems:
        raise ValueError("; ".join(problems))
    # Written beside the target and renamed over it, so a write that stops
    # part-way leaves the old file or none, never one cut at a row boundary
    # (which would load cleanly with fewer rows).
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(f"dim={dataset.feature_dim},classes={num_classes}\n")
            for i in range(dataset.size):
                row = ",".join(map(repr, dataset.features[i].astype(float).tolist()))
                fh.write(f"{int(dataset.labels[i])},{row}\n")
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def quadratic_problems(d: int, mu: float, L: float, heterogeneity: float, shard_size: int) -> list:
    """What is wrong with these synthetic quadratic settings, one message each."""
    problems = []
    if not (is_integer(d) and 1 <= d <= 64):
        problems.append("d must lie in [1, 64]" if is_integer(d) else "d must be an integer")
    if not 0 < mu < math.inf:
        problems.append("mu must be positive and finite")
    if not abs(L) < math.inf:
        problems.append("L must be finite")
    elif mu > L:
        problems.append("mu must not exceed L")
    if not 0 <= heterogeneity < math.inf:
        problems.append("heterogeneity must be nonnegative and finite")
    if not (is_integer(shard_size) and shard_size >= 1):
        problems.append("shard_size must be >= 1" if is_integer(shard_size) else "shard_size must be an integer")
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
    if not (is_integer(n) and n >= 1):
        problems.append("n must be >= 1" if is_integer(n) else "n must be an integer")
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
    problems = []
    if not feature_dim >= 1:
        problems.append("feature_dim must be >= 1")
    if not num_classes >= 2:
        problems.append("num_classes must be >= 2")
    elif num_examples < num_classes:
        problems.append("need at least one example per class")
    if not 1 <= condition < math.inf:
        problems.append("condition must be >= 1 and finite")
    if not abs(separation) < math.inf:
        problems.append("separation must be finite")
    if problems:
        raise ValueError("; ".join(problems))
    rng = np.random.default_rng(seed)
    stds = np.geomspace(math.sqrt(condition), 1.0, feature_dim)
    means = rng.normal(size=(num_classes, feature_dim)) * separation
    labels = rng.permutation(np.arange(num_examples) % num_classes).astype(np.int64)
    noise = rng.normal(size=(num_examples, feature_dim)) * stds
    return FeatureDataset(means[labels] + noise, labels)
