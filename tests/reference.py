"""The method written plainly, as the oracle of a whole run.

``reference_run`` runs an ``ExperimentPlan`` with loops over rounds, clients
and examples and none of the run path's shortcuts: no ghost clipping, no
stacked release, no batched streams, no noise block, no kept bundle and no
O(d) inverse.  Per round, each client

- takes its stream ``derive_noise_stream(master_seed, i, t)`` and, with
  mini-batches smaller than its shard, draws its rows from it first;
- builds every per-example gradient: ``outer(softmax(Wx) - onehot(y), x) +
  lambda theta`` with scipy's softmax, or a quadratic shard's ``A(theta - c)``;
- clips each with ``clip_rows``, sums them, adds ``normal(0, c_g sigma /
  sqrt(n), d)`` from the same stream, and divides by its example count.

The server averages the releases; SOFIM updates the momentum and then steps
along ``oracles.dense_preconditioner(m, rho) @ g``, FEDGD along ``g``.  The
data are drawn from the same derived streams as a bundle's: the holdout
permutation, the partition and the quadratic task.
"""

import math

import numpy as np
from scipy.special import log_softmax, softmax

from fedsofim.accountant import calibrate_sigma
from fedsofim.client import clip_rows
from fedsofim.core import (
    HOLDOUT_STREAM_TAG,
    PARTITION_STREAM_TAG,
    TASK_STREAM_TAG,
    Optimizer,
    derive_noise_stream,
    derive_stream_seed,
)
from fedsofim.oracles import dense_preconditioner
from fedsofim.task import make_synthetic_quadratic


def softmax_data(features, labels, test, holdout_fraction, n, seed):
    """(the n clients' (features, labels) in partition order, the test set's),
    with the holdout taken from the front of the holdout stream's permutation
    where no test set is given."""
    rows = np.arange(len(labels))
    if test is None:
        rows = np.random.default_rng(derive_stream_seed(seed, HOLDOUT_STREAM_TAG, 0)).permutation(rows.size)
        cut = int(round(holdout_fraction * rows.size))
        test, rows = (features[rows[:cut]], labels[rows[:cut]]), rows[cut:]
    order = np.random.default_rng(derive_stream_seed(seed, PARTITION_STREAM_TAG, 0)).permutation(rows.size)
    return [(features[rows[part]], labels[rows[part]]) for part in np.array_split(order, n)], test


def softmax_gradients(theta, shard, classes, lam):
    """Each example's gradient, one row each."""
    weights = theta.reshape(classes, -1)
    rows = []
    for x, y in zip(*shard):
        x = np.append(x, 1.0)
        residual = softmax(weights @ x) - np.eye(classes)[y]
        rows.append(np.outer(residual, x).ravel() + lam * theta)
    return np.array(rows)


def softmax_metrics(theta, shards, test, classes, lam):
    """(the mean over shards of each shard's mean loss, plus the l2 term; test accuracy)."""
    weights, penalty = theta.reshape(classes, -1), 0.5 * lam * float(theta @ theta)
    losses = []
    for features, labels in shards:
        logits = np.hstack([features, np.ones((len(labels), 1))]) @ weights.T
        losses.append(-np.mean(log_softmax(logits, axis=1)[np.arange(len(labels)), labels]) + penalty)
    logits = np.hstack([test[0], np.ones((len(test[1]), 1))]) @ weights.T
    return float(np.mean(losses)), float(np.mean(np.argmax(logits, axis=1) == test[1]))


def reference_run(plan, data=None):
    """Every evaluated round's (round, train_loss, test_accuracy, aggregate
    norm, gap or None), and each client-round's draws as {(i, t): [picks or
    noise, ...]} in the order drawn.  A softmax plan takes ``data``: the
    training file's features, labels and class count, and the test file's
    (features, labels) or None.  A quadratic plan draws its task."""
    config, binding = plan.config, plan.binding
    n, seed = config.n, config.master_seed
    sigma = calibrate_sigma(plan.epsilon, plan.delta, n, config.T) if plan.epsilon is not None else config.sigma_g
    if data is None:
        task, quad_shards = make_synthetic_quadratic(binding.d, n, binding.mu, binding.L, binding.heterogeneity,
                                                     seed=derive_stream_seed(seed, TASK_STREAM_TAG, 0),
                                                     shard_size=binding.shard_size)
        sizes, dim = [binding.shard_size] * n, binding.d

        def value(theta):
            return float(np.mean([0.5 * (theta - c) @ a @ (theta - c) for c, a in zip(task.centers, task.a_matrices)]))

        optimum = value(np.linalg.solve(task.a_matrices.sum(axis=0),
                                        np.einsum("nij,nj->i", task.a_matrices, task.centers)))
    else:
        features, labels, classes, test = data
        shards, test = softmax_data(features, labels, test, binding.holdout_fraction, n, seed)
        sizes, dim = [len(shard[1]) for shard in shards], classes * (features.shape[1] + 1)
    theta, momentum, rows, draws = np.zeros(dim), np.zeros(dim), [], {}
    for t in range(config.T):
        releases = []
        for i in range(n):
            stream, drawn = derive_noise_stream(seed, i, t), draws.setdefault((i, t), [])
            picks = np.arange(sizes[i])
            if 0 < config.batch_size < sizes[i]:
                drawn.append(stream.choice(sizes[i], size=config.batch_size, replace=False))
                picks = np.sort(drawn[-1])
            if data is None:
                gradient = quad_shards[i].a_matrix @ (theta - quad_shards[i].center)
                gradients = np.array([gradient] * picks.size)
            else:
                batch = (shards[i][0][picks], shards[i][1][picks])
                gradients = softmax_gradients(theta, batch, classes, binding.l2_lambda)
            total = clip_rows(gradients, config.clip_cg).sum(axis=0)
            if sigma > 0:
                drawn.append(stream.normal(0.0, config.clip_cg * sigma / math.sqrt(n), dim))
                total = total + drawn[-1]
            releases.append(total / picks.size)
        g = sum(releases) / n
        if config.optimizer is Optimizer.SOFIM:
            momentum = config.beta * momentum + (1.0 - config.beta) * g
            theta = theta - config.eta * (dense_preconditioner(momentum, config.rho) @ g)
        else:
            theta = theta - config.eta * g
        if (t + 1) % plan.eval_every == 0 or t == config.T - 1:
            if data is None:
                loss = value(theta)
                gap = max(0.0, loss - optimum)
                rows.append((t + 1, loss, math.exp(-gap), float(np.linalg.norm(g)), gap))
            else:
                rows.append((t + 1, *softmax_metrics(theta, shards, test, classes, binding.l2_lambda),
                             float(np.linalg.norm(g)), None))
    return rows, draws
