"""Record-level DP release: clip each per-example gradient, sum, perturb, normalize.

One round's releases are computed together, as the (n, d) array whose row i
is client i's release.  In order: each client whose mini-batch is smaller
than its shard picks its rows from its own stream; every shard's clipped
per-example gradients are summed; each client's own stream adds its
Gaussian noise to its sum; and each sum is divided by its client's example
count.  The order is load-bearing: noise goes onto the *sum* of clipped
gradients before dividing by the local dataset size, and the noise variance
carries a 1/n factor.  The accountant's closed-form sensitivity and
release-noise expressions assume exactly this arrangement, so do not "fix"
it.  A single client's release is the one-shard round.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # task.py imports clip_rows from here
    from .task import ClientDataset, FeatureStack, QuadraticStack, Task


# Rescaling passes the ulp correction may take before giving up.  One pass
# settles every norm seen in practice; a norm that keeps exceeding the radius
# means the norm itself is broken (non-monotone in the scale), and looping on
# would never end.
MAX_ULP_PASSES = 8


def _row_norms(x: np.ndarray) -> np.ndarray:
    # The reduction np.linalg.norm(x, axis=1) performs, without its dispatch,
    # so the bits match it exactly.
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _unoverflowed(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """norms, the row norms of x, with the inf norm of each finite row whose
    squares overflow taken from the row divided by its largest entry: such a
    row would otherwise scale to zero, in the clip and in its ulp correction."""
    for row in np.flatnonzero(norms == math.inf):
        peak = np.maximum.reduce(np.abs(x[row]))
        if peak < math.inf:
            norms[row] = peak * _row_norms(x[row:row + 1] / peak)[0]
    return norms


def clip_rows(grads: np.ndarray, c_g: float) -> np.ndarray:
    """Scale each row of an (m, d) stack onto the l2 ball of radius c_g, and
    nudge clipped rows by a few ulps until their recomputed norms are <= c_g.

    Rows inside the ball come back bit-identical, and when every row is
    inside, the stack itself is returned rather than a copy.  Raises
    RuntimeError if MAX_ULP_PASSES nudges leave a row outside.
    """
    if not 0 < c_g < math.inf:
        raise ValueError("c_g must be positive and finite")
    grads = np.asarray(grads, dtype=np.float64)
    norms = _row_norms(grads)
    # The largest norm decides, and a NaN norm makes it NaN: the test
    # (norms <= c_g).all() makes, at half the dispatch.
    if np.maximum.reduce(norms, initial=0.0) <= c_g:
        return grads
    norms = _unoverflowed(grads, norms)
    # Rows inside the ball are multiplied by exactly 1.0, a no-op in IEEE
    # arithmetic; rows with a NaN norm fail the test above and become NaN.
    scale = np.minimum(1.0, c_g / np.maximum(norms, np.finfo(np.float64).tiny))
    out = grads * scale[:, None]
    # The ulp correction, restricted to rows that still poke past the radius
    # after rescaling.
    over = np.flatnonzero(_unoverflowed(out, _row_norms(out)) > c_g)
    passes = 0
    while over.size:
        if passes == MAX_ULP_PASSES:
            raise RuntimeError(f"clipped row norms still exceed c_g after {MAX_ULP_PASSES} rescaling passes")
        out[over] = out[over] * (c_g / _unoverflowed(out[over], _row_norms(out[over])))[:, None]
        over = over[_unoverflowed(out[over], _row_norms(out[over])) > c_g]
        passes += 1
    return out


def release_round(
    stacked: FeatureStack | QuadraticStack,
    theta: np.ndarray,
    c_g: float,
    sigma_g: float,
    n: int,
    streams,
    task: Task,
    batch_size: int = 0,
) -> np.ndarray:
    """Every client's noisy normalized update for one round, as the (n, d)
    array whose row i is client i's release.

    Row i is (S_i + E_i) / |D_i|, where S_i = task.clipped_sums(...)[i]
    sums the individually clipped per-example gradients of shard i at theta
    and E_i ~ N(0, (c_g sigma_g)^2 / n I) is drawn from streams[i].  With
    sigma_g = 0 the draw is skipped entirely, so non-private runs never touch
    the streams.  A positive batch_size sub-samples that many examples of
    each larger shard (drawn from its stream, before the noise) and
    normalizes by the batch count; the accountant grants no amplification
    credit for it.  ``streams`` holds one entry per shard; an entry may be
    None only where nothing is drawn from it.
    """
    sizes = stacked.sizes
    if min(sizes) < 1:
        raise ValueError("empty dataset")
    if not sigma_g >= 0:
        raise ValueError("sigma_g must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(streams) != len(sizes):
        raise ValueError("a round's release requires one stream per shard")

    if batch_size and batch_size < max(sizes):
        picks = []
        for size, stream in zip(sizes, streams):
            if batch_size >= size:
                picks.append(None)
            elif stream is None:
                raise ValueError("mini-batch selection requires a stream")
            else:
                picks.append(np.sort(stream.choice(size, size=batch_size, replace=False)))
        stacked = stacked.subset(picks)

    sums = task.clipped_sums(theta, stacked, c_g)
    if sigma_g > 0:
        if None in streams:
            raise ValueError("noise requires a stream")
        scale = c_g * sigma_g / math.sqrt(n)
        sums += np.array([stream.normal(0.0, scale, sums.shape[1]) for stream in streams])
    sums /= stacked.counts
    return sums


# Kept because perfbench calls it by name; it goes with the benchmark change of ROADMAP item 1.
def private_release(
    dataset: ClientDataset,
    theta: np.ndarray,
    c_g: float,
    sigma_g: float,
    n: int,
    stream,
    task: Task,
    client_id: int = 0,
    round_index: int = 0,
    batch_size: int = 0,
) -> np.ndarray:
    """One client's noisy normalized update for one round: row 0 of the
    round release of the one shard ``dataset`` with its one stream.  client_id
    and round_index are unused; perfbench passes them by name."""
    return release_round(task.stack((dataset,)), theta, c_g, sigma_g, n, (stream,), task, batch_size)[0]
