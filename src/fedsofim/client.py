"""Record-level DP release: clip each per-example gradient, sum, perturb, normalize.

Order matters and is load-bearing: Gaussian noise is added to the *sum* of
clipped gradients before dividing by the local dataset size, and the noise
variance carries a 1/n factor.  The accountant's closed-form sensitivity and
release-noise expressions assume exactly this arrangement, so do not "fix" it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # task.py imports clip_rows from here
    from .task import ClientDataset, Task


@dataclass(frozen=True)
class ClientRelease:
    vector: np.ndarray
    client_id: int
    round: int


# Rescaling passes the ulp correction may take before giving up.  One pass
# settles every norm seen in practice; a norm that keeps exceeding the radius
# means the norm itself is broken (non-monotone in the scale), and looping on
# would never end.
MAX_ULP_PASSES = 8


def _row_norms(x: np.ndarray) -> np.ndarray:
    # The reduction np.linalg.norm(x, axis=1) performs, without its dispatch,
    # so the bits match it exactly.
    return np.sqrt(np.add.reduce(x * x, axis=1))


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
    if (norms <= c_g).all():
        return grads
    # Rows inside the ball are multiplied by exactly 1.0, a no-op in IEEE
    # arithmetic; rows with a NaN norm fail the test above and become NaN.
    scale = np.minimum(1.0, c_g / np.maximum(norms, np.finfo(np.float64).tiny))
    out = grads * scale[:, None]
    # The ulp correction, restricted to rows that still poke past the radius
    # after rescaling.
    over = np.flatnonzero(_row_norms(out) > c_g)
    passes = 0
    while over.size:
        if passes == MAX_ULP_PASSES:
            raise RuntimeError(f"clipped row norms still exceed c_g after {MAX_ULP_PASSES} rescaling passes")
        out[over] = out[over] * (c_g / _row_norms(out[over]))[:, None]
        over = over[_row_norms(out[over]) > c_g]
        passes += 1
    return out


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
) -> ClientRelease:
    """One client's noisy normalized update for one round.

    Computes (S + E) / |D| where S = task.clipped_sum sums the individually
    clipped per-example gradients at theta and E ~ N(0, (c_g sigma_g)^2 / n I).
    With sigma_g = 0 the draw is skipped entirely, so non-private runs never
    touch the stream.  A positive batch_size sub-samples that many examples
    (drawn from the same stream, before the noise) and normalizes by the
    batch count; the accountant grants no amplification credit for it.
    """
    if dataset.size < 1:
        raise ValueError("empty dataset")
    if not sigma_g >= 0:
        raise ValueError("sigma_g must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")

    if batch_size and batch_size < dataset.size:
        if stream is None:
            raise ValueError("mini-batch selection requires a stream")
        dataset = dataset.subset(np.sort(stream.choice(dataset.size, size=batch_size, replace=False)))

    summed = task.clipped_sum(theta, dataset, c_g)
    if sigma_g > 0:
        summed += stream.normal(0.0, c_g * sigma_g / math.sqrt(n), size=summed.shape)
    summed /= dataset.size
    return ClientRelease(vector=summed, client_id=client_id, round=round_index)
