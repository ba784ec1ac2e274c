"""Server side: aggregation, momentum, rank-one preconditioned updates.

The preconditioner (rho I + M M')^{-1} is never materialized; its action on a
vector costs exactly two inner products and a handful of O(d) vector ops.
The dense reference lives in ``fedsofim.oracles`` and must stay out of every
import chain reachable from here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .client import ClientRelease
from .core import FederatedConfig, ServerState


def aggregate(releases: Sequence[ClientRelease], expected_n: int = None) -> np.ndarray:
    """Arithmetic mean of the client release vectors for one round."""
    if not releases:
        raise ValueError("no releases to aggregate")
    if expected_n is not None and len(releases) != expected_n:
        raise ValueError(f"expected {expected_n} releases, got {len(releases)}")
    dim = releases[0].vector.shape
    round_index = releases[0].round
    for rel in releases[1:]:
        if rel.vector.shape != dim:
            raise ValueError("release dimension mismatch")
        if rel.round != round_index:
            raise ValueError("releases from mixed rounds")
    # The sum-then-divide np.mean performs, without its dispatch.
    return np.add.reduce([rel.vector for rel in releases], axis=0) / len(releases)


def update_momentum(m_prev: np.ndarray, g: np.ndarray, beta: float) -> np.ndarray:
    if m_prev.shape != g.shape:
        raise ValueError("momentum/gradient dimension mismatch")
    return beta * m_prev + (1.0 - beta) * g


def precondition_apply(m: np.ndarray, g: np.ndarray, rho: float) -> np.ndarray:
    """Apply (rho I + m m')^{-1} to g via the rank-one inverse identity.

    Exactly two inner products (m'g and m'm); the denominator is factored as
    rho * (rho + ||m||^2), the better-conditioned of the two algebraically
    equal forms.  m = 0 is valid and gives g / rho.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if m.shape != g.shape:
        raise ValueError("dimension mismatch")
    mg = float(m @ g)
    mm = float(m @ m)
    return g / rho - m * (mg / (rho * (rho + mm)))


def sofim_step(state: ServerState, g: np.ndarray, config: FederatedConfig) -> ServerState:
    """One preconditioned server update.

    The momentum buffer moves first and the preconditioner is built from the
    *new* buffer — the same-step coupling the convergence analysis assumes.
    Do not reorder.
    """
    if state.theta.shape != g.shape:
        raise ValueError("dimension mismatch")
    momentum = update_momentum(state.momentum, g, config.beta)
    direction = precondition_apply(momentum, g, config.rho)
    return ServerState(
        theta=state.theta - config.eta * direction,
        momentum=momentum,
        round=state.round + 1,
    )


def fedgd_step(state: ServerState, g: np.ndarray, eta: float) -> ServerState:
    """Plain descent step; the momentum buffer is left untouched."""
    if state.theta.shape != g.shape:
        raise ValueError("dimension mismatch")
    return replace(state, theta=state.theta - eta * g, round=state.round + 1)
