"""Server side: averaging a round's release rows, momentum, rank-one preconditioned updates.

The preconditioner (rho I + M M')^{-1} is never materialized; its action on a
vector costs exactly two inner products and a handful of O(d) vector ops.
The dense reference lives in ``fedsofim.oracles`` and must stay out of every
import chain reachable from here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import FederatedConfig, ServerState


def aggregate(releases, n: int) -> np.ndarray:
    """Mean of one round's n release rows, given as an (n, d) array or n equal-length vectors."""
    try:
        rows = np.asarray(releases, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("release dimension mismatch: rows of unequal length") from exc
    if rows.ndim != 2 or rows.shape[0] != n or not rows.size:
        raise ValueError(f"expected {n} release rows of one length, got shape {rows.shape}")
    # The sum-then-divide np.mean performs, without its dispatch.
    return np.add.reduce(rows, axis=0) / n


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
