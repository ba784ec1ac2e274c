"""Exact Gaussian-mechanism accounting under the hockey-stick divergence.

For a Gaussian release with l2 sensitivity D and noise scale s, the exact
privacy profile is

    delta(eps) = Phi(D/2s - eps*s/D) - e^eps * Phi(-D/2s - eps*s/D).

Here D = 2*c_g/d_min per replace-one adjacency and s = c_g*sigma_g/(sqrt(n)*d_min),
so s/D = sigma_g/(2*sqrt(n)) — the clipping radius and the smallest dataset
size cancel.  Composing T identical rounds multiplies the effective
signal-to-noise, giving the single curve

    delta(eps) = Phi(q - eps/(2q)) - e^eps * Phi(-q - eps/(2q)),   q = sqrt(n*T)/sigma_g.

The e^eps * Phi(-a) product is always evaluated as exp(eps + log Phi(-a));
anything else overflows at tight budgets.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .core import is_integer

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Lower bracket edge, upper bracket edge, and relative tolerance of the
# noise-multiplier search.
CALIBRATION_BRACKET = (1e-3, 1e6)
CALIBRATION_RTOL = 1e-3


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; relative error below 1e-12 everywhere
    the result is representable (erfc itself is good to ~1e-15)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def log_normal_cdf(x: float) -> float:
    """log Phi(x), finite far into the left tail.

    For x >= -8 the erfc route is exact to machine precision and nowhere near
    underflow (that happens around x = -37).  Below -8 we switch to the
    standard asymptotic expansion of the Mills ratio,

        Phi(-a) = phi(a)/a * (1 - 1/a^2 + 3/a^4 - 15/a^6 + ...),

    summed until the terms fall under 1e-17; at the a = 8 crossover this
    yields ~1e-13 relative error and improves rapidly for larger a.
    """
    if x >= -8.0:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    a = -x
    a2 = a * a
    series, term, k = 0.0, 1.0, 0
    while True:
        k += 1
        term *= -(2 * k - 1) / a2
        if abs(term) < 1e-17 or k > 60:
            break
        series += term
    return -0.5 * a2 - math.log(a) - _LOG_SQRT_2PI + math.log1p(series)


def sensitivity(c_g: float, d_min: int) -> float:
    """l2 sensitivity of one client's noiseless release under replace-one
    adjacency: the swapped record moves the clipped sum by at most 2 c_g."""
    if not c_g > 0:
        raise ValueError("c_g must be positive")
    if d_min < 1:
        raise ValueError("d_min must be >= 1")
    return 2.0 * c_g / d_min


def _hockey_stick(epsilon: float, ratio: float) -> float:
    """delta(eps) for a Gaussian with s/D = ratio, clamped into [0, 1]."""
    half = 1.0 / (2.0 * ratio)
    value = normal_cdf(half - epsilon * ratio) - math.exp(
        epsilon + log_normal_cdf(-half - epsilon * ratio)
    )
    return min(1.0, max(0.0, value))


def single_round_delta(epsilon: float, delta_sens: float, sigma_release: float) -> float:
    """Exact delta(eps) of one Gaussian release with sensitivity delta_sens
    and noise scale sigma_release."""
    if not sigma_release > 0:
        raise ValueError("sigma_release must be positive")
    if not delta_sens > 0:
        raise ValueError("delta_sens must be positive")
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    return _hockey_stick(epsilon, sigma_release / delta_sens)


def composed_delta(epsilon: float, sigma_g: float, n: int, T: int) -> float:
    """delta(eps) after T full-participation rounds.

    Uses the composed Gaussian curve with q = sqrt(n*T)/sigma_g; at T = 1 it
    coincides with single_round_delta for any clipping radius and minimum
    dataset size, which cancel out of the ratio.
    """
    if not sigma_g > 0:
        raise ValueError("sigma_g must be positive")
    for name, count in (("n", n), ("T", T)):
        if not is_integer(count):
            raise ValueError(f"{name} must be an integer")
    if n < 1 or T < 1:
        raise ValueError("n and T must be >= 1")
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    # q = 1/(2*ratio): reuse the single-round kernel with ratio = sigma_g/(2 sqrt(nT)).
    return _hockey_stick(epsilon, sigma_g / (2.0 * math.sqrt(n * T)))


def calibrate_sigma(epsilon: float, delta: float, n: int, T: int) -> float:
    """Smallest noise multiplier meeting (epsilon, delta) after T rounds.

    Bisects composed_delta (strictly decreasing in sigma_g) over the fixed
    bracket until the endpoints are within 0.1% of each other, returning the
    feasible upper endpoint.  Raises for a non-finite epsilon or if the top
    of the bracket cannot reach the target; if the bottom already meets it,
    the bottom is returned (the true optimum is below anything usable here).
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be nonnegative and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")
    lo, hi = CALIBRATION_BRACKET
    if composed_delta(epsilon, hi, n, T) > delta:
        raise ValueError(f"target (eps={epsilon}, delta={delta}) unreachable within sigma_g <= {hi}")
    if composed_delta(epsilon, lo, n, T) <= delta:
        return lo
    while hi / lo > 1.0 + CALIBRATION_RTOL:
        mid = math.sqrt(lo * hi)
        if composed_delta(epsilon, mid, n, T) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def compose_adaptive(per_round: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Basic composition: budgets add up across rounds."""
    if not per_round:
        raise ValueError("empty per-round budget list")
    eps_total = math.fsum(e for e, _ in per_round)
    delta_total = math.fsum(d for _, d in per_round)
    return eps_total, delta_total


def noise_floor(c_g: float, sigma_g: float, n: int, sizes: Sequence[int]) -> Tuple[float, float]:
    """Per-coordinate variance of the aggregate DP noise, exact and bounded.

    Returns (nu_sq, uniform_bound) where
    nu_sq = (c_g sigma_g)^2 / n^3 * sum(1/|D_i|^2) and the bound replaces
    every size by the smallest one, giving (c_g sigma_g)^2 / (n m_min)^2.
    With equal sizes the two coincide.
    """
    if not c_g > 0:
        raise ValueError("c_g must be positive")
    if not sigma_g >= 0:
        raise ValueError("sigma_g must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    sizes = list(sizes)
    if len(sizes) != n:
        raise ValueError(f"expected {n} dataset sizes, got {len(sizes)}")
    if not all(s >= 1 for s in sizes):
        raise ValueError("every dataset size must be >= 1")
    if sigma_g == 0:
        return 0.0, 0.0
    scale = (c_g * sigma_g) ** 2
    nu_sq = scale / n**3 * math.fsum(1.0 / s**2 for s in sizes)
    uniform = scale / (n * min(sizes)) ** 2
    return nu_sq, uniform


def theoretical_floor(
    mu: float,
    L: float,
    eta: float,
    rho: float,
    beta: float,
    c_g: float,
    nu_sq: float,
    d: int,
    zeta_max: float,
    g_max: float,
    tau1: float,
    tau2: float,
) -> Tuple[float, float, float]:
    """Per-round error constant, limiting gap, and contraction rate.

    With c_grad = 1/rho - (tau1 + tau2)/2 > 0 the expected suboptimality
    contracts like rate = 1 - 2*mu*eta*c_grad down to floor = gamma/(2*mu*eta*c_grad),
    where gamma collects the momentum coupling, clipping bias, DP noise, and
    smoothness terms:

        gamma = eta*g_max^2*m_bar_sq/rho^2 + eta*zeta_max^2/(2*tau1*rho^2)
              + eta*d*nu_sq/(2*tau2*rho^2) + L*eta^2*(c_g^2 + d*nu_sq)/(2*rho^2)

    with m_bar_sq = c_g^2 + (1-beta)*d*nu_sq bounding the momentum second
    moment.
    """
    if not (tau1 > 0 and tau2 > 0):
        raise ValueError("tau1 and tau2 must be positive")
    c_grad = 1.0 / rho - (tau1 + tau2) / 2.0
    if not c_grad > 0:
        raise ValueError(f"c_grad = 1/rho - (tau1+tau2)/2 must be positive, got {c_grad}")
    rate = 1.0 - 2.0 * mu * eta * c_grad
    if not 0.0 < rate < 1.0:
        raise ValueError(f"contraction rate must lie in (0,1), got {rate}")
    m_bar_sq = c_g**2 + (1.0 - beta) * d * nu_sq
    rho_sq = rho * rho
    gamma = (
        eta * g_max**2 * m_bar_sq / rho_sq
        + eta * zeta_max**2 / (2.0 * tau1 * rho_sq)
        + eta * d * nu_sq / (2.0 * tau2 * rho_sq)
        + L * eta**2 * (c_g**2 + d * nu_sq) / (2.0 * rho_sq)
    )
    floor = gamma / (2.0 * mu * eta * c_grad)
    return gamma, floor, rate
