"""Numerical verification suites for the optimizer's supporting theory.

Each suite re-derives one guarantee (operator identities, norm bounds, noise
variance, contraction, complexity) from an independent direction — dense
linear algebra, Monte Carlo, quadrature, or wall-clock measurement — and
returns its checks (measured value, bound, and margin); verify_theory names
the report by the suite's key in SUITES.  This module and the tests are the
only importers of ``fedsofim.oracles``.
"""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from . import accountant
from .client import clip_rows
from .core import FederatedConfig, Optimizer, ServerState, derive_noise_streams
from .harness import TaskBundle, clipped_aggregate, round_aggregate, round_streams, run_round
from .oracles import dense_preconditioner
from .server import precondition_apply, sofim_step
from .task import QuadraticShard, make_synthetic_quadratic


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool
    note: str = ""

    @property
    def margin(self) -> float:
        return self.bound - self.measured


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        out = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}: measured={c.measured:.6g} bound={c.bound:.6g} margin={c.margin:.3g}"
            if c.note:
                line += f"  ({c.note})"
            out.append(line)
        return out


def _check_max(name: str, measured: float, bound: float, note: str = "") -> CheckResult:
    """Pass when measured <= bound."""
    return CheckResult(name, float(measured), float(bound), bool(measured <= bound), note)


# ---------------------------------------------------------------------------
# SHERMAN_MORRISON


def _random_direction(rng: np.random.Generator, d: int, lo: float = 0.1, hi: float = 3.0) -> np.ndarray:
    """Random direction with log-uniform norm in [lo, hi] — keeps quadratic
    forms at unit scale so absolute slacks stay meaningful across d."""
    v = rng.normal(size=d)
    return v * (float(np.exp(rng.uniform(math.log(lo), math.log(hi)))) / float(np.linalg.norm(v)))


def suite_sherman_morrison(seed: int = 0) -> tuple:
    rng = np.random.default_rng(seed)
    dims = (1, 2, 8, 64, 256)
    worst_identity = 0.0
    worst_apply = 0.0
    for d in dims:
        for _ in range(80):  # 400 triples total
            rho = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            m = _random_direction(rng, d)
            g = _random_direction(rng, d)
            dense = dense_preconditioner(m, rho)
            identity_err = np.linalg.norm(
                dense @ (rho * np.eye(d) + np.outer(m, m)) - np.eye(d), ord="fro"
            )
            apply_err = np.linalg.norm(precondition_apply(m, g, rho) - dense @ g)
            worst_identity = max(worst_identity, identity_err)
            worst_apply = max(worst_apply, apply_err / np.linalg.norm(g))
    checks = [
        _check_max("identity_product_frobenius", worst_identity, 1e-10),
        _check_max("apply_vs_dense_relative", worst_apply, 1e-10),
    ]

    slack = 1e-12
    worst_op = -math.inf      # ||Hv|| - ||v||/rho, should stay <= slack
    worst_quad = -math.inf    # lower bound violation
    worst_psd = -math.inf     # negativity of v'Hv
    worst_upper = -math.inf   # v'Hv - ||v||^2/rho
    for _ in range(10_000):
        d = int(rng.choice(dims))
        rho = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        m = _random_direction(rng, d, 0.1, 2.0)
        v = _random_direction(rng, d, 0.1, 2.0)
        hv = precondition_apply(m, v, rho)
        v_sq = float(v @ v)
        m_sq = float(m @ m)
        worst_op = max(worst_op, float(np.linalg.norm(hv)) - np.linalg.norm(v) / rho - slack)
        quad_form = float(v @ hv)
        worst_quad = max(worst_quad, (1.0 / rho - m_sq / rho**2) * v_sq - quad_form - slack)
        worst_psd = max(worst_psd, -quad_form - slack)
        worst_upper = max(worst_upper, quad_form - v_sq / rho - slack)
    checks += [
        _check_max("operator_norm_excess", worst_op, 0.0, "||Hv|| <= ||v||/rho + 1e-12"),
        _check_max("quadratic_form_deficit", worst_quad, 0.0, "v'Hv >= (1/rho - ||m||^2/rho^2)||v||^2 - 1e-12"),
        _check_max("psd_negativity", worst_psd, 0.0, "v'Hv >= 0"),
        _check_max("upper_sandwich_excess", worst_upper, 0.0, "v'Hv <= ||v||^2/rho"),
    ]

    # Anisotropy: parallel component scaled by 1/(rho + ||m||^2), orthogonal by 1/rho.
    worst_par = 0.0
    worst_perp = 0.0
    for _ in range(200):
        d = int(rng.choice((2, 8, 64)))
        rho = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        m = rng.normal(size=d)
        m_sq = float(m @ m)
        v_par = m * rng.uniform(0.1, 2.0)
        expected_par = v_par / (rho + m_sq)
        worst_par = max(
            worst_par,
            float(np.linalg.norm(precondition_apply(m, v_par, rho) - expected_par))
            / float(np.linalg.norm(expected_par)),
        )
        v = rng.normal(size=d)
        v_perp = v - m * (float(m @ v) / m_sq)
        got = precondition_apply(m, v_perp, rho)
        worst_perp = max(
            worst_perp,
            float(np.linalg.norm(got - v_perp / rho)) / max(1e-300, float(np.linalg.norm(v_perp)) / rho),
        )
    checks += [
        _check_max("anisotropy_parallel_rel_err", worst_par, 1e-12),
        _check_max("anisotropy_orthogonal_rel_err", worst_perp, 1e-10,
                   "orthogonalization itself costs a few ulps"),
    ]
    return tuple(checks)


# ---------------------------------------------------------------------------
# CLIP_NORM


def suite_clip_norm(seed: int = 0) -> tuple:
    """Aggregated clipped gradient never exceeds the clipping radius.

    The bulk check runs vectorized synthetic rounds (random per-example
    gradients, about half needing clipping); a smaller sample goes through
    the actual release/aggregate call path on a heterogeneous quadratic.
    """
    rng = np.random.default_rng(seed)
    c_g = 1.0
    profiles = ((1, 1, 8), (3, 2, 8), (5, 4, 16), (2, 7, 4))
    per_profile = 100_000 // len(profiles)
    worst_excess = -math.inf
    for n, m, d in profiles:
        remaining = per_profile
        while remaining > 0:
            chunk = min(remaining, 5000)
            rows = rng.normal(size=(chunk * n * m, d))
            # Rescale to radii uniform on (0, 2 c_g): half the rows need
            # clipping, and many land within rounding distance of the radius.
            radii = rng.uniform(0.0, 2.0 * c_g, size=chunk * n * m)
            rows *= (radii / np.linalg.norm(rows, axis=1))[:, None]
            clipped = clip_rows(rows, c_g).reshape(chunk, n, m, d)
            agg = clipped.mean(axis=2).mean(axis=1)
            worst_excess = max(worst_excess, float(np.linalg.norm(agg, axis=1).max()) - c_g)
            remaining -= chunk
    checks = [_check_max("synthetic_rounds_norm_excess", worst_excess, 0.0, "zero tolerance")]

    task, shards = make_synthetic_quadratic(d=6, n=4, mu=0.5, L=4.0, heterogeneity=2.0, seed=seed + 1)
    bundle = TaskBundle(task=task, train=task.stack(shards))
    worst_path = -math.inf
    for _ in range(200):
        theta = rng.normal(size=task.dim) * 3.0
        g = clipped_aggregate(bundle, theta, c_g)
        worst_path = max(worst_path, float(np.linalg.norm(g)) - c_g)
    checks.append(_check_max("release_path_norm_excess", worst_path, 0.0, "zero tolerance"))
    return tuple(checks)


# ---------------------------------------------------------------------------
# MOMENTUM_MOMENT


def suite_momentum_moment(seed: int = 0) -> tuple:
    """E||M_t||^2 stays under c_g^2 + (1-beta) d nu^2 (plus Monte Carlo slack).

    Worst-case drive: a fixed clipped aggregate of norm exactly c_g plus
    aggregate DP noise at the variance the accountant predicts.
    """
    rng = np.random.default_rng(seed)
    c_g, sigma_g, n, m, d, beta = 10.0, 2.0, 4, 10, 10, 0.9
    paths, rounds = 500, 300
    nu_sq, _ = accountant.noise_floor(c_g, sigma_g, n, [m] * n)
    signal = rng.normal(size=d)
    signal *= c_g / np.linalg.norm(signal)
    bound = c_g**2 + (1.0 - beta) * d * nu_sq

    momenta = np.zeros((paths, d))
    worst = -math.inf
    worst_round = -1
    measured_at_worst = 0.0
    for t in range(rounds):
        noise = rng.normal(scale=math.sqrt(nu_sq), size=(paths, d))
        momenta = beta * momenta + (1.0 - beta) * (signal[None, :] + noise)
        sq_norms = np.einsum("pd,pd->p", momenta, momenta)
        mean_sq = float(sq_norms.mean())
        stderr = float(sq_norms.std(ddof=1)) / math.sqrt(paths)
        excess = mean_sq - (bound + 5.0 * stderr)
        if excess > worst:
            worst, worst_round, measured_at_worst = excess, t, mean_sq
    return (
        _check_max(
            "second_moment_excess",
            worst,
            0.0,
            f"worst round {worst_round}: sample mean {measured_at_worst:.4f} vs bound {bound:.4f} + 5x stderr",
        ),
    )


# ---------------------------------------------------------------------------
# VARIANCE_REDUCTION


def suite_variance_reduction(seed: int = 0) -> tuple:
    """Stationary per-coordinate variance of the momentum buffer at beta=0.9
    is nu^2 (1-beta)/(1+beta) = 1/19 for unit-variance driving noise."""
    rng = np.random.default_rng(seed)
    beta, d, paths, rounds = 0.9, 16, 2000, 500
    target = (1.0 - beta) / (1.0 + beta)
    constant = 0.3  # any fixed drive; variance is shift-invariant
    momenta = np.zeros((paths, d))
    for _ in range(rounds):
        momenta = beta * momenta + (1.0 - beta) * (constant + rng.normal(size=(paths, d)))
    measured = float(momenta.var(axis=0, ddof=1).mean())
    rel_err = abs(measured - target) / target
    return (_check_max("stationary_variance_rel_err", rel_err, 0.03,
                       f"measured {measured:.6f} vs {target:.6f}"),)


# ---------------------------------------------------------------------------
# NOISE_FLOOR


def _aggregate_noise_variance(sizes, c_g, sigma_g, draws, seed) -> float:
    """Per-coordinate variance of the aggregate noise, measured through the
    run's own round_aggregate (a round's aggregate minus its noiseless
    counterpart).  Draw r gives client i the stream
    ``derive_noise_stream(seed, i, r)``, seeded in batches by
    ``derive_noise_streams``."""
    n = len(sizes)
    d = 8
    task, _ = make_synthetic_quadratic(d=d, n=n, mu=0.5, L=2.0, heterogeneity=1.0, seed=seed)
    shards = [QuadraticShard(task.a_matrices[i], task.centers[i], int(sizes[i])) for i in range(n)]
    theta = np.zeros(d)
    bundle = TaskBundle(task=task, train=task.stack(shards))
    noiseless = clipped_aggregate(bundle, theta, c_g)
    acc = np.zeros(d)
    acc_sq = np.zeros(d)
    for streams in derive_noise_streams(seed, n, draws):
        xi = round_aggregate(bundle, theta, c_g, sigma_g, n, streams) - noiseless
        acc += xi
        acc_sq += xi * xi
    var = (acc_sq - acc * acc / draws) / (draws - 1)
    return float(var.mean())


def suite_noise_floor(seed: int = 0) -> tuple:
    c_g, sigma_g = 10.0, 2.0
    checks = []
    for label, sizes in (("equal_sizes", [10, 10, 10, 10]), ("mixed_sizes", [5, 10, 20, 40])):
        nu_sq, uniform = accountant.noise_floor(c_g, sigma_g, len(sizes), sizes)
        measured = _aggregate_noise_variance(sizes, c_g, sigma_g, 100_000, seed)
        rel_err = abs(measured - nu_sq) / nu_sq
        checks.append(
            _check_max(
                f"{label}_variance_rel_err",
                rel_err,
                0.03,
                f"measured {measured:.6g} vs nu^2 {nu_sq:.6g} (uniform bound {uniform:.6g})",
            )
        )
        checks.append(_check_max(f"{label}_nu_sq_within_uniform_bound", nu_sq, uniform))
    return tuple(checks)


# ---------------------------------------------------------------------------
# DESCENT


def suite_descent(seed: int = 0) -> tuple:
    """Noiseless preconditioned rounds strictly decrease F when eta sits in
    the stability range (and under the smoothness threshold)."""
    rounds = 200
    task, shards = make_synthetic_quadratic(d=12, n=5, mu=0.1, L=5.0, heterogeneity=1.0, seed=seed)
    bundle = TaskBundle(task=task, train=task.stack(shards))
    theta0 = np.zeros(task.dim)
    # F never rises, so theta stays in the initial level set: a radius that
    # covers it bounds both the aggregate and every per-example gradient.
    level_radius = math.sqrt(2.0 * task.gap(theta0) / task.mu)
    signal_bound = task.L * level_radius
    center_spread = float(max(np.linalg.norm(task.theta_star - c) for c in task.centers))
    c_g = 2.0 * task.L * (level_radius + center_spread)  # clipping never active
    rho, beta = 0.5, 0.9
    eta = 0.5 * rho**2 / (task.L * (rho + signal_bound**2))
    assert eta < rho / task.mu  # inside the contraction range too
    config = FederatedConfig(
        n=len(shards), T=rounds, eta=eta, clip_cg=c_g, sigma_g=0.0, beta=beta, rho=rho,
        master_seed=seed, optimizer=Optimizer.SOFIM,
    )
    state = ServerState.initial(theta0)
    values = [task.global_value(state.theta)]
    for streams in round_streams(config):
        state, _ = run_round(bundle, state, config, streams)
        values.append(task.global_value(state.theta))
    decreases = np.diff(values)
    return (_check_max("worst_round_increase", float(decreases.max()), 0.0,
                       f"min decrease {-decreases.max():.3e}, eta={eta:.3e}"),)


# ---------------------------------------------------------------------------
# CONVERGENCE_FLOOR


def suite_convergence_floor(seed: int = 0) -> tuple:
    """Mean terminal gap under DP noise stays below the theoretical floor.

    One fixed ill-conditioned quadratic (kappa = 100); the Monte Carlo seeds
    vary only the noise streams.  G_max and zeta_max are the maxima observed
    along all simulated trajectories, as the report notes.
    """
    d, n, m, num_seeds, rounds = 20, 20, 10, 20, 500
    mu_target, L_target = 0.05, 5.0
    # eta/rho = 0.25 < 2/L keeps the unclipped iteration stable, so the run
    # actually contracts (rate 0.9875) instead of riding the clipping bound.
    rho, beta, eta, c_g, sigma_g = 2.0, 0.9, 0.5, 5.0, 1.0
    tau = 1.0 / (2.0 * rho)
    task, shards = make_synthetic_quadratic(
        d=d, n=n, mu=mu_target, L=L_target, heterogeneity=1.0, seed=seed, shard_size=m
    )
    bundle = TaskBundle(task=task, train=task.stack(shards))
    config = FederatedConfig(
        n=n, T=rounds, eta=eta, clip_cg=c_g, sigma_g=sigma_g, beta=beta, rho=rho, optimizer=Optimizer.SOFIM,
    )
    g_max = 0.0
    zeta_max = 0.0
    terminal_gaps = []
    for k in range(num_seeds):
        seed_config = replace(config, master_seed=seed + 1000 + k)
        state = ServerState.initial(np.zeros(d))
        for streams in round_streams(seed_config):
            grad = bundle.task.global_gradient(state.theta)
            g_max = max(g_max, float(np.linalg.norm(grad)))
            zeta = clipped_aggregate(bundle, state.theta, c_g) - grad
            zeta_max = max(zeta_max, float(np.linalg.norm(zeta)))
            state, _ = run_round(bundle, state, seed_config, streams)
        terminal_gaps.append(task.gap(state.theta))
    _, nu_uniform = accountant.noise_floor(c_g, sigma_g, n, [m] * n)
    gamma, floor, rate = accountant.theoretical_floor(
        task.mu, task.L, eta, rho, beta, c_g, nu_uniform, d, zeta_max, g_max, tau, tau
    )
    mean_gap = float(np.mean(terminal_gaps))
    return (
        _check_max(
            "mean_terminal_gap_vs_floor",
            mean_gap,
            floor,
            f"rate={rate:.4f}, gamma={gamma:.4g}, initial_gap={task.gap(np.zeros(d)):.4g}, "
            f"G_max={g_max:.4g}, zeta_max={zeta_max:.4g} (empirical maxima)",
        ),
    )


# ---------------------------------------------------------------------------
# COMPLEXITY_SCALING


def _cold_data_step_seconds(d: int, rng: np.random.Generator, config: FederatedConfig) -> float:
    """Best per-step seconds at dimension d, cycling through enough distinct
    states that the data footprint exceeds the last-level cache.

    Timing one resident state instead would compare cache-hit small sizes
    against memory-bound large ones and pile the whole hierarchy transition
    onto a single doubling; in a real round loop the client computation
    between steps displaces the server arrays anyway, so cold data per step
    is the representative regime at every size.
    """
    count = max(4, (64 << 20) // (3 * d * 8))
    thetas = rng.normal(size=(count, d))
    momenta = np.zeros((count, d))
    gs = rng.normal(size=(count, d))
    states = [ServerState(theta=thetas[i], momentum=momenta[i]) for i in range(count)]
    for i in range(min(count, 8)):
        sofim_step(states[i], gs[i], config)
    best = math.inf
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(count):
                sofim_step(states[i], gs[i], config)
            best = min(best, (time.perf_counter() - t0) / count)
    finally:
        if was_enabled:
            gc.enable()
    return best


def suite_complexity_scaling(seed: int = 0) -> tuple:
    """Server-step wall time is O(d): at most 3x per doubling of d, and peak
    allocation during a step stays linear in d."""
    rng = np.random.default_rng(seed)
    dims = [2**k for k in range(10, 17)]
    config = FederatedConfig(
        n=1, T=1, eta=0.1, clip_cg=1.0, sigma_g=0.0, beta=0.9, rho=0.5, optimizer=Optimizer.SOFIM
    )
    timings = [_cold_data_step_seconds(d, rng, config) for d in dims]
    ratios = [timings[i + 1] / timings[i] for i in range(len(timings) - 1)]
    checks = [
        _check_max(
            "worst_doubling_ratio",
            max(ratios),
            3.0,
            "per-step seconds: " + ", ".join(f"{t:.2e}" for t in timings),
        )
    ]

    d = dims[-1]
    state = ServerState(theta=rng.normal(size=d), momentum=np.zeros(d))
    g = rng.normal(size=d)
    tracemalloc.start()
    tracemalloc.reset_peak()
    sofim_step(state, g, config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    checks.append(
        _check_max(
            "step_peak_bytes_at_d65536",
            float(peak),
            1_000_000.0 + 100.0 * d * 8.0,
            "linear-in-d allocation budget; a dense d x d would need 34 GB",
        )
    )
    return tuple(checks)


# ---------------------------------------------------------------------------
# ACCOUNTANT


def _quadrature_delta(epsilon: float, delta_sens: float, sigma: float) -> float:
    """Hockey-stick divergence between N(0, s^2) and N(D, s^2) by direct
    numerical integration of (p - e^eps q)_+ — independent of the closed form
    (no error functions involved).

    The integrand is positive exactly below the density-ratio crossover, so
    the integral runs over (-inf, crossover], truncated where both Gaussians
    are below the underflow threshold and evaluated by composite
    Gauss-Legendre with panels no wider than sigma/2.
    """
    crossover = delta_sens / 2.0 - epsilon * sigma * sigma / delta_sens
    lower = min(0.0, crossover) - 45.0 * sigma
    panels = max(8, int(math.ceil((crossover - lower) / (sigma / 2.0))))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lower, crossover, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    x = (edges[:-1] + half)[:, None] + half * nodes[None, :]
    p = np.exp(-x * x / (2.0 * sigma * sigma))
    q = np.exp(-((x - delta_sens) ** 2) / (2.0 * sigma * sigma))
    vals = (p - math.exp(epsilon) * q) / (sigma * math.sqrt(2.0 * math.pi))
    return float(half * np.sum(weights[None, :] * vals))


def grid_sweep_minimum(epsilon: float, delta: float, n: int, T: int) -> float:
    """Independent exhaustive search for the smallest feasible sigma_g: a
    coarse log sweep of the full bracket locates the feasibility crossing,
    then 10,000 linearly spaced evaluations pin it down."""
    lo, hi = accountant.CALIBRATION_BRACKET
    coarse = np.geomspace(lo, hi, 2048)
    feasible = np.array([accountant.composed_delta(epsilon, s, n, T) <= delta for s in coarse])
    if not feasible.any():
        raise ValueError("no feasible sigma_g in bracket")
    first = int(np.argmax(feasible))
    if first == 0:
        return float(coarse[0])
    fine = np.linspace(coarse[first - 1], coarse[first], 10_000)
    for s in fine:
        if accountant.composed_delta(epsilon, float(s), n, T) <= delta:
            return float(s)
    return float(coarse[first])


def suite_accountant(seed: int = 0) -> tuple:
    rng = np.random.default_rng(seed)
    checks = []

    worst_quad = 0.0
    for _ in range(20):
        eps = float(rng.uniform(0.05, 3.0))
        delta_sens = float(rng.uniform(0.1, 5.0))
        sigma = delta_sens * float(rng.uniform(0.25, 5.0))
        closed = accountant.single_round_delta(eps, delta_sens, sigma)
        quad = _quadrature_delta(eps, delta_sens, sigma)
        worst_quad = max(worst_quad, abs(closed - quad))
    checks.append(_check_max("closed_form_vs_quadrature", worst_quad, 1e-8))

    reference = 0.6826894921370859  # Phi(1) - Phi(-1) to 16 digits
    got = accountant.composed_delta(0.0, 100.0, 100, 100)  # q = sqrt(n T)/sigma_g = 1
    checks.append(_check_max("delta_at_eps0_q1_abs_err", abs(got - reference), 1e-6))

    # Strictly decreasing where delta is away from the saturated ends (it
    # pins to exactly 1.0 for tiny sigma and underflows to 0.0 for huge
    # sigma, where only non-strict monotonicity can hold in floats).
    interior = [accountant.composed_delta(1.0, s, 20, 70) for s in np.geomspace(6.0, 600.0, 50)]
    strict_inversions = sum(1 for a, b in zip(interior, interior[1:]) if b >= a)
    checks.append(_check_max("sigma_monotonicity_strict_inversions", float(strict_inversions), 0.0))
    full = [accountant.composed_delta(1.0, s, 20, 70) for s in np.geomspace(*accountant.CALIBRATION_BRACKET, 60)]
    soft_inversions = sum(1 for a, b in zip(full, full[1:]) if b > a)
    checks.append(_check_max("sigma_monotonicity_soft_inversions", float(soft_inversions), 0.0))

    stress = accountant.composed_delta(50.0, 0.1, 20, 70)
    checks.append(
        _check_max("log_space_stability", 0.0 if math.isfinite(stress) else 1.0, 0.0,
                   f"delta(eps=50, sigma=0.1)={stress}")
    )

    worst_round_trip = -math.inf
    worst_grid_gap = 0.0
    for n, T in ((20, 70), (100, 70)):
        for eps in (0.5, 1.0, 2.0, 5.0, 10.0):
            sigma = accountant.calibrate_sigma(eps, 1e-5, n, T)
            achieved = accountant.composed_delta(eps, sigma, n, T)
            worst_round_trip = max(worst_round_trip, achieved - 1e-5)
            grid_min = grid_sweep_minimum(eps, 1e-5, n, T)
            worst_grid_gap = max(worst_grid_gap, abs(sigma - grid_min) / grid_min)
    checks.append(_check_max("round_trip_delta_excess", worst_round_trip, 0.0))
    checks.append(_check_max("calibration_vs_grid_sweep_rel", worst_grid_gap, 1.1e-3,
                             "both searches resolve sigma to 0.1%"))

    worst_t1 = 0.0
    for _ in range(10):
        c_g = float(rng.uniform(0.5, 20.0))
        d_min = int(rng.integers(1, 50))
        n = int(rng.integers(1, 200))
        sigma_g = float(rng.uniform(0.3, 50.0))
        eps = float(rng.uniform(0.0, 5.0))
        single = accountant.single_round_delta(
            eps,
            accountant.sensitivity(c_g, d_min),
            c_g * sigma_g / (math.sqrt(n) * d_min),
        )
        composed = accountant.composed_delta(eps, sigma_g, n, 1)
        worst_t1 = max(worst_t1, abs(single - composed))
    checks.append(_check_max("composed_T1_matches_single_round", worst_t1, 1e-15,
                             "clipping radius and d_min cancel"))
    return tuple(checks)


SUITES = {
    "SHERMAN_MORRISON": suite_sherman_morrison,
    "CLIP_NORM": suite_clip_norm,
    "MOMENTUM_MOMENT": suite_momentum_moment,
    "VARIANCE_REDUCTION": suite_variance_reduction,
    "NOISE_FLOOR": suite_noise_floor,
    "DESCENT": suite_descent,
    "CONVERGENCE_FLOOR": suite_convergence_floor,
    "COMPLEXITY_SCALING": suite_complexity_scaling,
    "ACCOUNTANT": suite_accountant,
}


def verify_theory(suite: str, seed: int = 0) -> VerifyReport:
    """Run one named verification suite and return its report."""
    name = suite.upper()
    if name not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return VerifyReport(name, SUITES[name](seed))
