"""Acceptance gate: twelve quantitative criteria, one test (and one
pass/fail line) each.

Criteria backed by a named verification suite assert the relevant checks
from the suite's report plus its wall-time budget; the suite runs once per
session via the shared cache.  Criteria 9 and 10 read their runs from
``rounds``, and criterion 11 tunes through ``grid_search``.
"""

import subprocess
import sys
import textwrap
import time

import numpy as np
from conftest import child_env

from fedsofim.accountant import theoretical_floor
from fedsofim.core import FederatedConfig, Optimizer, validate_config
from fedsofim.harness import (
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    QuadraticTaskBinding,
    build_bundle,
    clipped_aggregate,
    grid_search,
    rounds,
)
from fedsofim.task import make_anisotropic_features, save_frozen_features


def check_by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert matches, f"suite {report.suite} has no check named {name}"
    return matches[0]


def announce(tag, detail):
    print(f"[{tag}] PASS - {detail}")


def test_criterion_01_rank_one_inverse_exactness(suite_runner):
    report, elapsed = suite_runner.run("SHERMAN_MORRISON")
    identity = check_by_name(report, "identity_product_frobenius")
    apply_err = check_by_name(report, "apply_vs_dense_relative")
    assert identity.bound == 1e-10 and identity.passed, identity
    assert apply_err.bound == 1e-10 and apply_err.passed, apply_err
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 01",
        f"dense-identity frobenius {identity.measured:.2e} <= 1e-10, "
        f"apply relative error {apply_err.measured:.2e} <= 1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_operator_and_quadratic_form_bounds(suite_runner):
    report, elapsed = suite_runner.run("SHERMAN_MORRISON")
    operator = check_by_name(report, "operator_norm_excess")
    quad_form = check_by_name(report, "quadratic_form_deficit")
    assert operator.passed and operator.measured <= 0.0, operator
    assert quad_form.passed and quad_form.measured <= 0.0, quad_form
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 02",
        f"zero violations over 10^4 samples (worst operator excess "
        f"{operator.measured:.2e}, worst lower-bound deficit {quad_form.measured:.2e}), "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_03_clipped_aggregate_norm_bound(suite_runner):
    report, elapsed = suite_runner.run("CLIP_NORM")
    synthetic = check_by_name(report, "synthetic_rounds_norm_excess")
    release_path = check_by_name(report, "release_path_norm_excess")
    assert synthetic.passed and synthetic.measured <= 0.0, synthetic
    assert release_path.passed and release_path.measured <= 0.0, release_path
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 03",
        f"max aggregate norm never exceeded the radius over 10^5 noiseless "
        f"rounds (excess {synthetic.measured!r}), {elapsed:.2f}s < 10s",
    )


def test_criterion_04_noise_variance_formula(suite_runner):
    report, elapsed = suite_runner.run("NOISE_FLOOR")
    equal = check_by_name(report, "equal_sizes_variance_rel_err")
    mixed = check_by_name(report, "mixed_sizes_variance_rel_err")
    assert equal.passed and equal.bound == 0.03, equal
    assert mixed.passed and mixed.bound == 0.03, mixed
    assert elapsed < 30.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 04",
        f"10^5-draw Monte Carlo variance within 3% for both size profiles "
        f"(rel err {equal.measured:.4f} equal, {mixed.measured:.4f} mixed), "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_05_momentum_variance_reduction(suite_runner):
    report, elapsed = suite_runner.run("VARIANCE_REDUCTION")
    stationary = check_by_name(report, "stationary_variance_rel_err")
    assert stationary.passed and stationary.bound == 0.03, stationary
    assert elapsed < 60.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 05",
        f"stationary buffer variance within {stationary.measured:.2%} of "
        f"(1-beta)/(1+beta) at beta=0.9 (2000 paths, t=500), {elapsed:.1f}s < 60s",
    )


def test_criterion_06_accountant_exactness(suite_runner):
    report, elapsed = suite_runner.run("ACCOUNTANT")
    quadrature = check_by_name(report, "closed_form_vs_quadrature")
    reference = check_by_name(report, "delta_at_eps0_q1_abs_err")
    monotone = check_by_name(report, "sigma_monotonicity_strict_inversions")
    assert quadrature.passed and quadrature.bound == 1e-8, quadrature
    assert reference.passed and reference.bound == 1e-6, reference
    assert monotone.passed and monotone.measured == 0.0, monotone
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 06",
        f"closed form vs quadrature {quadrature.measured:.2e} <= 1e-8 on 20 "
        f"triples, unit-ratio reference within {reference.measured:.2e}, zero "
        f"monotonicity inversions on the 50-point sweep, {elapsed:.2f}s < 10s",
    )


def test_criterion_07_calibration_round_trip(suite_runner):
    report, elapsed = suite_runner.run("ACCOUNTANT")
    round_trip = check_by_name(report, "round_trip_delta_excess")
    grid_gap = check_by_name(report, "calibration_vs_grid_sweep_rel")
    assert round_trip.passed and round_trip.measured <= 0.0, round_trip
    assert grid_gap.passed, grid_gap
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 07",
        f"all ten (epsilon, n, T) regimes meet delta=1e-5 after calibration; "
        f"solver within {grid_gap.measured:.2e} of the exhaustive grid minimum, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_08_convergence_floor(suite_runner):
    report, elapsed = suite_runner.run("CONVERGENCE_FLOOR")
    floor_check = check_by_name(report, "mean_terminal_gap_vs_floor")
    assert floor_check.passed, floor_check
    assert "G_max" in floor_check.note and "zeta_max" in floor_check.note
    assert elapsed < 300.0, f"suite took {elapsed:.2f}s"
    announce(
        "criterion 08",
        f"mean terminal gap {floor_check.measured:.4g} <= theoretical floor "
        f"{floor_check.bound:.4g} over 20 seeds, T=500 ({floor_check.note}), "
        f"{elapsed:.1f}s < 300s",
    )


def test_criterion_09_noiseless_per_round_contraction():
    start = time.perf_counter()
    d, n = 20, 20
    mu, L = 0.05, 5.0  # condition number 100
    rho, beta, eta, c_g = 2.0, 0.9, 0.5, 50.0
    tau = 1.0 / (2.0 * rho)
    config = validate_config(FederatedConfig(
        n=n, T=500, eta=eta, clip_cg=c_g, sigma_g=0.0, beta=beta, rho=rho,
        master_seed=0, optimizer=Optimizer.SOFIM,
    ))
    bundle = build_bundle(QuadraticTaskBinding(d=d, mu=mu, L=L, heterogeneity=1.0), n, 0)
    theta = np.zeros(d)

    gaps = [bundle.task.gap(theta)]
    g_max = 0.0
    zeta_max = 0.0
    # Without noise, the aggregate round t releases at theta_t is the clipped aggregate there.
    for t, state, agg in rounds(bundle, config, theta):
        if t == 0:
            np.testing.assert_array_equal(agg, clipped_aggregate(bundle, theta, c_g))
        g_max = max(g_max, float(np.linalg.norm(agg)))
        zeta = float(np.linalg.norm(agg - bundle.task.global_gradient(theta)))
        zeta_max = max(zeta_max, zeta)
        theta = state.theta
        gaps.append(bundle.task.gap(theta))

    assert c_g >= g_max, f"clipping radius {c_g} below observed maximum {g_max}"
    gamma_no_noise, _, rate = theoretical_floor(
        mu, L, eta, rho, beta, c_g, 0.0, d, zeta_max, g_max, tau, tau
    )
    assert 0.0 < rate < 1.0
    worst_excess = max(
        gaps[t + 1] - (rate * gaps[t] + gamma_no_noise) for t in range(config.T)
    )
    elapsed = time.perf_counter() - start
    assert worst_excess <= 1e-12, f"one-step bound violated by {worst_excess:.3e}"
    assert gaps[-1] < gaps[0]
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(
        "criterion 09",
        f"gap(t+1) <= {rate:.4f} * gap(t) + {gamma_no_noise:.4g} held at every "
        f"one of 500 noiseless rounds (worst slack {-worst_excess:.3e}); gap "
        f"fell {gaps[0]:.4g} -> {gaps[-1]:.4g}; {elapsed:.1f}s < 60s",
    )


def test_criterion_10_first_order_limit_equivalence():
    start = time.perf_counter()
    d, n, T = 8, 4, 50
    eta_fedgd = 0.1
    rho = 1e6
    binding = QuadraticTaskBinding(d=d, mu=0.2, L=1.0, heterogeneity=0.5)
    bundle = build_bundle(binding, n, 5)
    theta0 = bundle.task.theta_star + 0.1 * np.ones(d) / np.sqrt(d)

    base = dict(n=n, T=T, clip_cg=10.0, sigma_g=0.0, beta=0.0, master_seed=5)
    config_sofim = validate_config(FederatedConfig(
        eta=rho * eta_fedgd, rho=rho, optimizer=Optimizer.SOFIM, **base,
    ))
    config_fedgd = validate_config(FederatedConfig(
        eta=eta_fedgd, rho=0.5, optimizer=Optimizer.FEDGD, **base,
    ))

    worst_rel = 0.0
    runs = rounds(bundle, config_sofim, theta0), rounds(bundle, config_fedgd, theta0)
    for (_, state_s, _), (_, state_f, _) in zip(*runs):
        rel = float(
            np.linalg.norm(state_s.theta - state_f.theta)
            / max(np.linalg.norm(state_f.theta), 1e-12)
        )
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    assert worst_rel <= 1e-6, f"trajectories diverged to {worst_rel:.3e} relative"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(
        "criterion 10",
        f"rate-rescaled trajectories (rho=1e6, beta=0, sigma_g=0) agree to "
        f"{worst_rel:.2e} relative over {T} rounds; {elapsed:.1f}s < 10s",
    )


def test_criterion_11_private_ordering_after_tuning(tmp_path):
    start = time.perf_counter()
    features = make_anisotropic_features(
        num_examples=8000, feature_dim=16, num_classes=4,
        condition=1e3, separation=1.5, seed=11,
    )
    task_path = tmp_path / "ordering.features"
    save_frozen_features(task_path, features, num_classes=4)

    binding = FeatureTaskBinding(train_path=str(task_path))
    fedgd_etas = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
    sofim_etas = (0.05, 0.1, 0.2, 0.5, 1.0)
    clips = (1.0, 5.0)
    seeds = 10

    def base_plan(optimizer, epsilon):
        config = validate_config(FederatedConfig(
            n=20, T=70, eta=0.5, clip_cg=5.0, sigma_g=0.0, beta=0.9, rho=0.5,
            master_seed=100, optimizer=optimizer,
        ))
        return ExperimentPlan(config=config, binding=binding,
                              epsilon=epsilon, delta=1e-5)

    lines = []
    for epsilon in (5.0, 10.0):
        fedgd_plan = base_plan(Optimizer.FEDGD, epsilon)
        _, fedgd_sweep = grid_search(
            fedgd_plan, GridSpec(etas=fedgd_etas, clip_cgs=clips), seeds=seeds
        )
        fedgd_best = max(r["mean_final_accuracy"] for r in fedgd_sweep)

        sofim_plan = base_plan(Optimizer.SOFIM, epsilon)
        # the tuning grid spans strong preconditioning through the documented
        # large-rho regime where the step reduces to rescaled plain descent
        _, strong_sweep = grid_search(
            sofim_plan,
            GridSpec(etas=sofim_etas, clip_cgs=clips, rhos=(0.05, 0.2, 1.0)),
            seeds=seeds,
        )
        _, limit_sweep = grid_search(
            sofim_plan,
            GridSpec(etas=tuple(e * 1e12 for e in fedgd_etas), clip_cgs=clips,
                     rhos=(1e12,)),
            seeds=seeds,
        )
        sofim_best = max(r["mean_final_accuracy"] for r in strong_sweep + limit_sweep)

        assert sofim_best >= fedgd_best, (
            f"epsilon={epsilon}: tuned accuracy {sofim_best:.5f} fell below "
            f"the first-order baseline {fedgd_best:.5f}"
        )
        lines.append(f"eps={epsilon:g}: {sofim_best:.5f} >= {fedgd_best:.5f}")

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    announce(
        "criterion 11",
        f"tuned mean final accuracy over {seeds} seeds ({'; '.join(lines)}); "
        f"{elapsed:.0f}s < 900s",
    )


def test_criterion_12_linear_time_per_round(suite_runner):
    report, elapsed = suite_runner.run("COMPLEXITY_SCALING")
    ratio = check_by_name(report, "worst_doubling_ratio")
    peak = check_by_name(report, "step_peak_bytes_at_d65536")
    assert ratio.passed and ratio.bound == 3.0, ratio
    assert peak.passed, peak
    assert elapsed < 120.0, f"suite took {elapsed:.2f}s"

    # structural half: a production run must never load the dense oracle
    script = textwrap.dedent("""
        import sys
        from fedsofim import cli
        code = cli.main([
            "run", "--quadratic", "--dim", "16", "--mu", "0.5", "--L", "2.0",
            "--n", "4", "--T", "5", "--eta", "0.2", "--clip_cg", "100",
            "--sigma_g", "1.0", "--beta", "0.9", "--rho", "1.0",
            "--eval-every", "5",
        ])
        assert code == 0
        assert "fedsofim.oracles" not in sys.modules, "dense oracle reachable from run"
        assert "fedsofim.verify" not in sys.modules, "verification module reachable from run"
        print("ISOLATED")
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=110, env=child_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ISOLATED" in proc.stdout
    announce(
        "criterion 12",
        f"worst per-doubling step-time ratio {ratio.measured:.2f} <= 3 across "
        f"d=2^10..2^16, step allocation {peak.measured/1e6:.1f} MB within the "
        f"linear budget, dense oracle unreachable from run; {elapsed:.1f}s < 120s",
    )
