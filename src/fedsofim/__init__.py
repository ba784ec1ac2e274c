"""Differentially private federated optimization with a rank-one server-side
Fisher preconditioner, plus its privacy accountant and verification suites.

Per round, every client clips per-example gradients to an L2 radius, adds
calibrated Gaussian noise to their sum, and releases the normalized result.
The server averages the releases, folds the average into a momentum buffer,
and takes a step preconditioned by (rho I + M M^T)^{-1}, applied in O(d) via
the rank-one inverse update.  The accountant tracks the exact hockey-stick
divergence of the resulting Gaussian mechanism in closed form.
"""

from .accountant import (
    calibrate_sigma,
    compose_adaptive,
    composed_delta,
    noise_floor,
    sensitivity,
    single_round_delta,
    theoretical_floor,
)
from .client import clip_rows, private_release, release_round
from .core import (
    FederatedConfig,
    Optimizer,
    RoundMetrics,
    ServerState,
    derive_noise_stream,
    derive_noise_streams,
    derive_stream_seed,
    load_config,
    parse_config_text,
    validate_config,
    with_updates,
)
from .harness import (
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    MetricsTable,
    QuadraticTaskBinding,
    TaskBundle,
    build_bundle,
    emit_metrics,
    grid_search,
    read_metrics,
    run_experiment,
    run_round,
)
from .server import aggregate, fedgd_step, precondition_apply, sofim_step, update_momentum
from .task import (
    FeatureDataset,
    QuadraticShard,
    QuadraticTask,
    SoftmaxHeadTask,
    load_frozen_features,
    make_anisotropic_features,
    make_synthetic_quadratic,
    partition_iid,
    save_frozen_features,
)

__version__ = "0.1.0"

