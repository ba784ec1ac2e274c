"""Byte-for-byte golden traces: pin run outputs across refactors.

Each case builds a small run from fixed seeds and renders its output as
bytes; the test compares those bytes with the committed file under
``tests/golden/``.  A change that alters any byte must say so and rewrite
the files on purpose with ``python tests/golden/regen.py``.

Streams come from numpy's PCG64 and ziggurat sampler, so the files are
exact only for the numpy version recorded in ``golden/numpy_version.txt``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedsofim.core import FederatedConfig, Optimizer, validate_config
from fedsofim.harness import (
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    QuadraticTaskBinding,
    grid_search,
    run_experiment,
)
from fedsofim.task import make_anisotropic_features, save_frozen_features

GOLDEN_DIR = Path(__file__).parent / "golden"
NUMPY_VERSION_FILE = GOLDEN_DIR / "numpy_version.txt"


def _metrics_bytes(plan: ExperimentPlan, work_dir: Path) -> bytes:
    path = work_dir / "golden.metrics"
    run_experiment(replace(plan, output_path=str(path)))
    return path.read_bytes()


def quadratic_noisy(work_dir: Path) -> bytes:
    """SOFIM on a quadratic with explicit noise; the radius clips early rounds only."""
    config = validate_config(FederatedConfig(
        n=4, T=30, eta=0.2, clip_cg=3.0, sigma_g=0.5, beta=0.9, rho=1.0,
        master_seed=3, optimizer=Optimizer.SOFIM,
    ))
    plan = ExperimentPlan(
        config=config,
        binding=QuadraticTaskBinding(d=6, mu=0.5, L=2.0, heterogeneity=1.0, shard_size=7),
        eval_every=5,
    )
    return _metrics_bytes(plan, work_dir)


def softmax_calibrated(work_dir: Path) -> bytes:
    """SOFIM on a softmax head with sigma_g calibrated to (5, 1e-5)."""
    features = make_anisotropic_features(
        num_examples=400, feature_dim=6, num_classes=3, condition=100.0, separation=1.5, seed=5,
    )
    path = work_dir / "golden.features"
    save_frozen_features(path, features, num_classes=3)
    config = validate_config(FederatedConfig(
        n=4, T=20, eta=0.5, clip_cg=3.0, sigma_g=0.0, beta=0.9, rho=0.5,
        master_seed=7, optimizer=Optimizer.SOFIM,
    ))
    plan = ExperimentPlan(
        config=config, binding=FeatureTaskBinding(train_path=str(path)),
        epsilon=5.0, delta=1e-5, eval_every=5,
    )
    return _metrics_bytes(plan, work_dir)


def grid_2x2(work_dir: Path) -> bytes:
    """A 2x2 (eta, clip_cg) FEDGD sweep over two seeds, calibrated to (5, 1e-5)."""
    config = validate_config(FederatedConfig(
        n=3, T=15, eta=0.1, clip_cg=1.0, sigma_g=0.0, beta=0.9, rho=1.0,
        master_seed=21, optimizer=Optimizer.FEDGD,
    ))
    plan = ExperimentPlan(
        config=config,
        binding=QuadraticTaskBinding(d=5, mu=0.5, L=2.0, heterogeneity=1.0, shard_size=6),
        epsilon=5.0, delta=1e-5, eval_every=5,
    )
    best, sweep = grid_search(plan, GridSpec(etas=(0.1, 0.5), clip_cgs=(0.5, 5.0)), seeds=2)
    best_fields = {"eta": best.eta, "clip_cg": best.clip_cg, "rho": best.rho, "beta": best.beta}
    return (json.dumps({"best": best_fields, "sweep": sweep}, sort_keys=True, indent=1) + "\n").encode()


CASES = {
    "quadratic_noisy.csv": quadratic_noisy,
    "softmax_calibrated.csv": softmax_calibrated,
    "grid_2x2.json": grid_2x2,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_is_byte_identical(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    actual = CASES[name](tmp_path)
    assert actual == expected, (
        f"{name} differs from its golden file; the files were generated with numpy "
        f"{NUMPY_VERSION_FILE.read_text(encoding='utf-8').strip()} and this run uses numpy {np.__version__}. "
        "If the change is intended, rewrite them with `python tests/golden/regen.py`."
    )
