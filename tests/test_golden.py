"""Byte-for-byte golden traces: pin run outputs across refactors.

Each case builds a small run from fixed seeds and renders its output as
bytes; the test compares those bytes with the committed file under
``tests/golden/``.  A change that alters any byte must say so and rewrite
the files on purpose with ``python tests/golden/regen.py``.

Streams come from numpy's PCG64 and ziggurat sampler, so the files are
exact only for the numpy version recorded in ``golden/numpy_version.txt``.
"""

import importlib.util
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
from fedsofim.task import FeatureDataset, make_anisotropic_features, save_frozen_features

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


def softmax_minibatch_wide(work_dir: Path) -> bytes:
    """SOFIM on a 10-class softmax head with explicit noise and mini-batches
    smaller than every shard, so each round releases from a cut stack."""
    features = make_anisotropic_features(
        num_examples=301, feature_dim=5, num_classes=10, condition=30.0, separation=2.0, seed=11,
    )
    path = work_dir / "golden.features"
    save_frozen_features(path, features, num_classes=10)
    config = validate_config(FederatedConfig(
        n=3, T=12, eta=0.5, clip_cg=2.0, sigma_g=0.3, beta=0.9, rho=0.5,
        master_seed=13, optimizer=Optimizer.SOFIM, batch_size=40,
    ))
    plan = ExperimentPlan(config=config, binding=FeatureTaskBinding(train_path=str(path)), eval_every=4)
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


def features_small(work_dir: Path) -> bytes:
    """The bytes save_frozen_features writes for a small crafted dataset:
    a signed zero, the smallest subnormal, values on either side of repr's
    switch to exponent form, and every label up to classes - 1."""
    features = np.array([
        [-0.0, 5e-324, 1e16, 0.5],
        [1e-7, 0.1, 123456789.0, -2.0],
        [1e-5, 1e15, 2.0 / 3.0, 0.0],
        [-1.7976931348623157e308, 1e-4, 9007199254740993.0, 3.0],
    ])
    path = work_dir / "small.features"
    save_frozen_features(path, FeatureDataset(features, np.array([0, 2, 3, 1])), num_classes=4)
    return path.read_bytes()


CASES = {
    "features_small.features": features_small,
    "quadratic_noisy.csv": quadratic_noisy,
    "softmax_calibrated.csv": softmax_calibrated,
    "softmax_minibatch_wide.csv": softmax_minibatch_wide,
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


def test_regen_reports_how_far_a_changed_file_moved():
    spec = importlib.util.spec_from_file_location("regen", GOLDEN_DIR / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    old = b"round,loss,gap\n5,2.0,\n10,1.0,1e-05\n"
    assert regen.moved(old, old) == "(0 of 3 cells, max rel 0)"
    assert regen.moved(old, b"round,loss,gap\n5,2.0,\n10,1.5,1e-05\n") == "(1 of 3 cells, max rel 0.33)"
    assert regen.moved(old, b"round,loss,gap\n5,2.0,\n10,1.0,inf\n") == "(1 of 3 cells, max rel inf)"
    assert regen.moved(old, b"round,loss,gap\n5,2.0,\n15,1.0,1e-05\n") == "(its text outside the float cells changed)"
