"""The benchmark's layer tracer still finds every layer it patches.

``perfbench/tracing.py`` replaces functions by name at every place the
package looks them up; a rename or a move breaks ``--trace 1`` without any
package test noticing.  This loads the tracer by file path and checks that
entering it patches every layer at every lookup site, that every layer
wrapping a package function a run reaches records calls, and that leaving
it puts every original back.  The expectations name functions, not layers,
so a layer may be renamed without editing this test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fedsofim import accountant, client, core, harness, server, task
from fedsofim.core import FederatedConfig, Optimizer, validate_config
from fedsofim.task import make_anisotropic_features, make_synthetic_quadratic, save_frozen_features

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The package functions the traced phase below reaches, as (owner,
# attribute).  Every layer that wraps one of them must record calls, so the
# expectations follow the functions, not the layers' names.
REACHED = (
    (core, "derive_noise_stream"), (core, "derive_noise_streams"),
    (client, "private_release"), (client, "release_round"), (client, "clip_rows"),
    (task.SoftmaxHeadTask, "clipped_sums"),
    (server, "aggregate"), (server, "sofim_step"), (accountant, "calibrate_sigma"),
    (harness, "build_bundle"), (harness.TaskBundle, "evaluate"), (harness, "run_experiment"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_bindings():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "fedsofim" or name.startswith("fedsofim.")
    }


def test_layer_tracer_patches_every_layer_and_restores_it(tmp_path):
    tracing = load_tracing()
    layers = [(name, owner, attr, vars(owner)[attr])
              for name, owners, attr, _ in tracing.LAYERS for owner in owners]
    originals = [original for *_, original in layers]
    before = module_bindings()
    config = validate_config(FederatedConfig(
        n=2, T=3, eta=0.2, clip_cg=1.0, sigma_g=0.0, beta=0.9, rho=1.0,
        master_seed=0, optimizer=Optimizer.SOFIM,
    ))
    features = tmp_path / "train.features"
    save_frozen_features(features, make_anisotropic_features(40, 3, 2, condition=4.0, separation=1.0, seed=0), 2)
    plans = [harness.ExperimentPlan(config=config, binding=binding, epsilon=5.0, delta=1e-5, eval_every=1)
             for binding in (harness.QuadraticTaskBinding(d=3, mu=0.5, L=2.0),
                             harness.FeatureTaskBinding(train_path=str(features)))]

    with tracing.LayerTracer() as tracer:
        for name, owner, attr, original in layers:
            assert vars(owner)[attr].__wrapped__ is original, name
        for module_name, bindings in before.items():
            for key, value in bindings.items():
                if any(value is original for original in originals):
                    assert vars(sys.modules[module_name])[key] is not value, f"{module_name}.{key}"
        for plan in plans:
            harness.run_experiment(plan)
        # A round releases every client in one call, so runs reach neither
        # derive_noise_stream nor private_release; the NOISE_FLOOR shape, one
        # stream and one shard a release, still goes through both.
        quadratic, shards = make_synthetic_quadratic(d=3, n=1, mu=0.5, L=2.0, heterogeneity=1.0, seed=0)
        client.private_release(shards[0], np.zeros(3), 1.0, 2.0, 1, core.derive_noise_stream(0, 0, 0), quadratic)

    # Both tasks clip through clipped_sums, so no run builds per-example
    # gradients; a layer that wraps them is checked above for its patch and
    # below for its restore only.
    wrapping = {(owner, attr): name for name, owner, attr, _ in layers}
    for owner, attr in REACHED:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
        if (owner, attr) in wrapping:
            assert tracer.calls[wrapping[owner, attr]] > 0, wrapping[owner, attr]
    if (harness, "run_round") in wrapping:
        assert tracer.calls[wrapping[harness, "run_round"]] == len(plans) * config.T
    for name, owner, attr, original in layers:
        assert vars(owner)[attr] is original, name
    for module_name, bindings in before.items():
        after = vars(sys.modules[module_name])
        assert all(after[key] is value for key, value in bindings.items()), module_name
