"""The benchmark's layer tracer still finds every layer it patches.

``perfbench/tracing.py`` replaces functions by name at every place the
package looks them up; a rename or a move breaks ``--trace 1`` without any
package test noticing.  This loads the tracer by file path and checks that
entering it patches every layer at every lookup site, that a run goes
through the patched layers, and that leaving it puts every original back.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fedsofim import client, core, harness
from fedsofim.core import FederatedConfig, Optimizer, validate_config
from fedsofim.task import make_synthetic_quadratic

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_layer_tracer_patches_every_layer_and_restores_it():
    tracing = load_tracing()
    layers = [(name, owner, attr, vars(owner)[attr])
              for name, owners, attr, _ in tracing.LAYERS for owner in owners]
    originals = [original for *_, original in layers]
    before = module_bindings()
    config = validate_config(FederatedConfig(
        n=2, T=3, eta=0.2, clip_cg=1.0, sigma_g=0.0, beta=0.9, rho=1.0,
        master_seed=0, optimizer=Optimizer.SOFIM,
    ))
    plan = harness.ExperimentPlan(config=config, binding=harness.QuadraticTaskBinding(d=3, mu=0.5, L=2.0),
                                  epsilon=5.0, delta=1e-5, eval_every=1)

    with tracing.LayerTracer() as tracer:
        for name, owner, attr, original in layers:
            assert vars(owner)[attr].__wrapped__ is original, name
        for module_name, bindings in before.items():
            for key, value in bindings.items():
                if any(value is original for original in originals):
                    assert vars(sys.modules[module_name])[key] is not value, f"{module_name}.{key}"
        harness.run_experiment(plan)
        # A round releases every client in one call, so runs reach neither
        # layer; the NOISE_FLOOR shape, one stream and one shard a release,
        # still goes through both.
        task, shards = make_synthetic_quadratic(d=3, n=1, mu=0.5, L=2.0, heterogeneity=1.0, seed=0)
        client.private_release(shards[0], np.zeros(3), 1.0, 2.0, 1, core.derive_noise_stream(0, 0, 0), task)

    # Both tasks clip through clipped_sums, so no run builds per-example
    # gradients; that layer is checked above for its patch and below for
    # its restore only.
    for layer in ("core.derive_noise_stream", "client.private_release", "client.clip_rows",
                  "server.aggregate", "server.sofim_step", "accountant.calibrate_sigma",
                  "harness.build_bundle", "harness.evaluate", "harness.run_experiment"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.calls["harness.run_round"] == config.T
    for name, owner, attr, original in layers:
        assert vars(owner)[attr] is original, name
    for module_name, bindings in before.items():
        after = vars(sys.modules[module_name])
        assert all(after[key] is value for key, value in bindings.items()), module_name
