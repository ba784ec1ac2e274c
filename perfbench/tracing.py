"""Per-layer spans around fedsofim's public functions, recorded from outside.

Each traced function is replaced, for the duration of a traced phase, at
every place a caller looks it up: module-level functions in every
``fedsofim`` module that binds them (``harness`` imports ``private_release``,
``aggregate``, ``sofim_step`` ... as its own globals, so patching the defining
module alone would miss them), and methods on their classes.

A layer's self time is its span minus the spans of traced calls made inside
it.  The wrapper's own bookkeeping is timed separately (``tracer_s``), so it
is charged to no layer.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

import numpy as np

from fedsofim import accountant, client, core, harness, server, task


def _gradient_bytes(args, kwargs, result):
    rows, cols = result.shape
    return {"task.per_example_gradients.bytes": rows * cols * 8}


def _file_bytes(args, kwargs, result):
    return {"task.load_frozen_features.bytes": os.path.getsize(args[0])}


def _clip_counts(args, kwargs, result):
    # Squared norms cost half of np.linalg.norm; a row exactly on the radius
    # may be counted differently from clip_rows's own test.
    grads, c_g = np.asarray(args[0]), args[1]
    return {
        "client.clip_rows.rows": grads.shape[0],
        "client.clip_rows.rows_scaled": int(np.count_nonzero(np.einsum("ij,ij->i", grads, grads) > c_g * c_g)),
    }


def _diverged(args, kwargs, result):
    return {"harness.diverged_runs": 0 if math.isfinite(result.final_loss()) else 1}


# (layer name, where it is defined, attribute, extra counters or None).  A
# class owner means the layer is a method and is patched on that class.
LAYERS = (
    ("core.derive_noise_stream", (core,), "derive_noise_stream", None),
    ("task.per_example_gradients", (task.SoftmaxHeadTask, task.QuadraticTask), "per_example_gradients",
     _gradient_bytes),
    ("task.loss_and_accuracy", (task.SoftmaxHeadTask, task.QuadraticTask), "loss_and_accuracy", None),
    ("task.load_frozen_features", (task,), "load_frozen_features", _file_bytes),
    ("client.private_release", (client,), "private_release", None),
    ("client.clip_rows", (client,), "clip_rows", _clip_counts),
    ("server.aggregate", (server,), "aggregate", None),
    ("server.sofim_step", (server,), "sofim_step", None),
    ("server.fedgd_step", (server,), "fedgd_step", None),
    ("accountant.calibrate_sigma", (accountant,), "calibrate_sigma", None),
    ("harness.build_bundle", (harness,), "build_bundle", None),
    ("harness.evaluate", (harness.TaskBundle,), "evaluate", None),
    ("harness.run_round", (harness,), "run_round", None),
    ("harness.run_experiment", (harness,), "run_experiment", _diverged),
)

COUNTER_UNITS = {
    "task.per_example_gradients.bytes": "B",
    "task.load_frozen_features.bytes": "B",
    "client.clip_rows.rows": "count",
    "client.clip_rows.rows_scaled": "count",
    "harness.diverged_runs": "count",
}


def _fedsofim_modules():
    return [m for name, m in sys.modules.items() if name == "fedsofim" or name.startswith("fedsofim.")]


class LayerTracer:
    """Context manager that traces every layer in LAYERS while active."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in LAYERS}
        self.self_s = {name: 0.0 for name, *_ in LAYERS}
        self.counters = dict.fromkeys(COUNTER_UNITS, 0)
        self.tracer_s = 0.0
        self._stack = [0.0]
        self._patches = []

    def _wrap(self, name, fn, extra):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.calls[name] += 1
                self.self_s[name] += end - start - stack.pop()
            if extra is not None:
                for key, amount in extra(args, kwargs, result).items():
                    self.counters[key] += amount
            leave = time.perf_counter()
            stack[-1] += leave - enter
            self.tracer_s += (leave - enter) - (end - start)
            return result

        return traced

    def pause(self, seconds: float) -> None:
        """Charge ``seconds`` spent outside the program (the host clock's
        calibration) to no layer: it counts as a child of the open span."""
        self._stack[-1] += seconds

    def __enter__(self):
        modules = _fedsofim_modules()
        for name, owners, attr, extra in LAYERS:
            for owner in owners:
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, extra)
                sites = [owner] if isinstance(owner, type) else [m for m in modules if vars(m).get(attr) is original]
                for site in sites:
                    self._patches.append((site, attr, original))
                    setattr(site, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()
        return False

    def metrics(self, traced_s: float, untraced_op_s: float, traced_op_s: float) -> dict:
        """Per-layer metrics for a traced phase whose operations took traced_s.

        ``.self_s`` is the mean self time per call, so calls x self_s summed
        over layers is the attributed time.  unattributed_frac is the share
        of traced_s that is neither in a layer nor in the tracer itself.
        """
        out = {}
        for name, *_ in LAYERS:
            calls = self.calls[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / calls if calls else 0.0, "s")
        for key, unit in COUNTER_UNITS.items():
            out[key] = (self.counters[key], unit)
        attributed = sum(self.self_s.values())
        out["trace.unattributed_frac"] = ((traced_s - attributed - self.tracer_s) / traced_s, "frac")
        out["trace.overhead_frac"] = (traced_op_s / untraced_op_s - 1.0, "frac")
        return out
