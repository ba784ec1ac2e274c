"""Shared configuration, deterministic stream derivation, and metrics records.

Everything downstream (clients, server, harness) depends on the types here.
Randomness is derived, never shared: each (master_seed, client, round) triple
maps to its own generator through a fixed 64-bit avalanche mix, so runs are
reproducible bit-for-bit within one numpy version.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 increment and finalizer multipliers (Steele, Lea & Flood's
# constants, fixed here so derived seeds never change between releases).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


class Optimizer(str, Enum):
    SOFIM = "SOFIM"
    FEDGD = "FEDGD"


@dataclass(frozen=True)
class FederatedConfig:
    """Run-level knobs shared by every module.

    sigma_g = 0 means the run is non-private: the Gaussian draw is skipped
    entirely, not sampled with zero variance, so such runs are exactly
    deterministic gradient descent.  batch_size = 0 sums clipped gradients
    over the whole local dataset (the normative behavior); a positive value
    sub-samples that many examples per round, with no amplification credit
    taken by the accountant.
    """

    n: int
    T: int
    eta: float
    clip_cg: float
    sigma_g: float
    beta: float
    rho: float
    master_seed: int = 0
    optimizer: Optimizer = Optimizer.SOFIM
    batch_size: int = 0


def validate_config(raw: FederatedConfig) -> FederatedConfig:
    """Return the config unchanged if every bound holds, else raise ValueError.

    All violations are reported in one message, each naming its field.
    """
    problems = []
    if not isinstance(raw.n, int) or raw.n < 1:
        problems.append("n must be a positive integer")
    if not isinstance(raw.T, int) or raw.T < 1:
        problems.append("T must be a positive integer")
    if not 0 < raw.eta < math.inf:
        problems.append("eta must be positive and finite")
    if not 0 < raw.clip_cg < math.inf:
        problems.append("clip_cg must be positive and finite")
    if not 0 <= raw.sigma_g < math.inf:
        problems.append("sigma_g must be nonnegative and finite")
    if not 0 <= raw.beta < 1:
        problems.append("beta must lie in [0,1)")
    if not 0 < raw.rho < math.inf:
        problems.append("rho must be positive and finite")
    if not isinstance(raw.optimizer, Optimizer):
        problems.append("optimizer must be SOFIM or FEDGD")
    if not isinstance(raw.batch_size, int) or raw.batch_size < 0:
        problems.append("batch_size must be a nonnegative integer")
    if problems:
        raise ValueError("; ".join(problems))
    return raw


@dataclass(frozen=True)
class ServerState:
    """Model parameters plus the momentum buffer.

    ``round`` is the index of the last completed round; a fresh state sits at
    round -1 with an all-zeros momentum buffer.
    """

    theta: np.ndarray
    momentum: np.ndarray
    round: int = -1

    def __post_init__(self):
        if self.theta.shape != self.momentum.shape:
            raise ValueError("theta and momentum must have identical dimension")
        if self.round < -1:
            raise ValueError("round must be >= -1")
        if self.round == -1 and np.any(self.momentum != 0.0):
            raise ValueError("momentum must be all zeros at round -1")

    @classmethod
    def initial(cls, theta0: np.ndarray) -> "ServerState":
        theta0 = np.asarray(theta0, dtype=np.float64)
        return cls(theta=theta0, momentum=np.zeros_like(theta0), round=-1)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    train_loss: float
    test_accuracy: float
    aggregate_grad_norm: float
    suboptimality_gap: Optional[float] = None
    elapsed: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError("test_accuracy must lie in [0,1]")
        if self.aggregate_grad_norm < 0.0:
            raise ValueError("aggregate_grad_norm must be nonnegative")
        if self.suboptimality_gap is not None and self.suboptimality_gap < 0.0:
            raise ValueError("suboptimality_gap must be nonnegative when present")


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: full-avalanche bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@functools.lru_cache(maxsize=4096)
def _client_prefix(master_seed: int, client_id: int) -> int:
    """Mix state after absorbing master_seed and client_id.  Every round of
    a run reuses it, so it is cached."""
    h = _mix64((master_seed & _MASK64) + _GOLDEN)
    return _mix64(h ^ ((client_id + 2 * _GOLDEN) & _MASK64))


def derive_stream_seed(master_seed: int, client_id: int, round_index: int) -> int:
    """Mix (master_seed, client_id, round) into a single 64-bit stream seed.

    The three words are absorbed sequentially, each offset by a multiple of
    the SplitMix64 increment so that swapping client and round cannot
    collide trivially.  Pure function; identical triples give identical
    seeds, distinct triples give distinct seeds for all realistic grids.
    """
    return _mix64(_client_prefix(master_seed, client_id) ^ ((round_index + 3 * _GOLDEN) & _MASK64))


def derive_noise_stream(master_seed: int, client_id: int, round_index: int) -> np.random.Generator:
    """Independent Gaussian stream for one logical (client, round).

    Returns a numpy PCG64 generator; normal draws use numpy's ziggurat
    sampler.  Reproducibility is guaranteed within one numpy implementation,
    not across languages.  Each derived stream must be consumed by exactly
    one client-round.
    """
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master_seed, client_id, round_index)))


# Tags for internal streams that must not collide with client ids in [0, n).
PARTITION_STREAM_TAG = 1 << 32
TASK_STREAM_TAG = (1 << 32) + 1
HOLDOUT_STREAM_TAG = (1 << 32) + 2


# Every FederatedConfig key with its type, in declaration order: the config
# file, the CLI flags and the run header all read their key lists from here.
CONFIG_TYPES = typing.get_type_hints(FederatedConfig)
_REQUIRED_KEYS = tuple(f.name for f in fields(FederatedConfig) if f.default is MISSING)


def parse_config_text(text: str, overrides: Optional[dict] = None) -> FederatedConfig:
    """Parse flat ``key = value`` lines into a validated FederatedConfig.

    Blank lines and ``#`` comments are ignored.  ``overrides`` (e.g. parsed
    CLI flags) replace file values key-by-key before validation.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = val
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = val

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ValueError("missing config keys: " + ", ".join(missing))

    kwargs: dict = {}
    for key, val in values.items():
        caster = CONFIG_TYPES[key]
        if caster is Optimizer:
            try:
                kwargs[key] = Optimizer(str(val).upper())
            except ValueError:
                raise ValueError(f"optimizer must be SOFIM or FEDGD, got {val!r}") from None
        else:
            try:
                kwargs[key] = caster(val)
            except (TypeError, ValueError):
                raise ValueError(f"config key {key!r}: cannot parse {val!r} as {caster.__name__}") from None
    return validate_config(FederatedConfig(**kwargs))


def load_config(path, overrides: Optional[dict] = None) -> FederatedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)


def with_updates(config: FederatedConfig, **changes) -> FederatedConfig:
    """Functional update helper that re-validates the result."""
    return validate_config(replace(config, **changes))
