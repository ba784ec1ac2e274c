"""Shared configuration, deterministic stream derivation, and metrics records.

Everything downstream (clients, server, harness) depends on the types here.
Randomness is derived, never shared: each (master_seed, client, round) triple
maps to its own generator through a fixed 64-bit avalanche mix, so runs are
reproducible bit-for-bit within one numpy version.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import MISSING, dataclass, fields
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
    taken by the accountant.  Each build, replace included, runs validate_config.
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

    def __post_init__(self):
        validate_config(self)


def count_problem(name: str, value, low: int = 1, high: Optional[int] = None) -> Optional[str]:
    """The rule for every count, size and seed: an int, not a bool, in [low, high]
    (no upper bound when high is None).  Returns what is wrong, naming it, or None."""
    if not isinstance(value, int) or isinstance(value, bool):
        return f"{name} must be an integer"
    if value < low or (high is not None and value > high):
        return f"{name} must be >= {low}" + ("" if high is None else f" and <= {high}")
    return None


def raise_problems(*problems: Optional[str]) -> None:
    """Raise one ValueError naming, in order, every problem given that is not
    None: the one form a refused setting takes."""
    if problems := [problem for problem in problems if problem]:
        raise ValueError("; ".join(problems))


def real_problem(name: str, value, low: float, high: float, closed: str) -> Optional[str]:
    """The rule for every real-valued setting: a real number, not a bool, in the interval
    from low to high, each end closed where ``closed`` has a square bracket ("[)" is
    [low, high)), so nan lies in none.  Returns what is wrong, naming it, or None."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return f"{name} must be a real number"
    above = value >= low if closed[0] == "[" else value > low
    below = value <= high if closed[1] == "]" else value < high
    return None if above and below else f"{name} must lie in {closed[0]}{low:g}, {high:g}{closed[1]}"


def validate_config(raw: FederatedConfig) -> FederatedConfig:
    """Return the config unchanged if every bound holds, else raise ValueError.

    All violations are reported in one message, each naming its field.
    """
    raise_problems(
        count_problem("n", raw.n),
        count_problem("T", raw.T),
        real_problem("eta", raw.eta, 0, math.inf, "()"),
        real_problem("clip_cg", raw.clip_cg, 0, math.inf, "()"),
        real_problem("sigma_g", raw.sigma_g, 0, math.inf, "[)"),
        real_problem("beta", raw.beta, 0, 1, "[)"),
        real_problem("rho", raw.rho, 0, math.inf, "()"),
        # Streams reduce the seed mod 2**64: one outside [0, 2**64) would repeat another seed's run.
        count_problem("master_seed", raw.master_seed, 0, _MASK64),
        None if isinstance(raw.optimizer, Optimizer) else "optimizer must be SOFIM or FEDGD",
        count_problem("batch_size", raw.batch_size, 0),
    )
    return raw


@dataclass(frozen=True)
class ServerState:
    """The iterate theta and the momentum buffer m that the preconditioner
    rho I + m m' is built from; the round loop's index owns the round number."""

    theta: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        if self.theta.shape != self.momentum.shape:
            raise ValueError("theta and momentum must have identical dimension")

    @classmethod
    def initial(cls, theta0: np.ndarray) -> "ServerState":
        """A fresh state at theta0 with an all-zeros momentum buffer."""
        theta0 = np.asarray(theta0, dtype=np.float64)
        return cls(theta=theta0, momentum=np.zeros_like(theta0))


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

    This is the definition.  ``derive_noise_streams`` is its batched form
    for many rounds at once and gives generators with the same bits.
    """
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master_seed, client_id, round_index)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), copied so
# that many seeds can be hashed at once.  tests/test_core.py checks the
# result against SeedSequence itself, so a numpy that changes them fails there.
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = 0xCA01F9DD
_SS_MIX_MULT_R = 0x4973F715
_SS_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1

# Streams seeded per block of ``derive_noise_streams``; bounds its memory.
_STREAM_BLOCK = 4096


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` over a uint64 array (uint64 products wrap mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _hash_steps(const: int, mult: int):
    """Successive (constant, next constant) pairs of a SeedSequence hash:
    the constant is multiplied by ``mult`` at every use."""
    while True:
        after = (const * mult) & _MASK32
        yield const, after
        const = after


def _hashmix(value: np.ndarray, before: int, after: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` on a uint32 array: xor with the constant
    as it stands, multiply by its next value, fold the high half down."""
    value = (value ^ np.uint32(before)) * np.uint32(after)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` on uint32 arrays."""
    result = x * np.uint32(_SS_MIX_MULT_L) - y * np.uint32(_SS_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for each
    64-bit seed ``s`` in ``seeds``, as a uint64 array of shape
    ``seeds.shape + (4,)``.

    An integer seed enters the pool as its little-endian uint32 words, one
    word below 2^32 and two above; the missing words hash like zeros, so
    every 64-bit seed can be treated as [low, high, 0, 0].
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [
        (seeds & np.uint64(_MASK32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        np.zeros(seeds.shape, np.uint32),
        np.zeros(seeds.shape, np.uint32),
    ]
    steps = _hash_steps(_SS_INIT_A, _SS_MULT_A)
    pool = [_hashmix(word, *next(steps)) for word in entropy]
    for i_src in range(_SS_POOL_SIZE):
        for i_dst in range(_SS_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], *next(steps)))
    steps = _hash_steps(_SS_INIT_B, _SS_MULT_B)
    halves = [_hashmix(pool[k % _SS_POOL_SIZE], *next(steps)).astype(np.uint64) for k in range(8)]
    return np.stack([halves[2 * j] | (halves[2 * j + 1] << np.uint64(32)) for j in range(4)], axis=-1)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Precomputed ``generate_state(4, np.uint64)`` of one SeedSequence: the
    one request PCG64's constructor makes of its seed."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def derive_noise_streams(master_seed: int, n_clients: int, rounds: int):
    """An iterator over rounds 0 .. rounds-1 yielding, for each, the list of
    ``n_clients`` generators that ``derive_noise_stream(master_seed, client,
    round)`` gives, with the same bits; the counts are checked at the call.

    Stream seeds and their SeedSequence words are computed for a block of
    rounds at a time in numpy; each generator is still built fresh by
    PCG64's own seeding, so each stream serves exactly one client-round.
    """
    raise_problems(count_problem("n_clients", n_clients) or count_problem("rounds", rounds, 0))
    return _stream_blocks(master_seed, n_clients, rounds)


def _stream_blocks(master_seed: int, n_clients: int, rounds: int):
    prefixes = np.array([_client_prefix(master_seed, c) for c in range(n_clients)], dtype=np.uint64)
    block = max(1, _STREAM_BLOCK // n_clients)
    for start in range(0, rounds, block):
        offsets = np.arange(start, min(start + block, rounds), dtype=np.uint64) + np.uint64(3 * _GOLDEN & _MASK64)
        seeds = _mix64_array(offsets[:, None] ^ prefixes[None, :])
        words = _seed_sequence_words(seeds)
        for row in words:
            yield [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in row]


# Tags for internal streams that must not collide with client ids in [0, n).
PARTITION_STREAM_TAG = 1 << 32
TASK_STREAM_TAG = (1 << 32) + 1
HOLDOUT_STREAM_TAG = (1 << 32) + 2


# Every FederatedConfig key with its type, in declaration order: the config
# file, the CLI flags and the run header all read their key lists from here.
CONFIG_TYPES = typing.get_type_hints(FederatedConfig)
_REQUIRED_KEYS = tuple(f.name for f in fields(FederatedConfig) if f.default is MISSING)


def parse_config_text(text: str, overrides: Optional[dict] = None) -> FederatedConfig:
    """Parse flat ``key = value`` lines into a FederatedConfig, which checks itself.

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
    return FederatedConfig(**kwargs)


def load_config(path, overrides: Optional[dict] = None) -> FederatedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)

