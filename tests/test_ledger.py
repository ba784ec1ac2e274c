"""The mechanism a run implements, against what the accountant assumes of it.

The accountant (``composed_delta``, mu = 2 sqrt(nT) / sigma) assumes that a
client's release moves by at most 2 c_g / |B| when one record is replaced,
and that its noise has std c_g sigma / (sqrt(n) |B|).  The ledger reads a
run's iterates from ``rounds`` on a dataset D and, at each, releases client
0's update on D and on its neighbour D', where client 0's first record is a
canary, from copies of the same stream: the noise cancels and leaves the
release's own sensitivity, which must stay inside what the accountant spends.
"""

import math

import numpy as np
import pytest

from fedsofim.accountant import calibrate_sigma, composed_delta
from fedsofim.client import release_round
from fedsofim.core import FederatedConfig, Optimizer, derive_noise_stream
from fedsofim.harness import TaskBundle, rounds
from fedsofim.task import FeatureDataset, SoftmaxHeadTask, make_anisotropic_features

EPSILON, DELTA, N, T, ROWS, C_G, SEED = 2.0, 1e-5, 20, 70, 400, 1.0, 7


def neighbours():
    """(task, D as a run's bundle, client 0's one-shard stacks on D and on D'):
    D' replaces client 0's first record with the canary 50 e_1 and another label."""
    data = make_anisotropic_features(N * ROWS, 16, 4, condition=1e3, separation=1.5, seed=41)
    task = SoftmaxHeadTask(num_classes=4, feature_dim=16)
    shards = [FeatureDataset(data.features[i * ROWS:(i + 1) * ROWS], data.labels[i * ROWS:(i + 1) * ROWS])
              for i in range(N)]
    features, labels = shards[0].features.copy(), shards[0].labels.copy()
    features[0] = 0.0
    features[0, 0] = 50.0
    labels[0] = (labels[0] + 1) % 4
    neighbour = task.stack((FeatureDataset(features, labels),))
    return task, TaskBundle(task=task, train=task.stack(shards)), task.stack(shards[:1]), neighbour


@pytest.mark.parametrize("optimizer", Optimizer)
def test_each_rounds_sensitivity_stays_inside_what_the_accountant_spends(optimizer):
    task, bundle, client, neighbour = neighbours()
    sigma = calibrate_sigma(EPSILON, DELTA, N, T)
    config = FederatedConfig(n=N, T=T, eta=0.2, clip_cg=C_G, sigma_g=sigma, beta=0.9, rho=0.2,
                             master_seed=SEED, optimizer=optimizer)
    eps = np.finfo(np.float64).eps
    # The bound the accountant takes, 2 c_g / |B|, in the release's noise
    # std s = c_g sigma / (sqrt(n) |B|): 2 sqrt(n) / sigma per round.
    bound, s = 2.0 * C_G / ROWS, C_G * sigma / (math.sqrt(N) * ROWS)
    ratios = []
    theta = np.zeros(task.dim)
    for t, state, _ in rounds(bundle, config, theta):
        release, moved = (release_round(stack, theta, C_G, sigma, N, (derive_noise_stream(SEED, 0, t),), task)[0]
                          for stack in (client, neighbour))
        # Each clipped sum of |B| rows of norm <= c_g is off by at most
        # |B| eps |B| c_g, and adding the noise and dividing by |B| round each
        # release by 2 eps of its norm.
        allowance = 2.0 * eps * (ROWS * C_G + np.linalg.norm(release) + np.linalg.norm(moved))
        delta_t = float(np.linalg.norm(release - moved))
        assert 0.0 < delta_t <= bound + allowance, t
        ratios.append(delta_t / s)
        theta = state.theta
    assert np.isfinite(theta).all() and len(ratios) == T
    # The releases at theta_0 .. theta_{T-1}, each at most 2 sqrt(n) / sigma
    # in noise units, compose to at most mu = 2 sqrt(nT) / sigma.
    assert max(ratios) <= 2.0 * math.sqrt(N) / sigma
    assert math.sqrt(math.fsum(r * r for r in ratios)) <= 2.0 * math.sqrt(N * T) / sigma
    assert composed_delta(EPSILON, sigma, N, T) <= DELTA
