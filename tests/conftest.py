"""Shared fixtures for the test suite.

The numerical verification suites are the most expensive things in the
session, and several tests (behavioural checks and the acceptance gate)
need the same report.  ``suite_runner`` runs each named suite at most once
per session and caches (report, wall_seconds); the first caller pays the
cost and also observes the honest wall time.
"""

import os
import time
from pathlib import Path

import pytest

from fedsofim import verify


def child_env():
    """The environment with the imported package's ``src`` directory first on
    PYTHONPATH: pytest's own path setting does not reach a subprocess."""
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class SuiteRunner:
    """Session-level cache of verification-suite reports keyed by name."""

    def __init__(self):
        self._cache = {}

    def run(self, name, seed=0):
        key = (name, seed)
        if key not in self._cache:
            start = time.perf_counter()
            report = verify.verify_theory(name, seed=seed)
            self._cache[key] = (report, time.perf_counter() - start)
        return self._cache[key]


@pytest.fixture(scope="session")
def suite_runner():
    return SuiteRunner()
