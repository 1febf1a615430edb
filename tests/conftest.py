from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from dirichlet_roots import expected_count_deterministic, experiment_interval, make_spec


@pytest.fixture(scope="session")
def cli_env() -> dict[str, str]:
    """Environment for `python -m dirichlet_roots.cli` subprocesses: this
    checkout's src/ leads PYTHONPATH, so they import the code under test
    also where the package is not installed."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class EkCache:
    """Lazily computed Kac-Rice integrals shared across the session.

    The deterministic quadrature at T = 4000 takes about 0.15 s on one core;
    the acceptance criteria reuse each value several times.
    """

    def __init__(self):
        self._store: dict[tuple[float, int, float], tuple[object, float]] = {}

    def get(self, T: float, k: int = 0, sigma: float = 0.5):
        key = (float(T), int(k), float(sigma))
        if key not in self._store:
            spec = make_spec(T, k, sigma, "cosine")
            t0 = time.perf_counter()
            result = expected_count_deterministic(spec, experiment_interval(spec))
            self._store[key] = (result, time.perf_counter() - t0)
        return self._store[key][0]

    def seconds(self, T: float, k: int = 0, sigma: float = 0.5) -> float:
        self.get(T, k, sigma)
        return self._store[(float(T), int(k), float(sigma))][1]


@pytest.fixture(scope="session")
def ek_cache() -> EkCache:
    return EkCache()
