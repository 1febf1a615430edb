"""Domain types and the deterministic sampling contract.

The model under study is the random cosine/sine series

    S(t) = sum_{n <= T} X_n * w_n * cos(t log n),      w_n = (log n)^k / n^sigma,

with i.i.d. standard normal coefficients X_n.  Everything downstream
(evaluation, Kac-Rice density, Monte Carlo) consumes the two value types
defined here plus the reproducible coefficient sampler.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Part",
    "PolynomialSpec",
    "Interval",
    "CoefficientSample",
    "make_spec",
    "sample_coefficients",
    "mix_seed",
    "experiment_interval",
    "NumericalError",
]

_MASK64 = (1 << 64) - 1
# splitmix64 increment (golden-ratio gamma); fixed so streams are stable.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class Part(str, Enum):
    """Which real part of the complex series is kept."""

    COSINE = "cosine"
    SINE = "sine"


class NumericalError(ValueError):
    """The model is numerically degenerate: spec at t (None: at no single t).

    A ValueError, so callers that catch those keep catching it; the CLI
    reports it with its own exit code, also for a result that is not finite
    (spec None: a payload of one or more specs).
    """

    def __init__(self, message: str, spec: PolynomialSpec | None, t: float | None = None):
        super().__init__(message if t is None else f"{message} at t = {t!r}")
        self.spec = spec
        self.t = t


@dataclass(frozen=True)
class PolynomialSpec:
    """The family (T, k, sigma, part) defining one random polynomial, checked however built."""

    T: float
    k: int = 0
    sigma: float = 0.5
    part: Part = Part.COSINE

    def __post_init__(self) -> None:
        """Validate, and store T and sigma as floats, k as an int, part as a Part."""
        part = Part(self.part)
        if not (self.T > 1.0 and math.isfinite(self.T)):
            raise ValueError(f"T must exceed 1 and be finite, got {self.T}")
        if not (0 <= self.k <= sys.float_info.max and float(self.k).is_integer()):
            raise ValueError(f"derivative order k must be a nonnegative integer that a float "
                             f"can hold, got {self.k}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        for name, value in zip(("T", "k", "sigma", "part"),
                               (float(self.T), int(self.k), float(self.sigma), part)):
            object.__setattr__(self, name, value)

    @property
    def n_terms(self) -> int:
        """Number of coefficients: the sum runs over integers 1..floor(T)."""
        return int(math.floor(self.T))

    @property
    def degenerate(self) -> bool:
        """Identically zero: T < 2 keeps only n = 1, whose term vanishes for sine or k >= 1."""
        return self.T < 2.0 and (self.part is Part.SINE or self.k >= 1)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"interval ends must be finite with lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


def experiment_interval(spec: PolynomialSpec) -> Interval:
    """The default dyadic experiment window [T, 2T]."""
    return Interval(spec.T, 2.0 * spec.T)


@dataclass(frozen=True)
class CoefficientSample:
    """One realization of the Gaussian coefficients, with seed provenance."""

    spec: PolynomialSpec
    master_seed: int
    trial_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


make_spec = PolynomialSpec


def _splitmix64(state: int) -> int:
    """One splitmix64 output step (public-domain constants)."""
    z = (state + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, trial_index: int) -> int:
    """Counter-based stream seed: splitmix64 of the trial counter keyed by master_seed.

    Pure 64-bit function of its arguments, so trial streams do not depend on
    execution order or worker count.  Distinct trial indices under one master
    seed give distinct outputs (splitmix64 is a bijection of the counter).
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    counter = (master_seed + (trial_index + 1) * _GOLDEN_GAMMA) & _MASK64
    return _splitmix64(counter)


def sample_coefficients(spec: PolynomialSpec, master_seed: int,
                        trial_index: int) -> CoefficientSample:
    """Draw the floor(T) standard normal coefficients for one trial.

    Generator: numpy PCG64 seeded with mix_seed(master_seed, trial_index);
    variates via Generator.standard_normal (ziggurat).  Both choices are fixed
    so that a given (master_seed, trial_index) reproduces bit-identical values
    within one build.
    """
    stream_seed = mix_seed(master_seed, trial_index)
    rng = np.random.Generator(np.random.PCG64(stream_seed))
    values = rng.standard_normal(spec.n_terms)
    return CoefficientSample(spec=spec, master_seed=int(master_seed) & _MASK64,
                             trial_index=int(trial_index), values=values)
