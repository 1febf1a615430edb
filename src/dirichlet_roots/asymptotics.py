"""Closed-form predictions for the expected zero counts and their constants.

The two-term asymptotic for the expected number of zeros of the k-th
derivative model on [T, 2T] is

    (1/pi) sqrt((2k+1)/(2k+3)) T log T
        - ((g_{2k} + s_k)/(2 pi)) sqrt((2k+1)^3/(2k+3)) T / (log T)^{2k}

where g_m denotes the m-th generalized Euler (Stieltjes-type) constant, the
limit of sum_{n<=X} (log n)^m / n - (log X)^{m+1}/(m+1), and s_k is the
n = 1 term's share: s_0 = +1 for the cosine part and -1 for the sine part,
s_k = 0 for k >= 1.  The term follows the model as implemented, n = 1
included.  For k = 0 the n = 1 term of P_0(2t) = sum_n w_n^2 cos(2t log n)
is the constant w_1^2 = 1, so the density's covariance B = (M_0 +- P_0)/2
averages to (M_0 + 1)/2 for cosine (cos 0 = 1) and (M_0 - 1)/2 for sine
(sin^2 0 = 0), while A has no n = 1 term (log 1 = 0).  With M_0 = L + g_0
and M_2 = L^3/3 + O(1), L = log T, sqrt(M_2 / (M_0 +- 1)) =
(L / sqrt 3)(1 - (g_0 +- 1)/(2L) + O(L^-2)), which gives the T-order term
-(g_0 +- 1) T / (2 pi sqrt 3).  For k >= 1, w_1 = (log 1)^k = 0.  The
constants are embedded as a table computed once by a validated
Euler-Maclaurin oracle (the test suite re-derives them independently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Part
from .dirichlet_eval import log_moment_sum

__all__ = [
    "AsymptoticPrediction",
    "stieltjes_constant",
    "stieltjes_table",
    "predict_expected_zeros",
    "zeta_zero_count",
    "model_vs_zeta_ratio",
    "stieltjes_sum_check",
    "MAX_STIELTJES_INDEX",
]

# gamma_0..gamma_16, Euler-Maclaurin oracle values (cutoff 5e4, 6 Bernoulli
# terms, 40-digit arithmetic), cross-checked against an independent
# zeta-Laurent-series computation to < 1e-17.
_STIELTJES = (
    0.57721566490153286,
    -0.072815845483676725,
    -0.0096903631928723185,
    0.0020538344203033459,
    0.0023253700654673001,
    0.00079332381730106270,
    -0.00023876934543019961,
    -0.00052728956705775105,
    -0.00035212335380303951,
    -0.000034394774418088048,
    0.00020533281490906479,
    0.00027018443954390353,
    0.00016727291210514019,
    -0.000027463806603760159,
    -0.00020920926205929995,
    -0.00028346865532024145,
    -0.00019969685830896977,
)

MAX_STIELTJES_INDEX = len(_STIELTJES) - 1

_TWO_PI = 2.0 * math.pi


def stieltjes_constant(m: int) -> float:
    """m-th generalized Euler constant; m = 0 is the Euler-Mascheroni constant."""
    if not (0 <= m <= MAX_STIELTJES_INDEX):
        raise ValueError(f"stieltjes_constant supports 0 <= m <= {MAX_STIELTJES_INDEX}, got {m}")
    return _STIELTJES[m]


def stieltjes_table(max_index: int = MAX_STIELTJES_INDEX) -> tuple[float, ...]:
    """The constants gamma_0..gamma_max_index as an immutable table."""
    if not (0 <= max_index <= MAX_STIELTJES_INDEX):
        raise ValueError(f"max_index must be in [0, {MAX_STIELTJES_INDEX}]")
    return _STIELTJES[: max_index + 1]


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Two explicit terms of the expected-zero asymptotic plus the error scale."""

    main_term: float
    second_term: float
    total: float
    error_scale: float
    k: int


def predict_expected_zeros(T: float, k: int = 0,
                           part: Part | str = Part.COSINE) -> AsymptoticPrediction:
    """Two-term prediction for the expected zero count of the part on [T, 2T].

    At k = 0 the second term carries the n = 1 constant (module docstring).
    """
    if T < 2:
        raise ValueError("prediction requires T >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    part = Part(part)
    L = math.log(T)
    k1, k3 = 2 * k + 1, 2 * k + 3
    main = math.sqrt(k1 / k3) / math.pi * T * L
    g = stieltjes_constant(2 * k)
    if k == 0:
        g += 1.0 if part is Part.COSINE else -1.0  # the n = 1 constant w_1^2 = 1
    second = -g / _TWO_PI * math.sqrt(k1**3 / k3) * T / L ** (2 * k)
    return AsymptoticPrediction(main_term=main, second_term=second,
                                total=main + second,
                                error_scale=T / L ** (2 * k + 1), k=k)


def zeta_zero_count(T: float) -> float:
    """Main-term count of zeta zeros in the critical strip up to height T.

    Returns (T/2pi) log(T/2pi) - T/2pi with the O(log T) error omitted;
    deliberately unmodified even where it goes negative (tiny T), so callers
    gate on T >= 100 when they need a meaningful count.
    """
    if T < 2:
        raise ValueError("zeta_zero_count requires T >= 2")
    x = T / _TWO_PI
    return x * math.log(x) - x


def model_vs_zeta_ratio(T: float, ek_value: float) -> float:
    """Expected-zero count relative to the zeta-zero count growth over [T, 2T].

    The denominator is the increment of the leading term (T/2pi) log(T/2pi)
    between T and 2T.  With the two-term cosine k = 0 prediction as the
    count, using only the leading term makes the ratio approach its
    2/sqrt(3) limit from below at about 0.35/log T; including the linear
    term as well would shift the denominator by T/2pi and put the ratio
    about 0.75/log T above the limit.
    """
    if T < 100:
        raise ValueError("ratio is gated on T >= 100")
    x, x2 = T / _TWO_PI, 2.0 * T / _TWO_PI
    denom = x2 * math.log(x2) - x * math.log(x)
    return ek_value / denom


def stieltjes_sum_check(T: float, m: int) -> float:
    """Residual of the log-power harmonic sum against its two-term expansion.

    residual = sum_{n<=T} (log n)^m / n - (log T)^{m+1}/(m+1) - gamma_m,
    expected to be O((log T)^m / T).
    """
    if T < 2:
        raise ValueError("stieltjes_sum_check requires T >= 2")
    L = math.log(T)
    return log_moment_sum(T, m, 0.5) - L ** (m + 1) / (m + 1) - stieltjes_constant(m)
