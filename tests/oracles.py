"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately written against the underlying mathematics
(brute-force quadrature, Euler-Maclaurin tail corrections, closed-form pair
sums) and never calls into the package's own evaluation paths, so the tests
compare two genuinely independent routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# Bernoulli numbers B_2, B_4, ... as exact fractions.
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6)]


def _log_power_derivatives(m: int, order: int):
    """Coefficient vectors of d^r/dx^r [(log x)^m / x] for r = 0..order.

    Each derivative is sum_p c[p] (log x)^p / x^(r+1); returns the list of
    coefficient dicts {p: c[p]} (exact integers via Fractions).
    """
    coeffs = [{m: Fraction(1)}]
    for r in range(order):
        cur = coeffs[-1]
        nxt: dict[int, Fraction] = {}
        for p, c in cur.items():
            if p > 0:
                nxt[p - 1] = nxt.get(p - 1, Fraction(0)) + c * p
            nxt[p] = nxt.get(p, Fraction(0)) - c * (r + 1)
        coeffs.append(nxt)
    return coeffs


def em_stieltjes(m: int, cutoff: int = 200_000, bernoulli_terms: int = 6,
                 dps: int = 40) -> mp.mpf:
    """gamma_m = lim_X [sum_{n<=X} (log n)^m / n - (log X)^{m+1}/(m+1)].

    Euler-Maclaurin tail correction at the finite cutoff:
        gamma_m = partial_sum - (log X)^{m+1}/(m+1) - f(X)/2
                  - sum_j B_{2j}/(2j)! f^{(2j-1)}(X) + O(f^{(2J+1)}(X)).
    High-precision mpmath arithmetic; the partial sum is the dominant cost.
    """
    with mp.workdps(dps):
        x = mp.mpf(cutoff)
        lx = mp.log(x)
        partial = mp.fsum((mp.log(n)) ** m / n for n in range(1, cutoff + 1))
        value = partial - lx ** (m + 1) / (m + 1) - lx**m / (2 * x)
        derivs = _log_power_derivatives(m, 2 * bernoulli_terms)
        fact = 1
        for j in range(1, bernoulli_terms + 1):
            fact *= (2 * j) * (2 * j - 1)
            d = derivs[2 * j - 1]
            fval = mp.fsum(mp.mpf(c.numerator) / c.denominator * lx**p
                           for p, c in d.items()) / x ** (2 * j)
            b = _BERNOULLI[j - 1]
            value -= mp.mpf(b.numerator) / b.denominator / fact * fval
        return +value


def reference_quadrature(f, a: float, b: float, n: int = 1_000_000) -> float:
    """Brute-force composite trapezoid reference integral."""
    t = np.linspace(a, b, n + 1)
    y = f(t)
    return float(np.trapezoid(y, t))


def l2_pair_sum(coefficients, T: float) -> float:
    """Closed form of int_0^T |sum a_n n^{it}|^2 dt via the pair sum.

    int_0^T (m/n)^{it} dt = T when m = n, else (e^{iT w} - 1)/(i w) with
    w = log(m/n).  Quadratic cost; fine for N <= ~1000.
    """
    a = np.asarray(coefficients, dtype=np.complex128)
    n = a.shape[0]
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    w = logs[:, None] - logs[None, :]
    off = np.abs(w) > 1e-300
    kern = np.full_like(w, float(T), dtype=np.complex128)
    kern[off] = (np.exp(1j * T * w[off]) - 1.0) / (1j * w[off])
    total = np.einsum("m,n,mn->", a, np.conj(a), kern)
    assert abs(total.imag) < 1e-6 * (1.0 + abs(total.real))
    return float(total.real)


def direct_power_sum(T: float, m: int, two_sigma: float) -> float:
    """sum_{n<=T} (log n)^m / n^{two_sigma}, plain fsum (independent route)."""
    return math.fsum(math.log(n) ** m / n ** two_sigma
                     for n in range(1, int(math.floor(T)) + 1))


def sign_pattern_events(values, zero_tol: float) -> list[tuple[int, bool]]:
    """Root events of a grid sign pattern, one grid value at a time.

    (i, True) is a grid zero at i; (i, False) a sign change between the
    non-zero values at i and i + 1.  A zero resets the running sign, so the
    -, 0, + pattern counts once.
    """
    events, prev_sign, prev_idx = [], 0, -1
    for i, v in enumerate(values):
        if abs(v) < zero_tol:
            events.append((i, True))
            prev_sign = 0
            continue
        sign = 1 if v > 0 else -1
        if prev_sign != 0 and sign != prev_sign:
            events.append((prev_idx, False))
        prev_sign, prev_idx = sign, i
    return events
