"""Mixing and Levy measures: Gamma reversion-rate measure and tempered stable jumps.

The Gamma measure pi(dr) ~ r^(alpha-1) exp(-r/beta) dr supplies the spectrum of
reversion rates; its distribution function and quantiles are the regularized
incomplete gamma function and its inverse (scipy.special.gammainc and
gammaincinv), scaled by beta. The tempered stable measure
nu(dz) = exp(-c2 z) z^(-(1+c1)) dz drives the jumps; its moments have the
closed form M_k = Gamma(k - c1) * c2^(c1 - k), and its tails above a
truncation level follow from the upper incomplete gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gammainc, gammaincc, gammaincinv

__all__ = [
    "GammaMixingMeasure",
    "TemperedStableLevy",
    "inv_mean",
    "pi_quantile",
    "levy_moment",
    "reg_lower_gamma",
    "reg_upper_gamma",
]


def _check_gamma_args(a: float, x: float) -> None:
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    _check_gamma_args(a, x)
    return float(gammainc(a, x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    return float(gammaincc(a, x))


@dataclass(frozen=True)
class GammaMixingMeasure:
    """Gamma probability measure of reversion rates, shape alpha > 1, scale beta > 0.

    alpha > 1 is required so that the inverse first moment
    R = 1 / (beta * (alpha - 1)) is finite.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")

    def cdf(self, r: float) -> float:
        """Cumulative probability of the reversion rate up to r."""
        if r <= 0.0:
            return 0.0
        return float(gammainc(self.alpha, r / self.beta))

    def pdf(self, r: float) -> float:
        """Density of the reversion rate at r > 0."""
        if r <= 0.0:
            return 0.0
        a, b = self.alpha, self.beta
        return math.exp((a - 1.0) * math.log(r) - r / b - a * math.log(b) - math.lgamma(a))


def inv_mean(pi: GammaMixingMeasure) -> float:
    """Inverse first moment R = integral of 1/r against pi = 1/(beta*(alpha-1))."""
    return 1.0 / (pi.beta * (pi.alpha - 1.0))


def pi_quantile(pi: GammaMixingMeasure, p: float | np.ndarray) -> float | np.ndarray:
    """Quantile of the Gamma mixing measure: theta with cdf(theta) = p.

    p is a probability or an array of them; the result is beta times the
    inverse regularized lower incomplete gamma function of p, a float for a
    scalar p and an array otherwise. p = 0 maps to 0 and p = 1 maps to +inf.
    """
    probs = np.asarray(p, dtype=float)
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    theta = pi.beta * gammaincinv(pi.alpha, probs)
    return float(theta) if theta.ndim == 0 else theta


@dataclass(frozen=True)
class TemperedStableLevy:
    """Tempered stable Levy measure nu(dz) = exp(-c2 z) z^(-(1+c1)) dz on (0, inf).

    c1 < 1 and c2 > 0 guarantee finite variation and finite moments of every
    order k >= 1. c1 in (0, 1) gives infinite activity.
    """

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (self.c1 < 1.0 and math.isfinite(self.c1)):
            raise ValueError(f"c1 must be below 1, got {self.c1}")
        if not (self.c2 > 0.0 and math.isfinite(self.c2)):
            raise ValueError(f"c2 must be positive, got {self.c2}")

    def truncated_moment(self, k: int, eps: float) -> float:
        """M_k(eps) = integral of z^k nu(dz) over [eps, inf); M_k(0) is levy_moment(nu, k)."""
        full = levy_moment(self, k)
        if eps < 0.0:
            raise ValueError("truncation level must be nonnegative")
        if eps == 0.0:
            return full
        return full * float(gammaincc(k - self.c1, self.c2 * eps))

    def truncation_bias(self, eps: float) -> float:
        """Dropped first-moment mass: integral of z nu(dz) over (0, eps)."""
        return levy_moment(self, 1) - self.truncated_moment(1, eps)

    def tail_mass(self, eps: float) -> float:
        """Total jump intensity above eps: integral of nu(dz) over [eps, inf)."""
        if eps <= 0.0:
            raise ValueError("tail mass requires a positive truncation level")
        c1, c2 = self.c1, self.c2
        x = c2 * eps
        if c1 > 0.0:
            # Gamma(-c1, x) via the recurrence lifting the parameter above zero.
            upper = float(gammaincc(1.0 - c1, x)) * math.gamma(1.0 - c1)
            return c2**c1 * (x**-c1 * math.exp(-x) - upper) / c1
        if c1 == 0.0:
            return float(exp1(x))
        return c2**c1 * math.gamma(-c1) * float(gammaincc(-c1, x))

    def sample_truncated(self, eps: float, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw jump sizes from nu restricted to [eps, inf), normalized.

        Exact rejection sampling: Pareto proposal with exponential tempering
        for c1 > 0, shifted-exponential proposal for c1 = 0, and truncated
        Gamma for c1 < 0.
        """
        if eps <= 0.0:
            raise ValueError("sampling requires a positive truncation level")
        out = np.empty(size)
        filled = 0
        c1, c2 = self.c1, self.c2
        while filled < size:
            batch = max(2 * (size - filled), 64)
            if c1 > 0.0:
                z = eps * rng.uniform(size=batch) ** (-1.0 / c1)
                accept = rng.uniform(size=batch) < np.exp(-c2 * (z - eps))
            elif c1 == 0.0:
                z = eps + rng.exponential(scale=1.0 / c2, size=batch)
                accept = rng.uniform(size=batch) < eps / z
            else:
                z = rng.gamma(shape=-c1, scale=1.0 / c2, size=batch)
                accept = z >= eps
            z = z[accept]
            take = min(z.size, size - filled)
            out[filled : filled + take] = z[:take]
            filled += take
        return out


def levy_moment(nu: TemperedStableLevy, k: int) -> float:
    """k-th moment M_k = Gamma(k - c1) * c2^(c1 - k) of the Levy measure, integer k >= 1."""
    _check_moment_order(k)
    a = k - nu.c1
    return math.gamma(a) * nu.c2 ** (nu.c1 - k)


def _check_moment_order(k: int) -> None:
    # c1 < 1, so every order k >= 1 exceeds the stability index
    if k < 1 or k != int(k):
        raise ValueError(f"moment order must be an integer k >= 1, got {k}")
