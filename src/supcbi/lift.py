"""Quantile-based Markovian lift of the reversion-rate measure.

The measure pi is replaced by n = 2^m atoms (m >= 0): rates r_i at the odd
quantiles of level (2i-1)/(2n) and uniform weights c_i = 1/n, so m = 0 gives
the single median atom. The key diagnostic is how fast R_n = sum(c_i / r_i)
approaches R = integral of 1/r against pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measures import GammaMixingMeasure, _scaled_upper_gamma, inv_mean, pi_quantile

__all__ = [
    "MarkovianLift",
    "GammaContinuum",
    "ConvergenceRow",
    "build_lift",
    "convergence_report",
    "write_lift_csv",
    "format_convergence_table",
]


@dataclass(frozen=True, eq=False)
class MarkovianLift:
    """Discretization {r_i, c_i} of the mixing measure with n >= 1 atoms.

    The rates are finite, positive and strictly increasing; the weights are
    positive and sum to one. The lift is immutable: r and c are read-only
    copies of the inputs, so the per-lift constants w = c / r and
    inv_mean = R_n = sum(w), computed once here, cannot go stale. Lifts
    compare and hash by identity, since a generated __eq__ on the arrays
    would have no single truth value.
    """

    r: np.ndarray
    c: np.ndarray
    w: np.ndarray = field(init=False, repr=False)
    inv_mean: float = field(init=False, repr=False)
    _cw: np.ndarray = field(init=False, repr=False)  # c and w are its rows

    @property
    def n(self) -> int:
        return self.r.size

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        c = np.array(self.c, dtype=float)
        if r.ndim != 1 or r.size == 0 or c.shape != r.shape:
            raise ValueError("lift needs one or more rates and as many weights")
        if not np.all(np.isfinite(r)) or not np.all(r > 0.0) or np.any(np.diff(r) <= 0.0):
            raise ValueError("rates must be finite, positive, and strictly increasing")
        if not np.all(c > 0.0) or abs(c.sum() - 1.0) > 1e-14:
            raise ValueError("weights must be positive and sum to one")
        cw = np.stack([c, c / r])  # one array, so that `resolvent` divides both at once
        for name, value in (("r", r), ("c", cw[0]), ("w", cw[1]), ("_cw", cw)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "inv_mean", float(np.sum(self.w)))

    def resolvent(self, h: float, D: float) -> tuple[float, float]:
        """(S, T) at h >= 0, two sums that add to 1 but are not formed as one minus the other.

        With a_i = r_i D, S = sum w_i a_i / (a_i + h) / R_n (with w_i a_i summed
        as c_i D) and T = h sum w_i / (a_i + h) / R_n; (1, 0) exactly at h = 0.
        """
        if h == 0.0:
            return 1.0, 0.0
        s, t = (self._cw / (self.r * D + h)).sum(axis=1).tolist()
        return D * s / self.inv_mean, h * t / self.inv_mean

    def laplace(self, t: float) -> float:
        """sum w_i e^(-r_i t) / R_n, the normalized Laplace transform of the weights w at t >= 0."""
        return float(np.sum(self.w * np.exp(-t * self.r))) / self.inv_mean


@dataclass(frozen=True)
class GammaContinuum:
    """The Gamma measure pi in a lift's place: the n -> infinity inv_mean, resolvent and laplace.

    With c = alpha - 1 and z = h / (D beta), by DLMF 13.6.6 and 8.19.1,
    S = c z^c e^z Gamma(-c, z) and T = z^c e^z Gamma(1-c, z). inv_mean = R
    is computed once here, as a lift's R_n is.
    """

    pi: GammaMixingMeasure
    inv_mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inv_mean", inv_mean(self.pi))

    def resolvent(self, h: float, D: float) -> tuple[float, float]:
        if h == 0.0:
            return 1.0, 0.0
        c, z = self.pi.alpha - 1.0, h / (D * self.pi.beta)
        if z == math.inf:  # h near the float maximum: S = c / z and T = 1 to rounding
            return c * D * self.pi.beta / h, 1.0
        return c * _scaled_upper_gamma(c, z), z * _scaled_upper_gamma(c - 1.0, z)

    def laplace(self, t: float) -> float:
        """(1 + beta t)^-(alpha-1), the integral of e^(-r t) / r against pi over R."""
        return (1.0 + self.pi.beta * t) ** (-(self.pi.alpha - 1.0))


Spectrum = MarkovianLift | GammaContinuum  # what every stationary formula but grid_mean_variance reads

M_MAX = 16  # the finest lift level, 65,536 atoms; each level doubles the memory of every lift computation


def build_lift(pi: GammaMixingMeasure, m: int) -> MarkovianLift:
    """Build the quantile lift: r_i at the odd (2i-1)/(2n) quantiles, c_i = 1/n."""
    if not 0 <= m <= M_MAX:
        raise ValueError(f"lift resolution m must lie in 0..{M_MAX}, got {m}")
    n = 2**m
    levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return MarkovianLift(r=pi_quantile(pi, levels), c=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    r_n: float
    r_exact: float
    rel_error: float
    rate: float | None  # None on the first row


def convergence_report(
    pi: GammaMixingMeasure, m_min: int, m_max: int
) -> list[ConvergenceRow]:
    """Tabulate R_n, its relative error, and the dyadic convergence rate."""
    return _convergence(pi, m_min, m_max)[0]


def _convergence(
    pi: GammaMixingMeasure, m_min: int, m_max: int
) -> tuple[list[ConvergenceRow], MarkovianLift]:
    """The convergence rows of m_min..m_max and the m_max lift they end with."""
    if not 1 <= m_min <= m_max <= M_MAX:
        raise ValueError(f"resolution range must satisfy 1 <= m_min <= m_max <= {M_MAX}")
    r_exact = inv_mean(pi)
    rows: list[ConvergenceRow] = []
    prev_err: float | None = None
    for m in range(m_min, m_max + 1):
        lift = build_lift(pi, m)
        r_n = lift.inv_mean
        err = (r_exact - r_n) / r_exact
        rate = math.log2(prev_err / err) if prev_err is not None and err > 0.0 else None
        rows.append(ConvergenceRow(n=2**m, r_n=r_n, r_exact=r_exact, rel_error=err, rate=rate))
        prev_err = err
    return rows, lift


def write_lift_csv(lift: MarkovianLift) -> str:
    """Returns the CSV text of the lift, full double precision."""
    r, c = lift.r.tolist(), lift.c.tolist()
    return "i,r_i,c_i\n" + "".join(f"{i + 1},{r[i]:.17g},{c[i]:.17g}\n" for i in range(lift.n))


def format_convergence_table(rows: Sequence[ConvergenceRow]) -> str:
    lines = ["n,R_n,R,rel_error,rate"]
    for row in rows:
        rate = f"{row.rate:.3f}" if row.rate is not None else ""
        lines.append(f"{row.n},{row.r_n:.6g},{row.r_exact:.6g},{row.rel_error:.6f},{rate}")
    return "\n".join(lines) + "\n"
