"""Mixing and Levy measures: Gamma reversion-rate measure and tempered stable jumps.

The Gamma measure pi(dr) ~ r^(alpha-1) exp(-r/beta) dr supplies the spectrum of
reversion rates; its quantiles are beta times the inverse regularized lower
incomplete gamma function (scipy.special.gammaincinv). The tempered stable
measure nu(dz) = exp(-c2 z) z^(-(1+c1)) dz drives the jumps; its moments have
the closed form M_k = Gamma(k - c1) * c2^(c1 - k), and its tails above a
truncation level follow from the upper incomplete gamma function Gamma(-c, x):
scipy's regularized form for c1 <= -1e-2, and one integral for c1 > -1e-2,
`_scaled_upper_gamma`, which `lift.GammaContinuum` uses too.
The inverse incomplete gamma functions cost microseconds a value, so a large
array of them is split over the process's cores by `_split_ufunc`; the
values are the same bits on any number of cores.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

__all__ = [
    "GammaMixingMeasure",
    "TemperedStableLevy",
    "inv_mean",
    "pi_quantile",
    "levy_moment",
]


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


def inv_mean(pi: GammaMixingMeasure) -> float:
    """Inverse first moment R = integral of 1/r against pi = 1/(beta*(alpha-1))."""
    return 1.0 / (pi.beta * (pi.alpha - 1.0))


def pi_quantile(pi: GammaMixingMeasure, p: float | np.ndarray) -> float | np.ndarray:
    """Quantile of the Gamma mixing measure: theta with pi((0, theta]) = p.

    p is a probability or an array of them; the result is beta times the
    inverse regularized lower incomplete gamma function of p, a float for a
    scalar p and an array otherwise. p = 0 maps to 0 and p = 1 maps to +inf.
    """
    probs = np.asarray(p, dtype=float)
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    with np.errstate(over="ignore"):  # an overflowing rate is inf, which `MarkovianLift` refuses
        theta = pi.beta * _split_ufunc(gammaincinv, pi.alpha, probs)
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
        """Dropped first-moment mass: integral of z nu(dz) over (0, eps).

        M1 times the regularized lower gamma function; M1 - M1(eps) would cancel.
        """
        if eps < 0.0:
            raise ValueError("truncation level must be nonnegative")
        return levy_moment(self, 1) * float(gammainc(1.0 - self.c1, self.c2 * eps))

    def tail_mass(self, eps: float) -> float:
        """Total jump intensity above eps: integral of nu(dz) over [eps, inf)."""
        if eps <= 0.0:
            raise ValueError("tail mass requires a positive truncation level")
        c1, c2 = self.c1, self.c2
        x = c2 * eps
        if c1 <= -1e-2:
            return c2**c1 * math.gamma(-c1) * float(gammaincc(-c1, x))
        # gamma(-c1) overflows near c1 = 0, and scipy has no Q(-c1, x) for c1 >= 0: one integral
        return c2**c1 * x**-c1 * math.exp(-x) * _scaled_upper_gamma(c1, x)

    def sample_truncated(self, eps: float, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw jump sizes from nu restricted to [eps, inf), normalized.

        Exact rejection sampling for c1 >= 0, from whichever proposal accepts
        more often: a Pareto proposal with exponential tempering when
        c1 > c2 * eps, and otherwise a shifted exponential accepted with
        probability (eps / z)^(1 + c1). For small c1 and c2 eps they accept
        at about c1 log(1 / (c2 eps)) and c2 eps log(1 / (c2 eps)); where that
        is below 1e-2 (as at c1 = 0 and c2 eps = 1e-12, 3.5e-11), the draws come
        from `_envelope_draws`, which accepts at least 1/e. For c1 < 0 the
        law is a Gamma(-c1, 1/c2) conditioned on z >= eps, drawn by inverse
        CDF: with S(z) = gammaincc(-c1, c2 z), z solves S(z) = U S(eps) for U
        uniform on (0, 1], which takes no loop however far eps is in the tail.
        """
        if eps <= 0.0:
            raise ValueError("sampling requires a positive truncation level")
        c1, c2 = self.c1, self.c2
        if c1 < 0.0:
            tail = float(gammaincc(-c1, c2 * eps))
            if tail == 0.0:
                raise ValueError(
                    f"Gamma tail above eps = {eps:.6g} underflows (c1 = {c1:.6g}, c2 = {c2:.6g}); "
                    "lower the truncation level"
                )
            return _split_ufunc(gammainccinv, -c1, (1.0 - rng.uniform(size=size)) * tail) / c2
        x0 = c2 * eps
        # both proposals below accept at most max(c1, x0) e^x0 E1(x0) < max(c1, x0) log1p(1 / x0)
        if x0 > 0.0 and max(c1, x0) * (math.log1p(x0) - math.log(x0)) < 1e-2:
            return _envelope_draws(c1, x0, size, rng) / c2
        pareto = c1 > x0
        out = np.empty(size)
        filled = 0
        # a Pareto z that overflows to inf (or a uniform of 0) is rejected: exp(-inf) = 0
        with np.errstate(over="ignore", divide="ignore"):
            while filled < size:
                batch = max(2 * (size - filled), 64)
                if pareto:
                    # one call draws a round's proposals and then its acceptance
                    # uniforms; the proposals overwrite their uniforms
                    u = rng.uniform(size=2 * batch)
                    z = np.power(u[:batch], -1.0 / c1, out=u[:batch])
                    z *= eps
                    accept = u[batch:] < np.exp(-c2 * (z - eps))
                else:
                    z = eps + rng.exponential(scale=1.0 / c2, size=batch)
                    accept = rng.uniform(size=batch) < (eps / z) ** (1.0 + c1)
                z = z[accept]
                take = min(z.size, size - filled)
                out[filled : filled + take] = z[:take]
                filled += take
        return out


def _envelope_draws(c1: float, x0: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of x from the density x^(-1-c1) e^-x on [x0, inf), for 0 <= c1 < 1 and 0 < x0 < 1.

    Exact rejection from the envelope e^-x0 x^(-1-c1) on [x0, 1) and e^-x on
    [1, inf), each piece drawn by inverse CDF: with t = log(1 / x0),
    x^-c1 = x0^-c1 (1 - v (1 - x0^c1)) below 1 (x = x0^(1-v), log-uniform, as
    c1 t -> 0) and x = 1 + Exp(1) above. The envelope holds less than e times
    the density's mass, so a round accepts at least 1/e of its draws.
    """
    t = -math.log(x0)
    tiny = c1 * t < 1e-16  # then the c1 -> 0 forms are exact to rounding
    low = math.exp(-x0) * (t if tiny else math.expm1(c1 * t) / c1)  # the envelope's mass below 1
    p_low = low / (low + math.exp(-1.0))
    out = np.empty(size)
    filled = 0
    while filled < size:
        batch = max(2 * (size - filled), 64)
        piece, v, u = rng.uniform(size=(3, batch))
        below = piece < p_low
        log_x = -t * (1.0 - v) if tiny else -t - np.log1p(v * math.expm1(-c1 * t)) / c1
        x = np.where(below, np.exp(log_x), 1.0 - np.log1p(-v))
        x = x[u < np.where(below, np.exp(x0 - x), np.maximum(x, 1.0) ** (-1.0 - c1))]
        take = min(x.size, size - filled)
        out[filled : filled + take] = x[:take]
        filled += take
    return out


def levy_moment(nu: TemperedStableLevy, k: int) -> float:
    """k-th moment M_k = Gamma(k - c1) * c2^(c1 - k) of the Levy measure, integer k >= 1."""
    _check_moment_order(k)
    try:
        return math.gamma(k - nu.c1) * nu.c2 ** (nu.c1 - k)
    except OverflowError:
        raise ArithmeticError(f"Levy moment M_{k} overflows at c1 = {nu.c1:.6g}, c2 = {nu.c2:.6g}") from None


def _scaled_upper_gamma(c: float, x: float) -> float:
    """x^c e^x Gamma(-c, x) for x > 0 and c > -1, to about 1e-15 relative.

    With z = x e^v, it is the integral over v > 0 of exp(-c v - x expm1(v)):
    positive, so nothing cancels (and gamma(-c) cannot overflow), and below
    exp(-750) beyond v = log1p(750 / x). That interval is about 750 / x wide
    for large x, and near the top of the float range it nears the underflow
    threshold, below which quad cannot bisect it. So quad integrates over
    u = (1 + x) v, whose interval is 34 wide at x = 1e-12, 13 at x = 1 and
    tends to 750 as x grows.
    """
    from scipy import integrate  # here, not at import: `lift` and `solve` never call it
    s = 1.0 + x
    return integrate.quad(
        lambda u: math.exp(-c * u / s - x * math.expm1(u / s)),
        0.0, s * math.log1p(750.0 / x), epsabs=0.0, epsrel=1e-13, limit=200,
    )[0] / s


# Each chunk of a split evaluation holds at least this many points: split in
# two on a 2-vCPU KVM guest, 960 gammaincinv points took 1.2x the time of one
# call and 1024 points 0.7-0.9x, so 2048 keeps a margin above the crossover.
_MIN_CHUNK = 2048
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cores() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor(workers: int) -> ThreadPoolExecutor:
    """The process's worker threads, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="supcbi-ufunc")
        return _pool


def _drop_executor() -> None:
    # a forked child has none of its parent's threads: work submitted to the
    # inherited pool would never run, so the child creates its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


def _split_ufunc(ufunc: np.ufunc, a: float, x: np.ndarray) -> np.ndarray:
    """ufunc(a, x) for an elementwise scipy.special ufunc, a scalar a and a float array x.

    A 1-D x of 2 * _MIN_CHUNK points or more is cut into one contiguous chunk
    per core, each of at least _MIN_CHUNK points. The calling thread fills
    the first and the pool the others; the ufunc releases the interpreter
    lock, so the chunks run at once. Each value is computed alone, so the
    result has the bits of one call whatever the number of chunks.
    """
    cores = _cores() if x.ndim == 1 and x.size >= 2 * _MIN_CHUNK else 1
    chunks = min(cores, x.size // _MIN_CHUNK)
    if chunks < 2:
        return ufunc(a, x)
    out = np.empty_like(x)
    bounds = [i * x.size // chunks for i in range(chunks + 1)]
    pool = _executor(cores - 1)
    futures = [pool.submit(ufunc, a, x[lo:hi], out=out[lo:hi]) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    ufunc(a, x[: bounds[1]], out=out[: bounds[1]])
    for future in futures:
        future.result()
    return out


def _check_moment_order(k: int) -> None:
    # c1 < 1, so every order k >= 1 exceeds the stability index
    if k < 1 or k != int(k):
        raise ValueError(f"moment order must be an integer k >= 1, got {k}")
