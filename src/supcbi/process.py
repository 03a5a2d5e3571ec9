"""The supCBI discharge process on a Markovian lift.

Stationary moments and autocorrelation in closed form, plus an exact
event-driven Monte Carlo simulator of the lifted system with optional static
feedback control. Small jumps below a truncation level eps are dropped; all
closed-form comparisons against simulation use the eps-truncated moments so
the truncation bias cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .lift import MarkovianLift, lift_inv_mean
from .measures import GammaMixingMeasure, TemperedStableLevy, levy_moment

__all__ = [
    "SupCbiModel",
    "Controller",
    "SimulatedPath",
    "PathStats",
    "stationary_mean",
    "stationary_variance",
    "acf_gamma",
    "acf_lift",
    "simulate",
    "path_stats",
    "write_path_csv",
]


class SupCbiModel:
    """Full process parameters (A, B, pi, nu, baseflow) with derived moments.

    D = 1 - B * M1 must be positive (stationarity). Passing m1/m2 overrides the
    Levy moments, which is how eps-truncated variants are constructed.
    """

    def __init__(
        self,
        A: float,
        B: float,
        pi: GammaMixingMeasure,
        nu: TemperedStableLevy,
        baseflow: float = 0.0,
        m1: float | None = None,
        m2: float | None = None,
    ):
        if A < 0.0:
            raise ValueError(f"immigration scale A must be nonnegative, got {A}")
        if B < 0.0:
            raise ValueError(f"self-excitation scale B must be nonnegative, got {B}")
        if baseflow < 0.0:
            raise ValueError(f"baseflow must be nonnegative, got {baseflow}")
        self.A = float(A)
        self.B = float(B)
        self.pi = pi
        self.nu = nu
        self.baseflow = float(baseflow)
        self.M1 = float(m1) if m1 is not None else levy_moment(nu, 1)
        self.M2 = float(m2) if m2 is not None else levy_moment(nu, 2)
        if not (self.M1 > 0.0 and self.M2 > 0.0 and math.isfinite(self.M1) and math.isfinite(self.M2)):
            raise ValueError("Levy moments must be finite and positive")
        self.D = _d_from_b(self.B, self.M1)

    def truncated(self, eps: float) -> "SupCbiModel":
        """Copy of the model with M1, M2 replaced by their eps-truncated values."""
        return SupCbiModel(
            self.A,
            self.B,
            self.pi,
            self.nu,
            baseflow=self.baseflow,
            m1=self.nu.truncated_moment(1, eps),
            m2=self.nu.truncated_moment(2, eps),
        )


def _b_from_d(nu: TemperedStableLevy, d: float) -> float:
    """Self-excitation scale B = (1 - D) / M1 that gives the model the rate factor D."""
    return (1.0 - d) / levy_moment(nu, 1)


def _d_from_b(b: float, m1: float) -> float:
    """Rate factor D = 1 - B*M1 of self-excitation scale B; stationarity needs D > 0."""
    d = 1.0 - b * m1
    if d <= 0.0:
        raise ValueError(f"stationarity requires B*M1 < 1, got B*M1 = {b * m1}")
    return d


def stationary_mean(model: SupCbiModel, lift: MarkovianLift) -> float:
    """E[Y_n] = (A*M1/D) * sum(c_i/r_i); baseflow not included."""
    return model.A * model.M1 / model.D * lift_inv_mean(lift)


def stationary_variance(model: SupCbiModel, lift: MarkovianLift) -> float:
    """Var[Y_n] = (A*M2 / (2 D^2)) * sum(c_i/r_i)."""
    return 0.5 * model.A * model.M2 / model.D**2 * lift_inv_mean(lift)


def acf_gamma(model: SupCbiModel, tau: float) -> float:
    """Closed-form stationary ACF (1 + D*beta*tau)^(-(alpha-1)) of the Gamma mixture."""
    if tau < 0.0:
        raise ValueError("lag must be nonnegative")
    pi = model.pi
    return (1.0 + model.D * pi.beta * tau) ** (-(pi.alpha - 1.0))


def acf_lift(model: SupCbiModel, lift: MarkovianLift, tau: float) -> float:
    """Lift quadrature of the ACF: normalized sum of (c_i/r_i) exp(-D*tau*r_i)."""
    if tau < 0.0:
        raise ValueError("lag must be nonnegative")
    w = lift.c / lift.r
    return float(np.sum(w * np.exp(-model.D * tau * lift.r)) / np.sum(w))


@dataclass(frozen=True)
class Controller:
    """Static feedback controller (rho, u) tracking the shifted target xhat."""

    rho: float
    u: float
    xhat: float

    def __post_init__(self) -> None:
        if not (self.rho > self.u):
            raise ValueError("controller requires rho > u")
        if self.rho <= 0.0:
            raise ValueError("controller requires rho > 0")


@dataclass
class SimulatedPath:
    """Recorded grid values of a simulated lifted path."""

    dt: float
    horizon: float
    t: np.ndarray
    y_total: np.ndarray
    x: Optional[np.ndarray]
    c_rate: Optional[np.ndarray]
    seed: int
    eps: float
    truncation_bias: float


def _component_events(
    model: SupCbiModel,
    c_i: float,
    r_i: float,
    nubar: float,
    eps: float,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Jump times and sizes of one lifted component on [0, horizon].

    B = 0 is a homogeneous Poisson stream. B > 0 uses thinning with a
    piecewise-constant majorant refreshed at every proposal: the intensity
    decays between jumps, so the left-limit state bounds it until the next
    accepted jump.
    """
    if model.B == 0.0:
        rate = c_i * model.A * nubar
        n_jumps = rng.poisson(rate * horizon)
        times = np.sort(rng.uniform(0.0, horizon, size=n_jumps))
        sizes = model.nu.sample_truncated(eps, n_jumps, rng)
        return times, sizes
    times_list: list[float] = []
    sizes_list: list[float] = []
    t = 0.0
    t_state = 0.0
    y = 0.0
    base = c_i * model.A
    while True:
        lam_bar = (base + r_i * model.B * y) * nubar
        t += rng.exponential(1.0 / lam_bar)
        if t > horizon:
            break
        y = y * math.exp(-r_i * (t - t_state))  # decayed left limit
        t_state = t
        lam = (base + r_i * model.B * y) * nubar
        if rng.uniform() < lam / lam_bar:
            z = float(model.nu.sample_truncated(eps, 1, rng)[0])
            y += z
            times_list.append(t)
            sizes_list.append(z)
    return np.array(times_list), np.array(sizes_list)


def _exp_diff(a: np.ndarray, b: float, delta: np.ndarray) -> np.ndarray:
    """(exp(-a*delta) - exp(-b*delta)) / (b - a), stable as a -> b."""
    a = np.asarray(a, dtype=float)
    delta = np.asarray(delta, dtype=float)
    diff = b - a
    out = np.where(
        np.abs(diff) > 1e-9 * max(abs(b), 1.0),
        (np.exp(-a * delta) - np.exp(-b * delta)) / np.where(diff == 0.0, 1.0, diff),
        delta * np.exp(-b * delta),
    )
    return out


def simulate(
    model: SupCbiModel,
    lift: MarkovianLift,
    horizon: float,
    dt: float,
    eps: float,
    seed: int,
    controller: Controller | None = None,
    replicate: int = 0,
    max_expected_jumps: float = 2e7,
) -> SimulatedPath:
    """Simulate the lifted supCBI system, optionally with the static controller.

    Components decay exactly between jumps; jump times are resolved exactly and
    the grid spacing dt only sets the recording times. A burn-in of ten slowest
    e-folding times (and ten controller relaxation times when controlled) is
    discarded to approximate stationarity from the zero initial condition.
    """
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and dt must be positive")
    if eps <= 0.0:
        raise ValueError("jump truncation eps must be positive")
    nubar = model.nu.tail_mass(eps)
    d_eps = 1.0 - model.B * model.nu.truncated_moment(1, eps)
    # mean relaxation rate of the slowest component is r_1 * D, not r_1
    burn = 10.0 / (lift.r[0] * d_eps)
    if controller is not None:
        burn = max(burn, 10.0 / (controller.rho - controller.u))
    total = burn + horizon
    expected = model.A * nubar * total / max(d_eps, 1e-12)
    if expected > max_expected_jumps:
        raise ValueError(
            f"expected jump count {expected:.3g} exceeds budget {max_expected_jumps:.3g}; "
            "raise eps or shorten the horizon"
        )
    rng = np.random.default_rng((seed, replicate))

    n = lift.n
    steps = int(math.floor(total / dt)) + 1
    k0 = int(math.ceil(burn / dt))
    grid = np.arange(steps) * dt

    y_total = np.zeros(steps)
    h = rho = None
    if controller is not None:
        h = controller.rho - controller.u
        rho = controller.rho
        z_forcing = np.zeros(steps)  # per-step convolution increments for the smooth part

    for i in range(n):
        r_i = lift.r[i]
        times, sizes = _component_events(model, lift.c[i], r_i, nubar, eps, grid[-1], rng)
        bins = np.minimum((np.floor(times / dt)).astype(int) + 1, steps - 1)
        # contribution of each jump to the component value at the end of its bin
        w = sizes * np.exp(-r_i * (bins * dt - times))
        binned = np.bincount(bins, weights=w, minlength=steps)
        decay = math.exp(-r_i * dt)
        yi = np.zeros(steps)
        acc = 0.0
        for k in range(1, steps):
            acc = acc * decay + binned[k]
            yi[k] = acc
        y_total += yi
        if controller is not None:
            # integral of exp(-h*(t_k - s)) Y_i(s) ds over each step, exact
            g = sizes * _exp_diff(np.full_like(times, r_i), h, bins * dt - times)
            gb = np.bincount(bins, weights=g, minlength=steps)
            step_w = _exp_diff(np.array([r_i]), h, np.array([dt]))[0]
            # forcing from the state at the step start plus within-step jumps
            z_forcing[1:] += yi[:-1] * step_w + gb[1:]

    x = c_rate = None
    if controller is not None:
        # Z = X - Y_n is continuous: dZ/dt = -h Z + u Y_n; integrate exactly.
        decay_h = math.exp(-h * dt)
        z = np.zeros(steps)
        acc = 0.0
        for k in range(1, steps):
            acc = acc * decay_h + controller.u * z_forcing[k]
            z[k] = acc
        x = z + y_total
        c_rate = -h * x + rho * y_total

    sl = slice(k0, steps)
    return SimulatedPath(
        dt=dt,
        horizon=horizon,
        t=grid[sl] - grid[k0],
        y_total=y_total[sl],
        x=None if x is None else x[sl],
        c_rate=None if c_rate is None else c_rate[sl],
        seed=seed,
        eps=eps,
        truncation_bias=model.nu.truncation_bias(eps),
    )


@dataclass
class PathStats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    acf: np.ndarray
    degenerate: bool


def path_stats(path, max_lag: int = 50) -> PathStats:
    """Sample moments and autocorrelation of a path (or any 1-D series).

    With c the deviations from the sample mean and m_k = mean(c^k): the
    variance is unbiased, sum(c^2) / (N - 1); skewness and kurtosis are the
    biased standardized moments m3 / m2^1.5 and m4 / m2^2, as
    scipy.stats.skew and kurtosis(fisher=False) define them; the lag-k
    autocorrelation is sum(c_t c_(t+k)) / sum(c_t^2). Both sums are numpy's
    pairwise sums rather than BLAS dot products: the ACF least squares in
    identification turns a change in their last bit into shifts of about
    1e-6 in the fitted parameters. A constant series is flagged degenerate
    with NaN shape statistics and an empty ACF.
    """
    values = path.y_total if isinstance(path, SimulatedPath) else np.asarray(path, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two samples")
    mean = float(values.mean())
    c = values - mean
    c2 = c * c
    ss = float(c2.sum())
    if ss == 0.0:
        return PathStats(mean, 0.0, math.nan, math.nan, np.array([]), degenerate=True)
    n = values.size
    m2 = ss / n
    skew = float(c2.dot(c)) / n / m2**1.5
    kurt = float(c2.dot(c2)) / n / m2**2
    max_lag = min(max_lag, n - 1)
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for k in range(1, max_lag + 1):
        acf[k] = np.sum(c[:-k] * c[k:]) / ss
    return PathStats(mean, ss / (n - 1), skew, kurt, acf, degenerate=False)


def write_path_csv(path: SimulatedPath, out: IO[str]) -> None:
    """CSV export, fixed column order; x and c_rate empty when uncontrolled."""
    out.write("t,y_total,x,c_rate\n")
    for k in range(path.t.size):
        x = f"{path.x[k]:.17g}" if path.x is not None else ""
        c = f"{path.c_rate[k]:.17g}" if path.c_rate is not None else ""
        out.write(f"{path.t[k]:.17g},{path.y_total[k]:.17g},{x},{c}\n")
