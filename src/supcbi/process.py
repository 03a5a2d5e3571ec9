"""The supCBI discharge process on a Markovian lift.

Stationary moments, cumulants and autocorrelation in closed form on a lift
or the Gamma continuum, plus an exact event-driven Monte Carlo simulator of
the lifted system with optional static feedback control. The jumps come from
one cluster sampler: each component's immigrants are drawn in turn, then
each later generation of children is drawn once for a whole batch of
components (all of them unless the path is long); with B = 0 only the
immigrants are drawn. Small jumps below a truncation level eps are dropped;
all closed-form comparisons against simulation use the eps-truncated
moments so the truncation bias cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csvfloat import format_rows
from .lift import MarkovianLift, Spectrum
from .measures import GammaMixingMeasure, TemperedStableLevy, levy_moment

__all__ = [
    "SupCbiModel",
    "Controller",
    "SimulatedPath",
    "PathStats",
    "stationary_mean",
    "stationary_variance",
    "stationary_cumulants",
    "acf",
    "grid_mean_variance",
    "simulate",
    "path_stats",
    "write_path_csv",
]

_MAX_EXPECTED_JUMPS = 2e7  # `simulate` refuses a path expected to draw more jumps
_MAX_GRID_CELLS = 2**25  # ... or more grid cells (one per step), 256 MiB per grid array
_BATCH_JUMPS = 2**16  # expected jumps of the components `simulate` draws together


class SupCbiModel:
    """Full process parameters (A, B, pi, nu, baseflow) with derived moments.

    Every Levy moment is the moment of nu truncated at eps, M_k =
    nu.truncated_moment(k, eps); eps = 0 is the full model, and `truncated`
    gives the eps > 0 variants the simulator's paths follow. D = 1 - B * M1
    must be positive (stationarity).
    """

    def __init__(
        self,
        A: float,
        B: float,
        pi: GammaMixingMeasure,
        nu: TemperedStableLevy,
        baseflow: float = 0.0,
        eps: float = 0.0,
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
        self.eps = float(eps)
        self.M1 = nu.truncated_moment(1, self.eps)
        self.M2 = nu.truncated_moment(2, self.eps)
        if not (self.M1 > 0.0 and self.M2 > 0.0 and math.isfinite(self.M1) and math.isfinite(self.M2)):
            raise ValueError("Levy moments must be finite and positive")
        self.D = _d_from_b(self.B, self.M1)

    def truncated(self, eps: float) -> "SupCbiModel":
        """Copy of the model with every Levy moment truncated at eps."""
        return SupCbiModel(self.A, self.B, self.pi, self.nu, baseflow=self.baseflow, eps=eps)


def _b_from_d(nu: TemperedStableLevy, d: float) -> float:
    """Self-excitation scale B = (1 - D) / M1 that gives the model the rate factor D."""
    return (1.0 - d) / levy_moment(nu, 1)


def _d_from_b(b: float, m1: float) -> float:
    """Rate factor D = 1 - B*M1 of self-excitation scale B; stationarity needs D > 0."""
    d = 1.0 - b * m1
    if d <= 0.0:
        raise ValueError(f"stationarity requires B*M1 < 1, got B*M1 = {b * m1}")
    return d


def stationary_mean(model: SupCbiModel, lift: Spectrum) -> float:
    """E[Y_n] = (A*M1/D) * sum(c_i/r_i); baseflow not included."""
    return model.A * model.M1 / model.D * lift.inv_mean


def stationary_variance(model: SupCbiModel, lift: Spectrum) -> float:
    """Var[Y_n] = (A*M2 / (2 D^2)) * sum(c_i/r_i)."""
    return 0.5 * model.A * model.M2 / model.D**2 * lift.inv_mean


def stationary_cumulants(model: SupCbiModel, lift: Spectrum) -> tuple[float, float, float, float]:
    """Cumulants kappa_1..kappa_4 of the stationary Y_n; baseflow not included.

    Each lift component is an affine CBI process, and E[L exp(theta Y_i)] = 0
    gives the cumulant generating function A * R_n * integral_0^theta g(s) ds
    with g(s) = (k(s)/s) / (1 - B k(s)/s) and k(s) = sum_k M_k s^k / k!. With
    a_j = M_(j+1) / (j+1)!, the Taylor coefficients of g are g_0 = M1/D and
    g_j = (a_j + B sum_(l=1..j) a_l g_(j-l)) / D, and
    kappa_k = A R_n (k-1)! g_(k-1). For B = 0 this is A R_n M_k / k. R_n is
    the spectrum's inv_mean, so on the continuum it is R itself.

    The recursion is written out: M1 and M2 are the model's, and the sums of
    two and three terms are `math.fsum`s (one term is its own sum).
    """
    nu, eps, b, d = model.nu, model.eps, model.B, model.D
    a0, a1 = model.M1, model.M2 / 2
    a2, a3 = nu.truncated_moment(3, eps) / 6, nu.truncated_moment(4, eps) / 24
    g0 = a0 / d
    g1 = (a1 + b * (a1 * g0)) / d
    g2 = (a2 + b * math.fsum((a1 * g1, a2 * g0))) / d
    g3 = (a3 + b * math.fsum((a1 * g2, a2 * g1, a3 * g0))) / d
    scale = model.A * lift.inv_mean
    return scale * g0, scale * g1, scale * 2 * g2, scale * 6 * g3


def acf(model: SupCbiModel, spectrum: Spectrum, tau: float) -> float:
    """Stationary ACF at lag tau >= 0, the spectrum's laplace at D*tau."""
    if tau < 0.0:
        raise ValueError("lag must be nonnegative")
    return spectrum.laplace(model.D * tau)


def grid_mean_variance(model: SupCbiModel, lift: MarkovianLift, n: int, dt: float) -> float:
    """Variance of the mean of n consecutive stationary samples of Y_n spaced dt apart.

    Component i has variance v_i = A*M2*c_i / (2 D^2 r_i) and lag-k
    autocorrelation rho_i^k with rho_i = exp(-r_i*D*dt), so the variance is
    sum_i v_i [n (1+rho_i)/(1-rho_i) - 2 rho_i (1-rho_i^n)/(1-rho_i)^2] / n^2.
    """
    if n < 1 or dt <= 0.0:
        raise ValueError("need n >= 1 samples and dt > 0")
    with np.errstate(over="ignore"):  # r_i D dt = inf gives rho_i = 0, independent samples
        x = lift.r * model.D * dt
    rho = np.exp(-x)
    one_minus_rho = -np.expm1(-x)
    v = 0.5 * model.A * model.M2 / model.D**2 * lift.c / lift.r
    pair_sum = (
        n * (1.0 + rho) / one_minus_rho - 2.0 * rho * -np.expm1(-n * x) / one_minus_rho**2
    )
    return float(np.sum(v * pair_sum)) / n**2


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

    t: np.ndarray
    y_total: np.ndarray
    x: Optional[np.ndarray]
    c_rate: Optional[np.ndarray]


def _component_events(
    model: SupCbiModel,
    c: np.ndarray,
    r: np.ndarray,
    nubar: float,
    eps: float,
    horizon: float,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Jump times and sizes on [0, horizon] of the lift components with weights c and rates r.

    Cluster (branching) representation of the self-exciting intensity
    (c_i A + r_i B Y_i) nubar (Hawkes and Oakes 1974): component i's
    immigrants form a Poisson stream at rate c_i A nubar, and each jump of
    size z has Poisson(B z nubar) children at Exp(r_i) delays. Immigrants
    and their sizes are drawn per component, in component order. Each later
    generation is drawn once for all the components: np.repeat carries
    every parent's component to its children, so a generation stays sorted
    by component and one searchsorted splits it. Children past the horizon
    are dropped with their descendants, which would come later still. The
    mean number of children per jump is B M1(eps) = 1 - D_eps < 1, so the
    generations die out; with B = 0 none is drawn. Returns one (times, sizes)
    pair per component, in order: its immigrants in time order, then its
    children generation by generation.
    """
    immigrants = []
    for c_i in c:
        times = np.sort(rng.uniform(0.0, horizon, size=rng.poisson(c_i * model.A * nubar * horizon)))
        immigrants.append((times, model.nu.sample_truncated(eps, times.size, rng)))
    if model.B == 0.0:
        return immigrants
    component = np.repeat(np.arange(c.size), [times.size for times, _ in immigrants])
    times, sizes = (np.concatenate(column) for column in zip(*immigrants))
    generations = [(times, sizes, component)]
    while times.size:
        kids = rng.poisson(model.B * nubar * sizes)
        component = np.repeat(component, kids)
        times = np.repeat(times, kids) + rng.exponential(size=component.size) / r[component]
        keep = times <= horizon
        component, times = component[keep], times[keep]
        sizes = model.nu.sample_truncated(eps, times.size, rng)
        generations.append((times, sizes, component))
    slices = []
    for times, sizes, component in generations:
        bounds = np.searchsorted(component, np.arange(c.size + 1)).tolist()
        slices.append([(times[a:b], sizes[a:b]) for a, b in zip(bounds, bounds[1:])])
    # per component, its slice of every generation, in generation order
    return [tuple(map(np.concatenate, zip(*own))) for own in zip(*slices)]


def _decay_scan(x: np.ndarray, decay: float) -> np.ndarray:
    """First-order recursion y[0] = 0, y[k] = decay * y[k-1] + x[k], as a doubling scan.

    After the round with shift s, y[k] holds sum(decay^j x[k-j], j < 2s); each
    round adds decay^s times the array shifted by s, then squares the factor
    (Kogge and Stone 1973). That is about log2(size) numpy passes. The
    factor only shrinks, so nothing overflows, and the scan stops early once
    it underflows to 0.
    """
    y = x.astype(float)  # a copy; bincount of no jumps gives an int array
    y[:1] = 0.0
    s, f = 1, decay
    while s < y.size and f != 0.0:
        y[s:] += f * y[:-s]
        s, f = 2 * s, f * f
    return y


def _exp_diff(a: float, b: float, delta):
    """(exp(-a*delta) - exp(-b*delta)) / (b - a), and its limit delta*exp(-a*delta) at a = b.

    Evaluated as exp(-min(a, b)*delta) * (1 - exp(-|b-a|*delta)) / |b-a| with
    expm1, which does not cancel as a -> b.
    """
    gap = abs(b - a)
    if gap == 0.0:
        return delta * np.exp(-a * delta)
    return np.exp(-min(a, b) * delta) * -np.expm1(-gap * delta) / gap


def simulate(
    model: SupCbiModel,
    lift: MarkovianLift,
    horizon: float,
    dt: float,
    eps: float,
    seed: int,
    controller: Controller | None = None,
    replicate: int = 0,
) -> SimulatedPath:
    """Simulate the lifted supCBI system, optionally with the static controller.

    Components decay exactly between jumps; jump times are resolved exactly and
    the grid spacing dt only sets the recording times. A burn-in of ten slowest
    e-folding times (and ten controller relaxation times when controlled) is
    discarded to approximate stationarity from the zero initial condition.
    The path is drawn from the generator seeded (seed, replicate).
    """
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and dt must be positive")
    if eps <= 0.0:
        raise ValueError("jump truncation eps must be positive")
    nubar = model.nu.tail_mass(eps)
    d_eps = model.truncated(eps).D
    # mean relaxation rate of the slowest component is r_1 * D, not r_1
    burn = 10.0 / float(lift.r[0] * d_eps)
    if controller is not None:
        burn = max(burn, 10.0 / (controller.rho - controller.u))
    total = burn + horizon
    expected = model.A * nubar * total / d_eps
    if expected > _MAX_EXPECTED_JUMPS:
        raise ValueError(
            f"expected jump count {expected:.3g} exceeds budget {_MAX_EXPECTED_JUMPS:.3g}; "
            "raise eps or shorten the horizon"
        )

    # a Python float, which may lie beyond the int range or be inf (without a numpy warning)
    grid_steps = total / dt + 1.0
    if grid_steps > _MAX_GRID_CELLS:
        raise ValueError(
            f"grid of {grid_steps:.3g} cells exceeds budget {_MAX_GRID_CELLS} cells; "
            "raise dt or shorten the horizon"
        )
    steps = int(math.floor(total / dt)) + 1
    k0 = int(math.ceil(burn / dt))
    if k0 >= steps:
        raise ValueError(f"horizon {horizon:.6g} records no sample at spacing dt = {dt:.6g}")
    grid = np.arange(steps) * dt
    rng = np.random.default_rng((seed, replicate))

    y_total = np.zeros(steps)
    h = rho = None
    if controller is not None:
        h = controller.rho - controller.u
        rho = controller.rho
        z_forcing = np.zeros(steps)  # per-step convolution increments for the smooth part

    # consecutive components share the generation rounds of a batch of about
    # _BATCH_JUMPS expected jumps, whose arrays stay small
    batch = np.floor(expected * (np.cumsum(lift.c) - lift.c) / _BATCH_JUMPS)
    starts = [*np.flatnonzero(np.diff(batch, prepend=-1.0)).tolist(), lift.n]
    for a, b in zip(starts, starts[1:]):
        events = _component_events(model, lift.c[a:b], lift.r[a:b], nubar, eps, grid[-1], rng)
        with np.errstate(over="ignore"):  # r_i times a lag may overflow to inf: its decay is 0
            for r_i, (times, sizes) in zip(lift.r[a:b], events):
                bins = np.minimum((np.floor(times / dt)).astype(int) + 1, steps - 1)
                # contribution of each jump to the component value at the end of its bin
                w = sizes * np.exp(-r_i * (bins * dt - times))
                yi = _decay_scan(np.bincount(bins, weights=w, minlength=steps), math.exp(-r_i * dt))
                y_total += yi
                if controller is not None:
                    # integral of exp(-h*(t_k - s)) Y_i(s) ds over each step, exact
                    g = sizes * _exp_diff(r_i, h, bins * dt - times)
                    gb = np.bincount(bins, weights=g, minlength=steps)
                    step_w = _exp_diff(r_i, h, dt)
                    # forcing from the state at the step start plus within-step jumps
                    z_forcing[1:] += yi[:-1] * step_w + gb[1:]

    x = c_rate = None
    if controller is not None:
        # Z = X - Y_n is continuous: dZ/dt = -h Z + u Y_n; integrate exactly.
        x = _decay_scan(controller.u * z_forcing, math.exp(-h * dt)) + y_total
        c_rate = -h * x + rho * y_total

    return SimulatedPath(
        t=grid[k0:] - grid[k0],
        y_total=y_total[k0:],
        x=None if x is None else x[k0:],
        c_rate=None if c_rate is None else c_rate[k0:],
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


def write_path_csv(path: SimulatedPath) -> str:
    """Returns the CSV text of the path, fixed column order; x and c_rate empty when uncontrolled.

    Every number is written as '%.17g' writes it.
    """
    if path.x is None:
        return "t,y_total,x,c_rate\n" + format_rows((path.t, path.y_total), end=",,\n")
    return "t,y_total,x,c_rate\n" + format_rows((path.t, path.y_total, path.x, path.c_rate))
