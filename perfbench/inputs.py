"""Workload inputs, generated from the workload seed with numpy and scipy only.

Nothing here imports supcbi: the configs and series are what a user would
hand to the command line, so they must not depend on the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import lfilter
from scipy.special import gammaincinv

# The identifiable product D*beta was calibrated with this nominal D.
D_NOMINAL = 0.5
HOURS_PER_YEAR = 8760
# Generated series are redrawn while their ACF fits as exponential-like:
# above this exponent the identification's ACF stage degenerates.
DEGENERATE_ALPHA = 50.0


@dataclass(frozen=True)
class Station:
    """Published calibration of one channel point (tests/conftest.py)."""

    name: str
    A: float
    B: float
    c1: float
    c2: float
    alpha: float
    dbeta: float
    baseflow: float
    mean: float  # published model average, m^3/s, baseflow included
    variance: float  # published model variance, m^6/s^2

    def config(self) -> str:
        # B and beta, never D: with the published rounding 1 - B*M1 is
        # 0.500011, which the command line rejects against D = 0.5.
        return (
            f"A = {self.A!r}\nB = {self.B!r}\nc1 = {self.c1!r}\nc2 = {self.c2!r}\n"
            f"alpha = {self.alpha!r}\nbeta = {self.dbeta / D_NOMINAL!r}\n"
            f"baseflow = {self.baseflow!r}\n"
        )


STATIONS = [
    Station("p1_point20", 2.391e-2, 3.637e-2, 0.772, 4.434e-3, 2.329, 3.149e-2, 1.174, 9.029, 403.9),
    Station("p1_point60", 2.799e-2, 3.562e-2, 0.8113, 3.709e-3, 2.248, 3.328e-2, 1.226, 10.69, 481.3),
    Station("p1_point180", 2.918e-2, 3.603e-2, 0.8127, 3.942e-3, 2.189, 3.210e-2, 1.290, 11.90, 504.0),
    Station("p2_point20", 2.615e-2, 3.604e-2, 0.840, 4.345e-3, 1.865, 2.941e-2, 1.836, 16.10, 525.4),
    Station("p2_point60", 2.907e-2, 3.511e-2, 0.8379, 3.645e-3, 1.865, 3.175e-2, 2.617, 17.69, 670.1),
    Station("p2_point180", 3.170e-2, 3.453e-2, 0.8381, 3.295e-3, 1.874, 3.226e-2, 2.752, 19.03, 799.8),
]

# Published convergence tables of the quantile lift (beta = 1): per n, the
# printed R_n and the printed dyadic rate.
PUBLISHED_TABLES = {
    1.8: [
        (64, "1.15537", None), (128, "1.18043", 0.444), (256, "1.19886", 0.444),
        (512, "1.21242", 0.444), (1024, "1.22238", 0.444), (2048, "1.2297", 0.444),
        (4096, "1.23508", 0.444), (8192, "1.23904", 0.445),
    ],
    2.0: [
        (64, "0.94661", None), (128, "0.962226", 0.499), (256, "0.973281", 0.500),
        (512, "0.981103", 0.500), (1024, "0.986636", 0.500), (2048, "0.99055", 0.500),
        (4096, "0.993317", 0.500), (8192, "0.995274", 0.500),
    ],
    2.2: [
        (64, "0.800163", None), (128, "0.810588", 0.544), (256, "0.817741", 0.545),
        (512, "0.822647", 0.545), (1024, "0.82601", 0.545), (2048, "0.828315", 0.545),
        (4096, "0.829895", 0.546), (8192, "0.830977", 0.545),
    ],
}

# The criterion-08 model (B = 0) and the B > 0 reference model.
B0_MODEL = "A = 0.8\nB = 0.0\nc1 = 0.2\nc2 = 1.0\nalpha = 2.0\nbeta = 1.0\nbaseflow = 0.5\n"
REFERENCE_MODEL = "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\nbaseflow = 0.0\n"

# Closed-form controllers, fixed by the model alone (no seed): rho, u and
# xhat = q * E[Y_n] that `supcbi solve` returns on the eps-truncated model.
# B = 0 model, m = 2, eps = 1.6e-4, Kbar = 0.05, Qabs = 0.3:
B0_CONTROLLER = "rho = 2.574068081771705\nu = -0.8265482364824985\nxhat = 0.5558006378598749\n"
# p1_point20, m = 4, eps = 1e-2, Kbar = 1, Qabs = 2:
STATION_CONTROLLER = "rho = 0.6239095372544285\nu = -0.2502784611374324\nxhat = 4.147837078888635\n"


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def kbar_grid(rng: np.random.Generator, points: int) -> np.ndarray:
    """Geometric Kbar grid over about six decades, endpoints jittered by the seed."""
    lo = 10.0 ** rng.uniform(-4.2, -3.8)
    hi = 10.0 ** rng.uniform(1.8, 2.2)
    return np.geomspace(lo, hi, points)


def targets(station: Station, rng: np.random.Generator) -> tuple[float, float, float]:
    """(Qabs, Kbar, Pbar) for a Water Abstracting problem at the station.

    Pbar sits between the attainable bounds (q-1)^2 E[Y]^2 and
    (q-1)^2 (E[Y]^2 + Var), estimated from the published moments; the gap
    between the bounds is several times E[Y]^2, far wider than the 1% error
    of that estimate.
    """
    qabs = rng.uniform(0.1, 0.5) * station.mean
    kbar = 10.0 ** rng.uniform(0.0, 2.0)
    q = 1.0 - qabs / station.mean
    mean_y = station.mean - station.baseflow
    lo = (q - 1.0) ** 2 * mean_y**2
    hi = (q - 1.0) ** 2 * (mean_y**2 + station.variance)
    pbar = lo + rng.uniform(0.3, 0.9) * (hi - lo)
    return float(qabs), float(kbar), float(pbar)


def discharge_series(station: Station, years: int, rng: np.random.Generator) -> np.ndarray:
    """Hourly discharge with the station's mean, variance and power-law ACF shape.

    A superposition of shot-noise components: rates D*r_i at the odd Gamma
    quantiles, compound-Poisson input with exponential jumps, each component
    an AR(1) filter of its input (scipy.signal.lfilter) started at its mean.
    """
    steps, components = years * HOURS_PER_YEAR, 32
    levels = (2.0 * np.arange(1, components + 1) - 1.0) / (2.0 * components)
    rates = D_NOMINAL * gammaincinv(station.alpha, levels) * (station.dbeta / D_NOMINAL)
    mean_y = station.mean - station.baseflow
    # E[Y] = lam E[Z] R and Var[Y] = lam E[Z^2] R / 2 = E[Y] E[Z], with R = mean(1/rate)
    jump = station.variance / mean_y
    arrivals = mean_y / (jump * float(np.mean(1.0 / rates))) / components  # per component and hour
    total = np.full(steps, station.baseflow)
    for rate in rates:
        counts = rng.poisson(arrivals, size=steps)
        inflow = rng.gamma(shape=counts, scale=jump)  # sum of `counts` exponential jumps
        decay = np.exp(-rate)
        start = arrivals * jump / (1.0 - decay)
        y, _ = lfilter([1.0], [1.0, -decay], inflow, zi=[decay * start])
        total += y
    return total


def acf_exponent(values: np.ndarray, max_lag: int = 200) -> float:
    """alpha of the least-squares fit (1 + b*tau)^-(alpha-1) to the sample ACF.

    The fit runs over the longest positive prefix of the ACF, from the
    lag-1 starting point, as the first stage of the identification does.
    """
    x = values - values.mean()
    acf = np.array([x @ x] + [x[:-k] @ x[k:] for k in range(1, max_lag + 1)]) / (x @ x)
    nonpos = np.flatnonzero(acf <= 0.0)
    window = int(nonpos[0]) if nonpos.size else acf.size
    if window < 3:
        return math.inf
    tau, target = np.arange(window), acf[:window]
    rho1 = min(max(target[1], 1e-6), 1.0 - 1e-6)
    sol = least_squares(
        lambda p: (1.0 + np.exp(p[1]) * tau) ** (-np.exp(p[0])) - target,
        np.log([1.0, max(-math.log(rho1), 1e-4)]), xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=20000,
    )
    return 1.0 + float(np.exp(sol.x[0]))


def identifiable_series(station: Station, years: int, rng: np.random.Generator) -> np.ndarray:
    """A discharge series whose ACF has a power-law shape the model can identify.

    About one two-year draw in a hundred has an exponential-like sample ACF;
    the fit then runs off to alpha ~ 1e6 and `supcbi identify` exits 2,
    because the quantiles of so narrow a Gamma measure collapse. Such draws
    are redrawn, so the workload measures calibration, not that failure.
    """
    while True:
        values = discharge_series(station, years, rng)
        if acf_exponent(values) < DEGENERATE_ALPHA:
            return values


def write_series(path: Path, values: np.ndarray) -> Path:
    """`timestamp,discharge_m3s` CSV with float-hour timestamps (no time zone)."""
    body = "".join(f"{k}.0,{v:.9g}\n" for k, v in enumerate(values.tolist()))
    return write(path, "timestamp,discharge_m3s\n" + body)
