"""Two-stage identification of a supCBI discharge model from observed series.

Stage one fits the Gamma mixing measure (alpha, D*beta) to the empirical ACF
over its longest positive prefix. Stage two matches moments: with D fixed and
B pinned to (1 - D)/M1, a simplex search over (c1, c2, A, baseflow) minimizes
the sum of squared relative errors of mean, variance, skewness, and kurtosis
(or mean and variance only in analytic mode). The model's four statistics
are closed forms on the Gamma continuum; skewness and kurtosis come from
the exact stationary cumulants (`process.stationary_cumulants`).

Every sample statistic of the observed series comes from `process.path_stats`:
the ACF, the unbiased variance, and the biased standardized skewness and
kurtosis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Sequence

import numpy as np

from .lift import GammaContinuum, Spectrum
from .measures import GammaMixingMeasure, TemperedStableLevy
from .process import SupCbiModel, _b_from_d, path_stats, stationary_cumulants, stationary_mean, stationary_variance

__all__ = [
    "DischargeSeries",
    "AcfFit",
    "FitReport",
    "read_series_csv",
    "empirical_acf",
    "fit_acf",
    "moment_objective",
    "fit_moments",
    "format_fit_report",
    "write_fit_report_csv",
]

_STAT_NAMES = ("Average", "Variance", "Skewness", "Kurtosis")


@dataclass(frozen=True)
class DischargeSeries:
    """Uniformly sampled discharge record; dt in hours, values in m^3/s."""

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"sampling interval must be positive, got {self.dt}")
        if values.ndim != 1 or values.size < 100:
            raise ValueError("series must be one-dimensional with at least 100 samples")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("discharge values must be finite and nonnegative")
        object.__setattr__(self, "values", values)


def _iso_hours(stamp: str) -> float:
    """Hours since the epoch of an ISO timestamp; naive stamps are UTC."""
    moment = datetime.fromisoformat(stamp.strip())
    if moment.tzinfo is None:
        # naive stamps are UTC, so the host time zone cannot make them non-uniform
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp() / 3600.0


def read_series_csv(inp: IO[str]) -> DischargeSeries:
    """Parse `timestamp,discharge_m3s` rows; timestamps are hours or ISO dates.

    Blank lines are skipped. The first row sets the form of every timestamp:
    hours if its stamp is a number, ISO otherwise. ISO timestamps without an
    offset are read as UTC; those with one keep it.
    """
    header = inp.readline().strip()
    if header != "timestamp,discharge_m3s":
        raise ValueError(f"expected header 'timestamp,discharge_m3s', got {header!r}")
    rows = itertools.filterfalse(str.isspace, inp)
    first = next(rows, None)
    if first is None:
        raise ValueError("series needs at least two rows")
    try:
        float(first.split(",", 1)[0])
        converters = None
    except ValueError:
        converters = {0: _iso_hours}
    data = np.loadtxt(
        itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2,
        converters=converters,
    )
    if data.shape[1] != 2:
        raise ValueError(f"expected two fields per row, got {data.shape[1]}")
    if data.shape[0] < 2:
        raise ValueError("series needs at least two rows")
    steps = np.diff(data[:, 0])
    dt = float(steps[0])
    if dt <= 0.0 or np.any(np.abs(steps - dt) > 1e-6 * max(abs(dt), 1.0)):
        raise ValueError("timestamps must be uniformly spaced and increasing")
    # a contiguous copy, so the series does not keep the timestamp column alive
    return DischargeSeries(dt=dt, values=np.ascontiguousarray(data[:, 1]))


def empirical_acf(series: DischargeSeries, max_lag: int) -> np.ndarray:
    """Sample autocorrelation (see `path_stats`) for lags 0..max_lag; lag 0 is exactly 1."""
    n = series.values.size
    if not 0 < max_lag < n / 4:
        raise ValueError(f"max_lag must lie in (0, N/4), got {max_lag} with N = {n}")
    stats = path_stats(series.values, max_lag)
    if stats.degenerate:
        raise ValueError("constant series has no autocorrelation")
    return stats.acf


@dataclass(frozen=True)
class AcfFit:
    alpha: float
    beta: float
    dbeta: float  # the identifiable product D * beta
    window: int  # number of lags used, including lag 0
    residual: float  # sum of squared fit residuals
    degenerate: bool  # True when alpha drifts very large (exponential-like decay)


def fit_acf(acf: np.ndarray, d: float, dt: float = 1.0) -> AcfFit:
    """Least squares of (1 + D*beta*tau)^-(alpha-1) against the empirical ACF.

    The fit window is the longest prefix over which the empirical ACF stays
    positive. Only the product D*beta is identifiable from the ACF; beta is
    reported for the supplied D.
    """
    from scipy.optimize import least_squares
    acf = np.asarray(acf, dtype=float)
    if acf.size < 3 or abs(acf[0] - 1.0) > 1e-12:
        raise ValueError("need acf values starting at lag 0 with acf[0] = 1")
    if not 0.0 < d < 1.0:
        raise ValueError(f"D must lie in (0, 1), got {d}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"sampling interval must be positive and finite, got {dt}")
    nonpos = np.nonzero(acf <= 0.0)[0]
    window = int(nonpos[0]) if nonpos.size else acf.size
    if window < 3:
        raise ValueError("no usable positive-ACF window (need at least 3 positive lags)")
    tau = np.arange(window) * dt
    target = acf[:window]

    def residuals(params: np.ndarray) -> np.ndarray:
        a_minus_1, dbeta = np.exp(params)
        return (1.0 + dbeta * tau) ** (-a_minus_1) - target

    # crude initial guess from the lag-1 value, refined by the solver
    rho1 = min(max(target[1], 1e-6), 1.0 - 1e-6)
    x0 = np.log([1.0, max(-math.log(rho1) / dt, 1e-4)])
    sol = least_squares(residuals, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=20000)
    if not sol.success:
        raise RuntimeError(f"ACF fit failed to converge: {sol.message}")
    # Python floats: numpy scalars would turn a later 0/0 into a warning, not an error
    a_minus_1, dbeta = np.exp(sol.x).tolist()
    alpha = 1.0 + a_minus_1
    return AcfFit(
        alpha=alpha,
        beta=dbeta / d,
        dbeta=dbeta,
        window=window,
        residual=float(2.0 * sol.cost),
        degenerate=alpha > 50.0,
    )


@dataclass
class FitReport:
    """Moment-matching outcome with the Appendix-style empirical/model table."""

    model: SupCbiModel
    acf_window: int
    E: float
    term_errors: dict[str, float]  # squared relative error per statistic
    empirical: dict[str, float]
    fitted: dict[str, float]
    mode: str  # analytic | full

    def __post_init__(self) -> None:
        total = sum(self.term_errors.values())
        if abs(total - self.E) > 1e-12 * max(abs(self.E), 1.0):
            raise ValueError("error metric must equal the sum of its terms")


def _series_stats(values: np.ndarray) -> dict[str, float]:
    stats = path_stats(values, 0)
    if stats.degenerate:
        raise ValueError("degenerate series: zero variance")
    return dict(zip(_STAT_NAMES, (stats.mean, stats.variance, stats.skewness, stats.kurtosis)))


def _model_stats(
    model: SupCbiModel,
    lift: Spectrum,
    mode: str,
    mc_seed: int | None = None,
    mc_replicates: int | None = None,
    mc_horizon: float | None = None,
    mc_dt: float | None = None,
) -> dict[str, float]:
    """The statistics of `_matched_stats` by name, NaN for those the mode does not match.

    The four mc_* arguments are accepted and unused; they parameterized a
    Monte Carlo estimate of the skewness and kurtosis, and the benchmark
    still passes them.
    """
    return dict(itertools.zip_longest(_STAT_NAMES, _matched_stats(model, lift, mode), fillvalue=math.nan))


def _matched_stats(model: SupCbiModel, lift: Spectrum, mode: str) -> tuple[float, ...]:
    """Closed-form model statistics in _STAT_NAMES order: mean (baseflow included) and variance.

    Full mode adds the skewness kappa_3 / kappa_2^1.5 and the (non-excess)
    kurtosis 3 + kappa_4 / kappa_2^2 of the exact stationary cumulants.
    """
    mean = model.baseflow + stationary_mean(model, lift)
    variance = stationary_variance(model, lift)
    if mode != "full":
        return mean, variance
    _, k2, k3, k4 = stationary_cumulants(model, lift)
    return mean, variance, k3 / k2**1.5, 3.0 + k4 / k2**2


def _fit_error(fitted: Sequence[float], empirical: dict[str, float]) -> tuple[float, list[float]]:
    """E and its terms, the squared relative error of each statistic in `fitted`.

    `fitted` holds the first len(fitted) statistics of _STAT_NAMES. The terms
    are added left to right, not with `sum`, which compensates its rounding
    from Python 3.12 on; E is then the same number on every Python version.
    """
    total, terms = 0.0, []
    for name, fit in zip(_STAT_NAMES, fitted):
        target = empirical[name]
        terms.append(((fit - target) / target) ** 2)
        total += terms[-1]
    return total, terms


def _build_model(
    params: np.ndarray, pi: GammaMixingMeasure, d: float
) -> SupCbiModel:
    """Decode the log/logit search vector into a model with B pinned by D."""
    t1, t2, t3, t4 = np.asarray(params, dtype=float).tolist()  # Python floats unpack faster
    c1 = 1.0 / (1.0 + math.exp(-t1))  # keeps c1 in (0, 1)
    c2 = math.exp(t2)
    a = math.exp(t3)
    baseflow = math.exp(t4)
    nu = TemperedStableLevy(c1=c1, c2=c2)
    return SupCbiModel(A=a, B=_b_from_d(nu, d), pi=pi, nu=nu, baseflow=baseflow)


def moment_objective(
    params: np.ndarray,
    pi: GammaMixingMeasure,
    d: float,
    lift: Spectrum,
    empirical: dict[str, float],
    mode: str = "analytic",
    mc_seed: int | None = None,
    mc_replicates: int | None = None,
    mc_horizon: float | None = None,
    mc_dt: float | None = None,
) -> float:
    """Error metric E: sum of squared relative errors of the matched statistics.

    Analytic mode uses mean and variance only; full mode adds the closed-form
    skewness and kurtosis. The mc_* arguments are accepted and unused, as in
    `_model_stats`.
    """
    names = _STAT_NAMES if mode == "full" else _STAT_NAMES[:2]
    if any(empirical[name] == 0.0 for name in names):
        return 1e12
    try:
        return _fit_error(_matched_stats(_build_model(params, pi, d), lift, mode), empirical)[0]
    except (ValueError, ArithmeticError):  # invalid parameters, or statistics out of float range
        return 1e12


def fit_moments(
    series: DischargeSeries,
    alpha: float,
    beta: float,
    d: float = 0.5,
    mode: str = "analytic",
    acf_window: int = 0,
    restarts: int = 20,
    seed: int = 20240601,
) -> FitReport:
    """Stage-two moment matching with (alpha, beta) fixed from the ACF stage.

    Derivative-free simplex search in log-parameter space over
    (c1, c2, A, baseflow) with random restarts; B = (1 - D)/M1 throughout, so
    the fitted model is always stationary.
    """
    from scipy.optimize import minimize
    if mode not in ("analytic", "full"):
        raise ValueError(f"mode must be 'analytic' or 'full', got {mode}")
    if not 0.0 < d < 1.0:
        raise ValueError(f"D must lie in (0, 1), got {d}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    pi = GammaMixingMeasure(alpha=alpha, beta=beta)
    continuum = GammaContinuum(pi)
    empirical = _series_stats(series.values)

    def objective(params: np.ndarray) -> float:
        return moment_objective(params, pi, d, continuum, empirical, mode=mode)

    rng = np.random.default_rng(seed)
    x0 = np.array([1.0, math.log(0.01), math.log(0.03), math.log(max(empirical["Average"], 0.1))])
    best_x, best_e = None, math.inf
    for k in range(restarts):
        start = x0 if k == 0 else x0 + rng.normal(scale=1.0, size=4)
        sol = minimize(
            objective, start, method="Nelder-Mead",
            options={"fatol": 1e-10, "xatol": 1e-10, "maxiter": 4000, "maxfev": 8000},
        )
        if sol.fun < best_e:
            best_x, best_e = sol.x, float(sol.fun)
        if best_e < 1e-10:
            break
    if best_x is None or not np.all(np.isfinite(best_x)):
        raise RuntimeError("moment matching failed to converge")

    model = _build_model(best_x, pi, d)
    e, terms = _fit_error(_matched_stats(model, continuum, mode), empirical)
    return FitReport(
        model=model,
        acf_window=acf_window,
        E=e,
        term_errors=dict(zip(_STAT_NAMES, terms)),
        empirical=empirical,
        fitted=_model_stats(model, continuum, mode),
        mode=mode,
    )


def format_fit_report(report: FitReport) -> str:
    """Human-readable empirical/model comparison in the statistics-table layout."""
    model = report.model
    lines = [
        "Fitted parameters:",
        f"  A = {model.A:.6g}  B = {model.B:.6g}  c1 = {model.nu.c1:.6g}  c2 = {model.nu.c2:.6g}",
        f"  alpha = {model.pi.alpha:.6g}  beta = {model.pi.beta:.6g}  D = {model.D:.6g}"
        f"  baseflow = {model.baseflow:.6g}",
        f"  ACF window = {report.acf_window} lags; mode = {report.mode}; E = {report.E:.6g}",
        "",
        f"{'Statistic':<12}{'Empirical':>14}{'Model':>14}",
    ]
    for name in _STAT_NAMES:
        emp = report.empirical[name]
        fit = report.fitted.get(name, math.nan)
        fit_str = f"{fit:>14.6g}" if math.isfinite(fit) else f"{'n/a':>14}"
        lines.append(f"{name:<12}{emp:>14.6g}{fit_str}")
    return "\n".join(lines) + "\n"


def write_fit_report_csv(report: FitReport) -> str:
    """Returns the CSV text of the empirical/model comparison, full double precision."""
    lines = ["statistic,empirical,model,squared_rel_error\n"]
    for name in _STAT_NAMES:
        emp = report.empirical[name]
        fit = report.fitted.get(name, math.nan)
        err = report.term_errors.get(name, math.nan)
        fit_str = f"{fit:.17g}" if math.isfinite(fit) else ""
        err_str = f"{err:.17g}" if math.isfinite(err) else ""
        lines.append(f"{name},{emp:.17g},{fit_str},{err_str}\n")
    lines.append(f"E,,,{report.E:.17g}\n")
    return "".join(lines)
