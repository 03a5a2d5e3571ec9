"""River discharge as a superposition of CBI processes.

Library layout: measures (Gamma mixing and tempered stable Levy measures),
lift (quantile Markovian lift), process (model, stationary moments, ACF,
exact simulation), control (closed-form ergodic control and BKE residual
certification), identify (two-stage calibration), cli (batch command line).
"""

from .control import (
    ControlProblem,
    ControlSolution,
    InfeasibleProblem,
    bke_residual_J,
    bke_residual_K,
    eval_J,
    eval_K,
    eval_P,
    p_bounds,
    q_from_target,
    solve,
    solve_hbar,
    sweep,
)
from .identify import (
    DischargeSeries,
    FitReport,
    empirical_acf,
    fit_acf,
    fit_moments,
    read_series_csv,
)
from .lift import GammaContinuum, MarkovianLift, build_lift, convergence_report
from .measures import (
    GammaMixingMeasure,
    TemperedStableLevy,
    inv_mean,
    levy_moment,
    pi_quantile,
)
from .process import (
    Controller,
    SimulatedPath,
    SupCbiModel,
    acf,
    path_stats,
    simulate,
    stationary_mean,
    stationary_variance,
)

__version__ = "0.1.0"

__all__ = [
    "ControlProblem",
    "ControlSolution",
    "Controller",
    "DischargeSeries",
    "FitReport",
    "GammaContinuum",
    "GammaMixingMeasure",
    "InfeasibleProblem",
    "MarkovianLift",
    "SimulatedPath",
    "SupCbiModel",
    "TemperedStableLevy",
    "acf",
    "bke_residual_J",
    "bke_residual_K",
    "build_lift",
    "convergence_report",
    "empirical_acf",
    "eval_J",
    "eval_K",
    "eval_P",
    "fit_acf",
    "fit_moments",
    "inv_mean",
    "levy_moment",
    "p_bounds",
    "path_stats",
    "pi_quantile",
    "q_from_target",
    "read_series_csv",
    "simulate",
    "solve",
    "solve_hbar",
    "stationary_mean",
    "stationary_variance",
    "sweep",
]
