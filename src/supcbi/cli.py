"""Command-line surface: lift | solve | sweep | simulate | identify | verify.

Deterministic batch tool: flat key=value configs in, CSV/text reports out.
Exit codes: 0 success, 2 config error (an --out that cannot be created or
written included), 3 infeasible problem, 4 numerical failure. Each command
returns its exit code, its reports and the text it echoes. `main` alone
writes the reports, as UTF-8 with \\n line ends, once the command has
returned, so a command that raises leaves no --out behind.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .control import (
    ControlProblem,
    InfeasibleProblem,
    SweepRow,
    bke_residual_J,
    bke_residual_K,
    solve,
    sweep,
    write_sweep_csv,
)
from .identify import empirical_acf, fit_acf, fit_moments, format_fit_report, read_series_csv, write_fit_report_csv
from .lift import _convergence, build_lift, convergence_report, format_convergence_table, write_lift_csv
from .measures import GammaMixingMeasure, TemperedStableLevy, levy_moment
from .process import (
    Controller,
    SupCbiModel,
    _b_from_d,
    _d_from_b,
    grid_mean_variance,
    path_stats,
    simulate,
    stationary_mean,
    stationary_variance,
    write_path_csv,
)

__all__ = ["main"]

# a command's exit code, its reports by file name, and the text it echoes
Result = tuple[int, dict[str, str], str]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# verify's BKE check certifies a chunk of draws per call, at most this many
# state rows (draws x states) unless one draw has more; peak memory then does
# not grow with draws x states
_BKE_ROWS = 2**14
# verify refuses more state rows in all than this (about 2 s of certificates)
_MAX_BKE_ROWS = 2**20


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_MODEL_KEYS = {"A", "B", "D", "c1", "c2", "alpha", "beta", "Dbeta", "baseflow", "m"}
# a multi-site sweep reads the grid keys from its own config only, and passes
# the site settings from it to the sites that leave them unset
_GRID_KEYS = {"Kbar_grid", "sites_dir"}
_SITE_SETTINGS = {"Qhat", "Qabs", "Pbar"}
_KEYS = {
    "lift": {"alpha", "beta", "Dbeta", "D", "m_min", "m_max"},
    "solve": _MODEL_KEYS | {"Qhat", "Qabs", "Kbar", "Pbar"},
    "sweep": _MODEL_KEYS | _SITE_SETTINGS | _GRID_KEYS,
    "simulate": _MODEL_KEYS | {"horizon", "dt", "eps", "seed", "rho", "u", "xhat"},
    "identify": {"series", "D", "max_lag", "mode", "m", "restarts", "seed"},
    "verify": _MODEL_KEYS | {"horizon", "dt", "eps", "seed", "perturb", "states", "draws"},
}


def _parse_config(path: Path, command: str) -> dict[str, str]:
    allowed = _KEYS[command]
    config: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r} for command {command}")
        if key in config:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        config[key] = value
    return config


def _get_float(config: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in config:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(config[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {config[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {config[key]!r}")
    return value


def _get_int(config: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in config:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(config[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {config[key]!r}") from exc


def _override(flag: int | None, config: dict[str, str], key: str, default: int) -> int:
    """A command-line flag (--m, --seed) wins over the config key, which wins over the default."""
    return flag if flag is not None else _get_int(config, key, default)


def _get_d(config: dict[str, str]) -> float | None:
    """The rate factor D when the config gives it; it must lie in (0, 1]."""
    if "D" not in config:
        return None
    d_val = _get_float(config, "D")
    if not 0.0 < d_val <= 1.0:
        raise ConfigError(f"D must lie in (0, 1], got {d_val}")
    return d_val


def _mixing_measure(config: dict[str, str], d_val: float | None) -> GammaMixingMeasure:
    """pi from alpha and exactly one of beta and Dbeta; Dbeta needs the rate factor D."""
    alpha = _get_float(config, "alpha")
    if ("beta" in config) == ("Dbeta" in config):
        raise ConfigError("exactly one of beta / Dbeta must be given")
    if "beta" in config:
        return GammaMixingMeasure(alpha=alpha, beta=_get_float(config, "beta"))
    if d_val is None:
        raise ConfigError("Dbeta needs D to resolve the rate scale")
    return GammaMixingMeasure(alpha=alpha, beta=_get_float(config, "Dbeta") / d_val)


def _build_model(config: dict[str, str]) -> SupCbiModel:
    """The config's model: B given, or pinned to (1 - D)/M1 by a given D.

    A given B fixes D = 1 - B*M1, which a D given as well must match to 1e-6
    and which Dbeta is divided by.
    """
    d_val = _get_d(config)
    nu = TemperedStableLevy(c1=_get_float(config, "c1"), c2=_get_float(config, "c2"))
    if "B" in config:
        b_val = _get_float(config, "B")
        d_of_b = _d_from_b(b_val, levy_moment(nu, 1))
        if d_val is not None and abs(d_val - d_of_b) > 1e-6 * d_val:
            raise ConfigError(f"inconsistent B and D: 1 - B*M1 = {d_of_b:.9g} but D = {d_val:.9g}")
        d_val = d_of_b
    elif d_val is None:
        raise ConfigError("need D (or B with c1, c2) to resolve the rate scale")
    else:
        b_val = _b_from_d(nu, d_val)
    return SupCbiModel(
        A=_get_float(config, "A"),
        B=b_val,
        pi=_mixing_measure(config, d_val),
        nu=nu,
        baseflow=_get_float(config, "baseflow", 0.0),
    )


def _control_problem(args: argparse.Namespace, config: dict[str, str], kbar: float) -> ControlProblem:
    """The solve/sweep problem of a config: model, lift, target, Pbar, and the cost bound kbar."""
    model = _build_model(config)
    return ControlProblem(
        model=model,
        lift=build_lift(model.pi, _override(args.m, config, "m", 8)),
        kbar=kbar,
        qhat=_get_float(config, "Qhat") if "Qhat" in config else None,
        qabs=_get_float(config, "Qabs") if "Qabs" in config else None,
        pbar=_get_float(config, "Pbar") if "Pbar" in config else None,
    )


def cmd_lift(args: argparse.Namespace, config: dict[str, str]) -> Result:
    pi = _mixing_measure(config, _get_d(config))
    m_max = _override(args.m, config, "m_max", 13)
    m_min = _get_int(config, "m_min", min(6, m_max))
    rows, lift = _convergence(pi, m_min, m_max)
    table = format_convergence_table(rows)
    return EXIT_OK, {"lift.csv": write_lift_csv(lift), "convergence.csv": table}, table


def _solution_lines(sol) -> list[str]:
    lines = [
        f"case: {sol.case_label}",
        f"q: {sol.q:.17g}",
        f"hbar: {sol.hbar:.17g}",
        f"rho: {'arbitrary' if sol.rho_arbitrary else format(sol.rho, '.17g')}",
        f"u: {sol.u:.17g}",
        f"J: {sol.J:.17g}",
        f"K: {sol.K:.17g}",
    ]
    if sol.P is not None:
        lines.append(f"P: {sol.P:.17g}")
        lines.append(f"active_constraint: {sol.active_constraint}")
    if not sol.attained:
        lines.append("note: infimum only; J approaches Var[Y_n] as h -> 0 but no minimizer exists")
    return lines


def cmd_solve(args: argparse.Namespace, config: dict[str, str]) -> Result:
    sol = solve(_control_problem(args, config, _get_float(config, "Kbar")))
    text = "\n".join(_solution_lines(sol)) + "\n"
    return EXIT_OK, {"solution.txt": text}, text


def _parse_grid(spec_str: str) -> list[float]:
    try:
        grid = [float(tok) for tok in spec_str.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"Kbar_grid: not a number list: {spec_str!r}") from exc
    if not grid or not all(0.0 < v < math.inf for v in grid):
        raise ConfigError("Kbar_grid must list positive finite values")
    return grid


def cmd_sweep(args: argparse.Namespace, config: dict[str, str]) -> Result:
    if "Kbar_grid" not in config:
        raise ConfigError("missing required key 'Kbar_grid'")
    grid = _parse_grid(config["Kbar_grid"])
    if "sites_dir" in config:
        return _multi_site_sweep(args, config, grid)
    rows = sweep(_control_problem(args, config, grid[0]), grid)
    echo = f"wrote {len(rows)} sweep rows to {Path(args.out) / 'sweep.csv'}"
    return EXIT_OK, {"sweep.csv": write_sweep_csv(rows)}, echo


def _multi_site_sweep(args: argparse.Namespace, config: dict[str, str], grid: list[float]) -> Result:
    """One sweep per site config in sites_dir, and each Kbar's sites of least and most J.

    A key the sweep would ignore is a config error: a model key in the
    global config, or a grid key in a site config.
    """
    if unused := sorted(config.keys() - _GRID_KEYS - _SITE_SETTINGS):
        raise ConfigError(f"key {unused[0]!r} has no effect on a multi-site sweep; set it per site")
    sites_dir = Path(config["sites_dir"])
    site_paths = sorted(sites_dir.glob("*.cfg"))
    if not site_paths:
        raise ConfigError(f"no *.cfg site configs found in {sites_dir}")
    per_site: dict[str, list[SweepRow]] = {}
    for path in site_paths:
        site_config = _parse_config(path, "sweep")
        if unused := sorted(site_config.keys() & _GRID_KEYS):
            raise ConfigError(f"{path}: key {unused[0]!r} has no effect in a site config")
        # the global Pbar and target fill only what the site leaves unset;
        # Qhat and Qabs are two forms of one setting
        for keys in (("Pbar",), ("Qhat", "Qabs")):
            if not any(key in site_config for key in keys):
                site_config.update({key: config[key] for key in keys if key in config})
        per_site[path.stem] = sweep(_control_problem(args, site_config, grid[0]), grid)
    reports = {f"sweep_{site}.csv": write_sweep_csv(rows) for site, rows in per_site.items()}
    lines = ["Kbar,argmin_site,argmax_site\n"]
    for idx, kbar in enumerate(grid):
        js = {site: rows[idx].solution.J for site, rows in per_site.items() if rows[idx].solution is not None}
        best, worst = min(js, key=js.get, default=""), max(js, key=js.get, default="")
        lines.append(f"{kbar:.17g},{best},{worst}\n")
    reports["multisite.csv"] = "".join(lines)
    return EXIT_OK, reports, f"wrote {len(per_site)} site sweeps and multisite.csv to {Path(args.out)}"


def cmd_simulate(args: argparse.Namespace, config: dict[str, str]) -> Result:
    model = _build_model(config)
    lift = build_lift(model.pi, _override(args.m, config, "m", 4))
    controller = None
    if "rho" in config or "u" in config or "xhat" in config:
        controller = Controller(
            rho=_get_float(config, "rho"),
            u=_get_float(config, "u", 0.0),
            xhat=_get_float(config, "xhat"),
        )
    eps = _get_float(config, "eps")
    path = simulate(
        model, lift,
        horizon=_get_float(config, "horizon"),
        dt=_get_float(config, "dt", 1.0),
        eps=eps,
        seed=_override(args.seed, config, "seed", 0),
        controller=controller,
    )
    stats = path_stats(path, 0)
    trunc = model.truncated(eps)
    lines = [
        f"samples: {path.y_total.size}",
        f"mean_y: {stats.mean:.17g}",
        f"variance_y: {stats.variance:.17g}",
        f"skewness_y: {'undefined' if stats.degenerate else format(stats.skewness, '.17g')}",
        f"kurtosis_y: {'undefined' if stats.degenerate else format(stats.kurtosis, '.17g')}",
        f"closed_form_mean_y: {stationary_mean(trunc, lift):.17g}",
        f"closed_form_variance_y: {stationary_variance(trunc, lift):.17g}",
        f"truncation_bias: {model.nu.truncation_bias(eps):.17g}",
    ]
    if controller is not None:
        x = path.x
        lines.append(f"mean_x: {float(np.mean(x)):.17g}")
        lines.append(f"mean_sq_tracking_error: {float(np.mean((x - controller.xhat) ** 2)):.17g}")
        lines.append(f"mean_sq_control_rate: {float(np.mean(path.c_rate ** 2)):.17g}")
    if stats.degenerate:
        lines.append("note: the recorded path is constant, so its skewness and kurtosis are undefined")
    text = "\n".join(lines) + "\n"
    return EXIT_OK, {"path.csv": write_path_csv(path), "stats.txt": text}, text


def cmd_identify(args: argparse.Namespace, config: dict[str, str]) -> Result:
    if "series" not in config:
        raise ConfigError("missing required key 'series'")
    series_path = Path(config["series"])
    try:
        with open(series_path, "r") as fh:
            series = read_series_csv(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read series {series_path}: {exc}") from exc
    d_val = _get_float(config, "D", 0.5)
    max_lag = _get_int(config, "max_lag", min(int(series.values.size / 4) - 1, 200))
    mode = config.get("mode", "analytic")
    acf = empirical_acf(series, max_lag)
    acf_fit = fit_acf(acf, d_val, dt=series.dt)
    report = fit_moments(
        series, acf_fit.alpha, acf_fit.beta, d=d_val, mode=mode,
        acf_window=acf_fit.window,
        restarts=_get_int(config, "restarts", 20),
        seed=_override(args.seed, config, "seed", 20240601),
    )
    text = format_fit_report(report)
    if acf_fit.degenerate:
        text += "warning: ACF fit degenerate (alpha very large; decay is exponential-like)\n"
    return EXIT_OK, {"fit_report.csv": write_fit_report_csv(report), "fit_report.txt": text}, text


def _parse_perturb(value: str):
    """kind,i,j,factor as (str, int, int, float); `bke_residual_J`/`_K` judge the values."""
    parts = value.split(",")
    if len(parts) != 4:
        raise ConfigError("perturb must be kind,i,j,factor")
    try:
        return parts[0].strip(), int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad perturb spec {value!r}") from exc


def cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> Result:
    model = _build_model(config)
    seed = _override(args.seed, config, "seed", 0)
    n_states = _get_int(config, "states", 100)
    n_draws = _get_int(config, "draws", 20)
    if n_states < 1 or n_draws < 1:
        raise ConfigError(f"states and draws must be at least 1, got {n_states} and {n_draws}")
    if n_states * n_draws > _MAX_BKE_ROWS:
        raise ConfigError(
            f"{n_states} states x {n_draws} draws exceeds budget {_MAX_BKE_ROWS} state rows; "
            "lower states or draws"
        )
    perturb = _parse_perturb(config["perturb"]) if "perturb" in config else None
    # check 3's path is drawn first, so a refused path stops verify before any check runs
    eps = _get_float(config, "eps", 1e-3)
    horizon = _get_float(config, "horizon", 200.0)
    dt = _get_float(config, "dt", 0.5)
    mc_lift = build_lift(model.pi, _override(args.m, config, "m", 2))
    # one path 8 times the horizon: as many samples as 8 paths, with one burn-in
    path = simulate(model, mc_lift, horizon=8 * horizon, dt=dt, eps=eps, seed=seed)
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    ok = True

    # 1. dyadic convergence rate of R_n approaches (alpha - 1)/alpha
    last = convergence_report(model.pi, 9, 10)[-1]
    rate = last.rate if last.rate is not None else math.nan
    rate_ref = (model.pi.alpha - 1.0) / model.pi.alpha
    rate_ok = abs(rate - rate_ref) < 0.05
    ok &= rate_ok
    lines.append(
        f"{'PASS' if rate_ok else 'FAIL'} lift convergence rate {rate:.3f}"
        f" vs (alpha-1)/alpha = {rate_ref:.3f}"
    )

    # 2. BKE residuals for small lifts, a chunk of draws per batched call
    tol = 1e-8
    chunk = max(1, _BKE_ROWS // n_states)
    for m in (0, 1, 2):
        lift = build_lift(model.pi, m)
        n = lift.n
        residuals = np.empty((n_draws, 2))
        for start in range(0, n_draws, chunk):
            k = min(chunk, n_draws - start)
            q, h, states = np.empty(k), np.empty(k), np.empty((k, n_states, n + 1))
            for draw in range(k):
                q[draw] = rng.uniform(0.2, 2.0)
                h[draw] = rng.uniform(0.05, 3.0)
                states[draw] = rng.uniform(0.0, 5.0, size=(n_states, n + 1))
            residuals[start:start + k, 0] = bke_residual_J(model, lift, q, h, states, perturb=perturb)
            residuals[start:start + k, 1] = bke_residual_K(model, lift, q, h, states, perturb=perturb)
        # np.max, unlike max(), lets a NaN residual through to FAIL
        worst_j, worst_k = residuals.max(axis=0)
        res_ok = worst_j <= tol and worst_k <= tol
        ok &= res_ok
        lines.append(
            f"{'PASS' if res_ok else 'FAIL'} BKE residuals n={n}:"
            f" variance {worst_j:.3e}, cost {worst_k:.3e} (tol {tol:.0e})"
        )

    # 3. Monte Carlo vs closed form, at the exact standard error of the path mean
    trunc = model.truncated(eps)
    mc_mean = float(np.mean(path.y_total))
    se = math.sqrt(grid_mean_variance(trunc, mc_lift, path.y_total.size, dt))
    cf_mean = stationary_mean(trunc, mc_lift)
    mc_ok = abs(mc_mean - cf_mean) <= 3.0 * se
    ok &= mc_ok
    lines.append(
        f"{'PASS' if mc_ok else 'FAIL'} MC mean {mc_mean:.6g} vs closed form {cf_mean:.6g}"
        f" (3 SE = {3.0 * se:.3g})"
    )

    # 4. truncation bias for the chosen eps
    bias = model.nu.truncation_bias(eps)
    lines.append(f"PASS truncation bias at eps={eps:.6g}: {bias:.6g}"
                 f" ({bias / model.M1:.3%} of M1)")

    text = "\n".join(lines) + "\n"
    return EXIT_OK if ok else EXIT_NUMERICAL, {"verify.txt": text}, text


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supcbi",
        description="River discharge modeling and ergodic control with supCBI processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "lift": cmd_lift,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "simulate": cmd_simulate,
        "identify": cmd_identify,
        "verify": cmd_verify,
    }
    for name, handler in handlers.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=".")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--m", type=int, default=None)
        cmd.add_argument("--quiet", action="store_true")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, write its reports and echo its text; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        code, reports, echo = args.handler(args, _parse_config(Path(args.config), args.command))
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in reports.items():
            (out / name).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"config error: cannot write reports to {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(echo.rstrip("\n"))
    return code


if __name__ == "__main__":
    sys.exit(main())
