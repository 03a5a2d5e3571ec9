"""Command-line surface: lift | solve | sweep | simulate | identify | verify.

Deterministic batch tool: flat key=value configs in, CSV/text reports out.
Exit codes: 0 success, 2 config error, 3 infeasible problem, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .control import (
    ControlProblem,
    InfeasibleProblem,
    bke_residual_J,
    bke_residual_K,
    solve,
    sweep,
    write_sweep_csv,
)
from .identify import empirical_acf, fit_acf, fit_moments, format_fit_report, read_series_csv, write_fit_report_csv
from .lift import build_lift, convergence_report, format_convergence_table, write_lift_csv
from .measures import GammaMixingMeasure, TemperedStableLevy, levy_moment
from .process import (
    Controller,
    SupCbiModel,
    _b_from_d,
    _d_from_b,
    path_stats,
    simulate,
    stationary_mean,
    stationary_variance,
    write_path_csv,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_MODEL_KEYS = {"A", "B", "D", "c1", "c2", "alpha", "beta", "Dbeta", "baseflow", "m"}
_KEYS = {
    "lift": {"alpha", "beta", "Dbeta", "D", "m", "m_min", "m_max"},
    "solve": _MODEL_KEYS | {"Qhat", "Qabs", "Kbar", "Pbar"},
    "sweep": _MODEL_KEYS | {"Qhat", "Qabs", "Pbar", "Kbar_grid", "sites_dir"},
    "simulate": _MODEL_KEYS | {"horizon", "dt", "eps", "seed", "rho", "u", "xhat"},
    "identify": {"series", "D", "max_lag", "mode", "m", "restarts", "seed"},
    "verify": _MODEL_KEYS | {"horizon", "dt", "eps", "seed", "Qhat", "Qabs", "Kbar", "perturb", "states", "draws"},
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
        return float(config[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {config[key]!r}") from exc


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
        pbar=_get_float(config, "Pbar") if "Pbar" in config else None,
        **_target_kwargs(config),
    )


def _target_kwargs(config: dict[str, str]) -> dict[str, float]:
    if ("Qhat" in config) == ("Qabs" in config):
        raise ConfigError("exactly one of Qhat / Qabs must be given")
    if "Qhat" in config:
        return {"qhat": _get_float(config, "Qhat")}
    return {"qabs": _get_float(config, "Qabs")}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_lift(args: argparse.Namespace) -> int:
    config = _parse_config(Path(args.config), "lift")
    pi = _mixing_measure(config, _get_d(config) if "Dbeta" in config else None)
    m_max = _override(args.m, config, "m_max", _get_int(config, "m", 13))
    m_min = _get_int(config, "m_min", min(6, m_max))
    rows = convergence_report(pi, m_min, m_max)
    lift = build_lift(pi, m_max)
    out = _out_dir(args)
    with open(out / "lift.csv", "w", newline="\n") as fh:
        write_lift_csv(lift, fh)
    table = format_convergence_table(rows)
    (out / "convergence.csv").write_text(table)
    _say(args, table.rstrip("\n"))
    return EXIT_OK


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


def cmd_solve(args: argparse.Namespace) -> int:
    config = _parse_config(Path(args.config), "solve")
    sol = solve(_control_problem(args, config, _get_float(config, "Kbar")))
    lines = _solution_lines(sol)
    text = "\n".join(lines) + "\n"
    (_out_dir(args) / "solution.txt").write_text(text)
    _say(args, text.rstrip("\n"))
    return EXIT_OK


def _parse_grid(spec_str: str) -> list[float]:
    try:
        grid = [float(tok) for tok in spec_str.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"Kbar_grid: not a number list: {spec_str!r}") from exc
    if not grid or any(v <= 0.0 for v in grid):
        raise ConfigError("Kbar_grid must list positive values")
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _parse_config(Path(args.config), "sweep")
    if "Kbar_grid" not in config:
        raise ConfigError("missing required key 'Kbar_grid'")
    grid = _parse_grid(config["Kbar_grid"])
    out = _out_dir(args)
    if "sites_dir" in config:
        return _multi_site_sweep(args, config, grid, out)
    rows = sweep(_control_problem(args, config, grid[0]), grid)
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        write_sweep_csv(rows, fh)
    _say(args, f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return EXIT_OK


def _multi_site_sweep(
    args: argparse.Namespace, config: dict[str, str], grid: list[float], out: Path
) -> int:
    sites_dir = Path(config["sites_dir"])
    site_paths = sorted(sites_dir.glob("*.cfg"))
    if not site_paths:
        raise ConfigError(f"no *.cfg site configs found in {sites_dir}")
    per_site: dict[str, list] = {}
    for path in site_paths:
        site = path.stem
        site_config = _parse_config(path, "sweep")
        site_config.setdefault("Pbar", config.get("Pbar", ""))
        if not site_config.get("Pbar"):
            site_config.pop("Pbar", None)
        for key in ("Qhat", "Qabs"):
            if key in config and key not in site_config:
                site_config[key] = config[key]
        rows = sweep(_control_problem(args, site_config, grid[0]), grid)
        per_site[site] = rows
        with open(out / f"sweep_{site}.csv", "w", newline="\n") as fh:
            write_sweep_csv(rows, fh)
    with open(out / "multisite.csv", "w", newline="\n") as fh:
        fh.write("Kbar,argmin_site,argmax_site\n")
        for idx, kbar in enumerate(grid):
            best = worst = ""
            best_j = math.inf
            worst_j = -math.inf
            for site, rows in per_site.items():
                sol = rows[idx].solution
                if sol is None:
                    continue
                if sol.J < best_j:
                    best, best_j = site, sol.J
                if sol.J > worst_j:
                    worst, worst_j = site, sol.J
            fh.write(f"{kbar:.17g},{best},{worst}\n")
    _say(args, f"wrote {len(per_site)} site sweeps and multisite.csv to {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _parse_config(Path(args.config), "simulate")
    model = _build_model(config)
    lift = build_lift(model.pi, _override(args.m, config, "m", 4))
    controller = None
    if "rho" in config or "u" in config or "xhat" in config:
        controller = Controller(
            rho=_get_float(config, "rho"),
            u=_get_float(config, "u", 0.0),
            xhat=_get_float(config, "xhat"),
        )
    seed = _override(args.seed, config, "seed", 0)
    path = simulate(
        model, lift,
        horizon=_get_float(config, "horizon"),
        dt=_get_float(config, "dt", 1.0),
        eps=_get_float(config, "eps"),
        seed=seed,
        controller=controller,
    )
    out = _out_dir(args)
    with open(out / "path.csv", "w", newline="\n") as fh:
        write_path_csv(path, fh)
    stats = path_stats(path)
    lines = [
        f"samples: {path.y_total.size}",
        f"mean_y: {stats.mean:.17g}",
        f"variance_y: {stats.variance:.17g}",
        f"skewness_y: {stats.skewness:.17g}",
        f"kurtosis_y: {stats.kurtosis:.17g}",
        f"closed_form_mean_y: {stationary_mean(model.truncated(path.eps), lift):.17g}",
        f"closed_form_variance_y: {stationary_variance(model.truncated(path.eps), lift):.17g}",
        f"truncation_bias: {path.truncation_bias:.17g}",
    ]
    if controller is not None:
        x = path.x
        lines.append(f"mean_x: {float(np.mean(x)):.17g}")
        lines.append(f"mean_sq_tracking_error: {float(np.mean((x - controller.xhat) ** 2)):.17g}")
        lines.append(f"mean_sq_control_rate: {float(np.mean(path.c_rate ** 2)):.17g}")
    text = "\n".join(lines) + "\n"
    (out / "stats.txt").write_text(text)
    _say(args, text.rstrip("\n"))
    return EXIT_OK


def cmd_identify(args: argparse.Namespace) -> int:
    config = _parse_config(Path(args.config), "identify")
    if "series" not in config:
        raise ConfigError("missing required key 'series'")
    series_path = Path(config["series"])
    try:
        with open(series_path, "r") as fh:
            series = read_series_csv(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read series {series_path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d_val = _get_float(config, "D", 0.5)
    max_lag = _get_int(config, "max_lag", min(int(series.values.size / 4) - 1, 200))
    mode = config.get("mode", "analytic")
    acf = empirical_acf(series, max_lag)
    acf_fit = fit_acf(acf, d_val, dt=series.dt)
    report = fit_moments(
        series, acf_fit.alpha, acf_fit.beta, d=d_val, mode=mode,
        m=_override(args.m, config, "m", 8),
        acf_window=acf_fit.window,
        restarts=_get_int(config, "restarts", 20),
        seed=_override(args.seed, config, "seed", 20240601),
    )
    out = _out_dir(args)
    with open(out / "fit_report.csv", "w", newline="\n") as fh:
        write_fit_report_csv(report, fh)
    text = format_fit_report(report)
    if acf_fit.degenerate:
        text += "warning: ACF fit degenerate (alpha very large; decay is exponential-like)\n"
    (out / "fit_report.txt").write_text(text)
    _say(args, text.rstrip("\n"))
    return EXIT_OK


def _parse_perturb(value: str):
    parts = value.split(",")
    if len(parts) != 4:
        raise ConfigError("perturb must be kind,i,j,factor")
    kind = parts[0].strip()
    if kind not in ("a", "b", "const"):
        raise ConfigError(f"perturb kind must be a, b, or const, got {kind!r}")
    try:
        return kind, int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad perturb spec {value!r}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    config = _parse_config(Path(args.config), "verify")
    model = _build_model(config)
    seed = _override(args.seed, config, "seed", 0)
    n_states = _get_int(config, "states", 100)
    n_draws = _get_int(config, "draws", 20)
    if n_states < 1 or n_draws < 1:
        raise ConfigError(f"states and draws must be at least 1, got {n_states} and {n_draws}")
    perturb = _parse_perturb(config["perturb"]) if "perturb" in config else None
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    ok = True

    # 1. dyadic convergence rate of R_n approaches (alpha - 1)/alpha
    rows = convergence_report(model.pi, 6, 10)
    rate = rows[-1].rate if rows[-1].rate is not None else math.nan
    rate_ref = (model.pi.alpha - 1.0) / model.pi.alpha
    rate_ok = abs(rate - rate_ref) < 0.05
    ok &= rate_ok
    lines.append(
        f"{'PASS' if rate_ok else 'FAIL'} lift convergence rate {rate:.3f}"
        f" vs (alpha-1)/alpha = {rate_ref:.3f}"
    )

    # 2. BKE residuals for small lifts
    tol = 1e-8
    for m in (0, 1, 2):
        lift = build_lift(model.pi, m)
        n = lift.n
        worst_j = worst_k = 0.0
        for _ in range(n_draws):
            q = float(rng.uniform(0.2, 2.0))
            h = float(rng.uniform(0.05, 3.0))
            states = rng.uniform(0.0, 5.0, size=(n_states, n + 1))
            worst_j = max(worst_j, bke_residual_J(model, lift, q, h, states, perturb=perturb))
            worst_k = max(worst_k, bke_residual_K(model, lift, q, h, states, perturb=perturb))
        res_ok = worst_j <= tol and worst_k <= tol
        ok &= res_ok
        lines.append(
            f"{'PASS' if res_ok else 'FAIL'} BKE residuals n={n}:"
            f" variance {worst_j:.3e}, cost {worst_k:.3e} (tol {tol:.0e})"
        )

    # 3. Monte Carlo vs closed form, replicate-mean standard errors
    eps = _get_float(config, "eps", 1e-3)
    horizon = _get_float(config, "horizon", 200.0)
    dt = _get_float(config, "dt", 0.5)
    lift = build_lift(model.pi, _override(args.m, config, "m", 2))
    trunc = model.truncated(eps)
    reps = 8
    means = np.empty(reps)
    for rep in range(reps):
        path = simulate(model, lift, horizon=horizon, dt=dt, eps=eps, seed=seed, replicate=rep)
        means[rep] = float(np.mean(path.y_total))
    mc_mean = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(reps))
    cf_mean = stationary_mean(trunc, lift)
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
    (_out_dir(args) / "verify.txt").write_text(text)
    _say(args, text.rstrip("\n"))
    return EXIT_OK if ok else EXIT_NUMERICAL


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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
