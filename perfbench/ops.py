"""The benchmark's operations: each a timed call into supcbi plus an output check.

An operation is one in-process `supcbi.cli.main([...])` call or one library
call. Checks hold for any correct implementation: they compare against
published numbers, closed-form identities and bounds, never against bytes
produced by a particular version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import supcbi.cli as cli
import supcbi.control as control
import supcbi.identify as identify
from supcbi.lift import build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, levy_moment
from supcbi.process import SupCbiModel

import inputs
from inputs import STATIONS, Station, write

BOUND_TOL = 1e-9  # relative slack on K <= Kbar and P <= Pbar (root-finder tolerance)
BKE_TOL = 1e-8
# Monte Carlo bound, in standard errors estimated from 8 replicates: such an
# estimate is itself noisy, and |t_7| > 10 has probability about 2e-5.
MC_SE = 10.0


@dataclass
class Op:
    metric: str  # the end-to-end latency metric this call is a sample of
    label: str
    call: Callable[[Path], object]  # timed; gets a fresh output directory
    check: Callable[[Path, object], Optional[str]]  # failure message or None
    cli: bool = True


def _cli_op(metric: str, label: str, command: str, config: Path, check) -> Op:
    argv = [command, "--config", str(config), "--quiet", "--out"]
    # `cli.main` is looked up at call time so that a traced run sees the wrapper.
    return Op(metric, label, lambda out: cli.main([*argv, str(out)]), check)


def _exit_ok(check):
    def checked(out: Path, code) -> Optional[str]:
        return f"exit code {code}" if code != 0 else check(out)
    return checked


def _fields(path: Path) -> dict[str, str]:
    lines = path.read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines if ": " in line)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --- lift -------------------------------------------------------------------


def lift_ops(root: Path, alphas, m_max: int) -> list[Op]:
    """CLI `lift` for published tables, m = 6..m_max, checked to the printed digits."""
    ops = []
    for alpha in alphas:
        table = inputs.PUBLISHED_TABLES[alpha][: m_max - 5]
        cfg = write(root / f"lift_{alpha}_{m_max}.cfg", f"alpha = {alpha}\nbeta = 1.0\nm_min = 6\nm_max = {m_max}\n")

        def check(out: Path, table=table, m_max=m_max) -> Optional[str]:
            rows = (out / "convergence.csv").read_text().splitlines()[1:]
            if len(rows) != len(table):
                return f"{len(rows)} convergence rows, expected {len(table)}"
            for line, (n, r_n, rate) in zip(rows, table):
                n_str, rn_str, _, _, rate_str = line.split(",")
                if int(n_str) != n or rn_str != r_n:
                    return f"row n={n_str} R_n={rn_str}, published n={n} R_n={r_n}"
                if (rate is None) != (rate_str == "") or (rate is not None and abs(float(rate_str) - rate) > 0.0015):
                    return f"n={n}: rate {rate_str!r}, published {rate}"
            atoms = len((out / "lift.csv").read_text().splitlines()) - 1
            return None if atoms == 2**m_max else f"lift.csv has {atoms} atoms"

        ops.append(_cli_op("lift_ms", f"lift alpha={alpha} m<={m_max}", "lift", cfg, _exit_ok(check)))
    return ops


# --- solve / sweep / certify --------------------------------------------------


def solve_ops(root: Path, stations, m: int, rng) -> list[Op]:
    """CLI `solve` with Qabs, Kbar and Pbar; at m = 13 the station moments are checked too.

    From the printed q, hbar, J and K: E = Qabs / (1 - q), and with
    L = K / (hbar^2 (1-q)^2), Var[Y_n] = L + (J - L) / q^2 exactly.
    """
    ops = []
    for st in stations:
        qabs, kbar, pbar = inputs.targets(st, rng)
        cfg = write(root / f"solve_{st.name}_{m}.cfg",
                    st.config() + f"m = {m}\nQabs = {qabs!r}\nKbar = {kbar!r}\nPbar = {pbar!r}\n")

        def check(out: Path, st=st, qabs=qabs, kbar=kbar, pbar=pbar) -> Optional[str]:
            f = _fields(out / "solution.txt")
            if f.get("case") != "WaterAbstracting":
                return f"case {f.get('case')}"
            q, h, j, k, p = (float(f[key]) for key in ("q", "hbar", "J", "K", "P"))
            if k > kbar * (1 + BOUND_TOL) or p > pbar * (1 + BOUND_TOL):
                return f"K = {k} (Kbar {kbar}), P = {p} (Pbar {pbar})"
            if m == 13:
                low = k / (h * h * (1.0 - q) ** 2)
                mean, var = qabs / (1.0 - q), low + (j - low) / (q * q)
                if _rel(mean, st.mean) > 0.01 or _rel(var, st.variance) > 0.01:
                    return f"mean {mean:.6g} / variance {var:.6g} off the published {st.mean} / {st.variance}"
            return None

        ops.append(_cli_op("solve_ms", f"solve {st.name} m={m}", "solve", cfg, _exit_ok(check)))
    return ops


def sweep_ops(root: Path, stations, m: int, points: int, rng) -> list[Op]:
    """CLI `sweep` over a geometric Kbar grid with Pbar; every row solved within its bounds."""
    ops = []
    for st in stations:
        qabs, _, pbar = inputs.targets(st, rng)
        grid = inputs.kbar_grid(rng, points)
        cfg = write(root / f"sweep_{st.name}_{m}.cfg", st.config() + f"m = {m}\nQabs = {qabs!r}\nPbar = {pbar!r}\n"
                    + "Kbar_grid = " + ",".join(repr(float(v)) for v in grid) + "\n")

        def check(out: Path, pbar=pbar, points=points) -> Optional[str]:
            rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
            if len(rows) != points:
                return f"{len(rows)} sweep rows, expected {points}"
            for kbar, hbar, _, _, _, k, p, _ in rows:
                if not hbar:
                    return f"Kbar {kbar}: row failed"
                if float(k) > float(kbar) * (1 + BOUND_TOL) or float(p) > pbar * (1 + BOUND_TOL):
                    return f"Kbar {kbar}: K = {k}, P = {p} (Pbar {pbar})"
            return None

        ops.append(_cli_op("sweep_ms", f"sweep {st.name} m={m}", "sweep", cfg, _exit_ok(check)))
    return ops


def station_model(st: Station) -> SupCbiModel:
    return SupCbiModel(
        A=st.A, B=st.B, pi=GammaMixingMeasure(alpha=st.alpha, beta=st.dbeta / inputs.D_NOMINAL),
        nu=TemperedStableLevy(c1=st.c1, c2=st.c2), baseflow=st.baseflow,
    )


def certify_ops(stations, m: int, rng) -> list[Op]:
    """Library `bke_residual_J` + `bke_residual_K` at the solved (q, hbar), 100 random states."""
    ops = []
    for st in stations:
        model = station_model(st)
        lift = build_lift(model.pi, m)
        qabs, kbar, pbar = inputs.targets(st, rng)
        sol = control.solve(control.ControlProblem(model=model, lift=lift, kbar=kbar, qabs=qabs, pbar=pbar))
        states = rng.uniform(0.0, 3.0, size=(100, lift.n + 1))

        def call(out: Path, model=model, lift=lift, q=sol.q, h=sol.hbar, states=states):
            return (control.bke_residual_J(model, lift, q, h, states),
                    control.bke_residual_K(model, lift, q, h, states))

        def check(out: Path, residuals) -> Optional[str]:
            ok = all(r <= BKE_TOL for r in residuals)
            return None if ok else f"BKE residuals {residuals} above {BKE_TOL}"

        ops.append(Op("certify_ms", f"certify {st.name} m={m}", call, check, cli=False))
    return ops


# --- simulate / verify --------------------------------------------------------

# (label, model and run keys, horizon, dt); m is part of the keys.
SIMULATIONS = {
    "b0": ("B = 0", inputs.B0_MODEL + "m = 2\neps = 1.6e-4\n", 3000.0, 0.25),
    "b0_controlled": ("B = 0 controlled", inputs.B0_MODEL + inputs.B0_CONTROLLER + "m = 2\neps = 1.6e-4\n", 3000.0, 0.25),
    "reference": ("B > 0 reference", inputs.REFERENCE_MODEL + "m = 3\neps = 1e-3\n", 400.0, 0.5),
    "station": ("p1_point20 controlled hourly", STATIONS[0].config() + inputs.STATION_CONTROLLER + "m = 4\neps = 1e-2\n",
                2000.0, 1.0),
}


def simulate_ops(root: Path, names, seed: int) -> list[Op]:
    """CLI `simulate`: finite, nonnegative paths with horizon/dt samples."""
    ops = []
    for name in names:
        label, body, horizon, dt = SIMULATIONS[name]
        cfg = write(root / f"simulate_{name}.cfg", body + f"horizon = {horizon!r}\ndt = {dt!r}\nseed = {seed}\n")
        controlled = "rho" in body

        def check(out: Path, horizon=horizon, dt=dt, controlled=controlled) -> Optional[str]:
            rows = (out / "path.csv").read_text().splitlines()[1:]
            expected = round(horizon / dt)
            if not expected <= len(rows) <= expected + 1:  # the burn-in boundary may add one
                return f"{len(rows)} samples, expected {expected}"
            if int(_fields(out / "stats.txt")["samples"]) != len(rows):
                return "stats.txt sample count differs from path.csv"
            cols = np.array([[float(v) if v else math.nan for v in row.split(",")] for row in rows])
            used = cols if controlled else cols[:, :2]
            if not np.all(np.isfinite(used)) or np.any(cols[:, 1] < 0.0):
                return "path has non-finite or negative discharge"
            return None

        ops.append(_cli_op("simulate_ms", f"simulate {label}", "simulate", cfg, _exit_ok(check)))
    return ops


VERIFICATIONS = {
    "reference": inputs.REFERENCE_MODEL + "horizon = 100\nstates = 50\ndraws = 5\n",
    "small": inputs.REFERENCE_MODEL + "m = 1\nhorizon = 150\ndt = 0.5\neps = 0.005\nstates = 20\ndraws = 4\n",
}


def _verify_check(out: Path, code) -> Optional[str]:
    """Every self-check passes; the Monte Carlo line is judged at MC_SE standard errors.

    `verify` itself applies 3 SE to 8 replicates, which a correct simulator
    fails on about 1 seed in 80; it then exits 4 with only that line failed.
    """
    lines = (out / "verify.txt").read_text().splitlines()
    mc = [line for line in lines if " MC mean " in line]
    if len(mc) != 1 or len(lines) < 5:
        return "verify report incomplete"
    failed = [line for line in lines if not line.startswith("PASS") and line is not mc[0]]
    if failed:
        return f"verify: {failed[0]}"
    words = mc[0].replace("(", " ").replace(")", " ").split()
    mc_mean, cf_mean, three_se = float(words[3]), float(words[7]), float(words[11])
    if abs(mc_mean - cf_mean) > MC_SE * three_se / 3.0:
        return f"verify: {mc[0]}"
    if code != 0 and not (code == cli.EXIT_NUMERICAL and mc[0].startswith("FAIL")):
        return f"exit code {code}"
    return None


def verify_ops(root: Path, names, seed: int) -> list[Op]:
    ops = []
    for name in names:
        cfg = write(root / f"verify_{name}.cfg", VERIFICATIONS[name] + f"seed = {seed}\n")
        ops.append(_cli_op("verify_ms", f"verify {name}", "verify", cfg, _verify_check))
    return ops


# --- identify -----------------------------------------------------------------


def identify_ops(root: Path, years, rng) -> list[Op]:
    """CLI `identify` (analytic, m = 8, 20 restarts, max_lag 200) on generated hourly series."""
    ops = []
    for st, span in zip(STATIONS, years):
        values = inputs.identifiable_series(st, span, rng)
        series = inputs.write_series(root / f"series_{st.name}_{span}y.csv", values)
        cfg = write(root / f"identify_{st.name}_{span}y.cfg",
                    f"series = {series}\nD = 0.5\nmax_lag = 200\nmode = analytic\nm = 8\nrestarts = 20\n"
                    f"seed = {int(rng.integers(2**31))}\n")
        mean, var = float(values.mean()), float(values.var(ddof=1))

        def check(out: Path, mean=mean, var=var) -> Optional[str]:
            rows = {r[0]: r[1:] for r in (line.split(",") for line in (out / "fit_report.csv").read_text().splitlines())}
            for name, truth in (("Average", mean), ("Variance", var)):
                empirical, model = float(rows[name][0]), float(rows[name][1])
                if _rel(empirical, truth) > 1e-6 or _rel(model, empirical) > 0.005:
                    return f"{name}: series {truth:.6g}, empirical {empirical:.6g}, model {model:.6g}"
            return None

        ops.append(_cli_op("identify_ms", f"identify {st.name} {span}y", "identify", cfg, _exit_ok(check)))
    return ops


def full_objective_ops(rng, perturbations) -> list[Op]:
    """Library `moment_objective(mode="full")` at the truth and at +-10% in chosen coordinates.

    The targets are the model's own statistics with the same Monte Carlo
    seed, so the objective vanishes at the truth and grows off it.
    """
    pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
    nu = TemperedStableLevy(c1=0.2, c2=1.0)
    d = 0.5
    model = SupCbiModel(A=0.8, B=(1.0 - d) / levy_moment(nu, 1), pi=pi, nu=nu, baseflow=1.0)
    lift = build_lift(pi, 2)
    mc = dict(mc_seed=int(rng.integers(2**31)), mc_replicates=4, mc_horizon=40.0, mc_dt=1.0)
    empirical = identify._model_stats(model, lift, "full", mc["mc_seed"], mc["mc_replicates"],
                                       mc["mc_horizon"], mc["mc_dt"])
    truth = np.array([math.log(0.2 / 0.8), 0.0, math.log(0.8), 0.0])  # logit c1, log c2, log A, log baseflow
    ops = []
    for coord, sign in [(None, 0.0), *perturbations]:
        x = truth.copy()
        if coord is not None:
            x[coord] += sign * math.log(1.1)

        def call(out: Path, x=x):
            return identify.moment_objective(x, pi, d, lift, empirical, mode="full", **mc)

        def check(out: Path, value, at_truth=coord is None) -> Optional[str]:
            ok = value < 1e-20 if at_truth else value > 1e-20
            return None if ok else f"objective {value} {'at' if at_truth else 'off'} the truth"

        label = "full objective truth" if coord is None else f"full objective x{coord}{sign:+.0f}"
        ops.append(Op("full_objective_ms", label, call, check, cli=False))
    return ops


ALL_PERTURBATIONS = [(i, s) for i in range(4) for s in (-1.0, 1.0)]
CHEAP_PROBES = {"lift_ms", "solve_ms", "sweep_ms", "certify_ms", "simulate_ms"}


def probe_ops(root: Path, rng, seed: int, wanted: Callable[[str], bool]) -> list[Op]:
    """The cheapest configuration of each wanted operation, for a workload that does not stress it.

    Every workload reports every end-to-end metric. The probes' sizes and
    models are fixed, so only the seed's random draws change their cost.
    """
    st, alpha = STATIONS[0], 2.0
    builders = {
        "lift_ms": lambda: lift_ops(root, [alpha], 8),
        "solve_ms": lambda: solve_ops(root, [st], 8, rng),
        "sweep_ms": lambda: sweep_ops(root, [st], 8, 20, rng),
        "certify_ms": lambda: certify_ops([st], 4, rng),
        "simulate_ms": lambda: simulate_ops(root, ["b0"], seed),
        "verify_ms": lambda: verify_ops(root, ["small"], seed),
        "identify_ms": lambda: identify_ops(root, [2, 2], rng),
        "full_objective_ms": lambda: full_objective_ops(rng, [(2, 1.0)]),
    }
    return [op for metric, build in builders.items() if wanted(metric) for op in build()]


# Seeds drawn from the workload seed for the operations whose cost depends on
# random inputs (Monte Carlo paths, generated series, targets); the passes
# cycle through them, so that a metric's median spans several draws.
VARIANTS = 4
# Operations whose cost does not depend on the draws: one variant.
FIXED_COST = {"lift_ms", "certify_ms"}


def _single(ops: list[Op]) -> list[list[Op]]:
    return [[op] for op in ops]


def _varied(make, seed: int, stream: int, root: Path) -> list[list[Op]]:
    """make(rng, seed, root) once per variant; slot i holds every variant's i-th operation."""
    passes = []
    for k in range(VARIANTS):
        rng = np.random.default_rng([seed, stream, k])
        passes.append(make(rng, int(rng.integers(2**31)), root / f"variant{k}"))
    slots = [list(ops) for ops in zip(*passes, strict=True)]
    assert all(len({op.metric for op in slot}) == 1 for slot in slots)
    return slots


def build(workload: str, seed: int, root: Path) -> list[list[Op]]:
    """The slots of one pass over the workload, in order; each slot holds its variants.

    Sizes keep a pass to a few seconds, so that a run repeats every slot
    several times: design lifts the published tables to m = 9 and solves
    one station, chosen by the seed, at m = 13, where the moment check
    holds to 1%.
    """
    rng = np.random.default_rng(seed)
    if workload == "design":
        own = (_single(lift_ops(root, list(inputs.PUBLISHED_TABLES), 9))
               + _single(solve_ops(root, [STATIONS[seed % len(STATIONS)]], 13, rng))
               + _varied(lambda rng, _, r: sweep_ops(r, STATIONS, 8, 30, rng), seed, 0, root)
               + _single(certify_ops(STATIONS, 6, rng)))
    elif workload == "simulate":
        own = _varied(lambda _, s, r: simulate_ops(r, list(SIMULATIONS), s) + verify_ops(r, ["reference"], s),
                      seed, 0, root)
    elif workload == "calibrate":
        own = _varied(lambda rng, _, r: identify_ops(r, [2, 5, 10], rng) + full_objective_ops(rng, ALL_PERTURBATIONS),
                      seed, 0, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    stressed = {slot[0].metric for slot in own}
    probes = (_single(probe_ops(root, rng, seed, lambda m: m not in stressed and m in FIXED_COST))
              + _varied(lambda rng, s, r: probe_ops(r, rng, s, lambda m: m not in stressed and m not in FIXED_COST),
                        seed, 1, root / "probes"))
    # Probes under 0.1 s run three times per pass, apart, so that their medians rest on more calls.
    cheap = [slot for slot in probes if slot[0].metric in CHEAP_PROBES]
    half = len(own) // 2
    return cheap + own[:half] + probes + own[half:] + cheap
