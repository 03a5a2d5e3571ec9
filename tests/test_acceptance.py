"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line on success; a failed assertion marks the
criterion failed.
"""

import math
import time

import numpy as np
import pytest

from supcbi.cli import EXIT_OK, main as cli_main
from supcbi.control import (
    ControlProblem,
    bke_residual_J,
    bke_residual_K,
    eval_J,
    eval_K,
    eval_P,
    p_bounds,
    solve,
    solve_hbar,
)
from supcbi.identify import fit_acf, fit_moments
from supcbi.lift import build_lift, convergence_report
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy
from supcbi.process import (
    Controller,
    SupCbiModel,
    simulate,
    stationary_mean,
    stationary_variance,
)

from test_identify import synthetic_series

# published convergence tables for the quantile lift, beta = 1
TABLE_ALPHA_18 = [
    (64, "1.15537", None), (128, "1.18043", 0.444), (256, "1.19886", 0.444),
    (512, "1.21242", 0.444), (1024, "1.22238", 0.444), (2048, "1.2297", 0.444),
    (4096, "1.23508", 0.444), (8192, "1.23904", 0.445),
]
TABLE_ALPHA_20 = [
    (64, "0.94661", None), (128, "0.962226", 0.499), (256, "0.973281", 0.500),
    (512, "0.981103", 0.500), (1024, "0.986636", 0.500), (2048, "0.99055", 0.500),
    (4096, "0.993317", 0.500), (8192, "0.995274", 0.500),
]
TABLE_ALPHA_22 = [
    (64, "0.800163", None), (128, "0.810588", 0.544), (256, "0.817741", 0.545),
    (512, "0.822647", 0.545), (1024, "0.82601", 0.545), (2048, "0.828315", 0.545),
    (4096, "0.829895", 0.546), (8192, "0.830977", 0.545),
]


def reference_model():
    return SupCbiModel(
        A=0.5, B=0.3, pi=GammaMixingMeasure(alpha=2.1, beta=0.8),
        nu=TemperedStableLevy(c1=0.4, c2=1.3), baseflow=0.0,
    )


def test_criterion_01_lift_convergence_tables(tmp_path):
    for alpha, table in ((1.8, TABLE_ALPHA_18), (2.0, TABLE_ALPHA_20), (2.2, TABLE_ALPHA_22)):
        cfg = tmp_path / f"lift_{alpha}.cfg"
        cfg.write_text(f"alpha = {alpha}\nbeta = 1.0\nm_min = 6\nm_max = 13\n")
        out = tmp_path / f"out_{alpha}"
        assert cli_main(["lift", "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "convergence.csv").read_text().splitlines()[1:]
        assert len(lines) == len(table)
        rows = convergence_report(GammaMixingMeasure(alpha=alpha, beta=1.0), 6, 13)
        for line, row, (n_ref, rn_ref, rate_ref) in zip(lines, rows, table):
            n_str, rn_str, _, _, rate_str = line.split(",")
            assert int(n_str) == n_ref
            assert rn_str == rn_ref, f"alpha={alpha} n={n_ref}: {rn_str} != {rn_ref}"
            if rate_ref is None:
                assert rate_str == ""
            else:
                # compare the unrounded rate against the published value
                assert abs(row.rate - rate_ref) <= 0.001
    print("ACCEPTANCE 01 PASS: convergence tables reproduced to printed digits")


def test_criterion_02_station_moments(station_fixtures):
    for fx in station_fixtures:
        model = fx.model()
        lift = build_lift(model.pi, 13)
        mean = model.baseflow + stationary_mean(model, lift)
        var = stationary_variance(model, lift)
        assert abs(mean - fx.mean) / fx.mean < 0.01, fx.name
        assert abs(var - fx.variance) / fx.variance < 0.01, fx.name
    print("ACCEPTANCE 02 PASS: station means and variances within 1%")


def test_criterion_03_d_consistency(station_fixtures):
    for fx in station_fixtures:
        d = 1.0 - fx.model().B * fx.model().M1
        assert abs(d - 0.5) / 0.5 < 0.01, fx.name
    print("ACCEPTANCE 03 PASS: 1 - B*M1 = 0.500 within 1% on all fixtures")


def test_criterion_04_limit_identities(random_model_pool):
    rng = np.random.default_rng(41)
    for model, lift in random_model_pool:
        var = stationary_variance(model, lift)
        mean = stationary_mean(model, lift)
        q = float(rng.uniform(0.1, 2.5))
        h = float(rng.uniform(0.01, 5.0))
        assert abs(eval_J(model, lift, q, 0.0) - var) <= 1e-12 * var
        assert abs(eval_J(model, lift, 1.0, h) - var) <= 1e-12 * var
        assert eval_K(model, lift, q, 0.0) == 0.0
        assert eval_K(model, lift, 1.0, h) == 0.0
        p0 = (q - 1.0) ** 2 * mean**2
        assert abs(eval_P(model, lift, q, 0.0) - p0) <= 1e-12 * max(p0, 1e-300)
    print("ACCEPTANCE 04 PASS: limit identities hold to 1e-12 on 1000 draws")


def test_criterion_05_bounds_and_monotonicity(random_model_pool):
    rng = np.random.default_rng(42)
    h_grid = np.linspace(0.05, 4.0, 8)
    for model, lift in random_model_pool:
        var = stationary_variance(model, lift)
        mean = stationary_mean(model, lift)
        q = float(rng.uniform(0.1, 2.5))
        while abs(q - 1.0) < 0.02:
            q = float(rng.uniform(0.1, 2.5))
        h = float(rng.uniform(0.01, 5.0))
        j = eval_J(model, lift, q, h)
        assert var * min(1.0, q * q) - 1e-10 * var <= j <= var * max(1.0, q * q) + 1e-10 * var
        p = eval_P(model, lift, q, h)
        lo = (q - 1.0) ** 2 * mean**2
        hi = (q - 1.0) ** 2 * (mean**2 + var)
        assert lo - 1e-10 * hi <= p <= hi + 1e-10 * hi
        js = np.array([eval_J(model, lift, q, hh) for hh in h_grid])
        ks = np.array([eval_K(model, lift, q, hh) for hh in h_grid])
        ps = np.array([eval_P(model, lift, q, hh) for hh in h_grid])
        assert np.all(np.diff(ks) > 0.0)
        assert np.all(np.diff(ps) > 0.0)
        if q < 1.0:
            assert np.all(np.diff(js) < 0.0)
        else:
            assert np.all(np.diff(js) > 0.0)
    print("ACCEPTANCE 05 PASS: J/K/P bounds and monotonicity on 1000 draws")


def test_criterion_06_solver_round_trip(random_model_pool):
    rng = np.random.default_rng(43)
    for model, lift in random_model_pool:
        q = float(rng.uniform(0.2, 0.95) if rng.uniform() < 0.5 else rng.uniform(1.05, 2.0))
        h0 = float(rng.uniform(0.01, 5.0))
        k0 = eval_K(model, lift, q, h0)
        assert abs(solve_hbar(model, lift, q, k0) - h0) <= 1e-10 * h0
    print("ACCEPTANCE 06 PASS: solve_hbar round trip to 1e-10")


def test_criterion_07_bke_residual_certification():
    model = reference_model()
    rng = np.random.default_rng(44)
    for m in (0, 1, 2):
        lift = build_lift(model.pi, m)
        n = lift.n
        for _ in range(20):
            q = float(rng.uniform(0.2, 2.0))
            h = float(rng.uniform(0.05, 3.0))
            states = rng.uniform(0.0, 3.0, size=(100, n + 1))
            assert bke_residual_J(model, lift, q, h, states) <= 1e-8
            assert bke_residual_K(model, lift, q, h, states) <= 1e-8
    # negative control: every coefficient must register a 1% perturbation
    q, h = 0.5, 0.1
    neg_rng = np.random.default_rng(2)
    for m in (0, 1, 2):
        lift = build_lift(model.pi, m)
        n = lift.n
        states = neg_rng.uniform(0.0, 3.0, size=(100, n + 1))
        perturbs = [("const", 0, 0, 1.01)]
        for i in range(n + 1):
            perturbs.append(("b", i, 0, 1.01))
            for j in range(i, n + 1):
                perturbs.append(("a", i, j, 1.01))
        for perturb in perturbs:
            assert bke_residual_J(model, lift, q, h, states, perturb=perturb) > 1e-4, perturb
            assert bke_residual_K(model, lift, q, h, states, perturb=perturb) > 1e-4, perturb
    print("ACCEPTANCE 07 PASS: BKE residuals <= 1e-8; 1% perturbations detected")


def test_criterion_08_monte_carlo_vs_closed_form():
    t_start = time.time()
    model = SupCbiModel(
        A=0.8, B=0.0, pi=GammaMixingMeasure(alpha=2.0, beta=1.0),
        nu=TemperedStableLevy(c1=0.2, c2=1.0), baseflow=0.5,
    )
    lift = build_lift(model.pi, 2)  # n = 4
    eps = 1.6e-4
    bias = model.nu.truncation_bias(eps) / model.M1
    assert bias < 1e-3  # truncated-M1 bias below 0.1%
    trunc = model.truncated(eps)
    sol = solve(ControlProblem(model=trunc, lift=lift, kbar=0.05, qabs=0.3))
    assert sol.case_label == "WaterAbstracting"
    xhat = sol.q * stationary_mean(trunc, lift)
    ctrl = Controller(rho=sol.rho, u=sol.u, xhat=xhat)
    reps = 16
    js = np.empty(reps)
    ks = np.empty(reps)
    for rep in range(reps):
        path = simulate(model, lift, horizon=3000.0, dt=0.25, eps=eps, seed=42,
                        controller=ctrl, replicate=rep)
        js[rep] = np.mean((path.x - xhat) ** 2)
        ks[rep] = np.mean(path.c_rate**2)
    se_j = js.std(ddof=1) / math.sqrt(reps)
    se_k = ks.std(ddof=1) / math.sqrt(reps)
    assert abs(js.mean() - sol.J) <= 3.0 * se_j
    assert abs(ks.mean() - sol.K) <= 3.0 * se_k
    elapsed = time.time() - t_start
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 08 PASS: MC J/K within 3 SE of closed form ({elapsed:.1f}s)"
    )


def test_criterion_09_identification_round_trip():
    for alpha, dbeta in [
        (2.329, 3.149e-2), (2.248, 3.328e-2), (2.189, 3.210e-2),
        (1.865, 2.941e-2), (1.874, 3.226e-2), (2.0, 4.0e-2),
    ]:
        tau = np.arange(201.0)
        acf = (1.0 + dbeta * tau) ** (-(alpha - 1.0))
        fit = fit_acf(acf, 0.5, dt=1.0)
        assert abs(fit.alpha - alpha) <= 1e-6 * alpha
        assert abs(fit.dbeta - dbeta) <= 1e-6 * dbeta
    series = synthetic_series(9.029, 403.9, seed=3)
    report = fit_moments(series, alpha=2.329, beta=3.149e-2 / 0.5, d=0.5, mode="analytic")
    assert abs(report.fitted["Average"] - 9.029) / 9.029 < 0.005
    assert abs(report.fitted["Variance"] - 403.9) / 403.9 < 0.005
    print("ACCEPTANCE 09 PASS: ACF round trip to 1e-6; moment targets to 0.5%")


def test_criterion_10_constraint_crossover():
    model = reference_model()
    lift = build_lift(model.pi, 2)
    q = 0.6
    lo, hi = p_bounds(model, lift, q)
    pbar = 0.5 * (lo + hi)
    total = model.baseflow + stationary_mean(model, lift)
    qhat = q * total
    kbar_grid = np.geomspace(1e-5, 1e3, 25)
    labels = []
    for kbar in kbar_grid:
        sol = solve(ControlProblem(model=model, lift=lift, kbar=float(kbar), qhat=qhat, pbar=pbar))
        labels.append(sol.active_constraint)
    assert labels[0] == "cost"
    assert labels[-1] == "variability"
    switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    assert switches == 1
    print("ACCEPTANCE 10 PASS: single cost/variability crossover on the budget grid")


def test_criterion_11_cli_determinism(tmp_path):
    model_cfg = (
        "A = 0.8\nB = 0.0\nc1 = 0.2\nc2 = 1.0\nalpha = 2.0\nbeta = 1.0\n"
        "baseflow = 0.5\nm = 2\n"
    )
    gen = SupCbiModel(
        A=0.8, B=0.0, pi=GammaMixingMeasure(alpha=2.0, beta=1.0),
        nu=TemperedStableLevy(c1=0.2, c2=1.0), baseflow=1.0,
    )
    gen_path = simulate(gen, build_lift(gen.pi, 1), horizon=1500.0, dt=1.0, eps=1e-2, seed=77)
    series_path = tmp_path / "series.csv"
    with open(series_path, "w", newline="\n") as fh:
        fh.write("timestamp,discharge_m3s\n")
        for k, v in enumerate(gen_path.y_total):
            fh.write(f"{float(k)},{v + gen.baseflow:.17g}\n")
    configs = {
        "lift": "alpha = 2.0\nbeta = 1.0\nm_min = 4\nm_max = 6\n",
        "solve": model_cfg + "Qabs = 0.3\nKbar = 0.05\nPbar = 2.0\n",
        "sweep": model_cfg + "Qabs = 0.3\nKbar_grid = 0.001,0.01,0.1\n",
        "simulate": model_cfg + "horizon = 60\ndt = 1.0\neps = 0.01\nseed = 5\n",
        "identify": f"series = {series_path}\nD = 0.5\nmax_lag = 60\nm = 3\nrestarts = 2\n",
        "verify": "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\n"
                  "m = 1\nhorizon = 120\ndt = 0.5\neps = 0.005\nseed = 2\n"
                  "states = 20\ndraws = 4\n",
    }
    for command, body in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(body)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            code = cli_main(
                [command, "--config", str(cfg), "--out", str(out), "--seed", "9", "--quiet"]
            )
            assert code == EXIT_OK, command
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a, command
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{command}/{name} not byte-identical"
            )
    print("ACCEPTANCE 11 PASS: all CLI commands byte-reproducible under fixed seed")
