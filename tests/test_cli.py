import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supcbi.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK, main
from supcbi.lift import MarkovianLift, build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, levy_moment
from supcbi.process import SupCbiModel, simulate, stationary_mean

MODEL_CFG = """
A = 0.5
B = 0.3
c1 = 0.4
c2 = 1.3
alpha = 2.1
beta = 0.8
baseflow = 0.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return main(args)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "alpha = 2.0\nbeta = 1.0\nbogus = 1\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "beta = 1.0\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_beta_and_dbeta_exclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, "alpha = 2.0\nbeta = 1.0\nDbeta = 0.5\nD = 0.5\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "alpha = 2.0\nalpha = 2.1\nbeta = 1.0\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_comments_and_blank_lines_ok(self, tmp_path):
        cfg = write_cfg(tmp_path, "# comment\n\nalpha = 2.0  # inline\nbeta = 1.0\nm_min = 1\nm_max = 2\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK


class TestLiftCommand:
    def test_outputs_and_frozen_value(self, tmp_path):
        cfg = write_cfg(tmp_path, "alpha = 1.8\nbeta = 1.0\nm_min = 6\nm_max = 6\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        table = (tmp_path / "convergence.csv").read_text()
        assert table.splitlines()[1].startswith("64,1.15537,1.25,")
        lift_lines = (tmp_path / "lift.csv").read_text().splitlines()
        assert lift_lines[0] == "i,r_i,c_i"
        assert len(lift_lines) == 65

    def test_dbeta_form(self, tmp_path):
        cfg = write_cfg(tmp_path, "alpha = 2.0\nDbeta = 0.5\nD = 0.5\nm_min = 3\nm_max = 3\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK

    def test_beta_form_ignores_d(self, tmp_path):
        cfg = write_cfg(tmp_path, "alpha = 2.1\nbeta = 0.5\nD = 1.5\nm_min = 3\nm_max = 3\n")
        assert run(["lift", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK


# Dbeta and no B: D is the only source of the rate scale
DBETA_CFG = {
    "lift": "alpha = 2.1\nDbeta = 0.5\nm_min = 3\nm_max = 3\n",
    "solve": "A = 0.5\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nDbeta = 0.5\nQabs = 0.2\nKbar = 0.01\nm = 2\n",
}


@pytest.mark.parametrize("command", ["lift", "solve"])
@pytest.mark.parametrize(
    "d_line, code",
    # at D = 1e-12, 1 - B*M1 of the B derived from D differs from D by more than 1e-6 relative
    [("", EXIT_CONFIG), ("D = 1.5\n", EXIT_CONFIG), ("D = 1\n", EXIT_OK), ("D = 1e-12\n", EXIT_OK)],
    ids=["no-D", "D-above-1", "D-is-1", "D-tiny"],
)
def test_dbeta_needs_d_in_unit_interval(tmp_path, command, d_line, code):
    cfg = write_cfg(tmp_path, DBETA_CFG[command] + d_line)
    assert run([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == code


class TestSolveCommand:
    def test_balanced_zero_abstraction(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 0.0\nKbar = 1.0\nm = 2\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        text = (tmp_path / "solution.txt").read_text()
        assert "case: Balanced" in text
        assert "K: 0" in text
        assert "rho: arbitrary" in text

    def test_infeasible_over_abstraction(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 1e6\nKbar = 1.0\nm = 2\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INFEASIBLE

    def test_requires_exactly_one_target(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 0.1\nQhat = 0.1\nKbar = 1.0\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_inconsistent_b_and_d(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "D = 0.9\nQabs = 0.1\nKbar = 1.0\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_nonstationary_b_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("B = 0.3", "B = 10.0") + "Qabs = 0.1\nKbar = 1.0\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "stationarity" in capsys.readouterr().err

    def test_water_abstracting_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 0.2\nKbar = 0.01\nm = 2\nPbar = 1.0\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        text = (tmp_path / "solution.txt").read_text()
        assert "case: WaterAbstracting" in text
        assert "active_constraint:" in text


class TestSweepCommand:
    def test_single_site(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 0.2\nKbar_grid = 0.001,0.01,0.1\nm = 2\n")
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "Kbar,hbar,rho,u,J,K,P,active_constraint"
        js = [float(line.split(",")[4]) for line in lines[1:]]
        assert js == sorted(js, reverse=True)

    def test_multi_site_argmin(self, tmp_path):
        sites = tmp_path / "sites"
        sites.mkdir()
        # same shape parameters, site b has four times the immigration scale,
        # hence four times the variance at the same q
        base = "B = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\nbaseflow = 0.0\nm = 2\n"
        (sites / "a.cfg").write_text(base + "A = 0.5\nQhat = 0.4\n")
        (sites / "b.cfg").write_text(base + "A = 2.0\nQhat = 1.6\n")
        cfg = write_cfg(tmp_path, "Kbar_grid = 0.001,0.01,0.1\nsites_dir = " + str(sites) + "\n")
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "multisite.csv").read_text().splitlines()
        assert lines[0] == "Kbar,argmin_site,argmax_site"
        for line in lines[1:]:
            _, lo, hi = line.split(",")
            assert lo == "a" and hi == "b"


class TestSimulateCommand:
    CFG = (
        "A = 0.8\nB = 0.0\nc1 = 0.2\nc2 = 1.0\nalpha = 2.0\nbeta = 1.0\n"
        "baseflow = 0.0\nm = 1\nhorizon = 60\ndt = 1.0\neps = 0.01\nseed = 5\n"
    )

    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "t,y_total,x,c_rate"
        stats = (tmp_path / "stats.txt").read_text()
        assert "closed_form_mean_y:" in stats
        assert "truncation_bias:" in stats

    def test_controlled_run(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG + "rho = 1.0\nu = -0.5\nxhat = 0.5\n")
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        stats = (tmp_path / "stats.txt").read_text()
        assert "mean_sq_control_rate:" in stats

    def test_byte_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for out in (out1, out2):
            assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
        assert (out1 / "stats.txt").read_bytes() == (out2 / "stats.txt").read_bytes()


class TestIdentifyCommand:
    def _series_file(self, tmp_path):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        nu = TemperedStableLevy(c1=0.2, c2=1.0)
        b = 0.5 / levy_moment(nu, 1)
        model = SupCbiModel(A=0.8, B=b, pi=pi, nu=nu, baseflow=1.0)
        lift = build_lift(pi, 2)
        path = simulate(model, lift, horizon=3000.0, dt=1.0, eps=1e-3, seed=77)
        series_path = tmp_path / "series.csv"
        with open(series_path, "w", newline="\n") as fh:
            fh.write("timestamp,discharge_m3s\n")
            for k, v in enumerate(path.y_total):
                fh.write(f"{float(k)},{v + model.baseflow:.17g}\n")
        return series_path, model, lift

    def test_round_trip_report(self, tmp_path):
        series_path, model, lift = self._series_file(tmp_path)
        cfg = write_cfg(
            tmp_path,
            f"series = {series_path}\nD = 0.5\nmax_lag = 100\nm = 4\nrestarts = 3\n",
        )
        assert run(["identify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        report = (tmp_path / "fit_report.txt").read_text()
        assert "Fitted parameters:" in report
        lines = (tmp_path / "fit_report.csv").read_text().splitlines()
        emp_mean = float(lines[1].split(",")[1])
        fit_mean = float(lines[1].split(",")[2])
        assert fit_mean == pytest.approx(emp_mean, rel=0.01)

    def test_exponential_acf_reports_degenerate_fit(self, tmp_path):
        # a single reversion rate gives an exponential ACF; its fit runs off to
        # alpha ~ 1e7, where the lift of the fitted Gamma measure is very narrow
        pi = GammaMixingMeasure(alpha=2.0, beta=0.05)
        model = SupCbiModel(A=0.8, B=0.0, pi=pi, nu=TemperedStableLevy(c1=0.2, c2=1.0), baseflow=1.0)
        lift = MarkovianLift(m=0, r=np.array([0.1]), c=np.array([1.0]))
        path = simulate(model, lift, horizon=17520.0, dt=1.0, eps=1e-3, seed=0)
        series_path = tmp_path / "series.csv"
        series_path.write_text(
            "timestamp,discharge_m3s\n"
            + "".join(f"{float(k)},{v + model.baseflow:.17g}\n" for k, v in enumerate(path.y_total))
        )
        cfg = write_cfg(
            tmp_path, f"series = {series_path}\nD = 0.5\nmax_lag = 100\nm = 4\nrestarts = 3\n"
        )
        assert run(["identify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        report = (tmp_path / "fit_report.txt").read_text()
        assert "warning: ACF fit degenerate" in report

    def test_non_uniform_rejected(self, tmp_path):
        series_path = tmp_path / "bad.csv"
        series_path.write_text(
            "timestamp,discharge_m3s\n" + "".join(f"{k * k},{1.0 + k}\n" for k in range(150))
        )
        cfg = write_cfg(tmp_path, f"series = {series_path}\n")
        assert run(["identify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


class TestVerifyCommand:
    CFG = (
        "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\n"
        "baseflow = 0.0\nm = 1\nhorizon = 150\ndt = 0.5\neps = 0.005\nseed = 2\n"
        "states = 20\ndraws = 4\n"
    )

    def test_default_run_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        report = (tmp_path / "verify.txt").read_text()
        assert "FAIL" not in report
        assert "truncation bias" in report

    def test_corrupted_coefficient_fails(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG + "perturb = a,0,0,1.01\n")
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_NUMERICAL
        report = (tmp_path / "verify.txt").read_text()
        assert "FAIL" in report

    @pytest.mark.parametrize("counts", ["states = 0\ndraws = 4\n", "states = 20\ndraws = 0\n"])
    @pytest.mark.parametrize("perturb", ["", "perturb = a,0,0,1.01\n"])
    def test_empty_state_set_rejected(self, tmp_path, capsys, counts, perturb):
        # with no states the residual check would pass without looking at the ansatz
        text = self.CFG.replace("states = 20\ndraws = 4\n", counts) + perturb
        cfg = write_cfg(tmp_path, text)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "verify.txt").exists()


def test_import_does_not_load_scipy_signal():
    # scipy.signal would add most of a second to every cold CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, supcbi, supcbi.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
