import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supcbi import control
from supcbi.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK, main
from supcbi.lift import MarkovianLift, build_lift, convergence_report
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, levy_moment
from supcbi.process import SupCbiModel, grid_mean_variance, simulate, stationary_mean

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
        # lift sets its largest level by m_max or --m only
        cfg = write_cfg(tmp_path, "alpha = 2.0\nbeta = 1.0\nm = 5\n")
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

    @pytest.mark.parametrize("d", ["0", "7"])
    def test_beta_form_still_checks_d(self, tmp_path, capsys, d):
        # D plays no part in a beta-form lift, but a D outside (0, 1] is still a config error
        cfg = write_cfg(tmp_path, f"alpha = 2.1\nbeta = 0.5\nD = {d}\nm_min = 3\nm_max = 3\n")
        out = tmp_path / "out"
        assert run(["lift", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "D must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("where", ["file", "below-file"])
    def test_out_that_cannot_be_created_is_config_error(self, tmp_path, capsys, where):
        # the OSError of creating --out escaped as a traceback with exit 1
        cfg = write_cfg(tmp_path, "alpha = 2.0\nbeta = 1.0\nm_min = 1\nm_max = 3\n")
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker if where == "file" else blocker / "sub"
        assert run(["lift", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write reports to") and err.count("\n") == 1
        assert blocker.read_text() == "kept\n"


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

    def test_infeasible_over_abstraction(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 1e6\nKbar = 1.0\nm = 2\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
        assert "abstraction exceeds the mean inflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_lift_level_above_16_is_config_error(self, tmp_path, capsys, how):
        # 2^m atoms: at m = 40 the lift would fail with an uncaught MemoryError
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 0.2\nKbar = 0.01\n" + ("m = 17\n" if how == "config" else ""))
        out = tmp_path / "out"
        flags = ["--m", "17"] if how == "flag" else []
        assert run(["solve", "--config", cfg, "--out", str(out), *flags]) == EXIT_CONFIG
        assert "0..16" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("qhat", ["-1", "0"])
    def test_non_positive_discharge_target_is_config_error(self, tmp_path, capsys, qhat):
        # no abstraction was asked for, so "abstraction exceeds the mean inflow" would mislead
        cfg = write_cfg(tmp_path, MODEL_CFG + f"Qhat = {qhat}\nKbar = 1.0\nm = 2\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "discharge target Qhat must be positive" in err
        assert "abstraction" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "bad", ["Pbar = nan", "Kbar = nan", "Kbar = inf", "Qabs = nan", "A = inf"]
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, bad):
        # nan compares false with every bound, so it would switch a bound off unnoticed
        good = MODEL_CFG + "m = 2\nQabs = 0.2\nKbar = 0.01\nPbar = 1.0\n"
        key = bad.split("=")[0]
        lines = [line for line in good.splitlines(keepends=True) if not line.startswith(key)]
        cfg = write_cfg(tmp_path, "".join(lines) + bad + "\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_unattainable_pbar_is_infeasible_whatever_the_kbar(self, tmp_path, capsys):
        # P >= (1-q)^2 E[Y]^2 = Qabs^2 = 0.04; the cost root for Kbar = 1e300 lies
        # near the top of the float range, but the infeasible Pbar is the cause to report
        cfg = write_cfg(tmp_path, MODEL_CFG + "m = 2\nQabs = 0.2\nPbar = 0.01\nKbar = 1e300\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
        assert "below the attainable minimum" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_beta_solves_without_warnings(self, tmp_path, capsys):
        # at beta = 1e-300 the lift's sums at h = 0 overflow; the cost root's
        # bracket no longer starts there, and a lift returns (S, T) = (1, 0) at h = 0
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("A = 0.5", "A = 17").replace("beta = 0.8", "beta = 1e-300")
                        + "m = 2\nQhat = 1\nKbar = 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert "case: WaterAbstracting" in (tmp_path / "solution.txt").read_text()

    def test_model_without_inflow_variance_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("A = 0.5", "A = 0").replace("B = 0.3", "B = 0")
                        .replace("baseflow = 0.0", "baseflow = 1") + "m = 2\nQabs = 0.5\nKbar = 1\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "Var[Y_n] = 0" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_p_names_its_mean(self, tmp_path, capsys):
        # the tiny-beta model above with a variability bound: E[Y_n] = 2.6e301
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("A = 0.5", "A = 17").replace("beta = 0.8", "beta = 1e-300")
                        + "m = 2\nQhat = 1\nKbar = 1\nPbar = 1\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: P needs E[Y_n]^2, which overflows at E[Y_n] = 2.56618e+301\n"
        )
        assert not out.exists()

    def test_overflowing_levy_moment_names_it(self, tmp_path, capsys):
        # c2 = 1e-300: M1 = Gamma(0.6) 1e180 is finite, M2 = Gamma(1.6) 1e480 is not
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("B = 0.3", "B = 0").replace("c2 = 1.3", "c2 = 1e-300")
                        + "m = 2\nQabs = 0.1\nKbar = 1\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: Levy moment M_2 overflows at c1 = 0.4, c2 = 1e-300\n"
        assert not out.exists()

    def test_water_abstracting_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "Qabs = 0.2\nKbar = 0.01\nm = 2\nPbar = 1.0\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        text = (tmp_path / "solution.txt").read_text()
        assert "case: WaterAbstracting" in text
        assert "active_constraint:" in text


class TestSweepCommand:
    @pytest.mark.parametrize(
        "text, active",
        [
            (MODEL_CFG + "Qabs = 0.2\nKbar_grid = 0.001,0.01,0.1\nm = 2\n", [""] * 3),
            # a station's model, whose variability bound binds on the last three rows
            ("A = 0.02391\nB = 0.03637\nc1 = 0.772\nc2 = 0.004434\nalpha = 2.329\nbeta = 0.06298\n"
             "baseflow = 1.174\nm = 3\nQabs = 2.0\nPbar = 10.0\nKbar_grid = 0.0001,0.001,0.01,0.1,1\n",
             ["cost"] * 2 + ["variability"] * 3),
        ],
        ids=["no-pbar", "pbar-binds"],
    )
    def test_single_site(self, tmp_path, text, active):
        cfg = write_cfg(tmp_path, text)
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "Kbar,hbar,rho,u,J,K,P,active_constraint"
        js = [float(line.split(",")[4]) for line in lines[1:]]
        assert js == sorted(js, reverse=True)
        assert [line.split(",")[7] for line in lines[1:]] == active

    @pytest.mark.parametrize("grid", ["0.01,nan", "inf", "0.01,-1"])
    def test_bad_grid_rejected(self, tmp_path, grid):
        cfg = write_cfg(tmp_path, MODEL_CFG + f"Qabs = 0.2\nKbar_grid = {grid}\nm = 2\n")
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        assert not (tmp_path / "sweep.csv").exists()

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

    def test_multi_site_settings_fill_only_what_the_site_leaves_unset(self, tmp_path):
        # a site's Qhat overrides a global Qabs (one target, two forms), and a
        # site's Pbar overrides the global one; each site sweep equals the
        # single-site sweep of its resolved config
        sites = tmp_path / "sites"
        sites.mkdir()
        (sites / "a.cfg").write_text(MODEL_CFG + "m = 2\nQhat = 0.4\nPbar = 0.35\n")
        (sites / "b.cfg").write_text(MODEL_CFG + "m = 2\n")
        grid = "Kbar_grid = 0.001,0.01,0.1\n"
        cfg = write_cfg(tmp_path, grid + f"Qabs = 0.2\nPbar = 0.08\nsites_dir = {sites}\n")
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        for site, settings in (("a", "Qhat = 0.4\nPbar = 0.35\n"), ("b", "Qabs = 0.2\nPbar = 0.08\n")):
            single = write_cfg(tmp_path, MODEL_CFG + "m = 2\n" + settings + grid, name=f"{site}.cfg")
            out = tmp_path / site
            assert run(["sweep", "--config", single, "--out", str(out), "--quiet"]) == EXIT_OK
            assert (tmp_path / f"sweep_{site}.csv").read_bytes() == (out / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("where, line", [
        ("global", "A = 99"), ("global", "m = 12"),
        ("site", "Kbar_grid = 0.5"), ("site", "sites_dir = elsewhere"),
    ])
    def test_multi_site_rejects_keys_it_would_ignore(self, tmp_path, capsys, where, line):
        # a multi-site sweep reads the model from each site, and the grid and
        # sites_dir from the global config only
        sites = tmp_path / "sites"
        sites.mkdir()
        site_cfg = MODEL_CFG + "m = 2\nQhat = 0.4\n"
        (sites / "a.cfg").write_text(site_cfg + (line + "\n" if where == "site" else ""))
        (sites / "b.cfg").write_text(site_cfg)
        cfg = write_cfg(tmp_path, f"Kbar_grid = 0.001,0.01\nsites_dir = {sites}\n"
                        + (line + "\n" if where == "global" else ""))
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, error",
        [
            ("Kbar_grid = 0.5", "has no effect in a site config"),
            ("D = 0.5", "inconsistent B and D"),
            ("Pbar = -1", "pbar must be positive"),
        ],
        ids=["site-key", "site-model", "site-problem"],
    )
    def test_multi_site_bad_later_site_leaves_no_output(self, tmp_path, capsys, line, error):
        # reports are written only once the command has returned, so site b's
        # error leaves no --out, and so no sweep_a.csv, behind
        sites = tmp_path / "sites"
        sites.mkdir()
        site_cfg = MODEL_CFG + "m = 2\nQhat = 0.4\n"
        (sites / "a.cfg").write_text(site_cfg)
        (sites / "b.cfg").write_text(site_cfg + line + "\n")
        cfg = write_cfg(tmp_path, f"Kbar_grid = 0.001,0.01\nsites_dir = {sites}\n")
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert error in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    CFG = (
        "A = 0.8\nB = 0.0\nc1 = 0.2\nc2 = 1.0\nalpha = 2.0\nbeta = 1.0\n"
        "baseflow = 0.0\nm = 1\nhorizon = 60\ndt = 1.0\neps = 0.01\nseed = 5\n"
    )

    @pytest.mark.parametrize(
        "text, samples",
        [
            (CFG, 60),
            # B > 0 on an 8-component lift
            ("A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\n"
             "m = 3\nhorizon = 200\ndt = 0.5\neps = 0.001\nseed = 7\n", 400),
        ],
        ids=["B-zero", "B-positive"],
    )
    def test_outputs(self, tmp_path, text, samples):
        # one sample per dt over the horizon
        cfg = write_cfg(tmp_path, text)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "t,y_total,x,c_rate"
        assert len(lines) == samples + 1
        stats = (tmp_path / "stats.txt").read_text()
        assert f"samples: {samples}\n" in stats
        assert "closed_form_mean_y:" in stats
        assert "truncation_bias:" in stats

    def test_constant_path_reports_undefined_shape(self, tmp_path):
        # at A = 0 no jump arrives and the recorded path is constant: its
        # skewness and kurtosis are reported undefined, with a note, not as NaN
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("A = 0.5", "A = 0").replace("B = 0.3", "B = 0")
                        + "m = 2\nhorizon = 50\ndt = 1\neps = 0.01\n")
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "stats.txt").read_text().splitlines()
        assert "skewness_y: undefined" in lines and "kurtosis_y: undefined" in lines
        assert lines[-1].startswith("note: the recorded path is constant")
        assert not any("nan" in line for line in lines)

    def test_controlled_run(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG + "rho = 1.0\nu = -0.5\nxhat = 0.5\n")
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        stats = (tmp_path / "stats.txt").read_text()
        assert "mean_sq_control_rate:" in stats

    @pytest.mark.parametrize(
        "run_keys, error",
        [("horizon = 50\ndt = 1e5\n", "records no sample"), ("horizon = 60\ndt = 1e-12\n", "budget")],
        ids=["dt-above-horizon", "grid-beyond-budget"],
    )
    def test_path_that_cannot_be_recorded_is_config_error(self, tmp_path, capsys, run_keys, error):
        text = self.CFG.replace("horizon = 60\ndt = 1.0\n", run_keys)
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_byte_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for out in (out1, out2):
            assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
        assert (out1 / "stats.txt").read_bytes() == (out2 / "stats.txt").read_bytes()


class TestRepeatedCalls:
    """main builds its parser once per process; no call may leak into the next."""

    CFG = (
        "A = 0.8\nB = 0.0\nc1 = 0.2\nc2 = 1.0\nalpha = 2.0\nbeta = 1.0\n"
        "baseflow = 0.0\nhorizon = 60\ndt = 1.0\neps = 0.01\n"
    )

    def test_flags_and_failures_do_not_reach_the_next_call(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        bad = write_cfg(tmp_path, "alpha = 2.0\n", "bad.cfg")

        def simulate_path(name, *flags):
            out = tmp_path / name
            assert run(["simulate", "--config", cfg, "--out", str(out), "--quiet", *flags]) == EXIT_OK
            return (out / "path.csv").read_bytes()

        assert simulate_path("flagged", "--seed", "5", "--m", "3") != simulate_path(
            "defaults", "--seed", "0", "--m", "4"
        )
        assert simulate_path("after_flags") == (tmp_path / "defaults" / "path.csv").read_bytes()
        assert run(["simulate", "--config", bad, "--out", str(tmp_path / "bad"), "--quiet"]) == EXIT_CONFIG
        with pytest.raises(SystemExit) as usage:
            run(["simulate", "--out", str(tmp_path / "usage")])
        assert usage.value.code == EXIT_CONFIG
        assert simulate_path("after_failures") == (tmp_path / "defaults" / "path.csv").read_bytes()


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
        assert lines[-1].startswith("E,")

    def test_full_mode_at_station_scale(self, tmp_path):
        # two hourly years with the p1_point20 mean and variance; exponential
        # jumps (c1 = -1) give Var/E = 1/c2. Its full-mode fit explores station
        # scale models, where a Monte Carlo skewness would need 1e8+ jumps.
        pi = GammaMixingMeasure(alpha=2.329, beta=3.149e-2 / 0.5)
        lift = build_lift(pi, 2)
        nu = TemperedStableLevy(c1=-1.0, c2=7.7 / 398.0)
        a = 7.7 / (levy_moment(nu, 1) * float(np.sum(lift.c / lift.r)))
        model = SupCbiModel(A=a, B=0.0, pi=pi, nu=nu, baseflow=1.17)
        path = simulate(model, lift, horizon=17520.0, dt=1.0, eps=1e-6, seed=3)
        series_path = tmp_path / "series.csv"
        series_path.write_text(
            "timestamp,discharge_m3s\n"
            + "".join(f"{float(k)},{v + model.baseflow:.17g}\n" for k, v in enumerate(path.y_total))
        )
        cfg = write_cfg(
            tmp_path,
            f"series = {series_path}\nD = 0.5\nmax_lag = 200\nmode = full\nm = 8\n",
        )
        assert run(["identify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        rows = {
            line.split(",")[0]: line.split(",")[1:]
            for line in (tmp_path / "fit_report.csv").read_text().splitlines()[1:]
        }
        for name in ("Average", "Variance", "Skewness", "Kurtosis"):
            assert math.isfinite(float(rows[name][1])), name
        assert "mode = full" in (tmp_path / "fit_report.txt").read_text()

    def test_exponential_acf_reports_degenerate_fit(self, tmp_path):
        # a single reversion rate gives an exponential ACF; its fit runs off to
        # alpha ~ 1e7, where the lift of the fitted Gamma measure is very narrow
        pi = GammaMixingMeasure(alpha=2.0, beta=0.05)
        model = SupCbiModel(A=0.8, B=0.0, pi=pi, nu=TemperedStableLevy(c1=0.2, c2=1.0), baseflow=1.0)
        lift = MarkovianLift(r=np.array([0.1]), c=np.array([1.0]))
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

    def test_lift_level_does_not_move_the_fit(self, tmp_path):
        # the fit is on the continuum: m is accepted and ignored
        series_path, _, _ = self._series_file(tmp_path)
        reports = []
        for m_line in ("m = 3\n", "m = 8\n", ""):
            cfg = write_cfg(tmp_path, f"series = {series_path}\nD = 0.5\nmax_lag = 100\nrestarts = 2\n" + m_line)
            out = tmp_path / f"out{len(reports)}"
            assert run(["identify", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            reports.append([(out / name).read_bytes() for name in ("fit_report.txt", "fit_report.csv")])
        assert reports[0] == reports[1] == reports[2]

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

    def test_mc_line_uses_exact_standard_error(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        line = next(
            line for line in (tmp_path / "verify.txt").read_text().splitlines() if " MC mean " in line
        )
        words = line.replace("(", " ").replace(")", " ").split()
        model = SupCbiModel(
            A=0.5, B=0.3, pi=GammaMixingMeasure(alpha=2.1, beta=0.8),
            nu=TemperedStableLevy(c1=0.4, c2=1.3),
        )
        lift = build_lift(model.pi, 1)
        # one path 8 times the configured horizon of 150
        path = simulate(model, lift, horizon=1200.0, dt=0.5, eps=0.005, seed=2)
        var = grid_mean_variance(model.truncated(0.005), lift, path.y_total.size, 0.5)
        assert float(words[11]) == pytest.approx(3.0 * math.sqrt(var), rel=5e-3)
        assert float(words[3]) == pytest.approx(path.y_total.mean(), rel=1e-5)

    def test_monte_carlo_path_is_one_simulate_call_drawn_first(self, tmp_path, monkeypatch):
        # check 3 draws one path 8 times the horizon, before check 1 runs
        calls = []

        def spy(model, lift, **kwargs):
            calls.append(("simulate", kwargs))
            return simulate(model, lift, **kwargs)

        def convergence_spy(*args):
            calls.append(("convergence_report", args))
            return convergence_report(*args)

        monkeypatch.setattr("supcbi.cli.simulate", spy)
        monkeypatch.setattr("supcbi.cli.convergence_report", convergence_spy)
        cfg = write_cfg(tmp_path, self.CFG)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        assert [name for name, _ in calls] == ["simulate", "convergence_report"]
        assert calls[0][1] == dict(horizon=1200.0, dt=0.5, eps=0.005, seed=2)

    def test_corrupted_coefficient_fails(self, tmp_path, capsys):
        # a FAIL (exit 4) is a finding, not an error: verify.txt is written and
        # echoed, and each of the three lifts' BKE lines fails
        cfg = write_cfg(tmp_path, self.CFG + "perturb = a,0,0,1.01\n")
        assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        report = (tmp_path / "verify.txt").read_text()
        assert sum(line.startswith("FAIL BKE residuals") for line in report.splitlines()) == 3
        assert capsys.readouterr() == (report, "")

    @pytest.mark.parametrize("perturb", ["a,7,0,1.01", "a,0,2,1.01", "b,-1,0,1.01", "b,2,0,1.01"])
    def test_perturbation_index_out_of_range(self, tmp_path, capsys, perturb):
        # the n = 1 lift has coefficient indices 0..1; numpy would read -1 as the last one
        cfg = write_cfg(tmp_path, self.CFG + f"perturb = {perturb}\n")
        assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "outside 0..1" in capsys.readouterr().err
        assert not (tmp_path / "verify.txt").exists()

    @pytest.mark.parametrize(
        "key", ["Qhat = 1.0", "Qabs = 0.1", "Kbar = 1.0", "perturb = a,0,0,nan", "perturb = z,0,0,1.01"]
    )
    def test_unused_keys_and_non_finite_factor_rejected(self, tmp_path, key):
        cfg = write_cfg(tmp_path, self.CFG + key + "\n")
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        assert not (tmp_path / "verify.txt").exists()

    @pytest.mark.parametrize("rows", [None, 1, 45])
    def test_one_batched_certificate_per_lift_chunk(self, tmp_path, monkeypatch, rows):
        # check 2 draws a chunk of draws (at most _BKE_ROWS state rows) and
        # certifies it with one J and one K call; the chunk size cannot move a byte
        cfg = write_cfg(tmp_path, self.CFG)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "whole"), "--quiet"]) == EXIT_OK
        calls = []

        def spy(fn):
            def certify(model, lift, q, h, states, **kwargs):
                calls.append((fn.__name__, lift.n, states.shape))
                return fn(model, lift, q, h, states, **kwargs)
            return certify

        monkeypatch.setattr("supcbi.cli.bke_residual_J", spy(control.bke_residual_J))
        monkeypatch.setattr("supcbi.cli.bke_residual_K", spy(control.bke_residual_K))
        if rows is not None:
            monkeypatch.setattr("supcbi.cli._BKE_ROWS", rows)
        out = tmp_path / "chunked"
        assert run(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out / "verify.txt").read_bytes() == (tmp_path / "whole" / "verify.txt").read_bytes()
        # 4 draws of 20 states: one chunk, one draw per chunk, or 2 draws per chunk
        sizes = {None: [4], 1: [1, 1, 1, 1], 45: [2, 2]}[rows]
        expected = [(name, n, (k, 20, n + 1))
                    for n in (1, 2, 4) for k in sizes for name in ("bke_residual_J", "bke_residual_K")]
        assert calls == expected

    def test_nan_residual_fails(self, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0: the worst residual must not read one NaN draw
        # of a batch as 0.000e+00 and pass
        def nan_in_batch(*args, **kwargs):
            residuals = control.bke_residual_J(*args, **kwargs)
            residuals[-1] = math.nan
            return residuals

        monkeypatch.setattr("supcbi.cli.bke_residual_J", nan_in_batch)
        cfg = write_cfg(tmp_path, self.CFG)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_NUMERICAL
        lines = (tmp_path / "verify.txt").read_text().splitlines()
        assert sum(line.startswith("FAIL BKE residuals") for line in lines) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "A = 1e305\nB = 0\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\n"
            "horizon = 5\ndt = 0.5\neps = 540\nstates = 5\ndraws = 2\n",
            "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 1e300\nhorizon = 100\n",
        ],
        ids=["huge-A", "huge-beta"],
    )
    def test_overflowing_residuals_fail_without_warnings(self, tmp_path, text):
        # at A = 1e305, or beta = 1e300, the residuals overflow to NaN; the
        # FAIL lines report it, and numpy printed RuntimeWarnings besides
        # (five at huge A, three from the coefficient blocks at huge beta)
        cfg = write_cfg(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_NUMERICAL
        lines = (tmp_path / "verify.txt").read_text().splitlines()
        assert sum(line.startswith("FAIL BKE residuals") for line in lines) == 3
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "text",
        [
            "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 1e300\nhorizon = -1\n",
            "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\nhorizon = 200\ndt = 5000\n",
            "A = 0.5\nB = 0.3\nc1 = 0.4\nc2 = 1.3\nalpha = 2.1\nbeta = 0.8\nhorizon = 200\ndt = 1e-12\n",
        ],
        ids=["negative-horizon", "dt-above-horizon", "grid-beyond-budget"],
    )
    def test_refused_path_stops_verify_before_any_check(self, tmp_path, capsys, monkeypatch, text):
        # check 3's path is drawn first: a refused one exits 2 before check 1
        # builds the m = 9 and m = 10 lifts, and before check 2's coefficient
        # blocks overflow at beta = 1e300 with three RuntimeWarnings; the path
        # is 8 x 200 long, so dt = 5000 records no sample, and at dt = 1e-12
        # its grid is refused before any allocation
        def no_check_1(*args, **kwargs):
            raise AssertionError("check 1 ran before the Monte Carlo paths were drawn")

        monkeypatch.setattr("supcbi.cli.convergence_report", no_check_1)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["verify", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["states = 0\ndraws = 4\n", "states = 20\ndraws = 0\n"])
    @pytest.mark.parametrize("perturb", ["", "perturb = a,0,0,1.01\n"])
    def test_empty_state_set_rejected(self, tmp_path, capsys, counts, perturb):
        # with no states the residual check would pass without looking at the ansatz
        text = self.CFG.replace("states = 20\ndraws = 4\n", counts) + perturb
        cfg = write_cfg(tmp_path, text)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "verify.txt").exists()

    @pytest.mark.parametrize(
        "counts",
        ["draws = 1000000000000000\n", "states = 1000000000000000\ndraws = 1\n", "states = 1025\ndraws = 1024\n"],
        ids=["draws", "states", "product"],
    )
    def test_state_rows_beyond_budget_refused(self, tmp_path, capsys, counts):
        # 1e15 draws (or states) is 16 PB of residuals (or states): np.empty
        # raised a numpy MemoryError past cli.main, a traceback and exit 1
        text = self.CFG.replace("states = 20\ndraws = 4\n", "") + counts
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "state rows" in err and err.count("\n") == 1
        assert not out.exists()

    def test_state_rows_at_budget_run(self, tmp_path, monkeypatch):
        # the budget bounds states x draws inclusively: 20 x 4 = 80 rows run at
        # a budget of 80 and are refused at 79
        cfg = write_cfg(tmp_path, self.CFG)
        monkeypatch.setattr("supcbi.cli._MAX_BKE_ROWS", 80)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        monkeypatch.setattr("supcbi.cli._MAX_BKE_ROWS", 79)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "refused"), "--quiet"]) == EXIT_CONFIG
        assert not (tmp_path / "refused").exists()


# one valid config per command; the contract fuzzer sets one or two keys of it
# to an edge value
CONTRACT_CFG = {
    "lift": "alpha = 2.0\nbeta = 1.0\nm_min = 1\nm_max = 3\n",
    "solve": MODEL_CFG + "m = 2\nQabs = 0.2\nKbar = 0.01\nPbar = 1.0\n",
    "sweep": MODEL_CFG + "m = 2\nQabs = 0.2\nKbar_grid = 0.001,0.01,0.1\n",
    "simulate": MODEL_CFG + "m = 2\nhorizon = 50\ndt = 1.0\neps = 0.01\nseed = 3\n",
    "verify": MODEL_CFG + "m = 1\nhorizon = 50\ndt = 0.5\neps = 0.005\nseed = 2\nstates = 5\ndraws = 2\n",
}
CONTRACT_KEYS = ["eps", "dt", "horizon", "Pbar", "Qabs", "D", "baseflow", "m"]
EDGE_VALUES = ["0", "-1", "1e-300", "1e300", "1e-12", "1e5", "17", "nan", "inf", "abc", ""]
FAILURE_PREFIXES = ("config error: ", "infeasible: ", "numerical failure: ")


@st.composite
def edge_configs(draw):
    command = draw(st.sampled_from(sorted(CONTRACT_CFG)))
    config = dict(line.split(" = ") for line in CONTRACT_CFG[command].strip().splitlines())
    keys = st.sampled_from(sorted(set(config) | set(CONTRACT_KEYS)))
    for key in draw(st.lists(keys, min_size=1, max_size=2, unique=True)):
        config[key] = draw(st.sampled_from(EDGE_VALUES))
    return command, "".join(f"{key} = {value}\n" for key, value in config.items())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_configs())
# at beta = 1e300 and dt = 1e300, r_i D dt overflows to inf in the simulator and
# in the path mean's standard error: numpy printed RuntimeWarnings
@example(("simulate", CONTRACT_CFG["simulate"].replace("beta = 0.8", "beta = 1e300").replace("dt = 1.0", "dt = 1e300")))
@example(("verify", CONTRACT_CFG["verify"].replace("beta = 0.8", "beta = 1e300").replace("dt = 0.5", "dt = 1e300")))
# at A = 1e300 and beta = 1e-12, Var[Y_n] overflows: solve and sweep wrote J = inf
@example(("solve", CONTRACT_CFG["solve"].replace("A = 0.5", "A = 1e300").replace("beta = 0.8", "beta = 1e-12")))
@example(("sweep", CONTRACT_CFG["sweep"].replace("A = 0.5", "A = 1e300").replace("beta = 0.8", "beta = 1e-12")))
# at c1 ~ 0 and c2 eps ~ 1e-12 the jump sampler accepted 3.5e-11 of its proposals: no return
@example(("simulate", CONTRACT_CFG["simulate"].replace("c1 = 0.4", "c1 = 1e-12").replace("eps = 0.01", "eps = 1e-12")))
@example(("verify", CONTRACT_CFG["verify"].replace("c1 = 0.4", "c1 = 0").replace("eps = 0.005", "eps = 1e-12")))
# at alpha = beta = 1e300 the rate quantiles overflow: a RuntimeWarning, then exit 2
@example(("lift", CONTRACT_CFG["lift"].replace("alpha = 2.0", "alpha = 1e300").replace("beta = 1.0", "beta = 1e300")))
def test_every_config_keeps_the_cli_contract(command_and_text):
    # a documented exit code and no exception; a failure leaves no --out (a
    # verify FAIL is a finding, and writes its report) and one line on
    # stderr; exit 0 reports only finite numbers (a failed sweep row's error
    # is a message, which may quote an overflow); no warning
    command, text = command_and_text
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert [str(w.message) for w in caught] == []
        err = err.getvalue()
        if command == "verify" and code == EXIT_NUMERICAL and out.exists():
            assert err == "" and "FAIL" in (out / "verify.txt").read_text()
        elif code == EXIT_OK:
            assert err == ""
            for report in out.iterdir():
                for token in re.split(r"[\s,:=()%]+", re.sub(r",error:.*", "", report.read_text())):
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(token)), f"{report.name}: {token}"
        else:
            assert code in (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL)
            assert err.startswith(FAILURE_PREFIXES) and err.count("\n") == 1, err
            assert not out.exists()


def test_import_does_not_load_scipy_signal():
    # scipy.signal would add most of a second to every cold CLI start, and
    # scipy.optimize or scipy.integrate, imported where they are called, 0.2 s
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, supcbi, supcbi.cli; "
            "print([m for m in ('scipy.signal', 'scipy.optimize', 'scipy.integrate') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
