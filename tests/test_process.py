import io
import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from supcbi.lift import build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy
from supcbi.process import (
    Controller,
    SupCbiModel,
    acf_gamma,
    acf_lift,
    path_stats,
    simulate,
    stationary_mean,
    stationary_variance,
    write_path_csv,
)


def small_model(B=0.0, c1=0.2, c2=1.0, A=0.8, alpha=2.0, beta=1.0, baseflow=0.0):
    return SupCbiModel(
        A=A, B=B, pi=GammaMixingMeasure(alpha=alpha, beta=beta),
        nu=TemperedStableLevy(c1=c1, c2=c2), baseflow=baseflow,
    )


class TestModel:
    def test_stationarity_guard(self):
        nu = TemperedStableLevy(c1=0.2, c2=1.0)
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        with pytest.raises(ValueError):
            SupCbiModel(A=1.0, B=2.0, pi=pi, nu=nu)  # B*M1 > 1

    def test_truncated_copy(self):
        model = small_model(B=0.3)
        trunc = model.truncated(0.01)
        assert trunc.M1 < model.M1
        assert trunc.M2 < model.M2
        assert trunc.D > model.D
        # original unchanged
        assert model.D == pytest.approx(1.0 - model.B * model.M1)

    def test_station_moments_match_published_values(self, station_fixtures):
        for fx in station_fixtures:
            model = fx.model()
            lift = build_lift(model.pi, 13)
            mean = model.baseflow + stationary_mean(model, lift)
            var = stationary_variance(model, lift)
            assert mean == pytest.approx(fx.mean, rel=0.01), fx.name
            assert var == pytest.approx(fx.variance, rel=0.01), fx.name

    def test_station_d_consistency(self, station_fixtures):
        for fx in station_fixtures:
            model = fx.model()
            assert model.D == pytest.approx(0.5, rel=0.01), fx.name


class TestAcf:
    def test_lag_zero_is_one(self):
        model = small_model()
        assert acf_gamma(model, 0.0) == 1.0
        assert acf_lift(model, build_lift(model.pi, 6), 0.0) == pytest.approx(1.0)

    def test_lift_quadrature_converges_to_closed_form(self):
        model = small_model(alpha=2.329, beta=3.149e-2 / 0.5, B=0.3)
        coarse = build_lift(model.pi, 6)
        fine = build_lift(model.pi, 11)
        for tau in (1.0, 10.0, 50.0, 200.0):
            exact = acf_gamma(model, tau)
            err_fine = abs(acf_lift(model, fine, tau) - exact)
            assert err_fine < 6e-3
            # dyadic refinement shrinks the quadrature error
            assert err_fine < abs(acf_lift(model, coarse, tau) - exact)

    def test_closed_form_is_the_measure_integral(self):
        model = small_model(alpha=2.2, beta=0.7, B=0.4)
        d = model.D
        pi = model.pi
        for tau in (0.5, 5.0):
            num, _ = integrate.quad(
                lambda r: pi.pdf(r) / r * math.exp(-d * tau * r), 0.0, np.inf
            )
            den, _ = integrate.quad(lambda r: pi.pdf(r) / r, 0.0, np.inf)
            assert acf_gamma(model, tau) == pytest.approx(num / den, rel=1e-8)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            acf_gamma(small_model(), -1.0)


class TestSimulate:
    def test_determinism(self):
        model = small_model()
        lift = build_lift(model.pi, 2)
        a = simulate(model, lift, horizon=50.0, dt=0.5, eps=1e-2, seed=3)
        b = simulate(model, lift, horizon=50.0, dt=0.5, eps=1e-2, seed=3)
        assert np.array_equal(a.y_total, b.y_total)
        c = simulate(model, lift, horizon=50.0, dt=0.5, eps=1e-2, seed=4)
        assert not np.array_equal(a.y_total, c.y_total)

    def test_poisson_case_moments(self):
        model = small_model(B=0.0)
        lift = build_lift(model.pi, 2)
        eps = 1e-3
        trunc = model.truncated(eps)
        reps = 8
        means = np.empty(reps)
        for rep in range(reps):
            p = simulate(model, lift, horizon=1500.0, dt=0.5, eps=eps, seed=21, replicate=rep)
            means[rep] = p.y_total.mean()
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - stationary_mean(trunc, lift)) < 3.0 * se

    def test_self_exciting_case_mean(self):
        model = small_model(B=0.4, A=0.5)
        lift = build_lift(model.pi, 1)
        eps = 1e-3
        trunc = model.truncated(eps)
        reps = 8
        means = np.empty(reps)
        for rep in range(reps):
            p = simulate(model, lift, horizon=1200.0, dt=0.5, eps=eps, seed=9, replicate=rep)
            means[rep] = p.y_total.mean()
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - stationary_mean(trunc, lift)) < 3.0 * se

    def test_controlled_path_satisfies_flow_balance(self):
        # c = -h X + rho Y must hold identically on the recorded grid
        model = small_model()
        lift = build_lift(model.pi, 1)
        ctrl = Controller(rho=1.2, u=-0.4, xhat=1.0)
        p = simulate(model, lift, horizon=100.0, dt=0.25, eps=1e-2, seed=5, controller=ctrl)
        h = ctrl.rho - ctrl.u
        assert p.c_rate == pytest.approx(-h * p.x + ctrl.rho * p.y_total, abs=1e-12)

    def test_controlled_mean_tracks_target(self):
        model = small_model()
        lift = build_lift(model.pi, 2)
        eps = 1e-3
        trunc = model.truncated(eps)
        q, h = 0.7, 1.5
        xhat = q * stationary_mean(trunc, lift)
        ctrl = Controller(rho=q * h, u=-(1.0 - q) * h, xhat=xhat)
        reps = 8
        means = np.empty(reps)
        for rep in range(reps):
            p = simulate(model, lift, horizon=1500.0, dt=0.5, eps=eps, seed=31,
                         replicate=rep, controller=ctrl)
            means[rep] = p.x.mean()
        se = means.std(ddof=1) / math.sqrt(reps)
        # stationary E[X] = q E[Y_n] = xhat
        assert abs(means.mean() - xhat) < 3.0 * se

    def test_jump_budget_guard(self):
        model = small_model(c1=0.8)
        lift = build_lift(model.pi, 1)
        with pytest.raises(ValueError, match="budget"):
            simulate(model, lift, horizon=1e4, dt=1.0, eps=1e-12, seed=0,
                     max_expected_jumps=1e4)

    def test_argument_validation(self):
        model = small_model()
        lift = build_lift(model.pi, 1)
        with pytest.raises(ValueError):
            simulate(model, lift, horizon=-1.0, dt=1.0, eps=1e-2, seed=0)
        with pytest.raises(ValueError):
            simulate(model, lift, horizon=1.0, dt=1.0, eps=0.0, seed=0)


class TestPathStats:
    def test_known_series(self):
        stats = path_stats(np.array([1.0, 2.0, 3.0, 4.0]))
        assert stats.mean == 2.5
        assert stats.variance == pytest.approx(5.0 / 3.0)
        assert stats.skewness == pytest.approx(0.0, abs=1e-14)
        assert not stats.degenerate

    def test_skewed_series_matches_scipy(self):
        # N = 5 tells the biased standardization (scipy's) from the unbiased-std
        # one by the factors (5/4)^1.5 and (5/4)^2
        values = np.array([0.0, 1.0, 1.0, 2.0, 7.0])
        stats = path_stats(values, 3)
        assert stats.variance == pytest.approx(np.var(values, ddof=1), rel=1e-14)
        assert stats.skewness == pytest.approx(sps.skew(values), rel=1e-14)
        assert stats.kurtosis == pytest.approx(sps.kurtosis(values, fisher=False), rel=1e-14)
        c = values - values.mean()
        expected_acf = [c[: c.size - k] @ c[k:] / (c @ c) for k in range(4)]
        assert stats.acf == pytest.approx(expected_acf, rel=1e-14)

    def test_degenerate_series(self):
        stats = path_stats(np.ones(10))
        assert stats.degenerate
        assert math.isnan(stats.skewness)

    def test_csv_roundtrip_columns(self):
        model = small_model()
        lift = build_lift(model.pi, 1)
        p = simulate(model, lift, horizon=10.0, dt=1.0, eps=1e-2, seed=1)
        buf = io.StringIO()
        write_path_csv(p, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,y_total,x,c_rate"
        assert lines[1].endswith(",,")  # uncontrolled: empty x and c columns
        assert len(lines) == p.t.size + 1
