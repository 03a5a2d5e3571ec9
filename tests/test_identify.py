import io
import math
import time
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from supcbi import measures, process
from supcbi.identify import (
    DischargeSeries,
    _model_stats,
    empirical_acf,
    fit_acf,
    fit_moments,
    format_fit_report,
    moment_objective,
    read_series_csv,
    write_fit_report_csv,
)
from supcbi.lift import GammaContinuum, build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, inv_mean, levy_moment
from supcbi.process import SupCbiModel, path_stats, stationary_cumulants, stationary_mean, stationary_variance


def synthetic_series(mean, variance, n=2000, seed=0):
    """Nonnegative series with sample mean/variance matching the targets exactly."""
    rng = np.random.default_rng(seed)
    raw = rng.exponential(size=n) ** 3
    a = math.sqrt(variance / raw.var(ddof=1))
    b = mean - a * raw.mean()
    values = a * raw + b
    assert b >= 0.0 and np.all(values >= 0.0)
    return DischargeSeries(dt=1.0, values=values)


class TestSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            DischargeSeries(dt=1.0, values=np.ones(50))  # too short
        with pytest.raises(ValueError):
            DischargeSeries(dt=1.0, values=np.full(200, -1.0))
        with pytest.raises(ValueError):
            DischargeSeries(dt=0.0, values=np.ones(200))

    def test_csv_roundtrip(self):
        text = "timestamp,discharge_m3s\n" + "".join(
            f"{float(k)},{1.0 + 0.1 * (k % 7)}\n" for k in range(150)
        )
        series = read_series_csv(io.StringIO(text))
        assert series.dt == 1.0
        assert series.values.size == 150

    def test_csv_iso_stamps_ignore_host_time_zone(self, monkeypatch):
        # 120 hourly rows across the 2021-03-28 daylight saving switch in Berlin:
        # naive stamps are read as UTC, stamps with an offset keep it
        start = datetime(2021, 3, 26, 12, tzinfo=timezone.utc)
        hours = [start + timedelta(hours=k) for k in range(120)]
        naive = [h.replace(tzinfo=None).isoformat() for h in hours]
        berlin = [h.astimezone(ZoneInfo("Europe/Berlin")).isoformat() for h in hours]
        assert berlin[0].endswith("+01:00") and berlin[-1].endswith("+02:00")
        monkeypatch.setenv("TZ", "Europe/Berlin")
        time.tzset()
        try:
            assert time.localtime(1625140800).tm_isdst == 1  # the zone took effect
            for stamps in (naive, berlin):
                text = "timestamp,discharge_m3s\n" + "".join(f"{st},1.5\n" for st in stamps)
                series = read_series_csv(io.StringIO(text))
                assert series.dt == 1.0
                assert series.values.size == 120
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_csv_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_series_csv(io.StringIO("time,flow\n0,1\n1,2\n"))

    def test_csv_skips_blank_and_whitespace_lines(self):
        text = "timestamp,discharge_m3s\n\n0,1.5\n   \n\t\n1, 2.5 \n \r\n2,3.5\n\n" + "".join(
            f"{k},1\n" for k in range(3, 120))
        series = read_series_csv(io.StringIO(text))
        assert series.dt == 1.0
        assert series.values[:3].tolist() == [1.5, 2.5, 3.5]
        assert series.values.size == 120

    @pytest.mark.parametrize("row", ["1,2,3", "1", "1,x", "1,", "x,1", "2021-01-01T00:00,1"])
    def test_csv_malformed_row(self, row):
        text = "timestamp,discharge_m3s\n0,1\n" + row + "\n2,1\n"
        with pytest.raises(ValueError):
            read_series_csv(io.StringIO(text))

    @pytest.mark.parametrize("text", ["", "\n  \n", "0,1\n", "0,1,2\n1,2,3\n", "0\n1\n"])
    def test_csv_too_few_rows_or_fields(self, text):
        with pytest.raises(ValueError, match="two"):
            read_series_csv(io.StringIO("timestamp,discharge_m3s\n" + text))

    def test_csv_values_bit_identical_to_float(self):
        rng = np.random.default_rng(31)
        raw = np.concatenate([rng.lognormal(0.0, 3.0, 400), rng.uniform(0.0, 1e-3, 100)])
        raw = raw.tolist()
        cells = [f"{v:.17g}" for v in raw[:250]] + [f"{v:.9g}" for v in raw[250:400]]
        cells += [repr(v) for v in raw[400:]] + ["0", "1e-310", "12345678901234567890", "0.1"]
        text = "timestamp,discharge_m3s\n" + "".join(
            f"{0.25 * k!r},{cell}\n" for k, cell in enumerate(cells))
        series = read_series_csv(io.StringIO(text))
        assert series.dt == 0.25
        assert series.values.tobytes() == np.array([float(c) for c in cells]).tobytes()

    def test_csv_non_uniform_spacing(self):
        text = "timestamp,discharge_m3s\n0,1\n1,1\n3,1\n"
        with pytest.raises(ValueError, match="uniform"):
            read_series_csv(io.StringIO(text))


class TestEmpiricalAcf:
    def test_lag_zero(self):
        series = synthetic_series(5.0, 2.0)
        assert empirical_acf(series, 10)[0] == 1.0

    def test_white_noise_bounds(self):
        rng = np.random.default_rng(11)
        series = DischargeSeries(dt=1.0, values=rng.uniform(0.0, 1.0, size=8000))
        acf = empirical_acf(series, 30)
        # known large-sample band for an iid series
        assert np.all(np.abs(acf[1:]) < 3.0 / math.sqrt(8000))

    def test_ar1_decay(self):
        rng = np.random.default_rng(12)
        phi = 0.8
        n = 20000
        x = np.empty(n)
        x[0] = 0.0
        noise = rng.normal(size=n)
        for k in range(1, n):
            x[k] = phi * x[k - 1] + noise[k]
        series = DischargeSeries(dt=1.0, values=x - x.min())
        acf = empirical_acf(series, 8)
        for k in range(1, 9):
            assert acf[k] == pytest.approx(phi**k, abs=0.05)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            empirical_acf(DischargeSeries(dt=1.0, values=np.ones(200)), 10)

    def test_max_lag_bounds(self):
        series = synthetic_series(5.0, 2.0, n=200)
        with pytest.raises(ValueError):
            empirical_acf(series, 60)


class TestFitAcf:
    @pytest.mark.parametrize(
        "alpha,dbeta",
        [(2.329, 3.149e-2), (2.248, 3.328e-2), (1.865, 2.941e-2), (1.874, 3.226e-2)],
    )
    def test_round_trip(self, alpha, dbeta):
        tau = np.arange(201.0)
        acf = (1.0 + dbeta * tau) ** (-(alpha - 1.0))
        fit = fit_acf(acf, 0.5, dt=1.0)
        assert fit.alpha == pytest.approx(alpha, rel=1e-6)
        assert fit.dbeta == pytest.approx(dbeta, rel=1e-6)
        assert fit.beta == pytest.approx(dbeta / 0.5, rel=1e-6)
        assert not fit.degenerate

    def test_fields_are_python_numbers(self):
        # numpy scalars would carry into the moment fit, where a 0/0 in the
        # model statistics then warns instead of raising into the penalty branch
        fit = fit_acf((1.0 + 0.05 * np.arange(50.0)) ** (-1.2), 0.5)
        assert [type(v) for v in (fit.alpha, fit.beta, fit.dbeta, fit.residual)] == [float] * 4
        assert type(fit.window) is int and type(fit.degenerate) is bool

    def test_window_stops_at_first_nonpositive(self):
        tau = np.arange(50.0)
        acf = (1.0 + 0.05 * tau) ** (-1.2)
        acf[30:] = -0.01
        fit = fit_acf(acf, 0.5)
        assert fit.window == 30

    def test_exponential_input_flagged_degenerate(self):
        acf = np.exp(-0.1 * np.arange(200.0))
        fit = fit_acf(acf, 0.5)
        assert fit.degenerate
        assert fit.residual < 1e-6  # the Gamma-mixture family contains the limit

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_acf(np.array([0.9, 0.5, 0.3]), 0.5)  # acf[0] != 1
        with pytest.raises(ValueError):
            fit_acf(np.array([1.0, -0.5, 0.3]), 0.5)  # no window

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sampling_interval(self, dt):
        acf = (1.0 + 0.05 * np.arange(50.0)) ** (-1.2)
        with pytest.raises(ValueError, match="sampling interval"):
            fit_acf(acf, 0.5, dt=dt)


class TestFitMoments:
    def test_analytic_round_trip_station_targets(self):
        series = synthetic_series(9.029, 403.9, seed=3)
        report = fit_moments(series, alpha=2.329, beta=3.149e-2 / 0.5, d=0.5, mode="analytic")
        assert report.fitted["Average"] == pytest.approx(9.029, rel=0.005)
        assert report.fitted["Variance"] == pytest.approx(403.9, rel=0.005)
        assert report.model.B * report.model.M1 < 1.0
        assert report.model.D == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("restarts", [0, -5])
    def test_rejects_fewer_than_one_restart(self, restarts):
        series = synthetic_series(9.029, 403.9, seed=3)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            fit_moments(series, alpha=2.329, beta=3.149e-2 / 0.5, restarts=restarts)

    def test_error_metric_is_sum_of_terms(self):
        series = synthetic_series(9.029, 403.9, seed=3)
        report = fit_moments(series, alpha=2.329, beta=3.149e-2 / 0.5)
        assert report.E == pytest.approx(sum(report.term_errors.values()), abs=1e-14)

    def test_empirical_statistics_are_path_stats(self):
        series = synthetic_series(9.029, 403.9, seed=3)
        report = fit_moments(series, alpha=2.329, beta=3.149e-2 / 0.5, restarts=1)
        stats = path_stats(series.values)
        assert report.empirical == {
            "Average": stats.mean,
            "Variance": stats.variance,
            "Skewness": stats.skewness,
            "Kurtosis": stats.kurtosis,
        }

    def test_zero_variance_rejected(self):
        series = DischargeSeries(dt=1.0, values=np.full(200, 3.0))
        with pytest.raises(ValueError):
            fit_moments(series, alpha=2.0, beta=0.06)

    def test_full_mode_truth_is_local_minimum(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        nu = TemperedStableLevy(c1=0.2, c2=1.0)
        d = 0.5
        b = (1.0 - d) / levy_moment(nu, 1)
        model = SupCbiModel(A=0.8, B=b, pi=pi, nu=nu, baseflow=1.0)
        lift = build_lift(pi, 2)
        # empirical targets are the model's own statistics at the truth
        empirical = _model_stats(model, lift, "full")
        truth = np.array([
            math.log(0.2 / 0.8),  # logit of c1 = 0.2
            math.log(1.0),
            math.log(0.8),
            math.log(1.0),
        ])
        e0 = moment_objective(truth, pi, d, lift, empirical, mode="full")
        assert e0 < 1e-20
        for i in range(4):
            for sign in (-1.0, 1.0):
                x = truth.copy()
                x[i] += sign * math.log(1.1)
                assert moment_objective(x, pi, d, lift, empirical, mode="full") > e0

    def test_full_mode_statistics_are_the_cumulant_ratios(self, station_fixtures):
        # at station scale (p1_point20, m = 8): a Monte Carlo estimate would need
        # about 1e11 jumps, the closed form is finite and deterministic
        model = station_fixtures[0].model()
        lift = build_lift(model.pi, 8)
        stats = _model_stats(model, lift, "full")
        _, k2, k3, k4 = stationary_cumulants(model, lift)
        assert stats["Variance"] == pytest.approx(k2, rel=1e-14)
        assert stats["Skewness"] == pytest.approx(k3 / k2**1.5, rel=1e-15)
        assert stats["Kurtosis"] == pytest.approx(3.0 + k4 / k2**2, rel=1e-15)
        c1 = model.nu.c1
        params = np.log([c1 / (1.0 - c1), model.nu.c2, model.A, model.baseflow])
        value = moment_objective(params, model.pi, model.D, lift, stats, mode="full")
        assert 0.0 <= value < 1e-20

    @pytest.mark.parametrize("mode, log_a", [("analytic", 500.0), ("full", 500.0), ("full", -500.0)])
    def test_out_of_range_parameters_are_penalized(self, mode, log_a):
        # A = e^500: the squared relative error of the variance overflows;
        # A = e^-500: kappa_2^1.5 underflows to 0 under the skewness
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        empirical = {"Average": 2.0, "Variance": 1.0, "Skewness": 1.0, "Kurtosis": 5.0}
        params = np.array([0.0, 0.0, log_a, 0.0])
        assert moment_objective(params, pi, 0.5, build_lift(pi, 2), empirical, mode=mode) == 1e12

    def test_monte_carlo_arguments_are_accepted_and_unused(self, station_fixtures):
        model = station_fixtures[0].model()
        lift = build_lift(model.pi, 2)
        stats = _model_stats(model, lift, "full")
        assert _model_stats(model, lift, "full", 7, 4, 120.0, 1.0) == stats
        params = np.zeros(4)
        assert moment_objective(params, model.pi, 0.5, lift, stats, mode="full") == moment_objective(
            params, model.pi, 0.5, lift, stats, mode="full",
            mc_seed=7, mc_replicates=4, mc_horizon=120.0, mc_dt=1.0,
        )

    def test_report_formatting(self):
        series = synthetic_series(9.029, 403.9, seed=3)
        report = fit_moments(series, alpha=2.329, beta=3.149e-2 / 0.5)
        text = format_fit_report(report)
        for name in ("Average", "Variance", "Skewness", "Kurtosis"):
            assert name in text
        assert "Empirical" in text and "Model" in text
        lines = write_fit_report_csv(report).splitlines()
        assert lines[0] == "statistic,empirical,model,squared_rel_error"
        assert lines[-1].startswith("E,,,")


STAT_NAMES = ("Average", "Variance", "Skewness", "Kurtosis")


def generic_cumulants(model, spectrum):
    """kappa_1..kappa_4 by the generic recursion: fsum over a generator, factorial weights."""
    a = [model.nu.truncated_moment(j + 1, model.eps) / math.factorial(j + 1) for j in range(4)]
    g = []
    for j in range(4):
        g.append((a[j] + model.B * math.fsum(a[l] * g[j - l] for l in range(1, j + 1))) / model.D)
    r = inv_mean(spectrum.pi) if isinstance(spectrum, GammaContinuum) else spectrum.inv_mean
    scale = model.A * r
    return tuple(scale * math.factorial(j) * g[j] for j in range(4))


def generic_objective(params, pi, d, spectrum, empirical, mode):
    """E built from a dict of model statistics and a dict of terms, summed left to right."""
    names = STAT_NAMES if mode == "full" else STAT_NAMES[:2]
    if any(empirical[name] == 0.0 for name in names):
        return 1e12
    try:
        t1, t2, t3, t4 = np.asarray(params, dtype=float)
        nu = TemperedStableLevy(c1=1.0 / (1.0 + math.exp(-t1)), c2=math.exp(t2))
        model = SupCbiModel(
            A=math.exp(t3), B=(1.0 - d) / levy_moment(nu, 1), pi=pi, nu=nu, baseflow=math.exp(t4)
        )
        stats = {
            "Average": model.baseflow + stationary_mean(model, spectrum),
            "Variance": stationary_variance(model, spectrum),
        }
        if mode == "full":
            _, k2, k3, k4 = generic_cumulants(model, spectrum)
            stats["Skewness"] = k3 / k2**1.5
            stats["Kurtosis"] = 3.0 + k4 / k2**2
        terms = {name: ((stats[name] - empirical[name]) / empirical[name]) ** 2 for name in names}
        total = 0.0
        for err in terms.values():
            total += err
        return total
    except (ValueError, ArithmeticError):
        return 1e12


def outcome(f, *args):
    """The bytes of f's float or floats, so that NaNs and signed zeros compare too, or the
    type of the exception f raised."""
    try:
        return np.array(f(*args), dtype=float).tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def random_spectrum(rng, pi):
    """A quantile lift with m = 0..5 or the continuum, uniformly."""
    m = int(rng.integers(0, 7))
    return GammaContinuum(pi) if m == 6 else build_lift(pi, m)


class TestSameBitsAsTheGenericFormulas:
    SEED = 20240901
    COUNT = 600

    def test_cumulants(self):
        # c2 down to 1e-80 takes the moments past the float range: some cumulants
        # are inf or NaN, and some models raise on an overflowing moment
        rng = np.random.default_rng(self.SEED)
        kinds = set()
        for _ in range(self.COUNT):
            pi = GammaMixingMeasure(rng.uniform(1.05, 6.0), 10.0 ** rng.uniform(-3.0, 1.0))
            spectrum = random_spectrum(rng, pi)
            nu = TemperedStableLevy(c1=rng.uniform(-2.0, 0.99), c2=10.0 ** rng.uniform(-80.0, 3.0))
            a, excitation = 10.0 ** rng.uniform(-3.0, 2.0), rng.choice([0.0, rng.uniform(0.0, 0.999)])
            for eps in (0.0, 1e-6, 1e-3):
                b = excitation / nu.truncated_moment(1, eps)
                model = SupCbiModel(A=a, B=b, pi=pi, nu=nu, eps=eps)
                got = outcome(stationary_cumulants, model, spectrum)
                assert got == outcome(generic_cumulants, model, spectrum)
                kinds.add(got if isinstance(got, type) else np.isfinite(np.frombuffer(got)).all())
        assert kinds == {True, False, ArithmeticError}

    @pytest.mark.parametrize("mode", ["analytic", "full"])
    def test_objective(self, mode):
        rng = np.random.default_rng(self.SEED)
        refused = 0
        for _ in range(self.COUNT):
            pi = GammaMixingMeasure(rng.uniform(1.05, 6.0), 10.0 ** rng.uniform(-3.0, 1.0))
            spectrum = random_spectrum(rng, pi)
            d = rng.uniform(0.05, 0.95)
            empirical = dict(zip(STAT_NAMES, [
                10.0 ** rng.uniform(-1.0, 2.0), 10.0 ** rng.uniform(-1.0, 3.0),
                rng.uniform(-1.0, 10.0), rng.uniform(1.0, 100.0),
            ]))
            x0 = np.array([1.0, math.log(0.01), math.log(0.03), math.log(empirical["Average"])])
            params = x0 + rng.normal(scale=rng.choice([1.0, 30.0, 300.0]), size=4)
            got = outcome(moment_objective, params, pi, d, spectrum, empirical, mode)
            assert got == outcome(generic_objective, params, pi, d, spectrum, empirical, mode)
            refused += np.frombuffer(got)[0] == 1e12
        # both regimes are covered: parameters refused and parameters scored
        assert 0.1 * self.COUNT < refused < 0.9 * self.COUNT

    @pytest.mark.parametrize("mode", ["analytic", "full"])
    def test_zero_target_is_refused(self, mode):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        empirical = {"Average": 2.0, "Variance": 0.0, "Skewness": 1.0, "Kurtosis": 5.0}
        assert moment_objective(np.zeros(4), pi, 0.5, GammaContinuum(pi), empirical, mode=mode) == 1e12


@pytest.mark.parametrize("mode, most", [("full", 5), ("analytic", 3)])
def test_objective_levy_moment_calls(monkeypatch, mode, most):
    # one evaluation: B's M1, the model's M1 and M2, and in full mode M3 and M4
    calls = []
    for module in (measures, process):  # every namespace that holds the name
        monkeypatch.setattr(module, "levy_moment", lambda *args: calls.append(args) or levy_moment(*args))
    pi = GammaMixingMeasure(alpha=2.3, beta=0.9)
    empirical = {"Average": 3.0, "Variance": 2.0, "Skewness": 1.5, "Kurtosis": 6.0}
    params = np.array([1.0, math.log(0.01), math.log(0.03), math.log(3.0)])
    value = moment_objective(params, pi, 0.5, GammaContinuum(pi), empirical, mode=mode)
    assert 0.0 < value < 1e12
    assert len(calls) <= most
