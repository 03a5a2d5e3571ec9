import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, stats as sps

from supcbi import _csvfloat, process
from supcbi.control import ControlProblem, solve
from supcbi.lift import GammaContinuum, MarkovianLift, build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, levy_moment
from supcbi.process import (
    Controller,
    SimulatedPath,
    _component_events,
    _decay_scan,
    _exp_diff,
    SupCbiModel,
    acf,
    grid_mean_variance,
    path_stats,
    simulate,
    stationary_cumulants,
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
        assert (model.eps, trunc.eps) == (0.0, 0.01)
        assert model.truncated(0.0).M1 == model.M1

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
        assert acf(model, GammaContinuum(model.pi), 0.0) == 1.0
        assert acf(model, build_lift(model.pi, 6), 0.0) == pytest.approx(1.0)

    def test_lift_quadrature_converges_to_closed_form(self):
        model = small_model(alpha=2.329, beta=3.149e-2 / 0.5, B=0.3)
        continuum = GammaContinuum(model.pi)
        coarse = build_lift(model.pi, 6)
        fine = build_lift(model.pi, 11)
        for tau in (1.0, 10.0, 50.0, 200.0):
            exact = acf(model, continuum, tau)
            err_fine = abs(acf(model, fine, tau) - exact)
            assert err_fine < 6e-3
            # dyadic refinement shrinks the quadrature error
            assert err_fine < abs(acf(model, coarse, tau) - exact)

    def test_lift_acf_is_the_weighted_sum(self):
        model = small_model(B=0.4)
        lift = build_lift(model.pi, 3)
        for tau in (0.3, 4.0):
            weights = lift.c / lift.r
            expected = np.sum(weights * np.exp(-model.D * tau * lift.r)) / np.sum(weights)
            assert acf(model, lift, tau) == pytest.approx(expected, rel=1e-14)

    def test_closed_form_is_the_measure_integral(self):
        model = small_model(alpha=2.2, beta=0.7, B=0.4)
        d = model.D
        pi = model.pi
        pdf = sps.gamma(pi.alpha, scale=pi.beta).pdf
        for tau in (0.5, 5.0):
            num, _ = integrate.quad(
                lambda r: pdf(r) / r * math.exp(-d * tau * r), 0.0, np.inf
            )
            den, _ = integrate.quad(lambda r: pdf(r) / r, 0.0, np.inf)
            assert acf(model, GammaContinuum(pi), tau) == pytest.approx(num / den, rel=1e-8)

    def test_negative_lag_rejected(self):
        model = small_model()
        for spectrum in (GammaContinuum(model.pi), build_lift(model.pi, 2)):
            with pytest.raises(ValueError, match="lag"):
                acf(model, spectrum, -1.0)


class TestCumulants:
    def test_first_two_are_mean_and_variance(self):
        rng = np.random.default_rng(5)
        for c1 in (-0.7, 0.0, 0.6):
            for _ in range(100):
                nu = TemperedStableLevy(c1=c1, c2=rng.uniform(0.01, 5.0))
                model = SupCbiModel(
                    A=rng.uniform(1e-3, 10.0), B=rng.uniform(0.0, 0.99) / levy_moment(nu, 1),
                    pi=GammaMixingMeasure(rng.uniform(1.1, 5.0), rng.uniform(0.01, 5.0)), nu=nu,
                    eps=rng.choice([0.0, 1e-3]),
                )
                lift = build_lift(model.pi, int(rng.integers(0, 6)))
                k1, k2, _, _ = stationary_cumulants(model, lift)
                assert k1 == pytest.approx(stationary_mean(model, lift), rel=1e-14, abs=0.0)
                assert k2 == pytest.approx(stationary_variance(model, lift), rel=1e-14, abs=0.0)

    def test_without_self_excitation_they_are_supou_cumulants(self):
        # B = 0: kappa_k = A R_n M_k / k (Barndorff-Nielsen 2001)
        for c1 in (-0.7, 0.0, 0.6):
            model = small_model(B=0.0, c1=c1, c2=1.7, A=0.3)
            lift = build_lift(model.pi, 3)
            expected = [
                model.A * lift.inv_mean * levy_moment(model.nu, k) / k for k in range(1, 5)
            ]
            assert stationary_cumulants(model, lift) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("c2", [0.3, 1.7])
    def test_exponential_jumps_on_the_continuum_give_the_gamma_law(self, c2):
        # B = 0 and c1 = -1: nu(dz) = exp(-c2 z) dz, so M_k = k! / c2^(k+1)
        # and kappa_k = A R M_k / k, the cumulants of Gamma(A R / c2, rate c2)
        model = small_model(B=0.0, c1=-1.0, c2=c2, A=0.3, alpha=2.3, beta=0.7)
        continuum = GammaContinuum(model.pi)
        law = sps.gamma(model.A * continuum.inv_mean / c2, scale=1.0 / c2)
        mean, var, skew, excess = (float(v) for v in law.stats("mvsk"))
        expected = [mean, var, skew * var**1.5, excess * var**2]
        assert stationary_cumulants(model, continuum) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c1, c2", [(-0.6, 1.3), (0.5, 1.0)])
    def test_self_exciting_against_mpmath_cgf(self, c1, c2):
        # the CGF is A R_n times the integral of g(s) = k(s)/s / (1 - B k(s)/s),
        # k(s) the integral of exp(s z) - 1 against nu; kappa_k is A R_n g^(k-1)(0).
        # With z = u^p, p = 1/(1-c1), k(s)/s is the integral over u > 0 of
        # p (exp(s z) - 1)/(s z) exp(-c2 z), smooth at u = 0.
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(A=0.7, B=0.6 / levy_moment(nu, 1), pi=GammaMixingMeasure(2.2, 0.9), nu=nu)
        lift = build_lift(model.pi, 2)
        p, mc2, mb = 1 / (1 - mpmath.mpf(c1)), mpmath.mpf(c2), mpmath.mpf(model.B)

        def g(s):
            def integrand(u):
                z = u**p
                ratio = mpmath.expm1(s * z) / (s * z) if s * z != 0 else 1
                return p * ratio * mpmath.exp(-mc2 * z)

            k_over_s = mpmath.quad(integrand, [0, 1, mpmath.inf])
            return k_over_s / (1 - mb * k_over_s)

        with mpmath.workdps(15):
            taylor = mpmath.taylor(g, 0, 3)
        scale = model.A * lift.inv_mean
        _, _, k3, k4 = stationary_cumulants(model, lift)
        assert k3 == pytest.approx(scale * 2 * float(taylor[2]), rel=1e-10, abs=0.0)
        assert k4 == pytest.approx(scale * 6 * float(taylor[3]), rel=1e-10, abs=0.0)


class TestGridMeanVariance:
    def test_matches_double_sum_of_lift_acf(self):
        # Var(mean) = sum over sample pairs (s, t) of sum_i v_i rho_i^|s-t|, / N^2
        model = small_model(B=0.4, A=0.5, alpha=2.1, beta=0.8)
        lift = build_lift(model.pi, 2)
        dt = 0.7
        v = 0.5 * model.A * model.M2 / model.D**2 * lift.c / lift.r
        for n in (1, 2, 7, 40):
            lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            acov = sum(v_i * np.exp(-r_i * model.D * dt * lags) for v_i, r_i in zip(v, lift.r))
            assert grid_mean_variance(model, lift, n, dt) == pytest.approx(
                acov.sum() / n**2, rel=1e-13
            )
        assert grid_mean_variance(model, lift, 1, dt) == pytest.approx(
            stationary_variance(model, lift), rel=1e-14
        )

    def test_argument_validation(self):
        model = small_model()
        lift = build_lift(model.pi, 1)
        with pytest.raises(ValueError):
            grid_mean_variance(model, lift, 0, 1.0)
        with pytest.raises(ValueError):
            grid_mean_variance(model, lift, 5, 0.0)


def test_exp_diff_against_mpmath():
    # just above |b - a| = 1e-9 the difference of exponentials cancels to ~1e-7
    mpmath.mp.dps = 50
    b = 0.7
    for delta in (0.25, 1.0):
        for gap in (0.0, 1.1e-9, 2e-9, 1e-8, 1e-6, 1e-3, 0.5):
            for a in (b - gap, b + gap):
                got = float(_exp_diff(a, b, delta))
                ma, mb, md = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(delta)
                if a == b:
                    exact = md * mpmath.exp(-ma * md)
                else:
                    exact = (mpmath.exp(-ma * md) - mpmath.exp(-mb * md)) / (mb - ma)
                assert got == pytest.approx(float(exact), rel=1e-15, abs=0.0), (a, delta)


def loop_decay_scan(x, decay):
    # reference: the recursion as a plain step loop
    y = np.zeros(x.size)
    acc = 0.0
    for k in range(1, x.size):
        acc = acc * decay + x[k]
        y[k] = acc
    return y


class TestDecayScan:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        x=st.integers(1, 5000).flatmap(
            lambda n: arrays(np.float64, n, elements=st.floats(0.0, 1e6))
        ),
        decay=st.sampled_from([0.0, 5e-324, 0.5, math.exp(-1e-9), 1.0 - 2.0**-53]),
        first=st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_matches_step_loop(self, x, decay, first):
        x[0] = first
        y = _decay_scan(x, decay)
        assert y[0] == 0.0
        # values below 1e-300 are subnormal products whose rounding depends
        # on the order of the multiplications; everything else agrees to 1e-12
        np.testing.assert_allclose(y, loop_decay_scan(x, decay), rtol=1e-12, atol=1e-300)

    def test_input_untouched_and_ints_accepted(self):
        x = np.array([3.0, 1.0, 2.0])
        assert _decay_scan(x, 0.5).tolist() == [0.0, 1.0, 2.5]
        assert x.tolist() == [3.0, 1.0, 2.0]
        # np.bincount of a component without jumps is an int array
        assert _decay_scan(np.array([3, 1, 2]), 0.5).tolist() == [0.0, 1.0, 2.5]


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

    @pytest.mark.parametrize("batch_jumps", [process._BATCH_JUMPS, 1e-9], ids=["one-batch", "batch-per-component"])
    def test_self_exciting_mean_and_variance_over_batchings(self, batch_jumps, monkeypatch):
        # a long path draws its lift components in several batches; a component
        # lost at a batch boundary, or given another's weight or decay rate,
        # moves the mean, and children given another's delay rate the variance
        monkeypatch.setattr(process, "_BATCH_JUMPS", batch_jumps)
        model = small_model(B=0.4, A=0.5)
        lift = MarkovianLift(r=np.array([0.6, 1.3, 2.1, 3.6]), c=np.array([0.4, 0.3, 0.2, 0.1]))
        eps = 1e-3
        trunc = model.truncated(eps)
        reps = 8
        stats = np.empty((reps, 2))
        for rep in range(reps):
            p = simulate(model, lift, horizon=1200.0, dt=0.5, eps=eps, seed=29, replicate=rep)
            stats[rep] = p.y_total.mean(), path_stats(p, 0).variance
        se = stats.std(axis=0, ddof=1) / math.sqrt(reps)
        exact = stationary_mean(trunc, lift), stationary_variance(trunc, lift)
        assert np.all(np.abs(stats.mean(axis=0) - exact) < 3.0 * se)

    def test_self_exciting_case_variance(self):
        model = small_model(B=0.4, A=0.5)
        lift = build_lift(model.pi, 1)
        eps = 1e-3
        reps = 16
        variances = np.empty(reps)
        for rep in range(reps):
            p = simulate(model, lift, horizon=1200.0, dt=0.5, eps=eps, seed=19, replicate=rep)
            variances[rep] = path_stats(p, 0).variance
        se = variances.std(ddof=1) / math.sqrt(reps)
        exact = stationary_variance(model.truncated(eps), lift)
        assert abs(variances.mean() - exact) < 3.0 * se

    def test_self_exciting_shape_statistics(self):
        # sample skewness and kurtosis of B > 0 paths against the closed form of
        # the eps-truncated model the paths follow
        model = small_model(B=0.5 / levy_moment(TemperedStableLevy(0.2, 1.0), 1), A=0.5)
        lift = build_lift(model.pi, 1)
        eps = 1e-3
        reps = 16
        shapes = np.empty((reps, 2))
        for rep in range(reps):
            p = simulate(model, lift, horizon=3000.0, dt=0.5, eps=eps, seed=53, replicate=rep)
            stats = path_stats(p, 0)
            shapes[rep] = stats.skewness, stats.kurtosis
        se = shapes.std(axis=0, ddof=1) / math.sqrt(reps)
        _, k2, k3, k4 = stationary_cumulants(model.truncated(eps), lift)
        exact = k3 / k2**1.5, 3.0 + k4 / k2**2
        assert np.all(np.abs(shapes.mean(axis=0) - exact) < 3.0 * se)

    def test_self_exciting_event_count(self):
        # from Y_i(0) = 0 the intensity (c_i A + r_i B Y_i) nubar has mean
        # nubar c_i A (1 - (1 - D) exp(-r_i D t)) / D with D = 1 - B M1(eps),
        # whose integral over [0, T] is the exact mean count of component i;
        # children given another component's rate would move it by many SE
        model = small_model(B=0.4, A=0.5)
        lift = MarkovianLift(r=np.array([0.2, 0.9, 3.0]), c=np.array([0.5, 0.3, 0.2]))
        eps, horizon = 1e-2, 20.0
        nubar = model.nu.tail_mass(eps)
        d = model.truncated(eps).D
        exact = nubar * lift.c * model.A * (
            horizon / d - (1.0 - d) * -np.expm1(-lift.r * d * horizon) / (d**2 * lift.r)
        )
        rng = np.random.default_rng(41)
        counts = np.empty((400, lift.n))
        for rep in range(counts.shape[0]):
            events = _component_events(model, lift.c, lift.r, nubar, eps, horizon, rng)
            assert len(events) == lift.n
            for i, (times, sizes) in enumerate(events):
                assert times.size == sizes.size
                assert np.all((times >= 0.0) & (times <= horizon))
                assert np.all(sizes >= eps)
                counts[rep, i] = times.size
        se = counts.std(axis=0, ddof=1) / math.sqrt(counts.shape[0])
        assert np.all(np.abs(counts.mean(axis=0) - exact) < 3.0 * se)

    @pytest.mark.parametrize("c1", [-0.6, 0.0, 0.4])
    def test_poisson_case_draws_the_plain_poisson_stream(self, c1):
        # with B = 0 the cluster sampler draws exactly what a homogeneous
        # Poisson sampler draws from the same generator, component after
        # component: count, sorted uniform times, then sizes
        model = small_model(c1=c1)
        lift = MarkovianLift(r=np.array([0.2, 0.7, 3.0]), c=np.array([0.5, 0.3, 0.2]))
        eps, horizon = 1e-2, 50.0
        nubar = model.nu.tail_mass(eps)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            events = _component_events(model, lift.c, lift.r, nubar, eps, horizon, rng)
            ref = np.random.default_rng(seed)
            assert len(events) == lift.n
            for c_i, (times, sizes) in zip(lift.c, events):
                n_jumps = ref.poisson(c_i * model.A * nubar * horizon)
                ref_times = np.sort(ref.uniform(0.0, horizon, size=n_jumps))
                ref_sizes = model.nu.sample_truncated(eps, n_jumps, ref)
                assert times.tobytes() == ref_times.tobytes()
                assert sizes.tobytes() == ref_sizes.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_self_exciting_case_draws_each_components_immigrants_first(self):
        # with B > 0 each component still draws its immigrants as with B = 0;
        # its jumps then begin with exactly those, in time order, and its
        # children follow
        model = small_model(B=0.4, A=0.5)
        lift = MarkovianLift(r=np.array([0.2, 0.7, 3.0]), c=np.array([0.5, 0.3, 0.2]))
        eps, horizon = 1e-2, 50.0
        nubar = model.nu.tail_mass(eps)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        events = _component_events(model, lift.c, lift.r, nubar, eps, horizon, rng)
        assert len(events) == lift.n
        children = 0
        for c_i, (times, sizes) in zip(lift.c, events):
            assert times.size == sizes.size
            assert np.all((times >= 0.0) & (times <= horizon))
            n_jumps = ref.poisson(c_i * model.A * nubar * horizon)
            own_times = np.sort(ref.uniform(0.0, horizon, size=n_jumps))
            assert times[:n_jumps].tobytes() == own_times.tobytes()
            assert sizes[:n_jumps].tobytes() == model.nu.sample_truncated(eps, n_jumps, ref).tobytes()
            children += times.size - n_jumps
        assert children > 0

    @pytest.mark.parametrize("controlled", [False, True])
    def test_poisson_case_path_does_not_depend_on_the_batching(self, controlled, monkeypatch):
        # with B = 0 a batch draws only its components' immigrant streams, in
        # component order, so one batch and one batch per component give the
        # same bytes
        model = small_model()
        lift = build_lift(model.pi, 3)
        ctrl = Controller(rho=1.2, u=-0.4, xhat=1.0) if controlled else None
        whole = simulate(model, lift, horizon=200.0, dt=0.5, eps=1e-3, seed=8, controller=ctrl)
        monkeypatch.setattr(process, "_BATCH_JUMPS", 1e-9)
        split = simulate(model, lift, horizon=200.0, dt=0.5, eps=1e-3, seed=8, controller=ctrl)
        for a, b in ((whole.y_total, split.y_total), (whole.x, split.x), (whole.c_rate, split.c_rate)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_self_exciting_controlled_cost_and_variance(self):
        # J = E[(X - xhat)^2] and K = E[c^2] of the solved controller on a
        # B > 0 model, against 16 controlled paths of the eps-truncated model
        model = small_model(B=0.5 / levy_moment(TemperedStableLevy(0.2, 1.0), 1), A=0.5)
        lift = build_lift(model.pi, 2)
        eps = 1e-3
        trunc = model.truncated(eps)
        sol = solve(ControlProblem(model=trunc, lift=lift, kbar=0.05, qabs=0.3 * stationary_mean(trunc, lift)))
        assert sol.active_constraint == "cost"
        xhat = sol.q * stationary_mean(trunc, lift)
        ctrl = Controller(rho=sol.rho, u=sol.u, xhat=xhat)
        reps = 16
        jk = np.empty((reps, 2))
        for rep in range(reps):
            p = simulate(model, lift, horizon=1000.0, dt=0.5, eps=eps, seed=61,
                         replicate=rep, controller=ctrl)
            jk[rep] = np.mean((p.x - xhat) ** 2), np.mean(p.c_rate**2)
        se = jk.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(jk.mean(axis=0) - (sol.J, sol.K)) < 3.0 * se)

    def test_self_exciting_without_immigration_is_zero(self):
        model = small_model(B=0.4, A=0.0)
        lift = build_lift(model.pi, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = simulate(model, lift, horizon=50.0, dt=0.5, eps=1e-2, seed=2)
        assert not np.any(p.y_total)

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
            simulate(model, lift, horizon=1e4, dt=1.0, eps=1e-12, seed=0)

    @pytest.mark.parametrize("horizon, dt", [(50.0, 1e5), (1e-12, 0.5)])
    def test_path_with_no_sample_refused(self, horizon, dt):
        # the burn-in covers every grid time up to the horizon: grid[k0] raised IndexError
        model = small_model()
        lift = build_lift(model.pi, 1)
        with pytest.raises(ValueError, match="records no sample"):
            simulate(model, lift, horizon=horizon, dt=dt, eps=1e-2, seed=0)

    @pytest.mark.parametrize("dt", [1e-12, 1e-320])
    def test_grid_budget_guard(self, dt):
        # 7e13 steps or more: a grid beyond the address space, refused before
        # any allocation. It raised MemoryError, and OverflowError at
        # dt = 1e-320, where total / dt is inf
        model = small_model()
        lift = build_lift(model.pi, 1)
        with pytest.raises(ValueError, match="budget .* cells"):
            simulate(model, lift, horizon=60.0, dt=dt, eps=1e-2, seed=0)

    def test_argument_validation(self):
        model = small_model()
        lift = build_lift(model.pi, 1)
        with pytest.raises(ValueError):
            simulate(model, lift, horizon=-1.0, dt=1.0, eps=1e-2, seed=0)
        with pytest.raises(ValueError):
            simulate(model, lift, horizon=1.0, dt=1.0, eps=0.0, seed=0)


class TestReplicates:
    # independent paths are simulate calls seeded (seed, replicate)
    LIFT = MarkovianLift(r=np.array([0.6, 1.3, 2.1, 3.6]), c=np.array([0.4, 0.3, 0.2, 0.1]))

    @pytest.mark.parametrize("B, controlled", [(0.0, False), (0.0, True), (0.4, False), (0.4, True)])
    def test_path_depends_only_on_seed_and_replicate(self, B, controlled):
        # replicate 0 is the default path, and no draw leaks into the next call
        model = small_model(B=B, A=0.5)
        lift = build_lift(model.pi, 2)
        ctrl = Controller(rho=1.2, u=-0.4, xhat=1.0) if controlled else None
        run = dict(horizon=150.0, dt=0.5, eps=1e-3, seed=3, controller=ctrl)
        first = simulate(model, lift, **run)
        other = simulate(model, lift, replicate=1, **run)
        again = simulate(model, lift, replicate=0, **run)
        for a, b in ((first.t, again.t), (first.y_total, again.y_total), (first.x, again.x),
                     (first.c_rate, again.c_rate)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert other.y_total.tobytes() != first.y_total.tobytes()

    def test_replicates_are_distinct_and_reproducible(self):
        model = small_model(B=0.4, A=0.5)
        lift = build_lift(model.pi, 1)
        run = dict(horizon=60.0, dt=0.5, eps=1e-2, seed=4)
        paths = [simulate(model, lift, replicate=k, **run) for k in range(5)]
        again = [simulate(model, lift, replicate=k, **run) for k in range(5)]
        assert [p.y_total.tobytes() for p in paths] == [p.y_total.tobytes() for p in again]
        assert len({p.y_total.tobytes() for p in paths}) == 5
        assert all(p.t.tobytes() == paths[0].t.tobytes() for p in paths)

    @pytest.mark.parametrize("batch_jumps", [process._BATCH_JUMPS, 1e-9], ids=["one-batch", "batch-per-component"])
    def test_spread_of_path_means_is_grid_mean_variance(self, batch_jumps, monkeypatch):
        # verify rates one path's mean at sqrt(grid_mean_variance): over 24
        # replicates 23 s^2 / V is chi-square with 23 degrees of freedom, and
        # the mean of the means sits within 3 exact SEs of the closed form
        monkeypatch.setattr(process, "_BATCH_JUMPS", batch_jumps)
        model = small_model(B=0.4, A=0.5)
        lift = self.LIFT
        eps, count = 1e-3, 24
        trunc = model.truncated(eps)
        means = np.array([
            simulate(model, lift, horizon=600.0, dt=0.5, eps=eps, seed=19, replicate=k).y_total.mean()
            for k in range(count)
        ])
        n_samples = simulate(model, lift, horizon=600.0, dt=0.5, eps=eps, seed=19).y_total.size
        v_mean = grid_mean_variance(trunc, lift, n_samples, 0.5)
        z_mean = (means.mean() - stationary_mean(trunc, lift)) / math.sqrt(v_mean / count)
        spread = (count - 1) * means.var(ddof=1) / v_mean
        print(f"z mean {z_mean:+.2f}, 23 s^2 / V = {spread:.1f}")
        assert abs(z_mean) < 3.0
        assert sps.chi2.ppf(0.0013, count - 1) < spread < sps.chi2.ppf(0.9987, count - 1)


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
        lines = write_path_csv(p).splitlines()
        assert lines[0] == "t,y_total,x,c_rate"
        assert lines[1].endswith(",,")  # uncontrolled: empty x and c columns
        assert len(lines) == p.t.size + 1

    @pytest.mark.parametrize("controlled", [False, True])
    def test_csv_matches_row_by_row_formatting(self, controlled):
        model = small_model()
        lift = build_lift(model.pi, 1)
        ctrl = Controller(rho=0.8, u=-0.3, xhat=0.5) if controlled else None
        p = simulate(model, lift, horizon=40.0, dt=0.5, eps=1e-2, seed=4, controller=ctrl)
        special = [-0.0, 5e-324, 1e300, -1e300, 0.1]
        p.y_total[: len(special)] = special
        if controlled:
            p.x[-len(special):] = special
            p.c_rate[1 : len(special) + 1] = special
        text = write_path_csv(p)
        assert text == row_by_row_csv(p)
        assert "-0," in text and "4.9406564584124654e-324" in text
        empty = SimulatedPath(t=p.t[:0], y_total=p.y_total[:0], x=None, c_rate=None)
        assert write_path_csv(empty) == "t,y_total,x,c_rate\n"

    def test_csv_spanning_blocks_matches_row_by_row_formatting(self):
        # the formatter works in blocks of _BLOCK_VALUES values: this path spans
        # several, and its control rate takes both signs
        model = small_model()
        lift = build_lift(model.pi, 1)
        ctrl = Controller(rho=0.8, u=-0.3, xhat=0.5)
        p = simulate(model, lift, horizon=1200.0, dt=0.5, eps=1e-2, seed=4, controller=ctrl)
        assert p.t.size * 4 > 2 * _csvfloat._BLOCK_VALUES
        assert p.c_rate.min() < 0.0 < p.c_rate.max()
        assert write_path_csv(p) == row_by_row_csv(p)


def row_by_row_csv(p):
    """The path CSV written with one f-string per row."""
    t, y = p.t.tolist(), p.y_total.tolist()
    if p.x is None:
        rows = [f"{tk:.17g},{yk:.17g},,\n" for tk, yk in zip(t, y)]
    else:
        rows = [
            f"{tk:.17g},{yk:.17g},{xk:.17g},{ck:.17g}\n"
            for tk, yk, xk, ck in zip(t, y, p.x.tolist(), p.c_rate.tolist())
        ]
    return "t,y_total,x,c_rate\n" + "".join(rows)


def with_power_of_ten_examples(test):
    """An @example at each power of ten 1e-5..1e16 and at the doubles one ulp either side."""
    for k in range(-5, 17):
        for x in (np.nextafter(10.0**k, 0.0), 10.0**k, np.nextafter(10.0**k, np.inf)):
            test = example(float(x))(test)
    return test


class TestFormatRows:
    # 18 significant digits ending in 5: '%.17g' rounds each half to even,
    # to ...062 and ...188
    TIES = (12345678901234.0625, 12345678901234.1875)

    @with_power_of_ten_examples
    @example(1e-4)
    @example(1e15)
    @example(0.99999999999999999)
    @example(TIES[0])
    @example(-TIES[1])
    @example(-0.0)
    @example(5e-324)
    @example(math.nan)
    @example(-math.inf)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def test_value_matches_percent_17g(self, x):
        assert _csvfloat.format_rows([np.array([x])]) == "%.17g\n" % x

    @given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3))))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_rows_match_percent_17g(self, values):
        # values the kernel formats and values Python formats, mixed in one block
        expected = "".join("%.17g,%.17g,%.17g,,\n" % tuple(row) for row in values.tolist())
        assert _csvfloat.format_rows(values.T, end=",,\n") == expected
