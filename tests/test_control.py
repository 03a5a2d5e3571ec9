import itertools
import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from scipy import integrate, stats

from supcbi import control
from supcbi.control import (
    ControlProblem,
    InfeasibleProblem,
    _apply_perturbation,
    bke_residual_J,
    bke_residual_K,
    cost_bke_coefficients,
    eval_J,
    eval_K,
    eval_P,
    p_bounds,
    q_from_target,
    solve,
    solve_hbar,
    solve_pbar_h,
    sweep,
    variance_bke_coefficients,
    write_sweep_csv,
)
from supcbi.lift import GammaContinuum, build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, inv_mean, levy_moment
from supcbi.process import SupCbiModel, stationary_mean, stationary_variance


def make_model(A=0.5, B=0.3, alpha=2.1, beta=0.8, c1=0.4, c2=1.3, baseflow=0.0):
    return SupCbiModel(
        A=A, B=B, pi=GammaMixingMeasure(alpha=alpha, beta=beta),
        nu=TemperedStableLevy(c1=c1, c2=c2), baseflow=baseflow,
    )


def reference_root(f, target):
    """Root of an increasing f at target by bisection to the last bit: the least h found with f(h) >= target."""
    lo, hi = 0.0, 1.0
    while f(hi) < target:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.fixture(scope="module")
def model_lift():
    model = make_model()
    return model, build_lift(model.pi, 2)


class TestTargets:
    def test_q_from_discharge_target(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        assert q_from_target(model, lift, qhat=0.5 * total) == pytest.approx(0.5)

    def test_q_from_abstraction_target(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        assert q_from_target(model, lift, qabs=0.25 * total) == pytest.approx(0.75)

    def test_over_abstraction_infeasible(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        with pytest.raises(InfeasibleProblem):
            q_from_target(model, lift, qabs=1.5 * total)

    @pytest.mark.parametrize("qhat", [-1.0, 0.0, -0.0])
    def test_non_positive_discharge_target_rejected(self, model_lift, qhat):
        model, lift = model_lift
        with pytest.raises(ValueError, match="discharge target") as info:
            q_from_target(model, lift, qhat=qhat)
        assert not isinstance(info.value, InfeasibleProblem)

    def test_exactly_one_target(self, model_lift):
        model, lift = model_lift
        with pytest.raises(ValueError):
            q_from_target(model, lift, qhat=1.0, qabs=1.0)


class TestEvaluators:
    def test_limits(self, model_lift):
        model, lift = model_lift
        var = stationary_variance(model, lift)
        mean = stationary_mean(model, lift)
        for q in (0.4, 1.0, 1.7):
            assert eval_J(model, lift, q, 0.0) == pytest.approx(var, rel=1e-13)
            assert eval_K(model, lift, q, 0.0) == 0.0
            assert eval_P(model, lift, q, 0.0) == pytest.approx(
                (q - 1.0) ** 2 * mean**2, rel=1e-13
            )
        for h in (0.3, 2.0):
            assert eval_J(model, lift, 1.0, h) == pytest.approx(var, rel=1e-13)
            assert eval_K(model, lift, 1.0, h) == 0.0

    @pytest.mark.parametrize("beta", [0.8, 1e-300])
    def test_h_zero_identities_are_exact_on_both_spectra(self, beta):
        # J(q, 0) = Var, K(q, 0) = 0 and P(q, 0) = (q-1)^2 E^2 exactly; at
        # beta = 1e-300 the lift's sums at h = 0 overflowed with a
        # RuntimeWarning, and E^2 (so P) lies beyond the float range
        model = make_model(A=17.0, beta=beta)
        for spectrum in (build_lift(model.pi, 2), GammaContinuum(model.pi)):
            var, mean = stationary_variance(model, spectrum), stationary_mean(model, spectrum)
            for q in (0.4, 1.7):
                assert eval_J(model, spectrum, q, 0.0) == var
                assert eval_K(model, spectrum, q, 0.0) == 0.0
                if beta == 0.8:
                    assert eval_P(model, spectrum, q, 0.0) == (q - 1.0) ** 2 * mean**2
                else:
                    with pytest.raises(ArithmeticError, match=r"P needs E\[Y_n\]\^2, which overflows"):
                        eval_P(model, spectrum, q, 0.0)

    def test_j_bounds(self, model_lift):
        model, lift = model_lift
        var = stationary_variance(model, lift)
        for q in (0.3, 0.8, 1.5):
            for h in (0.1, 1.0, 10.0):
                j = eval_J(model, lift, q, h)
                assert var * min(1.0, q * q) - 1e-12 <= j <= var * max(1.0, q * q) + 1e-12

    def test_p_bounds(self, model_lift):
        model, lift = model_lift
        for q in (0.3, 1.5):
            lo, hi = p_bounds(model, lift, q)
            for h in (0.1, 1.0, 10.0):
                p = eval_P(model, lift, q, h)
                assert lo - 1e-12 <= p <= hi + 1e-12

    def test_monotonicity(self, model_lift):
        model, lift = model_lift
        hs = np.linspace(0.01, 5.0, 40)
        for q in (0.5, 1.6):
            js = [eval_J(model, lift, q, h) for h in hs]
            ks = [eval_K(model, lift, q, h) for h in hs]
            ps = [eval_P(model, lift, q, h) for h in hs]
            assert all(np.diff(ks) > 0)
            assert all(np.diff(ps) > 0)
            if q < 1.0:
                assert all(np.diff(js) < 0)
            else:
                assert all(np.diff(js) > 0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.05, 6.0),
        beta=st.floats(1e-3, 10.0),
        c1=st.one_of(st.floats(-0.9, -0.01), st.just(0.0), st.floats(0.01, 0.95)),
        c2=st.floats(0.01, 10.0),
        a=st.floats(1e-3, 10.0),
        excitation=st.floats(0.0, 0.95),
        m=st.integers(0, 8),
        q=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 5.0)),
    )
    def test_monotone_and_bounded_property(self, alpha, beta, c1, c2, a, excitation, m, q):
        # over h from far below the slowest to far above the fastest rate r_i D:
        # J falls (q < 1) or rises (q > 1) between Var and q^2 Var, K and P rise,
        # and P stays within p_bounds; the slack is rounding, 1e-12 relative
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(
            A=a, B=excitation / levy_moment(nu, 1),
            pi=GammaMixingMeasure(alpha=alpha, beta=beta), nu=nu,
        )
        lift = build_lift(model.pi, m)
        hs = np.geomspace(1e-4 * lift.r[0] * model.D, 1e4 * lift.r[-1] * model.D, 80)
        js, ks, ps = (
            np.array([f(model, lift, q, h) for h in hs]) for f in (eval_J, eval_K, eval_P)
        )
        tol = 1e-12
        assert np.all(np.diff(ks) >= -tol * ks[1:])
        assert np.all(np.diff(ps) >= -tol * ps[1:])
        assert np.all(np.sign(1.0 - q) * np.diff(js) <= tol * js[1:])
        var = stationary_variance(model, lift)
        lo, hi = p_bounds(model, lift, q)
        assert np.all((ps >= lo * (1.0 - tol)) & (ps <= hi * (1.0 + tol)))
        j_lo, j_hi = sorted((var, q * q * var))
        assert np.all((js >= j_lo * (1.0 - tol)) & (js <= j_hi * (1.0 + tol)))


class TestSolvers:
    def test_hbar_round_trip(self, model_lift):
        model, lift = model_lift
        for q in (0.3, 0.85):
            for h0 in (0.05, 0.7, 4.0):
                k0 = eval_K(model, lift, q, h0)
                assert solve_hbar(model, lift, q, k0) == pytest.approx(h0, rel=1e-10)

    def test_hbar_rejects_balanced(self, model_lift):
        # within rounding of q = 1, as `solve` classes Balanced
        model, lift = model_lift
        for q in (1.0, 1.0 - 2.2e-16, 1.0 + 2.2e-16):
            with pytest.raises(ValueError):
                solve_hbar(model, lift, q, 0.5)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.05, 6.0),
        beta=st.floats(1e-3, 10.0),
        c1=st.floats(-0.9, 0.95),
        c2=st.floats(0.01, 10.0),
        a=st.floats(1e-3, 10.0),
        excitation=st.floats(0.0, 0.95),
        m=st.integers(0, 10),
        q=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 5.0)),
        log_kbar=st.floats(-12.0, 12.0),
    )
    def test_brent_cost_root_is_cheap_and_exact(
        self, alpha, beta, c1, c2, a, excitation, m, q, log_kbar
    ):
        # kbar over 24 decades: a bounded number of K evaluations, K(hbar) = kbar
        # to rounding, and hbar at or above the root's lower bound (S(h) <= 1)
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(
            A=a, B=excitation / levy_moment(nu, 1),
            pi=GammaMixingMeasure(alpha=alpha, beta=beta), nu=nu,
        )
        lift = build_lift(model.pi, m)
        kbar = 10.0**log_kbar
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(control, "eval_K", lambda *args: calls.append(args) or eval_K(*args))
            hbar = solve_hbar(model, lift, q, kbar)
        assert len(calls) <= 60
        assert abs(eval_K(model, lift, q, hbar) / kbar - 1.0) <= 1e-11
        assert hbar >= math.sqrt(kbar / ((1.0 - q) ** 2 * stationary_variance(model, lift)))

    def test_cost_root_matches_reference_bisection(self, model_lift):
        model, lift = model_lift
        q, kbar = 0.4, 0.3
        h = reference_root(lambda h: eval_K(model, lift, q, h), kbar)
        assert solve_hbar(model, lift, q, kbar) == pytest.approx(h, rel=1e-11, abs=0.0)

    def test_pbar_root(self, model_lift):
        model, lift = model_lift
        q = 0.6
        lo, hi = p_bounds(model, lift, q)
        target = 0.5 * (lo + hi)
        h = solve_pbar_h(model, lift, q, target)
        assert eval_P(model, lift, q, h) == pytest.approx(target, rel=1e-10)
        assert solve_pbar_h(model, lift, q, hi * 1.01) == math.inf
        with pytest.raises(InfeasibleProblem):
            solve_pbar_h(model, lift, q, lo * 0.99)

    def test_pbar_root_near_lower_bound(self):
        # the root lies near h = 5e-10, where scipy's default absolute tolerance
        # of 2e-12 shows; a small mean^2 / variance keeps P(h) = pbar well
        # conditioned there
        model = make_model(A=1e-8)
        lift = build_lift(model.pi, 2)
        q = 0.6
        lo, hi = p_bounds(model, lift, q)
        pbar = lo + 1e-9 * (hi - lo)
        h = reference_root(lambda h: eval_P(model, lift, q, h), pbar)
        assert h < 1e-9
        assert solve_pbar_h(model, lift, q, pbar) == pytest.approx(h, rel=1e-11, abs=0.0)

    @seed(26)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        alpha=st.floats(1.05, 6.0),
        beta=st.floats(1e-3, 10.0),
        c1=st.floats(-0.9, 0.95),
        c2=st.floats(0.01, 10.0),
        a=st.floats(1e-3, 10.0),
        excitation=st.floats(0.0, 0.95),
        m=st.one_of(st.none(), st.integers(0, 10)),
        q=st.floats(0.01, 0.99),
        log_kbar=st.floats(-12.0, 12.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_roots_lie_in_their_closed_form_brackets(
        self, alpha, beta, c1, c2, a, excitation, m, q, log_kbar, frac
    ):
        # on a lift (m) or the continuum (m = None): each root lies in the
        # bracket its solver derives from S <= 1, h S <= D / R_n and S + T = 1,
        # and equals a last-bit bisection; a cost root takes at most 16 K
        # evaluations. P is flat where E[Y_n]^2 dominates it, and the two
        # variability roots are compared in P's own scale: their relative
        # distance times d log P / d log h
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(
            A=a, B=excitation / levy_moment(nu, 1),
            pi=GammaMixingMeasure(alpha=alpha, beta=beta), nu=nu,
        )
        spectrum = GammaContinuum(model.pi) if m is None else build_lift(model.pi, m)
        var, mean = stationary_variance(model, spectrum), stationary_mean(model, spectrum)
        tol = 1e-12

        def k(h):
            return eval_K(model, spectrum, q, h)

        kbar = 10.0**log_kbar
        scale = (1.0 - q) ** 2 * var
        h_lo = max(math.sqrt(kbar / scale), kbar * spectrum.inv_mean / (scale * model.D))
        h_hi = h_lo * kbar / k(h_lo)
        assert k(h_lo) <= kbar * (1.0 + tol) and k(h_hi) >= kbar * (1.0 - tol)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(control, "eval_K", lambda *args: calls.append(args) or eval_K(*args))
            hbar = solve_hbar(model, spectrum, q, kbar)
        assert len(calls) <= 16
        assert hbar == pytest.approx(reference_root(k, kbar), rel=1e-11, abs=0.0)

        def p(h):
            return eval_P(model, spectrum, q, h)

        lo, hi = p_bounds(model, spectrum, q)
        pbar = lo + frac * (hi - lo)
        t = (pbar / (1.0 - q) ** 2 - mean**2) / var
        assert p(0.0) == lo <= pbar <= p(model.D / (spectrum.inv_mean * (1.0 - t))) * (1.0 + tol)
        h, ref = solve_pbar_h(model, spectrum, q, pbar), reference_root(p, pbar)
        slope = (p(ref * (1.0 + 1e-4)) - p(ref * (1.0 - 1e-4))) / (2e-4 * pbar)
        assert abs(h / ref - 1.0) * slope <= 1e-11

    def test_cost_root_near_the_float_maximum(self, model_lift):
        # K/h tends to 0.067 at q = 1 - 0.5 / E[Y_n], so the root for
        # Kbar = 1e307 lies near 1.5e308, below the float maximum: found,
        # where doubling a bracket from below met the float range first
        model, lift = model_lift
        problem = ControlProblem(model=model, lift=lift, kbar=1e307, qabs=0.5)
        sol = solve(problem)
        assert sol.active_constraint == "cost" and 1e308 < sol.hbar < sys.float_info.max
        assert abs(eval_K(model, lift, sol.q, sol.hbar) / 1e307 - 1.0) <= 1e-12
        assert sol.hbar == solve_hbar(model, lift, sol.q, 1e307)
        with pytest.raises(RuntimeError, match="float range"):
            solve(replace(problem, kbar=1e308))

    def test_cost_root_without_inflow_variance_is_refused(self):
        # with A = 0 the inflow is the constant baseflow: K(h) = 0 at every h,
        # so no h meets Kbar, and solve_hbar divided by Var[Y_n] = 0
        model = make_model(A=0.0, B=0.0, baseflow=1.0)
        lift = build_lift(model.pi, 2)
        assert stationary_variance(model, lift) == 0.0
        with pytest.raises(ValueError, match=r"Var\[Y_n\] = 0"):
            solve_hbar(model, lift, 0.5, 1.0)
        rows = sweep(ControlProblem(model=model, lift=lift, kbar=1.0, qabs=0.5), [0.1, 1.0])
        assert all(row.solution is None and "Var[Y_n] = 0" in row.error for row in rows)

    def test_balanced_case(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        sol = solve(ControlProblem(model=model, lift=lift, kbar=1.0, qabs=0.0))
        assert sol.case_label == "Balanced"
        assert sol.q == pytest.approx(1.0)
        assert sol.K == 0.0
        assert sol.u == 0.0
        assert sol.rho_arbitrary
        assert sol.J == pytest.approx(stationary_variance(model, lift))
        sol2 = solve(ControlProblem(model=model, lift=lift, kbar=1.0, qhat=total))
        assert sol2.case_label == "Balanced"

    def test_balanced_within_rounding_of_the_mean(self, station_fixtures):
        # a target one ulp off the mean inflow is Balanced, not a control with
        # hbar ~ 1e30 (below) or an unattained infimum (above)
        model = station_fixtures[0].model()
        lift = build_lift(model.pi, 8)
        total = model.baseflow + stationary_mean(model, lift)
        var = stationary_variance(model, lift)
        for qhat in (math.nextafter(total, 0.0), total, math.nextafter(total, math.inf)):
            sol = solve(ControlProblem(model=model, lift=lift, kbar=10.0, qhat=qhat))
            assert sol.case_label == "Balanced", qhat
            assert (sol.hbar, sol.u, sol.K, sol.J) == (0.0, 0.0, 0.0, var)

    def test_water_adding_case(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        sol = solve(ControlProblem(model=model, lift=lift, kbar=1.0, qhat=1.5 * total))
        assert sol.case_label == "WaterAdding"
        assert not sol.attained  # infimum J = Var[Y_n] approached as h -> 0
        assert sol.J == pytest.approx(stationary_variance(model, lift))

    def test_water_abstracting_case(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        kbar = 0.02
        sol = solve(ControlProblem(model=model, lift=lift, kbar=kbar, qhat=0.6 * total))
        assert sol.case_label == "WaterAbstracting"
        assert sol.attained
        assert sol.K == pytest.approx(kbar, rel=1e-9)
        assert sol.rho == pytest.approx(sol.q * sol.hbar)
        assert sol.u == pytest.approx(-(1.0 - sol.q) * sol.hbar)
        assert sol.active_constraint == "cost"

    def test_variability_constraint_activation(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        q = 0.6
        lo, hi = p_bounds(model, lift, q)
        pbar = 0.5 * (lo + hi)
        qhat = q * total
        small = solve(ControlProblem(model=model, lift=lift, kbar=1e-4, qhat=qhat, pbar=pbar))
        big = solve(ControlProblem(model=model, lift=lift, kbar=1e3, qhat=qhat, pbar=pbar))
        assert small.active_constraint == "cost"
        assert big.active_constraint == "variability"
        assert big.P == pytest.approx(pbar, rel=1e-9)
        assert big.K < 1e3  # cost bound slack when the variability bound binds

    def test_problem_validation(self, model_lift):
        model, lift = model_lift
        with pytest.raises(ValueError):
            ControlProblem(model=model, lift=lift, kbar=1.0)
        with pytest.raises(ValueError):
            ControlProblem(model=model, lift=lift, kbar=1.0, qhat=1.0, qabs=1.0)
        with pytest.raises(ValueError):
            ControlProblem(model=model, lift=lift, kbar=-1.0, qhat=1.0)

    @pytest.mark.parametrize(
        "settings",
        [{"pbar": math.nan}, {"kbar": math.nan}, {"kbar": math.inf}, {"qabs": math.nan},
         {"qabs": math.inf}, {"qhat": math.nan, "qabs": None}],
        ids=["pbar-nan", "kbar-nan", "kbar-inf", "qabs-nan", "qabs-inf", "qhat-nan"],
    )
    def test_non_finite_settings_rejected(self, model_lift, settings):
        # nan compares false with every threshold, so a plain `x <= 0` test lets it through
        model, lift = model_lift
        with pytest.raises(ValueError):
            ControlProblem(model=model, lift=lift, **{"kbar": 1.0, "qabs": 0.1, "pbar": 1.0, **settings})

    def test_non_finite_target_rejected(self, model_lift):
        model, lift = model_lift
        for target in ({"qabs": math.nan}, {"qabs": -math.inf}, {"qhat": math.nan}):
            with pytest.raises(ValueError, match="finite"):
                q_from_target(model, lift, **target)


class TestSweep:
    def test_rows_and_error_capture(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        problem = ControlProblem(model=model, lift=lift, kbar=1.0, qhat=0.6 * total)
        rows = sweep(problem, [1e-3, 1e-2, -1.0, 1e-1])
        assert rows[2].solution is None and rows[2].error is not None
        js = [row.solution.J for row in rows if row.solution is not None]
        assert js == sorted(js, reverse=True)  # larger budget, lower tracking variance

    def test_csv_format(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        problem = ControlProblem(model=model, lift=lift, kbar=1.0, qhat=0.6 * total)
        rows = sweep(problem, [1e-3, 1e-2])
        lines = write_sweep_csv(rows).splitlines()
        assert lines[0] == "Kbar,hbar,rho,u,J,K,P,active_constraint"
        assert len(lines) == 3
        assert lines[1].endswith(",,")  # no Pbar: empty P and active columns

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.05, 6.0),
        beta=st.floats(1e-3, 10.0),
        c1=st.one_of(st.floats(-0.9, -0.01), st.just(0.0), st.floats(0.01, 0.95)),
        c2=st.floats(0.01, 10.0),
        a=st.floats(1e-3, 10.0),
        excitation=st.floats(0.0, 0.95),
        m=st.integers(0, 6),
        q=st.one_of(st.floats(0.01, 0.99), st.just(1.0), st.floats(1.01, 5.0)),
        where=st.sampled_from(["none", "below", "between", "above"]),
        frac=st.floats(1e-6, 1.0 - 1e-6),
        log_kbar=st.floats(-8.0, 4.0),
    )
    def test_rows_equal_solve_and_the_two_root_rule(
        self, alpha, beta, c1, c2, a, excitation, m, q, where, frac, log_kbar
    ):
        # every row is `solve` at its kbar, and a WaterAbstracting row is the
        # rule that solves both roots and keeps the smaller, though a sweep
        # skips the cost root above K(h_var)(1 + 1e-9)
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(
            A=a, B=excitation / levy_moment(nu, 1),
            pi=GammaMixingMeasure(alpha=alpha, beta=beta), nu=nu,
        )
        lift = build_lift(model.pi, m)
        qhat = q * (model.baseflow + stationary_mean(model, lift))
        q = q_from_target(model, lift, qhat=qhat)
        lo, hi = p_bounds(model, lift, q)
        pbar = {"none": None, "below": 0.5 * lo, "between": lo + frac * (hi - lo),
                "above": 2.0 * hi}[where]
        if pbar is not None and not pbar > 0.0:
            pbar = 1.0  # q = 1 has p_bounds (0, 0): every positive pbar lies above
        grid = list(10.0 ** np.linspace(log_kbar, log_kbar + 8.0, 9)) + [-1.0, math.inf, math.nan]
        h_var = solve_pbar_h(model, lift, q, pbar) if where == "between" and q < 1.0 else math.inf
        if h_var < math.inf:
            k_var = eval_K(model, lift, q, h_var)
            grid += [k_var * (1.0 + d) for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9)]
        rows = sweep(ControlProblem(model=model, lift=lift, kbar=1.0, qhat=qhat, pbar=pbar), grid)
        assert [row.kbar for row in rows] == grid
        for row in rows:
            try:
                expected = solve(ControlProblem(
                    model=model, lift=lift, kbar=row.kbar, qhat=qhat, pbar=pbar))
            except (ValueError, RuntimeError) as exc:
                assert row.solution is None and row.error == str(exc)
                continue
            assert row.error is None and row.solution == expected
            if expected.case_label == "WaterAbstracting":
                assert expected == _two_root_solution(model, lift, q, row.kbar, pbar)

    def test_one_variability_root_and_cost_roots_only_where_cost_binds(self, model_lift):
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        q = 0.6
        lo, hi = p_bounds(model, lift, q)
        pbar = lo + 0.3 * (hi - lo)
        h_var = solve_pbar_h(model, lift, q, pbar)
        k_var = eval_K(model, lift, q, h_var)
        grid = list(k_var * np.geomspace(1e-3, 1e3, 12))  # six below K(h_var), six above
        calls = {"eval_K": 0, "eval_P": 0, "solve_hbar": 0, "solve_pbar_h": 0}

        def counted(name):
            original = getattr(control, name)

            def count(*args):
                calls[name] += 1
                return original(*args)
            return count

        def counts(fn):
            calls.update(dict.fromkeys(calls, 0))
            with pytest.MonkeyPatch.context() as mp:
                for name in calls:
                    mp.setattr(control, name, counted(name))
                fn()
            return dict(calls)

        root = counts(lambda: solve_pbar_h(model, lift, q, pbar))
        cost_roots = counts(lambda: [solve_hbar(model, lift, q, k) for k in grid[:6]])
        problem = ControlProblem(model=model, lift=lift, kbar=1.0, qhat=q * total, pbar=pbar)
        rows = []
        got = counts(lambda: rows.extend(sweep(problem, grid)))
        assert [row.solution.active_constraint for row in rows] == ["cost"] * 6 + ["variability"] * 6
        assert got["solve_pbar_h"] == 1 and got["solve_hbar"] == 6
        # the roots' own calls, one K(h_var), and J, K, P once per distinct solution
        assert got["eval_P"] == root["eval_P"] + 6 + 1
        assert got["eval_K"] == cost_roots["eval_K"] + 1 + 6

    def test_unattainable_pbar_is_every_rows_error_without_cost_roots(self, model_lift):
        # the variability bound fails for every kbar, so no cost root is solved,
        # and kbar = 1e300, whose cost root lies near the top of the float
        # range, reports the infeasible pbar too
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        q = 0.6
        problem = ControlProblem(model=model, lift=lift, kbar=1e300, qhat=q * total,
                                 pbar=0.5 * p_bounds(model, lift, q)[0])
        with pytest.raises(InfeasibleProblem, match="attainable minimum") as raised:
            solve(problem)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(control, "solve_hbar", lambda *args: calls.append(args))
            rows = sweep(problem, [1e-3, 1e-2, 1e-1, 1e300])
        assert calls == []
        assert [row.error for row in rows] == [str(raised.value)] * 4
        assert all(row.solution is None for row in rows)

    def test_variability_solution_where_the_cost_root_cannot_be_bracketed(self, model_lift):
        # K(h) grows only linearly for h far above the rates r_i D (K/h -> 0.038),
        # so the cost root for kbar = 1e150 lies near h = 2.6e151, and for
        # kbar = 1e308 near 2.6e309, beyond the float range; the variability
        # bound binds far below either, and no cost root is needed for it
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        q = 0.6
        lo, hi = p_bounds(model, lift, q)
        pbar = 0.5 * (lo + hi)
        h_cost = solve_hbar(model, lift, q, 1e150)
        assert eval_K(model, lift, q, h_cost) == pytest.approx(1e150, rel=1e-12)
        with pytest.raises(RuntimeError, match="float range"):
            solve_hbar(model, lift, q, 1e308)
        h_var = solve_pbar_h(model, lift, q, pbar)
        for kbar in (1e150, 1e308):
            problem = ControlProblem(model=model, lift=lift, kbar=kbar, qhat=q * total, pbar=pbar)
            sol = solve(problem)
            assert (sol.active_constraint, sol.hbar) == ("variability", h_var)
            assert sweep(problem, [kbar])[0].solution == sol

    def test_cost_root_up_to_the_float_range_and_refused_beyond(self, model_lift):
        # the bracket is cut only at the float range, and K is formed without
        # h^2, so every cost root below the float range is found: K/h -> 0.038
        # puts the root for kbar = 1e300 near h = 2.6e301; the root for
        # kbar = 1e308 lies near 2.6e309, beyond it, and is refused
        model, lift = model_lift
        total = model.baseflow + stationary_mean(model, lift)
        q = 0.6
        problem = ControlProblem(model=model, lift=lift, kbar=1.0, qhat=q * total)
        for kbar in (1e100, 1e120, 1e150, 1e200, 1e300):
            h = solve_hbar(model, lift, q, kbar)
            assert eval_K(model, lift, q, h) == pytest.approx(kbar, rel=1e-12)
            sol = solve(replace(problem, kbar=kbar))
            assert (sol.active_constraint, sol.hbar) == ("cost", h)
        with pytest.raises(RuntimeError, match="float range"):
            solve_hbar(model, lift, q, 1e308)
        with pytest.raises(RuntimeError, match="float range"):
            solve(replace(problem, kbar=1e308))
        rows = sweep(problem, [1e150, 1e300, 1e308])
        assert [row.solution.active_constraint for row in rows[:2]] == ["cost", "cost"]
        assert rows[2].solution is None and "float range" in rows[2].error

    @pytest.mark.parametrize("kbar, most", [(1e-300, 10), (1.0, 10), (1e3, 10), (1e150, 10), (1e300, 50)])
    def test_cost_root_in_the_closed_form_bracket_is_cheap(self, model_lift, kbar, most):
        # h S <= D / R_n, so K(h) <= (1-q)^2 Var (D / R_n) h and the root lies
        # at or above kbar R_n / ((1-q)^2 Var D): a bracket doubled from
        # sqrt(kbar / ((1-q)^2 Var)) took 257 K evaluations at kbar = 1e150 and
        # 544 at 1e300, where the closed-form bracket takes a few. Brent's
        # method on [0, hi] did not reach the root near 4e-150 for kbar =
        # 1e-300 in its 100 iterations
        model, lift = model_lift
        q = 0.6
        scale = (1.0 - q) ** 2 * stationary_variance(model, lift)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(control, "eval_K", lambda *args: calls.append(args) or eval_K(*args))
            h = solve_hbar(model, lift, q, kbar)
        assert h >= kbar * lift.inv_mean / (scale * model.D)
        assert len(calls) <= most
        assert abs(eval_K(model, lift, q, h) / kbar - 1.0) <= 1e-12


class TestBkeResiduals:
    def test_machine_precision_residuals(self, model_lift):
        model, lift = model_lift
        rng = np.random.default_rng(2)
        states = rng.uniform(0.0, 3.0, size=(50, lift.n + 1))
        for q, h in [(0.5, 0.1), (0.7, 0.9), (1.6, 0.45)]:
            assert bke_residual_J(model, lift, q, h, states) < 1e-12
            assert bke_residual_K(model, lift, q, h, states) < 1e-12

    def test_singleton_lift(self, model_lift):
        model, _ = model_lift
        lift = build_lift(model.pi, 0)
        rng = np.random.default_rng(4)
        states = rng.uniform(0.0, 3.0, size=(50, 2))
        assert bke_residual_J(model, lift, 0.8, 0.6, states) < 1e-12
        assert bke_residual_K(model, lift, 0.8, 0.6, states) < 1e-12

    def test_perturbation_raises_residual(self, model_lift):
        model, lift = model_lift
        rng = np.random.default_rng(2)
        states = rng.uniform(0.0, 3.0, size=(50, lift.n + 1))
        q, h = 0.5, 0.1
        assert bke_residual_J(model, lift, q, h, states, perturb=("a", 0, 0, 1.01)) > 1e-4
        assert bke_residual_K(model, lift, q, h, states, perturb=("b", 1, 0, 1.01)) > 1e-4
        assert bke_residual_J(model, lift, q, h, states, perturb=("const", 0, 0, 1.01)) > 1e-4

    @pytest.mark.parametrize(
        "perturb",
        [("a", 7, 0, 1.01), ("a", 0, 3, 1.01), ("b", -1, 0, 1.01), ("a", 0, -1, 1.01), ("const", 3, 0, 1.01)],
    )
    def test_perturbation_index_out_of_range_rejected(self, model_lift, perturb):
        # negative indices would silently reach the last coefficient through numpy
        model = model_lift[0]
        lift = build_lift(model.pi, 1)
        states = np.ones((3, lift.n + 1))
        with pytest.raises(ValueError, match="outside 0..2"):
            bke_residual_J(model, lift, 0.5, 0.1, states, perturb=perturb)
        with pytest.raises(ValueError, match="outside 0..2"):
            bke_residual_K(model, lift, 0.5, 0.1, states, perturb=perturb)

    @pytest.mark.parametrize("perturb", [("a", 0, 0, math.nan), ("z", 0, 0, 1.01)])
    def test_perturbation_kind_and_factor_checked(self, model_lift, perturb):
        # the certificate, not its caller, refuses a kind it does not know and a NaN factor
        model, lift = model_lift
        states = np.ones((3, lift.n + 1))
        with pytest.raises(ValueError, match="perturbation (kind|factor)"):
            bke_residual_J(model, lift, 0.5, 0.1, states, perturb=perturb)
        with pytest.raises(ValueError, match="perturbation (kind|factor)"):
            bke_residual_K(model, lift, 0.5, 0.1, states, perturb=perturb)

    def test_empty_state_set_rejected(self, model_lift):
        model, lift = model_lift
        states = np.empty((0, lift.n + 1))
        with pytest.raises(ValueError, match="at least one state"):
            bke_residual_J(model, lift, 0.5, 0.1, states)
        with pytest.raises(ValueError, match="at least one state"):
            bke_residual_K(model, lift, 0.5, 0.1, states)

    def test_single_state_is_a_batch_of_one(self, model_lift):
        model, lift = model_lift
        y = np.random.default_rng(6).uniform(0.0, 3.0, size=lift.n + 1)
        for fn in (bke_residual_J, bke_residual_K):
            for perturb in (None, ("a", 0, 1, 1.01)):
                one = fn(model, lift, 0.5, 0.1, y, perturb=perturb)
                assert one == fn(model, lift, 0.5, 0.1, y[None, :], perturb=perturb)

    def test_batch_matches_per_state_reference(self):
        for model, lift, q, h, xhat, states, perturb in _residual_cases():
            ansatz = _apply_perturbation(variance_bke_coefficients(model, lift, q, h, xhat), perturb)
            ref = _reference_residual(model, lift, q, h, ansatz, states, lambda y: (y[0] - xhat) ** 2)
            got = bke_residual_J(model, lift, q, h, states, perturb=perturb)
            assert got == pytest.approx(ref, rel=0.0, abs=1e-12)
            ansatz = _apply_perturbation(cost_bke_coefficients(model, lift, q, h), perturb)
            ref = _reference_residual(
                model, lift, q, h, ansatz, states, lambda y: (y[0] - q * float(np.sum(y[1:]))) ** 2)
            got = bke_residual_K(model, lift, q, h, states, perturb=perturb)
            assert got == pytest.approx(ref, rel=0.0, abs=1e-12)

    def test_solved_b_matches_closed_form(self):
        # b solved from the BKE's linear terms equals the hand-derived closed forms
        for model, lift, q, h, xhat, _, _ in _residual_cases():
            var_b, cost_b = _closed_form_b(model, lift, q, h, xhat)
            for got, ref in ((variance_bke_coefficients(model, lift, q, h, xhat).b, var_b),
                             (cost_bke_coefficients(model, lift, q, h).b, cost_b)):
                assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.05, 6.0),
        beta=st.floats(1e-3, 10.0),
        c1=st.one_of(st.floats(-0.9, -0.01), st.just(0.0), st.floats(0.01, 0.95)),
        c2=st.floats(0.01, 10.0),
        a=st.floats(1e-3, 10.0),
        excitation=st.floats(0.0, 0.95),
        m=st.integers(0, 6),
        q=st.floats(0.05, 3.0),
        log_h=st.floats(-3.0, 3.0),
    )
    def test_residuals_vanish_over_six_decades_of_h(
        self, alpha, beta, c1, c2, a, excitation, m, q, log_h
    ):
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(
            A=a, B=excitation / levy_moment(nu, 1),
            pi=GammaMixingMeasure(alpha=alpha, beta=beta), nu=nu,
        )
        lift = build_lift(model.pi, m)
        h = 10.0**log_h
        states = np.random.default_rng(m).uniform(0.0, 3.0, size=(20, lift.n + 1))
        assert bke_residual_J(model, lift, q, h, states) <= 1e-8
        assert bke_residual_K(model, lift, q, h, states) <= 1e-8

    @seed(23)
    @settings(max_examples=80, deadline=None, database=None)
    @given(
        alpha=st.floats(1.05, 6.0),
        beta=st.floats(1e-3, 10.0),
        c1=st.one_of(st.floats(-0.9, -0.01), st.just(0.0), st.floats(0.01, 0.95)),
        c2=st.floats(0.01, 10.0),
        a=st.floats(1e-3, 10.0),
        excitation=st.floats(0.0, 0.95),
        m=st.integers(0, 3),
        draws=st.integers(1, 6),
        kind=st.sampled_from([None, "a", "b", "const"]),
        index=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        factor=st.floats(0.5, 2.0),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_draws_equal_their_scalar_calls(
        self, alpha, beta, c1, c2, a, excitation, m, draws, kind, index, factor, draw_seed
    ):
        # a leading draw axis only loops the scalar call's operations: each
        # draw's coefficients and residuals are the scalar call's, bit for bit
        nu = TemperedStableLevy(c1=c1, c2=c2)
        model = SupCbiModel(
            A=a, B=excitation / levy_moment(nu, 1),
            pi=GammaMixingMeasure(alpha=alpha, beta=beta), nu=nu,
        )
        lift = build_lift(model.pi, m)
        perturb = None if kind is None else (kind, *(i % (lift.n + 1) for i in index), factor)
        rng = np.random.default_rng(draw_seed)
        q, h = rng.uniform(0.05, 3.0, draws), 10.0 ** rng.uniform(-3.0, 3.0, draws)
        states = rng.uniform(0.0, 5.0, size=(draws, int(rng.integers(1, 30)), lift.n + 1))
        xhat = q * stationary_mean(model, lift)
        var = _apply_perturbation(variance_bke_coefficients(model, lift, q, h, xhat), perturb)
        cost = _apply_perturbation(cost_bke_coefficients(model, lift, q, h), perturb)
        res_j = bke_residual_J(model, lift, q, h, states, perturb=perturb)
        res_k = bke_residual_K(model, lift, q, h, states, perturb=perturb)
        assert res_j.shape == res_k.shape == (draws,)
        for d in range(draws):
            qd, hd = float(q[d]), float(h[d])
            one_var = _apply_perturbation(variance_bke_coefficients(model, lift, qd, hd, float(xhat[d])), perturb)
            one_cost = _apply_perturbation(cost_bke_coefficients(model, lift, qd, hd), perturb)
            for stacked, one in ((var, one_var), (cost, one_cost)):
                assert np.array_equal(stacked.a[d], one.a, equal_nan=True)
                assert np.array_equal(stacked.b[d], one.b, equal_nan=True)
                assert np.array_equal(stacked.constant[d], one.constant, equal_nan=True)
            one_j = bke_residual_J(model, lift, qd, hd, states[d], perturb=perturb)
            one_k = bke_residual_K(model, lift, qd, hd, states[d], perturb=perturb)
            assert type(one_j) is float and type(one_k) is float
            assert np.array_equal(res_j[d], one_j, equal_nan=True)
            assert np.array_equal(res_k[d], one_k, equal_nan=True)

    @pytest.mark.parametrize("m", [0, 3, 7])
    def test_coefficients_match_meshgrid_transcription(self, m):
        model = make_model()
        lift = build_lift(model.pi, m)
        q, h, D = 0.7, 0.45, model.D
        pi_, pj_ = np.meshgrid(lift.r / h, lift.r / h, indexing="ij")
        var_block = (
            (q - pi_ * D) * (q - pj_ * D) / ((pi_ + pj_) * D)
            * (1.0 / (pj_ * D + 1.0) + 1.0 / (pi_ * D + 1.0))
            / h
        )
        pdi, pdj = pi_ * D + 1.0, pj_ * D + 1.0
        cost_block = (
            (q * pj_ * (q - 1.0) + pi_ * (q + pj_ * D)) / pdj
            + (q * pi_ * (q - 1.0) + pj_ * (q + pi_ * D)) / pdi
        ) / ((pi_ + pj_) * h)
        var = variance_bke_coefficients(model, lift, q, h, 1.3)
        cost = cost_bke_coefficients(model, lift, q, h)
        assert np.array_equal(var.a[1:, 1:], var_block)
        assert np.array_equal(cost.a[1:, 1:], cost_block)

    def test_cost_block_does_not_cancel_at_small_rate_over_h(self):
        # r_1 D / h = 1.5e-4 and q near 1: expanding the a-block as O(q^2)
        # terms lost 2.6e-12 of a_11 here, and the K residual read 2.6e-7
        model = make_model(A=2.0, B=0.0, alpha=1.0625, beta=0.0039, c1=0.0, c2=1.0)
        lift = build_lift(model.pi, 0)
        q, h = 1.0625, 100.0
        with mpmath.workdps(50):
            pd, mq = mpmath.mpf(float(lift.r[0])) / h * model.D, mpmath.mpf(q)
            exact = float((2 * mq * mq - 2 * (mq - pd) * (mq + pd) / (pd + 1)) / (2 * pd) / h)
        assert cost_bke_coefficients(model, lift, q, h).a[1, 1] == pytest.approx(exact, rel=1e-14)
        for seed in range(3):
            states = np.random.default_rng(seed).uniform(0.0, 3.0, size=(20, lift.n + 1))
            assert bke_residual_K(model, lift, q, h, states) <= 1e-8


def _two_root_solution(model, lift, q, kbar, pbar):
    """The WaterAbstracting solution from both roots: the smaller of the cost and variability roots."""
    hbar = h_cost = solve_hbar(model, lift, q, kbar)
    active = "cost"
    if pbar is not None:
        h_var = solve_pbar_h(model, lift, q, pbar)
        if h_var < h_cost:
            hbar, active = h_var, "variability"
    return control.ControlSolution(
        case_label="WaterAbstracting", q=q, hbar=hbar, rho=q * hbar, u=-(1.0 - q) * hbar,
        J=eval_J(model, lift, q, hbar), K=eval_K(model, lift, q, hbar),
        P=eval_P(model, lift, q, hbar) if pbar is not None else None,
        active_constraint=active, attained=True, rho_arbitrary=False,
    )


def _residual_cases():
    """Every c1 branch, B = 0 and B > 0, m = 0..4, with and without a perturbed coefficient."""
    rng = np.random.default_rng(23)
    perturbs = [None, ("a", 0, 0, 1.01), ("a", 0, 1, 0.99), ("a", 1, 1, 1.02),
                ("b", 0, 0, 1.01), ("b", 1, 0, 0.98), ("const", 0, 0, 1.01)]
    cases = itertools.product((0.4, 0.0, -0.7), (False, True), perturbs)
    for trial, (c1, self_exciting, perturb) in enumerate(cases):
        model = make_model(B=0.0, alpha=rng.uniform(1.2, 6.0), beta=rng.uniform(0.1, 2.0),
                           c1=c1, c2=rng.uniform(0.5, 3.0))
        if self_exciting:
            model = make_model(B=rng.uniform(0.1, 0.9) / model.M1, alpha=model.pi.alpha,
                               beta=model.pi.beta, c1=c1, c2=model.nu.c2)
        lift = build_lift(model.pi, trial % 5)
        q, h = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 3.0))
        xhat = q * stationary_mean(model, lift)
        states = rng.uniform(0.0, 5.0, size=(30, lift.n + 1))
        yield model, lift, q, h, xhat, states, perturb


def _closed_form_b(model, lift, q, h, xhat):
    """The hand-derived linear coefficients b of the variance and the cost ansatz."""
    D, am1, half_bm2 = model.D, model.A * model.M1, 0.5 * model.B * model.M2
    p = lift.r / h
    pd1 = p * D + 1.0
    cr = lift.c / lift.r
    s1 = float(np.sum(cr * p / pd1))
    s2 = float(np.sum(cr * p))

    var_block = variance_bke_coefficients(model, lift, q, h, xhat).a[1:, 1:]
    var_b0 = (-2.0 * xhat + (q + 1.0) * am1 * s1) / h
    rhs = (
        -2.0 * q * xhat
        + q * (q + 1.0) * am1 * s1
        + half_bm2 * (p * D + q * q) / (D * pd1)
        + am1 * (q - p * D) / pd1 * s2
        + am1 * h * var_block @ (cr * p)
    )
    var_b = np.concatenate([[var_b0], rhs / (lift.r * D) - var_b0])

    cost_block = cost_bke_coefficients(model, lift, q, h).a[1:, 1:]
    cost_b0 = -am1 * (q - 1.0) / h * s1
    diag_quad = (-((q + p * D) ** 2) + (p * D + q * q) * pd1) / (D * pd1)
    rhs = (
        -q * (q - 1.0) * am1 * s1
        + half_bm2 * diag_quad
        - am1 * (q + p * D) / pd1 * s2
        + am1 * h * cost_block @ (cr * p)
    )
    cost_b = np.concatenate([[cost_b0], rhs / (lift.r * D) - cost_b0])
    return var_b, cost_b


def _reference_residual(model, lift, q, h, ansatz, states, running_cost):
    """The BKE residual evaluated one state at a time (running_cost takes one state)."""
    rho = q * h
    r = lift.r
    a, b, const = ansatz.a, ansatz.b, ansatz.constant
    worst = 0.0
    for y in np.atleast_2d(states):
        grad = a @ y + b
        run = running_cost(y)
        drift = (-h * y[0] + float(np.sum((rho - r) * y[1:]))) * grad[0]
        decay = -float(np.sum(r * y[1:] * grad[1:]))
        diag = a[0, 0] + 2.0 * a[0, 1:] + np.diagonal(a)[1:]
        lin = (a[0:1, :] + a[1:, :]) @ y
        jump_per_comp = 0.5 * model.M2 * diag + model.M1 * lin + model.M1 * (b[0] + b[1:])
        intensity = lift.c * model.A + r * model.B * y[1:]
        jump = float(np.sum(intensity * jump_per_comp))
        terms = np.array([const, run, drift, decay, jump])
        residual = -const + run + drift + decay + jump
        scale = max(np.max(np.abs(terms)), 1e-300)
        worst = max(worst, abs(residual) / scale)
    return worst


def _quadrature_J_K_P(model, q, h):
    """J, K, P from their measure integrals against pi, by tanh-sinh quadrature.

    tanhsinh evaluates the integrand on arrays of nodes, so the scipy.stats
    density costs one call per level rather than one per node.
    """
    pi, D = model.pi, model.D
    pdf = stats.gamma(pi.alpha, scale=pi.beta).pdf

    def integral(f):
        # split at the mean: the integrand may be singular at 0 and peaked near the mean
        mid = pi.alpha * pi.beta
        return sum(
            integrate.tanhsinh(lambda r: f(r) * pdf(r), lo, hi, rtol=1e-13).integral
            for lo, hi in ((0.0, mid), (mid, np.inf))
        )

    var_scale = 0.5 * model.A * model.M2 / D**2
    mean = model.A * model.M1 / D * integral(lambda r: 1.0 / r)
    return (
        var_scale * integral(lambda r: (r * D + q * q * h) / (r * (r * D + h))),
        h * h * (1.0 - q) ** 2 * var_scale * integral(lambda r: D / (r * D + h)),
        (q - 1.0) ** 2 * (mean**2 + var_scale * integral(lambda r: h / (r * (r * D + h)))),
    )


def _continuum_J_K_P(model, q, h):
    continuum = GammaContinuum(model.pi)
    return tuple(f(model, continuum, q, h) for f in (eval_J, eval_K, eval_P))


class TestContinuum:
    @pytest.mark.parametrize("alpha,beta", [(1.3, 0.5), (2.1, 0.8), (5.0, 0.1), (40.0, 0.02)])
    def test_against_quadrature(self, alpha, beta):
        model = make_model(alpha=alpha, beta=beta)
        for q in (0.3, 1.7):
            for h in (1e-3, 0.05, 0.8, 20.0, 1e3):
                exact = _continuum_J_K_P(model, q, h)
                assert exact == pytest.approx(_quadrature_J_K_P(model, q, h), rel=1e-8)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        log_c=st.floats(-6.0, math.log10(59.0)),
        log_z=st.floats(-12.0, 6.0),
        q=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
    )
    @example(log_c=math.log10(0.05), log_z=math.log10(17.0), q=0.6)  # hyperu was 6.1e-7 off
    # alpha = 16 + 4e-15: hyperu gave U = -63.7 here (nan at alpha = 16)
    @example(log_c=math.log10(15.0), log_z=0.0, q=0.6)
    def test_against_mpmath(self, log_c, log_z, q):
        # alpha = 1 + c, log-spaced near 1; S = c z^c e^z Gamma(-c, z) at z = h / (D beta)
        model = make_model(alpha=1.0 + 10.0**log_c)
        pi = model.pi
        h = 10.0**log_z * model.D * pi.beta
        with mpmath.workdps(50):
            c = mpmath.mpf(pi.alpha) - 1
            z = mpmath.mpf(h) / (mpmath.mpf(model.D) * mpmath.mpf(pi.beta))
            ratio = c * z**c * mpmath.exp(z) * mpmath.gammainc(-c, z)
            r_exact = 1 / (mpmath.mpf(pi.beta) * c)
            mean = mpmath.mpf(model.A) * model.M1 / model.D * r_exact
            var = mpmath.mpf(0.5) * model.A * model.M2 / mpmath.mpf(model.D) ** 2 * r_exact
            mq, mh = mpmath.mpf(q), mpmath.mpf(h)
            exact = [
                float(var * (1 + (mq * mq - 1) * (1 - ratio))),
                float(mh * mh * (1 - mq) ** 2 * var * ratio),
                float((mq - 1) ** 2 * (mean**2 + var * (1 - ratio))),
            ]
        assert list(_continuum_J_K_P(model, q, h)) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.3, 2.1, 2.329, 5.0])
    @pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-6])
    def test_h_dependent_parts_at_small_h_against_mpmath(self, alpha, z):
        # J - Var = Var (q^2 - 1) T and P - P_lo = (q-1)^2 Var T: T forms no
        # difference, so both hold to rounding however small T is (the form
        # T = 1 - S was up to 5e-4 off at z = 1e-12). A tiny A makes E[Y_n]^2
        # negligible beside Var T, and a large q makes q^2 T dominate J, so
        # neither subtraction below cancels
        model = make_model(A=1e-20, alpha=alpha)
        continuum = GammaContinuum(model.pi)
        q, h = 1e7, z * model.D * model.pi.beta
        var = stationary_variance(model, continuum)
        j_part = eval_J(model, continuum, q, h) - var
        p_part = eval_P(model, continuum, q, h) - p_bounds(model, continuum, q)[0]
        with mpmath.workdps(50):
            c, mz = mpmath.mpf(alpha) - 1, mpmath.mpf(z)
            var_t = (mpmath.mpf(0.5) * model.A * model.M2 / mpmath.mpf(model.D) ** 2
                     / (mpmath.mpf(model.pi.beta) * c) * mz**c * mpmath.exp(mz) * mpmath.gammainc(1 - c, mz))
            exact = [float((mpmath.mpf(q) ** 2 - 1) * var_t), float((mpmath.mpf(q) - 1) ** 2 * var_t)]
        assert [j_part, p_part] == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_uncontrolled_limit(self):
        model = make_model()
        var = 0.5 * model.A * model.M2 / model.D**2 * inv_mean(model.pi)
        mean = model.A * model.M1 / model.D * inv_mean(model.pi)
        J, K, P = _continuum_J_K_P(model, 0.6, 0.0)
        assert (J, K) == (var, 0.0)
        assert P == pytest.approx(0.16 * mean**2, rel=1e-15)
        # the resolvent's S tends to 1 continuously as h -> 0
        assert _continuum_J_K_P(model, 0.6, 1e-12)[0] == pytest.approx(J, rel=1e-9)

    def test_quadrature_converges(self):
        model = make_model()
        q, h = 0.7, 0.8
        exact = _continuum_J_K_P(model, q, h)
        coarse, fine = build_lift(model.pi, 6), build_lift(model.pi, 13)
        for evaluate, value in zip((eval_J, eval_K, eval_P), exact):
            err_coarse = abs(evaluate(model, coarse, q, h) - value)
            err_fine = abs(evaluate(model, fine, q, h) - value)
            assert err_fine < err_coarse

    @pytest.mark.parametrize("alpha, beta", [(1.5, 1.0), (2.1, 0.8), (4.0, 0.3)])
    def test_solve_and_sweep_match_the_finest_lift(self, alpha, beta):
        # at equal q, the m = 13 lift falls short of the continuum by no more
        # than its own error in R: R_13 / R <= J_13 / J <= 1, hbar agrees to
        # 1 - R_13 / R, and K is the bound on both
        model = make_model(alpha=alpha, beta=beta)
        continuum, lift = GammaContinuum(model.pi), build_lift(model.pi, 13)
        ratio = lift.inv_mean / continuum.inv_mean
        grid = np.geomspace(1e-6, 1e4, 11).tolist()

        def problem(spectrum):
            qhat = 0.6 * stationary_mean(model, spectrum)
            return ControlProblem(model=model, lift=spectrum, kbar=1.0, qhat=qhat)

        pairs = [(solve(problem(continuum)), solve(problem(lift)))]
        rows = zip(sweep(problem(continuum), grid), sweep(problem(lift), grid))
        pairs += [(a.solution, b.solution) for a, b in rows]
        for cont, fine in pairs:
            assert cont.active_constraint == fine.active_constraint == "cost"
            assert ratio <= fine.J / cont.J <= 1.0
            assert fine.hbar == pytest.approx(cont.hbar, rel=1.0 - ratio)
            assert fine.K == pytest.approx(cont.K, rel=1e-11)

    @pytest.mark.parametrize("kbar", [1e300, 1e306, 1e307, 1e308])
    def test_roots_near_the_float_range_raise_no_warning(self, kbar):
        # K/h tends to 0.038, so the roots for kbar = 1e300 and 1e306 lie near
        # 2.6e301 and 2.6e307, and those for 1e307 and 1e308 beyond the float
        # range. Doubling h towards the float maximum used to make quad warn
        # of bad integrand behaviour before the refusal: its interval
        # [0, log1p(750 / z)] neared the underflow threshold, and z = h / (D
        # beta) overflowed to inf
        model = make_model()
        continuum = GammaContinuum(model.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kbar < 1e307:
                h = solve_hbar(model, continuum, 0.6, kbar)
                assert abs(eval_K(model, continuum, 0.6, h) / kbar - 1.0) <= 1e-12
            else:
                with pytest.raises(RuntimeError, match="float range"):
                    solve_hbar(model, continuum, 0.6, kbar)

    @pytest.mark.parametrize("h", [1e17, 1e300, 1e306, 1e307, 1.7e308])
    def test_resolvent_near_the_float_maximum(self, h):
        # far above D beta, S = c / z and T = 1 to rounding, z = h / (D beta)
        # overflowing to inf at h = 1.7e308 included
        model = make_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, t = GammaContinuum(model.pi).resolvent(h, model.D)
        c = model.pi.alpha - 1.0
        assert s * h / (c * model.D * model.pi.beta) == pytest.approx(1.0, rel=1e-15)
        assert t == pytest.approx(1.0, rel=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.05, 20.0),
        beta=st.floats(1e-3, 10.0),
        q=st.floats(0.01, 0.99),
        log_kbar=st.floats(-8.0, 8.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_root_solvers_run_unchanged(self, alpha, beta, q, log_kbar, frac):
        # the lift's root solvers take the continuum as they are: K(hbar) = kbar
        # and P(h) = pbar to rounding
        model = make_model(alpha=alpha, beta=beta)
        continuum = GammaContinuum(model.pi)
        kbar = 10.0**log_kbar
        hbar = solve_hbar(model, continuum, q, kbar)
        assert abs(eval_K(model, continuum, q, hbar) / kbar - 1.0) <= 1e-11
        lo, hi = p_bounds(model, continuum, q)
        pbar = lo + frac * (hi - lo)
        h = solve_pbar_h(model, continuum, q, pbar)
        assert abs(eval_P(model, continuum, q, h) / pbar - 1.0) <= 1e-11
