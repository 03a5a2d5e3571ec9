import io
import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from supcbi.control import (
    ControlProblem,
    InfeasibleProblem,
    _apply_perturbation,
    bke_residual_J,
    bke_residual_K,
    continuum_J_K_P,
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
from supcbi.lift import build_lift
from supcbi.measures import GammaMixingMeasure, TemperedStableLevy, inv_mean
from supcbi.process import SupCbiModel, stationary_mean, stationary_variance


def make_model(A=0.5, B=0.3, alpha=2.1, beta=0.8, c1=0.4, c2=1.3, baseflow=0.0):
    return SupCbiModel(
        A=A, B=B, pi=GammaMixingMeasure(alpha=alpha, beta=beta),
        nu=TemperedStableLevy(c1=c1, c2=c2), baseflow=baseflow,
    )


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


class TestSolvers:
    def test_hbar_round_trip(self, model_lift):
        model, lift = model_lift
        for q in (0.3, 0.85):
            for h0 in (0.05, 0.7, 4.0):
                k0 = eval_K(model, lift, q, h0)
                hp = solve_hbar(model, lift, q, k0, method="picard")
                hb = solve_hbar(model, lift, q, k0, method="bisect")
                assert hp == pytest.approx(h0, rel=1e-10)
                assert hb == pytest.approx(hp, rel=1e-10)

    def test_hbar_rejects_balanced(self, model_lift):
        model, lift = model_lift
        with pytest.raises(ValueError):
            solve_hbar(model, lift, 1.0, 0.5)

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
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "Kbar,hbar,rho,u,J,K,P,active_constraint"
        assert len(lines) == 3
        assert lines[1].endswith(",,")  # no Pbar: empty P and active columns


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
        # every c1 branch, B = 0 and B > 0, m = 0..4, with and without a perturbed coefficient
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
            ansatz = _apply_perturbation(variance_bke_coefficients(model, lift, q, h, xhat), perturb)
            ref = _reference_residual(model, lift, q, h, ansatz, states, lambda y: (y[0] - xhat) ** 2)
            got = bke_residual_J(model, lift, q, h, states, perturb=perturb)
            assert got == pytest.approx(ref, rel=0.0, abs=1e-12)
            ansatz = _apply_perturbation(cost_bke_coefficients(model, lift, q, h), perturb)
            ref = _reference_residual(
                model, lift, q, h, ansatz, states, lambda y: (y[0] - q * float(np.sum(y[1:]))) ** 2)
            got = bke_residual_K(model, lift, q, h, states, perturb=perturb)
            assert got == pytest.approx(ref, rel=0.0, abs=1e-12)

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
            1.0 / ((pi_ + pj_) * D)
            * (-(q - pi_ * D) * (q + pj_ * D) / pdj - (q - pj_ * D) * (q + pi_ * D) / pdi + 2.0 * q * q)
            / h
        )
        var = variance_bke_coefficients(model, lift, q, h, 1.3)
        cost = cost_bke_coefficients(model, lift, q, h)
        assert np.array_equal(var.a[1:, 1:], var_block)
        assert np.array_equal(cost.a[1:, 1:], cost_block)


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
    """J, K, P from their measure integrals against pi, by adaptive quadrature."""
    pi, D = model.pi, model.D

    def integral(f):
        # split at the mean: the integrand may be singular at 0 and peaked near the mean
        mid = pi.alpha * pi.beta
        return sum(
            integrate.quad(lambda r: f(r) * pi.pdf(r), lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for lo, hi in ((0.0, mid), (mid, np.inf))
        )

    var_scale = 0.5 * model.A * model.M2 / D**2
    mean = model.A * model.M1 / D * integral(lambda r: 1.0 / r)
    return (
        var_scale * integral(lambda r: (r * D + q * q * h) / (r * (r * D + h))),
        h * h * (1.0 - q) ** 2 * var_scale * integral(lambda r: D / (r * D + h)),
        (q - 1.0) ** 2 * (mean**2 + var_scale * integral(lambda r: h / (r * (r * D + h)))),
    )


class TestContinuum:
    @pytest.mark.parametrize("alpha,beta", [(1.3, 0.5), (2.1, 0.8), (5.0, 0.1), (40.0, 0.02)])
    def test_against_quadrature(self, alpha, beta):
        model = make_model(alpha=alpha, beta=beta)
        for q in (0.3, 1.7):
            for h in (1e-3, 0.05, 0.8, 20.0, 1e3):
                exact = continuum_J_K_P(model, q, h)
                assert exact == pytest.approx(_quadrature_J_K_P(model, q, h), rel=1e-8)

    def test_uncontrolled_limit(self):
        model = make_model()
        var = 0.5 * model.A * model.M2 / model.D**2 * inv_mean(model.pi)
        mean = model.A * model.M1 / model.D * inv_mean(model.pi)
        J, K, P = continuum_J_K_P(model, 0.6, 0.0)
        assert (J, K) == (var, 0.0)
        assert P == pytest.approx(0.16 * mean**2, rel=1e-15)
        # the resolvent ratio tends to 1 continuously as h -> 0
        assert continuum_J_K_P(model, 0.6, 1e-12)[0] == pytest.approx(J, rel=1e-9)

    def test_quadrature_converges(self):
        model = make_model()
        q, h = 0.7, 0.8
        exact = continuum_J_K_P(model, q, h)
        coarse, fine = build_lift(model.pi, 6), build_lift(model.pi, 13)
        for evaluate, value in zip((eval_J, eval_K, eval_P), exact):
            err_coarse = abs(evaluate(model, coarse, q, h) - value)
            err_fine = abs(evaluate(model, fine, q, h) - value)
            assert err_fine < err_coarse
