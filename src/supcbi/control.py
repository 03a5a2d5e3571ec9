"""Closed-form ergodic control of the lifted supCBI discharge.

Evaluators for the tracking variance J, the quadratic control cost K, and the
flow-modification variance P as functions of q = rho/(rho-u) and h = rho - u;
the constrained minimizer (Balanced / Water Adding / Water Abstracting cases,
with an optional variability bound); and residual certification of the
quadratic backward-Kolmogorov-equation solutions the formulas rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.special import hyperu

from .lift import MarkovianLift, lift_inv_mean
from .measures import inv_mean
from .process import SupCbiModel, stationary_mean, stationary_variance

__all__ = [
    "ControlProblem",
    "ControlSolution",
    "SweepRow",
    "InfeasibleProblem",
    "q_from_target",
    "eval_J",
    "eval_K",
    "eval_P",
    "p_bounds",
    "solve_hbar",
    "solve_pbar_h",
    "solve",
    "sweep",
    "write_sweep_csv",
    "variance_bke_coefficients",
    "cost_bke_coefficients",
    "bke_residual_J",
    "bke_residual_K",
    "continuum_J_K_P",
]


class InfeasibleProblem(ValueError):
    """The target or a bound makes the constrained problem infeasible."""


@dataclass(frozen=True)
class ControlProblem:
    model: SupCbiModel
    lift: MarkovianLift
    kbar: float
    qhat: Optional[float] = None  # target discharge, m^3/s
    qabs: Optional[float] = None  # target abstraction, m^3/s
    pbar: Optional[float] = None  # variability bound, m^6/s^2

    def __post_init__(self) -> None:
        if (self.qhat is None) == (self.qabs is None):
            raise ValueError("exactly one of qhat / qabs must be given")
        if self.kbar <= 0.0:
            raise ValueError("cost bound kbar must be positive")
        if self.pbar is not None and self.pbar <= 0.0:
            raise ValueError("variability bound pbar must be positive")


@dataclass(frozen=True)
class ControlSolution:
    case_label: str  # Balanced | WaterAdding | WaterAbstracting
    q: float
    hbar: float
    rho: float
    u: float
    J: float
    K: float
    P: Optional[float]
    active_constraint: str  # cost | variability | none
    attained: bool  # False in the Water Adding case (infimum only)
    rho_arbitrary: bool  # True in the Balanced case


def q_from_target(
    model: SupCbiModel,
    lift: MarkovianLift,
    qhat: float | None = None,
    qabs: float | None = None,
) -> float:
    """Dimensionless target ratio q from either a discharge or abstraction target.

    q = Qhat / (baseflow + E[Y_n]), or 1 - Qabs / (baseflow + E[Y_n]).
    """
    total_mean = model.baseflow + stationary_mean(model, lift)
    if total_mean <= 0.0:
        raise InfeasibleProblem("mean inflow must be positive")
    if (qhat is None) == (qabs is None):
        raise ValueError("exactly one of qhat / qabs must be given")
    q = qhat / total_mean if qhat is not None else 1.0 - qabs / total_mean
    if q <= 0.0:
        raise InfeasibleProblem(
            f"target implies q = {q:.6g} <= 0 (abstraction exceeds the mean inflow)"
        )
    return q


def _cost_sum(model: SupCbiModel, lift: MarkovianLift, h: float) -> float:
    """sum (c_i/r_i) r_i D / (r_i D + h), normalized by sum c_i/r_i."""
    rd = lift.r * model.D
    return float(np.sum(lift.c / lift.r * rd / (rd + h)) / lift_inv_mean(lift))


def eval_J(model: SupCbiModel, lift: MarkovianLift, q: float, h: float) -> float:
    """Tracking variance J(q, h) under the mean constraint; J(q, 0) = Var[Y_n]."""
    if h < 0.0 or q <= 0.0:
        raise ValueError("need h >= 0 and q > 0")
    rd = lift.r * model.D
    s = float(np.sum(lift.c / lift.r * (rd + q * q * h) / (rd + h)))
    return stationary_variance(model, lift) * s / lift_inv_mean(lift)


def eval_K(model: SupCbiModel, lift: MarkovianLift, q: float, h: float) -> float:
    """Control cost K(q, h) = h^2 (1-q)^2 Var[Y_n] * normalized damping sum."""
    if h < 0.0 or q <= 0.0:
        raise ValueError("need h >= 0 and q > 0")
    return h * h * (1.0 - q) ** 2 * stationary_variance(model, lift) * _cost_sum(model, lift, h)


def eval_P(model: SupCbiModel, lift: MarkovianLift, q: float, h: float) -> float:
    """Flow-modification variance P(q, h), increasing in h between its bounds."""
    if h < 0.0 or q <= 0.0:
        raise ValueError("need h >= 0 and q > 0")
    rd = lift.r * model.D
    s = float(np.sum(lift.c / lift.r * h / (rd + h)))
    mean = stationary_mean(model, lift)
    return (q - 1.0) ** 2 * (mean**2 + 0.5 * model.A * model.M2 / model.D**2 * s)


def p_bounds(model: SupCbiModel, lift: MarkovianLift, q: float) -> tuple[float, float]:
    """Lower/upper bounds of P over h: (q-1)^2 E[Y_n]^2 and (q-1)^2 E[Y_n^2]."""
    mean = stationary_mean(model, lift)
    var = stationary_variance(model, lift)
    return (q - 1.0) ** 2 * mean**2, (q - 1.0) ** 2 * (mean**2 + var)


def _bracket_bisect(f, target: float, hi: float, rel_tol: float) -> float | None:
    """Root of an increasing f at target: double hi until f(hi) > target, then bisect [0, hi].

    Bisection stops once the bracket is within rel_tol * hi; None when 200
    doublings do not bracket the root.
    """
    for _ in range(200):
        if f(hi) > target:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def solve_hbar(
    model: SupCbiModel,
    lift: MarkovianLift,
    q: float,
    kbar: float,
    method: str = "picard",
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Unique positive root of K(h) = kbar for q != 1.

    Picard iteration h <- sqrt(kbar / ((1-q)^2 Var * S(h))) with a
    monotone-bisection fallback; K is strictly increasing so the root exists
    and is unique.
    """
    if q <= 0.0 or q == 1.0:
        raise ValueError("root solving needs q > 0 and q != 1")
    if kbar <= 0.0:
        raise ValueError("kbar must be positive")
    var = stationary_variance(model, lift)
    scale = (1.0 - q) ** 2 * var

    def picard_map(h: float) -> float:
        return math.sqrt(kbar / (scale * _cost_sum(model, lift, h)))

    if method == "picard":
        h = math.sqrt(kbar / scale)  # large-h asymptote as the starting point
        for _ in range(max_iter):
            h_next = picard_map(h)
            if abs(h_next - h) <= rel_tol * h_next:
                return h_next
            h = h_next
        # fall through to bisection if the iteration stalls
    elif method != "bisect":
        raise ValueError(f"unknown method {method!r}")

    h = _bracket_bisect(
        lambda h: eval_K(model, lift, q, h), kbar, max(math.sqrt(kbar / scale), 1.0), rel_tol
    )
    if h is None:
        raise RuntimeError("failed to bracket the cost root")
    return h


def solve_pbar_h(
    model: SupCbiModel, lift: MarkovianLift, q: float, pbar: float, rel_tol: float = 1e-12
) -> float:
    """Root of P(h) = pbar; +inf when pbar is at or above the upper bound."""
    lo_bound, hi_bound = p_bounds(model, lift, q)
    if pbar < lo_bound:
        raise InfeasibleProblem(
            f"pbar = {pbar:.6g} lies below the attainable minimum {lo_bound:.6g}"
        )
    if pbar >= hi_bound:
        return math.inf
    h = _bracket_bisect(lambda h: eval_P(model, lift, q, h), pbar, 1.0, rel_tol)
    return math.inf if h is None else h


def solve(problem: ControlProblem) -> ControlSolution:
    """Constrained minimizer of J per the three target regimes.

    q = 1: no control needed; u = 0, rho arbitrary (reported as 1).
    q > 1: the infimum Var[Y_n] is approached but not attained (h -> 0).
    0 < q < 1: h is the largest value meeting the cost bound and, when given,
    the variability bound; rho = q*h, u = -(1-q)*h.
    """
    model, lift = problem.model, problem.lift
    q = q_from_target(model, lift, qhat=problem.qhat, qabs=problem.qabs)
    var = stationary_variance(model, lift)
    if q == 1.0:
        return ControlSolution(
            case_label="Balanced", q=q, hbar=0.0, rho=1.0, u=0.0, J=var, K=0.0,
            P=0.0 if problem.pbar is not None else None,
            active_constraint="none", attained=True, rho_arbitrary=True,
        )
    if q > 1.0:
        return ControlSolution(
            case_label="WaterAdding", q=q, hbar=0.0, rho=q * 0.0, u=0.0, J=var, K=0.0,
            P=p_bounds(model, lift, q)[0] if problem.pbar is not None else None,
            active_constraint="none", attained=False, rho_arbitrary=False,
        )
    h_cost = solve_hbar(model, lift, q, problem.kbar)
    active = "cost"
    hbar = h_cost
    if problem.pbar is not None:
        h_var = solve_pbar_h(model, lift, q, problem.pbar)
        if h_var < h_cost:
            hbar = h_var
            active = "variability"
    rho = q * hbar
    u = -(1.0 - q) * hbar
    return ControlSolution(
        case_label="WaterAbstracting", q=q, hbar=hbar, rho=rho, u=u,
        J=eval_J(model, lift, q, hbar), K=eval_K(model, lift, q, hbar),
        P=eval_P(model, lift, q, hbar) if problem.pbar is not None else None,
        active_constraint=active, attained=True, rho_arbitrary=False,
    )


@dataclass
class SweepRow:
    kbar: float
    solution: Optional[ControlSolution] = None
    error: Optional[str] = None


def sweep(problem: ControlProblem, kbar_grid: Sequence[float]) -> list[SweepRow]:
    """Solve for every kbar in the grid; per-row failures are recorded, not raised."""
    rows: list[SweepRow] = []
    for kbar in kbar_grid:
        row = SweepRow(kbar=kbar)
        try:
            sub = ControlProblem(
                model=problem.model, lift=problem.lift, kbar=kbar,
                qhat=problem.qhat, qabs=problem.qabs, pbar=problem.pbar,
            )
            row.solution = solve(sub)
        except (ValueError, RuntimeError) as exc:
            row.error = str(exc)
        rows.append(row)
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], out: IO[str]) -> None:
    out.write("Kbar,hbar,rho,u,J,K,P,active_constraint\n")
    for row in rows:
        s = row.solution
        if s is None:
            out.write(f"{row.kbar:.17g},,,,,,,error:{row.error}\n")
            continue
        p = f"{s.P:.17g}" if s.P is not None else ""
        active = s.active_constraint if s.P is not None else ""
        out.write(
            f"{row.kbar:.17g},{s.hbar:.17g},{s.rho:.17g},{s.u:.17g},"
            f"{s.J:.17g},{s.K:.17g},{p},{active}\n"
        )


# ---------------------------------------------------------------------------
# Backward Kolmogorov equation residuals for the quadratic solution ansatz
# ---------------------------------------------------------------------------


@dataclass
class QuadraticAnsatz:
    """Phi(y) = 0.5 y' a y + b' y with y = (x, y_1..y_n), plus the ergodic constant."""

    a: np.ndarray  # (n+1, n+1), symmetric
    b: np.ndarray  # (n+1,)
    constant: float  # J for the variance equation, L for the cost equation


def variance_bke_coefficients(
    model: SupCbiModel, lift: MarkovianLift, q: float, h: float, xhat: float
) -> QuadraticAnsatz:
    """Coefficients solving the tracking-variance BKE, with the constant J."""
    if h <= 0.0:
        raise ValueError("coefficients require h > 0")
    n = lift.n
    D = model.D
    p = lift.r / h
    pd1 = p * D + 1.0
    cr = lift.c / lift.r

    a = np.zeros((n + 1, n + 1))
    a[0, 0] = 1.0 / h
    a0 = (q - p * D) / pd1 / h
    a[0, 1:] = a0
    a[1:, 0] = a0
    pi_, pj_ = p[:, None], p[None, :]
    a[1:, 1:] = (
        (q - pi_ * D) * (q - pj_ * D) / ((pi_ + pj_) * D)
        * (1.0 / (pj_ * D + 1.0) + 1.0 / (pi_ * D + 1.0))
        / h
    )

    am1 = model.A * model.M1
    s1 = float(np.sum(cr * p / pd1))
    s2 = float(np.sum(cr * p))
    b = np.zeros(n + 1)
    b[0] = (-2.0 * xhat + (q + 1.0) * am1 * s1) / h
    cross = h * a[1:, 1:] @ (cr * p)  # the block a[1:, 1:] carries a factor 1/h
    rhs = (
        -2.0 * q * xhat
        + q * (q + 1.0) * am1 * s1
        + 0.5 * model.B * model.M2 * (p * D + q * q) / (D * pd1)
        + am1 * (q - p * D) / pd1 * s2
        + am1 * cross
    )
    b[1:] = rhs / (lift.r * D) - b[0]

    mean = stationary_mean(model, lift)
    j_val = (xhat - q * mean) ** 2 + eval_J(model, lift, q, h)
    return QuadraticAnsatz(a=a, b=b, constant=j_val)


def cost_bke_coefficients(
    model: SupCbiModel, lift: MarkovianLift, q: float, h: float
) -> QuadraticAnsatz:
    """Coefficients solving the control-cost BKE, with the constant L = K / h^2."""
    if h <= 0.0:
        raise ValueError("coefficients require h > 0")
    n = lift.n
    D = model.D
    p = lift.r / h
    pd1 = p * D + 1.0
    cr = lift.c / lift.r

    a = np.zeros((n + 1, n + 1))
    a[0, 0] = 1.0 / h
    a0 = -(q + p * D) / pd1 / h
    a[0, 1:] = a0
    a[1:, 0] = a0
    pi_, pj_ = p[:, None], p[None, :]
    pdi = pi_ * D + 1.0
    pdj = pj_ * D + 1.0
    a[1:, 1:] = (
        1.0 / ((pi_ + pj_) * D)
        * (
            -(q - pi_ * D) * (q + pj_ * D) / pdj
            - (q - pj_ * D) * (q + pi_ * D) / pdi
            + 2.0 * q * q
        )
        / h
    )

    am1 = model.A * model.M1
    s1 = float(np.sum(cr * p / pd1))
    s2 = float(np.sum(cr * p))
    b = np.zeros(n + 1)
    b[0] = -am1 * (q - 1.0) / h * s1
    cross = h * a[1:, 1:] @ (cr * p)  # the block a[1:, 1:] carries a factor 1/h
    diag_quad = (-((q + p * D) ** 2) + (p * D + q * q) * pd1) / (D * pd1)
    rhs = (
        -q * (q - 1.0) * am1 * s1
        + 0.5 * model.B * model.M2 * diag_quad
        - am1 * (q + p * D) / pd1 * s2
        + am1 * cross
    )
    b[1:] = rhs / (lift.r * D) - b[0]

    l_val = eval_K(model, lift, q, h) / h**2
    return QuadraticAnsatz(a=a, b=b, constant=l_val)


def _apply_perturbation(ansatz: QuadraticAnsatz, perturb) -> QuadraticAnsatz:
    if perturb is None:
        return ansatz
    kind, i, j, factor = perturb
    a = ansatz.a.copy()
    b = ansatz.b.copy()
    const = ansatz.constant
    if kind == "a":
        a[i, j] *= factor
        a[j, i] = a[i, j]
    elif kind == "b":
        b[i] *= factor
    elif kind == "const":
        const *= factor
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return QuadraticAnsatz(a=a, b=b, constant=const)


def _bke_residual(
    model: SupCbiModel,
    lift: MarkovianLift,
    q: float,
    h: float,
    ansatz: QuadraticAnsatz,
    states: np.ndarray,
    running_cost,
) -> float:
    """Max relative residual of the stationary BKE over the sample states.

    The states, one (x, y_1..y_n) per row or a single 1-D state, are evaluated
    as one batch. The jump integral of the quadratic ansatz is evaluated exactly
    through the first and second Levy moments. The residual is scaled by the
    largest term magnitude at each state. `running_cost(x, ys)` takes the
    column x and the (S, n) block ys.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] == 0:
        raise ValueError("BKE residual needs at least one state")
    rho = q * h
    r = lift.r
    a, b, const = ansatz.a, ansatz.b, ansatz.constant
    x, ys = states[:, 0], states[:, 1:]
    grad = states @ a + b  # a is symmetric
    run = running_cost(x, ys)
    drift = (-h * x + ys @ (rho - r)) * grad[:, 0]
    decay = -(ys * grad[:, 1:]) @ r
    diag = a[0, 0] + 2.0 * a[0, 1:] + np.diagonal(a)[1:]
    lin = states @ (a[0:1] + a[1:]).T  # per-component sum over k of (a_0k + a_ik) y_k
    jump_per_comp = 0.5 * model.M2 * diag + model.M1 * lin + model.M1 * (b[0] + b[1:])
    intensity = lift.c * model.A + r * model.B * ys
    jump = np.sum(intensity * jump_per_comp, axis=1)
    terms = np.abs([np.full_like(x, const), run, drift, decay, jump])
    residual = -const + run + drift + decay + jump
    scale = np.maximum(terms.max(axis=0), 1e-300)
    return float(np.max(np.abs(residual) / scale))


def bke_residual_J(
    model: SupCbiModel,
    lift: MarkovianLift,
    q: float,
    h: float,
    states: np.ndarray,
    xhat: float | None = None,
    perturb=None,
) -> float:
    """Max relative residual of the variance BKE at the given (x, y) samples.

    perturb = (kind, i, j, factor) scales one coefficient for negative-control
    testing; kind in {"a", "b", "const"}.
    """
    if xhat is None:
        xhat = q * stationary_mean(model, lift)
    ansatz = _apply_perturbation(variance_bke_coefficients(model, lift, q, h, xhat), perturb)
    return _bke_residual(
        model, lift, q, h, ansatz, states, lambda x, ys: (x - xhat) ** 2
    )


def bke_residual_K(
    model: SupCbiModel,
    lift: MarkovianLift,
    q: float,
    h: float,
    states: np.ndarray,
    perturb=None,
) -> float:
    """Max relative residual of the cost BKE (constant L, running cost (x - q*sum(y))^2)."""
    ansatz = _apply_perturbation(cost_bke_coefficients(model, lift, q, h), perturb)
    return _bke_residual(
        model, lift, q, h, ansatz, states,
        lambda x, ys: (x - q * np.sum(ys, axis=1)) ** 2,
    )


def _resolvent_ratio(alpha: float, z: float) -> float:
    """T(s)/R = (alpha-1) z^(alpha-1) U(alpha, alpha, z), z = s/beta > 0.

    For larger alpha (integer alpha from 16, for one) hyperu returns nan at
    small and moderate z, and z^(alpha-1) can overflow at large z; there the
    equivalent Laplace form ((alpha-1)/alpha) * integral over u > 0 of
    exp(-z u/alpha) (1 + u/alpha)^(-alpha) du is integrated instead, which
    decays fast for large alpha.
    """
    with np.errstate(all="ignore"):
        ratio = (alpha - 1.0) * z ** (alpha - 1.0) * float(hyperu(alpha, alpha, z))
    if math.isfinite(ratio):
        return ratio
    val, _ = integrate.quad(
        lambda u: math.exp(-z * u / alpha - alpha * math.log1p(u / alpha)),
        0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return (alpha - 1.0) / alpha * val


def continuum_J_K_P(model: SupCbiModel, q: float, h: float) -> tuple[float, float, float]:
    """Exact m -> infinity limits of J, K and P, from their measure-integral forms.

    All three reduce to T(s) = integral of pi(dr) / (r + s) at s = h/D, which
    for the Gamma measure is s^(alpha-1) U(alpha, alpha, s/beta) / beta^alpha
    (U the confluent hypergeometric function of the second kind); T/R tends to
    1 as h -> 0, R being the inverse first moment.
    """
    if h < 0.0 or q <= 0.0:
        raise ValueError("need h >= 0 and q > 0")
    pi = model.pi
    ratio = 1.0 if h == 0.0 else _resolvent_ratio(pi.alpha, h / (model.D * pi.beta))
    r_exact = inv_mean(pi)
    mean = model.A * model.M1 / model.D * r_exact
    var = 0.5 * model.A * model.M2 / model.D**2 * r_exact
    return (
        var * (1.0 + (q * q - 1.0) * (1.0 - ratio)),
        h * h * (1.0 - q) ** 2 * var * ratio,
        (q - 1.0) ** 2 * (mean**2 + var * (1.0 - ratio)),
    )
