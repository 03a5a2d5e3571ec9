"""Closed-form ergodic control of the lifted supCBI discharge.

The tracking variance J, quadratic control cost K and flow-modification
variance P at q = rho/(rho-u) and h = rho - u, one line each over the resolvent
(S, T) of a lift or a `GammaContinuum`; the constrained minimizer (Balanced /
Water Adding / Water Abstracting cases, with an optional variability bound);
and residual certification of the quadratic BKE solutions the formulas rest on,
at one (q, h) draw or at a stack of draws in one evaluation.

Each solution is a quadratic ansatz y'ay/2 + b'y plus a constant. The residual
certifies its closed-form a and constant (J, or K/h^2); b is solved from the
equation's linear terms given a.

The controller is closed form except for one scalar, hbar. Both of its
roots, the cost root K(h) = Kbar and the variability root P(h) = Pbar, are
found by Brent's method (scipy.optimize.brentq) on a closed-form bracket.
The variability root does not depend on Kbar: a Kbar sweep solves it once,
and the cost root only where the cost bound binds; `solve` does one Kbar.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .lift import MarkovianLift, Spectrum
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
]


_REL_TOL = 1e-12  # relative tolerance of both control roots and of q = 1 (Balanced)


class InfeasibleProblem(ValueError):
    """The target or a bound makes the constrained problem infeasible."""


@dataclass(frozen=True)
class ControlProblem:
    model: SupCbiModel
    lift: Spectrum
    kbar: float
    qhat: Optional[float] = None  # target discharge, m^3/s
    qabs: Optional[float] = None  # target abstraction, m^3/s
    pbar: Optional[float] = None  # variability bound, m^6/s^2

    def __post_init__(self) -> None:
        _target(self.qhat, self.qabs)
        if not 0.0 < self.kbar < math.inf:
            raise ValueError(f"cost bound kbar must be positive and finite, got {self.kbar}")
        if self.pbar is not None and not self.pbar > 0.0:
            raise ValueError(f"variability bound pbar must be positive, got {self.pbar}")


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


def _target(qhat: float | None, qabs: float | None) -> float:
    """The one given target of qhat and qabs; it must be finite."""
    if (qhat is None) == (qabs is None):
        raise ValueError("exactly one of qhat / qabs must be given")
    target = qhat if qhat is not None else qabs
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    return target


def q_from_target(
    model: SupCbiModel,
    lift: Spectrum,
    qhat: float | None = None,
    qabs: float | None = None,
) -> float:
    """Dimensionless target ratio q from either a discharge or abstraction target.

    q = Qhat / (baseflow + E[Y_n]), or 1 - Qabs / (baseflow + E[Y_n]). A
    discharge target must be positive; an abstraction at or above the mean
    inflow is infeasible.
    """
    target = _target(qhat, qabs)
    if qhat is not None and not qhat > 0.0:
        raise ValueError(f"discharge target Qhat must be positive, got {qhat:.6g}")
    total_mean = model.baseflow + stationary_mean(model, lift)
    if not total_mean > 0.0:
        raise InfeasibleProblem("mean inflow must be positive")
    q = target / total_mean if qhat is not None else 1.0 - target / total_mean
    if not q > 0.0:
        raise InfeasibleProblem(
            f"target implies q = {q:.6g} <= 0 (abstraction exceeds the mean inflow)"
        )
    return q


def _resolvent(model: SupCbiModel, lift: Spectrum, q: float, h: float) -> tuple[float, float]:
    if h < 0.0 or q <= 0.0:
        raise ValueError("need h >= 0 and q > 0")
    return lift.resolvent(h, model.D)


def eval_J(model: SupCbiModel, lift: Spectrum, q: float, h: float) -> float:
    """Tracking variance J(q, h) = Var[Y_n] (S + q^2 T); J(q, 0) = Var[Y_n]."""
    s, t = _resolvent(model, lift, q, h)
    return stationary_variance(model, lift) * (s + q * q * t)


def eval_K(model: SupCbiModel, lift: Spectrum, q: float, h: float) -> float:
    """Control cost K(q, h) = Var[Y_n] (1-q)^2 h (h S), increasing in h for q != 1."""
    return stationary_variance(model, lift) * (1.0 - q) ** 2 * (h * _resolvent(model, lift, q, h)[0]) * h


def _p(model: SupCbiModel, lift: Spectrum, q: float, t: float) -> float:
    """P = (q-1)^2 (E[Y_n]^2 + Var[Y_n] T) at a resolvent half T in [0, 1].

    An E[Y_n]^2 beyond the float range raises an ArithmeticError.
    """
    mean = stationary_mean(model, lift)
    try:
        mean_sq = mean**2
    except OverflowError:
        raise ArithmeticError(f"P needs E[Y_n]^2, which overflows at E[Y_n] = {mean:.6g}") from None
    return (q - 1.0) ** 2 * (mean_sq + stationary_variance(model, lift) * t)


def eval_P(model: SupCbiModel, lift: Spectrum, q: float, h: float) -> float:
    """Flow-modification variance P(q, h), increasing in h between its bounds."""
    return _p(model, lift, q, _resolvent(model, lift, q, h)[1])


def p_bounds(model: SupCbiModel, lift: Spectrum, q: float) -> tuple[float, float]:
    """Lower/upper bounds of P over h, at T = 0 and 1: (q-1)^2 E[Y_n]^2 and (q-1)^2 E[Y_n^2]."""
    return _p(model, lift, q, 0.0), _p(model, lift, q, 1.0)


def _root(f, target: float, lo: float, hi: float) -> float | None:
    """Root of an increasing f at target in [lo, hi], f(lo) <= target; None beyond the float range.

    hi is cut to the float maximum, and is the root when f(hi) <= target, that
    is when f meets the target there by rounding. Brent's absolute tolerance is
    negligible, so the root is found to _REL_TOL relative however small it is.
    """
    from scipy import optimize  # here, not at import: it loads scipy.linalg, which `lift` never needs
    hi = min(hi, sys.float_info.max)
    if (f_hi := f(hi)) == math.inf or (f_hi < target and hi == sys.float_info.max):
        return None
    if f_hi <= target:
        return hi
    return optimize.brentq(lambda h: f(h) - target, lo, hi, xtol=1e-300, rtol=_REL_TOL)


def solve_hbar(model: SupCbiModel, lift: Spectrum, q: float, kbar: float) -> float:
    """Unique positive root of K(h) = kbar for |1 - q| > _REL_TOL, the Balanced rule of `solve`.

    K(h) = (1-q)^2 Var h (h S(h)) is strictly increasing. S <= 1 and h S <=
    D / R_n put the root at or above h_lo = max(h0, h0^2 R_n / D) with h0 =
    sqrt(kbar / ((1-q)^2 Var)), formed to overflow only beyond the float range;
    h S increases with h, so the root is at most h_lo kbar / K(h_lo), and is h_lo
    when K(h_lo) meets kbar by rounding. K has no h^2 to overflow, so only a
    root beyond the float range is refused, with a RuntimeError. A model with
    Var[Y_n] = 0 has K = 0 at every h and is refused with a ValueError.
    """
    if not q > 0.0 or abs(1.0 - q) <= _REL_TOL:
        raise ValueError(f"root solving needs q > 0 and |1 - q| > {_REL_TOL:g}")
    if not kbar > 0.0:
        raise ValueError("kbar must be positive")
    variance = stationary_variance(model, lift)
    if variance == 0.0:
        raise ValueError("Var[Y_n] = 0: the inflow does not vary, so K(h) = 0 at every h and no cost root exists")
    h0 = math.sqrt(kbar) / math.sqrt((1.0 - q) ** 2 * variance)
    h_lo = min(max(h0, h0 * (h0 * (lift.inv_mean / model.D))), sys.float_info.max)
    if (k_lo := eval_K(model, lift, q, h_lo)) >= kbar:
        return h_lo
    h = _root(lambda h: eval_K(model, lift, q, h), kbar, h_lo, h_lo * (kbar / k_lo))
    if h is None:
        raise RuntimeError(f"the cost root for kbar = {kbar:.6g} lies beyond the float range")
    return h


def solve_pbar_h(model: SupCbiModel, lift: Spectrum, q: float, pbar: float) -> float:
    """Root of P(h) = pbar, at most D / (R_n S) where S = 1 - T at the root; +inf from P's upper bound up."""
    lo_bound, hi_bound = p_bounds(model, lift, q)
    if pbar < lo_bound:
        raise InfeasibleProblem(
            f"pbar = {pbar:.6g} lies below the attainable minimum {lo_bound:.6g}"
        )
    if pbar >= hi_bound:
        return math.inf
    hi = model.D * (1.0 - q) ** 2 * stationary_variance(model, lift) / (lift.inv_mean * (hi_bound - pbar))
    h = _root(lambda h: eval_P(model, lift, q, h), pbar, 0.0, hi)
    return math.inf if h is None else h


def _kbar_solver(problem: ControlProblem) -> Callable[[float], ControlSolution]:
    """`solve` for any cost bound kbar, with the part that does not depend on kbar done once.

    That part is q, the variability root h_var, and K(h_var); an unattainable
    pbar raises here, for every kbar, before any cost root. d log K / d log h
    lies in (1, 2), so a kbar above K(h_var)(1 + 1e-9) puts the cost root above
    h_var (1 + 5e-10), far beyond the roots' _REL_TOL: such a kbar gets the
    variability solution without a cost root. Any other kbar solves the cost
    root and keeps the smaller of the two roots.
    """
    model, lift, pbar = problem.model, problem.lift, problem.pbar
    if not math.isfinite(stationary_mean(model, lift) + stationary_variance(model, lift)):
        raise ArithmeticError("E[Y_n] or Var[Y_n] overflows the float range")
    q = q_from_target(model, lift, qhat=problem.qhat, qabs=problem.qabs)
    balanced = abs(1.0 - q) <= _REL_TOL
    if balanced or q > 1.0:
        uncontrolled = ControlSolution(
            case_label="Balanced" if balanced else "WaterAdding", q=q, hbar=0.0,
            rho=1.0 if balanced else 0.0, u=0.0, J=stationary_variance(model, lift), K=0.0,
            P=None if pbar is None else (0.0 if balanced else p_bounds(model, lift, q)[0]),
            active_constraint="none", attained=balanced, rho_arbitrary=balanced,
        )
        return lambda kbar: uncontrolled

    def abstracting(hbar: float, k: float, active: str) -> ControlSolution:
        return ControlSolution(
            case_label="WaterAbstracting", q=q, hbar=hbar, rho=q * hbar, u=-(1.0 - q) * hbar,
            J=eval_J(model, lift, q, hbar), K=k,
            P=eval_P(model, lift, q, hbar) if pbar is not None else None,
            active_constraint=active, attained=True, rho_arbitrary=False,
        )

    h_var = math.inf if pbar is None else solve_pbar_h(model, lift, q, pbar)
    k_var = eval_K(model, lift, q, h_var) if h_var < math.inf else math.inf

    @functools.cache
    def variability() -> ControlSolution:
        return abstracting(h_var, k_var, "variability")

    def solve_kbar(kbar: float) -> ControlSolution:
        if kbar <= k_var * (1.0 + 1e-9):
            h_cost = solve_hbar(model, lift, q, kbar)
            if not h_var < h_cost:
                return abstracting(h_cost, eval_K(model, lift, q, h_cost), "cost")
        return variability()

    return solve_kbar


def solve(problem: ControlProblem) -> ControlSolution:
    """Constrained minimizer of J per the three target regimes.

    q = 1 (to _REL_TOL): no control needed; u = 0, rho arbitrary (reported as 1).
    q > 1: the infimum Var[Y_n] is approached but not attained (h -> 0).
    0 < q < 1: h is the largest value meeting the cost bound and, when given,
    the variability bound; rho = q*h, u = -(1-q)*h. A pbar below P's lower
    bound is infeasible whatever the kbar.
    """
    return _kbar_solver(problem)(problem.kbar)


@dataclass
class SweepRow:
    kbar: float
    solution: Optional[ControlSolution] = None
    error: Optional[str] = None


def sweep(problem: ControlProblem, kbar_grid: Sequence[float]) -> list[SweepRow]:
    """`solve` for every kbar in the grid; per-row failures are recorded, not raised.

    The variability root is solved once for the whole grid, and the cost root
    only for the kbar at which the cost bound binds.
    """
    try:
        solve_kbar = _kbar_solver(problem)
    except (ValueError, RuntimeError) as exc:
        def solve_kbar(kbar: float, error: Exception = exc) -> ControlSolution:
            raise error.with_traceback(None)
    rows: list[SweepRow] = []
    for kbar in kbar_grid:
        try:
            replace(problem, kbar=kbar)  # validates the row's kbar
            rows.append(SweepRow(kbar, solution=solve_kbar(kbar)))
        except (ValueError, RuntimeError) as exc:
            rows.append(SweepRow(kbar, error=str(exc)))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow]) -> str:
    """Returns the CSV text of a sweep, one line per Kbar; a failed row holds its error."""
    lines = ["Kbar,hbar,rho,u,J,K,P,active_constraint\n"]
    for row in rows:
        s = row.solution
        if s is None:
            lines.append(f"{row.kbar:.17g},,,,,,,error:{row.error}\n")
            continue
        p = f"{s.P:.17g}" if s.P is not None else ""
        active = s.active_constraint if s.P is not None else ""
        lines.append(
            f"{row.kbar:.17g},{s.hbar:.17g},{s.rho:.17g},{s.u:.17g},"
            f"{s.J:.17g},{s.K:.17g},{p},{active}\n"
        )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Backward Kolmogorov equation residuals for the quadratic solution ansatz
# ---------------------------------------------------------------------------


@dataclass
class QuadraticAnsatz:
    """Phi(y) = 0.5 y' a y + b' y with y = (x, y_1..y_n), plus the ergodic constant.

    A stack of k draws' ansatzes carries the draw axis in front: a (k, n+1,
    n+1), b (k, n+1) and the constants (k,).
    """

    a: np.ndarray  # (n+1, n+1), symmetric
    b: np.ndarray  # (n+1,)
    constant: float | np.ndarray  # J for the variance equation, L for the cost equation


def _draws(v, ndim: int):
    """v against `ndim` trailing axes: a scalar as it is, an array of k draws as (k, 1, ..., 1)."""
    return v.reshape(v.shape + (1,) * ndim) if isinstance(v, np.ndarray) else v


def _per_draw(f: Callable[..., float], *args):
    """f at scalar arguments; at arrays of k draws, f at each draw's scalars, as a (k,) array.

    A constant of the ansatz is computed this way, not as one array
    expression: Python's x ** 2 and numpy's square of an array round
    differently in about 1 case in 1000, and a draw's constant must equal
    the one its scalar call gives.
    """
    if not isinstance(args[0], np.ndarray):
        return f(*args)
    return np.array([f(*draw) for draw in zip(*(np.asarray(v).tolist() for v in args))])


def _ansatz(
    model: SupCbiModel, lift: MarkovianLift, q, h,
    a0: np.ndarray, block: np.ndarray, lin_x, constant,
) -> QuadraticAnsatz:
    """The quadratic ansatz with a_00 = 1/h, a_0i = a0 and a_ij = block.

    Given a, the BKE's x- and y_k-linear terms are linear in b and fix it:
    h b_0 = lin_x + A M1 sum_i c_i (a_00 + a_0i) and r_k D (b_0 + b_k) =
    rho b_0 + A M1 sum_i c_i (a_0k + a_ik) + B M2 r_k (a_00 + 2 a_0k + a_kk) / 2,
    with lin_x the x-coefficient of the running cost. q, h and lin_x are
    scalars or (k,) draws, a0 and block carry the same leading axis.
    """
    n = lift.n
    stack = h.shape if isinstance(h, np.ndarray) else ()  # the draw axis, if any
    a = np.empty(stack + (n + 1, n + 1))
    a[..., 0, 0] = 1.0 / h
    a[..., 0, 1:] = a0
    a[..., 1:, 0] = a0
    a[..., 1:, 1:] = block
    am1 = model.A * model.M1
    jump_lin = lift.c.sum() * a[..., 0, :] + lift.c @ a[..., 1:, :]  # sum_i c_i (a_0j + a_ij), j = 0..n
    b = np.empty(stack + (n + 1,))
    b[..., 0] = (lin_x + am1 * jump_lin[..., 0]) / h
    diag = a[..., 0, :1] + 2.0 * a0 + block.diagonal(axis1=-2, axis2=-1)
    rhs = _draws(q * h, 1) * b[..., :1] + am1 * jump_lin[..., 1:] + 0.5 * model.B * model.M2 * lift.r * diag
    b[..., 1:] = rhs / (lift.r * model.D) - b[..., :1]
    return QuadraticAnsatz(a=a, b=b, constant=constant)


def _check_h(h) -> None:
    if (h <= 0.0).any() if isinstance(h, np.ndarray) else h <= 0.0:
        raise ValueError("coefficients require h > 0")


@np.errstate(over="ignore", invalid="ignore")
def variance_bke_coefficients(
    model: SupCbiModel, lift: MarkovianLift, q, h, xhat
) -> QuadraticAnsatz:
    """Coefficients solving the tracking-variance BKE, with the constant J.

    q, h and xhat are scalars, or (k,) arrays of draws for a stack of k ansatzes.
    """
    _check_h(h)
    D = model.D
    q1, h1 = _draws(q, 1), _draws(h, 1)
    q2, h2 = _draws(q, 2), _draws(h, 2)
    p = lift.r / h1
    pi_, pj_ = p[..., :, None], p[..., None, :]
    block = (
        (q2 - pi_ * D) * (q2 - pj_ * D) / ((pi_ + pj_) * D)
        * (1.0 / (pj_ * D + 1.0) + 1.0 / (pi_ * D + 1.0))
        / h2
    )
    mean = stationary_mean(model, lift)
    j_val = _per_draw(lambda q, h, xhat: (xhat - q * mean) ** 2 + eval_J(model, lift, q, h), q, h, xhat)
    return _ansatz(model, lift, q, h, (q1 - p * D) / (p * D + 1.0) / h1, block, -2.0 * xhat, j_val)


@np.errstate(over="ignore", invalid="ignore")
def cost_bke_coefficients(
    model: SupCbiModel, lift: MarkovianLift, q, h
) -> QuadraticAnsatz:
    """Coefficients solving the control-cost BKE, with the constant L = K / h^2.

    q and h are scalars, or (k,) arrays of draws for a stack of k ansatzes.
    """
    _check_h(h)
    D = model.D
    q1, h1 = _draws(q, 1), _draws(h, 1)
    q2, h2 = _draws(q, 2), _draws(h, 2)
    p = lift.r / h1
    pi_, pj_ = p[..., :, None], p[..., None, :]
    pdi = pi_ * D + 1.0
    pdj = pj_ * D + 1.0
    # Each half of 2q^2 - (q - p_i D)(q + p_j D)/(p_j D + 1) - (i <-> j) is
    # D (q p_j (q - 1) + p_i (q + p_j D)) / (p_j D + 1): the O(q^2) terms
    # cancel in closed form, not in floating point, so a stays accurate as
    # p D -> 0 and q -> 1.
    block = (
        (q2 * pj_ * (q2 - 1.0) + pi_ * (q2 + pj_ * D)) / pdj
        + (q2 * pi_ * (q2 - 1.0) + pj_ * (q2 + pi_ * D)) / pdi
    ) / ((pi_ + pj_) * h2)
    l_val = _per_draw(lambda q, h: eval_K(model, lift, q, h) / h**2, q, h)
    return _ansatz(model, lift, q, h, -(q1 + p * D) / (p * D + 1.0) / h1, block, 0.0, l_val)


def _apply_perturbation(ansatz: QuadraticAnsatz, perturb) -> QuadraticAnsatz:
    """The ansatz with one coefficient scaled by a finite factor, in every draw of a stack."""
    if perturb is None:
        return ansatz
    kind, i, j, factor = perturb
    n = ansatz.b.shape[-1] - 1
    if kind not in ("a", "b", "const"):
        raise ValueError(f"perturbation kind must be a, b or const, got {kind!r}")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"perturbation indices ({i}, {j}) outside 0..{n}")
    if not math.isfinite(factor):
        raise ValueError(f"perturbation factor must be finite, got {factor}")
    a = ansatz.a.copy()
    b = ansatz.b.copy()
    const = ansatz.constant
    if kind == "a":
        a[..., i, j] *= factor
        a[..., j, i] = a[..., i, j]
    elif kind == "b":
        b[..., i] *= factor
    else:
        const = const * factor
    return QuadraticAnsatz(a=a, b=b, constant=const)


@np.errstate(over="ignore", invalid="ignore")
def _bke_residual(
    model: SupCbiModel,
    lift: MarkovianLift,
    q,
    h,
    ansatz: QuadraticAnsatz,
    states: np.ndarray,
    x0,
    kappa,
):
    """Max relative residual of the stationary BKE over the sample states, per draw.

    The states, one (x, y_1..y_n) per row or a single 1-D state, are evaluated
    as one batch. A leading draw axis evaluates k draws at once: q, h, x0,
    kappa and the ansatz's constant are then (k,) arrays, its a and b carry
    the draw axis in front, and states is (k, S, n+1). Each draw's residual
    is the one its scalar call gives, bit for bit: the draw axis only loops
    the same operations, matrix products included, each on the same (S, n+1)
    block. The running cost is (x - x0 - kappa sum_k y_k)^2. The jump
    integral of the quadratic ansatz is evaluated exactly through the first and
    second Levy moments. The residual is scaled by the largest term magnitude
    at each state. Overflow raises no numpy warning: it leaves a NaN residual.
    A scalar call returns a float, a stacked one a (k,) array.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[-2] == 0:
        raise ValueError("BKE residual needs at least one state")
    q1, h1 = _draws(q, 1), _draws(h, 1)
    const = _draws(ansatz.constant, 1)
    rho = q1 * h1
    r = lift.r
    a, b = ansatz.a, ansatz.b
    x, ys = states[..., 0], states[..., 1:]
    grad = states @ a + b[..., None, :]  # a is symmetric
    run = (x - _draws(x0, 1) - _draws(kappa, 1) * ys.sum(axis=-1)) ** 2
    drift = (-h1 * x + (ys @ (rho - r)[..., None])[..., 0]) * grad[..., 0]
    decay = -(ys * grad[..., 1:]) @ r
    diag = a[..., 0, :1] + 2.0 * a[..., 0, 1:] + a.diagonal(axis1=-2, axis2=-1)[..., 1:]
    jump_per_comp = 0.5 * model.M2 * diag[..., None, :] + model.M1 * (grad[..., :1] + grad[..., 1:])
    intensity = lift.c * model.A + r * model.B * ys
    jump = (intensity * jump_per_comp).sum(axis=-1)
    terms = np.abs([np.full_like(x, const), run, drift, decay, jump])
    residual = -const + run + drift + decay + jump
    scale = np.maximum(terms.max(axis=0), 1e-300)
    worst = (np.abs(residual) / scale).max(axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def bke_residual_J(
    model: SupCbiModel,
    lift: MarkovianLift,
    q,
    h,
    states: np.ndarray,
    perturb=None,
):
    """Max relative residual of the variance BKE at the given (x, y) samples.

    It certifies at the target xhat = q E[Y_n] (running cost (x - xhat)^2).
    perturb = (kind, i, j, factor) scales one coefficient by a finite factor
    for negative-control testing; kind in {"a", "b", "const"}. With q and h
    (k,) arrays and states (k, S, n+1), it certifies k draws in one
    evaluation and returns each draw's residual, the scalar call's to the bit.
    """
    xhat = q * stationary_mean(model, lift)
    ansatz = _apply_perturbation(variance_bke_coefficients(model, lift, q, h, xhat), perturb)
    return _bke_residual(model, lift, q, h, ansatz, states, xhat, 0.0)


def bke_residual_K(
    model: SupCbiModel,
    lift: MarkovianLift,
    q,
    h,
    states: np.ndarray,
    perturb=None,
):
    """Max relative residual of the cost BKE (constant L, running cost (x - q*sum(y))^2).

    It takes a scalar draw or a stack of draws as `bke_residual_J` does.
    """
    ansatz = _apply_perturbation(cost_bke_coefficients(model, lift, q, h), perturb)
    return _bke_residual(model, lift, q, h, ansatz, states, 0.0, q)
