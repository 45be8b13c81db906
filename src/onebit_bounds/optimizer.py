"""Training-length optimization of the achievable-rate lower bound.

The bound trades training against data transmission inside a coherence block
of normalized length beta: training length beta_t buys channel knowledge
(through the effective SNR) but only the remaining fraction carries data, so

    c_bound = max_{beta_t}  ((beta - beta_t) / beta) * R_eff(beta_t).

The objective is evaluated on the grid {step, 2 step, ..., beta - step}
(endpoints give zero objective and are excluded); ties break toward smaller
beta_t.  Optional refinement, scipy's bounded Brent search, sharpens the
optimum inside the winning bracket to grid_step * 1e-3 when the grid is too
coarse, e.g. for training-length ratio studies at large receiver counts.

Also here: the Bussgang-linearization comparison bound for Gaussian inputs,

    c = max_{beta_t} ((beta - beta_t)/beta) log2(1 + 2 alpha snr_eff
                                                 / (pi (1 + snr_eff))),

which ``compare_sweep`` optimizes on the replica bound's own training grid,
and the quadratic low-SNR closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .numerics import LN2, QuadratureRule, gauss_hermite
from .replica import (
    SystemParams,
    csir_rate,
    linear_rates,
    onebit_rates,
    reff_linear,
    reff_onebit,
    snr_from_db,
    solve_qh,
    solve_qh_grid,
)

__all__ = [
    "RateCurve",
    "BoundResult",
    "training_grid",
    "optimize_training",
    "replica_bound",
    "low_snr_asymptotics",
    "sweep_onebit_alpha",
    "CompareRow",
    "compare_sweep",
]


@dataclass(frozen=True)
class RateCurve:
    """Sampled map beta_t -> rate, with the training-tradeoff objective."""

    beta: float
    grid_step: float
    beta_t: np.ndarray
    r_eff: np.ndarray
    objective: np.ndarray

    def rows(self):
        """Yield (beta_t, r_eff, objective) tuples in grid order."""
        for bt, r, o in zip(self.beta_t, self.r_eff, self.objective):
            yield float(bt), float(r), float(o)


@dataclass(frozen=True)
class BoundResult:
    """Optimized training length and the bound value it achieves."""

    beta_t_opt: float
    c_bound: float
    method: str
    params: Optional[SystemParams] = None


def training_grid(beta: float, grid_step: float) -> np.ndarray:
    """Grid {step, 2 step, ..., beta - step}; raises on an empty grid."""
    if not 0.0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    n = int(math.floor((beta - grid_step) / grid_step + 1e-9))
    if n < 1:
        raise ValueError(f"empty training grid: beta={beta} with grid_step={grid_step}")
    return np.arange(1, n + 1) * grid_step


def optimize_training(
    reff: Callable[[float], float],
    beta: float,
    grid_step: float,
    *,
    params: Optional[SystemParams] = None,
    method: str = "replica-linear",
    refine: bool = False,
    rates: Optional[np.ndarray] = None,
):
    """Maximize ((beta - beta_t)/beta) * reff(beta_t) over the training grid.

    Returns ``(BoundResult, RateCurve)``.  Ties break toward smaller beta_t.
    With ``refine=True`` a bounded Brent search (``minimize_scalar``,
    ``method="bounded"``, xatol grid_step * 1e-3) runs inside the bracket
    around the winning grid point and replaces the optimum if it improves
    the objective.  ``rates`` may hold reff already evaluated on
    the grid; reff is then called by the refinement only.
    """
    bts = training_grid(beta, grid_step)
    if rates is None:
        rates = np.array([float(reff(bt)) for bt in bts])
    objective = (beta - bts) / beta * rates
    i = int(np.argmax(objective))  # first maximum == smallest beta_t on ties
    beta_t_opt = float(bts[i])
    c_bound = float(objective[i])
    if refine:
        lo = float(bts[i - 1]) if i > 0 else float(bts[0])
        hi = float(bts[i + 1]) if i + 1 < len(bts) else float(bts[-1])
        if hi > lo:
            from scipy import optimize  # here, so that commands without refinement skip its import
            res = optimize.minimize_scalar(
                lambda bt: -(beta - bt) / beta * float(reff(bt)),
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": grid_step * 1e-3},
            )
            if -float(res.fun) > c_bound:
                beta_t_opt = float(res.x)
                c_bound = -float(res.fun)
    curve = RateCurve(beta=beta, grid_step=grid_step, beta_t=bts,
                      r_eff=rates, objective=objective)
    return BoundResult(beta_t_opt=beta_t_opt, c_bound=c_bound,
                       method=method, params=params), curve


def _grid_bounds(rho, beta, grid_step, rule, tol, jobs, refine=False):
    """Solve the training grid at ``rho`` once and optimize every
    ``(params, method)`` job on it; one ``(BoundResult, RateCurve)`` per job.

    q_h comes from one batched solve over the grid, the linear data overlaps
    from one more over its effective SNRs, and the one-bit data overlaps of
    every one-bit job from one more over alpha x grid, so all rates are
    arrays; only the refinement goes point by point.
    """
    rule = rule or gauss_hermite()
    overlaps = solve_qh_grid(rho, training_grid(beta, grid_step), rule, tol)
    snr_eff = np.array([ov.snr_eff for ov in overlaps])
    alphas = [p.alpha for p, method in jobs if method == "replica-onebit"]
    onebit = iter(onebit_rates(np.array(alphas)[:, None], snr_eff, rule, tol)
                  .reshape(len(alphas), -1) if alphas else ())
    out = []
    for params, method in jobs:
        if method == "bussgang":  # never refined
            rates, point = np.array([bussgang_inner_rate(params.alpha, s) for s in snr_eff]), None
        else:
            if method == "replica-linear":
                rate_fn, rates = reff_linear, linear_rates(params.alpha, snr_eff, rule, tol)
            else:
                rate_fn, rates = reff_onebit, next(onebit)

            def point(bt, _p=params, _f=rate_fn):
                return _f(_p, solve_qh(rho, bt, rule, tol), rule, tol)

        out.append(optimize_training(point, beta, grid_step, params=params, method=method,
                                     refine=refine, rates=rates))
    return out


def replica_bound(
    params: SystemParams,
    grid_step: float = 0.1,
    rule: Optional[QuadratureRule] = None,
    tol: float = 1e-10,
    *,
    refine: bool = False,
):
    """Optimized training-based bound for the configured transmitter type.

    Returns ``(BoundResult, RateCurve)`` with method ``replica-linear`` or
    ``replica-onebit``.
    """
    method = "replica-linear" if params.tx_type == "linear" else "replica-onebit"
    return _grid_bounds(params.rho, params.beta, grid_step, rule, tol,
                        [(params, method)], refine)[0]


def bussgang_inner_rate(alpha: float, snr_eff: float) -> float:
    """log2(1 + 2 alpha snr_eff / (pi (1 + snr_eff))), the linearized rate."""
    return math.log1p(2.0 * alpha * snr_eff / (math.pi * (1.0 + snr_eff))) / LN2


def low_snr_asymptotics(params: SystemParams):
    """Closed-form low-SNR limits, identical for both transmitter types:

        beta_t_opt ~ beta / 2,
        c_bound    ~ (alpha beta / (pi^2 ln 2)) rho^2.
    """
    beta_t_opt = params.beta / 2.0
    c_bound = params.alpha * params.beta * params.rho ** 2 / (math.pi ** 2 * LN2)
    return beta_t_opt, c_bound


def sweep_onebit_alpha(
    alphas: Sequence[float],
    beta: float,
    rho: float,
    grid_step: float = 0.1,
    rule: Optional[QuadratureRule] = None,
    tol: float = 1e-10,
    *,
    refine: bool = False,
):
    """One-bit transmitter bounds over a receiver-ratio sweep.

    The training overlap q_h does not depend on alpha, so the grid of
    effective channels is solved once and shared by every alpha.  Returns a
    list of ``(BoundResult, RateCurve)`` in the order of ``alphas``.
    """
    jobs = [(SystemParams(alpha=alpha, beta=beta, rho=rho, tx_type="onebit"), "replica-onebit")
            for alpha in alphas]
    return _grid_bounds(rho, beta, grid_step, rule, tol, jobs, refine)


@dataclass(frozen=True)
class CompareRow:
    """One SNR point of the linear-transmitter bound comparison."""

    rho_db: float
    alpha: float
    beta: float
    c_bound_replica: float
    c_bound_bussgang: float
    r_csir: float


def compare_sweep(
    alpha: float,
    beta: float,
    rho_db_values: Iterable[float],
    grid_step: float = 0.1,
    rule: Optional[QuadratureRule] = None,
    tol: float = 1e-10,
):
    """Replica vs Bussgang vs known-channel rates over an SNR sweep.

    Each SNR point solves the training grid once and reuses it for both
    optimized bounds.
    """
    rule = rule or gauss_hermite()
    rho_dbs = [float(d) for d in rho_db_values]
    rhos = [snr_from_db(d) for d in rho_dbs]  # every point checked before any solve
    rows = []
    for rho_db, rho in zip(rho_dbs, rhos):
        params = SystemParams(alpha=alpha, beta=beta, rho=rho, tx_type="linear")
        (rep, _), (bus, _) = _grid_bounds(rho, beta, grid_step, rule, tol,
                                          [(params, "replica-linear"), (params, "bussgang")])
        rows.append(CompareRow(
            rho_db=rho_db,
            alpha=alpha,
            beta=beta,
            c_bound_replica=rep.c_bound,
            c_bound_bussgang=bus.c_bound,
            r_csir=csir_rate(alpha, rho, rule, tol),
        ))
    return rows
