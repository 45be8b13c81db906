"""Training-length optimization of the achievable-rate lower bound.

The bound trades training against data transmission inside a coherence block
of normalized length beta: training length beta_t buys channel knowledge
(through the effective SNR) but only the remaining fraction carries data, so

    c_bound = max_{beta_t}  ((beta - beta_t) / beta) * R_eff(beta_t).

The objective is evaluated on the grid {step, 2 step, ..., beta - step}
(endpoints give zero objective and are excluded); ties break toward smaller
beta_t.  ``optimize_training`` takes either engine's rates on that grid.  The
replica bounds may refine the optimum inside the winning bracket when the grid
is too coarse, e.g. for training-length studies at large receiver counts, with
the package's own bounded Brent search, transcribed from scipy so that it
visits the same points and returns the same bits; it resolves beta_t to
grid_step * 1e-3 (absolute), and below the grid when that search ends at
the first point.  Every job on one training grid is refined in lockstep.

Also here: the Bussgang-linearization comparison bound for Gaussian inputs,

    c = max_{beta_t} ((beta - beta_t)/beta) log2(1 + 2 alpha snr_eff
                                                 / (pi (1 + snr_eff))),

which ``compare_sweep`` optimizes on the replica bound's own training grid,
and the quadratic low-SNR closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .numerics import LN2
from .replica import (
    SystemParams,
    _linear_rates,
    reff_onebit,
    snr_from_db,
    solve_qh,
)

__all__ = [
    "MAX_GRID_POINTS",
    "check_grid_length",
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


# Longest training grid or SNR sweep accepted: longer ones are refused before
# anything is allocated.
MAX_GRID_POINTS = 100_000


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


def training_grid(beta: float, grid_step: float) -> np.ndarray:
    """Grid {step, 2 step, ..., beta - step}; raises on an empty grid or one
    of more than ``MAX_GRID_POINTS`` points."""
    if not 0.0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    n = (beta - grid_step) / grid_step + 1e-9
    if not math.isfinite(n):
        raise ValueError(f"training grid length is not finite: beta={beta}, grid_step={grid_step}")
    if n < 1:
        raise ValueError(f"empty training grid: beta={beta} with grid_step={grid_step}")
    check_grid_length("training grid", int(n), f"beta={beta}, grid_step={grid_step}")
    return np.arange(1, int(n) + 1) * grid_step


def check_grid_length(what: str, points: int, where: str) -> None:
    """Raise ValueError when a grid of ``points`` points is longer than
    ``MAX_GRID_POINTS``; call it before building the grid."""
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{what} of {float(points):.6g} points exceeds the limit of "
                         f"{MAX_GRID_POINTS} ({where})")


def optimize_training(rates: np.ndarray, beta: float, grid_step: float, *,
                      method: str = "replica-linear"):
    """Maximize ((beta - beta_t)/beta) * R_eff(beta_t) over the training grid,
    given ``rates``, R_eff at every point of ``training_grid(beta, grid_step)``.

    Returns ``(BoundResult, RateCurve)``.  Ties break toward smaller beta_t.
    """
    bts = training_grid(beta, grid_step)
    rates = np.asarray(rates, dtype=float)
    if rates.shape != bts.shape:
        raise ValueError(f"rates of shape {rates.shape} for a training grid of {bts.size} points")
    objective = (beta - bts) / beta * rates
    i = int(np.argmax(objective))  # first maximum == smallest beta_t on ties
    return (BoundResult(beta_t_opt=float(bts[i]), c_bound=float(objective[i]), method=method),
            RateCurve(beta=beta, grid_step=grid_step, beta_t=bts, r_eff=rates,
                      objective=objective))


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v: float) -> float:
    # numpy's sign(v) + (v == 0): -1 below zero, else 1; NaN stays NaN
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def _brent(lo: float, hi: float, xatol: float):
    """Bounded Brent minimization on [lo, hi] as a generator: it yields each
    point x, is sent f(x), and returns ``(x, f(x), evaluations)`` of the
    best point.

    A line-by-line transcription of scipy 1.17's bounded scalar minimizer
    (its ``method="bounded"``, in ``_optimize.py``; Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5): the same constants,
    parabola test, sign rule, update order and cap of 500 evaluations, so
    with the same xatol it visits the same points and returns the same bits.
    """
    a, b = lo, hi
    nfc = fulc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx, num


def _refine(found, rates_at):
    """Refine every ``(BoundResult, RateCurve)`` of ``found`` inside the
    bracket around its grid optimum, all searches in lockstep.

    Each step gathers the current point of every live search and calls
    ``rates_at(jobs, xs)`` once for the rates of jobs ``jobs`` (indices into
    ``found``) at training lengths ``xs``.  A search result replaces the
    grid optimum if it improves the objective.
    """
    def search(bts, i, xatol):
        lo = float(bts[i - 1]) if i > 0 else float(bts[0])
        hi = float(bts[i + 1]) if i + 1 < len(bts) else float(bts[-1])
        x, fun, _ = yield from _brent(lo, hi, xatol)
        if i == 0 and x - lo <= 2.0 * xatol:  # the optimum may lie below the grid
            x0, fun0, _ = yield from _brent(0.0, lo, xatol)
            if fun0 < fun:
                x, fun = x0, fun0
        return x, fun

    searches, xs = {}, {}
    for k, (result, curve) in enumerate(found):
        bts, i = curve.beta_t, int(np.argmax(curve.objective))
        if len(bts) > 1:
            searches[k] = search(bts, i, curve.grid_step * 1e-3)
            xs[k] = next(searches[k])
    out = list(found)
    while xs:
        jobs = list(xs)
        for k, rate in zip(jobs, rates_at(jobs, [xs[k] for k in jobs])):
            beta = found[k][1].beta
            try:
                xs[k] = searches[k].send(-(beta - xs[k]) / beta * float(rate))
            except StopIteration as stop:
                del xs[k]
                x, fun = stop.value
                result, curve = found[k]
                if -fun > result.c_bound:
                    out[k] = (replace(result, beta_t_opt=float(x), c_bound=-fun), curve)
    return out


def _job_rates(jobs, snr_eff, csir=False):
    """Rate of every ``(params, method)`` job at each effective SNR of its
    row of ``snr_eff``, and with ``csir`` every linear job's ``csir_rate``
    at its rho; the one-bit jobs' data overlaps are one batch."""
    rates, csir_rates = np.empty(snr_eff.shape), []
    onebit = [k for k, (_, method) in enumerate(jobs) if method == "replica-onebit"]
    if onebit:
        alphas = np.array([jobs[k][0].alpha for k in onebit])[:, None]
        rates[onebit] = reff_onebit(alphas, snr_eff[onebit]).reshape(len(onebit), -1)
    for k, (params, method) in enumerate(jobs):
        if method == "replica-linear":
            rates[k], r = _linear_rates(params.alpha, snr_eff[k], params.rho if csir else None)
            csir_rates += [r] if csir else []
        elif method == "bussgang":
            rates[k] = [bussgang_inner_rate(params.alpha, s) for s in snr_eff[k]]
    return rates, csir_rates


def _grid_bounds(rho, beta, grid_step, jobs, refine=False, csir=False):
    """Solve the training grid at ``rho`` once and optimize every
    ``(params, method)`` job on it; one ``(BoundResult, RateCurve)`` per job.

    q_h comes from one batched solve over the grid, the linear data overlaps
    from one more per linear job, and the one-bit data overlaps of every
    one-bit job from one more over alpha x grid, so all rates are arrays.
    The refinement keeps that shape: each search step solves the current
    points of all jobs the same way, so a batch of one point per job.  With
    ``csir``, the list ends with every linear job's ``csir_rate``.
    """
    def snr_effs(bts):
        return solve_qh(rho, bts)[1]

    bts = training_grid(beta, grid_step)
    grid_rates, csir_rates = _job_rates(
        jobs, np.broadcast_to(snr_effs(bts), (len(jobs), bts.size)), csir)
    out = [optimize_training(rates, beta, grid_step, method=method)
           for (_, method), rates in zip(jobs, grid_rates)]
    if refine:
        out = _refine(out, lambda ks, xs: _job_rates(
            [jobs[k] for k in ks], snr_effs(xs)[:, None])[0][:, 0])
    return out + csir_rates


def replica_bound(params: SystemParams, grid_step: float = 0.1, *, refine: bool = False):
    """Optimized training-based bound for the configured transmitter type.

    Returns ``(BoundResult, RateCurve)`` with method ``replica-linear`` or
    ``replica-onebit``.
    """
    method = "replica-linear" if params.tx_type == "linear" else "replica-onebit"
    return _grid_bounds(params.rho, params.beta, grid_step, [(params, method)], refine)[0]


def bussgang_inner_rate(alpha: float, snr_eff: float) -> float:
    """log2(1 + 2 alpha snr_eff / (pi (1 + snr_eff))), the linearized rate."""
    return math.log1p(2.0 * alpha * snr_eff / (math.pi * (1.0 + snr_eff))) / LN2


def low_snr_asymptotics(params: SystemParams):
    """Closed-form low-SNR limits, identical for both transmitter types:

        beta_t_opt ~ beta / 2,
        c_bound    ~ (alpha beta / (pi^2 ln 2)) rho^2.
    """
    try:
        c_bound = params.alpha * params.beta * params.rho ** 2 / (math.pi ** 2 * LN2)
    except OverflowError:
        c_bound = math.inf
    if not math.isfinite(c_bound):
        raise ValueError(f"low-SNR closed form is not finite at alpha={params.alpha}, "
                         f"beta={params.beta}, rho={params.rho}")
    return params.beta / 2.0, c_bound


def sweep_onebit_alpha(alphas: Sequence[float], beta: float, rho: float, grid_step: float = 0.1):
    """One-bit transmitter bounds over a receiver-ratio sweep, each optimum
    refined inside its grid bracket.

    The training overlap q_h does not depend on alpha, so the grid of
    effective channels is solved once and shared by every alpha.  Returns a
    list of ``(BoundResult, RateCurve)`` in the order of ``alphas``.
    """
    jobs = [(SystemParams(alpha=alpha, beta=beta, rho=rho, tx_type="onebit"), "replica-onebit")
            for alpha in alphas]
    return _grid_bounds(rho, beta, grid_step, jobs, refine=True)


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
):
    """Replica vs Bussgang vs known-channel rates over an SNR sweep.

    Each SNR point solves the training grid once and reuses it for both
    optimized bounds; the replica data batch also solves r_csir's overlap.
    """
    rho_dbs = [float(d) for d in rho_db_values]
    rhos = [snr_from_db(d) for d in rho_dbs]  # every point checked before any solve
    rows = []
    for rho_db, rho in zip(rho_dbs, rhos):
        params = SystemParams(alpha=alpha, beta=beta, rho=rho, tx_type="linear")
        (rep, _), (bus, _), r_csir = _grid_bounds(
            rho, beta, grid_step, [(params, "replica-linear"), (params, "bussgang")], csir=True)
        rows.append(CompareRow(rho_db=rho_db, alpha=alpha, beta=beta, c_bound_replica=rep.c_bound,
                               c_bound_bussgang=bus.c_bound, r_csir=r_csir))
    return rows
