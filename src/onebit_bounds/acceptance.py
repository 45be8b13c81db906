"""Acceptance checks: the package's numerical exit criteria.

Each criterion pins expected behavior of the whole pipeline at stated
tolerances (low-SNR closed forms, bound orderings, saturation, training
shrinkage, two-pipeline agreement, and the property suite).  One registry
holds them: ``@_criterion(number, name)`` makes a check returning ``(passed,
detail)`` the timed function ``criterion_<number>`` and lists it in
``_CRITERIA``.  ``run_all`` runs that list in order; the CLI ``selftest``
and ``tests/test_acceptance.py`` both print ``CriterionResult.line()``.

Checks that share expensive sweeps (the SNR comparison, the receiver-ratio
sweep) cache those sweeps so the full run stays fast and deterministic.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, List

import numpy as np
from scipy import integrate, special

from .exact import QPSK, SIGN_OUT, SmallSystem, d2, d3, mi_direct, reff_exact
from .numerics import gauss_hermite, q_function
from .optimizer import compare_sweep, low_snr_asymptotics, replica_bound, sweep_onebit_alpha
from .replica import (
    SystemParams,
    csir_rate,
    f1_value,
    f2_onebit,
    reff_linear,
    solve_qh,
    solve_qx_linear,
    solve_qx_onebit,
)
from .quantizer import sign_log_likelihoods

__all__ = ["CriterionResult", "run_all"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """The report line: ``criterion-N PASS|FAIL name [s.s s] detail``."""
        return (f"criterion-{self.number} {'PASS' if self.passed else 'FAIL'} {self.name} "
                f"[{self.seconds:.1f}s] {self.detail}")


_CRITERIA: List[Callable[[], CriterionResult]] = []


def _criterion(number: int, name: str):
    """Register a check returning ``(passed, detail)`` as criterion ``number``:
    the function it becomes returns the timed ``CriterionResult``."""
    def register(check):
        @wraps(check)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check()
            return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)
        _CRITERIA.append(criterion)
        return criterion
    return register


@_criterion(1, "low-SNR closed form")
def criterion_1():
    """Low-SNR law of ``low_snr_asymptotics``: c_bound near
    (alpha beta / (pi^2 ln 2)) rho^2, half the block used for training, for
    both transmitter types."""
    problems = []
    for tx in ("linear", "onebit"):
        params = SystemParams(1.0, 10.0, 0.01, tx)
        beta_t, target = low_snr_asymptotics(params)
        res, _ = replica_bound(params, 0.1)
        if not abs(res.c_bound / target - 1.0) <= 0.10:
            problems.append(f"{tx}: c_bound={res.c_bound:.6g} vs target {target:.6g}")
        if not abs(res.beta_t_opt - beta_t) <= 0.1 + 1e-9:
            problems.append(f"{tx}: beta_t_opt={res.beta_t_opt}")
    return not problems, "; ".join(problems) or f"both within 10% of {target:.4g}, beta_t_opt = {beta_t} +- 0.1"


@_criterion(2, "training overlap asymptotics")
def criterion_2():
    """Training overlap follows q_h ~ 2 beta_t rho / pi at low SNR."""
    problems = []
    beta_ts = (0.5, 1.0, 2.0)
    for rho in (0.001, 0.01):
        for beta_t, q in zip(beta_ts, solve_qh(rho, beta_ts)[0]):
            ratio = q / (2.0 * beta_t * rho / math.pi)
            if not 0.95 <= ratio <= 1.05:
                problems.append(f"rho={rho}, beta_t={beta_t}: ratio={ratio:.4f}")
    return not problems, "; ".join(problems) or "q_h within 5% of 2 beta_t rho / pi on the grid"


@lru_cache(maxsize=1)
def _comparison_rows():
    rho_dbs = [float(d) for d in range(-10, 21)]
    rows = []
    for alpha in (1.0, 2.0):
        rows.extend(compare_sweep(alpha, 20.0, rho_dbs))
    merge = []
    for alpha in (1.0, 2.0):
        merge.extend(compare_sweep(alpha, 20.0, [-40.0, -30.0]))
    return tuple(rows), tuple(merge)


@_criterion(3, "Bussgang dominance and low-SNR merge")
def criterion_3():
    """Bussgang bound never exceeds the replica bound, and the two merge
    (ratio >= 0.99) at and below -30 dB."""
    rows, merge = _comparison_rows()
    problems = []
    for r in rows:
        if r.c_bound_bussgang > r.c_bound_replica + 1e-12:
            problems.append(f"dominance fails at alpha={r.alpha}, {r.rho_db} dB")
    for r in merge:
        ratio = r.c_bound_bussgang / r.c_bound_replica
        if not ratio >= 0.99:
            problems.append(f"merge fails at alpha={r.alpha}, {r.rho_db} dB: ratio={ratio:.4f}")
    return not problems, "; ".join(problems) or f"{len(rows)} sweep rows dominated, merge holds at -40/-30 dB"


@_criterion(4, "known-channel ceiling")
def criterion_4():
    """The known-channel rate caps the trained linear-transmitter bound."""
    rows, _ = _comparison_rows()
    problems = [
        f"alpha={r.alpha}, {r.rho_db} dB: replica={r.c_bound_replica:.6g} > csir={r.r_csir:.6g}"
        for r in rows if r.c_bound_replica > r.r_csir + 1e-12
    ]
    return not problems, "; ".join(problems) or f"replica <= csir on all {len(rows)} rows"


_SATURATION_ALPHAS = tuple(float(2 ** k) for k in range(9))


@lru_cache(maxsize=1)
def _saturation_sweep():
    return tuple(sweep_onebit_alpha(_SATURATION_ALPHAS, beta=8.0, rho=10.0))


@_criterion(5, "one-bit saturation")
def criterion_5():
    """One-bit rates saturate: R_eff <= 2 everywhere, c_bound < 2 and
    nondecreasing in the receiver ratio."""
    sweep = _saturation_sweep()
    problems = []
    prev = -1.0
    for alpha, (res, curve) in zip(_SATURATION_ALPHAS, sweep):
        if curve.r_eff.max() > 2.0 + 1e-9:
            problems.append(f"alpha={alpha}: max R_eff={curve.r_eff.max():.12f}")
        if not res.c_bound < 2.0:
            problems.append(f"alpha={alpha}: c_bound={res.c_bound:.12f}")
        if res.c_bound < prev - 1e-9:
            problems.append(f"alpha={alpha}: c_bound decreased")
        prev = res.c_bound
    return not problems, "; ".join(problems) or "R_eff <= 2, c_bound < 2 and nondecreasing over alpha in 1..256"


@_criterion(6, "training shrinkage per receiver doubling")
def criterion_6():
    """Doubling the receiver count shrinks the optimal training length by
    about 37% (ratio in [0.58, 0.68] for base alpha in {16, 32, 64}), and
    training drops below one transmitter's worth at the largest ratio."""
    sweep = _saturation_sweep()
    by_alpha = {alpha: res.beta_t_opt for alpha, (res, _) in zip(_SATURATION_ALPHAS, sweep)}
    problems = []
    for alpha in (16.0, 32.0, 64.0):
        ratio = by_alpha[2 * alpha] / by_alpha[alpha]
        if not 0.58 <= ratio <= 0.68:
            problems.append(f"alpha {alpha:g}->{2 * alpha:g}: ratio={ratio:.4f}")
    if not by_alpha[256.0] < 1.0:
        problems.append(f"beta_t_opt(256)={by_alpha[256.0]:.4f} >= 1")
    ratios = ", ".join(f"{by_alpha[2 * a] / by_alpha[a]:.3f}" for a in (16.0, 32.0, 64.0))
    return not problems, "; ".join(problems) or f"doubling ratios {ratios}; beta_t_opt(256)={by_alpha[256.0]:.3f}"


@_criterion(7, "known-channel reduction identity")
def criterion_7():
    """Forcing a perfect channel estimate into the trained-rate formula
    reproduces the known-channel rate: q_h = 1 gives snr_eff = rho."""
    problems = []
    for alpha in (0.5, 1.0, 4.0):
        for rho in (0.5, 2.0, 10.0):
            r_forced = float(reff_linear(alpha, rho)[0])
            r_csir = csir_rate(alpha, rho)
            if abs(r_forced - r_csir) > 1e-8 * max(abs(r_csir), 1e-30):
                problems.append(f"alpha={alpha}, rho={rho}: {r_forced!r} vs {r_csir!r}")
    return not problems, "; ".join(problems) or "identity holds to 1e-8 relative on 9 (alpha, rho) combinations"


@_criterion(8, "exact-pipeline agreement")
def criterion_8():
    """The enumeration pipeline and the receiver-factored direct pipeline agree:
    deterministically under quadrature, statistically under Monte Carlo."""
    problems = []
    for t_total in (2, 3, 4):
        for rho in (1.0, 10.0):
            sys_ = SmallSystem(1, 1, t_total, rho)
            for t_t in range(1, t_total):
                r = reff_exact(t_t, sys_)
                m = mi_direct(t_t, sys_)
                if abs(r - m) >= 1e-6:
                    problems.append(f"M=N=1 T={t_total} rho={rho} T_t={t_t}: |diff|={abs(r - m):.2e}")

    batches, samples = 5, 20_000
    for t_t in (1, 2):
        r_vals, m_vals = [], []
        for k in range(batches):
            sys_ = SmallSystem(2, 2, 3, 10.0, samples=samples, seed=k)
            r_vals.append(reff_exact(t_t, sys_))
            m_vals.append(mi_direct(t_t, sys_))
        r_mean, m_mean = np.mean(r_vals), np.mean(m_vals)
        se = math.hypot(np.std(r_vals, ddof=1) / math.sqrt(batches),
                        np.std(m_vals, ddof=1) / math.sqrt(batches))
        if abs(r_mean - m_mean) > 4.0 * se:
            problems.append(
                f"M=N=2 T_t={t_t}: |{r_mean:.5f} - {m_mean:.5f}| > 4 x {se:.2e}")
    return not problems, "; ".join(problems) or "pipelines agree (quadrature < 1e-6; Monte Carlo within 4 combined SE)"


@_criterion(9, "property suite")
def criterion_9():
    """Property suite: normalizations, residuals, stationarity, reflection,
    quadrature exactness."""
    problems = []
    rule = gauss_hermite(128)

    # quadrature exactness: standard normal moments through u^8
    moments = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}
    for k, exact in moments.items():
        val = float(rule.weights @ rule.nodes ** k)
        err = abs(val - exact) / max(abs(exact), 1.0)
        if err > 1e-9:
            problems.append(f"moment u^{k}: err={err:.2e}")

    # Q reflection
    xs = np.linspace(-8.0, 8.0, 641)
    refl = np.abs(q_function(xs) + q_function(-xs) - 1.0)
    if refl.max() > 1e-15:
        problems.append(f"Q reflection: max err={refl.max():.2e}")

    # normalization of the likelihood table the exact pipelines use
    z = np.array([complex(zre, zim) for zre in (-3.0, -0.7, 0.0, 1.3)
                  for zim in (-2.1, 0.4, 2.8)])
    for s_sq in (0.25, 1.0, 4.0):
        tot = np.exp(sign_log_likelihoods(z / math.sqrt(s_sq))).sum(axis=0)
        for zk, t in zip(z, tot):
            if abs(t - 1.0) > 1e-12:
                problems.append(f"likelihood normalization at z={zk}, s_sq={s_sq}: {t!r}")

    # fixed-point residuals at returned solutions, recoded from the
    # equations: q/(1-q) = (c K^2/pi) E[exp(-K^2 q u^2)/Q(K sqrt(q) u)],
    # K^2 = snr/(1 + snr (1-q)), and for one-bit data q_x = the tanh
    # moment at that right-hand side, minus 1; each expectation by
    # adaptive quadrature of the original integrand, split at its kinks
    def mean(f, points):  # integral of f split at points, over sqrt(2 pi)
        edges = (-math.inf,) + points + (math.inf,)
        return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(edges, edges[1:])) / math.sqrt(2.0 * math.pi)

    def rhs(q, c, snr):  # the density times exp(-a^2 u^2) / Q(a u), a = K sqrt(q)
        ksq = snr / (1.0 + snr * (1.0 - q))
        a = math.sqrt(ksq * q)
        return c * ksq / math.pi * mean(
            lambda u: math.exp(-0.5 * u * u - (a * u) ** 2 - special.log_ndtr(-a * u)), (0.0,))

    def tanh_moment(q_hat):  # the integrand changes sign at u = -2a and u = -a
        a = math.sqrt(q_hat)
        return mean(lambda u: math.exp(-0.5 * u * u) * math.tanh(a * u + q_hat)
                    * (2.0 + u / a), (-2.0 * a, -a, 0.0))

    def residual(q, c, snr):
        return q / (1.0 - q) - rhs(q, c, snr)

    for rho in (0.01, 1.0, 100.0):
        for beta_t in (0.1, 1.0, 10.0):
            q = float(solve_qh(rho, beta_t)[0][0])
            res = abs(residual(q, beta_t, rho))
            if res > 1e-10:
                problems.append(f"q_h residual {res:.2e} at rho={rho}, beta_t={beta_t}")
    for s in (0.05, 1.0, 10.0):
        for alpha in (0.5, 2.0):
            q = float(solve_qx_linear(s, alpha)[0])
            res = abs(residual(q, alpha, s))
            if res > 1e-10:
                problems.append(f"q_x linear residual {res:.2e} at s={s}, alpha={alpha}")
            q = float(solve_qx_onebit(s, alpha)[0][0])
            res = abs(tanh_moment(rhs(q, alpha, s)) - 1.0 - q)
            if res > 1e-10:
                problems.append(f"q_x one-bit residual {res:.2e} at s={s}, alpha={alpha}")

    # finite-difference stationarity of the free energies
    h = 1e-7
    for rho, beta_t in ((1.0, 1.0), (10.0, 0.5)):
        q = float(solve_qh(rho, beta_t)[0][0])
        q_hat = q / (1.0 - q)
        dq = (f1_value(q + h, q_hat, rho, beta_t)
              - f1_value(q - h, q_hat, rho, beta_t)) / (2 * h)
        dqh = (f1_value(q, q_hat + h, rho, beta_t)
               - f1_value(q, q_hat - h, rho, beta_t)) / (2 * h)
        if max(abs(dq), abs(dqh)) > 1e-6:
            problems.append(f"F1 gradient ({dq:.2e}, {dqh:.2e}) at rho={rho}, beta_t={beta_t}")
    for s, alpha in ((1.0, 1.0), (5.0, 4.0)):
        q = float(solve_qx_linear(s, alpha)[0])
        q_hat = q / (1.0 - q)
        dq = (f1_value(q + h, q_hat, s, alpha)
              - f1_value(q - h, q_hat, s, alpha)) / (2 * h)
        dqh = (f1_value(q, q_hat + h, s, alpha)
               - f1_value(q, q_hat - h, s, alpha)) / (2 * h)
        if max(abs(dq), abs(dqh)) > 1e-6:
            problems.append(f"F2L gradient ({dq:.2e}, {dqh:.2e}) at s={s}, alpha={alpha}")
        q, q_hat = (float(v[0]) for v in solve_qx_onebit(s, alpha)[:2])
        dq = (f2_onebit(min(q + h, 1.0), q_hat, alpha, s)
              - f2_onebit(q - h, q_hat, alpha, s)) / (min(q + h, 1.0) - (q - h))
        dqh = (f2_onebit(q, q_hat + h, alpha, s)
               - f2_onebit(q, q_hat - h, alpha, s)) / (2 * h)
        if max(abs(dq), abs(dqh)) > 1e-6:
            problems.append(f"F2O gradient ({dq:.2e}, {dqh:.2e}) at s={s}, alpha={alpha}")

    # d2 / d3 normalization on enumerable systems
    sys_a = SmallSystem(1, 1, 3, 10.0, order=16)
    x_t = QPSK[[0, 2]].reshape(1, 2)
    tot = sum(d2(x_t, SIGN_OUT[list(ys)].reshape(1, 2), 2, sys_a)
              for ys in itertools.product(range(4), repeat=2))
    if abs(tot - 1.0) > 1e-8:
        problems.append(f"sum d2 (M=N=1, T_t=2) = {tot!r}")
    y_t = SIGN_OUT[[1, 3]].reshape(1, 2)
    for xi in range(4):
        tot = sum(d3(QPSK[[xi]], SIGN_OUT[[yi]], x_t, y_t, 2, sys_a) for yi in range(4))
        if abs(tot - 1.0) > 1e-8:
            problems.append(f"sum d3 (x={xi}) = {tot!r}")
    sys_b = SmallSystem(2, 2, 2, 5.0, order=12)
    x_t2 = QPSK[[1, 2]].reshape(2, 1)
    tot = sum(d2(x_t2, SIGN_OUT[list(ys)].reshape(2, 1), 1, sys_b)
              for ys in itertools.product(range(4), repeat=2))
    if abs(tot - 1.0) > 1e-8:
        problems.append(f"sum d2 (M=N=2, T_t=1) = {tot!r}")

    return not problems, "; ".join(problems) or "normalizations, residuals, stationarity, reflection, quadrature all hold"


def run_all() -> List[CriterionResult]:
    """Run every registered criterion in order."""
    return [criterion() for criterion in _CRITERIA]
