"""Acceptance checks: the package's numerical exit criteria.

Each criterion pins expected behavior of the whole pipeline at stated
tolerances (low-SNR closed forms, bound orderings, saturation, training
shrinkage, two-pipeline agreement, and the property suite).  ``run_all``
executes all of them and is what the CLI ``selftest`` subcommand prints;
``tests/test_acceptance.py`` asserts them one by one.

Checks that share expensive sweeps (the SNR comparison, the receiver-ratio
sweep) cache those sweeps so the full run stays fast and deterministic.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

from .exact import ChannelIntegration, SmallSystem, mi_direct, reff_exact
from .numerics import LN2, exp_ratio, gauss_hermite, q_function
from .optimizer import compare_sweep, replica_bound, sweep_onebit_alpha
from .replica import (
    SystemParams,
    csir_rate,
    f1_value,
    f2_onebit,
    perfect_csi_overlap,
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


def _run(number: int, name: str, body: Callable[[], tuple]) -> CriterionResult:
    t0 = time.perf_counter()
    passed, detail = body()
    return CriterionResult(number=number, name=name, passed=passed,
                           detail=detail, seconds=time.perf_counter() - t0)


def criterion_1() -> CriterionResult:
    """Low-SNR law: c_bound near (alpha beta / (pi^2 ln 2)) rho^2, half the
    block used for training, for both transmitter types."""

    def body():
        alpha, beta, rho = 1.0, 10.0, 0.01
        target = alpha * beta * rho ** 2 / (math.pi ** 2 * LN2)
        problems = []
        for tx in ("linear", "onebit"):
            res, _ = replica_bound(SystemParams(alpha, beta, rho, tx), 0.1)
            if not abs(res.c_bound / target - 1.0) <= 0.10:
                problems.append(f"{tx}: c_bound={res.c_bound:.6g} vs target {target:.6g}")
            if not abs(res.beta_t_opt - 5.0) <= 0.1 + 1e-9:
                problems.append(f"{tx}: beta_t_opt={res.beta_t_opt}")
        return not problems, "; ".join(problems) or f"both within 10% of {target:.4g}, beta_t_opt = 5.0 +- 0.1"

    return _run(1, "low-SNR closed form", body)


def criterion_2() -> CriterionResult:
    """Training overlap follows q_h ~ 2 beta_t rho / pi at low SNR."""

    def body():
        problems = []
        for rho in (0.001, 0.01):
            for beta_t in (0.5, 1.0, 2.0):
                q = solve_qh(rho, beta_t).q_h
                ratio = q / (2.0 * beta_t * rho / math.pi)
                if not 0.95 <= ratio <= 1.05:
                    problems.append(f"rho={rho}, beta_t={beta_t}: ratio={ratio:.4f}")
        return not problems, "; ".join(problems) or "q_h within 5% of 2 beta_t rho / pi on the grid"

    return _run(2, "training overlap asymptotics", body)


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


def criterion_3() -> CriterionResult:
    """Bussgang bound never exceeds the replica bound, and the two merge
    (ratio >= 0.99) at and below -30 dB."""

    def body():
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

    return _run(3, "Bussgang dominance and low-SNR merge", body)


def criterion_4() -> CriterionResult:
    """The known-channel rate caps the trained linear-transmitter bound."""

    def body():
        rows, _ = _comparison_rows()
        problems = [
            f"alpha={r.alpha}, {r.rho_db} dB: replica={r.c_bound_replica:.6g} > csir={r.r_csir:.6g}"
            for r in rows if r.c_bound_replica > r.r_csir + 1e-12
        ]
        return not problems, "; ".join(problems) or f"replica <= csir on all {len(rows)} rows"

    return _run(4, "known-channel ceiling", body)


_SATURATION_ALPHAS = tuple(float(2 ** k) for k in range(9))


@lru_cache(maxsize=1)
def _saturation_sweep():
    return tuple(sweep_onebit_alpha(_SATURATION_ALPHAS, beta=8.0, rho=10.0, refine=True))


def criterion_5() -> CriterionResult:
    """One-bit rates saturate: R_eff <= 2 everywhere, c_bound < 2 and
    nondecreasing in the receiver ratio."""

    def body():
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

    return _run(5, "one-bit saturation", body)


def criterion_6() -> CriterionResult:
    """Doubling the receiver count shrinks the optimal training length by
    about 37% (ratio in [0.58, 0.68] for base alpha in {16, 32, 64}), and
    training drops below one transmitter's worth at the largest ratio."""

    def body():
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

    return _run(6, "training shrinkage per receiver doubling", body)


def criterion_7() -> CriterionResult:
    """Forcing a perfect channel estimate into the trained-rate formula
    reproduces the known-channel rate."""

    def body():
        problems = []
        for alpha in (0.5, 1.0, 4.0):
            for rho in (0.5, 2.0, 10.0):
                params = SystemParams(alpha, 10.0, rho, "linear")
                r_forced = reff_linear(params, perfect_csi_overlap(rho))
                r_csir = csir_rate(alpha, rho)
                if abs(r_forced - r_csir) > 1e-8 * max(abs(r_csir), 1e-30):
                    problems.append(f"alpha={alpha}, rho={rho}: {r_forced!r} vs {r_csir!r}")
        return not problems, "; ".join(problems) or "identity holds to 1e-8 relative on 9 (alpha, rho) combinations"

    return _run(7, "known-channel reduction identity", body)


def criterion_8() -> CriterionResult:
    """The enumeration pipeline and the direct joint-law pipeline agree:
    deterministically under quadrature, statistically under Monte Carlo."""

    def body():
        problems = []
        for t_total in (2, 3, 4):
            for rho in (1.0, 10.0):
                sys_ = SmallSystem(1, 1, t_total, rho, ChannelIntegration.quadrature(24))
                for t_t in range(1, t_total):
                    r = reff_exact(t_t, sys_)
                    m = mi_direct(t_t, sys_)
                    if abs(r - m) >= 1e-6:
                        problems.append(f"M=N=1 T={t_total} rho={rho} T_t={t_t}: |diff|={abs(r - m):.2e}")

        batches, samples = 5, 20_000
        for t_t in (1, 2):
            r_vals, m_vals = [], []
            for k in range(batches):
                sys_ = SmallSystem(2, 2, 3, 10.0,
                                   ChannelIntegration.monte_carlo(samples, seed=k))
                r_vals.append(reff_exact(t_t, sys_))
                m_vals.append(mi_direct(t_t, sys_))
            r_mean, m_mean = np.mean(r_vals), np.mean(m_vals)
            se = math.hypot(np.std(r_vals, ddof=1) / math.sqrt(batches),
                            np.std(m_vals, ddof=1) / math.sqrt(batches))
            if abs(r_mean - m_mean) > 4.0 * se:
                problems.append(
                    f"M=N=2 T_t={t_t}: |{r_mean:.5f} - {m_mean:.5f}| > 4 x {se:.2e}")
        return not problems, "; ".join(problems) or "pipelines agree (quadrature < 1e-6; Monte Carlo within 4 combined SE)"

    return _run(8, "exact-pipeline agreement", body)


def criterion_9() -> CriterionResult:
    """Property suite: normalizations, residuals, stationarity, reflection,
    quadrature exactness."""

    def body():
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
            tot = np.exp(sign_log_likelihoods(z, s_sq)).sum(axis=0)
            for zk, t in zip(z, tot):
                if abs(t - 1.0) > 1e-12:
                    problems.append(f"likelihood normalization at z={zk}, s_sq={s_sq}: {t!r}")

        # fixed-point residuals at returned solutions, recoded from the
        # equations: q/(1-q) = (c K^2/pi) E[exp(-K^2 q u^2)/Q(K sqrt(q) u)],
        # K^2 = snr/(1 + snr (1-q)), and for one-bit data q_x = the tanh
        # moment at that right-hand side, minus 1
        def rhs(q, c, snr):
            ksq = snr / (1.0 + snr * (1.0 - q))
            return c * ksq / math.pi * float(rule.weights @ exp_ratio(math.sqrt(ksq * q) * rule.nodes))

        def residual(q, c, snr):
            return q / (1.0 - q) - rhs(q, c, snr)

        for rho in (0.01, 1.0, 100.0):
            for beta_t in (0.1, 1.0, 10.0):
                ov = solve_qh(rho, beta_t, rule)
                res = abs(residual(ov.q_h, beta_t, rho))
                if res > 1e-10:
                    problems.append(f"q_h residual {res:.2e} at rho={rho}, beta_t={beta_t}")
        u = rule.nodes
        for s in (0.05, 1.0, 10.0):
            for alpha in (0.5, 2.0):
                dl = solve_qx_linear(s, alpha, rule)
                res = abs(residual(dl.q_x, alpha, s))
                if res > 1e-10:
                    problems.append(f"q_x linear residual {res:.2e} at s={s}, alpha={alpha}")
                do = solve_qx_onebit(s, alpha, rule)
                qh = rhs(do.q_x, alpha, s)
                moment = float(rule.weights @ (np.tanh(math.sqrt(qh) * u + qh) * (2.0 + u / math.sqrt(qh))))
                res = abs(moment - 1.0 - do.q_x)
                if res > 1e-10:
                    problems.append(f"q_x one-bit residual {res:.2e} at s={s}, alpha={alpha}")

        # finite-difference stationarity of the free energies
        h = 1e-7
        for rho, beta_t in ((1.0, 1.0), (10.0, 0.5)):
            ov = solve_qh(rho, beta_t, rule)
            dq = (f1_value(ov.q_h + h, ov.q_h_hat, rho, beta_t, rule)
                  - f1_value(ov.q_h - h, ov.q_h_hat, rho, beta_t, rule)) / (2 * h)
            dqh = (f1_value(ov.q_h, ov.q_h_hat + h, rho, beta_t, rule)
                   - f1_value(ov.q_h, ov.q_h_hat - h, rho, beta_t, rule)) / (2 * h)
            if max(abs(dq), abs(dqh)) > 1e-6:
                problems.append(f"F1 gradient ({dq:.2e}, {dqh:.2e}) at rho={rho}, beta_t={beta_t}")
        for s, alpha in ((1.0, 1.0), (5.0, 4.0)):
            dl = solve_qx_linear(s, alpha, rule)
            dq = (f1_value(dl.q_x + h, dl.q_x_hat, s, alpha, rule)
                  - f1_value(dl.q_x - h, dl.q_x_hat, s, alpha, rule)) / (2 * h)
            dqh = (f1_value(dl.q_x, dl.q_x_hat + h, s, alpha, rule)
                   - f1_value(dl.q_x, dl.q_x_hat - h, s, alpha, rule)) / (2 * h)
            if max(abs(dq), abs(dqh)) > 1e-6:
                problems.append(f"F2L gradient ({dq:.2e}, {dqh:.2e}) at s={s}, alpha={alpha}")
            do = solve_qx_onebit(s, alpha, rule)
            dq = (f2_onebit(min(do.q_x + h, 1.0), do.q_x_hat, alpha, s, rule)
                  - f2_onebit(do.q_x - h, do.q_x_hat, alpha, s, rule)) / (min(do.q_x + h, 1.0) - (do.q_x - h))
            dqh = (f2_onebit(do.q_x, do.q_x_hat + h, alpha, s, rule)
                   - f2_onebit(do.q_x, do.q_x_hat - h, alpha, s, rule)) / (2 * h)
            if max(abs(dq), abs(dqh)) > 1e-6:
                problems.append(f"F2O gradient ({dq:.2e}, {dqh:.2e}) at s={s}, alpha={alpha}")

        # d2 / d3 normalization on enumerable systems
        import itertools
        from .exact import QPSK, SIGN_OUT, d2 as d2_fn, d3 as d3_fn
        sys_a = SmallSystem(1, 1, 3, 10.0, ChannelIntegration.quadrature(16))
        x_t = QPSK[[0, 2]].reshape(1, 2)
        tot = sum(d2_fn(x_t, SIGN_OUT[list(ys)].reshape(1, 2), 2, sys_a)
                  for ys in itertools.product(range(4), repeat=2))
        if abs(tot - 1.0) > 1e-8:
            problems.append(f"sum d2 (M=N=1, T_t=2) = {tot!r}")
        y_t = SIGN_OUT[[1, 3]].reshape(1, 2)
        for xi in range(4):
            tot = sum(d3_fn(QPSK[[xi]], SIGN_OUT[[yi]], x_t, y_t, 2, sys_a) for yi in range(4))
            if abs(tot - 1.0) > 1e-8:
                problems.append(f"sum d3 (x={xi}) = {tot!r}")
        sys_b = SmallSystem(2, 2, 2, 5.0, ChannelIntegration.quadrature(12))
        x_t2 = QPSK[[1, 2]].reshape(2, 1)
        tot = sum(d2_fn(x_t2, SIGN_OUT[list(ys)].reshape(2, 1), 1, sys_b)
                  for ys in itertools.product(range(4), repeat=2))
        if abs(tot - 1.0) > 1e-8:
            problems.append(f"sum d2 (M=N=2, T_t=1) = {tot!r}")

        return not problems, "; ".join(problems) or "normalizations, residuals, stationarity, reflection, quadrature all hold"

    return _run(9, "property suite", body)


def run_all() -> List[CriterionResult]:
    """Run every acceptance criterion in order."""
    return [
        criterion_1(), criterion_2(), criterion_3(), criterion_4(),
        criterion_5(), criterion_6(), criterion_7(), criterion_8(),
        criterion_9(),
    ]
