"""Large-system closed forms for training-based rates with one-bit receivers.

Training phase.  The overlap q_h in [0, 1) between the channel and its MMSE
estimate after a training block of normalized length beta_t solves

    q / (1 - q) = (beta_t B^2 / pi) E_u[ exp(-B^2 q u^2) / Q(B sqrt(q) u) ],
    B = sqrt(rho / (1 + rho (1 - q))),   u ~ N(0, 1),

where rho is the per-receiver SNR (noise variance normalized to 1) and
1 - q_h is the per-coefficient estimation MSE.  The trained system is
equivalent to a known channel with coefficient variance q_h and noise
inflated to sigma_eff^2 = 1 + rho (1 - q_h), so the effective SNR is

    snr_eff = rho q_h / (1 + rho (1 - q_h)).

Data phase.  With Gaussian (linear-transmitter) data symbols, the
input-output overlap q_x solves the same kind of equation with
(beta_t, rho) replaced by (alpha, snr_eff), where alpha is the
receiver-to-transmitter ratio, together with q_x = q_x_hat / (1 + q_x_hat).
With one-bit (QPSK) data symbols the second relation becomes a tanh moment:

    q_x + 1 = E_u[ tanh(sqrt(q_x_hat) u + q_x_hat) (2 + u / sqrt(q_x_hat)) ].

Fixed points may be non-unique; the admissible solution minimizes the free
energies F1 (training) / F2 (data), whose stationary points the equations
are.  Rates are reported in bits per transmitter per channel use:

    R_eff = (1 / ln 2) [ F2(q_x, q_x_hat)
                         + 4 alpha E_u( Q(s u) ln Q(s u) ) ],
    s = sqrt(snr_eff).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import LN2, QuadratureRule, exp_ratio, gauss_hermite, q_log_q

__all__ = [
    "SystemParams",
    "ChannelOverlap",
    "DataOverlap",
    "SolverError",
    "snr_from_db",
    "solve_qh",
    "solve_qh_grid",
    "perfect_csi_overlap",
    "f1_value",
    "effective_snr",
    "solve_qx_linear",
    "solve_qx_onebit",
    "f2_onebit",
    "linear_rates",
    "onebit_rates",
    "reff_linear",
    "reff_onebit",
    "csir_rate",
    "single_pair_capacity",
    "overlap_fixed_points",
]

TX_TYPES = ("linear", "onebit")

# Residual sampling grid for the overlap equations: log-spaced so that
# roots of order snr (low-SNR regime, down to ~1e-10) are still bracketed.
_GRID_LO = 1e-12
_GRID_HI = 1.0 - 1e-9
_GRID_N = 64
_SCAN_Q = np.geomspace(_GRID_LO, _GRID_HI, _GRID_N)
# Distinct SNRs whose residual scan is evaluated at once: 2 x 64 x 128
# elements keep the temporaries under 1 MB however long the grid is.
_SCAN_ROWS = 2
# Refined brackets close at _ROOT_ULPS ulp (or after _MAX_STEPS); the
# bisection replay evaluates the residual up to _WINDOW ulp outside them.
_ROOT_ULPS = 4
_MAX_STEPS = 200
_WINDOW = 4
# One-bit data solve: damping factor, iteration cap per start, start points,
# and (alpha, snr) pairs whose alternations run at once: 32 x 3 starts x 128
# nodes keep the temporaries near 100 kB however many pairs there are.
_DAMPING = 0.5
_MAX_ITER = 10_000
_STARTS = (0.01, 0.5, 0.99)
_ONEBIT_PAIRS = 32


class SolverError(RuntimeError):
    """A fixed-point solver failed to converge.

    ``brackets`` holds every sign-change bracket found while sampling the
    residual; ``diagnostics`` carries per-start residual information for
    iterative solves.
    """

    def __init__(self, message: str, *, brackets=None, diagnostics=None):
        super().__init__(message)
        self.brackets = list(brackets) if brackets else []
        self.diagnostics = dict(diagnostics) if diagnostics else {}


@dataclass(frozen=True)
class SystemParams:
    """Normalized system description.

    alpha = receivers / transmitters, beta = coherence length / transmitters,
    rho = per-receiver SNR (noise variance is normalized to 1 throughout).
    """

    alpha: float
    beta: float
    rho: float
    tx_type: str = "linear"

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")
        if self.tx_type not in TX_TYPES:
            raise ValueError(f"tx_type must be one of {TX_TYPES}, got {self.tx_type!r}")


def snr_from_db(db: float) -> float:
    """The linear SNR 10^(db/10); raises ValueError when it is not finite."""
    try:
        rho = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise ValueError(f"SNR of {db} dB is out of range")
    return rho


@dataclass(frozen=True)
class ChannelOverlap:
    """Training-phase fixed point and the induced effective channel."""

    beta_t: float
    q_h: float
    q_h_hat: float
    rho_eff: float
    sigma_eff_sq: float
    snr_eff: float


@dataclass(frozen=True)
class DataOverlap:
    """Data-phase fixed point, with the free energy used for root selection."""

    q_x: float
    q_x_hat: float
    f2_value: float
    a_coeff: float


def _k_sq(snr, q) -> np.ndarray:
    # K^2 = snr / (1 + snr (1 - q)); the squared scale of the Q argument.
    return snr / (1.0 + snr * (1.0 - q))


def _expect(values, rule: QuadratureRule):
    # E_u along the last axis.  Each row is its own dot product, so a batch
    # gives the same bits as one point at a time (a matrix-vector product
    # does not).
    if values.ndim == 1:
        return values @ rule.weights
    return (values[..., None, :] @ rule.weights[:, None])[..., 0, 0]


def _gaussian_rhs(q, coef, snr, rule: QuadratureRule):
    """(coef K^2 / pi) E_u[ exp(-K^2 q u^2) / Q(K sqrt(q) u) ], vectorized in q."""
    q = np.asarray(q, dtype=float)
    ksq = _k_sq(snr, q)
    return coef * ksq / np.pi * _expect(exp_ratio(np.sqrt(ksq * q)[..., None] * rule.nodes), rule)


def _overlap_residual(q, coef, snr, rule: QuadratureRule):
    q = np.asarray(q, dtype=float)
    return q / (1.0 - q) - _gaussian_rhs(q, coef, snr, rule)


def _refine(lo, hi, flo, fhi, coef, snr, rule: QuadratureRule) -> np.ndarray:
    """Roots inside the sign-change brackets [lo, hi], all refined together.

    Each step takes the regula falsi point of every open bracket, kept
    strictly inside it, and halves the residual kept at an end that stayed
    twice in a row (Illinois).  A point that is not finite, or three steps
    that fail to halve a bracket, give way to bisection.  Brackets close at
    ``_ROOT_ULPS`` ulp; :func:`_replay_bisection` then picks each root.
    """
    start = lo, hi, flo
    # (1 - q) times the residual has its signs but no pole at q = 1, where
    # the residual's steepness stalls regula falsi
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = flo * (1.0 - lo), fhi * (1.0 - hi)
    moved = np.zeros(lo.shape)  # end replaced by the last step: +1 hi, -1 lo
    widths = np.full((3,) + lo.shape, np.inf)  # bracket widths 1, 2, 3 steps back
    for step in range(_MAX_STEPS):
        k = np.flatnonzero(hi - lo > _ROOT_ULPS * np.spacing(hi))
        if k.size == 0:
            break
        l, h, fl, fh = lo[k], hi[k], flo[k], fhi[k]
        w = h - l
        x = np.clip(l - fl * (w / (fh - fl)), np.nextafter(l, h), np.nextafter(h, l))
        bisect = ~np.isfinite(x) | (w > 0.5 * widths[step % 3, k])
        x[bisect] = 0.5 * (l + h)[bisect]
        fx = _overlap_residual(x, coef[k], snr[k], rule) * (1.0 - x)
        to_hi = np.sign(fx) == np.sign(fh)
        side = np.where(to_hi, 1.0, -1.0)
        again = moved[k] == side
        hi[k], fhi[k] = np.where(to_hi, x, h), np.where(to_hi, fx, np.where(again, 0.5 * fh, fh))
        lo[k], flo[k] = np.where(to_hi, l, x), np.where(to_hi, np.where(again, 0.5 * fl, fl), fx)
        moved[k], widths[step % 3, k] = side, w
    return _replay_bisection(*start, lo - _WINDOW * np.spacing(lo),
                             hi + _WINDOW * np.spacing(hi), coef, snr, rule)


def _replay_bisection(lo, hi, flo, near_lo, near_hi, coef, snr, rule: QuadratureRule):
    """Bisect every bracket [lo, hi] down to adjacent floats or an exact zero.

    This is the bisection earlier releases ran, so their roots, and output
    bytes, are kept: the residual can vanish or flip sign on several floats
    next to a root, and bisection picks among them by its own path.  It is
    evaluated only at midpoints in [near_lo, near_hi]; outside, its sign
    follows from the side the midpoint lies on, so the steps that get the
    midpoints there are plain arithmetic.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for i, (l, h, a, b) in enumerate(zip(lo.tolist(), hi.tolist(), near_lo.tolist(),
                                         near_hi.tolist())):
        mid = 0.5 * (l + h)  # Python floats: the same IEEE steps, far cheaper one by one
        while l < mid < h and not a <= mid <= b:
            l, h = (mid, h) if mid < a else (l, mid)
            mid = 0.5 * (l + h)
        lo[i], hi[i] = l, h
    left = np.sign(flo)
    out = np.empty(lo.shape)
    k = np.arange(lo.size)
    while k.size:
        l, h, mid = lo[k], hi[k], 0.5 * (lo[k] + hi[k])
        done = (mid == l) | (mid == h)
        sign = np.where(mid < near_lo[k], left[k], -left[k])
        ev = np.flatnonzero(~done & (mid >= near_lo[k]) & (mid <= near_hi[k]))
        if ev.size:
            sign[ev] = np.sign(_overlap_residual(mid[ev], coef[k[ev]], snr[k[ev]], rule))
        done |= sign == 0.0
        out[k[done]] = mid[done]
        to_hi = sign == -left[k]
        lo[k], hi[k] = np.where(to_hi, l, mid), np.where(to_hi, mid, h)
        k = k[~done]
    return out


def _fixed_points(coef: np.ndarray, snr: np.ndarray, rule: QuadratureRule):
    """Every root in (0, 1) of the overlap equation at each (coef, snr) pair.

    The residual is sampled at ``_GRID_N`` log-spaced points.  Its Gaussian
    expectation does not depend on coef, so it is computed once per
    distinct snr, ``_SCAN_ROWS`` of them at a time.  Returns ``(owner,
    roots, lo, hi)``: root k belongs to pair ``owner[k]`` and was refined in
    the bracket [lo[k], hi[k]] (lo == hi where a sample is an exact zero);
    a pair's roots come in increasing order.
    """
    qs = _SCAN_Q
    usnr, inv = np.unique(snr, return_inverse=True)
    ksq = _k_sq(usnr[:, None], qs)
    mean = np.empty_like(ksq)
    for i in range(0, len(usnr), _SCAN_ROWS):
        arg = np.sqrt(ksq[i:i + _SCAN_ROWS] * qs)[..., None] * rule.nodes
        mean[i:i + _SCAN_ROWS] = _expect(exp_ratio(arg), rule)
    res = qs / (1.0 - qs) - coef[:, None] * ksq[inv] / np.pi * mean[inv]
    sign = np.sign(res)
    z_own, z_j = np.nonzero(sign == 0.0)
    b_own, b_j = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    owner, j_lo = np.concatenate([b_own, z_own]), np.concatenate([b_j, z_j])
    j_hi = np.concatenate([b_j + 1, z_j])
    order = np.lexsort((j_lo, owner))
    owner, j_lo, j_hi = owner[order], j_lo[order], j_hi[order]
    roots = _refine(qs[j_lo], qs[j_hi], res[owner, j_lo], res[owner, j_hi],
                    coef[owner], snr[owner], rule)
    return owner, roots, qs[j_lo], qs[j_hi]


def overlap_fixed_points(coef: float, snr: float, rule: QuadratureRule):
    """All roots in (0, 1) of  q/(1-q) = (coef K^2/pi) E_u exp(-K^2 q u^2)/Q(K sqrt(q) u).

    Samples the residual at log-spaced points and refines every sign-change
    bracket.  Returns ``(roots, brackets)`` so callers can inspect
    multiplicity.  With coef * snr > 0 the residual is negative at 0+ and
    positive at 1-, so at least one root is always bracketed.
    """
    _, roots, lo, hi = _fixed_points(np.array([float(coef)]), np.array([float(snr)]), rule)
    return [float(r) for r in roots], [(float(a), float(b)) for a, b in zip(lo, hi) if a < b]


def _solve_overlaps(coef, snr, rule: QuadratureRule, tol: float, what: str,
                    coef_name: str) -> np.ndarray:
    """The admissible overlap at every (coef, snr) pair, solved as one batch.

    Pairs with coef * snr == 0 give q = 0.  Where a pair has several roots
    the one of least free energy wins (the first on ties); every chosen
    root must meet the residual tolerance.
    """
    coef, snr = np.broadcast_arrays(np.atleast_1d(np.asarray(coef, dtype=float)),
                                    np.asarray(snr, dtype=float))
    q = np.zeros(coef.shape)
    live = np.flatnonzero(coef * snr > 0.0)
    if live.size == 0:
        return q
    c, s = coef[live], snr[live]
    owner, roots, lo, hi = _fixed_points(c, s, rule)
    count = np.bincount(owner, minlength=live.size)
    if not count.all():
        i = int(np.argmin(count))
        raise SolverError(
            f"no {what} fixed point bracketed ({coef_name}={c[i]:g}, snr={s[i]:g}); "
            f"residual sampled at {_GRID_N} log-spaced points in ({_GRID_LO:g}, {_GRID_HI:g})")
    pick = np.cumsum(count) - count
    multi = np.flatnonzero(count[owner] > 1)
    if multi.size:
        r, o = roots[multi], owner[multi]
        energy = _free_energy(r, r / (1.0 - r), c[o], s[o], rule)
        order = multi[np.lexsort((energy, o))]
        owners, first = np.unique(owner[order], return_index=True)
        pick[owners] = order[first]
    chosen = roots[pick]
    resid = np.abs(_overlap_residual(chosen, c, s, rule))
    bad = np.flatnonzero(~(resid <= tol * np.maximum(1.0, chosen / (1.0 - chosen))))
    if bad.size:
        i = int(bad[0])
        mine = owner == i
        raise SolverError(
            f"{what} fixed point residual {resid[i]:.3e} exceeds tol {tol:.3e} at "
            f"q={float(chosen[i])!r} ({coef_name}={c[i]:g}, snr={s[i]:g})",
            brackets=[(float(a), float(b)) for a, b in zip(lo[mine], hi[mine]) if a < b],
            diagnostics={"roots": [float(r) for r in roots[mine]], "residual": float(resid[i])},
        )
    q[live] = chosen
    return q


def _tail_term(coef, snr, q, rule: QuadratureRule):
    # -4 coef E_u[ Q(a u) ln Q(a u) ],  a = sqrt(K^2 q); vectorized
    a = np.sqrt(_k_sq(snr, q) * q)
    return -4.0 * coef * _expect(q_log_q(np.multiply.outer(a, rule.nodes)), rule)


# libm's log1p elementwise; numpy's vectorized one can differ in the last bit
_log1p = np.vectorize(math.log1p, otypes=[float])


def _free_energy(q, q_hat, coef, snr, rule: QuadratureRule):
    # F1 = F2_L: tail term + ln(1 + q_hat) - q_hat + q q_hat
    return _tail_term(coef, snr, q, rule) + _log1p(q_hat) - q_hat + q * q_hat


def effective_snr(rho: float, q_h: float) -> float:
    """snr_eff = rho q_h / (1 + rho (1 - q_h)); in [0, rho], increasing in q_h."""
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if not 0.0 <= q_h <= 1.0:
        raise ValueError(f"q_h must lie in [0, 1], got {q_h}")
    return rho * q_h / (1.0 + rho * (1.0 - q_h))


def f1_value(q: float, q_hat: float, rho: float, beta_t: float,
             rule: Optional[QuadratureRule] = None) -> float:
    """Training-phase free energy

        F1(q, q_hat) = -4 beta_t E_u[ Q(a u) ln Q(a u) ] + q q_hat
                       + ln(1 + q_hat) - q_hat,
        a = sqrt(rho q / (rho (1 - q) + 1)).

    Stationary in q_hat exactly at q_hat = q / (1 - q); jointly stationary
    at the overlap fixed point.  With (beta_t, rho) -> (alpha, snr_eff) it is
    the data-phase free energy F2_L for Gaussian data symbols.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if not q_hat >= 0.0:
        raise ValueError(f"q_hat must be nonnegative, got {q_hat}")
    return float(_free_energy(q, q_hat, beta_t, rho, rule or gauss_hermite()))


def solve_qh_grid(rho: float, beta_ts, rule: Optional[QuadratureRule] = None,
                  tol: float = 1e-10) -> list:
    """:func:`solve_qh` at every training length of a grid, as one batched solve.

    The grid shares one residual scan, since the Gaussian expectation in the
    residual depends on rho but not on beta_t.  Returns a list of
    :class:`ChannelOverlap` in grid order.
    """
    bts = np.atleast_1d(np.asarray(beta_ts, dtype=float))
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if not (bts >= 0.0).all():
        raise ValueError(f"beta_t must be nonnegative, got {bts[~(bts >= 0.0)][0]}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    q_h = _solve_overlaps(bts, rho, rule or gauss_hermite(), tol, "channel overlap", "beta_t")
    return [
        ChannelOverlap(beta_t=float(bt), q_h=q, q_h_hat=q / (1.0 - q), rho_eff=rho * q,
                       sigma_eff_sq=1.0 + (1.0 - q) * rho, snr_eff=effective_snr(rho, q))
        for bt, q in zip(bts, q_h.tolist())
    ]


def solve_qh(rho: float, beta_t: float, rule: Optional[QuadratureRule] = None,
             tol: float = 1e-10) -> ChannelOverlap:
    """Solve the training-phase overlap equation and build the effective channel.

    beta_t = 0 (or rho = 0) degenerates to q_h = 0: no estimate, snr_eff = 0.
    Among multiple fixed points the F1 minimizer is returned.
    """
    return solve_qh_grid(rho, beta_t, rule, tol)[0]


def perfect_csi_overlap(rho: float) -> ChannelOverlap:
    """Known-channel limit: q_h = 1, no noise inflation, snr_eff = rho."""
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    return ChannelOverlap(beta_t=math.inf, q_h=1.0, q_h_hat=math.inf,
                          rho_eff=rho, sigma_eff_sq=1.0, snr_eff=rho)


def _ln_cosh(t: np.ndarray) -> np.ndarray:
    # ln cosh(t) = |t| - ln 2 + log1p(exp(-2|t|)); stable for large |t|
    at = np.abs(t)
    return at - LN2 + np.log1p(np.exp(-2.0 * at))


def _f2_onebit(r, r_hat, alpha, snr_eff, rule: QuadratureRule):
    # F2_O, vectorized; each expectation is one dot product per element
    r_hat = np.asarray(r_hat, dtype=float)
    cosh_term = _expect(_ln_cosh(r_hat[..., None] + np.sqrt(r_hat)[..., None] * rule.nodes), rule)
    return _tail_term(alpha, snr_eff, r, rule) + r_hat - 2.0 * cosh_term + r * r_hat


def f2_onebit(r: float, r_hat: float, alpha: float, snr_eff: float,
              rule: Optional[QuadratureRule] = None) -> float:
    """Data-phase free energy for one-bit (QPSK) data symbols:

        F2_O(r, r_hat) = -4 alpha E_u[ Q(A sqrt(r) u) ln Q(A sqrt(r) u) ]
                         + r_hat - 2 E_u[ ln cosh(r_hat + sqrt(r_hat) u) ]
                         + r r_hat.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if not r_hat >= 0.0:
        raise ValueError(f"r_hat must be nonnegative, got {r_hat}")
    return float(_f2_onebit(r, r_hat, alpha, snr_eff, rule or gauss_hermite()))


def _check_data_args(snr_eff: float, alpha: float, tol: float) -> None:
    if not snr_eff >= 0.0:
        raise ValueError(f"snr_eff must be nonnegative, got {snr_eff}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def solve_qx_linear(snr_eff: float, alpha: float, rule: Optional[QuadratureRule] = None,
                    tol: float = 1e-10) -> DataOverlap:
    """Data-phase overlap for Gaussian data symbols.

    Substituting q_x = q_x_hat / (1 + q_x_hat) reduces the pair of stationarity
    conditions to one scalar equation of the same form as the training one,
    with (beta_t, rho) -> (alpha, snr_eff).  Among multiple roots the F2_L
    minimizer is returned.
    """
    _check_data_args(snr_eff, alpha, tol)
    rule = rule or gauss_hermite()
    q = float(_solve_overlaps(alpha, snr_eff, rule, tol, "linear data overlap", "alpha")[0])
    q_hat = q / (1.0 - q)
    return DataOverlap(
        q_x=q,
        q_x_hat=q_hat,
        f2_value=f1_value(q, q_hat, snr_eff, alpha, rule),
        a_coeff=math.sqrt(_k_sq(snr_eff, q)),
    )


def _tanh_moment(q_hat, rule: QuadratureRule):
    """E_u[ tanh(sqrt(q_hat) u + q_hat) (2 + u / sqrt(q_hat)) ] for each q_hat.

    Below q_hat = 1e-8 the 0 * inf ambiguity is removed by the series
    1 + q_hat - 3 q_hat^2 + O(q_hat^3).
    """
    small = q_hat < 1e-8
    s = np.sqrt(np.maximum(q_hat, 1e-8))[:, None]  # small rows take the series
    u = rule.nodes
    moment = _expect(np.tanh(s * u + q_hat[:, None]) * (2.0 + u / s), rule)
    if np.count_nonzero(small):
        moment = np.where(small, 1.0 + q_hat - 3.0 * q_hat * q_hat, moment)
    return moment


def _alternate(alpha, snr, rule: QuadratureRule, tol: float):
    """The damped alternation from every start at every (alpha, snr) pair,
    all rows in lockstep:

        q_hat = rhs(q),   q <- clip(q + _DAMPING (moment(q_hat) - 1 - q), 0, 1).

    A row retires once its step is within tol.  Returns ``(q, q_hat,
    converged, step)``, each of shape ``(pairs, starts)``; ``step`` is the
    last step of every row that did not converge.
    """
    shape = (alpha.size, len(_STARTS))
    q, q_hat = np.zeros(shape), np.zeros(shape)
    converged = np.zeros(shape, dtype=bool)
    step = np.empty(shape)
    rows = np.arange(q.size)
    ql = np.tile(np.array(_STARTS, dtype=float), alpha.size)
    al, sl = np.repeat(alpha, len(_STARTS)), np.repeat(snr, len(_STARTS))
    st = np.full(q.size, math.inf)
    for _ in range(_MAX_ITER):
        qh = _gaussian_rhs(ql, al, sl, rule)
        st = _tanh_moment(qh, rule) - 1.0 - ql
        done = np.abs(st) <= tol
        if np.count_nonzero(done):
            k = rows[done]
            q.flat[k], q_hat.flat[k], converged.flat[k] = ql[done], qh[done], True
            live = ~done
            rows, ql, st, al, sl = rows[live], ql[live], st[live], al[live], sl[live]
            if rows.size == 0:
                break
        ql = np.minimum(np.maximum(ql + _DAMPING * st, 0.0), 1.0)
    step.flat[rows] = st
    return q, q_hat, converged, step


def _onebit_overlaps(alpha, snr, rule: QuadratureRule, tol: float):
    """q_x, q_x_hat and F2_O at every (alpha, snr) pair.

    Pairs with snr == 0 give q_x = q_x_hat = 0.  Elsewhere a converged start
    within 1e-8 of an earlier kept one is dropped and the least F2_O wins
    (the earliest start on ties).
    """
    q, q_hat = np.zeros(alpha.shape), np.zeros(alpha.shape)
    live = np.flatnonzero(snr != 0.0)
    if live.size:
        a, s = alpha[live], snr[live]
        cq, cqh, kept, step = _alternate(a, s, rule, tol)
        failed = np.flatnonzero(~kept.any(axis=1))
        if failed.size:
            j = int(failed[0])
            raise SolverError(
                f"one-bit data overlap did not converge from starts {_STARTS} "
                f"(snr_eff={s[j]:g}, alpha={a[j]:g}, max_iter={_MAX_ITER})",
                diagnostics={"last_step_by_start": dict(zip(_STARTS, step[j].tolist()))},
            )
        for j in range(1, len(_STARTS)):
            for m in range(j):
                kept[:, j] &= ~kept[:, m] | (np.abs(cq[:, j] - cq[:, m]) > 1e-8)
        rows, cols = np.nonzero(kept)
        energy = np.full(kept.shape, np.inf)
        energy[rows, cols] = _f2_onebit(cq[rows, cols], cqh[rows, cols], a[rows], s[rows], rule)
        pick, at = np.argmin(energy, axis=1), np.arange(live.size)
        q[live], q_hat[live] = cq[at, pick], cqh[at, pick]
    return q, q_hat, _f2_onebit(q, q_hat, alpha, snr, rule)


def solve_qx_onebit(snr_eff: float, alpha: float, rule: Optional[QuadratureRule] = None,
                    tol: float = 1e-10) -> DataOverlap:
    """Data-phase overlap for one-bit data symbols.

    Damped alternation on (q_x, q_x_hat): q_x_hat follows from q_x by the
    Gaussian-tail equation, then q_x is pulled toward the tanh moment.  Run
    from several starts; converged points are deduplicated and the F2_O
    minimizer wins.  Raises :class:`SolverError` with per-start residuals if
    no start converges within ``_MAX_ITER`` steps.
    """
    _check_data_args(snr_eff, alpha, tol)
    q, q_hat, f2 = (float(v[0]) for v in _onebit_overlaps(
        np.array([float(alpha)]), np.array([float(snr_eff)]), rule or gauss_hermite(), tol))
    return DataOverlap(q_x=q, q_x_hat=q_hat, f2_value=f2, a_coeff=math.sqrt(_k_sq(snr_eff, q)))


def linear_rates(alpha: float, snr_eff, rule: Optional[QuadratureRule] = None,
                 tol: float = 1e-10) -> np.ndarray:
    """:func:`reff_linear` at every effective SNR of an array; the data
    overlaps are solved as one batch."""
    rule = rule or gauss_hermite()
    s = np.atleast_1d(np.asarray(snr_eff, dtype=float))
    _check_data_args(float(s.min()), alpha, tol)
    q = _solve_overlaps(alpha, s, rule, tol, "linear data overlap", "alpha")
    # the tail term at q = 1 is minus the output-entropy term 4 alpha E[Q ln Q]
    rates = np.maximum(0.0, (_free_energy(q, q / (1.0 - q), alpha, s, rule)
                             - _tail_term(alpha, s, 1.0, rule)) / LN2)
    return np.where(s == 0.0, 0.0, rates)


def reff_linear(params: SystemParams, overlap: ChannelOverlap,
                rule: Optional[QuadratureRule] = None, tol: float = 1e-10) -> float:
    """Per-transmitter rate of the trained system with Gaussian data symbols,
    in bits per channel use."""
    return float(linear_rates(params.alpha, overlap.snr_eff, rule, tol)[0])


def onebit_rates(alpha, snr_eff, rule: Optional[QuadratureRule] = None,
                 tol: float = 1e-10) -> np.ndarray:
    """:func:`reff_onebit` at every (alpha, snr_eff) pair of two broadcast
    arrays, flattened; the data overlaps are solved as one batch,
    ``_ONEBIT_PAIRS`` pairs at a time."""
    rule = rule or gauss_hermite()
    a, s = (v.ravel() for v in np.broadcast_arrays(
        np.asarray(alpha, dtype=float), np.asarray(snr_eff, dtype=float)))
    _check_data_args(float(s.min()), float(a.min()), tol)
    rates = np.zeros(s.size)
    for i in range(0, s.size, _ONEBIT_PAIRS):
        k = slice(i, i + _ONEBIT_PAIRS)
        _, _, f2 = _onebit_overlaps(a[k], s[k], rule, tol)
        # the QPSK input alphabet caps the rate at 2 bits; trim float residue
        rates[k] = np.clip((f2 - _tail_term(a[k], s[k], 1.0, rule)) / LN2, 0.0, 2.0)
    return np.where(s == 0.0, 0.0, rates)


def reff_onebit(params: SystemParams, overlap: ChannelOverlap,
                rule: Optional[QuadratureRule] = None, tol: float = 1e-10) -> float:
    """Per-transmitter rate of the trained system with one-bit data symbols,
    in bits per channel use.  Capped at 2 bits by the QPSK input alphabet."""
    return float(onebit_rates(params.alpha, overlap.snr_eff, rule, tol)[0])


def csir_rate(alpha: float, rho: float, rule: Optional[QuadratureRule] = None,
              tol: float = 1e-10) -> float:
    """Rate with perfect receiver channel knowledge and Gaussian inputs:

        R = (1/ln 2) [ 4 alpha E_u( Q(sqrt(rho) u) ln Q(sqrt(rho) u)
                                    - Q(A sqrt(q_x) u) ln Q(A sqrt(q_x) u) )
                       + ln(1 + q_x_hat) - q_x_hat + q_x q_x_hat ],

    with (q_x, q_x_hat, A) the Gaussian data fixed point at snr_eff = rho.
    Upper reference for every training-based linear-transmitter bound.
    """
    _check_data_args(rho, alpha, tol)
    rule = rule or gauss_hermite()
    q = float(_solve_overlaps(alpha, rho, rule, tol, "known-channel data overlap", "alpha")[0])
    q_hat = q / (1.0 - q)
    a_hat = math.sqrt(rho / (1.0 + rho * (1.0 - q)))
    tails = 4.0 * alpha * float(
        rule.weights @ (q_log_q(math.sqrt(rho) * rule.nodes)
                        - q_log_q(a_hat * math.sqrt(q) * rule.nodes))
    )
    return max(0.0, (tails + math.log1p(q_hat) - q_hat + q * q_hat) / LN2)


def single_pair_capacity(rho: float, rule: Optional[QuadratureRule] = None) -> float:
    """Capacity of a single one-bit transmitter/receiver pair over a Rayleigh
    channel known at the receiver, in bits:

        c(rho) = 2 (1 - E_z[ H_b(Q(sqrt(rho) z)) ]),   z ~ N(0, 1).

    Increases from 0 at rho = 0 to 2 as rho -> inf.
    """
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    rule = rule or gauss_hermite()
    x = math.sqrt(rho) * rule.nodes
    hb = -(q_log_q(x) + q_log_q(-x)) / LN2
    return float(np.clip(2.0 * (1.0 - rule.weights @ hb), 0.0, 2.0))
