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

    q_x + 1 = E_u[ tanh(sqrt(q_x_hat) u + q_x_hat) (2 + u / sqrt(q_x_hat)) ],

and putting q_x_hat equal to the Gaussian-tail right-hand side leaves one
scalar root in [0, 1].  Every overlap equation is solved the same way: one
residual scan for a whole batch, Illinois steps on every bracket, and the
closed bracket's midpoint as the root, which must leave a residual within
1e-10.  The Gaussian-tail expectations and the one-bit moments are exact, but
scans of ``_FIT_MIN_ROWS`` values or more read their signs from a checked
``numerics.TailFit`` of the right-hand side's mean or of the tanh moment: a
sign counts only where |residual| exceeds ``_FIT_MARGIN`` (100) times the
fit's error bound on the residual's scale, and every other sample and both
ends of every bracket are taken again exactly.  So the brackets, the
residuals at their ends and the roots are those of an all-exact scan.  Each
public solve and rate takes arrays as one batch; one point is a batch of one.

One-bit moments.  With z = a u + q_hat ~ N(q_hat, q_hat), a = sqrt(q_hat), the
tanh moment minus 1 is m = E[tanh z], and E[ln cosh z] = q_hat - ln 2 + L in
F2_O.  As p(-z) = e^(-2z) p(z), with w ~ N(0, 1),

    1 - m = e^(-q_hat/2) E_w[sech(a w)],   L = E[ln(1 + e^(-2z))] = e^(-q_hat/2) E_w[h(a w)],
    h(x) = cosh(x) ln(1 + e^(-2|x|)) + |x| e^(-|x|).

One fixed 128-node rule takes both, each row in one form: in w up to a switch
(m as -expm1(-q_hat/2) + e^(-q_hat/2) E_w[2 t^2 / (1 + t^2)], t = tanh(a w / 2),
positive terms only), and in the Fourier dual above it, E_w[f(a w)] =
sqrt(pi/2) / a E_v[F(v / a)] / pi, with F = pi sech(pi t / 2) for sech and
that over 1 + t^2 for h.  m switches at pi/2, where both forms' nearest
singularity is sqrt(pi/2) off the real axis, L at 2.125, where its two forms'
errors cross.  Against mpmath for q_hat in [1e-12, 1e3], m is within 2.6e-12
relative, 1 - m within 5.9e-12 and L within 1.5e-12, worst next to a switch.
The one-bit scan's fit interpolates m (1 + q_hat) / q_hat, which is 1 at both
ends of s = q_hat / (2 + q_hat) in [0, 1], at degree 64 (4.0e-12 of its peak).

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

import numpy as np

from .numerics import (LN2, chebyshev_fit, expect, gauss_hermite, mean_exp_ratio,
                       mean_q_log_q, tail_fit)

__all__ = [
    "SystemParams",
    "SolverError",
    "snr_from_db",
    "solve_qh",
    "f1_value",
    "effective_snr",
    "solve_qx_linear",
    "solve_qx_onebit",
    "f2_onebit",
    "reff_linear",
    "reff_onebit",
    "csir_rate",
    "overlap_fixed_points",
]

TX_TYPES = ("linear", "onebit")

# Residual sampling grid for the overlap equations: q = 0, where the Gaussian
# residual is -rhs(0) <= 0 (exactly 0 where coef snr is 0 or underflows), then
# log-spaced points, so that roots of order snr at low SNR are still bracketed.
_SCAN_Q = np.append(0.0, np.geomspace(1e-12, 1.0 - 1e-9, 64))
# The one-bit residual has no pole and is >= 0 at q = 0, <= 0 at q = 1: its
# scan adds q = 1, so every pair has a bracket (q = 1: saturated root).
_ONEBIT_Q = np.append(_SCAN_Q, 1.0)
# Refined brackets close at _ROOT_ULPS ulp, or stay open after _MAX_STEPS
# (then _choose's residual check fails); each root is its bracket's midpoint.
_ROOT_ULPS = 4
_MAX_STEPS = 200
# Residual bound of a chosen root: relative to max(1, q/(1-q)) for the
# Gaussian overlaps, absolute for the one-bit one.
_TOL = 1e-10
# A scan sample's sign is read from a checked fit only where |residual| exceeds
# this many times its error bound, in scans of at least _FIT_MIN_ROWS values (_scan).
_FIT_MARGIN, _FIT_MIN_ROWS = 100.0, 192
# The one-bit moments' rule, the q_hat above which each takes its dual form,
# and the degree and equispaced check points of the tanh moment's fit.
_MOMENT_ORDER, _TANH_DUAL_FROM, _LOG1P_DUAL_FROM = 128, math.pi / 2, 2.125
_TANH_DEGREE, _TANH_CHECKS = 64, 20001


class SolverError(RuntimeError):
    """A fixed-point solver failed to converge.

    ``brackets`` holds every sign-change bracket found while sampling the
    residual; ``diagnostics`` carries the roots found and the residual at
    the chosen one.
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


def _k_sq(snr, q) -> np.ndarray:
    # K^2 = snr / (1 + snr (1 - q)); the squared scale of the Q argument.
    return snr / (1.0 + snr * (1.0 - q))


def _gaussian_rhs(q, coef, snr):
    """(coef K^2 / pi) E_u[ exp(-K^2 q u^2) / Q(K sqrt(q) u) ] for each q of an array."""
    ksq = _k_sq(snr, q)
    return coef * ksq / np.pi * mean_exp_ratio(np.sqrt(ksq * q))


def _gaussian_g(q, q_hat):
    # (1 - q) times the residual q/(1-q) - q_hat: its signs, but no pole at
    # q = 1, where the residual's steepness stalls regula falsi
    return (q / (1.0 - q) - q_hat) * (1.0 - q)


def _onebit_g(q, q_hat):
    # tanh_moment(q_hat) - 1 - q, the "- 1" already taken inside _tanh_moment
    return _tanh_moment(q_hat, gauss_hermite(_MOMENT_ORDER)) - q


def _illinois(lo, hi, flo, fhi, residual):
    """Shrink every sign-change bracket [lo, hi] onto its root, all together.

    Each step takes the regula falsi point of every open bracket, kept
    strictly inside it, and halves the residual kept at an end that stayed
    twice in a row (Illinois).  A point that is not finite, or three steps
    that fail to halve a bracket, give way to bisection.  ``residual(x, k)``
    is the residual at points x of brackets k.  Brackets close at
    ``_ROOT_ULPS`` ulp, or stay open once ``_MAX_STEPS`` run out.  Returns
    every bracket's midpoint.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.array(flo, dtype=float), np.array(fhi, dtype=float)
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
        fx = residual(x, k)
        to_hi = np.sign(fx) == np.sign(fh)
        side = np.where(to_hi, 1.0, -1.0)
        again = moved[k] == side
        hi[k], fhi[k] = np.where(to_hi, x, h), np.where(to_hi, fx, np.where(again, 0.5 * fh, fh))
        lo[k], flo[k] = np.where(to_hi, l, x), np.where(to_hi, np.where(again, 0.5 * fl, fl), fx)
        moved[k], widths[step % 3, k] = side, w
    return 0.5 * (lo + hi)


def _brackets(res):
    """``(owner, j_lo, j_hi)``: the row and the columns either side of each
    sign change or zero (j_lo == j_hi) of the samples ``res``, by row, then
    column."""
    sign = np.sign(res)
    z_own, z_j = np.nonzero(sign == 0.0)
    b_own, b_j = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    owner, j_lo = np.concatenate([b_own, z_own]), np.concatenate([b_j, z_j])
    j_hi = np.concatenate([b_j + 1, z_j])
    order = np.lexsort((j_lo, owner))
    return owner[order], j_lo[order], j_hi[order]


def _scan(coef, snr, qs, g):
    """Sample ``g(q, rhs(q))`` at every q of qs for each (coef, snr) pair.
    The expectation in rhs does not depend on coef, so it is taken once per
    distinct snr.  Returns ``(res, owner, j_lo, j_hi)``: the samples, and
    their brackets by :func:`_brackets`.

    A scan of at least ``_FIT_MIN_ROWS`` fitted values takes its tail mean
    (Gaussian) or tanh moment (one-bit) from a fit first.  A sample's sign
    counts where |res| exceeds ``_FIT_MARGIN`` times the fit's error on the
    scale q + (1 - q) cap (cap >= |rhs|) or cap (>= |m|); the other samples
    and every bracket's ends are taken again exactly, so the brackets and
    their end residuals are those of an all-exact scan, bit for bit.
    """
    usnr, inv = np.unique(snr, return_inverse=True)
    ksq = _k_sq(usnr[:, None], qs)
    a = np.sqrt(ksq * qs)
    scale = coef[:, None] * ksq[inv] / np.pi
    if g is _gaussian_g:
        def exact(rows, cols):
            return g(qs[cols], scale[rows, cols] * mean_exp_ratio(a[inv[rows], cols]))
        if a.size < _FIT_MIN_ROWS:
            res = g(qs, scale * mean_exp_ratio(a)[inv])
            return (res,) + _brackets(res)
        mean, cap = (fit := tail_fit()).at(a)
        res, bound = g(qs, scale * mean[inv]), qs + (1.0 - qs) * scale * cap[inv]
    else:
        assert g is _onebit_g, "the one-bit scan's fit is of the tanh moment"
        q_hat = scale  # in place: the scale is not needed again
        q_hat *= mean_exp_ratio(a)[inv]

        def exact(rows, cols):
            return g(qs[cols], q_hat[rows, cols])
        if q_hat.size < _FIT_MIN_ROWS:
            res = g(qs, q_hat)
            return (res,) + _brackets(res)
        res, bound = (fit := _tanh_fit()).at(q_hat)
        res -= qs
    bound *= _FIT_MARGIN * fit.error
    unsure = ~(np.abs(res) > bound)
    res[unsure] = exact(*np.nonzero(unsure))
    owner, j_lo, j_hi = _brackets(res)
    ends = np.zeros(res.shape, dtype=bool)
    ends[owner, j_lo] = ends[owner, j_hi] = True
    ends &= ~unsure
    res[ends] = exact(*np.nonzero(ends))
    return res, owner, j_lo, j_hi


def _roots(coef: np.ndarray, snr: np.ndarray, g, qs: np.ndarray):
    """Every root of ``g(q, rhs(q))`` on qs at each (coef, snr) pair, with
    rhs the Gaussian-tail right-hand side: ``g`` is sampled at qs and
    :func:`_illinois` closes every bracket; each root is its midpoint.
    Returns ``(owner, roots, lo, hi)``: root k belongs to pair ``owner[k]``
    and was refined in the bracket [lo[k], hi[k]] (lo == hi where a sample
    is an exact zero); a pair's roots come in increasing order.
    """
    res, owner, j_lo, j_hi = _scan(coef, snr, qs, g)
    lo, hi, c, s = qs[j_lo], qs[j_hi], coef[owner], snr[owner]
    roots = _illinois(lo, hi, res[owner, j_lo], res[owner, j_hi],
                      lambda x, k: g(x, _gaussian_rhs(x, c[k], s[k])))
    return owner, roots, lo, hi


def overlap_fixed_points(coef: float, snr: float):
    """All roots in [0, 1) of  q/(1-q) = (coef K^2/pi) E_u exp(-K^2 q u^2)/Q(K sqrt(q) u).

    Samples the residual at q = 0 and at log-spaced points up to 1 - 1e-9,
    and refines every sign-change bracket.  Returns ``(roots, brackets)`` so
    callers can inspect multiplicity.  With coef * snr > 0 the residual is
    negative at 0 and positive at 1-, so a root exists; it is bracketed
    unless it lies above the scan's last point (large coef * snr).
    """
    _, roots, lo, hi = _roots(np.array([float(coef)]), np.array([float(snr)]),
                              _gaussian_g, _SCAN_Q)
    return [float(r) for r in roots], [(float(a), float(b)) for a, b in zip(lo, hi) if a < b]


def _choose(found, groups, energy, resid, allowed, label) -> np.ndarray:
    """Index into the roots of ``found = (owner, roots, lo, hi)`` of each
    pair's admissible root: its only one, or the one of least ``energy(k)``
    (the first on ties), which must have ``resid <= allowed``.  Raises
    :class:`SolverError` naming pair i by ``label(i)``, checking each ``(what,
    pairs)`` of ``groups``, pairs a slice, in turn: brackets, then residuals."""
    owner, roots, lo, hi = found
    count = np.bincount(owner, minlength=groups[-1][1].stop)
    pick = np.cumsum(count) - count
    multi = np.flatnonzero(count[owner] > 1)
    if multi.size:
        order = multi[np.lexsort((energy(multi), owner[multi]))]
        owners, first = np.unique(owner[order], return_index=True)
        pick[owners] = order[first]
    for what, g in groups:
        if not count[g].all():
            i = g.start + int(np.argmin(count[g]))
            raise SolverError(f"no {what} fixed point bracketed ({label(i)})")
        bad = g.start + np.flatnonzero(~(resid[pick[g]] <= allowed[pick[g]]))
        if bad.size:
            i = int(bad[0])
            k, mine = pick[i], owner == i
            raise SolverError(
                f"{what} fixed point residual {resid[k]:.3e} exceeds {allowed[k]:.3e} at "
                f"q={float(roots[k])!r} ({label(i)})",
                brackets=[(float(a), float(b)) for a, b in zip(lo[mine], hi[mine]) if a < b],
                diagnostics={"roots": roots[mine].tolist(), "residual": float(resid[k])})
    return pick


def _solve_overlaps(coef, snr, what: str, coef_name: str, known=None) -> np.ndarray:
    """The admissible overlap at every (coef, snr) pair, solved as one batch.

    Pairs with coef * snr == 0 give q = 0, the scan's exact zero.  Where a
    pair has several roots the one of least free energy wins; every chosen
    root must leave a residual within ``_TOL`` max(1, q/(1-q)).  A ``known``
    SNR appends the pair (coef, known), the known-channel data overlap,
    checked last.
    """
    coef, snr = np.broadcast_arrays(np.atleast_1d(np.asarray(coef, dtype=float)),
                                    np.append(snr, [] if known is None else known))
    found = owner, roots, _, _ = _roots(coef, snr, _gaussian_g, _SCAN_Q)
    c_o, s_o = coef[owner], snr[owner]
    split = snr.size - (known is not None)
    return roots[_choose(
        found, [(what, slice(0, split)), ("known-channel data overlap", slice(split, snr.size))],
        lambda k: _free_energy(roots[k], roots[k] / (1.0 - roots[k]), c_o[k], s_o[k]),
        np.abs(roots / (1.0 - roots) - _gaussian_rhs(roots, c_o, s_o)),
        _TOL * np.maximum(1.0, roots / (1.0 - roots)),
        lambda i: f"{coef_name}={coef[i]:g}, snr={snr[i]:g}")]


def _tail_term(coef, snr, q):
    # -4 coef E_u[ Q(a u) ln Q(a u) ],  a = sqrt(K^2 q); vectorized
    return -4.0 * coef * mean_q_log_q(np.sqrt(_k_sq(snr, q) * q))


def _free_energy(q, q_hat, coef, snr):
    # F1 = F2_L: tail term + ln(1 + q_hat) - q_hat + q q_hat
    return _tail_term(coef, snr, q) + np.log1p(q_hat) - q_hat + q * q_hat


def _check_finite(name: str, values, positive: bool = False) -> None:
    """Raise ValueError unless every value is finite and nonnegative, or
    positive if ``positive``."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    bad = v[~(((v > 0.0) if positive else (v >= 0.0)) & (v < math.inf))]
    if bad.size:
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {bad[0]}")


def effective_snr(rho: float, q_h):
    """snr_eff = rho q_h / (1 + rho (1 - q_h)) at a q_h or at each of an
    array; in [0, rho], increasing in q_h."""
    _check_finite("rho", rho)
    q = np.asarray(q_h, dtype=float)
    bad = q[~((q >= 0.0) & (q <= 1.0))]
    if bad.size:
        raise ValueError(f"q_h must lie in [0, 1], got {bad[0]}")
    return rho * q / (1.0 + rho * (1.0 - q))


def f1_value(q: float, q_hat: float, rho: float, beta_t: float) -> float:
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
    _check_finite("q_hat", q_hat)
    _check_finite("rho", rho)
    _check_finite("beta_t", beta_t)
    return float(_free_energy(q, q_hat, beta_t, rho))


def solve_qh(rho: float, beta_ts):
    """Training-phase overlap and effective SNR at every training length of a
    grid: ``(q_h, snr_eff)``, two arrays.

    The grid shares one residual scan, since the Gaussian expectation in the
    residual depends on rho but not on beta_t.  beta_t = 0 (or rho = 0)
    degenerates to q_h = 0: no estimate, snr_eff = 0.  Among multiple fixed
    points the F1 minimizer is returned.
    """
    bts = np.atleast_1d(np.asarray(beta_ts, dtype=float))
    _check_finite("rho", rho)
    _check_finite("beta_t", bts)
    q_h = _solve_overlaps(bts, rho, "channel overlap", "beta_t")
    return q_h, effective_snr(rho, q_h)


def _dual_mean(q_hat, rule, g=lambda y: 1.0):
    """e^(-q_hat/2) sqrt(pi/2) / a E_v[sech(pi y / 2) g(y)], y = v / a, for each
    q_hat of a 1-d array by ``rule``: 1 - m as it stands, L with g(y) = 1 / (1 + y^2)."""
    a = np.sqrt(q_hat)
    mean = expect(lambda r, v: g(v / r) / np.cosh(0.5 * np.pi * (v / r)), a, rule)
    return np.exp(-0.5 * q_hat) * np.sqrt(0.5 * np.pi) / a * mean


def _log1p_moment(q_hat):
    """L = E[ln(1 + e^(-2z))] for each q_hat of an array (module docstring)."""
    def h(r, w):
        x = np.abs(r * w)
        return np.cosh(x) * np.log1p(np.exp(-2.0 * x)) + x * np.exp(-x)

    low, rule = q_hat <= _LOG1P_DUAL_FROM, gauss_hermite(_MOMENT_ORDER)
    out = np.empty(q_hat.shape)
    out[low] = np.exp(-0.5 * q_hat[low]) * expect(h, np.sqrt(q_hat[low]), rule)
    out[~low] = _dual_mean(q_hat[~low], rule, lambda y: 1.0 / (1.0 + y * y))
    return out


def _f2_onebit(r, r_hat, alpha, snr_eff):
    # F2_O, vectorized, with E[ln cosh z] = r_hat - ln 2 + E[ln(1 + e^(-2z))]
    r_hat = np.asarray(r_hat, dtype=float)
    return _tail_term(alpha, snr_eff, r) - r_hat + 2.0 * (LN2 - _log1p_moment(r_hat)) + r * r_hat


def f2_onebit(r: float, r_hat: float, alpha: float, snr_eff: float) -> float:
    """Data-phase free energy for one-bit (QPSK) data symbols:

        F2_O(r, r_hat) = -4 alpha E_u[ Q(A sqrt(r) u) ln Q(A sqrt(r) u) ]
                         + r_hat - 2 E_u[ ln cosh(r_hat + sqrt(r_hat) u) ]
                         + r r_hat.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    _check_finite("r_hat", r_hat)
    _data_pairs(snr_eff, alpha)
    return float(_f2_onebit(r, r_hat, alpha, snr_eff))


def _data_pairs(snr_eff, alpha):
    """The (snr_eff, alpha) pairs of two broadcast arrays, flattened; ValueError
    unless each snr_eff is finite and nonnegative and each alpha finite and positive."""
    s, a = (v.ravel() for v in np.broadcast_arrays(
        np.asarray(snr_eff, dtype=float), np.asarray(alpha, dtype=float)))
    _check_finite("snr_eff", s)
    _check_finite("alpha", a, positive=True)
    return s, a


def solve_qx_linear(snr_eff, alpha) -> np.ndarray:
    """Data-phase overlap q_x for Gaussian data symbols at every (snr_eff,
    alpha) pair of two broadcast arrays, flattened, solved as one batch.

    Substituting q_x = q_x_hat / (1 + q_x_hat) reduces the pair of stationarity
    conditions to one scalar equation of the same form as the training one,
    with (beta_t, rho) -> (alpha, snr_eff).  Among multiple roots the F2_L
    minimizer is returned.
    """
    s, a = _data_pairs(snr_eff, alpha)
    return _solve_overlaps(a, s, "linear data overlap", "alpha")


def _tanh_moment(q_hat, rule):
    """m = E_u[tanh(a u + q_hat) (2 + u / a)] - 1 for each q_hat of an array, by
    ``rule``; it never exceeds 1 and keeps its relative accuracy as q_hat -> 0."""
    def f(r, w):
        t = np.tanh(r * w)
        return 2.0 * t * t / (1.0 + t * t)

    low = q_hat <= _TANH_DUAL_FROM
    m = np.empty(q_hat.shape)
    m[low] = (-np.expm1(-0.5 * q_hat[low]) + np.exp(-0.5 * q_hat[low])
              * expect(f, 0.5 * np.sqrt(q_hat[low]), rule))
    m[~low] = 1.0 - _dual_mean(q_hat[~low], rule)
    return m


def _moment_ratio(s, rule):
    # m (1 + q_hat) / q_hat at each s = q_hat / (2 + q_hat) of [0, 1]; 1 at both ends
    out, inner = np.ones(s.shape), (s > 0.0) & (s < 1.0)
    s = s[inner]
    out[inner] = _tanh_moment(2.0 * s / (1.0 - s), rule) * (1.0 + s) / (2.0 * s)
    return out


def _tanh_domain(q_hat):
    # q_hat -> (s, q_hat / (1 + q_hat)), the factor that turns the ratio into m
    return q_hat / (2.0 + q_hat), q_hat / (1.0 + q_hat)


def _tanh_fit():
    """The fit whose ``at(q_hat)`` is m (module docstring), on the rule in force."""
    return chebyshev_fit(_moment_ratio, _tanh_domain, _TANH_DEGREE, _TANH_CHECKS,
                         gauss_hermite(_MOMENT_ORDER))


def solve_qx_onebit(snr_eff, alpha):
    """Data-phase overlap for one-bit data symbols: ``(q_x, q_x_hat, f2)``,
    with F2_O, at every (snr_eff, alpha) pair of two broadcast arrays,
    flattened, solved as one batch.

    Substituting q_x_hat = rhs(q_x), the Gaussian-tail right-hand side,
    leaves one scalar equation g(q) = tanh_moment(rhs(q)) - 1 - q = 0 on
    [0, 1], whose roots :func:`_roots` finds on ``_ONEBIT_Q`` (snr_eff == 0
    gives the exact zero q_x = 0; q_x = 1 is the saturated root).  Where a
    pair has several roots the least F2_O wins; every chosen root must meet
    |g| <= ``_TOL``, or :class:`SolverError` carries its brackets and roots.
    """
    snr, alpha = _data_pairs(snr_eff, alpha)
    found = owner, roots, _, _ = _roots(alpha, snr, _onebit_g, _ONEBIT_Q)
    a, s = alpha[owner], snr[owner]
    q_hat = _gaussian_rhs(roots, a, s)
    f2 = _f2_onebit(roots, q_hat, a, s)
    pick = _choose(found, [("one-bit data overlap", slice(0, alpha.size))], lambda k: f2[k],
                   np.abs(_onebit_g(roots, q_hat)), np.full(roots.size, _TOL),
                   lambda i: f"snr_eff={snr[i]:g}, alpha={alpha[i]:g}")
    return roots[pick], q_hat[pick], f2[pick]


def reff_linear(alpha: float, snr_eff) -> np.ndarray:
    """Per-transmitter rate of the trained system with Gaussian data symbols,
    in bits per channel use, at every effective SNR of an array; the data
    overlaps are solved as one batch."""
    return _linear_rates(alpha, snr_eff)[0]


def _linear_rates(alpha, snr_eff, known=None):
    """:func:`reff_linear`, and :func:`csir_rate` at a ``known`` SNR (else None)."""
    s = np.atleast_1d(np.asarray(snr_eff, dtype=float))
    _data_pairs(np.append(s, [] if known is None else known), alpha)
    q = _solve_overlaps(alpha, s, "linear data overlap", "alpha", known)
    q, q_known = q[:s.size], q[s.size:]
    # the tail term at q = 1 is minus the output-entropy term 4 alpha E[Q ln Q]
    rates = np.maximum(0.0, (_free_energy(q, q / (1.0 - q), alpha, s)
                             - _tail_term(alpha, s, 1.0)) / LN2)
    if known is None:
        return rates, None
    q = float(q_known[0])
    q_hat = q / (1.0 - q)
    a_hat = math.sqrt(known / (1.0 + known * (1.0 - q)))
    output, data = mean_q_log_q(np.array([math.sqrt(known), a_hat * math.sqrt(q)]))
    tails = 4.0 * alpha * float(output - data)
    return rates, max(0.0, (tails + math.log1p(q_hat) - q_hat + q * q_hat) / LN2)


def reff_onebit(alpha, snr_eff) -> np.ndarray:
    """Per-transmitter rate of the trained system with one-bit data symbols,
    in bits per channel use, at every (alpha, snr_eff) pair of two broadcast
    arrays, flattened; the data overlaps are solved as one batch.  The QPSK
    input alphabet caps it at 2 bits, and the clip trims float residue."""
    s, a = _data_pairs(snr_eff, alpha)
    _, _, f2 = solve_qx_onebit(s, a)
    return np.clip((f2 - _tail_term(a, s, 1.0)) / LN2, 0.0, 2.0)


def csir_rate(alpha: float, rho: float) -> float:
    """Rate with perfect receiver channel knowledge and Gaussian inputs:

        R = (1/ln 2) [ 4 alpha E_u( Q(sqrt(rho) u) ln Q(sqrt(rho) u)
                                    - Q(A sqrt(q_x) u) ln Q(A sqrt(q_x) u) )
                       + ln(1 + q_x_hat) - q_x_hat + q_x q_x_hat ],

    with (q_x, q_x_hat, A) the Gaussian data fixed point at snr_eff = rho.
    Upper reference for every training-based linear-transmitter bound.
    """
    return _linear_rates(alpha, (), rho)[1]

