"""Stable scalar special functions and one-dimensional Gaussian expectations.

Every closed-form rate expression in this package is built from the standard
normal tail

    Q(x) = P(Z > x),    Z ~ N(0, 1),

its logarithm, the ratio exp(-x^2)/Q(x), and expectations E[f(u)] with
u ~ N(0, 1).  The ratio and the Q*ln(Q) products appearing inside the
fixed-point equations underflow badly when assembled naively (Q(x) hits the
float64 floor near x = 38), so everything here routes through the scaled
complementary error function or the log-CDF.

The Gaussian-tail means E_u[exp_ratio(a u)] and E_u[Q ln Q(a u)] are exact at
any a: u = w / sqrt(1 + a^2) moves their Gaussian factor into the weight of one
fixed 48-node rule, within 2.3e-16 of mpmath for a in [0, 1e6] (40 nodes:
8.9e-15, 32: 5.7e-13; on f(a u) itself, 128 nodes are 100% off from a = 100).
The first depends on a only through c = a / sqrt(2 (1 + a^2)) in [0, 1/sqrt(2)],
as E_w[2 / erfcx(c w)] / sqrt(1 + a^2), so ``tail_fit`` also gives it from a
degree-24 Chebyshev interpolant of that 48-node sum in t = sqrt(2) c, a
``TailFit`` with a recorded bound on its distance from the sum (1.8e-14 of the
sum's peak on this rule); ``replica`` fits its tanh moment with the same type,
and reads the overlap scans' signs from fits where their bounds decide them.
The one-bit moments E[tanh z] and E[ln cosh z], z ~ N(q, q), take the fixed
128-node rule in ``replica``, directly for small q and in the Fourier dual above
(within 5.9e-12 of mpmath for q in [1e-12, 1e3]; on the raw integrand, 1e-7 at q = 10).
Every expectation goes through ``expect``, which takes at most ``_SLAB``
arguments at a time, so its node temporaries stay at ``_SLAB`` x nodes values;
a fit takes ``_SLAB``^2.  That bounds the quadrature and fits alone: a batched
solve also holds a few arrays of one value per pair and scan point, and the
one-bit moments' temporaries grow with the samples that no fit decides.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "LN2",
    "QuadratureRule",
    "gauss_hermite",
    "q_function",
    "log_q_function",
    "exp_ratio",
    "q_log_q",
    "expect",
    "mean_exp_ratio",
    "mean_q_log_q",
    "TailFit",
    "tail_fit",
]

LN2 = float(np.log(2.0))
_SQRT2 = float(np.sqrt(2.0))
_TAIL_ORDER = 48  # nodes of the tail means' rule, built on first use (7 MB of RSS at import)
_SLAB = 128  # arguments per slab of every expectation: the bound on its node temporaries
_C_MAX = float(np.sqrt(0.5))  # c = a / sqrt(2 (1 + a^2)) lies in [0, _C_MAX]
_FIT_DEGREE = 24  # of the tail mean's Chebyshev interpolant in t = c / _C_MAX
_FIT_CHECKS = 4097  # equispaced points of t at which the interpolant is checked


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights approximating E[f(u)] for u ~ N(0, 1).

    The weights form a probability measure: they are positive and sum to 1,
    so applying the rule to f = 1 returns exactly 1 and to f = u^2 returns 1
    up to the usual Gauss-Hermite polynomial exactness.  A rule hashes and
    compares by identity, so it can key a cache.
    """

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule mapped onto the standard normal measure.

    ``roots_hermite`` targets integrals of exp(-t^2) g(t); substituting
    u = sqrt(2) t turns the rule into E[f(u)], u ~ N(0, 1).  Weights are
    renormalized to sum to exactly 1.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    t, w = special.roots_hermite(order)
    nodes = _SQRT2 * t
    weights = w / w.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def q_function(x):
    """Gaussian tail Q(x) = P(Z > x) for Z ~ N(0, 1).

    Monotone decreasing, Q(x) + Q(-x) = 1; saturates to 0/1 at extreme
    arguments without producing NaN.
    """
    return special.ndtr(-np.asarray(x, dtype=float))


def log_q_function(x):
    """ln Q(x), computed directly in log space.

    Never evaluates Q itself, so the result stays exact far beyond the
    underflow point of ``q_function`` (e.g. x = 40 gives about -804.6).
    """
    return special.log_ndtr(-np.asarray(x, dtype=float))


def exp_ratio(x):
    """exp(-x^2) / Q(x), evaluated without cancellation.

    With erfcx(t) = exp(t^2) erfc(t) and Q(x) = erfc(x/sqrt(2)) / 2:

        exp(-x^2) / Q(x) = 2 exp(-x^2/2) / erfcx(x/sqrt(2)).

    Decays like x sqrt(2 pi) exp(-x^2/2) as x -> +inf and like exp(-x^2) as
    x -> -inf; both tails underflow to 0 gracefully instead of hitting 0/0.
    """
    x = np.asarray(x, dtype=float)
    return 2.0 * np.exp(-0.5 * x * x) / special.erfcx(x / _SQRT2)


def q_log_q(x):
    """Q(x) * ln Q(x) with the 0 * log(0) = 0 convention as x -> +inf."""
    lq = special.log_ndtr(-np.asarray(x, dtype=float))
    return np.exp(lq) * lq


def expect(f, x, rule: QuadratureRule):
    """E_u[f(x, u)] for each x of an array, u ~ N(0, 1) at ``rule``'s nodes.

    f(slab, nodes) takes a column of at most ``_SLAB`` arguments, which bounds
    every temporary at ``_SLAB`` x ``rule.nodes.size`` values.  Each row is its own
    dot product, so a batch gives the same bits as one point at a time (a
    matrix-vector product does not).
    """
    x = np.asarray(x, dtype=float)
    flat, out = x.reshape(-1), np.empty(x.size)
    for i in range(0, x.size, _SLAB):
        values = f(flat[i:i + _SLAB, None], rule.nodes)
        out[i:i + _SLAB] = (values[:, None, :] @ rule.weights[:, None])[:, 0, 0]
    return out.reshape(x.shape)


def _erfcx_mean(c, rule: QuadratureRule):
    # E_w[2 / erfcx(c w)] for each c, by ``rule``
    return expect(lambda b, w: 2.0 / special.erfcx(b * w), c, rule)


def mean_exp_ratio(a):
    """E_u[exp_ratio(a u)] = E_w[2 / erfcx(c w)] / sqrt(1 + a^2) for each a,
    with c = a / sqrt(2 (1 + a^2))."""
    a = np.asarray(a, dtype=float)
    s, c = np.sqrt(1.0 + a * a), a / np.sqrt(2.0 * (1.0 + a * a))
    return _erfcx_mean(c, gauss_hermite(_TAIL_ORDER)) / s


@dataclass(frozen=True)
class TailFit:
    """Chebyshev interpolant of f on [0, 1], in x = 2 t - 1.

    ``domain`` maps an argument v to ``(t, factor)``, the fitted quantity
    being factor f(t).  ``error`` bounds |fit(t) - f(t)| / ``peak`` at every t:
    the worst on the check set, where ``peak`` is the largest |f|, plus one ulp
    per node of f's rule for the points between checks."""

    coef: np.ndarray
    domain: Callable
    error: float
    peak: float

    def __call__(self, t):
        """The fitted f at each t, by Clenshaw's recurrence, ``_SLAB``^2 at a time."""
        t = np.asarray(t, dtype=float)
        flat, out = t.reshape(-1), np.empty(t.size)
        for i in range(0, t.size, _SLAB * _SLAB):
            x = 2.0 * flat[i:i + _SLAB * _SLAB] - 1.0
            b1, b2, two_x = 0.0, 0.0, 2.0 * x
            for ck in self.coef[:0:-1]:
                b1, b2 = ck + two_x * b1 - b2, b1
            out[i:i + x.size] = self.coef[0] + x * b1 - b2
        return out.reshape(t.shape)

    def at(self, v):
        """``(value, cap)`` at each argument v: the fitted factor f(t), and
        ``peak`` factor, so that ``error`` * cap bounds value's distance from exact."""
        t, factor = self.domain(np.asarray(v, dtype=float))
        value = self(t)
        value *= factor
        factor *= self.peak
        return value, factor


@lru_cache(maxsize=None)
def chebyshev_fit(f, domain, degree, checks, rule: QuadratureRule) -> TailFit:
    """The :class:`TailFit` of ``f(t, rule)`` at ``degree``, built once per set of
    arguments: interpolated at the first-kind Chebyshev points (cosine sums give
    the coefficients), then checked on ``checks`` equispaced t of [0, 1]."""
    n = degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    coef = 2.0 / n * (np.cos(np.outer(np.arange(n), theta)) @ f(0.5 * (np.cos(theta) + 1.0), rule))
    coef[0] *= 0.5
    coef.setflags(write=False)
    t = np.linspace(0.0, 1.0, checks)
    exact = f(t, rule)
    fit = TailFit(coef=coef, domain=domain, error=0.0, peak=float(np.abs(exact).max()))
    return replace(fit, error=float(np.abs(fit(t) - exact).max()) / fit.peak
                   + rule.nodes.size * float(np.finfo(float).eps))


def _tail_sum(t, rule: QuadratureRule):  # M(c) at c = _C_MAX t: what the tail fit interpolates
    return _erfcx_mean(_C_MAX * t, rule)


def _tail_domain(a):
    # a -> (t, 1 / sqrt(1 + a^2)), t = c / _C_MAX: E_u[exp_ratio(a u)] = M(c) / sqrt(1 + a^2)
    return a / np.sqrt(1.0 + a * a), 1.0 / np.sqrt(1.0 + a * a)


def tail_fit() -> TailFit:
    """The :class:`TailFit` of M whose ``at(a)`` is E_u[exp_ratio(a u)], for
    the rule that ``gauss_hermite(_TAIL_ORDER)`` returns, built on first use."""
    return chebyshev_fit(_tail_sum, _tail_domain, _FIT_DEGREE, _FIT_CHECKS,
                         gauss_hermite(_TAIL_ORDER))


def mean_q_log_q(a):
    """E_u[Q ln Q(a u)] = E_w[h(a w / sqrt(1 + a^2))] / sqrt(1 + a^2) for each
    a, with h(x) = erfcx(x / sqrt(2)) ln Q(x) / 2; -ln(2) / 2 at a = 0."""
    a = np.asarray(a, dtype=float)
    s = np.sqrt(1.0 + a * a)
    return expect(lambda b, w: 0.5 * special.erfcx(b * w / _SQRT2) * special.log_ndtr(-(b * w)),
                  a / s, gauss_hermite(_TAIL_ORDER)) / s
