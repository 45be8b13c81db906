"""Stable scalar special functions and one-dimensional Gaussian expectations.

Every closed-form rate expression in this package is built from the standard
normal tail

    Q(x) = P(Z > x),    Z ~ N(0, 1),

its logarithm, the ratio exp(-x^2)/Q(x), and expectations E[f(u)] with
u ~ N(0, 1).  The ratio and the Q*ln(Q) products appearing inside the
fixed-point equations underflow badly when assembled naively (Q(x) hits the
float64 floor near x = 38), so everything here routes through the scaled
complementary error function or the log-CDF.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
]

LN2 = float(np.log(2.0))
_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating E[f(u)] for u ~ N(0, 1).

    The weights form a probability measure: they are positive and sum to 1,
    so applying the rule to f = 1 returns exactly 1 and to f = u^2 returns 1
    up to the usual Gauss-Hermite polynomial exactness.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_hermite(order: int = 128) -> QuadratureRule:
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
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


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
