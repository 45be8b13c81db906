"""Exact finite-size rate computation for one-bit transceivers.

For systems small enough to enumerate (M, N <= 2 chains, QPSK inputs
{(+-1 +- j)/sqrt(2)}, sign-quantized outputs {+-1 +- j}), the trained-system
rate is computed with no large-system approximation.  For a training block
of T_t symbol vectors the pipeline evaluates

    d1: joint law of one data symbol's output and all training outputs,
    d2: law of the training outputs alone,
    d3 = d1 / d2: data channel conditioned on the observed training block,
    d4: mutual information of that conditional channel (nats),

and averages:

    reff_exact(T_t) = (1 / (M ln 2)) * sum_{X_t, Y_t} p(X_t) d2 d4   [bits/tx],
    c_bound = max_{T_t in 1..T-1} ((T - T_t) / T) reff_exact(T_t),

the maximum taken by ``optimizer.optimize_training``.

Channel coefficients are iid CN(0, 1); their expectation runs over a tensor
Gauss-Hermite grid on the 2M real dimensions or over seeded Monte Carlo
draws.  Likelihood products are accumulated as log sums and exponentiated
through max-shifted log-sum-exp, so deep training blocks cannot underflow.

Training matrices that differ only by per-transmitter phase rotations,
transmitter relabeling, or training-symbol reordering give identical rate
contributions (the channel law absorbs the transformation), so the average
over X_t runs over canonical representatives with multiplicities.

``mi_direct`` recomputes the same conditional mutual information from the
fully enumerated joint law with linear-domain probabilities, generic entropy
sums, and no symmetry reduction.  It shares no intermediate tables with the
d-pipeline and serves as its cross-check oracle; under Monte Carlo
integration the two pipelines draw independent channel samples.

Both pipelines make one array pass per training matrix (or symmetry class)
over all training outputs Y_t, summing in the order of a loop over Y_t.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.special import logsumexp

from .numerics import LN2, gauss_hermite, q_function
from .optimizer import optimize_training
from .quantizer import SIGN_OUTPUTS, sign_log_likelihoods
from .replica import SystemParams

__all__ = [
    "QPSK",
    "SIGN_OUT",
    "ENUMERATION_BUDGET",
    "EnumerationBudgetError",
    "check_budget",
    "ChannelIntegration",
    "SmallSystem",
    "d1",
    "d2",
    "d3",
    "d4",
    "reff_exact",
    "c_bound_exact",
    "mi_direct",
]

#: QPSK input alphabet, unit energy, canonical enumeration order.
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)

#: Sign-quantizer output alphabet in the same enumeration order.
SIGN_OUT = np.array(SIGN_OUTPUTS)

#: Cap on 4^(M T_t) * 4^(N T_t), the number of training-block terms.
ENUMERATION_BUDGET = 10 ** 8

_SIGMA_SQ = 1.0  # noise variance normalization; rho carries all SNR scaling


class EnumerationBudgetError(ValueError):
    """The training-block enumeration exceeds the term budget."""

    def __init__(self, terms: int, message: str):
        super().__init__(message)
        self.terms = terms


@dataclass(frozen=True)
class ChannelIntegration:
    """How the expectation over the channel coefficients is evaluated.

    ``kind`` is ``"quadrature"`` (tensor Gauss-Hermite, ``order`` nodes per
    real dimension) or ``"monte-carlo"`` (``samples`` seeded standard-normal
    draws).  Monte Carlo streams are derived from ``seed`` per training
    length and per pipeline, so the d-pipeline and ``mi_direct`` never share
    draws and repeated runs are bit-reproducible.
    """

    kind: str
    order: int = 24
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("quadrature", "monte-carlo"):
            raise ValueError(f"unknown integration kind: {self.kind!r}")
        if self.kind == "quadrature" and self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")
        if self.kind == "monte-carlo" and self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")

    @classmethod
    def quadrature(cls, order: int = 24) -> "ChannelIntegration":
        return cls(kind="quadrature", order=order)

    @classmethod
    def monte_carlo(cls, samples: int = 1_000_000, seed: int = 0) -> "ChannelIntegration":
        return cls(kind="monte-carlo", samples=samples, seed=seed)


@dataclass(frozen=True)
class SmallSystem:
    """An enumerable system: m transmitters, n receivers, block length t_total."""

    m: int
    n: int
    t_total: int
    rho: float
    integration: ChannelIntegration = ChannelIntegration.quadrature()

    def __post_init__(self):
        if not 1 <= self.m <= 2:
            raise ValueError(f"m must be 1 or 2, got {self.m}")
        if not 1 <= self.n <= 2:
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not 1 <= self.t_total <= 5:
            raise ValueError(f"t_total must lie in 1..5, got {self.t_total}")
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if self.integration.kind == "quadrature" and self.integration.order ** (2 * self.m) > 5_000_000:
            raise ValueError(
                f"tensor quadrature with order {self.integration.order} over {2 * self.m} "
                "real dimensions is too large; lower the order or use Monte Carlo"
            )


def check_budget(sys_: SmallSystem, t_t: int) -> None:
    """Raise :class:`EnumerationBudgetError` if the training enumeration for
    t_t training symbols exceeds the term budget."""
    if not 0 <= t_t <= sys_.t_total - 1:
        raise ValueError(f"t_t must lie in 0..{sys_.t_total - 1}, got {t_t}")
    terms = 4 ** (sys_.m * t_t) * 4 ** (sys_.n * t_t)
    if terms > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            terms,
            f"training enumeration needs {terms} terms, budget is {ENUMERATION_BUDGET}",
        )


def _channel_nodes(sys_: SmallSystem, t_t: int, stream: int):
    """Channel coefficient nodes h (count, m) and log-weights (count,).

    ``stream`` separates the Monte Carlo draws of the two rate pipelines.
    """
    integ = sys_.integration
    if integ.kind == "quadrature":
        rule = gauss_hermite(integ.order)
        dims = 2 * sys_.m
        grids = np.meshgrid(*([rule.nodes] * dims), indexing="ij")
        g = np.stack([a.reshape(-1) for a in grids], axis=1)
        w = reduce(np.multiply.outer, [rule.weights] * dims).reshape(-1)
        logw = np.log(w)
    else:
        ss = np.random.SeedSequence(entropy=integ.seed, spawn_key=(t_t, stream))
        rng = np.random.default_rng(ss)
        g = rng.standard_normal((integ.samples, 2 * sys_.m))
        logw = np.full(integ.samples, -math.log(integ.samples))
    h = (g[:, : sys_.m] + 1j * g[:, sys_.m:]) / math.sqrt(2.0)
    return h, logw


@lru_cache(maxsize=8)
def _input_vectors(m: int) -> np.ndarray:
    """All 4^m input columns over the QPSK alphabet, first transmitter slowest."""
    idx = np.array(list(itertools.product(range(4), repeat=m)), dtype=int)
    return QPSK[idx]


@lru_cache(maxsize=16)
def _strings(t_t: int) -> np.ndarray:
    """All 4^t_t per-receiver output strings, first training symbol slowest."""
    return np.array(list(itertools.product(range(4), repeat=t_t)), dtype=int).reshape(4 ** t_t, t_t)


class _Tables:
    """Per-(system, t_t) node tables shared by the d-pipeline operations."""

    def __init__(self, sys_: SmallSystem, t_t: int, stream: int = 0):
        self.sys = sys_
        self.t_t = t_t
        self.h, self.logw = _channel_nodes(sys_, t_t, stream)
        x_cols = _input_vectors(sys_.m)
        z = math.sqrt(sys_.rho / sys_.m) * (self.h @ x_cols.T)
        # log_g[c, y, k] = ln P(sign(z[k, c] + v) = SIGN_OUT[y])
        self.log_g = np.ascontiguousarray(sign_log_likelihoods(z, _SIGMA_SQ).transpose(2, 0, 1))
        self.g_lin = np.exp(self.log_g)                     # linear copy for the W contraction
        self.n_inputs = 4 ** sys_.m
        self.strings = _strings(t_t)                        # (S, t_t)

    def receiver_tables(self, cols):
        """Single-receiver integrals for a fixed training matrix.

        Returns ``(v_log, w_log)`` where, with s a training-output string and
        g_p the likelihood factor of training symbol p,

            v_log[s]       = ln E_h[ prod_p g_p ],
            w_log[s, x, y] = ln E_h[ g_data(x, y) prod_p g_p ].

        The data factor enters linearly, so after max-shifting the training
        log-product the contraction over nodes is one matrix product.
        """
        n_nodes = self.logw.shape[0]
        s_count = self.strings.shape[0]
        acc = np.tile(self.logw, (s_count, 1))
        for p, c in enumerate(cols):
            acc += self.log_g[c, self.strings[:, p], :]
        shift = acc.max(axis=1, keepdims=True)
        np.maximum(shift, -1e300, out=shift)  # all-(-inf) rows stay harmless
        e = np.exp(acc - shift)
        with np.errstate(divide="ignore"):
            v_log = np.log(e.sum(axis=1)) + shift[:, 0]
            w = e @ self.g_lin.reshape(self.n_inputs * 4, n_nodes).T
            w_log = np.log(w).reshape(s_count, self.n_inputs, 4) + shift[:, :, None]
        return v_log, w_log


def _conditional_mi_nats(ld3: np.ndarray) -> np.ndarray:
    """Mutual information (nats) of each channel of a batch given as
    ld3[b, x, y] = ln p(y | x), with uniform inputs."""
    n_inputs = ld3.shape[1]
    lpy = logsumexp(ld3, axis=1, keepdims=True) - math.log(n_inputs)
    p = np.exp(ld3)
    with np.errstate(invalid="ignore"):
        terms = np.where(p > 0.0, p * (ld3 - lpy), 0.0)
    return terms.reshape(ld3.shape[0], -1).sum(axis=1) / n_inputs


# --- training-matrix symmetry classes -------------------------------------

@lru_cache(maxsize=8)
def _phase_perm(m: int) -> np.ndarray:
    """perm[k, d]: index of QPSK[d] * j^k in the QPSK alphabet."""
    perm = np.empty((4, 4), dtype=int)
    for k in range(4):
        rotated = QPSK * (1j ** k)
        for d in range(4):
            perm[k, d] = int(np.argmin(np.abs(QPSK - rotated[d])))
    return perm


@lru_cache(maxsize=32)
def _training_classes(m: int, t_t: int, use_symmetry: bool):
    """Canonical training matrices with multiplicities.

    A training matrix is a tuple of t_t column indices in 0..4^m-1.  Rate
    contributions are invariant under per-transmitter phase rotations by
    powers of j (absorbed by the channel phase), transmitter relabeling, and
    training-symbol reordering, so matrices are grouped by the minimum of
    their orbit under that group.
    """
    n_cols = 4 ** m
    all_mats = list(itertools.product(range(n_cols), repeat=t_t))
    if not use_symmetry or t_t == 0:
        return tuple((cols, 1) for cols in all_mats)

    digit_maps = []  # all combined phase/relabel maps, acting on column indices
    phase = _phase_perm(m)
    digits = np.array(list(itertools.product(range(4), repeat=m)), dtype=int)  # (n_cols, m)
    weights = 4 ** np.arange(m - 1, -1, -1)
    for perm in itertools.permutations(range(m)):
        permuted = digits[:, perm]
        for ks in itertools.product(range(4), repeat=m):
            mapped = np.empty_like(permuted)
            for i, k in enumerate(ks):
                mapped[:, i] = phase[k, permuted[:, i]]
            digit_maps.append(mapped @ weights)

    counts = {}
    for cols in all_mats:
        key = min(tuple(sorted(mp[list(cols)])) for mp in digit_maps)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


# --- public d-pipeline operations ------------------------------------------

def _symbol_indices(values: np.ndarray, alphabet: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    flat = values.reshape(-1)
    idx = np.empty(flat.shape, dtype=int)
    for i, v in enumerate(flat):
        dist = np.abs(alphabet - v)
        j = int(np.argmin(dist))
        if dist[j] > 1e-9:
            raise ValueError(f"{name} entry {v} is not in the alphabet {list(alphabet)}")
        idx[i] = j
    return idx.reshape(values.shape)


def _encode_columns(x_t: np.ndarray, m: int) -> tuple:
    """Map an m x t_t training matrix to per-column alphabet indices."""
    x_t = np.asarray(x_t, dtype=complex)
    if x_t.ndim != 2 or x_t.shape[0] != m:
        raise ValueError(f"x_t must have shape ({m}, t_t), got {x_t.shape}")
    digits = _symbol_indices(x_t, QPSK, "x_t")  # (m, t_t)
    weights = 4 ** np.arange(m - 1, -1, -1)
    return tuple(int(weights @ digits[:, p]) for p in range(x_t.shape[1]))


def _encode_strings(y_t: np.ndarray, n: int, t_t: int) -> tuple:
    """Map an n x t_t received-training matrix to per-receiver string indices."""
    y_t = np.asarray(y_t, dtype=complex)
    if y_t.ndim != 2 or y_t.shape != (n, t_t):
        raise ValueError(f"y_t must have shape ({n}, {t_t}), got {y_t.shape}")
    digits = _symbol_indices(y_t, SIGN_OUT, "y_t")
    weights = 4 ** np.arange(t_t - 1, -1, -1) if t_t else np.zeros(0, dtype=int)
    return tuple(int(weights @ digits[k]) for k in range(n))


def _block(x_t, y_t, t_t: int, sys_: SmallSystem):
    """Receiver tables of the training block (x_t, y_t) after the budget
    check: ``(tab, s_idx, v_log, w_log)``, with ``s_idx`` the per-receiver
    string indices of y_t."""
    check_budget(sys_, t_t)
    tab = _Tables(sys_, t_t, stream=0)
    cols = _encode_columns(np.asarray(x_t, dtype=complex).reshape(sys_.m, t_t), sys_.m)
    s_idx = _encode_strings(np.asarray(y_t, dtype=complex).reshape(sys_.n, t_t), sys_.n, t_t)
    return (tab, s_idx) + tab.receiver_tables(cols)


def _log_d1_d2(x_d, y_d, x_t, y_t, t_t, sys_: SmallSystem):
    _, s_idx, v_log, w_log = _block(x_t, y_t, t_t, sys_)
    x_idx = _symbol_indices(np.asarray(x_d, dtype=complex).reshape(sys_.m), QPSK, "x_d")
    weights = 4 ** np.arange(sys_.m - 1, -1, -1)
    x_col = int(weights @ x_idx)
    y_idx = _symbol_indices(np.asarray(y_d, dtype=complex).reshape(sys_.n), SIGN_OUT, "y_d")
    log_d2_ = float(sum(v_log[s] for s in s_idx))
    log_d1_ = float(sum(w_log[s, x_col, y] for s, y in zip(s_idx, y_idx)))
    return log_d1_, log_d2_


def d1(x_d, y_d, x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Joint probability of data output y_d and training outputs y_t, given
    data input x_d and training matrix x_t, averaged over the channel."""
    return math.exp(_log_d1_d2(x_d, y_d, x_t, y_t, t_t, sys_)[0])


def d2(x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Probability of the training outputs y_t given the training matrix x_t."""
    _, s_idx, v_log, _ = _block(x_t, y_t, t_t, sys_)
    return math.exp(float(sum(v_log[s] for s in s_idx)))


def d3(x_d, y_d, x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Conditional law p(y_d | x_d, x_t, y_t) = d1 / d2, evaluated in log space."""
    log_d1_, log_d2_ = _log_d1_d2(x_d, y_d, x_t, y_t, t_t, sys_)
    return math.exp(log_d1_ - log_d2_)


def d4(x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Mutual information (nats) of the conditional data channel after the
    training block (x_t, y_t), with uniform QPSK data inputs."""
    _, s_idx, v_log, w_log = _block(x_t, y_t, t_t, sys_)
    _, ld3 = _stack_receivers(v_log, w_log, tuple([s] for s in s_idx))
    return float(_conditional_mi_nats(ld3)[0])


def _stack_receivers(v_log, w_log, s_idx):
    """ld2[b] = ln p(Y_t) and ld3[b, x, y-vector] = ln p(y_d | x, Y_t) for a
    batch of training outputs, given as one string-index array per receiver."""
    if len(s_idx) == 1:
        ld2 = v_log[s_idx[0]]
        return ld2, w_log[s_idx[0]] - ld2[:, None, None]
    s1, s2 = s_idx
    ld2 = v_log[s1] + v_log[s2]
    ld3 = (w_log[s1][:, :, :, None] + w_log[s2][:, :, None, :]) - ld2[:, None, None, None]
    return ld2, ld3.reshape(len(ld2), -1, 16)


def reff_exact(t_t: int, sys_: SmallSystem, *, use_symmetry: bool = True) -> float:
    """Exact per-transmitter rate (bits per channel use) after t_t training
    symbols, averaged over training matrices and training outputs."""
    check_budget(sys_, t_t)
    tab = _Tables(sys_, t_t, stream=0)
    s_count = tab.strings.shape[0]
    # every Y_t, one string index per receiver, first receiver slowest
    outputs = np.unravel_index(np.arange(s_count ** sys_.n), (s_count,) * sys_.n)
    total = 0.0
    for cols, count in _training_classes(sys_.m, t_t, use_symmetry):
        v_log, w_log = tab.receiver_tables(cols)
        ld2, ld3 = _stack_receivers(v_log, w_log, outputs)
        # libm's exp, which differs from np.exp in the last bit on some inputs
        p_yt = np.fromiter(map(math.exp, ld2.tolist()), float, ld2.size)
        # a running sum adds the outputs one by one, in enumeration order
        contrib = float(np.cumsum(p_yt * _conditional_mi_nats(ld3))[-1])
        total += count * contrib
    total /= 4 ** (sys_.m * t_t)
    return max(0.0, total / (sys_.m * LN2))


def c_bound_exact(sys_: SmallSystem):
    """Optimize the rate-versus-training tradeoff over integer training
    lengths 1..T-1 with :func:`optimize_training`, on the grid
    beta_t = T_t / m; ties break toward less training.

    Returns ``(BoundResult, RateCurve)``.  Every training length is checked
    against the enumeration budget before any rate is computed.
    """
    if sys_.t_total < 2:
        raise ValueError("c_bound_exact needs t_total >= 2 (--t >= 2) to split training and data")
    for t_t in range(1, sys_.t_total):
        check_budget(sys_, t_t)
    m = sys_.m
    params = SystemParams(alpha=sys_.n / m, beta=sys_.t_total / m, rho=sys_.rho, tx_type="onebit")
    return optimize_training(lambda bt: reff_exact(round(bt * m), sys_), params.beta, 1 / m,
                             params=params, method="exact")


# --- independent direct mutual-information pipeline ------------------------

def mi_direct(t_t: int, sys_: SmallSystem) -> float:
    """Conditional mutual information between one data vector and its output
    given the training block, per transmitter, in bits.

    Recomputed from first principles: the joint law of (data input, data
    output, training outputs) is enumerated per training matrix in linear
    probability space and fed through generic entropy sums.  No symmetry
    reduction, no shared tables with the d-pipeline, and an independent
    Monte Carlo stream, so agreement between the two pipelines is a real
    cross-check.
    """
    check_budget(sys_, t_t)
    h, logw = _channel_nodes(sys_, t_t, stream=1)
    w = np.exp(logw)
    x_cols = _input_vectors(sys_.m)
    n_inputs = x_cols.shape[0]
    z = math.sqrt(sys_.rho / sys_.m) * (h @ x_cols.T)   # (nodes, C)

    a = math.sqrt(2.0 / _SIGMA_SQ)
    qr_p = q_function(-a * z.real)
    qi_p = q_function(-a * z.imag)
    qr_m = 1.0 - qr_p
    qi_m = 1.0 - qi_p
    # g[c, y, k]: single-receiver output likelihood per node, linear domain
    g = np.ascontiguousarray(
        np.stack([qr_p * qi_p, qr_p * qi_m, qr_m * qi_p, qr_m * qi_m], axis=0).transpose(2, 0, 1)
    )

    strings = _strings(t_t)
    s_count = strings.shape[0]
    n_out = s_count ** sys_.n
    nats = 0.0
    for cols in itertools.product(range(n_inputs), repeat=t_t):
        gg = np.tile(w, (s_count, 1))
        for p, c in enumerate(cols):
            gg *= g[c, strings[:, p], :]
        # pr[s, x, y] = E_h[ g_data(x, y) prod_p g_p(s_p) ] for one receiver
        pr = np.einsum("sk,xyk->xsy", gg, g, optimize=True).transpose(1, 0, 2)
        if sys_.n == 2:  # pr[s1, s2, x, 4 y1 + y2] = pr[s1, x, y1] pr[s2, x, y2]
            pr = np.repeat(pr, 4, axis=2)[:, None] * np.tile(pr, 4)[None, :]
        # joint[b, x, y_d] = p(x, y_d, Y_t | X_t), one row per Y_t
        joint = np.ascontiguousarray(pr).reshape(n_out, n_inputs, -1)
        joint /= n_inputs
        rows = _joint_mi_nats(joint)
        # a running sum adds the outputs one by one, in enumeration order
        nats = float(np.cumsum(np.concatenate(([nats], rows)))[-1])
    if not math.isfinite(nats):
        raise FloatingPointError(f"mi_direct: information sum is not finite: {nats}")
    nats /= 4 ** (sys_.m * t_t)
    return max(0.0, nats / (sys_.m * LN2))


def _joint_mi_nats(joint: np.ndarray) -> np.ndarray:
    """sum_{x, y} joint ln(joint p_yt / (px py)) over the nonzero entries of
    each row of a contiguous batch joint[b, x, y] = p(x, y_d, Y_t = b | X_t),
    with p_yt, px and py its row, x and y marginals."""
    flat = joint.reshape(len(joint), -1)
    p_yt = flat.sum(axis=1)
    px = joint.sum(axis=2)
    py = joint.sum(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_ratio = flat * p_yt[:, None]
        log_ratio /= (px[:, :, None] * py[:, None, :]).reshape(flat.shape)
        np.log(log_ratio, out=log_ratio)
        # (1, K) @ (K, 1) per row is the 1-D dot product, bit for bit
        out = np.matmul(flat[:, None, :], log_ratio[:, :, None])[:, 0, 0]
        # a row is not finite where joint has a zero or a product under- or
        # overflowed: sum its nonzero entries only, with the log taken as a
        # sum of logs where needed (finite, since px and py are >= joint)
        for b in np.flatnonzero(~np.isfinite(out)):
            row, keep = log_ratio[b], flat[b] > 0.0
            by_parts = np.log(joint[b]) + np.log(p_yt[b]) - np.log(px[b])[:, None] - np.log(py[b])
            np.copyto(row, by_parts.reshape(-1), where=~np.isfinite(row))
            out[b] = flat[b, keep] @ row[keep]
    return out
