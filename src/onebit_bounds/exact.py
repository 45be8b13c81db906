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

the maximum taken by ``optimizer.optimize_training`` over the rates at every
T_t.  The public d1-d4 read one training block's tables: with
ld1 = ln p(y_d, Y_t | x_d, X_t) and ld2 = ln p(Y_t | X_t), d1 = exp(ld1),
d2 = exp(ld2), d3 = exp(ld1 - ld2) and d4 is the mutual information of the
channel ld1 - ld2.

Channel coefficients are iid CN(0, 1); their expectation runs over a tensor
Gauss-Hermite grid on the 2M real dimensions or over seeded Monte Carlo
draws.  Likelihood products are accumulated as log sums and exponentiated
through max-shifted log-sum-exp, so deep training blocks cannot underflow.

Training matrices that differ only by per-transmitter phase rotations,
transmitter relabeling, or training-symbol reordering give identical rate
contributions (the channel law absorbs the transformation), so the average
over X_t runs over canonical representatives with multiplicities.  A common
phase j permutes the input columns and turns the sign outputs, so the node
tables evaluate the likelihoods of one column per orbit, a quarter of them.

``mi_direct`` recomputes the same conditional mutual information in the
linear domain, with no tables shared with the d-pipeline and, under Monte
Carlo, independent channel samples, so it cross-checks the d-pipeline.  It
also differs in method: the d-pipeline sums the full joint law of
(x, y_d, Y_t) per training outcome in a loop-order pass per symmetry class;
``mi_direct`` factors the information over the receivers, independent given
the training matrix, and never forms that law.  Its only reduction is its
own: reordering the training symbols permutes the training strings it sums
over, so it walks the nondecreasing column tuples, each weighted by its
number of orderings.  It forms each training prefix's likelihood product
once, shared by every tuple that extends it, contracts it over the channel
nodes with one matrix product per tuple, and adds the weighted terms with
``math.fsum``.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.special import logsumexp

from .numerics import LN2, gauss_hermite, q_function
from .optimizer import optimize_training
from .quantizer import SIGN_OUTPUTS, sign_log_likelihoods

__all__ = [
    "QPSK",
    "SIGN_OUT",
    "ENUMERATION_BUDGET",
    "TABLE_CAP",
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

#: Cap on 4^((M + N) T_t), the number of training-block terms, at T_t = T - 1.
ENUMERATION_BUDGET = 10 ** 8

#: Cap on the node-table entries: channel nodes (order^(2M), or the Monte Carlo
#: samples) times max(4^(T-1), 4^(M+1)), the training strings and likelihoods
#: that the d-pipeline and ``mi_direct`` keep per node, T the block length.
TABLE_CAP = 25_000_000


@dataclass(frozen=True)
class SmallSystem:
    """An enumerable system: m transmitters, n receivers, block length t_total.

    The expectation over the channel coefficients runs over a tensor
    Gauss-Hermite grid with ``order`` nodes per real dimension when
    ``samples`` is None, else over ``samples`` seeded standard-normal draws.
    Monte Carlo streams are derived from ``seed`` per training length and per
    pipeline, so the d-pipeline and ``mi_direct`` never share draws and
    repeated runs are bit-reproducible.

    Construction is the engine's one admission check: past the ranges, the
    node tables and the training-block terms are capped at the longest
    training length t_total - 1.  The term budget refuses only m = n = 2,
    t_total = 5; t_total = 4 gives the same rates up to T_t = 3.
    """

    m: int
    n: int
    t_total: int
    rho: float
    order: int = 24
    samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.samples is None and self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")
        if self.samples is not None and self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.samples is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 1 <= self.m <= 2:
            raise ValueError(f"m must be 1 or 2, got {self.m}")
        if not 1 <= self.n <= 2:
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not 1 <= self.t_total <= 5:
            raise ValueError(f"t_total must lie in 1..5, got {self.t_total}")
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")
        nodes = self.order ** (2 * self.m) if self.samples is None else self.samples
        per_node = max(4 ** (self.t_total - 1), 4 ** (self.m + 1))
        if nodes * per_node > TABLE_CAP:
            raise ValueError(f"{nodes} channel nodes of {per_node} table entries each exceed the "
                             f"cap of {TABLE_CAP} entries; lower the quadrature order or use "
                             "fewer Monte Carlo samples")
        terms = 4 ** ((self.m + self.n) * (self.t_total - 1))
        if terms > ENUMERATION_BUDGET:
            raise ValueError(f"training enumeration needs {terms} terms, "
                             f"budget is {ENUMERATION_BUDGET}")


def _channel_nodes(sys_: SmallSystem, t_t: int, stream: int):
    """Channel coefficient nodes h (count, m) and log-weights (count,).

    ``stream`` separates the Monte Carlo draws of the two rate pipelines.
    """
    if not 0 <= t_t <= sys_.t_total - 1:
        raise ValueError(f"t_t must lie in 0..{sys_.t_total - 1}, got {t_t}")
    if sys_.samples is None:
        rule = gauss_hermite(sys_.order)
        dims = 2 * sys_.m
        grids = np.meshgrid(*([rule.nodes] * dims), indexing="ij")
        g = np.stack([a.reshape(-1) for a in grids], axis=1)
        w = reduce(np.multiply.outer, [rule.weights] * dims).reshape(-1)
        with np.errstate(divide="ignore"):  # a weight that underflows to 0 adds nothing
            logw = np.log(w)
    else:
        ss = np.random.SeedSequence(entropy=sys_.seed, spawn_key=(t_t, stream))
        rng = np.random.default_rng(ss)
        g = rng.standard_normal((sys_.samples, 2 * sys_.m))
        logw = np.full(sys_.samples, -math.log(sys_.samples))
    h = (g[:, : sys_.m] + 1j * g[:, sys_.m:]) / math.sqrt(2.0)
    return h, logw


@lru_cache(maxsize=16)
def _strings(k: int) -> np.ndarray:
    """All 4^k strings of k base-4 digits, first digit slowest: one receiver's
    training outputs (k = t_t) or an input column's QPSK indices (k = m)."""
    return np.array(list(itertools.product(range(4), repeat=k)), dtype=int).reshape(4 ** k, k)


def _input_vectors(m: int) -> np.ndarray:
    """All 4^m input columns over the QPSK alphabet, first transmitter slowest."""
    return QPSK[_strings(m)]


class _Tables:
    """Per-(system, t_t) node tables shared by the d-pipeline operations: log
    likelihoods of the phase-orbit minima (:func:`_phase_orbits`) and linear
    likelihoods of every input column, the W contraction's operand."""

    def __init__(self, sys_: SmallSystem, t_t: int):
        h, self.logw = _channel_nodes(sys_, t_t, stream=0)
        self.n_inputs = 4 ** sys_.m
        reps, self.place = _phase_orbits(sys_.m)
        z = math.sqrt(sys_.rho / sys_.m) * (h @ _input_vectors(sys_.m)[reps].T)
        # log_rep[i, y, k] = ln P(sign(z[k, i] + v) = SIGN_OUT[y]) for minimum i
        self.log_rep = np.empty((len(reps), 4, len(self.logw)))
        self.g_lin = np.empty((self.n_inputs, 4, len(self.logw)))
        for i, r in enumerate(reps):
            self.log_rep[i] = sign_log_likelihoods(z[:, i])
            np.exp(self.log_rep[i], out=self.g_lin[r])
        del z
        for c, (i, rows) in enumerate(self.place):
            if c != reps[i]:
                self.g_lin[c] = self.g_lin[reps[i], rows]
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
        t_t = self.strings.shape[1]
        acc = np.tile(self.logw, (s_count, 1))
        grid = acc.reshape((4,) * t_t + (n_nodes,))      # one axis per training symbol
        for p, c in enumerate(cols):
            i, rows = self.place[c]
            grid += self.log_rep[i, rows].reshape((4,) + (1,) * (t_t - 1 - p) + (n_nodes,))
        shift = acc.max(axis=1, keepdims=True)
        np.maximum(shift, -1e300, out=shift)  # all-(-inf) rows stay harmless
        acc -= shift
        np.exp(acc, out=acc)
        with np.errstate(divide="ignore"):
            v_log = np.log(acc.sum(axis=1)) + shift[:, 0]
            w = acc @ self.g_lin.reshape(self.n_inputs * 4, n_nodes).T
            w_log = np.log(w).reshape(s_count, self.n_inputs, 4) + shift[:, :, None]
        return v_log, w_log


_block_tables = lru_cache(maxsize=1)(_Tables)  # d1-d4 keep the last (system, t_t)'s tables


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

@lru_cache(maxsize=2)
def _column_maps(m: int) -> dict:
    """The symmetry group's action on the input column indices, keyed by
    element (perm, ks), a transmitter permutation and a power of j per
    transmitter: the map read back with :func:`_encode` from the input columns
    with their transmitters permuted and each multiplied by its power of j."""
    x = _input_vectors(m)
    return {(perm, ks): _encode(x[:, perm] * 1j ** np.array(ks), QPSK, x.shape, "rotated column")
            for perm in itertools.permutations(range(m))
            for ks in itertools.product(range(4), repeat=m)}


@lru_cache(maxsize=2)
def _phase_orbits(m: int):
    """``(reps, place)``: the minima of the input columns' orbits under the
    common phase j^k, the group element (identity, (k,) * m), and for each
    column c = j^k reps[i] the pair (i, rows), rows the indices of
    (-j)^k SIGN_OUT, since sign(j^k w) = y exactly when sign(w) = (-j)^k y."""
    orbit = np.array([_column_maps(m)[(tuple(range(m)), (k,) * m)] for k in range(4)])
    reps, pos = np.unique(orbit.min(axis=0), return_inverse=True)
    rows = _encode(np.multiply.outer((-1j) ** np.arange(4), SIGN_OUT), SIGN_OUT, (4, 4, 1), "y")
    return reps, tuple((i, rows[-k % 4]) for i, k in zip(pos, orbit.argmin(axis=0)))


@lru_cache(maxsize=32)
def _training_classes(m: int, t_t: int):
    """Canonical training matrices with multiplicities.

    A training matrix is a tuple of t_t column indices in 0..4^m-1.  Rate
    contributions are invariant under the group of :func:`_column_maps` and
    training-symbol reordering, so matrices are grouped by the minimum of
    their orbit under that group.
    """
    maps = _column_maps(m).values()
    counts = Counter(min(tuple(sorted(mp[list(cols)])) for mp in maps)
                     for cols in itertools.product(range(4 ** m), repeat=t_t))
    return tuple(sorted(counts.items()))


# --- public d-pipeline operations ------------------------------------------

def _encode(values, alphabet: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """Alphabet indices of ``values`` laid out as ``shape``, read as base-4
    numbers along the last axis, first entry slowest.  Every entry must lie
    within 1e-9 of the alphabet; NaN never does."""
    values = np.asarray(values, dtype=complex).reshape(shape)
    dist = np.abs(values[..., None] - alphabet)
    bad = ~(dist.min(axis=-1) <= 1e-9)
    if bad.any():
        raise ValueError(f"{name} entry {values[bad][0]} is not in the alphabet {list(alphabet)}")
    return dist.argmin(axis=-1) @ 4 ** np.arange(shape[-1] - 1, -1, -1)


def _block(x_t, y_t, t_t: int, sys_: SmallSystem):
    """``(ld2, ld1)`` of the training block (x_t, y_t), t_t checked first:
    ld2 = ln p(y_t | x_t) and ld1[x, y] = ln p(y_d, y_t | x_d, x_t), with x
    the data column's index and y the data outputs' (first receiver slowest)."""
    tab = _block_tables(sys_, t_t)
    cols = _encode(np.transpose(np.reshape(x_t, (sys_.m, t_t))), QPSK, (t_t, sys_.m), "x_t")
    s_idx = _encode(y_t, SIGN_OUT, (sys_.n, t_t), "y_t")
    v_log, w_log = tab.receiver_tables(cols)
    ld2, ld1 = _stack_receivers(v_log, w_log, s_idx[:, None])
    return float(ld2[0]), ld1[0]


def _data_entry(ld1, x_d, y_d, sys_: SmallSystem) -> float:
    """ld1 at the data column x_d and the data outputs y_d."""
    x, y = _encode(x_d, QPSK, (sys_.m,), "x_d"), _encode(y_d, SIGN_OUT, (sys_.n,), "y_d")
    return float(ld1[x, y])


def d1(x_d, y_d, x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Joint probability of data output y_d and training outputs y_t, given
    data input x_d and training matrix x_t, averaged over the channel."""
    return math.exp(_data_entry(_block(x_t, y_t, t_t, sys_)[1], x_d, y_d, sys_))


def d2(x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Probability of the training outputs y_t given the training matrix x_t."""
    return math.exp(_block(x_t, y_t, t_t, sys_)[0])


def d3(x_d, y_d, x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Conditional law p(y_d | x_d, x_t, y_t) = d1 / d2, evaluated in log space."""
    ld2, ld1 = _block(x_t, y_t, t_t, sys_)
    return math.exp(_data_entry(ld1, x_d, y_d, sys_) - ld2)


def d4(x_t, y_t, t_t: int, sys_: SmallSystem) -> float:
    """Mutual information (nats) of the conditional data channel after the
    training block (x_t, y_t), with uniform QPSK data inputs."""
    ld2, ld1 = _block(x_t, y_t, t_t, sys_)
    return float(_conditional_mi_nats(ld1[None] - ld2)[0])


def _stack_receivers(v_log, w_log, s_idx):
    """ld2[b] = ln p(Y_t) and ld1[b, x, y-vector] = ln p(y_d, Y_t | x) for a
    batch of training outputs, given as one string-index array per receiver."""
    if len(s_idx) == 1:
        return v_log[s_idx[0]], w_log[s_idx[0]]
    s1, s2 = s_idx
    ld1 = w_log[s1][:, :, :, None] + w_log[s2][:, :, None, :]
    return v_log[s1] + v_log[s2], ld1.reshape(len(s1), -1, 16)


def reff_exact(t_t: int, sys_: SmallSystem) -> float:
    """Exact per-transmitter rate (bits per channel use) after t_t training
    symbols, averaged over training matrices and training outputs."""
    tab = _Tables(sys_, t_t)
    s_count = tab.strings.shape[0]
    # every Y_t, one string index per receiver, first receiver slowest
    outputs = np.unravel_index(np.arange(s_count ** sys_.n), (s_count,) * sys_.n)
    total = 0.0
    for cols, count in _training_classes(sys_.m, t_t):
        v_log, w_log = tab.receiver_tables(cols)
        ld2, ld1 = _stack_receivers(v_log, w_log, outputs)
        # libm's exp, which differs from np.exp in the last bit on some inputs
        p_yt = np.fromiter(map(math.exp, ld2.tolist()), float, ld2.size)
        # a running sum adds the outputs one by one, in enumeration order
        contrib = float(np.cumsum(p_yt * _conditional_mi_nats(ld1 - ld2[:, None, None]))[-1])
        total += count * contrib
    total /= 4 ** (sys_.m * t_t)
    return max(0.0, total / (sys_.m * LN2))


def c_bound_exact(sys_: SmallSystem):
    """Optimize the rate-versus-training tradeoff over integer training
    lengths 1..T-1 with :func:`optimize_training`, on the grid
    beta_t = T_t / m; ties break toward less training.

    Returns ``(BoundResult, RateCurve)``.
    """
    if sys_.t_total < 2:
        raise ValueError("c_bound_exact needs t_total >= 2 (--t >= 2) to split training and data")
    return optimize_training([reff_exact(t_t, sys_) for t_t in range(1, sys_.t_total)],
                             sys_.t_total / sys_.m, 1 / sys_.m, method="exact")


# --- independent direct mutual-information pipeline ------------------------

def mi_direct(t_t: int, sys_: SmallSystem) -> float:
    """Conditional mutual information between one data vector and its output
    given the training block, per transmitter, in bits.

    Recomputed from first principles in the linear domain on its own Monte
    Carlo stream, one training matrix at a time and factored over the
    receivers (:func:`_information`); the d-pipeline sums the full joint law.
    Reordering the training symbols permutes the training strings s, which
    :func:`_information` sums over, so only nondecreasing column tuples are
    walked, each weighted by its t_t! / prod(mult!) orderings.
    """
    w, g = _direct_likelihoods(sys_, t_t)
    g_flat = g.reshape(-1, g.shape[2]).T
    counts = (math.factorial(t_t) // math.prod(map(math.factorial, Counter(cols).values()))
              for cols in itertools.combinations_with_replacement(range(len(g)), t_t))
    # pr[s, x, y] = E_h[ g_data(x, y) prod_p g_p(s_p) ] for one receiver
    nats = math.fsum(count * _information((gg @ g_flat).reshape(4 ** t_t, len(g), 4), sys_.n)
                     for count, gg in zip(counts, _training_products(w[None, :], g, t_t))) / len(g)
    if not math.isfinite(nats):
        raise FloatingPointError(f"mi_direct: information sum is not finite: {nats}")
    nats /= 4 ** (sys_.m * t_t)
    return max(0.0, nats / (sys_.m * LN2))


def _information(pr: np.ndarray, n: int) -> float:
    """C I(x; y_d | Y_t) in nats for one training matrix X_t, n receivers and
    C inputs x, from one receiver's law pr[s, x, y] = p(s, y | x, X_t) of its
    training string s and data output y.

    The receivers are independent given X_t, so this is n times one
    receiver's I(x; y | s), weighted by the other's total law, less
    I(y_1; y_2 | Y_t) for n = 2.  Both are divergences from the law
    pr0 = p(s | x) p(y | s) in which y is independent of x given s:

        n sum_x (sum_s v[s, x])^(n - 1) sum_{s, y} pr ln(pr / pr0)
            - sum P ln(P / P0),   v = sum_y pr,

    with P[(s1, y1), (s2, y2)] = sum_x pr[s1, x, y1] pr[s2, x, y2], one
    matrix product, and P0 the same over pr0.  Both terms are small; no
    entropies cancel.
    """
    v = pr.sum(axis=2)
    a, b = v.sum(axis=1)[:, None], pr.sum(axis=1)
    pr0 = v[:, :, None] * np.divide(b, a, out=np.zeros_like(b), where=a > 0.0)[:, None, :]
    info = n * float(v.sum(axis=0) ** (n - 1) @ _kl_terms(pr, pr0).sum(axis=(0, 2)))
    if n == 2:
        info -= float(_kl_terms(_pair_law(pr), _pair_law(pr0)).sum())
    return info


def _pair_law(t: np.ndarray) -> np.ndarray:
    """sum_x t[s1, x, y1] t[s2, x, y2], rows (s1, y1) and columns (s2, y2)."""
    c = t.shape[1]
    return t.transpose(0, 2, 1).reshape(-1, c) @ t.transpose(1, 0, 2).reshape(c, -1)


def _kl_terms(p: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """p ln(p / p0) - p + p0 elementwise, 0 ln 0 = 0, NaN kept.  p and p0 have
    equal totals; p0 - p cancels the rounding of p0's sums to first order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p / p0
        np.log(out, out=out)
        out *= p
    out[p == 0.0] = 0.0
    out += p0 - p
    return out


def _direct_likelihoods(sys_: SmallSystem, t_t: int):
    """mi_direct's node weights w (count,) and single-receiver output
    likelihoods g[c, y, k] per node, linear domain, on Monte Carlo stream 1."""
    h, logw = _channel_nodes(sys_, t_t, stream=1)
    z = math.sqrt(sys_.rho / sys_.m) * (h @ _input_vectors(sys_.m).T)   # (nodes, C)
    a = math.sqrt(2.0)
    g = np.empty((z.shape[1], 4, z.shape[0]))
    for c, zc in enumerate(z.T):
        qr_p = q_function(-a * zc.real)
        qi_p = q_function(-a * zc.imag)
        qr_m = 1.0 - qr_p
        qi_m = 1.0 - qi_p
        g[c] = qr_p * qi_p, qr_p * qi_m, qr_m * qi_p, qr_m * qi_m
    return np.exp(logw), g


def _training_products(prefix: np.ndarray, g: np.ndarray, depth: int, start: int = 0):
    """Yield gg[(r, s), k] = prefix[r, k] prod_p g[c_p, s_p, k] for every
    nondecreasing training matrix start <= c_1 <= ... <= c_depth, in
    itertools.combinations_with_replacement order, with r and then the first
    symbol slowest.  Each prefix product is formed once and shared by every
    matrix that extends it; the factors multiply in the same order as a
    from-scratch product, so the bits are the same."""
    if depth == 0:
        yield prefix
        return
    for c, g_c in enumerate(g[start:], start):
        yield from _training_products((prefix[:, None, :] * g_c[None]).reshape(-1, prefix.shape[1]),
                                      g, depth - 1, c)
