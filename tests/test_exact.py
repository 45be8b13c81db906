"""Enumerable small systems: probability tables, rate pipelines, budget."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from onebit_bounds import exact
from onebit_bounds.exact import (
    QPSK,
    SIGN_OUT,
    SmallSystem,
    c_bound_exact,
    d1,
    d2,
    d3,
    d4,
    mi_direct,
    reff_exact,
)
from onebit_bounds.exact import (
    _channel_nodes,
    _input_vectors,
    _phase_orbits,
    _stack_receivers,
    _strings,
    _Tables,
    _training_classes,
    _training_products,
)
from onebit_bounds.numerics import q_function
from onebit_bounds.quantizer import sign_log_likelihoods

def sys11(t_total=3, rho=10.0):
    return SmallSystem(1, 1, t_total, rho)


class TestD1:
    def test_zero_snr_factorizes(self):
        s = sys11(rho=0.0)
        x_t = QPSK[[0, 1]].reshape(1, 2)
        y_t = SIGN_OUT[[2, 3]].reshape(1, 2)
        val = d1(QPSK[[0]], SIGN_OUT[[1]], x_t, y_t, 2, s)
        assert val == pytest.approx(0.25 ** 3, rel=1e-12)

    def test_zero_snr_two_receivers(self):
        s = SmallSystem(2, 2, 2, 0.0, order=8)
        x_t = QPSK[[0, 3]].reshape(2, 1)
        y_t = SIGN_OUT[[1, 2]].reshape(2, 1)
        val = d1(QPSK[[0, 1]], SIGN_OUT[[1, 2]], x_t, y_t, 1, s)
        assert val == pytest.approx(0.25 ** 4, rel=1e-12)

    def test_global_sign_flip_is_exact(self):
        s = sys11()
        x_t = QPSK[[0, 2]].reshape(1, 2)
        y_t = SIGN_OUT[[1, 3]].reshape(1, 2)
        x_d, y_d = QPSK[[1]], SIGN_OUT[[2]]
        assert d1(x_d, y_d, x_t, y_t, 2, s) == d1(-x_d, -y_d, -x_t, -y_t, 2, s)

    def test_against_seeded_monte_carlo_oracle(self):
        # own 1e7-draw estimate of E_h[g_d * g_t], M = N = 1, T_t = 1, rho = 1
        rho = 1.0
        s = sys11(t_total=2, rho=rho)
        x_t, y_t = QPSK[[2]].reshape(1, 1), SIGN_OUT[[1]].reshape(1, 1)
        x_d, y_d = QPSK[[0]], SIGN_OUT[[3]]
        got = d1(x_d, y_d, x_t, y_t, 1, s)

        rng = np.random.default_rng(2024)
        n = 10_000_000
        h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)

        def g(z, y):
            a = math.sqrt(2.0)
            return special.ndtr(a * z.real * y.real) * special.ndtr(a * z.imag * y.imag)

        vals = (g(math.sqrt(rho) * h * x_d[0], y_d[0])
                * g(math.sqrt(rho) * h * x_t[0, 0], y_t[0, 0]))
        est, se = float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(n)
        assert abs(got - est) < 4 * se

    def test_values_are_probabilities(self):
        s = sys11()
        x_t = QPSK[[3]].reshape(1, 1)
        for yi, xi, ydi in itertools.product(range(4), repeat=3):
            v = d1(QPSK[[xi]], SIGN_OUT[[ydi]], x_t, SIGN_OUT[[yi]].reshape(1, 1), 1, s)
            assert 0.0 < v <= 1.0


class TestD2D3:
    def test_d2_normalizes_over_training_outputs(self):
        s = sys11()
        x_t = QPSK[[0, 2]].reshape(1, 2)
        tot = sum(d2(x_t, SIGN_OUT[list(ys)].reshape(1, 2), 2, s)
                  for ys in itertools.product(range(4), repeat=2))
        assert tot == pytest.approx(1.0, abs=1e-8)

    def test_d3_is_conditional_law(self):
        s = sys11()
        x_t = QPSK[[1, 3]].reshape(1, 2)
        y_t = SIGN_OUT[[0, 2]].reshape(1, 2)
        for xi in range(4):
            tot = sum(d3(QPSK[[xi]], SIGN_OUT[[yi]], x_t, y_t, 2, s) for yi in range(4))
            assert tot == pytest.approx(1.0, abs=1e-8)

    def test_zero_snr_is_uniform(self):
        s = sys11(rho=0.0)
        x_t = QPSK[[0]].reshape(1, 1)
        y_t = SIGN_OUT[[1]].reshape(1, 1)
        for xi, yi in itertools.product(range(4), repeat=2):
            assert d3(QPSK[[xi]], SIGN_OUT[[yi]], x_t, y_t, 1, s) == pytest.approx(0.25, rel=1e-12)

    def test_training_outcomes_form_a_distribution(self):
        # d2 over the 16 training outputs of one pilot matrix, for one
        # receiver with t_t = 2 and for two receivers with t_t = 1; each
        # value is p(Y_t) as the batched rate pipeline computes it
        for s, t_t in ((sys11(), 2), (SmallSystem(1, 2, 2, 10.0), 1)):
            x_t = QPSK[[0, 2][:t_t]].reshape(1, t_t)
            outputs = list(itertools.product(range(4), repeat=s.n * t_t))
            vals = [d2(x_t, SIGN_OUT[list(ys)].reshape(s.n, t_t), t_t, s) for ys in outputs]
            assert len(vals) == 16
            assert all(0.0 < v <= 1.0 for v in vals)
            assert sum(vals) == pytest.approx(1.0, abs=1e-8)
            v_log, w_log = _Tables(s, t_t).receiver_tables((0, 2)[:t_t])
            batch = np.unravel_index(np.arange(16), (4 ** t_t,) * s.n)
            ld2, _ = _stack_receivers(v_log, w_log, batch)
            assert vals == [math.exp(v) for v in ld2]

    def test_d3_equals_d1_over_d2(self):
        s = sys11()
        x_t = QPSK[[2, 0]].reshape(1, 2)
        y_t = SIGN_OUT[[3, 1]].reshape(1, 2)
        x_d, y_d = QPSK[[1]], SIGN_OUT[[0]]
        ratio = d1(x_d, y_d, x_t, y_t, 2, s) / d2(x_t, y_t, 2, s)
        assert d3(x_d, y_d, x_t, y_t, 2, s) == pytest.approx(ratio, rel=1e-12)

    def test_d3_table_against_per_entry_quadrature_oracle(self):
        # own per-entry tensor rule over (Re h, Im h) in linear probability
        # space: exercises the log-domain table machinery against a direct
        # coding of the same integral (same order, so truncation cancels)
        rho = 10.0
        s = sys11(t_total=3, rho=rho)
        x_t = QPSK[[0, 3]].reshape(1, 2)
        y_t = SIGN_OUT[[2, 1]].reshape(1, 2)

        t, w = special.roots_hermite(24)
        g1, g2 = np.meshgrid(math.sqrt(2.0) * t, math.sqrt(2.0) * t, indexing="ij")
        ww = np.outer(w, w).reshape(-1) / math.pi
        h = ((g1 + 1j * g2) / math.sqrt(2)).reshape(-1)

        def g(z, y):
            a = math.sqrt(2.0)
            return special.ndtr(a * z.real * y.real) * special.ndtr(a * z.imag * y.imag)

        def oracle_d1(x_d, y_d):
            vals = (g(math.sqrt(rho) * h * x_d, y_d)
                    * g(math.sqrt(rho) * h * x_t[0, 0], y_t[0, 0])
                    * g(math.sqrt(rho) * h * x_t[0, 1], y_t[0, 1]))
            return float(ww @ vals)

        vals2 = (g(math.sqrt(rho) * h * x_t[0, 0], y_t[0, 0])
                 * g(math.sqrt(rho) * h * x_t[0, 1], y_t[0, 1]))
        oracle_d2 = float(ww @ vals2)
        for xi, yi in itertools.product(range(4), repeat=2):
            got = d3(QPSK[[xi]], SIGN_OUT[[yi]], x_t, y_t, 2, s)
            want = oracle_d1(QPSK[xi], SIGN_OUT[yi]) / oracle_d2
            assert got == pytest.approx(want, abs=1e-8)


class TestD4AndRates:
    def test_d4_nonnegative(self):
        s = sys11()
        x_t = QPSK[[0, 1]].reshape(1, 2)
        for ys in itertools.product(range(4), repeat=2):
            assert d4(x_t, SIGN_OUT[list(ys)].reshape(1, 2), 2, s) >= -1e-12

    def test_zero_snr_rate_vanishes(self):
        s = sys11(rho=0.0)
        assert reff_exact(1, s) == pytest.approx(0.0, abs=1e-9)
        assert mi_direct(1, s) == pytest.approx(0.0, abs=1e-9)

    def test_pipelines_agree_under_quadrature(self):
        for t_total, rho in ((2, 1.0), (3, 10.0), (4, 10.0)):
            s = sys11(t_total=t_total, rho=rho)
            for t_t in range(1, t_total):
                assert abs(reff_exact(t_t, s) - mi_direct(t_t, s)) < 1e-6

    def test_rate_bounds_and_monotonicity(self):
        s = sys11(t_total=4, rho=10.0)
        r1, r2 = reff_exact(1, s), reff_exact(2, s)
        assert 0.0 <= r1 <= 2.0 and 0.0 <= r2 <= 2.0
        assert r2 >= r1
        weaker = reff_exact(1, sys11(t_total=4, rho=1.0))
        assert weaker <= r1

    def test_high_snr_stays_capped(self):
        s = sys11(t_total=2, rho=100.0)
        v = mi_direct(1, s)
        assert v <= 2.0
        assert v >= mi_direct(1, sys11(t_total=2, rho=1.0))

    def test_direct_pipeline_survives_underflow_at_high_snr(self):
        # at rho = 1e4 the products p(x) p(y) of some outputs underflow;
        # mi_direct once summed an infinite log and clamped the result to 0
        s = SmallSystem(2, 2, 3, 1e4, samples=2_000, seed=0)
        direct = mi_direct(2, s)
        assert direct > 0.0
        assert abs(direct - reff_exact(2, s)) < 0.02

    def test_non_finite_information_sum_raises(self, monkeypatch):
        direct_likelihoods = exact._direct_likelihoods

        def with_nan(sys_, t_t):
            w, g = direct_likelihoods(sys_, t_t)
            g[0, 0, 0] = np.nan
            return w, g

        monkeypatch.setattr(exact, "_direct_likelihoods", with_nan)
        with pytest.raises(FloatingPointError):
            mi_direct(1, sys11(t_total=2))

    def test_symmetry_reduction_matches_full_enumeration(self, monkeypatch):
        cases = [(1, sys11(t_total=3, rho=10.0)), (2, sys11(t_total=3, rho=10.0)),
                 (1, SmallSystem(2, 2, 2, 5.0, order=8))]
        reduced = [reff_exact(t_t, s) for t_t, s in cases]
        monkeypatch.setattr(exact, "_training_classes", lambda m, t_t: [
            (cols, 1) for cols in itertools.product(range(4 ** m), repeat=t_t)])
        for (t_t, s), a in zip(cases, reduced):
            assert a == pytest.approx(reff_exact(t_t, s), abs=1e-12)

    @pytest.mark.parametrize("s, t_t", [
        (SmallSystem(2, 2, 3, 10.0, samples=2_000, seed=7), 2),
        (SmallSystem(1, 1, 5, 10.0), 4),
        (SmallSystem(1, 2, 4, 5.0), 3),
    ], ids=["m2n2-mc-t2", "m1n1-t4", "m1n2-t3"])
    def test_symbol_order_reduction_matches_full_enumeration(self, monkeypatch, s, t_t):
        information = exact._information
        calls = []

        def counted(pr, n):
            calls.append(1)
            return information(pr, n)

        monkeypatch.setattr(exact, "_information", counted)
        reduced = mi_direct(t_t, s)
        # one call per multiset of t_t columns out of 4^m, not per matrix
        assert len(calls) == math.comb(4 ** s.m + t_t - 1, t_t)
        full = full_walk_mi_direct(t_t, s, information)
        assert reduced > 0.0
        assert abs(reduced - full) <= 1e-14 * full


def full_walk_mi_direct(t_t, s, information):
    """mi_direct summed over every one of the 4^(m t_t) training matrices,
    each with weight 1, its training products gathered per matrix."""
    w, g = exact._direct_likelihoods(s, t_t)
    g_flat = g.reshape(-1, g.shape[2]).T
    strings = _strings(t_t)
    terms = []
    for cols in itertools.product(range(len(g)), repeat=t_t):
        gg = np.tile(w, (len(strings), 1))
        for p, c in enumerate(cols):
            gg *= g[c, strings[:, p], :]
        terms.append(information((gg @ g_flat).reshape(len(strings), len(g), 4), s.n))
    nats = math.fsum(terms) / len(g) / 4 ** (s.m * t_t)
    return max(0.0, nats / (s.m * math.log(2.0)))


# sha256 of repr([(tuple(map(int, key)), count), ...]) of each class list:
# reff_exact sums the classes in this order, so keys, counts and order are pinned
@pytest.mark.parametrize("m, t_t, n_classes, digest", [
    (1, 0, 1, "b94b1cb7d1cbc4e4791574cd93e5514a2b093fe640d2f7d3843a71615941f761"),
    (1, 1, 1, "fef20611d5c5bf8ab12be7b6cc3fd187781d09fcfd3acaf2566416177f62b49f"),
    (1, 2, 3, "d83143723ca351e87657a109a3dfd42d7a0d563ca42dc5e4e9cefd2504a5e299"),
    (1, 3, 5, "613c6c05a9fd47d75272a7e17e156d7c397664901f788eadaadb1f01a00ee0d7"),
    (1, 4, 10, "53912a128d2a667ab0c7904c40fe19eb8627e13fc6fe8174c53570b59a2f0072"),
    (2, 0, 1, "b94b1cb7d1cbc4e4791574cd93e5514a2b093fe640d2f7d3843a71615941f761"),
    (2, 1, 1, "4f3bd31c157d29598a451476772384ca8a950f02a9d6ae7d8d0500a16e6d7827"),
    (2, 2, 7, "5a59a7c6ce95a64bccb96212a439a8c29afd0804ba1d719c57861cf426f37e6a"),
    (2, 3, 31, "892d52e7a9665b3b7c873afe8b1e5e7e7d6a33d0ac41e9b35327c9919e84dcc7"),
])
def test_symmetry_classes_are_pinned(m, t_t, n_classes, digest):
    classes = _training_classes(m, t_t)
    assert len(classes) == n_classes
    assert sum(count for _, count in classes) == 4 ** (m * t_t)
    listed = [(tuple(map(int, key)), count) for key, count in classes]
    assert hashlib.sha256(repr(listed).encode()).hexdigest() == digest


def loop_reff_exact(t_t, s):
    """reff_exact with one Python iteration per (class, Y_t): the reference
    the batched d-pipeline must match bit for bit."""
    tab = _Tables(s, t_t)
    n_inputs = 4 ** s.m
    total = 0.0
    for cols, count in _training_classes(s.m, t_t):
        v_log, w_log = tab.receiver_tables(cols)
        contrib = 0.0
        for yt in itertools.product(range(4 ** t_t), repeat=s.n):
            ld2 = float(sum(v_log[k] for k in yt))
            if s.n == 1:
                ld3 = w_log[yt[0]] - v_log[yt[0]]
            else:
                ld3 = ((w_log[yt[0]][:, :, None] + w_log[yt[1]][:, None, :])
                       - (v_log[yt[0]] + v_log[yt[1]])).reshape(n_inputs, 16)
            lpy = special.logsumexp(ld3, axis=0) - math.log(n_inputs)
            p = np.exp(ld3)
            with np.errstate(invalid="ignore"):
                terms = np.where(p > 0.0, p * (ld3 - lpy), 0.0)
            contrib += math.exp(ld2) * (float(terms.sum()) / n_inputs)
        total += count * contrib
    total /= 4 ** (s.m * t_t)
    return max(0.0, total / (s.m * math.log(2.0)))


def stacked_direct_likelihoods(s, t_t):
    """mi_direct's (w, g) built whole-table: the tails of every column at
    once, stacked and transposed into a contiguous copy."""
    h, logw = _channel_nodes(s, t_t, stream=1)
    z = math.sqrt(s.rho / s.m) * (h @ _input_vectors(s.m).T)
    qr_p, qi_p = q_function(-math.sqrt(2.0) * z.real), q_function(-math.sqrt(2.0) * z.imag)
    qr_m, qi_m = 1.0 - qr_p, 1.0 - qi_p
    g = np.ascontiguousarray(
        np.stack([qr_p * qi_p, qr_p * qi_m, qr_m * qi_p, qr_m * qi_m], axis=0).transpose(2, 0, 1))
    return np.exp(logw), g


def loop_mi_direct(t_t, s):
    """mi_direct with one Python iteration per (training matrix, Y_t), summing
    the full joint law of (x, y_d, Y_t) in np.longdouble from the same
    float64 likelihood tables: the oracle the direct pipeline must match."""
    w, g = stacked_direct_likelihoods(s, t_t)
    n_inputs = 4 ** s.m
    strings = _strings(t_t)
    nats = np.longdouble(0.0)
    for cols in itertools.product(range(n_inputs), repeat=t_t):
        gg = np.tile(w, (len(strings), 1))
        for p, c in enumerate(cols):
            gg *= g[c, strings[:, p], :]
        pr = np.einsum("sk,xyk->xsy", gg, g, optimize=True).astype(np.longdouble)
        for yt in itertools.product(range(len(strings)), repeat=s.n):
            if s.n == 1:
                cond = pr[:, yt[0], :]
            else:
                cond = (pr[:, yt[0], :, None] * pr[:, yt[1], None, :]).reshape(n_inputs, 16)
            joint = cond / n_inputs
            p_yt = joint.sum()
            if p_yt <= 0.0:
                continue
            px, py = joint.sum(axis=1), joint.sum(axis=0)
            mask = joint > 0.0
            ratio = joint[mask] * p_yt / np.outer(px, py)[mask]
            nats += joint[mask] @ np.log(ratio)
    nats /= 4 ** (s.m * t_t)
    return max(np.longdouble(0.0), nats / (s.m * np.log(np.longdouble(2.0))))


class TestBatchedPipelines:
    # M=2, N=1 at 25 dB with order 8 has training outputs with zeros in the
    # joint law, which both pipelines sum as 0 ln 0 = 0; the last case changes
    # reff_exact's last bit if p(Y_t) is taken with np.exp
    @pytest.mark.parametrize("s, t_t", [
        (SmallSystem(1, 1, 4, 10.0), 1),
        (SmallSystem(1, 1, 4, 10.0), 3),
        (SmallSystem(1, 2, 3, 5.0), 2),
        (SmallSystem(2, 1, 3, 10 ** 2.5, order=8), 2),
        (SmallSystem(2, 2, 2, 10.0, samples=2_000, seed=7), 1),
        (SmallSystem(2, 2, 3, 10 ** 2.5, samples=20_000, seed=0), 1),
        (SmallSystem(2, 2, 3, 10.0, samples=500, seed=5), 2),
        (SmallSystem(2, 2, 2, 10 ** 2.5, order=6), 1),
    ], ids=["m1n1-t1", "m1n1-t3", "m1n2-t2", "m2n1-25dB-t2", "m2n2-mc-t1", "m2n2-mc-25dB-t1",
            "m2n2-mc-t2", "m2n2-o6-25dB-t1"])
    def test_rates_equal_the_per_output_loop(self, s, t_t):
        assert reff_exact(t_t, s) == loop_reff_exact(t_t, s)
        assert abs(np.longdouble(mi_direct(t_t, s)) - loop_mi_direct(t_t, s)) <= 4e-15

    def test_direct_pipeline_never_builds_the_joint_law(self):
        # the law of (x, y_d, Y_t) at M=1, N=2, T_t=3 has 4^3 * 4^3 * 4 * 16
        # entries, 4x the law of (y_d, Y_t); a pass over it peaked at 3.6
        # times its size, the receiver factorization at 1.2
        s = SmallSystem(1, 2, 4, 5.0)
        mi_direct(3, s)  # fill the caches first
        tracemalloc.start()
        try:
            mi_direct(3, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (4 ** 3 * 4 ** 3 * 4 * 16) * 8

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("t_t", [0, 1, 2, 3])
    def test_training_products_equal_the_per_matrix_gather(self, m, t_t):
        rng = np.random.default_rng(11)
        w, g = rng.random(5), rng.random((4 ** m, 4, 5))
        strings = _strings(t_t)
        products = _training_products(w[None, :], g, t_t)
        for cols in itertools.combinations_with_replacement(range(4 ** m), t_t):
            gg = np.tile(w, (len(strings), 1))
            for p, c in enumerate(cols):
                gg *= g[c, strings[:, p], :]
            assert np.array_equal(next(products), gg)
        assert next(products, None) is None


class TestPhaseOrbits:
    # a common phase j on every transmitter maps input columns to input
    # columns and turns the sign outputs; the node tables rely on both

    def test_quarter_turns_permute_the_output_rows(self):
        # no matrix product: the rotated inputs come from 1j * z alone
        parts = [0.0, -0.0, 40.0, -40.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                 *np.random.default_rng(29).standard_normal(24)]
        z = np.array([complex(a, b) for a in parts for b in parts])
        _, place = _phase_orbits(1)
        assert list(place[2][1]) == [1, 3, 0, 2]  # QPSK[2] = j QPSK[0]
        base, turned = sign_log_likelihoods(z), z
        for k in range(1, 4):
            turned = 1j * turned
            c = int(np.argmin(np.abs(QPSK - 1j ** k * QPSK[0])))
            assert np.array_equal(sign_log_likelihoods(turned), base[place[c][1]])

    @pytest.mark.parametrize("m, n_orbits", [(1, 1), (2, 4)])
    def test_orbits_partition_the_columns(self, m, n_orbits):
        x = _input_vectors(m)
        reps, place = _phase_orbits(m)
        assert len(reps) == n_orbits == 4 ** m // 4
        seen = []
        for i, r in enumerate(reps):
            orbit = [int(np.argmin(np.abs(x - 1j ** k * x[r]).sum(axis=1))) for k in range(4)]
            assert min(orbit) == r and len(set(orbit)) == 4
            turn = np.arange(4)
            for k, c in enumerate(orbit):
                assert place[c][0] == i and list(place[c][1]) == list(turn)
                turn = turn[[1, 3, 0, 2]]
            seen += orbit
        assert sorted(seen) == list(range(4 ** m))


def whole_log_tables(tab):
    """Every input column's log table, rebuilt from its orbit minimum's rows."""
    return np.array([tab.log_rep[i, rows] for i, rows in tab.place])


def gathered_receiver_tables(tab, cols):
    """receiver_tables with each training symbol's likelihood rows gathered
    from the whole log table into a (S, nodes) copy before they are added,
    and the shifted products exponentiated into a new array."""
    n_nodes = tab.logw.shape[0]
    s_count = tab.strings.shape[0]
    log_g = whole_log_tables(tab)
    acc = np.tile(tab.logw, (s_count, 1))
    for p, c in enumerate(cols):
        acc += log_g[c, tab.strings[:, p], :]
    shift = acc.max(axis=1, keepdims=True)
    np.maximum(shift, -1e300, out=shift)
    e = np.exp(acc - shift)
    with np.errstate(divide="ignore"):
        v_log = np.log(e.sum(axis=1)) + shift[:, 0]
        w = e @ tab.g_lin.reshape(tab.n_inputs * 4, n_nodes).T
        w_log = np.log(w).reshape(s_count, tab.n_inputs, 4) + shift[:, :, None]
    return v_log, w_log


class TestNodeTables:
    # the log tables are built for the phase-orbit minima only, one at a
    # time, and every other column's rows are read from its minimum's; every
    # value must carry the bits of the whole-table formulas
    @pytest.mark.parametrize("s, t_t", [
        *((SmallSystem(1, 1, 5, 10.0, order=12), t_t) for t_t in range(5)),
        *((SmallSystem(1, 1, 5, 10.0, samples=200, seed=3), t_t) for t_t in range(5)),
        *((SmallSystem(2, 1, 3, 10.0, order=8), t_t) for t_t in range(3)),
        *((SmallSystem(2, 1, 3, 10.0, samples=500, seed=3), t_t) for t_t in range(3)),
        *((SmallSystem(1, 1, 5, rho, order=12), t_t) for rho in (0.0, 1e6) for t_t in (1, 3)),
        *((SmallSystem(2, 1, 3, rho, samples=500, seed=3), t_t) for rho in (0.0, 1e6)
          for t_t in (1, 2)),
    ], ids=[*(f"m1-quad-t{t}" for t in range(5)), *(f"m1-mc-t{t}" for t in range(5)),
            *(f"m2-quad-t{t}" for t in range(3)), *(f"m2-mc-t{t}" for t in range(3)),
            *(f"m1-quad-rho{r}-t{t}" for r in ("0", "1e6") for t in (1, 3)),
            *(f"m2-mc-rho{r}-t{t}" for r in ("0", "1e6") for t in (1, 2))])
    def test_tables_keep_every_bit(self, s, t_t):
        tab = _Tables(s, t_t)
        h, logw = _channel_nodes(s, t_t, stream=0)
        # every column's z from its orbit minimum's, formed with the tables'
        # operand shape (BLAS kernels may round h @ x differently per shape)
        # and turned exactly by the power of j that maps the minimum to it
        x = _input_vectors(s.m)
        reps = _phase_orbits(s.m)[0]
        z_rep = math.sqrt(s.rho / s.m) * (h @ x[reps].T)
        z = np.empty((len(logw), len(x)), dtype=complex)
        for c in range(len(x)):
            i, k = next((i, k) for i in range(len(reps)) for k in range(4)
                        if np.allclose(1j ** k * x[reps[i]], x[c]))
            z[:, c] = 1j ** k * z_rep[:, i]
        log_g = np.ascontiguousarray(sign_log_likelihoods(z).transpose(2, 0, 1))
        assert tab.log_rep.shape == (4 ** s.m // 4, 4, len(logw))
        assert np.array_equal(whole_log_tables(tab), log_g)
        assert np.array_equal(tab.g_lin, np.exp(log_g))
        for got, want in zip(exact._direct_likelihoods(s, t_t), stacked_direct_likelihoods(s, t_t)):
            assert np.array_equal(got, want)
        for cols in itertools.product(range(4 ** s.m), repeat=t_t):
            for got, want in zip(tab.receiver_tables(cols), gathered_receiver_tables(tab, cols)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("run", [
        lambda: c_bound_exact(SmallSystem(2, 1, 2, 10.0, samples=20_000, seed=0)),
        lambda: reff_exact(2, SmallSystem(2, 2, 3, 10.0, samples=20_000, seed=0)),
    ], ids=["c_bound-m2n1-t2", "reff-m2n2-t2"])
    def test_d_pipeline_peak_stays_near_its_tables(self, run):
        # per node the d-pipeline keeps the linear tables of all 4^m input
        # columns and the log tables of the 4^m / 4 orbit minima; a log table
        # for every input column breaks the bound
        run()  # fill the caches first
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.45 * (4 ** 2 + 4 ** 2 // 4) * 4 * 20_000 * 8

    def test_peak_memory_stays_near_the_kept_tables(self):
        # per node mi_direct keeps one table of 4^m * 4 float64 and the
        # d-pipeline less than two; a whole-table stack or transposed copy
        # next to them breaks the bound
        s = SmallSystem(2, 1, 2, 10.0, samples=20_000, seed=0)
        c_bound_exact(s)  # fill the caches first
        mi_direct(1, s)
        tracemalloc.start()
        try:
            c_bound_exact(s)
            mi_direct(1, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (2 * 4 ** 2 * 4 * 20_000 * 8)


class TestCBoundExact:
    def test_zero_snr_ties_to_least_training(self):
        res, _ = c_bound_exact(sys11(t_total=3, rho=0.0))
        assert res.beta_t_opt == 1.0
        assert res.c_bound == pytest.approx(0.0, abs=1e-9)
        assert res.method == "exact"

    def test_two_symbol_block_has_one_choice(self):
        res, _ = c_bound_exact(sys11(t_total=2))
        assert res.beta_t_opt == 1.0

    def test_matches_brute_force_over_both_pipelines(self):
        s = sys11(t_total=4, rho=10.0)
        res, curve = c_bound_exact(s)
        assert curve.r_eff.tolist() == [reff_exact(t_t, s) for t_t in (1, 2, 3)]
        for pipeline in (reff_exact, mi_direct):
            objs = [(4 - t_t) / 4 * pipeline(t_t, s) for t_t in (1, 2, 3)]
            assert res.c_bound == pytest.approx(max(objs), abs=2e-6)
            assert res.beta_t_opt == 1.0 + int(np.argmax(objs))

    def test_params_describe_the_system(self):
        _, curve = c_bound_exact(SmallSystem(2, 2, 3, 10.0, order=8))
        assert curve.beta == 1.5 and curve.grid_step == 0.5
        assert curve.beta_t.tolist() == [0.5, 1.0]


class TestMonteCarlo:
    def test_bit_reproducible_for_fixed_seed(self):
        s = SmallSystem(1, 1, 3, 10.0, samples=20_000, seed=42)
        assert reff_exact(1, s) == reff_exact(1, s)
        assert mi_direct(1, s) == mi_direct(1, s)

    def test_seed_changes_the_estimate(self):
        a = SmallSystem(1, 1, 2, 10.0, samples=5_000, seed=0)
        b = SmallSystem(1, 1, 2, 10.0, samples=5_000, seed=1)
        assert reff_exact(1, a) != reff_exact(1, b)

    def test_pipelines_use_independent_streams(self):
        s = SmallSystem(1, 1, 2, 10.0, samples=5_000, seed=0)
        assert reff_exact(1, s) != mi_direct(1, s)

    def test_converges_to_quadrature_value(self):
        quad = reff_exact(1, sys11(t_total=2, rho=10.0))
        mc = reff_exact(1, SmallSystem(1, 1, 2, 10.0, samples=400_000, seed=3))
        assert mc == pytest.approx(quad, abs=5e-3)


class TestValidationAndBudget:
    @pytest.mark.parametrize("fields, message", [
        (dict(order=1), "quadrature order must be >= 2, got 1"),
        (dict(samples=0), "samples must be positive, got 0"),
        (dict(samples=10, seed=-1), "seed must be nonnegative, got -1"),
        (dict(m=3), "m must be 1 or 2, got 3"),
        (dict(n=0), "n must be 1 or 2, got 0"),
        (dict(t_total=6), "t_total must lie in 1..5, got 6"),
        (dict(rho=-1.0), "rho must be finite and nonnegative, got -1.0"),
        # 64 entries per node at (m, t_total) = (2, 3): order 25 and 390,625
        # samples are at the cap, one more node is over it
        (dict(order=26), "456976 channel nodes of 64 table entries each exceed the cap of "
                         "25000000 entries; lower the quadrature order or use fewer Monte "
                         "Carlo samples"),
        (dict(samples=390_626), "390626 channel nodes of 64 table entries each exceed the cap "
                                "of 25000000 entries; lower the quadrature order or use fewer "
                                "Monte Carlo samples"),
        # the settings of the channel expectation are checked first
        (dict(m=3, order=1), "quadrature order must be >= 2, got 1"),
        (dict(m=3, samples=0), "samples must be positive, got 0"),
        # 100 samples keep the tables far under their cap; 4^16 terms are not
        (dict(t_total=5, samples=100), "training enumeration needs 4294967296 terms, budget is "
                                       "100000000"),
    ], ids=["order", "samples", "seed", "m", "n", "t_total", "rho", "tensor-size",
            "sample-count", "m-and-order", "m-and-samples", "terms"])
    def test_each_bad_field_is_named(self, fields, message):
        with pytest.raises(ValueError) as exc:
            SmallSystem(**{**dict(m=2, n=2, t_total=3, rho=5.0), **fields})
        assert str(exc.value) == message

    def test_table_cap_counts_the_block_length(self):
        # 64 entries per node up to t_total = 4 at m = 2, so systems at the
        # cap are admitted; at t_total = 5 each node keeps 4^4 = 256 training
        # strings, which puts the default order at m = 2 over the cap
        SmallSystem(2, 2, 3, 5.0, order=25)
        SmallSystem(2, 2, 4, 5.0, samples=390_625)
        SmallSystem(1, 1, 5, 5.0, order=312)
        with pytest.raises(ValueError, match="^331776 channel nodes of 256 table entries each"):
            SmallSystem(2, 1, 5, 5.0)

    def test_antenna_counts_capped(self):
        with pytest.raises(ValueError):
            SmallSystem(3, 1, 3, 1.0)
        with pytest.raises(ValueError):
            SmallSystem(1, 3, 3, 1.0)

    @pytest.mark.parametrize("rho", [math.inf, math.nan, -1.0])
    def test_snr_must_be_finite_and_nonnegative(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            SmallSystem(1, 1, 2, rho)

    def test_block_length_capped(self):
        with pytest.raises(ValueError):
            SmallSystem(1, 1, 6, 1.0)

    def test_enumeration_budget_enforced(self):
        # the longest training length, T_t = 4, decides at construction
        with pytest.raises(ValueError) as exc:
            SmallSystem(2, 2, 5, 1.0, order=8)
        assert str(exc.value) == f"training enumeration needs {4 ** 16} terms, budget is 100000000"

    def test_enumeration_budget_refuses_only_the_largest_block(self):
        for m, n, t_total in itertools.product((1, 2), (1, 2), range(1, 6)):
            if (m, n, t_total) != (2, 2, 5):
                SmallSystem(m, n, t_total, 1.0, samples=1)

    @pytest.mark.parametrize("run", [
        lambda s: reff_exact(3, s),
        lambda s: mi_direct(3, s),
        lambda s: d2(QPSK[[0, 0, 0]].reshape(1, 3), SIGN_OUT[[0, 0, 0]].reshape(1, 3), 3, s),
    ], ids=["reff_exact", "mi_direct", "d2"])
    def test_training_length_range_checked(self, run):
        with pytest.raises(ValueError) as exc:
            run(sys11(t_total=3))
        assert str(exc.value) == "t_t must lie in 0..2, got 3"

    def test_alphabet_membership_checked(self):
        s = sys11()
        with pytest.raises(ValueError):
            d2(np.array([[0.5 + 0.5j]]), SIGN_OUT[[0]].reshape(1, 1), 1, s)

    @pytest.mark.parametrize("value", [lambda v: 0.5 + 0.5j, lambda v: v + 1e-6,
                                       lambda v: complex(math.nan, 0.0),
                                       lambda v: complex(math.nan, math.nan)],
                             ids=["off", "near-miss", "nan-real", "nan"])
    @pytest.mark.parametrize("entry", ["x_t", "y_t", "x_d", "y_d"])
    def test_alphabet_membership_checked_per_entry(self, entry, value):
        # each entry's first symbol is index 0 of its alphabet, the index a
        # nearest-symbol search returns for NaN
        s = SmallSystem(1, 2, 3, 10.0, order=8)
        block = {"x_t": QPSK[[0, 1]].reshape(1, 2), "y_t": SIGN_OUT[[0, 2, 1, 3]].reshape(2, 2),
                 "x_d": QPSK[[0]], "y_d": SIGN_OUT[[0, 1]]}
        block[entry] = block[entry].copy()
        block[entry].flat[0] = value(block[entry].flat[0])
        with pytest.raises(ValueError, match=rf"^{entry} entry .* not in the alphabet"):
            d1(block["x_d"], block["y_d"], block["x_t"], block["y_t"], 2, s)
