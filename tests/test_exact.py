"""Enumerable small systems: probability tables, rate pipelines, budget."""

import itertools
import math

import numpy as np
import pytest
from scipy import special

from onebit_bounds import exact
from onebit_bounds.exact import (
    QPSK,
    SIGN_OUT,
    ChannelIntegration,
    EnumerationBudgetError,
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
    _stack_receivers,
    _strings,
    _Tables,
    _training_classes,
)
from onebit_bounds.numerics import q_function

QUAD24 = ChannelIntegration.quadrature(24)


def sys11(t_total=3, rho=10.0, integ=QUAD24):
    return SmallSystem(1, 1, t_total, rho, integ)


class TestD1:
    def test_zero_snr_factorizes(self):
        s = sys11(rho=0.0)
        x_t = QPSK[[0, 1]].reshape(1, 2)
        y_t = SIGN_OUT[[2, 3]].reshape(1, 2)
        val = d1(QPSK[[0]], SIGN_OUT[[1]], x_t, y_t, 2, s)
        assert val == pytest.approx(0.25 ** 3, rel=1e-12)

    def test_zero_snr_two_receivers(self):
        s = SmallSystem(2, 2, 2, 0.0, ChannelIntegration.quadrature(8))
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
        for s, t_t in ((sys11(), 2), (SmallSystem(1, 2, 2, 10.0, QUAD24), 1)):
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
        s = SmallSystem(2, 2, 3, 1e4, ChannelIntegration.monte_carlo(2_000, seed=0))
        direct = mi_direct(2, s)
        assert direct > 0.0
        assert abs(direct - reff_exact(2, s)) < 0.02

    def test_non_finite_information_sum_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "_joint_mi_nats", lambda joint: np.full(len(joint), np.nan))
        with pytest.raises(FloatingPointError):
            mi_direct(1, sys11(t_total=2))

    def test_symmetry_reduction_matches_full_enumeration(self):
        s = sys11(t_total=3, rho=10.0)
        for t_t in (1, 2):
            a = reff_exact(t_t, s, use_symmetry=True)
            b = reff_exact(t_t, s, use_symmetry=False)
            assert a == pytest.approx(b, abs=1e-12)
        s2 = SmallSystem(2, 2, 2, 5.0, ChannelIntegration.quadrature(8))
        assert reff_exact(1, s2, use_symmetry=True) == pytest.approx(
            reff_exact(1, s2, use_symmetry=False), abs=1e-12)


def loop_reff_exact(t_t, s):
    """reff_exact with one Python iteration per (class, Y_t): the reference
    the batched d-pipeline must match bit for bit."""
    tab = _Tables(s, t_t)
    n_inputs = 4 ** s.m
    total = 0.0
    for cols, count in _training_classes(s.m, t_t, True):
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


def loop_mi_direct(t_t, s):
    """mi_direct with one Python iteration per (training matrix, Y_t): the
    reference the batched direct pipeline must match bit for bit."""
    h, logw = _channel_nodes(s, t_t, stream=1)
    w = np.exp(logw)
    x_cols = _input_vectors(s.m)
    n_inputs = x_cols.shape[0]
    z = math.sqrt(s.rho / s.m) * (h @ x_cols.T)
    qr_p, qi_p = q_function(-math.sqrt(2.0) * z.real), q_function(-math.sqrt(2.0) * z.imag)
    qr_m, qi_m = 1.0 - qr_p, 1.0 - qi_p
    g = np.ascontiguousarray(
        np.stack([qr_p * qi_p, qr_p * qi_m, qr_m * qi_p, qr_m * qi_m], axis=0).transpose(2, 0, 1))
    strings = _strings(t_t)
    nats = 0.0
    for cols in itertools.product(range(n_inputs), repeat=t_t):
        gg = np.tile(w, (len(strings), 1))
        for p, c in enumerate(cols):
            gg *= g[c, strings[:, p], :]
        pr = np.einsum("sk,xyk->xsy", gg, g, optimize=True)
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
            nats += float(joint[mask] @ np.log(ratio))
    nats /= 4 ** (s.m * t_t)
    return max(0.0, nats / (s.m * math.log(2.0)))


class TestBatchedPipelines:
    # M=2, N=1 at 25 dB with order 8 has training outputs with zeros in the
    # joint law, which the direct pipeline sums over the nonzero entries; the
    # last case changes its last bit if p(Y_t) is taken with np.exp
    @pytest.mark.parametrize("s, t_t", [
        (SmallSystem(1, 1, 4, 10.0, QUAD24), 1),
        (SmallSystem(1, 1, 4, 10.0, QUAD24), 3),
        (SmallSystem(1, 2, 3, 5.0, QUAD24), 2),
        (SmallSystem(2, 1, 3, 10 ** 2.5, ChannelIntegration.quadrature(8)), 2),
        (SmallSystem(2, 2, 2, 10.0, ChannelIntegration.monte_carlo(2_000, seed=7)), 1),
        (SmallSystem(2, 2, 3, 10 ** 2.5, ChannelIntegration.monte_carlo(20_000, seed=0)), 1),
    ], ids=["m1n1-t1", "m1n1-t3", "m1n2-t2", "m2n1-25dB-t2", "m2n2-mc-t1", "m2n2-mc-25dB-t1"])
    def test_rates_equal_the_per_output_loop(self, s, t_t):
        assert reff_exact(t_t, s) == loop_reff_exact(t_t, s)
        assert mi_direct(t_t, s) == loop_mi_direct(t_t, s)


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
        res, curve = c_bound_exact(SmallSystem(2, 2, 3, 10.0, ChannelIntegration.quadrature(8)))
        assert res.params.alpha == 1.0 and res.params.beta == 1.5
        assert curve.beta_t.tolist() == [0.5, 1.0]


class TestMonteCarlo:
    def test_bit_reproducible_for_fixed_seed(self):
        s = SmallSystem(1, 1, 3, 10.0, ChannelIntegration.monte_carlo(20_000, seed=42))
        assert reff_exact(1, s) == reff_exact(1, s)
        assert mi_direct(1, s) == mi_direct(1, s)

    def test_seed_changes_the_estimate(self):
        a = SmallSystem(1, 1, 2, 10.0, ChannelIntegration.monte_carlo(5_000, seed=0))
        b = SmallSystem(1, 1, 2, 10.0, ChannelIntegration.monte_carlo(5_000, seed=1))
        assert reff_exact(1, a) != reff_exact(1, b)

    def test_pipelines_use_independent_streams(self):
        s = SmallSystem(1, 1, 2, 10.0, ChannelIntegration.monte_carlo(5_000, seed=0))
        assert reff_exact(1, s) != mi_direct(1, s)

    def test_converges_to_quadrature_value(self):
        quad = reff_exact(1, sys11(t_total=2, rho=10.0))
        mc = reff_exact(1, SmallSystem(1, 1, 2, 10.0,
                                       ChannelIntegration.monte_carlo(400_000, seed=3)))
        assert mc == pytest.approx(quad, abs=5e-3)


class TestValidationAndBudget:
    def test_antenna_counts_capped(self):
        with pytest.raises(ValueError):
            SmallSystem(3, 1, 3, 1.0)
        with pytest.raises(ValueError):
            SmallSystem(1, 3, 3, 1.0)

    def test_block_length_capped(self):
        with pytest.raises(ValueError):
            SmallSystem(1, 1, 6, 1.0)

    def test_enumeration_budget_enforced(self):
        s = SmallSystem(2, 2, 5, 1.0, ChannelIntegration.quadrature(8))
        with pytest.raises(EnumerationBudgetError) as exc:
            reff_exact(4, s)
        assert exc.value.terms == 4 ** 8 * 4 ** 8

    def test_training_length_range_checked(self):
        with pytest.raises(ValueError):
            reff_exact(3, sys11(t_total=3))

    def test_alphabet_membership_checked(self):
        s = sys11()
        with pytest.raises(ValueError):
            d2(np.array([[0.5 + 0.5j]]), SIGN_OUT[[0]].reshape(1, 1), 1, s)
