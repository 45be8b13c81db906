"""Enumerable small systems: probability tables, rate pipelines, budget."""

import itertools
import math

import numpy as np
import pytest
from scipy import special

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
    training_outcomes,
)

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
        s = sys11()
        x_t = QPSK[[0, 2]].reshape(1, 2)
        outcomes = training_outcomes(x_t, 2, s)
        assert len(outcomes) == 16
        assert all(0.0 < o.weight <= 1.0 for o in outcomes)
        assert sum(o.weight for o in outcomes) == pytest.approx(1.0, abs=1e-8)
        for o in outcomes:
            assert o.y_t.shape == (1, 2)
            assert o.weight == pytest.approx(d2(o.x_t, o.y_t, 2, s), rel=1e-12)

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

    def test_symmetry_reduction_matches_full_enumeration(self):
        s = sys11(t_total=3, rho=10.0)
        for t_t in (1, 2):
            a = reff_exact(t_t, s, use_symmetry=True)
            b = reff_exact(t_t, s, use_symmetry=False)
            assert a == pytest.approx(b, abs=1e-12)
        s2 = SmallSystem(2, 2, 2, 5.0, ChannelIntegration.quadrature(8))
        assert reff_exact(1, s2, use_symmetry=True) == pytest.approx(
            reff_exact(1, s2, use_symmetry=False), abs=1e-12)


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
