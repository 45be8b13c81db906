"""Special functions and Gaussian expectations against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from onebit_bounds import numerics
from onebit_bounds.numerics import (
    exp_ratio,
    gauss_hermite,
    log_q_function,
    mean_exp_ratio,
    mean_q_log_q,
    q_function,
    q_log_q,
    tail_fit,
)
from onebit_bounds.replica import _tanh_fit

mp.mp.dps = 40


def mp_q(x):
    return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_limits(self):
        assert q_function(np.inf) == 0.0
        assert q_function(-np.inf) == 1.0

    def test_against_high_precision_erfc(self):
        # frozen from the mpmath oracle at dps=40
        assert q_function(1.0) == pytest.approx(0.15865525393145707, rel=1e-15)
        for x in (-6.0, -2.5, -0.3, 0.7, 3.1, 8.0, 20.0):
            assert q_function(x) == pytest.approx(float(mp_q(x)), rel=1e-13)

    def test_reflection_property(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        np.testing.assert_allclose(q_function(xs) + q_function(-xs), 1.0, atol=1e-15)

    def test_monotone_decreasing(self):
        # strict inside |x| <= 8; beyond, Q saturates to the float 0/1
        xs = np.linspace(-8, 8, 401)
        assert np.all(np.diff(q_function(xs)) < 0)


class TestLogQFunction:
    def test_at_zero(self):
        assert log_q_function(0.0) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_far_left_tail_vanishes(self):
        # Q -> 1 so ln Q -> 0
        assert abs(log_q_function(-40.0)) < 1e-300

    def test_deep_tail_against_quadrature_oracle(self):
        # extended-precision oracle of the tail integral, frozen at dps=40
        assert log_q_function(40.0) == pytest.approx(-804.6084420137538, rel=1e-12)

    def test_deep_tail_against_asymptotic_series(self):
        x = 40.0
        series = 1 - 1 / x**2 + 3 / x**4 - 15 / x**6
        asym = -0.5 * x * x - math.log(x * math.sqrt(2 * math.pi)) + math.log(series)
        assert log_q_function(x) == pytest.approx(asym, rel=1e-10)

    def test_consistency_with_q_function(self):
        # relative where ln Q is well conditioned; eps-level absolute floor
        # where Q ~ 1, since float Q cannot carry ln Q precision there
        xs = np.linspace(-8.0, 25.0, 300)
        lq = log_q_function(xs)
        np.testing.assert_allclose(lq, np.log(q_function(xs)), rtol=1e-12, atol=5e-16)


class TestExpRatio:
    def test_at_zero(self):
        assert exp_ratio(0.0) == pytest.approx(2.0, rel=1e-15)

    def test_left_tail_is_plain_exponential(self):
        # Q(-5) ~ 1, so the ratio collapses to exp(-25)
        assert exp_ratio(-5.0) == pytest.approx(math.exp(-25.0), rel=1e-6)
        assert exp_ratio(-5.0) == pytest.approx(1.3887947845966101e-11, rel=1e-9)

    def test_against_high_precision_oracle(self):
        # frozen from mpmath: exp(-9)/Q(3)
        assert exp_ratio(3.0) == pytest.approx(0.09142157495974251, rel=1e-12)
        for x in (-4.0, -1.2, 0.5, 2.0, 6.0, 10.0):
            oracle = float(mp.exp(-mp.mpf(x) ** 2) / mp_q(x))
            assert exp_ratio(x) == pytest.approx(oracle, rel=1e-12)

    def test_consistency_identity(self):
        xs = np.linspace(-5.0, 5.0, 501)
        np.testing.assert_allclose(exp_ratio(xs) * q_function(xs), np.exp(-xs * xs), rtol=1e-12)

    def test_right_tail_asymptote(self):
        x = 30.0
        assert exp_ratio(x) == pytest.approx(x * math.sqrt(2 * math.pi) * math.exp(-x * x / 2), rel=1e-3)

    def test_extreme_arguments_stay_finite(self):
        vals = exp_ratio(np.array([-60.0, -40.0, 40.0, 60.0]))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)


class TestQuadratureRule:
    def test_weights_are_a_probability_measure(self):
        for order in (16, 64, 128, 256):
            rule = gauss_hermite(order)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_constant_and_variance(self):
        rule = gauss_hermite(128)
        assert rule.weights @ np.ones_like(rule.nodes) == pytest.approx(1.0, abs=1e-12)
        assert rule.weights @ rule.nodes ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_monomial_exactness(self):
        rule = gauss_hermite(32)
        exact = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}
        for k, target in exact.items():
            assert rule.weights @ rule.nodes ** k == pytest.approx(target, rel=1e-9)
        for k in (1, 3, 5, 7):
            assert abs(rule.weights @ rule.nodes ** k) < 1e-9

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite(1)


class TestExpectNormal:
    def test_q_ln_q_against_adaptive_quadrature(self):
        # scipy.integrate.quad oracle; the integral is exactly -1/4
        oracle, err = integrate.quad(
            lambda u: float(q_log_q(u)) * math.exp(-u * u / 2) / math.sqrt(2 * math.pi),
            -np.inf, np.inf,
        )
        assert err < 1e-7
        rule = gauss_hermite(128)
        got = rule.weights @ q_log_q(rule.nodes)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(-0.25, abs=1e-10)


class TestGaussianTailMeans:
    """E_u[exp_ratio(a u)] and E_u[Q ln Q(a u)] from a = 0 to 1e6, where a
    Gauss-Hermite rule on the raw integrand is 100% off from a = 100 up."""

    # mpmath at dps=40, adaptive quad of the raw integrands split at 0 and
    # +-1/a, frozen to 20 digits; a = 0 gives 2 and -ln(2)/2 exactly
    MPMATH = [
        (0.0, 2.0, -0.34657359027997265471),
        (1e-3, 1.9999992732398834853, -0.34657343112513805708),
        (0.5, 1.8375949053193999582, -0.31250184275146318545),
        (3.0, 0.70795119718493328317, -0.11352180819804305572),
        (10.0, 0.22502699376650959257, -0.035840413541192466775),
        (100.0, 0.022638415664710180061, -0.00360304238515911609),
        (1e4, 0.0002263979839746364748, -0.000036032358282235266107),
        (1e6, 2.2639798535749034275e-6, -3.6032358475693792222e-7),
    ]

    @pytest.mark.parametrize("a, exp_ratio_mean, q_log_q_mean", MPMATH)
    def test_against_mpmath(self, a, exp_ratio_mean, q_log_q_mean):
        assert mean_exp_ratio(a) == pytest.approx(exp_ratio_mean, rel=1e-15, abs=0.0)
        assert mean_q_log_q(a) == pytest.approx(q_log_q_mean, rel=1e-15, abs=0.0)

    def test_batch_gives_the_bits_of_each_point(self, monkeypatch):
        monkeypatch.setattr(numerics, "_SLAB", 3)  # six slabs, the last partial
        a = np.array([[m[0] for m in self.MPMATH]] * 2)
        assert mean_exp_ratio(a).tolist() == [[float(mean_exp_ratio(v)) for v in a[0]]] * 2
        assert mean_q_log_q(a).tolist() == [[float(mean_q_log_q(v)) for v in a[0]]] * 2


class TestTailFit:
    """The Chebyshev fit of M(c) = E_w[2 / erfcx(c w)], the 48-node sum behind
    mean_exp_ratio, that the Gaussian overlap scan reads its signs from."""

    @staticmethod
    def node_sum(c):
        # the 48-node sum coded apart from numerics.expect, 10^4 points at a time
        rule = gauss_hermite(48)
        return np.concatenate([(2.0 / special.erfcx(np.outer(part, rule.nodes))) @ rule.weights
                               for part in np.array_split(c, 11)])

    def test_within_its_bound_on_the_whole_interval(self):
        fit = tail_fit()
        t = np.linspace(0.0, 1.0, 100_001)  # both ends included
        c = numerics._C_MAX * t
        assert c[-1] == numerics._C_MAX
        assert np.abs(fit(t) - self.node_sum(c)).max() <= fit.error * fit.peak
        assert fit.error < 1e-13

    @pytest.mark.parametrize("a", [0.0, 1e-8, 1.0, 1e3, 1e6])
    def test_mean_within_its_bound(self, a):
        mean, cap = tail_fit().at(a)
        exact = float(mean_exp_ratio(a))
        assert abs(exact) <= cap
        assert abs(mean - exact) <= tail_fit().error * cap

    def test_clenshaw_bits(self, monkeypatch):
        # the textbook recurrence, 2 x taken at every step, on both fits and
        # in slabs of 9 values, the last one partial
        fits = tail_fit(), _tanh_fit()  # built before the slab shrinks
        monkeypatch.setattr(numerics, "_SLAB", 3)
        t = np.linspace(0.0, 1.0, 1001)
        for fit in fits:
            x, b1, b2 = 2.0 * t - 1.0, 0.0, 0.0
            for ck in fit.coef[:0:-1]:
                b1, b2 = ck + 2.0 * x * b1 - b2, b1
            assert fit(t).tolist() == (fit.coef[0] + x * b1 - b2).tolist()

    def test_fit_follows_the_rule_in_force(self, monkeypatch):
        rule = numerics.QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]))
        production = tail_fit()
        monkeypatch.setattr(numerics, "gauss_hermite", lambda order: rule)
        fit = tail_fit()
        assert fit is not production and fit is tail_fit()
        t = np.linspace(0.0, 1.0, 7)
        c = numerics._C_MAX * t
        exact = 0.5 * (2.0 / special.erfcx(-c) + 2.0 / special.erfcx(c))
        assert np.abs(fit(t) - exact).max() <= fit.error * fit.peak
