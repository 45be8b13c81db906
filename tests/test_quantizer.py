"""Sign-quantizer likelihood table: values, normalization, sampled-noise consistency."""

import math

import numpy as np
import pytest

from onebit_bounds.quantizer import SIGN_OUTPUTS, sign_log_likelihoods
from onebit_bounds.numerics import log_q_function


def likelihoods(z, s_sq=1.0):
    # noise of variance s_sq on z gives the table of unit noise on z / sqrt(s_sq)
    return np.exp(sign_log_likelihoods(np.asarray(z) / math.sqrt(s_sq)))


class TestApply:
    """The quantizing map itself, as the table encodes it."""

    def test_sign_of_components(self):
        # with little noise the most likely output is the componentwise sign
        probs = likelihoods(complex(0.3, -2.1), 0.01)
        assert SIGN_OUTPUTS[int(np.argmax(probs))] == complex(1, -1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sign_log_likelihoods(complex(np.nan, 0.0))
        with pytest.raises(ValueError):
            sign_log_likelihoods(np.array([0j, complex(0.0, np.inf)]))


class TestLikelihood:
    def test_zero_input_is_uniform(self):
        for p in likelihoods(0j):
            assert p == pytest.approx(0.25, rel=1e-15)

    def test_noise_free_limit(self):
        t = 1e6
        assert likelihoods(complex(t, t))[0] == pytest.approx(1.0, abs=1e-12)

    def test_mixed_sign_value(self):
        # frozen from the mpmath oracle: Q(-sqrt2) * Q(sqrt2)
        got = likelihoods(complex(1, -1))[SIGN_OUTPUTS.index(1 + 1j)]
        assert got == pytest.approx(0.07246384339048045, rel=1e-12)

    def test_normalization_over_outputs(self):
        z = np.array([[complex(zre, zim) for zim in (-2.1, 0.4, 2.8)]
                      for zre in (-3.0, -0.7, 0.0, 1.3, 4.2)])
        for s_sq in (0.25, 1.0, 4.0):
            probs = likelihoods(z, s_sq)
            assert probs.shape == (4,) + z.shape
            np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_sign_flip_symmetry_is_exact(self):
        # P(y | z) = P(-y | -z); SIGN_OUTPUTS reversed is SIGN_OUTPUTS negated
        rng = np.random.default_rng(3)
        z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert tuple(-y for y in SIGN_OUTPUTS) == SIGN_OUTPUTS[::-1]
        w = z / math.sqrt(0.7)
        np.testing.assert_array_equal(sign_log_likelihoods(w), sign_log_likelihoods(-w)[::-1])


class TestLogLikelihood:
    def test_zero_input(self):
        for lp in sign_log_likelihoods(0j):
            assert lp == pytest.approx(math.log(0.25), rel=1e-15)

    def test_matches_log_of_likelihood(self):
        got = sign_log_likelihoods(complex(1, -1))[SIGN_OUTPUTS.index(1 + 1j)]
        assert got == pytest.approx(math.log(0.07246384339048045), rel=1e-12)

    def test_additivity_over_components(self):
        z, s_sq = complex(0.8, -1.7), 2.3
        a = math.sqrt(2.0 / s_sq)
        table = sign_log_likelihoods(z / math.sqrt(s_sq))
        for y, got in zip(SIGN_OUTPUTS, table):
            expected = float(log_q_function(-a * z.real * y.real) + log_q_function(-a * z.imag * y.imag))
            assert got == pytest.approx(expected, abs=1e-12)


class TestSampledNoiseConsistency:
    def test_monte_carlo_frequencies_match_likelihood(self):
        # 1e6 seeded draws of sign(z + v); frequencies within 4 standard errors
        rng = np.random.default_rng(12345)
        n = 1_000_000
        z = complex(0.6, -0.35)
        s_sq = 1.7
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(s_sq / 2.0)
        w = z + noise
        out_re = np.where(w.real >= 0, 1.0, -1.0)
        out_im = np.where(w.imag >= 0, 1.0, -1.0)
        for y, p in zip(SIGN_OUTPUTS, likelihoods(z, s_sq)):
            freq = float(np.mean((out_re == y.real) & (out_im == y.imag)))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4 * se
