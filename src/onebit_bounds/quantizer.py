"""The complex sign quantizer and its output likelihood.

The one hard nonlinearity of a one-bit transceiver is

    sign(z) = sign(Re z) + j sign(Im z),

whose output alphabet is {+-1 +- j}.  For a noise-free value z disturbed by
circularly symmetric complex Gaussian noise v of unit variance (each real
component has variance 1/2), the chance of observing output y factors into
two Gaussian tails:

    P(sign(z + v) = y) = Q(-sqrt(2) Re(z) Re(y)) * Q(-sqrt(2) Im(z) Im(y)).

The noise variance is fixed at 1 and rho carries all SNR scaling; noise of
variance s on z gives the same table as unit noise on z / sqrt(s).

The exact d-pipeline takes its likelihood tables from here; ``mi_direct``
keeps its own linear-domain coding as an independent cross-check.
"""
from __future__ import annotations

import math

import numpy as np

from .numerics import log_q_function

__all__ = ["SIGN_OUTPUTS", "sign_log_likelihoods"]

#: Output alphabet of the sign quantizer, in canonical enumeration order.
SIGN_OUTPUTS = (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)


def sign_log_likelihoods(z) -> np.ndarray:
    """ln P(sign(z + v) = y) for v ~ CN(0, 1) and every y in
    :data:`SIGN_OUTPUTS`, as an array of shape ``(4,) + z.shape``.

    Each output's value is the sum of two log-tails, so long products of
    likelihood factors can be summed without underflow.  The four tails are
    evaluated once per element of z and shared by the four outputs.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)].flat[0]}")
    a = math.sqrt(2.0)
    re_p, re_m = log_q_function(-a * z.real), log_q_function(a * z.real)
    im_p, im_m = log_q_function(-a * z.imag), log_q_function(a * z.imag)
    return np.stack([re_p + im_p, re_p + im_m, re_m + im_p, re_m + im_m])
