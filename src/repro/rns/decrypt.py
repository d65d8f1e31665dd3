"""Decryption rounding ``m = round(t * w / q) mod t`` in word-sized RNS.

FV decryption ends with a scale q -> t, the same division-and-rounding
the HPS method of Fig. 9 performs for Scale Q -> q. Halevi, Polyakov and
Shoup (CT-RSA 2019) apply the trick to decryption: with
``y_i = [w_i * q~_i]_{q_i}`` the CRT gives ``t*w/q = sum_i t*y_i/q_i - t*v``
for an integer ``v``, and writing ``t*y_i = a_i*q_i + r_i`` (exact in
int64) leaves

    m = (sum_i a_i + round(sum_i r_i / q_i)) mod t.

The fractional sum is evaluated in 60-bit fixed point: two 30-bit
long-division steps per channel, accumulated in hi/lo limbs as in
:func:`~repro.rns.scale.scale_hps`. Each channel's fraction is truncated
by less than one ulp, so the fixed-point sum is below the true one by
less than ``k`` ulps. A tie is impossible (``2t`` is coprime to the odd
``q``, so ``t*w/q`` is never a half-integer), and only a column whose
fraction lies within ``k`` ulps of one half can round the wrong way;
those columns alone take the exact big-integer fallback.
"""

from __future__ import annotations

import numpy as np

from ..utils import round_half_away
from .basis import RnsBasis

_MASK30 = (1 << 30) - 1
_HALF = 1 << 59
"""One half in the 60-fractional-bit fixed point."""


def hps_decrypt_round(basis: RnsBasis, t: int,
                      residues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``round(t * w / q) mod t`` for every column of a (k x n) matrix.

    Returns the plaintext coefficients and the indices of the columns
    that took the exact fallback (their fixed-point fraction was within
    ``k`` ulps of one half). Bit-identical to reconstructing the centered
    ``w`` and applying :func:`~repro.utils.round_half_away`.
    """
    primes = basis.primes_col
    # Reductions are written as x - (x // q_i) * q_i: numpy's floor
    # division by a per-row divisor is several times faster than %.
    y = residues * basis.q_tilde_col
    y -= (y // primes) * primes
    ty = y * t
    a = ty // primes
    # floor(r_i * 2^60 / q_i) as hi * 2^30 + lo.
    r = (ty - a * primes) << 30
    hi = r // primes
    lo = ((r - hi * primes) << 30) // primes
    s_lo = lo.sum(axis=0)
    s_hi = hi.sum(axis=0) + (s_lo >> 30)
    fraction = ((s_hi & _MASK30) << 30) | (s_lo & _MASK30)
    m = a.sum(axis=0) + (s_hi >> 30) + (fraction >= _HALF)
    m %= t
    ambiguous = np.flatnonzero(np.abs(fraction - _HALF) <= basis.size)
    for col in ambiguous.tolist():
        w = basis.reconstruct_centered(residues[:, col])
        m[col] = round_half_away(t * w, basis.modulus) % t
    return m, ambiguous
