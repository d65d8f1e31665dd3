"""Residue Number System arithmetic (paper Sections III-B, IV-C, IV-D).

The modules here are pure residue-vector mathematics, independent of both
the FV scheme and the hardware model:

* :mod:`~repro.rns.basis` — RNS bases with every precomputed constant the
  paper stores in on-chip ROMs (q*_i, q~_i, fixed-point reciprocals, the
  integer/fractional splits of t*p/q_i).
* :mod:`~repro.rns.lift` — Lift q->Q: traditional CRT (paper Eq. 1,
  Fig. 5) and the HPS approximate-CRT method (Eq. 2, Fig. 6).
* :mod:`~repro.rns.scale` — Scale Q->q: multi-precision (Fig. 8) and HPS
  (Fig. 9) variants.
* :mod:`~repro.rns.decompose` — WordDecomp: signed base-w digits and the
  RNS decomposition used for relinearisation.
* :mod:`~repro.rns.decrypt` — the decryption rounding round(t*w/q) mod t
  with the same HPS fixed-point method, exact via a per-column fallback.
"""

from .basis import LiftContext, RnsBasis, ScaleContext
from .decompose import (
    recompose_signed_digits,
    rns_decompose,
    signed_digit_decompose,
)
from .decrypt import hps_decrypt_round
from .lift import lift_hps, lift_traditional
from .scale import scale_hps, scale_traditional

__all__ = [
    "RnsBasis",
    "LiftContext",
    "ScaleContext",
    "hps_decrypt_round",
    "lift_hps",
    "lift_traditional",
    "scale_hps",
    "scale_traditional",
    "signed_digit_decompose",
    "recompose_signed_digits",
    "rns_decompose",
]
