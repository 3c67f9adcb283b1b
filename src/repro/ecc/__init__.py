"""Error-coding substrate.

Implements, bit-for-bit, every code the paper relies on:

- :mod:`repro.ecc.parity` — Killi's segmented + interleaved parity
  (16 x 1-bit during training, 4 x 1-bit in stable states).
- :mod:`repro.ecc.secded` — extended-Hamming SECDED; 11 checkbits
  protect a 512-bit line (523-bit codeword, checkbits themselves
  covered), exposing the *syndrome* and *global parity* signals the
  Killi FSM consumes (paper Table 2).
- :mod:`repro.ecc.gf2m` / :mod:`repro.ecc.bch` — GF(2^m) arithmetic and
  a generic shortened binary BCH code with Berlekamp–Massey decoding.
  Instantiated as DECTED (t=2), TECQED (t=3) and 6EC7ED (t=6), each
  extended with an overall parity bit for the extra detection order.
- :mod:`repro.ecc.olsc` — Orthogonal Latin Square codes with one-step
  majority-logic decoding, used by the MS-ECC baseline and by Killi's
  low-Vmin variant (paper Table 7).
- :mod:`repro.ecc.registry` — named constructors plus the checkbit
  counts the area model (paper Tables 4/5/7) is built on.
"""

from repro.ecc.base import BlockCode, DecodeResult, DecodeStatus
from repro.ecc.bch import BchCode, make_6ec7ed, make_dected, make_tecqed
from repro.ecc.olsc import OlscCode
from repro.ecc.parity import SegmentedParity
from repro.ecc.registry import CODE_REGISTRY, checkbits_for, make_code
from repro.ecc.secded import SecDedCode

__all__ = [
    "BlockCode",
    "DecodeResult",
    "DecodeStatus",
    "SegmentedParity",
    "SecDedCode",
    "BchCode",
    "make_dected",
    "make_tecqed",
    "make_6ec7ed",
    "OlscCode",
    "CODE_REGISTRY",
    "make_code",
    "checkbits_for",
]
