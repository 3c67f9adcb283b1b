"""The Killi mechanism (the paper's primary contribution).

- :mod:`repro.core.config` — Killi configuration (ECC-cache ratio,
  segment counts, policy ablation switches).
- :mod:`repro.core.dfh` — the Detected-Fault-History state machine:
  a faithful implementation of the paper's Table 2, including the
  missing-combination handling documented inline.
- :mod:`repro.core.layout` — the LV-resident bit layout of a protected
  line (data, segmented parity, SECDED checkbits).
- :mod:`repro.core.linestate` — per-line *effective error vector*
  tracking: unmasked persistent faults plus accumulated soft errors,
  and the (segmented parity, syndrome, global parity) signals derived
  from them.
- :mod:`repro.core.ecc_cache` — the small set-associative ECC cache
  holding checkbits + extra parity for lines in DFH b'01 / b'10.
- :mod:`repro.core.policy` — Killi's decision rules: Table 2 for the
  SECDED ECC cache and the Section 5.2/5.5 strong-code rule.
- :mod:`repro.core.killi` — :class:`KilliScheme`, the protection scheme
  that plugs the above into the write-through cache.
- :mod:`repro.core.datapath` — the bit-accurate data path (real
  512-bit contents, real encoders/decoders) used to cross-validate the
  sparse error-vector model.
"""

from repro.core.config import KilliConfig
from repro.core.datapath import BitAccurateDataPath
from repro.core.dfh import (
    Dfh,
    DfhAction,
    classify,
    classify_b00,
    classify_b01,
    classify_b10,
)
from repro.core.ecc_cache import EccCache
from repro.core.killi import KilliScheme
from repro.core.layout import LineLayout
from repro.core.linestate import LineErrorModel, Signals
from repro.core.writeback import KilliWriteBackScheme

__all__ = [
    "KilliConfig",
    "Dfh",
    "DfhAction",
    "classify",
    "classify_b00",
    "classify_b01",
    "classify_b10",
    "LineLayout",
    "LineErrorModel",
    "Signals",
    "EccCache",
    "KilliScheme",
    "KilliWriteBackScheme",
    "BitAccurateDataPath",
]
