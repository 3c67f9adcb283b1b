"""Low-voltage SRAM fault substrate.

The paper's design is driven by silicon measurements of 14nm FinFET
SRAM failure probabilities (Ganapathy et al., DAC'17 — paper Figure 1)
and the resulting per-line fault distribution (Figure 2).  Those
measurements are proprietary; this package substitutes an analytic
model calibrated to every anchor the paper publishes:

- failures are negligible above 0.675xVDD and grow exponentially below;
- at 0.625xVDD / 1GHz, >95% of 64B lines have fewer than two faults
  (we calibrate to ~99.9%: Figure 6's claim that every technique —
  including plain SECDED, which only detects 2 — classifies all lines
  correctly at 0.625xVDD requires P[<=2 faults] ~ 1, and the viability
  of the 1:256 ECC-cache ratio requires the one-fault line population
  to be small, ~3% of lines);
- at 0.600xVDD, ~99.8% of lines have <=11 faults (Table 7);
- at 0.575xVDD, ~69.6% of lines have <=11 faults (Table 7);
- failures are monotonic: a cell failing at voltage v fails at every
  v' < v and every frequency f' > f.

Modules:

- :mod:`repro.faults.cell_model` — Pcell(V, f) for the read-disturb and
  writeability mechanisms (Figure 1).
- :mod:`repro.faults.line_model` — binomial per-line fault statistics
  (Figure 2, Table 7 capacity targets).
- :mod:`repro.faults.fault_map` — persistent stuck-at fault maps over a
  cache geometry, monotonic in voltage by construction.
- :mod:`repro.faults.soft_errors` — transient (soft) error injection,
  including spatially-adjacent multi-bit events.
"""

from repro.faults.cell_model import CellFaultModel, FaultMechanism
from repro.faults.fault_map import FaultMap
from repro.faults.line_model import LineFaultModel
from repro.faults.soft_errors import SoftErrorInjector

__all__ = [
    "CellFaultModel",
    "FaultMechanism",
    "LineFaultModel",
    "FaultMap",
    "SoftErrorInjector",
]
