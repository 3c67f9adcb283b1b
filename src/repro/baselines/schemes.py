"""Named baseline schemes: SECDED-per-line, DECTED, FLAIR, MS-ECC."""

from __future__ import annotations

from repro.baselines.oracle import OracleEccScheme
from repro.cache.geometry import CacheGeometry
from repro.faults.fault_map import FaultMap

__all__ = ["SecDedLineScheme", "DectedScheme", "FlairScheme", "MsEccScheme"]


class SecDedLineScheme(OracleEccScheme):
    """SECDED ECC per L2 line: correct 1 fault, disable 2+.

    The per-line-area reference point for the paper's Tables 4/5.
    """

    def __init__(self, geometry: CacheGeometry, fault_map: FaultMap, voltage: float):
        super().__init__(geometry, fault_map, voltage, correct_t=1)


class DectedScheme(OracleEccScheme):
    """DECTED ECC per L2 line: correct 2 faults, disable 3+ (paper 5.2)."""

    def __init__(self, geometry: CacheGeometry, fault_map: FaultMap, voltage: float):
        super().__init__(geometry, fault_map, voltage, correct_t=2)


class MsEccScheme(OracleEccScheme):
    """MS-ECC (Chishti et al.): OLSC correcting up to 11 errors per 64B line.

    The checkbits live in dedicated storage (the source of MS-ECC's
    38.6% area overhead), so only data-region faults count against the
    correction budget.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap,
        voltage: float,
        correct_t: int = 11,
    ):
        super().__init__(
            geometry, fault_map, voltage, correct_t=correct_t, count_checkbits=False
        )


class FlairScheme(OracleEccScheme):
    """FLAIR (Qureshi & Chishti, DSN'13).

    Steady state: SECDED per line, lines with 2+ faults disabled —
    identical to :class:`SecDedLineScheme`, which is exactly how the
    paper simulates it ("we skip training for the simulations with
    FLAIR and pre-train their DFH bits").
    """

    def __init__(self, geometry: CacheGeometry, fault_map: FaultMap, voltage: float):
        super().__init__(geometry, fault_map, voltage, correct_t=1)
