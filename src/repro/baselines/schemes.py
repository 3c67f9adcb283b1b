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

    Optionally, ``model_training=True`` reproduces the capacity cost
    FLAIR's online characterisation would add: during the first
    ``training_accesses`` L2 accesses two of the 16 ways are under
    MBIST and the rest run in DMR, leaving 7/16 of the capacity usable
    (paper Section 5.3's discussion).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap,
        voltage: float,
        model_training: bool = False,
        training_accesses: int = 0,
    ):
        super().__init__(geometry, fault_map, voltage, correct_t=1)
        self.model_training = model_training
        self.training_accesses = training_accesses
        # 2 ways under test; remaining 14 ways halved by DMR -> 7 usable.
        self._usable_ways_during_training = max(
            1, (geometry.associativity - 2) // 2
        )

    def _in_training(self) -> bool:
        return (
            self.model_training
            and self.cache is not None
            and self.cache.stats.accesses < self.training_accesses
        )

    def is_line_usable(self, set_index: int, way: int) -> bool:
        if self._in_training():
            return way < self._usable_ways_during_training
        return True

    def filters_ways(self) -> bool:
        # Only the optional training window ever filters; the default
        # (pre-trained DFH, as the paper simulates FLAIR) never does.
        return self.model_training
