"""Generic MBIST-pre-characterised ECC protection scheme.

Models the whole family of "run MBIST at the LV transition, disable
lines with more faults than the per-line ECC can correct" techniques.
Because the fault population is known exactly (that is what MBIST
buys), enabled lines are always corrected successfully and the only
performance effect is the capacity lost to disabled lines — precisely
how the paper evaluates DECTED, FLAIR and MS-ECC.
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import (
    BEHAVIOURAL_HOOKS,
    AccessOutcome,
    ProtectionScheme,
    hooks_unchanged,
)
from repro.core.layout import LineLayout
from repro.faults.fault_map import FaultMap

__all__ = ["OracleEccScheme"]


class OracleEccScheme(ProtectionScheme):
    """MBIST + per-line t-error-correcting ECC.

    Parameters
    ----------
    geometry:
        Protected cache geometry.
    fault_map:
        Persistent fault map (LineLayout coordinates).
    voltage:
        Normalized LV operating point.
    correct_t:
        ECC correction capability per line; lines with more faults are
        disabled up front.
    count_checkbits:
        Whether faults in the checkbit region count toward the
        per-line fault total (True for SECDED/DECTED whose checkbits
        sit in the same LV array; MS-ECC's OLSC checkbits are modelled
        as dedicated storage and excluded).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap,
        voltage: float,
        correct_t: int,
        count_checkbits: bool = True,
    ):
        super().__init__()
        if correct_t < 0:
            raise ValueError("correct_t must be >= 0")
        self.geometry = geometry
        self.fault_map = fault_map
        self.voltage = voltage
        self.correct_t = correct_t
        self.count_checkbits = count_checkbits
        layout = LineLayout(data_bits=geometry.line_bits)
        self.layout = layout

        counts = fault_map.fault_counts(voltage, 0, layout.data_bits)
        if count_checkbits:
            counts = counts + fault_map.fault_counts(
                voltage, layout.check_offset, layout.total_bits
            )
        self.fault_counts = counts
        # The lockstep kernel's CORRECTED mask: faulty ways within the
        # ECC budget (over-budget ways are disabled at attach and never
        # hit).  Line ids are set * assoc + way, so a row-major reshape
        # groups each set's ways; the fault population is static, so
        # the mask never changes.
        by_set = counts.reshape(geometry.n_sets, geometry.associativity)
        self._corrected = (by_set > 0) & (by_set <= correct_t)
        # May this instance run through the lockstep kernel?
        # True only when no subclass changed a hook the kernel would
        # have to re-model: this class owns the hit path, everything
        # else must still be the base no-op.  (FLAIR's training-mode
        # way filtering is gated separately through ``filters_ways``,
        # which makes the cache refuse before the scheme is
        # consulted — hence ``is_line_usable`` is not probed here.)
        self._replay_hooks_clean = hooks_unchanged(
            type(self),
            hooks=tuple(h for h in BEHAVIOURAL_HOOKS if h != "is_line_usable"),
            owners={"on_read_hit": OracleEccScheme},
        )

    def attach(self, cache) -> None:
        super().attach(cache)
        self._disable_overfaulted()

    def _disable_overfaulted(self) -> None:
        """MBIST result: disable every line with more than t faults."""
        geometry = self.geometry
        for line in np.nonzero(self.fault_counts > self.correct_t)[0]:
            set_index, way = divmod(int(line), geometry.associativity)
            self.cache.tags.disable(set_index, way)

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        line_id = self.geometry.line_id(set_index, way)
        if self.fault_counts[line_id] > 0:
            return AccessOutcome.CORRECTED
        return AccessOutcome.CLEAN

    def lockstep_mask(self, geometry):
        """The correctable faulty ways, whose hits serve as CORRECTED.

        The fault population is fully static: over-budget ways were
        disabled at attach (never filled; a set with none left
        bypasses), and there is no RNG, no shared structure and no
        state transition, so the mask holds for the whole run.
        Subclasses that change a behavioural hook opt out.
        """
        if not self._replay_hooks_clean:
            return None
        return self._corrected

    def on_reset(self) -> None:
        # The cache just re-enabled every way; MBIST runs again for the
        # (unchanged) operating point and disables the same lines.
        self._disable_overfaulted()

    def disabled_fraction(self) -> float:
        """Fraction of lines the MBIST pass disabled."""
        return float(np.count_nonzero(self.fault_counts > self.correct_t)) / len(
            self.fault_counts
        )
