"""Killi for write-back caches (paper Section 5.6.1).

The paper sketches the write-back extension: error protection of a
line holding *dirty* data is upgraded based on its DFH —

- dirty data in a DFH b'00 line gets SECDED checkbits in the ECC cache
  (matching the failure probability of a safe-voltage SECDED cache);
- dirty data in a DFH b'10 line gets DECTED, stored at no extra area
  by combining the entry's 12 freed parity bits with its 11 SECDED
  bits (21 <= 23);
- a detected-uncorrectable error on a dirty line is a DUE (data loss),
  counted by :class:`repro.cache.core.WriteBackCache`.

This increases ECC-cache contention (dirty b'00 lines now occupy
entries), which is exactly the cost the paper predicts; the write-back
benchmarks quantify it.
"""

from __future__ import annotations

from repro.cache.hooks import AccessOutcome
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme

__all__ = ["KilliWriteBackScheme"]


class KilliWriteBackScheme(KilliScheme):
    """Killi with per-DFH protection upgrades for dirty lines."""

    def on_dirty(self, set_index: int, way: int) -> None:
        line_id = self._line_id(set_index, way)
        dfh = self._dfh(line_id)
        if dfh is Dfh.STABLE_0 and not self.ecc.contains(set_index, way):
            # Dirty data in a fault-free line: allocate SECDED checkbits.
            evicted = self.ecc.insert(set_index, way)
            if evicted is not None:
                self._handle_ecc_eviction(*evicted)
            self.cache.stats.bump("dirty_secded_allocations")
        elif dfh is Dfh.STABLE_1:
            # Entry exists; upgrade its contents to DECTED (area-free).
            self.cache.stats.bump("dirty_dected_upgrades")

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        line_id = self._line_id(set_index, way)
        if int(self.dfh[line_id]) == int(Dfh.STABLE_0) and self.ecc.contains(
            set_index, way
        ):
            # Dirty b'00 line with on-demand SECDED: correct what the
            # plain parity path would have had to throw away.
            if not self.errors.is_dirty(line_id):
                self.hits_served += 1
                self.ecc.touch(set_index, way)
                return AccessOutcome.CLEAN
            signals = self.errors.signals(
                line_id, self.config.stable_segments, use_ecc=True
            )
            if signals.syndrome_zero and signals.global_parity_ok and (
                signals.sp_mismatches == 0
            ):
                self.hits_served += 1
                self.ecc.touch(set_index, way)
                return AccessOutcome.CLEAN
            if not signals.syndrome_zero and not signals.global_parity_ok:
                # Single-bit error: corrected thanks to the upgrade.
                self.hits_served += 1
                if not self.errors.correction_is_sound(line_id):
                    self.sdc_events += 1
                self.cache.stats.bump("ecc_corrections")
                self.ecc.touch(set_index, way)
                return AccessOutcome.CORRECTED
            # Multi-bit: retrain; the cache layer records the DUE.
            self._set_dfh(line_id, Dfh.STABLE_0, Dfh.INITIAL)
            self.ecc.remove(set_index, way)
            self.errors.clear(line_id)
            return AccessOutcome.RETRAIN_MISS
        return super().on_read_hit(set_index, way)
