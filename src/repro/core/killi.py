"""Killi protection scheme (paper Section 4).

Glues together the DFH decision rule (:mod:`repro.core.policy`: Table 2
for the SECDED ECC cache, or the Section 5.2/5.5 strong-code rule), the
per-line error model, and the ECC cache into a
:class:`repro.cache.ProtectionScheme` that the write-through L2 drives.
Responsibilities:

- **Fill** — resample unmasked faults for the new contents; lines in
  DFH b'01 / b'10 allocate an ECC-cache entry, possibly evicting (and
  thereby invalidating) another L2 line's entry — the contention
  mechanism behind Figure 4/5's sensitivity to ECC-cache size.
- **Read hit** — ask the rule for the line's next DFH state and
  outcome, and translate it to a cache outcome (clean hit / corrected
  hit / error-induced miss that invalidates or disables the line).
- **Eviction** — optional training: b'01 lines are classified from
  their evicted contents (Section 4.4), so DFH warmup does not require
  a hit.
- **Victim priority** — invalid lines are filled in DFH order
  b'01 > b'00 > b'10 (Section 4.4).
- **Reset** — voltage change / reboot clears all DFH bits back to
  b'01 and flushes the ECC cache (Section 2.4: Killi relearns the
  fault population of the new voltage).
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome, ProtectionScheme
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.ecc_cache import EccCache
from repro.core.layout import LineLayout
from repro.core.linestate import LineErrorModel
from repro.core.policy import (
    CORRECTED,
    PRIORITY_BY_DFH,
    RETRAIN,
    StrongCodePolicy,
    Table2Policy,
)
from repro.faults.fault_map import FaultMap
from repro.faults.soft_errors import SoftErrorInjector

__all__ = ["KilliScheme"]

# Plain-int DFH values and names for the hot paths (IntEnum lookups
# and constructions are an order of magnitude slower than int compares).
_STABLE_0 = int(Dfh.STABLE_0)
_INITIAL = int(Dfh.INITIAL)
_STABLE_1 = int(Dfh.STABLE_1)
_DISABLED = int(Dfh.DISABLED)
_NAMES = tuple(Dfh(v).name for v in range(4))
#: Cache outcome per policy outcome code.
_OUTCOMES = (
    AccessOutcome.CLEAN,
    AccessOutcome.CORRECTED,
    AccessOutcome.RETRAIN_MISS,
    AccessOutcome.DISABLE_MISS,
)


class KilliScheme(ProtectionScheme):
    """The Killi mechanism as a cache protection scheme.

    Parameters
    ----------
    geometry:
        Geometry of the protected L2.
    fault_map:
        Persistent LV fault map covering ``geometry.n_lines`` lines of
        :class:`~repro.core.layout.LineLayout` width.
    voltage:
        Normalized LV operating point of the data array.
    config:
        Killi knobs (ECC-cache ratio, segments, policy switches).
    rng:
        Stream for fault-masking coin flips.
    soft_injector:
        Optional transient-error injector exercised on read hits.
    code:
        Registry name of a ``t``-error-correcting ECC-cache code
        ("dected", "olsc-t11", ...) for the Section 5.2/5.5 variant;
        None (default) stores SECDED and classifies by Table 2.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap,
        voltage: float,
        config: KilliConfig | None = None,
        rng: np.random.Generator | None = None,
        soft_injector: SoftErrorInjector | None = None,
        code: str | None = None,
    ):
        super().__init__()
        self.geometry = geometry
        self.config = config if config is not None else KilliConfig()
        self.voltage = voltage
        self.layout = LineLayout(data_bits=geometry.line_bits)
        self.errors = LineErrorModel(
            fault_map,
            voltage,
            rng if rng is not None else np.random.default_rng(0),
            layout=self.layout,
            lv_faults_in_ecc_cache=self.config.lv_faults_in_ecc_cache,
            interleaved_parity=self.config.interleaved_parity,
        )
        self.ecc = EccCache(
            self.config.ecc_entries(geometry.n_lines),
            self.config.ecc_assoc,
            l2_shape=(geometry.n_sets, geometry.associativity),
        )
        self.soft_injector = soft_injector
        self.policy = (
            Table2Policy(self.errors, self.config)
            if code is None
            else StrongCodePolicy(self.errors, self.config, code)
        )
        # The error model's int rows (0 = clean); it edits the list in
        # place, so this alias stays current.
        self._rows = self.errors._rows
        self._assoc = geometry.associativity
        # DFH states live in a flat int8 array so vectorized consumers
        # (histograms, the disabled fraction) can read them wholesale.
        # Scalar probes/writes — every access path — go through a
        # memoryview over the same buffer: plain-int results at
        # list-indexing speed, where numpy scalar access is severalfold
        # slower.  Entries are always plain ints (0..3).
        self._dfh_np = np.full(geometry.n_lines, _INITIAL, dtype=np.int8)
        self.dfh = memoryview(self._dfh_np)
        # Per-set count of lines in a state other than INITIAL,
        # maintained incrementally by _set_dfh so the fill-priority
        # probes are O(1) (0 means every way still carries the same
        # fill priority).
        self._off_initial_np = np.zeros(geometry.n_sets, dtype=np.int32)
        self._off_initial_in_set = memoryview(self._off_initial_np)
        # Transition counters as a dense 4x4 (old, new) array; the
        # dict-of-name-tuples shape tests and the harness consume is a
        # property view built on demand.
        self._transitions_np = np.zeros((4, 4), dtype=np.int64)
        self._transitions_mv = memoryview(self._transitions_np)
        self.sdc_events = 0
        self.hits_served = 0
        self._interp = None

    def detach(self) -> None:
        super().detach()
        self._interp = None

    # -- internals ---------------------------------------------------------

    def _line_id(self, set_index: int, way: int) -> int:
        return set_index * self._assoc + way

    def _dfh(self, line_id: int) -> Dfh:
        return Dfh(int(self.dfh[line_id]))

    def _set_dfh(self, line_id: int, old: int, new: int) -> None:
        # old/new compare and index as ints (IntEnum callers included).
        if old == new:
            return
        old = int(old)
        new = int(new)
        self.dfh[line_id] = new
        set_index = line_id // self._assoc
        if old == _INITIAL:
            self._off_initial_in_set[set_index] += 1
        elif new == _INITIAL:
            self._off_initial_in_set[set_index] -= 1
        self._transitions_mv[old, new] += 1

    # -- ProtectionScheme hooks ---------------------------------------------

    def on_fill(self, set_index: int, way: int) -> None:
        line_id = set_index * self._assoc + way
        value = self.dfh[line_id]
        if value == _DISABLED:
            raise AssertionError("fill into a disabled line")
        tag = self.cache.tags.tag_at(set_index, way)
        self.errors.on_fill(line_id, salt=tag)
        if value == _INITIAL or value == _STABLE_1:
            evicted = self.ecc.insert(set_index, way)
            if evicted is not None:
                self._handle_ecc_eviction(*evicted)

    def _handle_ecc_eviction(self, set_index: int, way: int) -> None:
        """An L2 line just lost its ECC-cache entry to contention.

        The departing entry still holds the line's checkbits, so the
        controller classifies the line on the way out (the same
        hardware path as eviction training).  Lines found fault-free
        transition to b'00 and stay resident — this is the paper's
        "as cache lines are accessed or evicted, Killi discovers lines
        with no errors ... reducing the number of cache misses due to
        ECC cache evictions".  Lines that still need checkbits cannot
        remain protected and are invalidated; lines with multi-bit
        errors are disabled.
        """
        line_id = self._line_id(set_index, way)
        value = int(self.dfh[line_id])
        if value == _STABLE_0:
            # Only the write-back variant protects b'00 (dirty) lines.
            # Losing the checkbits leaves the dirty data parity-only;
            # write it back now (invalidate_line handles the
            # write-back) so a later fault cannot lose it.
            if self.errors.has_data_errors(line_id):
                self.sdc_events += 1  # corrupt dirty data written back
            self.cache.invalidate_line(set_index, way, reason="ecc_evict")
            return
        if value not in (_INITIAL, _STABLE_1):
            raise AssertionError("ECC entry existed for an unprotected line")
        nxt = self.policy.evicted(value, line_id, self._rows[line_id])
        self._set_dfh(line_id, value, nxt)
        if nxt == _STABLE_0:
            # Fault-free: 4-bit parity suffices; the line stays valid.
            self.cache.stats.bump("ecc_evict_reclassified_clean")
            return
        if nxt == _DISABLED:
            self.cache.tags.disable(set_index, way)
            self.cache.lru.demote(set_index, way)
            self.cache.stats.bump("ecc_evict_disables")
            self.errors.clear(line_id)
            return
        # Still needs checkbits (b'01 unresolved or b'10): unprotected
        # data cannot stay resident.
        self.cache.invalidate_line(set_index, way, reason="ecc_evict")

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        line_id = set_index * self._assoc + way
        if self.soft_injector is not None:
            offsets = self.soft_injector.sample_event(self.layout.total_bits)
            if offsets is not None:
                self.errors.add_soft_error(line_id, offsets)
        value = self.dfh[line_id]
        row = self._rows[line_id]
        if not row and value == _STABLE_0:
            # A clean b'00 line: by far the most common hit.
            self.hits_served += 1
            return AccessOutcome.CLEAN
        nxt, outcome, sdc = self.policy.read_hit(value, line_id, row)
        self._set_dfh(line_id, value, nxt)
        if outcome >= RETRAIN:
            # The cache will invalidate or disable the line; drop our
            # per-content state now (the tag store won't call back).
            self.ecc.remove(set_index, way)
            self.errors.clear(line_id)
            return _OUTCOMES[outcome]
        self.hits_served += 1
        self.sdc_events += sdc
        if nxt == _STABLE_0:
            # 4-bit parity suffices: free the entry (b'00 has none).
            self.ecc.remove(set_index, way)
        elif self.ecc.contains(set_index, way):
            # The line still needs its checkbits: promote the entry.
            self.ecc.touch(set_index, way)
        if outcome == CORRECTED and self.cache is not None:
            self.cache.stats.bump("ecc_corrections")
        return _OUTCOMES[outcome]

    def batch_interpreter(self, cache):
        """In-place interpreter for the batched engine.

        The interpreter
        (:class:`repro.core.killi_replay.KilliClusterInterpreter`)
        handles *every* access — DFH warmup, classification, ECC-cache
        contention and the shared-RNG write hits included — in one
        global-order pass per kernel.  It is Killi's only batching
        path: the scheme overrides the behavioural hooks, so its
        :meth:`lockstep_mask` is always None.  The interpreter decides
        through the scheme's own policy, so both rules batch.  Gated
        to exactly this class (subclasses may change semantics the
        interpreter replicates, so they run per-access) and to runs
        without a soft-error injector (whose per-hit sampling draws
        shared RNG).
        """
        if type(self) is not KilliScheme:
            return None
        if self.soft_injector is not None:
            return None
        if cache is not self.cache:
            return None
        if self._interp is None:
            from repro.core.killi_replay import KilliClusterInterpreter

            self._interp = KilliClusterInterpreter(self, cache)
        self._interp.begin_kernel()
        return self._interp

    def on_write_hit(self, set_index: int, way: int) -> None:
        line_id = set_index * self._assoc + way
        self.errors.on_write_hit(line_id)
        if self.ecc.contains(set_index, way):
            # New checkbits were generated and stored: promote.
            self.ecc.touch(set_index, way)

    def on_evict(self, set_index: int, way: int) -> None:
        line_id = set_index * self._assoc + way
        value = self.dfh[line_id]
        if value == _INITIAL and self.config.train_on_evict:
            # Section 4.4: classify the evicted contents so training
            # progresses without waiting for a hit.
            nxt = self.policy.evicted(value, line_id, self._rows[line_id])
            self._set_dfh(line_id, value, nxt)
            if nxt == _DISABLED:
                self.cache.tags.disable(set_index, way)
        self.ecc.remove(set_index, way)
        self.errors.clear(line_id)

    def on_invalidated(self, set_index: int, way: int) -> None:
        line_id = self._line_id(set_index, way)
        self.ecc.remove(set_index, way)
        self.errors.clear(line_id)

    def fill_priorities(self, set_index: int, ways) -> list:
        if not self.config.priority_replacement:
            return [0] * len(ways)
        base = set_index * self._assoc
        dfh = self.dfh[base : base + self._assoc]
        prio = PRIORITY_BY_DFH
        return [prio[dfh[way]] for way in ways]

    def fill_priority_is_uniform(self, set_index: int) -> bool:
        if not self.config.priority_replacement:
            return True
        return self._off_initial_in_set[set_index] == 0

    def on_reset(self) -> None:
        self._dfh_np[:] = _INITIAL
        self._off_initial_np[:] = 0
        self.ecc.clear()
        self.errors.clear_all()
        self.policy.clear()

    def change_voltage(self, voltage: float) -> None:
        """Move the LV array to a new operating point (paper Sec 2.4).

        Flushes the cache, resets every DFH bit to b'01 and relearns
        the (different) fault population of the new voltage — Killi's
        replacement for re-running MBIST.  Previously disabled lines
        become available again (faults are monotonic, so raising the
        voltage can only shrink the fault population).
        """
        if voltage < self.errors.fault_map.floor_voltage:
            raise ValueError(
                f"voltage {voltage} below the fault map floor "
                f"{self.errors.fault_map.floor_voltage}"
            )
        self.voltage = voltage
        self.errors.voltage = voltage
        self.cache.reset()  # invalidates, re-enables, calls on_reset

    # -- diagnostics ----------------------------------------------------------

    @property
    def transitions(self) -> dict:
        """DFH transition counts as ``{(old_name, new_name): count}``.

        A dict view over the dense 4x4 counter array; only transitions
        that occurred appear as keys (matching the historical
        dict-of-tuples accounting).
        """
        t = self._transitions_np
        return {
            (_NAMES[old], _NAMES[new]): int(t[old, new])
            for old in range(4)
            for new in range(4)
            if t[old, new]
        }

    def dfh_histogram(self) -> dict:
        """Count of lines per DFH state."""
        counts = np.bincount(self._dfh_np, minlength=4)
        return {Dfh(v).name: int(c) for v, c in enumerate(counts) if c}

    def disabled_fraction(self) -> float:
        """Fraction of all lines currently in DFH b'11."""
        n = len(self._dfh_np)
        return int(np.count_nonzero(self._dfh_np == _DISABLED)) / n
