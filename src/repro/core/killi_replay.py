"""Batched replay interpreter for Killi.

The batched engine's probe path (:func:`repro.cache.soa.replay_clean_set`)
only batches *scheme-inert* sets; for Killi at low voltage that leaves
the busiest part of the kernel — DFH warmup, ECC-cache contention,
faulted-line classification — on the per-access Python path.  This
module batches the *general* case instead: a shadow interpreter that
simulates a kernel's whole L2-bound residue with full Killi semantics
(DFH classification, ECC-cache contention, eviction training, victim
priorities) against copy-on-write tag, LRU, DFH and ECC-cache state,
then commits the net effect to the real cache/scheme structures in
bulk.

The interpreter knows no decision rule.  Every classification asks the
scheme's policy (:mod:`repro.core.policy`: Table 2, or the strong-code
rule of Sections 5.2/5.5) with the slot's error row, exactly as the
scheme's own hooks ask it, so both rules batch.

Why one pass in global order
----------------------------
Every event in the model is deterministic except one: a write hit on a
slot with active LV faults re-rolls fault masking with the *shared*
RNG stream (:meth:`~repro.core.linestate.LineErrorModel.write_hit_row`).
The interpreter walks the residue once, in the order the scalar engine
reaches the L2, and simulates that write hit in place, so every draw
happens at the same point of the stream as in the scalar engine.
Fills use the deterministic masking coins
(:meth:`~repro.core.linestate.LineErrorModel.predicted_fill_row`),
memoised per (slot, salt).  Error rows are written straight through to
the error model: nothing else reads them while the residue runs.

ECC-cache contention couples L2 sets: an insert into ECC set ``c`` can
evict — and thereby invalidate or disable — a line of any L2 set with
``l2_set % ecc.n_sets == c``.  Each such *cluster* has one shadow ECC
set, shared by the shadows of its L2 sets.

Commit equivalences (vs the per-access reference path)
------------------------------------------------------
- *LRU*: touched ways are replayed through ``lru.touch`` in final
  recency order — same convention as ``bulk_apply_set_replays``;
  absolute clock values differ but the per-set age *order*, which is
  all the replacement policy reads, is identical.  ``demote`` calls are
  skipped: a demoted way is invalid, and ages of invalid ways are
  never consulted until a refill touches them.
- *Error rows*: already in the error model; the commit has none to
  write.
"""

from __future__ import annotations

from bisect import insort

from repro.cache.soa import export_set_state
from repro.core.dfh import Dfh
from repro.core.policy import CLEAN, CORRECTED, DISABLE, RETRAIN
from repro.testing.invariants import check_set_invariants, invariants_enabled

__all__ = ["KilliClusterInterpreter"]

_S0 = int(Dfh.STABLE_0)
_INI = int(Dfh.INITIAL)
_S1 = int(Dfh.STABLE_1)
_DIS = int(Dfh.DISABLED)

#: fill priority per DFH value (must match KilliScheme._PRIORITY).
#: INITIAL's priority (2) is the global maximum, so victim scans may
#: stop at the first INITIAL way: first-max tie-breaking cannot prefer
#: a later way once the maximum has been seen.
_PRIORITY = (1, 2, 0, 0)
_PRIO_MAX = 2


class _SetShadow:
    """Copy-on-write replay state of one L2 set.

    ``disabled``, ``new_disabled`` and ``touched`` are way bitmasks;
    ``ecc`` is the shadow ECC set of the set's cluster, shared with
    every other set of that cluster.
    """

    __slots__ = (
        "resident",
        "way_lines",
        "free",
        "disabled",
        "new_disabled",
        "touched",
        "dfh",
        "off_d",
        "ecc",
    )


class KilliClusterInterpreter:
    """Shadow interpreter over a kernel's L2-bound residue.

    Created once per (scheme, cache) pair via
    :meth:`~repro.core.killi.KilliScheme.batch_interpreter`; the engine
    calls :meth:`run` once per kernel.  Each ``run`` is one
    transaction: simulate the whole residue in global order, then
    commit the exact net effect.
    """

    def __init__(self, scheme, cache):
        self._scheme = scheme
        self._cache = cache
        self._errors = scheme.errors
        self._ecc = scheme.ecc
        self._ecc_n_sets = scheme.ecc.n_sets
        self._ecc_assoc = scheme.ecc.assoc
        geometry = cache.geometry
        self._assoc = geometry.associativity
        self._n_sets = geometry.n_sets
        self._line_bytes = geometry.line_bytes
        self._dfh_mv = scheme.dfh
        config = scheme.config
        self._train_on_evict = config.train_on_evict
        self._prio_repl = config.priority_replacement
        # The scheme's decision rule.  Only a rule that sees masked
        # faults can find a clean-row b'01 line dirty (when its slot has
        # active faults); the inline clean-row fast paths check that.
        self._policy = scheme.policy
        self._masked = scheme.policy.sees_masked_faults
        self._lat_hit = cache._lat_hit
        self._lat_hit_corrected = cache._lat_hit_corrected
        self._lat_miss = cache._lat_miss
        self._lat_tag = cache._lat_tag
        # Predicted fill rows, pure in (slot, salt) at a fixed voltage.
        self._row_memo: dict = {}
        self._memo_voltage = None
        self._act_off = None
        # Armed invariants (REPRO_CHECK_INVARIANTS): the commit
        # re-checks every committed set's structure.
        self._check_invariants = invariants_enabled()

    # -- lifecycle ---------------------------------------------------------

    def begin_kernel(self) -> None:
        """Revalidate the voltage-keyed row memo before a kernel runs."""
        errors = self._errors
        offsets = errors._act_offsets
        if offsets is None:
            offsets = errors._ensure_active()
        if errors.voltage != self._memo_voltage or offsets is not self._act_off:
            self._row_memo.clear()
            self._memo_voltage = errors.voltage
            self._act_off = offsets

    def _begin(self) -> None:
        self._sets: dict = {}
        # Shadow ECC sets by cluster, MRU first, as flat slot ints
        # (set * assoc + way): the hot paths already have the slot in
        # hand, so membership tests are int compares with no tuple
        # allocation.
        self._ecc_sets: dict = {}
        self._dfh_over: dict = {}
        self._trans = [0] * 16  # flat (old << 2 | new) transition counts
        self._d_ecc_acc = 0
        self._d_ecc_alloc = 0
        self._d_ecc_evict = 0
        self._d_reads = 0
        self._d_read_hits = 0
        self._d_read_misses = 0
        self._d_writes = 0
        self._d_write_hits = 0
        self._d_evictions = 0
        self._d_fills = 0
        self._d_bypasses = 0
        self._d_error_misses = 0
        self._d_corrected = 0
        self._d_invalidations = 0
        self._d_ecc_evict_inval = 0
        self._d_hits_served = 0
        self._d_sdc = 0
        self._d_ecc_corrections = 0
        self._d_reclass_clean = 0
        self._d_evict_disables = 0

    # -- shadow state ------------------------------------------------------

    def _materialize(self, set_index: int) -> _SetShadow:
        tags = self._cache.tags
        # Fresh lists (a slice, a comprehension): the shadow may
        # mutate them.
        way_lines, seed, free_ways = export_set_state(
            tags, self._cache.lru, set_index
        )
        st = _SetShadow()
        st.way_lines = way_lines
        st.resident = dict(seed)
        st.free = free_ways
        disabled = 0
        if tags.disabled_in_set[set_index]:
            for way in range(self._assoc):
                if tags.is_disabled(set_index, way):
                    disabled |= 1 << way
        st.disabled = disabled
        st.new_disabled = 0
        st.touched = 0
        # Per-way DFH values as a plain list: the overlay dict never
        # holds a slot before its set materializes (every write goes
        # through _set_dfh, which needs the shadow), so the real array
        # is authoritative here; _set_dfh keeps the copy in sync.
        assoc = self._assoc
        base = set_index * assoc
        st.dfh = self._scheme._dfh_np[base : base + assoc].tolist()
        st.off_d = 0
        cluster = set_index % self._ecc_n_sets
        ecc = self._ecc_sets.get(cluster)
        if ecc is None:
            ecc = [s * assoc + w for s, w in self._ecc._sets[cluster]]
            self._ecc_sets[cluster] = ecc
        st.ecc = ecc
        self._sets[set_index] = st
        return st

    def _set_dfh(self, st: _SetShadow, slot: int, old: int, new: int) -> None:
        if old == new:
            return
        self._dfh_over[slot] = new
        st.dfh[slot % self._assoc] = new
        if old == _INI:
            st.off_d += 1
        elif new == _INI:
            st.off_d -= 1
        self._trans[(old << 2) | new] += 1

    # -- shadow ECC cache --------------------------------------------------

    def _ecc_touch(self, st: _SetShadow, slot: int) -> None:
        self._d_ecc_acc += 1
        entries = st.ecc
        entries.remove(slot)
        entries.insert(0, slot)

    def _ecc_insert(self, st: _SetShadow, slot: int):
        """Insert; returns the evicted slot or None."""
        self._d_ecc_acc += 1
        entries = st.ecc
        if slot in entries:
            raise ValueError(f"ECC entry for slot {slot} already present")
        self._d_ecc_alloc += 1
        evicted = None
        if len(entries) >= self._ecc_assoc:
            evicted = entries.pop()
            self._d_ecc_evict += 1
        entries.insert(0, slot)
        return evicted

    @staticmethod
    def _ecc_remove(st: _SetShadow, slot: int) -> None:
        entries = st.ecc
        if slot in entries:
            entries.remove(slot)

    # -- error rows --------------------------------------------------------

    def _row_of(self, slot: int, salt: int) -> int:
        """Predicted int row of a fill of an active slot (0 = clean)."""
        key = (slot, salt)
        row = self._row_memo.get(key)
        if row is None:
            row = self._errors.predicted_fill_row(slot, salt)
            self._row_memo[key] = row
        return row

    # -- scheme semantics (mirrors KilliScheme / WriteThroughCache) --------

    def _uniform(self, st: _SetShadow, set_index: int) -> bool:
        if not self._prio_repl:
            return True
        return self._scheme._off_initial_in_set[set_index] + st.off_d == 0

    def _apply_hit(self, st: _SetShadow, slot: int, value: int, row: int) -> int:
        """The policy's read-hit decision, applied to the shadow state
        as ``KilliScheme.on_read_hit`` applies it; returns the outcome."""
        nxt, outcome, sdc = self._policy.read_hit(value, slot, row)
        if nxt == _S0 or outcome >= RETRAIN:
            self._ecc_remove(st, slot)
        self._set_dfh(st, slot, value, nxt)
        if outcome >= RETRAIN:
            self._errors.clear(slot)
            return outcome
        self._d_hits_served += 1
        self._d_sdc += sdc
        if outcome == CORRECTED:
            self._d_ecc_corrections += 1
        if nxt != _S0 and slot in st.ecc:
            self._ecc_touch(st, slot)
        return outcome

    def _invalidate_line(self, st: _SetShadow, set_index: int, way: int) -> None:
        """Shadow ``cache.invalidate_line(..., reason="ecc_evict")``."""
        line = st.way_lines[way]
        if line < 0:
            return
        del st.resident[line]
        st.way_lines[way] = -1
        insort(st.free, way)
        self._d_invalidations += 1
        self._d_ecc_evict_inval += 1
        slot = set_index * self._assoc + way
        self._ecc_remove(st, slot)
        self._errors.clear(slot)

    def _handle_ecc_eviction(self, set_index: int, way: int) -> None:
        st = self._sets.get(set_index)
        if st is None:
            st = self._materialize(set_index)
        slot = set_index * self._assoc + way
        value = st.dfh[way]
        # Only the write-back variant (never interpreted) protects b'00.
        if value != _INI and value != _S1:
            raise AssertionError("ECC entry existed for an unprotected line")
        nxt = self._policy.evicted(value, slot, self._errors._rows[slot])
        self._set_dfh(st, slot, value, nxt)
        if nxt == _S0:
            self._d_reclass_clean += 1
            return
        if nxt == _DIS:
            line = st.way_lines[way]
            if line >= 0:
                del st.resident[line]
                st.way_lines[way] = -1
            elif way in st.free:
                st.free.remove(way)
            st.disabled |= 1 << way
            st.new_disabled |= 1 << way
            self._d_evict_disables += 1
            self._errors.clear(slot)
            return
        self._invalidate_line(st, set_index, way)

    def _on_evict(self, st: _SetShadow, set_index: int, way: int) -> None:
        slot = set_index * self._assoc + way
        value = st.dfh[way]
        self._ecc_remove(st, slot)
        if value == _INI and self._train_on_evict:
            nxt = self._policy.evicted(value, slot, self._errors._rows[slot])
            self._set_dfh(st, slot, value, nxt)
            if nxt == _DIS:
                line = st.way_lines[way]
                del st.resident[line]
                st.way_lines[way] = -1
                st.disabled |= 1 << way
                st.new_disabled |= 1 << way
        self._errors.clear(slot)

    def _on_fill(self, st: _SetShadow, set_index: int, way: int, line: int) -> None:
        slot = set_index * self._assoc + way
        value = st.dfh[way]
        if value == _DIS:
            raise AssertionError("fill into a disabled line")
        # errors.on_fill, through the row memo.
        act = self._act_off
        if act[slot + 1] > act[slot]:
            self._errors.store_row(slot, self._row_of(slot, line // self._n_sets))
        else:
            self._errors.clear(slot)
        if value == _INI or value == _S1:
            evicted = self._ecc_insert(st, slot)
            if evicted is not None:
                assoc = self._assoc
                self._handle_ecc_eviction(evicted // assoc, evicted % assoc)

    def _choose_victim(self, st: _SetShadow, set_index: int):
        resident = st.resident
        if not st.disabled:
            if len(resident) == self._assoc:
                return next(iter(resident.values())), True
            if self._uniform(st, set_index):
                return st.free[0], False
        elif st.disabled.bit_count() == self._assoc:
            return None, False
        invalid = st.free  # invalid enabled ways, ascending (both branches)
        if invalid:
            if self._uniform(st, set_index):
                return invalid[0], False
            dfh_local = st.dfh
            prio = _PRIORITY
            best_way = invalid[0]
            best_p = -1
            for way in invalid:
                p = prio[dfh_local[way]]
                if p > best_p:  # first-max tie-break
                    best_p = p
                    best_way = way
                    if p == _PRIO_MAX:
                        break
            return best_way, False
        if not resident:
            return None, False
        return next(iter(resident.values())), True

    def _allocate(self, st: _SetShadow, set_index: int, line: int):
        for _ in range(self._assoc):
            victim, has_data = self._choose_victim(st, set_index)
            if victim is None:
                return None
            if has_data:
                self._d_evictions += 1
                self._on_evict(st, set_index, victim)
                if st.disabled >> victim & 1:
                    continue  # training disabled the victim: retry
                vline = st.way_lines[victim]
                del st.resident[vline]
                st.way_lines[victim] = -1
            else:
                st.free.remove(victim)
            st.way_lines[victim] = line
            st.resident[line] = victim
            self._d_fills += 1
            self._on_fill(st, set_index, victim, line)
            st.touched |= 1 << victim
            return victim
        return None

    # -- transaction driver ------------------------------------------------

    def run(self, lines, stores, lat, set_idx) -> None:
        """Interpret a kernel's L2-bound residue and commit it.

        ``lines``/``stores``/``set_idx`` are the residue's per-access
        line numbers, store flags and L2 set indices, in the order the
        scalar engine reaches the L2; ``lat`` receives each access's
        latency.
        """
        self._begin()
        n_sets = self._n_sets
        assoc = self._assoc
        sets = self._sets
        act = self._act_off
        errors = self._errors
        rows = errors._rows
        store_row = errors.store_row
        write_hit_row = errors.write_hit_row
        row_of = self._row_of
        masked = self._masked
        allocate = self._allocate
        materialize = self._materialize
        ecc_assoc = self._ecc_assoc
        dfh_over = self._dfh_over
        trans = self._trans
        prio = _PRIORITY
        prio_repl = self._prio_repl
        off_init = self._scheme._off_initial_in_set
        lat_hit = self._lat_hit
        lat_tag = self._lat_tag
        lat_miss = self._lat_miss
        lat_corrected = self._lat_hit_corrected
        lat_error = lat_hit + lat_miss
        # The hot counters accumulate in locals and flush on exit (all
        # deltas are additive, so helpers mutating the same self._d_*
        # fields compose with the flush).
        d_reads = d_read_hits = d_read_misses = 0
        d_writes = d_write_hits = 0
        d_hits_served = d_fills = 0
        d_ecc_acc = d_ecc_alloc = d_ecc_evict = d_reclass = 0
        for gi, (line, set_index, is_store) in enumerate(
            zip(lines, set_idx, stores)
        ):
            try:
                st = sets[set_index]
            except KeyError:
                st = materialize(set_index)
            resident = st.resident
            way = resident.get(line)
            if is_store:
                d_writes += 1
                if way is not None:
                    d_write_hits += 1
                    slot = set_index * assoc + way
                    if act[slot + 1] > act[slot]:
                        # The masking re-roll draws shared RNG, here at
                        # the scalar engine's point of the stream.
                        store_row(slot, write_hit_row(slot, rows[slot]))
                    elif rows[slot]:
                        store_row(slot, 0)
                    ecc = st.ecc
                    if slot in ecc:
                        # _ecc_touch, inline.
                        d_ecc_acc += 1
                        ecc.remove(slot)
                        ecc.insert(0, slot)
                    del resident[line]
                    resident[line] = way
                    st.touched |= 1 << way
                lat[gi] = lat_tag
                continue
            d_reads += 1
            if way is None:
                d_read_misses += 1
                free = st.free
                if free:
                    # Inline fill fast path: with an invalid enabled way
                    # available the victim always comes from ``free``
                    # (uniform -> lowest way, else the DFH-priority
                    # scan), never from an eviction — the slow
                    # _allocate path is only needed when the set is
                    # full or fully disabled.
                    if prio_repl and (off_init[set_index] + st.off_d) != 0:
                        dfh_local = st.dfh
                        victim = free[0]
                        best_p = -1
                        for w in free:
                            p = prio[dfh_local[w]]
                            if p > best_p:  # first-max tie-break
                                best_p = p
                                victim = w
                                if p == 2:  # _PRIO_MAX
                                    break
                        free.remove(victim)
                    else:
                        victim = free.pop(0)
                    st.way_lines[victim] = line
                    resident[line] = victim
                    d_fills += 1
                    slot = set_index * assoc + victim
                    value = st.dfh[victim]
                    # _on_fill, inline (a free way is never DISABLED).
                    if act[slot + 1] > act[slot]:
                        store_row(slot, row_of(slot, line // n_sets))
                    elif rows[slot]:
                        store_row(slot, 0)
                    if value == _INI or value == _S1:
                        d_ecc_acc += 1
                        ecc = st.ecc
                        if slot in ecc:
                            raise ValueError(
                                f"ECC entry for slot {slot} already present"
                            )
                        d_ecc_alloc += 1
                        if len(ecc) >= ecc_assoc:
                            eslot = ecc.pop()
                            d_ecc_evict += 1
                            ecc.insert(0, slot)
                            es = eslot // assoc
                            ew = eslot - es * assoc
                            est = sets.get(es)
                            if est is None:
                                est = materialize(es)
                            evalue = est.dfh[ew]
                            if (
                                rows[eslot]
                                or (evalue != _INI and evalue != _S1)
                                or (
                                    masked
                                    and evalue == _INI
                                    and act[eslot + 1] > act[eslot]
                                )
                            ):
                                # Anything but the provably-clean
                                # reclassify goes through the full
                                # eviction handler.
                                self._handle_ecc_eviction(es, ew)
                            else:
                                # A clean row reclassifies INITIAL /
                                # STABLE_1 -> STABLE_0 under either
                                # policy (_set_dfh, inline).
                                dfh_over[eslot] = _S0
                                est.dfh[ew] = _S0
                                if evalue == _INI:
                                    est.off_d += 1
                                trans[evalue << 2] += 1
                                d_reclass += 1
                        else:
                            ecc.insert(0, slot)
                    st.touched |= 1 << victim
                    lat[gi] = lat_miss
                    continue
                if allocate(st, set_index, line) is None:
                    self._d_bypasses += 1
                lat[gi] = lat_miss
                continue
            slot = set_index * assoc + way
            value = st.dfh[way]
            row = rows[slot]
            if not row and (
                value != _INI or not masked or act[slot + 1] <= act[slot]
            ):
                # A clean row serves clean and settles at STABLE_0
                # under either policy.
                if value != _S0:
                    self._ecc_remove(st, slot)
                    self._set_dfh(st, slot, value, _S0)
                d_hits_served += 1
                outcome = CLEAN
            else:
                outcome = self._apply_hit(st, slot, value, row)
            if outcome == CLEAN:
                d_read_hits += 1
                del resident[line]
                resident[line] = way
                st.touched |= 1 << way
                lat[gi] = lat_hit
            elif outcome == CORRECTED:
                d_read_hits += 1
                self._d_corrected += 1
                del resident[line]
                resident[line] = way
                st.touched |= 1 << way
                lat[gi] = lat_corrected
            else:
                self._d_error_misses += 1
                del resident[line]
                st.way_lines[way] = -1
                if outcome == DISABLE:
                    st.disabled |= 1 << way
                    st.new_disabled |= 1 << way
                else:
                    insort(st.free, way)
                d_read_misses += 1
                if allocate(st, set_index, line) is None:
                    self._d_bypasses += 1
                lat[gi] = lat_error
        self._d_reads += d_reads
        self._d_read_hits += d_read_hits
        self._d_read_misses += d_read_misses
        self._d_writes += d_writes
        self._d_write_hits += d_write_hits
        self._d_hits_served += d_hits_served
        self._d_fills += d_fills
        self._d_ecc_acc += d_ecc_acc
        self._d_ecc_alloc += d_ecc_alloc
        self._d_ecc_evict += d_ecc_evict
        self._d_reclass_clean += d_reclass
        self._commit()

    # -- commit ------------------------------------------------------------

    def _commit(self) -> None:
        cache = self._cache
        tags = cache.tags
        line_at = tags._line_at
        lru = cache.lru
        assoc = self._assoc
        line_bytes = self._line_bytes
        scheme = self._scheme
        off_mv = scheme._off_initial_in_set
        for set_index, st in self._sets.items():
            way_lines = st.way_lines
            base = set_index * assoc
            orig = line_at[base : base + assoc]  # untouched by the walk
            new_disabled = st.new_disabled
            if new_disabled or way_lines != orig:
                # Pass 1: clear every changed way so a line that moved
                # between ways cannot have its index entry popped by the
                # overwrite-insert of its old way.
                for way in range(assoc):
                    if new_disabled >> way & 1:
                        tags.disable(set_index, way)
                    elif way_lines[way] != orig[way] and orig[way] >= 0:
                        tags.invalidate(set_index, way)
                for way in range(assoc):
                    line = way_lines[way]
                    if line >= 0 and line != orig[way]:
                        tags.insert(line * line_bytes, way)
            touched = st.touched
            if touched:
                # Final recency order; same convention as
                # bulk_apply_set_replays (ages differ in value, not order).
                for way in st.resident.values():
                    if touched >> way & 1:
                        lru.touch(set_index, way)
            if st.off_d:
                off_mv[set_index] += st.off_d
        if self._dfh_over:
            dfh_mv = self._dfh_mv
            for slot, value in self._dfh_over.items():
                dfh_mv[slot] = value
            trans_mv = scheme._transitions_mv
            for key, count in enumerate(self._trans):
                if count:
                    trans_mv[key >> 2, key & 3] += count
        # ECC cache: key-list writeback plus a membership diff for the
        # O(1) mirror, which is indexed by the same flat slot.
        ecc = self._ecc
        member = ecc._member
        for cluster, shadow in self._ecc_sets.items():
            entries = ecc._sets[cluster]
            new_entries = [divmod(slot, assoc) for slot in shadow]
            if entries != new_entries:
                old_slots = {s * assoc + w for s, w in entries}
                new_slots = set(shadow)
                for slot in old_slots - new_slots:
                    member[slot] = False
                for slot in new_slots - old_slots:
                    member[slot] = True
                entries[:] = new_entries
        ecc.accesses += self._d_ecc_acc
        ecc.allocations += self._d_ecc_alloc
        ecc.evictions += self._d_ecc_evict
        stats = cache.stats
        stats.reads += self._d_reads
        stats.read_hits += self._d_read_hits
        stats.read_misses += self._d_read_misses
        stats.writes += self._d_writes
        stats.write_hits += self._d_write_hits
        stats.write_misses += self._d_writes - self._d_write_hits
        stats.evictions += self._d_evictions
        stats.fills += self._d_fills
        stats.bypasses += self._d_bypasses
        stats.error_induced_misses += self._d_error_misses
        stats.corrected_reads += self._d_corrected
        stats.invalidations += self._d_invalidations
        stats.ecc_evict_invalidations += self._d_ecc_evict_inval
        if self._d_ecc_corrections:
            stats.bump("ecc_corrections", self._d_ecc_corrections)
        if self._d_reclass_clean:
            stats.bump("ecc_evict_reclassified_clean", self._d_reclass_clean)
        if self._d_evict_disables:
            stats.bump("ecc_evict_disables", self._d_evict_disables)
        # Write-through: every read miss fetches, every store posts.
        cache.memory_reads += self._d_read_misses
        cache.memory_writes += self._d_writes
        scheme.hits_served += self._d_hits_served
        scheme.sdc_events += self._d_sdc
        if self._check_invariants:
            for set_index in self._sets:
                check_set_invariants(cache, set_index)
