"""Batched replay interpreter for Killi.

The batched engine's lockstep kernel (:func:`repro.cache.soa.lockstep_kernel`)
only batches schemes with fixed way masks; for Killi that would leave
the busiest part of the kernel — DFH warmup, ECC-cache contention,
faulted-line classification — on the per-access Python path.  This
module batches the *general* case instead: an interpreter that walks a
kernel's whole L2-bound residue with full Killi semantics (DFH
classification, ECC-cache contention, eviction training, victim
priorities) directly against the cache's and the scheme's own state —
the tag store's line map, lookup index and per-set counters, the LRU
ages and clocks, the DFH array and the ECC cache's MRU lists — with
nothing copied in or out.

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
memoised per (slot, salt).

ECC-cache contention couples L2 sets: an insert into ECC set ``c`` can
evict — and thereby invalidate or disable — a line of any L2 set with
``l2_set % ecc.n_sets == c``.  The walk edits the ECC cache itself, so
that coupling needs no bookkeeping of its own.

In-place equivalences (vs the per-access reference path)
--------------------------------------------------------
- *LRU*: every touch stamps ``age = clock; clock += 1`` where
  ``lru.touch`` would, so valid ways' ages and the set clocks end equal
  to the per-access path's.  The clocks, and the ages from the first
  eviction on, are walked as list copies written back once per kernel.
  ``demote`` calls are skipped: a demoted
  way is invalid, and an invalid way's age is never read (invalid ways
  are chosen by index or fill priority, the LRU way only among valid
  ones).
- *Tag store*: the walk edits ``_line_at``, ``_index``, the per-set
  counters and the ``disabled`` column as ``insert`` / ``invalidate`` /
  ``disable`` would, and recounts the valid lines once per kernel.
  ``dirty`` stays clear: a write-through L2 never sets it.
- *Counters*: the cache stats, ECC-cache and scheme counters are
  added to as the walk goes (the hottest ones through locals, added
  on exit); nothing reads them meanwhile.
- *Fills*: every read miss, an error-induced one included, fills in
  one inline loop, which goes round again when eviction training
  disables the victim, as ``CacheModel._allocate`` retries.
- *Free ways*: each set's invalid enabled ways, ascending, are listed
  the first time a fill needs them and kept in step from then on.
- *Error rows*: written straight through to the error model.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.core.dfh import Dfh
from repro.core.policy import (
    CLEAN,
    CORRECTED,
    DISABLE,
    PRIORITY_BY_DFH,
    PRIORITY_MAX,
    RETRAIN,
)
from repro.testing.invariants import (
    InvariantError,
    check_set_invariants,
    invariants_enabled,
)

__all__ = ["KilliClusterInterpreter"]

_S0 = int(Dfh.STABLE_0)
_INI = int(Dfh.INITIAL)
_S1 = int(Dfh.STABLE_1)
_DIS = int(Dfh.DISABLED)


class KilliClusterInterpreter:
    """In-place interpreter over a kernel's L2-bound residue.

    Created once per (scheme, cache) pair via
    :meth:`~repro.core.killi.KilliScheme.batch_interpreter`; the engine
    calls :meth:`run` once per kernel.  Each ``run`` walks the whole
    residue in global order against the live cache and scheme state,
    counters included, then writes back the LRU state it walked as lists.
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
        # Armed invariants (REPRO_CHECK_INVARIANTS): each run re-checks
        # every set it touched.
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
        # The live structures, fetched per run: a reset replaces some
        # of them (``enable_all`` rebuilds ``disabled_in_set``).
        tags = self._cache.tags
        self._tags = tags
        self._line_at = tags._line_at
        self._index = tags._index
        self._valid_in_set = tags.valid_in_set
        self._disabled_in_set = tags.disabled_in_set
        self._disabled = tags.disabled.reshape(-1)
        lru = self._cache.lru
        self._age = lru.age
        # Every touch reads and bumps a clock: a list copy walks
        # faster than the memoryview, and _finish writes it back.
        self._clock = lru._clock_np.tolist()
        if self._check_invariants:
            self._line_at_before = tags._line_at_np.copy()
        scheme = self._scheme
        self._dfh = scheme.dfh
        self._off_init = scheme._off_initial_in_set
        self._ecc_lists = self._ecc._sets
        self._member = self._ecc._member
        self._frees: dict = {}  # set -> invalid enabled ways, ascending
        self._trans = [0] * 16  # flat (old << 2 | new) transition counts
        # Counters are live too: nothing reads them during the walk.
        self._stats = self._cache.stats

    # -- tag store, in place -----------------------------------------------

    def _free_ways(self, set_index: int) -> list:
        """The set's invalid enabled ways, ascending, listed on first use."""
        free = self._frees.get(set_index)
        if free is None:
            assoc = self._assoc
            base = set_index * assoc
            row = self._line_at[base : base + assoc]
            if self._disabled_in_set[set_index]:
                disabled = self._disabled[base : base + assoc].tolist()
                free = [w for w in range(assoc) if row[w] < 0 and not disabled[w]]
            else:
                free = [w for w in range(assoc) if row[w] < 0]
            self._frees[set_index] = free
        return free

    def _drop_line(self, set_index: int, slot: int) -> None:
        """``tags.invalidate`` of a valid slot of a write-through cache."""
        del self._index[self._line_at[slot]]
        self._line_at[slot] = -1
        self._valid_in_set[set_index] -= 1

    def _invalidate(self, set_index: int, way: int) -> None:
        """``cache.invalidate_line(..., reason="ecc_evict")``."""
        slot = set_index * self._assoc + way
        if self._line_at[slot] < 0:
            return
        self._drop_line(set_index, slot)
        free = self._frees.get(set_index)
        if free is not None:
            insort(free, way)
        self._stats.invalidations += 1
        self._stats.ecc_evict_invalidations += 1
        self._ecc_remove(set_index, way, slot)
        self._errors.clear(slot)

    def _disable(self, set_index: int, way: int) -> None:
        """``tags.disable``: drop the line, then mark the way disabled."""
        slot = set_index * self._assoc + way
        if self._line_at[slot] >= 0:
            self._drop_line(set_index, slot)
        else:
            free = self._frees.get(set_index)
            if free is not None and way in free:
                free.remove(way)
        if not self._disabled[slot]:
            self._disabled[slot] = True
            self._tags._n_disabled += 1
            self._disabled_in_set[set_index] += 1

    def _set_dfh(self, slot: int, old: int, new: int) -> None:
        if old == new:
            return
        self._dfh[slot] = new
        if old == _INI:
            self._off_init[slot // self._assoc] += 1
        elif new == _INI:
            self._off_init[slot // self._assoc] -= 1
        self._trans[(old << 2) | new] += 1

    # -- ECC cache, in place -----------------------------------------------

    def _ecc_touch(self, set_index: int, way: int) -> None:
        self._ecc.accesses += 1
        entries = self._ecc_lists[set_index % self._ecc_n_sets]
        key = (set_index, way)
        entries.remove(key)
        entries.insert(0, key)

    def _ecc_remove(self, set_index: int, way: int, slot: int) -> None:
        if self._member[slot]:
            self._ecc_lists[set_index % self._ecc_n_sets].remove((set_index, way))
            self._member[slot] = False

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

    def _apply_hit(self, set_index: int, way: int, slot: int, value: int, row: int):
        """The policy's read-hit decision, applied as
        ``KilliScheme.on_read_hit`` applies it; returns the outcome.
        The caller counts served hits and corrections."""
        nxt, outcome, sdc = self._policy.read_hit(value, slot, row)
        if nxt == _S0 or outcome >= RETRAIN:
            self._ecc_remove(set_index, way, slot)
        self._set_dfh(slot, value, nxt)
        if outcome >= RETRAIN:
            self._errors.clear(slot)
            return outcome
        self._scheme.sdc_events += sdc
        if nxt != _S0 and self._member[slot]:
            self._ecc_touch(set_index, way)
        return outcome

    def _handle_ecc_eviction(self, set_index: int, way: int) -> None:
        slot = set_index * self._assoc + way
        value = self._dfh[slot]
        # Only the write-back variant (never interpreted) protects b'00.
        if value != _INI and value != _S1:
            raise AssertionError("ECC entry existed for an unprotected line")
        nxt = self._policy.evicted(value, slot, self._errors._rows[slot])
        self._set_dfh(slot, value, nxt)
        if nxt == _S0:
            self._stats.bump("ecc_evict_reclassified_clean")
            return
        if nxt == _DIS:
            self._disable(set_index, way)
            self._stats.bump("ecc_evict_disables")
            self._errors.clear(slot)
            return
        self._invalidate(set_index, way)

    # -- the walk ----------------------------------------------------------

    def run(self, lines, stores, lat, set_idx) -> None:
        """Interpret a kernel's L2-bound residue in place.

        ``lines``/``stores``/``set_idx`` are the residue's per-access
        line numbers, store flags and L2 set indices, in the order the
        scalar engine reaches the L2; ``lat`` receives each access's
        latency.
        """
        self._begin()
        n_sets = self._n_sets
        assoc = self._assoc
        line_at = self._line_at
        index_get = self._index.get
        index = self._index
        valid_in_set = self._valid_in_set
        disabled_in_set = self._disabled_in_set
        age = self._age
        clock = self._clock
        dfh = self._dfh
        off_init = self._off_init
        ecc_lists = self._ecc_lists
        ecc_n_sets = self._ecc_n_sets
        ecc_assoc = self._ecc_assoc
        member = self._member
        frees = self._frees
        free_ways = self._free_ways
        act = self._act_off
        errors = self._errors
        rows = errors._rows
        store_row = errors.store_row
        write_hit_row = errors.write_hit_row
        row_of = self._row_of
        masked = self._masked
        train = self._train_on_evict
        evicted_rule = self._policy.evicted
        trans = self._trans
        prio = PRIORITY_BY_DFH
        prio_max = PRIORITY_MAX
        prio_repl = self._prio_repl
        lat_hit = self._lat_hit
        lat_tag = self._lat_tag
        lat_miss = self._lat_miss
        lat_corrected = self._lat_hit_corrected
        lat_error = lat_hit + lat_miss
        # The hot counters accumulate in locals and are added on exit;
        # the helpers add to the same counters directly.
        d_reads = d_read_hits = d_read_misses = d_corrected = 0
        d_writes = d_write_hits = 0
        d_hits_served = d_fills = d_evictions = d_bypasses = d_error_misses = 0
        d_ecc_acc = d_ecc_alloc = d_ecc_evict = d_reclass = 0
        for gi, (line, set_index, is_store) in enumerate(
            zip(lines, set_idx, stores)
        ):
            way = index_get(line)
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
                    if member[slot]:
                        # ecc.touch, inline.
                        d_ecc_acc += 1
                        entries = ecc_lists[set_index % ecc_n_sets]
                        key = (set_index, way)
                        entries.remove(key)
                        entries.insert(0, key)
                    age[slot] = clock[set_index]
                    clock[set_index] += 1
                lat[gi] = lat_tag
                continue
            d_reads += 1
            base = set_index * assoc
            if way is not None:
                slot = base + way
                value = dfh[slot]
                row = rows[slot]
                if not row and (
                    value != _INI or not masked or act[slot + 1] <= act[slot]
                ):
                    # A clean row serves clean and settles at STABLE_0
                    # under either policy.
                    if value != _S0:
                        if member[slot]:
                            ecc_lists[set_index % ecc_n_sets].remove((set_index, way))
                            member[slot] = False
                        dfh[slot] = _S0
                        if value == _INI:
                            off_init[set_index] += 1
                        trans[value << 2] += 1
                    d_hits_served += 1
                    d_read_hits += 1
                    age[slot] = clock[set_index]
                    clock[set_index] += 1
                    lat[gi] = lat_hit
                    continue
                outcome = self._apply_hit(set_index, way, slot, value, row)
                if outcome == CLEAN or outcome == CORRECTED:
                    d_hits_served += 1
                    d_read_hits += 1
                    age[slot] = clock[set_index]
                    clock[set_index] += 1
                    if outcome == CLEAN:
                        lat[gi] = lat_hit
                    else:
                        d_corrected += 1
                        lat[gi] = lat_corrected
                    continue
                # Error-induced miss: drop (or disable) the line, then
                # refetch it like any miss.
                d_error_misses += 1
                if outcome == DISABLE:
                    self._disable(set_index, way)
                else:
                    self._drop_line(set_index, slot)
                    free = frees.get(set_index)
                    if free is not None:
                        insort(free, way)
                lat[gi] = lat_error
            else:
                lat[gi] = lat_miss
            d_read_misses += 1
            # The fill, as ``CacheModel._allocate`` makes it: a victim
            # that eviction training disables is replaced by another.
            while True:
                if valid_in_set[set_index] + disabled_in_set[set_index] < assoc:
                    # An invalid enabled way exists: the victim comes
                    # from the free list (uniform -> lowest way, else
                    # the DFH-priority scan), never from an eviction.
                    free = frees.get(set_index)
                    if free is None:
                        free = free_ways(set_index)
                    if prio_repl and off_init[set_index]:
                        victim = free[0]
                        best_p = -1
                        for w in free:
                            p = prio[dfh[base + w]]
                            if p > best_p:  # first-max tie-break
                                best_p = p
                                victim = w
                                if p == prio_max:
                                    break
                        free.remove(victim)
                    else:
                        victim = free.pop(0)
                    valid_in_set[set_index] += 1
                    slot = base + victim
                elif valid_in_set[set_index]:
                    # No free way: evict the LRU valid way (every
                    # enabled way is valid here).
                    if type(age) is not list:
                        # A list slice finds the victim 0.3 us faster.
                        age = self._age = age.tolist()
                    row = age[base : base + assoc]
                    if disabled_in_set[set_index]:
                        # Ages within a set are distinct, so the valid
                        # ways' minimum names its way.
                        victim = row.index(
                            min([
                                a
                                for a, held in zip(row, line_at[base : base + assoc])
                                if held >= 0
                            ])
                        )
                    else:
                        victim = row.index(min(row))
                    slot = base + victim
                    d_evictions += 1
                    # on_evict, inline.
                    value = dfh[slot]
                    if value == _INI and train:
                        value = evicted_rule(_INI, slot, rows[slot])
                        if value != _INI:
                            dfh[slot] = value
                            off_init[set_index] += 1
                            trans[(_INI << 2) | value] += 1
                    if member[slot]:
                        ecc_lists[set_index % ecc_n_sets].remove((set_index, victim))
                        member[slot] = False
                    if rows[slot]:
                        store_row(slot, 0)
                    if value == _DIS:
                        # Training disabled the victim: choose again.
                        self._disable(set_index, victim)
                        continue
                    del index[line_at[slot]]
                else:
                    d_bypasses += 1  # every way disabled
                    break
                # The fill (the victim way is invalid or was just emptied).
                line_at[slot] = line
                index[line] = victim
                d_fills += 1
                value = dfh[slot]
                # on_fill, inline (a fill target is never DISABLED).
                if act[slot + 1] > act[slot]:
                    store_row(slot, row_of(slot, line // n_sets))
                elif rows[slot]:
                    store_row(slot, 0)
                if value == _INI or value == _S1:
                    # ecc.insert, inline.
                    d_ecc_acc += 1
                    if member[slot]:
                        raise ValueError(
                            f"ECC entry for {(set_index, victim)} already present"
                        )
                    d_ecc_alloc += 1
                    entries = ecc_lists[set_index % ecc_n_sets]
                    member[slot] = True
                    if len(entries) >= ecc_assoc:
                        es, ew = entries.pop()
                        entries.insert(0, (set_index, victim))
                        d_ecc_evict += 1
                        eslot = es * assoc + ew
                        member[eslot] = False
                        evalue = dfh[eslot]
                        if (
                            rows[eslot]
                            or (evalue != _INI and evalue != _S1)
                            or (
                                masked
                                and evalue == _INI
                                and act[eslot + 1] > act[eslot]
                            )
                        ):
                            # Anything but the provably-clean reclassify
                            # goes through the full eviction handler.
                            self._handle_ecc_eviction(es, ew)
                        else:
                            # A clean row reclassifies INITIAL / STABLE_1
                            # -> STABLE_0 under either policy.
                            dfh[eslot] = _S0
                            if evalue == _INI:
                                off_init[es] += 1
                            trans[evalue << 2] += 1
                            d_reclass += 1
                    else:
                        entries.insert(0, (set_index, victim))
                age[slot] = clock[set_index]
                clock[set_index] += 1
                break
        stats = self._stats
        stats.reads += d_reads
        stats.read_hits += d_read_hits
        stats.read_misses += d_read_misses
        stats.corrected_reads += d_corrected
        stats.writes += d_writes
        stats.write_hits += d_write_hits
        stats.write_misses += d_writes - d_write_hits
        stats.fills += d_fills
        stats.evictions += d_evictions
        stats.bypasses += d_bypasses
        stats.error_induced_misses += d_error_misses
        if d_corrected:
            stats.bump("ecc_corrections", d_corrected)
        if d_reclass:
            stats.bump("ecc_evict_reclassified_clean", d_reclass)
        ecc = self._ecc
        ecc.accesses += d_ecc_acc
        ecc.allocations += d_ecc_alloc
        ecc.evictions += d_ecc_evict
        self._scheme.hits_served += d_hits_served
        # Write-through: every read miss fetches, every store posts.
        self._cache.memory_reads += d_read_misses
        self._cache.memory_writes += d_writes
        self._finish(set_idx)

    def _finish(self, set_idx) -> None:
        """Write back the set clocks (and the ages, if listed), recount
        the valid lines and add the transition counts."""
        tags = self._tags
        self._cache.lru._clock_np[:] = self._clock
        if type(self._age) is list:
            self._cache.lru._age_np[:] = self._age
        tags._n_valid = len(self._index)
        trans_mv = self._scheme._transitions_mv
        for key, count in enumerate(self._trans):
            if count:
                trans_mv[key >> 2, key & 3] += count
        if self._check_invariants:
            if tags.dirty.any():
                # The walk never clears a refilled way's dirty bit.
                raise InvariantError("the write-through L2 holds dirty lines")
            changed = np.flatnonzero(tags._line_at_np != self._line_at_before)
            touched = set(set_idx)
            touched.update((changed // self._assoc).tolist())
            for set_index in sorted(touched):
                check_set_invariants(self._cache, set_index)
