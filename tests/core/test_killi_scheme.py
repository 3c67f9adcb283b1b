"""Directed tests of the Killi protection scheme on a real cache."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.faults.fault_map import FaultMap
from repro.faults.soft_errors import SoftErrorInjector
from repro.utils.rng import RngFactory


GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)
# 64 sets x 4 ways = 256 lines.


def build(faults: dict, config: KilliConfig | None = None, voltage: float = 0.625,
          injector: SoftErrorInjector | None = None):
    """Cache + Killi over an explicit fault map."""
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = KilliScheme(
        GEO,
        fault_map,
        voltage,
        config if config is not None else KilliConfig(ecc_ratio=16),
        rng=RngFactory(9).stream("mask"),
        soft_injector=injector,
    )
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestFaultFreeTraining:
    def test_first_hit_classifies_b00(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        assert scheme.dfh[line_id] == int(Dfh.INITIAL)
        cache.read(addr_of(0))  # first hit classifies
        assert scheme.dfh[line_id] == int(Dfh.STABLE_0)

    def test_ecc_entry_freed_on_classification(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        assert scheme.ecc.contains(0, way)
        cache.read(addr_of(0))
        assert not scheme.ecc.contains(0, way)

    def test_b00_fill_skips_ecc_cache(self):
        cache, scheme = build({})
        # Classify every way of set 0 to b'00 so the refill must land
        # on a b'00 line.
        for tag in range(4):
            cache.read(addr_of(0, tag))
            cache.read(addr_of(0, tag))
        way = cache.tags.lookup(addr_of(0, 0))
        cache.invalidate_line(0, way)
        cache.read(addr_of(0, 9))  # refill of a classified line
        assert not scheme.ecc.contains(0, cache.tags.lookup(addr_of(0, 9)))

    def test_all_lines_eventually_stable(self):
        cache, scheme = build({})
        for tag in range(8):
            for set_index in range(GEO.n_sets):
                cache.read(addr_of(set_index, tag))
        histogram = scheme.dfh_histogram()
        assert histogram.get("INITIAL", 0) < GEO.n_lines // 10


class TestSingleFaultLine:
    def fault_on_way0_set0(self):
        # Stuck-at-1 on data bit 100 of line (set 0, way 0); writing
        # random data unmasks it ~half the time, but we force the
        # issue with set_effective below.
        return {GEO.line_id(0, 0): [(100, 1)]}

    def test_unmasked_single_fault_classifies_b10(self):
        cache, scheme = build(self.fault_on_way0_set0())
        cache.read(addr_of(0))  # fills way 0 (priority order)
        assert cache.tags.lookup(addr_of(0)) == 0
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, {100})  # force unmasked
        outcome = cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.STABLE_1)
        assert cache.stats.corrected_reads == 1
        assert scheme.ecc.contains(0, 0)

    def test_b10_hits_keep_correcting(self):
        cache, scheme = build(self.fault_on_way0_set0())
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, {100})
        for _ in range(5):
            cache.read(addr_of(0))
        assert cache.stats.corrected_reads == 5
        assert scheme.sdc_events == 0

    def test_masked_fault_classifies_b00(self):
        cache, scheme = build(self.fault_on_way0_set0())
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, set())  # masked
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.STABLE_0)

    def test_unmask_after_b00_retrains(self):
        # Paper Table 2 row: "1-bit error discovered after training;
        # initial classification incorrect".
        cache, scheme = build(self.fault_on_way0_set0())
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, set())
        cache.read(addr_of(0))  # -> b'00
        scheme.errors.set_effective(line_id, {100})  # write unmasked it
        cache.read(addr_of(0))
        assert cache.stats.error_induced_misses == 1
        assert scheme.dfh[line_id] == int(Dfh.INITIAL)
        # The refetch landed in the same (now b'01) line and the next
        # hit reclassifies it to b'10.
        scheme.errors.set_effective(line_id, {100})
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.STABLE_1)


class TestMultiFaultLine:
    def test_two_segment_errors_disable(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}  # distinct segments
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, {0, 1})
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.DISABLED)
        assert cache.tags.is_disabled(0, 0)
        assert cache.stats.error_induced_misses == 1

    def test_same_segment_pair_caught_by_ecc(self):
        # Both faults in training segment 0 (positions 0 and 16):
        # parity is blind, but the SECDED syndrome is non-zero with
        # even parity -> disable (Table 2 row 6).
        faults = {GEO.line_id(0, 0): [(0, 1), (16, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, {0, 16})
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.DISABLED)

    def test_disabled_line_never_reallocated(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        for tag in range(10):
            cache.read(addr_of(0, tag))
        assert not cache.tags.is_valid(0, 0)
        assert cache.tags.is_disabled(0, 0)

    def test_disabled_fraction(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert scheme.disabled_fraction() == pytest.approx(1 / GEO.n_lines)


class TestPriorityReplacement:
    def test_prefers_initial_over_stable0(self):
        cache, scheme = build({})
        # Classify line (0,0) to b'00, then invalidate it.
        cache.read(addr_of(0, 0))
        cache.read(addr_of(0, 0))
        way = cache.tags.lookup(addr_of(0, 0))
        cache.invalidate_line(0, way)
        # Next fill prefers a b'01 way over the invalid b'00 way.
        cache.read(addr_of(0, 1))
        new_way = cache.tags.lookup(addr_of(0, 1))
        assert scheme.dfh[GEO.line_id(0, new_way)] != int(Dfh.STABLE_0) or new_way != way

    def test_prefers_b00_over_b10(self):
        faults = {GEO.line_id(0, w): [(100, 1)] for w in range(4)}
        config = KilliConfig(ecc_ratio=16)
        cache, scheme = build(faults, config)
        # Train: way0..3 become b'10 (force unmasked), then invalidate all.
        for tag in range(4):
            cache.read(addr_of(0, tag))
        for way in range(4):
            scheme.errors.set_effective(GEO.line_id(0, way), {100})
        for tag in range(4):
            cache.read(addr_of(0, tag))
        # Make way 1 b'00 artificially.
        scheme.dfh[GEO.line_id(0, 1)] = int(Dfh.STABLE_0)
        for way in range(4):
            cache.invalidate_line(0, way)
        cache.read(addr_of(0, 9))
        assert cache.tags.lookup(addr_of(0, 9)) == 1

    def test_priority_disabled_by_config(self):
        config = KilliConfig(ecc_ratio=16, priority_replacement=False)
        cache, scheme = build({}, config)
        assert scheme.fill_priorities(0, [0]) == [0]


class TestEvictionTraining:
    def test_evicted_b01_lines_classified(self):
        cache, scheme = build({})
        # Fill set 0 beyond capacity without ever hitting.
        for tag in range(8):
            cache.read(addr_of(0, tag))
        transitions = scheme.transitions.get(("INITIAL", "STABLE_0"), 0)
        assert transitions >= 4  # evictions trained the lines

    def test_eviction_training_disabled(self):
        config = KilliConfig(ecc_ratio=16, train_on_evict=False)
        cache, scheme = build({}, config)
        for tag in range(8):
            cache.read(addr_of(0, tag))
        assert scheme.transitions.get(("INITIAL", "STABLE_0"), 0) == 0

    def test_eviction_discovers_multibit_and_disables(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0, 0))  # into way 0
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        # Force eviction by filling the set.
        for tag in range(1, 6):
            cache.read(addr_of(0, tag))
        assert cache.tags.is_disabled(0, 0)


class TestEccCacheContention:
    def test_clean_lines_survive_ecc_eviction(self):
        # ECC cache with 4 entries; filling many b'01 lines evicts
        # entries, whose (fault-free) lines reclassify to b'00 and
        # stay valid.
        config = KilliConfig(ecc_ratio=64, ecc_assoc=4)  # 4 entries
        cache, scheme = build({}, config)
        for set_index in range(16):
            cache.read(addr_of(set_index))
        assert cache.stats.extra.get("ecc_evict_reclassified_clean", 0) > 0
        assert cache.stats.ecc_evict_invalidations == 0
        assert cache.tags.count_valid() == 16

    def test_faulty_lines_invalidated_on_ecc_eviction(self):
        config = KilliConfig(ecc_ratio=64, ecc_assoc=4)
        faulty_line = GEO.line_id(0, 0)
        cache, scheme = build({faulty_line: [(100, 1)]}, config)
        cache.read(addr_of(0))  # way 0, allocates ECC entry
        scheme.errors.set_effective(faulty_line, {100})
        cache.read(addr_of(0))  # classify b'10, entry kept
        # Now flood the ECC cache from aliasing sets (0, 16, 32, ...).
        for set_index in range(0, GEO.n_sets, scheme.ecc.n_sets):
            if set_index:
                cache.read(addr_of(set_index))
        assert cache.stats.ecc_evict_invalidations >= 1
        assert cache.tags.lookup(addr_of(0)) is None  # b'10 line dropped

    def test_entry_invariant(self):
        # Entry exists iff line valid and DFH in {b'01, b'10}.
        cache, scheme = build({GEO.line_id(0, 0): [(100, 1)]})
        rng = np.random.default_rng(0)
        for _ in range(2000):
            addr = int(rng.integers(0, 32 * 1024)) & ~63
            if rng.random() < 0.3:
                cache.write(addr)
            else:
                cache.read(addr)
        for set_index in range(GEO.n_sets):
            for way in range(GEO.associativity):
                valid = cache.tags.is_valid(set_index, way)
                has_entry = scheme.ecc.contains(set_index, way)
                dfh = int(scheme.dfh[GEO.line_id(set_index, way)])
                if has_entry:
                    assert valid
                    assert dfh in (int(Dfh.INITIAL), int(Dfh.STABLE_1))
                elif valid:
                    assert dfh in (int(Dfh.STABLE_0),)


class TestSoftErrorHandling:
    def test_soft_error_on_clean_line_detected(self):
        injector = SoftErrorInjector(1.0, burst_pmf={1: 1.0},
                                     rng=RngFactory(3).stream("soft"))
        cache, scheme = build({}, injector=injector)
        cache.read(addr_of(0))
        # Every hit injects a soft error somewhere in the 539 bits;
        # many land in the data region and must be detected, never
        # silently served.
        for tag in range(20):
            cache.read(addr_of(0, tag))
            cache.read(addr_of(0, tag))
        assert scheme.sdc_events == 0

    def test_adjacent_burst_detected(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))  # classify b'00
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        scheme.errors.add_soft_error(line_id, [200, 201])  # adjacent pair
        cache.read(addr_of(0))
        # Interleaving put them in different segments: detected.
        assert cache.stats.error_induced_misses == 1


class TestReset:
    def test_reset_clears_everything(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert cache.tags.is_disabled(0, 0)
        cache.reset()
        assert not cache.tags.is_disabled(0, 0)
        assert all(v == int(Dfh.INITIAL) for v in scheme.dfh)
        assert scheme.ecc.occupancy == 0

    def test_relearns_after_reset(self):
        # Section 2.4: on a voltage change Killi relearns from scratch.
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        cache.reset()
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert cache.tags.is_disabled(0, 0)
