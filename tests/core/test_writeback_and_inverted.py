"""Tests for the write-back extension (5.6.1) and inverted-write
training (5.6.2)."""

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteBackCache
from repro.cache.core import WriteThroughCache
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.core.writeback import KilliWriteBackScheme
from repro.faults.fault_map import FaultMap
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build_wb(faults: dict, config: KilliConfig | None = None):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = KilliWriteBackScheme(
        GEO, fault_map, 0.625,
        config if config is not None else KilliConfig(ecc_ratio=16),
        rng=RngFactory(9).stream("mask"),
    )
    return WriteBackCache(GEO, scheme), scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestWriteBackProtocol:
    def test_write_allocates(self):
        cache, _ = build_wb({})
        cache.write(addr_of(0))
        assert cache.stats.write_misses == 1
        assert cache.tags.lookup(addr_of(0)) is not None
        assert cache.memory_writes == 0  # not written through

    def test_dirty_eviction_writes_back(self):
        cache, _ = build_wb({})
        cache.write(addr_of(0, 0))
        for tag in range(1, 6):
            cache.read(addr_of(0, tag))
        assert cache.memory_writes == 1

    def test_clean_eviction_silent(self):
        cache, _ = build_wb({})
        cache.read(addr_of(0, 0))
        for tag in range(1, 6):
            cache.read(addr_of(0, tag))
        assert cache.memory_writes == 0

    def test_write_hit_marks_dirty_once(self):
        cache, scheme = build_wb({})
        cache.write(addr_of(0))
        cache.write(addr_of(0))
        set_index = GEO.set_of(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        assert cache.tags.is_dirty(set_index, way)

    def test_invalidation_of_dirty_line_writes_back(self):
        cache, _ = build_wb({})
        cache.write(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        cache.invalidate_line(GEO.set_of(addr_of(0)), way)
        assert cache.memory_writes == 1


class TestDirtyProtectionUpgrades:
    def test_dirty_b00_gets_secded(self):
        cache, scheme = build_wb({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))  # classify b'00, entry freed
        way = cache.tags.lookup(addr_of(0))
        assert not scheme.ecc.contains(0, way)
        cache.write(addr_of(0))  # dirty: SECDED allocated on demand
        assert scheme.ecc.contains(0, way)
        assert cache.stats.extra.get("dirty_secded_allocations") == 1

    def test_dirty_b10_upgrade_counted(self):
        faults = {GEO.line_id(0, 0): [(100, 1)]}
        cache, scheme = build_wb(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {100})
        cache.read(addr_of(0))  # classify b'10
        cache.write(addr_of(0))
        assert cache.stats.extra.get("dirty_dected_upgrades") == 1

    def test_protected_dirty_b00_single_error_corrected(self):
        cache, scheme = build_wb({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        cache.write(addr_of(0))  # dirty + SECDED
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        scheme.errors.set_effective(line_id, {200})  # soft error
        cache.read(addr_of(0))
        assert cache.stats.corrected_reads == 1
        assert cache.stats.extra.get("due_on_dirty", 0) == 0

    def test_unprotected_due_is_counted(self):
        # A dirty b'00 line that somehow lost its entry and then takes
        # a detected multi-segment error loses data.
        cache, scheme = build_wb({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        cache.write(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        scheme.ecc.remove(0, way)  # simulate entry loss
        line_id = GEO.line_id(0, way)
        scheme.errors.set_effective(line_id, {0, 1})
        cache.read(addr_of(0))
        assert cache.stats.extra.get("due_on_dirty") == 1


class TestInvertedWriteTraining:
    def masked_fault_setup(self, inverted: bool):
        config = KilliConfig(ecc_ratio=16, inverted_write_training=inverted)
        fault_map = FaultMap.from_faults(
            GEO.n_lines, {GEO.line_id(0, 0): [(0, 1), (16, 1)]}
        )
        scheme = KilliScheme(GEO, fault_map, 0.625, config,
                             rng=RngFactory(9).stream("m"))
        cache = WriteThroughCache(GEO, scheme)
        return cache, scheme

    def test_masked_same_segment_pair_caught(self):
        # Both faults in training segment 0 and *masked*: plain Killi
        # classifies b'00 (the 5.6.2 hazard); inverted training sees
        # them and disables the line.
        cache, scheme = self.masked_fault_setup(inverted=True)
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, set())  # fully masked
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.DISABLED)

    def test_plain_killi_misses_masked_pair(self):
        cache, scheme = self.masked_fault_setup(inverted=False)
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, 0)
        scheme.errors.set_effective(line_id, set())
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.STABLE_0)

    def test_single_masked_fault_classified_b10(self):
        config = KilliConfig(ecc_ratio=16, inverted_write_training=True)
        fault_map = FaultMap.from_faults(
            GEO.n_lines, {GEO.line_id(0, 0): [(100, 1)]}
        )
        scheme = KilliScheme(GEO, fault_map, 0.625, config,
                             rng=RngFactory(9).stream("m"))
        cache = WriteThroughCache(GEO, scheme)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set())
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)

    def test_no_sdc_under_inverted_training(self):
        # Random traffic over a moderately faulty map: inverted
        # training should produce zero masked-fault SDCs.  (The fault
        # rate stays in a regime where 3-fault lines — whose signal
        # *aliasing* is the separate Section 5.3 coverage limit that
        # inverted writes cannot help with — are negligible.)
        config = KilliConfig(ecc_ratio=8, inverted_write_training=True)
        rngs = RngFactory(21)
        from repro.faults.cell_model import CellFaultModel

        anchors = ((0.5, 0.1), (0.625, 5e-4), (1.0, 1e-10))
        fault_map = FaultMap(
            n_lines=GEO.n_lines,
            cell_model=CellFaultModel(anchors=anchors),
            rng=rngs.stream("f"),
        )
        scheme = KilliScheme(GEO, fault_map, 0.625, config, rng=rngs.stream("m"))
        cache = WriteThroughCache(GEO, scheme)
        rng = np.random.default_rng(4)
        for addr in (rng.integers(0, 64 * 1024, size=20000) & ~63):
            if rng.random() < 0.3:
                cache.write(int(addr))
            else:
                cache.read(int(addr))
        assert scheme.sdc_events == 0
