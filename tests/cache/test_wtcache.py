"""Tests for the write-through protected cache."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome, ProtectionScheme, UnprotectedScheme
from repro.cache.core import CacheLatencies, WriteThroughCache


@pytest.fixture
def geo():
    return CacheGeometry(size_bytes=4 * 1024, line_bytes=64, associativity=4)


@pytest.fixture
def cache(geo):
    return WriteThroughCache(geo, UnprotectedScheme())


class ScriptedScheme(ProtectionScheme):
    """Returns a scripted sequence of outcomes on read hits."""

    def __init__(self, outcomes):
        super().__init__()
        self.outcomes = list(outcomes)
        self.events = []

    def on_read_hit(self, set_index, way):
        self.events.append(("hit", set_index, way))
        if self.outcomes:
            return self.outcomes.pop(0)
        return AccessOutcome.CLEAN

    def on_fill(self, set_index, way):
        self.events.append(("fill", set_index, way))

    def on_evict(self, set_index, way):
        self.events.append(("evict", set_index, way))

    def on_write_hit(self, set_index, way):
        self.events.append(("write", set_index, way))


class TestBasicProtocol:
    def test_read_miss_then_hit(self, cache):
        lat_miss = cache.read(0x100)
        lat_hit = cache.read(0x100)
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1
        assert lat_miss == cache.latencies.miss
        assert lat_hit == cache.latencies.hit

    def test_write_through_no_allocate(self, cache):
        cache.write(0x100)
        assert cache.stats.write_misses == 1
        assert cache.memory_writes == 1
        assert cache.read(0x100) == cache.latencies.miss  # not allocated

    def test_write_hit_updates(self, cache):
        cache.read(0x100)
        cache.write(0x100)
        assert cache.stats.write_hits == 1
        assert cache.memory_writes == 1  # still written through

    def test_lru_eviction(self, cache, geo):
        stride = geo.n_sets * geo.line_bytes  # same set each time
        for i in range(4):
            cache.read(i * stride)
        cache.read(4 * stride)  # evicts addr 0
        assert cache.stats.evictions == 1
        assert cache.read(0) == cache.latencies.miss

    def test_lru_touch_protects_mru(self, cache, geo):
        stride = geo.n_sets * geo.line_bytes
        for i in range(4):
            cache.read(i * stride)
        cache.read(0)  # make way-0 line MRU
        cache.read(4 * stride)  # evicts line 1, not line 0
        assert cache.read(0) == cache.latencies.hit

    def test_memory_traffic_counters(self, cache):
        cache.read(0)
        cache.read(0)
        cache.write(64)
        assert cache.memory_reads == 1
        assert cache.memory_writes == 1


class TestLatencies:
    def test_table3_defaults(self):
        lat = CacheLatencies()
        assert lat.tag == 2 and lat.data == 2 and lat.check == 1
        assert lat.hit == 5

    def test_corrected_hit_costs_extra(self, geo):
        scheme = ScriptedScheme([AccessOutcome.CORRECTED])
        cache = WriteThroughCache(geo, scheme)
        cache.read(0)
        lat = cache.read(0)
        assert lat == cache.latencies.hit + cache.latencies.correction
        assert cache.stats.corrected_reads == 1


class TestErrorOutcomes:
    def test_retrain_miss_invalidates_and_refetches(self, geo):
        scheme = ScriptedScheme([AccessOutcome.RETRAIN_MISS])
        cache = WriteThroughCache(geo, scheme)
        cache.read(0)
        lat = cache.read(0)
        assert lat == cache.latencies.hit + cache.latencies.miss
        assert cache.stats.error_induced_misses == 1
        # The line was refetched: next read hits cleanly.
        assert cache.read(0) == cache.latencies.hit

    def test_disable_miss_disables_way(self, geo):
        scheme = ScriptedScheme([AccessOutcome.DISABLE_MISS])
        cache = WriteThroughCache(geo, scheme)
        cache.read(0)
        way_before = cache.tags.lookup(0)
        cache.read(0)
        set_index = geo.set_of(0)
        assert cache.tags.is_disabled(set_index, way_before)
        assert cache.stats.error_induced_misses == 1

    def test_all_ways_disabled_bypasses(self, geo):
        cache = WriteThroughCache(geo, UnprotectedScheme())
        for way in range(4):
            cache.tags.disable(geo.set_of(0), way)
        lat = cache.read(0)
        assert lat == cache.latencies.miss
        assert cache.stats.bypasses == 1
        assert cache.stats.fills == 0


class TestVictimPriority:
    def test_priority_prefers_high(self, geo):
        class PriorityScheme(ProtectionScheme):
            def fill_priority(self, set_index, way):
                return way  # higher way = higher priority

        cache = WriteThroughCache(geo, PriorityScheme())
        cache.read(0)
        # All ways invalid initially: the fill went to way 3.
        assert cache.tags.lookup(0) == 3


class TestInvalidateLine:
    def test_external_invalidation(self, cache, geo):
        cache.read(0)
        way = cache.tags.lookup(0)
        cache.invalidate_line(geo.set_of(0), way, reason="ecc_evict")
        assert cache.stats.ecc_evict_invalidations == 1
        assert cache.tags.lookup(0) is None

    def test_invalid_line_noop(self, cache):
        cache.invalidate_line(0, 0)
        assert cache.stats.invalidations == 0


class TestReset:
    def test_reset_flushes_and_reenables(self, cache, geo):
        cache.read(0)
        cache.tags.disable(geo.set_of(0x40), 2)
        cache.reset()
        assert cache.tags.count_valid() == 0
        assert cache.tags.count_disabled() == 0

    def test_scheme_on_reset_called(self, geo):
        calls = []

        class ResetScheme(ProtectionScheme):
            def on_reset(self):
                calls.append(True)

        cache = WriteThroughCache(geo, ResetScheme())
        cache.reset()
        assert calls == [True]


class TestStats:
    def test_mpki(self, cache):
        cache.read(0)
        cache.read(64)
        assert cache.stats.mpki(1000) == 2.0
        # Unified zero/negative-denominator contract: no work -> 0.0
        # (same as miss_rate with no reads and ipc with no cycles).
        assert cache.stats.mpki(0) == 0.0
        assert cache.stats.mpki(-5) == 0.0

    def test_as_dict_includes_extra(self, cache):
        cache.stats.bump("custom", 3)
        assert cache.stats.as_dict()["custom"] == 3

    def test_miss_rate(self, cache):
        cache.read(0)
        cache.read(0)
        assert cache.stats.miss_rate == 0.5
