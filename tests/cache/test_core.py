"""The unified transaction layer: policies, transactions, presets.

The scalar access semantics live in exactly one place
(:class:`repro.cache.core.CacheModel`); these tests pin the strategy
objects that parameterize it, the formal transaction entry point, the
``semantics_batchable`` precondition the bulk tiers consult, and the
compatibility shims left at the old module paths.
"""

import numpy as np
import pytest

from repro.cache.core import (
    LRU_FILL,
    NO_WRITE_ALLOCATE,
    WRITE_ALLOCATE,
    WRITE_BACK,
    WRITE_THROUGH,
    AccessTransaction,
    CacheLatencies,
    CacheModel,
    WriteBackCache,
    WriteThroughCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import UnprotectedScheme

SUBSTRATES = ("object", "soa")


def small_geometry() -> CacheGeometry:
    return CacheGeometry(
        size_bytes=16 * 1024, line_bytes=64, associativity=4, banks=2
    )


def random_stream(seed: int, n: int = 600, footprint: int = 64 * 1024):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, footprint // 64, n) * 64).tolist()
    stores = (rng.random(n) < 0.35).tolist()
    return list(zip(addrs, stores))


def drive(cache, stream):
    return [
        cache.write(addr) if store else cache.read(addr)
        for addr, store in stream
    ]


def state_key(cache):
    return (
        cache.stats.as_dict(),
        cache.memory_reads,
        cache.memory_writes,
    )


class TestPolicies:
    def test_preset_flags(self):
        assert not WRITE_THROUGH.write_back
        assert WRITE_BACK.write_back
        assert not NO_WRITE_ALLOCATE.write_allocate
        assert NO_WRITE_ALLOCATE.prefer_invalid
        assert WRITE_ALLOCATE.write_allocate
        assert not LRU_FILL.write_allocate
        assert not LRU_FILL.prefer_invalid

    def test_default_model_is_the_paper_l2(self):
        cache = CacheModel(small_geometry())
        assert cache.write_policy is WRITE_THROUGH
        assert cache.allocation_policy is NO_WRITE_ALLOCATE

    def test_presets_are_the_same_class(self):
        wt = WriteThroughCache(small_geometry())
        wb = WriteBackCache(small_geometry())
        assert isinstance(wt, CacheModel)
        assert isinstance(wb, WriteThroughCache)
        assert wt.write_policy is WRITE_THROUGH
        assert wb.write_policy is WRITE_BACK
        assert wb.allocation_policy is WRITE_ALLOCATE

    def test_write_hit_latency_by_policy(self):
        lat = CacheLatencies()
        wt = WriteThroughCache(small_geometry())
        wb = WriteBackCache(small_geometry())
        addr = 0
        wt.read(addr)
        wb.read(addr)
        assert wt.write(addr) == lat.tag  # posted through
        assert wb.write(addr) == lat.tag + lat.data  # lands in place


class TestSemanticsBatchable:
    def test_write_through_preset_is_batchable(self):
        assert WriteThroughCache(small_geometry()).semantics_batchable

    def test_write_back_preset_is_not(self):
        assert not WriteBackCache(small_geometry()).semantics_batchable

    def test_lru_fill_policy_is_not(self):
        cache = CacheModel(small_geometry(), allocation_policy=LRU_FILL)
        assert not cache.semantics_batchable

    def test_protocol_override_opts_out(self):
        class Tweaked(WriteThroughCache):
            def read(self, addr):
                return super().read(addr)

        assert not Tweaked(small_geometry()).semantics_batchable

    def test_non_protocol_override_stays_batchable(self):
        class Annotated(WriteThroughCache):
            def label(self):
                return "still the same semantics"

        assert Annotated(small_geometry()).semantics_batchable

    def test_unbatchable_cache_refuses_lockstep(self):
        wb = WriteBackCache(small_geometry())
        assert wb.lockstep_mask() is None
        wt = WriteThroughCache(small_geometry())
        mask = wt.lockstep_mask()
        assert mask.shape == (wt.geometry.n_sets, wt.geometry.associativity)
        assert not mask.any()


class TestExecute:
    @pytest.mark.parametrize("preset", [WriteThroughCache, WriteBackCache])
    def test_execute_matches_read_write(self, preset):
        direct, formal = preset(small_geometry()), preset(small_geometry())
        stream = random_stream(5)
        lat_direct = drive(direct, stream)
        lat_formal = [
            formal.execute(
                AccessTransaction.store(a) if s else AccessTransaction.load(a)
            )
            for a, s in stream
        ]
        assert lat_direct == lat_formal
        assert state_key(direct) == state_key(formal)

    def test_transaction_constructors(self):
        assert not AccessTransaction.load(64).is_store
        assert AccessTransaction.store(64).is_store
        assert AccessTransaction(64).is_store is False


class TestSubstrateParity:
    """The object substrate is the pinned reference: both substrates
    must produce identical latencies, stats and memory traffic for the
    same stream, under both write policies."""

    @pytest.mark.parametrize("preset", [WriteThroughCache, WriteBackCache])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_streams(self, preset, seed):
        stream = random_stream(seed, footprint=32 * 1024)
        caches = [
            preset(small_geometry(), UnprotectedScheme(), substrate=s)
            for s in SUBSTRATES
        ]
        latencies = [drive(cache, stream) for cache in caches]
        assert latencies[0] == latencies[1]
        assert state_key(caches[0]) == state_key(caches[1])


class TestDirtyEvictionAccounting:
    """Write-back dirty lines must be written to memory exactly once,
    when evicted — on either substrate."""

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_dirty_eviction_writes_back(self, substrate):
        geometry = small_geometry()
        cache = WriteBackCache(geometry, substrate=substrate)
        assoc, stride = geometry.associativity, geometry.n_sets * 64
        # Fill set 0 with dirty lines (write-allocate misses)...
        for i in range(assoc):
            cache.write(i * stride)
        assert cache.memory_reads == assoc  # allocate fetches
        assert cache.memory_writes == 0  # nothing posted, nothing evicted
        # ...then evict them all with clean read misses.
        for i in range(assoc, 2 * assoc):
            cache.read(i * stride)
        assert cache.stats.evictions == assoc
        assert cache.memory_writes == assoc  # one write-back per dirty line

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_clean_eviction_writes_nothing(self, substrate):
        geometry = small_geometry()
        cache = WriteBackCache(geometry, substrate=substrate)
        assoc, stride = geometry.associativity, geometry.n_sets * 64
        for i in range(2 * assoc):
            cache.read(i * stride)
        assert cache.stats.evictions == assoc
        assert cache.memory_writes == 0

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_invalidate_line_flushes_dirty(self, substrate):
        cache = WriteBackCache(small_geometry(), substrate=substrate)
        cache.write(0)
        way = cache.tags.lookup(0)
        before = cache.memory_writes
        cache.invalidate_line(0, way)
        assert cache.memory_writes == before + 1

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_rewrite_does_not_double_count_dirty(self, substrate):
        cache = WriteBackCache(small_geometry(), substrate=substrate)
        for _ in range(5):
            cache.write(0)  # stays dirty; on_dirty fires once
        stride = cache.geometry.n_sets * 64
        for i in range(1, cache.geometry.associativity + 1):
            cache.read(i * stride)
        assert cache.memory_writes == 1
