"""Struct-of-arrays substrate vs the object reference.

Drives both tag-store implementations through the same randomized
operation sequences and checks every observable after every step, and
does the same for the two LRU states.  This is the unit-level half of
the substrate contract; the system-level half (whole simulations
bit-identical) lives in ``tests/gpu/test_substrate_equivalence.py``.
"""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import LruState
from repro.cache.object_store import SetAssocCache
from repro.cache.soa import SoaLruState, SoaTagStore

GEO = CacheGeometry(size_bytes=4096, line_bytes=64, associativity=4)
# 16 sets x 4 ways; address pool spans 4x the cache so sets see
# evictions, re-fills and tag aliasing.
ADDR_POOL = [line * GEO.line_bytes for line in range(4 * GEO.n_lines)]


def assert_stores_equal(ref: SetAssocCache, soa: SoaTagStore):
    """Every observable of the two tag stores matches."""
    assert soa.count_valid() == ref.count_valid()
    assert soa.count_disabled() == ref.count_disabled()
    assert soa.valid_in_set == ref.valid_in_set
    assert soa.disabled_in_set == ref.disabled_in_set
    for set_index in range(GEO.n_sets):
        assert soa.enabled_ways(set_index) == ref.enabled_ways(set_index)
        assert soa.first_invalid(set_index) == ref.first_invalid(set_index)
        all_ways = list(range(GEO.associativity))
        assert soa.invalid_among(set_index, all_ways) == ref.invalid_among(
            set_index, all_ways
        )
        for way in range(GEO.associativity):
            assert soa.is_valid(set_index, way) == ref.is_valid(set_index, way)
            assert soa.is_disabled(set_index, way) == ref.is_disabled(
                set_index, way
            )
            assert soa.is_dirty(set_index, way) == ref.is_dirty(set_index, way)
            if ref.is_valid(set_index, way):
                assert soa.tag_at(set_index, way) == ref.tag_at(set_index, way)
    for addr in ADDR_POOL:
        assert soa.lookup(addr) == ref.lookup(addr)


class TestTagStoreEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_op_sequence(self, seed):
        rng = np.random.default_rng(seed)
        ref = SetAssocCache(GEO)
        soa = SoaTagStore(GEO)
        for step in range(600):
            op = rng.choice(
                ["insert", "insert", "insert", "invalidate", "disable",
                 "dirty", "enable_all"],
                p=[0.3, 0.15, 0.15, 0.15, 0.1, 0.04, 0.11],
            )
            set_index = int(rng.integers(GEO.n_sets))
            way = int(rng.integers(GEO.associativity))
            if op == "insert":
                addr = ADDR_POOL[int(rng.integers(len(ADDR_POOL)))]
                # The access protocol only fills on a miss, into an
                # enabled way — mirror that precondition.
                if ref.lookup(addr) is not None:
                    continue
                set_index = GEO.set_of(addr)
                if ref.is_disabled(set_index, way):
                    with pytest.raises(ValueError):
                        ref.insert(addr, way)
                    with pytest.raises(ValueError):
                        soa.insert(addr, way)
                    continue
                ref.insert(addr, way)
                soa.insert(addr, way)
            elif op == "invalidate":
                ref.invalidate(set_index, way)
                soa.invalidate(set_index, way)
            elif op == "disable":
                ref.disable(set_index, way)
                soa.disable(set_index, way)
            elif op == "dirty":
                # Only resident lines are ever dirtied (write-back
                # cache marks after a hit or fill).
                if not ref.is_valid(set_index, way):
                    continue
                value = bool(rng.integers(2))
                ref.set_dirty(set_index, way, value)
                soa.set_dirty(set_index, way, value)
            else:
                ref.enable_all()
                soa.enable_all()
            if step % 20 == 0:
                assert_stores_equal(ref, soa)
        assert_stores_equal(ref, soa)

    def test_insert_over_valid_replaces_index(self):
        # Same set, different tags: the displaced tag must stop hitting.
        soa = SoaTagStore(GEO)
        a, b = 0, GEO.n_sets * GEO.line_bytes  # both map to set 0
        soa.insert(a, way=1)
        assert soa.lookup(a) == 1
        soa.insert(b, way=1)
        assert soa.lookup(a) is None
        assert soa.lookup(b) == 1
        assert soa.count_valid() == 1

    def test_disable_invalidates_and_blocks_fill(self):
        soa = SoaTagStore(GEO)
        soa.insert(0, way=2)
        soa.disable(0, 2)
        assert soa.lookup(0) is None
        assert not soa.is_valid(0, 2)
        assert soa.count_disabled() == 1
        with pytest.raises(ValueError):
            soa.insert(0, 2)
        soa.enable_all()
        assert soa.count_disabled() == 0
        soa.insert(0, 2)
        assert soa.lookup(0) == 2


class TestLruEquivalence:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_randomized_touch_demote(self, seed):
        rng = np.random.default_rng(seed)
        n_sets, assoc = 8, 4
        ref = LruState(n_sets, assoc)
        soa = SoaLruState(n_sets, assoc)
        for _ in range(500):
            set_index = int(rng.integers(n_sets))
            way = int(rng.integers(assoc))
            if rng.random() < 0.7:
                ref.touch(set_index, way)
                soa.touch(set_index, way)
            else:
                ref.demote(set_index, way)
                soa.demote(set_index, way)
            assert soa.recency_order(set_index) == ref.recency_order(set_index)
            assert soa.lru_way(set_index) == ref.lru_way(set_index)
            n_eligible = int(rng.integers(1, assoc + 1))
            eligible = sorted(
                rng.choice(assoc, size=n_eligible, replace=False).tolist()
            )
            assert soa.lru_choice(set_index, eligible) == ref.lru_choice(
                set_index, eligible
            )

    def test_initial_order_matches_reference(self):
        ref, soa = LruState(3, 4), SoaLruState(3, 4)
        for set_index in range(3):
            assert soa.recency_order(set_index) == ref.recency_order(set_index)
            assert soa.lru_way(set_index) == ref.lru_way(set_index) == 3

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            SoaLruState(0, 4)
        with pytest.raises(ValueError):
            SoaLruState(4, 0)


class TestSubstrateSelection:
    def test_resolve_explicit(self):
        from repro.cache.core import CacheModel

        assert type(CacheModel(GEO, substrate="object").tags) is SetAssocCache
        assert type(CacheModel(GEO, substrate="soa").tags) is SoaTagStore
        assert CacheModel(GEO).substrate == "soa"  # the default
        with pytest.raises(ValueError, match="unknown substrate 'aos'"):
            CacheModel(GEO, substrate="aos")
