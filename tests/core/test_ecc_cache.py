"""Tests for the ECC metadata cache."""

import pytest

from repro.core.ecc_cache import EccCache


#: Protected-cache shape wide enough for every (set, way) probed below.
L2_SHAPE = (32, 8)


@pytest.fixture
def ecc():
    return EccCache(n_entries=16, assoc=4, l2_shape=L2_SHAPE)  # 4 sets x 4 ways


class TestConstruction:
    def test_shape(self, ecc):
        assert ecc.n_sets == 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            EccCache(n_entries=2, assoc=4, l2_shape=L2_SHAPE)

    def test_not_divisible(self):
        with pytest.raises(ValueError):
            EccCache(n_entries=10, assoc=4, l2_shape=L2_SHAPE)

    def test_index_mapping(self, ecc):
        assert ecc.index_of(0) == 0
        assert ecc.index_of(4) == 0
        assert ecc.index_of(5) == 1


class TestInsertLookup:
    def test_insert_and_contains(self, ecc):
        assert ecc.insert(0, 3) is None
        assert ecc.contains(0, 3)
        assert not ecc.contains(0, 4)

    def test_duplicate_insert_raises(self, ecc):
        ecc.insert(0, 3)
        with pytest.raises(ValueError):
            ecc.insert(0, 3)

    def test_eviction_when_set_full(self, ecc):
        # L2 sets 0, 4, 8, 12 all map to ECC set 0.
        for i, l2_set in enumerate([0, 4, 8, 12]):
            assert ecc.insert(l2_set, i) is None
        evicted = ecc.insert(16, 5)
        assert evicted == (0, 0)  # LRU of ECC set 0
        assert not ecc.contains(0, 0)
        assert ecc.contains(16, 5)

    def test_disjoint_sets_no_contention(self, ecc):
        for l2_set in range(4):  # distinct ECC sets
            for way in range(4):
                assert ecc.insert(l2_set, way) is None
        assert ecc.occupancy == 16


class TestLruCoordination:
    def test_touch_protects_entry(self, ecc):
        for i, l2_set in enumerate([0, 4, 8, 12]):
            ecc.insert(l2_set, i)
        ecc.touch(0, 0)  # promote the oldest (paper Section 4.4)
        evicted = ecc.insert(16, 5)
        assert evicted == (4, 1)  # the second-oldest got evicted

    def test_touch_missing_raises(self, ecc):
        with pytest.raises(ValueError):
            ecc.touch(0, 0)


class TestRemoveClear:
    def test_remove(self, ecc):
        ecc.insert(0, 1)
        assert ecc.remove(0, 1)
        assert not ecc.contains(0, 1)

    def test_remove_missing_is_noop(self, ecc):
        assert not ecc.remove(0, 1)

    def test_remove_frees_slot(self, ecc):
        for i, l2_set in enumerate([0, 4, 8, 12]):
            ecc.insert(l2_set, i)
        ecc.remove(4, 1)
        assert ecc.insert(16, 5) is None  # no eviction needed

    def test_clear(self, ecc):
        ecc.insert(0, 1)
        ecc.insert(1, 2)
        ecc.clear()
        assert ecc.occupancy == 0

    def test_stats_counters(self, ecc):
        for i, l2_set in enumerate([0, 4, 8, 12, 16]):
            ecc.insert(l2_set, i)
        assert ecc.allocations == 5
        assert ecc.evictions == 1
