"""The lockstep replay kernel against the per-access path.

One stream runs through ``read``/``write`` on an SoA write-through
cache and through :meth:`~repro.cache.core.CacheModel.replay_lockstep`
on a twin.  Both start warm, with random disabled ways (whole sets
included), free ways left mid-set by invalidations, and a random
CORRECTED mask.  After each of two kernels the twins must agree on
every per-access latency, the stats, the memory traffic, the canonical
state snapshot and the raw LRU ages and clocks.  The same holds for a
plain-LRU-fill cache (the L1 policy), virgin or warm, whose victim key
is every way's age; such a cache with a disabled way is refused.
"""

import numpy as np
import pytest

from repro.cache.core import LRU_FILL, CacheModel, WriteThroughCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome, ProtectionScheme

GEOMETRY = CacheGeometry(
    size_bytes=16 * 1024, line_bytes=64, associativity=8, banks=4
)
N_SETS = GEOMETRY.n_sets
ASSOC = GEOMETRY.associativity


class MaskScheme(ProtectionScheme):
    """Read hits on a masked way resolve CORRECTED, on the per-access
    path and in the lockstep kernel alike."""

    def __init__(self, mask):
        super().__init__()
        self.mask = mask

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        if self.mask[set_index, way]:
            return AccessOutcome.CORRECTED
        return AccessOutcome.CLEAN

    def lockstep_mask(self, geometry):
        return self.mask


def random_stream(rng, n: int):
    """Mixed loads and stores over ~3x the cache, a third of them
    crowded into two hot sets so some sets take many steps."""
    lines = rng.integers(0, 3 * N_SETS * ASSOC, n)
    hot = rng.random(n) < 0.3
    n_hot = int(hot.sum())
    lines[hot] = rng.integers(0, 6 * ASSOC, n_hot) * N_SETS + rng.integers(0, 2, n_hot)
    stores = rng.random(n) < 0.3
    return lines, stores


def drive(cache, lines, stores) -> list:
    """Per-access latencies of a stream through ``read``/``write``."""
    return [
        cache.write(addr) if store else cache.read(addr)
        for addr, store in zip(
            (lines * GEOMETRY.line_bytes).tolist(), stores.tolist()
        )
    ]


def twins(seed: int):
    """Two identical warm caches: disabled ways and dead sets first,
    then a per-access warm-up, then a few invalidations."""
    rng = np.random.default_rng(seed)
    mask = rng.random((N_SETS, ASSOC)) < 0.3
    dead_sets = rng.choice(N_SETS, 3, replace=False).tolist()
    partial = list(zip(*np.nonzero(rng.random((N_SETS, ASSOC)) < 0.15)))
    warm_lines, warm_stores = random_stream(rng, 700)
    caches = []
    for _ in range(2):
        cache = WriteThroughCache(GEOMETRY, MaskScheme(mask))
        for set_index in dead_sets:
            for way in range(ASSOC):
                cache.tags.disable(set_index, way)
        for set_index, way in partial:
            cache.tags.disable(int(set_index), int(way))
        drive(cache, warm_lines, warm_stores)
        for set_index in range(0, N_SETS, 5):
            cache.invalidate_line(set_index, (set_index // 5) % ASSOC)
        caches.append(cache)
    return rng, caches


def observed(cache):
    return (
        cache.stats.as_dict(),
        cache.memory_reads,
        cache.memory_writes,
        cache.state_snapshot(),
        list(cache.lru.age),
        list(cache.lru._clock),
    )


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_matches_per_access(seed):
    rng, (per_access, lockstep) = twins(seed)
    assert observed(lockstep) == observed(per_access)
    for _ in range(2):
        lines, stores = random_stream(rng, 900)
        expected = drive(per_access, lines, stores)
        corrected = lockstep.lockstep_mask()
        assert corrected is not None
        got = lockstep.replay_lockstep(lines, stores, lines % N_SETS, corrected)
        assert got.tolist() == expected
        assert observed(lockstep) == observed(per_access)
        lockstep.tags.verify()
    stats = lockstep.stats
    assert stats.bypasses > 0
    assert stats.corrected_reads > 0
    assert stats.evictions > 0


def lru_fill_twins(seed: int, warm: bool):
    """Two identical plain-LRU-fill caches (the L1 policy): virgin, or
    warmed per access and then holed by invalidations, which demote the
    freed ways' ages below every other age in the set."""
    rng = np.random.default_rng(seed)
    warm_lines, warm_stores = random_stream(rng, 700)
    caches = []
    for _ in range(2):
        cache = CacheModel(GEOMETRY, allocation_policy=LRU_FILL)
        if warm:
            drive(cache, warm_lines, warm_stores)
            for set_index in range(0, N_SETS, 3):
                cache.invalidate_line(set_index, (set_index // 3) % ASSOC)
        caches.append(cache)
    return rng, caches


@pytest.mark.parametrize("warm", [False, True], ids=["virgin", "warm"])
@pytest.mark.parametrize("seed", range(3))
def test_lru_fill_key_matches_per_access(seed, warm):
    """Under LRU fill every way's key is its age, valid or not: a
    virgin set (ages 0, -1, -2, ...) evicts its last way first, and an
    invalidated way is the next victim, as ``_choose_victim`` picks."""
    rng, (per_access, lockstep) = lru_fill_twins(seed, warm)
    assert observed(lockstep) == observed(per_access)
    never = np.zeros((N_SETS, ASSOC), dtype=bool)
    for _ in range(2):
        lines, stores = random_stream(rng, 900)
        expected = drive(per_access, lines, stores)
        got = lockstep.replay_lockstep(lines, stores, lines % N_SETS, never)
        assert got.tolist() == expected
        assert observed(lockstep) == observed(per_access)
        lockstep.tags.verify()
    stats = lockstep.stats
    assert stats.evictions > 0 and stats.write_hits > 0 and stats.read_hits > 0


def test_lru_fill_with_a_disabled_way_is_refused():
    cache = CacheModel(GEOMETRY, allocation_policy=LRU_FILL)
    cache.tags.disable(3, 0)
    lines = np.array([3, 3 + N_SETS], dtype=np.int64)
    stores = np.zeros(2, dtype=bool)
    never = np.zeros((N_SETS, ASSOC), dtype=bool)
    with pytest.raises(ValueError, match="disabled way"):
        cache.replay_lockstep(lines, stores, lines % N_SETS, never)
