"""Dirty-writeback accounting on both simulators.

These directed tests pin the write-back L2's full accounting — stats,
``memory_reads`` and ``memory_writes`` — on the scalar reference
(object substrate) and the batched engine (SoA substrate), including
the per-access fallback the batched engine must take for the
write-back protocol.
"""

import numpy as np

from repro.cache.core import WriteBackCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import UnprotectedScheme
from repro.gpu.config import GpuConfig
from repro.gpu.engine import GpuSimulator
from repro.traces.base import CuStream, Trace

ENGINES = ("scalar", "batched")


def small_config() -> GpuConfig:
    return GpuConfig(
        n_cus=3,
        l2=CacheGeometry(
            size_bytes=64 * 1024, line_bytes=64, associativity=8, banks=4
        ),
    )


def make_trace(addrs_per_cu, stores) -> Trace:
    streams = []
    for addrs, st in zip(addrs_per_cu, stores):
        streams.append(
            CuStream(
                addrs=np.array(addrs, dtype=np.int64),
                is_store=np.array(st),
                gaps=np.zeros(len(addrs), dtype=np.int64),
            )
        )
    return Trace("directed-wb", streams)


def writeback_sim(config, engine) -> GpuSimulator:
    scheme = UnprotectedScheme()
    sim = GpuSimulator(config, scheme, engine=engine)
    sim.l2 = WriteBackCache(
        config.l2, scheme, config.l2_latencies, substrate=sim.l2.substrate
    )
    return sim


def run_all_combos(trace, config=None):
    config = config or small_config()
    results = {}
    for engine in ENGINES:
        sim = writeback_sim(config, engine)
        r = sim.run(trace)
        results[engine] = (
            r.cycles,
            r.per_cu_cycles,
            r.l2_stats.as_dict(),
            sim.l2.memory_reads,
            sim.l2.memory_writes,
        )
    return results


def assert_identical(results):
    reference = results["scalar"]
    for engine, got in results.items():
        assert got == reference, engine
    return reference


class TestDirtyWritebacks:
    def test_dirty_evictions_hit_memory_once_everywhere(self):
        config = small_config()
        stride = config.l2.n_sets * 64
        assoc = config.l2.associativity
        # One CU dirties a whole set, then its clean read misses evict
        # every dirty line (single stream: the eviction order is exact).
        addrs = [i * stride for i in range(2 * assoc)]
        stores = [True] * assoc + [False] * assoc
        trace = make_trace([addrs, [], []], [stores, [], []])
        ref = assert_identical(run_all_combos(trace, config))
        cycles, _, stats, memory_reads, memory_writes = ref
        assert stats["evictions"] == assoc
        assert memory_writes == assoc  # one write-back per dirty line
        # Every access missed: allocate fetches for stores too.
        assert memory_reads == 2 * assoc

    def test_clean_traffic_posts_nothing(self):
        config = small_config()
        stride = config.l2.n_sets * 64
        assoc = config.l2.associativity
        addrs = [i * stride for i in range(2 * assoc)]
        trace = make_trace([addrs, [], []], [[False] * len(addrs), [], []])
        ref = assert_identical(run_all_combos(trace, config))
        _, _, stats, _, memory_writes = ref
        assert stats["evictions"] == assoc
        assert memory_writes == 0

    def test_fuzzed_mixed_streams_identical(self):
        config = small_config()
        n_sets = config.l2.n_sets
        for seed in (31, 32, 33):
            rng = np.random.default_rng(seed)
            addrs, stores = [], []
            for _ in range(3):
                n = int(rng.integers(40, 160))
                # Confine lines to 4 sets so capacity evictions (and
                # hence dirty write-backs) actually happen.
                lines = rng.integers(0, 16, n) * n_sets + rng.integers(0, 4, n)
                addrs.append((lines * 64).tolist())
                stores.append((rng.random(n) < 0.5).tolist())
            trace = make_trace(addrs, stores)
            ref = assert_identical(run_all_combos(trace, config))
            memory_writes = ref[4]
            assert memory_writes > 0  # dirty evictions occurred

    def test_write_hits_do_not_touch_memory(self):
        config = small_config()
        # Repeated stores to one resident line: allocate once, then
        # in-place dirty hits only.
        trace = make_trace([[0] * 10, [], []], [[True] * 10, [], []])
        ref = assert_identical(run_all_combos(trace, config))
        _, _, stats, memory_reads, memory_writes = ref
        assert stats["write_hits"] == 9
        assert memory_reads == 1
        assert memory_writes == 0
