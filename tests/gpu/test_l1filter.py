"""The batched L1 stage against the per-access L1 path.

The engine's L1 entry (:func:`repro.gpu.l1filter.run_l1_stream_memo`,
one call per CU) runs every CU's stream through one lockstep kernel
call and commits each L1's share.  A twin set of SoA L1s takes the same
streams one access at a time through ``SimpleL1.read`` / ``write``.
Both must agree on the L2-bound residue positions, every
``CacheStats`` counter, the memory traffic and ``state_snapshot()``,
which records every way's recency under LRU fill, and both tag stores
must pass ``verify()``.
"""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.gpu.config import GpuConfig
from repro.gpu.engine import GpuSimulator
from repro.gpu.hierarchy import SimpleL1
from repro.gpu.l1filter import run_l1_stream_memo
from repro.metrics import METRICS
from repro.traces.base import CuStream, Trace
from repro.traces.workloads import workload_trace

CONFIG = GpuConfig()


def fresh_trace(workload: str, accesses: int = 400, seed: int = 5) -> Trace:
    """A new trace object, so no filter record from another test leaks in."""
    return workload_trace(
        workload, accesses, n_cus=CONFIG.n_cus, rng=np.random.default_rng(seed)
    )


def directed_trace(streams) -> Trace:
    """A trace of ``(line numbers, store flags)`` streams, 64 B lines."""
    return Trace(
        "directed",
        [
            CuStream(
                addrs=np.asarray(lines, dtype=np.int64) * 64,
                is_store=np.asarray(stores, dtype=bool),
                gaps=np.zeros(len(lines), dtype=np.int64),
            )
            for lines, stores in streams
        ],
    )


def per_access(l1s, trace) -> list:
    """Each CU's L2-bound positions through ``read`` / ``write``."""
    residues = []
    for l1, stream in zip(l1s, trace.streams):
        addrs, stores, _ = stream.scalar_columns()
        residue = []
        for i, (addr, store) in enumerate(zip(addrs, stores)):
            if store:
                l1.write(addr)
                residue.append(i)
            elif not l1.read(addr):
                residue.append(i)
        residues.append(residue)
    return residues


def l1_stage(l1s, trace) -> list:
    """Each CU's L2-bound positions through the engine's L1 entry."""
    residues = []
    for l1, stream in zip(l1s, trace.streams):
        addrs, stores, _ = stream.array_columns()
        keep = run_l1_stream_memo(l1, stream, addrs, stores)
        assert keep.dtype == np.int64
        residues.append(keep.tolist())
    return residues


def observed(l1):
    l1.tags.verify()
    return (
        l1.stats.as_dict(),
        l1.memory_reads,
        l1.memory_writes,
        l1.state_snapshot(),
        list(l1.lru.age),
        list(l1.lru._clock),
    )


def twins(geometry: CacheGeometry, n: int):
    return (
        [SimpleL1(geometry) for _ in range(n)],
        [SimpleL1(geometry) for _ in range(n)],
    )


def assert_same(reference, batched):
    assert [observed(l1) for l1 in batched] == [observed(l1) for l1 in reference]


@pytest.fixture
def counters():
    METRICS.enable(propagate_env=False)
    METRICS.reset()
    try:
        yield METRICS.counters
    finally:
        METRICS.disable(propagate_env=False)
        METRICS.reset()


def memo_counts(counters) -> tuple:
    return (
        counters.get("l1filter.memo_misses", 0),
        counters.get("l1filter.memo_hits", 0),
    )


@pytest.mark.parametrize("workload", ["xsbench", "comd", "nekbone"])
def test_virgin_l1s_match_per_access(workload):
    trace = fresh_trace(workload)
    reference, batched = twins(CONFIG.l1_geometry(), CONFIG.n_cus)
    expected = per_access(reference, trace)
    assert l1_stage(batched, trace) == expected
    assert_same(reference, batched)
    # The stream really exercises the L1: hits, evictions, store hits.
    totals = [l1.stats for l1 in batched]
    assert sum(s.read_hits for s in totals) > 0
    assert sum(s.evictions for s in totals) > 0
    assert sum(s.write_hits for s in totals) > 0


def test_second_simulator_replays_the_memo(counters):
    """The first simulator filters the trace (8 misses); a second one on
    the same trace commits the memo records (8 hits) into the same
    state."""
    trace = fresh_trace("xsbench")
    reference = [SimpleL1(CONFIG.l1_geometry()) for _ in range(CONFIG.n_cus)]
    per_access(reference, trace)
    scalar = GpuSimulator(CONFIG, engine="scalar")
    expected = scalar.run(trace)
    for hits in (0, 8):
        batched = GpuSimulator(CONFIG, engine="batched")
        result = batched.run(trace)
        assert memo_counts(counters) == (8, hits)
        assert_same(reference, batched.l1s)
        assert result.per_cu_cycles == expected.per_cu_cycles
        assert result.l1_stats == expected.l1_stats
        assert batched.state_digest() == scalar.state_digest()


def test_non_virgin_l1s_run_on_live_state(counters):
    first, second = fresh_trace("comd", seed=1), fresh_trace("nekbone", seed=2)
    sim = GpuSimulator(CONFIG, engine="batched")
    results = sim.run_kernels([first, second])
    assert memo_counts(counters) == (8, 0)  # the second kernel is not virgin
    reference = [SimpleL1(CONFIG.l1_geometry()) for _ in range(CONFIG.n_cus)]
    per_access(reference, first)
    per_access(reference, second)
    assert_same(reference, sim.l1s)
    scalar = GpuSimulator(CONFIG, engine="scalar")
    expected = scalar.run_kernels([first, second])
    assert [r.per_cu_cycles for r in results] == [r.per_cu_cycles for r in expected]
    assert sim.state_digest() == scalar.state_digest()


def test_empty_stream_beside_non_empty_ones():
    rng = np.random.default_rng(3)
    streams = [
        (rng.integers(0, 600, 200), rng.random(200) < 0.3) for _ in range(3)
    ]
    streams.insert(1, ([], []))
    trace = directed_trace(streams)
    reference, batched = twins(CONFIG.l1_geometry(), len(streams))
    expected = per_access(reference, trace)
    assert expected[1] == []
    assert l1_stage(batched, trace) == expected
    assert_same(reference, batched)


def test_all_streams_empty(counters):
    trace = directed_trace([([], [])] * 4)
    reference, batched = twins(CONFIG.l1_geometry(), 4)
    assert l1_stage(batched, trace) == [[]] * 4
    assert_same(reference, batched)
    assert memo_counts(counters) == (4, 0)


def test_one_stream_object_for_every_cu(counters):
    rng = np.random.default_rng(4)
    lines = rng.integers(0, 900, 400)
    stream = directed_trace([(lines, rng.random(400) < 0.25)]).streams[0]
    trace = Trace("repeated", [stream] * CONFIG.n_cus)
    reference, batched = twins(CONFIG.l1_geometry(), CONFIG.n_cus)
    expected = per_access(reference, trace)
    assert l1_stage(batched, trace) == expected
    assert_same(reference, batched)
    # Filtered once; every later CU commits the same record.
    assert memo_counts(counters) == (1, CONFIG.n_cus - 1)


@pytest.mark.parametrize(
    "size, assoc",
    [(256, 4), (64 * 2 * 8, 2), (64 * 8 * 4, 8)],
    ids=["1-set", "2-way", "8-way"],
)
def test_geometries(size, assoc):
    geometry = CacheGeometry(size_bytes=size, line_bytes=64, associativity=assoc)
    rng = np.random.default_rng(size + assoc)
    span = 3 * geometry.n_lines
    streams = [(rng.integers(0, span, 300), rng.random(300) < 0.3) for _ in range(5)]
    trace = directed_trace(streams)
    reference, batched = twins(geometry, len(streams))
    expected = per_access(reference, trace)
    assert l1_stage(batched, trace) == expected
    assert_same(reference, batched)
    # Then a second pass on the warm (non-virgin) L1s.
    assert l1_stage(batched, trace) == per_access(reference, trace)
    assert_same(reference, batched)


def test_disabled_l1_way_is_refused():
    l1 = SimpleL1(CONFIG.l1_geometry())
    l1.tags.disable(0, 1)
    stream = directed_trace([([0, 64, 128], [False, False, False])]).streams[0]
    addrs, stores, _ = stream.array_columns()
    with pytest.raises(ValueError, match="disabled way"):
        run_l1_stream_memo(l1, stream, addrs, stores)
