#!/usr/bin/env python
"""Microbenchmark harness for the batched classification kernels.

Times the hot paths that PR 2 vectorized, each against the scalar
reference implementation that stays in the tree:

- ``sampler``   — Monte-Carlo coverage sampler throughput
  (:meth:`CoverageSampler.estimate` vs ``estimate_scalar``);
- ``linestate`` — per-access line-signal latency (int-row
  ``LineSignalKernel.signals_row`` and the memoized
  ``LineErrorModel.signals`` vs scalar ``signals_for_positions``),
  plus the per-line ``on_fill`` cost below the SECDED Vmin;
- ``hierarchy`` — per-access latency of the protected L2 on each tag
  substrate (object reference vs struct-of-arrays fast path);
- ``cache_core`` — the unified transaction layer
  (:meth:`CacheModel.execute`) on both write policies and both tag
  substrates, cross-checked identical;
- ``l2_replay`` — the lockstep replay kernel, through the entry
  point the batched engine calls (:meth:`CacheModel.lockstep_mask` +
  :meth:`CacheModel.replay_lockstep`), vs the per-access
  ``read``/``write`` loop on the same stream of a DECTED-protected L2
  with CORRECTED and disabled ways, checked bit-identical;
- ``l1_filter`` — the batched L1 stage, through the engine's L1 entry
  (``run_l1_stream_memo`` per CU, no memo: one lockstep kernel call
  for all 8 CUs), vs per-access ``SimpleL1.read``/``write`` on the
  same fresh 8-CU trace, checked bit-identical;
- ``killi_replay`` — the Killi interpreter, through the entry point
  the batched engine calls (``scheme.batch_interpreter(l2).run``), vs
  the per-access ``read``/``write`` loop on the same residue of a Killi
  L2 below the SECDED Vmin, checked bit-identical;
- ``fig6``      — Figure 6 coverage sweep end-to-end wall clock;
- ``fig4``      — a Figure 4 scheme-panel slice end-to-end on both
  simulators (the batched engine on SoA caches and the scalar
  reference on object caches), checked bit-identical per cell.

Every run also records ``src_loc``, the non-blank source lines under
``src/repro``, so the size of the simulator is tracked like its speed.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py --quick
    PYTHONPATH=src python benchmarks/perf/run_bench.py --full --output BENCH_PR3.json

``--fail-if-slower`` exits non-zero when any fast path is slower than
its reference, or when a benchmark regressed against the newest
committed ``BENCH_PR*.json`` at the repo root — the CI perf-smoke
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.montecarlo import CoverageSampler
from repro.baselines import DectedScheme
from repro.cache.core import (
    AccessTransaction,
    WriteBackCache,
    WriteThroughCache,
)
from repro.core.dfh import Dfh, classify, classify_cached
from repro.core.linestate import LineErrorModel
from repro.faults.cell_model import CellFaultModel
from repro.faults.fault_map import FaultMap
from repro.gpu.config import GpuConfig
from repro.gpu.hierarchy import SimpleL1
from repro.gpu.l1filter import run_l1_stream_memo
from repro.harness.experiments import fig6_coverage
from repro.metrics import METRICS
from repro.harness.runner import (
    LV_VOLTAGE,
    fault_map_for,
    run_cell,
    trace_for,
)
from repro.scenario.config import cell_scenario
from repro.scenario.schemes import make_scheme
from repro.traces.workloads import workload_trace
from repro.utils.rng import RngFactory
from repro.scenario.runfile import scenario_fingerprint
from repro.testing.invariants import INVARIANTS_ENV

REPO_ROOT = Path(__file__).resolve().parents[2]

_QUICK = {
    "sampler_samples": 5_000,
    "linestate_accesses": 2_000,
    "hierarchy_accesses": 20_000,
    "cache_core_accesses": 20_000,
    "l2_replay_accesses": 20_000,
    "l1_filter_accesses_per_cu": 2_000,
    "killi_replay_accesses": 20_000,
    "killi_classify_ops": 20_000,
    "fuzz_overhead_accesses": 20_000,
    "fig6": False,
    # 6k accesses/CU: past the warmup-dominated regime (cold Killi
    # caches are nearly all misses, which batch no better than the
    # per-access loop), so the killi batched-vs-scalar gate holds with
    # real margin even on noisy runners.
    "fig4_accesses": 6_000,
    "fig4_reps": 2,
}
_FULL = {
    "sampler_samples": 100_000,
    "linestate_accesses": 20_000,
    "hierarchy_accesses": 200_000,
    "cache_core_accesses": 200_000,
    "l2_replay_accesses": 200_000,
    "l1_filter_accesses_per_cu": 30_000,
    "killi_replay_accesses": 200_000,
    "killi_classify_ops": 200_000,
    "fuzz_overhead_accesses": 200_000,
    "fig6": True,
    "fig4_accesses": 30_000,
    "fig4_reps": 2,
}

#: The Figure 4 panel benched end-to-end: both paper outliers x the
#: full scheme family (inert baseline, the three MBIST oracles with
#: per-way CORRECTED replay, and Killi through its cluster
#: interpreter).
_FIG4_WORKLOADS = ("xsbench", "fft")
_FIG4_SCHEMES = ("baseline", "dected", "flair", "msecc", "killi_1:8")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def bench_sampler(samples: int) -> dict:
    """Coverage-sampler throughput, scalar vs vectorized, same seed."""
    sampler = CoverageSampler()
    # Scalar reference is ~60x slower per pattern; cap its sample count
    # so the harness stays snappy, then compare per-pattern rates.
    scalar_samples = min(samples, 20_000)
    scalar_s, scalar = _timed(
        sampler.estimate_scalar, 0.6, scalar_samples, np.random.default_rng(7)
    )
    vector_s, vector = _timed(
        sampler.estimate, 0.6, samples, np.random.default_rng(7)
    )
    replay_s, replay = _timed(
        sampler.estimate,
        0.6,
        scalar_samples,
        np.random.default_rng(7),
        scalar_draws=True,
    )
    assert (replay.patterns, replay.misclassified) == (
        scalar.patterns,
        scalar.misclassified,
    ), "compat mode diverged from the scalar reference"
    scalar_rate = scalar.draws / scalar_s
    vector_rate = vector.draws / vector_s
    return {
        "samples": samples,
        "scalar_samples": scalar_samples,
        "scalar_seconds": round(scalar_s, 4),
        "vectorized_seconds": round(vector_s, 4),
        "scalar_draws_per_sec": round(scalar_rate),
        "vectorized_draws_per_sec": round(vector_rate),
        "replay_seconds": round(replay_s, 4),
        "replay_bit_identical": True,
        "speedup": round(vector_rate / scalar_rate, 2),
        "failure_rate": vector.failure_rate,
    }


def bench_linestate(accesses: int) -> dict:
    """Per-access signal latency over a dense fault population, and the
    per-fill cost on the default fault map below the SECDED Vmin."""
    anchors = ((0.5, 0.2), (0.625, 3e-2), (1.0, 1e-9))
    fault_map = FaultMap(
        n_lines=512,
        cell_model=CellFaultModel(anchors=anchors),
        rng=np.random.default_rng(13),
    )
    model = LineErrorModel(fault_map, 0.625, np.random.default_rng(14))
    lines = [line for line in range(512) if fault_map.has_faults(line)]
    for line in lines:
        model.on_fill(line, salt=line)
    position_sets = [sorted(model.error_positions(line)) for line in lines]
    int_rows = [model._rows[line] for line in lines]

    n = accesses

    def run_scalar():
        for i in range(n):
            model.signals_for_positions(position_sets[i % len(lines)], 16, True)

    def run_int_row():
        kernel = model.kernel
        for i in range(n):
            kernel.signals_row(int_rows[i % len(lines)], 16, True)

    def run_memoized():
        for i in range(n):
            model.signals(lines[i % len(lines)], 16, True)

    scalar_s, _ = _timed(run_scalar)
    row_s, _ = _timed(run_int_row)
    model._signal_cache.clear()
    memo_s, _ = _timed(run_memoized)

    # Fills at 0.600 V, where nearly every line of the paper's L2 has
    # active faults and each fill rolls the masking coins.
    low_voltage = 0.600
    default_map = fault_map_for(GpuConfig().l2.n_lines, 42)
    low = LineErrorModel(default_map, low_voltage, np.random.default_rng(15))
    faulty = [
        line for line in range(default_map.n_lines) if low.slot_has_active(line)
    ]

    def run_fills():
        for i in range(n):
            low.on_fill(faulty[i % len(faulty)], salt=i)

    fill_s, _ = _timed(run_fills)
    return {
        "accesses": n,
        "faulty_lines": len(lines),
        "scalar_us_per_access": round(scalar_s / n * 1e6, 2),
        "int_row_us_per_access": round(row_s / n * 1e6, 2),
        "memoized_us_per_access": round(memo_s / n * 1e6, 2),
        "speedup_int_row": round(scalar_s / row_s, 2),
        "speedup_memoized": round(scalar_s / memo_s, 2),
        "fill_voltage": low_voltage,
        "fill_faulty_frac": round(len(faulty) / default_map.n_lines, 4),
        "fill_us": round(fill_s / n * 1e6, 3),
    }


def bench_hierarchy(accesses: int) -> dict:
    """Per-access latency of the protected L2 on each tag substrate.

    Replays one deterministic read/write stream (80% loads, working
    set ~4x the cache) through two caches that differ only in their
    ``substrate``, and cross-checks that both ended with the same
    counters — the bench doubles as an equivalence smoke test.
    """
    config = GpuConfig()
    rng = np.random.default_rng(23)
    n_lines = config.l2.n_sets * config.l2.associativity
    addrs = (
        rng.integers(0, 4 * n_lines, size=accesses) * config.l2.line_bytes
    ).tolist()
    stores = (rng.random(accesses) < 0.2).tolist()

    def run(substrate: str):
        cache = WriteThroughCache(
            config.l2, latencies=config.l2_latencies, substrate=substrate
        )
        cycles = 0
        start = time.perf_counter()
        for addr, store in zip(addrs, stores):
            cycles += cache.write(addr) if store else cache.read(addr)
        return time.perf_counter() - start, cache, cycles

    object_s, object_cache, object_cycles = run("object")
    soa_s, soa_cache, soa_cycles = run("soa")
    assert (soa_cycles, soa_cache.stats) == (object_cycles, object_cache.stats), (
        "substrates diverged on the hierarchy stream"
    )
    return {
        "accesses": accesses,
        "object_ns_per_access": round(object_s / accesses * 1e9, 1),
        "soa_ns_per_access": round(soa_s / accesses * 1e9, 1),
        "speedup_soa": round(object_s / soa_s, 2),
        "substrates_bit_identical": True,
    }


def bench_cache_core(accesses: int) -> dict:
    """The unified transaction layer, across policies and substrates.

    Replays one deterministic mixed stream (20% stores, working set
    ~4x the cache) through ``CacheModel.execute`` on the two shipped
    L2 policy presets (write-through / no-write-allocate and
    write-back / write-allocate) on both tag substrates, asserting
    that each preset's two substrates finish with identical cycles,
    counters and memory traffic.  Times the object reference against
    the SoA fast path (best of three, each rep on a cold cache —
    single-shot timing at quick-mode sizes is allocator-warmup noise)
    for the write-through preset (the paper's L2), so the transaction
    layer itself is held to the same --fail-if-slower gate as every
    other fast path.
    """
    config = GpuConfig()
    geometry = config.l2
    rng = np.random.default_rng(53)
    n_lines = geometry.n_sets * geometry.associativity
    addrs = (
        rng.integers(0, 4 * n_lines, size=accesses) * geometry.line_bytes
    ).tolist()
    stores = (rng.random(accesses) < 0.2).tolist()
    txns = [
        AccessTransaction(addr, is_store=store)
        for addr, store in zip(addrs, stores)
    ]

    def run(preset, substrate: str, reps: int = 3):
        best = None
        for _ in range(reps):
            cache = preset(
                geometry, latencies=config.l2_latencies, substrate=substrate
            )
            cycles = 0
            start = time.perf_counter()
            execute = cache.execute
            for txn in txns:
                cycles += execute(txn)
            seconds = time.perf_counter() - start
            best = seconds if best is None else min(best, seconds)
        return best, cache, cycles

    timings = {}
    for preset in (WriteThroughCache, WriteBackCache):
        object_s, object_cache, object_cycles = run(preset, "object")
        soa_s, soa_cache, soa_cycles = run(preset, "soa")
        assert (
            soa_cycles,
            soa_cache.stats,
            soa_cache.memory_reads,
            soa_cache.memory_writes,
        ) == (
            object_cycles,
            object_cache.stats,
            object_cache.memory_reads,
            object_cache.memory_writes,
        ), f"substrates diverged on the {preset.__name__} stream"
        timings[preset] = (object_s, soa_s)

    wt_object_s, wt_soa_s = timings[WriteThroughCache]
    wb_object_s, wb_soa_s = timings[WriteBackCache]
    return {
        "accesses": accesses,
        "object_ns_per_access": round(wt_object_s / accesses * 1e9, 1),
        "soa_ns_per_access": round(wt_soa_s / accesses * 1e9, 1),
        "writeback_soa_ns_per_access": round(wb_soa_s / accesses * 1e9, 1),
        "speedup_soa": round(wt_object_s / wt_soa_s, 2),
        "speedup_soa_writeback": round(wb_object_s / wb_soa_s, 2),
        "substrates_bit_identical": True,
    }


def bench_l2_replay(accesses: int) -> dict:
    """The lockstep replay kernel vs the per-access L2 loop.

    Same deterministic stream (20% stores, working set ~2x the cache)
    through two identical full-size SoA L2s protected by DECTED at
    0.6125 V, whose fault map leaves both CORRECTED ways (1–2 faults)
    and disabled ways (3+): one access at a time via ``read``/``write``,
    and as one residue through ``lockstep_mask`` -> ``replay_lockstep``,
    the entry point the batched engine calls per kernel.  Each side is
    timed best of three, each rep on a fresh cache.  Per-access
    latencies, stats, memory traffic and the state digest are
    cross-checked, so the bench doubles as an equivalence smoke test
    of the kernel itself.
    """
    config = GpuConfig()
    geometry = config.l2
    voltage = 0.6125
    fault_map = fault_map_for(geometry.n_lines, 42)
    rng = np.random.default_rng(31)
    lines = rng.integers(0, 2 * geometry.n_lines, size=accesses)
    stores = rng.random(accesses) < 0.2
    set_idx = lines % geometry.n_sets
    addrs = (lines * geometry.line_bytes).tolist()
    stores_list = stores.tolist()

    def make_cache():
        return WriteThroughCache(
            geometry,
            DectedScheme(geometry, fault_map, voltage),
            config.l2_latencies,
            substrate="soa",
        )

    def per_access(cache):
        read, write = cache.read, cache.write
        return [
            write(addr) if store else read(addr)
            for addr, store in zip(addrs, stores_list)
        ]

    def lockstep(cache):
        return cache.replay_lockstep(
            lines, stores, set_idx, cache.lockstep_mask()
        ).tolist()

    timed = {}
    for name, run in (("per_access", per_access), ("lockstep", lockstep)):
        best = None
        for _ in range(3):
            cache = make_cache()
            seconds, latencies = _timed(run, cache)
            best = seconds if best is None else min(best, seconds)
        timed[name] = (best, cache, latencies)
    scalar_s, reference, expected = timed["per_access"]
    batched_s, batched, got = timed["lockstep"]

    def observed(cache):
        return (
            cache.stats,
            cache.memory_reads,
            cache.memory_writes,
            cache.state_digest(),
        )

    assert got == expected and observed(batched) == observed(reference), (
        "lockstep replay diverged from the per-access loop"
    )
    return {
        "accesses": accesses,
        "voltage": voltage,
        "disabled_lines": batched.tags.count_disabled(),
        "corrected_reads": batched.stats.corrected_reads,
        "per_access_ns": round(scalar_s / accesses * 1e9, 1),
        "batched_ns_per_access": round(batched_s / accesses * 1e9, 1),
        "speedup_batched": round(scalar_s / batched_s, 2),
        "replay_bit_identical": True,
    }


def bench_l1_filter(accesses_per_cu: int) -> dict:
    """The batched L1 stage vs the per-access L1 loop.

    One private 8-CU xsbench trace (seed 42, not shared with the other
    benches' memoised traces) runs through two sets of fresh SoA L1s:
    through the engine's L1 entry (``run_l1_stream_memo``, called per CU
    as the engine calls it; the first call runs every CU's stream
    through one lockstep kernel call), with every stream's memo record
    cleared first, and one access at a time through ``SimpleL1.read`` /
    ``write``.  Each side is timed best of three, each rep on fresh
    L1s.  Residues, stats, memory traffic and state digests are
    cross-checked.
    """
    config = GpuConfig()
    geometry = config.l1_geometry()
    trace = workload_trace(
        "xsbench", accesses_per_cu, n_cus=config.n_cus, rng=np.random.default_rng(42)
    )
    accesses = trace.total_accesses

    def per_access(l1s):
        residues = []
        for l1, stream in zip(l1s, trace.streams):
            addrs, stores, _ = stream.scalar_columns()
            read, write = l1.read, l1.write
            residue = []
            for i, (addr, store) in enumerate(zip(addrs, stores)):
                if store:
                    write(addr)
                    residue.append(i)
                elif not read(addr):
                    residue.append(i)
            residues.append(residue)
        return residues

    def kernel(l1s):
        residues = []
        for l1, stream in zip(l1s, trace.streams):
            addrs, stores, _ = stream.array_columns()
            residues.append(run_l1_stream_memo(l1, stream, addrs, stores).tolist())
        return residues

    timed = {}
    for name, run in (("per_access", per_access), ("kernel", kernel)):
        best = None
        for _ in range(3):
            for stream in trace.streams:
                stream._l1_filter_cache = None
            l1s = [SimpleL1(geometry) for _ in range(config.n_cus)]
            seconds, residues = _timed(run, l1s)
            best = seconds if best is None else min(best, seconds)
        timed[name] = (best, l1s, residues)
    scalar_s, reference, expected = timed["per_access"]
    kernel_s, batched, got = timed["kernel"]

    def observed(l1s):
        return [
            (l1.stats, l1.memory_reads, l1.memory_writes, l1.state_digest())
            for l1 in l1s
        ]

    assert got == expected and observed(batched) == observed(reference), (
        "batched L1 stage diverged from the per-access loop"
    )
    return {
        "accesses_per_cu": accesses_per_cu,
        "accesses": accesses,
        "residue_frac": round(sum(map(len, got)) / accesses, 4),
        "per_access_ns": round(scalar_s / accesses * 1e9, 1),
        "kernel_ns_per_access": round(kernel_s / accesses * 1e9, 1),
        "speedup_kernel": round(scalar_s / kernel_s, 2),
        "filter_bit_identical": True,
    }


def bench_killi_replay(accesses: int) -> dict:
    """The Killi interpreter vs the per-access L2 loop.

    Same deterministic stream (20% stores, working set ~2x the cache)
    through two identical full-size SoA L2s protected by killi_1:8 at
    0.600 V, below the SECDED Vmin: fills evict ECC-cache entries,
    lines get disabled and write hits on faulty slots draw the shared
    RNG.  One side runs it access by access via ``read``/``write``, the
    other as one residue through ``scheme.batch_interpreter(l2).run``,
    the entry point the batched engine calls per kernel.  Three
    interleaved measurements each time one rep per side, back to back
    on fresh caches, the side that runs first alternating; the headline
    timings and the gated speedup are the medians of the three, and
    each measurement is recorded.  Per-access latencies, stats, memory
    traffic, the state digest and the RNG state are cross-checked on
    every rep.
    """
    config = GpuConfig()
    geometry = config.l2
    voltage = 0.600
    scheme_name = "killi_1:8"
    fault_map = fault_map_for(geometry.n_lines, 42)
    rng = np.random.default_rng(37)
    lines = rng.integers(0, 2 * geometry.n_lines, size=accesses)
    stores = rng.random(accesses) < 0.2
    addrs = (lines * geometry.line_bytes).tolist()
    lines_list = lines.tolist()
    stores_list = stores.tolist()
    set_list = (lines % geometry.n_sets).tolist()

    def make_cache():
        scheme = make_scheme(
            scheme_name, config, fault_map, voltage, RngFactory(42).child("bench")
        )
        return WriteThroughCache(geometry, scheme, config.l2_latencies, substrate="soa")

    def per_access(cache):
        read, write = cache.read, cache.write
        return [
            write(addr) if store else read(addr)
            for addr, store in zip(addrs, stores_list)
        ]

    def interpreted(cache):
        latencies = [0] * accesses
        cache.scheme.batch_interpreter(cache).run(
            lines_list, stores_list, latencies, set_list
        )
        return latencies

    def observed(cache, latencies):
        return (
            latencies,
            cache.stats,
            cache.memory_reads,
            cache.memory_writes,
            cache.state_digest(),
            repr(cache.scheme.errors.rng.bit_generator.state),
        )

    sides = [("per_access", per_access), ("interpreter", interpreted)]
    measurements = []
    reference = None
    for index in range(3):
        seconds = {}
        for name, run in sides if index % 2 == 0 else sides[::-1]:
            cache = make_cache()
            seconds[name], latencies = _timed(run, cache)
            if reference is None:
                reference = observed(cache, latencies)
            assert observed(cache, latencies) == reference, (
                "Killi interpreter diverged from the per-access loop"
            )
        measurements.append(seconds)
    batched = cache

    def median(values):
        return sorted(values)[len(values) // 2]

    interpreter_ns = [
        round(m["interpreter"] / accesses * 1e9, 1) for m in measurements
    ]
    speedups = [
        round(m["per_access"] / m["interpreter"], 2) for m in measurements
    ]
    scalar_s = median([m["per_access"] for m in measurements])
    return {
        "accesses": accesses,
        "scheme": scheme_name,
        "voltage": voltage,
        "disabled_lines": batched.tags.count_disabled(),
        "ecc_evictions": batched.scheme.ecc.evictions,
        "write_hits": batched.stats.write_hits,
        "per_access_ns": round(scalar_s / accesses * 1e9, 1),
        # The gated statistics: medians of three interleaved
        # measurements, each recorded.  One measurement alone spreads
        # by about 15% between runs of equal code.
        "interpreter_ns_per_access": median(interpreter_ns),
        "interpreter_ns_per_access_runs": interpreter_ns,
        "speedup_interpreter": median(speedups),
        "speedup_interpreter_runs": speedups,
        "replay_bit_identical": True,
    }


def bench_killi_classify(ops: int) -> dict:
    """Table 2 classification dispatch: reference vs cached.

    A seeded stream of ``ops`` (DFH state, signal triple) rows spanning
    every accessible cell of Table 2, classified two ways: the
    reference per-row dispatch (``classify``, with enum identity
    checks and a fresh ``Classification`` per call) and the interned
    table lookup (``classify_cached`` — the form ``Table2Policy``
    decides through, on both the per-access path and the cluster
    interpreter).  Every distinct cell in the stream is cross-checked
    against the reference encoding, so the bench doubles as an
    agreement test of the lookup table.
    """
    rng = np.random.default_rng(43)
    dfh = rng.integers(0, 3, size=ops).astype(np.int8)
    sp = rng.integers(0, 4, size=ops)  # exercises the >=2 clamp
    syn = rng.random(ops) < 0.5
    gp = rng.random(ops) < 0.5
    rows = list(zip(dfh.tolist(), sp.tolist(), syn.tolist(), gp.tolist()))

    def run_reference():
        for d, s, y, g in rows:
            classify(Dfh(d), s, y, g)

    def run_cached():
        for d, s, y, g in rows:
            classify_cached(d, s, y, g)

    reference_s, _ = _timed(run_reference)
    cached_s, _ = _timed(run_cached)

    for d, s, y, g in sorted(set(rows)):
        assert classify_cached(d, s, y, g) == classify(Dfh(d), s, y, g), (
            "classify_cached diverged from the reference dispatch"
        )

    return {
        "ops": ops,
        "reference_ns_per_op": round(reference_s / ops * 1e9, 1),
        "cached_ns_per_op": round(cached_s / ops * 1e9, 1),
        "speedup_cached": round(reference_s / cached_s, 2),
        "kernels_bit_identical": True,
    }


def bench_fig6() -> dict:
    seconds, data = _timed(fig6_coverage)
    return {
        "seconds": round(seconds, 3),
        "voltages": len(data["voltage"]),
        "killi_min_pct": round(min(data["killi"]), 3),
    }


def _fig4_cell(workload, scheme, accesses, engine):
    """One timed fig4 cell; returns (result dict sans timing, seconds)."""
    spec = cell_scenario(
        workload=workload, scheme=scheme, voltage=LV_VOLTAGE, seed=42,
        accesses_per_cu=accesses, engine=engine,
    )
    start = time.perf_counter()
    result = run_cell(spec)
    seconds = time.perf_counter() - start
    payload = result.to_dict()
    payload.pop("elapsed_s", None)
    payload.pop("from_cache", None)
    return payload, seconds


def bench_fig4(accesses: int, reps: int = 1) -> dict:
    """End-to-end Figure 4 scheme panel on both simulators.

    Every cell of the (xsbench, fft) x (baseline, dected, flair,
    msecc, killi_1:8) panel runs on the scalar reference and the
    batched engine — each on its own substrate, timed best of ``reps``
    and cross-checked bit-identical.  ``seconds`` is the batched
    engine's panel total (the headline number tracked across BENCH
    files).  ``speedup_batched_geomean`` — the acceptance headline —
    is the batched-vs-scalar speedup as the **geometric mean of
    per-cell ratios** (each cell weighted equally, the standard
    cross-benchmark mean); the total-seconds ratio
    ``speedup_batched_aggregate`` rides along for transparency.
    Older BENCH files carry the same geomean under its former name,
    ``speedup_vectorized``.

    ``killi_speedup_batched_min`` records the worst Killi cell (the
    cluster interpreter) and ``mbist_speedup_batched_min`` the worst
    baseline or MBIST-oracle cell (the lockstep kernel).
    ``batched_telemetry`` captures the engine's batched/fallback
    counters accumulated over the panel: both paths batch every L2
    access of these cells, so a fallback counter here is a finding.
    """
    workloads = list(_FIG4_WORKLOADS)
    schemes = list(_FIG4_SCHEMES)
    engines = ("scalar", "batched")
    # Warm the trace memo so the first-timed engine does not pay trace
    # generation on behalf of both.
    for workload in workloads:
        trace_for(workload, accesses, GpuConfig().n_cus, 42)
    snap = METRICS.snapshot()
    counters_before = dict(snap.get("counters", snap) or {})
    totals = dict.fromkeys(engines, 0.0)
    ratios = []
    per_cell = []
    for workload in workloads:
        for scheme in schemes:
            results = {}
            times = {}
            for engine in engines:
                payload, seconds = _fig4_cell(workload, scheme, accesses, engine)
                for _ in range(reps - 1):
                    seconds = min(
                        seconds, _fig4_cell(workload, scheme, accesses, engine)[1]
                    )
                results[engine] = payload
                times[engine] = seconds
                totals[engine] += seconds
            assert results["batched"] == results["scalar"], (
                f"engines diverged on {workload}/{scheme}"
            )
            ratio = times["scalar"] / times["batched"]
            ratios.append(ratio)
            per_cell.append({
                "workload": workload,
                "scheme": scheme,
                "scalar_s": round(times["scalar"], 3),
                "batched_s": round(times["batched"], 3),
                "speedup_batched": round(ratio, 2),
            })
    geomean = float(np.exp(np.mean(np.log(ratios))))
    killi_cells = [c for c in per_cell if c["scheme"].startswith("killi")]
    mbist_cells = [c for c in per_cell if not c["scheme"].startswith("killi")]
    snap = METRICS.snapshot()
    counters_after = snap.get("counters", snap) or {}
    batched_telemetry = {
        key: counters_after[key] - counters_before.get(key, 0)
        for key in sorted(counters_after)
        if key.startswith("engine.batched.")
    }
    # Fingerprint of the exact cell set simulated above; ties this
    # BENCH entry to a reproducible unit of work, independent of the
    # engine.
    cells = [
        cell_scenario(
            workload,
            scheme,
            voltage=LV_VOLTAGE,
            seed=42,
            accesses_per_cu=accesses,
        )
        for workload in workloads
        for scheme in schemes
    ]
    return {
        "seconds": round(totals["batched"], 2),
        "scalar_seconds": round(totals["scalar"], 2),
        "speedup_batched_geomean": round(geomean, 2),
        "speedup_batched_aggregate": round(
            totals["scalar"] / totals["batched"], 2
        ),
        "killi_speedup_batched_min": round(
            min(c["speedup_batched"] for c in killi_cells), 2
        ) if killi_cells else None,
        "mbist_speedup_batched_min": round(
            min(c["speedup_batched"] for c in mbist_cells), 2
        ) if mbist_cells else None,
        "batched_telemetry": batched_telemetry,
        "engines_bit_identical": True,
        "engines": list(engines),
        "workloads": len(workloads),
        "schemes": len(schemes),
        "accesses_per_cu": accesses,
        "per_cell": per_cell,
        "scenario_fingerprint": scenario_fingerprint(cells),
    }


def bench_fuzz_overhead(accesses: int) -> dict:
    """The armed-invariant layer must be free when the flag is off.

    ``REPRO_CHECK_INVARIANTS`` arms per-access structural checks by
    shadowing the bound ``read``/``write`` methods per instance (see
    docs/testing.md); with the flag off the hot path must carry zero
    extra cost.  Three interleaved measurements of one deterministic
    mixed stream on the SoA substrate:

    - *control* — the pristine class-level methods fetched past the
      instance dict: what a build without the invariant machinery
      would execute;
    - *disarmed* — the normal bound-method path with the flag off
      (every production run);
    - *armed* — flag on, wrappers installed.  Capped sample: the
      checks are O(assoc) per access and deliberately not
      performance-gated; the timing is recorded for scale only.

    Asserts the disarmed instance carries no wrapper attributes and
    reports disarmed-vs-control overhead as the median of three
    independent measurements (each recorded), which
    ``--fail-if-slower`` gates below 2% (the no-op bound).
    """
    config = GpuConfig()
    geometry = config.l2
    rng = np.random.default_rng(911)
    n_lines = geometry.n_sets * geometry.associativity
    addrs = (
        rng.integers(0, 4 * n_lines, size=accesses) * geometry.line_bytes
    ).tolist()
    stores = (rng.random(accesses) < 0.2).tolist()
    armed_n = min(accesses, 50_000)

    def build(armed: bool):
        saved = os.environ.pop(INVARIANTS_ENV, None)
        if armed:
            os.environ[INVARIANTS_ENV] = "1"
        try:
            return WriteThroughCache(
                geometry, latencies=config.l2_latencies, substrate="soa"
            )
        finally:
            os.environ.pop(INVARIANTS_ENV, None)
            if saved is not None:
                os.environ[INVARIANTS_ENV] = saved

    stream = list(zip(addrs, stores))

    def run(read, write, lo: int, hi: int) -> float:
        start = time.perf_counter()
        for addr, store in stream[lo:hi]:
            if store:
                write(addr)
            else:
                read(addr)
        return time.perf_counter() - start

    def keep_min(best, seconds):
        return seconds if best is None else min(best, seconds)

    # Both variants drive ONE disarmed cache — control through the
    # pristine class-level bound methods, disarmed through normal
    # attribute resolution — alternating chunk-by-chunk over the
    # stream, with the chunk assignment flipped every rep.  Separate
    # whole-stream loops (or even twin cache instances) pick up
    # several percent of systematic skew from clock drift, CPU-cache
    # warmth and allocation order, which would swamp a 2% gate; the
    # single-cache alternation cancels all three.  Each chunk index
    # is driven by BOTH variants across the reps (the parity flip),
    # so the overhead pairs them exactly: per chunk index, each
    # variant's best-of-reps time (best absorbs GC pauses and
    # scheduler stalls), then the median ratio over all chunk
    # indices.  The whole measurement runs three times and the gate
    # reads the median of the three.  The reported per-access rates
    # are best-of-reps.
    chunk = max(1, accesses // 200)
    control_ns = disarmed_ns = armed_ns = None
    overheads = []
    for _ in range(3):
        chunk_times = {}
        for rep in range(6):
            cache = build(armed=False)
            assert (
                "read" not in cache.__dict__ and "write" not in cache.__dict__
            ), "disarmed cache has invariant wrappers installed"
            cls = type(cache)
            control_read = cls.read.__get__(cache)
            control_write = cls.write.__get__(cache)
            disarmed_read = cache.read
            disarmed_write = cache.write
            control_total = disarmed_total = 0.0
            control_n = disarmed_n = 0
            for index, lo in enumerate(range(0, accesses, chunk)):
                hi = min(lo + chunk, accesses)
                cell = chunk_times.setdefault(index, {})
                if (index + rep) % 2:
                    seconds = run(disarmed_read, disarmed_write, lo, hi)
                    disarmed_total += seconds
                    disarmed_n += hi - lo
                    cell["disarmed"] = keep_min(cell.get("disarmed"), seconds)
                else:
                    seconds = run(control_read, control_write, lo, hi)
                    control_total += seconds
                    control_n += hi - lo
                    cell["control"] = keep_min(cell.get("control"), seconds)
            control_ns = keep_min(control_ns, control_total / control_n * 1e9)
            disarmed_ns = keep_min(disarmed_ns, disarmed_total / disarmed_n * 1e9)
            armed_cache = build(armed=True)
            assert (
                "read" in armed_cache.__dict__ and "write" in armed_cache.__dict__
            ), "REPRO_CHECK_INVARIANTS=1 did not arm the wrappers"
            armed_ns = keep_min(
                armed_ns,
                run(armed_cache.read, armed_cache.write, 0, armed_n)
                / armed_n
                * 1e9,
            )
        ratios = sorted(
            cell["disarmed"] / cell["control"]
            for cell in chunk_times.values()
            if "disarmed" in cell and "control" in cell
        )
        mid = len(ratios) // 2
        median_ratio = (
            ratios[mid]
            if len(ratios) % 2
            else (ratios[mid - 1] + ratios[mid]) / 2
        )
        overheads.append(round((median_ratio - 1.0) * 100, 2))
    return {
        "accesses": accesses,
        "control_ns_per_access": round(control_ns, 1),
        "disarmed_ns_per_access": round(disarmed_ns, 1),
        "armed_ns_per_access": round(armed_ns, 1),
        # The gated statistic: the median of three independent
        # measurements, each recorded.  One measurement alone still
        # wanders by a few percent between back-to-back runs.
        "disarmed_overhead_pct": sorted(overheads)[1],
        "disarmed_overhead_pct_runs": overheads,
        "armed_slowdown_x": round(armed_ns / control_ns, 2),
        "disarmed_wrappers_absent": True,
    }


_BASELINE_HEADLINE_KEYS = {
    # Per benchmark: the fast-path timing fields compared against the
    # newest committed BENCH file (lower is better).  Scalar-reference
    # timings are deliberately excluded — a slow reference is not a
    # regression.
    "sampler": ("vectorized_seconds",),
    "linestate": ("memoized_us_per_access", "fill_us"),
    "hierarchy": ("soa_ns_per_access",),
    "cache_core": ("soa_ns_per_access",),
    "l2_replay": ("batched_ns_per_access",),
    "l1_filter": ("kernel_ns_per_access",),
    "killi_replay": ("interpreter_ns_per_access",),
    "killi_classify": ("cached_ns_per_op",),
    "fuzz_overhead": ("disarmed_ns_per_access",),
    "fig6": ("seconds",),
    "fig4_slice": ("seconds",),
}

_BASELINE_SPEEDUP_KEYS = {
    # Per benchmark: fast-path speedups compared the other way round
    # (higher is better), each with the name older BENCH files used.
    "fig4_slice": (("speedup_batched_geomean", "speedup_vectorized"),),
}


def source_lines(root: Path = REPO_ROOT / "src" / "repro") -> int:
    """Non-blank lines of every ``.py`` file under ``root``."""
    total = 0
    for path in root.rglob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        total += sum(1 for line in lines if line.strip())
    return total


def newest_committed_bench(root: Path = REPO_ROOT) -> Path | None:
    """The highest-numbered ``BENCH_PR<n>.json`` at the repo root."""
    benches = {}
    for path in root.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            benches[int(match.group(1))] = path
    return benches[max(benches)] if benches else None


def compare_to_baseline(results: dict, baseline: dict, tolerance: float) -> list:
    """Headline timings and speedups that regressed past ``tolerance``."""
    regressions = []
    for name in _BASELINE_HEADLINE_KEYS.keys() | _BASELINE_SPEEDUP_KEYS.keys():
        current = results["benchmarks"].get(name)
        reference = baseline.get("benchmarks", {}).get(name)
        if current is None or reference is None:
            continue
        sizes_match = all(
            current[size_key] == reference[size_key]
            for size_key in (
                "samples",
                "accesses",
                "accesses_per_cu",
                "ops",
                "workloads",
                "schemes",
            )
            if size_key in current and size_key in reference
        )
        if not sizes_match:
            # Quick-mode runs use smaller sizes than the committed
            # full-mode baseline; per-access timings don't transfer.
            continue
        for key in _BASELINE_HEADLINE_KEYS.get(name, ()):
            if key not in current or key not in reference:
                continue
            if current[key] > reference[key] * tolerance:
                regressions.append(
                    f"{name}.{key} {current[key]} > "
                    f"{tolerance:g}x baseline {reference[key]}"
                )
        for key, old_key in _BASELINE_SPEEDUP_KEYS.get(name, ()):
            previous = reference.get(key, reference.get(old_key))
            if key not in current or previous is None:
                continue
            if current[key] * tolerance < previous:
                regressions.append(
                    f"{name}.{key} {current[key]} < "
                    f"baseline {previous} / {tolerance:g}"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", help="small sizes, skip end-to-end figures"
    )
    mode.add_argument(
        "--full", action="store_true", help="full sizes incl. fig6 + fig4 slice"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write results JSON here"
    )
    parser.add_argument(
        "--fail-if-slower",
        action="store_true",
        help="exit 1 if any fast path is slower than its reference or "
        "regressed vs the newest committed BENCH_PR*.json",
    )
    parser.add_argument(
        "--slower-tolerance",
        type=float,
        default=1.25,
        help="regression factor vs the committed baseline tolerated "
        "before --fail-if-slower trips (absorbs runner timing noise)",
    )
    args = parser.parse_args(argv)
    sizes = _FULL if args.full else _QUICK

    # Telemetry rides along with every bench run: the counters/timers
    # land in the output JSON so a BENCH file also documents cache
    # behaviour and per-engine phase timings.  Guarded observations add
    # a handful of perf_counter calls per kernel — far below the
    # --fail-if-slower tolerance.
    METRICS.enable(propagate_env=False)

    results = {
        "mode": "full" if args.full else "quick",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_loc": source_lines(),
        "benchmarks": {},
    }
    print(f"perf bench ({results['mode']} mode), src_loc {results['src_loc']}")

    results["benchmarks"]["sampler"] = sampler = bench_sampler(
        sizes["sampler_samples"]
    )
    print(
        f"  sampler:   {sampler['vectorized_draws_per_sec']:>9,} draws/s vectorized "
        f"vs {sampler['scalar_draws_per_sec']:>7,} scalar  "
        f"({sampler['speedup']:.1f}x)"
    )

    results["benchmarks"]["linestate"] = linestate = bench_linestate(
        sizes["linestate_accesses"]
    )
    print(
        f"  linestate: {linestate['int_row_us_per_access']:6.2f} us/access int row "
        f"vs {linestate['scalar_us_per_access']:6.2f} scalar  "
        f"({linestate['speedup_int_row']:.1f}x, memoized "
        f"{linestate['speedup_memoized']:.1f}x); "
        f"{linestate['fill_us']:.2f} us/fill at {linestate['fill_voltage']} V"
    )

    results["benchmarks"]["hierarchy"] = hierarchy = bench_hierarchy(
        sizes["hierarchy_accesses"]
    )
    print(
        f"  hierarchy: {hierarchy['soa_ns_per_access']:6.1f} ns/access soa "
        f"vs {hierarchy['object_ns_per_access']:6.1f} object  "
        f"({hierarchy['speedup_soa']:.1f}x)"
    )

    results["benchmarks"]["cache_core"] = cache_core = bench_cache_core(
        sizes["cache_core_accesses"]
    )
    print(
        f"  cache_core:{cache_core['soa_ns_per_access']:6.1f} ns/access soa "
        f"vs {cache_core['object_ns_per_access']:6.1f} object  "
        f"({cache_core['speedup_soa']:.1f}x, write-back "
        f"{cache_core['speedup_soa_writeback']:.1f}x)"
    )

    results["benchmarks"]["l2_replay"] = l2_replay = bench_l2_replay(
        sizes["l2_replay_accesses"]
    )
    print(
        f"  l2_replay: {l2_replay['batched_ns_per_access']:6.1f} ns/access batched "
        f"vs {l2_replay['per_access_ns']:6.1f} per-access  "
        f"({l2_replay['speedup_batched']:.1f}x)"
    )

    results["benchmarks"]["l1_filter"] = l1_filter = bench_l1_filter(
        sizes["l1_filter_accesses_per_cu"]
    )
    print(
        f"  l1_filter: {l1_filter['kernel_ns_per_access']:6.1f} ns/access kernel "
        f"vs {l1_filter['per_access_ns']:6.1f} per-access  "
        f"({l1_filter['speedup_kernel']:.1f}x)"
    )

    results["benchmarks"]["killi_replay"] = killi_replay = bench_killi_replay(
        sizes["killi_replay_accesses"]
    )
    print(
        f"  killi_rep: {killi_replay['interpreter_ns_per_access']:6.1f} ns/access "
        f"interpreter vs {killi_replay['per_access_ns']:6.1f} per-access  "
        f"({killi_replay['speedup_interpreter']:.1f}x)"
    )

    results["benchmarks"]["killi_classify"] = killi_cls = bench_killi_classify(
        sizes["killi_classify_ops"]
    )
    print(
        f"  killi_cls: {killi_cls['cached_ns_per_op']:6.1f} ns/op cached "
        f"vs {killi_cls['reference_ns_per_op']:6.1f} reference  "
        f"({killi_cls['speedup_cached']:.1f}x)"
    )

    results["benchmarks"]["fuzz_overhead"] = fuzz_ov = bench_fuzz_overhead(
        sizes["fuzz_overhead_accesses"]
    )
    print(
        f"  fuzz_ovh:  {fuzz_ov['disarmed_ns_per_access']:6.1f} ns/access disarmed "
        f"vs {fuzz_ov['control_ns_per_access']:6.1f} control  "
        f"({fuzz_ov['disarmed_overhead_pct']:+.2f}%, armed "
        f"{fuzz_ov['armed_slowdown_x']:.1f}x)"
    )

    if sizes["fig6"]:
        results["benchmarks"]["fig6"] = fig6 = bench_fig6()
        print(f"  fig6:      {fig6['seconds']:.3f}s end-to-end")
    if sizes["fig4_accesses"]:
        results["benchmarks"]["fig4_slice"] = fig4 = bench_fig4(
            sizes["fig4_accesses"], reps=sizes["fig4_reps"]
        )
        print(
            f"  fig4:      {fig4['seconds']:.2f}s batched "
            f"(scalar {fig4['scalar_seconds']:.2f}s, geomean "
            f"{fig4['speedup_batched_geomean']:.1f}x, aggregate "
            f"{fig4['speedup_batched_aggregate']:.1f}x, killi min "
            f"{fig4['killi_speedup_batched_min']}x, mbist min "
            f"{fig4['mbist_speedup_batched_min']}x) "
            f"for {fig4['workloads']}x{fig4['schemes']} cells at "
            f"{fig4['accesses_per_cu']} accesses/CU"
        )

    results["telemetry"] = METRICS.snapshot()

    if args.output:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"  wrote {args.output}")

    if args.fail_if_slower:
        slower = []
        if sampler["speedup"] < 1.0:
            slower.append(f"sampler ({sampler['speedup']}x)")
        if linestate["speedup_int_row"] < 1.0:
            slower.append(f"linestate ({linestate['speedup_int_row']}x)")
        if hierarchy["speedup_soa"] < 1.0:
            slower.append(f"hierarchy ({hierarchy['speedup_soa']}x)")
        if cache_core["speedup_soa"] < 1.0:
            slower.append(f"cache_core ({cache_core['speedup_soa']}x)")
        if l2_replay["speedup_batched"] < 1.0:
            slower.append(f"l2_replay ({l2_replay['speedup_batched']}x)")
        if l1_filter["speedup_kernel"] < 1.0:
            slower.append(f"l1_filter ({l1_filter['speedup_kernel']}x)")
        if killi_replay["speedup_interpreter"] < 1.0:
            slower.append(
                f"killi_replay ({killi_replay['speedup_interpreter']}x)"
            )
        if killi_cls["speedup_cached"] < 1.0:
            slower.append(f"killi_classify cached ({killi_cls['speedup_cached']}x)")
        if fuzz_ov["disarmed_overhead_pct"] >= 2.0:
            slower.append(
                "invariant layer not a no-op when disarmed "
                f"({fuzz_ov['disarmed_overhead_pct']:+.2f}%)"
            )
        fig4 = results["benchmarks"].get("fig4_slice")
        if fig4 is not None and fig4["speedup_batched_geomean"] < 1.0:
            slower.append(f"fig4_slice ({fig4['speedup_batched_geomean']}x)")
        if slower:
            print(f"FAIL: fast path slower than reference: {', '.join(slower)}")
            return 1
        baseline_path = newest_committed_bench()
        if baseline_path is not None:
            baseline = json.loads(baseline_path.read_text())
            regressions = compare_to_baseline(
                results, baseline, args.slower_tolerance
            )
            if regressions:
                print(
                    f"FAIL: regressed vs {baseline_path.name}: "
                    + "; ".join(regressions)
                )
                return 1
            print(f"  no regressions vs {baseline_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
