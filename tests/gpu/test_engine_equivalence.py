"""Engine equivalence: the batched simulator vs the scalar reference.

The acceptance contract for the fast path: for every workload and
scheme, the batched engine (on the SoA substrate) and the scalar
reference (on the object substrate) produce bit-identical cycles,
per-CU cycles and every CacheStats counter (L2 and all L1s).
Pinned here on a workload x scheme matrix, a seeded randomized fuzz
sweep, and directed edge cases (ragged streams, bank conflicts, empty
traces, disabled ways, 100%-fallback schemes, write-back cells,
multi-kernel runs), plus the batched engine's single per-set probe.
"""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import UnprotectedScheme
from repro.core.killi import KilliScheme
from repro.gpu.config import GpuConfig
from repro.gpu.engine import GpuSimulator
from repro.harness.runner import fault_map_for, make_scheme, run_cell
from repro.traces import workload_trace
from repro.traces.base import CuStream, Trace
from repro.metrics import METRICS
from repro.scenario.config import cell_scenario
from repro.utils.rng import RngFactory

ENGINES = ("scalar", "batched")
WORKLOADS = ("fft", "xsbench", "nekbone")
SCHEMES = ("baseline", "killi_1:64", "dected")


def run_with(
    engine: str,
    workload: str,
    scheme_name: str,
    seed: int = 21,
    accesses: int = 700,
):
    gpu_config = GpuConfig()
    fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
    trace = workload_trace(
        workload, accesses, n_cus=gpu_config.n_cus,
        rng=RngFactory(seed).stream(f"trace/{workload}"),
    )
    scheme = make_scheme(
        scheme_name, gpu_config, fault_map, 0.625,
        RngFactory(seed).child(f"{workload}/{scheme_name}"),
    )
    simulator = GpuSimulator(gpu_config, scheme, engine=engine)
    result = simulator.run(trace)
    return result, simulator


def result_key(result, simulator):
    return (
        result.cycles,
        result.per_cu_cycles,
        result.instructions,
        result.l2_stats.as_dict(),
        [s.as_dict() for s in result.l1_stats],
        simulator.l2.memory_reads,
        simulator.l2.memory_writes,
    )


def assert_identical(workload: str, scheme_name: str, **kwargs):
    reference = result_key(*run_with("scalar", workload, scheme_name, **kwargs))
    got = result_key(*run_with("batched", workload, scheme_name, **kwargs))
    assert got == reference, (workload, scheme_name)


class TestWorkloadSchemeMatrix:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bit_identical(self, workload, scheme):
        assert_identical(workload, scheme)


class TestRandomizedSweep:
    """Seeded fuzz: random (workload, scheme, seed) cells, both engines,
    through the differential executor (:mod:`repro.testing`).

    Strictly stronger than the hand-rolled ``run_cell`` loop this
    replaced: the oracle diffs the full canonical state snapshot —
    tags, recency orders, DFH state, RNG stream position — not just
    the result dict.  The scheme sample covers the inert baseline, all
    three MBIST-oracle families (per-way CORRECTED replay, disabled
    ways, FLAIR's configuration-gated filtering), two Killi ratios
    and two strong-code Killi variants (both decision policies through
    the cluster interpreter, shared-RNG write hits included).
    """

    CASES = [
        ("xsbench", "baseline", 3),
        ("fft", "dected", 4),
        ("lulesh", "flair", 5),
        ("snap", "msecc", 6),
        ("comd", "killi_1:8", 7),
        ("minife", "killi_1:64", 8),
        ("hpgmg", "dected", 9),
        ("pennant", "killi_1:8", 10),
        ("xsbench", "killi+dected_1:8", 11),
        ("nekbone", "killi+olsc-t11_1:8", 12),
    ]

    @pytest.mark.parametrize("workload,scheme,seed", CASES)
    def test_fuzzed_cell(self, workload, scheme, seed):
        from repro.testing.differential import diff_scenario

        rng = np.random.default_rng(seed)
        accesses = int(rng.integers(300, 900))
        scenario = cell_scenario(
            workload, scheme, voltage=0.625, seed=seed,
            accesses_per_cu=accesses,
        )
        divergence = diff_scenario(scenario)
        assert divergence is None, divergence.describe()


def make_trace(addrs_per_cu, stores=None, gaps=None) -> Trace:
    streams = []
    for cu, addrs in enumerate(addrs_per_cu):
        n = len(addrs)
        streams.append(CuStream(
            addrs=np.array(addrs, dtype=np.int64),
            is_store=np.array(stores[cu] if stores else [False] * n),
            gaps=np.array(gaps[cu] if gaps else [0] * n, dtype=np.int64),
        ))
    return Trace("directed", streams)


def random_trace(rng, n_cus=3, footprint=256 * 1024):
    """Fuzzed directed trace: ragged lengths, mixed stores, gaps."""
    addrs, stores, gaps = [], [], []
    for _ in range(n_cus):
        n = int(rng.integers(0, 120))
        addrs.append((rng.integers(0, footprint // 64, n) * 64).tolist())
        stores.append((rng.random(n) < 0.3).tolist())
        gaps.append(rng.integers(0, 4, n).tolist())
    return make_trace(addrs, stores=stores, gaps=gaps)


def small_config(**kwargs) -> GpuConfig:
    return GpuConfig(
        n_cus=3,
        l2=CacheGeometry(size_bytes=64 * 1024, line_bytes=64,
                         associativity=8, banks=4),
        **kwargs,
    )


class TestDirectedEdgeCases:
    def run_all(self, config, trace, scheme_factory=UnprotectedScheme,
                prepare=None):
        results = []
        for engine in ENGINES:
            sim = GpuSimulator(config, scheme_factory(), engine=engine)
            if prepare is not None:
                prepare(sim)
            r = sim.run(trace)
            results.append((r.cycles, r.per_cu_cycles, r.l2_stats.as_dict()))
        return results

    def assert_all_equal(self, results):
        for got in results[1:]:
            assert got == results[0]
        return results[0]

    def test_ragged_stream_lengths(self):
        # CUs exhaust at different rounds; the tail interleave must match.
        trace = make_trace(
            [[64 * i for i in range(17)], [0], [64 * i for i in range(5)]],
            gaps=[[1] * 17, [7], [3] * 5],
        )
        self.assert_all_equal(self.run_all(small_config(), trace))

    def test_empty_streams(self):
        trace = make_trace([[], [], []])
        ref = self.assert_all_equal(self.run_all(small_config(), trace))
        assert ref[0] == 0

    def test_bank_conflicts(self):
        # All CUs hammer the same bank every round: queueing delays on.
        config = small_config(model_bank_conflicts=True)
        stride = config.l2.n_sets * 64  # same set (hence bank) each time
        trace = make_trace(
            [[stride * i for i in range(12)] for _ in range(3)],
        )
        self.assert_all_equal(self.run_all(config, trace))

    def test_stores_and_loads_mixed(self):
        trace = make_trace(
            [[0, 64, 0, 128], [64, 64, 192, 0], [0, 0, 0, 0]],
            stores=[[True, False, False, True],
                    [False, True, False, False],
                    [True, True, False, False]],
            gaps=[[2, 0, 5, 1], [0, 0, 0, 9], [1, 1, 1, 1]],
        )
        self.assert_all_equal(self.run_all(small_config(), trace))

    def test_fuzzed_directed_traces(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            trace = random_trace(rng)
            config = small_config(
                model_bank_conflicts=bool(seed % 2),
            )
            self.assert_all_equal(self.run_all(config, trace))

    def test_disabled_ways_still_batch(self):
        """Partially-disabled sets replay (disabled ways never fill)."""
        rng = np.random.default_rng(42)
        trace = random_trace(rng, footprint=32 * 1024)

        def disable_some(sim):
            for set_index in range(0, sim.l2.geometry.n_sets, 3):
                sim.l2.tags.disable(set_index, 0)
                sim.l2.tags.disable(set_index, 5)

        self.assert_all_equal(self.run_all(
            small_config(), trace, prepare=disable_some,
        ))

    def test_multi_kernel_state_carryover(self):
        rng = np.random.default_rng(77)
        traces = [random_trace(rng), random_trace(rng)]
        results = []
        for engine in ENGINES:
            sim = GpuSimulator(small_config(), UnprotectedScheme(), engine=engine)
            rs = sim.run_kernels(traces)
            results.append([
                (r.cycles, r.per_cu_cycles, r.l2_stats.as_dict()) for r in rs
            ])
        for got in results[1:]:
            assert got == results[0]


class FallbackScheme(UnprotectedScheme):
    """Overrides a behavioural hook: every replay probe must refuse."""

    def __init__(self):
        super().__init__()
        self.fills = 0

    def on_fill(self, set_index: int, way: int) -> None:
        self.fills += 1


class TestBatchedFallback:
    def _counters(self):
        snap = METRICS.snapshot()
        return snap.get("counters", snap)

    def run_batched_vs_scalar(self, scheme_factory, trace, config=None):
        config = config or small_config()
        outs = []
        for engine in ENGINES:
            sim = GpuSimulator(config, scheme_factory(), engine=engine)
            r = sim.run(trace)
            outs.append((r.cycles, r.per_cu_cycles, r.l2_stats.as_dict()))
        assert outs[0] == outs[1]

    def test_hook_override_forces_full_fallback(self):
        """A scheme with any overridden hook batches nothing."""
        rng = np.random.default_rng(11)
        trace = random_trace(rng)
        METRICS.enable(propagate_env=False)
        try:
            METRICS.reset()
            self.run_batched_vs_scalar(FallbackScheme, trace)
            counters = self._counters()
            assert counters.get("engine.batched.accesses_batched", 0) == 0
            n = sum(len(s.addrs) for s in trace.streams)
            residue = counters.get("engine.batched.accesses_fallback", 0)
            assert 0 < residue <= n
        finally:
            METRICS.disable()

    def _cell(self, scheme: str):
        """Batched-engine counters (absent reads 0), result and
        simulator of one small cell."""
        METRICS.enable(propagate_env=False)
        try:
            METRICS.reset()
            result, simulator = run_with(
                "batched", "xsbench", scheme, accesses=400
            )
            counters = {
                key: value
                for key, value in self._counters().items()
                if key.startswith("engine.batched.")
            }
            return counters, result, simulator
        finally:
            METRICS.disable()

    def _cell_counters(self, scheme: str) -> dict:
        return self._cell(scheme)[0]

    @pytest.mark.parametrize("scheme", ["dected", "flair"])
    def test_mbist_sets_batch_at_their_one_probe(self, scheme):
        """Static profiles: every set batches, nothing falls back, and
        no zero-valued per-scheme counter is emitted."""
        counters = self._cell_counters(scheme)
        assert counters.get("engine.batched.accesses_fallback", 0) == 0
        assert counters.get("engine.batched.accesses_batched", 0) > 0
        assert not [
            key for key in counters
            if key.startswith(("engine.batched.fallback.",
                               "engine.batched.guard_aborts."))
        ]

    def test_strong_killi_is_refused_and_counted_once(self):
        """Strong-code Killi is a plain ``KilliScheme``: the per-set
        profile refuses every set, so the cluster interpreter is its
        only batching path, and it batches every L2 access."""
        counters, result, simulator = self._cell("killi+olsc-t11_1:8")
        l2 = simulator.l2
        assert type(l2.scheme) is KilliScheme
        assert all(
            l2.set_replay_profile(s) is None
            for s in range(l2.geometry.n_sets)
        )
        assert counters.get("engine.batched.sets_batched", 0) == 0
        batched = counters.get("engine.batched.accesses_batched", 0)
        fallback = counters.get("engine.batched.accesses_fallback", 0)
        assert batched + fallback == result.l2_stats.as_dict()["accesses"]
        assert fallback == 0
        assert not [
            key for key in counters
            if key.startswith("engine.batched.fallback.")
        ]

    def test_killi_batches_every_access(self):
        """Killi under either decision policy (Table 2, strong code)
        runs every L2 access through the interpreter, the shared-RNG
        write hits included: nothing falls back."""
        for scheme in ("killi_1:8", "killi+olsc-t11_1:8"):
            counters, result, _ = self._cell(scheme)
            accesses = result.l2_stats.as_dict()["accesses"]
            assert accesses > 0, scheme
            assert counters.get("engine.batched.accesses_fallback", 0) == 0, scheme
            assert (
                counters.get("engine.batched.accesses_batched", 0) == accesses
            ), scheme
            assert not [
                key for key in counters
                if key.startswith("engine.batched.guard_aborts.")
                or key == "engine.batched.fallback.KilliScheme"
            ], scheme

    def test_corrected_way_replay(self):
        """Oracle sets containing correctable faulty ways batch with
        per-way CORRECTED hits — and those hits actually occur."""
        result, _ = run_with("batched", "xsbench", "dected")
        assert result.l2_stats.as_dict()["corrected_reads"] > 0
        assert_identical("xsbench", "dected")

    def test_write_back_cells_fall_back(self):
        """The write-back L2 swaps the access protocol: the batched
        engine must take the exact per-access path wholesale."""
        for scheme in ("killi_1:8", "killi_1:64"):
            ref = None
            for engine in ENGINES:
                spec = cell_scenario(
                    workload="fft", scheme=scheme, seed=13,
                    accesses_per_cu=400, write_back=True, engine=engine,
                )
                d = run_cell(spec).to_dict()
                d.pop("elapsed_s", None)
                d.pop("from_cache", None)
                if ref is None:
                    ref = d
                else:
                    assert d == ref, (scheme, engine)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            GpuSimulator(small_config(), UnprotectedScheme(), engine="turbo")
        sim = GpuSimulator(small_config(), UnprotectedScheme())
        with pytest.raises(ValueError):
            sim.run(make_trace([[], [], []]), engine="turbo")

    def test_per_run_override(self):
        """A per-run engine must match the simulator's own: the caches
        were built on that engine's substrate."""
        sim = GpuSimulator(small_config(), UnprotectedScheme(), engine="scalar")
        trace = make_trace([[0, 64], [128], [192]])
        assert sim.run(trace, engine="scalar").cycles > 0
        with pytest.raises(ValueError, match="built for engine 'scalar'"):
            sim.run(trace, engine="batched")

    @pytest.mark.parametrize("engine,substrate", [
        ("scalar", "object"), ("batched", "soa"),
    ])
    def test_engine_fixes_the_substrate(self, engine, substrate):
        from repro.cache.object_store import SetAssocCache
        from repro.cache.replacement import LruState, SoaLruState
        from repro.cache.soa import SoaTagStore

        stores = {
            "object": (SetAssocCache, LruState),
            "soa": (SoaTagStore, SoaLruState),
        }[substrate]
        sim = GpuSimulator(small_config(), UnprotectedScheme(), engine=engine)
        for cache in [sim.l2] + sim.l1s:
            assert cache.substrate == substrate
            assert type(cache.tags) is stores[0]
            assert type(cache.lru) is stores[1]
