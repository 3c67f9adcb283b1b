"""Object-vs-SoA substrate equivalence at the system level.

The engine fixes the substrate: the scalar reference runs on the
object substrate, the batched engine on struct-of-arrays.  The
contract: for every workload and scheme the two simulators produce
bit-identical cycles, per-CU cycles, every CacheStats counter (L2 and
all L1s) and — for Killi — the final DFH state.  Pinned here across
the scheme axis, the workload axis, kernel-to-kernel persistence and
cache-level disable/reset semantics, plus a golden Figure 4 slice
where the scalar×object simulator is the reference.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.gpu.config import GpuConfig
from repro.gpu.engine import GpuSimulator
from repro.harness.experiments import fig4_fig5_performance
from repro.harness.runner import fault_map_for, make_scheme, scheme_names
from repro.traces import workload_trace
from repro.traces.workloads import workload_names
from repro.utils.rng import RngFactory

WORKLOADS = ("fft", "xsbench", "nekbone")
SCHEMES = ("baseline", "killi_1:64")


def fingerprint(result, simulator) -> dict:
    """Everything the substrate contract pins, as comparable values."""
    scheme = simulator.l2.scheme
    dfh = getattr(scheme, "dfh", None)
    return {
        "cycles": result.cycles,
        "per_cu_cycles": result.per_cu_cycles,
        "instructions": result.instructions,
        "l2": result.l2_stats.as_dict(),
        "l1": [s.as_dict() for s in result.l1_stats],
        "memory_reads": simulator.l2.memory_reads,
        "memory_writes": simulator.l2.memory_writes,
        "dfh": None if dfh is None else list(dfh),
    }


def diff_substrates(workload, scheme, accesses):
    """Axis sweeps through the differential executor: one scenario,
    batched×soa against scalar×object, full-state diff (strictly
    stronger than the hand-rolled ``fingerprint`` comparison)."""
    from repro.scenario.config import cell_scenario
    from repro.testing.differential import diff_scenario

    scenario = cell_scenario(
        workload, scheme, voltage=0.625, seed=21, accesses_per_cu=accesses
    )
    divergence = diff_scenario(scenario)
    assert divergence is None, divergence.describe()


class TestSchemeAxis:
    """Every scheme, one representative workload."""

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_bit_identical(self, scheme):
        diff_substrates("xsbench", scheme, 500)


class TestWorkloadAxis:
    """Every workload, the scheme with the most DFH churn."""

    @pytest.mark.parametrize("workload", workload_names())
    def test_bit_identical(self, workload):
        diff_substrates(workload, "killi_1:64", 500)


class TestEngineSubstrateProduct:
    """The two engine × substrate pairs agree on the full state snapshot."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bit_identical(self, workload, scheme):
        diff_substrates(workload, scheme, 700)


class TestKernelPersistence:
    """DFH training and cache contents persist across kernels identically."""

    def run_kernels(self, engine: str, seed: int = 21):
        gpu_config = GpuConfig()
        fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
        scheme = make_scheme(
            "killi_1:64", gpu_config, fault_map, 0.625,
            RngFactory(seed).child("kernels/killi_1:64"),
        )
        simulator = GpuSimulator(gpu_config, scheme, engine=engine)
        traces = [
            workload_trace(
                workload, 400, n_cus=gpu_config.n_cus,
                rng=RngFactory(seed).stream(f"trace/{workload}"),
            )
            for workload in ("xsbench", "fft", "xsbench")
        ]
        return simulator.run_kernels(traces), simulator

    def test_kernel_sequence_bit_identical(self):
        object_results, object_sim = self.run_kernels("scalar")
        soa_results, soa_sim = self.run_kernels("batched")
        assert len(object_results) == len(soa_results) == 3
        for object_result, soa_result in zip(object_results, soa_results):
            assert fingerprint(soa_result, soa_sim) == fingerprint(
                object_result, object_sim
            )
        # The later kernels must have inherited trained state: the
        # repeat of xsbench sees a warm L2, unlike its first run.
        assert (
            soa_results[2].l2_stats.as_dict()
            != soa_results[0].l2_stats.as_dict()
        )


class TestDisableResetSemantics:
    """disable / reset / enable_all behave identically on both substrates."""

    GEO = CacheGeometry(size_bytes=8192, line_bytes=64, associativity=4)

    def stream(self):
        # Deterministic mix hitting every set several times.
        addrs = [
            (i * 3 % (2 * self.GEO.n_lines)) * self.GEO.line_bytes
            for i in range(400)
        ]
        return addrs

    def drive(self, substrate: str):
        cache = WriteThroughCache(self.GEO, substrate=substrate)
        cycles = 0
        for addr in self.stream():
            cycles += cache.read(addr)
        # Knock out one way in a few sets mid-run, keep going.
        for set_index in (0, 3, 7):
            cache.tags.disable(set_index, 1)
            cache.lru.demote(set_index, 1)
        for addr in self.stream():
            cycles += cache.read(addr)
        disabled_mid = cache.tags.count_disabled()
        valid_mid = cache.tags.count_valid()
        cache.reset()
        after_reset = (cache.tags.count_disabled(), cache.tags.count_valid())
        for addr in self.stream():
            cycles += cache.read(addr)
        return {
            "cycles": cycles,
            "disabled_mid": disabled_mid,
            "valid_mid": valid_mid,
            "after_reset": after_reset,
            "stats": cache.stats.as_dict(),
            "final_valid": cache.tags.count_valid(),
        }

    def test_bit_identical(self):
        object_run = self.drive("object")
        soa_run = self.drive("soa")
        assert soa_run == object_run
        assert object_run["disabled_mid"] == 3
        assert object_run["after_reset"] == (0, 0)


class TestGoldenFig4Slice:
    """A small Figure 4 slice where the scalar×object simulator is the golden."""

    def test_matrix_pinned_to_object(self):
        kwargs = dict(
            workloads=["xsbench", "fft"],
            schemes=["killi_1:8"],
            accesses_per_cu=400,
            seed=42,
        )
        golden = fig4_fig5_performance(engine="scalar", **kwargs)
        candidate = fig4_fig5_performance(**kwargs)
        assert candidate.points == golden.points
        # Sanity on the slice itself: both workloads, baseline added,
        # killi within a plausible slowdown band of the baseline.
        for workload in ("xsbench", "fft"):
            slowdown = candidate.normalized_time(workload, "killi_1:8")
            assert 0.9 <= slowdown <= 2.0
