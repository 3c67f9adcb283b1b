"""Killi batching: cluster interpreter, external injection, batch kernels.

The batched engine runs Killi cells through an interpreter that walks
the L2's own state in place (:mod:`repro.core.killi_replay`) instead
of the per-access loop.  These tests pin the pieces that make that
sound:

- batched-vs-scalar equivalence including the *scheme-side* state the
  generic matrix does not compare (DFH histogram, transition counts,
  SDC events, ECC-cache counters);
- a directed shared-RNG write hit that the interpreter must simulate
  in place, at the scalar engine's point of the RNG stream;
- one residue leaving the same line map, LRU ages, set clocks, numpy
  columns and RNG state as the per-access ``read``/``write`` loop;
- error vectors injected between kernels reaching the interpreter;
- the ECC cache's O(1) membership mirror against its own key lists;
- the interned Table 2 lookup against the reference dispatch.
"""

import numpy as np
import pytest

from repro.core.dfh import Dfh, classify, classify_cached
from repro.core.ecc_cache import EccCache
from repro.gpu.config import GpuConfig
from repro.gpu.engine import GpuSimulator
from repro.harness.runner import fault_map_for, make_scheme
from repro.traces import workload_trace
from repro.traces.base import CuStream, Trace
from repro.metrics import METRICS
from repro.utils.rng import RngFactory

def build_sim(engine, scheme_name, seed, voltage=0.625):
    gpu_config = GpuConfig()
    fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
    scheme = make_scheme(
        scheme_name, gpu_config, fault_map, voltage,
        RngFactory(seed).child(f"test/{scheme_name}"),
    )
    sim = GpuSimulator(gpu_config, scheme, engine=engine)
    return sim, scheme


def single_cu_trace(name, gpu_config, addrs, stores):
    """A kernel whose only traffic is CU 0's ``addrs`` (no compute gaps)."""
    streams = [
        CuStream(
            addrs=np.array(addrs, dtype=np.int64),
            is_store=np.array(stores, dtype=bool),
            gaps=np.zeros(len(addrs), dtype=np.int64),
        )
    ]
    for _ in range(gpu_config.n_cus - 1):
        streams.append(CuStream(
            addrs=np.array([], dtype=np.int64),
            is_store=np.array([], dtype=bool),
            gaps=np.array([], dtype=np.int64),
        ))
    return Trace(name, streams)


def scheme_state_key(result, sim, scheme):
    """Everything the ISSUE pins: cycles, stats, and scheme state."""
    return (
        result.cycles,
        result.per_cu_cycles,
        result.l2_stats.as_dict(),
        sim.l2.memory_reads,
        sim.l2.memory_writes,
        scheme.sdc_events,
        scheme.hits_served,
        scheme.transitions,
        scheme.dfh_histogram(),
        scheme.disabled_fraction(),
        scheme.ecc.accesses,
        scheme.ecc.allocations,
        scheme.ecc.evictions,
        scheme.ecc.occupancy,
    )


def _case_id(workload, scheme, seed, accesses, voltage, overrides, l2_kib):
    parts = [workload, scheme, str(seed), str(accesses)]
    if voltage != 0.625:
        parts.append(str(voltage))
    parts += [f"{key}={value}" for key, value in sorted(overrides.items())]
    if l2_kib is not None:
        parts.append(f"l2={l2_kib}KiB")
    return "-".join(parts)


class TestInterpreterEquivalence:
    """Batched-vs-scalar sweep pinned on DFH/SDC/ECC scheme state.

    Runs through the differential executor (:mod:`repro.testing`),
    whose canonical snapshot carries everything the hand-rolled
    ``scheme_state_key`` sweep this replaced compared — DFH histogram,
    transition counts, SDC events, ECC-cache counters, shared-RNG
    stream position — plus full tag/recency state.  Both decision
    policies run through the interpreter, below the SECDED Vmin too
    (0.600 V, where DECTED lines with 3+ faults disable), and every
    ``KilliConfig`` switch the interpreter reads is set in some case.
    Eviction training only shows once sets fill, so its cases shrink
    the L2 (``l2_kib``; None keeps the default GPU).  The two filled
    xsbench cases at 0.625 V also pin stabilised sets, where every way
    has settled at b'00 and most accesses are clean hits and refills.
    """

    CASES = [
        ("xsbench", "killi_1:8", 21, 3000, 0.625, {}, None),
        ("fft", "killi_1:8", 5, 2500, 0.625, {}, None),
        ("comd", "killi_1:64", 7, 2500, 0.625, {}, None),
        ("fft", "killi+dected_1:8", 5, 1500, 0.600, {}, None),
        ("nekbone", "killi+olsc-t11_1:8", 42, 1500, 0.600, {}, None),
        ("fft", "killi_1:8", 5, 1500, 0.600, {"inverted_write_training": True}, None),
        ("xsbench", "killi_1:8", 3, 1500, 0.600, {"training_segments": 8}, None),
        ("xsbench", "killi+dected_1:8", 3, 1500, 0.600, {"training_segments": 8}, None),
        ("comd", "killi_1:16", 9, 1500, 0.600, {"train_on_evict": False}, 256),
        ("comd", "killi+dected_1:2", 9, 1500, 0.600, {"train_on_evict": False}, 256),
        (
            "miniamr", "killi_1:8", 4, 1500, 0.6125,
            {"priority_replacement": False}, None,
        ),
        (
            "miniamr", "killi+tecqed_1:8", 4, 1500, 0.6125,
            {"priority_replacement": False}, None,
        ),
        ("xsbench", "killi_1:8", 21, 3000, 0.625, {}, 256),
        ("xsbench", "killi+dected_1:8", 21, 3000, 0.625, {}, 256),
    ]

    @pytest.mark.parametrize(
        "workload,scheme_name,seed,accesses,voltage,overrides,l2_kib",
        [pytest.param(*case, id=_case_id(*case)) for case in CASES],
    )
    def test_scheme_state_bit_identical(
        self, workload, scheme_name, seed, accesses, voltage, overrides, l2_kib
    ):
        from repro.scenario.config import GpuSection, cell_scenario
        from repro.testing.differential import diff_scenario, run_scenario

        gpu = GpuSection()
        if l2_kib is not None:
            gpu = GpuSection(l2_size_bytes=l2_kib * 1024)
        scenario = cell_scenario(
            workload, scheme_name, voltage=voltage, seed=seed,
            accesses_per_cu=accesses, scheme_config=overrides, gpu=gpu,
        )
        reference = run_scenario(scenario, "scalar")
        histogram = reference.snapshot["scheme"]["dfh_histogram"]
        assert sum(histogram.values()) == gpu.to_gpu_config().l2.n_lines
        divergence = diff_scenario(scenario)
        assert divergence is None, divergence.describe()

    def test_multi_kernel_dfh_carryover(self):
        """DFH training persists across kernels (paper footnote 6):
        the interpreter must resume from committed state, not reset."""

        def run(engine):
            sim, scheme = build_sim(engine, "killi_1:8", 31)
            rng = RngFactory(31)
            traces = [
                workload_trace(
                    "xsbench", 1200, n_cus=sim.config.n_cus,
                    rng=rng.stream(f"trace/k{i}"),
                )
                for i in range(3)
            ]
            results = sim.run_kernels(traces)
            return (
                [(r.cycles, r.per_cu_cycles, r.l2_stats.as_dict())
                 for r in results],
                scheme.transitions,
                scheme.dfh_histogram(),
                scheme.sdc_events,
            )

        assert run("batched") == run("scalar")


class TestDirectedRngWriteHit:
    """A write hit on a slot with active LV faults re-rolls masking
    with the shared RNG; the interpreter must simulate it in place, at
    the scalar engine's point of the stream, with no access left to the
    per-access path."""

    def _find_active_slot(self, scheme):
        errors = scheme.errors
        assoc = scheme.geometry.associativity
        for slot in range(scheme.geometry.n_lines):
            if errors.slot_has_active(slot):
                return slot // assoc, slot % assoc
        pytest.fail("fault map has no active slot at this voltage")

    def _directed_trace(self, gpu_config, set_index, way):
        """Fill ways 0..way of ``set_index`` (warmup is uniform-priority,
        so distinct lines fill ascending ways), then store to the line
        that landed in ``way`` — a guaranteed write hit on the active
        slot — then keep a tail of other-set traffic behind it."""
        n_sets = gpu_config.l2.n_sets
        line_bytes = gpu_config.l2.line_bytes
        lines = [set_index + k * n_sets for k in range(way + 1)]
        addrs = [line * line_bytes for line in lines]
        stores = [False] * len(addrs)
        addrs.append(lines[-1] * line_bytes)
        stores.append(True)
        other = (set_index + 1) % n_sets
        for k in range(6):
            addrs.append((other + k * n_sets) * line_bytes)
            stores.append(k % 2 == 1)
        return single_cu_trace("directed-write-hit", gpu_config, addrs, stores)

    def test_write_hit_is_interpreted_in_order(self):
        seed = 21

        def run(engine):
            sim, scheme = build_sim(engine, "killi_1:8", seed)
            set_index, way = self._find_active_slot(scheme)
            trace = self._directed_trace(sim.config, set_index, way)
            result = sim.run(trace)
            observables = sim.state_snapshot()["scheme"]
            return (
                scheme_state_key(result, sim, scheme),
                observables["rng_state"],
                observables["error_rows"],
            )

        reference = run("scalar")
        METRICS.enable(propagate_env=False)
        try:
            METRICS.reset()
            assert run("batched") == reference
            snapshot = METRICS.snapshot()
            counters = snapshot.get("counters", snapshot)
            assert counters.get("engine.batched.accesses_batched", 0) > 0
            assert counters.get("engine.batched.accesses_fallback", 0) == 0
        finally:
            METRICS.disable()


class TestInPlaceStamps:
    """The interpreter walks the L2's own state and stamps every touch
    as ``lru.touch`` does, so after one residue it leaves exactly the
    state the per-access ``read``/``write`` loop leaves: the same line
    map, the same ages on every valid way and the same set clocks — not
    merely the same recency order."""

    L2_KIB = 256
    ACCESSES = 12_000

    def _twin_caches(self, scheme_name, voltage):
        from repro.cache.core import WriteThroughCache
        from repro.scenario.config import GpuSection

        gpu_config = GpuSection(l2_size_bytes=self.L2_KIB * 1024).to_gpu_config()
        fault_map = fault_map_for(gpu_config.l2.n_lines, 7)
        caches = []
        for _ in range(2):
            scheme = make_scheme(
                scheme_name, gpu_config, fault_map, voltage,
                RngFactory(7).child(f"stamps/{scheme_name}"),
            )
            caches.append(WriteThroughCache(
                gpu_config.l2, scheme, gpu_config.l2_latencies, substrate="soa"
            ))
        return caches

    def _residue(self, geometry):
        """Hot lines that mostly fit, cold lines that evict, 20% stores."""
        rng = np.random.default_rng(5)
        n_lines = geometry.n_lines
        hot = rng.integers(0, n_lines // 2, size=self.ACCESSES)
        cold = rng.integers(0, 4 * n_lines, size=self.ACCESSES)
        lines = np.where(rng.random(self.ACCESSES) < 0.6, hot, cold)
        stores = rng.random(self.ACCESSES) < 0.2
        return lines, stores

    @staticmethod
    def _state(cache):
        tags, lru = cache.tags, cache.lru
        return {
            "line_at": list(tags._line_at),
            "valid_ages": [
                age for line, age in zip(tags._line_at, lru.age) if line >= 0
            ],
            "clocks": list(lru._clock),
            "disabled": tags.disabled.tolist(),
            "rng": repr(cache.scheme.errors.rng.bit_generator.state),
            "digest": cache.state_digest(),
        }

    @pytest.mark.parametrize("voltage", [0.600, 0.625])
    @pytest.mark.parametrize("scheme_name", ["killi_1:8", "killi+dected_1:8"])
    def test_walk_leaves_the_per_access_stamps(self, scheme_name, voltage):
        per_access, walked = self._twin_caches(scheme_name, voltage)
        geometry = per_access.geometry
        lines, stores = self._residue(geometry)
        expected = [
            per_access.write(line * geometry.line_bytes)
            if store
            else per_access.read(line * geometry.line_bytes)
            for line, store in zip(lines.tolist(), stores.tolist())
        ]
        interp = walked.scheme.batch_interpreter(walked)
        assert interp is not None
        got = [0] * len(lines)
        interp.run(
            lines.tolist(), stores.tolist(), got,
            (lines % geometry.n_sets).tolist(),
        )
        assert got == expected
        assert walked.stats.evictions > 0
        assert walked.stats.write_hits > 0
        per_access.tags.verify()
        walked.tags.verify()
        reference = self._state(per_access)
        state = self._state(walked)
        for key in reference:
            assert state[key] == reference[key], key


class TestExternalInjection:
    """Error vectors edited between kernels (``set_effective``,
    ``add_soft_error``, the ``clear_all`` of a reset) must reach the
    interpreter: the next kernel reads the edited rows and classifies
    those lines instead of serving them as clean hits."""

    SEED = 21

    def _targets(self, sim, scheme, count=2):
        """Resident, clean STABLE_0 lines of distinct sets that CU 0's
        L1 does not hold, as ``(slot, addr)`` pairs."""
        l2 = sim.l2
        assoc = scheme.geometry.associativity
        n_sets = scheme.geometry.n_sets
        line_bytes = scheme.geometry.line_bytes
        found, sets = [], set()
        for slot in range(scheme.geometry.n_lines):
            set_index, way = divmod(slot, assoc)
            if set_index in sets or not l2.tags.is_valid(set_index, way):
                continue
            if scheme.dfh[slot] != int(Dfh.STABLE_0) or scheme.errors.is_dirty(slot):
                continue
            addr = (l2.tags.tag_at(set_index, way) * n_sets + set_index) * line_bytes
            if sim.l1s[0].tags.lookup(addr) is not None:
                continue
            found.append((slot, addr))
            sets.add(set_index)
            if len(found) == count:
                return found
        pytest.fail("no resident clean STABLE_0 lines after the first kernel")

    def _kernel(self, sim, index):
        return workload_trace(
            "xsbench", 1200, n_cus=sim.config.n_cus,
            rng=RngFactory(self.SEED).stream(f"trace/k{index}"),
        )

    def _run(self, engine):
        sim, scheme = build_sim(engine, "killi_1:8", self.SEED)
        sim.run(self._kernel(sim, 0))
        (slot_a, addr_a), (slot_b, addr_b) = self._targets(sim, scheme)
        # A: two data bits in different stable parity segments (bit o
        # is in segment o % 4); B: one transient data-bit flip.  Both
        # are detectable on a b'00 read.
        scheme.errors.set_effective(slot_a, [0, 129])
        scheme.errors.add_soft_error(slot_b, [7])
        reads = [addr_a, addr_b, addr_a]
        result = sim.run(
            single_cu_trace("injected-reads", sim.config, reads, [False] * 3)
        )
        return (
            (slot_a, slot_b),
            result.l2_stats.as_dict(),
            sim.state_snapshot()["scheme"],
            sim.state_digest(),
        )

    def test_injection_between_kernels_reaches_the_interpreter(self):
        reference = self._run("scalar")
        assert reference[1]["error_induced_misses"] >= 2
        batched = self._run("batched")
        assert batched[0] == reference[0]  # same target lines
        assert batched[1] == reference[1]
        assert batched[2] == reference[2]  # error_rows, DFH, counters
        assert batched[3] == reference[3]

    def test_reset_between_kernels_reaches_the_interpreter(self):
        """A reset without a voltage change re-enters training on every
        line; the next kernel must find every line back at b'01, not in
        the state the first kernel left it."""

        def run(engine):
            sim, _ = build_sim(engine, "killi_1:8", self.SEED)
            sim.run(self._kernel(sim, 0))
            sim.l2.reset()
            result = sim.run(self._kernel(sim, 1))
            return result.l2_stats.as_dict(), sim.state_digest()

        assert run("batched") == run("scalar")


class TestEccCacheMirrors:
    """The O(1) membership mirror against the authoritative key lists."""

    L2_SETS, L2_ASSOC = 32, 4

    def _random_ops(self, seed, n_ops=400):
        rng = np.random.default_rng(seed)
        ecc = EccCache(16, 4, l2_shape=(self.L2_SETS, self.L2_ASSOC))
        live = set()
        for _ in range(n_ops):
            op = rng.integers(0, 20)
            key = (int(rng.integers(0, self.L2_SETS)),
                   int(rng.integers(0, self.L2_ASSOC)))
            if op < 9:
                if key in live:
                    continue
                evicted = ecc.insert(*key)
                live.add(key)
                if evicted is not None:
                    live.discard(evicted)
            elif op < 14:
                assert ecc.remove(*key) == (key in live)
                live.discard(key)
            elif op < 18:
                if key in live:
                    ecc.touch(*key)
            else:
                ecc.clear()
                live.clear()
        return ecc, live

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mirror_matches_key_lists(self, seed):
        ecc, live = self._random_ops(seed)
        listed = [key for entries in ecc._sets for key in entries]
        assert len(listed) == len(set(listed)) == ecc.occupancy == len(live)
        assert set(listed) == live
        for index, entries in enumerate(ecc._sets):
            assert len(entries) <= ecc.assoc
            assert all(ecc.index_of(s) == index for s, _ in entries)
        for s in range(self.L2_SETS):
            for w in range(self.L2_ASSOC):
                assert ecc.contains(s, w) == ((s, w) in live)

    def test_mirror_tracks_contention_eviction(self):
        ecc = EccCache(4, 4, l2_shape=(self.L2_SETS, self.L2_ASSOC))
        for i, l2_set in enumerate([0, 1, 2, 3]):
            ecc.insert(l2_set, i)
        evicted = ecc.insert(4, 0)  # single-set cache: LRU falls out
        assert evicted == (0, 0)
        assert not ecc.contains(0, 0)
        assert ecc.contains(4, 0)


SIGNAL_SPACE = [
    (dfh, sp, syn, gp)
    for dfh in (Dfh.STABLE_0, Dfh.INITIAL, Dfh.STABLE_1)
    for sp in (0, 1, 2, 3, 7)
    for syn in (False, True)
    for gp in (False, True)
]


class TestBatchKernels:
    """Precomputed Table 2 views against the reference dispatch."""

    def test_cached_matches_reference_everywhere(self):
        for dfh, sp, syn, gp in SIGNAL_SPACE:
            assert classify_cached(int(dfh), sp, syn, gp) == classify(
                dfh, sp, syn, gp
            )

    def test_cached_rejects_disabled(self):
        with pytest.raises(ValueError):
            classify_cached(3, 0, True, True)
