"""Tests for the parallel experiment runner.

The determinism contract under test: a cell's result depends only on
its spec — not on the process that ran it, the order it ran in, the
engine variant, or whether it came from the on-disk cache.
"""

import dataclasses
import json

import pytest

from repro.gpu import GpuConfig, GpuSimulator
from repro.harness.runner import (
    CellResult,
    fault_map_for,
    make_scheme,
    run_cell,
    run_cells,
    trace_for,
)
from repro.scenario.config import cell_scenario
from repro.utils.rng import RngFactory

ACCESSES = 400


def small_specs():
    return [
        cell_scenario(workload=w, scheme=s, seed=11, accesses_per_cu=ACCESSES)
        for w in ("nekbone", "fft")
        for s in ("baseline", "killi_1:64")
    ]


def comparable(cell: CellResult) -> dict:
    """Result fields that must be invariant across execution modes."""
    out = cell.to_dict()
    out.pop("elapsed_s")
    out.pop("from_cache")
    return out


class TestRunCell:
    def test_matches_direct_simulation(self):
        """run_cell reproduces a hand-built serial simulation exactly."""
        spec = cell_scenario(workload="nekbone", scheme="killi_1:64",
                             seed=11, accesses_per_cu=ACCESSES)
        cell = run_cell(spec)

        gpu_config = GpuConfig()
        rngs = RngFactory(11)
        fault_map = fault_map_for(gpu_config.l2.n_lines, 11)
        trace = trace_for("nekbone", ACCESSES, gpu_config.n_cus, 11)
        scheme = make_scheme(
            "killi_1:64", gpu_config, fault_map, spec.fault.voltage,
            rngs.child("nekbone/killi_1:64"),
        )
        simulator = GpuSimulator(gpu_config, scheme)
        result = simulator.run(trace)

        assert cell.cycles == result.cycles
        assert cell.instructions == result.instructions
        assert cell.l2 == result.l2_stats.as_dict()
        assert cell.memory_reads == simulator.l2.memory_reads
        assert cell.fingerprint == spec.fingerprint()

    def test_engine_variants_identical(self):
        a = run_cell(cell_scenario("fft", "killi_1:64", seed=4,
                                   accesses_per_cu=ACCESSES, engine="scalar"))
        b = run_cell(cell_scenario("fft", "killi_1:64", seed=4,
                                   accesses_per_cu=ACCESSES, engine="batched"))
        assert comparable(a) == comparable(b)

    @pytest.mark.parametrize("scheme", ["baseline", "dected", "killi_1:8"])
    def test_finished_cell_leaves_no_cyclic_garbage(self, scheme):
        # A campaign's finished cells must be freed by reference count:
        # the cyclic collector runs too rarely to keep memory flat.
        import gc

        gc.collect()
        gc.disable()
        try:
            run_cell(cell_scenario("fft", scheme, voltage=0.6, seed=4,
                                   accesses_per_cu=ACCESSES))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_strong_scheme_cell(self):
        cell = run_cell(cell_scenario("nekbone", "killi+olsc-t11_1:8", voltage=0.6,
                                      seed=11, accesses_per_cu=ACCESSES))
        assert cell.cycles > 0
        assert cell.dfh is not None

    def test_scheme_config_overrides(self):
        plain = run_cell(cell_scenario("nekbone", "killi_1:64", seed=11,
                                       accesses_per_cu=ACCESSES))
        overridden = run_cell(cell_scenario(
            "nekbone", "killi_1:64", seed=11, accesses_per_cu=ACCESSES,
            scheme_config={"train_on_evict": False},
        ))
        # Different configuration, different fingerprint; same axes.
        assert plain.fingerprint != overridden.fingerprint
        assert overridden.cycles > 0

    def test_write_back_cell(self):
        cell = run_cell(cell_scenario("nekbone", "killi_1:64", seed=11,
                                      accesses_per_cu=ACCESSES, write_back=True))
        assert cell.memory_writes > 0
        assert "due_on_dirty" in cell.l2 or cell.l2["writes"] >= 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            run_cell(cell_scenario("nekbone", "nope", accesses_per_cu=ACCESSES))

    def test_non_killi_rejects_killi_knobs(self):
        with pytest.raises(ValueError):
            run_cell(cell_scenario("nekbone", "baseline", accesses_per_cu=ACCESSES,
                                   scheme_config={"train_on_evict": False}))


class TestFingerprint:
    def test_stable_for_equal_specs(self):
        a = cell_scenario("fft", "killi_1:64", seed=1)
        b = cell_scenario("fft", "killi_1:64", seed=1)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_every_axis(self):
        knobs = dict(voltage=0.625, seed=1, accesses_per_cu=100)
        base = cell_scenario("fft", "killi_1:64", **knobs)
        variants = [
            cell_scenario("nekbone", "killi_1:64", **knobs),
            cell_scenario("fft", "killi_1:16", **knobs),
            cell_scenario("fft", "killi_1:64", **{**knobs, "voltage": 0.65}),
            cell_scenario("fft", "killi_1:64", **{**knobs, "seed": 2}),
            cell_scenario("fft", "killi_1:64", **{**knobs, "accesses_per_cu": 200}),
            cell_scenario("fft", "killi_1:64", write_back=True, **knobs),
            cell_scenario("fft", "killi_1:64",
                          scheme_config={"train_on_evict": False}, **knobs),
        ]
        prints = {v.fingerprint() for v in variants}
        assert len(prints) == len(variants)
        assert base.fingerprint() not in prints

    def test_engine_excluded(self):
        # Engines are pinned bit-equivalent, so cached results are shared.
        a = cell_scenario("fft", "baseline", engine="scalar")
        b = cell_scenario("fft", "baseline", engine="batched")
        assert a.fingerprint() == b.fingerprint()

    def test_scheme_config_dict_normalised(self):
        a = cell_scenario("fft", "killi_1:64",
                          scheme_config={"a": 1, "train_on_evict": False})
        b = cell_scenario("fft", "killi_1:64",
                          scheme_config={"train_on_evict": False, "a": 1})
        assert a.scheme.config == b.scheme.config
        assert a.fingerprint() == b.fingerprint()


class TestRunCells:
    def test_parallel_matches_serial(self):
        specs = small_specs()
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=2)
        assert [comparable(c) for c in serial] == [
            comparable(c) for c in parallel
        ]

    def test_order_preserved(self):
        specs = small_specs()
        results = run_cells(specs, jobs=2)
        assert [(c.workload, c.scheme) for c in results] == [
            (s.workload.name, s.scheme.name) for s in specs
        ]

    def test_progress_callback(self):
        specs = small_specs()
        seen = []
        run_cells(specs, jobs=1,
                  progress=lambda done, total, cell: seen.append((done, total)))
        assert seen == [(i + 1, len(specs)) for i in range(len(specs))]


class TestResultCache:
    def test_second_run_is_cached_and_identical(self, tmp_path):
        specs = small_specs()[:2]
        first = run_cells(specs, cache_dir=str(tmp_path))
        assert all(not c.from_cache for c in first)
        assert len(list(tmp_path.glob("*.json"))) == len(specs)

        second = run_cells(specs, cache_dir=str(tmp_path))
        assert all(c.from_cache for c in second)
        assert [comparable(c) for c in first] == [comparable(c) for c in second]

    def test_corrupt_entry_recomputed(self, tmp_path):
        spec = small_specs()[0]
        run_cells([spec], cache_dir=str(tmp_path))
        path = tmp_path / f"{spec.fingerprint()}.json"
        path.write_text("{not json")
        result, = run_cells([spec], cache_dir=str(tmp_path))
        assert not result.from_cache
        # The entry was rewritten and is loadable again.
        assert json.loads(path.read_text())["result"]["cycles"] == result.cycles

    def test_changed_spec_misses(self, tmp_path):
        spec = small_specs()[0]
        run_cells([spec], cache_dir=str(tmp_path))
        changed = spec.replace(
            fault=dataclasses.replace(spec.fault, seed=spec.fault.seed + 1)
        )
        result, = run_cells([changed], cache_dir=str(tmp_path))
        assert not result.from_cache

    def test_parallel_run_populates_cache(self, tmp_path):
        specs = small_specs()
        run_cells(specs, jobs=2, cache_dir=str(tmp_path))
        again = run_cells(specs, jobs=2, cache_dir=str(tmp_path))
        assert all(c.from_cache for c in again)


class TestCellResultProjections:
    def test_json_roundtrip(self):
        cell = run_cell(small_specs()[1])
        clone = CellResult.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert comparable(clone) == comparable(cell)


class TestExperimentsThroughRunner:
    def test_fig4_jobs_identical(self):
        from repro.harness.experiments import fig4_fig5_performance

        kwargs = dict(workloads=["nekbone"], schemes=["baseline", "killi_1:64"],
                      accesses_per_cu=ACCESSES, seed=9)
        serial = fig4_fig5_performance(**kwargs)
        parallel = fig4_fig5_performance(jobs=2, **kwargs)
        for workload in serial.workloads():
            for scheme, point in serial.points[workload].items():
                assert parallel.points[workload][scheme] == point

    def test_sec55_through_runner(self):
        from repro.harness.experiments import sec55_lower_vmin

        out = sec55_lower_vmin(accesses_per_cu=ACCESSES)
        assert set(out) >= {"baseline", "msecc", "killi_secded_1:8",
                            "killi_olsc_1:8"}
        assert out["killi_olsc_1:8"]["normalized_time"] > 0
