"""The differential executor: the oracle itself."""

import pytest

from repro.scenario.config import GpuSection, cell_scenario
from repro.testing import differential
from repro.testing.differential import (
    PLANTS,
    diff_scenario,
    last_context,
    run_scenario,
    snapshot_diff,
)

SMALL_GPU = GpuSection(
    n_cus=2, l2_size_bytes=64 * 1024, l2_associativity=8, l2_banks=1
)


def small_scenario(scheme="killi_1:8", **kw):
    kw.setdefault("accesses_per_cu", 120)
    kw.setdefault("voltage", 0.6)
    kw.setdefault("seed", 9)
    return cell_scenario("fft", scheme, gpu=SMALL_GPU, **kw)


class TestRunScenario:
    def test_deterministic(self):
        sc = small_scenario()
        a = run_scenario(sc, "scalar")
        b = run_scenario(sc, "scalar")
        assert a.digest == b.digest
        assert a.cycles == b.cycles
        assert a.per_cu_cycles == b.per_cu_cycles

    def test_snapshot_carries_observables(self):
        obs = run_scenario(small_scenario(), "batched")
        assert obs.substrate == "soa"
        snap = obs.snapshot
        assert snap["cycles"] == obs.cycles
        assert snap["l2"]["stats"]["reads"] > 0
        assert snap["scheme"]["type"] == "KilliScheme"
        assert "dfh_histogram" in snap["scheme"]
        assert len(snap["l1s"]) == 2

    def test_sets_last_context(self):
        sc = small_scenario()
        run_scenario(sc, "scalar")
        ctx = last_context()
        assert ctx is not None
        assert ctx["fingerprint"] == sc.fingerprint()
        assert ctx["engine"] == "scalar"
        assert ctx["substrate"] == "object"
        assert "toml" in ctx


class TestDiffScenario:
    def test_combos_cover_product(self, monkeypatch):
        # Two simulators: batched×soa diffed against scalar×object.
        ran = []
        run = differential.run_scenario

        def recording(scenario, engine=None, plant=None):
            observation = run(scenario, engine, plant=plant)
            ran.append((observation.engine, observation.substrate))
            return observation

        monkeypatch.setattr(differential, "run_scenario", recording)
        assert diff_scenario(small_scenario()) is None
        assert ran == [("scalar", "object"), ("batched", "soa")]

    @pytest.mark.parametrize("scheme", ["baseline", "killi_1:8", "msecc"])
    def test_equivalence_holds(self, scheme):
        assert diff_scenario(small_scenario(scheme)) is None

    def test_write_back_equivalence_holds(self):
        assert diff_scenario(small_scenario(write_back=True)) is None

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_planted_fault_is_caught(self, plant):
        # lulesh is write-heavy: both plants (a disabled way and a
        # dropped write-hit hook) become observable within 120 accesses.
        scenario = cell_scenario(
            "lulesh", "killi_1:8", voltage=0.6, seed=9,
            accesses_per_cu=120, gpu=SMALL_GPU,
        )
        divergence = diff_scenario(scenario, plant=PLANTS[plant])
        assert divergence is not None
        text = divergence.describe()
        assert "batched×soa diverges from scalar×object" in text

    def test_planted_error_row_flip_is_caught(self):
        # One wrong bit in one stored error row, planted after the last
        # access so it cannot change any classification: only the
        # snapshot's error rows can see it.
        def flip_row_bit(simulator):
            run = simulator.run

            def run_then_flip(trace, engine=None):
                result = run(trace, engine)
                simulator.l2.scheme.errors._rows[0] ^= 1
                return result

            simulator.run = run_then_flip

        divergence = diff_scenario(small_scenario(), plant=flip_row_bit)
        assert divergence is not None
        assert divergence.paths
        assert all("/scheme/error_rows" in path for path in divergence.paths)

    def test_crash_is_a_divergence(self):
        def bomb(simulator):
            raise RuntimeError("planted crash")

        divergence = diff_scenario(small_scenario(), plant=bomb)
        assert divergence is not None
        assert "planted crash" in divergence.error
        assert "planted crash" in divergence.describe()


class TestSnapshotDiff:
    def test_scalar_leaf(self):
        assert snapshot_diff({"a": 1}, {"a": 2}) == ["/a: ref=1 got=2"]

    def test_missing_keys(self):
        paths = snapshot_diff({"a": 1}, {"b": 1})
        assert "/a: only in reference" in paths
        assert "/b: only in candidate" in paths

    def test_list_length_and_elements(self):
        assert snapshot_diff([1, 2], [1]) == [": length ref=2 got=1"]
        assert snapshot_diff([1, 2], [1, 3]) == ["[1]: ref=2 got=3"]

    def test_limit(self):
        a = {str(i): i for i in range(100)}
        b = {str(i): i + 1 for i in range(100)}
        assert len(snapshot_diff(a, b, limit=10)) == 10
