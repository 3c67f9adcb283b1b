"""Tests for the voltage-sweep runner."""

import pytest

from repro.harness.sweeps import voltage_sweep


class TestVoltageSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return voltage_sweep(
            voltages=(0.7, 0.65, 0.625),
            workload="nekbone",
            accesses_per_cu=1000,
        )

    def test_structure(self, sweep):
        assert set(sweep) == {0.7, 0.65, 0.625}
        for row in sweep.values():
            assert set(row) == {
                "normalized_time", "mpki", "disabled_fraction", "power_pct"
            }

    def test_overhead_grows_as_voltage_drops(self, sweep):
        assert sweep[0.7]["normalized_time"] <= sweep[0.625]["normalized_time"] + 1e-9

    def test_no_overhead_at_high_voltage(self, sweep):
        # Above the fault knee there is literally nothing to train on.
        assert sweep[0.7]["normalized_time"] < 1.001
        assert sweep[0.7]["disabled_fraction"] == 0.0

    def test_power_drops_with_voltage(self, sweep):
        assert sweep[0.625]["power_pct"] < sweep[0.65]["power_pct"] < sweep[0.7]["power_pct"]

    def test_below_floor_rejected(self):
        # The check fires up-front, names the floor, and lists every
        # offending voltage — not just the first.
        with pytest.raises(ValueError, match=r"floor") as excinfo:
            voltage_sweep(voltages=(0.7, 0.5, 0.55), workload="nekbone",
                          accesses_per_cu=200)
        assert "0.5" in str(excinfo.value)
        assert "0.55" in str(excinfo.value)

    def test_parallel_matches_serial(self):
        kwargs = dict(voltages=(0.7, 0.625), workload="nekbone",
                      accesses_per_cu=500)
        assert voltage_sweep(jobs=2, **kwargs) == voltage_sweep(**kwargs)

    def test_second_call_replays_every_cell_from_the_cache(self, tmp_path):
        """Campaign knobs pass straight through to ``run_cells``."""
        seen = []
        kwargs = dict(
            voltages=(0.7, 0.625), workload="nekbone", accesses_per_cu=300,
            cache_dir=str(tmp_path),
            progress=lambda done, total, cell: seen.append(cell.from_cache),
        )
        first = voltage_sweep(**kwargs)
        assert seen == [False] * 3
        seen.clear()
        assert voltage_sweep(**kwargs) == first
        assert seen == [True] * 3
