"""Tests for CSV export and the ablation runners."""

import csv
import io

from repro.harness.ablations import (
    ablate_eviction_training,
    ablate_inverted_write_training,
    ablate_priority_replacement,
)
from repro.harness.export import (
    matrix_to_csv,
    nested_table_to_csv,
    power_table_to_csv,
    series_to_csv,
    write_csv,
)
from repro.harness.results import PerformanceMatrix
from repro.harness.runner import CellResult


def parse(text: str):
    return list(csv.reader(io.StringIO(text)))


class TestCsvExport:
    def test_series(self):
        data = {"voltage": [0.6, 0.625], "killi": [97.5, 100.0]}
        rows = parse(series_to_csv(data))
        assert rows[0] == ["voltage", "killi"]
        assert rows[1] == ["0.6", "97.5"]
        assert len(rows) == 3

    def test_nested_table(self):
        data = {"dected": {"1:256": 0.51, "1:16": 0.71}}
        rows = parse(nested_table_to_csv(data, row_label="code"))
        assert rows[0] == ["code", "1:256", "1:16"]
        assert rows[1][0] == "dected"

    def test_nested_table_missing_cells(self):
        data = {"a": {"x": 1}, "b": {"y": 2}}
        rows = parse(nested_table_to_csv(data))
        assert rows[0] == ["row", "x", "y"]
        assert rows[1] == ["a", "1", ""]
        assert rows[2] == ["b", "", "2"]

    def test_power_table(self):
        rows = parse(power_table_to_csv({"dected": 43.8, "killi_1:256": 40.0}))
        assert rows == [["scheme", "power_pct"], ["dected", "43.8"],
                        ["killi_1:256", "40.0"]]

    def test_matrix(self):
        matrix = PerformanceMatrix()
        for scheme, cycles, misses in (("baseline", 100, 10), ("killi_1:64", 110, 12)):
            matrix.add(CellResult(
                "wl", scheme, voltage=0.625, seed=0, cycles=cycles,
                instructions=1000, l2={"read_misses": misses, "write_misses": 0},
                memory_reads=0, memory_writes=0,
            ))
        rows = parse(matrix_to_csv(matrix))
        assert rows[0][0] == "workload"
        assert len(rows) == 3
        killi_row = next(r for r in rows[1:] if r[1] == "killi_1:64")
        assert killi_row[3] == "1.100000"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), "a,b\n1,2\n")
        assert path.read_text() == "a,b\n1,2\n"


class TestAblationRunners:
    """Small runs of each ablation; the benchmarks run them at scale."""

    def test_eviction_training(self):
        out = ablate_eviction_training(workload="nekbone", accesses_per_cu=1200)
        assert set(out) == {"train_on_evict", "hits_only"}
        assert out["train_on_evict"]["trained_fraction"] >= out["hits_only"][
            "trained_fraction"
        ]

    def test_priority_replacement(self):
        out = ablate_priority_replacement(workload="nekbone", accesses_per_cu=1200)
        assert set(out) == {"priority", "plain_lru"}
        for summary in out.values():
            assert summary["cycles"] > 0
            assert "dfh" in summary

    def test_second_call_replays_every_cell_from_the_cache(self, tmp_path):
        """Campaign knobs pass straight through to ``run_cells``."""
        seen = []
        kwargs = dict(
            workload="nekbone", accesses_per_cu=300, cache_dir=str(tmp_path),
            progress=lambda done, total, cell: seen.append(cell.from_cache),
        )
        first = ablate_priority_replacement(**kwargs)
        assert seen == [False, False]
        seen.clear()
        assert ablate_priority_replacement(**kwargs) == first
        assert seen == [True, True]

    def test_inverted_training(self):
        out = ablate_inverted_write_training(workload="nekbone", accesses_per_cu=1200)
        assert out["inverted"]["sdc_events"] <= out["plain"]["sdc_events"] + 1

    def test_sec55_structure(self):
        from repro.harness.experiments import sec55_lower_vmin

        out = sec55_lower_vmin(accesses_per_cu=600)
        assert out["killi_olsc_1:8"]["disabled_fraction"] < 0.01
        assert out["killi_secded_1:8"]["disabled_fraction"] > 0.01
        assert out["msecc"]["normalized_time"] < out["killi_olsc_1:8"]["normalized_time"]
