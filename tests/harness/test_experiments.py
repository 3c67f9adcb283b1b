"""Tests for the experiment harness (small-scale runs of every
table/figure runner)."""

import pytest

from repro.harness.experiments import (
    EXPERIMENTS,
    fig1_cell_pfail,
    fig2_line_distribution,
    fig4_fig5_performance,
    fig6_coverage,
    make_scheme,
    run_experiment,
    scheme_names,
    table4_strong_ecc,
    table5_area,
    table6_power,
    table7_olsc,
)
from repro.harness.results import PerfPoint, PerformanceMatrix


class TestAnalyticRunners:
    def test_fig1_series(self):
        data = fig1_cell_pfail(voltages=[0.55, 0.6, 0.65])
        assert len(data["voltage"]) == 3
        key = "writeability@1GHz"
        assert key in data
        assert data[key][0] > data[key][2]  # decreasing with voltage
        assert "read_disturb@0.4GHz" in data

    def test_fig2_fractions(self):
        data = fig2_line_distribution(voltages=[0.6, 0.625, 0.65])
        for i in range(3):
            total = data["zero"][i] + data["one"][i] + data["two_plus"][i]
            assert total == pytest.approx(100.0)
        assert data["zero"][2] > data["zero"][0]

    def test_fig6_series(self):
        data = fig6_coverage(voltages=[0.575, 0.625])
        assert data["killi"][0] > data["secded"][0]
        assert data["killi"][1] == pytest.approx(100.0, abs=0.01)

    def test_table4(self):
        table = table4_strong_ecc()
        assert table["dected"]["1:256"] == pytest.approx(0.51, abs=0.01)

    def test_table5(self):
        table = table5_area()
        assert table["killi_1:256"]["percent"] < table["secded"]["percent"]

    def test_table6_without_matrix(self):
        table = table6_power()
        assert table["killi_1:256"] < table["flair"] < table["msecc"]

    def test_table7(self):
        table = table7_olsc()
        assert table["0.600"]["capacity_pct"] == pytest.approx(99.8, abs=0.3)
        assert table["0.575"]["capacity_pct"] == pytest.approx(69.6, abs=1.0)
        assert table["0.600"]["killi_vs_msecc"] < table["0.575"]["killi_vs_msecc"]

    def test_registry_dispatch(self):
        assert set(EXPERIMENTS) >= {
            "fig1", "fig2", "fig4", "fig5", "fig6",
            "table4", "table5", "table6", "table7",
        }
        data = run_experiment("fig2", voltages=[0.625])
        assert len(data["zero"]) == 1
        with pytest.raises(KeyError):
            run_experiment("nope")


class TestSchemeFactory:
    def test_names(self):
        names = scheme_names(ratios=(64,))
        assert names == ["baseline", "dected", "flair", "msecc", "killi_1:64"]

    def test_unknown_scheme(self):
        from repro.faults import FaultMap
        from repro.gpu import GpuConfig
        from repro.utils.rng import RngFactory

        config = GpuConfig()
        fault_map = FaultMap(n_lines=config.l2.n_lines)
        with pytest.raises(KeyError):
            make_scheme("nope", config, fault_map, 0.625, RngFactory(0))


class TestPerformanceMatrix:
    def make_matrix(self) -> PerformanceMatrix:
        matrix = PerformanceMatrix()
        matrix.add(PerfPoint("wl", "baseline", cycles=1000, instructions=10000,
                             l2_misses=50, memory_reads=100))
        matrix.add(PerfPoint("wl", "killi_1:64", cycles=1020, instructions=10000,
                             l2_misses=55, memory_reads=110))
        return matrix

    def test_normalized_time(self):
        matrix = self.make_matrix()
        assert matrix.normalized_time("wl", "killi_1:64") == pytest.approx(1.02)
        assert matrix.normalized_time("wl", "baseline") == 1.0

    def test_mpki(self):
        matrix = self.make_matrix()
        assert matrix.mpki("wl", "baseline") == pytest.approx(5.0)

    def test_extra_memory_frac(self):
        matrix = self.make_matrix()
        assert matrix.extra_memory_frac("wl", "killi_1:64") == pytest.approx(0.1)

    def test_tables_render(self):
        matrix = self.make_matrix()
        assert "Figure 4" in matrix.fig4_table()
        assert "Figure 5" in matrix.fig5_table()
        assert "killi_1:64" in matrix.fig4_table()


class TestSimulationMatrixSmall:
    """One tiny end-to-end Figure 4/5 run (kept small for CI speed)."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return fig4_fig5_performance(
            workloads=["nekbone"],
            schemes=["baseline", "flair", "killi_1:64"],
            accesses_per_cu=1500,
            seed=3,
        )

    def test_all_cells_present(self, matrix):
        assert matrix.workloads() == ["nekbone"]
        assert set(matrix.schemes()) == {"baseline", "flair", "killi_1:64"}

    def test_baseline_normalizes_to_one(self, matrix):
        assert matrix.normalized_time("nekbone", "baseline") == 1.0

    def test_overheads_are_modest(self, matrix):
        # Both techniques must stay within a few percent of baseline
        # at 0.625 VDD (the paper's headline claim).
        assert matrix.normalized_time("nekbone", "flair") < 1.02
        assert matrix.normalized_time("nekbone", "killi_1:64") < 1.06

    def test_mpki_ordering(self, matrix):
        base = matrix.mpki("nekbone", "baseline")
        killi = matrix.mpki("nekbone", "killi_1:64")
        assert killi >= base

    def test_table6_accepts_matrix(self, matrix):
        table = table6_power(matrix)
        assert "killi_1:64" not in table or table["killi_1:64"] > 0
        assert table["flair"] > 0


class TestCli:
    def test_analytic_commands(self, capsys):
        from repro.harness.cli import main

        for command in ["table4", "table5", "table6", "table7", "fig1", "fig2", "fig6"]:
            assert main([command]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Figure 6" in out

    def test_perf_command_quick(self, capsys):
        from repro.harness.cli import main

        code = main(["fig4", "--accesses", "400", "--workloads", "nekbone"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 5" in out

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--schemes", "killi_1:0"),
            ("--schemes", "nope"),
            ("--workloads", "nope"),
            ("--accesses", "0"),
            ("--accesses", "-5"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_perf_input_is_a_usage_error(self, flag, value, monkeypatch, capsys):
        """A bad name or count exits 2 naming the value, before any
        cell simulates."""
        from repro.harness import cli

        def simulate(**kwargs):
            pytest.fail("a cell simulated")

        monkeypatch.setattr(cli.experiments, "fig4_fig5_performance", simulate)
        base = ["fig4", "--workloads", "nekbone", "--schemes", "baseline",
                "--accesses", "10"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(base + [flag, value])
        assert exit_info.value.code == 2
        assert value in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workloads", "--schemes"])
    @pytest.mark.parametrize("experiment", ["fig4", "fig5", "all"])
    def test_empty_name_list_is_a_usage_error(
        self, experiment, flag, monkeypatch, capsys
    ):
        """``--workloads`` / ``--schemes`` with no names exits 2 naming
        the flag instead of running the whole axis."""
        from repro.harness import cli

        def simulate(**kwargs):
            pytest.fail("a cell simulated")

        monkeypatch.setattr(cli.experiments, "fig4_fig5_performance", simulate)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([experiment, "--accesses", "10", flag])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["fig4", "all"])
    @pytest.mark.parametrize(
        "resume_args,message",
        [
            (["--resume", "run.jsonl"],
             "--resume requires --cache (finished cells replay from it)"),
            (["--cache", "cache", "--resume", "missing.jsonl"],
             "--resume missing.jsonl: no such journal file"),
        ],
        ids=["no-cache", "missing-journal"],
    )
    def test_bad_resume_is_a_usage_error(
        self, experiment, resume_args, message, tmp_path, monkeypatch, capsys
    ):
        """A ``--resume`` that cannot run exits 2 with one line naming
        the flag or the file, before any experiment prints or runs."""
        from repro.harness import cli

        def simulate(*args, **kwargs):
            pytest.fail("a cell simulated")

        monkeypatch.setattr(cli.experiments, "run_cells", simulate)
        monkeypatch.chdir(tmp_path)
        code = cli.main([experiment, "--accesses", "50", *resume_args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert "Traceback" not in captured.err

    def test_sec55_command(self, capsys):
        from repro.harness.cli import main

        assert main(["sec55", "--accesses", "400"]) == 0
        assert "Section 5.5" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        from repro.harness.cli import main

        for name, filename in [("table4", "table4.csv"), ("fig2", "fig2.csv")]:
            assert main([name, "--csv", str(tmp_path)]) == 0
            assert (tmp_path / filename).exists()

    def test_csv_reuses_the_campaign_on_the_chosen_engine(self, tmp_path, capsys):
        """``--csv`` writes the matrix the run computed: each cell
        simulates once, on the ``--engine`` asked for."""
        from repro.harness.cli import main
        from repro.metrics import METRICS

        base = ["fig4", "--accesses", "200", "--workloads", "nekbone",
                "--schemes", "baseline", "dected"]
        METRICS.reset()
        try:
            assert main(base + ["--csv", str(tmp_path / "scalar"),
                                "--engine", "scalar", "--telemetry"]) == 0
            snapshot = METRICS.snapshot()
        finally:
            METRICS.disable()
            METRICS.reset()
        assert snapshot["counters"]["cells.simulated"] == 2
        assert snapshot["timers"]["engine.scalar.kernel"]["count"] == 2
        assert "engine.batched.kernel" not in snapshot["timers"]
        assert main(base + ["--csv", str(tmp_path / "batched"),
                            "--engine", "batched"]) == 0
        scalar_csv = (tmp_path / "scalar" / "fig4_fig5.csv").read_text()
        assert scalar_csv == (tmp_path / "batched" / "fig4_fig5.csv").read_text()

    @pytest.mark.parametrize("experiment", ["table7", "sec55", "all"])
    def test_csv_without_a_csv_form_is_a_usage_error(
        self, experiment, tmp_path, capsys
    ):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([experiment, "--accesses", "10", "--csv", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert f"{experiment} has no CSV form" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_onto_an_existing_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.harness.cli import main

        target = tmp_path / "taken"
        target.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(["table4", "--csv", str(target)])
        assert exit_info.value.code == 2
        assert str(target) in capsys.readouterr().err

    def test_csv_export_perf(self, tmp_path, capsys):
        from repro.harness.cli import main

        assert main([
            "fig4", "--accesses", "300", "--workloads", "nekbone",
            "--csv", str(tmp_path),
        ]) == 0
        content = (tmp_path / "fig4_fig5.csv").read_text()
        assert "nekbone" in content
        assert "normalized_time" in content
