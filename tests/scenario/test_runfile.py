"""Scenario files: loading, expansion, equivalence with flat-built cells."""

import json
import os

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.runner import run_cell, run_cells
from repro.scenario.config import ScenarioConfig, cell_scenario
from repro.scenario.runfile import (
    Scenario,
    ScenarioMatrix,
    load_scenario,
    run_scenario,
    scenario_fingerprint,
)

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
    "scenarios",
)


def example_files():
    return sorted(
        os.path.join(EXAMPLES, name)
        for name in os.listdir(EXAMPLES)
        if name.endswith((".toml", ".json"))
    )


class TestCommittedExamples:
    def test_examples_exist(self):
        assert len(example_files()) >= 4

    @pytest.mark.parametrize(
        "path", example_files(), ids=[os.path.basename(p) for p in example_files()]
    )
    def test_example_validates_and_round_trips(self, path):
        scenario = load_scenario(path)
        cells = scenario.validate()
        assert cells
        # to_dict -> from_dict is the identity on the expansion.
        reloaded = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict())), source=path
        )
        assert reloaded.fingerprint() == scenario.fingerprint()


class TestExpansion:
    def test_cross_product_is_workload_major(self):
        scenario = Scenario(
            name="x",
            matrix=ScenarioMatrix(
                workloads=("a", "b"), schemes=("s1", "s2"), seeds=(1, 2)
            ),
        )
        cells = scenario.expand()
        assert len(cells) == 8
        order = [
            (c.workload.name, c.scheme.name, c.fault.seed) for c in cells[:3]
        ]
        assert order == [("a", "s1", 1), ("a", "s1", 2), ("a", "s2", 1)]

    def test_empty_axes_use_the_base_value(self):
        scenario = Scenario(name="x")
        (cell,) = scenario.expand()
        assert cell == scenario.base

    def test_fingerprint_is_axis_order_independent(self):
        forward = Scenario(
            name="x", matrix=ScenarioMatrix(workloads=("a", "b"))
        )
        backward = Scenario(
            name="x", matrix=ScenarioMatrix(workloads=("b", "a"))
        )
        assert forward.fingerprint() == backward.fingerprint()
        assert scenario_fingerprint(forward.expand()) == scenario_fingerprint(
            backward.expand()
        )

    def test_unknown_matrix_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            Scenario.from_dict(
                {"name": "x", "matrix": {"voltage": [0.6]}}, source="t"
            )

    def test_name_required(self):
        with pytest.raises(ValueError, match="name"):
            Scenario.from_dict({}, source="t")


class TestEquivalence:
    """A scenario file's cells are the cells built flat from its fields."""

    def test_ci_smoke_scenario_matches_legacy_cells(self):
        scenario = load_scenario(os.path.join(EXAMPLES, "ci_smoke.toml"))
        assert scenario.expand() == [
            cell_scenario("nekbone", scheme, voltage=0.625, seed=42,
                          accesses_per_cu=400)
            for scheme in ("baseline", "killi_1:64")
        ]

    def test_result_cache_shared_between_paths(self, tmp_path):
        spec = cell_scenario("nekbone", "baseline", accesses_per_cu=300)
        scenario = Scenario.from_dict(
            {"name": "one", "workload": {"accesses_per_cu": 300}}
        )
        first = run_cells([spec], cache_dir=str(tmp_path))
        second = run_cells(scenario.expand(), cache_dir=str(tmp_path))
        assert not first[0].from_cache
        assert second[0].from_cache
        assert second[0].cycles == first[0].cycles


class TestRunScenario:
    def test_summary_shape_and_fingerprints(self):
        scenario = Scenario(
            name="tiny",
            base=ScenarioConfig(
                workload={"name": "nekbone", "accesses_per_cu": 300}
            ),
            matrix=ScenarioMatrix(schemes=("baseline",)),
        )
        summary = run_scenario(scenario)
        assert summary["scenario"] == "tiny"
        assert summary["fingerprint"] == scenario.fingerprint()
        (cell,) = summary["cells"]
        assert cell["scheme"] == "baseline"
        assert cell["fingerprint"] == scenario.expand()[0].fingerprint()


class TestCli:
    def test_scenario_validate_and_list(self, capsys):
        assert cli_main(["scenario", "validate"] + example_files()) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert cli_main(["scenario", "list", "--dir", EXAMPLES]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out
        assert "killi+olsc-t11_1:8" in out  # strong variants are listed

    def test_scenario_validate_reports_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('schema_version = 1\nname = "bad"\n\n[scheme]\nname = "nope"\n')
        assert cli_main(["scenario", "validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out
        # Below the fault-map floor: rejected before any simulation,
        # by ``validate`` and ``run`` alike.
        low = tmp_path / "low.toml"
        low.write_text(
            'schema_version = 1\nname = "low"\n\n[scheme]\nname = "baseline"\n'
            '\n[workload]\naccesses_per_cu = 50\n\n[fault]\nvoltage = 0.55\n'
        )
        assert cli_main(["scenario", "validate", str(low)]) == 1
        assert "floor 0.575" in capsys.readouterr().out
        assert cli_main(["scenario", "run", str(low), "--no-progress"]) == 2
        assert "floor 0.575" in capsys.readouterr().err
        # A [gpu] geometry the caches reject: the same, naming the field.
        banks = tmp_path / "banks.toml"
        banks.write_text(
            'schema_version = 1\nname = "banks"\n\n[workload]\naccesses_per_cu = 50\n'
            '\n[gpu]\nl2_banks = 3\n'
        )
        assert cli_main(["scenario", "validate", str(banks)]) == 1
        assert "gpu.l2_banks" in capsys.readouterr().out
        assert cli_main(["scenario", "run", str(banks), "--no-progress"]) == 2
        assert "gpu.l2_banks" in capsys.readouterr().err
        # A [scheme.config] override Killi would choke on mid-cell.
        segments = tmp_path / "segments.toml"
        segments.write_text(
            'schema_version = 1\nname = "segments"\n\n[scheme]\n'
            'name = "killi_1:64"\n\n[scheme.config]\nstable_segments = 0\n'
            '\n[workload]\nname = "nekbone"\naccesses_per_cu = 50\n'
        )
        assert cli_main(["scenario", "validate", str(segments)]) == 1
        assert "stable_segments" in capsys.readouterr().out
        assert cli_main(["scenario", "run", str(segments), "--no-progress"]) == 2
        assert "stable_segments" in capsys.readouterr().err
        # An override the strong-code rule does not model.
        strong = tmp_path / "strong.toml"
        strong.write_text(
            'schema_version = 1\nname = "strong"\n\n[scheme]\n'
            'name = "killi+olsc-t11_1:8"\n\n[scheme.config]\n'
            'inverted_write_training = true\n'
            '\n[workload]\nname = "nekbone"\naccesses_per_cu = 50\n'
            '\n[fault]\nvoltage = 0.6\n'
        )
        assert cli_main(["scenario", "validate", str(strong)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "inverted_write_training" in out
        assert cli_main(["scenario", "run", str(strong), "--no-progress"]) == 2
        assert "inverted_write_training" in capsys.readouterr().err

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
        self, resume_args, message, tmp_path, monkeypatch, capsys
    ):
        """A ``--resume`` that cannot run exits 2 with one line naming
        the flag or the file, before the scenario runs."""
        import repro.scenario.runfile as runfile

        def run(*args, **kwargs):
            pytest.fail("the scenario ran")

        monkeypatch.setattr(runfile, "run_scenario", run)
        monkeypatch.chdir(tmp_path)
        code = cli_main([
            "scenario", "run", os.path.join(EXAMPLES, "ci_smoke.toml"),
            "--no-progress", *resume_args,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert "Traceback" not in captured.err

    def test_scenario_run_writes_json(self, tmp_path, capsys):
        out_json = tmp_path / "result.json"
        code = cli_main([
            "scenario", "run",
            os.path.join(EXAMPLES, "ci_smoke.toml"),
            "--no-progress", "--json", str(out_json),
        ])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["scenario"] == "ci-smoke"
        assert len(payload["cells"]) == 2
        assert "ci-smoke" in capsys.readouterr().out

    @pytest.mark.parametrize("axis,value", [
        ("voltages", "0.6"),
        ("workloads", '"fft"'),
        ("schemes", '"baseline"'),
        ("seeds", '"abc"'),
    ])
    def test_matrix_axis_must_be_a_list(self, axis, value, tmp_path, capsys):
        """A scalar ``[matrix]`` axis fails typed, naming the axis: never
        a traceback, never a string split into characters."""
        path = tmp_path / "scalar.toml"
        path.write_text(
            f'schema_version = 1\nname = "scalar"\n\n[matrix]\n{axis} = {value}\n'
            '\n[workload]\naccesses_per_cu = 50\n'
        )
        assert cli_main(["scenario", "validate", str(path)]) == 1
        assert f"FAIL {path}: [matrix] {axis} must be a list" in capsys.readouterr().out
        assert cli_main(["scenario", "run", str(path), "--no-progress"]) == 2
        assert f"[matrix] {axis} must be a list" in capsys.readouterr().err
        assert cli_main(["scenario", "list", "--dir", str(tmp_path)]) == 0
        assert "<invalid>" in capsys.readouterr().out

    def test_scenario_run_unwritable_json_fails_before_running(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.scenario.runfile as runfile

        def simulate(*args, **kwargs):
            raise AssertionError("a cell simulated")

        monkeypatch.setattr(runfile, "run_scenario", simulate)
        target = str(tmp_path / "missing" / "x.json")
        code = cli_main([
            "scenario", "run", os.path.join(EXAMPLES, "ci_smoke.toml"),
            "--no-progress", "--json", target,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert target in err and "Traceback" not in err

    def test_schemes_flag_accepts_strong_variants(self, capsys):
        code = cli_main([
            "fig4", "--accesses", "300", "--workloads", "nekbone",
            "--schemes", "killi+olsc-t11_1:8",
        ])
        assert code == 0
        assert "killi+olsc-t11_1:8" in capsys.readouterr().out

    def test_schemes_flag_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "fig4", "--accesses", "300", "--workloads", "nekbone",
                "--schemes", "nope",
            ])
        assert exit_info.value.code == 2
        assert "unknown scheme 'nope'" in capsys.readouterr().err

    def test_retired_engine_and_substrate_knobs_fail_typed(self, tmp_path, capsys):
        """The ``vectorized`` engine and every substrate knob are gone:
        each fails with a typed error naming the valid choices, or an
        argparse exit 2 — never a traceback, never a silent alias."""
        vectorized = tmp_path / "vectorized.toml"
        vectorized.write_text(
            'schema_version = 1\nname = "v"\n\n[engine]\nengine = "vectorized"\n'
        )
        with pytest.raises(KeyError, match=r"known: \['scalar', 'batched'\]"):
            load_scenario(str(vectorized)).validate()
        with pytest.raises(ValueError, match=r"expected one of \('scalar', 'batched'\)"):
            run_cell(
                cell_scenario("fft", "baseline", accesses_per_cu=10, engine="vectorized")
            )
        substrate = tmp_path / "substrate.toml"
        substrate.write_text(
            'schema_version = 1\nname = "s"\n\n[engine]\nsubstrate = "soa"\n'
        )
        with pytest.raises(ValueError, match=r"\['substrate'\] in \[engine\]"):
            load_scenario(str(substrate))
        for path in (vectorized, substrate):
            assert cli_main(["scenario", "run", str(path), "--no-progress"]) == 2
            assert cli_main(["scenario", "validate", str(path)]) == 1
        assert "invalid scenario" in capsys.readouterr().err
        for flag in (["--substrate", "soa"], ["--engine", "vectorized"]):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(["fig4", "--accesses", "10"] + flag)
            assert exit_info.value.code == 2
        assert "unknown engine 'vectorized'" in capsys.readouterr().err
