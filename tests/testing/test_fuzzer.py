"""The scenario fuzzer: validity, determinism, bounds."""

import pytest

from repro.scenario.config import ScenarioConfig, cell_scenario
from repro.testing.generator import _WRITE_BACK_OK, ScenarioFuzzer


class TestDeterminism:
    def test_index_stable(self):
        a = ScenarioFuzzer(seed=7).scenario(13)
        b = ScenarioFuzzer(seed=7).scenario(13)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_independent_of_history(self):
        # Example i must not depend on how many examples ran before it.
        fresh = ScenarioFuzzer(seed=3).scenario(9)
        warmed = ScenarioFuzzer(seed=3)
        list(warmed.generate(9))
        assert warmed.scenario(9) == fresh

    def test_seeds_differ(self):
        a = [s.fingerprint() for s in ScenarioFuzzer(seed=0).generate(8)]
        b = [s.fingerprint() for s in ScenarioFuzzer(seed=1).generate(8)]
        assert a != b

    def test_examples_vary(self):
        prints = {s.fingerprint() for s in ScenarioFuzzer(seed=0).generate(16)}
        assert len(prints) > 8


class TestValidity:
    def test_all_examples_valid(self):
        for scenario in ScenarioFuzzer(seed=11).generate(25):
            assert isinstance(scenario, ScenarioConfig)
            scenario.validate()
            scenario.gpu.to_gpu_config()

    def test_write_back_pool_validates(self):
        """Every scheme the fuzzer may draw as write-back validates
        with it, so no write-back draw is thrown away and redrawn."""
        assert _WRITE_BACK_OK
        for name in _WRITE_BACK_OK:
            cell_scenario("fft", name, write_back=True).validate()

    def test_roundtrips_through_toml(self):
        for scenario in ScenarioFuzzer(seed=2).generate(5):
            assert ScenarioConfig.from_toml(scenario.to_toml()) == scenario


class TestBounds:
    def test_size_bound(self):
        fuzzer = ScenarioFuzzer(seed=5, max_accesses=64)
        for scenario in fuzzer.generate(20):
            assert 1 <= scenario.workload.accesses_per_cu <= 64

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            ScenarioFuzzer(max_accesses=0)

    def test_axis_restriction(self):
        fuzzer = ScenarioFuzzer(
            seed=1, workloads=["fft"], schemes=["baseline"]
        )
        for scenario in fuzzer.generate(10):
            assert scenario.workload.name == "fft"
            assert scenario.scheme.name == "baseline"

    def test_covers_schemes_and_workloads(self):
        scenarios = list(ScenarioFuzzer(seed=0).generate(40))
        assert len({s.scheme.name for s in scenarios}) >= 4
        assert len({s.workload.name for s in scenarios}) >= 4
        assert any(s.scheme.name.startswith("killi") for s in scenarios)
