"""ScenarioConfig schema, serialisation and fingerprint stability."""

import hashlib
import json

import pytest

from repro.scenario.config import (
    SCHEMA_VERSION,
    EngineSection,
    GpuSection,
    ScenarioConfig,
    cell_scenario,
)


class TestFingerprintStability:
    def test_scheme_config_insertion_order_is_canonicalised(self):
        a = cell_scenario(
            "fft", "killi_1:64",
            scheme_config={"priority_replacement": False, "dfh_bits": 2},
        )
        b = cell_scenario(
            "fft", "killi_1:64",
            scheme_config={"dfh_bits": 2, "priority_replacement": False},
        )
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_toml_round_trip_hashes_identically(self):
        original = cell_scenario(
            "fft", "killi_1:64",
            voltage=0.65, seed=7, accesses_per_cu=1234,
            scheme_config={"train_on_evict": False},
        )
        round_tripped = ScenarioConfig.from_toml(original.to_toml())
        assert round_tripped == original
        assert round_tripped.fingerprint() == original.fingerprint()

    def test_json_round_trip_hashes_identically(self):
        original = cell_scenario("xsbench", "msecc", voltage=0.65)
        round_tripped = ScenarioConfig.from_json(original.to_json())
        assert round_tripped.fingerprint() == original.fingerprint()

    def test_byte_compatible_with_legacy_cellspec_payload(self):
        """The exact flat payload earlier releases hashed per cell."""
        scenario = cell_scenario(
            "nekbone", "killi_1:32",
            voltage=0.6, seed=3, accesses_per_cu=500,
            scheme_config={"dfh_bits": 3}, write_back=False,
        )
        payload = {
            "workload": "nekbone",
            "scheme": "killi_1:32",
            "voltage": 0.6,
            "seed": 3,
            "accesses_per_cu": 500,
            "scheme_config": [["dfh_bits", 3]],
            "write_back": False,
            "schema": 1,
        }
        legacy = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()
        assert scenario.fingerprint() == legacy

    def test_engine_and_substrate_do_not_change_the_fingerprint(self):
        # The engine also fixes the substrate, so one axis covers both.
        base = cell_scenario("fft", "baseline")
        for engine in ("batched", "scalar"):
            variant = base.replace(engine=EngineSection(engine=engine))
            assert variant.fingerprint() == base.fingerprint()

    def test_non_default_gpu_changes_the_fingerprint(self):
        base = cell_scenario("fft", "baseline")
        small = base.replace(gpu=GpuSection(l2_size_bytes=256 * 1024))
        assert small.fingerprint() != base.fingerprint()
        # ... and only the overridden knob enters the payload.
        assert small.canonical_payload()["gpu"] == {"l2_size_bytes": 256 * 1024}
        assert "gpu" not in base.canonical_payload()


class TestSchema:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            ScenarioConfig.from_dict({"typo": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioConfig.from_dict({"fault": {"voltage": 0.6, "sed": 1}})

    def test_newer_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            ScenarioConfig.from_dict({"schema_version": SCHEMA_VERSION + 1})

    def test_validate_resolves_every_axis(self):
        cell_scenario("fft", "killi_1:64").validate()
        with pytest.raises(KeyError, match="unknown scheme"):
            cell_scenario("fft", "nope").validate()
        with pytest.raises(KeyError, match="unknown workload"):
            cell_scenario("nope", "baseline").validate()
        with pytest.raises(ValueError, match="accesses_per_cu"):
            cell_scenario("fft", "baseline", accesses_per_cu=0).validate()
        with pytest.raises(ValueError, match="voltage"):
            cell_scenario("fft", "baseline", voltage=2.0).validate()
        # The fault-map floor every cell is built on, for every scheme.
        cell_scenario("fft", "dected", voltage=0.575).validate()
        for scheme in ("baseline", "dected"):
            with pytest.raises(ValueError, match="floor 0.575"):
                cell_scenario("fft", scheme, voltage=0.55).validate()
        # A Killi ECC-cache ratio below 1 is a malformed scheme name.
        for scheme in ("killi_1:0", "killi_1:-4", "killi+olsc-t11_1:0"):
            with pytest.raises(KeyError, match="unknown scheme"):
                cell_scenario("fft", scheme).validate()
        # Mistyped scalars fail typed, naming the field.
        for knobs, field in [
            ({"voltage": "abc"}, "fault.voltage"),
            ({"voltage": True}, "fault.voltage"),
            ({"accesses_per_cu": "abc"}, "workload.accesses_per_cu"),
            ({"accesses_per_cu": True}, "workload.accesses_per_cu"),
            ({"accesses_per_cu": 400.0}, "workload.accesses_per_cu"),
            ({"seed": "x"}, "fault.seed"),
            ({"seed": 1.5}, "fault.seed"),
            ({"seed": False}, "fault.seed"),
        ]:
            with pytest.raises(ValueError, match=field):
                cell_scenario("fft", "baseline", **knobs).validate()
        # Integer voltages are still numbers.
        cell_scenario("fft", "baseline", voltage=1).validate()
        # [gpu] geometries the caches reject fail typed, naming the
        # field, instead of inside the cell.
        for knobs, field in [
            ({"l2_associativity": 0}, "gpu.l2_associativity"),
            ({"l1_assoc": 0}, "gpu.l1_assoc"),
            ({"l2_banks": 3}, "gpu.l2_banks"),
            ({"l2_size_bytes": 1000}, "gpu.l2_size_bytes"),
            ({"l2_line_bytes": 48}, "gpu.l2_line_bytes"),
            ({"n_cus": 0}, "gpu.n_cus"),
        ]:
            with pytest.raises(ValueError, match=field):
                cell_scenario("fft", "baseline", gpu=GpuSection(**knobs)).validate()
        # [scheme.config] overrides are checked by value, not only by
        # name, and the ECC-cache shape against the [gpu] geometry.
        for overrides, field in [
            ({"stable_segments": 0}, "stable_segments"),
            ({"stable_segments": -4}, "stable_segments"),
            ({"training_segments": "16"}, "training_segments"),
            ({"training_segments": 1024}, "training_segments"),
            ({"training_segments": 32}, "training_segments"),
            ({"ecc_assoc": 3}, "ecc_assoc"),
            ({"train_on_evict": "no"}, "train_on_evict"),
        ]:
            with pytest.raises(ValueError, match=field):
                cell_scenario(
                    "nekbone", "killi_1:64", scheme_config=overrides
                ).validate()
        # 12 ways fill the 12-entry floor of a 512-line L2 at 1:64 but
        # cannot divide the 512 entries of the default 32768-line L2.
        small = GpuSection(l2_size_bytes=512 * 64, l2_associativity=4, l2_banks=4)
        cell_scenario(
            "fft", "killi_1:64", gpu=small, scheme_config={"ecc_assoc": 12}
        ).validate()
        with pytest.raises(ValueError, match="ecc_assoc 12"):
            cell_scenario(
                "fft", "killi_1:64", scheme_config={"ecc_assoc": 12}
            ).validate()
        # Inverted write training is a Table 2 mechanism: the strong-code
        # rule rejects it instead of silently ignoring it.
        iwt = {"inverted_write_training": True}
        cell_scenario("nekbone", "killi_1:8", scheme_config=iwt).validate()
        for scheme in ("killi+olsc-t11_1:8", "killi+dected_1:2"):
            with pytest.raises(
                ValueError, match="scheme.config: inverted_write_training"
            ):
                cell_scenario(
                    "nekbone", scheme, voltage=0.6, scheme_config=iwt
                ).validate()

    def test_scheme_options_validated_against_factory(self):
        with pytest.raises(ValueError, match="only apply to Killi"):
            cell_scenario(
                "fft", "baseline", scheme_config={"dfh_bits": 2}
            ).validate()
        with pytest.raises(ValueError, match="override"):
            cell_scenario(
                "fft", "killi_1:64", scheme_config={"not_a_field": 1}
            ).validate()

    def test_gpu_section_materialises_gpu_config(self):
        gpu = GpuSection(n_cus=4, l2_size_bytes=512 * 1024).to_gpu_config()
        assert gpu.n_cus == 4
        assert gpu.l2.size_bytes == 512 * 1024
