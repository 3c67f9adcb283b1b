"""Name tables: scheme-name resolution and grammar, workloads, engines."""

import pytest

from repro.baselines import DectedScheme, FlairScheme, MsEccScheme
from repro.cache.hooks import UnprotectedScheme
from repro.cache.core import CacheModel
from repro.cache.object_store import SetAssocCache
from repro.cache.soa import SoaTagStore
from repro.core import KilliScheme
from repro.core.policy import StrongCodePolicy, Table2Policy
from repro.faults import FaultMap
from repro.gpu import GpuConfig, GpuSimulator
from repro.gpu.engine import ENGINES
from repro.harness.runner import make_scheme, scheme_names
from repro.scenario.schemes import known_schemes, resolve_scheme
from repro.utils.rng import RngFactory


class TestSchemeRegistry:
    def test_every_legacy_name_resolves_to_the_same_class(self):
        expected = {
            "baseline": (UnprotectedScheme, "baseline", None),
            "dected": (DectedScheme, "oracle", None),
            "flair": (FlairScheme, "oracle", None),
            "msecc": (MsEccScheme, "oracle", None),
            "killi_1:256": (KilliScheme, "killi", 256),
            "killi_1:128": (KilliScheme, "killi", 128),
            "killi_1:64": (KilliScheme, "killi", 64),
            "killi_1:32": (KilliScheme, "killi", 32),
            "killi_1:16": (KilliScheme, "killi", 16),
        }
        assert scheme_names() == list(expected)
        for name, (cls, kind, ratio) in expected.items():
            entry = resolve_scheme(name)
            assert (entry.name, entry.cls, entry.kind) == (name, cls, kind), name
            assert (entry.ecc_ratio, entry.code) == (ratio, None), name

    def test_strong_code_variants_enumerate_and_resolve(self):
        names = known_schemes()
        assert names[: len(scheme_names())] == scheme_names()
        assert "killi+olsc-t11_1:8" in names
        assert "killi+dected_1:2" in names
        entry = resolve_scheme("killi+olsc-t11_1:8")
        assert entry.cls is KilliScheme
        assert (entry.ecc_ratio, entry.code) == (8, "olsc-t11")
        # Non-enumerated in-family instances still resolve.
        assert resolve_scheme("killi_1:512").ecc_ratio == 512

    def test_scheme_names_can_append_strong_codes(self):
        names = scheme_names(ratios=(64,), strong_codes=("olsc-t11",))
        assert names[-1] == "killi+olsc-t11_1:8"
        for name in names:
            resolve_scheme(name)

    @pytest.mark.parametrize(
        "bad",
        [
            "killi_1:abc",      # non-integer ratio: was a bare ValueError
            "killi+olsc_1:xx",  # unknown code AND bad ratio
            "killi_1:",
            "killi+bogus_1:8",  # unknown strong code
            "killi+hsiao_1:8",  # a code the simulator does not model
            "killix",
            "nope",
        ],
    )
    def test_malformed_names_raise_keyerror_naming_the_scheme(self, bad):
        with pytest.raises(KeyError) as excinfo:
            resolve_scheme(bad)
        assert bad in str(excinfo.value)

    def test_make_scheme_matches_direct_construction(self):
        gpu_config = GpuConfig()
        rngs = RngFactory(1).child("fft/killi_1:64")
        fault_map = FaultMap(
            n_lines=gpu_config.l2.n_lines, rng=RngFactory(1).stream("fault-map")
        )
        built = make_scheme("killi_1:64", gpu_config, fault_map, 0.625, rngs)
        assert isinstance(built, KilliScheme)
        assert built.config.ecc_ratio == 64
        assert isinstance(built.policy, Table2Policy)
        # A strong ECC-cache code is a policy choice, not a subclass.
        strong = make_scheme(
            "killi+olsc-t11_1:8", gpu_config, fault_map, 0.625, rngs
        )
        assert type(strong) is KilliScheme
        assert isinstance(strong.policy, StrongCodePolicy)
        assert strong.policy.correct_t == 11
        assert isinstance(
            make_scheme("baseline", gpu_config, fault_map, 0.625, rngs),
            UnprotectedScheme,
        )


class TestOtherRegistries:
    def test_workloads_registered_in_display_order(self):
        from repro.traces import WORKLOADS, workload_names

        assert workload_names() == list(WORKLOADS)
        assert workload_names()[:2] == ["xsbench", "fft"]

    def test_unknown_workload_keyerror_message_preserved(self):
        from repro.traces import workload_trace

        with pytest.raises(KeyError, match="unknown workload 'nope'"):
            workload_trace("nope", 100)

    def test_engines_registered_and_unknown_engine_raises_valueerror(self):
        assert ENGINES == ("scalar", "batched")
        with pytest.raises(ValueError, match="unknown engine 'nope'"):
            GpuSimulator(engine="nope")

    def test_substrates_registered_and_construct(self):
        # Substrates are no experiment axis: CacheModel's private choice.
        geometry = GpuConfig().l1_geometry()
        assert isinstance(CacheModel(geometry, substrate="soa").tags, SoaTagStore)
        tags = CacheModel(geometry, substrate="object").tags
        assert isinstance(tags, SetAssocCache)
        assert tags.geometry is geometry
        with pytest.raises(ValueError, match="unknown substrate"):
            CacheModel(geometry, substrate="nope")
