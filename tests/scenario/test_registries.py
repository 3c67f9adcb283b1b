"""Plugin registries: resolution, name grammar, extension points."""

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
from repro.harness.runner import make_scheme, scheme_names
from repro.scenario.registries import (
    ENGINE_REGISTRY,
    SCHEME_REGISTRY,
    WORKLOAD_REGISTRY,
    SchemeFactory,
)
from repro.scenario.registry import Registry
from repro.scenario.schemes import resolve_scheme
from repro.utils.rng import RngFactory


class TestSchemeRegistry:
    def test_every_legacy_name_resolves_to_the_same_class(self):
        expected = {
            "baseline": (UnprotectedScheme, {}),
            "dected": (DectedScheme, {}),
            "flair": (FlairScheme, {}),
            "msecc": (MsEccScheme, {}),
            "killi_1:256": (KilliScheme, {"ecc_ratio": 256, "code": None}),
            "killi_1:128": (KilliScheme, {"ecc_ratio": 128, "code": None}),
            "killi_1:64": (KilliScheme, {"ecc_ratio": 64, "code": None}),
            "killi_1:32": (KilliScheme, {"ecc_ratio": 32, "code": None}),
            "killi_1:16": (KilliScheme, {"ecc_ratio": 16, "code": None}),
        }
        assert scheme_names() == list(expected)
        for name, (cls, params) in expected.items():
            factory = resolve_scheme(name)
            assert factory.scheme_class is cls, name
            assert factory.params == params, name

    def test_strong_code_variants_enumerate_and_resolve(self):
        names = SCHEME_REGISTRY.names()
        assert "killi+olsc-t11_1:8" in names
        assert "killi+dected_1:2" in names
        factory = resolve_scheme("killi+olsc-t11_1:8")
        assert factory.scheme_class is KilliScheme
        assert factory.params == {"ecc_ratio": 8, "code": "olsc-t11"}
        # Non-enumerated in-family instances still resolve.
        assert resolve_scheme("killi_1:512").params["ecc_ratio"] == 512

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

    def test_third_party_scheme_registers_without_harness_changes(self):
        class NullScheme(UnprotectedScheme):
            pass

        factory = SchemeFactory(
            "thirdparty-null",
            kind="baseline",
            scheme_class=NullScheme,
            builder=lambda factory, ctx: NullScheme(),
        )
        SCHEME_REGISTRY.register("thirdparty-null", factory)
        try:
            assert resolve_scheme("thirdparty-null") is factory
            assert "thirdparty-null" in SCHEME_REGISTRY.names()
            gpu_config = GpuConfig()
            fault_map = FaultMap(
                n_lines=gpu_config.l2.n_lines,
                rng=RngFactory(1).stream("fault-map"),
            )
            built = make_scheme(
                "thirdparty-null", gpu_config, fault_map, 0.625, RngFactory(1)
            )
            assert isinstance(built, NullScheme)
        finally:
            SCHEME_REGISTRY.unregister("thirdparty-null")
        with pytest.raises(KeyError):
            resolve_scheme("thirdparty-null")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            SCHEME_REGISTRY.register(
                "baseline", resolve_scheme("baseline")
            )


class TestOtherRegistries:
    def test_workloads_registered_in_display_order(self):
        from repro.traces import workload_names

        assert WORKLOAD_REGISTRY.names() == workload_names()
        assert WORKLOAD_REGISTRY.names()[:2] == ["xsbench", "fft"]

    def test_unknown_workload_keyerror_message_preserved(self):
        from repro.traces import workload_trace

        with pytest.raises(KeyError, match="unknown workload 'nope'"):
            workload_trace("nope", 100)

    def test_engines_registered_and_unknown_engine_raises_valueerror(self):
        assert ENGINE_REGISTRY.names() == ["scalar", "batched"]
        with pytest.raises(ValueError, match="unknown engine 'nope'"):
            GpuSimulator(engine="nope")

    def test_substrates_registered_and_construct(self):
        # Substrates are no registry axis: CacheModel's private choice.
        import repro.scenario.registries as registries

        assert not hasattr(registries, "SUBSTRATE_REGISTRY")
        geometry = GpuConfig().l1_geometry()
        assert isinstance(CacheModel(geometry, substrate="soa").tags, SoaTagStore)
        tags = CacheModel(geometry, substrate="object").tags
        assert isinstance(tags, SetAssocCache)
        assert tags.geometry is geometry
        with pytest.raises(ValueError, match="unknown substrate"):
            CacheModel(geometry, substrate="nope")


class TestRegistryMechanics:
    def test_exact_entries_and_families_and_errors(self):
        registry = Registry("widget")
        registry.register("a", 1)
        registry.register_family(
            lambda name: (len(name) if name.startswith("w:") else None),
            enumerate=lambda: ["w:x"],
            label="w-family",
        )
        assert registry.resolve("a") == 1
        assert registry.resolve("w:abc") == 5
        assert registry.names() == ["a", "w:x"]
        assert "a" in registry and "w:zz" in registry and "zz" not in registry
        with pytest.raises(KeyError, match="unknown widget 'zz'"):
            registry.resolve("zz")

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("t")
        def entry():
            return "hi"

        assert registry.resolve("t") is entry

    def test_lazy_loader_runs_once_and_allows_reentrant_registration(self):
        calls = []

        def loader():
            calls.append(1)
            registry.register("late", 42)

        registry = Registry("lazy", loader=loader)
        assert registry.resolve("late") == 42
        assert registry.names() == ["late"]
        assert calls == [1]
