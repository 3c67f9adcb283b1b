"""Additional directed tests of KilliScheme details."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.faults.fault_map import FaultMap
from repro.faults.soft_errors import SoftErrorInjector
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build(faults: dict, config: KilliConfig | None = None, injector=None):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = KilliScheme(
        GEO, fault_map, 0.625,
        config if config is not None else KilliConfig(ecc_ratio=16),
        rng=RngFactory(9).stream("mask"),
        soft_injector=injector,
    )
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestConfigValidation:
    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            KilliConfig(ecc_ratio=0)

    def test_bad_assoc(self):
        with pytest.raises(ValueError):
            KilliConfig(ecc_assoc=0)

    def test_segment_nesting(self):
        with pytest.raises(ValueError):
            KilliConfig(training_segments=10, stable_segments=4)

    @pytest.mark.parametrize("overrides,message", [
        ({"stable_segments": 0}, "stable_segments must be a positive"),
        ({"stable_segments": -4}, "stable_segments must be a positive"),
        ({"training_segments": "16"}, "training_segments must be a positive"),
        ({"ecc_ratio": True}, "ecc_ratio must be a positive"),
        ({"ecc_assoc": 4.0}, "ecc_assoc must be a positive"),
        ({"training_segments": 1024}, "training_segments 1024 must divide"),
        ({"training_segments": 32}, "training_segments 32 must divide"),
        ({"stable_segments": 3}, "stable_segments 3 must divide"),
        ({"train_on_evict": "no"}, "train_on_evict must be a bool"),
        ({"priority_replacement": 1}, "priority_replacement must be a bool"),
    ])
    def test_bad_override_names_the_field(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            KilliConfig(**overrides)

    def test_ecc_assoc_must_divide_the_entries(self):
        config = KilliConfig(ecc_ratio=64, ecc_assoc=3)
        with pytest.raises(ValueError, match="ecc_assoc 3"):
            config.ecc_entries(32768)
        with pytest.raises(ValueError, match="ecc_assoc"):
            KilliScheme(
                GEO, FaultMap.from_faults(GEO.n_lines, {}), 0.625,
                KilliConfig(ecc_ratio=2, ecc_assoc=3),
            )

    def test_ecc_entries_floor(self):
        config = KilliConfig(ecc_ratio=100000, ecc_assoc=4)
        assert config.ecc_entries(1024) == 4  # at least one full set

    def test_default_matches_paper(self):
        config = KilliConfig()
        assert config.training_segments == 16
        assert config.stable_segments == 4
        assert config.ecc_assoc == 4


class TestWriteHitPaths:
    def test_write_hit_touches_entry(self):
        faults = {GEO.line_id(0, 0): [(100, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {100})
        cache.read(addr_of(0))  # b'10 with entry
        # Fill three aliasing entries so LRU position matters.
        assert scheme.ecc.contains(0, 0)
        cache.write(addr_of(0))  # touch via write
        assert scheme.ecc.contains(0, 0)

    def test_write_to_b00_line_no_entry(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        cache.write(addr_of(0))
        assert not scheme.ecc.contains(0, way)

    def test_write_miss_changes_nothing(self):
        cache, scheme = build({})
        cache.write(addr_of(0))
        assert cache.tags.lookup(addr_of(0)) is None
        assert scheme.ecc.occupancy == 0


class TestAccounting:
    def test_hits_served_counts(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        assert scheme.hits_served == 2

    def test_transition_bookkeeping(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        assert scheme.transitions[("INITIAL", "STABLE_0")] == 1

    def test_corrections_bumped_in_stats(self):
        faults = {GEO.line_id(0, 0): [(100, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {100})
        cache.read(addr_of(0))
        assert cache.stats.extra.get("ecc_corrections") == 1

    def test_dfh_histogram_sums(self):
        cache, scheme = build({})
        for tag in range(6):
            cache.read(addr_of(0, tag))
        assert sum(scheme.dfh_histogram().values()) == GEO.n_lines


class TestSoftInjectorInteraction:
    def test_injector_fires_on_protected_states(self):
        injector = SoftErrorInjector(1.0, burst_pmf={1: 1.0},
                                     rng=RngFactory(5).stream("s"))
        cache, scheme = build({}, injector=injector)
        cache.read(addr_of(0))
        events_before = injector.events_injected
        cache.read(addr_of(0))
        assert injector.events_injected == events_before + 1

    def test_b01_line_with_soft_error_never_silently_wrong(self):
        injector = SoftErrorInjector(1.0, burst_pmf={1: 1.0},
                                     rng=RngFactory(5).stream("s"))
        cache, scheme = build({}, injector=injector)
        for tag in range(30):
            cache.read(addr_of(0, tag))
            cache.read(addr_of(0, tag))
        assert scheme.sdc_events == 0


class TestDisabledSetBehaviour:
    def test_partial_set_disable_keeps_working(self):
        faults = {
            GEO.line_id(0, way): [(0, 1), (1, 1)] for way in range(3)
        }
        cache, scheme = build(faults)
        # Disable three of four ways through training.
        for way in range(3):
            cache.read(addr_of(0, way))
        for way in range(3):
            scheme.errors.set_effective(GEO.line_id(0, way), {0, 1})
        # Touch each to classify (they may sit in any way; just sweep).
        for tag in range(8):
            cache.read(addr_of(0, tag))
        disabled = sum(
            1 for way in range(4) if cache.tags.is_disabled(0, way)
        )
        assert disabled >= 1
        # The set still serves traffic through the remaining ways.
        cache.read(addr_of(0, 50))
        assert cache.stats.reads > 0

    def test_fill_priority_values(self):
        cache, scheme = build({})
        line_id = GEO.line_id(0, 0)
        scheme.dfh[line_id] = int(Dfh.INITIAL)
        assert scheme.fill_priorities(0, [0]) == [2]
        scheme.dfh[line_id] = int(Dfh.STABLE_0)
        assert scheme.fill_priorities(0, [0]) == [1]
        scheme.dfh[line_id] = int(Dfh.STABLE_1)
        assert scheme.fill_priorities(0, [0]) == [0]
        scheme.dfh[line_id] = int(Dfh.DISABLED)
        assert scheme.fill_priorities(0, [0]) == [0]


class TestKernelResultHelpers:
    def test_ipc_and_mpki(self):
        from repro.cache.stats import CacheStats
        from repro.gpu.engine import KernelResult

        stats = CacheStats()
        stats.reads = 10
        stats.read_misses = 4
        result = KernelResult(
            workload="w", cycles=100, instructions=1000, l2_stats=stats
        )
        assert result.ipc == 10.0
        assert result.l2_mpki == pytest.approx(4.0)

    def test_zero_cycles_ipc(self):
        from repro.cache.stats import CacheStats
        from repro.gpu.engine import KernelResult

        result = KernelResult(
            workload="w", cycles=0, instructions=0, l2_stats=CacheStats()
        )
        assert result.ipc == 0.0
