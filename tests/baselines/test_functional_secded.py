"""Tests for the functional per-line SECDED scheme."""

from repro.baselines.functional import FunctionalSecDedLineScheme
from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.faults.fault_map import FaultMap
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build(faults: dict):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = FunctionalSecDedLineScheme(
        GEO, fault_map, 0.625, rng=RngFactory(9).stream("mask")
    )
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestBaseBehaviour:
    def test_mbist_disable_still_applies(self):
        faults = {GEO.line_id(0, 0): [(1, 1), (2, 1)]}
        cache, _ = build(faults)
        assert cache.tags.is_disabled(0, 0)

    def test_clean_line_clean_reads(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        assert cache.read(addr_of(0)) == cache.latencies.hit
        assert scheme.sdc_events == 0

    def test_single_lv_fault_corrected(self):
        faults = {GEO.line_id(0, 0): [(100, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {100})
        cache.read(addr_of(0))
        assert cache.stats.corrected_reads == 1
        assert scheme.sdc_events == 0


class TestSoftErrorWeakness:
    def test_double_error_detected_and_refetched(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        scheme.errors.set_effective(line_id, {10, 20})
        cache.read(addr_of(0))
        assert scheme.due_events == 1
        assert cache.stats.error_induced_misses == 1

    def test_triple_error_miscorrects_as_sdc(self):
        # The Section 2.3 weakness: 1 LV fault + 2-bit soft error = 3
        # codeword errors.  With odd weight SECDED "corrects" a single
        # bit and serves corrupt data.
        cache, scheme = build({})
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        scheme.errors.set_effective(line_id, {10, 20, 30})
        outcome_events = cache.read(addr_of(0))
        assert scheme.sdc_events == 1

    def test_killi_catches_the_same_pattern(self):
        # Contrast: Killi's 4-segment parity sees 3 mismatching
        # segments on the same error vector.
        from repro.core import KilliConfig, KilliScheme

        fault_map = FaultMap.from_faults(GEO.n_lines, {})
        scheme = KilliScheme(
            GEO, fault_map, 0.625, KilliConfig(ecc_ratio=16),
            rng=RngFactory(9).stream("m"),
        )
        cache = WriteThroughCache(GEO, scheme)
        cache.read(addr_of(0))
        cache.read(addr_of(0))  # classify b'00
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        scheme.errors.set_effective(line_id, {10, 20, 30})
        cache.read(addr_of(0))
        assert scheme.sdc_events == 0
        assert cache.stats.error_induced_misses == 1

    def test_refetch_clears_transients(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        line_id = GEO.line_id(0, cache.tags.lookup(addr_of(0)))
        scheme.errors.set_effective(line_id, {10, 20})
        cache.read(addr_of(0))  # detected, refetched
        assert cache.read(addr_of(0)) == cache.latencies.hit


class TestCampaign:
    def test_small_campaign_ordering(self):
        from repro.harness.experiments import soft_error_campaign

        out = soft_error_campaign(
            rate_per_access=0.05, accesses=8000, cache_kib=64
        )
        assert out["killi"]["sdc"] <= out["flair"]["sdc"]
        assert out["killi"]["detected"] > 0
