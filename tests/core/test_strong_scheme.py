"""Tests for Killi with stronger ECC-cache codes (Sections 5.2/5.5)."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.faults.fault_map import FaultMap
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build(faults: dict, code: str = "dected", ecc_ratio: int = 16):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = KilliScheme(
        GEO, fault_map, 0.625, KilliConfig(ecc_ratio=ecc_ratio),
        rng=RngFactory(9).stream("mask"), code=code,
    )
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestBudgets:
    def test_code_budgets(self):
        _, dected = build({}, "dected")
        assert dected.policy.correct_t == 2
        _, olsc = build({}, "olsc-t11")
        assert olsc.policy.correct_t == 11

    def test_inverted_write_training_rejected(self):
        # A Table 2 mechanism the strong rule does not model: refusing
        # it beats silently running without it.
        fault_map = FaultMap.from_faults(GEO.n_lines, {})
        config = KilliConfig(ecc_ratio=16, inverted_write_training=True)
        with pytest.raises(ValueError, match="inverted_write_training"):
            KilliScheme(GEO, fault_map, 0.625, config, code="olsc-t11")

    def test_two_faults_enabled_under_dected(self):
        # The whole point of Section 5.2: DECTED keeps 2-fault lines.
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)
        assert cache.stats.corrected_reads == 1

    def test_three_faults_disabled_under_dected(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1), (2, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1, 2})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.DISABLED)
        assert cache.tags.is_disabled(0, 0)

    def test_eleven_faults_enabled_under_olsc(self):
        positions = list(range(11))
        faults = {GEO.line_id(0, 0): [(p, 1) for p in positions]}
        cache, scheme = build(faults, "olsc-t11")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set(positions))
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)

    def test_twelve_faults_disabled_under_olsc(self):
        positions = list(range(12))
        faults = {GEO.line_id(0, 0): [(p, 1) for p in positions]}
        cache, scheme = build(faults, "olsc-t11")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set(positions))
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.DISABLED)


class TestTrainingFlows:
    def test_clean_lines_classify_b00(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, way)] == int(Dfh.STABLE_0)
        assert not scheme.ecc.contains(0, way)

    def test_eviction_training(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1), (2, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0, 0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1, 2})
        for tag in range(1, 6):
            cache.read(addr_of(0, tag))
        assert cache.tags.is_disabled(0, 0)

    def test_checkbit_faults_count_against_budget(self):
        faults = {GEO.line_id(0, 0): [(530, 1), (531, 1), (532, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {530, 531, 532})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.DISABLED)

    def test_parity_only_fault_keeps_protection(self):
        faults = {GEO.line_id(0, 0): [(512, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {512})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)

    def test_b00_path_falls_back_to_base_killi(self):
        # After training, a b'00 line behaves exactly like base Killi:
        # an unmasked fault triggers a retrain miss.
        faults = {GEO.line_id(0, 0): [(100, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set())
        cache.read(addr_of(0))  # masked: classify b'00
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_0)
        scheme.errors.set_effective(GEO.line_id(0, 0), {100})
        cache.read(addr_of(0))
        assert cache.stats.error_induced_misses == 1


class TestStochasticCapacity:
    def test_more_capacity_than_secded_killi_at_0600(self, rngs):
        # The Section 5.5 claim in miniature: at 0.600 VDD the OLSC
        # variant disables far fewer lines than the SECDED variant.
        fault_map = FaultMap(n_lines=GEO.n_lines, rng=rngs.stream("f"))
        results = {}
        for label, maker in {
            "secded": lambda: KilliScheme(
                GEO, fault_map, 0.600, KilliConfig(ecc_ratio=4),
                rng=rngs.stream("m1"),
            ),
            "olsc": lambda: KilliScheme(
                GEO, fault_map, 0.600, KilliConfig(ecc_ratio=4),
                rng=rngs.stream("m2"), code="olsc-t11",
            ),
        }.items():
            scheme = maker()
            cache = WriteThroughCache(GEO, scheme)
            rng = np.random.default_rng(3)
            for addr in (rng.integers(0, 32 * 1024, size=20000) & ~63):
                cache.read(int(addr))
            results[label] = scheme.disabled_fraction()
        assert results["olsc"] < results["secded"] / 5
