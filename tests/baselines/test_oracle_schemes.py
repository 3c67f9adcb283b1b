"""Tests for the MBIST-pre-characterised baseline schemes."""

import numpy as np
import pytest

from repro.baselines import DectedScheme, FlairScheme, MsEccScheme, SecDedLineScheme
from repro.baselines.oracle import OracleEccScheme
from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.faults.fault_map import FaultMap

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build(scheme_cls, faults: dict, **kwargs):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = scheme_cls(GEO, fault_map, 0.625, **kwargs)
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestOracleDisabling:
    def test_flair_disables_two_faults(self):
        faults = {GEO.line_id(0, 0): [(1, 1), (2, 1)]}
        cache, scheme = build(FlairScheme, faults)
        assert cache.tags.is_disabled(0, 0)
        assert scheme.disabled_fraction() == pytest.approx(1 / GEO.n_lines)

    def test_flair_keeps_single_fault(self):
        faults = {GEO.line_id(0, 0): [(1, 1)]}
        cache, _ = build(FlairScheme, faults)
        assert not cache.tags.is_disabled(0, 0)

    def test_dected_keeps_two_disables_three(self):
        faults = {
            GEO.line_id(0, 0): [(1, 1), (2, 1)],
            GEO.line_id(0, 1): [(1, 1), (2, 1), (3, 1)],
        }
        cache, _ = build(DectedScheme, faults)
        assert not cache.tags.is_disabled(0, 0)
        assert cache.tags.is_disabled(0, 1)

    def test_msecc_keeps_eleven_disables_twelve(self):
        eleven = [(i, 1) for i in range(11)]
        twelve = [(i, 1) for i in range(12)]
        faults = {GEO.line_id(0, 0): eleven, GEO.line_id(0, 1): twelve}
        cache, _ = build(MsEccScheme, faults)
        assert not cache.tags.is_disabled(0, 0)
        assert cache.tags.is_disabled(0, 1)

    def test_checkbit_faults_counted_for_secded(self):
        # SECDED checkbits live in the same LV array: a data fault +
        # a checkbit fault exceeds the single-error budget.
        faults = {GEO.line_id(0, 0): [(1, 1), (530, 1)]}
        cache, _ = build(SecDedLineScheme, faults)
        assert cache.tags.is_disabled(0, 0)

    def test_checkbit_faults_ignored_for_msecc(self):
        faults = {GEO.line_id(0, 0): [(530, 1), (531, 1)] + [(i, 1) for i in range(11)]}
        cache, _ = build(MsEccScheme, faults)
        assert not cache.tags.is_disabled(0, 0)

    def test_invalid_correct_t(self):
        fault_map = FaultMap.from_faults(GEO.n_lines, {})
        with pytest.raises(ValueError):
            OracleEccScheme(GEO, fault_map, 0.625, correct_t=-1)


class TestOracleAccessPath:
    def test_faulty_line_always_corrected(self):
        faults = {GEO.line_id(0, 0): [(1, 1)]}
        cache, _ = build(FlairScheme, faults)
        cache.read(addr_of(0))  # priority: all equal, picks a way
        # Touch until we hit the faulty way.
        for tag in range(4):
            cache.read(addr_of(0, tag))
        corrected_before = cache.stats.corrected_reads
        for tag in range(4):
            cache.read(addr_of(0, tag))
        assert cache.stats.corrected_reads > corrected_before

    def test_fault_free_lines_clean(self):
        cache, _ = build(FlairScheme, {})
        cache.read(addr_of(0))
        assert cache.read(addr_of(0)) == cache.latencies.hit
        assert cache.stats.corrected_reads == 0

    def test_no_error_induced_misses(self):
        # MBIST pre-characterisation: enabled lines are always safe.
        faults = {GEO.line_id(0, 0): [(1, 1)]}
        cache, _ = build(DectedScheme, faults)
        for tag in range(12):
            cache.read(addr_of(0, tag))
        assert cache.stats.error_induced_misses == 0

    def test_reset_redisables(self):
        faults = {GEO.line_id(0, 0): [(1, 1), (2, 1)]}
        cache, _ = build(FlairScheme, faults)
        cache.reset()
        assert cache.tags.is_disabled(0, 0)


    def test_lockstep_mask_is_the_corrected_ways(self):
        """The cache's lockstep mask marks exactly the correctable
        faulty ways.  Over-budget ways are disabled instead, and a set
        with every way disabled is no longer refused: the kernel
        bypasses it."""
        faults = {
            GEO.line_id(1, 2): [(1, 1)],
            GEO.line_id(1, 3): [(1, 1), (2, 1), (3, 1)],  # over budget
        }
        for way in range(4):
            faults[GEO.line_id(2, way)] = [(1, 1), (2, 1), (3, 1)]
        cache, _ = build(DectedScheme, faults)
        mask = cache.lockstep_mask()
        assert mask is not None
        assert mask.shape == (GEO.n_sets, GEO.associativity)
        assert [tuple(x) for x in np.argwhere(mask)] == [(1, 2)]
        assert cache.tags.disabled_in_set[2] == GEO.associativity

    def test_hook_overriding_subclass_refuses_lockstep(self):
        class Noisy(DectedScheme):
            def on_fill(self, set_index, way):
                pass

        cache, _ = build(Noisy, {})
        assert cache.lockstep_mask() is None


class TestFaultCountMemo:
    def test_second_build_reuses_the_read_only_counts(self, monkeypatch):
        """Every oracle cell of one map and voltage shares the MBIST
        fault counts: the second build runs no bincount, and the shared
        array cannot be written through."""
        fault_map = FaultMap(n_lines=GEO.n_lines, rng=np.random.default_rng(5))
        first = DectedScheme(GEO, fault_map, 0.6)
        calls = []
        bincount = np.bincount

        def counting_bincount(*args, **kwargs):
            calls.append(args)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting_bincount)
        second = DectedScheme(GEO, fault_map, 0.6)
        assert calls == []
        assert np.array_equal(second.fault_counts, first.fault_counts)
        counts = fault_map.fault_counts(0.6, 0, second.layout.data_bits)
        with pytest.raises(ValueError):
            counts[0] = 1


class TestWholeSetDisabled:
    def test_bypass_when_set_dead(self):
        faults = {
            GEO.line_id(0, way): [(1, 1), (2, 1)] for way in range(4)
        }
        cache, _ = build(FlairScheme, faults)
        lat = cache.read(addr_of(0))
        assert lat == cache.latencies.miss
        assert cache.stats.bypasses == 1
        assert cache.read(addr_of(0)) == cache.latencies.miss  # never cached


class TestFlairTrainingPhase:
    def test_capacity_restricted_during_training(self):
        cache, scheme = build(
            FlairScheme, {}, model_training=True, training_accesses=100
        )
        assert scheme._usable_ways_during_training == 1  # (4-2)//2
        cache.read(addr_of(0, 0))
        cache.read(addr_of(0, 1))  # evicts: only way 0 usable
        assert cache.tags.lookup(addr_of(0, 0)) is None

    def test_full_capacity_after_training(self):
        cache, scheme = build(
            FlairScheme, {}, model_training=True, training_accesses=2
        )
        cache.read(addr_of(0, 0))
        cache.read(addr_of(0, 0))
        # Training over: all ways usable now.
        cache.read(addr_of(0, 1))
        assert cache.tags.lookup(addr_of(0, 0)) is not None
        assert cache.tags.lookup(addr_of(0, 1)) is not None

    def test_training_off_by_default(self):
        cache, scheme = build(FlairScheme, {})
        assert not scheme.model_training
        assert scheme.is_line_usable(0, 3)
