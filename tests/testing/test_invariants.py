"""The REPRO_CHECK_INVARIANTS debug-assertion layer."""

import pytest

from repro.cache.core import CacheModel
from repro.testing.invariants import (
    INVARIANTS_ENV,
    InvariantError,
    check_cache_invariants,
    check_set_invariants,
    invariants_enabled,
)


def exercised_cache(small_geometry, substrate=None) -> CacheModel:
    cache = CacheModel(small_geometry, substrate=substrate)
    for i in range(200):
        cache.read(i * 64 * 7)
        if i % 3 == 0:
            cache.write(i * 64 * 7)
    return cache


class TestEnvFlag:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "  0  "])
    def test_falsy(self, monkeypatch, value):
        monkeypatch.setenv(INVARIANTS_ENV, value)
        assert not invariants_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy(self, monkeypatch, value):
        monkeypatch.setenv(INVARIANTS_ENV, value)
        assert invariants_enabled()

    def test_unset(self, monkeypatch):
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        assert not invariants_enabled()

    def test_error_is_assertion(self):
        assert issubclass(InvariantError, AssertionError)


class TestChecksPass:
    @pytest.mark.parametrize("substrate", ["object", "soa"])
    def test_exercised_cache_is_clean(self, small_geometry, substrate):
        cache = exercised_cache(small_geometry, substrate)
        check_cache_invariants(cache)

    @pytest.mark.parametrize("substrate", ["object", "soa"])
    def test_fresh_cache_is_clean(self, small_geometry, substrate):
        check_cache_invariants(CacheModel(small_geometry, substrate=substrate))


class TestChecksCatchCorruption:
    def test_lru_permutation(self, small_geometry):
        cache = exercised_cache(small_geometry, "object")
        assert hasattr(cache.lru, "_order")
        order = cache.lru._order[0]
        order[0] = order[1]  # duplicate way: not a permutation
        with pytest.raises(InvariantError):
            check_set_invariants(cache, 0)

    def test_valid_counter_drift(self, small_geometry):
        cache = exercised_cache(small_geometry, "object")
        cache.tags.valid_in_set[0] += 1
        with pytest.raises(InvariantError):
            check_set_invariants(cache, 0)

    def test_soa_verify_catches_count_drift(self, small_geometry):
        cache = exercised_cache(small_geometry, "soa")
        cache.tags._n_valid += 1
        with pytest.raises(InvariantError):
            check_cache_invariants(cache)

    def test_soa_verify_catches_tag_aliasing(self, small_geometry):
        cache = exercised_cache(small_geometry, "soa")
        # Point an occupied slot at another line of its set (its tag
        # plus one) without updating the lookup index.
        way = cache.tags.lookup(0)
        assert way is not None
        cache.tags._line_at[way] += small_geometry.n_sets
        with pytest.raises(InvariantError):
            check_cache_invariants(cache)


class TestArming:
    def test_disarmed_by_default(self, monkeypatch, small_geometry):
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        cache = CacheModel(small_geometry)
        # No instance-level wrapper: the hot path is untouched.
        assert "read" not in cache.__dict__
        assert "write" not in cache.__dict__

    def test_armed_read_checks(self, monkeypatch, small_geometry):
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        cache = CacheModel(small_geometry, substrate="object")
        cache.read(0)  # clean: passes
        # Drift a counter the hit path never consults — only the
        # armed post-access check can notice.
        cache.tags.valid_in_set[0] += 1
        with pytest.raises(InvariantError):
            cache.read(0)

    def test_armed_full_run_is_clean(self, monkeypatch):
        # The whole simulator stack — batched Killi interpreter, SoA
        # substrate, L1 filter — under armed invariants, pinned against
        # the scalar reference.
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        from repro.scenario.config import GpuSection, cell_scenario
        from repro.testing.differential import diff_scenario

        scenario = cell_scenario(
            "fft",
            "killi_1:8",
            voltage=0.6,
            seed=4,
            accesses_per_cu=100,
            gpu=GpuSection(
                n_cus=2, l2_size_bytes=64 * 1024,
                l2_associativity=8, l2_banks=1,
            ),
        )
        assert diff_scenario(scenario) is None
