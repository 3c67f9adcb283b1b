"""Tests for Orthogonal Latin Square codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import DecodeStatus
from repro.ecc.olsc import OlscCode, olsc_checkbits
from repro.utils.bitvec import random_bits


@pytest.fixture(scope="module")
def olsc11():
    return OlscCode(512, t=11)


class TestConstruction:
    def test_checkbits(self):
        # MS-ECC's configuration: t=11 over 512 data bits, m=23.
        assert olsc_checkbits(512, 11) == 2 * 11 * 23

    def test_default_square_side_prime(self):
        code = OlscCode(512, t=4)
        assert code.m == 23

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            OlscCode(512, t=0)

    def test_non_prime_m_rejected(self):
        with pytest.raises(ValueError):
            OlscCode(512, t=2, m=24)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            OlscCode(512, t=2, m=13)

    def test_too_many_groups(self):
        # 2t <= m + 1 orthogonal groups exist for prime m.
        with pytest.raises(ValueError):
            OlscCode(512, t=13, m=23)


class TestOrthogonality:
    def test_each_bit_in_2t_checks(self, olsc11):
        assert olsc11._checks_of.shape == (512, 22)

    def test_two_checks_share_at_most_one_bit(self):
        code = OlscCode(49, t=3, m=7)
        n_checks = code.n_groups * code.m
        for a in range(n_checks):
            for b in range(a + 1, n_checks):
                if a // code.m == b // code.m:
                    continue  # same group: disjoint by construction
                shared = set(map(int, code._members[a])) & set(
                    map(int, code._members[b])
                )
                assert len(shared) <= 1, (a, b)

    def test_same_group_checks_disjoint(self):
        code = OlscCode(49, t=2, m=7)
        for g in range(code.n_groups):
            seen = set()
            for s in range(code.m):
                members = set(map(int, code._members[g * code.m + s]))
                assert not (members & seen)
                seen |= members


class TestEncodeDecode:
    def test_zero(self, olsc11):
        word = olsc11.encode(np.zeros(512, dtype=np.uint8))
        assert not word.any()
        assert olsc11.decode(word).status is DecodeStatus.CLEAN

    def test_clean_round_trip(self, olsc11, rng):
        data = random_bits(rng, 512)
        result = olsc11.decode(olsc11.encode(data))
        assert result.status is DecodeStatus.CLEAN
        assert (result.data == data).all()

    @pytest.mark.parametrize("n_errors", [1, 2, 5, 8, 11])
    def test_corrects_up_to_t_data_errors(self, olsc11, rng, n_errors):
        data = random_bits(rng, 512)
        word = olsc11.encode(data)
        for _ in range(5):
            positions = rng.choice(512, size=n_errors, replace=False)
            corrupted = word.copy()
            corrupted[positions] ^= 1
            result = olsc11.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED
            assert (result.data == data).all()

    def test_corrects_mixed_data_and_checkbit_errors(self, olsc11, rng):
        data = random_bits(rng, 512)
        word = olsc11.encode(data)
        for _ in range(10):
            positions = rng.choice(olsc11.n, size=11, replace=False)
            corrupted = word.copy()
            corrupted[positions] ^= 1
            result = olsc11.decode(corrupted)
            assert (result.data == data).all()

    def test_checkbit_only_errors(self, olsc11, rng):
        data = random_bits(rng, 512)
        word = olsc11.encode(data)
        corrupted = word.copy()
        corrupted[[512, 600, 900]] ^= 1
        result = olsc11.decode(corrupted)
        assert (result.data == data).all()

    def test_small_code_exhaustive_singles(self, rng):
        code = OlscCode(25, t=2, m=5)
        data = random_bits(rng, 25)
        word = code.encode(data)
        for position in range(code.n):
            corrupted = word.copy()
            corrupted[position] ^= 1
            result = code.decode(corrupted)
            assert (result.data == data).all(), position

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_corrects_random_t_errors(self, seed):
        rng = np.random.default_rng(seed)
        code = OlscCode(49, t=3, m=7)
        data = random_bits(rng, 49)
        word = code.encode(data)
        n_errors = int(rng.integers(0, 4))
        positions = rng.choice(code.n, size=n_errors, replace=False)
        word[positions] ^= 1
        result = code.decode(word)
        assert (result.data == data).all()


class TestRegistry:
    def test_checkbits_lookup(self):
        from repro.ecc.registry import checkbits_for

        assert checkbits_for("secded") == 11
        assert checkbits_for("dected") == 21
        assert checkbits_for("tecqed") == 31
        assert checkbits_for("6ec7ed") == 61
        assert checkbits_for("olsc-t11") == 506

    def test_make_code_round_trip(self, rng):
        from repro.ecc.registry import make_code

        for name in ["secded", "dected"]:
            code = make_code(name, 64)
            data = random_bits(rng, 64)
            assert (code.decode(code.encode(data)).data == data).all()

    def test_unknown_code(self):
        from repro.ecc.registry import checkbits_for, make_code

        with pytest.raises(KeyError):
            make_code("nope")
        with pytest.raises(KeyError):
            checkbits_for("nope")

    def test_capabilities(self):
        from repro.ecc.registry import correction_capability

        assert correction_capability("secded") == 1
        assert correction_capability("dected") == 2
        assert correction_capability("olsc-t11") == 11
