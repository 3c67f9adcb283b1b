"""Tests for the extended-Hamming SECDED code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import DecodeStatus
from repro.ecc.secded import SecDedCode, secded_checkbits
from repro.utils.bitvec import random_bits


@pytest.fixture(scope="module")
def code():
    return SecDedCode(512)


class TestDimensions:
    def test_checkbit_formula(self):
        assert secded_checkbits(512) == 11
        assert secded_checkbits(64) == 8
        assert secded_checkbits(256) == 10
        assert secded_checkbits(1) == 3

    def test_paper_codeword(self, code):
        # Paper: "SECDED ECC requires 11 checkbits to protect 523 bits
        # of data (512 bits of data and 11 ECC checkbits)."
        assert code.k == 512
        assert code.n == 523
        assert code.checkbits == 11

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SecDedCode(0)

    def test_encode_length_check(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(100, dtype=np.uint8))

    def test_decode_length_check(self, code):
        with pytest.raises(ValueError):
            code.decode(np.zeros(100, dtype=np.uint8))


class TestCleanPath:
    def test_zero_data(self, code):
        word = code.encode(np.zeros(512, dtype=np.uint8))
        assert not word.any()
        result = code.decode(word)
        assert result.status is DecodeStatus.CLEAN
        assert result.syndrome_zero and result.global_parity_ok

    def test_systematic(self, code, rng):
        data = random_bits(rng, 512)
        word = code.encode(data)
        assert (word[:512] == data).all()

    def test_clean_round_trip(self, code, rng):
        data = random_bits(rng, 512)
        result = code.decode(code.encode(data))
        assert result.status is DecodeStatus.CLEAN
        assert (result.data == data).all()


class TestSingleError:
    @pytest.mark.parametrize("position", [0, 255, 511, 512, 521])
    def test_corrects_any_position(self, code, rng, position):
        data = random_bits(rng, 512)
        word = code.encode(data)
        word[position] ^= 1
        result = code.decode(word)
        assert result.status is DecodeStatus.CORRECTED
        assert result.corrected_positions == (position,)
        assert (result.data == data).all()

    def test_global_parity_bit_error(self, code, rng):
        data = random_bits(rng, 512)
        word = code.encode(data)
        word[code.n - 1] ^= 1
        result = code.decode(word)
        assert result.status is DecodeStatus.CORRECTED
        assert result.syndrome_zero
        assert not result.global_parity_ok
        assert (result.data == data).all()

    def test_single_error_signals(self, code, rng):
        # Table 2 relies on (syndrome non-zero, parity mismatch) for a
        # single-bit error.
        data = random_bits(rng, 512)
        word = code.encode(data)
        word[42] ^= 1
        result = code.decode(word)
        assert not result.syndrome_zero
        assert not result.global_parity_ok


class TestDoubleError:
    def test_detects_double(self, code, rng):
        data = random_bits(rng, 512)
        word = code.encode(data)
        word[[10, 200]] ^= 1
        result = code.decode(word)
        assert result.status is DecodeStatus.DETECTED
        assert not result.syndrome_zero
        assert result.global_parity_ok  # even error count

    def test_double_including_checkbit(self, code, rng):
        data = random_bits(rng, 512)
        word = code.encode(data)
        word[[100, 515]] ^= 1
        assert code.decode(word).status is DecodeStatus.DETECTED

    def test_double_including_global_parity(self, code, rng):
        data = random_bits(rng, 512)
        word = code.encode(data)
        word[[100, code.n - 1]] ^= 1
        # Syndrome sees one error, parity looks fine -> even count.
        result = code.decode(word)
        # This aliases to a single error at position 100's column with
        # parity ok: detected as a double (even) error.
        assert result.status in (DecodeStatus.DETECTED, DecodeStatus.CORRECTED)
        if result.status is DecodeStatus.CORRECTED:
            # The only acceptable correction is the true data bit.
            assert (result.data == data).all()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_never_miscorrects_double_in_codeword(self, seed):
        # d=4: no 2-error pattern inside the Hamming-covered part may
        # be "corrected" into wrong data.
        rng = np.random.default_rng(seed)
        code = SecDedCode(64)
        data = random_bits(rng, 64)
        word = code.encode(data)
        positions = rng.choice(code.n - 1, size=2, replace=False)
        word[positions] ^= 1
        result = code.decode(word)
        assert result.status is DecodeStatus.DETECTED


class TestSyndromeOfErrorPositions:
    def test_matches_full_decode(self, code, rng):
        # Linearity: syndrome of (codeword + e) == syndrome of e.
        data = random_bits(rng, 512)
        word = code.encode(data)
        positions = [3, 77, 515]
        word2 = word.copy()
        word2[positions] ^= 1
        sparse = code.syndrome_of_error_positions(positions)
        assert (sparse == 0) == code.decode(word2).syndrome_zero

    def test_empty_is_zero(self, code):
        assert code.syndrome_of_error_positions([]) == 0

    def test_global_parity_position_contributes_nothing(self, code):
        assert code.syndrome_of_error_positions([code.n - 1]) == 0

    def test_out_of_range(self, code):
        with pytest.raises(IndexError):
            code.syndrome_of_error_positions([code.n])

    def test_pair_cancellation(self, code):
        # XOR of the same column twice cancels.
        assert code.syndrome_of_error_positions([5, 5]) == 0

    def test_golden_pinned_syndromes(self, code):
        # Column codes are the non-powers-of-two in increasing order:
        # position 0 -> 3, 1 -> 5, 2 -> 6; checkbit j -> 1 << j; the
        # global parity position (n - 1) contributes nothing.
        cases = [
            ([], 0),
            ([0], 3),
            ([1], 5),
            ([0, 1], 3 ^ 5),
            ([0, 1, 2], 3 ^ 5 ^ 6),
            ([512], 1),  # checkbit 0
            ([513], 2),  # checkbit 1
            ([522], 0),  # global parity: no column code
            ([0, 522], 3),
        ]
        for positions, expected in cases:
            assert code.syndrome_of_error_positions(positions) == expected, positions


class TestSmallCodes:
    @pytest.mark.parametrize("k", [8, 32, 64, 128])
    def test_exhaustive_single_error(self, k, rng):
        code = SecDedCode(k)
        data = random_bits(rng, k)
        word = code.encode(data)
        for position in range(code.n):
            corrupted = word.copy()
            corrupted[position] ^= 1
            result = code.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED, position
            assert (result.data == data).all(), position
