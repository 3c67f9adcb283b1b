"""Tests for the packed-bit (uint64 word) set representation."""

import numpy as np
import pytest

from repro.utils.bitpack import n_words, pack_bit_matrix, pack_positions, popcount64


def decode(row):
    """Bit offsets set in a packed row, in increasing order."""
    return [
        (word_index << 6) + bit
        for word_index, word in enumerate(row.tolist())
        for bit in range(64)
        if word >> bit & 1
    ]


class TestWords:
    def test_n_words(self):
        assert n_words(0) == 0
        assert n_words(1) == 1
        assert n_words(64) == 1
        assert n_words(65) == 2
        assert n_words(539) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            n_words(-1)


class TestPackRoundtrip:
    def test_empty(self):
        row = pack_positions([], 539)
        assert row.shape == (9,)
        assert not row.any()
        assert decode(row) == []

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            k = int(rng.integers(0, 40))
            positions = np.sort(rng.choice(539, size=k, replace=False))
            row = pack_positions(positions, 539)
            assert decode(row) == positions.tolist()

    def test_word_boundaries(self):
        positions = [0, 63, 64, 127, 128, 538]
        row = pack_positions(positions, 539)
        assert decode(row) == positions

    def test_duplicates_are_idempotent(self):
        row = pack_positions([5, 5, 5], 64)
        assert decode(row) == [5]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            pack_positions([539], 539)
        with pytest.raises(IndexError):
            pack_positions([-1], 539)


class TestPopcount:
    def test_against_python_bitcount(self, rng):
        words = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        expected = [bin(int(w)).count("1") for w in words]
        assert popcount64(words).tolist() == expected

    def test_matrix_shape_preserved(self, rng):
        words = rng.integers(0, 2**63, size=(4, 9), dtype=np.uint64)
        assert popcount64(words).shape == (4, 9)


class TestMatrixPacking:
    def test_pack_positions_matrix_matches_per_row(self, rng):
        """A matrix of per-row offset lists packs row by row."""
        n, k_max, bits = 32, 12, 539
        offsets = rng.integers(0, bits, size=(n, k_max))
        counts = rng.integers(0, k_max + 1, size=n)
        valid = np.arange(k_max)[None, :] < counts[:, None]
        member = np.zeros((n, bits), dtype=np.uint8)
        member[np.nonzero(valid)[0], offsets[valid]] = 1
        packed = pack_bit_matrix(member)
        for i in range(n):
            expected = np.unique(offsets[i, valid[i]])
            assert np.array_equal(packed[i], pack_positions(expected, bits))
            assert decode(packed[i]) == expected.tolist()

    def test_shape_mismatch_rejected(self):
        for shape in ((64,), (2, 3, 64)):
            with pytest.raises(ValueError):
                pack_bit_matrix(np.zeros(shape, dtype=np.uint8))

    def test_pack_bit_matrix_matches_positions(self, rng):
        bits = (rng.random((16, 539)) < 0.05).astype(np.uint8)
        packed = pack_bit_matrix(bits)
        for i in range(16):
            expected = pack_positions(np.nonzero(bits[i])[0], 539)
            assert np.array_equal(packed[i], expected)

    def test_mask_from_bool(self):
        member = np.zeros(130, dtype=bool)
        member[[0, 64, 129]] = True
        assert decode(pack_bit_matrix(member[None, :])[0]) == [0, 64, 129]
