"""Tests for the packed-bit (uint64 word) helpers."""

import numpy as np
import pytest

from repro.utils.bitpack import n_words, popcount64


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


class TestPopcount:
    def test_against_python_bitcount(self, rng):
        words = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        expected = [bin(int(w)).count("1") for w in words]
        assert popcount64(words).tolist() == expected

    def test_matrix_shape_preserved(self, rng):
        words = rng.integers(0, 2**63, size=(4, 9), dtype=np.uint64)
        assert popcount64(words).shape == (4, 9)
