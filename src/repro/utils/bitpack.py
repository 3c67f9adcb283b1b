"""Packed-bit (uint64 word) helpers.

The Monte-Carlo sampler (:mod:`repro.analysis.montecarlo`) and the
batched classification kernels (:mod:`repro.kernels`) represent a set
of bit offsets as a row of ``uint64`` words — offset ``o`` lives in
word ``o >> 6``, bit ``o & 63`` — so membership tests, intersections
and parities become word-wide AND/XOR plus popcounts, which numpy
evaluates across whole matrices at once.  (A single line's error
vector in :mod:`repro.core.linestate` is a Python int instead.)

:func:`n_words` sizes such a row; :func:`popcount64` counts the set
bits of every word of an array of any shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["n_words", "popcount64"]


def n_words(n_bits: int) -> int:
    """Number of uint64 words needed to hold ``n_bits`` bit offsets."""
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return (n_bits + 63) >> 6


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _BYTE_POPCOUNT = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1, dtype=np.uint8)

    def popcount64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (byte-LUT fallback)."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        counts = _BYTE_POPCOUNT[as_bytes].reshape(*words.shape, 8)
        return counts.sum(axis=-1, dtype=np.uint64)
