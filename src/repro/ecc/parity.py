"""Killi's segmented, interleaved parity (paper Section 4.1).

Each 512-bit cache line is logically divided into segments, and one
even-parity bit is generated per segment.  Segments are *interleaved*:
bit ``i`` of the line belongs to segment ``i mod n_segments``.  The
paper interleaves so that spatially-adjacent multi-bit soft errors land
in different segments and are therefore each detected; LV faults are
random so interleaving neither helps nor hurts them.

Two configurations are used by Killi:

- **training** (DFH state b'01): 16 segments of 32 bits each, so the
  16 parity bits together with SECDED classify the fault count;
- **stable** (DFH b'00 / b'10): 4 segments of 128 bits each, so only
  4 parity bits remain resident in the main cache.

The parity bits themselves are stored in LV SRAM and may also fail;
callers model that by flipping bits of the stored parity vector before
calling :meth:`SegmentedParity.mismatches`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SegmentedParity"]


class SegmentedParity:
    """Segmented (optionally interleaved) even parity over a bit line.

    Parameters
    ----------
    n_bits:
        Line width in bits (512 for a 64B line).
    n_segments:
        Number of parity segments (16 during Killi training, 4 after).
    interleaved:
        If True (default), bit ``i`` maps to segment ``i % n_segments``;
        if False, the line is split into contiguous chunks.
    """

    def __init__(self, n_bits: int = 512, n_segments: int = 16, interleaved: bool = True):
        if n_bits % n_segments:
            raise ValueError("n_bits must be divisible by n_segments")
        self.n_bits = n_bits
        self.n_segments = n_segments
        self.interleaved = interleaved
        if interleaved:
            self._segment_of = np.arange(n_bits, dtype=np.intp) % n_segments
        else:
            self._segment_of = np.arange(n_bits, dtype=np.intp) // (n_bits // n_segments)

    @property
    def segment_width(self) -> int:
        """Data bits per segment (excluding the parity bit itself)."""
        return self.n_bits // self.n_segments

    def segment_of(self, bit_index: int) -> int:
        """Segment that data bit ``bit_index`` belongs to."""
        if not 0 <= bit_index < self.n_bits:
            raise IndexError(f"bit index {bit_index} out of range")
        return int(self._segment_of[bit_index])

    def segment_members(self, segment: int) -> np.ndarray:
        """Data-bit indices belonging to ``segment``."""
        if not 0 <= segment < self.n_segments:
            raise IndexError(f"segment {segment} out of range")
        return np.nonzero(self._segment_of == segment)[0]

    def generate(self, data: np.ndarray) -> np.ndarray:
        """Compute the per-segment even-parity bits for ``data``."""
        if len(data) != self.n_bits:
            raise ValueError(f"expected {self.n_bits} bits, got {len(data)}")
        parities = np.zeros(self.n_segments, dtype=np.uint8)
        np.bitwise_xor.at(parities, self._segment_of, data.astype(np.uint8))
        return parities

    def mismatches(self, data: np.ndarray, stored_parity: np.ndarray) -> np.ndarray:
        """Boolean mask of segments whose stored parity no longer matches.

        ``stored_parity`` is the parity vector as read back from the
        (possibly faulty) array; a flipped parity bit shows up as a
        mismatch in its segment exactly as in hardware.
        """
        if len(stored_parity) != self.n_segments:
            raise ValueError(
                f"expected {self.n_segments} parity bits, got {len(stored_parity)}"
            )
        return (self.generate(data) ^ stored_parity.astype(np.uint8)).astype(bool)

    def mismatch_count(self, data: np.ndarray, stored_parity: np.ndarray) -> int:
        """Number of segments with a parity mismatch (0, 1 or more)."""
        return int(np.count_nonzero(self.mismatches(data, stored_parity)))
