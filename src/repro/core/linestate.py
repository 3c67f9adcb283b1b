"""Per-line effective error vectors and the signals derived from them.

The simulator does not materialise 512-bit line contents.  Because all
of Killi's codes (segmented parity, SECDED) are *linear*, every signal
the controller sees — which parity segments mismatch, whether the
syndrome is zero, whether the global parity matches — depends only on
the **error vector** between what was written and what reads back, not
on the data value itself.

For a persistent stuck-at fault the error bit is set iff the stuck
value differs from the written bit, which for random write data is a
fair coin ("masked fault" when the coin lands on equal).  So:

- on every fill / write-through update of a line, the model resamples
  which of the line's active faults are *unmasked*;
- between writes the effective vector is stable, so repeated reads are
  deterministic — exactly the persistence property the paper exploits;
- soft errors XOR extra positions into the vector.

Each line's error vector is stored as a **Python int** in a plain list:
bit ``o`` is LV offset ``o`` and 0 means clean.  A line holds a handful
of set bits, so int arithmetic beats any numpy pass over a packed row,
whose per-call overhead dwarfs the 539-bit payload: the masking coins
are splitmix64 on ints, and deriving the signals for a read XOR-folds
the set bits' entries of :class:`repro.kernels.LineSignalKernel`'s
signature table (repeated reads hit a per-line memo, since the vector
only changes on fills/writes/soft errors).  The scalar set-walking path
survives as :meth:`LineErrorModel.signals_for_positions` — the pinned
reference the equivalence tests compare the int path against.

This is exact with respect to the bit-accurate data path (see
:mod:`repro.core.datapath`, cross-validated in the test suite) and
keeps the per-access cost tiny: a fault-free line never touches any of
this machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import LineLayout
from repro.ecc.secded import SecDedCode
from repro.faults.fault_map import FaultMap
from repro.kernels.classify import LineSignalKernel

__all__ = ["Signals", "LineErrorModel"]

# splitmix64 constants of the masking coins (products wrap mod 2**64).
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _offsets_of(row: int) -> list:
    """Set bits of an int error row (LV offsets), in increasing order."""
    offsets = []
    while row:
        low = row & -row
        offsets.append(low.bit_length() - 1)
        row ^= low
    return offsets


@dataclass(frozen=True)
class Signals:
    """The three controller-visible signals of paper Table 2."""

    sp_mismatches: int
    """Number of parity segments with a mismatch (0, 1, 2+)."""

    syndrome_zero: bool
    """SECDED syndrome is zero."""

    global_parity_ok: bool
    """SECDED global parity matches."""

    data_error_bits: int = 0
    """Ground truth (not controller-visible): flipped *data* bits.
    Used by the harness to count silent data corruptions."""


#: Signals of a line with no effective errors.
_CLEAN = Signals(0, True, True, 0)


class LineErrorModel:
    """Tracks effective error vectors for every line of a cache.

    Parameters
    ----------
    fault_map:
        Persistent stuck-at faults (one entry per physical line id).
    voltage:
        Normalized operating voltage of the LV array.
    rng:
        Stream for the masking coin flips.
    layout:
        LV bit layout.
    lv_faults_in_ecc_cache:
        If False, bits stored in the ECC cache (parity bits 4..15 and
        all checkbits) are considered fault-free (the ECC cache runs at
        nominal voltage); if True (default) they fail like everything
        else, matching the paper's analytic model.
    interleaved_parity:
        Segment mapping: interleaved (bit i -> segment i mod n, the
        paper's choice, so adjacent soft-error bursts spread across
        segments) or contiguous (bit i -> segment i div width, the
        ablation).
    """

    def __init__(
        self,
        fault_map: FaultMap,
        voltage: float,
        rng: np.random.Generator,
        layout: LineLayout | None = None,
        lv_faults_in_ecc_cache: bool = True,
        interleaved_parity: bool = True,
    ):
        self.fault_map = fault_map
        # CSR view (offsets list + positions array) of the faults
        # active at the operating voltage — pure in the voltage, so
        # built lazily and dropped by the voltage setter.  The fill
        # path probes two offsets to detect the "no active faults" case
        # without touching any numpy machinery.
        self._act_offsets = None
        self._act_positions = None
        self.voltage = voltage
        self.rng = rng
        self.layout = layout if layout is not None else LineLayout()
        self.lv_faults_in_ecc_cache = lv_faults_in_ecc_cache
        self.interleaved_parity = interleaved_parity
        if fault_map.line_bits < self.layout.total_bits:
            raise ValueError(
                f"fault map covers {fault_map.line_bits} bits/line; layout "
                f"needs {self.layout.total_bits}"
            )
        self._secded = SecDedCode(self.layout.data_bits)
        self.kernel = LineSignalKernel(
            self.layout, self._secded, interleaved=interleaved_parity
        )
        # Effective error vectors as ints, one per physical line (bit o
        # is LV offset o; 0 means clean, so the row is its own dirty
        # flag).  A plain list: the hot fill/read paths probe one line
        # per access, where list indexing is the cheapest form.
        self._rows = [0] * fault_map.n_lines
        # The position half of the masking-coin hash, per LV offset.
        self._position_keys = [
            (position * _GOLDEN) & _MASK64 for position in range(fault_map.line_bits)
        ]
        # Read signals are pure in the row: memoise per line until the
        # next mutation (reads vastly outnumber writes).
        # line_id -> {(n_segments, use_ecc): Signals}
        self._signal_cache: dict = {}
        # LV offset of the boundary below which bits are always resident
        # in the (LV) main cache: data + the 4 stable parity bits.
        self._cache_resident_stop = self.layout.parity_offset + 4

    @property
    def voltage(self) -> float:
        """Operating point; assigning a new one drops the fault memo."""
        return self._voltage

    @voltage.setter
    def voltage(self, value: float) -> None:
        self._voltage = value
        self._act_offsets = None
        self._act_positions = None

    # -- state updates ----------------------------------------------------

    def is_dirty(self, line_id: int) -> bool:
        """Fast check: does the line have a non-empty error vector?"""
        return self._rows[line_id] != 0

    #: Probability that a write-through update toggles the masking
    #: state of each individual fault (new data at that bit position).
    mask_flip_probability = 0.1

    def _ensure_active(self) -> list:
        """Build the active-fault CSR for the current voltage."""
        offsets, positions, _ = self.fault_map._active_csr(self._voltage)
        if not self.lv_faults_in_ecc_cache:
            # Bits resident in the (nominal-voltage) ECC cache never
            # fail: filter them out once and rebuild the offsets.
            counts = np.diff(np.asarray(offsets))
            line_of = np.repeat(np.arange(len(counts)), counts)
            keep = positions < self._cache_resident_stop
            positions = positions[keep]
            counts = np.bincount(line_of[keep], minlength=len(counts))
            offsets = [0] * (len(counts) + 1)
            np.cumsum(counts, out=counts)
            offsets[1:] = counts.tolist()
        self._act_offsets = offsets
        self._act_positions = positions
        return offsets

    def _active_positions(self, line_id: int) -> list:
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        return self._act_positions[offsets[line_id] : offsets[line_id + 1]].tolist()

    def _active_mask(self, line_id: int) -> int:
        """Int mask of the line's active faults."""
        mask = 0
        for position in self._active_positions(line_id):
            mask |= 1 << position
        return mask

    def store_row(self, line_id: int, row: int) -> None:
        """Install an int error row (e.g. one :meth:`predicted_fill_row`
        returned)."""
        rows = self._rows
        if rows[line_id] != row:
            rows[line_id] = row
            # Signals are pure in the row, so an unchanged row keeps
            # its memo.
            self._signal_cache.pop(line_id, None)

    def on_fill(self, line_id: int, salt: int = 0) -> None:
        """New data (identified by ``salt``) installed into the line.

        Unmasked faults are determined by the deterministic coins;
        accumulated soft errors are overwritten.
        """
        self.store_row(line_id, self.predicted_fill_row(line_id, salt))

    def slot_has_active(self, line_id: int) -> bool:
        """Any active LV faults in this physical slot at the current
        voltage?  (True means ``on_write_hit`` would draw shared RNG
        and ``on_fill`` would roll the masking coins.)"""
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        return offsets[line_id] != offsets[line_id + 1]

    def predicted_fill_row(self, line_id: int, salt: int) -> int:
        """The int row :meth:`on_fill` stores (0 when every fault masks).

        Deterministic fair coins per (line, data identity, fault): a
        stuck-at cell is *masked* exactly when the written bit equals
        its stuck value.  Data contents are identified by ``salt`` (the
        cache tag), so refilling the same address reinstalls the same
        data and masks the same faults again — the property that lets
        Killi's classification stabilise on read-mostly data.  Pure,
        so the batched replay interpreter classifies hypothetically
        filled lines with it and its commit stores the predicted row.
        """
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        start = offsets[line_id]
        stop = offsets[line_id + 1]
        if start == stop:
            return 0
        keys = self._position_keys
        key = ((line_id * _MIX1) ^ ((salt + 1) * _MIX2)) & _MASK64
        row = 0
        for position in self._act_positions[start:stop].tolist():
            # splitmix64 finalizer of the (position, line, salt) hash.
            x = keys[position] ^ key
            x ^= x >> 30
            x = (x * _MIX1) & _MASK64
            x ^= x >> 27
            x = (x * _MIX2) & _MASK64
            x ^= x >> 31
            if x >> 13 & 1:
                row |= 1 << position
        return row

    def predicted_observable_row(self, line_id: int, row: int) -> int:
        """Observable (original + inverted image) vector for a stored row.

        The result ORs every active fault into ``row``: the int form of
        :meth:`observable_fault_positions`, for the real row or a
        hypothetical fill's.
        """
        return row | self._active_mask(line_id)

    def on_write_hit(self, line_id: int) -> None:
        """Write-through update of resident data.

        Each fault's masking state toggles independently with
        ``mask_flip_probability`` (the store changed the bit at the
        faulty position); soft errors are overwritten.
        """
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        start = offsets[line_id]
        stop = offsets[line_id + 1]
        if start == stop:
            # No active faults: nothing persists and the overwrite
            # drops any accumulated soft errors.
            self.store_row(line_id, 0)
            return
        positions = self._act_positions[start:stop].tolist()
        draws = self.rng.random(len(positions)).tolist()
        flip = self.mask_flip_probability
        active = toggles = 0
        for position, draw in zip(positions, draws):
            bit = 1 << position
            active |= bit
            if draw < flip:
                toggles |= bit
        # Soft errors are overwritten; toggled faults flip masking.
        self.store_row(line_id, (self._rows[line_id] & active) ^ toggles)

    def _check_offset(self, offset: int) -> int:
        offset = int(offset)
        if not 0 <= offset < self.layout.total_bits:
            raise IndexError(f"offset {offset} outside the line layout")
        return offset

    def set_effective(self, line_id: int, offsets) -> None:
        """Directly install an effective error vector (testing hook).

        Used by the cross-validation tests to mirror a bit-accurate
        data path's observed error vector into the sparse model.
        """
        row = 0
        for offset in offsets:
            row |= 1 << self._check_offset(offset)
        self.store_row(line_id, row)

    def add_soft_error(self, line_id: int, offsets) -> None:
        """XOR transient bit flips into the line's error vector."""
        row = self._rows[line_id]
        for offset in offsets:
            row ^= 1 << self._check_offset(offset)
        self.store_row(line_id, row)

    def clear(self, line_id: int) -> None:
        """Forget the line's error state (invalidation)."""
        self.store_row(line_id, 0)

    def clear_all(self) -> None:
        """Forget every line's error state (reset)."""
        # In place: the batched interpreter holds the list.
        self._rows[:] = [0] * len(self._rows)
        self._signal_cache.clear()

    # -- signal computation -------------------------------------------------

    def error_positions(self, line_id: int) -> frozenset:
        """The current effective error vector (LV offsets)."""
        return frozenset(_offsets_of(self._rows[line_id]))

    def error_rows(self) -> list:
        """``[line, [offsets…]]`` of every line with a non-empty error
        vector, by line: a representation-independent snapshot."""
        return [
            [line, _offsets_of(row)] for line, row in enumerate(self._rows) if row
        ]

    def signals(self, line_id: int, n_segments: int, use_ecc: bool) -> Signals:
        """Controller-visible signals for a read of ``line_id``.

        ``n_segments`` selects the parity configuration in use (16
        during training, 4 afterwards); ``use_ecc`` is False for DFH
        b'00 lines whose ECC-cache entry has been freed.
        """
        row = self._rows[line_id]
        if not row:
            return _CLEAN
        per_line = self._signal_cache.setdefault(line_id, {})
        key = (n_segments, use_ecc)
        cached = per_line.get(key)
        if cached is not None:
            return cached
        signals = Signals(*self.kernel.signals_row(row, n_segments, use_ecc))
        per_line[key] = signals
        return signals

    def observable_fault_positions(self, line_id: int) -> set:
        """All positions the inverted-write flow observes.

        Reading both the original and the inverted image exposes every
        active fault (a stuck cell disagrees with exactly one
        polarity) in addition to whatever soft errors are present.
        """
        positions = set(_offsets_of(self._rows[line_id]))
        positions.update(self._active_positions(line_id))
        return positions

    def signals_for_positions(
        self, effective, n_segments: int, use_ecc: bool
    ) -> Signals:
        """Signals produced by an explicit error vector.

        This is the scalar reference implementation — it walks the
        sparse offset set one position at a time.  The int-row path
        (:meth:`signals`, and ``LineSignalKernel.signals_row`` on any
        row) is pinned bit-identical to it by the equivalence tests.
        """
        if not effective:
            return _CLEAN
        layout = self.layout

        # Segmented parity: a segment mismatches iff an odd number of
        # its bits (data members + its own parity bit) flipped.
        segment_flips = {}
        data_errors = 0
        codeword_flips = []
        segment_width = layout.data_bits // n_segments
        for offset in effective:
            if layout.is_data(offset):
                if self.interleaved_parity:
                    segment = offset % n_segments
                else:
                    segment = offset // segment_width
                segment_flips[segment] = segment_flips.get(segment, 0) + 1
                data_errors += 1
                codeword_flips.append(offset)
            elif layout.is_parity(offset):
                index = layout.parity_index(offset)
                if index < n_segments:
                    segment_flips[index] = segment_flips.get(index, 0) + 1
            else:  # checkbit region
                if use_ecc:
                    codeword_flips.append(layout.codeword_position(offset))
        sp_mismatches = sum(1 for count in segment_flips.values() if count & 1)

        if not use_ecc:
            return Signals(sp_mismatches, True, True, data_errors)
        syndrome = self._secded.syndrome_of_error_positions(codeword_flips)
        global_parity_ok = (len(codeword_flips) & 1) == 0
        return Signals(sp_mismatches, syndrome == 0, global_parity_ok, data_errors)

    def correction_is_sound(self, line_id: int, use_ecc: bool = True) -> bool:
        """Would SECDED's single-error correction restore the true data?

        True iff the codeword error vector has weight exactly one (the
        decoder then flips precisely that bit).  When the controller
        issues CORRECT_AND_SEND on a heavier vector the result is a
        silent data corruption, which the harness counts.
        """
        return self.row_correction_is_sound(self._rows[line_id], use_ecc)

    def row_correction_is_sound(self, row: int, use_ecc: bool = True) -> bool:
        """:meth:`correction_is_sound` for an explicit int row."""
        kernel = self.kernel
        mask = kernel.codeword_mask_int if use_ecc else kernel.data_mask_int
        if (row & mask).bit_count() == 1:
            return True
        # Heavier vectors: sound only if no *data* bit is wrong after
        # the decoder's (mis)correction; conservatively require that
        # no data bits are flipped at all.
        return not row & kernel.data_mask_int

    def has_data_errors(self, line_id: int) -> bool:
        """Ground truth: does the line currently return corrupt data bits?"""
        return self.row_has_data_errors(self._rows[line_id])

    def row_has_data_errors(self, row: int) -> bool:
        """:meth:`has_data_errors` for an explicit int row."""
        return (row & self.kernel.data_mask_int) != 0
