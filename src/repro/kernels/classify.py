"""Table-2 signal evaluation over error vectors, by signature fold.

Every Killi signal is linear in the error vector, so flipping LV offset
``o`` (in the data | parity | checkbits space of
:class:`repro.core.layout.LineLayout`) XORs a fixed *signature* into
the signal state: its parity-segment membership, its SECDED syndrome
column and its codeword membership (whose fold is the global-parity
mismatch).  This module precomputes, once per line layout, that
per-offset signature table, plus the data and codeword masks (as
Python ints) for ground-truth corrupt-bit and codeword-fault counting.

Two evaluators fold the table: :meth:`LineSignalKernel.signals_row`
over one line's error row held as a Python int (the simulator's hot
path), and :meth:`LineSignalKernel.signals_from_offsets` over a whole
matrix of fault patterns given as offset lists (the Monte-Carlo
sampler), with no per-pattern Python.  The scalar implementations
(:meth:`repro.core.linestate.LineErrorModel.signals_for_positions`,
:meth:`repro.analysis.montecarlo.CoverageSampler._classify_ok`) are
kept as the pinned references; the equivalence tests in
``tests/ecc/test_batch_kernels.py`` and ``tests/core/test_linestate.py``
hold them bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.layout import LineLayout
from repro.ecc.secded import SecDedCode
from repro.utils.bitpack import popcount64

__all__ = ["LineSignalKernel", "RowSignals"]


class RowSignals(NamedTuple):
    """Controller-visible signals of one error row (plain scalars)."""

    sp_mismatches: int
    syndrome_zero: bool
    global_parity_ok: bool
    data_error_bits: int


class LineSignalKernel:
    """Precomputed signature table + signal evaluation for one layout.

    Parameters
    ----------
    layout:
        LV bit layout of a protected line.
    secded:
        The SECDED instance whose column codes define the syndrome
        signatures; constructed for ``layout.data_bits`` when omitted.
    interleaved:
        Data-bit-to-segment mapping: ``offset % n_segments`` when True
        (the paper's interleaving), ``offset // segment_width``
        otherwise.  Mirrors ``LineErrorModel.interleaved_parity``.
    """

    def __init__(
        self,
        layout: LineLayout | None = None,
        secded: SecDedCode | None = None,
        interleaved: bool = True,
    ):
        self.layout = layout if layout is not None else LineLayout()
        self.secded = (
            secded if secded is not None else SecDedCode(self.layout.data_bits)
        )
        if self.secded.k != self.layout.data_bits:
            raise ValueError("SECDED data width does not match the layout")
        self.interleaved = interleaved
        self._signature_tables: dict[int, np.ndarray] = {}
        self._signature_ints: dict[int, list[int]] = {}
        # Masks as Python ints (bit o = LV offset o), for the int error
        # rows of :class:`repro.core.linestate.LineErrorModel`: the data
        # bits, and the codeword (data + all checkbits).
        layout = self.layout
        self.data_mask_int = (1 << layout.data_bits) - 1
        self.codeword_mask_int = self.data_mask_int | (
            ((1 << (layout.total_bits - layout.check_offset)) - 1)
            << layout.check_offset
        )

    # -- signature tables ------------------------------------------------------

    def _signature_int_table(self, n_segments: int) -> list[int]:
        """The :meth:`signature_table` as a plain Python ``int`` list."""
        cached = self._signature_ints.get(n_segments)
        if cached is None:
            cached = [int(s) for s in self.signature_table(n_segments)]
            self._signature_ints[n_segments] = cached
        return cached

    def signature_table(self, n_segments: int) -> np.ndarray:
        """Per-LV-offset signal signature, one uint64 per offset.

        Because every signal is a parity, flipping offset ``o`` XORs a
        fixed *signature* into the signal state.  The signature packs,
        per offset: its segment membership bit (``[0, n_segments)``),
        its syndrome column code (``[n_segments, n_segments + r)``) and
        its codeword-membership bit (``n_segments + r``, whose fold is
        the global-parity mismatch).  XOR-folding the table over an
        offset set yields every parity-style signal in one word.
        """
        cached = self._signature_tables.get(n_segments)
        if cached is not None:
            return cached
        layout = self.layout
        r = self.secded.r
        if n_segments + r + 1 > 64:
            raise ValueError("signature does not fit in 64 bits")
        synd_shift = n_segments
        codeword_bit = 1 << (n_segments + r)
        table = np.zeros(layout.total_bits, dtype=np.uint64)
        codes = self.secded.column_codes
        for offset in range(layout.total_bits):
            signature = 0
            if layout.is_data(offset):
                if self.interleaved:
                    segment = offset % n_segments
                else:
                    segment = offset // (layout.data_bits // n_segments)
                signature |= 1 << segment
                signature |= int(codes[offset]) << synd_shift
                signature |= codeword_bit
            elif layout.is_parity(offset):
                index = layout.parity_index(offset)
                if index < n_segments:
                    signature |= 1 << index
            else:
                position = layout.codeword_position(offset)
                if position < self.secded.n - 1:
                    signature |= int(codes[position]) << synd_shift
                signature |= codeword_bit
            table[offset] = signature
        self._signature_tables[n_segments] = table
        return table

    # -- evaluation -------------------------------------------------------------

    def codeword_weights_from_offsets(
        self, offsets: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Codeword fault count per row of an ``(n, k)`` offset matrix."""
        layout = self.layout
        in_parity = (offsets >= layout.parity_offset) & (
            offsets < layout.check_offset
        )
        return (valid & ~in_parity).sum(axis=1, dtype=np.int64)

    def signals_from_offsets(
        self,
        offsets: np.ndarray,
        valid: np.ndarray,
        n_segments: int,
        use_ecc: bool = True,
    ):
        """Table-2 signals for patterns given as offset lists.

        ``offsets`` is ``(n, k_max)`` with per-row validity mask
        ``valid`` (invalid entries must still index the table — use 0).
        One gather + XOR-fold of the :meth:`signature_table`, pinned
        against the scalar reference.  Returns ``(sp_mismatches,
        syndrome_zero, global_parity_ok, data_error_bits)`` as aligned
        arrays; without ECC the syndrome is reported zero and the
        parity ok, exactly like the scalar path for DFH b'00 lines.
        """
        table = self.signature_table(n_segments)
        contributions = np.where(valid, table[offsets], np.uint64(0))
        folded = np.bitwise_xor.reduce(contributions, axis=1)
        seg_field = np.uint64((1 << n_segments) - 1)
        sp = popcount64(folded & seg_field).astype(np.int64)
        data_errors = (valid & (offsets < self.layout.data_bits)).sum(
            axis=1, dtype=np.int64
        )
        if not use_ecc:
            ones = np.ones(len(sp), dtype=bool)
            return sp, ones, ones.copy(), data_errors
        r = self.secded.r
        synd_field = np.uint64(((1 << r) - 1) << n_segments)
        syndrome_zero = (folded & synd_field) == 0
        parity_ok = (folded & np.uint64(1 << (n_segments + r))) == 0
        return sp, syndrome_zero, parity_ok, data_errors

    def signals_row(
        self, row: int, n_segments: int, use_ecc: bool = True
    ) -> RowSignals:
        """Signals of one int error row via the signature-table fold.

        ``row`` has bit ``o`` set for each flipped LV offset ``o``.  A
        line access sees a handful of flipped bits, so iterating the
        set bits and XOR-folding their signatures beats any per-mask
        numpy pass (whose per-call overhead dwarfs the 539-bit payload).
        """
        table = self._signature_int_table(n_segments)
        data_errors = (row & self.data_mask_int).bit_count()
        folded = 0
        while row:
            low = row & -row
            folded ^= table[low.bit_length() - 1]
            row ^= low
        sp = (folded & ((1 << n_segments) - 1)).bit_count()
        if not use_ecc:
            return RowSignals(sp, True, True, data_errors)
        r = self.secded.r
        syndrome_zero = ((folded >> n_segments) & ((1 << r) - 1)) == 0
        parity_ok = ((folded >> (n_segments + r)) & 1) == 0
        return RowSignals(sp, syndrome_zero, parity_ok, data_errors)
