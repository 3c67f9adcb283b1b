"""Persistent stuck-at fault maps over a cache geometry.

LV SRAM failures are *persistent*: for a fixed voltage and frequency
they affect the same cells on every access, and they are *monotonic*
in voltage (a cell failing at V fails at every V' < V).  The paper
leans on both properties — Killi only needs to discover each line's
faults once per voltage.

This module reproduces both properties by construction.  Each faulty
cell is assigned a *failure threshold* ``u`` drawn uniformly from
``(0, p_floor)`` where ``p_floor = Pcell(floor_voltage)``; the cell is
faulty at voltage ``V`` iff ``u < Pcell(V)``.  Because ``Pcell`` is
monotonically decreasing in voltage, fault sets shrink monotonically
as voltage rises, exactly as in the silicon measurements.

A faulty cell is *stuck at* a fixed value (0 or 1, equally likely).
Writing the stuck value into the cell yields a **masked fault** — the
paper's Section 4.3/5.6.2 scenario — with no modelling effort: reading
back simply returns the written data until a later write unmasks it.

The line layout mirrors Killi's LV-resident bits::

    [ data (512) | parity (16) | ECC checkbits (11) ]

Which ranges actually sit in LV SRAM depends on the scheme (Killi
keeps 4 parity bits in the cache and the rest in the ECC cache); the
map exposes region-windowed queries so each scheme models its own
layout.
"""

from __future__ import annotations

import numpy as np

from repro.faults.cell_model import CellFaultModel, FaultMechanism

__all__ = ["FLOOR_VOLTAGE", "FaultMap"]

#: Lowest voltage a default :class:`FaultMap` supports — the paper's
#: lowest evaluated point (Table 7).  Every experiment cell builds its
#: map with this floor, so scenario validation rejects lower voltages.
FLOOR_VOLTAGE = 0.575


class FaultMap:
    """Sampled persistent fault map for ``n_lines`` lines.

    Parameters
    ----------
    n_lines:
        Number of physical lines covered (e.g. 32768 for a 2MB/64B L2).
    line_bits:
        LV bits per line (539 for data+parity+checkbits).
    cell_model:
        Pcell(V, f) model; defaults to the calibrated paper model.
    freq_ghz:
        Operating frequency.
    floor_voltage:
        Lowest voltage the map supports; faults are pre-sampled at
        ``Pcell(floor_voltage)`` and thinned for higher voltages.
    rng:
        numpy Generator for sampling (deterministic maps come from
        :class:`repro.utils.RngFactory` streams).
    mechanism:
        Failure mechanism to sample (combined by default).
    """

    def __init__(
        self,
        n_lines: int,
        line_bits: int = 539,
        cell_model: CellFaultModel | None = None,
        freq_ghz: float = 1.0,
        floor_voltage: float = FLOOR_VOLTAGE,
        rng: np.random.Generator | None = None,
        mechanism: FaultMechanism = FaultMechanism.COMBINED,
    ):
        if n_lines < 1 or line_bits < 1:
            raise ValueError("n_lines and line_bits must be positive")
        self.n_lines = n_lines
        self.line_bits = line_bits
        self.cell_model = cell_model if cell_model is not None else CellFaultModel()
        self.freq_ghz = freq_ghz
        self.floor_voltage = floor_voltage
        self.mechanism = mechanism
        rng = rng if rng is not None else np.random.default_rng(0)

        self.p_floor = self.cell_model.p_cell(floor_voltage, freq_ghz, mechanism)
        # Enumerate the iid Bernoulli(p_floor) cell field's successes
        # directly: gaps between consecutive faulty cells in such a
        # field are iid Geometric(p_floor), so the faulty cell indices
        # are a cumulative sum of geometric draws — O(#faults) work
        # instead of one random float per cell, and distributionally
        # identical to materialising the whole field.  Storage is
        # CSR-style: positions / thresholds / stuck values concatenated
        # in line order, with per-line offsets.
        n_cells = n_lines * line_bits
        parts = []
        if self.p_floor > 0.0:
            expect = int(n_cells * self.p_floor)
            batch = min(max(1024, expect + (expect >> 2) + 128), 1 << 22)
            last = 0
            while True:
                cells = np.cumsum(rng.geometric(self.p_floor, size=batch))
                cells += last
                if cells[-1] >= n_cells:
                    parts.append(cells[cells <= n_cells])
                    break
                parts.append(cells)
                last = int(cells[-1])
        flat = (
            np.concatenate(parts) - 1
            if parts
            else np.empty(0, dtype=np.int64)
        )
        lines_of = flat // line_bits
        total = flat.size
        self._set_csr(
            (flat % line_bits).astype(np.intp),
            rng.uniform(0.0, self.p_floor, size=total),
            rng.integers(0, 2, size=total, dtype=np.uint8),
            lines_of.astype(np.intp),
            np.bincount(lines_of, minlength=n_lines),
        )

    def _set_csr(
        self,
        positions: np.ndarray,
        thresholds: np.ndarray,
        values: np.ndarray,
        line_of: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Install the concatenated fault arrays (line-ordered)."""
        self._positions = positions
        self._thresholds = thresholds
        self._values = values
        self._line_of = line_of
        # Plain-int offsets: the hot scalar lookups (has_faults,
        # line_faults) index this per access.
        self._offsets = [0] * (self.n_lines + 1)
        np.cumsum(counts, out=counts)
        self._offsets[1:] = counts.tolist()
        # voltage -> active-threshold mask over the whole map (one
        # vectorized compare, shared by every line query).
        self._active_vcache: dict = {}
        # (voltage, start, stop) -> read-only per-line fault counts.
        self._counts_vcache: dict = {}
        # voltage -> (offsets, positions, values) of the *active* fault
        # subset, line-ordered — per-line queries are two plain slices.
        self._csr_vcache: dict = {}

    def _active_at(self, voltage: float) -> np.ndarray:
        """Bulk mask: which of the map's faults are active at ``voltage``."""
        mask = self._active_vcache.get(voltage)
        if mask is None:
            self._check_voltage(voltage)
            mask = self._thresholds < self.p_cell(voltage)
            self._active_vcache[voltage] = mask
        return mask

    def _active_csr(self, voltage: float):
        """CSR view (offsets, positions, values) of the active faults."""
        csr = self._csr_vcache.get(voltage)
        if csr is None:
            active = self._active_at(voltage)
            counts = np.bincount(
                self._line_of[active], minlength=self.n_lines
            )
            offsets = [0] * (self.n_lines + 1)
            np.cumsum(counts, out=counts)
            offsets[1:] = counts.tolist()
            csr = (offsets, self._positions[active], self._values[active])
            self._csr_vcache[voltage] = csr
        return csr

    @classmethod
    def from_faults(
        cls,
        n_lines: int,
        faults: dict,
        line_bits: int = 539,
        floor_voltage: float = 0.5,
    ) -> "FaultMap":
        """Build a map with explicit stuck-at faults.

        ``faults`` maps line -> iterable of (position, stuck_value).
        The faults are active at every supported voltage.  Used for
        directed tests and fault-injection studies.
        """
        fault_map = cls(
            n_lines=n_lines,
            line_bits=line_bits,
            floor_voltage=floor_voltage,
            rng=np.random.default_rng(0),
        )
        pos_parts, val_parts, line_parts = [], [], []
        counts = np.zeros(n_lines, dtype=np.int64)
        for line, entries in sorted(
            (int(line), list(entries)) for line, entries in faults.items()
        ):
            if not entries:
                continue
            positions = np.array([p for p, _ in entries], dtype=np.intp)
            order = np.argsort(positions)
            pos_parts.append(positions[order])
            val_parts.append(
                np.array([v for _, v in entries], dtype=np.uint8)[order]
            )
            line_parts.append(np.full(len(entries), line, dtype=np.intp))
            counts[line] = len(entries)
        total = int(counts.sum())
        fault_map._set_csr(
            np.concatenate(pos_parts) if total else np.empty(0, dtype=np.intp),
            np.zeros(total),  # thresholds 0: active everywhere
            np.concatenate(val_parts) if total else np.empty(0, dtype=np.uint8),
            np.concatenate(line_parts) if total else np.empty(0, dtype=np.intp),
            counts,
        )
        return fault_map

    def p_cell(self, voltage: float) -> float:
        """Per-cell failure probability at ``voltage`` for this map."""
        return self.cell_model.p_cell(voltage, self.freq_ghz, self.mechanism)

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.n_lines:
            raise IndexError(f"line {line} out of range [0, {self.n_lines})")

    def _check_voltage(self, voltage: float) -> None:
        if voltage < self.floor_voltage:
            raise ValueError(
                f"voltage {voltage} below map floor {self.floor_voltage}"
            )

    def has_faults(self, line: int) -> bool:
        """Fast check: any faults at all (at the map's floor voltage)?

        A False here guarantees the line is fault-free at every
        supported voltage (fault sets shrink as voltage rises).
        """
        offsets = self._offsets
        return 0 <= line < self.n_lines and offsets[line] != offsets[line + 1]

    def line_faults(self, line: int, voltage: float):
        """(positions, stuck_values) active in ``line`` at ``voltage``."""
        self._check_line(line)
        offsets, positions, values = self._active_csr(voltage)
        start, stop = offsets[line], offsets[line + 1]
        return positions[start:stop], values[start:stop]

    def fault_count(self, line: int, voltage: float, start: int = 0, stop: int | None = None) -> int:
        """Number of active faults in ``line`` within ``[start, stop)``."""
        positions, _ = self.line_faults(line, voltage)
        if stop is None:
            stop = self.line_bits
        return int(np.count_nonzero((positions >= start) & (positions < stop)))

    def fault_counts(
        self, voltage: float, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Per-line active-fault counts within ``[start, stop)``, bulk.

        One vectorized pass over the whole map — the batched equivalent
        of calling :meth:`fault_count` for every line, for consumers
        that characterise the full population up front (the MBIST
        oracle schemes, the Figure 2 histogram).  Memoised per
        ``(voltage, start, stop)``, because every oracle cell of one
        map and voltage asks for the same windows; the array is shared
        between callers, so it is read-only.
        """
        if stop is None:
            stop = self.line_bits
        key = (voltage, start, stop)
        counts = self._counts_vcache.get(key)
        if counts is None:
            self._check_voltage(voltage)
            window = (
                self._active_at(voltage)
                & (self._positions >= start)
                & (self._positions < stop)
            )
            counts = np.bincount(self._line_of[window], minlength=self.n_lines)
            counts.flags.writeable = False
            self._counts_vcache[key] = counts
        return counts

    def apply(self, line: int, voltage: float, bits: np.ndarray, offset: int = 0) -> np.ndarray:
        """Return ``bits`` as read back through the faulty cells.

        ``bits`` occupies the window ``[offset, offset + len(bits))`` of
        the line's LV layout; each active faulty cell in the window
        reads as its stuck value regardless of what was written.
        """
        self._check_line(line)
        positions, values = self.line_faults(line, voltage)
        window = (positions >= offset) & (positions < offset + len(bits))
        if not window.any():
            return bits
        out = bits.copy()
        out[positions[window] - offset] = values[window]
        return out

    def is_fault_free(self, line: int, voltage: float) -> bool:
        """True iff the line has no active faults at ``voltage``."""
        positions, _ = self.line_faults(line, voltage)
        return len(positions) == 0

    def fault_count_histogram(self, voltage: float, start: int = 0, stop: int | None = None) -> dict:
        """Map fault-count -> number of lines (empirical Figure 2)."""
        per_line = self.fault_counts(voltage, start, stop)
        values, counts = np.unique(per_line, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


_EMPTY_POSITIONS = np.empty(0, dtype=np.intp)
_EMPTY_VALUES = np.empty(0, dtype=np.uint8)
