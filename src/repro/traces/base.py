"""Trace containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["CuStream", "Trace"]


@dataclass
class CuStream:
    """One CU's in-order memory stream.

    Streams are read-only once built (the engines never mutate them),
    so the normalised access columns both inner-loop families need —
    plain-int/bool Python lists for the per-access loops, int64/bool
    numpy arrays plus the summed compute gap for the batched stages — are
    built once on first use and cached on the stream.  Every engine
    then reads the *same* normalised values instead of re-deriving
    them per ``run``, which pins the conversions bit-identical by
    construction.  The L1 pre-filter additionally memoizes its pure
    outputs here (``_l1_filter_cache``, managed by
    :mod:`repro.gpu.l1filter`): campaign cells replaying the same
    stream through a fresh L1 reuse the filtered residue and commit
    record instead of re-simulating it.  ``_trace_streams``, set by
    :class:`Trace`, links a stream to its trace's streams, so the
    filter can run all of them in one kernel call.

    Attributes
    ----------
    addrs:
        Byte addresses (int64), one per memory operation.
    is_store:
        True for stores.
    gaps:
        Compute cycles (and, one-for-one, non-memory instructions)
        executed before each memory operation.
    """

    addrs: np.ndarray
    is_store: np.ndarray
    gaps: np.ndarray
    _scalar_cols: Optional[Tuple[list, list, list]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _array_cols: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _l1_filter_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _trace_streams: Optional[list] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (len(self.addrs) == len(self.is_store) == len(self.gaps)):
            raise ValueError("stream arrays must have equal length")

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def instructions(self) -> int:
        """Instructions this stream represents: gaps + memory ops."""
        return int(np.sum(self.gaps)) + len(self.addrs)

    def scalar_columns(self) -> Tuple[list, list, list]:
        """``(addrs, is_store, gaps)`` as plain Python lists, cached.

        The same values as ``int``/``bool`` per element, from one
        ``tolist`` per column.
        """
        cols = self._scalar_cols
        if cols is None:
            addr_np, store_np, _ = self.array_columns()
            cols = (
                addr_np.tolist(),
                store_np.tolist(),
                np.asarray(self.gaps, dtype=np.int64).tolist(),
            )
            self._scalar_cols = cols
        return cols

    def array_columns(self):
        """``(addrs int64, is_store bool, gap_total int)``, cached.

        The batched stages' canonical view: numpy columns
        plus the closed-form summed compute gap.
        """
        cols = self._array_cols
        if cols is None:
            addr_np = np.asarray(self.addrs, dtype=np.int64)
            store_np = np.asarray(self.is_store, dtype=bool)
            cols = (
                addr_np,
                store_np,
                int(np.sum(np.asarray(self.gaps, dtype=np.int64))),
            )
            self._array_cols = cols
        return cols


@dataclass
class Trace:
    """A kernel's traffic: one stream per CU."""

    name: str
    streams: List[CuStream]

    def __post_init__(self):
        for stream in self.streams:
            stream._trace_streams = self.streams

    @property
    def total_accesses(self) -> int:
        return sum(len(s) for s in self.streams)

    @property
    def instructions(self) -> int:
        return sum(s.instructions for s in self.streams)
