"""The ECC cache (paper Section 4.1).

A small set-associative structure holding the error-protection
metadata (11 SECDED checkbits + the 12 non-resident parity bits, 23
bits of payload) for the subset of L2 lines that currently need it —
lines in DFH b'01 (training) or b'10 (one LV fault).

Key properties from the paper:

- indexed by the same physical address as the L2 (we derive the ECC
  set from the low bits of the L2 set index);
- tags hold the *index and way of the protected L2 line* rather than
  the physical address, to reduce area;
- much smaller than the L2 (1:256 .. 1:16 lines), so disjoint L2 sets
  contend for the same ECC set: an ECC eviction orphans — and thus
  forces the invalidation of — an L2 line from an unrelated set;
- replacement is coordinated with the L2: touching a protected L2
  line promotes its ECC entry to MRU (Section 4.4).

This module is purely structural (who is protected, who gets evicted);
the checkbit *values* are implicit in the sparse error-vector model of
:mod:`repro.core.linestate`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["EccCache"]

#: An ECC-cache tag: (L2 set index, L2 way) of the line it protects.
Key = Tuple[int, int]


class EccCache:
    """Set-associative ECC metadata cache with LRU replacement.

    Parameters
    ----------
    n_entries:
        Total entry count (L2 lines / ecc_ratio).
    assoc:
        Associativity (Table 3: 4).
    l2_shape:
        ``(n_l2_sets, l2_assoc)`` of the protected cache.  A flat
        per-L2-line membership mirror is maintained alongside the key
        lists, making :meth:`contains` an O(1) scalar probe instead of
        a key-list scan — every Killi hit, write hit and eviction asks
        it.  The mirror is pure acceleration; the MRU-ordered key lists
        stay authoritative for replacement.
    """

    def __init__(
        self,
        n_entries: int,
        assoc: int = 4,
        *,
        l2_shape: Tuple[int, int],
    ):
        if n_entries < assoc:
            raise ValueError("need at least one full set of entries")
        if n_entries % assoc:
            raise ValueError("n_entries must be divisible by assoc")
        self.n_entries = n_entries
        self.assoc = assoc
        self.n_sets = n_entries // assoc
        # Each set: list of keys, MRU first.  len <= assoc.
        self._sets: List[List[Key]] = [[] for _ in range(self.n_sets)]
        self.allocations = 0
        self.evictions = 0
        self.accesses = 0
        n_l2_sets, l2_assoc = l2_shape
        self._l2_assoc = l2_assoc
        # Scalar reads/writes go through a memoryview: plain-int
        # results at list-indexing speed, with the numpy array
        # retained for vectorized consumers.
        self._member_np = np.zeros(n_l2_sets * l2_assoc, dtype=bool)
        self._member = memoryview(self._member_np)

    def index_of(self, l2_set: int) -> int:
        """ECC set servicing an L2 set (address-derived)."""
        return l2_set % self.n_sets

    def contains(self, l2_set: int, l2_way: int) -> bool:
        """Is (l2_set, l2_way) currently protected?"""
        return self._member[l2_set * self._l2_assoc + l2_way]

    def touch(self, l2_set: int, l2_way: int) -> None:
        """Promote the entry to MRU (coordinated replacement)."""
        self.accesses += 1
        entries = self._sets[l2_set % self.n_sets]
        key = (l2_set, l2_way)
        entries.remove(key)
        entries.insert(0, key)

    def insert(self, l2_set: int, l2_way: int) -> Optional[Key]:
        """Allocate an entry for (l2_set, l2_way); return the evicted key.

        The key must not already be present.  Returns the (l2_set,
        l2_way) whose entry was evicted to make room, or None if a free
        slot existed — the caller must invalidate the evicted L2 line,
        which is now unprotected.
        """
        self.accesses += 1
        entries = self._sets[l2_set % self.n_sets]
        key = (l2_set, l2_way)
        if key in entries:
            raise ValueError(f"ECC entry for {key} already present")
        self.allocations += 1
        evicted = None
        if len(entries) >= self.assoc:
            evicted = entries.pop()
            self.evictions += 1
        entries.insert(0, key)
        assoc = self._l2_assoc
        self._member[l2_set * assoc + l2_way] = True
        if evicted is not None:
            self._member[evicted[0] * assoc + evicted[1]] = False
        return evicted

    def remove(self, l2_set: int, l2_way: int) -> bool:
        """Free the entry for (l2_set, l2_way); True if one existed."""
        slot = l2_set * self._l2_assoc + l2_way
        if not self._member[slot]:
            return False
        self._sets[l2_set % self.n_sets].remove((l2_set, l2_way))
        self._member[slot] = False
        return True

    def clear(self) -> None:
        """Drop every entry (DFH reset)."""
        for entries in self._sets:
            entries.clear()
        self._member_np[:] = False

    @property
    def occupancy(self) -> int:
        """Number of live entries."""
        return sum(len(entries) for entries in self._sets)
