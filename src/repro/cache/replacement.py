"""Replacement policy state: the shared per-set LRU interface.

Both substrates' recency tracking lives here behind one
:class:`ReplacementPolicy` contract — :class:`LruState` (recency
lists, the object-substrate reference) and :class:`SoaLruState`
(integer ages, the flat fast path; order-equivalent by construction).
The *victim choice* lives in :meth:`repro.cache.core.CacheModel._choose_victim`,
because Killi's modified policy (paper Section 4.4) needs scheme
knowledge: it prioritises invalid lines by DFH state (b'01 > b'00 >
b'10) and never selects disabled ways.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["ReplacementPolicy", "LruState", "SoaLruState"]


class ReplacementPolicy:
    """Per-set recency state every substrate's LRU implements.

    The contract the cache model and the batched kernels rely on:

    - ``touch(set_index, way)`` — move ``way`` to the MRU position;
    - ``demote(set_index, way)`` — move ``way`` to the LRU position
      (after an invalidation);
    - ``recency_order(set_index)`` — the ways MRU-first (read-only);
    - ``lru_way(set_index)`` — the LRU way;
    - ``lru_choice(set_index, eligible)`` — the LRU way among
      ``eligible``, or None when ``eligible`` is empty.

    Implementations must induce *identical* recency orders for
    identical touch/demote histories — the bit-identity contract
    between substrates rests on it.
    """

    def touch(self, set_index: int, way: int) -> None:
        raise NotImplementedError

    def demote(self, set_index: int, way: int) -> None:
        raise NotImplementedError

    def recency_order(self, set_index: int) -> Sequence[int]:
        raise NotImplementedError

    def lru_way(self, set_index: int) -> int:
        raise NotImplementedError

    def lru_choice(self, set_index: int, eligible) -> int | None:
        raise NotImplementedError


class LruState(ReplacementPolicy):
    """LRU recency order for every set of a cache (object substrate).

    Each set holds a list of ways ordered most-recently-used first.
    """

    def __init__(self, n_sets: int, associativity: int):
        if n_sets < 1 or associativity < 1:
            raise ValueError("n_sets and associativity must be positive")
        self.n_sets = n_sets
        self.associativity = associativity
        self._order: List[List[int]] = [
            list(range(associativity)) for _ in range(n_sets)
        ]

    def touch(self, set_index: int, way: int) -> None:
        """Move ``way`` to the MRU position of its set."""
        order = self._order[set_index]
        order.remove(way)
        order.insert(0, way)

    def demote(self, set_index: int, way: int) -> None:
        """Move ``way`` to the LRU position (used after invalidation)."""
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def recency_order(self, set_index: int) -> Sequence[int]:
        """Ways of a set, most-recently-used first (read-only view)."""
        return tuple(self._order[set_index])

    def lru_way(self, set_index: int) -> int:
        """The least-recently-used way of a set (O(1))."""
        return self._order[set_index][-1]

    def lru_choice(self, set_index: int, eligible) -> int | None:
        """Least-recently-used way among ``eligible`` (a container of ways)."""
        for way in reversed(self._order[set_index]):
            if way in eligible:
                return way
        return None


class SoaLruState(ReplacementPolicy):
    """Integer-age LRU, order-equivalent to the list-based ``LruState``.

    ``age[set, way]`` holds the last-touch stamp; per-set clocks only
    grow and per-set floors only shrink, so ages within a set are
    always pairwise distinct and "most recently used" is simply the
    descending-age order.  ``touch`` == move-to-front, ``demote`` ==
    move-to-back, and the initial ages ``0, -1, ..., -(w-1)`` replicate
    the list substrate's initial order ``[0, 1, ..., w-1]``.
    """

    def __init__(self, n_sets: int, associativity: int):
        if n_sets < 1 or associativity < 1:
            raise ValueError("n_sets and associativity must be positive")
        self.n_sets = n_sets
        self.associativity = associativity
        # Flat per-slot ages (set * associativity + way) and per-set
        # clocks: int64 arrays the lockstep kernel reads and ``restamp``
        # writes in place.  Scalar code goes through memoryviews, whose
        # plain-int stores and loads cost 28 and 31 ns against a list's
        # 25 and 22 ns and numpy indexing's 47 and 53 (2-vCPU x86_64).
        self._age_np = np.tile(
            np.arange(0, -associativity, -1, dtype=np.int64), n_sets
        )
        self.age = memoryview(self._age_np)
        self._clock_np = np.ones(n_sets, dtype=np.int64)
        self._clock = memoryview(self._clock_np)
        self._floor = [-associativity] * n_sets

    def touch(self, set_index: int, way: int) -> None:
        """Move ``way`` to the MRU position of its set."""
        self.age[set_index * self.associativity + way] = self._clock[set_index]
        self._clock[set_index] += 1

    def demote(self, set_index: int, way: int) -> None:
        """Move ``way`` to the LRU position (used after invalidation)."""
        self.age[set_index * self.associativity + way] = self._floor[set_index]
        self._floor[set_index] -= 1

    def restamp(self, slots, ages, sets, clocks) -> None:
        """Write back a bulk kernel's touches: the final age of each
        touched flat slot and the final clock of each touched set."""
        self._age_np[slots] = ages
        self._clock_np[sets] = clocks

    def recency_order(self, set_index: int):
        """Ways of a set, most-recently-used first (read-only view)."""
        base = set_index * self.associativity
        row = self.age[base : base + self.associativity]
        return tuple(sorted(range(self.associativity), key=lambda w: -row[w]))

    def lru_way(self, set_index: int) -> int:
        """The least-recently-used way of a set (O(associativity))."""
        base = set_index * self.associativity
        row = self.age[base : base + self.associativity].tolist()
        return row.index(min(row))

    def lru_choice(self, set_index: int, eligible) -> int | None:
        """Least-recently-used way among ``eligible`` (a container of ways)."""
        base = set_index * self.associativity
        row = self.age
        best = None
        best_age = None
        for way in eligible:
            a = row[base + way]
            if best_age is None or a < best_age:
                best_age = a
                best = way
        return best
