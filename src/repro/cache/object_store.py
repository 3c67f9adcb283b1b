"""Set-associative tag store (object substrate).

Holds validity, tags and per-line disable flags; the unified cache
model (:mod:`repro.cache.core`) layers the access protocol and the
protection scheme on top.  This is the pinned reference substrate —
it survives purely so the fast paths have a ground truth to be
cross-checked against; :class:`repro.cache.soa.SoaTagStore` is the
struct-of-arrays fast path with the identical contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry

__all__ = ["CacheLineState", "SetAssocCache"]


@dataclass
class CacheLineState:
    """Tag-array state of one physical line."""

    valid: bool = False
    tag: int = -1
    disabled: bool = False
    dirty: bool = False
    """Modified data (write-back mode only; always False write-through)."""


class SetAssocCache:
    """Tag store for a set-associative cache.

    Purely structural: lookup, insert, invalidate.  Replacement and
    protection policy live in the caller.  ``count_valid`` and
    ``count_disabled`` are counter-maintained (updated incrementally
    on insert/invalidate/disable/enable_all); in debug builds
    each call cross-checks the counter against a full scan.
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._lines = [
            [CacheLineState() for _ in range(geometry.associativity)]
            for _ in range(geometry.n_sets)
        ]
        # Per-set tag -> way index for O(1) lookups.
        self._tag_index = [dict() for _ in range(geometry.n_sets)]
        self._n_valid = 0
        self._n_disabled = 0
        # Per-set occupancy counters: the victim-selection fast paths
        # (full set -> plain LRU; no disables -> all ways eligible)
        # check these instead of scanning the ways.
        self.valid_in_set = [0] * geometry.n_sets
        self.disabled_in_set = [0] * geometry.n_sets

    def lookup(self, addr: int) -> int | None:
        """Way holding ``addr``, or None on miss.

        Disabled ways never hit (a disabled line holds no valid data).
        """
        set_index = self.geometry.set_of(addr)
        tag = self.geometry.tag_of(addr)
        return self._tag_index[set_index].get(tag)

    def insert(self, addr: int, way: int) -> None:
        """Fill (set_of(addr), way) with ``addr``'s tag."""
        set_index = self.geometry.set_of(addr)
        line = self._lines[set_index][way]
        if line.disabled:
            raise ValueError("cannot fill a disabled line")
        index = self._tag_index[set_index]
        if line.valid:
            index.pop(line.tag, None)
        else:
            self._n_valid += 1
            self.valid_in_set[set_index] += 1
        line.valid = True
        line.dirty = False
        line.tag = self.geometry.tag_of(addr)
        index[line.tag] = way

    def invalidate(self, set_index: int, way: int) -> None:
        """Drop the line's contents (tag state only)."""
        line = self._lines[set_index][way]
        if line.valid:
            self._tag_index[set_index].pop(line.tag, None)
            self._n_valid -= 1
            self.valid_in_set[set_index] -= 1
        line.valid = False
        line.dirty = False
        line.tag = -1

    def disable(self, set_index: int, way: int) -> None:
        """Permanently (until reset) disable a way."""
        self.invalidate(set_index, way)
        line = self._lines[set_index][way]
        if not line.disabled:
            line.disabled = True
            self._n_disabled += 1
            self.disabled_in_set[set_index] += 1

    def enable_all(self) -> None:
        """Clear every disable flag (models a voltage change / DFH reset)."""
        for set_lines in self._lines:
            for line in set_lines:
                line.disabled = False
        self._n_disabled = 0
        self.disabled_in_set = [0] * self.geometry.n_sets

    # -- scalar accessors (substrate-generic hot path) ---------------------

    def is_valid(self, set_index: int, way: int) -> bool:
        return self._lines[set_index][way].valid

    def is_disabled(self, set_index: int, way: int) -> bool:
        return self._lines[set_index][way].disabled

    def is_dirty(self, set_index: int, way: int) -> bool:
        return self._lines[set_index][way].dirty

    def set_dirty(self, set_index: int, way: int, value: bool = True) -> None:
        self._lines[set_index][way].dirty = value

    def tag_at(self, set_index: int, way: int) -> int:
        return self._lines[set_index][way].tag

    # -- victim-selection primitives ---------------------------------------

    def enabled_ways(self, set_index: int) -> list:
        """Non-disabled ways of a set, ascending."""
        return [
            way
            for way, line in enumerate(self._lines[set_index])
            if not line.disabled
        ]

    def invalid_among(self, set_index: int, ways) -> list:
        """The subset of ``ways`` that is invalid, in the given order."""
        lines = self._lines[set_index]
        return [way for way in ways if not lines[way].valid]

    def first_invalid(self, set_index: int) -> int | None:
        """Lowest-index invalid way of a set, or None if all valid.

        Equivalent to ``invalid_among(set_index, all_ways)[0]`` — the
        victim the uniform-fill-priority fast path picks.
        """
        for way, line in enumerate(self._lines[set_index]):
            if not line.valid:
                return way
        return None

    # -- counters (maintained incrementally; scans assert in debug) --------

    def count_disabled(self) -> int:
        """Number of disabled lines cache-wide (O(1), counter-maintained)."""
        if __debug__:
            scanned = sum(
                1
                for set_lines in self._lines
                for line in set_lines
                if line.disabled
            )
            assert scanned == self._n_disabled, (
                f"disabled counter {self._n_disabled} != scan {scanned}"
            )
            assert sum(self.disabled_in_set) == self._n_disabled
        return self._n_disabled

    def count_valid(self) -> int:
        """Number of valid lines cache-wide (O(1), counter-maintained)."""
        if __debug__:
            scanned = sum(
                1
                for set_lines in self._lines
                for line in set_lines
                if line.valid
            )
            assert scanned == self._n_valid, (
                f"valid counter {self._n_valid} != scan {scanned}"
            )
            assert sum(self.valid_in_set) == self._n_valid
        return self._n_valid
