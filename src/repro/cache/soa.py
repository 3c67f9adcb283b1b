"""Struct-of-arrays cache substrate.

The object substrate (:mod:`repro.cache.object_store` +
:class:`~repro.cache.replacement.LruState`) keeps one
``CacheLineState`` dataclass per physical line behind per-set tag
dicts and per-set recency lists.  That is the reference
implementation, which the scalar engine runs on; this module is the
fast path the batched engine runs on: the same tag-store contract on
flat numpy arrays —

- :class:`SoaTagStore` — valid/tag/disabled/dirty as ``(n_sets,
  associativity)`` arrays plus a single line-number -> way dict for
  O(1) lookups (one integer divide per access instead of a set/tag
  split against a per-set dict);
- :class:`~repro.cache.replacement.SoaLruState` (re-exported here) —
  integer-age LRU, order-equivalent to the list-based
  :class:`~repro.cache.replacement.LruState` under the shared
  :class:`~repro.cache.replacement.ReplacementPolicy` interface.

Both substrates are interchangeable behind any
:class:`~repro.cache.core.CacheModel` (``substrate="object"`` /
``"soa"``, default ``"soa"``); the test suite pins them bit-identical
across schemes, workloads and reset/disable semantics.  The batched
set-replay kernels below address the SoA arrays directly.
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import SoaLruState

__all__ = [
    "SoaLineView",
    "SoaTagStore",
    "SoaLruState",
    "export_set_state",
    "replay_clean_set",
    "bulk_apply_set_replays",
]


class SoaLineView:
    """Dataclass-compatible view of one (set, way) in a :class:`SoaTagStore`.

    Quacks like :class:`~repro.cache.object_store.CacheLineState` for
    readers (``valid``/``tag``/``disabled``/``dirty``); the mutable
    flags (``dirty``, ``disabled``) write through to the arrays and
    keep the store's maintained counters in sync.  ``valid``/``tag``
    are read-only — all code paths mutate those via the store API.
    """

    __slots__ = ("_store", "_set", "_way")

    def __init__(self, store: "SoaTagStore", set_index: int, way: int):
        self._store = store
        self._set = set_index
        self._way = way

    @property
    def valid(self) -> bool:
        return bool(self._store.valid[self._set, self._way])

    @property
    def tag(self) -> int:
        return int(self._store.tag[self._set, self._way])

    @property
    def disabled(self) -> bool:
        return bool(self._store.disabled[self._set, self._way])

    @disabled.setter
    def disabled(self, value: bool) -> None:
        store = self._store
        was = bool(store.disabled[self._set, self._way])
        if was != bool(value):
            store.disabled[self._set, self._way] = bool(value)
            delta = 1 if value else -1
            store._n_disabled += delta
            store.disabled_in_set[self._set] += delta

    @property
    def dirty(self) -> bool:
        return bool(self._store.dirty[self._set, self._way])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._store.dirty[self._set, self._way] = bool(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SoaLineView(set={self._set}, way={self._way}, "
            f"valid={self.valid}, tag={self.tag}, "
            f"disabled={self.disabled}, dirty={self.dirty})"
        )


class SoaTagStore:
    """Tag store for a set-associative cache on flat numpy arrays.

    API-compatible with :class:`~repro.cache.object_store.SetAssocCache`
    (lookup / insert / invalidate / disable / enable / enable_all /
    line / ways_of_set / counters) plus the scalar accessors the
    protected-cache hot path uses (``is_valid`` / ``is_dirty`` /
    ``is_disabled`` / ``tag_at`` / ``set_dirty``).

    The lookup index maps *line numbers* (``addr // line_bytes``) to
    ways: globally unique because each line number belongs to exactly
    one set, and cheaper per access than a per-set (tag -> way) dict
    since it needs a single integer divide.
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        n_sets, assoc = geometry.n_sets, geometry.associativity
        self.valid = np.zeros((n_sets, assoc), dtype=bool)
        self.tag = np.full((n_sets, assoc), -1, dtype=np.int64)
        self.disabled = np.zeros((n_sets, assoc), dtype=bool)
        self.dirty = np.zeros((n_sets, assoc), dtype=bool)
        self._index: dict = {}  # line number -> way
        # Reverse map: resident line number per slot (-1 = invalid),
        # flat list indexed by set * associativity + way.  The hot
        # insert/invalidate/is_valid paths read this instead of doing
        # numpy scalar loads from the arrays.
        self._line_at = [-1] * (n_sets * assoc)
        self._line_bytes = geometry.line_bytes
        self._n_sets = n_sets
        self._assoc = assoc
        self._n_valid = 0
        self._n_disabled = 0
        # Per-set occupancy counters: the victim-selection fast paths
        # (full set -> plain LRU; no disables -> all ways eligible)
        # check these instead of scanning the ways.
        self.valid_in_set = [0] * n_sets
        self.disabled_in_set = [0] * n_sets

    # -- hot-path API ------------------------------------------------------

    def lookup(self, addr: int) -> int | None:
        """Way holding ``addr``, or None on miss (disabled ways never hit)."""
        return self._index.get(addr // self._line_bytes)

    def insert(self, addr: int, way: int) -> None:
        """Fill (set_of(addr), way) with ``addr``'s tag."""
        line_no = addr // self._line_bytes
        set_index = line_no % self._n_sets
        slot = set_index * self._assoc + way
        old = self._line_at[slot]
        if old >= 0:
            self._index.pop(old, None)
        else:
            # Valid lines are never disabled (disable invalidates), so
            # the guard only needs to fire on the invalid branch.
            if self.disabled_in_set[set_index] and self.disabled[set_index, way]:
                raise ValueError("cannot fill a disabled line")
            self._n_valid += 1
            self.valid_in_set[set_index] += 1
            self.valid[set_index, way] = True
        self.dirty[set_index, way] = False
        self.tag[set_index, way] = line_no // self._n_sets
        self._line_at[slot] = line_no
        self._index[line_no] = way

    def invalidate(self, set_index: int, way: int) -> None:
        """Drop the line's contents (tag state only)."""
        slot = set_index * self._assoc + way
        old = self._line_at[slot]
        if old >= 0:
            self._index.pop(old, None)
            self._line_at[slot] = -1
            self._n_valid -= 1
            self.valid_in_set[set_index] -= 1
            self.valid[set_index, way] = False
            self.dirty[set_index, way] = False
            self.tag[set_index, way] = -1

    def disable(self, set_index: int, way: int) -> None:
        """Permanently (until reset) disable a way."""
        self.invalidate(set_index, way)
        if not self.disabled[set_index, way]:
            self.disabled[set_index, way] = True
            self._n_disabled += 1
            self.disabled_in_set[set_index] += 1

    def enable(self, set_index: int, way: int) -> None:
        """Clear one way's disable flag (scrubber reclaim)."""
        if self.disabled[set_index, way]:
            self.disabled[set_index, way] = False
            self._n_disabled -= 1
            self.disabled_in_set[set_index] -= 1

    def enable_all(self) -> None:
        """Clear every disable flag (models a voltage change / DFH reset)."""
        self.disabled[:] = False
        self._n_disabled = 0
        self.disabled_in_set = [0] * self._n_sets

    # -- scalar accessors (hot-path, no view allocation) -------------------

    def is_valid(self, set_index: int, way: int) -> bool:
        return self._line_at[set_index * self._assoc + way] >= 0

    def is_disabled(self, set_index: int, way: int) -> bool:
        return bool(self.disabled[set_index, way])

    def is_dirty(self, set_index: int, way: int) -> bool:
        return bool(self.dirty[set_index, way])

    def set_dirty(self, set_index: int, way: int, value: bool = True) -> None:
        self.dirty[set_index, way] = value

    def tag_at(self, set_index: int, way: int) -> int:
        # -1 // n_sets == -1 for any positive n_sets, so the invalid
        # sentinel passes through unchanged.
        return self._line_at[set_index * self._assoc + way] // self._n_sets

    # -- victim-selection primitives ---------------------------------------

    def enabled_ways(self, set_index: int) -> list:
        """Non-disabled ways of a set, ascending."""
        return np.flatnonzero(~self.disabled[set_index]).tolist()

    def invalid_among(self, set_index: int, ways) -> list:
        """The subset of ``ways`` that is invalid, in the given order."""
        base = set_index * self._assoc
        row = self._line_at[base : base + self._assoc]
        return [way for way in ways if row[way] < 0]

    def first_invalid(self, set_index: int) -> int | None:
        """Lowest-index invalid way of a set, or None if all valid.

        Equivalent to ``invalid_among(set_index, all_ways)[0]`` — the
        victim the uniform-fill-priority fast path picks.
        """
        base = set_index * self._assoc
        line_at = self._line_at
        for way in range(self._assoc):
            if line_at[base + way] < 0:
                return way
        return None

    # -- structural views --------------------------------------------------

    def line(self, set_index: int, way: int) -> SoaLineView:
        """The tag-array state of (set, way)."""
        return SoaLineView(self, set_index, way)

    def ways_of_set(self, set_index: int):
        """All line states of a set (list indexed by way)."""
        return [
            SoaLineView(self, set_index, way)
            for way in range(self.geometry.associativity)
        ]

    # -- counters (maintained incrementally; scans assert in debug) --------

    def count_disabled(self) -> int:
        """Number of disabled lines cache-wide (O(1), counter-maintained)."""
        if __debug__:
            scanned = int(np.count_nonzero(self.disabled))
            assert scanned == self._n_disabled, (
                f"disabled counter {self._n_disabled} != scan {scanned}"
            )
            assert sum(self.disabled_in_set) == self._n_disabled
        return self._n_disabled

    def count_valid(self) -> int:
        """Number of valid lines cache-wide (O(1), counter-maintained)."""
        if __debug__:
            scanned = int(np.count_nonzero(self.valid))
            assert scanned == self._n_valid, (
                f"valid counter {self._n_valid} != scan {scanned}"
            )
            assert sum(self.valid_in_set) == self._n_valid
            assert sum(1 for line in self._line_at if line >= 0) == self._n_valid
        return self._n_valid

    def verify(self) -> None:
        """Full-store consistency check (the ``REPRO_CHECK_INVARIANTS`` scan).

        Cross-checks every redundant representation this store
        maintains: the numpy flag/tag arrays against the flat
        ``_line_at`` reverse map, the lookup ``_index`` against both,
        and the O(1) counters against scans.  Raises
        ``AssertionError`` on the first inconsistency; O(lines), so it
        runs at commit/test granularity, never per access.
        """
        n_sets, assoc = self._n_sets, self._assoc
        scanned_valid = int(np.count_nonzero(self.valid))
        assert scanned_valid == self._n_valid, (
            f"valid counter {self._n_valid} != scan {scanned_valid}"
        )
        scanned_disabled = int(np.count_nonzero(self.disabled))
        assert scanned_disabled == self._n_disabled, (
            f"disabled counter {self._n_disabled} != scan {scanned_disabled}"
        )
        assert len(self._index) == self._n_valid, (
            f"lookup index holds {len(self._index)} lines, "
            f"valid counter says {self._n_valid}"
        )
        assert not np.any(self.valid & self.disabled), (
            "some line is both valid and disabled"
        )
        assert not np.any(self.dirty & ~self.valid), (
            "some invalid line is marked dirty"
        )
        for set_index in range(n_sets):
            base = set_index * assoc
            row = self._line_at[base : base + assoc]
            n_valid_set = sum(1 for line in row if line >= 0)
            assert n_valid_set == self.valid_in_set[set_index], (
                f"set {set_index}: valid_in_set "
                f"{self.valid_in_set[set_index]} != scan {n_valid_set}"
            )
            n_dis_set = int(np.count_nonzero(self.disabled[set_index]))
            assert n_dis_set == self.disabled_in_set[set_index], (
                f"set {set_index}: disabled_in_set "
                f"{self.disabled_in_set[set_index]} != scan {n_dis_set}"
            )
            for way, line in enumerate(row):
                if line >= 0:
                    assert line % n_sets == set_index, (
                        f"line {line} resident in wrong set {set_index}"
                    )
                    assert self._index.get(line) == way, (
                        f"line {line} at set {set_index} way {way} not in "
                        f"(or aliased by) the lookup index"
                    )
                    assert bool(self.valid[set_index, way]), (
                        f"set {set_index} way {way}: _line_at says valid, "
                        "valid array disagrees"
                    )
                    assert int(self.tag[set_index, way]) == line // n_sets, (
                        f"set {set_index} way {way}: tag array "
                        f"{int(self.tag[set_index, way])} != "
                        f"{line // n_sets} from _line_at"
                    )
                else:
                    assert not bool(self.valid[set_index, way]), (
                        f"set {set_index} way {way}: _line_at says invalid, "
                        "valid array disagrees"
                    )


# -- batched set replay kernels ------------------------------------------
#
# The batched engine partitions the L2-bound stream by set and replays
# each *scheme-inert* set's subsequence here instead of one
# ``WriteThroughCache.read``/``write`` call per access.  Clean sets are
# plain set-associative LRU: residency plus recency fully determine
# every hit, miss, fill and eviction, so the replay needs only an
# insertion-ordered dict (oldest entry first == LRU victim) and O(1)
# work per access.  State crosses through the canonical per-set form
# exported below and is written back in bulk, mirroring the L1 filter's
# export/import pattern.


def export_set_state(tags: SoaTagStore, lru: SoaLruState, set_index: int):
    """Canonical replay state of one set: ``(way_lines, seed, free_ways)``.

    ``way_lines[way]`` is the resident line number (-1 invalid),
    ``seed`` the ``(line_no, way)`` pairs of valid ways in LRU -> MRU
    order, ``free_ways`` the invalid *enabled* ways ascending — exactly
    the orders ``first_invalid`` / ``enabled_ways`` + ``lru_way``
    victim selection consumes.  Disabled ways are excluded from
    ``free_ways`` (they may never receive a fill) and are guaranteed
    invalid (``disable`` invalidates first), so they can never appear
    in ``seed`` either.
    """
    assoc = tags._assoc
    base = set_index * assoc
    way_lines = tags._line_at[base : base + assoc]
    if tags.disabled_in_set[set_index]:
        disabled_row = tags.disabled[set_index]
        free_ways = [
            way
            for way in range(assoc)
            if way_lines[way] < 0 and not disabled_row[way]
        ]
    else:
        free_ways = [way for way in range(assoc) if way_lines[way] < 0]
    ages = lru.age[base : base + assoc]
    order = sorted(range(assoc), key=ages.__getitem__)
    seed = [(way_lines[way], way) for way in order if way_lines[way] >= 0]
    return way_lines, seed, free_ways


def replay_clean_set(seed, free_ways, indices, lines, stores, corrected_ways):
    """Exact LRU replay of one scheme-inert set's access subsequence.

    Parameters
    ----------
    seed / free_ways:
        The set's state from :func:`export_set_state`.
    indices:
        The set's positions in the global residue stream, ascending —
        the order the per-access loop would reach them.
    lines / stores:
        Full residue columns (plain lists; indexed by ``indices``).
    corrected_ways:
        The set's replay profile: the frozenset of ways whose read hits
        replay as CORRECTED (+1 cycle, ``corrected_reads``) instead of
        CLEAN — MBIST-oracle schemes serve faulty-but-correctable lines
        this way.  Empty means every hit is CLEAN.

    Returns ``(resident, touch_order, read_hits, write_hits, evictions,
    miss_positions, corrected_positions)``: the final line -> way map
    (insertion-ordered LRU -> MRU), the touched ways in final-recency
    order (replay through ``lru.touch`` to reproduce the substrate's
    ages; untouched ways keep theirs), the stat counts, the global
    positions of the read misses, and the global positions of
    CORRECTED read hits.

    Semantics matched to the per-access path: reads allocate on miss
    (victim = first invalid enabled way, else LRU among resident),
    writes are no-allocate and only touch recency on a hit.
    """
    resident = {}
    n_ways = 0
    for line, way in seed:
        resident[line] = way
        if way >= n_ways:
            n_ways = way + 1
    for way in free_ways:
        if way >= n_ways:
            n_ways = way + 1
    touched = [False] * n_ways
    free_i = 0
    n_free = len(free_ways)
    read_hits = write_hits = evictions = 0
    miss_positions = []
    miss_append = miss_positions.append
    corrected_positions = []
    corrected_append = corrected_positions.append

    get = resident.get
    for i in indices:
        line = lines[i]
        way = get(line)
        if stores[i]:
            if way is not None:
                write_hits += 1
                del resident[line]
                resident[line] = way
                touched[way] = True
        elif way is not None:
            read_hits += 1
            if way in corrected_ways:
                corrected_append(i)
            del resident[line]
            resident[line] = way
            touched[way] = True
        else:
            miss_append(i)
            if free_i < n_free:
                way = free_ways[free_i]
                free_i += 1
            else:
                victim = next(iter(resident))
                way = resident.pop(victim)
                evictions += 1
            resident[line] = way
            touched[way] = True
    touch_order = [way for way in resident.values() if touched[way]]
    return (
        resident,
        touch_order,
        read_hits,
        write_hits,
        evictions,
        miss_positions,
        corrected_positions,
    )


def bulk_apply_set_replays(tags: SoaTagStore, lru: SoaLruState, pending) -> None:
    """Write many replayed sets' final state back in one pass.

    ``pending`` holds ``(set_index, way_lines, resident, touch_order)``
    tuples as produced by :func:`export_set_state` /
    :func:`replay_clean_set`.  Equivalent to calling ``tags.insert`` and
    ``lru.touch`` per changed way, but the numpy-array columns (valid /
    tag / dirty flags) are written with one fancy-indexed assignment
    across *all* sets instead of three scalar stores per fill — the
    scalar stores dominate when thousands of sets apply a handful of
    fills each.  The plain-list columns (``_line_at``, ages) and the
    lookup dict are updated inline; per-set LRU clocks advance exactly
    as ``touch`` would have advanced them.
    """
    assoc = tags._assoc
    n_sets = tags._n_sets
    index = tags._index
    line_at = tags._line_at
    valid_in_set = tags.valid_in_set
    age = lru.age
    clock = lru._clock
    upd_slots: list = []
    upd_lines: list = []
    total_new_valid = 0
    for set_index, way_lines, resident, touch_order in pending:
        base = set_index * assoc
        newly_valid = 0
        for line, way in resident.items():
            old = way_lines[way]
            if old == line:
                continue
            if old >= 0:
                index.pop(old, None)
            else:
                newly_valid += 1
            index[line] = way
            slot = base + way
            line_at[slot] = line
            upd_slots.append(slot)
            upd_lines.append(line)
        if newly_valid:
            total_new_valid += newly_valid
            valid_in_set[set_index] += newly_valid
        stamp = clock[set_index]
        for way in touch_order:
            age[base + way] = stamp
            stamp += 1
        clock[set_index] = stamp
    if upd_slots:
        tags._n_valid += total_new_valid
        slots_np = np.asarray(upd_slots, dtype=np.int64)
        tags.valid.ravel()[slots_np] = True
        tags.tag.ravel()[slots_np] = (
            np.asarray(upd_lines, dtype=np.int64) // n_sets
        )
        tags.dirty.ravel()[slots_np] = False
