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
engine's lockstep kernel (:func:`lockstep_kernel`) reads the SoA arrays
directly, and :meth:`SoaTagStore.refill` writes its fills back.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import SoaLruState
from repro.cache.stats import CacheStats

__all__ = [
    "SoaTagStore",
    "SoaLruState",
    "LockstepCommit",
    "lockstep_kernel",
]


class SoaTagStore:
    """Tag store for a set-associative cache on flat numpy arrays.

    API-compatible with :class:`~repro.cache.object_store.SetAssocCache`
    (lookup / insert / invalidate / disable / enable_all / counters and
    the per-way accessors ``is_valid`` / ``is_dirty`` / ``is_disabled``
    / ``tag_at`` / ``set_dirty``).

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

    def enable_all(self) -> None:
        """Clear every disable flag (models a voltage change / DFH reset)."""
        self.disabled[:] = False
        self._n_disabled = 0
        self.disabled_in_set = [0] * self._n_sets

    # -- per-way accessors -------------------------------------------------

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

    # -- bulk commit ---------------------------------------------------------

    def refill(self, slots, evicted, filled) -> None:
        """Write back a bulk kernel's fills in one pass.

        Flat slot ``slots[i]`` (``set * associativity + way``) held line
        ``evicted[i]`` (-1: invalid) and now holds ``filled[i]``; each
        slot appears once.  Equivalent to ``invalidate`` + ``insert``
        per slot, but every evicted line leaves the lookup index before
        any fill enters it — one kernel can evict a line from one way
        and refill it into another way of the same set — and the numpy
        columns take one fancy-indexed store each.
        """
        index = self._index
        for line in evicted[evicted >= 0].tolist():
            del index[line]
        filled_list = filled.tolist()
        line_at = self._line_at
        for slot, line in zip(slots.tolist(), filled_list):
            line_at[slot] = line
        index.update(zip(filled_list, (slots % self._assoc).tolist()))
        self.valid.ravel()[slots] = True
        self.tag.ravel()[slots] = filled // self._n_sets
        self.dirty.ravel()[slots] = False
        grown = (slots[evicted < 0] // self._assoc).tolist()
        self._n_valid += len(grown)
        valid_in_set = self.valid_in_set
        for set_index in grown:
            valid_in_set[set_index] += 1

    def sync_columns(self) -> np.ndarray:
        """Re-derive the numpy columns from ``_line_at``.

        A bulk writer — the Killi interpreter's in-place walk — sets
        ``_line_at`` and ``_index`` directly and leaves ``valid`` /
        ``tag`` / ``dirty`` behind.  One
        vectorised pass brings them back: ``valid`` and ``tag`` follow
        ``_line_at``, ``dirty`` clears wherever the resident line
        changed, and the valid count follows ``_index``.  Returns the
        flat slots whose line changed.

        Only write-through caches, which never set ``dirty``, may
        write in bulk: a line evicted and refilled into the same way
        between two syncs keeps its old dirty bit, where ``insert``
        would clear it.
        """
        # -1 // n_sets == -1: the invalid sentinel maps to tag -1.
        tag = np.array(self._line_at, dtype=np.int64) // self._n_sets
        flat_tag = self.tag.reshape(-1)
        changed = np.flatnonzero(tag != flat_tag)
        flat_tag[changed] = tag[changed]
        self.valid.reshape(-1)[changed] = tag[changed] >= 0
        self.dirty.reshape(-1)[changed] = False
        self._n_valid = len(self._index)
        return changed


# -- the lockstep replay kernel --------------------------------------------
#
# The batched engine resolves here every CU's L1 stream (plain LRU
# fill) and the L2-bound residue of every L2 whose scheme is
# MBIST-characterised or fault-free (invalid-preferring fill, fixed
# disabled and CORRECTED ways).  Sets never interact, so each set's
# accesses only need to stay in their own order: step k resolves the
# k-th access of every set that has one, on ``(sets, ways)`` arrays.
# Caches of one geometry step as one, so all CUs' L1s take one call.

#: Victim keys under invalid-preferring fill: a valid way's key is its
#: LRU age; a free enabled way's sorts below every age (lowest index
#: first) and a disabled way's above every age, so one argmin per row
#: is ``_choose_victim``'s pick.  Under LRU fill every way's key is its
#: age, valid or not.
_FREE_KEY = -(1 << 62)
_DISABLED_KEY = 1 << 62

#: Outcome classes of :func:`lockstep_kernel`, one per access: a store
#: miss (posted), a store hit, a clean or CORRECTED read hit, a read miss
#: that fills, and a read miss that bypasses (no enabled way).
STORE_MISS, STORE_HIT, CLEAN_HIT, CORRECTED_HIT, MISS, BYPASS = range(6)
_N_OUTCOMES = 6


class LockstepCommit(NamedTuple):
    """One cache's share of a :func:`lockstep_kernel` run: its stat
    deltas; the touched sets, ascending, with their final LRU clocks;
    the flat slots whose resident line changed, with the line each held
    before (-1: invalid) and holds now; and the flat slots a hit or a
    fill touched, with their final LRU ages."""

    stats: CacheStats
    sets: np.ndarray
    clocks: np.ndarray
    fill_slots: np.ndarray
    evicted: np.ndarray
    filled: np.ndarray
    stamp_slots: np.ndarray
    stamps: np.ndarray


def _stable_argsort(keys, largest: int):
    """Stable argsort of non-negative ``keys`` no larger than ``largest``."""
    return np.argsort(keys.astype(np.min_scalar_type(largest)), kind="stable")


def lockstep_kernel(caches, lines, stores, set_idx, corrected, prefer_invalid: bool):
    """Resolve a stream against plain LRU with fixed way masks.

    ``caches`` is a list of ``(SoaTagStore, SoaLruState)`` pairs of one
    geometry, stepped as one cache: set ``s`` of ``caches[j]`` is joint
    set ``j * n_sets + s``.  ``lines`` / ``stores`` / ``set_idx`` are
    the accesses' line numbers (each in its own cache), store flags and
    joint sets: aligned numpy arrays, each set's accesses in the order
    the per-access path would reach them.  ``corrected`` is the joint
    ``(sets, associativity)`` CORRECTED mask; ``prefer_invalid`` is the
    caches' allocation policy.  Reads nothing but the stores' numpy
    columns, the LRU ages and clocks, and writes nothing.  Returns the
    outcome class of every access, in input order, and one
    :class:`LockstepCommit` per cache for the caller to commit.

    Semantics are the write-through / no-write-allocate per-access
    path's.  Any hit touches its way (age = the set's clock, which then
    advances by one), so ages end equal to the per-access stamps.  A
    read hit is CORRECTED where the mask is set, else CLEAN.  A store
    miss is posted and changes no state.  A read miss under
    invalid-preferring fill fills the first free enabled way, else
    evicts the valid way with the lowest age, and bypasses a set with
    no enabled way.  Under LRU fill it evicts the lowest-age way, valid
    or not; the per-access LRU-fill path never reads the disabled mask,
    so a cache with a disabled way is refused.
    """
    if not prefer_invalid and any(tags._n_disabled for tags, _ in caches):
        raise ValueError(
            "an LRU-fill cache with a disabled way cannot run in lockstep"
        )
    n_caches = len(caches)
    assoc = caches[0][0]._assoc
    n_sets = caches[0][0]._n_sets
    n = len(lines)
    # (rank within set, set) order: both sorts are stable, so each
    # set's accesses keep their order and step k holds every set's
    # k-th access, at most one per set.  Keys narrowed to the smallest
    # unsigned type sort by radix (up to 16 bits), several times
    # faster than int64.
    by_set = _stable_argsort(set_idx, n_caches * n_sets - 1)
    grouped = set_idx[by_set]
    first = np.ones(n, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sets = grouped[starts]
    member = np.cumsum(first) - 1  # index into ``sets``
    rank = np.arange(n) - starts[member]
    by_rank = _stable_argsort(rank, int(rank.max(initial=0)))
    order = by_set[by_rank]
    edges = [0] + np.cumsum(np.bincount(rank)).tolist()
    row = member[by_rank]
    line = lines[order]
    store = stores[order]

    # The touched sets' state: resident lines, victim keys, clocks.
    valid = np.concatenate([tags.valid for tags, _ in caches])[sets]
    disabled = np.concatenate([tags.disabled for tags, _ in caches])[sets]
    tag = np.concatenate([tags.tag for tags, _ in caches])[sets]
    before = np.where(valid, tag * n_sets + (sets % n_sets)[:, None], -1)
    # One pass over the whole age lists beats slicing out the touched
    # sets once most sets are touched, as every real stream does.
    ages = np.concatenate([np.array(lru.age, dtype=np.int64) for _, lru in caches])
    ages = ages.reshape(-1, assoc)[sets]
    keys_before = ages
    if prefer_invalid:
        free = np.where(disabled, _DISABLED_KEY, _FREE_KEY + np.arange(assoc))
        keys_before = np.where(valid, ages, free)
    clocks = np.concatenate([np.array(lru._clock, dtype=np.int64) for _, lru in caches])
    clocks = clocks[sets]
    resident = before.copy()
    keys = keys_before.copy()
    dead = disabled.all(axis=1)[row]  # no enabled way: read misses bypass
    may_fill = ~store & ~dead

    hit = np.empty(n, dtype=bool)
    way = np.empty(n, dtype=np.int64)  # the hit way, where ``hit``
    for a, b in zip(edges[:-1], edges[1:]):
        rows = row[a:b]
        want = line[a:b]
        match = resident[rows] == want[:, None]
        step_hit = match.any(axis=1)
        step_way = match.argmax(axis=1)
        fill = may_fill[a:b] & ~step_hit
        fill_rows = rows[fill]
        victim = keys[fill_rows].argmin(axis=1)
        step_way[fill] = victim
        hit[a:b] = step_hit
        way[a:b] = step_way
        touch = step_hit | fill
        touched_rows = rows[touch]
        keys[touched_rows, step_way[touch]] = clocks[touched_rows]
        clocks[touched_rows] += 1
        resident[fill_rows, victim] = want[fill]

    corrected_hit = hit & corrected[sets[row], way]
    klass = np.where(
        store,
        np.where(hit, STORE_HIT, STORE_MISS),
        np.where(
            hit,
            np.where(corrected_hit, CORRECTED_HIT, CLEAN_HIT),
            np.where(dead, BYPASS, MISS),
        ),
    )
    outcome = np.empty(n, dtype=np.int8)
    outcome[order] = klass
    counts = np.bincount(
        (sets[row] // n_sets) * _N_OUTCOMES + klass,
        minlength=n_caches * _N_OUTCOMES,
    ).reshape(n_caches, _N_OUTCOMES)
    changed_rows, changed_ways = np.nonzero(resident != before)
    evicted = before[changed_rows, changed_ways]
    filled = resident[changed_rows, changed_ways]
    fill_slots = sets[changed_rows] * assoc + changed_ways
    # A free way fills once and stays valid; every other fill evicts.
    free_fills = np.bincount(
        sets[changed_rows[evicted < 0]] // n_sets, minlength=n_caches
    ).tolist()
    stamped_rows, stamped_ways = np.nonzero(keys != keys_before)
    stamp_slots = sets[stamped_rows] * assoc + stamped_ways
    stamps = keys[stamped_rows, stamped_ways]

    # Touched sets and slots ascend, so each cache's share is one run.
    slots = n_sets * assoc

    def split(owner, *columns):
        cut = np.searchsorted(owner, np.arange(1, n_caches))
        return zip(*(np.split(column, cut) for column in columns))

    commits = []
    for counted, free, touched, refilled, restamped in zip(
        counts.tolist(),
        free_fills,
        split(sets // n_sets, sets % n_sets, clocks),
        split(fill_slots // slots, fill_slots % slots, evicted, filled),
        split(stamp_slots // slots, stamp_slots % slots, stamps),
    ):
        posted, store_hits, clean, fixed, misses, bypasses = counted
        stats = CacheStats(
            reads=clean + fixed + misses + bypasses,
            read_hits=clean + fixed,
            read_misses=misses + bypasses,
            writes=posted + store_hits,
            write_hits=store_hits,
            write_misses=posted,
            fills=misses,
            evictions=misses - free,
            bypasses=bypasses,
            corrected_reads=fixed,
        )
        commits.append(LockstepCommit(stats, *touched, *refilled, *restamped))
    return outcome, commits
