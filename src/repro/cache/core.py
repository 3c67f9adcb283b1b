"""The unified cache transaction layer.

One parameterized :class:`CacheModel` implements the scalar access
semantics every tier of the simulator compiles against: the paper's
write-through GPU L2 (:class:`WriteThroughCache`), the Section 5.6.1
write-back extension (:class:`WriteBackCache`) and the per-CU L1
filter caches (:class:`repro.gpu.hierarchy.SimpleL1`) are all presets
of the same class, differing only in their
:class:`WritePolicy`/:class:`AllocationPolicy` strategy objects.

Latency accounting follows Table 3: a hit pays tag + data + check
latency; ECC-cache accesses are hidden under the data access; a miss
additionally pays the memory latency.  Error-induced misses (Table 2's
"signal error-induced cache miss; trigger new load request") pay the
hit latency for the failed attempt plus a full miss.

The tag store and LRU state run on one of two substrates with the same
contract: ``"soa"`` (flat numpy arrays + integer-age LRU, the default
and the batched engine's) or ``"object"`` (per-line ``CacheLineState``
+ recency lists, the reference the scalar engine runs on —
:mod:`repro.cache.object_store`).  Every read hit asks the scheme
(:meth:`~repro.cache.hooks.ProtectionScheme.on_read_hit`) for its
outcome; there is one read-hit path.

Formal access protocol: an access is an :class:`AccessTransaction`
(address + direction), :meth:`CacheModel.execute` resolves it to a
latency in cycles, and the scheme-visible classification of a hit is
an :class:`~repro.cache.hooks.AccessOutcome`.  The scalar engine is a
thin interpreter of this layer; the batched engine derives its
preconditions from :attr:`CacheModel.semantics_batchable` /
:meth:`CacheModel.lockstep_mask` and resolves a whole residue through
:meth:`CacheModel.replay_lockstep`, which runs the lockstep kernel
(:func:`~repro.cache.soa.lockstep_kernel`) and commits it — the engine
never re-states the semantics itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome, ProtectionScheme
from repro.cache.object_store import SetAssocCache
from repro.cache.replacement import LruState
from repro.cache.soa import SoaLruState, SoaTagStore, lockstep_kernel
from repro.cache.stats import CacheStats
from repro.testing.invariants import check_set_invariants, invariants_enabled

__all__ = [
    "CacheLatencies",
    "WritePolicy",
    "AllocationPolicy",
    "WRITE_THROUGH",
    "WRITE_BACK",
    "NO_WRITE_ALLOCATE",
    "WRITE_ALLOCATE",
    "LRU_FILL",
    "AccessTransaction",
    "CacheModel",
    "WriteThroughCache",
    "WriteBackCache",
]


@dataclass(frozen=True)
class CacheLatencies:
    """Access latencies in cycles (paper Table 3 values as defaults)."""

    tag: int = 2
    data: int = 2
    check: int = 1
    """SECDED / parity check latency; ECC-cache access is hidden."""
    correction: int = 1
    """Extra cycles when a correction is applied before data return."""
    memory: int = 200
    """Main-memory access latency (not in Table 3; modelled)."""

    @property
    def hit(self) -> int:
        return self.tag + self.data + self.check

    @property
    def miss(self) -> int:
        return self.tag + self.memory


@dataclass(frozen=True)
class WritePolicy:
    """What a store does to the memory system.

    ``write_back=False`` (write-through): every store is posted to
    memory; a hit additionally updates the cached copy, and the
    requester stalls only for the tag check.  ``write_back=True``:
    dirty data lives only in the cache until eviction — a store hit
    marks the line dirty (``on_dirty`` fires on the clean->dirty
    transition) and pays tag + data.
    """

    name: str
    write_back: bool


@dataclass(frozen=True)
class AllocationPolicy:
    """Who gets a line on a fill, and whether stores allocate.

    ``write_allocate`` — a store miss fetches the line and modifies it
    in place (write-back caches) instead of bypassing the cache.
    ``prefer_invalid`` — victim selection prefers invalid ways (with
    the scheme's fill-priority ranking) before falling back to LRU;
    False means plain LRU fill: the LRU way is always the victim,
    valid or not.  The L1 filter caches use the latter.  The lockstep
    kernel (:func:`~repro.cache.soa.lockstep_kernel`) takes its victim
    key from this flag, so the batched L1 stage evicts by the same
    min-age rule.
    """

    name: str
    write_allocate: bool
    prefer_invalid: bool = True


WRITE_THROUGH = WritePolicy("write-through", write_back=False)
WRITE_BACK = WritePolicy("write-back", write_back=True)

NO_WRITE_ALLOCATE = AllocationPolicy("no-write-allocate", write_allocate=False)
WRITE_ALLOCATE = AllocationPolicy("write-allocate", write_allocate=True)
LRU_FILL = AllocationPolicy(
    "lru-fill", write_allocate=False, prefer_invalid=False
)


@dataclass(frozen=True)
class AccessTransaction:
    """One memory access presented to the transaction layer."""

    addr: int
    is_store: bool = False

    @classmethod
    def load(cls, addr: int) -> "AccessTransaction":
        return cls(addr, False)

    @classmethod
    def store(cls, addr: int) -> "AccessTransaction":
        return cls(addr, True)


#: Tag store and LRU state per substrate name.
_SUBSTRATES = {
    "soa": (SoaTagStore, SoaLruState),
    "object": (SetAssocCache, LruState),
}

#: Methods that together *are* the scalar access protocol.  A subclass
#: that overrides any of them has semantics the bulk tiers were never
#: validated against, so ``semantics_batchable`` turns False and every
#: engine falls back to per-access calls for it.
_ACCESS_PROTOCOL = (
    "read",
    "write",
    "_miss",
    "_allocate",
    "_choose_victim",
    "lockstep_mask",
    "replay_lockstep",
    "commit_lockstep",
)

_PROTOCOL_BY_CLASS: dict = {}


def _access_protocol_unchanged(cls) -> bool:
    """True when ``cls`` inherits the full access protocol unchanged."""
    cached = _PROTOCOL_BY_CLASS.get(cls)
    if cached is None:
        cached = all(
            getattr(cls, name) is getattr(CacheModel, name)
            for name in _ACCESS_PROTOCOL
        )
        _PROTOCOL_BY_CLASS[cls] = cached
    return cached


class CacheModel:
    """A set-associative protected cache, parameterized by policy.

    Parameters
    ----------
    geometry:
        Shape of the cache.
    scheme:
        Protection scheme consulted on every access.
    latencies:
        Cycle costs per access type.
    substrate:
        ``"soa"`` (default) or ``"object"`` tag/LRU backing.
    write_policy / allocation_policy:
        The strategy objects; defaults reproduce the paper's L2
        (write-through / no-write-allocate).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        scheme: ProtectionScheme | None = None,
        latencies: CacheLatencies | None = None,
        substrate: str = "soa",
        *,
        write_policy: WritePolicy | None = None,
        allocation_policy: AllocationPolicy | None = None,
    ):
        self.geometry = geometry
        self.scheme = scheme if scheme is not None else ProtectionScheme()
        self.latencies = latencies if latencies is not None else CacheLatencies()
        self.write_policy = write_policy if write_policy is not None else WRITE_THROUGH
        self.allocation_policy = (
            allocation_policy if allocation_policy is not None else NO_WRITE_ALLOCATE
        )
        try:
            tag_store, lru_state = _SUBSTRATES[substrate]
        except KeyError:
            raise ValueError(
                f"unknown substrate {substrate!r}; expected one of "
                f"{tuple(_SUBSTRATES)}"
            ) from None
        self.substrate = substrate
        self.tags = tag_store(geometry)
        self.lru = lru_state(geometry.n_sets, geometry.associativity)
        self.stats = CacheStats()
        self.memory_reads = 0
        self.memory_writes = 0
        # Policy flags, flattened for the hot path.
        self._write_back = self.write_policy.write_back
        self._write_allocate = self.allocation_policy.write_allocate
        self._prefer_invalid = self.allocation_policy.prefer_invalid
        self._assoc = geometry.associativity
        self._n_sets = geometry.n_sets
        self._line_bytes = geometry.line_bytes
        # Flat cycle counts (the CacheLatencies properties re-derive
        # their sums on every access otherwise).
        self._lat_hit = self.latencies.hit
        self._lat_hit_corrected = self.latencies.hit + self.latencies.correction
        self._lat_miss = self.latencies.miss
        self._lat_tag = self.latencies.tag
        # Store latency seen by the requester: tag check only when the
        # write is posted through, tag + data when it lands in place.
        self._lat_write_hit = (
            self.latencies.tag + self.latencies.data
            if self._write_back
            else self._lat_tag
        )
        self.scheme.attach(self)
        # Skip the per-way usability call unless this scheme instance
        # can actually filter (type-level override check by default;
        # config-gated filters like FLAIR's training window refine it).
        self._scheme_filters_ways = self.scheme.filters_ways()
        # Skip priority ranking of invalid candidates unless the scheme
        # actually ranks (a default scheme returns all-zero priorities,
        # under which "first max" is just the first candidate).
        self._scheme_prioritizes = (
            type(self.scheme).fill_priority is not ProtectionScheme.fill_priority
            or type(self.scheme).fill_priorities
            is not ProtectionScheme.fill_priorities
        )
        self._all_ways = list(range(geometry.associativity))
        self._way_attempts = range(geometry.associativity)
        # The bulk tiers' precondition, decided once: scalar semantics
        # are replayable in batch only for the write-through /
        # no-write-allocate / invalid-preferring protocol they were
        # validated against, and only when no subclass rewrote any part
        # of the access protocol.
        self.semantics_batchable = (
            not self._write_back
            and not self._write_allocate
            and self._prefer_invalid
            and _access_protocol_unchanged(type(self))
        )
        # Armed runtime invariants (REPRO_CHECK_INVARIANTS): every
        # access re-checks its set's structural invariants after it
        # resolves, and the lockstep commit re-checks each touched
        # set.  Arming wraps the bound access methods per instance, so
        # the disarmed hot path carries no extra branch at all.
        self._check_invariants = invariants_enabled()
        if self._check_invariants:
            self._arm_invariants()

    def _arm_invariants(self) -> None:
        """Shadow ``read``/``write`` with invariant-checking wrappers.

        Instance-attribute shadowing keeps the class-level access
        protocol untouched (``semantics_batchable`` still sees the
        pristine methods) while every caller — :meth:`execute`, the
        engines' cached ``l2.read``/``l2.write`` bound methods, the
        L1 adapters — resolves to the checked wrapper.
        """
        inner_read = self.read
        inner_write = self.write
        line_bytes = self._line_bytes
        n_sets = self._n_sets

        def checked_read(addr: int):
            result = inner_read(addr)
            check_set_invariants(self, (addr // line_bytes) % n_sets)
            return result

        def checked_write(addr: int):
            result = inner_write(addr)
            check_set_invariants(self, (addr // line_bytes) % n_sets)
            return result

        self.read = checked_read
        self.write = checked_write

    # -- public access API ------------------------------------------------

    def execute(self, txn: AccessTransaction) -> int:
        """Resolve one transaction; returns the latency in cycles.

        The formal entry point of the transaction layer.  The scalar
        engine's inner loop calls :meth:`read` / :meth:`write` directly
        — same semantics, no per-access transaction allocation — so
        the reference stays an honest baseline for the bulk tiers.
        """
        if txn.is_store:
            return self.write(txn.addr)
        return self.read(txn.addr)

    def read(self, addr: int) -> int:
        """Read access; returns the latency in cycles.

        Every hit asks the scheme for its outcome.  An error outcome
        turns the hit into a miss that drops the copy and refetches;
        on a write-back cache's dirty line it is also a DUE
        (``due_on_dirty``): the only copy of the modified data is gone.
        """
        self.stats.reads += 1
        way = self.tags.lookup(addr)
        if way is None:
            return self._miss(addr)
        set_index = (addr // self._line_bytes) % self._n_sets
        outcome = self.scheme.on_read_hit(set_index, way)
        if outcome is AccessOutcome.CLEAN:
            self.stats.read_hits += 1
            self.lru.touch(set_index, way)
            return self._lat_hit
        if outcome is AccessOutcome.CORRECTED:
            self.stats.read_hits += 1
            self.stats.corrected_reads += 1
            self.lru.touch(set_index, way)
            return self._lat_hit_corrected
        self.stats.error_induced_misses += 1
        if self._write_back and self.tags.is_dirty(set_index, way):
            self.stats.bump("due_on_dirty")
        if outcome is AccessOutcome.DISABLE_MISS:
            self.tags.disable(set_index, way)
        else:
            self.tags.invalidate(set_index, way)
        self.lru.demote(set_index, way)
        return self._lat_hit + self._miss(addr)

    def write(self, addr: int) -> int:
        """Write access; returns the latency in cycles.

        Write-through / no-write-allocate: the store is posted to
        memory regardless; a hit also updates the cached copy (and its
        protection metadata), and the requester stalls only for the
        tag check.  Write-back / write-allocate: a hit marks the line
        dirty (``on_dirty`` on the clean->dirty transition); a miss
        fetches the line and modifies it in place, bypassing straight
        to memory only when no way may receive the fill.
        """
        self.stats.writes += 1
        if not self._write_back:
            self.memory_writes += 1
        way = self.tags.lookup(addr)
        if way is not None:
            set_index = (addr // self._line_bytes) % self._n_sets
            self.stats.write_hits += 1
            self.scheme.on_write_hit(set_index, way)
            if self._write_back and not self.tags.is_dirty(set_index, way):
                self.tags.set_dirty(set_index, way, True)
                self.scheme.on_dirty(set_index, way)
            self.lru.touch(set_index, way)
            return self._lat_write_hit
        self.stats.write_misses += 1
        if not self._write_allocate:
            # Posted write: the store itself does not stall the
            # requester beyond the tag check.
            return self._lat_tag
        # Write-allocate: fetch the line, then modify it.
        self.memory_reads += 1
        set_index = (addr // self._line_bytes) % self._n_sets
        way = self._allocate(addr)
        if way is None:
            # Nowhere to put it: the store goes straight to memory.
            self.stats.bypasses += 1
            self.memory_writes += 1
            return self._lat_miss
        self.scheme.on_write_hit(set_index, way)
        self.tags.set_dirty(set_index, way, True)
        self.scheme.on_dirty(set_index, way)
        return self._lat_miss

    # -- lockstep replay --------------------------------------------------

    def lockstep_mask(self):
        """The lockstep kernel's CORRECTED mask for this cache, or None.

        The batched engine asks once per kernel.  None refuses the
        whole cache, which then runs per access: its scalar semantics
        are not batchable, or its scheme filters ways.  Otherwise the
        scheme answers
        (:meth:`~repro.cache.hooks.ProtectionScheme.lockstep_mask`): an
        ``(n_sets, associativity)`` bool mask of the ways whose read
        hits resolve CORRECTED, or None.  Disabled ways need no
        refusal — the kernel never fills them, and a set with no
        enabled way bypasses, as ``_choose_victim`` does.
        """
        if not self.semantics_batchable or self._scheme_filters_ways:
            return None
        return self.scheme.lockstep_mask(self.geometry)

    def replay_lockstep(self, lines, stores, set_idx, corrected) -> np.ndarray:
        """Resolve a whole residue in bulk; returns per-access latencies.

        ``lines`` / ``stores`` / ``set_idx`` are aligned numpy arrays of
        line numbers, store flags and sets, in the order the per-access
        path would reach them; ``corrected`` is :meth:`lockstep_mask`'s
        answer.  The kernel (:func:`~repro.cache.soa.lockstep_kernel`,
        SoA substrate only — the batched engine's) resolves it under
        this cache's allocation policy, and :meth:`commit_lockstep`
        commits it.
        """
        caches = [(self.tags, self.lru)]
        outcome, (commit,) = lockstep_kernel(
            caches, lines, stores, set_idx, corrected, self._prefer_invalid
        )
        self.commit_lockstep(commit)
        # Per outcome class: store miss, store hit, clean hit, corrected
        # hit, and a read miss that fills or bypasses.
        hits = [self._lat_write_hit, self._lat_hit, self._lat_hit_corrected]
        latency = [self._lat_tag, *hits, self._lat_miss, self._lat_miss]
        return np.array(latency, dtype=np.int64)[outcome]

    def commit_lockstep(self, commit) -> None:
        """Apply this cache's :class:`~repro.cache.soa.LockstepCommit`.

        The one commit point of every lockstep run, the L2's residue
        and each L1's share of the L1 stage alike: the fills
        (``SoaTagStore.refill``), the touched ages and set clocks
        (``SoaLruState.restamp``), the stat deltas and the write-through
        memory traffic (one read per read miss, bypasses included, and
        one posted write per store).  Ages and clocks end where
        per-access calls would leave them.  Armed invariants check
        every touched set.
        """
        self.tags.refill(commit.fill_slots, commit.evicted, commit.filled)
        self.lru.restamp(commit.stamp_slots, commit.stamps, commit.sets, commit.clocks)
        self.stats.add(commit.stats)
        self.memory_reads += commit.stats.read_misses
        self.memory_writes += commit.stats.writes
        if self._check_invariants:
            for set_index in commit.sets.tolist():
                check_set_invariants(self, set_index)

    # -- canonical observable state ----------------------------------------

    def state_snapshot(self) -> dict:
        """Canonical, substrate-independent observable state.

        Captures everything the access semantics can depend on or
        produce: the stats counters, memory traffic, and — per set —
        the resident line / disabled / dirty flags of every way plus
        the LRU recency order (MRU first; both substrates induce
        identical orders by contract).  Under ``prefer_invalid`` fill
        (the L2 policy) the order is restricted to *valid* ways: an
        invalid way's recency is never read there — invalid victims
        are chosen by way index / fill priority, and ``lru_way`` is
        only consulted on a full set — so it is dead state the
        batched interpreter legitimately skips ``demote`` updates on.
        Plain-LRU fill (``prefer_invalid=False``, the L1 policy) reads
        every way's age, so the full order is recorded.  Sets still in
        their construction state are elided, so the snapshot of a
        lightly used 2 MB cache stays small and digests of equal-state
        caches match regardless of how much of the geometry was
        touched.
        """
        tags = self.tags
        lru = self.lru
        n_sets = self._n_sets
        assoc = self._assoc
        prefer_invalid = self._prefer_invalid
        initial_order = [] if prefer_invalid else list(range(assoc))
        sets = []
        for set_index in range(n_sets):
            ways = []
            occupied = False
            for way in range(assoc):
                if tags.is_valid(set_index, way):
                    line = tags.tag_at(set_index, way) * n_sets + set_index
                else:
                    line = -1
                disabled = 1 if tags.is_disabled(set_index, way) else 0
                dirty = 1 if tags.is_dirty(set_index, way) else 0
                ways.append([line, disabled, dirty])
                if line >= 0 or disabled or dirty:
                    occupied = True
            order = list(lru.recency_order(set_index))
            if prefer_invalid:
                order = [way for way in order if ways[way][0] >= 0]
            if occupied or order != initial_order:
                sets.append([set_index, ways, order])
        return {
            "geometry": [n_sets, assoc, self._line_bytes],
            "policy": [self.write_policy.name, self.allocation_policy.name],
            "stats": self.stats.as_dict(),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "sets": sets,
        }

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`state_snapshot`."""
        blob = json.dumps(self.state_snapshot(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def invalidate_line(self, set_index: int, way: int, reason: str = "") -> None:
        """Invalidate a valid line from outside the access path.

        Used by Killi when an ECC-cache eviction leaves an L2 line
        unprotected (paper Section 4.3).
        """
        tags = self.tags
        if not tags.is_valid(set_index, way):
            return
        if tags.is_dirty(set_index, way):
            self.memory_writes += 1  # write-back before dropping
        tags.invalidate(set_index, way)
        self.lru.demote(set_index, way)
        self.stats.invalidations += 1
        if reason == "ecc_evict":
            self.stats.ecc_evict_invalidations += 1
        self.scheme.on_invalidated(set_index, way)

    def reset(self) -> None:
        """Voltage change / reboot: flush everything, re-enable lines."""
        for set_index in range(self.geometry.n_sets):
            for way in range(self.geometry.associativity):
                self.tags.invalidate(set_index, way)
        self.tags.enable_all()
        self.scheme.on_reset()

    # -- miss path ---------------------------------------------------------

    def _miss(self, addr: int) -> int:
        self.stats.read_misses += 1
        self.memory_reads += 1
        if self._allocate(addr) is None:
            self.stats.bypasses += 1
        return self._lat_miss

    def _allocate(self, addr: int) -> int | None:
        """Install ``addr`` into its set; returns the way or None (bypass).

        Eviction-time training may *disable* the chosen victim (Killi
        discovers a multi-bit fault in the evicted contents), in which
        case another victim is chosen.
        """
        set_index = (addr // self._line_bytes) % self._n_sets
        tags = self.tags
        for _ in self._way_attempts:
            victim, has_data = self._choose_victim(set_index)
            if victim is None:
                # Every way disabled (or unusable): no allocation.
                return None
            if has_data:
                self.stats.evictions += 1
                if tags.is_dirty(set_index, victim):
                    self.memory_writes += 1  # write-back of modified data
                self.scheme.on_evict(set_index, victim)
                if tags.is_disabled(set_index, victim):
                    continue
                tags.invalidate(set_index, victim)
            tags.insert(addr, victim)
            self.stats.fills += 1
            self.scheme.on_fill(set_index, victim)
            self.lru.touch(set_index, victim)
            return victim
        return None

    def _choose_victim(self, set_index: int) -> tuple:
        """Victim selection with the scheme's priorities.

        1. Only enabled, scheme-usable ways are candidates.
        2. Invalid candidates are preferred, ordered by the scheme's
           fill priority (Killi: b'01 > b'00 > b'10).
        3. Otherwise the LRU valid candidate is evicted.

        Plain-LRU fill (``prefer_invalid=False``, the L1 policy) skips
        all of that: the LRU way is always the victim, valid or not —
        an O(associativity) age scan, no candidate list materialized,
        and the disabled mask is never read.  Note the two policies
        pick *different physical ways* on a cold set (the virgin ages
        0, -1, ..., -(w-1) put plain LRU at way w-1 first, first-invalid
        at way 0), so the knob is behavioural, not just a fast path.
        The lockstep kernel keys its victims the same way under each
        policy, and refuses a plain-LRU cache with a disabled way.

        Returns ``(way, has_data)`` where ``has_data`` tells the caller
        whether the chosen way holds a valid line (eviction required);
        ``(None, False)`` when no way may receive the fill.
        """
        tags = self.tags
        if not self._prefer_invalid:
            way = self.lru.lru_way(set_index)
            return way, tags.is_valid(set_index, way)
        if tags.disabled_in_set[set_index] == 0 and not self._scheme_filters_ways:
            # Fast path: every way is a candidate.  Full set -> plain
            # LRU; some way invalid + uniform priorities -> the first
            # invalid way, no candidate list materialized.
            if tags.valid_in_set[set_index] == self._assoc:
                return self.lru.lru_way(set_index), True
            if not self._scheme_prioritizes or self.scheme.fill_priority_is_uniform(
                set_index
            ):
                return tags.first_invalid(set_index), False
            candidates = self._all_ways
        else:
            candidates = tags.enabled_ways(set_index)
            if self._scheme_filters_ways:
                candidates = [
                    way
                    for way in candidates
                    if self.scheme.is_line_usable(set_index, way)
                ]
            if not candidates:
                return None, False
        invalid = tags.invalid_among(set_index, candidates)
        if invalid:
            if not self._scheme_prioritizes or self.scheme.fill_priority_is_uniform(
                set_index
            ):
                # Equal priorities: first max == first candidate.
                return invalid[0], False
            prios = self.scheme.fill_priorities(set_index, invalid)
            # max() with first-max tie-break, matching
            # max(invalid, key=fill_priority).
            return invalid[max(range(len(invalid)), key=prios.__getitem__)], False
        if len(candidates) == self._assoc:
            return self.lru.lru_way(set_index), True
        return self.lru.lru_choice(set_index, candidates), True


class WriteThroughCache(CacheModel):
    """The paper's GPU L2: write-through / no-write-allocate preset.

    Writes always go to memory, so detected-uncorrectable read errors
    can always be repaired by refetching.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        scheme: ProtectionScheme | None = None,
        latencies: CacheLatencies | None = None,
        substrate: str = "soa",
    ):
        CacheModel.__init__(
            self,
            geometry,
            scheme,
            latencies,
            substrate,
            write_policy=WRITE_THROUGH,
            allocation_policy=NO_WRITE_ALLOCATE,
        )


class WriteBackCache(WriteThroughCache):
    """Write-back / write-allocate preset (paper Section 5.6.1).

    Stores allocate and dirty data lives only in the cache until
    eviction.  This changes the reliability calculus fundamentally: a
    detected-uncorrectable error on a *dirty* line cannot be repaired
    by refetching — it is a detected uncorrectable error (DUE, i.e.
    data loss), which the stats record (``due_on_dirty``).

    The model signals dirtiness to the scheme through the ``on_dirty``
    hook so Killi's write-back variant can upgrade the line's
    protection (SECDED for dirty b'00 lines, DECTED-in-the-freed-
    parity-bits for dirty b'10 lines — the paper's proposal).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        scheme: ProtectionScheme | None = None,
        latencies: CacheLatencies | None = None,
        substrate: str = "soa",
    ):
        CacheModel.__init__(
            self,
            geometry,
            scheme,
            latencies,
            substrate,
            write_policy=WRITE_BACK,
            allocation_policy=WRITE_ALLOCATE,
        )
