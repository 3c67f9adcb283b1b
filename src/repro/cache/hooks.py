"""The scheme-facing hook surface of the cache transaction layer.

A *protection scheme* is everything that distinguishes Killi, FLAIR,
DECTED, MS-ECC and the fault-free baseline from the underlying tag
store: what happens on a fill, a hit, an eviction; which victim is
preferred; which lines get disabled.  The unified cache model
(:mod:`repro.cache.core`) calls into the scheme at each of those
points and acts on the returned :class:`AccessOutcome`.

This module is the single home of that surface.  Besides the scheme
base class and the outcome enum it carries the pieces every engine
tier consumes instead of re-stating semantics inline:

- :func:`hooks_unchanged` — the type-level "does this scheme override
  any behavioural hook?" probe behind the default set-replay profile
  and the MBIST oracles' static-batchability check;
- :data:`NO_CORRECTED_WAYS` — the set-replay profile of a set whose
  batched read hits all replay CLEAN, shared by every such set;
- :func:`batched_surface` — the batched engine's single entry point
  for deciding whether a cache's scalar semantics may be replayed in
  bulk at all, replacing per-engine ``type(...)`` checks.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "AccessOutcome",
    "BEHAVIOURAL_HOOKS",
    "NO_CORRECTED_WAYS",
    "hooks_unchanged",
    "BatchedSurface",
    "batched_surface",
    "ProtectionScheme",
    "UnprotectedScheme",
]


class AccessOutcome(enum.Enum):
    """What the protection scheme decided about a read hit."""

    CLEAN = "clean"
    """Data is good; serve the hit."""

    CORRECTED = "corrected"
    """Data needed an ECC correction; serve the hit (+1 cycle)."""

    RETRAIN_MISS = "retrain_miss"
    """Detected error invalidates the line and re-enters training
    (Killi Table 2: b'00 with one mismatching segment -> b'01).  The
    access is converted into an error-induced cache miss."""

    DISABLE_MISS = "disable_miss"
    """Detected multi-bit error disables the line (DFH b'11).  The
    access is converted into an error-induced cache miss."""


#: The hooks whose overriding makes a scheme behaviourally visible to
#: the access path.  A scheme that inherits *all* of them unchanged is
#: inert: every read hit is a pure CLEAN hit, fills/evictions have no
#: scheme effects, and victim selection is plain first-invalid/LRU.
BEHAVIOURAL_HOOKS = (
    "on_read_hit",
    "on_fill",
    "on_write_hit",
    "on_evict",
    "on_invalidated",
    "fill_priority",
    "fill_priorities",
    "is_line_usable",
)


def hooks_unchanged(cls, hooks=BEHAVIOURAL_HOOKS, owners=None) -> bool:
    """True when ``cls`` inherits every named hook from its owner.

    ``owners`` optionally maps hook names to the class expected to own
    the implementation (default: :class:`ProtectionScheme` for all) —
    the MBIST oracles use this to assert "no subclass changed anything
    beyond the hooks *I* implement" before answering static-
    batchability probes.  Purely type-level, so the answer is a
    class-lifetime constant; callers cache it.
    """
    if owners is None:
        for name in hooks:
            if getattr(cls, name) is not getattr(ProtectionScheme, name):
                return False
        return True
    for name in hooks:
        owner = owners.get(name, ProtectionScheme)
        if getattr(cls, name) is not getattr(owner, name):
            return False
    return True


# Class-level cache for the default set-inertness answer; the probe
# runs once per set per kernel, the answer never changes per class.
_INERT_BY_CLASS: dict = {}

#: The profile of a set whose read hits all replay CLEAN.
NO_CORRECTED_WAYS: frozenset = frozenset()


class BatchedSurface(NamedTuple):
    """What the batched engine may use of a cache: see :func:`batched_surface`."""

    cache: object
    """The cache itself; ``set_replay_profile`` / ``commit_set_replays``
    drive the per-set bulk path."""

    interpreter: object
    """A scheme-exact batch interpreter
    (:meth:`ProtectionScheme.batch_interpreter`), or None when only the
    per-set profile path applies."""


def batched_surface(cache):
    """The batched engine's view of ``cache``, or None (fall back).

    None means the cache's scalar semantics are not bulk-replayable —
    a write-back / write-allocate protocol, a plain-LRU fill policy,
    or a subclass that overrode part of the access protocol — and
    every access must run through the ordinary per-access path.  The
    decision belongs to the transaction layer
    (:attr:`repro.cache.core.CacheModel.semantics_batchable`), not to
    the engines: this is the single gate all tiers consult.
    """
    if not getattr(cache, "semantics_batchable", False):
        return None
    return BatchedSurface(cache, cache.scheme.batch_interpreter(cache))


class ProtectionScheme:
    """Base scheme: no protection, nothing ever fails.

    Subclasses override the hooks they need.  ``attach`` is called once
    by the cache so schemes that manage shared structures (Killi's ECC
    cache) can invalidate lines back through the cache.
    """

    def __init__(self):
        self.cache = None

    def attach(self, cache) -> None:
        """Called by the owning cache after construction."""
        self.cache = cache

    def detach(self) -> None:
        """Drop every reference back to the owning cache."""
        self.cache = None

    # -- access hooks (set_index, way identify the physical line) -------

    def on_fill(self, set_index: int, way: int) -> None:
        """New data installed into (set, way)."""

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        """Data read from (set, way); decide the outcome."""
        return AccessOutcome.CLEAN

    def on_write_hit(self, set_index: int, way: int) -> None:
        """Data overwritten in place (write-through update)."""

    def on_evict(self, set_index: int, way: int) -> None:
        """Valid line evicted (replacement).  Killi trains DFH here."""

    def on_invalidated(self, set_index: int, way: int) -> None:
        """Line invalidated for a non-replacement reason."""

    def on_dirty(self, set_index: int, way: int) -> None:
        """Line transitioned clean -> dirty (write-back caches only)."""

    # -- policy hooks ----------------------------------------------------

    def fill_priority(self, set_index: int, way: int) -> int:
        """Priority for choosing among *invalid* candidate ways.

        Higher wins.  Killi returns 2 for DFH b'01, 1 for b'00, 0 for
        b'10 (paper Section 4.4).
        """
        return 0

    def fill_priorities(self, set_index: int, ways) -> list:
        """``fill_priority`` for each way in ``ways`` (batched).

        Schemes with cheap bulk access to their per-line state (Killi's
        DFH array) override this to avoid a Python call per candidate.
        """
        return [self.fill_priority(set_index, way) for way in ways]

    def fill_priority_is_uniform(self, set_index: int) -> bool:
        """True if every way of ``set_index`` is *guaranteed* to carry
        the same fill priority right now — the caller may then take the
        first invalid candidate without ranking.  Conservative default:
        False (rank every time); Killi overrides with a per-set counter
        of lines that have left the (uniform-priority) initial state.
        """
        return False

    def is_line_usable(self, set_index: int, way: int) -> bool:
        """May (set, way) receive a fill?  (Disabled ways are already
        excluded by the tag store; schemes can exclude more.)"""
        return True

    def filters_ways(self) -> bool:
        """May :meth:`is_line_usable` ever return False for *this
        instance*?  The cache skips the per-way usability calls (and
        allows batched set replay) when this is False.  The default is
        the conservative type-level check; schemes whose filtering is
        configuration-gated (FLAIR's optional training window) override
        it so an instance that provably never filters is not penalised
        for the class having the hook.  Must be decided once, at attach
        time: an instance that might start filtering later has to
        return True up front."""
        return type(self).is_line_usable is not ProtectionScheme.is_line_usable

    # -- batched set replay ----------------------------------------------

    def set_replay_profile(self, set_index: int):
        """Batched-replay profile of a set: its CORRECTED ways, or None.

        The batched engine asks each L2 set this once per kernel,
        before the set's first access.  A set with a profile replays
        its whole subsequence through
        :func:`repro.cache.soa.replay_clean_set`; a refused set (None)
        runs per-access.  The profile is the frozenset of ways whose
        read hits replay as CORRECTED (+1 cycle, ``corrected_reads``);
        every other read hit replays CLEAN.  A non-empty set lets
        statically-characterised schemes (the MBIST oracles) batch sets
        that *contain* faulty-but-correctable lines.

        Because nothing re-checks the set afterwards, the profile must
        hold for the rest of the kernel:

        - ``on_read_hit`` has no effect beyond its outcome, and
          ``on_fill`` / ``on_write_hit`` / ``on_evict`` on any way of
          the set are pure no-ops (no state, stat, RNG or shared-
          structure effects);
        - victim selection reduces to first-invalid / plain LRU (no
          way filtering, uniform fill priorities);
        - nothing outside the set's own accesses can mutate the set
          (no shared-structure entries pointing at it).

        The base answer covers schemes that override none of the
        behavioural hooks (:data:`BEHAVIOURAL_HOOKS`): every hit is a
        pure CLEAN hit.  Unaware subclasses safely opt out.
        """
        cls = type(self)
        inert = _INERT_BY_CLASS.get(cls)
        if inert is None:
            inert = hooks_unchanged(cls)
            _INERT_BY_CLASS[cls] = inert
        return NO_CORRECTED_WAYS if inert else None

    def batch_interpreter(self, cache):
        """Scheme-exact batch interpreter for the engine, or None.

        A scheme that can simulate *arbitrary* (non-inert) access
        subsequences ahead of the per-access loop — replicating every
        state, stat and RNG effect bit-exactly — returns an
        interpreter object here (see
        :mod:`repro.core.killi_replay`).  None (the default) keeps the
        per-set profile (:meth:`set_replay_profile`) as the only
        batching the engine attempts for this scheme.
        """
        return None

    def on_reset(self) -> None:
        """Voltage change / reboot: clear learned state (DFH reset)."""


class UnprotectedScheme(ProtectionScheme):
    """The paper's baseline: fault-free cache at nominal VDD."""
