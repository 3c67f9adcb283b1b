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
:func:`hooks_unchanged`, the type-level "does this scheme override any
behavioural hook?" probe behind the default lockstep mask and the MBIST
oracles' static-batchability check.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "AccessOutcome",
    "BEHAVIOURAL_HOOKS",
    "hooks_unchanged",
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
    "fill_priorities",
)


def hooks_unchanged(cls, owners=None) -> bool:
    """True when ``cls`` inherits every behavioural hook from its owner.

    ``owners`` optionally maps hook names to the class expected to own
    the implementation (default: :class:`ProtectionScheme` for all) —
    the MBIST oracles use this to assert "no subclass changed anything
    beyond the hooks *I* implement" before answering static-
    batchability probes.  Purely type-level, so the answer is a
    class-lifetime constant; callers cache it.
    """
    owners = owners or {}
    for name in BEHAVIOURAL_HOOKS:
        owner = owners.get(name, ProtectionScheme)
        if getattr(cls, name) is not getattr(owner, name):
            return False
    return True


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

    def fill_priorities(self, set_index: int, ways) -> list:
        """Priority of each *invalid* candidate way in ``ways``.

        Higher wins; the cache fills the first way of highest priority.
        Killi returns 2 for DFH b'01, 1 for b'00, 0 for b'10 (paper
        Section 4.4); the default ranks every way equally.
        """
        return [0] * len(ways)

    def fill_priority_is_uniform(self, set_index: int) -> bool:
        """True if every way of ``set_index`` is *guaranteed* to carry
        the same fill priority right now — the caller may then take the
        first invalid candidate without ranking.  Conservative default:
        False (rank every time); Killi overrides with a per-set counter
        of lines that have left the (uniform-priority) initial state.
        """
        return False

    # -- batched replay ----------------------------------------------------

    def lockstep_mask(self, geometry):
        """The lockstep kernel's CORRECTED mask, or None to refuse.

        The batched engine asks once per kernel, through
        :meth:`repro.cache.core.CacheModel.lockstep_mask`.  A mask is an
        ``(n_sets, associativity)`` bool array for ``geometry``: read
        hits on a True way resolve CORRECTED (+1 cycle,
        ``corrected_reads``), every other read hit CLEAN.  With a mask,
        :func:`repro.cache.soa.lockstep_kernel` resolves the whole
        residue; None sends every access down the per-access path.

        Because nothing re-checks the mask during the kernel, it must
        hold for all of it:

        - ``on_read_hit`` has no effect beyond its outcome, and
          ``on_fill`` / ``on_write_hit`` / ``on_evict`` are pure no-ops
          (no state, stat, RNG or shared-structure effects);
        - victim selection reduces to first free enabled way / plain
          LRU (uniform fill priorities);
        - nothing outside a set's own accesses mutates the set.

        The base answer covers schemes that override none of the
        behavioural hooks (:data:`BEHAVIOURAL_HOOKS`): every hit is
        CLEAN.  Unaware subclasses safely opt out.
        """
        if not hooks_unchanged(type(self)):
            return None
        return np.zeros((geometry.n_sets, geometry.associativity), dtype=bool)

    def batch_interpreter(self, cache):
        """Scheme-exact batch interpreter for the engine, or None.

        A scheme that can simulate *arbitrary* (non-inert) access
        subsequences ahead of the per-access loop — replicating every
        state, stat and RNG effect bit-exactly — returns an
        interpreter object here (see
        :mod:`repro.core.killi_replay`).  None (the default) keeps the
        lockstep kernel (:meth:`lockstep_mask`) as the only batching
        the engine attempts for this scheme.
        """
        return None

    def on_reset(self) -> None:
        """Voltage change / reboot: clear learned state (DFH reset)."""


class UnprotectedScheme(ProtectionScheme):
    """The paper's baseline: fault-free cache at nominal VDD."""
