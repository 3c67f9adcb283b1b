"""Per-CU L1 cache.

The L1s run at nominal voltage (only the L2 data array is
under-volted in the paper), so they need no protection scheme — the
L1 is the write-through / no-write-allocate / plain-LRU-fill preset
of the unified :class:`~repro.cache.core.CacheModel`, serving as a
fast filter in front of the L2.

Like the L2, the L1 tag/LRU state runs on the object substrate under
the scalar engine (reference) and on the struct-of-arrays substrate
under the batched engine.  Because an L1 is private, unprotected and
deterministic, the batched engine filters every CU's whole access
stream in one lockstep kernel call and commits each L1's share
through :meth:`~repro.cache.core.CacheModel.commit_lockstep`, the
L2's commit path — see :mod:`repro.gpu.l1filter`.
"""

from __future__ import annotations

from repro.cache.core import LRU_FILL, CacheModel
from repro.cache.geometry import CacheGeometry

__all__ = ["SimpleL1"]


class SimpleL1(CacheModel):
    """Write-through, no-write-allocate L1 with plain-LRU fill.

    A thin boolean adapter over the transaction layer: ``read`` /
    ``write`` return hit/miss instead of latency (the engine accounts
    L1 latency itself), while the underlying semantics — stats, LRU
    ages, the always-LRU victim convention the batched L1 stage keys
    its lockstep kernel on — are
    :class:`~repro.cache.core.CacheModel`'s under the
    :data:`~repro.cache.core.LRU_FILL` allocation policy.
    """

    def __init__(self, geometry: CacheGeometry, substrate: str = "soa"):
        CacheModel.__init__(
            self, geometry, substrate=substrate, allocation_policy=LRU_FILL
        )

    def read(self, addr: int) -> bool:
        """Read; returns True on hit.  Misses allocate."""
        # The unprotected scheme never converts a hit into an
        # error-induced miss, so the latency class alone separates
        # hit (tag+data+check) from miss (tag+memory).
        return CacheModel.read(self, addr) < self._lat_miss

    def write(self, addr: int) -> bool:
        """Write-through; updates the copy on hit, never allocates."""
        hits = self.stats.write_hits
        CacheModel.write(self, addr)
        return self.stats.write_hits != hits
