"""Set-associative cache substrate.

Provides the machinery every protection scheme plugs into, layered as
transaction core -> hooks -> substrates (see ``docs/architecture.md``):

- :mod:`repro.cache.geometry` — address mapping for a banked
  set-associative cache (the paper's 2MB / 16-way / 64B-line / 16-bank
  GPU L2 and the small 4-way ECC cache both instantiate this).
- :mod:`repro.cache.stats` — hit/miss/error accounting, MPKI.
- :mod:`repro.cache.core` — the unified transaction layer: one
  parameterized :class:`CacheModel` (write-policy + allocation-policy
  strategy objects) whose presets are the write-through L2, the
  write-back extension and the L1 filter caches; the single scalar
  implementation of the access semantics.
- :mod:`repro.cache.hooks` — the scheme-facing surface (outcomes,
  hook base class, the lockstep mask, the batch-interpreter hook).
- :mod:`repro.cache.replacement` — the shared
  :class:`ReplacementPolicy` interface with both substrates' LRU
  states.
- :mod:`repro.cache.object_store` — the object tag store (the
  reference substrate the scalar engine runs on).
- :mod:`repro.cache.soa` — the struct-of-arrays tag substrate and the
  lockstep replay kernel (flat numpy arrays, the batched engine's
  bit-identical fast path).
"""

from repro.cache.core import (
    AccessTransaction,
    AllocationPolicy,
    CacheLatencies,
    CacheModel,
    LRU_FILL,
    NO_WRITE_ALLOCATE,
    WRITE_ALLOCATE,
    WRITE_BACK,
    WRITE_THROUGH,
    WriteBackCache,
    WritePolicy,
    WriteThroughCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import (
    AccessOutcome,
    ProtectionScheme,
    UnprotectedScheme,
    hooks_unchanged,
)
from repro.cache.object_store import CacheLineState, SetAssocCache
from repro.cache.replacement import LruState, ReplacementPolicy, SoaLruState
from repro.cache.soa import SoaTagStore
from repro.cache.stats import CacheStats

__all__ = [
    "CacheGeometry",
    "CacheStats",
    "ReplacementPolicy",
    "LruState",
    "CacheLineState",
    "SetAssocCache",
    "SoaTagStore",
    "SoaLruState",
    "AccessOutcome",
    "ProtectionScheme",
    "UnprotectedScheme",
    "hooks_unchanged",
    "CacheLatencies",
    "CacheModel",
    "AccessTransaction",
    "WritePolicy",
    "AllocationPolicy",
    "WRITE_THROUGH",
    "WRITE_BACK",
    "NO_WRITE_ALLOCATE",
    "WRITE_ALLOCATE",
    "LRU_FILL",
    "WriteThroughCache",
    "WriteBackCache",
]
