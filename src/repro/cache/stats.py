"""Cache access statistics.

Tracks the quantities the paper's evaluation reports: hits, misses and
therefore MPKI (Figure 5), plus the Killi-specific events — error
induced misses, ECC-cache-contention invalidations, bypasses when a
whole set is disabled — that explain *why* the miss counts move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CacheStats"]

#: Names of the plain integer counters (every field except ``extra``).
_COUNTER_FIELDS = (
    "reads",
    "writes",
    "read_hits",
    "write_hits",
    "read_misses",
    "write_misses",
    "evictions",
    "fills",
    "bypasses",
    "error_induced_misses",
    "corrected_reads",
    "ecc_evict_invalidations",
    "invalidations",
)


@dataclass
class CacheStats:
    """Counters for one cache instance over one simulation."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    evictions: int = 0
    fills: int = 0
    bypasses: int = 0
    """Reads serviced directly by memory because every way was disabled."""
    error_induced_misses: int = 0
    """Hits converted to misses by a detected-uncorrectable error (Table 2)."""
    corrected_reads: int = 0
    """Hits whose data needed an ECC correction before being returned."""
    ecc_evict_invalidations: int = 0
    """L2 lines invalidated because their ECC-cache entry was evicted."""
    invalidations: int = 0
    extra: dict = field(default_factory=dict)
    """Scheme-specific counters (DFH transition counts, etc.)."""

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        """Read miss rate (write-through caches never allocate on write)."""
        return self.read_misses / self.reads if self.reads else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction (Figure 5's metric).

        A zero or negative instruction count yields 0.0, matching
        :attr:`miss_rate` with no reads and ``KernelResult.ipc`` with
        no cycles: an empty denominator means "no work", not an error.
        """
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a scheme-specific counter."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def add(self, other: "CacheStats") -> None:
        """Counter-wise ``self += other`` (a bulk commit's deltas)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, amount in other.extra.items():
            self.bump(key, amount)

    def copy(self) -> "CacheStats":
        """Independent snapshot (the ``extra`` dict is copied too)."""
        out = CacheStats(**{name: getattr(self, name) for name in _COUNTER_FIELDS})
        out.extra = dict(self.extra)
        return out

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter-wise difference ``self - earlier``.

        Used to report per-kernel statistics when one cache instance
        (and hence one live counter set) persists across kernels.
        """
        out = CacheStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _COUNTER_FIELDS
            }
        )
        for key in set(self.extra) | set(earlier.extra):
            out.extra[key] = self.extra.get(key, 0) - earlier.extra.get(key, 0)
        return out

    def as_dict(self) -> dict:
        """Flat dict of every counter, including the derived totals
        (``accesses``/``hits``/``misses``) so CSV exports are complete."""
        out = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        out["accesses"] = self.accesses
        out["hits"] = self.hits
        out["misses"] = self.misses
        out.update(self.extra)
        return out
