"""Batched L1 pre-filter: every CU's L1 stream through the lockstep kernel.

An L1 is private to its CU, unprotected (nominal voltage) and fully
deterministic: its state after access *k* depends only on its own
stream's first *k* accesses.  So instead of interleaving L1 calls with
L2 calls access by access, the engine filters each CU's whole stream
up front and keeps only the *L2-bound residue* — stores
(write-through) and read misses.

The L1 is write-through, no-write-allocate, plain LRU fill: the
semantics of the lockstep kernel (:func:`~repro.cache.soa.lockstep_kernel`)
under the victim key of the L1's allocation policy, the minimum-age
way, valid or not.  The kernel steps several caches as one: CU *j*'s
set *s* is joint set ``j * n_sets + s``, and sets of different CUs
never interact, so one call steps the k-th access of every set of
every CU together.  Each L1 then takes its share of the run through
:meth:`~repro.cache.core.CacheModel.commit_lockstep` —
``SoaTagStore.refill`` and ``SoaLruState.restamp``, the L2's commit
path.

The filter is a pure function of (initial L1 state, stream).  Campaign
cells share streams (trace memoization) and start from *virgin* L1s,
so each stream memoises its commit record from the virgin state and
its residue positions (``CuStream._l1_filter_cache``).  The first
virgin L1 to meet a stream without a record filters, in one kernel
call from the virgin state, every stream of that stream's trace that
lacks one; the engine's per-CU calls after it commit records only.  A
memo hit commits its record through the same path.  A non-virgin L1 (a
later kernel of :meth:`~repro.gpu.engine.GpuSimulator.run_kernels`)
runs its own stream through the kernel on its live state.
"""

from __future__ import annotations

import numpy as np

from repro.cache.soa import CLEAN_HIT, SoaLruState, SoaTagStore, lockstep_kernel
from repro.metrics import METRICS

__all__ = ["run_l1_stream_memo", "l1_is_virgin"]


def l1_is_virgin(l1) -> bool:
    """True when ``l1`` provably holds its post-construction state.

    Conservative: any counted access, any valid or disabled line, or
    any LRU state off the initial pattern returns False and the caller
    filters on the live state.
    """
    stats = l1.stats
    if stats.reads or stats.writes or stats.fills or stats.evictions:
        return False
    tags, lru = l1.tags, l1.lru
    if tags._n_valid or tags._n_disabled:
        return False
    virgin = SoaLruState(lru.n_sets, lru.associativity)
    return lru.age == virgin.age and lru._clock == virgin._clock


def _filter(caches, columns, prefer_invalid: bool) -> list:
    """Run stream ``j`` of ``columns`` through ``caches[j]``, all in
    one kernel call.

    ``columns`` holds one ``(line numbers, store flags)`` pair of numpy
    arrays per cache.  Returns each stream's ``(commit, L2-bound
    positions)``: every store and every read miss, ascending.
    """
    tags = caches[0][0]
    n_sets = tags._n_sets
    lines = np.concatenate([line_nos for line_nos, _ in columns])
    stores = np.concatenate([is_store for _, is_store in columns])
    set_idx = np.concatenate(
        [line_nos % n_sets + j * n_sets for j, (line_nos, _) in enumerate(columns)]
    )
    corrected = np.zeros((len(caches) * n_sets, tags._assoc), dtype=bool)
    outcome, commits = lockstep_kernel(
        caches, lines, stores, set_idx, corrected, prefer_invalid
    )
    ends = np.cumsum([len(line_nos) for line_nos, _ in columns]).tolist()
    return [
        (commit, np.flatnonzero(outcome[lo:hi] != CLEAN_HIT))
        for commit, lo, hi in zip(commits, [0, *ends], ends)
    ]


def _memoise_trace(stream, key, geometry, prefer_invalid: bool) -> None:
    """Record, from the virgin state, every stream of ``stream``'s trace
    that has no record yet — ``stream`` included, each object once."""
    todo = {}
    for other in [stream, *(stream._trace_streams or ())]:
        entry = other._l1_filter_cache
        if entry is None or entry[0] != key:
            todo[id(other)] = other
    todo = list(todo.values())
    caches = [
        (SoaTagStore(geometry), SoaLruState(geometry.n_sets, geometry.associativity))
        for _ in todo
    ]
    columns = []
    for other in todo:
        addr_np, store_np, _ = other.array_columns()
        columns.append((addr_np // geometry.line_bytes, store_np))
    for other, (commit, keep) in zip(todo, _filter(caches, columns, prefer_invalid)):
        other._l1_filter_cache = (key, commit, keep, True)


def run_l1_stream_memo(l1, stream, addrs, is_store, line_nos=None):
    """Filter one CU's stream through its L1; returns the L2-bound
    positions (int64, ascending: every store and every read miss).

    ``addrs`` / ``is_store`` are ``stream``'s columns; ``line_nos``, if
    given, is ``addrs // line_bytes``.  A virgin ``l1`` commits the
    stream's memoised record, which the stream's trace filter makes on
    first need.  Each such call counts ``l1filter.memo_hits``, except
    the first after the kernel that made the record, which counts
    ``l1filter.memo_misses``.  Any other ``l1`` runs the stream through
    the kernel on its live state.
    """
    geometry = l1.geometry
    prefer_invalid = l1.allocation_policy.prefer_invalid
    if not l1_is_virgin(l1):
        if line_nos is None:
            line_nos = np.asarray(addrs, dtype=np.int64) // geometry.line_bytes
        columns = (np.asarray(line_nos, dtype=np.int64), np.asarray(is_store, bool))
        [(commit, keep)] = _filter([(l1.tags, l1.lru)], [columns], prefer_invalid)
        l1.commit_lockstep(commit)
        return keep
    key = (geometry.n_sets, geometry.associativity, geometry.line_bytes)
    entry = stream._l1_filter_cache
    if entry is None or entry[0] != key:
        _memoise_trace(stream, key, geometry, prefer_invalid)
        entry = stream._l1_filter_cache
    _, commit, keep, fresh = entry
    if fresh:
        stream._l1_filter_cache = (key, commit, keep, False)
        METRICS.incr("l1filter.memo_misses")
    else:
        METRICS.incr("l1filter.memo_hits")
    l1.commit_lockstep(commit)
    return keep
