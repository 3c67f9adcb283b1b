"""Armable runtime invariants for the cache substrates and bulk tiers.

The checks here are the *structural* half of the correctness contract
the differential executor (:mod:`repro.testing.differential`) pins
behaviourally: counters must agree with scans, LRU state must stay a
permutation, and the lookup index must never alias — after every
per-access commit and every bulk commit (set replays, the batched
Killi interpreter's once-per-kernel commit).

They are armed by the ``REPRO_CHECK_INVARIANTS`` environment variable
(read once per cache/interpreter construction).  When the flag is off the hot paths carry no
check at all — :meth:`repro.cache.core.CacheModel._arm_invariants`
wraps the access methods per instance only when arming, and the bulk
commit points guard on a single attribute — which the
``fuzz_overhead`` microbench pins to <2% overhead.

This module intentionally imports nothing from the rest of the
package (stdlib only): it sits *below* :mod:`repro.cache.core` in the
import graph so the transaction layer can arm itself without a cycle.
"""

from __future__ import annotations

import os

__all__ = [
    "INVARIANTS_ENV",
    "InvariantError",
    "invariants_enabled",
    "check_set_invariants",
    "check_cache_invariants",
]

#: Environment variable arming the runtime invariant checks.
INVARIANTS_ENV = "REPRO_CHECK_INVARIANTS"

_FALSY = {"", "0", "false", "off", "no"}


def invariants_enabled() -> bool:
    """True when ``REPRO_CHECK_INVARIANTS`` is set to a truthy value.

    Read at cache/interpreter construction time, not per access, so
    flipping the variable mid-process affects only caches built
    afterwards.
    """
    return os.environ.get(INVARIANTS_ENV, "").strip().lower() not in _FALSY


class InvariantError(AssertionError):
    """A structural invariant of the cache state was violated.

    Subclasses ``AssertionError`` so existing ``pytest.raises``-style
    handling and ``assert``-oriented tooling treat it uniformly.
    """


def _fail(message: str) -> None:
    raise InvariantError(f"[{INVARIANTS_ENV}] {message}")


def check_set_invariants(cache, set_index: int) -> None:
    """Check one set's structural invariants on either substrate.

    Validates, through the substrate-agnostic tag-store API only:

    - the maintained ``valid_in_set`` / ``disabled_in_set`` counters
      against a way scan;
    - disabled implies invalid (``disable`` invalidates first);
    - no tag aliasing: every valid way's line number looks up back to
      exactly that way (the lookup index and the tag arrays agree, and
      a line can never be resident twice);
    - the LRU recency order is a permutation of the ways.

    O(associativity) per call (plus an O(log assoc) sort inside
    ``recency_order`` on the SoA substrate) — cheap enough to run per
    access when armed.
    """
    tags = cache.tags
    geometry = cache.geometry
    assoc = geometry.associativity
    n_sets = geometry.n_sets
    line_bytes = geometry.line_bytes
    n_valid = 0
    n_disabled = 0
    for way in range(assoc):
        valid = tags.is_valid(set_index, way)
        disabled = tags.is_disabled(set_index, way)
        if valid and disabled:
            _fail(f"set {set_index} way {way} is both valid and disabled")
        if valid:
            n_valid += 1
            line_no = tags.tag_at(set_index, way) * n_sets + set_index
            hit = tags.lookup(line_no * line_bytes)
            if hit != way:
                _fail(
                    f"tag aliasing: set {set_index} way {way} holds line "
                    f"{line_no} but lookup resolves it to way {hit!r}"
                )
        if disabled:
            n_disabled += 1
    if tags.valid_in_set[set_index] != n_valid:
        _fail(
            f"set {set_index}: valid_in_set counter "
            f"{tags.valid_in_set[set_index]} != scanned {n_valid}"
        )
    if tags.disabled_in_set[set_index] != n_disabled:
        _fail(
            f"set {set_index}: disabled_in_set counter "
            f"{tags.disabled_in_set[set_index]} != scanned {n_disabled}"
        )
    order = list(cache.lru.recency_order(set_index))
    if sorted(order) != list(range(assoc)):
        _fail(
            f"set {set_index}: LRU recency order {order} is not a "
            f"permutation of 0..{assoc - 1}"
        )


def check_cache_invariants(cache) -> None:
    """Check every set of a cache, plus the store-wide counters.

    Used at coarse-grained points (tests, commit boundaries on small
    caches); the per-access armed path uses
    :func:`check_set_invariants` on the touched set only.
    """
    for set_index in range(cache.geometry.n_sets):
        check_set_invariants(cache, set_index)
    tags = cache.tags
    verify = getattr(tags, "verify", None)
    if verify is not None:
        try:
            verify()
        except AssertionError as exc:  # normalise substrate-side failures
            raise InvariantError(f"[{INVARIANTS_ENV}] {exc}") from exc
    n_valid = sum(
        1
        for set_index in range(cache.geometry.n_sets)
        for way in range(cache.geometry.associativity)
        if tags.is_valid(set_index, way)
    )
    if sum(tags.valid_in_set) != n_valid:
        _fail(
            f"cache-wide valid count {sum(tags.valid_in_set)} != "
            f"scanned {n_valid}"
        )
