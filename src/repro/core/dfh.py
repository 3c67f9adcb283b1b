"""The Detected-Fault-History (DFH) state machine — paper Table 2.

Every cache line carries 2 DFH bits stored in the (nominal-voltage)
tag array:

=====  =======  ============  ==================================
DFH    state    errors/line   protection
=====  =======  ============  ==================================
b'00   stable   0             4-bit parity
b'01   initial  unknown       16-bit parity + SECDED ECC
b'10   stable   1             4-bit parity + SECDED ECC
b'11   stable   2 or more     none — line disabled
=====  =======  ============  ==================================

The classification functions below map the three hardware signals —
segmented-parity mismatch count (0 / 1 / >=2), SECDED syndrome
(zero / non-zero) and global parity (match / mismatch) — to the next
DFH state and the action the cache controller must take.  They encode
the paper's Table 2 rows verbatim; the handful of (signal) combinations
Table 2 leaves out are resolved conservatively and documented inline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "Dfh",
    "DfhAction",
    "Classification",
    "classify_b00",
    "classify_b01",
    "classify_b10",
    "classify",
    "classify_cached",
]


class Dfh(enum.IntEnum):
    """DFH encodings (values match the paper's bit patterns)."""

    STABLE_0 = 0b00
    """Stable, zero LV faults: 4-bit parity only."""

    INITIAL = 0b01
    """Unknown fault count: 16-bit parity + SECDED."""

    STABLE_1 = 0b10
    """Stable, one LV fault: 4-bit parity + SECDED."""

    DISABLED = 0b11
    """Two or more LV faults: line disabled until DFH reset."""


class DfhAction(enum.Enum):
    """Controller action accompanying a DFH classification."""

    SEND_CLEAN = "send_clean"
    """Serve the data as-is."""

    CORRECT_AND_SEND = "correct_and_send"
    """Correct with the ECC-cache checkbits, then serve."""

    ERROR_MISS = "error_miss"
    """Signal an error-induced cache miss; invalidate (or disable) the
    line and trigger a new load request."""


@dataclass(frozen=True)
class Classification:
    """(next DFH state, action, whether the ECC entry can be freed)."""

    next_dfh: Dfh
    action: DfhAction
    free_ecc_entry: bool = False


def classify_b00(sp_mismatches: int) -> Classification:
    """Table 2, DFH b'00 rows: only 4-bit segmented parity is checked.

    - no mismatch: clean;
    - one mismatching segment: a 1-bit error was discovered after
      training — the initial classification was wrong; invalidate and
      re-enter training (b'01);
    - two or more mismatching segments: multi-bit error; disable.
    """
    if sp_mismatches == 0:
        return Classification(Dfh.STABLE_0, DfhAction.SEND_CLEAN)
    if sp_mismatches == 1:
        return Classification(Dfh.INITIAL, DfhAction.ERROR_MISS)
    return Classification(Dfh.DISABLED, DfhAction.ERROR_MISS)


def classify_b01(
    sp_mismatches: int, syndrome_zero: bool, global_parity_ok: bool
) -> Classification:
    """Table 2, DFH b'01 rows: 16-bit parity + SECDED classify the line.

    Paper rows:

    - (ok, ok, ok)            -> b'00, free ECC entry, send clean;
    - (1 seg, non-zero, bad)  -> b'10, correct and send;
    - (ok or 2+, non-zero, ok)-> b'11, error miss  [multi-bit];
    - (2+, any, ok)           -> b'11, error miss  [even # errors];
    - (2+, any, bad)          -> b'11, error miss  [odd multi-bit].

    Combinations Table 2 omits, resolved here:

    - (ok, zero, bad): only the global-parity checkbit flipped — a
      single LV fault in the checkbits; treat like the 1-bit-error row
      (b'10, correctable).
    - (ok, non-zero, bad): single-bit error in the ECC checkbits
      (invisible to data parity); b'10, correctable.
    - (1 seg, zero, ok): a stuck parity *bit* (data provably clean
      since the syndrome is zero).  The line has one LV fault; keep it
      protected (b'10) and serve the clean data.
    - (1 seg, zero, bad) and (1 seg, non-zero, ok): inconsistent
      signals imply >= 2 faults; disable.
    """
    if sp_mismatches >= 2:
        return Classification(Dfh.DISABLED, DfhAction.ERROR_MISS, free_ecc_entry=True)

    if sp_mismatches == 0:
        if syndrome_zero and global_parity_ok:
            return Classification(
                Dfh.STABLE_0, DfhAction.SEND_CLEAN, free_ecc_entry=True
            )
        if syndrome_zero and not global_parity_ok:
            return Classification(Dfh.STABLE_1, DfhAction.CORRECT_AND_SEND)
        if not global_parity_ok:
            return Classification(Dfh.STABLE_1, DfhAction.CORRECT_AND_SEND)
        # syndrome non-zero, parity ok: even number of errors >= 2.
        return Classification(Dfh.DISABLED, DfhAction.ERROR_MISS, free_ecc_entry=True)

    # Exactly one mismatching segment.
    if not syndrome_zero and not global_parity_ok:
        return Classification(Dfh.STABLE_1, DfhAction.CORRECT_AND_SEND)
    if syndrome_zero and global_parity_ok:
        return Classification(Dfh.STABLE_1, DfhAction.SEND_CLEAN)
    return Classification(Dfh.DISABLED, DfhAction.ERROR_MISS, free_ecc_entry=True)


def classify_b10(
    sp_mismatches: int, syndrome_zero: bool, global_parity_ok: bool
) -> Classification:
    """Table 2, DFH b'10 rows: 4-bit parity + SECDED.

    Paper rows:

    - (ok, ok, ok)       -> b'00, free ECC entry [the "1 fault" was a
      transient that got overwritten], send clean;
    - (any, non-zero, bad) -> stay b'10, correct and send [the single
      LV fault, regardless of what parity shows — "Don't Care"];
    - (1+ seg, zero, ok) -> b'11 [non-LV error on top of the LV fault];
    - (2+, non-zero, ok) -> b'11;
    - (2+, zero, bad)    -> b'11.

    Omitted combinations, resolved here:

    - (ok, zero, bad): only the global-parity checkbit flipped; serve
      corrected, stay b'10.
    - (ok, non-zero, ok): even error count in the codeword; disable.
    - (1, zero, bad): inconsistent (parity sees a data-segment error
      the syndrome does not); disable.
    """
    if not syndrome_zero and not global_parity_ok:
        return Classification(Dfh.STABLE_1, DfhAction.CORRECT_AND_SEND)
    if sp_mismatches == 0:
        if syndrome_zero and global_parity_ok:
            return Classification(
                Dfh.STABLE_0, DfhAction.SEND_CLEAN, free_ecc_entry=True
            )
        if syndrome_zero and not global_parity_ok:
            return Classification(Dfh.STABLE_1, DfhAction.CORRECT_AND_SEND)
    return Classification(Dfh.DISABLED, DfhAction.ERROR_MISS, free_ecc_entry=True)


def classify(
    dfh: Dfh, sp_mismatches: int, syndrome_zero: bool, global_parity_ok: bool
) -> Classification:
    """Dispatch to the per-state classification (paper Table 2)."""
    if dfh is Dfh.STABLE_0:
        return classify_b00(sp_mismatches)
    if dfh is Dfh.INITIAL:
        return classify_b01(sp_mismatches, syndrome_zero, global_parity_ok)
    if dfh is Dfh.STABLE_1:
        return classify_b10(sp_mismatches, syndrome_zero, global_parity_ok)
    raise ValueError("disabled lines are never accessed (Table 2 last row)")


# -- precomputed classification table --------------------------------------
#
# Table 2 is tiny: 3 accessible DFH states x 3 segmented-parity buckets
# (0 / 1 / 2-or-more mismatches) x 2 syndrome values x 2 global-parity
# values.  The table below enumerates every cell *through the reference
# functions above*, so it cannot drift from the row-by-row encoding —
# it is a lookup-speed view, not a re-implementation.  It is indexed
# ``[dfh][min(sp_mismatches, 2)][syndrome_zero][global_parity_ok]`` and
# holds the (interned, frozen) ``Classification`` instances, so the
# per-access dispatch runs without any branch chain.

_TABLE = [
    [
        [
            [classify(dfh, sp, syn, gp) for gp in (False, True)]
            for syn in (False, True)
        ]
        for sp in range(3)
    ]
    for dfh in (Dfh.STABLE_0, Dfh.INITIAL, Dfh.STABLE_1)
]


def classify_cached(
    dfh: int, sp_mismatches: int, syndrome_zero: bool, global_parity_ok: bool
) -> Classification:
    """Table-lookup form of :func:`classify` (identical by construction).

    Accepts a plain-int ``dfh`` and returns the interned
    :class:`Classification` the reference dispatch would build — no
    enum identity checks, no dataclass allocation.
    """
    if dfh == 3:
        raise ValueError("disabled lines are never accessed (Table 2 last row)")
    sp = sp_mismatches if sp_mismatches < 2 else 2
    return _TABLE[dfh][sp][syndrome_zero][global_parity_ok]
