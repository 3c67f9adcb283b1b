"""Killi's decision rules: what a read hit or an eviction does to a line.

A rule maps (DFH state, slot, int error row) to a decision.  The row
is the line's effective error vector as a Python int (bit ``o`` is LV
offset ``o``, 0 means clean — see :mod:`repro.core.linestate`), and
each rule reads only what its ECC-cache code can observe of it:

- :class:`Table2Policy` — paper Table 2 for the SECDED ECC cache,
  classified from the (segmented parity, syndrome, global parity)
  signals through :func:`repro.core.dfh.classify_cached`;
- :class:`StrongCodePolicy` — the Sections 5.2/5.5 variant whose ECC
  cache stores a ``t``-error-correcting code (DECTED, OLSC, ...):
  b'10 means "1..t faults", and lines with more than ``t`` are
  disabled.  The strong code's syndrome machinery counts codeword
  errors up to its detection budget; the codes themselves are
  implemented bit for bit in :mod:`repro.ecc`.

These classes are the only code that knows either rule, and
:data:`PRIORITY_BY_DFH` is the only copy of Section 4.4's fill
priority.  :class:`~repro.core.killi.KilliScheme`'s hooks and the
batched engine's cluster interpreter (:mod:`repro.core.killi_replay`)
both use them and apply the decision to the same cache and scheme
state.

Read-hit decisions are ``(next DFH, outcome, SDC)`` with ``outcome``
one of :data:`CLEAN`, :data:`CORRECTED`, :data:`RETRAIN` or
:data:`DISABLE` and ``SDC`` true when the served data is silently
corrupt (ground truth, not controller-visible).  Eviction decisions —
Section 4.4's eviction training and the classification of a line whose
ECC-cache entry was evicted — are the next DFH state alone.
"""

from __future__ import annotations

from repro.core.dfh import Dfh, DfhAction, classify_cached
from repro.ecc.registry import correction_capability

__all__ = [
    "CLEAN",
    "CORRECTED",
    "RETRAIN",
    "DISABLE",
    "PRIORITY_BY_DFH",
    "PRIORITY_MAX",
    "Table2Policy",
    "StrongCodePolicy",
]

_S0 = int(Dfh.STABLE_0)
_INI = int(Dfh.INITIAL)
_S1 = int(Dfh.STABLE_1)
_DIS = int(Dfh.DISABLED)

#: Read-hit outcomes: serve clean, serve corrected (+1 cycle), or an
#: error-induced miss that invalidates (retrain) or disables the line.
CLEAN, CORRECTED, RETRAIN, DISABLE = range(4)

#: Fill priority per DFH value (paper Section 4.4: b'01 > b'00 > b'10;
#: higher wins among invalid candidate ways).
PRIORITY_BY_DFH = (1, 2, 0, 0)
#: INITIAL's priority is the global maximum, so a victim scan may stop
#: at the first INITIAL way: first-max tie-breaking cannot prefer a
#: later way once the maximum has been seen.
PRIORITY_MAX = max(PRIORITY_BY_DFH)


class Table2Policy:
    """Paper Table 2: SECDED checkbits in the ECC cache.

    Decisions are pure in ``(dfh, row)``, so they are memoised per
    scheme (the owner drops the memo on a reset).  Under inverted
    write training (Section 5.6.2) a b'01 classification also reads
    the slot's active faults, masked or not, so those are not memoised.
    """

    def __init__(self, errors, config):
        self._errors = errors
        self._signals_row = errors.kernel.signals_row
        self._training = config.training_segments
        self._stable = config.stable_segments
        #: Does a b'01 classification observe masked faults?  When it
        #: does, a clean row is not enough to call a b'01 line clean.
        self.sees_masked_faults = config.inverted_write_training
        self._memo: dict = {}

    def clear(self) -> None:
        self._memo.clear()

    def read_hit(self, dfh: int, slot: int, row: int):
        if dfh == _INI and self.sees_masked_faults:
            # The original + inverted read pair observes every active
            # fault; SDCs still follow the data actually served.
            seen = self._errors.predicted_observable_row(slot, row)
            return self._decide(dfh, seen, row)
        key = (dfh, row)
        decision = self._memo.get(key)
        if decision is None:
            decision = self._memo[key] = self._decide(dfh, row, row)
        return decision

    def evicted(self, dfh: int, slot: int, row: int) -> int:
        # The departing contents are classified like a read.
        return self.read_hit(dfh, slot, row)[0]

    def _decide(self, dfh: int, seen: int, row: int):
        # 16-bit parity + SECDED while training, 4-bit parity + SECDED
        # at b'10, 4-bit parity alone at b'00 (its entry is freed).
        segments = self._training if dfh == _INI else self._stable
        sp, syndrome_zero, parity_ok, _ = self._signals_row(
            seen, segments, dfh != _S0
        )
        cls = classify_cached(dfh, sp, syndrome_zero, parity_ok)
        nxt = int(cls.next_dfh)
        if cls.action is DfhAction.ERROR_MISS:
            return nxt, DISABLE if nxt == _DIS else RETRAIN, False
        if cls.action is DfhAction.CORRECT_AND_SEND:
            return nxt, CORRECTED, not self._errors.row_correction_is_sound(row)
        # Corrupt data slipping through clean signals is an SDC (e.g.
        # masked multi-bit faults that unmask in the same segment).
        return nxt, CLEAN, self._errors.row_has_data_errors(row)


class StrongCodePolicy:
    """Sections 5.2/5.5: a ``t``-error-correcting code in the ECC cache.

    Keeps Killi's structure — 16-bit parity while training, 4-bit
    parity afterwards, on-demand checkbits in the ECC cache — but the
    entry's code protects lines with up to ``t`` faults.  Decisions
    are a few mask operations on the row, so nothing is memoised.

    Parameters
    ----------
    code:
        Registry name of the ECC-cache code ("dected", "tecqed",
        "6ec7ed", "olsc-t11", ...); sets the per-line fault budget.
    """

    sees_masked_faults = False

    def __init__(self, errors, config, code: str):
        self.check(config)
        self.correct_t = correction_capability(code)
        kernel = errors.kernel
        self._signals_row = kernel.signals_row
        self._data = kernel.data_mask_int
        self._codeword = kernel.codeword_mask_int
        self._stable = config.stable_segments
        # The first training_segments parity bits.
        self._training_parity = ((1 << config.training_segments) - 1) << (
            errors.layout.parity_offset
        )

    @staticmethod
    def check(config) -> None:
        """Reject the configurations the strong rule does not model."""
        if config.inverted_write_training:
            raise ValueError(
                "inverted_write_training is not modelled for strong-code Killi"
            )

    def clear(self) -> None:
        pass

    def read_hit(self, dfh: int, slot: int, row: int):
        if dfh == _S0:
            # Parity-only protection.  Unlike Table 2, which disables
            # on a multi-segment mismatch, any detected error re-enters
            # training: the stronger code may well still protect the
            # line (e.g. 2 faults under DECTED).
            if self._signals_row(row, self._stable, False)[0]:
                return _INI, RETRAIN, False
            return _S0, CLEAN, (row & self._data) != 0
        if not row:
            return _S0, CLEAN, False
        count = (row & self._codeword).bit_count()
        if count > self.correct_t:
            return _DIS, DISABLE, False
        # Only parity bits wrong is the stuck-parity case: keep strong
        # protection.  1..t codeword errors are corrected.
        return _S1, CORRECTED if count else CLEAN, False

    def evicted(self, dfh: int, slot: int, row: int) -> int:
        count = (row & self._codeword).bit_count()
        if not count and not row & self._training_parity:
            return _S0
        return _S1 if count <= self.correct_t else _DIS
