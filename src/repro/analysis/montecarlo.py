"""Monte-Carlo validation of the classification-coverage model.

Section 5.3's closed-form coverage rests on combinatorics over fault
patterns; this module estimates the same quantity empirically, by
sampling fault patterns at a voltage and pushing each through the
*real* signal machinery (segmented parity membership + SECDED column
codes).  The test suite checks the two agree, which both validates the
closed form and exercises the signal path on millions of patterns.

Two implementations share the class:

- :meth:`CoverageSampler.estimate` — the default, fully vectorized
  path: fault-offset sets for all draws are sampled by a batched
  Floyd partial-permutation kernel (no per-draw ``rng.choice``), and
  segment parities, SECDED syndromes and the Table-2 decision logic
  are evaluated as packed-bit array expressions via
  :class:`repro.kernels.LineSignalKernel`;
- :meth:`CoverageSampler.estimate_scalar` — the original one-pattern-
  at-a-time loop, kept as the pinned reference.  ``estimate(...,
  scalar_draws=True)`` replays the scalar draw order through the
  batched classifier and is bit-identical to the scalar path for the
  same seed; the default sampler is statistically identical (same
  conditional distribution over fault patterns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import LineLayout
from repro.ecc.secded import SecDedCode
from repro.faults.cell_model import CellFaultModel, FaultMechanism
from repro.faults.line_model import binom_pmf
from repro.kernels.classify import LineSignalKernel
from repro.utils.bitpack import n_words

__all__ = ["CoverageSampler", "CoverageEstimate"]

#: Parity segments used while training (DFH b'01).
_TRAINING_SEGMENTS = 16


@dataclass
class CoverageEstimate:
    """Result of a Monte-Carlo coverage run.

    ``draws`` counts every sampled fault pattern (all conditioned on
    >= 2 faults somewhere in the LV line); ``patterns`` counts the
    subset with >= 2 *codeword* faults — the hazardous patterns that
    were actually classified.  Rates are relative to ``patterns``.
    """

    patterns: int
    """Classified patterns (>= 2 codeword faults)."""

    misclassified: int
    """Patterns whose signals look like 0 or 1 faults (missed)."""

    draws: int
    """Total patterns drawn, including parity-bit-only ones."""

    @property
    def coverage(self) -> float:
        """Fraction of classified patterns handled correctly."""
        if self.patterns == 0:
            return 1.0
        return 1.0 - self.misclassified / self.patterns

    @property
    def failure_rate(self) -> float:
        return self.misclassified / self.patterns if self.patterns else 0.0


class CoverageSampler:
    """Samples fault patterns and classifies them like Killi's training.

    A pattern is *misclassified* when the line has >= 2 codeword
    faults but the training signals (16-segment parity over 33-bit
    segments, SECDED syndrome + global parity) are consistent with 0
    or 1 faults — i.e. Killi would enable a line it should disable.
    """

    def __init__(self, cell_model: CellFaultModel | None = None, freq_ghz: float = 1.0):
        self.cell_model = cell_model if cell_model is not None else CellFaultModel()
        self.freq_ghz = freq_ghz
        self.layout = LineLayout()
        self._secded = SecDedCode(self.layout.data_bits)
        self._kernel = LineSignalKernel(self.layout, self._secded)

    # -- scalar reference ---------------------------------------------------

    def _classify_ok(self, offsets: np.ndarray) -> bool:
        """Does the signal triple reveal the multi-bit pattern?

        Mirrors Table 2's b'01 row outcomes: a pattern is *caught*
        unless it classifies as clean (-> b'00) or as a single
        correctable error (-> b'10).  Scalar reference for the batched
        :meth:`_classify_matrix`.
        """
        layout = self.layout
        segment_flips: dict = {}
        codeword = []
        for offset in offsets:
            offset = int(offset)
            if layout.is_data(offset):
                segment_flips[offset % 16] = segment_flips.get(offset % 16, 0) + 1
                codeword.append(offset)
            elif layout.is_parity(offset):
                index = layout.parity_index(offset)
                segment_flips[index] = segment_flips.get(index, 0) + 1
            else:
                codeword.append(layout.codeword_position(offset))
        sp = sum(1 for count in segment_flips.values() if count & 1)
        syndrome_zero = self._secded.syndrome_of_error_positions(codeword) == 0
        parity_ok = (len(codeword) & 1) == 0

        if sp >= 2:
            return True  # disabled: caught
        if sp == 0 and syndrome_zero and parity_ok:
            return False  # looks clean -> b'00: missed
        if not syndrome_zero and not parity_ok:
            return False  # looks like one error -> b'10: missed
        if sp == 0 and syndrome_zero and not parity_ok:
            return False  # looks like a parity-checkbit error: missed
        if sp == 1 and syndrome_zero and parity_ok:
            return False  # looks like a stuck parity bit: missed
        return True  # inconsistent signals -> disabled: caught

    def estimate_scalar(
        self,
        voltage: float,
        samples: int = 100_000,
        rng: np.random.Generator | None = None,
    ) -> CoverageEstimate:
        """One-pattern-at-a-time reference implementation of :meth:`estimate`.

        Kept verbatim as the pinned scalar path: ``estimate(...,
        scalar_draws=True)`` must reproduce its counts bit-for-bit.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        counts = self._sample_fault_counts(rng, voltage, samples)
        misclassified = 0
        produced = 0
        for count in counts:
            offsets = rng.choice(self.layout.total_bits, size=int(count), replace=False)
            codeword_faults = sum(
                1
                for offset in offsets
                if not self.layout.is_parity(int(offset))
            )
            if codeword_faults < 2:
                continue  # parity-bit-only patterns are not the hazard
            produced += 1
            if not self._classify_ok(offsets):
                misclassified += 1
        return CoverageEstimate(
            patterns=produced, misclassified=misclassified, draws=samples
        )

    # -- vectorized path ----------------------------------------------------

    def _sample_fault_counts(
        self, rng: np.random.Generator, voltage: float, samples: int
    ) -> np.ndarray:
        """Per-draw fault counts, conditioned on >= 2 faults per line."""
        p = self.cell_model.p_cell(voltage, self.freq_ghz, FaultMechanism.COMBINED)
        n_bits = self.layout.codeword_bits + 16  # data+check (+ parity bits)
        return _sample_binomial_at_least_two(rng, n_bits, p, samples)

    def _sample_offsets(
        self, rng: np.random.Generator, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fault-offset sets for every draw, without per-draw ``choice``.

        Vectorized Robert Floyd partial-permutation sampling: to draw a
        ``c``-subset of ``[0, N)``, iterate ``i`` over the last ``c``
        values; pick ``t`` uniform on ``[0, i]`` and insert ``t``, or
        ``i`` if ``t`` is already a member.  The membership test and
        insertion are packed-bit operations, so one loop over the
        *maximum* count covers every draw simultaneously (rows whose
        count is smaller simply start at a later ``i``).  Returns the
        ``(n, k_max)`` offsets matrix and its validity mask.
        """
        total = self.layout.total_bits
        n = len(counts)
        k_max = int(counts.max()) if n else 0
        offsets = np.zeros((n, k_max), dtype=np.int64)
        valid = np.arange(k_max)[None, :] < counts[:, None]
        if n == 0:
            return offsets, valid
        members = np.zeros((n, n_words(total)), dtype=np.uint64)
        rows = np.arange(n)
        one = np.uint64(1)
        for i in range(total - k_max, total):
            active = rows[counts >= total - i]
            draws = rng.integers(0, i + 1, size=len(active))
            bit = one << (draws.astype(np.uint64) & np.uint64(63))
            occupied = (members[active, draws >> 6] & bit) != 0
            chosen = np.where(occupied, i, draws)
            members[active, chosen >> 6] |= one << (
                chosen.astype(np.uint64) & np.uint64(63)
            )
            offsets[active, i - total + counts[active]] = chosen
        return offsets, valid

    def _offsets_from_scalar_draws(
        self, rng: np.random.Generator, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Offset sets drawn exactly like :meth:`estimate_scalar` draws them."""
        total = self.layout.total_bits
        k_max = int(counts.max()) if len(counts) else 0
        offsets = np.zeros((len(counts), k_max), dtype=np.int64)
        valid = np.arange(k_max)[None, :] < counts[:, None]
        for i, count in enumerate(counts):
            offsets[i, : int(count)] = rng.choice(
                total, size=int(count), replace=False
            )
        return offsets, valid

    def _classify_batch(
        self, offsets: np.ndarray, valid: np.ndarray
    ) -> tuple[int, int]:
        """(classified patterns, misclassified patterns) of an offset batch.

        Array-expression form of :meth:`_classify_ok` plus the >= 2
        codeword-fault filter of the estimate loop.
        """
        kernel = self._kernel
        hazardous = kernel.codeword_weights_from_offsets(offsets, valid) >= 2
        offsets = offsets[hazardous]
        valid = valid[hazardous]
        if offsets.shape[0] == 0:
            return 0, 0
        sp, syndrome_zero, parity_ok, _ = kernel.signals_from_offsets(
            offsets, valid, _TRAINING_SEGMENTS, use_ecc=True
        )
        # Table 2 b'01 rows: missed iff the signals are consistent with
        # a clean line, a single correctable error, or a lone flipped
        # parity/checkbit — exactly the False branches of _classify_ok.
        missed = (sp < 2) & (
            (syndrome_zero & parity_ok)
            | (~syndrome_zero & ~parity_ok)
            | ((sp == 0) & syndrome_zero & ~parity_ok)
        )
        return int(offsets.shape[0]), int(np.count_nonzero(missed))

    def estimate(
        self,
        voltage: float,
        samples: int = 100_000,
        rng: np.random.Generator | None = None,
        *,
        scalar_draws: bool = False,
        chunk: int = 16384,
    ) -> CoverageEstimate:
        """Sample ``samples`` multi-fault lines and measure coverage.

        Sampling is conditioned on >= 2 codeword faults (single-fault
        and clean lines are always classified correctly by
        construction), so the returned failure rate is
        ``P[misclassified | >= 2 faults]``; the unconditional Figure 6
        failure probability is that times ``P[>= 2 faults]``.

        With ``scalar_draws=True`` the fault offsets are drawn in the
        exact order :meth:`estimate_scalar` draws them (one
        ``rng.choice`` per pattern), making the result bit-identical
        to the scalar reference for the same seed; the default batched
        sampler draws uniform subsets in one vectorized pass instead.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        counts = self._sample_fault_counts(rng, voltage, samples)
        produced = 0
        misclassified = 0
        for start in range(0, samples, chunk):
            counts_chunk = counts[start : start + chunk]
            if scalar_draws:
                offsets, valid = self._offsets_from_scalar_draws(rng, counts_chunk)
            else:
                offsets, valid = self._sample_offsets(rng, counts_chunk)
            classified, missed = self._classify_batch(offsets, valid)
            produced += classified
            misclassified += missed
        return CoverageEstimate(
            patterns=produced, misclassified=misclassified, draws=samples
        )


def _sample_binomial_at_least_two(
    rng: np.random.Generator, n: int, p: float, size: int
) -> np.ndarray:
    """Binomial(n, p) samples conditioned on the value being >= 2."""
    # Truncated pmf over a generous support.
    support = np.arange(2, min(n, 60) + 1)
    weights = np.array([binom_pmf(n, int(k), p) for k in support])
    total = weights.sum()
    if total <= 0:
        raise ValueError("fault probability too small to condition on >= 2")
    return rng.choice(support, size=size, p=weights / total)
