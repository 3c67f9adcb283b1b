"""Tests for the unified repro.metrics namespace.

Covers the single process-wide telemetry sink and the derived-metric
helpers the bench harness uses.
"""

import pytest

from repro.metrics import METRICS, geomean, speedup


class TestDeprecationShims:
    """The old module paths are gone; what they guaranteed — one
    process-wide sink, whichever path imports it — stays pinned."""

    def test_single_process_wide_sink(self):
        from repro.metrics.telemetry import METRICS as telemetry_metrics

        assert telemetry_metrics is METRICS


class TestGeomean:
    def test_matches_hand_computation(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([-2.0])


class TestSpeedup:
    def test_ratio_of_paired_times(self):
        assert speedup([4.0, 9.0], [2.0, 3.0]) == pytest.approx(
            geomean([2.0, 3.0])
        )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            speedup([1.0, 2.0], [1.0])
