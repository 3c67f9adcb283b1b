"""Tests for the unified repro.metrics namespace: one process-wide
telemetry sink."""

from repro.metrics import METRICS


class TestDeprecationShims:
    """The old module paths are gone; what they guaranteed — one
    process-wide sink, whichever path imports it — stays pinned."""

    def test_single_process_wide_sink(self):
        from repro.metrics.telemetry import METRICS as telemetry_metrics

        assert telemetry_metrics is METRICS
