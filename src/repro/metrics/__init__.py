"""Unified metrics namespace.

:mod:`repro.metrics.telemetry` holds the :class:`Metrics` counters +
timers sink and its process-wide :data:`METRICS` instance.  Off by
default; enable with ``METRICS.enable()``, the CLI ``--telemetry``
flag, or the ``REPRO_TELEMETRY`` environment variable.
"""

from __future__ import annotations

from repro.metrics.telemetry import METRICS, Metrics, TELEMETRY_ENV

__all__ = [
    "Metrics",
    "METRICS",
    "TELEMETRY_ENV",
]
