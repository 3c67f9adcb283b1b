"""Unified metrics namespace.

Two halves:

- :mod:`repro.metrics.telemetry` — the :class:`Metrics` counters +
  timers sink and its process-wide :data:`METRICS` instance.  Off by
  default; enable with ``METRICS.enable()``, the CLI ``--telemetry``
  flag, or the ``REPRO_TELEMETRY`` environment variable.
- :mod:`repro.metrics.derived` — pure derived-metric helpers
  (:func:`geomean`, :func:`speedup`) used by the bench harness.
"""

from __future__ import annotations

from repro.metrics.derived import geomean, speedup
from repro.metrics.telemetry import METRICS, Metrics, TELEMETRY_ENV

__all__ = [
    "Metrics",
    "METRICS",
    "TELEMETRY_ENV",
    "geomean",
    "speedup",
]
