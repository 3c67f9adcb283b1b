"""CSV export for experiment results.

Every runner in :mod:`repro.harness.experiments` returns plain data;
these helpers serialise them so results can be archived (see
``results/``) or plotted externally.
"""

from __future__ import annotations

import csv
import io
from typing import Mapping

from repro.harness.results import PerformanceMatrix

__all__ = [
    "series_to_csv",
    "nested_table_to_csv",
    "matrix_to_csv",
    "write_csv",
]


def series_to_csv(data: Mapping, x_key: str = "voltage") -> str:
    """Serialise a {series_name: [values]} dict (fig1/fig2/fig6 shape)."""
    keys = [x_key] + [k for k in data if k != x_key]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(keys)
    for row in zip(*(data[k] for k in keys)):
        writer.writerow(row)
    return out.getvalue()


def nested_table_to_csv(data: Mapping, row_label: str = "row") -> str:
    """Serialise a {row: {column: value}} dict (table4/table5 shape)."""
    rows = list(data)
    columns: list = []
    for row in rows:
        for column in data[row]:
            if column not in columns:
                columns.append(column)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([row_label] + columns)
    for row in rows:
        writer.writerow([row] + [data[row].get(c, "") for c in columns])
    return out.getvalue()


def matrix_to_csv(matrix: PerformanceMatrix) -> str:
    """Serialise a Figure 4/5 matrix: one row per (workload, scheme)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["workload", "scheme", "cycles", "normalized_time", "instructions",
         "l2_misses", "mpki", "error_induced_misses",
         "ecc_evict_invalidations", "memory_reads", "memory_writes"]
    )
    for workload in matrix.workloads():
        for scheme, point in matrix.points[workload].items():
            writer.writerow([
                workload, scheme, point.cycles,
                f"{matrix.normalized_time(workload, scheme):.6f}",
                point.instructions, point.l2_misses, f"{point.mpki:.4f}",
                point.error_induced_misses, point.ecc_evict_invalidations,
                point.memory_reads, point.memory_writes,
            ])
    return out.getvalue()


def write_csv(path: str, content: str) -> None:
    """Write serialised CSV content to ``path``."""
    with open(path, "w", newline="") as handle:
        handle.write(content)
