"""Result containers for the performance experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.harness.runner import CellResult

__all__ = ["PerformanceMatrix"]


@dataclass
class PerformanceMatrix:
    """All (workload, scheme) results of one Figure 4/5 run.

    ``points[workload][scheme]`` holds the cell's
    :class:`~repro.harness.runner.CellResult`; the baseline scheme name
    is used for normalisation.
    """

    baseline: str = "baseline"
    points: Dict[str, Dict[str, CellResult]] = field(default_factory=dict)

    def add(self, cell: CellResult) -> None:
        self.points.setdefault(cell.workload, {})[cell.scheme] = cell

    def workloads(self):
        return list(self.points)

    def schemes(self):
        seen = []
        for per_workload in self.points.values():
            for scheme in per_workload:
                if scheme not in seen:
                    seen.append(scheme)
        return seen

    def normalized_time(self, workload: str, scheme: str) -> float:
        """Figure 4's metric: cycles normalized to the fault-free baseline."""
        base = self.points[workload][self.baseline].cycles
        return self.points[workload][scheme].cycles / base

    def mpki(self, workload: str, scheme: str) -> float:
        """Figure 5's metric."""
        return self.points[workload][scheme].l2_mpki

    def extra_memory_frac(self, workload: str, scheme: str) -> float:
        """Extra memory reads over baseline (power-model input)."""
        base = self.points[workload][self.baseline].memory_reads
        if base == 0:
            return 0.0
        return self.points[workload][scheme].memory_reads / base - 1.0

    def fig4_table(self) -> str:
        """Render the Figure 4 matrix as text."""
        schemes = self.schemes()
        rows = [
            [workload] + [f"{self.normalized_time(workload, s):.4f}" for s in schemes]
            for workload in self.workloads()
        ]
        return format_table(
            ["workload"] + schemes, rows, title="Figure 4: normalized execution time"
        )

    def fig5_table(self) -> str:
        """Render the Figure 5 matrix as text."""
        schemes = self.schemes()
        rows = [
            [workload] + [f"{self.mpki(workload, s):.2f}" for s in schemes]
            for workload in self.workloads()
        ]
        return format_table(
            ["workload"] + schemes, rows, title="Figure 5: L2 MPKI"
        )
