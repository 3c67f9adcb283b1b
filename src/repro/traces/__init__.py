"""Synthetic GPGPU workload traces.

The paper evaluates ten proprietary HPC GPGPU binaries on gem5; this
package substitutes parameterised synthetic trace generators (see
DESIGN.md).  Each named workload is a :class:`WorkloadSpec` tuned to
land in the paper's behaviour classes — compute-bound (L2 MPKI < 50)
vs memory-bound (MPKI > 100), capacity-sensitive (XSBench, FFT) vs
insensitive — because Figures 4/5 depend on those classes, not on
application semantics.
"""

from repro.traces.base import CuStream, Trace
from repro.traces.generators import WorkloadSpec, generate_trace
from repro.traces.workloads import (
    WORKLOADS,
    trace_fingerprint,
    workload_names,
    workload_trace,
    workload_trace_memo,
)

__all__ = [
    "CuStream",
    "Trace",
    "WorkloadSpec",
    "generate_trace",
    "WORKLOADS",
    "workload_names",
    "trace_fingerprint",
    "workload_trace",
    "workload_trace_memo",
]
