"""Trace-driven GPU memory-hierarchy model.

Substitutes for the paper's gem5 GCN3 setup (see DESIGN.md).  The
model is an 8-CU GPU (Table 3): each CU issues an in-order stream of
loads/stores interleaved with compute cycles; a private write-through
L1 per CU; a shared, banked, write-through L2 protected by a pluggable
scheme (Killi or a baseline); and a fixed-latency memory.

Killi's performance effects are pure memory-system effects — extra L2
misses from disabled lines, ECC-cache contention and error-induced
refetches — so this substrate exercises exactly the paths the paper
measures, at trace-driven speed.
"""

from repro.gpu.config import GpuConfig
from repro.gpu.engine import GpuSimulator, KernelResult
from repro.gpu.hierarchy import SimpleL1

__all__ = ["GpuConfig", "SimpleL1", "GpuSimulator", "KernelResult"]
