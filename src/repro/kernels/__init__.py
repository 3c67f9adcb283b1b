"""Fault-pattern classification kernels.

Signature-table implementations of the signal machinery that the
scalar paths in :mod:`repro.core.linestate` and
:mod:`repro.analysis.montecarlo` evaluate one fault at a time:
segmented-parity membership, SECDED syndromes and global parity, as an
XOR-fold of per-offset signatures over one int error row or over whole
error-pattern matrices.
"""

from repro.kernels.classify import LineSignalKernel, RowSignals

__all__ = ["LineSignalKernel", "RowSignals"]
