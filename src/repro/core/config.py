"""Killi configuration.

Collects every knob the paper sweeps or calls out as a design choice,
so experiments and ablations are driven from one place.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

from repro.core.layout import LineLayout

__all__ = ["KilliConfig"]


@dataclass(frozen=True)
class KilliConfig:
    """Configuration of the Killi mechanism.

    Parameters
    ----------
    ecc_ratio:
        L2 lines per ECC-cache line; the paper sweeps
        {256, 128, 64, 32, 16} (written "1:256" .. "1:16").
    ecc_assoc:
        ECC cache associativity (Table 3: 4).
    training_segments:
        Parity segments while a line is in DFH b'01 (paper: 16, each
        32 bits wide).
    stable_segments:
        Parity segments for stable lines (paper: 4, each 128 bits).
    train_on_evict:
        Paper Section 4.4: classify b'01 lines when they are evicted,
        not only on hits.  Ablation switch.
    priority_replacement:
        Paper Section 4.4: prefer filling invalid lines in DFH order
        b'01 > b'00 > b'10.  Ablation switch.
    lv_faults_in_ecc_cache:
        Whether the checkbits / extra parity stored in the ECC cache
        are themselves subject to LV faults.  The paper's analytic
        model assumes checkbits can fail; default True.
    inverted_write_training:
        Paper Section 5.6.2's masked-fault mitigation: training
        verifies both the original and the inverted data image, so
        every active fault is observed regardless of masking (a stuck
        cell disagrees with exactly one of the two polarities).
        Eliminates masked-fault SDCs at the cost of an extra write +
        read per training classification.
    interleaved_parity:
        Paper Section 4.1: interleave parity segments so adjacent
        multi-bit soft errors land in different segments.  Ablation
        switch (False = contiguous segments).
    """

    ecc_ratio: int = 64
    ecc_assoc: int = 4
    training_segments: int = 16
    stable_segments: int = 4
    train_on_evict: bool = True
    priority_replacement: bool = True
    lv_faults_in_ecc_cache: bool = True
    inverted_write_training: bool = False
    interleaved_parity: bool = True

    def __post_init__(self):
        # Every field is a positive count or a bool switch; each check
        # names the field, so a bad override fails before any cell runs.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be a bool, got {value!r}")
            elif (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < 1
            ):
                raise ValueError(
                    f"{f.name} must be a positive integer, got {value!r}"
                )
        layout = LineLayout()
        for name in ("training_segments", "stable_segments"):
            value = getattr(self, name)
            if layout.data_bits % value or value > layout.max_parity_bits:
                raise ValueError(
                    f"{name} {value} must divide the {layout.data_bits} data "
                    f"bits and be at most the {layout.max_parity_bits} parity "
                    "bits per line"
                )
        if self.training_segments % self.stable_segments:
            raise ValueError(
                "training_segments must be a multiple of stable_segments"
            )

    def ecc_entries(self, n_l2_lines: int) -> int:
        """Number of ECC-cache entries for a given L2 size."""
        entries = max(n_l2_lines // self.ecc_ratio, self.ecc_assoc)
        if entries % self.ecc_assoc:
            raise ValueError(
                f"ecc_assoc {self.ecc_assoc} must divide the {entries} "
                f"ECC-cache entries of a {n_l2_lines}-line L2 at "
                f"1:{self.ecc_ratio}"
            )
        return entries
