"""Storage-size helpers.

The paper reports area overheads in bits, bytes and KB; these helpers
keep the conversions in one place so the area model and the harness
agree on formatting.
"""

from __future__ import annotations

__all__ = ["KIB", "MIB", "bits_to_kib", "format_size_bits"]

KIB = 1024
MIB = 1024 * 1024


def bits_to_kib(bits: int) -> float:
    """Bits → KiB."""
    return bits / 8.0 / KIB


def format_size_bits(bits: int) -> str:
    """Human-readable rendering of a bit count.

    >>> format_size_bits(41)
    '41b'
    >>> format_size_bits(8 * 1024 * 10)
    '10.00KiB'
    """
    if bits < 8 * KIB:
        return f"{bits}b"
    return f"{bits / 8.0 / KIB:.2f}KiB"
