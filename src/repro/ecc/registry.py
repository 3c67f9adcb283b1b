"""Named code constructors and checkbit accounting.

A single registry keeps the mapping the rest of the repo uses:

- the simulators build codes by name ("secded", "dected", ...);
- the area model (paper Tables 4, 5, 7) asks for checkbit counts
  without constructing a decoder.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.ecc.base import BlockCode
from repro.ecc.bch import BchCode
from repro.ecc.olsc import OlscCode, olsc_checkbits
from repro.ecc.secded import SecDedCode, secded_checkbits

__all__ = ["CODE_REGISTRY", "make_code", "checkbits_for", "correction_capability"]

#: name -> factory(k) -> BlockCode
CODE_REGISTRY: Dict[str, Callable[[int], BlockCode]] = {
    "secded": lambda k: SecDedCode(k),
    "dected": lambda k: BchCode(k=k, t=2, extended=True),
    "tecqed": lambda k: BchCode(k=k, t=3, extended=True),
    "6ec7ed": lambda k: BchCode(k=k, t=6, extended=True),
    "olsc-t4": lambda k: OlscCode(k=k, t=4),
    "olsc-t8": lambda k: OlscCode(k=k, t=8),
    "olsc-t11": lambda k: OlscCode(k=k, t=11),
}

#: Correction capability (bits) per code name.
_CORRECTS = {
    "secded": 1,
    "dected": 2,
    "tecqed": 3,
    "6ec7ed": 6,
    "olsc-t4": 4,
    "olsc-t8": 8,
    "olsc-t11": 11,
}


def make_code(name: str, k: int = 512) -> BlockCode:
    """Construct the named code for ``k`` data bits."""
    try:
        factory = CODE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown code {name!r}; known: {sorted(CODE_REGISTRY)}"
        ) from None
    return factory(k)


def checkbits_for(name: str, k: int = 512) -> int:
    """Checkbits of the named code without building a decoder.

    >>> checkbits_for("secded")
    11
    >>> checkbits_for("dected")
    21
    >>> checkbits_for("tecqed")
    31
    >>> checkbits_for("6ec7ed")
    61
    """
    if name == "secded":
        return secded_checkbits(k)
    if name in ("dected", "tecqed", "6ec7ed"):
        t = {"dected": 2, "tecqed": 3, "6ec7ed": 6}[name]
        return BchCode(k=k, t=t, extended=True).checkbits
    if name.startswith("olsc-t"):
        return olsc_checkbits(k, int(name[len("olsc-t") :]))
    raise KeyError(f"unknown code {name!r}")


def correction_capability(name: str) -> int:
    """Guaranteed number of correctable bit errors for the named code."""
    return _CORRECTS[name]

