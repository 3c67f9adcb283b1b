"""The experiment-axis scheme names: one table, parsed once.

A scheme name is either one of the four MBIST-characterised names
(``baseline``, ``dected``, ``flair``, ``msecc``) or a **Killi** name:
``killi_1:<ratio>`` (SECDED ECC cache) or ``killi+<code>_1:<ratio>``
(strong ECC-cache code, e.g. ``killi+olsc-t11_1:8`` for Section 5.5).
:func:`resolve_scheme` decodes a name into a :class:`SchemeEntry`
exactly once; :func:`make_scheme` builds from that record.  Malformed
names of any shape raise ``KeyError`` naming the offending string —
``killi_1:abc`` never leaks a bare ``ValueError`` from ``int()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, List, Optional

from repro.baselines import DectedScheme, FlairScheme, MsEccScheme
from repro.cache.hooks import UnprotectedScheme
from repro.core import KilliConfig, KilliScheme, KilliWriteBackScheme
from repro.core.policy import StrongCodePolicy
from repro.ecc.registry import CODE_REGISTRY

__all__ = [
    "KILLI_RATIOS",
    "LV_VOLTAGE",
    "STRONG_CODES",
    "STRONG_RATIOS",
    "SchemeEntry",
    "check_options",
    "known_schemes",
    "make_scheme",
    "resolve_scheme",
    "scheme_names",
]

#: Killi ECC-cache ratios the paper sweeps (Figures 4/5, Table 6).
KILLI_RATIOS = (256, 128, 64, 32, 16)

#: Operating point of all fixed-voltage performance experiments (Table 3).
LV_VOLTAGE = 0.625

#: Strong ECC-cache codes with published Killi variants (Tables 4/7,
#: Section 5.5); any code in :data:`repro.ecc.registry.CODE_REGISTRY`
#: is accepted by the name grammar.
STRONG_CODES = ("dected", "tecqed", "6ec7ed", "olsc-t4", "olsc-t8", "olsc-t11")

#: ECC-cache ratios of the published strong-code variants (Section 5.5
#: sizes Killi 1:8 at 0.600 VDD and 1:2 at 0.575 VDD).
STRONG_RATIOS = (8, 2)

#: The MBIST-characterised names -> (kind, class), in axis order.
_MBIST = {
    "baseline": ("baseline", UnprotectedScheme),
    "dected": ("oracle", DectedScheme),
    "flair": ("oracle", FlairScheme),
    "msecc": ("oracle", MsEccScheme),
}

_KILLI_FIELDS = {f.name for f in fields(KilliConfig)}


@dataclass(frozen=True)
class SchemeEntry:
    """One decoded scheme name.

    ``kind`` is ``"baseline"`` (fault-free), ``"oracle"`` (MBIST plus
    per-line ECC) or ``"killi"``; ``ecc_ratio`` and ``code`` (the
    strong ECC-cache code, ``None`` for SECDED) are set for Killi only.
    """

    name: str
    kind: str
    cls: type
    ecc_ratio: Optional[int] = None
    code: Optional[str] = None


def resolve_scheme(name: str) -> SchemeEntry:
    """Decode ``name`` (``KeyError`` naming it if unknown or malformed)."""
    if name in _MBIST:
        kind, cls = _MBIST[name]
        return SchemeEntry(name, kind, cls)
    if not name.startswith("killi"):
        raise KeyError(f"unknown scheme {name!r}; known: {known_schemes()}")
    malformed = KeyError(f"unknown scheme {name!r}")
    code: Optional[str] = None
    if name.startswith("killi+"):
        head, sep, tail = name.partition("_1:")
        code = head[len("killi+"):]
        if not sep or not code or code not in CODE_REGISTRY:
            raise malformed
    elif name.startswith("killi_1:"):
        tail = name[len("killi_1:"):]
    else:
        raise malformed
    try:
        ratio = int(tail)
    except ValueError:
        raise malformed from None
    if ratio < 1:
        raise malformed
    return SchemeEntry(name, "killi", KilliScheme, ecc_ratio=ratio, code=code)


def _require_plain(entry: SchemeEntry, overrides, write_back: bool) -> None:
    """Reject Killi-only options for a non-Killi scheme."""
    if overrides or write_back:
        raise ValueError(
            f"scheme_config/write_back only apply to Killi schemes, got {entry.name!r}"
        )


def check_options(
    entry: SchemeEntry, overrides: dict, write_back: bool, gpu_config
) -> None:
    """Validate ``entry``'s options for ``gpu_config`` without
    constructing the scheme."""
    if entry.kind != "killi":
        _require_plain(entry, overrides, write_back)
        return
    unknown = sorted(set(overrides) - (_KILLI_FIELDS - {"ecc_ratio"}))
    if unknown:
        raise ValueError(
            f"unknown KilliConfig override(s) {unknown} for {entry.name!r}; "
            f"known: {sorted(_KILLI_FIELDS - {'ecc_ratio'})}"
        )
    if write_back and entry.code is not None:
        raise ValueError("write-back strong-code Killi is not modelled")
    # The config checks its own values; the ECC-cache shape needs the L2.
    try:
        config = KilliConfig(ecc_ratio=entry.ecc_ratio, **overrides)
        config.ecc_entries(gpu_config.l2.n_lines)
        if entry.code is not None:
            StrongCodePolicy.check(config)
    except ValueError as error:
        raise ValueError(f"scheme.config: {error}") from None


def make_scheme(
    name: str,
    gpu_config,
    fault_map,
    voltage: float,
    rngs,
    scheme_config: Optional[dict] = None,
    write_back: bool = False,
):
    """Build a protection scheme by its experiment-axis name.

    ``scheme_config`` overrides :class:`~repro.core.KilliConfig`
    fields (ablation switches); ``write_back`` swaps in the
    write-back Killi variant.  Both only apply to Killi schemes.
    """
    entry = resolve_scheme(name)
    overrides = dict(scheme_config or {})
    geometry = gpu_config.l2
    if entry.kind != "killi":
        _require_plain(entry, overrides, write_back)
        if entry.kind == "baseline":
            return entry.cls()
        return entry.cls(geometry, fault_map, voltage)
    config = KilliConfig(ecc_ratio=entry.ecc_ratio, **overrides)
    rng = rngs.stream(f"killi-mask/{entry.ecc_ratio}")
    if write_back:
        if entry.code is not None:
            raise ValueError("write-back strong-code Killi is not modelled")
        return KilliWriteBackScheme(geometry, fault_map, voltage, config, rng=rng)
    return KilliScheme(geometry, fault_map, voltage, config, rng=rng, code=entry.code)


def scheme_names(
    ratios: Iterable[int] = KILLI_RATIOS,
    strong_codes: Iterable[str] = (),
    strong_ratio: int = 8,
) -> List[str]:
    """The Figure 4/5 scheme axis, baseline first.

    ``strong_codes`` appends the ``killi+<code>_1:<strong_ratio>``
    strong-code variants (Section 5.5) — e.g.
    ``scheme_names(strong_codes=("olsc-t11",))``.
    """
    return (
        list(_MBIST)
        + [f"killi_1:{r}" for r in ratios]
        + [f"killi+{code}_1:{strong_ratio}" for code in strong_codes]
    )


def known_schemes() -> List[str]:
    """Every named variant: the Figure 4/5 axis, then the Section 5.5 /
    Table 4 strong-code variants (other Killi ratios resolve too)."""
    return scheme_names() + [
        f"killi+{code}_1:{ratio}" for code in STRONG_CODES for ratio in STRONG_RATIOS
    ]
