"""The Killi scheme family + the experiment-axis scheme factory.

The scheme axis of every experiment resolves through
:data:`~repro.scenario.registries.SCHEME_REGISTRY`:

- the four MBIST-based names (``baseline``, ``dected``, ``flair``,
  ``msecc``) self-register from :mod:`repro.baselines`;
- this module registers the parameterised **Killi family** —
  ``killi_1:<ratio>`` (SECDED ECC cache) and
  ``killi+<code>_1:<ratio>`` (strong ECC-cache code, e.g.
  ``killi+olsc-t11_1:8`` for Section 5.5) — whose name grammar is
  parsed exactly once, here, by the registered family parser;
- third-party schemes register their own names without touching any
  harness module.

:func:`make_scheme` and :func:`scheme_names` are the historical
harness entry points, reimplemented on top of the registry (and
re-exported unchanged from :mod:`repro.harness.runner`).  Malformed
names of any shape raise ``KeyError`` naming the offending string —
``killi_1:abc`` no longer leaks a bare ``ValueError`` from ``int()``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, List, Optional

from repro.core import KilliConfig, KilliScheme, KilliWriteBackScheme
from repro.core.policy import StrongCodePolicy
from repro.ecc.registry import CODE_REGISTRY
from repro.scenario.registries import (
    SCHEME_REGISTRY,
    SchemeBuildContext,
    SchemeFactory,
)

__all__ = [
    "KILLI_RATIOS",
    "LV_VOLTAGE",
    "STRONG_CODES",
    "STRONG_RATIOS",
    "make_scheme",
    "scheme_names",
    "resolve_scheme",
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

_KILLI_FIELDS = {f.name for f in fields(KilliConfig)}


# -- the Killi family ---------------------------------------------------------


def _build_killi(factory: SchemeFactory, ctx: SchemeBuildContext):
    ratio = factory.params["ecc_ratio"]
    code = factory.params["code"]
    config = KilliConfig(ecc_ratio=ratio, **ctx.overrides)
    rng = ctx.rngs.stream(f"killi-mask/{ratio}")
    if ctx.write_back:
        if code is not None:
            raise ValueError("write-back strong-code Killi is not modelled")
        return KilliWriteBackScheme(
            ctx.geometry, ctx.fault_map, ctx.voltage, config, rng=rng
        )
    return KilliScheme(
        ctx.geometry, ctx.fault_map, ctx.voltage, config, rng=rng, code=code
    )


def _check_killi_options(
    factory: SchemeFactory, overrides: dict, write_back: bool, gpu_config
):
    unknown = sorted(set(overrides) - (_KILLI_FIELDS - {"ecc_ratio"}))
    if unknown:
        raise ValueError(
            f"unknown KilliConfig override(s) {unknown} for {factory.name!r}; "
            f"known: {sorted(_KILLI_FIELDS - {'ecc_ratio'})}"
        )
    if write_back and factory.params["code"] is not None:
        raise ValueError("write-back strong-code Killi is not modelled")
    # The config checks its own values; the ECC-cache shape needs the L2.
    try:
        config = KilliConfig(ecc_ratio=factory.params["ecc_ratio"], **overrides)
        config.ecc_entries(gpu_config.l2.n_lines)
        if factory.params["code"] is not None:
            StrongCodePolicy.check(config)
    except ValueError as error:
        raise ValueError(f"scheme.config: {error}") from None


def _parse_killi(name: str) -> Optional[SchemeFactory]:
    """Family parser: decode ``killi[_1:<r>]`` / ``killi+<code>_1:<r>``.

    Returns ``None`` for names outside the family; raises
    ``KeyError(name)`` for malformed in-family names (the one
    consistent error type for every bad scheme name).
    """
    if not name.startswith("killi"):
        return None
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
    return SchemeFactory(
        name,
        kind="killi",
        scheme_class=KilliScheme,
        params={"ecc_ratio": ratio, "code": code},
        accepts_overrides=True,
        builder=_build_killi,
        validate_options=_check_killi_options,
    )


def _enumerate_killi() -> Iterable[str]:
    """Canonical family instances for ``SCHEME_REGISTRY.names()``.

    Covers the Figure 4/5 SECDED sweep and the Section 5.5 / Table 4
    strong-code variants, so CLI ``--schemes`` filtering can name them.
    """
    for ratio in KILLI_RATIOS:
        yield f"killi_1:{ratio}"
    for code in STRONG_CODES:
        for ratio in STRONG_RATIOS:
            yield f"killi+{code}_1:{ratio}"


SCHEME_REGISTRY.register_family(
    _parse_killi, enumerate=_enumerate_killi, label="killi"
)


# -- historical entry points, now registry-backed ----------------------------


def resolve_scheme(name: str) -> SchemeFactory:
    """The registered factory for ``name`` (KeyError on unknown names)."""
    return SCHEME_REGISTRY.resolve(name)


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

    Recognised names: everything in ``SCHEME_REGISTRY`` — the four
    baselines, the Killi family, and any third-party registration.
    ``scheme_config`` overrides :class:`~repro.core.KilliConfig`
    fields (ablation switches); ``write_back`` swaps in the
    write-back Killi variant.  Both only apply to Killi schemes.
    """
    factory = SCHEME_REGISTRY.resolve(name)
    ctx = SchemeBuildContext(
        gpu_config=gpu_config,
        fault_map=fault_map,
        voltage=voltage,
        rngs=rngs,
        overrides=dict(scheme_config or {}),
        write_back=write_back,
    )
    return factory.build(ctx)


def scheme_names(
    ratios: Iterable[int] = KILLI_RATIOS,
    strong_codes: Iterable[str] = (),
    strong_ratio: int = 8,
) -> List[str]:
    """The Figure 4/5 scheme axis, baseline first.

    ``strong_codes`` appends the ``killi+<code>_1:<strong_ratio>``
    strong-code variants (Section 5.5) — e.g.
    ``scheme_names(strong_codes=("olsc-t11",))``.  The full registry
    enumeration is ``SCHEME_REGISTRY.names()``.
    """
    return (
        ["baseline", "dected", "flair", "msecc"]
        + [f"killi_1:{r}" for r in ratios]
        + [f"killi+{code}_1:{strong_ratio}" for code in strong_codes]
    )
