"""Ablation studies for the design choices DESIGN.md calls out.

Each runner compares Killi with one mechanism toggled; the simulated
ones hand every other keyword (``**campaign``) to
:func:`~repro.harness.runner.run_cells` untouched:

- :func:`ablate_priority_replacement` — the DFH-ordered victim choice
  (paper Section 4.4) vs plain LRU-among-invalid.
- :func:`ablate_eviction_training` — classify-on-evict vs hits-only.
- :func:`ablate_inverted_write_training` — the Section 5.6.2
  masked-fault mitigation on/off (SDC counts).
- :func:`ablate_ecc_ratio` — the ECC-cache size sweep on one workload.
- :func:`ablate_writeback` — write-through vs write-back Killi.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import KilliConfig, KilliScheme
from repro.faults import FaultMap
from repro.harness.runner import LV_VOLTAGE, CellResult, run_cells
from repro.scenario.config import ScenarioConfig, cell_scenario
from repro.utils.rng import RngFactory

__all__ = [
    "ablate_priority_replacement",
    "ablate_eviction_training",
    "ablate_inverted_write_training",
    "ablate_ecc_ratio",
    "ablate_parity_interleaving",
    "ablate_writeback",
]


def _killi_spec(
    workload: str,
    ecc_ratio: int,
    accesses_per_cu: int,
    seed: int,
    overrides: Optional[dict] = None,
    write_back: bool = False,
) -> ScenarioConfig:
    """One (workload, Killi-config) ablation cell."""
    return cell_scenario(
        workload,
        f"killi_1:{ecc_ratio}",
        voltage=LV_VOLTAGE,
        seed=seed,
        accesses_per_cu=accesses_per_cu,
        scheme_config=overrides or {},
        write_back=write_back,
    )


def _summary(cell: CellResult) -> Dict:
    return {
        "cycles": cell.cycles,
        "mpki": cell.l2_mpki,
        "misses": cell.l2_misses,
        "error_induced_misses": cell.l2.get("error_induced_misses", 0),
        "ecc_evict_invalidations": cell.l2.get("ecc_evict_invalidations", 0),
        "sdc_events": cell.sdc_events,
        "dfh": cell.dfh,
    }


def ablate_priority_replacement(
    workload: str = "fft", ecc_ratio: int = 64,
    accesses_per_cu: int = 8000, seed: int = 42, **campaign,
) -> Dict[str, Dict]:
    """Killi's DFH-priority victim selection on vs off."""
    labels = {"priority": True, "plain_lru": False}
    cells = run_cells(
        [
            _killi_spec(workload, ecc_ratio, accesses_per_cu, seed,
                        {"priority_replacement": enabled})
            for enabled in labels.values()
        ],
        **campaign,
    )
    return {label: _summary(cell) for label, cell in zip(labels, cells)}


def ablate_eviction_training(
    workload: str = "fft", ecc_ratio: int = 64,
    accesses_per_cu: int = 8000, seed: int = 42, **campaign,
) -> Dict[str, Dict]:
    """Classify-on-evict (Section 4.4) on vs off."""
    labels = {"train_on_evict": True, "hits_only": False}
    cells = run_cells(
        [
            _killi_spec(workload, ecc_ratio, accesses_per_cu, seed,
                        {"train_on_evict": enabled})
            for enabled in labels.values()
        ],
        **campaign,
    )
    out = {}
    for label, cell in zip(labels, cells):
        summary = _summary(cell)
        summary["trained_fraction"] = 1.0 - (
            (cell.dfh or {}).get("INITIAL", 0) / cell.dfh_lines
        )
        out[label] = summary
    return out


def ablate_inverted_write_training(
    workload: str = "miniamr", ecc_ratio: int = 64,
    accesses_per_cu: int = 8000, seed: int = 42, **campaign,
) -> Dict[str, Dict]:
    """Inverted-write masked-fault mitigation (Section 5.6.2) on vs off."""
    labels = {"inverted": True, "plain": False}
    cells = run_cells(
        [
            _killi_spec(workload, ecc_ratio, accesses_per_cu, seed,
                        {"inverted_write_training": enabled})
            for enabled in labels.values()
        ],
        **campaign,
    )
    return {label: _summary(cell) for label, cell in zip(labels, cells)}


def ablate_ecc_ratio(
    workload: str = "fft", ratios=(256, 64, 16),
    accesses_per_cu: int = 8000, seed: int = 42, **campaign,
) -> Dict[str, Dict]:
    """The paper's own sweep, exposed as an ablation on one workload."""
    cells = run_cells(
        [
            _killi_spec(workload, ratio, accesses_per_cu, seed)
            for ratio in ratios
        ],
        **campaign,
    )
    return {f"1:{ratio}": _summary(cell) for ratio, cell in zip(ratios, cells)}


def ablate_parity_interleaving(
    rate_per_access: float = 0.05,
    accesses: int = 30000,
    seed: int = 42,
) -> Dict[str, Dict]:
    """Interleaved vs contiguous parity under adjacent 2-bit bursts.

    Paper Section 4.1: interleaving exists so that spatially-adjacent
    multi-bit soft errors land in different segments.  With contiguous
    segments a 2-bit burst in a (parity-only) b'00 line falls in one
    segment — even count, invisible — and is served as corrupt data.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.cache.core import WriteThroughCache
    from repro.faults.soft_errors import SoftErrorInjector

    geometry = CacheGeometry(size_bytes=256 * 1024, line_bytes=64, associativity=16)
    out = {}
    for label, interleaved in (("interleaved", True), ("contiguous", False)):
        rngs = RngFactory(seed)
        fault_map = FaultMap(n_lines=geometry.n_lines, rng=rngs.stream("fault-map"))
        scheme = KilliScheme(
            geometry, fault_map, LV_VOLTAGE,
            KilliConfig(ecc_ratio=32, interleaved_parity=interleaved),
            rng=rngs.stream("mask"),
            soft_injector=SoftErrorInjector(
                rate_per_access, burst_pmf={2: 1.0}, rng=rngs.stream("soft")
            ),
        )
        cache = WriteThroughCache(geometry, scheme)
        rng = rngs.stream("traffic")
        addrs = rng.integers(0, geometry.size_bytes * 3 // 2, size=accesses)
        for addr in addrs:
            cache.read(int(addr) & ~63)
        out[label] = {
            "sdc_events": scheme.sdc_events,
            "detected": cache.stats.error_induced_misses,
        }
    return out


def ablate_writeback(
    workload: str = "lulesh", ecc_ratio: int = 64,
    accesses_per_cu: int = 8000, seed: int = 42, **campaign,
) -> Dict[str, Dict]:
    """Write-through Killi vs the write-back extension (Section 5.6.1)."""
    write_through, write_back = run_cells(
        [
            _killi_spec(workload, ecc_ratio, accesses_per_cu, seed,
                        write_back=enabled)
            for enabled in (False, True)
        ],
        **campaign,
    )
    out = {}
    for label, cell in (("write_through", write_through), ("write_back", write_back)):
        summary = _summary(cell)
        summary["memory_writes"] = cell.memory_writes
        out[label] = summary
    out["write_back"]["due_on_dirty"] = write_back.l2.get("due_on_dirty", 0)
    return out
