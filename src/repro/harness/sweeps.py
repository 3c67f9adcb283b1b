"""Voltage-sweep performance runner.

Complements the fixed-0.625 Figure 4/5 matrix: runs one workload under
Killi across a range of voltages, reporting the performance overhead,
the disabled-capacity fraction, and the power saving at each point —
the Vmin trade-off curve an adopter would actually consult.

The per-voltage cells go through :mod:`repro.harness.runner`, so the
sweep parallelises (``jobs``), caches (``cache_dir``) and journals like
every other campaign.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.analysis.power import PowerModel
from repro.gpu import GpuConfig
from repro.harness.runner import fault_map_for, run_cells
from repro.scenario.config import cell_scenario

__all__ = ["voltage_sweep"]


def voltage_sweep(
    voltages: Iterable[float] = (0.7, 0.675, 0.65, 0.625, 0.615),
    workload: str = "lulesh",
    ecc_ratio: int = 64,
    accesses_per_cu: int = 5000,
    seed: int = 42,
    **campaign,
) -> Dict[float, Dict]:
    """Killi's overhead/capacity/power across operating voltages.

    Returns ``{voltage: {"normalized_time", "mpki", "disabled_fraction",
    "power_pct"}}``.  Voltages below the fault-map floor are rejected
    with :class:`ValueError` before any simulation runs.  ``campaign``
    passes through to :func:`~repro.harness.runner.run_cells`.
    """
    voltages = list(voltages)
    gpu_config = GpuConfig()
    fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
    below = sorted(v for v in voltages if v < fault_map.floor_voltage)
    if below:
        raise ValueError(
            f"voltages {below} are below the fault-map floor "
            f"{fault_map.floor_voltage}"
        )

    scheme = f"killi_1:{ecc_ratio}"
    specs = [
        cell_scenario(
            workload,
            "baseline",
            voltage=fault_map.floor_voltage,
            seed=seed,
            accesses_per_cu=accesses_per_cu,
        )
    ] + [
        cell_scenario(
            workload,
            scheme,
            voltage=voltage,
            seed=seed,
            accesses_per_cu=accesses_per_cu,
        )
        for voltage in voltages
    ]
    cells = run_cells(specs, **campaign)
    baseline, killi_cells = cells[0], cells[1:]
    power_model = PowerModel()

    out: Dict[float, Dict] = {}
    for voltage, cell in zip(voltages, killi_cells):
        out[voltage] = {
            "normalized_time": cell.cycles / baseline.cycles,
            "mpki": cell.l2_mpki,
            "disabled_fraction": cell.disabled_fraction,
            "power_pct": power_model.scheme_power(
                "killi", voltage, ecc_ratio=ecc_ratio
            ),
        }
    return out
