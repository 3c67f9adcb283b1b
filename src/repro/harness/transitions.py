"""Power-state-transition experiment — the paper's core motivation.

The introduction's argument against MBIST-based LV schemes: "these
additional MBIST steps are time consuming, resulting in extended boot
time or delayed power state transitions".  This experiment puts a
number on it.

Scenario: a workload runs while the L2 transitions into a low-voltage
power state (and optionally back).  Two strategies:

- **MBIST-based** (FLAIR/DECTED/MS-ECC style): at the transition the
  cache is unavailable for the duration of the MBIST pass — every
  line must be written and read with multiple patterns.  We charge the
  documented cost ``n_lines * mbist_cycles_per_line`` as a stall (and
  the cache restarts cold), then execution continues with the oracle
  fault map.
- **Killi**: the transition is a DFH reset; execution continues
  *immediately* at full bandwidth while classification happens on the
  fly, paying only the gradual training overhead (extra misses).

The interesting output is the total cycles to complete the same work
including the transition, as a function of how often transitions
happen — Killi wins whenever transitions are frequent relative to the
MBIST cost, which is exactly the DVFS-heavy GPU environment the paper
targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.hooks import UnprotectedScheme
from repro.core import KilliConfig
from repro.faults import FaultMap
from repro.gpu import GpuConfig, GpuSimulator
from repro.scenario.schemes import resolve_scheme
from repro.traces import workload_trace
from repro.utils.rng import RngFactory

__all__ = ["TransitionResult", "power_transition_experiment"]

#: MBIST cost per line in cycles: conservative — a handful of
#: write/read pattern passes per line (March-style tests are longer).
MBIST_CYCLES_PER_LINE = 8


@dataclass
class TransitionResult:
    """Outcome of one strategy across the transition scenario."""

    strategy: str
    total_cycles: int
    stall_cycles: int
    execution_cycles: int
    l2_misses: int


def power_transition_experiment(
    workload: str = "lulesh",
    n_transitions: int = 4,
    accesses_per_phase: int = 4000,
    voltage: float = 0.625,
    seed: int = 42,
    mbist_cycles_per_line: int = MBIST_CYCLES_PER_LINE,
    killi_scheme_name: str = "killi_1:64",
    mbist_scheme_name: str = "flair",
) -> dict:
    """Run the transition scenario for Killi vs an MBIST-based scheme.

    The workload is split into ``n_transitions + 1`` phases; between
    phases the L2 enters/leaves the LV state.  Both strategies execute
    identical traffic; they differ in what a transition costs.  The
    contenders are experiment-axis scheme names: any Killi-family name
    for the transition-free side, any oracle (MBIST-trained) scheme for
    the stalling side.
    """
    killi_entry = resolve_scheme(killi_scheme_name)
    if killi_entry.kind != "killi":
        raise ValueError(
            f"killi_scheme_name must be a Killi-family scheme, "
            f"got {killi_scheme_name!r} ({killi_entry.kind})"
        )
    mbist_entry = resolve_scheme(mbist_scheme_name)
    if mbist_entry.kind != "oracle":
        raise ValueError(
            f"mbist_scheme_name must be an MBIST-trained (oracle) scheme, "
            f"got {mbist_scheme_name!r} ({mbist_entry.kind})"
        )
    rngs = RngFactory(seed)
    gpu_config = GpuConfig()
    fault_map = FaultMap(n_lines=gpu_config.l2.n_lines, rng=rngs.stream("fault-map"))
    phases = [
        workload_trace(
            workload, accesses_per_phase, n_cus=gpu_config.n_cus,
            rng=rngs.stream(f"trace/{index}"),
        )
        for index in range(n_transitions + 1)
    ]

    # Reference: fault-free cache, no transitions (for normalisation).
    reference = GpuSimulator(gpu_config, UnprotectedScheme())
    reference_cycles = sum(r.cycles for r in reference.run_kernels(phases))

    # Killi: each transition is a DFH reset; execution continues.
    killi_scheme = killi_entry.cls(
        gpu_config.l2, fault_map, voltage,
        KilliConfig(ecc_ratio=killi_entry.ecc_ratio),
        rng=rngs.stream("mask"), code=killi_entry.code,
    )
    killi_sim = GpuSimulator(gpu_config, killi_scheme)
    killi_cycles = 0
    for index, phase in enumerate(phases):
        if index:
            killi_scheme.change_voltage(voltage)  # reset + relearn
        killi_cycles += killi_sim.run(phase).cycles
    killi = TransitionResult(
        strategy=(
            "killi" if killi_scheme_name == "killi_1:64" else killi_scheme_name
        ),
        total_cycles=killi_cycles,
        stall_cycles=0,
        execution_cycles=killi_cycles,
        l2_misses=killi_sim.l2.stats.misses,
    )

    # MBIST-based (FLAIR-style): each transition stalls for the MBIST
    # pass and restarts the cache cold; execution then proceeds with
    # the oracle fault map.
    mbist_stall = gpu_config.l2.n_lines * mbist_cycles_per_line
    flair_scheme = mbist_entry.cls(gpu_config.l2, fault_map, voltage)
    flair_sim = GpuSimulator(gpu_config, flair_scheme)
    flair_cycles = 0
    stall_total = 0
    for index, phase in enumerate(phases):
        if index:
            flair_sim.l2.reset()  # cold restart after the test pass
            stall_total += mbist_stall
        flair_cycles += flair_sim.run(phase).cycles
    flair = TransitionResult(
        strategy=f"{mbist_scheme_name}+mbist",
        total_cycles=flair_cycles + stall_total,
        stall_cycles=stall_total,
        execution_cycles=flair_cycles,
        l2_misses=flair_sim.l2.stats.misses,
    )

    return {
        "workload": workload,
        "n_transitions": n_transitions,
        "mbist_cycles_per_line": mbist_cycles_per_line,
        "reference_cycles": reference_cycles,
        "killi": killi,
        "flair": flair,
    }
