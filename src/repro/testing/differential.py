"""The differential executor: the oracle for simulator equivalence.

One scenario, both simulators, one canonical diff.
:func:`run_scenario` builds the cell the harness builds
(:func:`~repro.harness.runner.build_cell`: same fault-map stream,
same trace, same per-cell RNG namespace) but keeps the simulator so
the full observable state can be captured via
:meth:`~repro.gpu.engine.GpuSimulator.state_snapshot`:
cycles, per-CU cycles, every ``CacheStats`` counter of the L2 and all
L1s, tag/LRU/dirty/disabled state, DFH state, transition counts,
ECC-cache counters, line error vectors, memory traffic and the shared
RNG stream position.

:func:`diff_scenario` runs the scenario through the reference
simulator (the scalar engine on the object substrate) and through the
batched engine (on the struct-of-arrays substrate), and reports the
first mismatch as a :class:`Divergence`.  An exception raised by the
candidate is *also* a divergence (a crash in one engine is the
strongest possible disagreement).  ``plant`` hooks inject a deliberate
fault into the candidate run only — the self-test that proves the
oracle can see.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.scenario.config import ScenarioConfig, as_scenario

__all__ = [
    "COMBOS",
    "REFERENCE",
    "PLANTS",
    "Observation",
    "Divergence",
    "run_scenario",
    "diff_scenario",
    "snapshot_diff",
    "last_context",
]

#: The engines diffed against the reference.
COMBOS: tuple = ("batched",)

#: The reference engine: the per-round Python loop over per-line
#: object state.
REFERENCE: str = "scalar"

# Last scenario/engine handed to ``run_scenario`` — surfaced by
# ``tests/conftest.py`` on failure so a crashing fuzz case prints its
# fingerprint, seed and TOML without any bookkeeping in the test.
_LAST: Optional[dict] = None


def last_context() -> Optional[dict]:
    """Fingerprint/seed/TOML of the most recent differential run."""
    return _LAST


def _label(engine: str) -> str:
    from repro.gpu.engine import substrate_of

    return f"{engine}×{substrate_of(engine)}"


@dataclass
class Observation:
    """One simulator's full observable outcome for one scenario."""

    engine: str
    substrate: str
    cycles: int
    instructions: int
    per_cu_cycles: List[int]
    snapshot: dict
    digest: str


@dataclass
class Divergence:
    """A simulator that disagreed with the reference."""

    scenario: ScenarioConfig
    reference: str
    combo: str
    paths: List[str] = field(default_factory=list)
    ref_digest: str = ""
    digest: str = ""
    error: str = ""

    def describe(self) -> str:
        head = (
            f"{_label(self.combo)} diverges from {_label(self.reference)} "
            f"on scenario {self.scenario.fingerprint()[:12]} "
            f"(workload={self.scenario.workload.name}, "
            f"scheme={self.scenario.scheme.name}, "
            f"seed={self.scenario.fault.seed})"
        )
        if self.error:
            return f"{head}\n  raised: {self.error}"
        shown = "\n".join(f"  {path}" for path in self.paths[:12])
        more = len(self.paths) - 12
        if more > 0:
            shown += f"\n  ... and {more} more"
        return f"{head}\n{shown}"


def _canonical_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_scenario(
    scenario,
    engine: Optional[str] = None,
    plant: Optional[Callable] = None,
) -> Observation:
    """Execute one scenario on one simulator; keep everything.

    Builds the cell with :func:`~repro.harness.runner.build_cell`, the
    construction :func:`~repro.harness.runner.run_cell` runs, so the
    oracle fuzzes the model the harness simulates.  ``plant`` is called
    with the constructed :class:`~repro.gpu.engine.GpuSimulator` before
    the kernel runs — the deliberate-fault hook.
    """
    from repro.harness.runner import build_cell

    scenario = as_scenario(scenario)
    engine = engine if engine is not None else scenario.engine.engine
    _set_last_context(scenario, engine)
    trace, simulator = build_cell(scenario, engine)
    if plant is not None:
        plant(simulator)
    result = simulator.run(trace)
    snapshot = simulator.state_snapshot()
    snapshot["cycles"] = result.cycles
    snapshot["instructions"] = result.instructions
    snapshot["per_cu_cycles"] = [int(c) for c in result.per_cu_cycles]
    return Observation(
        engine=engine,
        substrate=simulator.l2.substrate,
        cycles=result.cycles,
        instructions=result.instructions,
        per_cu_cycles=[int(c) for c in result.per_cu_cycles],
        snapshot=snapshot,
        digest=_canonical_digest(snapshot),
    )


def diff_scenario(
    scenario,
    combos: Sequence[str] = COMBOS,
    reference: str = REFERENCE,
    plant: Optional[Callable] = None,
) -> Optional[Divergence]:
    """Run every candidate engine and report the first disagreement, or None.

    The reference always runs *unplanted*; ``plant`` fires only in the
    candidates, so a planted fault is guaranteed to surface as a
    divergence rather than cancelling out.
    """
    scenario = as_scenario(scenario)
    ref = run_scenario(scenario, reference)
    for engine in combos:
        if engine == reference and plant is None:
            continue
        try:
            obs = run_scenario(scenario, engine, plant=plant)
        except Exception:
            return Divergence(
                scenario=scenario,
                reference=reference,
                combo=engine,
                ref_digest=ref.digest,
                error=traceback.format_exc(limit=8),
            )
        if obs.digest != ref.digest:
            return Divergence(
                scenario=scenario,
                reference=reference,
                combo=engine,
                paths=snapshot_diff(ref.snapshot, obs.snapshot),
                ref_digest=ref.digest,
                digest=obs.digest,
            )
    return None


def snapshot_diff(a, b, path: str = "", limit: int = 64) -> List[str]:
    """Key paths where two snapshots differ (``ref=... got=...``)."""
    out: List[str] = []
    _walk_diff(a, b, path, out, limit)
    return out


def _walk_diff(a, b, path: str, out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}/{key}"
            if key not in a:
                out.append(f"{sub}: only in candidate")
            elif key not in b:
                out.append(f"{sub}: only in reference")
            else:
                _walk_diff(a[key], b[key], sub, out, limit)
            if len(out) >= limit:
                return
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length ref={len(a)} got={len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk_diff(x, y, f"{path}[{i}]", out, limit)
            if len(out) >= limit:
                return
    elif a != b:
        out.append(f"{path}: ref={a!r} got={b!r}")


def _set_last_context(scenario: ScenarioConfig, engine: str) -> None:
    from repro.gpu.engine import substrate_of

    global _LAST
    _LAST = {
        "fingerprint": scenario.fingerprint(),
        "seed": scenario.fault.seed,
        "workload": scenario.workload.name,
        "scheme": scenario.scheme.name,
        "engine": engine,
        "substrate": substrate_of(engine),
        "toml": scenario.to_toml(header="last differential scenario"),
    }


# -- deliberate-fault hooks ---------------------------------------------------


def _plant_disable_way(simulator) -> None:
    """Disable way 0 of every L2 set before the kernel runs.

    The cheapest observable perturbation: the first fill into any set
    lands in way 1 instead of way 0, so a single L2 miss anywhere
    diverges the tag snapshot — which is what lets the shrinker take a
    planted case down to a one-access reproducer.
    """
    tags = simulator.l2.tags
    for set_index in range(simulator.l2.geometry.n_sets):
        tags.disable(set_index, 0)


def _plant_drop_write(simulator) -> None:
    """Make L2 write hits leave the line's error row as it was.

    Drops the masking re-roll a store makes on a faulty line, on every
    path that makes it: ``KilliScheme.on_write_hit`` and the batched
    Killi interpreter both go through ``write_hit_row``.  Schemes
    without an error model (the MBIST oracles) are left alone.
    """
    errors = getattr(simulator.l2.scheme, "errors", None)
    if errors is not None:
        errors.write_hit_row = lambda line_id, row: row


#: Named fault-injection hooks for ``repro fuzz --plant`` and the
#: oracle self-tests.
PLANTS = {
    "disable-way": _plant_disable_way,
    "drop-write-hook": _plant_drop_write,
}
