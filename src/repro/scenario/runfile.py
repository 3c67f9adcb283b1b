"""File-driven experiment runs.

A *scenario file* is a committed ``.toml`` (or ``.json``) document
describing a self-contained, fingerprintable unit of work: a base
:class:`~repro.scenario.config.ScenarioConfig` plus an optional
``[matrix]`` table whose axes (workloads × schemes × voltages × seeds)
expand into the cross-product of cells.  Example::

    schema_version = 1
    name = "fig4-slice"
    description = "Two workloads of the Figure 4/5 matrix"

    [matrix]
    workloads = ["nekbone", "fft"]
    schemes = ["baseline", "killi_1:64"]

    [workload]
    accesses_per_cu = 2000

    [fault]
    voltage = 0.625
    seed = 42

Every cell flows through the same parallel runner and on-disk result
cache as the per-figure harness runners (`repro.harness.runner`), so a
scenario run and the equivalent hand-wired campaign are bit-identical
— the CI ``scenario-roundtrip`` job asserts exactly that.  The
scenario fingerprint (order-independent hash of the expanded cells'
fingerprints) names the unit of work, e.g. for sharding it to a
remote worker or stamping a benchmark JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.scenario import tomlio
from repro.scenario.config import (
    SCHEMA_VERSION,
    FaultSection,
    ScenarioConfig,
)

__all__ = [
    "ScenarioMatrix",
    "Scenario",
    "load_scenario",
    "scenario_fingerprint",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioMatrix:
    """Cross-product axes; an empty axis means "use the base value"."""

    workloads: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()
    voltages: Tuple[float, ...] = ()
    seeds: Tuple[int, ...] = ()

    def __post_init__(self):
        for axis in ("workloads", "schemes", "voltages", "seeds"):
            value = getattr(self, axis)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"[matrix] {axis} must be a list, got {value!r}")
            object.__setattr__(self, axis, tuple(value))

    @classmethod
    def from_dict(cls, data: dict, source: str) -> "ScenarioMatrix":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"{source}: unknown key(s) {unknown} in [matrix]; "
                f"known: {sorted(known)}"
            )
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            f.name: list(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if getattr(self, f.name)
        }


@dataclass(frozen=True)
class Scenario:
    """A named, file-backed experiment: base config + matrix axes."""

    name: str
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    description: str = ""
    matrix: ScenarioMatrix = field(default_factory=ScenarioMatrix)
    source: str = ""

    # -- serialisation ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, source: str = "<dict>") -> "Scenario":
        if not isinstance(data, dict):
            raise ValueError(f"{source}: expected a table at top level")
        data = dict(data)
        name = data.pop("name", None)
        if not name or not isinstance(name, str):
            raise ValueError(f"{source}: scenario files require a 'name' string")
        description = data.pop("description", "")
        matrix = ScenarioMatrix.from_dict(data.pop("matrix", {}), source)
        base = ScenarioConfig.from_dict(data, source=source)
        return cls(
            name=name,
            base=base,
            description=description,
            matrix=matrix,
            source=source,
        )

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"schema_version": SCHEMA_VERSION, "name": self.name}
        if self.description:
            out["description"] = self.description
        matrix = self.matrix.to_dict()
        if matrix:
            out["matrix"] = matrix
        base = self.base.to_dict()
        base.pop("schema_version", None)
        out.update(base)
        return out

    def to_toml(self, header: Optional[str] = None) -> str:
        return tomlio.dumps(self.to_dict(), header=header)

    # -- expansion ----------------------------------------------------------

    def expand(self) -> List[ScenarioConfig]:
        """The cell cross-product, workload-major (the Figure 4/5 order)."""
        base = self.base
        workloads = self.matrix.workloads or (base.workload.name,)
        schemes = self.matrix.schemes or (base.scheme.name,)
        voltages = self.matrix.voltages or (base.fault.voltage,)
        seeds = self.matrix.seeds or (base.fault.seed,)
        cells = []
        for workload in workloads:
            for scheme in schemes:
                for voltage in voltages:
                    for seed in seeds:
                        cells.append(
                            dataclasses.replace(
                                base,
                                workload=dataclasses.replace(
                                    base.workload, name=workload
                                ),
                                scheme=dataclasses.replace(base.scheme, name=scheme),
                                fault=FaultSection(voltage=voltage, seed=seed),
                            )
                        )
        return cells

    def validate(self) -> List[ScenarioConfig]:
        """Expand and validate every cell; returns the validated cells."""
        cells = self.expand()
        for cell in cells:
            cell.validate()
        return cells

    def fingerprint(self) -> str:
        """Order-independent hash over the expanded cells' fingerprints."""
        return scenario_fingerprint(self.expand())


def scenario_fingerprint(cells: Iterable[ScenarioConfig]) -> str:
    """Canonical fingerprint of a set of cells (matrix-order-independent)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "cells": sorted(cell.fingerprint() for cell in cells),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- file I/O -----------------------------------------------------------------


def load_scenario(path: str) -> Scenario:
    """Load a ``.toml`` / ``.json`` scenario file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    source = os.fspath(path)
    if source.endswith(".json"):
        data = json.loads(text)
    else:
        data = tomlio.loads(text)
    return Scenario.from_dict(data, source=source)


# -- execution ----------------------------------------------------------------


def run_scenario(scenario: Scenario, **campaign) -> dict:
    """Execute a scenario through the parallel runner + result cache.

    Returns a JSON-ready summary: scenario identity, fingerprint, and
    one record per cell (full :class:`~repro.harness.runner.CellResult`
    payload including the cell fingerprint).  ``campaign`` (``jobs``,
    ``cache_dir``, ``progress``, ``retries``, ...) passes through to
    :func:`~repro.harness.runner.run_cells`; cells that fail all their
    attempts surface as :class:`~repro.harness.runner.CampaignError`
    after the rest of the scenario has completed.
    """
    from repro.harness.runner import run_cells

    cells = scenario.validate()
    results = run_cells(cells, **campaign)
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "source": scenario.source,
        "schema_version": SCHEMA_VERSION,
        "fingerprint": scenario.fingerprint(),
        "cells": [result.to_dict() for result in results],
    }
