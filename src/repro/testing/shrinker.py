"""Greedy scenario shrinker: from a fuzzed divergence to a tiny reproducer.

Given a scenario on which some predicate holds (normally "the
differential executor sees a divergence"), :func:`shrink` applies
size-reducing transformations — fewer CUs, fewer accesses, a smaller
cache geometry, a simpler scheme — keeping each change only while the
predicate still holds, until a fixpoint.  The result is written out as
a commit-ready ``.toml`` under ``tests/testing/repros/`` by
:func:`write_reproducer`; everything committed there is replayed by
``tests/testing/test_repros.py`` on every CI run (under
``REPRO_CHECK_INVARIANTS=1``), so a shrunk reproducer is a permanent
regression test the moment it lands.
"""

from __future__ import annotations

import os
from typing import Callable, Tuple

from repro.scenario.config import ScenarioConfig, as_scenario

__all__ = [
    "DEFAULT_REPRO_DIR",
    "total_accesses",
    "shrink",
    "write_reproducer",
]

#: Where committed reproducers live, relative to the repo root.
DEFAULT_REPRO_DIR = os.path.join("tests", "testing", "repros")


def total_accesses(scenario: ScenarioConfig) -> int:
    """The scenario's size in total trace accesses."""
    return scenario.gpu.n_cus * scenario.workload.accesses_per_cu


def shrink(
    scenario,
    interesting: Callable[[ScenarioConfig], bool],
    max_rounds: int = 8,
) -> ScenarioConfig:
    """Greedily minimize ``scenario`` while ``interesting`` stays true.

    ``interesting`` must be deterministic; candidates that fail
    validation or make the predicate raise are simply rejected.
    Raises ``ValueError`` if the input scenario is not interesting in
    the first place (nothing to shrink).
    """
    current = as_scenario(scenario)
    if not interesting(current):
        raise ValueError("scenario is not interesting; nothing to shrink")

    def attempt(candidate: ScenarioConfig) -> bool:
        nonlocal current
        try:
            candidate.validate()
            ok = bool(interesting(candidate))
        except Exception:
            return False
        if ok:
            current = candidate
        return ok

    for _ in range(max_rounds):
        before = current
        _shrink_cus(attempt, lambda: current)
        _shrink_accesses(attempt, lambda: current)
        _shrink_geometry(attempt, lambda: current)
        _shrink_knobs(attempt, lambda: current)
        if current == before:
            break
    return current


def _shrink_cus(attempt, current) -> None:
    for n_cus in (1, 2, 4):
        scenario = current()
        if n_cus < scenario.gpu.n_cus:
            candidate = scenario.replace(
                gpu=_replace_gpu(scenario, n_cus=n_cus)
            )
            if attempt(candidate):
                return


def _shrink_accesses(attempt, current) -> None:
    # Halve while interesting, then nibble linearly toward 1.
    while True:
        scenario = current()
        accesses = scenario.workload.accesses_per_cu
        if accesses <= 1:
            return
        half = accesses // 2
        if not attempt(
            scenario.replace(
                workload={
                    "name": scenario.workload.name,
                    "accesses_per_cu": half,
                }
            )
        ):
            break
    for _ in range(8):
        scenario = current()
        accesses = scenario.workload.accesses_per_cu
        if accesses <= 1:
            return
        if not attempt(
            scenario.replace(
                workload={
                    "name": scenario.workload.name,
                    "accesses_per_cu": accesses - 1,
                }
            )
        ):
            return


def _shrink_geometry(attempt, current) -> None:
    # Halve the L2 while it still has at least two sets; banks pin to 1
    # first (a bank count can never exceed the set count).
    while True:
        scenario = current()
        gpu = scenario.gpu
        if gpu.l2_banks != 1 or gpu.model_bank_conflicts:
            if attempt(
                scenario.replace(
                    gpu=_replace_gpu(
                        scenario, l2_banks=1, model_bank_conflicts=False
                    )
                )
            ):
                continue
        n_sets = gpu.l2_size_bytes // (gpu.l2_line_bytes * gpu.l2_associativity)
        if n_sets <= 2:
            break
        if not attempt(
            scenario.replace(
                gpu=_replace_gpu(scenario, l2_size_bytes=gpu.l2_size_bytes // 2)
            )
        ):
            break
    scenario = current()
    if scenario.gpu.l2_associativity > 4:
        gpu = scenario.gpu
        attempt(
            scenario.replace(
                gpu=_replace_gpu(
                    scenario,
                    l2_associativity=4,
                    l2_size_bytes=(
                        gpu.l2_size_bytes * 4 // gpu.l2_associativity
                    ),
                )
            )
        )


def _shrink_knobs(attempt, current) -> None:
    scenario = current()
    if scenario.scheme.name != "baseline" or scenario.scheme.config:
        attempt(
            scenario.replace(
                scheme={
                    "name": "baseline",
                    "write_back": scenario.scheme.write_back,
                }
            )
        )
    scenario = current()
    if scenario.scheme.write_back:
        attempt(
            scenario.replace(
                scheme={
                    "name": scenario.scheme.name,
                    "config": dict(scenario.scheme.config),
                    "write_back": False,
                }
            )
        )


def _replace_gpu(scenario: ScenarioConfig, **overrides):
    from dataclasses import replace

    return replace(scenario.gpu, **overrides)


def write_reproducer(
    scenario: ScenarioConfig,
    out_dir: str = DEFAULT_REPRO_DIR,
    note: str = "",
) -> Tuple[str, str]:
    """Write a shrunk scenario as a committed-ready ``.toml``.

    Returns ``(path, pytest_line)``: the file written (named by the
    scenario fingerprint, so re-shrinking the same divergence is
    idempotent) and the one-line pytest parametrization to cite in the
    commit — the repro is auto-collected by
    ``tests/testing/test_repros.py`` either way.
    """
    os.makedirs(out_dir, exist_ok=True)
    fingerprint = scenario.fingerprint()[:12]
    name = f"repro_{fingerprint}.toml"
    header = (
        "Shrunk divergence reproducer — replayed by "
        "tests/testing/test_repros.py under REPRO_CHECK_INVARIANTS=1."
    )
    if note:
        header += f"\n{note}"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.to_toml(header=header))
    pytest_line = (
        f'pytest.param("{name}", id="{fingerprint}")'
        "  # auto-collected by tests/testing/test_repros.py"
    )
    return path, pytest_line
