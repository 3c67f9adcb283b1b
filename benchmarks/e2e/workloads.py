"""The benchmark's workloads: their inputs, one pass of work, and checks.

Each workload is one closed-loop client that runs *passes* back to back.
A pass is one self-contained unit of the job (for ``paper_regen``, one
regeneration of its slice of the paper); pass ``p`` draws fresh inputs
from ``pass_seeds(workload, seed, p)``, so every pass pays the per-input work
(L1-filter memo misses, trace columns) a fresh regeneration pays, and
the same ``--seed`` always yields the same inputs.  The program sees
only the generated cells, through its public entry points and with its
default engine.

Inputs — the fault maps and traces a pass needs — are built before the
pass starts (``build_inputs``) and timed as set-up, not as pass time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from pathlib import Path
from typing import List, Optional, Tuple

from repro.harness import runner
from repro.harness.experiments import run_experiment
from repro.harness.runner import CellResult, scheme_names
from repro.scenario.config import GpuSection, cell_scenario
from repro.scenario.runfile import load_scenario, run_scenario

__all__ = [
    "WORKLOADS",
    "PassOutput",
    "canonical",
    "cell_label",
    "cross_check",
    "pass_seeds",
]

HERE = Path(__file__).resolve().parent

_GPU = GpuSection().to_gpu_config()
N_CUS = _GPU.n_cus
N_LINES = _GPU.l2.n_lines

#: Accesses per CU of the two-cell scalar-engine cross-check.
CROSS_CHECK_ACCESSES = 3000


def cell_label(result) -> str:
    """Stable human-readable name of one cell result."""
    return f"{result.workload}/{result.scheme}@{result.voltage:g}/s{result.seed}"


@dataclasses.dataclass
class PassOutput:
    """What one pass produced.

    ``items`` are the ``(label, output)`` pairs the correctness digest
    covers, in production order.  Everything a check needs is kept
    here, so no check runs inside the timed pass.
    """

    items: List[Tuple[str, object]] = dataclasses.field(default_factory=list)
    matrix: object = None
    analysis: dict = dataclasses.field(default_factory=dict)
    replayed: List[CellResult] = dataclasses.field(default_factory=list)


class _NoTrace:
    """Stands in for a span recorder on untraced passes."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()


def pass_seeds(workload, seed: int, index: int) -> List[int]:
    """Input seeds of pass ``index``: disjoint across passes."""
    offsets = workload.offsets
    return [seed + len(offsets) * index + offset for offset in offsets]


def _build(traces, seeds) -> None:
    """Prebuild fault maps and ``(app, accesses)`` traces for ``seeds``.

    Looked up through ``repro.harness.runner`` at call time, so a traced
    set-up records its spans too.
    """
    for seed in seeds:
        runner.fault_map_for(N_LINES, seed)
        for app, accesses in traces:
            runner.trace_for(app, accesses, N_CUS, seed)


def _cross_pairs(seed, accesses, cells):
    return [
        cell_scenario(app, scheme, voltage=voltage, seed=seed, accesses_per_cu=accesses)
        for app, scheme, voltage in cells
    ]


def cross_check(samples) -> List[str]:
    """Re-run ``samples`` on the scalar reference engine; the default
    engine must give identical results.  Returns problem messages."""
    problems = []
    for scenario in samples:
        scalar = dataclasses.replace(
            scenario, engine=dataclasses.replace(scenario.engine, engine="scalar")
        )
        # Separate campaigns: the engine is not part of the fingerprint,
        # so one campaign would simulate the pair once.
        (default_result,) = runner.run_cells([scenario])
        (scalar_result,) = runner.run_cells([scalar])
        if canonical(default_result) != canonical(scalar_result):
            problems.append(
                f"engine {scenario.engine.engine!r} and the scalar reference "
                f"disagree on {cell_label(default_result)}"
            )
    return problems


def canonical(output):
    """``output`` as digestable data: a cell result without its host
    timing and cache provenance, anything else as is."""
    if not isinstance(output, CellResult):
        return output
    payload = output.to_dict()
    payload.pop("elapsed_s")
    payload.pop("from_cache")
    return payload


class _Workload:
    """Checks a workload does not need default to none."""

    def check_pass(self, out: PassOutput) -> List[str]:
        """Problems in one pass's outputs."""
        return []

    def shape_checks(self, out: PassOutput) -> List[str]:
        """Problems against the paper's shapes (run on pass 0)."""
        return []


# -- paper_regen -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PaperRegen(_Workload):
    """Every EXPERIMENTS.md item, serial, no result cache.

    The Figure 4/5 matrix keeps the paper's full scheme axis on three
    apps at the benchmark suite's scale (6k accesses/CU, as in
    ``benchmarks/conftest.py``): xsbench (read-heavy, capacity edge),
    fft (write-heavy, the most ECC-cache-sensitive) and nekbone
    (compute-bound, Section 5.5's app).  A whole 10-app matrix at the
    stated 30k takes about a minute here, longer than one run.
    """

    apps: Tuple[str, ...] = ("xsbench", "fft", "nekbone")
    schemes: Optional[Tuple[str, ...]] = None  # None: the paper's full axis
    accesses: int = 6000
    sec55_accesses: int = 2000
    softerr_accesses: int = 60000

    name = "paper_regen"
    sec55_app = "nekbone"  # sec55_lower_vmin's default app
    offsets = (0,)
    jobs = 1
    serial_trace = False

    def smoke(self) -> "PaperRegen":
        return dataclasses.replace(
            self,
            apps=("nekbone",),
            schemes=("baseline", "dected", "killi_1:256", "killi_1:16"),
            accesses=1000,
            sec55_accesses=1000,
            softerr_accesses=5000,
        )

    @property
    def accesses_per_pass(self) -> int:
        schemes = len(self.schemes or scheme_names())
        fig4 = len(self.apps) * schemes * self.accesses
        return (fig4 + 4 * self.sec55_accesses) * N_CUS

    def build_inputs(self, seeds) -> None:
        _build(
            [(app, self.accesses) for app in self.apps]
            + [(self.sec55_app, self.sec55_accesses)],
            seeds,
        )

    def run_pass(self, seeds, jobs, journal, workdir, tracer=NO_TRACE) -> PassOutput:
        (seed,) = seeds
        out = PassOutput()

        def analytic(name, **kwargs):
            with tracer.span("analysis"):
                result = run_experiment(name, **kwargs)
            out.analysis[name] = result
            out.items.append((f"analysis:{name}", result))
            return result

        for name in ("fig1", "fig2", "fig6", "table4", "table5", "table7"):
            analytic(name)
        cells = []
        out.matrix = run_experiment(
            "fig4",
            workloads=list(self.apps),
            schemes=list(self.schemes) if self.schemes else None,
            accesses_per_cu=self.accesses,
            seed=seed,
            journal=journal,
            progress=lambda done, total, result: cells.append(result),
        )
        out.items.extend((cell_label(r), r) for r in cells)
        analytic("table6", matrix=out.matrix)
        sec55 = run_experiment(
            "sec55",
            workload=self.sec55_app,
            accesses_per_cu=self.sec55_accesses,
            seed=seed,
            journal=journal,
        )
        out.items.append(("sec55", sec55))
        with tracer.span("softerr"):
            softerr = run_experiment(
                "softerr", accesses=self.softerr_accesses, seed=seed
            )
        out.items.append(("softerr", softerr))
        return out

    def samples(self, seed, accesses=CROSS_CHECK_ACCESSES):
        return _cross_pairs(
            seed,
            accesses,
            [("fft", "killi_1:256", 0.625), ("xsbench", "dected", 0.625)],
        )

    def shape_checks(self, out: PassOutput) -> List[str]:
        """The paper's shapes, with the benchmark suite's tolerances
        (``benchmarks/test_fig4_performance.py``, ``test_table5_area.py``,
        ``test_fig6_coverage.py``)."""
        problems = []
        matrix = out.matrix
        for app in self.apps:
            for scheme in ("dected", "flair", "msecc"):
                norm = matrix.normalized_time(app, scheme)
                if not norm < 1.005:
                    problems.append(
                        f"fig4 {app}/{scheme}: MBIST scheme at {norm:.4f}x "
                        "baseline (paper: within 0.5%)"
                    )
            t256 = matrix.normalized_time(app, "killi_1:256")
            t16 = matrix.normalized_time(app, "killi_1:16")
            if not (t256 < 1.08 and t16 < 1.05 and t16 <= t256 + 0.01):
                problems.append(
                    f"fig4 {app}: Killi 1:256 {t256:.4f}x, 1:16 {t16:.4f}x "
                    "(paper: small, shrinking as the ECC cache grows)"
                )
        ratio = out.analysis["table5"]["killi_1:256"]["ratio"]
        if round(ratio, 2) != 0.51:
            problems.append(f"table5: Killi 1:256 area ratio {ratio:.3f} (paper 0.51)")
        killi = min(out.analysis["fig6"]["killi"])
        if not killi >= 97.0:
            problems.append(f"fig6: Killi coverage {killi:.2f}% (paper >= 97%)")
        return problems


# -- killi_lowv --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class KilliLowV(_Workload):
    """Killi below the SECDED Vmin, where faults are dense.

    Per-access cache work and Killi's per-access semantics dominate and
    MBIST set replay does nothing; fft (30% stores) and xsbench (5%
    stores) push write-heavy and read-heavy streams through the same
    layers.
    """

    apps: Tuple[str, ...] = ("fft", "xsbench", "nekbone", "miniamr")
    schemes: Tuple[str, ...] = ("killi_1:8", "killi_1:64", "killi+olsc-t11_1:8")
    voltages: Tuple[float, ...] = (0.600, 0.6125)
    accesses: int = 1500

    name = "killi_lowv"
    offsets = (0,)
    jobs = 1
    serial_trace = False

    def smoke(self) -> "KilliLowV":
        return dataclasses.replace(
            self, apps=("nekbone",), schemes=("killi_1:64",), accesses=1000
        )

    @property
    def accesses_per_pass(self) -> int:
        cells = len(self.apps) * len(self.schemes) * len(self.voltages)
        return cells * self.accesses * N_CUS

    def build_inputs(self, seeds) -> None:
        _build([(app, self.accesses) for app in self.apps], seeds)

    def run_pass(self, seeds, jobs, journal, workdir, tracer=NO_TRACE) -> PassOutput:
        (seed,) = seeds
        cells = [
            cell_scenario(
                app, scheme, voltage=voltage, seed=seed, accesses_per_cu=self.accesses
            )
            for app in self.apps
            for scheme in self.schemes
            for voltage in self.voltages
        ]
        results = runner.run_cells(cells, jobs=jobs, journal=journal)
        return PassOutput(items=[(cell_label(r), r) for r in results])

    def samples(self, seed, accesses=CROSS_CHECK_ACCESSES):
        return _cross_pairs(
            seed,
            accesses,
            [
                ("nekbone", "killi+olsc-t11_1:8", 0.600),
                ("xsbench", "killi_1:64", 0.6125),
            ],
        )


# -- campaign_many -----------------------------------------------------------


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclasses.dataclass(frozen=True)
class CampaignMany(_Workload):
    """The committed ``campaign_many.toml`` matrix, cold cache then warm.

    Short cells make set-up and the campaign runner dominate: every
    seed needs its own fault map, traces and L1-filter work, and each
    pass runs the process pool and cache writes, then replays the same
    scenario from the cache.  There are no Killi cells, so a Killi-only
    change must leave this workload unchanged.

    The file's ``seeds`` are offsets: pass ``p`` runs seeds
    ``seed + len(seeds) * p + offset``.  Four seeds, because
    ``fault_map_for`` keeps four maps; more would rebuild maps inside
    the timed pass that set-up had already built.
    """

    scenario_file: Path = HERE / "campaign_many.toml"

    name = "campaign_many"
    serial_trace = True

    def smoke(self) -> "CampaignMany":
        return dataclasses.replace(self, scenario_file=HERE / "campaign_smoke.toml")

    @property
    def jobs(self) -> int:
        return min(2, nproc())

    def scenario(self, seeds=None):
        """The scenario file, its seed offsets replaced by ``seeds``."""
        scenario = load_scenario(os.fspath(self.scenario_file))
        if seeds is None:
            return scenario
        matrix = dataclasses.replace(scenario.matrix, seeds=tuple(seeds))
        return dataclasses.replace(scenario, matrix=matrix)

    @property
    def offsets(self) -> Tuple[int, ...]:
        return self.scenario().matrix.seeds

    @property
    def accesses_per_pass(self) -> int:
        scenario = self.scenario()
        cells = len(scenario.expand())
        return cells * scenario.base.workload.accesses_per_cu * N_CUS

    def build_inputs(self, seeds) -> None:
        scenario = self.scenario()
        accesses = scenario.base.workload.accesses_per_cu
        _build([(app, accesses) for app in scenario.matrix.workloads], seeds)

    def run_pass(self, seeds, jobs, journal, workdir, tracer=NO_TRACE) -> PassOutput:
        scenario = self.scenario(seeds)
        cache_dir = os.path.join(workdir, "result-cache")
        computed = run_scenario(
            scenario, jobs=jobs, cache_dir=cache_dir, journal=journal
        )
        replayed = run_scenario(
            scenario, jobs=jobs, cache_dir=cache_dir, journal=journal
        )
        results = [CellResult.from_dict(cell) for cell in computed["cells"]]
        return PassOutput(
            items=[(cell_label(r), r) for r in results],
            replayed=[CellResult.from_dict(cell) for cell in replayed["cells"]],
        )

    def check_pass(self, out: PassOutput) -> List[str]:
        """The replay must come from the cache and equal the run."""
        problems = []
        for (label, fresh), cached in zip(out.items, out.replayed):
            if fresh.from_cache or not cached.from_cache:
                problems.append(f"{label}: cache replay did not hit the cache")
            elif canonical(fresh) != canonical(cached):
                problems.append(f"{label}: cache replay differs from the run")
        return problems

    def samples(self, seed, accesses=CROSS_CHECK_ACCESSES):
        return _cross_pairs(
            seed, accesses, [("nekbone", "flair", 0.625), ("snap", "msecc", 0.625)]
        )



WORKLOADS = {w.name: w for w in (PaperRegen(), KilliLowV(), CampaignMany())}
