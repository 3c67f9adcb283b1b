"""Per-figure / per-table experiment runners, and the table of them.

Every runner returns plain dict/series data (so tests and benchmarks
can assert on it).  :data:`EXPERIMENTS` declares each item of the
paper's evaluation once — its runner, how it prints and its CSV form —
and the ``killi-experiment`` CLI reads its item names, ``all``,
printing and ``--csv`` from there.  Simulation-based runners accept an
``accesses_per_cu`` scale so benchmarks can run them at reduced size,
and hand every other keyword (``**campaign``) to
:func:`~repro.harness.runner.run_cells` untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.area import AreaModel
from repro.analysis.coverage import CoverageModel
from repro.analysis.power import PowerModel
from repro.core import KilliConfig, KilliScheme
from repro.faults import CellFaultModel, FaultMap, FaultMechanism, LineFaultModel
from repro.harness.results import PerformanceMatrix
from repro.harness.runner import (
    LV_VOLTAGE,
    make_scheme,
    run_cells,
    scheme_names,
)
from repro.scenario.config import cell_scenario
from repro.scenario.schemes import KILLI_RATIOS, resolve_scheme
from repro.traces import workload_names
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "make_scheme",
    "scheme_names",
    "fig1_cell_pfail",
    "fig2_line_distribution",
    "fig4_fig5_performance",
    "fig6_coverage",
    "table4_strong_ecc",
    "table5_area",
    "table6_power",
    "table7_olsc",
    "sec55_lower_vmin",
]


# -- Figure 1 -------------------------------------------------------------------


def fig1_cell_pfail(voltages=None, freqs=(0.4, 1.0)) -> dict:
    """Figure 1: cell failure probability vs normalized voltage.

    Returns one series per (mechanism, frequency).
    """
    if voltages is None:
        voltages = [round(v, 4) for v in np.arange(0.5, 0.775, 0.025)]
    model = CellFaultModel()
    series = {"voltage": list(voltages)}
    for freq in freqs:
        for mechanism in (FaultMechanism.WRITEABILITY, FaultMechanism.READ_DISTURB):
            key = f"{mechanism.value}@{freq:g}GHz"
            series[key] = [model.p_cell(v, freq, mechanism) for v in voltages]
    return series


# -- Figure 2 -------------------------------------------------------------------


def fig2_line_distribution(voltages=None, line_bits: int = 512) -> dict:
    """Figure 2: % of lines with 0 / 1 / 2+ faults vs voltage."""
    if voltages is None:
        voltages = [round(v, 4) for v in np.arange(0.55, 0.725, 0.025)]
    model = LineFaultModel(CellFaultModel(), line_bits=line_bits)
    zero, one, two_plus = [], [], []
    for v in voltages:
        fractions = model.fractions(v)
        zero.append(100.0 * fractions["zero"])
        one.append(100.0 * fractions["one"])
        two_plus.append(100.0 * fractions["two_plus"])
    return {
        "voltage": list(voltages),
        "zero": zero,
        "one": one,
        "two_plus": two_plus,
    }


# -- Figures 4 and 5 --------------------------------------------------------------


def fig4_fig5_performance(
    workloads: Iterable[str] | None = None,
    schemes: Iterable[str] | None = None,
    accesses_per_cu: int = 30000,
    seed: int = 42,
    voltage: float = LV_VOLTAGE,
    engine: str = "batched",
    **campaign,
) -> PerformanceMatrix:
    """Run the Figure 4/5 (workload x scheme) simulation matrix.

    One shared fault map (one chip), one trace per workload, one fresh
    GPU per (workload, scheme) cell.  Cells go through
    :func:`~repro.harness.runner.run_cells`, which takes ``campaign``
    (``jobs``, ``cache_dir``, ``progress``, ``retries``, ...); every
    setting of it is bit-identical to the serial uncached run.
    ``engine`` picks the simulator (``"batched"`` or the ``"scalar"``
    reference); both are pinned bit-equivalent, so it never changes
    the numbers.
    """
    workloads = list(workloads) if workloads is not None else workload_names()
    schemes = list(schemes) if schemes is not None else scheme_names()
    if "baseline" not in schemes:
        schemes = ["baseline"] + schemes
    for scheme in schemes:
        resolve_scheme(scheme)  # fail fast, before any cell simulates
    specs = [
        cell_scenario(
            workload,
            scheme,
            voltage=voltage,
            seed=seed,
            accesses_per_cu=accesses_per_cu,
            engine=engine,
        )
        for workload in workloads
        for scheme in schemes
    ]
    matrix = PerformanceMatrix()
    for cell in run_cells(specs, **campaign):
        matrix.add(cell)
    return matrix


# -- Figure 6 -------------------------------------------------------------------


def fig6_coverage(voltages=None) -> dict:
    """Figure 6: % of lines classified correctly, per technique."""
    if voltages is None:
        voltages = [round(v, 4) for v in np.arange(0.525, 0.675, 0.0125)]
    model = CoverageModel()
    table = model.coverage_table(voltages)
    return {
        key: [100.0 * x for x in values] if key != "voltage" else values
        for key, values in table.items()
    }


# -- Tables -------------------------------------------------------------------


def table4_strong_ecc() -> dict:
    """Table 4: Killi area with DECTED / TECQED / 6EC7ED vs SECDED."""
    return AreaModel().table4()


def table5_area() -> dict:
    """Table 5: area across protection schemes."""
    return AreaModel().table5()


def table6_power(
    matrix: PerformanceMatrix | None = None, voltage: float = LV_VOLTAGE
) -> dict:
    """Table 6: normalized power per technique.

    When a performance matrix is supplied, each scheme's measured
    extra memory traffic (averaged over workloads) feeds the model;
    otherwise the traffic term is zero (its Table 6 contribution is
    fractions of a point).
    """
    model = PowerModel()

    def extra_mem(scheme: str) -> float:
        if matrix is None:
            return 0.0
        values = [
            matrix.extra_memory_frac(w, scheme)
            for w in matrix.workloads()
            if scheme in matrix.points[w]
        ]
        return float(np.mean(values)) if values else 0.0

    out = {
        "dected": model.scheme_power("dected", voltage, extra_memory_frac=extra_mem("dected")),
        "msecc": model.scheme_power("msecc", voltage, extra_memory_frac=extra_mem("msecc")),
        "flair": model.scheme_power("flair", voltage, extra_memory_frac=extra_mem("flair")),
    }
    for ratio in KILLI_RATIOS:
        out[f"killi_1:{ratio}"] = model.scheme_power(
            "killi",
            voltage,
            ecc_ratio=ratio,
            extra_memory_frac=extra_mem(f"killi_1:{ratio}"),
        )
    return out


def table7_olsc() -> dict:
    """Table 7: Killi w/OLSC vs MS-ECC at 0.6 and 0.575 VDD.

    Capacity targets come from the line fault model (% lines with <=11
    faults); Killi's ECC cache is sized 1:8 at 0.6 and 1:2 at 0.575 as
    in the paper.
    """
    area = AreaModel()
    lines = LineFaultModel(CellFaultModel(), line_bits=523)
    return {
        "0.600": {
            "capacity_pct": 100.0 * lines.p_at_most(0.600, 11),
            "killi_vs_msecc": area.table7_killi_vs_msecc(olsc_t=11, ecc_ratio=8),
        },
        "0.575": {
            "capacity_pct": 100.0 * lines.p_at_most(0.575, 11),
            "killi_vs_msecc": area.table7_killi_vs_msecc(olsc_t=11, ecc_ratio=2),
        },
    }


# -- Section 5.5: optimizing for lower Vmin ---------------------------------


def sec55_lower_vmin(
    voltage: float = 0.600,
    workload: str = "nekbone",
    accesses_per_cu: int = 8000,
    seed: int = 42,
    **campaign,
) -> dict:
    """Section 5.5: Killi with OLSC vs MS-ECC below the SECDED Vmin.

    At 0.600xVDD plain (SECDED-based) Killi loses most of the cache —
    ~92% of lines have 2+ faults — while Killi with an OLSC-t11 ECC
    cache (1:8) retains MS-ECC-class capacity at a fraction of the
    area.  Returns per-scheme normalized time, MPKI and disabled
    capacity.  The four scheme cells go through
    :func:`~repro.harness.runner.run_cells`, which takes ``campaign``.
    """
    key_to_scheme = {
        "baseline": "baseline",
        "msecc": "msecc",
        "killi_secded_1:8": "killi_1:8",
        "killi_olsc_1:8": "killi+olsc-t11_1:8",
    }
    specs = [
        cell_scenario(
            workload,
            scheme,
            voltage=voltage,
            seed=seed,
            accesses_per_cu=accesses_per_cu,
        )
        for scheme in key_to_scheme.values()
    ]
    cells = run_cells(specs, **campaign)

    out = {"voltage": voltage, "workload": workload}
    for key, cell in zip(key_to_scheme, cells):
        out[key] = {
            "cycles": cell.cycles,
            "mpki": cell.l2_mpki,
            "disabled_fraction": cell.disabled_fraction,
        }
    base = out["baseline"]["cycles"]
    for key in ("msecc", "killi_secded_1:8", "killi_olsc_1:8"):
        out[key]["normalized_time"] = out[key]["cycles"] / base
    return out


# -- soft-error campaign (Section 2.3 / 5.3 reliability claim) ---------------


def soft_error_campaign(
    rate_per_access: float = 0.02,
    accesses: int = 60000,
    voltage: float = LV_VOLTAGE,
    seed: int = 42,
    cache_kib: int = 256,
) -> dict:
    """Compare Killi and SECDED-only (FLAIR steady state) under soft errors.

    Injects multi-bit-capable soft-error bursts at an exaggerated rate
    and counts silent data corruptions (SDC) and detected-
    uncorrectable refetches (DUE).  The paper's claim: FLAIR's
    exclusive reliance on SECDED after training cannot detect a
    multi-bit soft error landing on a line that already has an LV
    fault, while Killi's independent segmented parity usually can.
    """
    from repro.baselines.functional import FunctionalSecDedLineScheme
    from repro.cache.geometry import CacheGeometry
    from repro.cache.core import WriteThroughCache
    from repro.faults.soft_errors import SoftErrorInjector

    rngs = RngFactory(seed)
    geometry = CacheGeometry(
        size_bytes=cache_kib * 1024, line_bytes=64, associativity=16
    )
    fault_map = FaultMap(n_lines=geometry.n_lines, rng=rngs.stream("fault-map"))
    footprint = geometry.size_bytes * 3 // 2

    def run(label, scheme):
        cache = WriteThroughCache(geometry, scheme)
        rng = rngs.stream(f"traffic/{label}")
        addrs = rng.integers(0, footprint, size=accesses)
        stores = rng.random(accesses) < 0.2
        for addr, is_store in zip(addrs, stores):
            addr = int(addr) & ~63
            if is_store:
                cache.write(addr)
            else:
                cache.read(addr)
        return cache

    killi_scheme = KilliScheme(
        geometry, fault_map, voltage, KilliConfig(ecc_ratio=32),
        rng=rngs.stream("mask-killi"),
        soft_injector=SoftErrorInjector(
            rate_per_access, rng=rngs.stream("soft-killi")
        ),
    )
    killi_cache = run("killi", killi_scheme)

    flair_scheme = FunctionalSecDedLineScheme(
        geometry, fault_map, voltage,
        rng=rngs.stream("mask-flair"),
        soft_injector=SoftErrorInjector(
            rate_per_access, rng=rngs.stream("soft-flair")
        ),
    )
    flair_cache = run("flair", flair_scheme)

    return {
        "rate_per_access": rate_per_access,
        "accesses": accesses,
        "killi": {
            "sdc": killi_scheme.sdc_events,
            "detected": killi_cache.stats.error_induced_misses,
            "corrected": killi_cache.stats.corrected_reads,
        },
        "flair": {
            "sdc": flair_scheme.sdc_events,
            "detected": flair_cache.stats.error_induced_misses,
            "corrected": flair_cache.stats.corrected_reads,
        },
    }


# -- the table of paper items -------------------------------------------------


def _series(title: str):
    """Renderer of a ``{"voltage": [...], <series>: [...]}`` result."""

    def render(data: dict) -> None:
        keys = [k for k in data if k != "voltage"]
        rows = list(zip(data["voltage"], *(data[k] for k in keys)))
        print(format_table(["voltage"] + keys, rows, title=title))
        print()

    return render


def _print_power(table: dict, title: str) -> None:
    rows = [(k, f"{v:.1f}") for k, v in table.items()]
    print(format_table(["scheme", "normalized power %"], rows, title=title))


def _render_performance(matrix: PerformanceMatrix) -> None:
    print(matrix.fig4_table())
    print()
    print(matrix.fig5_table())
    print()
    _print_power(
        table6_power(matrix),
        "Table 6: normalized power (with measured memory traffic)",
    )


def _render_table4(data: dict) -> None:
    ratios = list(next(iter(data.values())))
    rows = [[code] + [f"{data[code][r]:.2f}" for r in ratios] for code in data]
    print(format_table(["code"] + ratios, rows, title="Table 4: Killi storage vs SECDED"))


def _render_table5(data: dict) -> None:
    rows = [
        [name, f"{v['ratio']:.2f}", f"{v['percent']:.2f}%"] for name, v in data.items()
    ]
    print(format_table(["scheme", "ratio vs SECDED", "% of L2"], rows, title="Table 5: area"))


def _render_table7(data: dict) -> None:
    rows = [
        (v, f"{d['capacity_pct']:.1f}%", f"{100 * d['killi_vs_msecc']:.0f}%")
        for v, d in data.items()
    ]
    print(format_table(
        ["voltage", "L2 capacity target", "Killi area vs MS-ECC"],
        rows,
        title="Table 7: Killi w/OLSC vs MS-ECC",
    ))


def _render_sec55(data: dict) -> None:
    rows = []
    for key in ("baseline", "msecc", "killi_secded_1:8", "killi_olsc_1:8"):
        row = data[key]
        rows.append([
            key,
            f"{row.get('normalized_time', 1.0):.3f}",
            f"{row['mpki']:.1f}",
            f"{row['disabled_fraction']:.2%}",
        ])
    print(format_table(
        ["scheme", "normalized time", "MPKI", "disabled lines"],
        rows,
        title=f"Section 5.5 at {data['voltage']} VDD ({data['workload']})",
    ))


def _render_softerr(data: dict) -> None:
    rows = [
        (scheme, data[scheme]["sdc"], data[scheme]["detected"], data[scheme]["corrected"])
        for scheme in ("killi", "flair")
    ]
    print(format_table(
        ["scheme", "silent corruptions", "detected (refetched)", "corrected"],
        rows,
        title=(
            f"Section 2.3: soft errors at {data['rate_per_access']:g} per "
            f"access ({data['accesses']} accesses)"
        ),
    ))


#: The CLI flags (argparse dests) of a campaign: the knobs handed to
#: :func:`~repro.harness.runner.run_cells`, and its telemetry summary.
CAMPAIGN_FLAGS = ("jobs", "cache", "retries", "timeout", "journal", "resume", "telemetry")


def _no_options(args, campaign) -> dict:
    return {}


def _performance_options(args, campaign) -> dict:
    return dict(
        workloads=args.workloads,
        schemes=args.schemes,
        accesses_per_cu=args.accesses,
        seed=args.seed,
        engine=args.engine,
        **campaign,
    )


def _sec55_options(args, campaign) -> dict:
    # Section 5.5 runs at no more than its runner's default scale.
    return dict(accesses_per_cu=min(args.accesses, 8000), seed=args.seed, **campaign)


def _softerr_options(args, campaign) -> dict:
    # The campaign runs at its own scale, outside run_cells.
    return {"seed": args.seed}


@dataclass(frozen=True)
class Experiment:
    """One item of the paper's evaluation."""

    run: Callable[..., Any]
    """The runner: returns the item's data."""
    render: Callable[[Any], None]
    """Prints a result of ``run`` as the CLI shows it."""
    options: Callable[[Any, dict], dict] = _no_options
    """``run``'s keyword arguments for the CLI's parsed options
    (``accesses``, ``workloads``, ``schemes``, ``seed``, ``engine``)
    and its campaign knobs: the item's scale is decided here."""
    flags: Tuple[str, ...] = ()
    """The CLI flags (argparse dests) ``options`` reads, ``quick`` with
    ``accesses``, and :data:`CAMPAIGN_FLAGS` for a campaign.  The CLI
    rejects any other flag given for this item."""
    csv: Optional[Tuple[str, str]] = None
    """``(file stem, serialiser in repro.harness.export)``, or None for
    an item without a CSV form."""

    def to_csv(self, result) -> str:
        """A result of ``run`` as CSV text."""
        from repro.harness import export

        return getattr(export, self.csv[1])(result)


_PERFORMANCE = Experiment(
    fig4_fig5_performance,
    _render_performance,
    _performance_options,
    flags=("accesses", "quick", "workloads", "schemes", "seed", "engine", *CAMPAIGN_FLAGS),
    csv=("fig4_fig5", "matrix_to_csv"),
)

#: Every item of the paper's evaluation, by CLI name.  ``fig5`` is an
#: alias of the ``fig4`` entry: one campaign prints both figures.  The
#: analytic items come first, so ``killi-experiment all`` prints them
#: before any campaign starts.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        fig1_cell_pfail,
        _series("Figure 1: SRAM cell Pfail vs normalized VDD"),
        csv=("fig1", "series_to_csv"),
    ),
    "fig2": Experiment(
        fig2_line_distribution,
        _series("Figure 2: % lines with 0/1/2+ faults"),
        csv=("fig2", "series_to_csv"),
    ),
    "fig6": Experiment(
        fig6_coverage,
        _series("Figure 6: % lines correctly classified"),
        csv=("fig6", "series_to_csv"),
    ),
    "table4": Experiment(
        table4_strong_ecc, _render_table4, csv=("table4", "nested_table_to_csv")
    ),
    "table5": Experiment(
        table5_area, _render_table5, csv=("table5", "nested_table_to_csv")
    ),
    "table6": Experiment(
        table6_power,
        lambda table: _print_power(table, "Table 6: power"),
        csv=("table6", "power_table_to_csv"),
    ),
    "table7": Experiment(table7_olsc, _render_table7),
    "fig4": _PERFORMANCE,
    "fig5": _PERFORMANCE,
    "sec55": Experiment(
        sec55_lower_vmin,
        _render_sec55,
        _sec55_options,
        flags=("accesses", "quick", "seed", *CAMPAIGN_FLAGS),
    ),
    "softerr": Experiment(
        soft_error_campaign, _render_softerr, _softerr_options, flags=("seed",)
    ),
}


def run_experiment(name: str, **kwargs):
    """Run a registered experiment by name."""
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return entry.run(**kwargs)
