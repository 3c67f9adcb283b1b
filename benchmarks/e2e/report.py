#!/usr/bin/env python3
"""Markdown trend report over the committed microbenches and e2e runs.

Reads every ``BENCH_PR<n>.json`` at the repository root (one sample per
PR, from ``benchmarks/perf/run_bench.py``) and any number of result
files written by ``benchmarks/e2e/run.py --output``, and prints:

- the machines the numbers came from;
- one trend row per PR for the headline microbench timings, with the
  median and min–max over all PRs beneath;
- per e2e workload, every metric's median, min–max and run count;
- the per-access floor side by side: the ``hierarchy`` microbench's
  ns/access on an isolated L2 next to the in-situ
  ``cache.ns_per_access`` that traced e2e runs measure inside cells.

Usage::

    python3 benchmarks/e2e/run.py --workload killi_lowv --trace 1 --output e2e.json
    python3 benchmarks/e2e/report.py e2e.json > report.md
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: (column, benchmark, key, unit) — headline fast-path timings.
TREND_COLUMNS = (
    ("hierarchy", "hierarchy", "soa_ns_per_access", "ns/access"),
    ("cache_core", "cache_core", "soa_ns_per_access", "ns/access"),
    ("l2_replay", "l2_replay", "batched_ns_per_access", "ns/access"),
    ("linestate", "linestate", "memoized_us_per_access", "us/access"),
    ("fig6", "fig6", "seconds", "s"),
    ("fig4_slice", "fig4_slice", "seconds", "s"),
    ("fig4 geomean", "fig4_slice", "speedup_batched_geomean", "x"),
)


def committed_benches(root: Path):
    """``[(pr, payload)]`` for every BENCH_PR<n>.json, in PR order."""
    found = []
    for path in root.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), json.loads(path.read_text())))
    return sorted(found, key=lambda item: item[0])


def bench_value(payload: dict, bench: str, key: str):
    entry = payload.get("benchmarks", {}).get(bench) or {}
    if key == "speedup_batched_geomean" and key not in entry:
        # Older files record the same geomean under its former name.
        key = "speedup_vectorized"
    return entry.get(key)


def summarize(values):
    """``(median, min, max, n)`` of the numbers among ``values``."""
    numbers = [v for v in values if isinstance(v, (int, float))]
    if not numbers:
        return None
    return statistics.median(numbers), min(numbers), max(numbers), len(numbers)


def fmt(value) -> str:
    if value is None:
        return "–"
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.4g}"


def fmt_range(stats) -> str:
    return f"{fmt(stats[1])}–{fmt(stats[2])}" if stats else "–"


def table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def machines_section(benches, e2e_files) -> str:
    rows = [
        [f"BENCH_PR{pr}", p.get("mode", ""), p.get("python"), p.get("numpy"), "–"]
        for pr, p in benches
    ]
    for name, payload in e2e_files:
        machine = payload.get("machine", {})
        versions = [machine.get(key) for key in ("python", "numpy", "nproc")]
        rows.append([name, "e2e"] + versions)
    rows = [[str(cell) for cell in row] for row in rows]
    header = ["source", "mode", "python", "numpy", "nproc"]
    return "## Machines\n\n" + table(header, rows)


def trend_section(benches) -> str:
    header = ["PR"] + [f"{col} ({unit})" for col, _, _, unit in TREND_COLUMNS]
    rows = [
        [str(pr)]
        + [fmt(bench_value(p, bench, key)) for _, bench, key, _ in TREND_COLUMNS]
        for pr, p in benches
    ]
    stats = [
        summarize(bench_value(p, bench, key) for _, p in benches)
        for _, bench, key, _ in TREND_COLUMNS
    ]
    rows.append(["median"] + [fmt(s[0]) if s else "–" for s in stats])
    rows.append(["min–max"] + [fmt_range(s) for s in stats])
    return (
        "## Microbench trend (one sample per PR)\n\n"
        + table(header, rows)
        + "\n\nEach cell is one full-mode run; sizes differ between early PRs "
        "(see each file's `accesses`), so read a column's trend, not its digits."
    )


def e2e_metrics(e2e_files):
    """``{workload: {metric: ([values], unit)}}`` across all result files."""
    out = {}
    for _, payload in e2e_files:
        for report in payload.get("reports", []):
            per = out.setdefault(report["workload"], {})
            for metric, entry in report.get("metrics", {}).items():
                values, _ = per.setdefault(metric, ([], entry["unit"]))
                values.append(entry["value"])
    return out


def e2e_section(metrics) -> str:
    parts = ["## End-to-end runs"]
    for workload, per in metrics.items():
        rows = []
        for metric, (values, unit) in per.items():
            stats = summarize(values)
            rows.append([metric, unit, fmt(stats[0]), fmt_range(stats), str(stats[3])])
        header = ["metric", "unit", "median", "min–max", "runs"]
        parts.append(f"### {workload}\n\n" + table(header, rows))
    return "\n\n".join(parts)


def floor_section(benches, metrics) -> str:
    sources = [
        (
            "hierarchy microbench (all PRs)",
            [bench_value(p, "hierarchy", "soa_ns_per_access") for _, p in benches],
        )
    ] + [
        (f"{workload}: cache.ns_per_access", per["cache.ns_per_access"][0])
        for workload, per in metrics.items()
        if "cache.ns_per_access" in per
    ]
    rows = []
    for label, values in sources:
        stats = summarize(values)
        if stats:
            rows.append([label, fmt(stats[0]), fmt_range(stats), str(stats[3])])
    header = ["measurement", "median ns/access", "min–max", "samples"]
    return (
        "## Per-access floor\n\n"
        + table(header, rows)
        + "\n\nEvery L2-bound access that misses the batched paths pays this "
        "floor.  The microbench replays a synthetic stream through an "
        "unprotected L2; `cache.ns_per_access` is what a workload's own "
        "accesses cost inside cells, protection hooks and the tracing "
        "wrapper included."
    )


def build_report(root: Path, e2e_paths) -> str:
    benches = committed_benches(root)
    e2e_files = [(Path(p).name, json.loads(Path(p).read_text())) for p in e2e_paths]
    metrics = e2e_metrics(e2e_files)
    sections = [
        "# Performance report",
        machines_section(benches, e2e_files),
        trend_section(benches),
    ]
    if metrics:
        sections.append(e2e_section(metrics))
    sections.append(floor_section(benches, metrics))
    return "\n\n".join(sections) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("e2e", nargs="*", help="result files from run.py --output")
    parser.add_argument(
        "--root", type=Path, default=ROOT, help="where BENCH_PR*.json live"
    )
    args = parser.parse_args(argv)
    sys.stdout.write(build_report(args.root, args.e2e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
