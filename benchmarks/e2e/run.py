#!/usr/bin/env python3
"""End-to-end benchmark of the Killi reproduction.

Measures the job this repository exists for — regenerating the paper's
figures and tables — end to end in host time, and splits each cell's
time across the simulator's layers in a separate traced run.  The
workloads are defined in ``workloads.py``; the metric names, units and
regression bounds in ``BENCHMARK.json`` at the repository root; their
meaning and the rationale in ``README.md`` beside this file.

Usage (from the repository root; ``src/`` is put on the path here)::

    python3 benchmarks/e2e/run.py --workload paper_regen --seed 42 --seconds 30
    python3 benchmarks/e2e/run.py --workload killi_lowv --trace 1
    python3 benchmarks/e2e/run.py --smoke

Each run repeats its workload's pass for ``--seconds`` seconds (at
least once), then checks the program's outputs: a results digest
against ``expected.json`` (at the seed it was recorded for), a
scalar-engine cross-check, and the paper's shapes.  It prints every
metric as ``<workload> <metric> <value> <unit>`` and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
end-to-end metrics by default, per-layer metrics with ``--trace 1``.
It exits 1 when a check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
#: The seed whose results digests ``expected.json`` records.
EXPECTED_SEED = 42
WORK_ROOT = ROOT / ".e2e_work"

#: Fresh-process set-up measurements per run; setup_s is their median.
SETUP_PROBES = 5
#: Cells a tail percentile must leave beyond it.
TAIL_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

clock = time.perf_counter


# -- statistics ------------------------------------------------------------------


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """``(q, value)``: the highest whole percentile ``q`` that leaves at
    least ``beyond`` samples above it, by nearest rank.

    94 samples give p89, 24 give p58, 320 give p96.  With ``beyond`` or
    fewer samples no such percentile exists and the maximum is returned
    as ``q = 100``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100, ordered[-1]
    q = 100 * (n - beyond) // n
    rank = -(-q * n // 100)  # ceil(q * n / 100), 1-based
    return q, ordered[rank - 1]


def journal_summary(path) -> dict:
    """Cell counts and attempt times of one pass, from its run journal."""
    from repro.harness.journal import read_journal

    summary = {"cells": 0, "failed": 0, "retries": 0, "times": [], "campaign_s": 0.0}
    if not os.path.exists(path):
        return summary
    for record in read_journal(path):
        event = record.get("event")
        if event == "cell":
            summary["cells"] += 1
            if record["status"] == "failed":
                summary["failed"] += 1
            elif record["status"] in ("ok", "retried"):
                summary["times"].append(record["elapsed_s"])
        elif event == "attempt" and record.get("will_retry"):
            summary["retries"] += 1
        elif event == "end":
            summary["campaign_s"] += record["elapsed_s"]
    summary["busy_s"] = sum(summary["times"])
    return summary


# -- correctness digest ----------------------------------------------------------


def item_digests(items):
    """``[(label, sha256[:16])]`` of each output's canonical JSON."""
    from workloads import canonical

    return [
        (
            label,
            hashlib.sha256(
                json.dumps(canonical(output), sort_keys=True, default=str).encode()
            ).hexdigest()[:16],
        )
        for label, output in items
    ]


def digest_problems(pairs, expected_items: dict):
    """Name the first output whose digest differs from the expected one."""
    for label, digest in pairs:
        if expected_items.get(label) != digest:
            return [f"results digest differs from expected.json first at {label!r}"]
    produced = {label for label, _ in pairs}
    missing = [label for label in expected_items if label not in produced]
    if missing:
        return [f"results digest: expected output {missing[0]!r} was not produced"]
    return []


# -- passes ----------------------------------------------------------------------


class PassKind(NamedTuple):
    """How a pass runs: traced or not, at the workload's jobs or serial."""

    name: str
    traced: bool
    serial: bool


PLAIN = PassKind("plain", traced=False, serial=False)


def pass_kinds(workload, trace: bool):
    """The cycle of pass kinds a run repeats.

    A traced run alternates untraced and traced passes, so the tracing
    overhead is measured under the same machine state.  Where
    the workload runs a process pool, spans are taken from a serial
    pass (they are recorded in this process) and compared with a serial
    untraced pass; the pooled untraced pass still supplies the runner's
    journal metrics.
    """
    if not trace:
        return [PLAIN]
    kinds = [PLAIN]
    if workload.serial_trace:
        kinds.append(PassKind("serial", traced=False, serial=True))
    kinds.append(PassKind("traced", traced=True, serial=workload.serial_trace))
    return kinds


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(workload, kind: PassKind, index: int, seed: int, workdir: Path):
    """Set up and run one pass, then check it outside the timed region.

    Returns ``(record, PassOutput, problems)``.
    """
    from repro.harness.runner import CampaignError
    from repro.metrics import METRICS
    from spans import SpanRecorder, instrument, layer_metrics
    from workloads import NO_TRACE, PassOutput, pass_seeds

    seeds = pass_seeds(workload, seed, index)
    jobs = 1 if kind.serial else workload.jobs
    pass_dir = workdir / f"pass-{index}"
    pass_dir.mkdir(parents=True)
    journal = pass_dir / "journal.jsonl"
    record = {"index": index, "kind": kind.name, "seeds": seeds, "jobs": jobs}
    recorder = SpanRecorder() if kind.traced else None
    tracer = recorder if recorder is not None else NO_TRACE
    if recorder is not None:
        METRICS.reset()
        METRICS.enable(propagate_env=False)
    try:
        with instrument(recorder) if recorder else contextlib.nullcontext():
            started = clock()
            with tracer.span("setup"):
                workload.build_inputs(seeds)
            record["setup_s"] = clock() - started
            started = clock()
            try:
                with tracer.span("pass"):
                    out = workload.run_pass(
                        seeds, jobs, str(journal), str(pass_dir), tracer
                    )
            except CampaignError:
                # The failed cells are counted from the journal.
                out = PassOutput()
            record["wall_s"] = clock() - started
    finally:
        if recorder is not None:
            telemetry = METRICS.snapshot()
            METRICS.disable(propagate_env=False)
            METRICS.reset()
    record["journal"] = journal_summary(journal)
    if recorder is not None:
        record["layers"] = layer_metrics(recorder, telemetry)
    shutil.rmtree(pass_dir)
    return record, out, workload.check_pass(out)


def run_passes(workload, seed, seconds, kinds, smoke, workdir):
    """Repeat the kinds' cycle until ``seconds`` would be exceeded.

    At least one full cycle always runs.  A pass starts only if the
    last pass of its kind, set-up included, would still end in budget,
    so a run overshoots ``seconds`` by at most that difference.
    Stops early at the first pass with a failed cell or check.
    """
    records = []
    first = None
    rss = None
    last_cost = {}
    started = clock()
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        record, out, problems = run_pass(workload, kind, index, seed, workdir)
        records.append(record)
        last_cost[kind.name] = record["setup_s"] + record["wall_s"]
        if first is None and kind is PLAIN:
            first, rss = out, peak_rss_mb()
        if problems or record["journal"]["failed"]:
            return records, first, rss, [f"pass {index}: {p}" for p in problems]
        index += 1
        if index < len(kinds):
            continue
        if smoke:
            break
        upcoming = kinds[index % len(kinds)].name
        if clock() - started + last_cost[upcoming] > seconds:
            break
    return records, first, rss, []


def setup_probe_times(workload_name, seed, smoke, probes) -> list:
    """Fresh-process set-up times: ``import repro`` plus pass 0's inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload_name,
        "--seed",
        str(seed),
    ] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- metrics ---------------------------------------------------------------------


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload, records, rss, setup_times) -> dict:
    plain = [r for r in records if r["kind"] == PLAIN.name]
    wall = _median(r["wall_s"] for r in plain)
    timed = [r["journal"]["times"] for r in plain if r["journal"]["times"]]
    return {
        "wall_s": wall,
        "setup_s": _median(setup_times),
        "maccess_per_s": workload.accesses_per_pass / 1e6 / wall,
        "cell_p50_s": _median(statistics.median(t) for t in timed),
        "cell_tail_s": _median(tail_percentile(t)[1] for t in timed),
        "peak_rss_mb": rss,
    }


def per_layer_metrics(records) -> dict:
    plain = [r for r in records if r["kind"] == PLAIN.name]
    traced = [r for r in records if "layers" in r]
    metrics = {}
    for record in plain:
        journal, jobs = record["journal"], record["jobs"]
        busy, campaign = journal["busy_s"], journal["campaign_s"]
        sample = {
            "runner.cells": journal["cells"],
            "runner.cells_failed": journal["failed"],
            "runner.retries": journal["retries"],
            "runner.cell_busy_s": busy,
            "runner.overhead_s": campaign - busy / jobs,
            "runner.worker_util": busy / (campaign * jobs) if campaign else 0.0,
        }
        for name, value in sample.items():
            metrics.setdefault(name, []).append(value)
    for record in traced:
        for name, value in record["layers"].items():
            metrics.setdefault(name, []).append(value)
    out = {name: _median(values) for name, values in metrics.items()}
    untraced = [
        r
        for r in records
        if "layers" not in r and r["jobs"] == traced[0]["jobs"]
    ]
    overhead = _median(r["wall_s"] for r in traced) / _median(
        r["wall_s"] for r in untraced
    )
    out["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    return out


def schema_problems(metrics: dict, declared: list) -> list:
    """Every declared metric emitted, finite, with a well-formed name and unit."""
    problems = []
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit):
            problems.append(f"malformed metric name or unit: {name!r} [{unit!r}]")
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name!r} is not a finite number: {value!r}")
    return problems


# -- one workload ----------------------------------------------------------------


def machine_info() -> dict:
    import numpy
    from workloads import nproc

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_workload(name, args, spec) -> dict:
    """Measure one workload and check its outputs; returns the report."""
    from workloads import CROSS_CHECK_ACCESSES, WORKLOADS, cross_check

    workload = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
    trace = bool(args.trace) or args.smoke
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    try:
        records, first, rss, problems = run_passes(
            workload, args.seed, args.seconds, pass_kinds(workload, trace),
            args.smoke, workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    attempted = sum(r["journal"]["cells"] for r in records)
    failed = sum(r["journal"]["failed"] for r in records)
    pairs = item_digests(first.items)
    if not problems and not failed:
        if args.update_expected:
            expected = _load_expected()
            expected[name] = dict(pairs)
            EXPECTED_JSON.write_text(json.dumps(expected, indent=1) + "\n")
        elif not args.smoke and args.seed == EXPECTED_SEED:
            problems += digest_problems(pairs, _load_expected().get(name, {}))
        accesses = 1000 if args.smoke else CROSS_CHECK_ACCESSES
        problems += cross_check(workload.samples(args.seed, accesses))
        if not args.smoke:
            problems += workload.shape_checks(first)
    setup_times = setup_probe_times(
        name, args.seed, args.smoke, 1 if args.smoke else SETUP_PROBES
    )
    correct = not problems and not failed
    metrics, declared = {}, []
    if not trace or args.smoke:
        metrics.update(end_to_end_metrics(workload, records, rss, setup_times))
        declared += spec["end_to_end"]
    if trace and correct:
        metrics.update(per_layer_metrics(records))
        declared += spec["per_layer"]
    if args.smoke:
        problems += schema_problems(metrics, declared)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    messages = list(problems)
    if failed:
        messages.insert(0, f"{failed} of {attempted} cells failed")
    return {
        "workload": name,
        "seed": args.seed,
        "correct": not messages,
        "attempted": attempted,
        "failed": failed + len(problems),
        "problems": messages,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
            for m in declared
            if m["name"] in metrics
        },
        "passes": [
            {k: v for k, v in r.items() if k != "journal"}
            | {"cells": r["journal"]["cells"]}
            for r in records
        ],
        "setup_probes_s": setup_times,
        "results_digest": hashlib.sha256(json.dumps(pairs).encode()).hexdigest(),
    }


def _load_expected() -> dict:
    if EXPECTED_JSON.exists():
        return json.loads(EXPECTED_JSON.read_text())
    return {}


# -- command line ----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        choices=("paper_regen", "killi_lowv", "campaign_many"),
        help="workload to run (default with --smoke: all three)",
    )
    parser.add_argument("--seed", type=int, default=42, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="measuring time per run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: report per-layer metrics from alternating traced passes",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="a few 1k-access cells per workload, one pass of each kind; "
        "checks correctness and the output schema, no timing gate",
    )
    parser.add_argument("--output", type=Path, help="write the full report here")
    parser.add_argument(
        "--update-expected",
        action="store_true",
        help="record this run's results digest in expected.json",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    if args.update_expected and (args.smoke or args.seed != EXPECTED_SEED):
        parser.error(f"--update-expected needs a full run at --seed {EXPECTED_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_probe:
        started = clock()
        from workloads import WORKLOADS, pass_seeds

        workload = WORKLOADS[args.workload]
        workload = workload.smoke() if args.smoke else workload
        workload.build_inputs(pass_seeds(workload, args.seed, 0))
        print(clock() - started)
        return 0
    if not BENCHMARK_JSON.is_file():
        print(f"error: {BENCHMARK_JSON} not found", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())

    machine = machine_info()
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    reports = [run_workload(name, args, spec) for name in names]
    for report in reports:
        for problem in report["problems"]:
            print(f"# FAILED {report['workload']}: {problem}")
        for metric, entry in report["metrics"].items():
            print(f"{report['workload']} {metric} {entry['value']!r} {entry['unit']}")
    if args.output:
        args.output.write_text(
            json.dumps({"machine": machine, "reports": reports}, indent=1) + "\n"
        )
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{metric}": entry
            for r in reports
            for metric, entry in r["metrics"].items()
        }
    correct = all(r["correct"] for r in reports)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
