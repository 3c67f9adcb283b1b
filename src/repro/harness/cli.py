"""``killi-experiment`` command-line interface.

Examples::

    killi-experiment table5
    killi-experiment fig6
    killi-experiment fig4 --accesses 10000 --workloads fft xsbench
    killi-experiment fig4 --schemes baseline killi_1:64 killi+olsc-t11_1:8
    killi-experiment fig4 --jobs 4 --cache .killi-cache
    killi-experiment all --quick

Hardened campaigns (see ``docs/campaign-robustness.md``); run an
interrupted one again with the same ``--cache`` and only its
unfinished cells are simulated::

    killi-experiment fig4 --jobs 8 --cache .killi-cache --retries 2 \
        --timeout 600 --journal runs/fig4.jsonl --telemetry

File-driven scenario runs (see ``docs/scenario-layer.md``)::

    killi-experiment scenario run examples/scenarios/fig4_slice.toml
    killi-experiment scenario validate examples/scenarios/*.toml
    killi-experiment scenario list
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.gpu.engine import ENGINES
from repro.harness import experiments
from repro.metrics import METRICS
from repro.harness.runner import CampaignError
from repro.scenario.config import check_engine
from repro.scenario.schemes import known_schemes, resolve_scheme
from repro.traces.workloads import resolve_workload, workload_names
from repro.utils.tables import format_table

__all__ = ["main", "scenario_main"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _registered(resolve):
    """argparse ``type=`` accepting the names ``resolve`` accepts, so a
    bad name exits 2 naming it before anything runs."""

    def name(text: str) -> str:
        try:
            resolve(text)
        except KeyError as error:
            raise argparse.ArgumentTypeError(error.args[0]) from None
        return text

    return name


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """The campaign flags shared by every simulation command."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes (default 1: serial; results are "
             "bit-identical at any N)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="fingerprint-keyed on-disk result cache: unchanged cells load "
             "from DIR instead of re-simulating, so re-running an "
             "interrupted campaign with the same DIR resumes it",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=0, metavar="N",
        help="retry crashed/timed-out cells up to N times with jittered "
             "backoff (default 0); retried cells are bit-identical",
    )
    parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; a timed-out attempt counts "
             "against --retries",
    )
    parser.add_argument(
        "--journal", metavar="FILE", default=None,
        help="append one JSONL event per cell (plus campaign start/end) "
             "to FILE",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect counters/timers across the campaign (cache, "
             "retries, engine phases) and print a summary table",
    )


def _finish_telemetry(args) -> None:
    if getattr(args, "telemetry", False):
        print()
        print(METRICS.summary_table())


def _report_campaign_failure(error: CampaignError) -> None:
    print(f"campaign failed: {error}", file=sys.stderr)
    rows = [
        (f.index, f.fingerprint[:12], f.attempts, f.error_type, f.message[:60])
        for f in error.failures
    ]
    print(
        format_table(
            ["cell", "fingerprint", "attempts", "error", "message"],
            rows,
            title="permanently failed cells",
        ),
        file=sys.stderr,
    )


def _campaign(args, progress) -> dict:
    """:func:`~repro.harness.runner.run_cells`' campaign knobs, from
    the parsed flags."""
    return dict(
        jobs=args.jobs,
        cache_dir=args.cache,
        progress=progress,
        retries=args.retries,
        timeout=args.timeout,
        journal=args.journal,
    )


def _progress(done, total, cell) -> None:
    """Per-cell campaign progress on stderr."""
    tag = " (cached)" if cell.from_cache else f" {cell.elapsed_s:.1f}s"
    print(
        f"[{done}/{total}] {cell.workload}/{cell.scheme}"
        f"@{cell.voltage:g}V{tag}",
        file=sys.stderr,
    )


# -- scenario subcommand ------------------------------------------------------


def _scenario_run(args) -> int:
    from repro.scenario.runfile import load_scenario, run_scenario

    try:
        scenario = load_scenario(args.file)
        scenario.validate()
    except (OSError, KeyError, ValueError) as error:
        print(f"invalid scenario {args.file}: {error}", file=sys.stderr)
        return 2
    if args.json and not _writable(args.json):
        print(f"--json {args.json}: cannot write this file", file=sys.stderr)
        return 2
    if args.telemetry:
        METRICS.enable()
    try:
        summary = run_scenario(
            scenario, **_campaign(args, None if args.no_progress else _progress)
        )
    except CampaignError as error:
        _report_campaign_failure(error)
        _finish_telemetry(args)
        return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"results written to {args.json}", file=sys.stderr)
    rows = [
        (
            cell["workload"],
            cell["scheme"],
            f"{cell['voltage']:g}",
            cell["seed"],
            cell["cycles"],
            f"{1000.0 * (cell['l2']['read_misses'] + cell['l2']['write_misses']) / cell['instructions']:.1f}"
            if cell["instructions"]
            else "0.0",
            f"{cell['disabled_fraction']:.2%}",
        )
        for cell in summary["cells"]
    ]
    title = f"scenario {scenario.name} ({summary['fingerprint'][:12]})"
    print(format_table(
        ["workload", "scheme", "VDD", "seed", "cycles", "MPKI", "disabled"],
        rows,
        title=title,
    ))
    _finish_telemetry(args)
    return 0


def _writable(path: str) -> bool:
    """Whether ``path`` can be written: an existing writable file, or a
    new file in an existing writable directory."""
    if os.path.isdir(path):
        return False
    if os.path.exists(path):
        return os.access(path, os.W_OK)
    return os.access(os.path.dirname(os.path.abspath(path)), os.W_OK)


def _scenario_validate(args) -> int:
    from repro.scenario.runfile import load_scenario

    failures = 0
    for path in args.files:
        try:
            scenario = load_scenario(path)
            cells = scenario.validate()
        except (OSError, KeyError, ValueError) as error:
            print(f"FAIL {path}: {error}")
            failures += 1
            continue
        print(
            f"ok   {path}: {scenario.name!r}, {len(cells)} cell(s), "
            f"fingerprint {scenario.fingerprint()[:12]}"
        )
    return 1 if failures else 0


def _scenario_list(args) -> int:
    import glob

    from repro.scenario.runfile import load_scenario

    paths = sorted(
        glob.glob(os.path.join(args.dir, "*.toml"))
        + glob.glob(os.path.join(args.dir, "*.json"))
    )
    if paths:
        rows = []
        for path in paths:
            try:
                scenario = load_scenario(path)
                rows.append(
                    (path, scenario.name, len(scenario.expand()),
                     scenario.description or "-")
                )
            except (OSError, ValueError) as error:
                rows.append((path, "<invalid>", "-", str(error)[:60]))
        print(format_table(
            ["file", "name", "cells", "description"],
            rows,
            title=f"scenario files under {args.dir}/",
        ))
    else:
        print(f"no scenario files under {args.dir}/")
    print()
    for label, names in (
        ("schemes", known_schemes()),
        ("workloads", workload_names()),
        ("engines", ENGINES),
    ):
        print(f"{label}: {', '.join(names)}")
    return 0


def scenario_main(argv=None) -> int:
    """Entry point for ``killi-experiment scenario ...``."""
    parser = argparse.ArgumentParser(
        prog="killi-experiment scenario",
        description="Run, validate and list declarative scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("file", help="scenario .toml/.json file")
    run_p.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full per-cell results as JSON",
    )
    run_p.add_argument("--no-progress", action="store_true")
    _add_campaign_args(run_p)

    val_p = sub.add_parser("validate", help="validate scenario files")
    val_p.add_argument("files", nargs="+", help="scenario .toml/.json files")

    list_p = sub.add_parser(
        "list", help="list scenario files and the scheme/workload/engine names"
    )
    list_p.add_argument("--dir", default="examples/scenarios")

    args = parser.parse_args(argv)
    return {
        "run": _scenario_run,
        "validate": _scenario_validate,
        "list": _scenario_list,
    }[args.command](args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "scenario":
        return scenario_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.testing.cli import fuzz_main

        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="killi-experiment",
        description="Regenerate the Killi paper's tables and figures.",
    )
    table = experiments.EXPERIMENTS
    parser.add_argument(
        "experiment",
        choices=[*table, "all"],
        help="which table/figure to regenerate (all: every item once)",
    )
    parser.add_argument(
        "--accesses", type=_positive_int, default=30000,
        help="accesses per CU for simulation experiments (default 30000; "
             "sec55 runs at most 8000)",
    )
    parser.add_argument(
        "--workloads", nargs="+", type=_registered(resolve_workload),
        default=None,
        help="restrict Figure 4/5 to these workloads",
    )
    parser.add_argument(
        "--schemes", nargs="+", type=_registered(resolve_scheme),
        default=None,
        help="restrict Figure 4/5 to these scheme names — any scheme "
             "name, including killi+<code>_1:<ratio> strong-code "
             "variants (baseline is always included)",
    )
    parser.add_argument("--seed", type=_nonnegative_int, default=42)
    parser.add_argument(
        "--engine", type=_registered(check_engine), default="batched",
        metavar="NAME",
        help="simulator for Figure 4/5 cells: batched (default) or the "
             "scalar reference; both are pinned bit-identical, so this "
             "only changes wall-clock time",
    )
    _add_campaign_args(parser)
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink simulation experiments (5000 accesses per CU)",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write the experiment's data as CSV into DIR "
             f"({', '.join(name for name, item in table.items() if item.csv)} "
             "only)",
    )
    args = parser.parse_args(argv)
    if args.experiment == "all":
        items = list(dict.fromkeys(table.values()))
    else:
        items = [table[args.experiment]]
    if args.csv and (args.experiment == "all" or items[0].csv is None):
        parser.error(f"--csv: {args.experiment} has no CSV form")
    if args.csv and os.path.exists(args.csv) and not os.path.isdir(args.csv):
        parser.error(f"--csv {args.csv}: exists and is not a directory")
    # Parsed again onto a namespace of Nones, only the flags argv gives
    # take a value (none of them can be None).
    unset = argparse.Namespace(**dict.fromkeys(vars(args)))
    given = vars(parser.parse_args(argv, unset))
    read = {"experiment", "csv"}.union(*(item.flags for item in items))
    ignored = [f"--{dest}" for dest, value in given.items()
               if value is not None and dest not in read]
    if ignored:
        parser.error(f"{args.experiment} ignores {', '.join(ignored)}")
    if args.quick:
        args.accesses = 5000
    if args.telemetry:
        METRICS.enable()
    campaign = _campaign(args, _progress if args.jobs > 1 or args.cache else None)
    try:
        for index, item in enumerate(items):
            if index:
                print()
            result = item.run(**item.options(args, campaign))
            item.render(result)
        if args.csv:
            from repro.harness.export import write_csv

            os.makedirs(args.csv, exist_ok=True)
            write_csv(
                os.path.join(args.csv, f"{item.csv[0]}.csv"), item.to_csv(result)
            )
            print(f"CSV written under {args.csv}/")
    except CampaignError as error:
        _report_campaign_failure(error)
        _finish_telemetry(args)
        return 1
    _finish_telemetry(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
