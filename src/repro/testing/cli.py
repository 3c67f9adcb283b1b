"""``repro fuzz`` — the differential fuzzing entry point.

Generates seeded random scenarios, runs each through the batched
simulator and the scalar reference, and exits non-zero on the first
divergence —
after shrinking it and writing a commit-ready reproducer ``.toml``
under ``tests/testing/repros/``.

Examples::

    repro fuzz --seed 0 --max-examples 50
    repro fuzz --seed from-date --max-examples 200       # nightly CI
    repro fuzz --seed 0 --max-examples 5 --plant disable-way   # self-test
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

__all__ = ["fuzz_main"]


def _resolve_seed(raw: str) -> int:
    if raw == "from-date":
        # One fresh deterministic seed per UTC day: reruns of a failed
        # nightly reproduce, while coverage still rotates.
        return int(datetime.now(timezone.utc).strftime("%Y%m%d"))
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seed must be an integer or 'from-date', got {raw!r}"
        )


def fuzz_main(argv=None) -> int:
    from repro.testing.differential import PLANTS, diff_scenario
    from repro.testing.generator import ScenarioFuzzer
    from repro.testing.shrinker import (
        DEFAULT_REPRO_DIR,
        shrink,
        total_accesses,
        write_reproducer,
    )

    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Differentially fuzz the batched simulator (batched×soa) "
            "against the scalar reference (scalar×object)."
        ),
    )
    parser.add_argument(
        "--seed", type=_resolve_seed, default=0, metavar="N|from-date",
        help="fuzzer seed: an integer, or 'from-date' for one seed per "
             "UTC day (default 0)",
    )
    parser.add_argument(
        "--max-examples", type=int, default=50, metavar="N",
        help="number of scenarios to generate (default 50)",
    )
    parser.add_argument(
        "--start", type=int, default=0, metavar="I",
        help="first example index (resume a partial sweep)",
    )
    parser.add_argument(
        "--max-accesses", type=int, default=400, metavar="N",
        help="accesses-per-CU size bound per scenario (default 400)",
    )
    parser.add_argument(
        "--shrink", dest="shrink", action="store_true", default=True,
        help="shrink a divergence before reporting (default)",
    )
    parser.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="report the raw diverging scenario without shrinking",
    )
    parser.add_argument(
        "--out", default=DEFAULT_REPRO_DIR, metavar="DIR",
        help=f"directory for shrunk reproducers (default {DEFAULT_REPRO_DIR})",
    )
    parser.add_argument(
        "--plant", choices=sorted(PLANTS), default=None,
        help="inject a named deliberate fault into non-reference runs "
             "(oracle self-test; the run is expected to diverge)",
    )
    args = parser.parse_args(argv)
    if args.max_examples < 1:
        parser.error("--max-examples must be positive")

    plant = PLANTS[args.plant] if args.plant else None
    fuzzer = ScenarioFuzzer(seed=args.seed, max_accesses=args.max_accesses)
    print(
        f"fuzz: seed={args.seed} examples="
        f"[{args.start}, {args.start + args.max_examples}) "
        f"max_accesses={args.max_accesses}"
        + (f" plant={args.plant}" if args.plant else "")
    )

    for index in range(args.start, args.start + args.max_examples):
        scenario = fuzzer.scenario(index)
        divergence = diff_scenario(scenario, plant=plant)
        if divergence is None:
            print(
                f"  [{index}] ok  {scenario.fingerprint()[:12]} "
                f"{scenario.workload.name}/{scenario.scheme.name} "
                f"v={scenario.fault.voltage} "
                f"acc={scenario.workload.accesses_per_cu}x{scenario.gpu.n_cus}"
            )
            continue

        print(f"\nDIVERGENCE at example {index}:", file=sys.stderr)
        print(divergence.describe(), file=sys.stderr)

        final = scenario
        if args.shrink:
            def interesting(candidate):
                return diff_scenario(candidate, plant=plant) is not None

            print("shrinking ...", file=sys.stderr)
            final = shrink(scenario, interesting)
            print(
                f"shrunk: {total_accesses(scenario)} -> "
                f"{total_accesses(final)} total accesses "
                f"({final.fingerprint()[:12]})",
                file=sys.stderr,
            )
            shrunk_div = diff_scenario(final, plant=plant)
            if shrunk_div is not None:
                print(shrunk_div.describe(), file=sys.stderr)

        note = f"Found by: repro fuzz --seed {args.seed} (example {index})"
        if args.plant:
            note += f" --plant {args.plant}"
        path, pytest_line = write_reproducer(final, args.out, note=note)
        print(f"reproducer written: {path}", file=sys.stderr)
        print(f"pytest: {pytest_line}", file=sys.stderr)
        return 1

    print(f"fuzz: {args.max_examples} examples, no divergence")
    return 0


if __name__ == "__main__":
    raise SystemExit(fuzz_main())
