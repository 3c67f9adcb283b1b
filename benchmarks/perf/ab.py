#!/usr/bin/env python3
"""A/B comparison of the end-to-end benchmark against a base revision.

Runs ``benchmarks/e2e/run.py`` in fresh processes, alternating between
the base revision and the working tree, and summarises every end-to-end
metric that ``BENCHMARK.json`` declares: each side's median and
quartiles, the pairs the change won, and a verdict by the
small-sandbox rule of the ``choosing-metrics`` method:

- ``claim met`` — the change won at least 90% of the pairs (ties count
  for neither side) and its median beats the base median by more than
  the base's interquartile range;
- ``unresolved`` — the base's spread (IQR over median) is wider than
  the metric's bound and not every change run is better than every
  base run, so the runs cannot tell;
- ``within bound`` — otherwise, when the change's median is no worse
  than the base's by more than the bound;
- ``regressed`` — worse by more than the bound.

Usage (from the repository root)::

    python3 benchmarks/perf/ab.py --base HEAD~1 --workload campaign_many \\
        --seed 42 --pairs 10

The base revision is extracted with ``git archive`` into a temporary
directory that is removed on exit.  Both sides must run identical
benchmark code: the script exits 2 when the base's ``BENCHMARK.json``
or ``benchmarks/e2e/`` differ from the working tree's.  It exits 1 when
any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: What both sides must share byte for byte.
BENCHMARK_FILES = ("BENCHMARK.json",)
BENCHMARK_DIRS = ("benchmarks/e2e",)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` by the inclusive method; one value is all three."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base, change, better: str, bound: float) -> dict:
    """Compare paired runs of one metric.

    ``base[i]`` and ``change[i]`` are the values of pair ``i``;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the
    relative worsening the benchmark tolerates.  Returns both sides'
    quartiles, the change's wins and losses (ties count for neither)
    and the verdict described in the module docstring.
    """
    if not base or len(base) != len(change):
        raise ValueError("need the same non-zero number of runs on both sides")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - c) > 0: change better

    def gain(b, c):
        return sign * (b - c)

    wins = sum(1 for b, c in zip(base, change) if gain(b, c) > 0)
    losses = sum(1 for b, c in zip(base, change) if gain(b, c) < 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = b_q3 - b_q1
    scale = abs(b_med) if b_med else 1.0
    worsening = -gain(b_med, c_med) / scale
    if wins >= 0.9 * len(base) and gain(b_med, c_med) > iqr:
        verdict = "claim met"
    elif iqr / scale > bound and not all(
        gain(b, c) > 0 for b in base for c in change
    ):
        verdict = "unresolved"
    elif worsening <= bound:
        verdict = "within bound"
    else:
        verdict = "regressed"
    return {
        "pairs": len(base),
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins,
        "losses": losses,
        "median_change_pct": (c_med - b_med) / scale * 100.0,
        "verdict": verdict,
    }


def benchmark_code_differs(base_root: Path, change_root: Path) -> list:
    """Paths of the benchmark code that differ between the two trees."""
    differ = []
    for name in BENCHMARK_FILES:
        a, b = base_root / name, change_root / name
        if not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
            differ.append(name)
    for name in BENCHMARK_DIRS:
        a, b = base_root / name, change_root / name
        files = {
            p.relative_to(root)
            for root in (a, b)
            if root.is_dir()
            for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        }
        for rel in sorted(files):
            fa, fb = a / rel, b / rel
            same = fa.is_file() and fb.is_file() and filecmp.cmp(fa, fb, shallow=False)
            if not same:
                differ.append(f"{name}/{rel}")
    return differ


def extract(rev: str, tree: Path) -> None:
    """Write the tree of ``rev`` into the new directory ``tree``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run_once(root: Path, args, output: Path) -> dict:
    """One fresh ``run.py`` process in ``root``; returns its report."""
    command = [
        sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--output", str(output),
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if not output.is_file():
        raise RuntimeError(
            f"run.py in {root} produced no report (exit {done.returncode}):\n"
            + done.stderr[-2000:]
        )
    report = json.loads(output.read_text())["reports"][0]
    if not report["correct"]:
        raise RuntimeError(
            f"run.py in {root} reported correct: false: {report['problems']}"
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workload", default="campaign_many",
        choices=("paper_regen", "killi_lowv", "campaign_many"),
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--pairs", type=_positive_int, default=10, help="alternating base/change pairs"
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run.py --seconds (default: BENCHMARK.json's run_seconds)",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        base_root = tmp / "tree"
        try:
            extract(args.base, base_root)
        except subprocess.CalledProcessError as error:
            print(f"error: cannot extract {args.base!r}: {error}", file=sys.stderr)
            return 2
        differ = benchmark_code_differs(base_root, ROOT)
        if differ:
            print(
                f"error: benchmark code differs from {args.base}: " + ", ".join(differ),
                file=sys.stderr,
            )
            return 2
        sides = {"base": base_root, "change": ROOT}
        reports = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                output = tmp / f"{side}-{pair}.json"
                try:
                    report = run_once(sides[side], args, output)
                except RuntimeError as error:
                    print(f"error: {side} pair {pair}: {error}", file=sys.stderr)
                    return 1
                reports[side].append(report)
                wall = report["metrics"].get("wall_s", {}).get("value")
                print(f"# pair {pair} {side}: wall_s {wall}", flush=True)

    digests = {side: {r["results_digest"] for r in runs} for side, runs in reports.items()}
    same = len(digests["base"] | digests["change"]) == 1
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs vs {args.base}; "
          f"results digests {'agree' if same else 'DIFFER'}")
    print(f"{'metric':<14} {'base q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'wins':>7} {'median':>8}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in reports["base"]]
        change = [r["metrics"][name]["value"] for r in reports["change"]]
        if not all(math.isfinite(v) for v in base + change):
            continue
        row = summarize(base, change, metric["better"], metric["bound"])
        b, c = row["base"], row["change"]
        print(
            f"{name:<14} {b['q1']:8.4g}/{b['median']:8.4g}/{b['q3']:8.4g} "
            f"{c['q1']:8.4g}/{c['median']:8.4g}/{c['q3']:8.4g} "
            f"{row['wins']:>3}/{row['pairs']:<3} {row['median_change_pct']:+7.1f}%  "
            f"{row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
