#!/usr/bin/env python3
"""Reach audit: which ``src/repro`` functions no product entry point calls.

Runs every product entry point of the repository with a profiler that
records each ``src/repro`` code object called, then joins the records
with an ``ast`` walk of every ``def`` under ``src/repro`` and prints
the functions no entry point reached, with their line spans and
whether any file under ``tests/`` names them::

    python3 benchmarks/perf/reach.py

The entry points:

- ``killi-experiment all``, ``sec55`` and ``fig4 --csv --cache
  --telemetry``, each with ``--jobs 1``;
- ``killi-experiment scenario validate``, ``list`` and ``run`` (every
  committed example scenario, ``--jobs 1``);
- ``repro fuzz``, plain and with ``--plant disable-way --shrink`` (that
  run exits 1 by design: the planted fault must be caught);
- ``examples/*.py``;
- the ``benchmarks/`` shape suite with ``--benchmark-disable``, because
  pytest-benchmark otherwise pauses profilers;
- ``benchmarks/e2e/run.py --smoke`` and ``benchmarks/perf/run_bench.py
  --quick``.

The profiler is a ``sitecustomize.py`` written into a temporary
directory that goes first on ``PYTHONPATH``, so every Python process an
entry point starts records itself (``sys.setprofile`` and
``threading.setprofile``) and writes its list when it exits.  Each
entry point runs from a temporary working directory, so nothing lands
in the checkout.

Limit: forked pool workers are not traced.  They leave through
``os._exit``, which skips the exit hook that writes the records, so a
function only a pool worker runs reads as unreached.  That is why the
CLIs run with ``--jobs 1``.  A whole run takes a few minutes on a
2-vCPU VM; the script exits 1 when an entry point fails unexpectedly.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Installed first on PYTHONPATH; ``{out}`` is the record directory.
_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = {package!r}
    rows = sorted(
        {{(code.co_filename, code.co_firstlineno, code.co_name)
          for code in _seen if code.co_filename.startswith(prefix)}}
    )
    with open(os.path.join({out!r}, f"{{os.getpid()}}.tsv"), "w") as fh:
        for filename, line, name in rows:
            fh.write(f"{{filename}}\\t{{line}}\\t{{name}}\\n")


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''


def entry_points() -> list:
    """``(label, argv, exit codes that count as success)`` per entry point."""
    python = sys.executable
    cli = [python, "-m", "repro.harness.cli"]
    scenarios = sorted(str(p) for p in (ROOT / "examples" / "scenarios").glob("*.toml"))
    runs = [
        ("all", cli + ["all", "--accesses", "1000", "--jobs", "1"], {0}),
        ("sec55", cli + ["sec55", "--accesses", "1000", "--jobs", "1"], {0}),
        (
            "fig4",
            cli + [
                "fig4", "--accesses", "1000", "--jobs", "1",
                "--workloads", "nekbone", "fft", "--csv", "csv",
                "--cache", "cache", "--telemetry",
            ],
            {0},
        ),
        ("scenario validate", cli + ["scenario", "validate", *scenarios], {0}),
        (
            "scenario list",
            cli + ["scenario", "list", "--dir", str(ROOT / "examples" / "scenarios")],
            {0},
        ),
    ]
    runs += [
        (
            f"scenario run {Path(path).stem}",
            cli + [
                "scenario", "run", path, "--jobs", "1", "--no-progress",
                "--json", "scenario.json",
            ],
            {0},
        )
        for path in scenarios
    ]
    runs += [
        ("fuzz", cli + ["fuzz", "--seed", "0", "--max-examples", "20"], {0}),
        (
            "fuzz --plant",
            cli + [
                "fuzz", "--seed", "0", "--max-examples", "20",
                "--plant", "disable-way", "--shrink", "--out", "repros",
            ],
            {1},
        ),
    ]
    runs += [
        (f"example {path.name}", [python, str(path)] + (
            ["--quick"] if path.name == "gpu_workloads.py" else []
        ), {0})
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    runs += [
        (
            "shape suite",
            [
                python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--benchmark-disable", str(ROOT / "benchmarks"),
            ],
            {0},
        ),
        ("e2e smoke", [python, str(ROOT / "benchmarks/e2e/run.py"), "--smoke"], {0}),
        (
            "run_bench --quick",
            [python, str(ROOT / "benchmarks/perf/run_bench.py"), "--quick"],
            {0},
        ),
    ]
    return runs


def functions(package: Path) -> list:
    """``(path, first line, last line, qualified name)`` of every ``def``.

    The first line is the first decorator's when there is one, which
    is the line a decorated function's code object reports.
    """
    found = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append((path, first, child.end_lineno, qualname))
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(package.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "")
    return found


def _name(qualname: str) -> str:
    """The bare name a code object reports for ``qualname``."""
    return qualname.rsplit(".", 1)[-1]


def reached(records: Path) -> set:
    """``(path, first line, name)`` of every code object any process called."""
    seen = set()
    for dump in records.glob("*.tsv"):
        for row in dump.read_text().splitlines():
            filename, line, name = row.split("\t")
            seen.add((Path(filename).resolve(), int(line), name))
    return seen


def named_in_tests(names) -> set:
    """The subset of ``names`` that any file under ``tests/`` mentions."""
    text = "\n".join(
        path.read_text() for path in sorted((ROOT / "tests").rglob("*.py"))
    )
    words = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))
    return {name for name in names if name in words}


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        scratch = Path(scratch)
        site, records, work = scratch / "site", scratch / "records", scratch / "work"
        for directory in (site, records, work):
            directory.mkdir()
        (site / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(package=str(PACKAGE) + os.sep, out=str(records))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
        for label, argv, ok in entry_points():
            cwd = work / re.sub(r"\W+", "_", label)
            cwd.mkdir()
            done = subprocess.run(
                argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            status = "ok" if done.returncode in ok else "FAILED"
            print(f"# {label}: exit {done.returncode} ({status})", file=sys.stderr)
            if done.returncode not in ok:
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
        seen = reached(records)

    defs = functions(PACKAGE)
    missed = [
        (path, first, last, qualname)
        for path, first, last, qualname in defs
        if (path.resolve(), first, _name(qualname)) not in seen
    ]
    tested = named_in_tests({_name(qualname) for *_, qualname in missed})
    kinds = [
        "test-only" if _name(qualname) in tested else "unreached"
        for *_, qualname in missed
    ]
    print(
        f"{len(defs)} functions: {len(defs) - len(missed)} reached by an entry "
        f"point, {kinds.count('test-only')} named by a test only, "
        f"{kinds.count('unreached')} named nowhere"
    )
    for (path, first, last, qualname), kind in zip(missed, kinds):
        print(f"{kind:9}  {path.relative_to(ROOT)}:{first}-{last}  {qualname}")
    if failed:
        print(f"entry points failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
