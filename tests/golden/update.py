"""Golden result digests: the pinned table and the script that records it.

``results.json`` pins one digest per item: 12 simulated cells spanning
the scheme axis, the Killi options and the sub-Vmin operating points,
and the analytic figures/tables.  A cell's digest covers its whole
:class:`~repro.harness.runner.CellResult` except host timing and cache
provenance, so any change to the simulated numbers shows up here.

The file also records :data:`repro.harness.runner.RESULTS_VERSION`.  A
change that alters results must bump that version; only then does this
script rewrite the table::

    PYTHONPATH=src python -m tests.golden.update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.harness import runner
from repro.harness.experiments import run_experiment
from repro.scenario.config import cell_scenario

PATH = Path(__file__).resolve().parent / "results.json"

ACCESSES = 1500
SEED = 42

#: (label, workload, scheme, voltage, extra cell_scenario knobs)
CELLS = [
    ("nekbone/baseline@0.625", "nekbone", "baseline", 0.625, {}),
    ("xsbench/dected@0.625", "xsbench", "dected", 0.625, {}),
    ("fft/flair@0.625", "fft", "flair", 0.625, {}),
    ("xsbench/msecc@0.6", "xsbench", "msecc", 0.600, {}),
    ("fft/killi_1:16@0.625", "fft", "killi_1:16", 0.625, {}),
    ("xsbench/killi_1:256@0.625", "xsbench", "killi_1:256", 0.625, {}),
    ("nekbone/killi+dected_1:8@0.6", "nekbone", "killi+dected_1:8", 0.600, {}),
    ("nekbone/killi+olsc-t11_1:8@0.6", "nekbone", "killi+olsc-t11_1:8", 0.600, {}),
    ("fft/killi_1:64@0.625/write-back", "fft", "killi_1:64", 0.625,
     {"write_back": True}),
    ("fft/killi_1:8@0.6/inverted_write_training", "fft", "killi_1:8", 0.600,
     {"scheme_config": {"inverted_write_training": True}}),
    ("miniamr/killi_1:64@0.6125", "miniamr", "killi_1:64", 0.6125, {}),
    ("hpgmg/killi_1:32@0.6/no-train_on_evict", "hpgmg", "killi_1:32", 0.600,
     {"scheme_config": {"train_on_evict": False}}),
]

ANALYTIC = ("fig1", "fig2", "fig6", "table4", "table5", "table7")


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def compute() -> dict:
    """Label -> digest of every pinned item, freshly computed."""
    scenarios = [
        cell_scenario(workload, scheme, voltage=voltage, seed=SEED,
                      accesses_per_cu=ACCESSES, **knobs)
        for _, workload, scheme, voltage, knobs in CELLS
    ]
    out = {}
    for (label, *_), result in zip(CELLS, runner.run_cells(scenarios)):
        payload = result.to_dict()
        payload.pop("elapsed_s")
        payload.pop("from_cache")
        out[label] = digest(payload)
    for name in ANALYTIC:
        out[f"analysis:{name}"] = digest(run_experiment(name))
    return out


def load() -> dict:
    return json.loads(PATH.read_text())


def main() -> int:
    recorded = load() if PATH.exists() else None
    items = compute()
    if recorded is not None and recorded["results_version"] == runner.RESULTS_VERSION:
        if recorded["items"] == items:
            print(f"{PATH.name} is up to date")
            return 0
        print(
            f"results differ from {PATH.name} at RESULTS_VERSION "
            f"{runner.RESULTS_VERSION}; bump repro.harness.runner.RESULTS_VERSION "
            "before re-recording",
            file=sys.stderr,
        )
        return 1
    PATH.write_text(json.dumps(
        {"results_version": runner.RESULTS_VERSION, "items": items}, indent=2
    ) + "\n")
    print(f"recorded {len(items)} digests at RESULTS_VERSION {runner.RESULTS_VERSION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
