"""Simulated and analytic results stay bit-identical to the golden table."""

from repro.harness import runner
from tests.golden import update


def test_results_match_golden_table():
    recorded = update.load()
    assert recorded["results_version"] == runner.RESULTS_VERSION, (
        f"RESULTS_VERSION is {runner.RESULTS_VERSION} but {update.PATH.name} "
        f"was recorded at {recorded['results_version']}; re-record it with "
        "`PYTHONPATH=src python -m tests.golden.update`"
    )
    items = update.compute()
    differing = sorted(
        label for label in set(recorded["items"]) | set(items)
        if recorded["items"].get(label) != items.get(label)
    )
    assert not differing, (
        f"results changed at RESULTS_VERSION {runner.RESULTS_VERSION} for "
        f"{differing}; bump RESULTS_VERSION if the change is intended"
    )
