"""Replay every committed reproducer under armed invariants.

Each ``repros/repro_*.toml`` is a shrunk scenario that once diverged;
the fix landed with it, so replaying it through the batched simulator
and the scalar reference must now agree — with
``REPRO_CHECK_INVARIANTS=1`` armed so the internal debug assertions
run too.  This file needs no editing when a reproducer lands: cases
are collected by glob.
"""

import glob
import os

import pytest

from repro.scenario.config import ScenarioConfig
from repro.testing.differential import diff_scenario
from repro.testing.invariants import INVARIANTS_ENV

REPRO_DIR = os.path.join(os.path.dirname(__file__), "repros")
REPRO_FILES = sorted(glob.glob(os.path.join(REPRO_DIR, "repro_*.toml")))


def _repro_id(path: str) -> str:
    return os.path.basename(path)[len("repro_"):-len(".toml")]


@pytest.mark.parametrize("path", REPRO_FILES, ids=_repro_id)
def test_committed_repro_stays_fixed(path, monkeypatch):
    monkeypatch.setenv(INVARIANTS_ENV, "1")
    with open(path, encoding="utf-8") as fh:
        scenario = ScenarioConfig.from_toml(fh.read(), source=path)
    scenario.validate()
    divergence = diff_scenario(scenario)
    assert divergence is None, divergence.describe()


def test_repro_directory_exists():
    # The glob above silently collects nothing if the directory moves;
    # fail loudly instead.
    assert os.path.isdir(REPRO_DIR)
    assert REPRO_FILES, "expected at least one committed reproducer"
