"""Unit coverage for the A/B summary of ``benchmarks/perf/ab.py``."""

import importlib.util
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wins_count_ties_for_neither_side(ab):
    row = ab.summarize([5, 5, 6, 4], [4, 5, 7, 4], "lower", 0.2)
    assert (row["wins"], row["losses"]) == (1, 1)
    row = ab.summarize([5, 5, 6, 4], [4, 5, 7, 4], "higher", 0.2)
    assert (row["wins"], row["losses"]) == (1, 1)


def test_claim_met_needs_nine_tenths_and_a_gap_beyond_the_iqr(ab):
    base = [6.0, 5.8, 5.9, 6.1, 5.7, 6.0, 5.9, 6.2, 5.8, 6.0]
    change = [3.0, 3.1, 2.9, 3.0, 3.2, 2.8, 3.0, 3.1, 2.9, 3.0]
    row = ab.summarize(base, change, "lower", 0.2)
    assert row["wins"] == 10
    assert row["verdict"] == "claim met"
    assert row["base"]["median"] == pytest.approx(5.95)
    # Eight wins of ten is not nine tenths.
    lost = change[:8] + [7.0, 7.0]
    assert ab.summarize(base, lost, "lower", 0.2)["verdict"] != "claim met"
    # Every pair won, but by less than the base's own spread.
    close = [value - 0.05 for value in base]
    assert ab.summarize(base, close, "lower", 0.2)["verdict"] == "within bound"


def test_wide_spread_is_unresolved_unless_every_run_is_better(ab):
    base = [1.0, 3.0, 1.2, 2.8, 1.1, 2.9]  # IQR far wider than a 20% bound
    change = [2.0, 2.1, 1.9, 2.0, 2.2, 1.8]
    row = ab.summarize(base, change, "lower", 0.2)
    assert row["verdict"] == "unresolved"
    better = [0.5, 0.6, 0.4, 0.5, 0.7, 0.3]  # below every base run
    row = ab.summarize(base, better, "lower", 0.2)
    assert row["verdict"] in ("claim met", "within bound")


def test_worse_beyond_the_bound_regresses(ab):
    base = [10.0, 10.1, 9.9, 10.0]
    assert ab.summarize(base, [13.0] * 4, "lower", 0.2)["verdict"] == "regressed"
    assert ab.summarize(base, [11.0] * 4, "lower", 0.2)["verdict"] == "within bound"
    assert ab.summarize(base, [7.0] * 4, "higher", 0.2)["verdict"] == "regressed"


def test_rejects_unpaired_or_empty_runs(ab):
    with pytest.raises(ValueError):
        ab.summarize([], [], "lower", 0.2)
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0, 2.0], "lower", 0.2)


def test_rejects_zero_pairs_before_running_anything(ab, monkeypatch, capsys):
    def extract(*args):
        pytest.fail("a revision was extracted")

    monkeypatch.setattr(ab, "extract", extract)
    with pytest.raises(SystemExit) as exit_info:
        ab.main(["--base", "HEAD", "--pairs", "0"])
    assert exit_info.value.code == 2
    assert "--pairs" in capsys.readouterr().err
