"""Tests for the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import json

import pytest

import run as e2e
from spans import Span, SpanRecorder, covered_length, instrument, self_times
from workloads import WORKLOADS, pass_seeds


# -- the tail percentile rule --------------------------------------------------


@pytest.mark.parametrize(
    "n, q",
    [(94, 89), (24, 58), (320, 96), (11, 9), (100, 90)],
)
def test_tail_percentile_leaves_ten_beyond(n, q):
    values = list(range(1, n + 1))  # value == 1-based rank
    got_q, value = e2e.tail_percentile(reversed(values))
    assert got_q == q
    assert n - value >= 10
    # The next whole percentile's nearest rank leaves fewer than ten.
    next_rank = -(-(q + 1) * n // 100)
    assert n - next_rank < 10


def test_tail_percentile_without_enough_samples_is_the_maximum():
    assert e2e.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


# -- self time -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span("pass", 0.0, 10.0),
        Span("cell", 1.0, 9.0, parent=0),
        Span("engine.simulate", 2.0, 8.0, parent=1),
        Span("l1filter", 3.0, 4.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 5.0, 1.0])


def test_self_time_of_overlapping_children_counts_their_union():
    spans = [
        Span("runner.run_cells", 0.0, 10.0),
        Span("cell", 1.0, 5.0, parent=0),
        Span("cell", 3.0, 8.0, parent=0),  # overlaps the first
        Span("cell", 9.0, 12.0, parent=0),  # runs past the parent: clipped
    ]
    assert covered_length([(1.0, 5.0), (3.0, 8.0)]) == pytest.approx(7.0)
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_self_time_subtracts_aggregated_per_access_time():
    spans = [Span("engine.simulate", 0.0, 4.0), Span("l1filter", 0.5, 1.0, parent=0)]
    assert self_times(spans, {0: [2.5, 1000]}) == pytest.approx([1.0, 0.5])


def test_recorder_nests_spans_and_tags_requests():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.request = "cell-a"
    with recorder.span("cell") as outer:
        with recorder.span("engine.simulate") as inner:
            pass
    assert recorder.spans[inner].parent == outer
    assert recorder.spans[inner].request == "cell-a"
    assert self_times(recorder.spans) == [2.0, 1.0]


# -- digests -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["paper_regen", "killi_lowv"])
def test_smoke_digest_identical_across_two_runs_in_one_process(name, tmp_path):
    """A second, traced run of the same pass gives the same digest, and
    tracing leaves every patched entry point restored."""
    import repro.gpu.engine as engine
    import repro.harness.runner as runner
    from repro.core.killi_replay import KilliClusterInterpreter

    workload = WORKLOADS[name].smoke()
    seeds = pass_seeds(workload, 7, 0)
    workload.build_inputs(seeds)
    first = workload.run_pass(seeds, 1, str(tmp_path / "a.jsonl"), str(tmp_path))
    patched = [
        (runner, "run_cell"),
        (engine.GpuSimulator, "run"),
        (KilliClusterInterpreter, "run"),
    ]
    before = [getattr(owner, name) for owner, name in patched]
    recorder = SpanRecorder()
    with instrument(recorder):
        second = workload.run_pass(
            seeds, 1, str(tmp_path / "b.jsonl"), str(tmp_path), recorder
        )
    assert [getattr(owner, name) for owner, name in patched] == before
    assert any(span.name == "engine.simulate" for span in recorder.spans)
    assert e2e.item_digests(first.items) == e2e.item_digests(second.items)
    assert workload.check_pass(first) == workload.check_pass(second) == []


def test_digest_check_names_the_first_differing_output():
    pairs = [("a", "1"), ("b", "2"), ("c", "3")]
    assert e2e.digest_problems(pairs, {"a": "1", "b": "2", "c": "3"}) == []
    (problem,) = e2e.digest_problems(pairs, {"a": "1", "b": "X", "c": "Y"})
    assert "'b'" in problem
    (problem,) = e2e.digest_problems(pairs, {"a": "1", "b": "2", "c": "3", "d": "4"})
    assert "'d'" in problem


# -- failure accounting ------------------------------------------------------------


def test_injected_worker_crash_counts_as_failed(monkeypatch, tmp_path, capsys):
    """A cell whose worker raises is attempted, failed, and fails the run."""
    from repro.harness.faultinject import INJECT_ENV

    monkeypatch.setenv(
        INJECT_ENV, f"times=99,dir={tmp_path / 'inject'},match=snap/msecc"
    )
    code = e2e.main(["--smoke", "--workload", "campaign_many"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # Smoke matrix: 2 apps x 2 schemes x 2 seeds; snap/msecc fails on
    # both seeds, and the run stops after that first pass.
    assert (result["attempted"], result["failed"]) == (8, 2)
