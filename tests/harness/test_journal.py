"""Tests for the JSONL run journal and campaign resume.

The resume contract under test: a campaign run again on the same
result cache recomputes only the cells that did not finish, and its
results are bit-identical to a straight-through run — because the
finished cells come back from the fingerprint-keyed result cache.
"""

from repro.harness.journal import (
    CellFailure,
    RunJournal,
    read_journal,
)
from repro.harness.runner import RESULTS_VERSION, run_cells
from repro.scenario.config import ScenarioConfig, cell_scenario

ACCESSES = 200


def spec(scheme: str) -> ScenarioConfig:
    return cell_scenario(workload="nekbone", scheme=scheme,
                         seed=11, accesses_per_cu=ACCESSES)


def comparable(cell) -> dict:
    out = cell.to_dict()
    out.pop("elapsed_s")
    out.pop("from_cache")
    return out


class TestRunJournal:
    def test_event_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.campaign_start(total=3, unique=2, jobs=2, retries=1,
                               timeout=5.0, cache_dir=str(tmp_path))
        journal.attempt(index=0, fingerprint="aa", attempt=1,
                        error_type="RuntimeError", message="boom",
                        will_retry=True, elapsed_s=0.1)
        journal.cell(index=0, fingerprint="aa", status="retried",
                     attempts=2, elapsed_s=0.2, pid=123, cache="stored")
        journal.cell(index=1, fingerprint="bb", status="cached",
                     attempts=0, elapsed_s=0.0, cache="hit")
        journal.cell(index=2, fingerprint="aa", status="retried",
                     attempts=2, elapsed_s=0.2, dedup_of=0)
        journal.pool_broken("worker died")
        journal.campaign_end(completed=3, failed=0, elapsed_s=1.5)
        journal.close()

        events = read_journal(path)
        assert [e["event"] for e in events] == [
            "start", "attempt", "cell", "cell", "cell", "pool_broken", "end",
        ]
        assert all("ts" in e for e in events)
        start = events[0]
        assert (start["total"], start["unique"], start["jobs"]) == (3, 2, 2)
        assert start["timeout_s"] == 5.0
        attempt = events[1]
        assert attempt["error"] == {"type": "RuntimeError", "message": "boom"}
        assert attempt["will_retry"] is True
        assert events[4]["dedup_of"] == 0
        assert events[6]["completed"] == 3

    def test_journal_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "run.jsonl"
        RunJournal(path).close()
        assert path.exists()

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.cell(index=0, fingerprint="aa", status="ok",
                     attempts=1, elapsed_s=0.1)
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"event": "cell", "fingerpr')  # killed mid-write
        events = read_journal(path)
        assert [e["fingerprint"] for e in events] == ["aa"]

    def test_shared_journal_not_closed_by_runner(self, tmp_path):
        """Campaigns that name the same journal file share it: each
        appends its records after the previous campaign's."""
        path = tmp_path / "shared.jsonl"
        run_cells([spec("baseline")], journal=str(path))
        run_cells([spec("killi_1:64")], journal=str(path))
        events = read_journal(path)
        assert [e["event"] for e in events] == [
            "start", "cell", "end", "start", "cell", "end",
        ]


class TestCellFailure:
    def test_str_and_dict(self):
        failure = CellFailure(index=3, fingerprint="abcdef0123456789",
                              attempts=2, error_type="RuntimeError",
                              message="boom")
        assert "cell 3" in str(failure)
        assert "abcdef012345" in str(failure)
        assert failure.to_dict()["attempts"] == 2


class TestResume:
    """Resuming a campaign is running it again on the same cache."""

    def test_resume_recomputes_only_unfinished(self, tmp_path):
        """Run cell A on a cache, then a two-cell campaign on the same
        cache: A loads from it and only B is computed — and the whole
        thing is bit-identical to a fresh straight-through run."""
        cache = str(tmp_path / "cache")
        journal = tmp_path / "run.jsonl"
        a, b = spec("baseline"), spec("killi_1:64")

        run_cells([a], cache_dir=cache)
        resumed = run_cells([a, b], cache_dir=cache, journal=str(journal))
        assert [c.from_cache for c in resumed] == [True, False]
        cells = [e for e in read_journal(journal) if e["event"] == "cell"]
        assert [(c["index"], c["status"]) for c in cells] == [
            (0, "cached"), (1, "ok"),
        ]

        fresh = run_cells([a, b])
        assert [comparable(c) for c in resumed] == [
            comparable(c) for c in fresh
        ]

    def test_resume_with_evicted_cache_recomputes(self, tmp_path):
        """A finished cell whose cache entry is gone is simply
        recomputed."""
        cache = tmp_path / "cache"
        a = spec("baseline")
        run_cells([a], cache_dir=str(cache))
        (cache / f"{a.fingerprint()}.json").unlink()

        resumed, = run_cells([a], cache_dir=str(cache))
        assert not resumed.from_cache
        assert comparable(resumed) == comparable(run_cells([a])[0])


class TestJournalThroughRunner:
    def test_pool_run_journal_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        specs = [spec("baseline"), spec("killi_1:64"), spec("baseline")]
        run_cells(specs, jobs=2, journal=str(path))

        events = read_journal(path)
        assert events[0]["event"] == "start"
        assert events[0]["total"] == 3
        assert events[0]["unique"] == 2
        assert events[0]["results_version"] == RESULTS_VERSION
        cells = [e for e in events if e["event"] == "cell"]
        assert len(cells) == 3
        assert {c["index"] for c in cells} == {0, 1, 2}
        dedup = next(c for c in cells if c["index"] == 2)
        assert dedup["dedup_of"] == 0
        executed = [c for c in cells if "dedup_of" not in c]
        assert all(c["pid"] for c in executed)
        assert events[-1]["event"] == "end"
        assert events[-1]["failed"] == 0
