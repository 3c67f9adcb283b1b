"""Tests for the JSONL run journal and campaign resume.

The resume contract under test: a campaign resumed from a journal
recomputes only the cells the journal does not record as finished, and
its results are bit-identical to a straight-through run — because the
finished cells come back from the same fingerprint-keyed result cache.
"""

from repro.harness.journal import (
    SUCCESS_STATUSES,
    CellFailure,
    RunJournal,
    finished_fingerprints,
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
        with RunJournal(path) as journal:
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
        with RunJournal(path) as journal:
            journal.campaign_end(completed=0, failed=0, elapsed_s=0.0)
        assert path.exists()

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.cell(index=0, fingerprint="aa", status="ok",
                         attempts=1, elapsed_s=0.1)
        with open(path, "a") as handle:
            handle.write('{"event": "cell", "fingerpr')  # killed mid-write
        events = read_journal(path)
        assert len(events) == 1
        assert finished_fingerprints(path) == {"aa"}

    def test_finished_excludes_failures(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.cell(index=0, fingerprint="ok-fp", status="ok",
                         attempts=1, elapsed_s=0.1)
            journal.cell(index=1, fingerprint="retry-fp", status="retried",
                         attempts=2, elapsed_s=0.1)
            journal.cell(index=2, fingerprint="cache-fp", status="cached",
                         attempts=0, elapsed_s=0.0)
            journal.cell(index=3, fingerprint="bad-fp", status="failed",
                         attempts=3, elapsed_s=0.1,
                         error={"type": "RuntimeError", "message": "x"})
        assert finished_fingerprints(path) == {"ok-fp", "retry-fp", "cache-fp"}
        assert SUCCESS_STATUSES == {"ok", "retried", "cached"}

    def test_shared_journal_not_closed_by_runner(self, tmp_path):
        """Passing an open RunJournal lets several campaigns share one
        file; the runner must not close it."""
        journal = RunJournal(tmp_path / "shared.jsonl")
        run_cells([spec("baseline")], journal=journal)
        run_cells([spec("killi_1:64")], journal=journal)
        journal.close()
        events = read_journal(tmp_path / "shared.jsonl")
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
    def test_resume_recomputes_only_unfinished(self, tmp_path):
        """Run cell A with cache+journal, then resume a two-cell
        campaign: A loads from cache, only B is computed — and the
        whole thing is bit-identical to a fresh straight-through run."""
        cache = tmp_path / "cache"
        journal = tmp_path / "run.jsonl"
        a, b = spec("baseline"), spec("killi_1:64")

        run_cells([a], cache_dir=str(cache), journal=str(journal))
        assert finished_fingerprints(journal) == {a.fingerprint()}

        resumed = run_cells([a, b], cache_dir=str(cache),
                            resume=str(journal))
        assert resumed[0].from_cache
        assert not resumed[1].from_cache

        fresh = run_cells([a, b])
        assert [comparable(c) for c in resumed] == [
            comparable(c) for c in fresh
        ]

    def test_resume_with_evicted_cache_recomputes(self, tmp_path):
        """A journal-finished cell whose cache entry is gone is simply
        recomputed — resume never trusts the journal alone."""
        cache = tmp_path / "cache"
        journal = tmp_path / "run.jsonl"
        a = spec("baseline")
        run_cells([a], cache_dir=str(cache), journal=str(journal))
        (cache / f"{a.fingerprint()}.json").unlink()

        resumed, = run_cells([a], cache_dir=str(cache), resume=str(journal))
        assert not resumed.from_cache
        assert comparable(resumed) == comparable(run_cells([a])[0])

    def test_resumed_cells_marked_in_new_journal(self, tmp_path):
        cache = tmp_path / "cache"
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        a = spec("baseline")
        run_cells([a], cache_dir=str(cache), journal=str(first))
        run_cells([a], cache_dir=str(cache), journal=str(second),
                  resume=str(first))

        events = read_journal(second)
        start = events[0]
        assert start["resumed_from"] == str(first)
        cell = next(e for e in events if e["event"] == "cell")
        assert cell["status"] == "cached"
        assert cell.get("resumed") is True


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
