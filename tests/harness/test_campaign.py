"""Tests for the hardened campaign runner.

The robustness contract under test: worker faults (exceptions, hangs,
hard-killed processes) are isolated to their cell, retried attempts
and resumed campaigns produce results bit-identical to a clean
straight-through run, and permanent failures surface as a structured
:class:`CampaignError` *after* the rest of the campaign completed.

Faults are injected via the ``REPRO_INJECT_FAULTS`` environment
variable (see :mod:`repro.harness.faultinject`) so they fire inside
the runner's execution wrapper — including inside pool workers —
while ``run_cell`` itself stays pure.
"""

import pytest

from repro.harness.faultinject import INJECT_ENV, InjectedWorkerFault, maybe_inject
from repro.harness.runner import (
    CampaignError,
    _store_cached,
    run_cells,
)
from repro.metrics import METRICS
from repro.scenario.config import cell_scenario

ACCESSES = 200


def specs_pair():
    return [
        cell_scenario(workload="nekbone", scheme="baseline",
                      seed=11, accesses_per_cu=ACCESSES),
        cell_scenario(workload="nekbone", scheme="killi_1:64",
                      seed=11, accesses_per_cu=ACCESSES),
    ]


def comparable(cell) -> dict:
    out = cell.to_dict()
    out.pop("elapsed_s")
    out.pop("from_cache")
    return out


@pytest.fixture
def inject(monkeypatch, tmp_path):
    """Arm fault injection; returns the state dir for counter asserts."""
    state = tmp_path / "inject-state"
    state.mkdir()

    def arm(times=1, mode="raise", match="", hang_s=None):
        parts = [f"times={times}", f"dir={state}", f"mode={mode}"]
        if match:
            parts.append(f"match={match}")
        if hang_s is not None:
            parts.append(f"hang_s={hang_s}")
        monkeypatch.setenv(INJECT_ENV, ",".join(parts))
        return state

    yield arm
    monkeypatch.delenv(INJECT_ENV, raising=False)


class TestFaultInjectionHook:
    def test_noop_when_unarmed(self, monkeypatch):
        monkeypatch.delenv(INJECT_ENV, raising=False)
        maybe_inject("deadbeef")  # must not raise or touch the filesystem

    def test_raises_then_succeeds(self, inject):
        state = inject(times=2)
        with pytest.raises(InjectedWorkerFault):
            maybe_inject("deadbeef")
        with pytest.raises(InjectedWorkerFault):
            maybe_inject("deadbeef")
        maybe_inject("deadbeef")  # third attempt is clean
        assert (state / "deadbeef.attempts").read_text() == "3"

    def test_match_by_label(self, inject):
        inject(times=1, match="baseline")
        maybe_inject("deadbeef", "nekbone/killi_1:64")  # no match, clean
        with pytest.raises(InjectedWorkerFault):
            maybe_inject("deadbeef", "nekbone/baseline")

    def test_bad_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "times=1")  # dir= missing
        with pytest.raises(ValueError):
            maybe_inject("deadbeef")
        monkeypatch.setenv(INJECT_ENV, "times=1,dir=/tmp/x,mode=explode")
        with pytest.raises(ValueError):
            maybe_inject("deadbeef")


class TestRetryIsolation:
    def test_crash_injected_retry_bit_identical(self, inject, tmp_path):
        """Every cell's first attempt crashes; retries recover a result
        bit-identical to an uninjected run."""
        specs = specs_pair()
        reference = run_cells(specs)

        inject(times=1)
        retried = run_cells(specs, retries=2, backoff=0.0,
                            journal=str(tmp_path / "journal.jsonl"))
        assert [comparable(c) for c in retried] == [
            comparable(c) for c in reference
        ]

    def test_retries_exhausted_raises_after_campaign(self, inject):
        """A permanently failing cell raises CampaignError — but only
        after the healthy cell finished, and with partial results."""
        specs = specs_pair()
        inject(times=99, match="baseline")
        with pytest.raises(CampaignError) as excinfo:
            run_cells(specs, retries=1, backoff=0.0)
        error = excinfo.value
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert failure.index == 0
        assert failure.attempts == 2  # 1 + retries
        assert failure.error_type == "InjectedWorkerFault"
        # The other cell completed despite its neighbour's crashes.
        assert error.results[0] is None
        assert error.results[1] is not None
        assert error.results[1].cycles > 0

    def test_strict_false_returns_partial_results(self, inject):
        specs = specs_pair()
        inject(times=99, match="baseline")
        results = run_cells(specs, retries=0, backoff=0.0, strict=False)
        assert results[0] is None
        assert results[1] is not None

    def test_zero_retries_fails_on_first_crash(self, inject):
        inject(times=1)
        with pytest.raises(CampaignError):
            run_cells(specs_pair()[:1], retries=0, backoff=0.0)


class TestPoolIsolation:
    def test_killed_worker_pool_rebuilt(self, inject, tmp_path):
        """mode=kill hard-exits the worker → BrokenProcessPool; the
        runner rebuilds the pool and retries, bit-identically."""
        specs = specs_pair()
        reference = run_cells(specs)

        inject(times=1, mode="kill")
        recovered = run_cells(specs, jobs=2, retries=2, backoff=0.0,
                              journal=str(tmp_path / "journal.jsonl"))
        assert [comparable(c) for c in recovered] == [
            comparable(c) for c in reference
        ]

    def test_pool_exception_isolated(self, inject):
        """A plain worker exception fails only its own cell."""
        specs = specs_pair()
        inject(times=99, match="baseline")
        with pytest.raises(CampaignError) as excinfo:
            run_cells(specs, jobs=2, retries=1, backoff=0.0)
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.results[1] is not None


class TestTimeout:
    def test_hung_cell_times_out_and_retries(self, inject):
        specs = specs_pair()[:1]
        reference = run_cells(specs)

        inject(times=1, mode="hang", hang_s=30)
        recovered = run_cells(specs, retries=1, timeout=0.5, backoff=0.0)
        assert comparable(recovered[0]) == comparable(reference[0])

    def test_timeout_exhausted_reports_cell_timeout(self, inject):
        inject(times=99, mode="hang", hang_s=30)
        with pytest.raises(CampaignError) as excinfo:
            run_cells(specs_pair()[:1], retries=0, timeout=0.5)
        assert excinfo.value.failures[0].error_type == "CellTimeoutError"


class TestDedupe:
    def test_duplicate_specs_simulated_once(self, inject, tmp_path):
        """Identical fingerprints collapse to one execution, fanned out
        to every requesting index in order."""
        spec = specs_pair()[0]
        other = specs_pair()[1]
        specs = [spec, other, spec, spec]

        # times=0 → never fails, but each *execution* bumps a counter
        # file, giving us an exact execution count per fingerprint.
        state = inject(times=0)
        results = run_cells(specs, backoff=0.0)

        counters = sorted(p.name for p in state.iterdir())
        assert counters == sorted(
            f"{fp}.attempts" for fp in {spec.fingerprint(), other.fingerprint()}
        )
        assert (state / f"{spec.fingerprint()}.attempts").read_text() == "1"

        assert [c.fingerprint for c in results] == [
            s.fingerprint() for s in specs
        ]
        assert comparable(results[0]) == comparable(results[2])
        # Fan-out copies are distinct objects (mutating one result's
        # elapsed_s must not alias its duplicates).
        assert results[0] is not results[2]

    def test_dedupe_probes_cache_once(self, tmp_path):
        spec = specs_pair()[0]
        METRICS.enable(propagate_env=False)
        METRICS.reset()
        try:
            run_cells([spec, spec, spec], cache_dir=str(tmp_path))
            assert METRICS.counters.get("cache.miss", 0) == 1
            assert METRICS.counters.get("cache.stored", 0) == 1
        finally:
            METRICS.disable(propagate_env=False)
            METRICS.reset()


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells(specs_pair()[:1], jobs=0)

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="retries"):
            run_cells(specs_pair()[:1], retries=-1)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            run_cells(specs_pair()[:1], timeout=0)

    def test_resume_requires_cache_dir(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text("")
        with pytest.raises(ValueError, match="cache_dir"):
            run_cells(specs_pair()[:1], resume=str(journal))


class TestCacheHardening:
    def test_corrupt_entry_quarantined(self, tmp_path):
        spec = specs_pair()[0]
        run_cells([spec], cache_dir=str(tmp_path))
        path = tmp_path / f"{spec.fingerprint()}.json"
        path.write_text("{not json")

        result, = run_cells([spec], cache_dir=str(tmp_path))
        assert not result.from_cache
        quarantined = tmp_path / f"{spec.fingerprint()}.json.corrupt"
        assert quarantined.read_text() == "{not json"
        # ... and the slot was repopulated with the recomputed result.
        again, = run_cells([spec], cache_dir=str(tmp_path))
        assert again.from_cache

    def test_schema_mismatch_quarantined(self, tmp_path):
        spec = specs_pair()[0]
        run_cells([spec], cache_dir=str(tmp_path))
        path = tmp_path / f"{spec.fingerprint()}.json"
        path.write_text('{"schema": -1, "result": {}}')
        result, = run_cells([spec], cache_dir=str(tmp_path))
        assert not result.from_cache
        assert (tmp_path / f"{spec.fingerprint()}.json.corrupt").exists()

    def test_store_failure_logged_not_raised(self, tmp_path):
        """An unserialisable result must not abort the campaign — and
        must not leak its temp file."""
        spec = specs_pair()[0]

        class Unserialisable:
            def to_dict(self):
                return {"bad": {1, 2, 3}}  # sets are not JSON

        stored = _store_cached(str(tmp_path), spec,
                               Unserialisable(), fingerprint="feedface")
        assert stored is False
        assert list(tmp_path.glob("*.tmp")) == []
        assert not (tmp_path / "feedface.json").exists()

    def test_store_success_reports_true(self, tmp_path):
        spec = specs_pair()[0]
        result = run_cells([spec])[0]
        assert _store_cached(str(tmp_path), spec, result) is True
        assert (tmp_path / f"{spec.fingerprint()}.json").exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestJournalPrefixResume:
    """Property: resume from *any* prefix-truncation of a journal.

    A crash can stop the journal mid-campaign — or mid-line.  Whatever
    prefix survives, resuming against the same cache must reproduce
    the straight-through results bit-identically: finished cells load
    from cache, everything after the cut is recomputed.
    """

    def specs(self):
        return [
            cell_scenario(workload="nekbone", scheme="baseline",
                          seed=11, accesses_per_cu=ACCESSES),
            cell_scenario(workload="nekbone", scheme="killi_1:64",
                          seed=11, accesses_per_cu=ACCESSES),
            cell_scenario(workload="fft", scheme="killi_1:8",
                          seed=7, accesses_per_cu=ACCESSES),
        ]

    def test_every_line_prefix_is_resumable(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        full = run_cells(self.specs(), cache_dir=str(cache),
                         journal=str(journal))
        reference = [comparable(c) for c in full]
        lines = journal.read_text().splitlines(keepends=True)
        assert len(lines) >= len(self.specs()) + 1
        for cut in range(len(lines) + 1):
            truncated = tmp_path / f"prefix_{cut}.jsonl"
            truncated.write_text("".join(lines[:cut]))
            resumed = run_cells(self.specs(), cache_dir=str(cache),
                                resume=str(truncated))
            got = [comparable(c) for c in resumed]
            assert got == reference, f"diverged resuming from {cut} lines"

    def test_mid_line_byte_truncation_is_resumable(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        full = run_cells(self.specs(), cache_dir=str(cache),
                         journal=str(journal))
        reference = [comparable(c) for c in full]
        blob = journal.read_bytes()
        # Cut inside a record: the torn last line must be skipped, not
        # crash the resume or corrupt earlier entries.
        for cut in (len(blob) // 3, len(blob) // 2, len(blob) - 7):
            truncated = tmp_path / f"bytes_{cut}.jsonl"
            truncated.write_bytes(blob[:cut])
            resumed = run_cells(self.specs(), cache_dir=str(cache),
                                resume=str(truncated))
            got = [comparable(c) for c in resumed]
            assert got == reference, f"diverged resuming from {cut} bytes"
