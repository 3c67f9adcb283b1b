"""Append-only JSONL run journal for simulation campaigns.

Every campaign through :func:`repro.harness.runner.run_cells` can
stream one JSON record per line to a *run journal*: a ``start`` record
when the campaign begins, an ``attempt`` record for every failed
execution attempt, a ``cell`` record when a cell reaches a terminal
state (``ok`` / ``retried`` / ``cached`` / ``failed``), and an ``end``
record with the final tally.  The file is append-only and flushed per
record, so a campaign killed mid-flight leaves a readable prefix (plus
at most one truncated line, which :func:`read_journal` tolerates).

The journal serves two purposes:

- **Observability** — which cells ran where (worker pid), how long
  they took, how many attempts they needed, and exactly how each
  failure looked (exception type + message).
- **Resumability** — :func:`finished_fingerprints` extracts the set of
  successfully finished cell fingerprints; ``run_cells(resume=path)``
  uses it so a re-run recomputes only unfinished cells, loading the
  finished ones from the result cache.

Journal records are observability data: they carry wall-clock
timestamps and host/pid details and are *not* part of any result
fingerprint — simulation outputs remain bit-identical with or without
a journal attached.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Iterator, List, Optional, Set

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "SUCCESS_STATUSES",
    "CellFailure",
    "RunJournal",
    "read_journal",
    "finished_fingerprints",
]

#: Bump when the record layout changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Terminal cell statuses that count as "finished" for resume purposes.
SUCCESS_STATUSES = frozenset({"ok", "retried", "cached"})


@dataclass
class CellFailure:
    """A cell that permanently failed (all retry attempts exhausted).

    Surfaced on :class:`~repro.harness.runner.CampaignError` at the end
    of the campaign — after every other cell has finished and been
    cached/journaled — instead of aborting the run at the first crash.
    """

    index: int
    """Position of the cell in the campaign's spec list."""
    fingerprint: str
    attempts: int
    """Execution attempts consumed (1 + retries used)."""
    error_type: str
    """Exception class name of the last attempt's failure."""
    message: str
    elapsed_s: float = 0.0
    """Wall clock of the last attempt (0.0 when unknown, e.g. a pool
    crash where the worker died before reporting)."""

    def to_dict(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"cell {self.index} ({self.fingerprint[:12]}) failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


class RunJournal:
    """Append-only JSONL event sink for one (or more) campaigns.

    Open with a path (parent directories are created) or pass an
    already-open instance into ``run_cells`` — the runner only closes
    journals it opened itself, so several campaigns can share a file.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    # -- low-level -----------------------------------------------------------

    def write(self, record: dict) -> None:
        """Append one record (a ``ts`` wall-clock stamp is added)."""
        record = {"ts": round(time.time(), 3), **record}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaign events -----------------------------------------------------

    def campaign_start(
        self,
        *,
        total: int,
        unique: int,
        cached: int = 0,
        jobs: int = 1,
        retries: int = 0,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        resumed_from: Optional[str] = None,
        results_version: Optional[int] = None,
    ) -> None:
        record = {
            "event": "start",
            "schema": JOURNAL_SCHEMA_VERSION,
            "pid": os.getpid(),
            "total": total,
            "unique": unique,
            "jobs": jobs,
            "retries": retries,
        }
        if timeout is not None:
            record["timeout_s"] = timeout
        if cache_dir is not None:
            record["cache_dir"] = os.fspath(cache_dir)
        if resumed_from is not None:
            record["resumed_from"] = os.fspath(resumed_from)
        if results_version is not None:
            record["results_version"] = results_version
        self.write(record)

    def cell(
        self,
        *,
        index: int,
        fingerprint: str,
        status: str,
        attempts: int,
        elapsed_s: float,
        pid: Optional[int] = None,
        cache: Optional[str] = None,
        error: Optional[dict] = None,
        dedup_of: Optional[int] = None,
        resumed: bool = False,
    ) -> None:
        """Terminal record for one cell.

        ``status`` is ``ok`` (first attempt succeeded), ``retried``
        (succeeded after >= 1 failed attempt), ``cached`` (loaded from
        the result cache) or ``failed`` (attempts exhausted).
        ``cache`` records the result-cache interaction: ``hit`` /
        ``miss`` / ``stored`` / ``store-failed`` / ``corrupt``.
        """
        record = {
            "event": "cell",
            "index": index,
            "fingerprint": fingerprint,
            "status": status,
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 6),
        }
        if pid is not None:
            record["pid"] = pid
        if cache is not None:
            record["cache"] = cache
        if error is not None:
            record["error"] = error
        if dedup_of is not None:
            record["dedup_of"] = dedup_of
        if resumed:
            record["resumed"] = True
        self.write(record)

    def attempt(
        self,
        *,
        index: int,
        fingerprint: str,
        attempt: int,
        error_type: str,
        message: str,
        will_retry: bool,
        elapsed_s: float = 0.0,
    ) -> None:
        """One failed execution attempt (successes only log ``cell``)."""
        self.write({
            "event": "attempt",
            "index": index,
            "fingerprint": fingerprint,
            "attempt": attempt,
            "error": {"type": error_type, "message": message},
            "will_retry": will_retry,
            "elapsed_s": round(elapsed_s, 6),
        })

    def pool_broken(self, message: str) -> None:
        """The worker pool crashed and is being rebuilt."""
        self.write({"event": "pool_broken", "message": message})

    def campaign_end(
        self, *, completed: int, failed: int, elapsed_s: float
    ) -> None:
        self.write({
            "event": "end",
            "completed": completed,
            "failed": failed,
            "elapsed_s": round(elapsed_s, 6),
        })


def _iter_records(path) -> Iterator[dict]:
    with open(os.fspath(path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A campaign killed mid-write leaves one truncated
                # trailing line; skip it rather than failing the read.
                continue
            if isinstance(record, dict):
                yield record


def read_journal(path) -> List[dict]:
    """All well-formed records of a journal file, in append order."""
    return list(_iter_records(path))


def finished_fingerprints(path) -> Set[str]:
    """Fingerprints of cells a journal records as successfully finished.

    These are the cells a resumed campaign may skip (their results are
    in the result cache); ``failed`` cells and cells with no terminal
    record are *not* included and will be recomputed.
    """
    finished: Set[str] = set()
    for record in _iter_records(path):
        if record.get("event") == "cell" and record.get("status") in SUCCESS_STATUSES:
            fingerprint = record.get("fingerprint")
            if fingerprint:
                finished.add(fingerprint)
    return finished
