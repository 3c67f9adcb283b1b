"""Parallel experiment execution engine.

Every simulation experiment in the harness is a set of independent
*cells*: one (workload, scheme, voltage, seed) simulation each.  This
module runs such sets — serially or fanned out over a process pool —
with three guarantees:

- **Determinism.**  Each cell derives everything it needs (fault map,
  trace, scheme RNG) from its own :class:`~repro.utils.rng.RngFactory`
  streams, which are pure functions of ``(seed, name)``.  A cell's
  result is therefore independent of which process runs it, in what
  order, and alongside which other cells: ``jobs=N`` is bit-identical
  to ``jobs=1``.
- **Ordered collection.**  ``run_cells`` returns results in input
  order regardless of completion order, with per-cell wall-clock
  timing and an optional progress callback.
- **Free re-runs.**  With ``cache_dir`` set, each finished cell is
  written to disk keyed by a fingerprint of its spec; re-running an
  unchanged cell loads the stored result instead of simulating.

Expensive deterministic inputs (fault maps, traces) are additionally
memoised per process, so cells sharing a (seed, workload) do not
rebuild them — and, on fork-based platforms, worker processes inherit
the parent's warm memo for free.

Campaigns are additionally **fault tolerant** (see
``docs/campaign-robustness.md``): a crashed worker or broken process
pool no longer aborts the run — failed cells are retried with jittered
backoff (``retries``), optionally bounded per cell (``timeout``), and
anything that fails permanently is surfaced at the end as a
:class:`CampaignError` carrying structured
:class:`~repro.harness.journal.CellFailure` records, after every other
cell has finished and been cached.  Attach a
:class:`~repro.harness.journal.RunJournal` (``journal=``) to stream
one JSONL event per cell and resume interrupted campaigns
(``resume=``).  Duplicate specs (same fingerprint) are simulated once
and fanned back out to every requesting index.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import random
import signal
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cache.core import WriteBackCache
from repro.faults import FaultMap
from repro.gpu import GpuSimulator
from repro.harness.journal import CellFailure, RunJournal, finished_fingerprints
from repro.harness.results import PerfPoint
from repro.scenario.config import ScenarioConfig, as_scenario
from repro.scenario.schemes import LV_VOLTAGE, make_scheme, scheme_names
from repro.traces import workload_trace_memo
from repro.metrics import METRICS
from repro.utils.rng import RngFactory

__all__ = [
    "LV_VOLTAGE",
    "CellResult",
    "CellFailure",
    "CampaignError",
    "CellTimeoutError",
    "make_scheme",
    "scheme_names",
    "run_cell",
    "run_cells",
]

_LOG = logging.getLogger("repro.harness")

#: Version of the simulated results.  Bump on any change that alters a
#: :class:`CellResult` for an unchanged scenario (or its serialised
#: shape): it invalidates every on-disk cache entry written before, and
#: ``tests/golden/results.json`` must then be re-recorded.
RESULTS_VERSION = 1


# -- memoised deterministic inputs -------------------------------------------


@lru_cache(maxsize=4)
def fault_map_for(n_lines: int, seed: int) -> FaultMap:
    """The (deterministic) chip fault map for an experiment seed.

    Derived from the seed's ``"fault-map"`` stream — the same map the
    serial runners always built — and memoised because every cell of a
    campaign shares it.  FaultMap is read-only after construction.
    """
    return FaultMap(n_lines=n_lines, rng=RngFactory(seed).stream("fault-map"))


def trace_for(workload: str, accesses_per_cu: int, n_cus: int, seed: int):
    """The (deterministic) kernel trace for a (workload, seed) pair.

    Derived from the seed's ``"trace/<workload>"`` stream; memoised
    (by :func:`repro.traces.workloads.workload_trace_memo`) because
    every scheme cell of a workload replays the same trace.  Traces are
    read-only (the engine copies them into flat arrays).
    """
    return workload_trace_memo(
        workload, accesses_per_cu, n_cus=n_cus, seed=seed
    )


# -- cell specification and result -------------------------------------------


@dataclass
class CellResult:
    """Metrics of one finished cell (plain data; JSON-serialisable)."""

    workload: str
    scheme: str
    voltage: float
    seed: int
    cycles: int
    instructions: int
    l2: dict
    """Full L2 counter dict (``CacheStats.as_dict()``)."""
    memory_reads: int
    memory_writes: int
    disabled_fraction: float = 0.0
    sdc_events: int = 0
    dfh: Optional[dict] = None
    """DFH-state histogram (Killi schemes only)."""
    dfh_lines: int = 0
    elapsed_s: float = 0.0
    from_cache: bool = False
    fingerprint: str = ""

    @property
    def l2_misses(self) -> int:
        return self.l2["read_misses"] + self.l2["write_misses"]

    @property
    def l2_mpki(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.l2_misses / self.instructions

    def to_perf_point(self) -> PerfPoint:
        """Project onto the Figure 4/5 matrix cell type."""
        return PerfPoint(
            workload=self.workload,
            scheme=self.scheme,
            cycles=self.cycles,
            instructions=self.instructions,
            l2_misses=self.l2_misses,
            error_induced_misses=self.l2.get("error_induced_misses", 0),
            ecc_evict_invalidations=self.l2.get("ecc_evict_invalidations", 0),
            memory_reads=self.memory_reads,
            memory_writes=self.memory_writes,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        return cls(**data)


# -- cell execution -----------------------------------------------------------


def run_cell(spec) -> CellResult:
    """Execute one cell: fresh GPU, deterministic inputs, full metrics.

    ``spec`` is a :class:`~repro.scenario.config.ScenarioConfig`.  Pure
    function of ``spec``: reproduces exactly what the serial Figure 4/5 loop
    computed for the same (workload, scheme, voltage, seed) — same
    fault-map stream, same trace stream, same per-cell scheme RNG
    namespace.
    """
    scenario = as_scenario(spec)
    workload = scenario.workload.name
    scheme_name = scenario.scheme.name
    voltage = scenario.fault.voltage
    seed = scenario.fault.seed
    with METRICS.timer("cell.setup"):
        gpu_config = scenario.gpu.to_gpu_config()
        fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
        trace = trace_for(
            workload, scenario.workload.accesses_per_cu, gpu_config.n_cus, seed
        )
        rngs = RngFactory(seed).child(f"{workload}/{scheme_name}")
        scheme = make_scheme(
            scheme_name,
            gpu_config,
            fault_map,
            voltage,
            rngs,
            scheme_config=scenario.scheme.overrides or None,
            write_back=scenario.scheme.write_back,
        )
        simulator = GpuSimulator(gpu_config, scheme, engine=scenario.engine.engine)
        if scenario.scheme.write_back:
            simulator.l2 = WriteBackCache(
                gpu_config.l2,
                scheme,
                gpu_config.l2_latencies,
                substrate=simulator.l2.substrate,
            )

    started = time.perf_counter()
    with METRICS.timer("cell.simulate"):
        result = simulator.run(trace)
    elapsed = time.perf_counter() - started
    METRICS.incr("cells.simulated")

    dfh = scheme.dfh_histogram() if hasattr(scheme, "dfh_histogram") else None
    cell = CellResult(
        workload=workload,
        scheme=scheme_name,
        voltage=voltage,
        seed=seed,
        cycles=result.cycles,
        instructions=result.instructions,
        l2=result.l2_stats.as_dict(),
        memory_reads=simulator.l2.memory_reads,
        memory_writes=simulator.l2.memory_writes,
        disabled_fraction=(
            scheme.disabled_fraction()
            if hasattr(scheme, "disabled_fraction")
            else 0.0
        ),
        sdc_events=getattr(scheme, "sdc_events", 0),
        dfh=dfh,
        dfh_lines=len(scheme.dfh) if hasattr(scheme, "dfh") else 0,
        elapsed_s=elapsed,
        fingerprint=scenario.fingerprint(),
    )
    simulator.release()
    return cell


# -- on-disk result cache ------------------------------------------------------


def _cache_path(cache_dir: str, fingerprint: str) -> str:
    return os.path.join(cache_dir, f"{fingerprint}.json")


def _quarantine(path: str) -> None:
    """Move a corrupt cache entry aside so it is parsed (at most) once.

    The entry is renamed to ``<path>.corrupt`` — out of the cache's
    namespace but preserved for inspection — instead of being left in
    place to fail deserialisation again on every future campaign.
    """
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        return
    METRICS.incr("cache.corrupt")
    _LOG.warning("quarantined corrupt cache entry %s", path)


def _load_cached(cache_dir: str, fingerprint: str) -> Optional[CellResult]:
    """Load a cached result; None on miss (corrupt entries are
    quarantined to ``.corrupt`` and counted, then treated as misses)."""
    path = _cache_path(cache_dir, fingerprint)
    try:
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("schema") != RESULTS_VERSION:
            _quarantine(path)
            return None
        result = CellResult.from_dict(payload["result"])
    except FileNotFoundError:
        METRICS.incr("cache.miss")
        return None
    except OSError:
        METRICS.incr("cache.miss")
        return None
    except (ValueError, KeyError, TypeError):
        _quarantine(path)
        return None
    METRICS.incr("cache.hit")
    result.from_cache = True
    return result


def _store_cached(
    cache_dir: str,
    scenario: ScenarioConfig,
    result: CellResult,
    fingerprint: Optional[str] = None,
) -> bool:
    """Atomically persist a result (rename tolerates parallel writers).

    Returns True when stored.  Any failure — I/O *or* an unserialisable
    result — is logged and counted, never raised: a cache-store problem
    must not kill a campaign, and the temp file is removed either way.
    """
    if fingerprint is None:
        fingerprint = scenario.fingerprint()
    payload = {
        "schema": RESULTS_VERSION,
        "spec": scenario.to_dict(),
        "result": result.to_dict(),
    }
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError as error:
        METRICS.incr("cache.store_failed")
        _LOG.warning("cache store failed for %s: %s", fingerprint[:12], error)
        return False
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, _cache_path(cache_dir, fingerprint))
    except (OSError, TypeError, ValueError) as error:
        METRICS.incr("cache.store_failed")
        _LOG.warning("cache store failed for %s: %s", fingerprint[:12], error)
        return False
    finally:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
    METRICS.incr("cache.stored")
    return True


# -- campaign execution --------------------------------------------------------

ProgressFn = Callable[[int, int, CellResult], None]


class CellTimeoutError(TimeoutError):
    """A cell exceeded the per-cell ``timeout`` budget."""


class CampaignError(RuntimeError):
    """One or more cells failed permanently (retries exhausted).

    Raised at the *end* of the campaign — every other cell has already
    finished, been cached and journaled.  ``failures`` holds one
    structured :class:`~repro.harness.journal.CellFailure` per failed
    cell; ``results`` is the full in-order result list with ``None`` at
    the failed indices, so completed work remains accessible.
    """

    def __init__(self, failures: List[CellFailure], results: List[Optional[CellResult]]):
        self.failures = failures
        self.results = results
        shown = "; ".join(str(f) for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)} of {len(results)} campaign cell(s) failed "
            f"permanently: {shown}{more}"
        )


def _validate_campaign_args(
    jobs, retries, timeout, backoff, cache_dir, resume
) -> None:
    """Reject bad campaign parameters with a clear error up front,
    instead of silently falling through to the serial path or crashing
    inside ``ProcessPoolExecutor``."""
    try:
        jobs_ok = int(jobs) == jobs and jobs >= 1
    except (TypeError, ValueError):
        jobs_ok = False
    if not jobs_ok:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    try:
        retries_ok = int(retries) == retries and retries >= 0
    except (TypeError, ValueError):
        retries_ok = False
    if not retries_ok:
        raise ValueError(f"retries must be an integer >= 0, got {retries!r}")
    if timeout is not None and not (isinstance(timeout, (int, float)) and timeout > 0):
        raise ValueError(f"timeout must be > 0 seconds, got {timeout!r}")
    if backoff is not None and not (isinstance(backoff, (int, float)) and backoff >= 0):
        raise ValueError(f"backoff must be >= 0 seconds, got {backoff!r}")
    if resume is not None and cache_dir is None:
        raise ValueError(
            "resume requires cache_dir: the journal records *which* cells "
            "finished; the result cache holds their results"
        )


def _arm_timeout(seconds: Optional[float]):
    """Arm a SIGALRM-based deadline; returns a disarm callable.

    Timeouts are enforced inside the executing process (worker or
    in-process serial path) so a timed-out cell never leaves a zombie
    computation behind.  On platforms/threads without SIGALRM the
    deadline is not enforced (returns a no-op disarm).
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        return lambda: None

    def _on_alarm(signum, frame):
        raise CellTimeoutError(f"cell exceeded the {seconds:g}s timeout")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(seconds))
    except ValueError:
        # Not the main thread of this process; cannot enforce.
        return lambda: None

    def _disarm():
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

    return _disarm


def _execute_cell(
    scenario: ScenarioConfig,
    fingerprint: str,
    timeout: Optional[float],
    collect_metrics: bool,
) -> Tuple[CellResult, int, float, Optional[dict]]:
    """One execution attempt: fault-injection hook, deadline, run_cell.

    Runs in the worker process (or in-process on the serial path) and
    returns ``(result, pid, attempt_elapsed_s, telemetry_delta)`` —
    the telemetry delta lets the parent aggregate worker-side metrics;
    it is only collected on the pool path (the serial path records
    straight into the parent's sink).
    """
    from repro.harness import faultinject

    if collect_metrics and METRICS.enabled:
        # A forked pool worker inherits the parent's counters as they
        # stood at fork time; drop them so drain() below returns only
        # this attempt's delta (the parent already holds its own copy).
        METRICS.reset()
    started = time.perf_counter()
    disarm = _arm_timeout(timeout)
    try:
        faultinject.maybe_inject(
            fingerprint, f"{scenario.workload.name}/{scenario.scheme.name}"
        )
        result = run_cell(scenario)
    finally:
        disarm()
    elapsed = time.perf_counter() - started
    telemetry = METRICS.drain() if (collect_metrics and METRICS.enabled) else None
    return result, os.getpid(), elapsed, telemetry


def _backoff_sleep(backoff: float, failed_attempt: int, jitter: random.Random) -> None:
    """Exponential backoff with +/-50% jitter before a retry."""
    if backoff <= 0:
        return
    time.sleep(backoff * (2 ** (failed_attempt - 1)) * (0.5 + jitter.random()))


class _Campaign:
    """Shared bookkeeping for one ``run_cells`` invocation."""

    def __init__(self, scenarios, fingerprints, groups, cache_dir,
                 journal, progress, retries):
        self.scenarios = scenarios
        self.fingerprints = fingerprints
        self.groups = groups  # fingerprint -> [indices], first-seen order
        self.cache_dir = cache_dir
        self.journal = journal
        self.progress = progress
        self.retries = retries
        self.total = len(scenarios)
        self.results: List[Optional[CellResult]] = [None] * self.total
        self.failures: List[CellFailure] = []
        self.done = 0

    def _fan_out(self, fingerprint: str, result: CellResult) -> None:
        """Assign one computed result to every index requesting it.

        The first index gets the object itself; duplicate-spec indices
        get shallow copies so callers can annotate results per index.
        """
        indices = self.groups[fingerprint]
        for k, index in enumerate(indices):
            self.results[index] = (
                result if k == 0 else dataclasses.replace(result)
            )

    def _emit(self, fingerprint, status, attempts, elapsed_s,
              pid=None, cache=None, error=None, resumed=False):
        """Journal + progress for every index of a finished cell."""
        indices = self.groups[fingerprint]
        for k, index in enumerate(indices):
            self.done += 1
            if self.journal is not None:
                self.journal.cell(
                    index=index,
                    fingerprint=fingerprint,
                    status=status,
                    attempts=attempts,
                    elapsed_s=elapsed_s,
                    pid=pid,
                    cache=cache,
                    error=error,
                    dedup_of=indices[0] if k else None,
                    resumed=resumed,
                )
            if self.progress and self.results[index] is not None:
                self.progress(self.done, self.total, self.results[index])

    def complete(self, fingerprint, result, attempts, pid, elapsed_s) -> None:
        cache_state = None
        if self.cache_dir:
            stored = _store_cached(
                self.cache_dir,
                self.scenarios[self.groups[fingerprint][0]],
                result,
                fingerprint,
            )
            cache_state = "stored" if stored else "store-failed"
        self._fan_out(fingerprint, result)
        status = "retried" if attempts > 1 else "ok"
        METRICS.incr("campaign.cells_ok", len(self.groups[fingerprint]))
        if attempts > 1:
            METRICS.incr("campaign.cells_retried", len(self.groups[fingerprint]))
        self._emit(fingerprint, status, attempts, elapsed_s,
                   pid=pid, cache=cache_state)

    def complete_cached(self, fingerprint, result, resumed: bool) -> None:
        self._fan_out(fingerprint, result)
        METRICS.incr("campaign.cells_cached", len(self.groups[fingerprint]))
        self._emit(fingerprint, "cached", 0, 0.0, cache="hit", resumed=resumed)

    def fail(self, fingerprint, attempts, error, elapsed_s) -> None:
        detail = {"type": type(error).__name__, "message": str(error)}
        for index in self.groups[fingerprint]:
            self.failures.append(CellFailure(
                index=index,
                fingerprint=fingerprint,
                attempts=attempts,
                error_type=detail["type"],
                message=detail["message"],
                elapsed_s=elapsed_s,
            ))
        METRICS.incr("campaign.cells_failed", len(self.groups[fingerprint]))
        _LOG.error(
            "cell %s failed permanently after %d attempt(s): %s: %s",
            fingerprint[:12], attempts, detail["type"], detail["message"],
        )
        self._emit(fingerprint, "failed", attempts, elapsed_s, error=detail)

    def record_attempt_failure(self, fingerprint, attempt, error,
                               elapsed_s) -> bool:
        """Journal one failed attempt; returns whether it will retry."""
        will_retry = attempt <= self.retries
        METRICS.incr("campaign.attempts_failed")
        _LOG.warning(
            "cell %s attempt %d failed (%s: %s)%s",
            fingerprint[:12], attempt, type(error).__name__, error,
            "; retrying" if will_retry else "",
        )
        if self.journal is not None:
            self.journal.attempt(
                index=self.groups[fingerprint][0],
                fingerprint=fingerprint,
                attempt=attempt,
                error_type=type(error).__name__,
                message=str(error),
                will_retry=will_retry,
                elapsed_s=elapsed_s,
            )
        return will_retry


def _run_serial(campaign: _Campaign, run_queue, timeout, backoff, jitter):
    """In-process execution with the same retry policy as the pool."""
    for fingerprint in run_queue:
        scenario = campaign.scenarios[campaign.groups[fingerprint][0]]
        attempt = 0
        while True:
            attempt += 1
            started = time.perf_counter()
            try:
                result, pid, elapsed, _ = _execute_cell(
                    scenario, fingerprint, timeout, collect_metrics=False
                )
            except Exception as error:  # noqa: BLE001 — isolation boundary
                elapsed = time.perf_counter() - started
                if campaign.record_attempt_failure(
                    fingerprint, attempt, error, elapsed
                ):
                    _backoff_sleep(backoff, attempt, jitter)
                    continue
                campaign.fail(fingerprint, attempt, error, elapsed)
                break
            campaign.complete(fingerprint, result, attempt, pid, elapsed)
            break


def _run_pool(campaign: _Campaign, run_queue, jobs, timeout, backoff, jitter):
    """Process-pool execution with per-cell isolation and pool rebuild.

    A worker exception fails only its own cell (retried up to the
    budget); a pool crash (``BrokenProcessPool`` — e.g. a worker was
    OOM-killed) fails every in-flight attempt the same way, then the
    pool is rebuilt once and eligible cells are resubmitted.
    """
    scenarios = campaign.scenarios
    # Warm the shared fault maps before forking so workers inherit
    # them (copy-on-write) instead of each resampling the chip.
    for gpu, seed in {
        (scenarios[campaign.groups[fp][0]].gpu,
         scenarios[campaign.groups[fp][0]].fault.seed)
        for fp in run_queue
    }:
        fault_map_for(gpu.to_gpu_config().l2.n_lines, seed)

    max_workers = min(jobs, len(run_queue))
    collect = METRICS.enabled
    pool = ProcessPoolExecutor(max_workers=max_workers)
    inflight: Dict[object, Tuple[str, int]] = {}

    def submit(fingerprint: str, attempt: int) -> None:
        scenario = scenarios[campaign.groups[fingerprint][0]]
        future = pool.submit(
            _execute_cell, scenario, fingerprint, timeout, collect
        )
        inflight[future] = (fingerprint, attempt)

    def consume(future, fingerprint, attempt, retry_later) -> bool:
        """Settle one future; returns True if it broke the pool."""
        broke = False
        try:
            result, pid, elapsed, telemetry = future.result()
        except BrokenExecutor as error:
            broke = True
            if campaign.record_attempt_failure(fingerprint, attempt, error, 0.0):
                retry_later.append((fingerprint, attempt))
            else:
                campaign.fail(fingerprint, attempt, error, 0.0)
        except Exception as error:  # noqa: BLE001 — isolation boundary
            if campaign.record_attempt_failure(fingerprint, attempt, error, 0.0):
                retry_later.append((fingerprint, attempt))
            else:
                campaign.fail(fingerprint, attempt, error, 0.0)
        else:
            if telemetry:
                METRICS.merge(telemetry)
            campaign.complete(fingerprint, result, attempt, pid, elapsed)
        return broke

    try:
        for fingerprint in run_queue:
            submit(fingerprint, 1)
        while inflight:
            ready, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            retry_later: List[Tuple[str, int]] = []
            pool_broke = False
            for future in ready:
                fingerprint, attempt = inflight.pop(future)
                pool_broke |= consume(future, fingerprint, attempt, retry_later)
            if pool_broke:
                # Every other in-flight future is doomed with the same
                # BrokenProcessPool; drain them, then rebuild the pool.
                for future, (fingerprint, attempt) in list(inflight.items()):
                    consume(future, fingerprint, attempt, retry_later)
                inflight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=max_workers)
                METRICS.incr("campaign.pool_rebuilds")
                _LOG.warning("worker pool crashed; rebuilt with %d worker(s)",
                             max_workers)
                if campaign.journal is not None:
                    campaign.journal.pool_broken(
                        f"worker pool crashed; rebuilt with {max_workers} worker(s)"
                    )
            for fingerprint, attempt in retry_later:
                _backoff_sleep(backoff, attempt, jitter)
                submit(fingerprint, attempt + 1)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_cells(
    specs: Iterable,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    *,
    retries: int = 0,
    timeout: Optional[float] = None,
    backoff: float = 0.05,
    journal=None,
    resume=None,
    strict: bool = True,
) -> List[CellResult]:
    """Run a set of cells, optionally in parallel, cached and journaled.

    Parameters
    ----------
    specs:
        Cells to run, as :class:`~repro.scenario.config.ScenarioConfig`
        scenarios.  Results come back in the same order.  Specs sharing
        a fingerprint are simulated once and fanned back out.
    jobs:
        Worker processes; ``1`` runs in-process (no pool).  Results
        are bit-identical either way.
    cache_dir:
        Directory for the fingerprint-keyed result cache.  Finished
        cells are stored there; unchanged cells are re-loaded for free
        (``CellResult.from_cache`` marks them).  Corrupt entries are
        quarantined to ``.corrupt`` files and recomputed.
    progress:
        ``progress(done, total, result)`` called after every finished
        cell (cached hits included), in completion order.
    retries:
        Extra execution attempts per cell after a worker exception,
        per-cell timeout, or pool crash (jittered exponential
        ``backoff`` between attempts).  Retried cells are bit-identical
        to first-try successes — the inputs derive only from the spec.
    timeout:
        Per-cell wall-clock budget in seconds, enforced inside the
        executing process via SIGALRM (unenforced where unavailable).
        A timed-out attempt counts against ``retries``.
    journal:
        Path or open :class:`~repro.harness.journal.RunJournal`:
        streams one JSONL event per cell plus campaign start/end
        records (see ``docs/campaign-robustness.md``).
    resume:
        Path to a previous run's journal.  Cells it records as
        finished load straight from the result cache (requires
        ``cache_dir``); anything unfinished is recomputed.  A resumed
        campaign is bit-identical to an uninterrupted one.
    strict:
        With the default True, permanently failed cells raise
        :class:`CampaignError` *after* the rest of the campaign has
        completed (the exception carries failures + partial results).
        With False, failed indices are simply ``None`` in the returned
        list.
    """
    _validate_campaign_args(jobs, retries, timeout, backoff, cache_dir, resume)
    scenarios = [as_scenario(spec) for spec in specs]
    fingerprints = [scenario.fingerprint() for scenario in scenarios]
    resume_set = finished_fingerprints(resume) if resume else frozenset()

    owns_journal = journal is not None and not isinstance(journal, RunJournal)
    jrn = RunJournal(journal) if owns_journal else journal

    # Dedupe: one execution (and one cache probe) per unique fingerprint.
    groups: Dict[str, List[int]] = {}
    for index, fingerprint in enumerate(fingerprints):
        groups.setdefault(fingerprint, []).append(index)

    campaign = _Campaign(scenarios, fingerprints, groups, cache_dir,
                         jrn, progress, retries)
    started = time.perf_counter()
    jitter = random.Random()
    try:
        run_queue: List[str] = []
        if jrn is not None:
            jrn.campaign_start(
                total=len(scenarios),
                unique=len(groups),
                jobs=jobs,
                retries=retries,
                timeout=timeout,
                cache_dir=cache_dir,
                resumed_from=resume,
                results_version=RESULTS_VERSION,
            )
        for fingerprint in groups:
            cached = _load_cached(cache_dir, fingerprint) if cache_dir else None
            if cached is not None:
                campaign.complete_cached(
                    fingerprint, cached, resumed=fingerprint in resume_set
                )
            else:
                if fingerprint in resume_set:
                    # The journal says finished but the cache cannot
                    # serve it (evicted / store failed): recompute.
                    METRICS.incr("campaign.resume_misses")
                run_queue.append(fingerprint)

        if run_queue and jobs > 1 and len(run_queue) > 1:
            _run_pool(campaign, run_queue, jobs, timeout, backoff, jitter)
        else:
            _run_serial(campaign, run_queue, timeout, backoff, jitter)

        if jrn is not None:
            jrn.campaign_end(
                completed=len(scenarios) - len(campaign.failures),
                failed=len(campaign.failures),
                elapsed_s=time.perf_counter() - started,
            )
    finally:
        if owns_journal and jrn is not None:
            jrn.close()

    if campaign.failures and strict:
        raise CampaignError(campaign.failures, campaign.results)
    return campaign.results  # type: ignore[return-value]
