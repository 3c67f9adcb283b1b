"""Span tracing for the end-to-end benchmark.

A traced pass records one span per call into a simulator layer: name,
start, end, the enclosing span, and the request it belongs to (the
fingerprint of the cell being simulated).  Spans are kept in memory
and reduced to per-layer metrics when the pass ends; nothing is written
while the pass runs.

The spans are recorded from the benchmark's side only.  :func:`instrument`
wraps each layer's entry point where its caller looks it up (a module
attribute, a class attribute, or — for the L2's per-access ``read`` /
``write`` — an instance attribute, the same shadowing the invariant
layer uses, so ``CacheModel.semantics_batchable`` is unaffected) and
restores the originals on exit.  Per-access calls are too frequent to
keep one span each: they aggregate to one total and one count on the
enclosing ``engine.simulate`` span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "SpanRecorder",
    "covered_length",
    "self_times",
    "instrument",
    "layer_metrics",
]


class Span:
    """One timed call: ``[start, end]`` on the recorder's clock."""

    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, end=None, parent=None, request=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: span index -> [seconds, calls] of per-access work inside it
        self.access: Dict[int, list] = {}
        #: free-form counters recorded at layer boundaries
        self.counts: Dict[str, float] = {}
        #: request id -> scheme name of that cell
        self.labels: Dict[str, str] = {}
        self.request: Optional[str] = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent, self.request))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# -- reduction -----------------------------------------------------------------


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans, access=None) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children may nest or overlap (parallel work); only the union of
    their intervals, clipped to the parent, is subtracted.  Per-access
    totals in ``access`` (span index -> ``[seconds, calls]``) ran inside
    that span and outside every child span, so they are subtracted
    whole.
    """
    children: Dict[int, list] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    access = access or {}
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(index, ())
        ]
        busy = covered_length(clipped) + access.get(index, (0.0, 0))[0]
        out.append(max(0.0, span.duration - busy))
    return out


def _is_killi(scheme: str) -> bool:
    return scheme.startswith("killi")


def layer_metrics(recorder: SpanRecorder, telemetry: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``telemetry`` is the ``METRICS.snapshot()`` taken over the same
    pass; its counters supply the memo and batching counts the program
    already keeps.
    """
    spans = recorder.spans
    selfs = self_times(spans, recorder.access)
    durations: Dict[str, float] = {}
    self_by_name: Dict[str, float] = {}
    simulate = {"killi": 0.0, "mbist": 0.0}
    for span, own in zip(spans, selfs):
        durations[span.name] = durations.get(span.name, 0.0) + span.duration
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own
        if span.name == "engine.simulate":
            kind = (
                "killi"
                if _is_killi(recorder.labels.get(span.request, ""))
                else "mbist"
            )
            simulate[kind] += span.duration
    access_s = sum(total for total, _ in recorder.access.values())
    accesses = sum(n for _, n in recorder.access.values())
    counters = telemetry.get("counters", {})
    counts = recorder.counts

    def ratio(num, den):
        return num / den if den else 0.0

    residue = counts.get("l1filter.residue", 0)
    guard_aborts = sum(
        value
        for name, value in counters.items()
        if name.startswith("engine.batched.guard_aborts.Killi")
    )
    trace_hits = counters.get("traces.memo_hits", 0)
    trace_misses = counters.get("traces.memo_misses", 0)
    l1_hits = counters.get("l1filter.memo_hits", 0)
    l1_misses = counters.get("l1filter.memo_misses", 0)
    batched = residue - accesses
    return {
        "runner.self_s": self_by_name.get("runner.run_cells", 0.0)
        + self_by_name.get("cell", 0.0),
        "runner.cache_store_s": durations.get("runner.cache_store", 0.0),
        "runner.cache_load_s": durations.get("runner.cache_load", 0.0),
        "scenario.expand_s": durations.get("scenario.expand", 0.0),
        "traces.gen_s": durations.get("traces.get", 0.0),
        "traces.generated": trace_misses,
        "traces.memo_hit_ratio": ratio(trace_hits, trace_hits + trace_misses),
        "faults.map_s": durations.get("faults.map", 0.0),
        "faults.maps_built": counts.get("faults.maps_built", 0),
        "schemes.build_s": durations.get("schemes.build", 0.0),
        "engine.build_s": durations.get("engine.build", 0.0),
        "l1filter.s": durations.get("l1filter", 0.0),
        "l1filter.residue_frac": ratio(residue, counts.get("l1filter.accesses", 0)),
        "l1filter.memo_hit_ratio": ratio(l1_hits, l1_hits + l1_misses),
        "engine.simulate_s": durations.get("engine.simulate", 0.0),
        "engine.simulate_s_killi": simulate["killi"],
        "engine.simulate_s_mbist": simulate["mbist"],
        "engine.self_s": self_by_name.get("engine.simulate", 0.0),
        "engine.sets_batched": counters.get("engine.batched.sets_batched", 0),
        "engine.accesses_batched": batched,
        "engine.batched_frac": ratio(batched, residue),
        "cache.access_s": access_s,
        "cache.accesses": accesses,
        "cache.ns_per_access": ratio(access_s * 1e9, accesses),
        "killi.interp_calls": counts.get("killi.interp_calls", 0),
        "killi.guard_aborts": guard_aborts,
        "killi.aborts_per_kaccess": ratio(
            1000.0 * guard_aborts, counts.get("l1filter.residue.killi", 0)
        ),
        "analysis.s": durations.get("analysis", 0.0),
        "softerr.s": durations.get("softerr", 0.0),
        "trace.unattributed_s": self_by_name.get("pass", 0.0),
    }


# -- instrumentation -----------------------------------------------------------


def _shadow_cache(recorder: SpanRecorder, cache, totals: list):
    """Shadow ``cache.read``/``write``, aggregating their time and calls
    into ``totals``; returns a restore callable."""
    clock = recorder.clock
    saved = {name: cache.__dict__.get(name) for name in ("read", "write")}
    inner_read, inner_write = cache.read, cache.write

    def read(addr):
        started = clock()
        latency = inner_read(addr)
        totals[0] += clock() - started
        totals[1] += 1
        return latency

    def write(addr):
        started = clock()
        latency = inner_write(addr)
        totals[0] += clock() - started
        totals[1] += 1
        return latency

    cache.read = read
    cache.write = write

    def restore():
        for name, value in saved.items():
            if value is None:
                cache.__dict__.pop(name, None)
            else:
                setattr(cache, name, value)

    return restore


@contextmanager
def instrument(recorder: SpanRecorder):
    """Route every layer entry point of the simulator through ``recorder``.

    Restores every patched attribute on exit, including on error.
    """
    import repro.gpu.engine as gpu_engine
    import repro.harness.experiments as experiments
    import repro.harness.runner as runner
    from repro.core.killi_replay import KilliClusterInterpreter
    from repro.scenario.config import as_scenario
    from repro.scenario.runfile import Scenario

    fault_map_for = runner.fault_map_for
    run_cell = runner.run_cell
    run_l1_stream_memo = gpu_engine.run_l1_stream_memo
    simulator_run = gpu_engine.GpuSimulator.run
    interpreter_run = KilliClusterInterpreter.run

    def traced_fault_map_for(*args, **kwargs):
        misses = fault_map_for.cache_info().misses
        with recorder.span("faults.map"):
            fault_map = fault_map_for(*args, **kwargs)
        recorder.count("faults.maps_built", fault_map_for.cache_info().misses - misses)
        return fault_map

    def traced_run_cell(spec):
        scenario = as_scenario(spec)
        request = scenario.fingerprint()
        recorder.labels[request] = scenario.scheme.name
        outer, recorder.request = recorder.request, request
        try:
            with recorder.span("cell"):
                return run_cell(spec)
        finally:
            recorder.request = outer

    def traced_l1_filter(l1, stream, addrs, is_store, line_nos=None):
        with recorder.span("l1filter"):
            keep = run_l1_stream_memo(l1, stream, addrs, is_store, line_nos)
        recorder.count("l1filter.accesses", len(addrs))
        recorder.count("l1filter.residue", len(keep))
        if _is_killi(recorder.labels.get(recorder.request, "")):
            recorder.count("l1filter.residue.killi", len(keep))
        return keep

    def traced_simulator_run(sim, trace, engine=None):
        with recorder.span("engine.simulate") as index:
            totals = recorder.access[index] = [0.0, 0]
            restore = _shadow_cache(recorder, sim.l2, totals)
            try:
                return simulator_run(sim, trace, engine)
            finally:
                restore()

    def counted_interpreter_run(interpreter, *args):
        recorder.count("killi.interp_calls")
        return interpreter_run(interpreter, *args)

    patches = [
        (runner, "run_cells", recorder.wrap("runner.run_cells", runner.run_cells)),
        (
            experiments,
            "run_cells",
            recorder.wrap("runner.run_cells", experiments.run_cells),
        ),
        (runner, "run_cell", traced_run_cell),
        (runner, "fault_map_for", traced_fault_map_for),
        (runner, "trace_for", recorder.wrap("traces.get", runner.trace_for)),
        (runner, "make_scheme", recorder.wrap("schemes.build", runner.make_scheme)),
        (
            runner,
            "_store_cached",
            recorder.wrap("runner.cache_store", runner._store_cached),
        ),
        (
            runner,
            "_load_cached",
            recorder.wrap("runner.cache_load", runner._load_cached),
        ),
        (gpu_engine, "run_l1_stream_memo", traced_l1_filter),
        (
            gpu_engine.GpuSimulator,
            "__init__",
            recorder.wrap("engine.build", gpu_engine.GpuSimulator.__init__),
        ),
        (gpu_engine.GpuSimulator, "run", traced_simulator_run),
        (KilliClusterInterpreter, "run", counted_interpreter_run),
        (Scenario, "expand", recorder.wrap("scenario.expand", Scenario.expand)),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield recorder
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
