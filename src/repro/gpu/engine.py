"""The trace-driven simulation engine.

Each CU executes its stream in order: ``gap`` compute cycles, then one
memory access whose latency comes from the hierarchy (L1 hit, or L1
miss + L2 access, where the L2 access may itself be a hit, a corrected
hit, an error-induced miss + refetch, or a plain miss).  CU streams
are interleaved round-robin so the shared L2 sees realistically mixed
traffic.  The kernel's execution time is the slowest CU's cycle count
— the metric normalised in the paper's Figure 4 — and L2 MPKI over
total instructions is Figure 5's metric.

Two simulators implement the model, each an inner loop fixed to its
own tag/LRU substrate:

- ``engine="batched"`` (default), on the struct-of-arrays substrate:
  every CU's private L1 stream is filtered through the lockstep
  kernel in one call, then the L2-bound residue is resolved by one of
  three paths.  Killi, under either decision policy, runs the whole
  residue through its interpreter (:mod:`repro.core.killi_replay`);
  the MBIST oracles and the fault-free baseline run it through the
  lockstep kernel (:func:`~repro.cache.soa.lockstep_kernel`), which
  steps the k-th access of every L2 set at once — no per-access
  Python call at all.
  A cache neither path accepts (write-back, way-filtering or
  hook-overriding schemes) runs every access through the exact
  per-access path in original global order.  Bank conflicts and the
  stats deltas are applied in bulk.
- ``engine="scalar"``, on the object substrate: the original
  per-round Python loop over per-line objects, kept as the reference
  implementation.

Both produce bit-identical results — cycles, per-CU cycles, every
:class:`~repro.cache.stats.CacheStats` counter and the full
:meth:`GpuSimulator.state_snapshot` — which the differential oracle
(:mod:`repro.testing.differential`) pins across workloads and schemes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.core import WriteThroughCache
from repro.cache.hooks import ProtectionScheme
from repro.cache.stats import CacheStats
from repro.gpu.config import GpuConfig
from repro.gpu.hierarchy import SimpleL1
from repro.gpu.l1filter import run_l1_stream_memo
from repro.metrics import METRICS
from repro.traces.base import Trace

__all__ = ["ENGINES", "KernelResult", "GpuSimulator", "substrate_of"]

#: The two simulators, by name: the engine table.
ENGINES = ("scalar", "batched")


def substrate_of(engine: str) -> str:
    """The tag/LRU substrate the simulator for ``engine`` builds.

    The scalar reference runs on per-line objects; every other engine
    runs on the struct-of-arrays substrate its bulk kernels address.
    """
    return "object" if engine == "scalar" else "soa"


@dataclass
class KernelResult:
    """Outcome of simulating one kernel (one trace).

    ``l2_stats`` / ``l1_stats`` are *per-kernel* snapshots: the deltas
    accumulated while this kernel ran.  They are plain copies — later
    kernels on the same simulator never mutate them.  The running
    totals (cache state persists across kernels) are available as
    ``l2_stats_cumulative`` / ``l1_stats_cumulative``.
    """

    workload: str
    cycles: int
    """Kernel execution time: the slowest CU's cycle count."""

    instructions: int
    """Total instructions across CUs (compute gaps + memory ops)."""

    l2_stats: CacheStats
    l1_stats: list = field(default_factory=list)
    per_cu_cycles: list = field(default_factory=list)
    l2_stats_cumulative: CacheStats | None = None
    l1_stats_cumulative: list = field(default_factory=list)

    @property
    def l2_mpki(self) -> float:
        """L2 misses per kilo-instruction (paper Figure 5)."""
        return self.l2_stats.mpki(self.instructions)

    @property
    def ipc(self) -> float:
        """Aggregate instructions per (kernel) cycle."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


def _scheme_observables(scheme) -> dict:
    """Scheme-side state visible to the harness, duck-typed.

    Every field the journal / :class:`~repro.harness.runner.CellResult`
    can surface for a scheme is captured when present, plus the line
    error vectors as sorted ``[line, [offsets…]]`` pairs: the bulk
    tiers must leave all of them bit-identical to the scalar reference.
    ``transitions``'s tuple keys are flattened to ``"old->new"``
    strings so the snapshot stays canonically JSON-serialisable.
    """
    out: dict = {"type": type(scheme).__name__}
    if hasattr(scheme, "dfh"):
        out["dfh"] = [int(v) for v in scheme.dfh]
    if hasattr(scheme, "dfh_histogram"):
        out["dfh_histogram"] = scheme.dfh_histogram()
    if hasattr(scheme, "transitions"):
        out["transitions"] = {
            f"{old}->{new}": int(count)
            for (old, new), count in scheme.transitions.items()
        }
    if hasattr(scheme, "disabled_fraction"):
        out["disabled_fraction"] = scheme.disabled_fraction()
    for name in ("sdc_events", "hits_served"):
        if hasattr(scheme, name):
            out[name] = int(getattr(scheme, name))
    ecc = getattr(scheme, "ecc", None)
    if ecc is not None:
        out["ecc"] = {
            "accesses": int(ecc.accesses),
            "allocations": int(ecc.allocations),
            "evictions": int(ecc.evictions),
            "occupancy": int(ecc.occupancy),
        }
    errors = getattr(scheme, "errors", None)
    if errors is not None:
        # Every non-clean line's error offsets: a commit that stores a
        # wrong row shows here before it changes any classification.
        out["error_rows"] = errors.error_rows()
    rng = getattr(errors, "rng", None)
    if rng is not None:
        # The stream *position*: equal final states across engines
        # imply equal draw counts — the cheap global form of the
        # RNG-conservation invariant.
        out["rng_state"] = repr(rng.bit_generator.state)
    return out


class GpuSimulator:
    """8-CU GPU with private L1s and a shared protected L2.

    Parameters
    ----------
    config:
        GPU shape and latencies (Table 3 defaults).
    l2_scheme:
        Protection scheme for the L2 (Killi, a baseline, or the
        fault-free :class:`~repro.cache.UnprotectedScheme`).
    engine:
        ``"batched"`` (the fast path, on struct-of-arrays caches) or
        ``"scalar"`` (the reference, on object-substrate caches).  The
        engine fixes the substrate of both cache levels; the two are
        bit-identical.
    """

    def __init__(
        self,
        config: GpuConfig | None = None,
        l2_scheme: ProtectionScheme | None = None,
        engine: str = "batched",
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.config = config if config is not None else GpuConfig()
        self.engine = engine
        substrate = substrate_of(engine)
        self.l2 = WriteThroughCache(
            self.config.l2,
            l2_scheme,
            self.config.l2_latencies,
            substrate=substrate,
        )
        self.l1s = [
            SimpleL1(self.config.l1_geometry(), substrate=substrate)
            for _ in range(self.config.n_cus)
        ]

    # -- canonical observable state ----------------------------------------

    def state_snapshot(self) -> dict:
        """Canonical observable state of the whole simulator.

        Combines the L2 and per-CU L1 transaction-layer snapshots
        (:meth:`~repro.cache.core.CacheModel.state_snapshot`) with the
        scheme-side observables the harness reports — DFH state,
        transition counts, ECC-cache counters, SDC events, the line
        error vectors and the shared RNG stream position.  This is the
        state the differential executor (:mod:`repro.testing.differential`)
        diffs between the two simulators; the engine and substrate
        names themselves are deliberately excluded.
        """
        return {
            "l2": self.l2.state_snapshot(),
            "l1s": [l1.state_snapshot() for l1 in self.l1s],
            "scheme": _scheme_observables(self.l2.scheme),
        }

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`state_snapshot`."""
        blob = json.dumps(self.state_snapshot(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def release(self) -> None:
        """Break the reference cycles between the caches and their schemes.

        Each cache and its scheme point at each other, so a finished
        simulator is otherwise reclaimed only by the cyclic garbage
        collector, which runs rarely in a process holding large fault
        maps and traces: a campaign's finished cells pile up in memory.
        The simulator must not run again afterwards.
        """
        for cache in [self.l2, *self.l1s]:
            cache.scheme.detach()

    @staticmethod
    def _bank_delay(bank_usage: dict, bank: int, penalty: int) -> int:
        """Queueing delay for the n-th same-bank access in a round."""
        queued = bank_usage.get(bank, 0)
        bank_usage[bank] = queued + 1
        return queued * penalty

    def run(self, trace: Trace, engine: str | None = None) -> KernelResult:
        """Simulate one kernel and return its metrics.

        ``engine`` may only name the simulator's own engine: the
        caches were built on that engine's substrate.
        """
        engine = engine if engine is not None else self.engine
        if engine != self.engine:
            raise ValueError(
                f"this simulator was built for engine {self.engine!r}; "
                f"build a GpuSimulator(engine={engine!r}) to run {engine!r}"
            )
        if len(trace.streams) != self.config.n_cus:
            raise ValueError(
                f"trace has {len(trace.streams)} CU streams, "
                f"GPU has {self.config.n_cus}"
            )
        l2_before = self.l2.stats.copy()
        l1_before = [l1.stats.copy() for l1 in self.l1s]

        telemetry = METRICS.enabled
        if telemetry:
            kernel_started = time.perf_counter()
        if engine == "scalar":
            cycles = self._run_scalar(trace)
        else:
            cycles = self._run_batched(trace)
        if telemetry:
            METRICS.observe(
                f"engine.{engine}.kernel", time.perf_counter() - kernel_started
            )
            METRICS.incr("engine.kernels")

        l2_after = self.l2.stats.copy()
        l1_after = [l1.stats.copy() for l1 in self.l1s]
        return KernelResult(
            workload=trace.name,
            cycles=max(cycles) if cycles else 0,
            instructions=trace.instructions,
            l2_stats=l2_after.delta(l2_before),
            l1_stats=[a.delta(b) for a, b in zip(l1_after, l1_before)],
            per_cu_cycles=list(cycles),
            l2_stats_cumulative=l2_after,
            l1_stats_cumulative=l1_after,
        )

    # -- scalar reference loop ---------------------------------------------

    def _run_scalar(self, trace: Trace) -> list:
        """Original per-round loop; the reference implementation."""
        n_cus = self.config.n_cus
        l1_hit_latency = self.config.l1_hit_latency
        l2 = self.l2
        cycles = [0] * n_cus
        # Normalised once on the stream and cached there (identical
        # values to the per-run [int(a) for a in ...] this loop used to
        # rebuild).
        streams = [stream.scalar_columns() for stream in trace.streams]
        lengths = [len(s[0]) for s in streams]
        position = [0] * n_cus
        remaining = sum(lengths)
        l1s = self.l1s
        model_banks = self.config.model_bank_conflicts
        bank_penalty = self.config.bank_conflict_penalty
        geometry = self.config.l2

        while remaining:
            bank_usage: dict = {} if model_banks else None
            for cu in range(n_cus):
                i = position[cu]
                if i >= lengths[cu]:
                    continue
                addrs, stores, gaps = streams[cu]
                addr = addrs[i]
                cycles[cu] += gaps[i]
                if stores[i]:
                    l1s[cu].write(addr)
                    if model_banks:
                        cycles[cu] += self._bank_delay(
                            bank_usage, geometry.bank_of(addr), bank_penalty
                        )
                    cycles[cu] += l2.write(addr)
                else:
                    if l1s[cu].read(addr):
                        cycles[cu] += l1_hit_latency
                    else:
                        if model_banks:
                            cycles[cu] += self._bank_delay(
                                bank_usage, geometry.bank_of(addr), bank_penalty
                            )
                        cycles[cu] += l1_hit_latency + l2.read(addr)
                position[cu] = i + 1
                remaining -= 1
        return cycles

    # -- batched fast path ---------------------------------------------------

    def _l1_filter_residue(self, trace: Trace):
        """Stage 1 of the batched engine: the L1 pre-filter.

        Filters each CU's entire (private, deterministic) L1 stream
        up front (:func:`~repro.gpu.l1filter.run_l1_stream_memo`, one
        call per CU; the first call with virgin L1s runs every CU's
        stream through one lockstep kernel call), which also yields
        the CU's base latency in closed form: summed compute gaps plus
        ``l1_hit_latency`` per load (every load pays it, hit or miss).
        Returns ``(base, residue)`` where ``base`` is the per-CU base
        latency and ``residue`` is None (no L2-bound access) or the
        merged L2-bound stream — stores and L1 read misses — as aligned
        int64/bool arrays ``(addrs, stores, cus, rounds)`` sorted
        round-major/CU-minor, i.e. in exactly the order the scalar loop
        reaches the L2.
        """
        l1_hit_latency = self.config.l1_hit_latency
        addr_parts, store_parts, pos_parts, cu_parts = [], [], [], []
        base = []
        for cu, stream in enumerate(trace.streams):
            addr_np, store_np, gap_total = stream.array_columns()
            keep = run_l1_stream_memo(self.l1s[cu], stream, addr_np, store_np)
            n_loads = len(store_np) - int(np.count_nonzero(store_np))
            base.append(gap_total + l1_hit_latency * n_loads)
            addr_parts.append(addr_np[keep])
            store_parts.append(store_np[keep])
            pos_parts.append(keep.astype(np.int64))
            cu_parts.append(np.full(len(keep), cu, dtype=np.int64))
        if not addr_parts or not sum(len(p) for p in addr_parts):
            return base, None
        addrs_arr = np.concatenate(addr_parts)
        stores_arr = np.concatenate(store_parts)
        pos = np.concatenate(pos_parts)
        cus = np.concatenate(cu_parts)
        # Round-major, CU-minor: the scalar loop's visit order.
        order = np.lexsort((cus, pos))
        return base, (addrs_arr[order], stores_arr[order], cus[order], pos[order])

    def _run_batched(self, trace: Trace) -> list:
        """Batched replay of the L2-bound residue.

        Stage 1 is :meth:`_l1_filter_residue`.  Stage 2 computes
        bank-conflict delays for the whole residue in one vectorized
        pass (queue rank = ordinal within the (round, bank) group of
        the ordered residue — identical to the per-round ``bank_usage``
        dict of the scalar loop, and independent of which path resolves
        the access).  Stage 3 resolves the residue through one of three
        paths, chosen once per kernel:

        - A scheme with a batch interpreter (Killi, Table 2 or
          strong-code) runs the whole residue through it, in global
          order (see :mod:`repro.core.killi_replay`).
        - A cache with a lockstep mask
          (:meth:`~repro.cache.core.CacheModel.lockstep_mask`: the
          MBIST oracles and the fault-free baseline) resolves it with
          :meth:`~repro.cache.core.CacheModel.replay_lockstep` — plain
          set-associative LRU stepped across every L2 set at once, with
          per-way CORRECTED hits for the oracles' faulty-but-correctable
          lines and bypasses for sets with no enabled way — and commits
          it in bulk.
        - Otherwise (write-back, way-filtering or hook-overriding
          schemes) every access runs through ``l2.read`` / ``l2.write``
          in original global order, which preserves the RNG draw
          sequence and every cross-set interaction.

        Each path keeps cycles, stats and scheme state bit-identical
        to the reference.
        """
        n_cus = self.config.n_cus
        telemetry = METRICS.enabled
        if telemetry:
            phase_started = time.perf_counter()
        base, residue = self._l1_filter_residue(trace)
        if telemetry:
            now = time.perf_counter()
            METRICS.observe("engine.batched.l1_filter", now - phase_started)
            phase_started = now
        if residue is None:
            return base

        r_addrs, r_stores, r_cus, r_rounds = residue
        n = len(r_addrs)
        l2 = self.l2
        geometry = self.config.l2
        line_nos = r_addrs // geometry.line_bytes
        set_idx = line_nos % geometry.n_sets

        # Stage 2: bank-conflict delays, state-free and exact.
        model_banks = self.config.model_bank_conflicts
        if model_banks:
            # bank_of(addr) == line_no % banks: banks is a power of two
            # dividing n_sets, so the set-index modulo drops out.
            n_banks = geometry.banks
            key = r_rounds * np.int64(n_banks) + line_nos % n_banks
            by_key = np.argsort(key, kind="stable")
            ordinal = np.arange(n, dtype=np.int64)
            new_group = np.empty(n, dtype=bool)
            new_group[0] = True
            sorted_key = key[by_key]
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
            group_start = np.where(new_group, ordinal, 0)
            np.maximum.accumulate(group_start, out=group_start)
            delay = np.empty(n, dtype=np.int64)
            delay[by_key] = (ordinal - group_start) * self.config.bank_conflict_penalty

        # Stage 3.  One gate for all bulk replay: the transaction layer
        # decides whether the L2's scalar semantics are batchable at all
        # (write-back / write-allocate protocols and subclassed access
        # paths refuse).  A batchable L2 runs the scheme's batch
        # interpreter when it has one, else the lockstep kernel when the
        # cache gives a mask.
        interp = corrected = None
        if l2.semantics_batchable:
            interp = l2.scheme.batch_interpreter(l2)
            if interp is None:
                corrected = l2.lockstep_mask()
        n_fallback = 0
        latency_np = np.zeros(n_cus, dtype=np.int64)
        if interp is not None:
            lat_list = [0] * n
            interp.run(
                line_nos.tolist(), r_stores.tolist(), lat_list, set_idx.tolist()
            )
            np.add.at(latency_np, r_cus, np.asarray(lat_list, dtype=np.int64))
        elif corrected is not None:
            lat = l2.replay_lockstep(line_nos, r_stores, set_idx, corrected)
            np.add.at(latency_np, r_cus, lat)
        else:
            n_fallback = n
            latency = [0] * n_cus
            l2_read = l2.read
            l2_write = l2.write
            for addr, store, cu in zip(
                r_addrs.tolist(), r_stores.tolist(), r_cus.tolist()
            ):
                latency[cu] += l2_write(addr) if store else l2_read(addr)
            latency_np += latency
        if model_banks:
            np.add.at(latency_np, r_cus, delay)
        if telemetry:
            METRICS.observe(
                "engine.batched.l2_replay", time.perf_counter() - phase_started
            )
            if corrected is not None:
                METRICS.incr(
                    "engine.batched.sets_batched", len(np.unique(set_idx))
                )
            METRICS.incr("engine.batched.accesses_batched", n - n_fallback)
            METRICS.incr("engine.batched.accesses_fallback", n_fallback)
            if n_fallback:
                METRICS.incr(
                    f"engine.batched.fallback.{type(l2.scheme).__name__}",
                    n_fallback,
                )
        return [base[cu] + int(latency_np[cu]) for cu in range(n_cus)]

    def run_kernels(self, traces) -> list:
        """Run a sequence of kernels back to back.

        Cache contents, statistics and — crucially — Killi's DFH
        training state persist across kernels: "the process of
        training the DFH bits happens once per reset cycle and not on
        context switches" (paper footnote 6).  Each returned
        :class:`KernelResult` carries that kernel's *own* stats delta
        in ``l2_stats``/``l1_stats`` (snapshots — running a later
        kernel never mutates an earlier result) plus the cumulative
        view in ``l2_stats_cumulative``/``l1_stats_cumulative``.
        """
        return [self.run(trace) for trace in traces]
