"""Stateful property test: system invariants under arbitrary op mixes.

Drives a Killi-protected cache with a random interleaving of reads,
writes, external invalidations and resets, checking the
structural invariants after every step:

1. ECC-entry invariant: an entry exists iff its line is valid and in
   DFH b'01 or b'10 (b'00 entries only exist in write-back mode).
2. Disabled consistency: tag-store disabled flag == DFH b'11.
3. Tag-index consistency: the lookup dict mirrors the line array.
4. LRU orders remain permutations of the ways.
5. Stats consistency: hits + misses == accesses, fills <= misses.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.faults.cell_model import CellFaultModel
from repro.faults.fault_map import FaultMap
from repro.faults.soft_errors import SoftErrorInjector
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=8 * 1024, line_bytes=64, associativity=4)
# 32 sets x 4 ways = 128 lines; a dense fault map and a hot soft-error
# injector so error paths fire constantly.


class KilliMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        rngs = RngFactory(77)
        anchors = ((0.5, 0.2), (0.625, 8e-3), (1.0, 1e-10))
        fault_map = FaultMap(
            n_lines=GEO.n_lines,
            cell_model=CellFaultModel(anchors=anchors),
            rng=rngs.stream("faults"),
        )
        self.scheme = KilliScheme(
            GEO, fault_map, 0.625, KilliConfig(ecc_ratio=8, ecc_assoc=4),
            rng=rngs.stream("mask"),
            soft_injector=SoftErrorInjector(0.05, rng=rngs.stream("soft")),
        )
        self.cache = WriteThroughCache(GEO, self.scheme)

    # -- operations -----------------------------------------------------

    @rule(addr=st.integers(min_value=0, max_value=32 * 1024 - 1))
    def read(self, addr):
        self.cache.read(addr & ~63)

    @rule(addr=st.integers(min_value=0, max_value=32 * 1024 - 1))
    def write(self, addr):
        self.cache.write(addr & ~63)

    @rule(set_index=st.integers(min_value=0, max_value=GEO.n_sets - 1),
          way=st.integers(min_value=0, max_value=GEO.associativity - 1))
    def invalidate(self, set_index, way):
        self.cache.invalidate_line(set_index, way)

    @rule()
    def reset(self):
        self.cache.reset()

    # -- invariants -----------------------------------------------------

    @invariant()
    def ecc_entry_invariant(self):
        for set_index in range(GEO.n_sets):
            for way in range(GEO.associativity):
                valid = self.cache.tags.is_valid(set_index, way)
                dfh = int(self.scheme.dfh[set_index * GEO.associativity + way])
                if self.scheme.ecc.contains(set_index, way):
                    assert valid
                    assert dfh in (int(Dfh.INITIAL), int(Dfh.STABLE_1))
                elif valid:
                    assert dfh != int(Dfh.DISABLED)
                    if dfh in (int(Dfh.INITIAL), int(Dfh.STABLE_1)):
                        raise AssertionError(
                            f"valid protected line ({set_index},{way}) "
                            f"in DFH {dfh} without an ECC entry"
                        )

    @invariant()
    def disabled_consistency(self):
        for set_index in range(GEO.n_sets):
            for way in range(GEO.associativity):
                disabled = self.cache.tags.is_disabled(set_index, way)
                dfh = int(self.scheme.dfh[set_index * GEO.associativity + way])
                if disabled:
                    assert dfh == int(Dfh.DISABLED)
                if dfh == int(Dfh.DISABLED):
                    assert disabled

    @invariant()
    def tag_index_consistency(self):
        tags = self.cache.tags
        if hasattr(tags, "_tag_index"):  # object substrate: per-set dicts
            for set_index in range(GEO.n_sets):
                index = tags._tag_index[set_index]
                valid = {
                    tags.tag_at(set_index, way): way
                    for way in range(GEO.associativity)
                    if tags.is_valid(set_index, way)
                }
                assert index == valid, set_index
        else:  # soa substrate: one line-number -> way dict
            valid = {}
            for set_index in range(GEO.n_sets):
                for way in range(GEO.associativity):
                    if tags.is_valid(set_index, way):
                        line_no = (
                            tags.tag_at(set_index, way) * GEO.n_sets + set_index
                        )
                        valid[line_no] = way
            assert tags._index == valid

    @invariant()
    def lru_is_permutation(self):
        for set_index in range(GEO.n_sets):
            order = self.cache.lru.recency_order(set_index)
            assert sorted(order) == list(range(GEO.associativity))

    @invariant()
    def stats_consistency(self):
        stats = self.cache.stats
        assert stats.read_hits + stats.read_misses == stats.reads
        assert stats.write_hits + stats.write_misses == stats.writes
        assert stats.fills <= stats.read_misses


TestKilliStateMachine = KilliMachine.TestCase
TestKilliStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
