"""Integration: the ten workloads land in their intended behaviour
classes on the real GPU model, and experiments are deterministic."""

import pytest

from repro.harness.experiments import fig4_fig5_performance
from repro.traces import workload_names


@pytest.fixture(scope="module")
def baseline_matrix():
    return fig4_fig5_performance(
        schemes=["baseline"], accesses_per_cu=2500, seed=11
    )


class TestBehaviourClasses:
    def test_all_ten_run(self, baseline_matrix):
        assert sorted(baseline_matrix.workloads()) == sorted(workload_names())

    def test_memory_vs_compute_split(self, baseline_matrix):
        mpki = {
            w: baseline_matrix.mpki(w, "baseline")
            for w in baseline_matrix.workloads()
        }
        # The streamers are the top of the distribution ...
        assert mpki["snap"] > mpki["nekbone"] * 5
        assert mpki["hpgmg"] > mpki["comd"] * 5
        # ... and the small-working-set apps the bottom.
        bottom_two = sorted(mpki, key=mpki.get)[:3]
        assert "nekbone" in bottom_two
        assert "comd" in bottom_two

    def test_instructions_positive(self, baseline_matrix):
        for workload in baseline_matrix.workloads():
            point = baseline_matrix.points[workload]["baseline"]
            assert point.instructions > point.l2_misses


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = fig4_fig5_performance(
            workloads=["nekbone"], schemes=["killi_1:64"],
            accesses_per_cu=800, seed=3,
        )
        b = fig4_fig5_performance(
            workloads=["nekbone"], schemes=["killi_1:64"],
            accesses_per_cu=800, seed=3,
        )
        pa = a.points["nekbone"]["killi_1:64"]
        pb = b.points["nekbone"]["killi_1:64"]
        assert pa.cycles == pb.cycles
        assert pa.l2_misses == pb.l2_misses
        assert pa.l2["error_induced_misses"] == pb.l2["error_induced_misses"]

    def test_different_seed_different_faults(self):
        a = fig4_fig5_performance(
            workloads=["nekbone"], schemes=["killi_1:64"],
            accesses_per_cu=800, seed=3,
        )
        b = fig4_fig5_performance(
            workloads=["nekbone"], schemes=["killi_1:64"],
            accesses_per_cu=800, seed=4,
        )
        pa = a.points["nekbone"]["killi_1:64"]
        pb = b.points["nekbone"]["killi_1:64"]
        assert (pa.cycles, pa.l2_misses) != (pb.cycles, pb.l2_misses)
