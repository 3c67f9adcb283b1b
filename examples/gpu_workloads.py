#!/usr/bin/env python
"""GPU workload comparison: the Figure 4/5 experiment in miniature.

Runs three representative workloads (the capacity-sensitive FFT, the
memory-bound XSBench, and the compute-bound Nekbone) through the 8-CU
GPU model under the fault-free baseline, FLAIR and two Killi
configurations, and prints normalized execution time and L2 MPKI.

Run:  python examples/gpu_workloads.py            (a couple of minutes)
      python examples/gpu_workloads.py --quick    (seconds, noisier)
"""

import sys

from repro.harness.experiments import fig4_fig5_performance, table6_power


def main() -> None:
    accesses = 4000 if "--quick" in sys.argv else 25000
    matrix = fig4_fig5_performance(
        workloads=["fft", "xsbench", "nekbone"],
        schemes=["baseline", "flair", "msecc", "killi_1:256", "killi_1:16"],
        accesses_per_cu=accesses,
        seed=42,
    )
    print(matrix.fig4_table())
    print()
    print(matrix.fig5_table())

    print("\nWhere Killi's overhead comes from:")
    for workload in matrix.workloads():
        point = matrix.points[workload]["killi_1:256"]
        print(
            f"  {workload:8s} 1:256 -> error-induced misses: "
            f"{point.l2['error_induced_misses']:5d}, ECC-contention "
            f"invalidations: {point.l2['ecc_evict_invalidations']:5d}"
        )

    print("\nNormalized L2 power (Table 6 model, with measured traffic):")
    for scheme, value in table6_power(matrix).items():
        print(f"  {scheme:12s}: {value:.1f}% of nominal-VDD baseline")


if __name__ == "__main__":
    main()
