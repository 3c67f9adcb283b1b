"""Scalar-vs-batched equivalence for the packed classification kernels.

The batched line-signal kernels are pure reimplementations of scalar
reference paths that stay in the tree; these tests pin the two
together on random error matrices.
"""

import numpy as np
import pytest

from repro.core.layout import LineLayout
from repro.core.linestate import LineErrorModel
from repro.ecc.secded import SecDedCode
from repro.faults.fault_map import FaultMap
from repro.kernels.classify import LineSignalKernel


@pytest.fixture(scope="module")
def kernel():
    return LineSignalKernel(LineLayout())


def _reference_model(interleaved: bool = True) -> LineErrorModel:
    """A LineErrorModel used purely for its scalar signals_for_positions."""
    fault_map = FaultMap.from_faults(n_lines=1, faults={})
    return LineErrorModel(
        fault_map,
        0.6,
        np.random.default_rng(0),
        interleaved_parity=interleaved,
    )


def _random_offset_sets(rng, total_bits, n, k_hi):
    sets = []
    for _ in range(n):
        k = int(rng.integers(0, k_hi))
        sets.append(sorted(int(o) for o in rng.choice(total_bits, size=k, replace=False)))
    return sets


class TestLineSignalKernel:
    @pytest.mark.parametrize("n_segments,use_ecc", [(16, True), (4, True), (4, False)])
    @pytest.mark.parametrize("interleaved", [True, False])
    def test_all_paths_match_scalar_reference(
        self, rng, n_segments, use_ecc, interleaved
    ):
        layout = LineLayout()
        kernel = LineSignalKernel(layout, interleaved=interleaved)
        reference = _reference_model(interleaved)
        offset_sets = _random_offset_sets(rng, layout.total_bits, 150, 9)

        k_max = max((len(s) for s in offset_sets), default=0) or 1
        offsets = np.zeros((len(offset_sets), k_max), dtype=np.int64)
        valid = np.zeros((len(offset_sets), k_max), dtype=bool)
        for i, positions in enumerate(offset_sets):
            offsets[i, : len(positions)] = positions
            valid[i, : len(positions)] = True

        o_sp, o_sz, o_pok, o_derr = kernel.signals_from_offsets(
            offsets, valid, n_segments, use_ecc
        )
        for i, positions in enumerate(offset_sets):
            want = reference.signals_for_positions(positions, n_segments, use_ecc)
            int_row = sum(1 << offset for offset in positions)
            row = kernel.signals_row(int_row, n_segments, use_ecc)
            for name, got in (
                ("offsets", (o_sp[i], o_sz[i], o_pok[i], o_derr[i])),
                ("row", row),
            ):
                assert (
                    int(got[0]),
                    bool(got[1]),
                    bool(got[2]),
                    int(got[3]),
                ) == (
                    want.sp_mismatches,
                    want.syndrome_zero,
                    want.global_parity_ok,
                    want.data_error_bits,
                ), (name, positions)

    def test_codeword_weights(self, kernel, rng):
        layout = LineLayout()
        for _ in range(50):
            k = int(rng.integers(0, 10))
            positions = rng.choice(layout.total_bits, size=k, replace=False)
            expected = sum(1 for o in positions if not layout.is_parity(int(o)))
            offsets = positions[None, :].astype(np.int64)
            valid = np.ones_like(offsets, dtype=bool)
            if k:
                assert (
                    int(kernel.codeword_weights_from_offsets(offsets, valid)[0])
                    == expected
                )

    def test_signature_table_width_guard(self):
        layout = LineLayout()
        kernel = LineSignalKernel(layout)
        with pytest.raises(ValueError):
            kernel.signature_table(64)

    def test_mismatched_secded_rejected(self):
        with pytest.raises(ValueError):
            LineSignalKernel(LineLayout(), SecDedCode(64))
