"""Scalar-vs-batched equivalence for the packed classification kernels.

The batched SECDED / segmented-parity / line-signal kernels are pure
reimplementations of scalar reference paths that stay in the tree;
these tests pin the two together on golden patterns and on random
error matrices.
"""

import numpy as np
import pytest

from repro.core.layout import LineLayout
from repro.core.linestate import LineErrorModel
from repro.ecc.parity import SegmentedParity
from repro.ecc.secded import SecDedCode
from repro.faults.fault_map import FaultMap
from repro.kernels.classify import LineSignalKernel
from repro.utils.bitpack import pack_positions


@pytest.fixture(scope="module")
def secded():
    return SecDedCode(512)


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


class TestSecDedBatch:
    def test_golden_pinned_syndromes(self, secded):
        # Column codes are the non-powers-of-two in increasing order:
        # position 0 -> 3, 1 -> 5, 2 -> 6; checkbit j -> 1 << j; the
        # global parity position (n - 1) contributes nothing.
        cases = [
            ([], 0),
            ([0], 3),
            ([1], 5),
            ([0, 1], 3 ^ 5),
            ([0, 1, 2], 3 ^ 5 ^ 6),
            ([512], 1),  # checkbit 0
            ([513], 2),  # checkbit 1
            ([522], 0),  # global parity: no column code
            ([0, 522], 3),
        ]
        packed = np.stack(
            [pack_positions(positions, secded.n) for positions, _ in cases]
        )
        syndromes = secded.syndromes_of_error_matrix(packed)
        for (positions, expected), got in zip(cases, syndromes):
            assert int(got) == expected, positions
            assert secded.syndrome_of_error_positions(positions) == expected

    def test_matches_scalar_on_random_matrices(self, secded, rng):
        rows = []
        expected = []
        for _ in range(200):
            k = int(rng.integers(0, 8))
            positions = rng.choice(secded.n, size=k, replace=False)
            rows.append(pack_positions(positions, secded.n))
            expected.append(secded.syndrome_of_error_positions(positions))
        got = secded.syndromes_of_error_matrix(np.stack(rows))
        assert got.tolist() == expected

    def test_parity_flips_match_weight_parity(self, secded, rng):
        rows = []
        weights = []
        for _ in range(100):
            k = int(rng.integers(0, 9))
            positions = rng.choice(secded.n, size=k, replace=False)
            rows.append(pack_positions(positions, secded.n))
            weights.append(k)
        flips = secded.parity_flips_of_error_matrix(np.stack(rows))
        assert flips.tolist() == [w % 2 == 1 for w in weights]

    def test_word_count_validated(self, secded):
        with pytest.raises(ValueError):
            secded.syndromes_of_error_matrix(np.zeros((2, 3), dtype=np.uint64))


class TestSegmentedParityBatch:
    @pytest.mark.parametrize("n_segments", [4, 16])
    @pytest.mark.parametrize("interleaved", [True, False])
    def test_generate_batch_matches_scalar(self, rng, n_segments, interleaved):
        parity = SegmentedParity(512, n_segments, interleaved=interleaved)
        data = (rng.random((32, 512)) < 0.1).astype(np.uint8)
        batch = parity.generate_batch(data)
        for i in range(32):
            assert np.array_equal(batch[i], parity.generate(data[i]))

    def test_mismatches_batch_matches_scalar(self, rng):
        parity = SegmentedParity(512, 16)
        data = (rng.random((24, 512)) < 0.05).astype(np.uint8)
        stored = (rng.random((24, 16)) < 0.5).astype(np.uint8)
        batch = parity.mismatches_batch(data, stored)
        counts = parity.mismatch_counts(data, stored)
        for i in range(24):
            assert np.array_equal(batch[i], parity.mismatches(data[i], stored[i]))
            assert counts[i] == parity.mismatch_count(data[i], stored[i])

    def test_shape_validation(self):
        parity = SegmentedParity(512, 16)
        with pytest.raises(ValueError):
            parity.generate_batch(np.zeros((2, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            parity.mismatches_batch(
                np.zeros((2, 512), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)
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
