"""Monte-Carlo validation of the coverage closed form."""

import numpy as np
import pytest

from repro.analysis.coverage import CoverageModel
from repro.analysis.montecarlo import CoverageSampler
from repro.faults.line_model import binom_cdf


@pytest.fixture(scope="module")
def sampler():
    return CoverageSampler()


@pytest.fixture(scope="module")
def model():
    return CoverageModel()


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize("voltage", [0.6, 0.575])
    def test_within_factor_two_of_exact(self, sampler, model, voltage):
        estimate = sampler.estimate(
            voltage, samples=20000, rng=np.random.default_rng(7)
        )
        p = model.p_cell(voltage)
        p_ge2 = 1.0 - binom_cdf(539, 1, p)
        analytic = model.p_fail_killi(voltage, exact=True) / p_ge2
        assert estimate.failure_rate > 0
        assert 0.5 < estimate.failure_rate / analytic < 2.0

    def test_failure_needs_aliasing(self, sampler):
        # Directed: two faults in different training segments are
        # always caught.
        assert sampler._classify_ok(np.array([0, 1]))

    def test_same_segment_even_pair_missed_by_parity_caught_by_ecc(self, sampler):
        # Positions 0 and 16: segment parity blind, but SECDED sees
        # syndrome != 0 with even global parity -> caught.
        assert sampler._classify_ok(np.array([0, 16]))

    def test_three_fault_alias_missed(self, sampler):
        # Construct a pattern that aliases to a single-error signature:
        # two faults in one segment plus one in another such that the
        # signals look like one error.  Search a few combinations.
        missed = False
        for a in range(0, 64):
            offsets = np.array([a, a + 16, a + 32])  # all in one segment
            # sp = 1 (odd count in one segment), syndrome nonzero,
            # parity odd -> looks like a single error: missed.
            if not sampler._classify_ok(offsets):
                missed = True
                break
        assert missed

    def test_estimate_properties(self, sampler):
        estimate = sampler.estimate(0.6, samples=500, rng=np.random.default_rng(1))
        assert 0 <= estimate.failure_rate <= 1
        assert estimate.coverage == pytest.approx(1 - estimate.failure_rate)
        assert estimate.draws == 500
        assert 0 < estimate.patterns <= estimate.draws

    def test_conditioned_counts_at_least_two(self, sampler):
        from repro.analysis.montecarlo import _sample_binomial_at_least_two

        rng = np.random.default_rng(0)
        counts = _sample_binomial_at_least_two(rng, 539, 1e-3, 1000)
        assert (counts >= 2).all()


class TestVectorizedAgainstScalar:
    """The batched sampler is pinned to the pre-refactor scalar loop."""

    @pytest.mark.parametrize("voltage,seed", [(0.6, 7), (0.575, 9)])
    def test_scalar_draws_bit_identical(self, sampler, voltage, seed):
        scalar = sampler.estimate_scalar(
            voltage, samples=2000, rng=np.random.default_rng(seed)
        )
        replay = sampler.estimate(
            voltage,
            samples=2000,
            rng=np.random.default_rng(seed),
            scalar_draws=True,
        )
        assert (replay.patterns, replay.misclassified, replay.draws) == (
            scalar.patterns,
            scalar.misclassified,
            scalar.draws,
        )

    def test_scalar_draws_bit_identical_across_chunks(self, sampler):
        # Chunking must not perturb the draw order.
        replay = sampler.estimate(
            0.6,
            samples=2000,
            rng=np.random.default_rng(7),
            scalar_draws=True,
            chunk=617,
        )
        scalar = sampler.estimate_scalar(
            0.6, samples=2000, rng=np.random.default_rng(7)
        )
        assert replay.misclassified == scalar.misclassified
        assert replay.patterns == scalar.patterns

    def test_default_sampler_statistically_identical(self, sampler):
        # The Floyd sampler draws the same conditional distribution, so
        # failure rates agree within Monte-Carlo noise.
        scalar = sampler.estimate_scalar(
            0.6, samples=8000, rng=np.random.default_rng(3)
        )
        vectorized = sampler.estimate(
            0.6, samples=8000, rng=np.random.default_rng(4)
        )
        assert vectorized.patterns > 0
        assert 0.7 < vectorized.failure_rate / scalar.failure_rate < 1.4

    def test_floyd_offsets_are_uniform_subsets(self, sampler):
        # Every row of the Floyd sampler is a valid subset (distinct,
        # in range), and single offsets are uniform over the line.
        rng = np.random.default_rng(11)
        counts = np.full(4000, 3)
        offsets, valid = sampler._sample_offsets(rng, counts)
        assert valid.all()
        total = sampler.layout.total_bits
        assert offsets.min() >= 0 and offsets.max() < total
        for row in offsets[:200]:
            assert len(set(row.tolist())) == 3
        histogram = np.bincount(offsets.ravel(), minlength=total)
        expected = offsets.size / total
        assert histogram.max() < 4 * expected
