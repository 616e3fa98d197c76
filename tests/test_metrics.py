import math

import numpy as np
import pytest

from skipdiff import (
    SampleSet,
    mmd_gaussian,
    sliced_w2,
)
from skipdiff.errors import (
    DimensionMismatch,
    EmptySet,
    InsufficientSamples,
)


def reference_sliced_w2(a, b, projections, seed):
    """Independent re-implementation: loop over directions, pair quantiles."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    m = min(len(a), len(b))
    qs = (np.arange(m) + 0.5) / m
    total = 0.0
    for d in dirs:
        pa, pb = a @ d, b @ d
        qa = np.sort(pa) if len(pa) == m else np.quantile(pa, qs)
        qb = np.sort(pb) if len(pb) == m else np.quantile(pb, qs)
        total += float(np.mean((qa - qb) ** 2))
    return total / projections


class TestSlicedW2:
    def test_identical_sets_are_zero(self):
        x = np.random.default_rng(0).normal(size=(100, 3))
        assert sliced_w2(SampleSet(x), SampleSet(x.copy())) == 0.0

    def test_matches_reference_equal_sizes(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(80, 2)), rng.normal(1.0, 2.0, size=(80, 2))
        got = sliced_w2(SampleSet(a), SampleSet(b), projections=32, seed=5)
        ref = reference_sliced_w2(a, b, 32, 5)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_matches_reference_unequal_sizes(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(120, 2)), rng.normal(0.5, 1.0, size=(50, 2))
        got = sliced_w2(SampleSet(a), SampleSet(b), projections=16, seed=9)
        ref = reference_sliced_w2(a, b, 16, 9)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_1d_shift_closed_form(self):
        # translating a 1-D set by c gives W2^2 = c^2 exactly under sorted pairing
        rng = np.random.default_rng(3)
        a = rng.normal(size=(200, 1))
        b = a + 1.5
        got = sliced_w2(SampleSet(a), SampleSet(b), projections=8, seed=0)
        assert got == pytest.approx(1.5**2, rel=1e-12)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(50, 2)), rng.normal(size=(50, 2))
        v1 = sliced_w2(SampleSet(a), SampleSet(b), seed=7)
        v2 = sliced_w2(SampleSet(a), SampleSet(b), seed=7)
        v3 = sliced_w2(SampleSet(a), SampleSet(b), seed=8)
        assert v1 == v2
        assert v1 != v3

    def test_errors(self):
        a = SampleSet(np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            sliced_w2(a, SampleSet(np.zeros((4, 3))))
        with pytest.raises(ValueError):
            sliced_w2(a, a, projections=0)
        with pytest.raises(EmptySet):
            SampleSet(np.zeros((0, 2)))


class TestMmd:
    def test_four_point_hand_case(self):
        # a = b = {0, 1} in 1-D with bandwidth 1: the unbiased estimator
        # excludes diagonal terms within each set but not across, giving
        # exactly k(1) - 1 (negative values are expected under the null)
        k = lambda d: math.exp(-d * d / 2.0)
        a = SampleSet([[0.0], [1.0]])
        b = SampleSet([[0.0], [1.0]])
        assert mmd_gaussian(a, b, 1.0) == pytest.approx(k(1) - 1.0, rel=1e-12)

    def test_four_point_shifted_hand_case(self):
        # a = {0, 1}, b = {2, 3}, bandwidth 1:
        #   term_aa = term_bb = k(1) ; term_ab = mean of k(2),k(3),k(1),k(2)
        k = lambda d: math.exp(-d * d / 2.0)
        expected = 2 * k(1) - 2 * (k(2) + k(3) + k(1) + k(2)) / 4
        got = mmd_gaussian(SampleSet([[0.0], [1.0]]), SampleSet([[2.0], [3.0]]), 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_to_infinity_vanishes(self):
        rng = np.random.default_rng(5)
        a = SampleSet(rng.normal(size=(30, 2)))
        b = SampleSet(rng.normal(3.0, 1.0, size=(30, 2)))
        assert abs(mmd_gaussian(a, b, 1e8)) < 1e-10

    def test_unbiasedness_near_zero_for_same_distribution(self):
        rng = np.random.default_rng(6)
        vals = [
            mmd_gaussian(
                SampleSet(rng.normal(size=(100, 1))),
                SampleSet(rng.normal(size=(100, 1))),
                1.0,
            )
            for _ in range(200)
        ]
        # unbiased estimator: the mean over repetitions straddles zero
        assert abs(np.mean(vals)) < 4 * np.std(vals) / math.sqrt(len(vals))

    def test_errors(self):
        a = SampleSet(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mmd_gaussian(a, a, 0.0)
        with pytest.raises(InsufficientSamples):
            mmd_gaussian(SampleSet([[0.0, 0.0]]), a, 1.0)
