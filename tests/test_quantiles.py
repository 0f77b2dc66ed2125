import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazesim.quantiles import percentile_rank, quantile


class TestQuantile:
    def test_median_of_five(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_interpolated(self):
        # (n-1)*p rule: index 0.25 between 10 and 20
        assert quantile([10, 20], 0.25) == 12.5

    def test_unsorted_input(self):
        assert quantile([5, 1, 4, 2, 3], 0.5) == 3.0

    def test_bounds(self):
        assert quantile([3, 1, 2], 0.0) == 1.0
        assert quantile([3, 1, 2], 1.0) == 3.0

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            quantile([1, 2], 1.5)
        with pytest.raises(ValueError, match="outside"):
            quantile([1, 2], -0.1)
        with pytest.raises(ValueError, match="outside"):
            quantile([1, 2], float("nan"))

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)
        with pytest.raises(ValueError, match="empty"):
            quantile([], (0.5,))

    def test_tuple_of_fractions_one_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            quantile([1, 2], (0.5, 1.5))
        with pytest.raises(ValueError, match="outside"):
            quantile([1, 2], (0.5, float("nan")))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_tuple_equals_each_fraction_alone(self, sample, fractions):
        got = quantile(sample, tuple(fractions))
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert list(map(float.hex, got)) == [quantile(sample, p).hex() for p in fractions]


class TestPercentileRank:
    def test_median_value(self):
        assert percentile_rank(3, [1, 2, 3, 4, 5]) == 0.5

    def test_below_min_clamps_to_zero(self):
        assert percentile_rank(0, [1, 2, 3]) == 0.0

    def test_above_max_clamps_to_one(self):
        assert percentile_rank(9, [1, 2, 3]) == 1.0

    def test_interpolated(self):
        assert percentile_rank(1.5, [1, 2]) == 0.5

    def test_single_element_sample(self):
        assert percentile_rank(0.5, [1.0]) == 0.0
        assert percentile_rank(2.0, [1.0]) == 1.0
        assert percentile_rank(1.0, [1.0]) == 0.5

    def test_duplicate_values_use_lowest_rank(self):
        assert percentile_rank(2, [1, 2, 2, 3]) == pytest.approx(1 / 3)
        assert percentile_rank(2, [1, 2, 2]) == 0.5

    def test_inverse_property_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sample = rng.normal(size=rng.integers(2, 40))
            v = rng.uniform(sample.min(), sample.max())
            p = percentile_rank(v, sample)
            assert quantile(sample, p) == pytest.approx(v, abs=1e-9)

    def test_rank_of_sample_points_inverts_exactly(self):
        rng = np.random.default_rng(8)
        sample = np.sort(rng.normal(size=25))
        for v in sample:
            assert quantile(sample, percentile_rank(v, sample)) == pytest.approx(v, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=50, unique=True),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       p=st.floats(0.0, 1.0))
def test_rank_of_quantile_is_fraction(values, scale, p):
    # distinct values at least `scale` apart: interpolation rounding moves the
    # rank by no more than about 1e-10 of the sample range per gap
    sample = np.array(values, dtype=float) * scale
    assert abs(percentile_rank(quantile(sample, p), sample) - p) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-5, 5), min_size=2, max_size=30))
def test_tied_members_rank_at_their_lowest_index(values):
    # a small integer range, so most samples hold ties, at the maximum too
    s = sorted(values)
    for v in set(values):
        assert percentile_rank(v, values) == s.index(v) / (len(s) - 1)
