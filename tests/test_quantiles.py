import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazesim.quantiles import median, percentile_rank, quantile, sorted_median, sorted_quantile

# finite values with ties, both zeros and a wide range of magnitudes
_VALUES = st.one_of(st.floats(-1e6, 1e6), st.integers(-3, 3).map(float),
                    st.sampled_from([0.0, -0.0]))
_SAMPLES = st.lists(_VALUES, min_size=1, max_size=41)


def same_quantile(got: float, want: float, sample) -> bool:
    """got equals numpy's want bit for bit; except that with both 0.0 and
    -0.0 in the sample, a zero result may take either sign, because numpy's
    partition and np.sort may order the two equal zeros differently."""
    zeros = {np.copysign(1.0, v) for v in sample if v == 0.0}
    if got == 0.0 and want == 0.0 and len(zeros) == 2:
        return True
    return got.hex() == want.hex()


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

    def test_list_of_fractions_is_a_tuple_of_quantiles(self):
        assert quantile([1, 2, 3], [0.5]) == (2.0,)
        assert quantile([1, 2, 3], [0.0, 0.25, 1.0]) == quantile([1, 2, 3], (0.0, 0.25, 1.0))

    def test_nan_in_sample_is_named(self):
        with pytest.raises(ValueError, match="NaN at index 1"):
            quantile([1.0, float("nan"), 3.0], 0.5)
        with pytest.raises(ValueError, match="NaN at index 2"):
            median([1.0, 2.0, float("nan")])

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


class TestMatchesNumpy:
    """median and quantile give np.median's and np.quantile's values bit
    for bit (compared by float.hex), and so do sorted_median and
    sorted_quantile for each row of a batch padded with NaN."""

    @settings(max_examples=300, deadline=None)
    @given(_SAMPLES)
    def test_median(self, sample):
        assert median(sample).hex() == float(np.median(sample)).hex()

    @settings(max_examples=300, deadline=None)
    @given(_SAMPLES, st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
    def test_quantile(self, sample, p):
        assert same_quantile(quantile(sample, p),
                             float(np.quantile(sample, p, method="linear")), sample)

    @settings(max_examples=200, deadline=None)
    @given(_SAMPLES, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11))
    def test_quantiles_of_a_tuple(self, sample, fractions):
        want = np.quantile(sample, fractions, method="linear")
        got = quantile(sample, tuple(fractions))
        assert all(same_quantile(g, float(w), sample) for g, w in zip(got, want))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SAMPLES, min_size=1, max_size=6),
           st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.1]))
    def test_batched_rows_padded_with_nan(self, rows, p):
        count = np.array([len(r) for r in rows])
        padded = np.full((len(rows), count.max()), np.nan)
        for i, r in enumerate(rows):
            padded[i, :len(r)] = r
        padded = np.sort(padded, axis=-1)
        medians = sorted_median(padded, count)
        quantiles = sorted_quantile(padded, count, p)
        for i, r in enumerate(rows):
            assert float(medians[i]).hex() == float(np.median(r)).hex()
            assert same_quantile(float(quantiles[i]),
                                 float(np.quantile(r, p, method="linear")), r)

    def test_one_element(self):
        for v in (-0.0, 0.0, -2.5, 7.0):
            assert median([v]).hex() == float(np.median([v])).hex()
            for p in (0.0, 0.5, 1.0):
                assert quantile([v], p).hex() == float(np.quantile([v], p)).hex()

    def test_empty_median(self):
        with pytest.raises(ValueError, match="empty"):
            median([])


class TestPercentileRank:
    def test_nan_value_is_named(self):
        with pytest.raises(ValueError, match="NaN value"):
            percentile_rank(float("nan"), [1.0, 2.0, 3.0])

    def test_nan_in_sample_is_named(self):
        with pytest.raises(ValueError, match="NaN at index 1"):
            percentile_rank(2.0, [1.0, float("nan"), 3.0])

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
