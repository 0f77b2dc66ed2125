import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import gazesim.assess
from gazesim.assess import (RepeatAccuracy, ZeroVarianceWarning, assessment_report_dict,
                            distribution_summary, one_nn_two_sample, repeated_assessment,
                            _DENSE_MAX_ROWS, _nearest_other, _standardize)
from gazesim.quantiles import quantile
from gazesim.types import QUALITY_FEATURES, QualityVector


def qv_from_features(values):
    acc_h, acc_v, acc_c, prec_h, prec_v, prec_c, temporal = values
    return QualityVector(acc_h=acc_h, acc_v=acc_v, acc_c=acc_c, prec_h=prec_h,
                         prec_v=prec_v, prec_c=prec_c, temporal_prec_ms=temporal,
                         n_fixations_used=5)


def feature_rows(qvs):
    """The (n, 7) feature matrix of QualityVectors, one row each."""
    return np.array([qv.as_tuple() for qv in qvs], dtype=float)


def random_qv(rng):
    acc_h = rng.uniform(0.05, 1.0)
    acc_v = rng.uniform(0.05, 1.0)
    acc_c = rng.uniform(max(acc_h, acc_v), acc_h + acc_v)
    prec_h = rng.uniform(0.01, 0.3)
    prec_v = rng.uniform(0.01, 0.3)
    return qv_from_features([acc_h, acc_v, acc_c, prec_h, prec_v,
                             float(np.hypot(prec_h, prec_v)), rng.uniform(0, 2)])


class TestFeatureMatrix:
    def test_identical_vectors_warn_zero_variance(self):
        v = random_qv(np.random.default_rng(1))
        raw = feature_rows([v])
        with pytest.warns(ZeroVarianceWarning):
            z_real, z_synth = _standardize(raw, raw)
        assert np.allclose(z_real, 0.0) and np.allclose(z_synth, 0.0)

    def test_pooled_standardization_centers_union(self):
        rng = np.random.default_rng(2)
        a = [random_qv(rng) for _ in range(20)]
        b = [random_qv(rng) for _ in range(30)]
        raw_a, raw_b = feature_rows(a), feature_rows(b)
        union = np.vstack(_standardize(raw_a, raw_b))
        np.testing.assert_allclose(union.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(union.std(axis=0), 1.0, atol=1e-12)

    def test_column_order(self):
        v = qv_from_features([1, 2, 2.5, 0.1, 0.2, float(np.hypot(0.1, 0.2)), 7])
        raw = feature_rows([v])
        assert raw[0].tolist() == [1, 2, 2.5, 0.1, 0.2, np.hypot(0.1, 0.2), 7]
        assert QUALITY_FEATURES[0] == "acc_h" and QUALITY_FEATURES[-1] == "temporal_prec_ms"


def dense_neighbors(real, synth):
    """The dense oracle: argmin over the full pooled distance matrix with an
    infinite diagonal (ties to the lowest index)."""
    pooled = np.vstack([real, synth])
    dist = cdist(pooled, pooled)
    np.fill_diagonal(dist, np.inf)
    return np.argmin(dist, axis=1)


def dense_accuracy(real, synth):
    n = real.shape[0]
    is_real = np.arange(2 * n) < n
    correct = is_real[dense_neighbors(real, synth)] == is_real
    return float(correct.mean()), float(correct[:n].mean()), float(correct[n:].mean())


def neighbors_with_dense_limit(real, synth, limit):
    """_nearest_other of the pooled rows with _DENSE_MAX_ROWS set to
    `limit`: 0 takes the KD-tree path at every size, and a limit of at
    least the pooled rows takes the dense path."""
    with mock.patch.object(gazesim.assess, "_DENSE_MAX_ROWS", limit):
        return _nearest_other(np.vstack([real, synth]))


def kd_neighbors(real, synth):
    return neighbors_with_dense_limit(real, synth, 0)


def _random_case(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 7)), rng.normal(size=(n, 7))


def _duplicates_case(n, seed):
    # every row drawn from a few distinct ones: many rows with 3+ exact copies
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(3, 7))
    return base[rng.integers(0, 3, size=n)], base[rng.integers(0, 3, size=n)]


def _exact_copy_case(n, seed):
    real = np.random.default_rng(seed).normal(size=(n, 7))
    return real, real.copy()


def _grid_case(n, seed):
    # small integer grid: many exactly equal distances between distinct rows
    rng = np.random.default_rng(seed)
    return (rng.integers(-1, 2, size=(n, 3)).astype(float),
            rng.integers(-1, 2, size=(n, 3)).astype(float))


def _identical_case(n, seed):
    # every row at distance 0 from every other: the lowest other index wins
    return np.ones((n, 7)), np.ones((n, 7))


def _overflow_case(n, seed):
    # finite features whose squared distances overflow to inf
    real, synth = _random_case(n, seed)
    return real * 1e200, synth * 1e200


class TestKDTreeOracle:
    @pytest.mark.parametrize("make", [_random_case, _duplicates_case,
                                      _exact_copy_case, _grid_case, _identical_case,
                                      _overflow_case])
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_neighbors_equal_dense_argmin(self, make, n, seed):
        real, synth = make(n, seed)
        np.testing.assert_array_equal(kd_neighbors(real, synth),
                                      dense_neighbors(real, synth))
        r = one_nn_two_sample(real, synth)
        assert (r.combined, r.real, r.synthetic) == dense_accuracy(real, synth)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 25).flatmap(lambda n: st.tuples(
        arrays(float, (n, 4), elements=st.integers(-3, 3).map(float)),
        arrays(float, (n, 4), elements=st.integers(-3, 3).map(float)))))
    def test_integer_features_match_dense(self, pair):
        real, synth = pair
        np.testing.assert_array_equal(kd_neighbors(real, synth),
                                      dense_neighbors(real, synth))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        real, synth = _random_case(5, 0)
        synth[3, 2] = bad
        with pytest.raises(ValueError, match="^feature matrices must be finite$"):
            one_nn_two_sample(real, synth)

    def test_memory_linear_in_rows(self):
        # the dense (2n)^2 float64 matrix would take 800 MB at n = 5000
        real, synth = _random_case(5000, 1)
        tracemalloc.start()
        try:
            one_nn_two_sample(real, synth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestDenseAndKDTreePaths:
    # each class's rows on both sides of the dense limit of pooled rows;
    # numpy's floating-point warnings are errors
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(2, _DENSE_MAX_ROWS // 2),
                     st.integers(_DENSE_MAX_ROWS // 2 + 1, _DENSE_MAX_ROWS // 2 + 60)),
           st.sampled_from([_random_case, _duplicates_case, _exact_copy_case, _grid_case,
                            _identical_case]),
           st.sampled_from([1.0, 1e200]), st.integers(0, 2 ** 32 - 1))
    def test_both_paths_equal_the_cdist_oracle(self, n, make, scale, seed):
        # a scale of 1e200 makes squared distances overflow to inf, where
        # the dense path must neither warn nor lose the lowest-index tie
        real, synth = make(n, seed)
        real, synth = real * scale, synth * scale
        want = dense_neighbors(real, synth)
        np.testing.assert_array_equal(_nearest_other(np.vstack([real, synth])), want)
        np.testing.assert_array_equal(kd_neighbors(real, synth), want)
        np.testing.assert_array_equal(neighbors_with_dense_limit(real, synth, 2 * n), want)


class TestOneNN:
    def test_separated_clusters_fully_classified(self):
        rng = np.random.default_rng(3)
        real = rng.normal(0.0, 0.1, size=(5, 7))
        synth = rng.normal(10.0, 0.1, size=(5, 7))
        result = one_nn_two_sample(real, synth)
        assert result == RepeatAccuracy(combined=1.0, real=1.0, synthetic=1.0)

    def test_exact_copy_scores_zero(self):
        rng = np.random.default_rng(4)
        real = rng.normal(size=(20, 7))
        result = one_nn_two_sample(real, real.copy())
        assert result.combined == 0.0

    def test_chance_level_for_iid_samples(self):
        medians = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            real = rng.normal(size=(200, 7))
            synth = rng.normal(size=(200, 7))
            medians.append(one_nn_two_sample(real, synth).combined)
        assert 0.40 <= float(np.median(medians)) <= 0.60

    def test_combined_is_mean_of_class_accuracies(self):
        rng = np.random.default_rng(5)
        real = rng.normal(size=(30, 7))
        synth = rng.normal(0.5, 1.0, size=(30, 7))
        r = one_nn_two_sample(real, synth)
        assert r.combined == pytest.approx((r.real + r.synthetic) / 2.0, abs=1e-12)

    def test_unequal_sizes_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="equal shape"):
            one_nn_two_sample(rng.normal(size=(5, 7)), rng.normal(size=(6, 7)))

    def test_needs_two_rows_per_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            one_nn_two_sample(np.zeros((1, 7)), np.ones((1, 7)))

    def test_invariant_under_shared_affine_rescaling(self):
        rng = np.random.default_rng(7)
        a = [random_qv(rng) for _ in range(40)]
        b = [random_qv(rng) for _ in range(40)]
        raw_a, raw_b = feature_rows(a), feature_rows(b)
        scale = rng.uniform(0.5, 3.0, size=7)
        shift = rng.normal(size=7)
        za1, zb1 = _standardize(raw_a, raw_b)
        za2, zb2 = _standardize(raw_a * scale + shift, raw_b * scale + shift)
        np.testing.assert_allclose(za1, za2, atol=1e-10)
        r1 = one_nn_two_sample(za1, zb1)
        r2 = one_nn_two_sample(za2, zb2)
        assert r1.combined == r2.combined


class TestRepeatedAssessment:
    def test_identical_sets_identical_repeats(self):
        rng = np.random.default_rng(8)
        qvs = [random_qv(rng) for _ in range(15)]
        result = repeated_assessment(feature_rows(qvs), feature_rows(qvs),
                                     repeats=5, seed=3)
        combos = {r.combined for r in result.per_repeat}
        assert len(combos) == 1
        assert result.range_of("combined") == 0.0
        assert result.combined_accuracy == 0.0  # duplicated rows pair up cross-class

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        real = feature_rows([random_qv(rng) for _ in range(30)])
        synth = feature_rows([random_qv(rng) for _ in range(20)])
        a = repeated_assessment(real, synth, repeats=5, seed=11)
        b = repeated_assessment(real, synth, repeats=5, seed=11)
        assert a == b

    def test_seed_changes_subsamples(self):
        rng = np.random.default_rng(10)
        real = feature_rows([random_qv(rng) for _ in range(40)])
        synth = feature_rows([random_qv(rng) for _ in range(20)])
        a = repeated_assessment(real, synth, repeats=5, seed=1)
        b = repeated_assessment(real, synth, repeats=5, seed=2)
        assert a.per_repeat != b.per_repeat

    def test_synth_larger_than_real_rejected(self):
        rng = np.random.default_rng(11)
        real = feature_rows([random_qv(rng) for _ in range(5)])
        synth = feature_rows([random_qv(rng) for _ in range(6)])
        with pytest.raises(ValueError, match="at least as large"):
            repeated_assessment(real, synth)

    def test_repeats_must_be_positive(self):
        rng = np.random.default_rng(12)
        qvs = feature_rows([random_qv(rng) for _ in range(5)])
        with pytest.raises(ValueError, match="repeats"):
            repeated_assessment(qvs, qvs, repeats=0)

    @pytest.mark.parametrize("shape", [(10,), (10, 6), (0, 7)])
    def test_feature_matrix_shape_checked(self, shape):
        with pytest.raises(ValueError, match=r"^synth must be an \(n, 7\) feature matrix"):
            repeated_assessment(np.ones((10, 7)), np.ones(shape))
        with pytest.raises(ValueError, match=r"^features must be an \(n, 7\) feature matrix"):
            distribution_summary(np.ones(shape))

    def test_report_dict_layout(self):
        rng = np.random.default_rng(13)
        real = feature_rows([random_qv(rng) for _ in range(20)])
        synth = feature_rows([random_qv(rng) for _ in range(10)])
        result = repeated_assessment(real, synth, repeats=3, seed=0)
        report = assessment_report_dict(result)
        assert report["n_per_class"] == 10 and report["repeats"] == 3
        assert len(report["per_repeat"]) == 3
        assert set(report["combined_accuracy"]) == {"median", "range"}
        assert report["combined_accuracy"]["range"] == pytest.approx(
            max(r.combined for r in result.per_repeat)
            - min(r.combined for r in result.per_repeat))


class TestDistributionSummary:
    def test_constant_feature_all_equal(self):
        v = random_qv(np.random.default_rng(14))
        summaries = distribution_summary(feature_rows([v] * 8))
        acc_h = summaries[0]
        assert acc_h.minimum == acc_h.median == acc_h.maximum == v.acc_h
        assert all(d == v.acc_h for d in acc_h.deciles)

    def test_one_to_ten_quantiles(self):
        qvs = [qv_from_features([float(i), 0.2, max(float(i), 0.2) + 0.01,
                                 0.1, 0.1, float(np.hypot(0.1, 0.1)), 0.5])
               for i in range(1, 11)]
        summary = distribution_summary(feature_rows(qvs))[0]
        values = np.arange(1.0, 11.0)
        assert summary.median == 5.5
        assert summary.deciles[0] == pytest.approx(quantile(values, 0.1)) == 1.9
        assert summary.deciles[-1] == pytest.approx(quantile(values, 0.9)) == 9.1
        assert summary.mean == 5.5
        assert summary.minimum == 1.0 and summary.maximum == 10.0

    @pytest.mark.parametrize("n", [1, 2, 11, 4500])
    def test_quantiles_equal_one_call_per_fraction(self, n):
        # one np.quantile call per feature gives, bit for bit, the ten calls
        # (nine deciles and the median) it replaced; lognormal columns as in a
        # quality table, rounded so that some values tie
        rng = np.random.default_rng(n)
        features = np.round(np.exp(rng.normal(-1.5, 0.5, (n, 7))), 3)
        for j, summary in enumerate(distribution_summary(features)):
            col = features[:, j]
            want = [float(np.quantile(col, p, method="linear"))
                    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
            assert [v.hex() for v in summary.deciles] == [v.hex() for v in want]
            assert summary.median.hex() == float(np.quantile(col, 0.5, method="linear")).hex()
