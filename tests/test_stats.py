import numpy as np
import pytest
from scipy import stats as sps

from triagesim import InsufficientDataError, tat_summary, time_savings_test
from triagesim.core import trial_stream


def with_exact_moments(values, mean, sd):
    """Rescale a sample so it has exactly the requested mean and SD."""
    values = np.asarray(values, dtype=float)
    standardized = (values - values.mean()) / values.std(ddof=1)
    return standardized * sd + mean


class TestTatSummary:
    def test_constant_sample(self):
        summary = tat_summary([10.0, 10.0, 10.0, 10.0])
        assert summary.mean == 10.0
        assert summary.ci95 == (10.0, 10.0)
        assert summary.percentiles == (10.0, 10.0, 10.0)

    def test_matches_reference_formulas(self):
        rng = trial_stream(1)
        sample = rng.exponential(45.0, 500)
        summary = tat_summary(sample)
        n = sample.size
        half = sps.t.ppf(0.975, n - 1) * sample.std(ddof=1) / np.sqrt(n)
        assert summary.ci95[0] == pytest.approx(sample.mean() - half, rel=1e-12)
        assert summary.ci95[1] == pytest.approx(sample.mean() + half, rel=1e-12)
        assert summary.percentiles == tuple(np.percentile(sample, [2.5, 50, 97.5]))

    def test_ci_coverage_on_skewed_data(self):
        # t-intervals on exponential samples undercover slightly; the
        # long-run rate must stay at or above 93%.
        rng = trial_stream(90)
        true_mean = 45.0
        covered = 0
        reps = 1000
        for _ in range(reps):
            sample = rng.exponential(true_mean, 100)
            low, high = tat_summary(sample).ci95
            covered += low <= true_mean <= high
        assert covered / reps >= 0.93

    def test_requires_two_values(self):
        with pytest.raises(InsufficientDataError):
            tat_summary([5.0])


class TestTimeSavingsTest:
    def test_identical_samples(self):
        rng = trial_stream(2)
        sample = rng.exponential(50.0, 300)
        result = time_savings_test(sample, sample)
        assert result.diff_of_means == pytest.approx(0.0, abs=1e-12)
        assert result.p_one_sided == pytest.approx(0.5, abs=1e-9)

    def test_constant_identical_samples(self):
        result = time_savings_test([5.0, 5.0, 5.0], [5.0, 5.0])
        assert result.diff_of_means == 0.0
        assert result.p_one_sided == 0.5

    def test_clear_shift_is_significant(self):
        rng = trial_stream(3)
        post = rng.normal(40.0, 5.0, 200)
        pre = rng.normal(60.0, 5.0, 200)
        result = time_savings_test(pre, post)
        assert result.p_one_sided < 0.001
        assert result.ci95[0] < result.diff_of_means < result.ci95[1]

    def test_matches_scipy_welch(self):
        rng = trial_stream(4)
        pre = rng.normal(55.0, 20.0, 120)
        post = rng.normal(48.0, 12.0, 250)
        result = time_savings_test(pre, post)
        reference = sps.ttest_ind(pre, post, equal_var=False)
        assert result.p_one_sided == pytest.approx(reference.pvalue / 2, rel=1e-9)
        assert result.dof == pytest.approx(reference.df, rel=1e-9)

    def test_observed_cohort_moment_clone(self):
        # Samples built to carry the observed work-hour cohort moments: the
        # Welch machinery must return the published difference and interval.
        rng = trial_stream(5)
        pre = with_exact_moments(rng.exponential(1.0, 300), 68.9, 122.8)
        post = with_exact_moments(rng.exponential(1.0, 500), 46.7, 97.5)
        result = time_savings_test(pre, post)
        assert result.diff_of_means == pytest.approx(22.2, abs=1e-9)
        assert result.ci95[0] == pytest.approx(5.85, abs=0.35)
        assert result.ci95[1] == pytest.approx(38.6, abs=0.35)
        assert result.p_one_sided == pytest.approx(0.004, abs=0.002)

    def test_requires_two_values_each(self):
        with pytest.raises(InsufficientDataError):
            time_savings_test([1.0], [1.0, 2.0])
