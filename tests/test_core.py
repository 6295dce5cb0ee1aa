import dataclasses

import numpy as np
import pytest
from scipy import stats as sps

import triagesim
from triagesim import (
    DeviceOperatingPoint,
    InfeasibleParametersError,
    ParameterError,
    WorkflowParams,
    mean_service_time,
    trial_stream,
)
from triagesim.simulator import generate_stream


def make_params(**overrides):
    defaults = dict(
        prevalence=0.00319,
        mean_interarrival=2.17,
        n_radiologists=3,
        read_time_diseased=12.1,
        read_time_nondiseased_effective=6.15,
        device=DeviceOperatingPoint(0.906, 0.00206),
    )
    defaults.update(overrides)
    return WorkflowParams(**defaults)


class TestWorkflowParams:
    def test_valid_construction(self, work_hour_params):
        assert 0 < work_hour_params.utilization < 1

    def test_mean_service_time_weighting(self, work_hour_params):
        assert mean_service_time(make_params(prevalence=0.0)) == 6.15
        assert mean_service_time(make_params(prevalence=1.0, mean_interarrival=13.0)) == 12.1
        assert mean_service_time(work_hour_params) == pytest.approx(6.169, abs=1e-3)

    def test_construction_fails_iff_utilization_reaches_one(self):
        # The feasibility boundary is exactly mean service time / server count.
        boundary = mean_service_time(make_params()) / 3
        with pytest.raises(InfeasibleParametersError):
            make_params(mean_interarrival=boundary)
        with pytest.raises(InfeasibleParametersError):
            make_params(mean_interarrival=boundary * 0.999)
        assert make_params(mean_interarrival=boundary * 1.001).utilization < 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"prevalence": -0.1},
            {"prevalence": 1.5},
            {"mean_interarrival": 0.0},
            {"mean_interarrival": -2.0},
            {"n_radiologists": 0},
            {"read_time_diseased": 0.0},
            {"read_time_nondiseased_effective": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ParameterError):
            make_params(**overrides)

    @pytest.mark.parametrize("tpf,fpf", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 2.0)])
    def test_device_point_validation(self, tpf, fpf):
        with pytest.raises(ParameterError):
            DeviceOperatingPoint(tpf, fpf)

    def test_flag_probability(self, work_hour_params):
        expected = 0.00319 * 0.906 + (1 - 0.00319) * 0.00206
        assert work_hour_params.flag_probability == pytest.approx(expected, rel=1e-12)


class TestTrialStream:
    def test_deterministic_per_key(self):
        a = trial_stream(7, 3).random(5)
        b = trial_stream(7, 3).random(5)
        assert np.array_equal(a, b)

    def test_streams_differ_across_trials(self):
        a = trial_stream(7, 0).random(5)
        b = trial_stream(7, 1).random(5)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            trial_stream(-1)


class TestSampleExponential:
    """Exponential read times as generate_stream draws them: a unit draw per
    exam, scaled by the mean of the exam's label."""

    def test_reproducible_and_positive(self):
        params = make_params(prevalence=0.5, mean_interarrival=13.0)
        a = generate_stream(params, 1000, trial_stream(11))
        b = generate_stream(params, 1000, trial_stream(11))
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
            assert np.array_equal(x, y)
        assert a.service.min() > 0
        assert np.diff(a.arrival).min() > 0

    def test_large_sample_mean_and_shape(self):
        params = make_params(prevalence=0.5, mean_interarrival=13.0)
        stream = generate_stream(params, 1_000_000, trial_stream(101))
        for mask, mean in (
            (stream.diseased, params.read_time_diseased),
            (~stream.diseased, params.read_time_nondiseased_effective),
        ):
            draws = stream.service[mask] / mean
            assert draws.min() > 0
            assert 0.99 <= draws.mean() <= 1.01
            ks = sps.kstest(draws, "expon", args=(0, 1.0)).statistic
            assert ks <= 0.01


class TestLabelExam:
    """Disease labels and AI flags as generate_stream draws them."""

    def test_degenerate_probabilities(self):
        sure = make_params(prevalence=1.0, mean_interarrival=13.0,
                           device=DeviceOperatingPoint(1.0, 0.0))
        never = make_params(prevalence=0.0, device=DeviceOperatingPoint(1.0, 0.0))
        stream = generate_stream(sure, 200, trial_stream(0))
        assert stream.diseased.all() and stream.flagged.all()
        stream = generate_stream(never, 200, trial_stream(0))
        assert not stream.diseased.any() and not stream.flagged.any()

    @pytest.mark.parametrize(
        "prevalence,tpf,fpf",
        [(0.1, 0.9, 0.05), (0.5, 0.5, 0.5), (0.00319, 0.906, 0.00206)],
    )
    def test_marginals_within_three_se(self, prevalence, tpf, fpf):
        n = 100_000
        params = make_params(
            prevalence=prevalence,
            mean_interarrival=13.0,
            device=DeviceOperatingPoint(tpf, fpf),
        )
        stream = generate_stream(params, n, trial_stream(77))
        se_d = np.sqrt(prevalence * (1 - prevalence) / n)
        p_flag = params.flag_probability
        se_f = np.sqrt(p_flag * (1 - p_flag) / n)
        assert abs(stream.diseased.mean() - prevalence) <= 3 * se_d
        assert abs(stream.flagged.mean() - p_flag) <= 3 * se_f

    def test_flag_rate_at_device_point_large_sample(self):
        n = 1_000_000
        params = make_params()
        stream = generate_stream(params, n, trial_stream(5))
        p_flag = params.flag_probability
        se = np.sqrt(p_flag * (1 - p_flag) / n)
        assert abs(stream.flagged.mean() - p_flag) <= 3 * se


def test_every_exported_name_resolves():
    assert all(hasattr(triagesim, name) for name in triagesim.__all__)
