import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from triagesim import ParameterError, auc, fit_from_point, roc_tpf, sample_operating_points
from triagesim.roc import BinormalRoc


class TestFitFromPoint:
    def test_chance_line_point(self):
        assert fit_from_point(0.5, 0.5).a == pytest.approx(0.0, abs=1e-12)

    def test_device_point_separation(self):
        curve = fit_from_point(0.906, 0.101)
        expected = float(ndtri(0.906) - ndtri(0.101))
        assert curve.a == pytest.approx(expected, abs=1e-9)
        assert curve.a == pytest.approx(2.592, abs=2e-3)
        assert curve.b == 1.0

    def test_round_trip_through_fitted_point(self):
        for tpf in (0.2, 0.5, 0.906, 0.99):
            for fpf in (0.01, 0.101, 0.4, 0.8):
                for slope in (0.7, 1.0, 1.4):
                    curve = fit_from_point(tpf, fpf, slope=slope)
                    assert roc_tpf(curve, fpf) == pytest.approx(tpf, abs=1e-9)

    def test_rejects_degenerate_points(self):
        for tpf, fpf in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ParameterError):
                fit_from_point(tpf, fpf)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ParameterError):
            BinormalRoc(a=1.0, b=0.0)


class TestRocCurve:
    def test_endpoints(self):
        curve = fit_from_point(0.906, 0.101)
        assert roc_tpf(curve, 0.0) == 0.0
        assert roc_tpf(curve, 1.0) == 1.0

    def test_chance_diagonal_is_identity(self):
        curve = BinormalRoc(a=0.0, b=1.0)
        for fpf in (0.1, 0.35, 0.5, 0.9):
            assert roc_tpf(curve, fpf) == pytest.approx(fpf, abs=1e-12)

    def test_monotone_for_any_positive_slope(self):
        for slope in (0.5, 1.0, 2.0):
            curve = fit_from_point(0.9, 0.1, slope=slope)
            grid = np.linspace(0, 1, 101)
            values = [roc_tpf(curve, float(f)) for f in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_device_point_recovery(self):
        curve = fit_from_point(0.906, 0.101)
        assert roc_tpf(curve, 0.101) == pytest.approx(0.906, abs=1e-9)


class TestAuc:
    def test_chance_curve(self):
        assert auc(BinormalRoc(a=0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_device_curve(self):
        curve = fit_from_point(0.906, 0.101)
        expected = float(ndtr(curve.a / np.sqrt(2.0)))
        assert auc(curve) == pytest.approx(expected, abs=1e-12)
        assert auc(curve) == pytest.approx(0.967, abs=2e-3)

    def test_limits(self):
        assert auc(BinormalRoc(a=40.0)) == pytest.approx(1.0, abs=1e-12)
        for a in (0.1, 0.5, 1.0, 3.0):
            assert 0.5 < auc(BinormalRoc(a=a)) < 1.0


class TestSampleOperatingPoints:
    def test_two_points_are_the_corners(self):
        curve = fit_from_point(0.9, 0.1)
        assert sample_operating_points(curve, 2) == [(0.0, 0.0), (1.0, 1.0)]

    def test_thousand_point_grid(self):
        curve = fit_from_point(0.906, 0.101)
        points = sample_operating_points(curve, 1000)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        tpfs = [t for _, t in points]
        assert all(b >= a for a, b in zip(tpfs, tpfs[1:]))
        nearest = min(points, key=lambda pt: abs(pt[0] - 0.101))
        assert nearest[1] == pytest.approx(0.906, abs=2e-3)

    def test_requires_two_points(self):
        with pytest.raises(ParameterError):
            sample_operating_points(fit_from_point(0.9, 0.1), 1)
