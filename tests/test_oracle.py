import numpy as np
import pytest

from triagesim import (
    DeviceOperatingPoint,
    InfeasibleParametersError,
    ParameterError,
    PriorityLoad,
    QueueDiscipline,
    WorkflowParams,
    analytic_time_savings,
    erlang_c,
    mmc_fifo_wait,
    mmc_preemptive_priority_wait,
    mmc_priority_wait,
)


class TestErlangC:
    def test_single_server_equals_rho(self):
        # M/M/1: P(wait) = rho.
        assert erlang_c(1, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert erlang_c(1, 0.9) == pytest.approx(0.9, rel=1e-12)

    def test_two_servers_unit_load(self):
        # Exact hand evaluation of the Erlang-C sum: a=1, c=2 gives 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_monotone_in_load(self):
        values = [erlang_c(3, a) for a in np.linspace(0.3, 2.9, 14)]
        assert all(0 < v < 1 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_large_server_count_stable(self):
        value = erlang_c(50, 45.0)
        assert 0.0 < value < 1.0

    def test_instability_and_validation(self):
        with pytest.raises(InfeasibleParametersError):
            erlang_c(2, 2.0)
        with pytest.raises(InfeasibleParametersError):
            erlang_c(3, 3.5)
        with pytest.raises(ParameterError):
            erlang_c(0, 0.5)
        with pytest.raises(ParameterError):
            erlang_c(2, -1.0)


class TestFifoWait:
    def test_mm1_closed_form(self):
        # Wq = lambda / (mu (mu - lambda)) = 9 minutes.
        lam, mu = 0.1, 1.0 / 6.0
        assert mmc_fifo_wait(lam, mu, 1) == pytest.approx(
            lam / (mu * (mu - lam)), rel=1e-12
        )
        assert mmc_fifo_wait(lam, mu, 1) == pytest.approx(9.0, rel=1e-12)

    def test_vanishing_arrivals(self):
        assert mmc_fifo_wait(0.0, 0.2, 3) == 0.0
        assert mmc_fifo_wait(1e-9, 0.2, 3) < 1e-6

    def test_three_servers_finite(self):
        wq = mmc_fifo_wait(1 / 2.17, 1 / 6.169, 3)
        assert 0 < wq < 1000


class TestPriorityWait:
    def test_single_class_equals_fifo(self):
        for c in (1, 2, 3, 5):
            for rho in (0.1, 0.5, 0.9):
                mu = 0.25
                lam = rho * c * mu
                load = PriorityLoad((lam,), mu, c)
                (wq,) = mmc_priority_wait(load)
                assert wq == pytest.approx(mmc_fifo_wait(lam, mu, c), rel=1e-12)

    def test_conservation_law(self):
        # The rate-weighted mean of class waits equals the FIFO wait when all
        # classes share one service rate.
        for c in (1, 2, 3):
            for rho in (0.3, 0.6, 0.9):
                for split in (0.01, 0.5, 0.9):
                    mu = 1.0 / 6.0
                    lam = rho * c * mu
                    lams = (split * lam, (1 - split) * lam)
                    waits = mmc_priority_wait(PriorityLoad(lams, mu, c))
                    mixed = sum(l / lam * w for l, w in zip(lams, waits))
                    assert mixed == pytest.approx(
                        mmc_fifo_wait(lam, mu, c), rel=1e-9
                    )

    def test_priority_ordering(self):
        mu, c = 1.0 / 6.0, 2
        lam = 0.8 * c * mu
        w1, w2 = mmc_priority_wait(PriorityLoad((lam / 2, lam / 2), mu, c))
        fifo = mmc_fifo_wait(lam, mu, c)
        assert w1 < fifo < w2

    def test_load_validation(self):
        with pytest.raises(InfeasibleParametersError):
            PriorityLoad((0.3, 0.3), 0.25, 2)
        with pytest.raises(ParameterError):
            PriorityLoad((), 0.25, 2)
        with pytest.raises(ParameterError):
            PriorityLoad((-0.1,), 0.25, 2)
        with pytest.raises(ParameterError):
            PriorityLoad((0.1,), 0.0, 2)
        for rates, service_rate in (
            ((float("nan"),), 0.25),
            ((0.1, float("inf")), 0.25),
            ((0.1,), float("nan")),
            ((0.1,), float("inf")),
        ):
            with pytest.raises(ParameterError):
                PriorityLoad(rates, service_rate, 2)


class TestPreemptivePriorityWait:
    def test_single_class_equals_fifo(self):
        for c in (1, 2, 3, 5):
            for rho in (0.1, 0.5, 0.9):
                mu = 0.25
                lam = rho * c * mu
                (wq,) = mmc_preemptive_priority_wait(PriorityLoad((lam,), mu, c))
                assert wq == pytest.approx(mmc_fifo_wait(lam, mu, c), rel=1e-12)

    def test_top_class_sees_only_itself(self):
        # Preemption makes lower classes invisible to class 1.
        for c in (1, 2, 3):
            mu = 1.0 / 6.0
            lam = 0.8 * c * mu
            lams = (0.3 * lam, 0.7 * lam)
            w1, _ = mmc_preemptive_priority_wait(PriorityLoad(lams, mu, c))
            assert w1 == pytest.approx(mmc_fifo_wait(lams[0], mu, c), rel=1e-12)

    def test_conservation_law_and_ordering(self):
        # A common service rate leaves the number in system unchanged, so
        # the rate-weighted class waits still average to the FIFO wait; the
        # top class waits less than under Cobham and the bottom class more.
        for c in (1, 2, 3):
            for rho in (0.3, 0.6, 0.9):
                mu = 1.0 / 6.0
                lam = rho * c * mu
                lams = (0.2 * lam, 0.8 * lam)
                load = PriorityLoad(lams, mu, c)
                waits = mmc_preemptive_priority_wait(load)
                mixed = sum(l / lam * w for l, w in zip(lams, waits))
                assert mixed == pytest.approx(mmc_fifo_wait(lam, mu, c), rel=1e-9)
                cobham = mmc_priority_wait(load)
                assert waits[0] < cobham[0] and waits[1] > cobham[1]

    def test_zero_rate_classes(self):
        w1, w2 = mmc_preemptive_priority_wait(PriorityLoad((0.0, 0.2), 0.25, 1))
        assert w1 == 0.0
        assert w2 == pytest.approx(mmc_fifo_wait(0.2, 0.25, 1), rel=1e-12)
        _, w2 = mmc_preemptive_priority_wait(PriorityLoad((0.2, 0.0), 0.25, 1))
        assert np.isnan(w2)

    def test_studied_off_hour_point(self):
        # Off hours: 3 readers, inter-arrival 3.19 min, common service mean
        # 6.169 min, device tpf 0.906 at adjusted fpf 0.00206.
        params = WorkflowParams(
            prevalence=0.00319,
            mean_interarrival=3.19,
            n_radiologists=3,
            read_time_diseased=6.169,
            read_time_nondiseased_effective=6.169,
            device=DeviceOperatingPoint(0.906, 0.00206),
        )
        preemptive = analytic_time_savings(
            params, 6.169, QueueDiscipline.AI_PRIORITY_PREEMPTIVE
        )
        assert round(preemptive, 2) == 2.17
        assert round(analytic_time_savings(params, 6.169), 2) == 1.40


class TestAnalyticSavings:
    def make(self, tpf, fpf, prevalence=0.00319):
        return WorkflowParams(
            prevalence=prevalence,
            mean_interarrival=2.17,
            n_radiologists=3,
            read_time_diseased=6.169,
            read_time_nondiseased_effective=6.169,
            device=DeviceOperatingPoint(tpf, fpf),
        )

    def test_zero_when_nothing_flagged(self):
        assert analytic_time_savings(self.make(0.0, 0.0), 6.169) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rare_disease_perfect_device_limit(self):
        # With tpf=1, fpf=0 and prevalence -> 0 the diseased class is alone in
        # front: its wait tends to W0, so savings -> Wq_fifo - W0.
        params = self.make(1.0, 0.0, prevalence=1e-9)
        lam, mu, c = 1 / 2.17, 1 / 6.169, 3
        w0 = erlang_c(c, lam / mu) / (c * mu)
        expected = mmc_fifo_wait(lam, mu, c) - w0
        assert analytic_time_savings(params, 6.169) == pytest.approx(expected, rel=1e-6)

    def test_savings_positive_at_device_point(self):
        savings = analytic_time_savings(self.make(0.906, 0.00206), 6.169)
        assert 20 < savings < 40

    def test_rejects_bad_service_mean(self):
        with pytest.raises(ParameterError):
            analytic_time_savings(self.make(0.9, 0.0), 0.0)

    def test_rejects_fifo_discipline(self):
        with pytest.raises(ParameterError):
            analytic_time_savings(self.make(0.9, 0.0), 6.169, QueueDiscipline.FIFO)

    def test_preemptive_limits(self):
        preemptive = QueueDiscipline.AI_PRIORITY_PREEMPTIVE
        assert analytic_time_savings(
            self.make(0.0, 0.0), 6.169, preemptive
        ) == pytest.approx(0.0, abs=1e-12)
        # A perfect device on a vanishing diseased class: diseased exams see
        # an empty queue, so the whole FIFO wait is saved.
        params = self.make(1.0, 0.0, prevalence=1e-9)
        expected = mmc_fifo_wait(1 / 2.17, 1 / 6.169, 3)
        assert analytic_time_savings(params, 6.169, preemptive) == pytest.approx(
            expected, rel=1e-6
        )
